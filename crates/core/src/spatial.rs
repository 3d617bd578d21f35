//! Spatial interference: per-neighborhood load games on conflict graphs.
//!
//! The paper models a single collision domain — every user shares every
//! channel with every other user. [`SpatialGame`] relaxes that: users
//! are vertices of a [`ConflictGraph`], and the load a user experiences
//! on a channel is the *closed-neighborhood* load
//!
//! ```text
//! ℓ_i(c) = k_{i,c} + Σ_{j ∈ N(i)} k_{j,c}
//! ```
//!
//! so only graph neighbors interfere. The clique graph recovers the
//! paper's game exactly — `spatial_equiv` pins `SpatialGame(clique)`
//! **bit-identical** (states, move sequences, rounds) to the
//! single-domain engine on both best-response routes.
//!
//! # How the engine generalizes
//!
//! [`ChannelGame::channel_payoff`] is already parameterized on the
//! others-load, so a neighborhood query asks the same payoffs a global
//! one does. On the separable-monotone route the [`RowKernel`] answers
//! it from the user's nonzero neighborhood cells plus one order of all
//! channels by zero-load marginal: `O(k · row)` work, nothing `|C|`-wide
//! per query. The generic route materializes the row as a
//! [`ChannelLoads`] view and runs the shared knapsack DP
//! ([`crate::br_dp`]). Both take the same marginals under the same tie
//! rule as the single-domain engines, so identical inputs produce
//! identical floats, which is what makes the clique reduction a
//! bit-level differential test rather than an approximate one.
//!
//! The driver changes only in its *wake rule*: a move by `u` changes
//! `ℓ_v(c)` exactly for `v ∈ N(u)` on the touched channels, so
//! [`SpatialDynamics`] wakes graph neighbors instead of channel
//! occupants.
//!
//! The driver keeps every closed-neighborhood row exact in one
//! [`NbrIndex`]. Its rows are either dense (flat `N·|C|` cells) or CSR
//! (sorted nonzero cells), picked once at build by size — CSR exactly
//! when its arena is smaller — so the index is never larger than the
//! dense matrix, and the layout changes no load, callback or float.
//!
//! # Convergence is measured, not guaranteed
//!
//! The paper's theorems (and the exact Rosenthal potential behind them)
//! cover the clique. Graphical congestion games with *nonlinear* sharing
//! payoffs need not admit an exact potential, and best-response cycles
//! are possible in principle. The engine therefore carries two
//! instruments instead of a theorem:
//!
//! * [`PotentialTracker`] — the Rosenthal-style per-neighborhood sum
//!   `Φ(s) = Σ_i Σ_c Σ_{j=1..ℓ_i(c)} φ_c(j)` with `φ_c(j) =
//!   payoff(c, j−1, 1)`, maintained incrementally from the exact cell
//!   deltas of every move (on a clique it equals `|N| ·` the paper's
//!   radio-level potential). Moves that *decrease* it are counted; a
//!   run with zero decreases was potential-monotone.
//! * [`CycleDetector`] — a fingerprint (state + worklist) of every
//!   round boundary; a revisited fingerprint under a deterministic
//!   driver proves an infinite best-response loop, which the driver
//!   reports explicitly instead of timing out silently. The fingerprint
//!   is a Zobrist-style incremental hash — a wrapping sum of per-user
//!   row keys, an XOR of per-user keys over the scheduled set, and
//!   `|N|` — so a round boundary costs `O(1)`, a row write `O(k)` and a
//!   scheduled-flag change `O(1)`: re-convergence after an event pays
//!   for its checks and moves, not for the population.
//!
//! `t11_spatial` sweeps density × conflict range × |C| with both
//! instruments on and writes `results/BENCH_spatial.json`.

use crate::br_dp::{self, ChannelGame};
use crate::br_fast::DynCounters;
use crate::error::Error;
use crate::game::improves;
use crate::game::NashCheck;
use crate::loads::ChannelLoads;
use crate::rate_model::RateShape;
use crate::sparse::{SparseEntry, SparseStrategies};
use crate::strategy::StrategyVector;
use crate::types::{ChannelId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

// ---------------------------------------------------------------------------
// Shared geometry predicate
// ---------------------------------------------------------------------------

/// Grid cell of `p` under inverse cell width `inv = 1/range` — the one
/// bucketing rule shared by [`ConflictGraph::geometric`] and
/// [`GeoIndex`], so the incremental and from-scratch builds cannot
/// drift (the `churn_equiv` geometric pin depends on their agreement).
#[inline]
fn grid_cell(p: (f64, f64), inv: f64) -> (i64, i64) {
    ((p.0 * inv).floor() as i64, (p.1 * inv).floor() as i64)
}

/// The one conflict predicate: Euclidean distance `≤ range`, evaluated
/// `a − b` in argument order so every caller produces identical floats.
#[inline]
fn within_range(a: (f64, f64), b: (f64, f64), range: f64) -> bool {
    let (dx, dy) = (a.0 - b.0, a.1 - b.1);
    (dx * dx + dy * dy).sqrt() <= range
}

// ---------------------------------------------------------------------------
// Conflict graph (CSR)
// ---------------------------------------------------------------------------

/// An undirected conflict graph over the users, stored CSR (sorted
/// adjacency rows), the same layout the strategy arena uses. Unlike the
/// dense `mrca_baselines` toy it scales to the 10⁵-user geometric smoke:
/// memory is `Θ(V + E)` and [`geometric`](Self::geometric) builds the
/// disk graph by grid bucketing in `O(V + E)` expected time instead of
/// the all-pairs `O(V²)` scan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConflictGraph {
    /// Row offsets, `n + 1` entries.
    starts: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    adj: Vec<u32>,
}

impl ConflictGraph {
    /// A graph of `n` isolated vertices (no interference — every user is
    /// alone in its collision domain).
    pub fn empty(n: usize) -> Self {
        ConflictGraph {
            starts: vec![0; n + 1],
            adj: Vec::new(),
        }
    }

    /// The complete graph: the paper's single collision domain.
    /// `Θ(n²)` memory — the clique is the differential-test reduction,
    /// not a scale target.
    pub fn clique(n: usize) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(n.saturating_sub(1) * n);
        starts.push(0);
        for v in 0..n as u32 {
            adj.extend((0..n as u32).filter(|&w| w != v));
            starts.push(adj.len() as u32);
        }
        ConflictGraph { starts, adj }
    }

    /// Build from an undirected edge list. Duplicate edges collapse;
    /// self-loops and out-of-range endpoints panic.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut pairs = Vec::with_capacity(edges.len() * 2);
        for &(i, j) in edges {
            assert!(i != j, "no self-loops");
            assert!((i as usize) < n && (j as usize) < n, "vertex out of range");
            pairs.push((i, j));
            pairs.push((j, i));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut starts = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(pairs.len());
        starts.push(0);
        let mut row = 0u32;
        for (i, j) in pairs {
            while row < i {
                starts.push(adj.len() as u32);
                row += 1;
            }
            adj.push(j);
        }
        while (starts.len() as u32) <= n as u32 {
            starts.push(adj.len() as u32);
        }
        ConflictGraph { starts, adj }
    }

    /// Disk graph of `positions`: vertices within `range` of each other
    /// conflict (the same `dist ≤ range` predicate as the baselines'
    /// dense graph, so both build identical edge sets from identical
    /// positions). Grid-bucketed: each point is hashed to a
    /// `range × range` cell and compared only against the 3×3 cell
    /// neighborhood, `O(V + E)` expected.
    pub fn geometric(positions: &[(f64, f64)], range: f64) -> Self {
        let n = positions.len();
        assert!(range > 0.0, "conflict range must be positive");
        let inv = 1.0 / range;
        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, &p) in positions.iter().enumerate() {
            cells.entry(grid_cell(p, inv)).or_default().push(i as u32);
        }
        let close =
            |i: u32, j: u32| within_range(positions[i as usize], positions[j as usize], range);
        let mut edges = Vec::new();
        for (&(cx, cy), members) in &cells {
            // Within the cell: ordered pairs once.
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    if close(i, j) {
                        edges.push((i, j));
                    }
                }
            }
            // Against half the 8-neighborhood, so each cell pair is
            // visited exactly once regardless of map iteration order.
            for (dx, dy) in [(1, -1), (1, 0), (1, 1), (0, 1)] {
                if let Some(other) = cells.get(&(cx + dx, cy + dy)) {
                    for &i in members {
                        for &j in other {
                            if close(i, j) {
                                edges.push((i, j));
                            }
                        }
                    }
                }
            }
        }
        ConflictGraph::from_edges(n, &edges)
    }

    /// Random positions in the `side × side` square with conflict
    /// `range` (deterministic per seed; the draw order matches the
    /// baselines' generator, so the same seed yields the same
    /// positions). Returns the graph and the positions.
    pub fn random_geometric(n: usize, side: f64, range: f64, seed: u64) -> (Self, Vec<(f64, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        (ConflictGraph::geometric(&positions, range), positions)
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.starts[v as usize] as usize..self.starts[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Whether `{u, v}` is an edge (`O(log deg u)`).
    pub fn contains_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Heap footprint of the CSR arrays (capacity, not length — what
    /// the allocator actually holds).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.starts.capacity() * size_of::<u32>() + self.adj.capacity() * size_of::<u32>()
    }

    /// Append a vertex adjacent to `neighbors` (existing vertices only),
    /// returning its id. The churn arrival path: `O(V + E)` — the CSR is
    /// re-spliced, with the new (maximal) id appended to each neighbor's
    /// sorted row. Churn batches are small next to the standing graph;
    /// an amortized slack-based splice is a recorded follow-on.
    pub fn push_vertex(&mut self, neighbors: &[u32]) -> u32 {
        let u = self.n_vertices() as u32;
        let mut nb = neighbors.to_vec();
        nb.sort_unstable();
        nb.dedup();
        assert!(
            nb.iter().all(|&v| v < u),
            "neighbors must be existing vertices"
        );
        let mut starts = Vec::with_capacity(self.starts.len() + 1);
        let mut adj = Vec::with_capacity(self.adj.len() + 2 * nb.len());
        starts.push(0u32);
        let mut it = nb.iter().peekable();
        for v in 0..u {
            adj.extend_from_slice(self.neighbors(v));
            if it.peek() == Some(&&v) {
                adj.push(u);
                it.next();
            }
            starts.push(adj.len() as u32);
        }
        adj.extend_from_slice(&nb);
        starts.push(adj.len() as u32);
        self.starts = starts;
        self.adj = adj;
        u
    }

    /// Append a vertex at position `p`, discovering its neighbors from
    /// the grid-bucketed [`GeoIndex`] instead of an explicit list — the
    /// seeded-geometric churn arrival path. The index is updated in the
    /// same call, so graph and index stay in lockstep; the result is
    /// identical to rebuilding [`ConflictGraph::geometric`] from scratch
    /// over the extended position set (same cell hash, same
    /// `dist ≤ range` predicate), which the churn differential suite
    /// pins.
    ///
    /// # Panics
    ///
    /// Panics if the index does not cover exactly this graph's vertices
    /// (one position per vertex, appended in id order).
    pub fn push_vertex_at(&mut self, geo: &mut GeoIndex, p: (f64, f64)) -> u32 {
        assert_eq!(
            geo.len(),
            self.n_vertices(),
            "geometric index out of sync with the graph"
        );
        let nb = geo.neighbors_within_range(p);
        let u = self.push_vertex(&nb);
        let v = geo.push(p);
        debug_assert_eq!(u, v);
        u
    }
}

/// Grid-bucketed position index companion to a geometric
/// [`ConflictGraph`]: positions hash to `range × range` cells, so
/// neighbor discovery for a churn arrival scans only the 3×3 cell
/// neighborhood — `O(1)` expected per arrival against a standing
/// population, versus the `O(V)` distance scan an explicit rebuild
/// would pay.
///
/// The graph intentionally does not own this ([`ConflictGraph`] derives
/// `Eq`/`Hash` for fingerprinting and stays geometry-free): the index
/// travels next to the graph in churn drivers and the two advance
/// together through [`ConflictGraph::push_vertex_at`].
#[derive(Debug, Clone)]
pub struct GeoIndex {
    positions: Vec<(f64, f64)>,
    range: f64,
    inv: f64,
    cells: HashMap<(i64, i64), Vec<u32>>,
}

impl GeoIndex {
    /// Index `positions` under conflict `range` — the same bucketing
    /// [`ConflictGraph::geometric`] uses internally.
    ///
    /// # Panics
    ///
    /// Panics unless `range > 0` and every coordinate is finite.
    pub fn new(positions: &[(f64, f64)], range: f64) -> Self {
        assert!(range > 0.0, "conflict range must be positive");
        let mut geo = GeoIndex {
            positions: Vec::with_capacity(positions.len()),
            range,
            inv: 1.0 / range,
            cells: HashMap::new(),
        };
        for &p in positions {
            geo.push(p);
        }
        geo
    }

    /// Number of indexed positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The conflict range.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The indexed positions, in vertex-id order.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    fn cell_of(&self, p: (f64, f64)) -> (i64, i64) {
        grid_cell(p, self.inv)
    }

    /// Sorted ids of indexed positions within `range` of `p` (the
    /// 3×3-cell scan; a position coincident with `p` counts).
    pub fn neighbors_within_range(&self, p: (f64, f64)) -> Vec<u32> {
        let (cx, cy) = self.cell_of(p);
        let mut out = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(members) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in members {
                        if within_range(self.positions[i as usize], p, self.range) {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Append a position, returning its id.
    ///
    /// # Panics
    ///
    /// Panics on non-finite coordinates (they would silently fall out
    /// of every cell query).
    pub fn push(&mut self, p: (f64, f64)) -> u32 {
        assert!(
            p.0.is_finite() && p.1.is_finite(),
            "positions must be finite, got {p:?}"
        );
        let id = self.positions.len() as u32;
        let cell = self.cell_of(p);
        self.positions.push(p);
        self.cells.entry(cell).or_default().push(id);
        id
    }
}

// ---------------------------------------------------------------------------
// The spatial game
// ---------------------------------------------------------------------------

/// Any [`ChannelGame`] restricted to a conflict graph: payoffs, budgets
/// and dimensions delegate to the inner game verbatim — only *which*
/// loads a user experiences changes, and that is the drivers' business
/// ([`NbrIndex`]), not the payoff's. On
/// [`ConflictGraph::clique`] every code path reduces bit-identically to
/// the single-domain engine.
#[derive(Debug, Clone)]
pub struct SpatialGame<G> {
    inner: G,
    graph: ConflictGraph,
}

impl<G: ChannelGame> SpatialGame<G> {
    /// Wrap `inner` on `graph`; the graph must have one vertex per user.
    pub fn new(inner: G, graph: ConflictGraph) -> Self {
        assert_eq!(
            graph.n_vertices(),
            inner.n_users(),
            "one graph vertex per user"
        );
        SpatialGame { inner, graph }
    }

    /// The clique special case — the paper's single collision domain.
    pub fn clique(inner: G) -> Self {
        let n = inner.n_users();
        SpatialGame {
            inner,
            graph: ConflictGraph::clique(n),
        }
    }

    /// The wrapped game.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Mutable access to the wrapped game — the churn path: push users
    /// into the inner game *and* their vertices into
    /// [`graph_mut`](Self::graph_mut) before calling a driver's
    /// `grow_users`.
    pub fn inner_mut(&mut self) -> &mut G {
        &mut self.inner
    }

    /// The conflict graph.
    pub fn graph(&self) -> &ConflictGraph {
        &self.graph
    }

    /// Mutable access to the graph (churn arrivals; see
    /// [`inner_mut`](Self::inner_mut)). Do not rewire existing edges
    /// while a driver holds derived neighborhood loads.
    pub fn graph_mut(&mut self) -> &mut ConflictGraph {
        &mut self.graph
    }
}

impl<G: ChannelGame> ChannelGame for SpatialGame<G> {
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    fn n_channels(&self) -> usize {
        self.inner.n_channels()
    }

    fn radios_of(&self, user: UserId) -> u32 {
        self.inner.radios_of(user)
    }

    fn channel_payoff(&self, channel: ChannelId, others_load: u32, slots: u32) -> f64 {
        self.inner.channel_payoff(channel, others_load, slots)
    }

    fn may_idle_radios(&self) -> bool {
        self.inner.may_idle_radios()
    }

    fn payoff_shape(&self) -> RateShape {
        self.inner.payoff_shape()
    }

    fn payoff_is_separable_monotone(&self) -> bool {
        // Forward the derived predicate too, in case the inner game
        // overrides it directly instead of through `payoff_shape`.
        self.inner.payoff_is_separable_monotone()
    }
}

// ---------------------------------------------------------------------------
// Per-neighborhood load index
// ---------------------------------------------------------------------------

/// Row-by-row closed-neighborhood aggregation, shared by the build above
/// [`FLAT_BUILD_CELLS`], [`NbrIndex::grow`] and [`NbrIndex::agrees_with`]:
/// one user's strategy row plus every graph neighbor's, accumulated in a
/// dense per-channel scratch and emitted as a sorted nonzero row. Narrow
/// channel spaces scan the whole scratch (branch-free adds, the dense
/// builder's inner loop); wide ones track the touched ids so the scan —
/// and the zeroing — never strides the `|C|`-wide scratch.
struct RowAggregator {
    scratch: Vec<u32>,
    touched: Vec<u32>,
}

/// Below this channel count the post-aggregation scan reads the whole
/// scratch instead of tracking touched ids — a couple of cache lines,
/// cheaper than a branch per radio added.
const SCAN_CHANNELS: usize = 32;

impl RowAggregator {
    fn new(n_channels: usize) -> Self {
        RowAggregator {
            scratch: vec![0u32; n_channels],
            touched: Vec::new(),
        }
    }

    fn aggregate(
        &mut self,
        graph: &ConflictGraph,
        s: &SparseStrategies,
        v: usize,
        out: &mut Vec<SparseEntry>,
    ) {
        if self.scratch.len() <= SCAN_CHANNELS {
            for &(c, k) in s.row(UserId(v)) {
                self.scratch[c as usize] += k;
            }
            for &u in graph.neighbors(v as u32) {
                for &(c, k) in s.row(UserId(u as usize)) {
                    self.scratch[c as usize] += k;
                }
            }
            for (c, l) in self.scratch.iter_mut().enumerate() {
                if *l != 0 {
                    out.push((c as u32, *l));
                    *l = 0;
                }
            }
        } else {
            let add = |row: &[SparseEntry], scratch: &mut [u32], touched: &mut Vec<u32>| {
                for &(c, k) in row {
                    if scratch[c as usize] == 0 {
                        touched.push(c);
                    }
                    scratch[c as usize] += k;
                }
            };
            self.touched.clear();
            add(s.row(UserId(v)), &mut self.scratch, &mut self.touched);
            for &u in graph.neighbors(v as u32) {
                add(
                    s.row(UserId(u as usize)),
                    &mut self.scratch,
                    &mut self.touched,
                );
            }
            self.touched.sort_unstable();
            for &c in &self.touched {
                out.push((c, self.scratch[c as usize]));
                self.scratch[c as usize] = 0;
            }
        }
    }
}

/// The dense builder: every user's strategy row scattered into its own
/// and its graph neighbors' flat `|C|`-wide rows, `O(Σ_i k_i·(1 + deg i))`.
fn scatter(graph: &ConflictGraph, s: &SparseStrategies) -> Vec<u32> {
    let c_n = s.n_channels();
    let mut flat = vec![0u32; s.n_users() * c_n];
    for v in 0..s.n_users() {
        for &(c, k) in s.row(UserId(v)) {
            flat[v * c_n + c as usize] += k;
            for &u in graph.neighbors(v as u32) {
                flat[u as usize * c_n + c as usize] += k;
            }
        }
    }
    flat
}

/// Slot capacity for a CSR row of `len` live entries: an `L/8` slack
/// plus two spare slots so load-only churn and small channel-set drift
/// stay in place, clamped to `|C|` (a row can never hold more distinct
/// channels than exist).
#[inline]
fn cap_for(len: usize, n_channels: usize) -> usize {
    (len + len / 8 + 2).min(n_channels)
}

/// The layout rule: CSR rows of these live lengths take fewer bytes than
/// the dense layout's `4·|C|` per row — 8 B (channel id + load) per
/// capped slot plus 12 B of per-row `meta` and `caps`. Ties go to dense.
fn csr_is_smaller(lens: &[u32], n_channels: usize) -> bool {
    let csr: usize = lens
        .iter()
        .map(|&len| 8 * cap_for(len as usize, n_channels) + 12)
        .sum();
    csr < lens.len() * 4 * n_channels
}

/// Cell cap on the transient flat scatter table the builder may use
/// (16M `u32` cells = 64 MB): under it the scatter — the dense layout
/// as built — yields every row length in one sweep, and is kept as is
/// when dense wins. Above it that transient would *be* the `Θ(N·|C|)`
/// wall CSR rows avoid, so the builder aggregates row by row instead
/// and scatters only once dense has won.
const FLAT_BUILD_CELLS: usize = 16 << 20;

/// The closed-neighborhood load index
/// `ℓ_i(c) = k_{i,c} + Σ_{j ∈ N(i)} k_{j,c}` — the spatial analogue of
/// the global [`ChannelLoads`] cache, kept exact on every move, arrival
/// and departure: a row replacement by `u` updates the `|Δ|` touched
/// channels of `u` and of every graph neighbor, reporting each cell
/// transition to the caller (the potential tracker integrates them).
///
/// Rows take one of two private layouts, picked once when the index is
/// built and kept for its life ([`grow`](Self::grow) appends rows in
/// it):
///
/// * **dense** — flat user-major `N·|C|` `u32` cells;
/// * **CSR** — per-user sorted `(channel, load)` rows holding exactly
///   the nonzero cells. At degree `d` and `k` radios a row holds at
///   most `(d+1)·k` cells instead of `|C|`, which is the whole memory
///   story in `|C| ≫ k` regimes (a 10⁵-user, `|C| = 512`, `k = 2`
///   geometric cell holds ~18-cell rows: ~10× under dense).
///
/// [`sparse_of`](Self::sparse_of) takes CSR exactly when its arena is
/// smaller than the dense matrix, so a freshly built index is never
/// larger than dense. Both layouts fire the same `on_cell` sequence
/// (ascending channel; mover first, then graph neighbors in adjacency
/// order) and hand back the same `u32` loads in the same order, so the
/// layout cannot change a committed move, a potential bit or a
/// fingerprint — `spatial_index_equiv` pins that through the
/// [`dense_of`](Self::dense_of) / [`csr_of`](Self::csr_of) test seams.
#[derive(Debug, Clone)]
pub struct NbrIndex {
    n_channels: usize,
    rows: Rows,
    /// Merge scratch for a row replacement's per-channel deltas.
    deltas: Vec<(u32, i64)>,
}

#[derive(Debug, Clone)]
enum Rows {
    /// Flat user-major `N·|C|` cells.
    Dense(Vec<u32>),
    /// Sorted nonzero rows in a slack arena.
    Csr(Csr),
}

/// CSR rows. The layout mirrors [`SparseStrategies`]: one entry arena
/// with per-row `(start, len, cap)` and amortized in-place growth.
/// Unlike the strategy arena, capacities are **exact-reserved** (`L/8`
/// slack, compaction at 25% waste) rather than doubled — `heap_bytes`
/// is the measured gate, and `Vec`'s doubling would hand back half the
/// win.
#[derive(Debug, Clone)]
struct Csr {
    n_channels: usize,
    /// Per-user `(row start into entries, live entry count)` — packed
    /// so the patch hot path fetches both with one read.
    meta: Vec<(u32, u32)>,
    /// Per-user slot capacity; slots past `len` are stale, never read.
    /// Cold — read only when a row changes shape.
    caps: Vec<u32>,
    /// Row channel ids, sorted within a row (the CSR column array).
    chans: Vec<u32>,
    /// Row loads, parallel to `chans`. Split out (structure-of-arrays)
    /// so the load-only patch hot path touches 4-byte cells — the same
    /// cache traffic as the dense layout — instead of 8-byte pairs.
    loads: Vec<u32>,
    /// Slots abandoned by relocated rows, reclaimed by compaction.
    dead_slots: usize,
    /// Merge scratch for a patched row.
    merged: Vec<SparseEntry>,
}

impl NbrIndex {
    /// Build the index from scratch, `O(Σ_i k_i·(1 + deg i))`, on the
    /// smaller layout: CSR when its arena (8 B per capped slot plus
    /// 12 B per row) is smaller than the dense `4·|C|` B per row, dense
    /// otherwise, ties to dense. The serving builder — the drivers'
    /// `new` calls it.
    pub fn sparse_of(graph: &ConflictGraph, s: &SparseStrategies) -> Self {
        Self::build(graph, s, |lens| csr_is_smaller(lens, s.n_channels()))
    }

    /// Build on the dense layout whatever the size — the differential
    /// oracle of `spatial_index_equiv`.
    #[doc(hidden)]
    pub fn dense_of(graph: &ConflictGraph, s: &SparseStrategies) -> Self {
        Self::build(graph, s, |_| false)
    }

    /// Build on the CSR layout whatever the size — the oracle's
    /// counterpart, so narrow channel spaces exercise CSR too.
    #[doc(hidden)]
    pub fn csr_of(graph: &ConflictGraph, s: &SparseStrategies) -> Self {
        Self::build(graph, s, |_| true)
    }

    /// Build every row's live length through one of two builders, then
    /// let `pick_csr` choose the layout from them. CSR rows are laid out
    /// with their slot caps in one exact reservation.
    fn build(
        graph: &ConflictGraph,
        s: &SparseStrategies,
        pick_csr: impl FnOnce(&[u32]) -> bool,
    ) -> Self {
        let (n, c_n) = (s.n_users(), s.n_channels());
        assert_eq!(graph.n_vertices(), n, "one graph vertex per user");
        let mut entries: Vec<SparseEntry> = Vec::new();
        let mut lens: Vec<u32> = Vec::with_capacity(n);
        let rows = if n.saturating_mul(c_n) <= FLAT_BUILD_CELLS {
            let flat = scatter(graph, s);
            let nonzero = |v: usize| {
                let row = flat[v * c_n..(v + 1) * c_n].iter().enumerate();
                row.filter(|&(_, &l)| l != 0).map(|(c, &l)| (c as u32, l))
            };
            lens.extend((0..n).map(|v| nonzero(v).count() as u32));
            if pick_csr(&lens) {
                entries.reserve_exact(lens.iter().map(|&l| l as usize).sum());
                entries.extend((0..n).flat_map(nonzero));
                Rows::Csr(Csr::lay_out(&entries, &lens, c_n))
            } else {
                Rows::Dense(flat)
            }
        } else {
            let mut agg = RowAggregator::new(c_n);
            for v in 0..n {
                let before = entries.len();
                agg.aggregate(graph, s, v, &mut entries);
                lens.push((entries.len() - before) as u32);
            }
            if pick_csr(&lens) {
                Rows::Csr(Csr::lay_out(&entries, &lens, c_n))
            } else {
                drop(entries);
                Rows::Dense(scatter(graph, s))
            }
        };
        NbrIndex {
            n_channels: c_n,
            rows,
            deltas: Vec::new(),
        }
    }

    /// Number of channels per row.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Number of user rows.
    pub fn n_users(&self) -> usize {
        match &self.rows {
            Rows::Dense(loads) => loads.len().checked_div(self.n_channels).unwrap_or_default(),
            Rows::Csr(csr) => csr.meta.len(),
        }
    }

    /// Whether the rows are held in the CSR layout (otherwise dense).
    pub fn is_csr(&self) -> bool {
        matches!(self.rows, Rows::Csr(_))
    }

    /// `ℓ_u(c)` — a direct read on the dense layout, `O(log row)` on CSR.
    pub fn load(&self, u: usize, c: ChannelId) -> u32 {
        match &self.rows {
            Rows::Dense(loads) => loads[u * self.n_channels + c.0],
            Rows::Csr(csr) => {
                let (cs, ls) = csr.row(u);
                cs.binary_search(&(c.0 as u32)).map_or(0, |i| ls[i])
            }
        }
    }

    /// Visit `u`'s nonzero cells as `(channel, load)` in ascending
    /// channel order — the same cells in the same order on either
    /// layout, so every float accumulated from them downstream is
    /// bit-identical across layouts.
    pub(crate) fn for_each_load(&self, u: usize, mut f: impl FnMut(usize, u32)) {
        match &self.rows {
            Rows::Dense(loads) => {
                let row = &loads[u * self.n_channels..(u + 1) * self.n_channels];
                for (c, &l) in row.iter().enumerate() {
                    if l != 0 {
                        f(c, l);
                    }
                }
            }
            Rows::Csr(csr) => {
                let (cs, ls) = csr.row(u);
                for (&c, &l) in cs.iter().zip(ls) {
                    f(c as usize, l);
                }
            }
        }
    }

    /// User `u`'s row materialized dense — tests and goldens; queries
    /// read the row's cells in place instead.
    pub fn dense_row(&self, u: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.n_channels];
        self.for_each_load(u, |c, l| out[c] = l);
        out
    }

    /// Apply `user`'s row change `old → new`, updating the user's own
    /// row and every neighbor's. `on_cell(affected_user, channel,
    /// before, after)` fires once per changed cell, in ascending channel
    /// order per row — the exact ladder steps the potential tracker
    /// integrates. A no-op replacement (empty merged delta list) returns
    /// without walking the graph. A CSR row is patched by one merge walk
    /// of its entries against the deltas, `O(deg·(k + row))` in total; a
    /// cell that drops to zero leaves its row.
    pub fn replace_row<F: FnMut(usize, usize, u32, u32)>(
        &mut self,
        graph: &ConflictGraph,
        user: usize,
        old: &[SparseEntry],
        new: &[SparseEntry],
        mut on_cell: F,
    ) {
        let mut deltas = std::mem::take(&mut self.deltas);
        crate::sparse::row_deltas_into(old, new, &mut deltas);
        if deltas.is_empty() {
            self.deltas = deltas;
            return;
        }
        let affected =
            std::iter::once(user).chain(graph.neighbors(user as u32).iter().map(|&v| v as usize));
        match &mut self.rows {
            Rows::Dense(loads) => {
                let c_n = self.n_channels;
                for v in affected {
                    let row = &mut loads[v * c_n..(v + 1) * c_n];
                    for &(c, d) in &deltas {
                        let before = row[c as usize];
                        let after = (before as i64 + d) as u32;
                        row[c as usize] = after;
                        on_cell(v, c as usize, before, after);
                    }
                }
            }
            Rows::Csr(csr) => {
                for v in affected {
                    csr.patch_row(v, &deltas, &mut on_cell);
                }
            }
        }
        self.deltas = deltas;
    }

    /// Append rows, in the index's layout, for users added since it was
    /// built. Existing rows are left untouched, so arrivals must join
    /// with empty strategy rows (which the churn path guarantees —
    /// otherwise a pre-existing neighbor's row would miss the arrival's
    /// load); each new row aggregates its (possibly loaded) neighbors.
    pub fn grow(&mut self, graph: &ConflictGraph, s: &SparseStrategies) {
        assert_eq!(graph.n_vertices(), s.n_users(), "one graph vertex per user");
        let c_n = self.n_channels;
        let mut agg = RowAggregator::new(c_n);
        let mut row = Vec::new();
        for v in self.n_users()..s.n_users() {
            row.clear();
            agg.aggregate(graph, s, v, &mut row);
            match &mut self.rows {
                Rows::Dense(loads) => {
                    // The arena's `L/8` slack, not `Vec` doubling.
                    let base = loads.len();
                    if loads.capacity() < base + c_n {
                        loads.reserve_exact(c_n + base / 8);
                    }
                    loads.resize(base + c_n, 0);
                    for &(c, l) in &row {
                        loads[base + c as usize] = l;
                    }
                }
                Rows::Csr(csr) => {
                    csr.meta.push((0, 0));
                    csr.caps.push(0);
                    csr.relocate(v, &row);
                }
            }
        }
    }

    /// Full recomputation check (tests and the benchmark's output
    /// checks): every logical row against the same row re-aggregated
    /// from `s` by the builder's row aggregation. The check holds
    /// `O(|C|)` scratch on either layout — a CSR index never
    /// materializes the dense matrix for it — and a zero cell left in a
    /// CSR row fails it.
    pub fn agrees_with(&self, graph: &ConflictGraph, s: &SparseStrategies) -> bool {
        if graph.n_vertices() != s.n_users()
            || self.n_users() != s.n_users()
            || self.n_channels != s.n_channels()
        {
            return false;
        }
        let mut agg = RowAggregator::new(self.n_channels);
        let (mut fresh, mut held) = (Vec::new(), Vec::new());
        (0..self.n_users()).all(|u| {
            fresh.clear();
            held.clear();
            agg.aggregate(graph, s, u, &mut fresh);
            self.for_each_load(u, |c, l| held.push((c as u32, l)));
            fresh == held
        })
    }

    /// Heap footprint (capacities, not lengths) — the numerator of the
    /// `t11_spatial` memory gate.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let rows = match &self.rows {
            Rows::Dense(loads) => loads.capacity() * size_of::<u32>(),
            Rows::Csr(csr) => {
                csr.meta.capacity() * size_of::<(u32, u32)>()
                    + (csr.caps.capacity() + csr.chans.capacity() + csr.loads.capacity())
                        * size_of::<u32>()
                    + csr.merged.capacity() * size_of::<SparseEntry>()
            }
        };
        rows + self.deltas.capacity() * size_of::<(u32, i64)>()
    }

    /// The flat `N·|C|` cell bytes the dense layout holds (or would
    /// hold) — the memory gate's denominator.
    pub fn dense_bytes(&self) -> usize {
        self.n_users() * self.n_channels * std::mem::size_of::<u32>()
    }

    /// Materialize `u`'s row into the knapsack DP's scratch view, with
    /// zero allocation. The dense layout copies its row over the whole view;
    /// CSR scatters its `O(deg·k)` cells over an all-zeros view, which
    /// [`clear_view`](Self::clear_view) restores after the query. The
    /// layout is fixed at build, so a scratch only ever sees one of the
    /// two protocols.
    pub(crate) fn fill_view(&self, u: usize, view: &mut ChannelLoads) {
        match &self.rows {
            Rows::Dense(loads) => {
                view.copy_from_slice(&loads[u * self.n_channels..(u + 1) * self.n_channels]);
            }
            Rows::Csr(csr) => {
                view.ensure_zeroed(self.n_channels);
                let (cs, ls) = csr.row(u);
                for (&c, &l) in cs.iter().zip(ls) {
                    view.set_raw(c as usize, l);
                }
            }
        }
    }

    /// Undo a CSR [`fill_view`](Self::fill_view) by zeroing the same
    /// cells; a no-op on the dense layout, whose next fill overwrites.
    pub(crate) fn clear_view(&self, u: usize, view: &mut ChannelLoads) {
        if let Rows::Csr(csr) = &self.rows {
            for &c in csr.row(u).0 {
                view.set_raw(c as usize, 0);
            }
        }
    }
}

impl Csr {
    /// Lay out `lens[v]` consecutive `entries` per row, each in a slot
    /// of `cap_for(len)`, in one exact reservation.
    fn lay_out(entries: &[SparseEntry], lens: &[u32], n_channels: usize) -> Self {
        let mut caps: Vec<u32> = Vec::with_capacity(lens.len());
        let mut total = 0usize;
        for &len in lens {
            let cap = cap_for(len as usize, n_channels);
            caps.push(cap as u32);
            total += cap;
        }
        assert!(total <= u32::MAX as usize, "sparse index arena overflow");
        let mut chans: Vec<u32> = Vec::with_capacity(total);
        let mut loads: Vec<u32> = Vec::with_capacity(total);
        let mut meta: Vec<(u32, u32)> = Vec::with_capacity(lens.len());
        let mut off = 0usize;
        for (v, &len) in lens.iter().enumerate() {
            let start = chans.len();
            meta.push((start as u32, len));
            for &(c, l) in &entries[off..off + len as usize] {
                chans.push(c);
                loads.push(l);
            }
            chans.resize(start + caps[v] as usize, 0);
            loads.resize(start + caps[v] as usize, 0);
            off += len as usize;
        }
        Csr {
            n_channels,
            meta,
            caps,
            chans,
            loads,
            dead_slots: 0,
            merged: Vec::new(),
        }
    }

    /// User `u`'s row as parallel `(channel ids, loads)` slices, sorted
    /// by channel.
    fn row(&self, u: usize) -> (&[u32], &[u32]) {
        let (s, l) = self.meta[u];
        let (s, e) = (s as usize, (s + l) as usize);
        (&self.chans[s..e], &self.loads[s..e])
    }

    /// Merge `deltas` into row `v`, firing `on_cell` per changed cell in
    /// ascending channel order — the exact sequence the dense layout's
    /// delta loop produces, because both iterate the same sorted deltas.
    #[inline]
    fn patch_row<F: FnMut(usize, usize, u32, u32)>(
        &mut self,
        v: usize,
        deltas: &[(u32, i64)],
        on_cell: &mut F,
    ) {
        let (start, len) = self.meta[v];
        let (start, len) = (start as usize, len as usize);

        // Optimistic in-place walk — the common case: a delta landing on
        // a channel the row already holds, leaving it nonzero, patches
        // the load in place with no scratch merge and no copy-back. The
        // first structural delta (an insert or an emptied entry) hands
        // the rest of the walk to the merge below; the in-place prefix
        // stays applied, so the callback sequence is identical either
        // way — exactly the delta channels, ascending.
        let fallback = {
            let chans = &self.chans[start..start + len];
            let row = &mut self.loads[start..start + len];
            let (mut a, mut b) = (0usize, 0usize);
            loop {
                if b == deltas.len() {
                    break None;
                }
                let (c, d) = deltas[b];
                while a < len && chans[a] < c {
                    a += 1;
                }
                if a < len && chans[a] == c {
                    let before = row[a];
                    let sum = before as i64 + d;
                    if sum != 0 {
                        on_cell(v, c as usize, before, sum as u32);
                        row[a] = sum as u32;
                        a += 1;
                        b += 1;
                        continue;
                    }
                }
                break Some((a, b));
            }
        };
        if let Some((a0, b0)) = fallback {
            self.patch_row_merge(v, a0, b0, deltas, on_cell);
        }
    }

    /// The structural tail of [`patch_row`](Self::patch_row): merge row
    /// suffix `entries[a0..]` with `deltas[b0..]` into the scratch (the
    /// in-place prefix `[..a0]` is copied over verbatim), dropping
    /// emptied cells, and store the result, relocating the row if it
    /// outgrew its slot.
    fn patch_row_merge<F: FnMut(usize, usize, u32, u32)>(
        &mut self,
        v: usize,
        a0: usize,
        b0: usize,
        deltas: &[(u32, i64)],
        on_cell: &mut F,
    ) {
        let (start, len) = self.meta[v];
        let (start, len) = (start as usize, len as usize);
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        for i in 0..a0 {
            merged.push((self.chans[start + i], self.loads[start + i]));
        }
        let (mut a, mut b) = (a0, b0);
        while a < len || b < deltas.len() {
            let ca = (a < len).then(|| self.chans[start + a]);
            let cb = deltas.get(b).map(|&(c, _)| c);
            match (ca, cb) {
                (Some(x), Some(y)) if x == y => {
                    let before = self.loads[start + a];
                    let after = (before as i64 + deltas[b].1) as u32;
                    on_cell(v, x as usize, before, after);
                    if after != 0 {
                        merged.push((x, after));
                    }
                    a += 1;
                    b += 1;
                }
                (Some(x), y) if y.is_none_or(|y| x < y) => {
                    merged.push((x, self.loads[start + a]));
                    a += 1;
                }
                _ => {
                    let (c, d) = deltas[b];
                    debug_assert!(d > 0, "negative delta on a channel absent from the row");
                    on_cell(v, c as usize, 0, d as u32);
                    merged.push((c, d as u32));
                    b += 1;
                }
            }
        }
        self.write_row(v, &merged);
        self.merged = merged;
    }

    /// Store `row` as `v`'s entries: in place when it fits the slot,
    /// otherwise relocated to the arena end (the old slot goes dead;
    /// compaction reclaims at 25% waste).
    fn write_row(&mut self, v: usize, row: &[SparseEntry]) {
        if row.len() <= self.caps[v] as usize {
            let start = self.meta[v].0 as usize;
            for (i, &(c, l)) in row.iter().enumerate() {
                self.chans[start + i] = c;
                self.loads[start + i] = l;
            }
            self.meta[v].1 = row.len() as u32;
            return;
        }
        self.dead_slots += self.caps[v] as usize;
        if self.dead_slots * 4 >= self.loads.len() {
            self.compact(v, row);
            return;
        }
        self.relocate(v, row);
    }

    /// Store `row` as `v`'s entries in a fresh slot at the arena end.
    /// Arena growth is `reserve_exact` with an `L/8` slack — never `Vec`
    /// doubling, which would halve the measured memory win.
    fn relocate(&mut self, v: usize, row: &[SparseEntry]) {
        let cap = cap_for(row.len(), self.n_channels);
        if self.loads.capacity() < self.loads.len() + cap {
            let extra = cap + self.loads.len() / 8;
            self.chans.reserve_exact(extra);
            self.loads.reserve_exact(extra);
        }
        let start = self.loads.len();
        assert!(
            start + cap <= u32::MAX as usize,
            "sparse index arena overflow"
        );
        self.meta[v] = (start as u32, row.len() as u32);
        self.caps[v] = cap as u32;
        for &(c, l) in row {
            self.chans.push(c);
            self.loads.push(l);
        }
        self.chans.resize(start + cap, 0);
        self.loads.resize(start + cap, 0);
    }

    /// Rebuild the arena tight — every row re-capped for its current
    /// length, `relocating`'s row replaced by `new_row` in the same
    /// pass — into one exact reservation. `O(N + entries)`, amortized
    /// by the 25% dead-slot trigger.
    fn compact(&mut self, relocating: usize, new_row: &[SparseEntry]) {
        let n = self.meta.len();
        let mut total = 0usize;
        for v in 0..n {
            let len = if v == relocating {
                new_row.len()
            } else {
                self.meta[v].1 as usize
            };
            total += cap_for(len, self.n_channels);
        }
        let mut chans: Vec<u32> = Vec::with_capacity(total);
        let mut loads: Vec<u32> = Vec::with_capacity(total);
        for v in 0..n {
            let start = chans.len();
            if v == relocating {
                for &(c, l) in new_row {
                    chans.push(c);
                    loads.push(l);
                }
                self.meta[v].1 = new_row.len() as u32;
            } else {
                let (s, l) = self.meta[v];
                let (s, e) = (s as usize, (s + l) as usize);
                chans.extend_from_slice(&self.chans[s..e]);
                loads.extend_from_slice(&self.loads[s..e]);
            }
            let cap = cap_for(self.meta[v].1 as usize, self.n_channels);
            chans.resize(start + cap, 0);
            loads.resize(start + cap, 0);
            self.meta[v].0 = start as u32;
            self.caps[v] = cap as u32;
        }
        self.chans = chans;
        self.loads = loads;
        self.dead_slots = 0;
    }
}

// ---------------------------------------------------------------------------
// Best responses over a neighborhood row
// ---------------------------------------------------------------------------

/// The heap-route best response over one neighborhood row: the greedy
/// pick of the `k` best marginals, exact for separable-monotone payoffs
/// with every radio deployed, at a cost set by the row, not by `|C|`.
///
/// On a channel no neighbor occupies, a user's marginals
/// `payoff(c, 0, t+1) − payoff(c, 0, t)` depend on the channel alone. So
/// one order of all channels by zero-load first marginal
/// `payoff(c, 0, 1)`, best first and exact ties to the lower channel,
/// ranks every channel outside any row. The kernel builds it with
/// [`new`](Self::new) and rebuilds it with [`reorder`](Self::reorder) on
/// a rate change, in `O(|C| log |C|)`. A user's own channels carry load
/// ≥ own ≥ 1, so they are always loaded cells of its row.
///
/// A query reads the row's loaded cells in ascending channel order
/// ([`push_cell`](Self::push_cell)). Each is a candidate with others-load
/// `ℓ − own` and first marginal `payoff(c, ℓ − own, 1)`; a cursor into
/// the zero-load order, skipping row channels, offers the best channel
/// outside the row. `k` times the query takes the largest marginal,
/// exact ties to the lowest channel and never a NaN, and a zero-load
/// pick joins the candidates with others-load 0. That is the greedy of
/// [`crate::br_fast::HeapEngine::best_response`] over the same marginals
/// with the same tie rule, and the value is the same ascending-channel
/// payoff sum, so rows and value bits agree with it (`fast_path_equiv`
/// and `row_kernel_equiv` pin both). A query costs `O(k · row)` compares
/// plus a binary search per cursor check; nothing `|C|`-wide is filled,
/// rebuilt or scanned.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct RowKernel {
    /// Every channel with `payoff(c, 0, 1)`, in pick order.
    order: Vec<(u32, f64)>,
    /// Candidates as `(channel, others-load)`: the row's loaded cells in
    /// ascending channel order, then zero-load picks in pick order.
    cands: Vec<SparseEntry>,
    /// Each candidate's next marginal, parallel to `cands`.
    marg: Vec<f64>,
    /// The query's picked candidates, at most `k`.
    picks: Vec<Pick>,
}

/// One picked candidate of a [`RowKernel`] query, with the payoffs at
/// its count and one radio above it, so a pick costs one payoff call.
#[derive(Debug, Clone, Copy)]
struct Pick {
    /// Index into the candidates.
    at: u32,
    /// Radios placed on it so far.
    taken: u32,
    /// `payoff(c, others, taken)`.
    f_taken: f64,
    /// `payoff(c, others, taken + 1)`.
    f_next: f64,
}

impl RowKernel {
    /// A kernel ordered for `game`'s current payoffs.
    pub fn new<G: ChannelGame + ?Sized>(game: &G) -> Self {
        let mut kernel = RowKernel {
            order: Vec::new(),
            cands: Vec::new(),
            marg: Vec::new(),
            picks: Vec::new(),
        };
        kernel.reorder(game);
        kernel
    }

    /// Rebuild the zero-load order from `game`'s current payoffs. A NaN
    /// marginal ranks with −∞; the query picks neither.
    pub fn reorder<G: ChannelGame + ?Sized>(&mut self, game: &G) {
        self.order.clear();
        self.order.extend(
            (0..game.n_channels()).map(|c| (c as u32, game.channel_payoff(ChannelId(c), 0, 1))),
        );
        let rank = |m: f64| if m.is_nan() { f64::NEG_INFINITY } else { m };
        self.order.sort_unstable_by(|a, b| {
            rank(b.1)
                .partial_cmp(&rank(a.1))
                .expect("NaN is ranked as −∞")
                .then(a.0.cmp(&b.0))
        });
    }

    /// Whether the zero-load order is `game`'s, bit for bit.
    #[cfg(feature = "paranoid-checks")]
    fn is_ordered_for<G: ChannelGame + ?Sized>(&self, game: &G) -> bool {
        let fresh = RowKernel::new(game).order;
        fresh.len() == self.order.len()
            && fresh
                .iter()
                .zip(&self.order)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }

    /// Queue the row's next loaded cell `(c, ℓ_u(c))`, `ℓ > 0`, in
    /// ascending channel order.
    #[inline]
    pub fn push_cell(&mut self, c: u32, load: u32) {
        debug_assert!(
            load > 0 && self.cands.last().is_none_or(|&(p, _)| p < c),
            "cells must be nonzero and ascending"
        );
        self.cands.push((c, load));
    }

    /// Query a user with row `own` and budget `k` against the queued
    /// cells, which it consumes: appends the best response's sorted row
    /// to `out` and returns `(utility, value)` — the user's current
    /// utility `Σ payoff(c, ℓ − own, own)` over its own channels in
    /// ascending order ([`spatial_utility`]'s sum, bit for bit) and the
    /// best response's value.
    pub fn best_response_into<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        own: &[SparseEntry],
        k: u32,
        out: &mut Vec<SparseEntry>,
    ) -> (f64, f64) {
        debug_assert!(
            game.payoff_is_separable_monotone() && !game.may_idle_radios(),
            "the row kernel requires a separable-monotone payoff with all radios deployed"
        );
        debug_assert_eq!(
            self.order.len(),
            game.n_channels(),
            "ordered for another game"
        );
        // Loads become others-loads; own cells add to the utility.
        let (mut j, mut utility) = (0, 0.0);
        self.marg.clear();
        self.marg.extend(self.cands.iter_mut().map(|cand| {
            let cid = ChannelId(cand.0 as usize);
            match own.get(j) {
                Some(&(c, t)) if c == cand.0 => {
                    j += 1;
                    cand.1 -= t;
                    let first = game.channel_payoff(cid, cand.1, 1);
                    utility += if t == 1 {
                        first
                    } else {
                        game.channel_payoff(cid, cand.1, t)
                    };
                    first
                }
                _ => game.channel_payoff(cid, cand.1, 1),
            }
        }));
        debug_assert_eq!(j, own.len(), "an own channel has no loaded cell");
        let loaded = self.cands.len();
        // A full-width row leaves the cursor nothing to offer.
        let mut z = if loaded < self.order.len() {
            0
        } else {
            self.order.len()
        };
        self.picks.clear();
        for _ in 0..k {
            let row = &self.cands[..loaded];
            while z < self.order.len()
                && row.binary_search_by_key(&self.order[z].0, |e| e.0).is_ok()
            {
                z += 1;
            }
            // Loaded cells ascend, so a strict `>` keeps the lowest
            // channel of a tie among them; zero picks and the cursor
            // compare channels. With nothing picked `best_chan` is 0, so
            // no tie with −∞ wins, and no NaN ever compares true.
            let (mut best, mut at, mut best_chan) = (f64::NEG_INFINITY, usize::MAX, 0);
            for (i, &m) in self.marg[..loaded].iter().enumerate() {
                if m > best {
                    (best, at) = (m, i);
                }
            }
            if at != usize::MAX {
                best_chan = self.cands[at].0;
            }
            for i in loaded..self.cands.len() {
                let (m, c) = (self.marg[i], self.cands[i].0);
                if m > best || (m == best && c < best_chan) {
                    (best, at, best_chan) = (m, i, c);
                }
            }
            if let Some(&(c, m)) = self.order.get(z) {
                if m > best || (m == best && c < best_chan) {
                    (best, at) = (m, self.cands.len());
                    self.cands.push((c, 0));
                    self.marg.push(m);
                    z += 1;
                }
            }
            if at == usize::MAX {
                break; // |C| = 0: nothing to place
            }
            let (c, others) = self.cands[at];
            let cid = ChannelId(c as usize);
            let pick = match self.picks.iter().position(|p| p.at as usize == at) {
                Some(i) => &mut self.picks[i],
                None => {
                    // An unpicked candidate's marginal is its first payoff.
                    self.picks.push(Pick {
                        at: at as u32,
                        taken: 0,
                        f_taken: 0.0,
                        f_next: best,
                    });
                    self.picks.last_mut().expect("just pushed")
                }
            };
            pick.taken += 1;
            pick.f_taken = pick.f_next;
            pick.f_next = game.channel_payoff(cid, others, pick.taken + 1);
            let next = pick.f_next - pick.f_taken;
            debug_assert!(
                next <= best + 1e-9 * best.abs().max(1.0),
                "payoff declared separable-monotone but marginal rose on {cid}"
            );
            self.marg[at] = next;
        }
        // Emit ascending by channel and sum the value in the same order —
        // the exact floating-point association all engines share.
        let cands = &self.cands;
        self.picks.sort_unstable_by_key(|p| cands[p.at as usize].0);
        let mut value = 0.0;
        for p in &self.picks {
            value += p.f_taken;
            out.push((cands[p.at as usize].0, p.taken));
        }
        self.cands.clear();
        (utility, value)
    }
}

/// Scratch for spatial best-response queries, one per driver or Nash
/// scan and reused across queries: the [`RowKernel`] of the
/// separable-monotone route, and the [`ChannelLoads`] view and knapsack
/// buffers of the generic route.
#[derive(Debug)]
pub struct SpatialScratch {
    kernel: RowKernel,
    view: ChannelLoads,
    knap: br_dp::KnapsackScratch,
    counts: Vec<u32>,
}

impl SpatialScratch {
    /// Scratch whose kernel is ordered for `game`.
    pub fn new<G: ChannelGame + ?Sized>(game: &G) -> Self {
        SpatialScratch {
            kernel: RowKernel::new(game),
            view: ChannelLoads::default(),
            knap: br_dp::KnapsackScratch::default(),
            counts: Vec::new(),
        }
    }
}

/// Current utility of `user` from its sparse row against its
/// neighborhood loads: `Σ_c payoff(c, ℓ_u(c) − k_{u,c}, k_{u,c})`, in
/// ascending channel order — the same accumulation the single-domain
/// [`crate::br_fast::utility_sparse`] performs, so on a clique the sums
/// are bit-identical.
pub fn spatial_utility<G: ChannelGame + ?Sized>(
    game: &G,
    s: &SparseStrategies,
    nbr: &NbrIndex,
    user: UserId,
) -> f64 {
    let mut total = 0.0;
    for &(c, own) in s.row(user) {
        let cid = ChannelId(c as usize);
        total += game.channel_payoff(cid, nbr.load(user.0, cid) - own, own);
    }
    total
}

/// Total welfare `Σ_i U_i` under neighborhood loads. Unlike the
/// single-domain case this does not collapse to a per-channel sum — a
/// channel's rate is shared per *neighborhood*, so spatial reuse can
/// push welfare above the one-domain ceiling.
pub fn spatial_welfare<G: ChannelGame + ?Sized>(
    game: &G,
    s: &SparseStrategies,
    nbr: &NbrIndex,
) -> f64 {
    UserId::all(s.n_users())
        .map(|u| spatial_utility(game, s, nbr, u))
        .sum()
}

/// The generic route: the shared knapsack DP against `scratch.view`,
/// the user's own channels corrected to others-loads as the DP cache
/// corrects them. Appends the sorted row to `out` and returns
/// `(utility, value)` as [`RowKernel::best_response_into`] does.
fn dp_best_response_into<G: ChannelGame + ?Sized>(
    game: &G,
    row: &[SparseEntry],
    k: u32,
    scratch: &mut SpatialScratch,
    out: &mut Vec<SparseEntry>,
) -> (f64, f64) {
    let view = &scratch.view;
    let mut utility = 0.0;
    for &(c, t) in row {
        let cid = ChannelId(c as usize);
        utility += game.channel_payoff(cid, view.load(cid) - t, t);
    }
    let value = br_dp::solve_knapsack_scratch(
        game.n_channels(),
        k as usize,
        game.may_idle_radios(),
        |c, t| match row.binary_search_by_key(&(c as u32), |e| e.0) {
            // Own channels: seeded 0 at t = 0, others-load = ℓ − own above.
            Ok(_) if t == 0 => 0.0,
            Ok(i) => {
                let own = row[i].1;
                game.channel_payoff(ChannelId(c), view.load(ChannelId(c)) - own, t as u32)
            }
            Err(_) => game.channel_payoff(ChannelId(c), view.load(ChannelId(c)), t as u32),
        },
        &mut scratch.knap,
        &mut scratch.counts,
    );
    out.extend(
        scratch
            .counts
            .iter()
            .enumerate()
            .filter_map(|(c, &t)| (t > 0).then_some((c as u32, t))),
    );
    (utility, value)
}

/// Dense vector of a sparse row (trace and witness materialization).
fn row_to_vector(row: &[SparseEntry], n_channels: usize) -> StrategyVector {
    let mut counts = vec![0u32; n_channels];
    for &(c, k) in row {
        counts[c as usize] = k;
    }
    StrategyVector::from_counts(counts)
}

/// Full `O(|N|)` Nash scan under neighborhood loads: per-user gains and
/// the first improving witness, with the engine's own
/// [`improves`] predicate — the spatial analogue of
/// [`crate::br_fast::nash_check_sparse`]. Each user's closed-neighborhood
/// row is aggregated on the spot, by the row aggregation the index
/// builder and [`NbrIndex::agrees_with`] use, and answered from its
/// cells: the [`RowKernel`] on the separable-monotone route, the DP over
/// the cells scattered into a view (and cleared again) otherwise. The
/// scan holds `O(|C|)` scratch and builds no `N`-row index.
pub fn nash_check_spatial<G: ChannelGame>(
    game: &SpatialGame<G>,
    s: &SparseStrategies,
) -> NashCheck {
    let graph = game.graph();
    assert_eq!(graph.n_vertices(), s.n_users(), "one graph vertex per user");
    let heap_route = game.payoff_is_separable_monotone() && !game.may_idle_radios();
    let mut scratch = SpatialScratch::new(game);
    let mut agg = RowAggregator::new(s.n_channels());
    let (mut cells, mut br) = (Vec::new(), Vec::new());
    let n = game.n_users();
    let mut gains = Vec::with_capacity(n);
    let mut witness = None;
    for user in UserId::all(n) {
        let (own, k) = (s.row(user), game.radios_of(user));
        br.clear();
        let (before, after) = if heap_route {
            // The aggregated row is sorted and nonzero: exactly the
            // kernel's queued-cell contract.
            agg.aggregate(graph, s, user.0, &mut scratch.kernel.cands);
            scratch.kernel.best_response_into(game, own, k, &mut br)
        } else {
            cells.clear();
            agg.aggregate(graph, s, user.0, &mut cells);
            scratch.view.ensure_zeroed(s.n_channels());
            for &(c, l) in &cells {
                scratch.view.set_raw(c as usize, l);
            }
            let found = dp_best_response_into(game, own, k, &mut scratch, &mut br);
            for &(c, _) in &cells {
                scratch.view.set_raw(c as usize, 0);
            }
            found
        };
        gains.push((after - before).max(0.0));
        if witness.is_none() && improves(before, after) {
            witness = Some((user, row_to_vector(&br, game.n_channels())));
        }
    }
    NashCheck { gains, witness }
}

/// Whether `s` is a Nash equilibrium of the spatial game.
pub fn is_nash_spatial<G: ChannelGame>(game: &SpatialGame<G>, s: &SparseStrategies) -> bool {
    nash_check_spatial(game, s).is_nash()
}

// ---------------------------------------------------------------------------
// Convergence instruments
// ---------------------------------------------------------------------------

/// The Rosenthal-style per-neighborhood potential
/// `Φ(s) = Σ_i Σ_c Σ_{j=1..ℓ_i(c)} φ_c(j)`, `φ_c(j) = payoff(c, j−1, 1)`
/// — on a clique, `|N| ·` the paper's radio-level potential
/// (`φ_c(j) = R_c(j)/j` for rate sharing). For general graphs with
/// nonlinear sharing this need **not** be an exact potential, so the
/// tracker is a *measurement*: it integrates the exact cell deltas of
/// every committed move and counts the moves that decreased it. A run
/// with [`decreases`](Self::decreases)` == 0` was potential-monotone —
/// the empirical stand-in for the clique's convergence theorem.
#[derive(Debug, Clone, Default)]
pub struct PotentialTracker {
    phi: f64,
    decreases: u64,
}

impl PotentialTracker {
    /// Recompute `Φ` from scratch (initialization, cross-checks, and
    /// after events that change payoffs wholesale, e.g. a rate shift).
    /// Either index layout visits the same nonzero cells in ascending
    /// channel order, so the accumulated float is bit-identical across
    /// them.
    pub fn recompute<G: ChannelGame + ?Sized>(game: &G, nbr: &NbrIndex) -> f64 {
        let mut fresh = PotentialTracker::default();
        fresh.add_rows(game, nbr, 0..nbr.n_users());
        fresh.phi
    }

    /// Reset to a freshly recomputed value.
    pub fn reset(&mut self, phi: f64) {
        self.phi = phi;
    }

    /// Add neighborhood rows `rows`' terms `Σ_c Σ_{j≤ℓ_r(c)} φ_c(j)` to
    /// `Φ`, cell by cell in ascending (row, channel) order, through
    /// per-channel prefix ladders `Σ_{t≤j} φ_c(t)` grown on demand. The
    /// one ladder code behind [`recompute`](Self::recompute) and the
    /// arrival path: an arrival joins with an empty strategy row, so no
    /// existing row changes and only its own neighborhood row enters.
    fn add_rows<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        nbr: &NbrIndex,
        rows: std::ops::Range<usize>,
    ) {
        let mut ladders: Vec<Vec<f64>> = vec![Vec::new(); nbr.n_channels()];
        for r in rows {
            nbr.for_each_load(r, |c, l| {
                let l = l as usize;
                let lad = &mut ladders[c];
                if lad.is_empty() {
                    lad.push(0.0);
                }
                while lad.len() <= l {
                    let j = lad.len() as u32;
                    let prev = lad[lad.len() - 1];
                    lad.push(prev + game.channel_payoff(ChannelId(c), j - 1, 1));
                }
                self.phi += lad[l];
            });
        }
    }

    /// Integrate one cell transition `ℓ: before → after` on channel `c`
    /// (the [`NbrIndex::replace_row`] callback).
    pub fn cell_changed<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        c: usize,
        before: u32,
        after: u32,
    ) {
        let cid = ChannelId(c);
        if after > before {
            for j in before + 1..=after {
                self.phi += game.channel_payoff(cid, j - 1, 1);
            }
        } else {
            for j in after + 1..=before {
                self.phi -= game.channel_payoff(cid, j - 1, 1);
            }
        }
    }

    /// Close the books on one committed move whose cells started from
    /// `phi_before`: counts it if it strictly decreased `Φ` beyond float
    /// noise.
    pub fn note_move(&mut self, phi_before: f64) {
        let scale = phi_before.abs().max(self.phi.abs()).max(1.0);
        if self.phi < phi_before - 1e-12 * scale {
            self.decreases += 1;
        }
    }

    /// The maintained `Φ`.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Committed moves that strictly decreased `Φ` — `0` certifies a
    /// potential-monotone run.
    pub fn decreases(&self) -> u64 {
        self.decreases
    }
}

/// SplitMix64's finalizer: a bijective avalanche mix of one word.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Round-boundary cycle detector: a 64-bit fingerprint of (strategy
/// state, scheduled worklist) per round start. The drivers are
/// deterministic functions of exactly that pair, so a revisited
/// fingerprint proves the dynamics entered an infinite best-response
/// loop — reported as an explicit verdict, never a silent round-cap
/// timeout. Detection history spans one `run` call.
///
/// The fingerprint is maintained incrementally, Zobrist-style (the
/// repeated-position hash of game-tree search), from three parts:
///
/// * `rows` — the wrapping sum over every user `u` of a splitmix chain
///   over `(u, row_u)`; a row write `old → new` swaps one key, `O(k)`;
/// * `scheduled` — the XOR over the scheduled set of a per-user key; a
///   flag change toggles one key, `O(1)`;
/// * `|N|`, mixed in when the fingerprint is read, `O(1)`.
///
/// Sums and XORs commute, so the value is a pure function of (state,
/// scheduled set) however the drivers reached it. A collision could
/// fake a cycle with probability ~`rounds² · 2⁻⁶⁴`. Under
/// `paranoid-checks` in debug builds every read is compared against a
/// from-scratch recompute of the same scheme.
#[derive(Debug, Clone, Default)]
pub struct CycleDetector {
    seen: HashSet<u64>,
    rows: u64,
    scheduled: u64,
}

impl CycleDetector {
    /// Record a fingerprint; `true` iff it was already seen.
    pub fn observe(&mut self, fingerprint: u64) -> bool {
        !self.seen.insert(fingerprint)
    }

    /// Forget the history (each `run` is its own detection window).
    pub fn clear(&mut self) {
        self.seen.clear();
    }

    /// Key of user `u` holding `row`.
    fn row_key(u: u32, row: &[SparseEntry]) -> u64 {
        row.iter().fold(
            splitmix64(u64::from(u) ^ 0x243F_6A88_85A3_08D3),
            |h, &(c, k)| splitmix64(h ^ ((u64::from(c) << 32) | u64::from(k))),
        )
    }

    /// Key the rows of `s` in, with nothing scheduled (`O(Σ_i k_i)`).
    fn of(s: &SparseStrategies) -> Self {
        let mut d = CycleDetector::default();
        for u in 0..s.n_users() {
            d.push_row(u as u32, s.row(UserId(u)));
        }
        d
    }

    /// User `u` joined holding `row`.
    fn push_row(&mut self, u: u32, row: &[SparseEntry]) {
        self.rows = self.rows.wrapping_add(Self::row_key(u, row));
    }

    /// User `u`'s row was rewritten `old → new`.
    fn replace_row(&mut self, u: u32, old: &[SparseEntry], new: &[SparseEntry]) {
        self.rows = self
            .rows
            .wrapping_sub(Self::row_key(u, old))
            .wrapping_add(Self::row_key(u, new));
    }

    /// User `u` entered or left the scheduled set.
    fn toggle_scheduled(&mut self, u: u32) {
        self.scheduled ^= splitmix64(u64::from(u) ^ 0x1319_8A2E_0370_7344);
    }

    /// The fingerprint of the maintained state over `n` users.
    fn fingerprint(&self, n: usize) -> u64 {
        splitmix64(self.rows ^ splitmix64(self.scheduled ^ splitmix64(n as u64)))
    }

    /// The paranoid oracle: the same scheme recomputed from scratch over
    /// the arena and the scheduled flags, `O(Σ_i k_i + |N|)`.
    #[cfg(feature = "paranoid-checks")]
    fn fingerprint_of(s: &SparseStrategies, scheduled: &[bool]) -> u64 {
        let mut fresh = CycleDetector::of(s);
        for (u, &on) in scheduled.iter().enumerate() {
            if on {
                fresh.toggle_scheduled(u as u32);
            }
        }
        fresh.fingerprint(s.n_users())
    }
}

// ---------------------------------------------------------------------------
// Sequential driver
// ---------------------------------------------------------------------------

/// Sequential best-response dynamics over a [`SpatialGame`]: the
/// active-set worklist generalized to conflict graphs. A move by `u`
/// changes neighborhood loads exactly for `v ∈ N(u)`, so the driver
/// wakes *graph neighbors* of the mover — into the current epoch when
/// their id is still ahead of the mover's (a plain sweep would check
/// them later this round), into the next epoch otherwise. Users outside
/// the worklist provably cannot move: their neighborhood rows are
/// unchanged since their last non-improving check. Round and move
/// accounting therefore matches the full-sweep oracle exactly — and, on
/// a clique, matches [`crate::br_fast::ActiveSetDynamics`] bit for bit
/// (states, move sequences, rounds, moves; the wake-machinery counters
/// differ by construction).
///
/// Every `run` carries the [`PotentialTracker`] and the
/// [`CycleDetector`]; a detected cycle aborts with
/// [`cycle_detected`](Self::cycle_detected)` == true` instead of
/// spinning to the round cap.
///
/// The driver is output-sensitive: the detector's fingerprint is kept
/// current by every row write (`O(k)`) and scheduled-flag change
/// (`O(1)`), so a round boundary costs `O(1)` and a round costs its
/// checks plus its moves' `O(k · deg)` index and wake work. An event
/// that re-checks a few dozen users pays for those, not for `|N|`.
#[derive(Debug)]
pub struct SpatialDynamics {
    s: SparseStrategies,
    nbr: NbrIndex,
    heap_route: bool,
    scratch: SpatialScratch,
    br_row: Vec<SparseEntry>,
    old_row: Vec<SparseEntry>,
    /// Current epoch, popped in ascending id order.
    cur: BinaryHeap<Reverse<u32>>,
    in_cur: Vec<bool>,
    /// Next epoch (unsorted; flags are the source of truth).
    pending: Vec<u32>,
    /// Scheduled flags; written only through
    /// [`set_pending`](Self::set_pending), which keeps the fingerprint's
    /// scheduled-set term exact.
    in_pending: Vec<bool>,
    counters: DynCounters,
    potential: PotentialTracker,
    cycles: CycleDetector,
    cycle_detected: bool,
}

impl SpatialDynamics {
    /// Build the driver over `s` on the index [`NbrIndex::sparse_of`]
    /// builds; every user starts scheduled.
    pub fn new<G: ChannelGame>(game: &SpatialGame<G>, s: SparseStrategies) -> Self {
        let nbr = NbrIndex::sparse_of(game.graph(), &s);
        Self::with_index(game, s, nbr)
    }

    /// Build the driver on a given index of `s` — the test seam that
    /// runs the same dynamics on each layout ([`NbrIndex::dense_of`],
    /// [`NbrIndex::csr_of`]).
    #[doc(hidden)]
    pub fn with_index<G: ChannelGame>(
        game: &SpatialGame<G>,
        s: SparseStrategies,
        nbr: NbrIndex,
    ) -> Self {
        let n = s.n_users();
        assert_eq!(game.n_users(), n, "game/state user count mismatch");
        assert_eq!(nbr.n_users(), n, "index/state user count mismatch");
        let mut potential = PotentialTracker::default();
        potential.reset(PotentialTracker::recompute(game, &nbr));
        let cycles = CycleDetector::of(&s);
        let mut d = SpatialDynamics {
            s,
            nbr,
            heap_route: game.payoff_is_separable_monotone() && !game.may_idle_radios(),
            scratch: SpatialScratch::new(game),
            br_row: Vec::new(),
            old_row: Vec::new(),
            cur: BinaryHeap::new(),
            in_cur: vec![false; n],
            pending: Vec::with_capacity(n),
            in_pending: vec![false; n],
            counters: DynCounters::default(),
            potential,
            cycles,
            cycle_detected: false,
        };
        for u in 0..n as u32 {
            d.pending.push(u);
            d.set_pending(u, true);
        }
        d.counters.activations = n as u64;
        d
    }

    /// The current strategy state.
    pub fn state(&self) -> &SparseStrategies {
        &self.s
    }

    /// Consume the driver, returning the strategy state.
    pub fn into_state(self) -> SparseStrategies {
        self.s
    }

    /// The maintained per-neighborhood load index.
    pub fn neighborhood_loads(&self) -> &NbrIndex {
        &self.nbr
    }

    /// Work counters accumulated so far.
    pub fn counters(&self) -> DynCounters {
        self.counters
    }

    /// The maintained potential instrument.
    pub fn potential(&self) -> &PotentialTracker {
        &self.potential
    }

    /// Whether the last [`run`](Self::run) aborted on a detected
    /// best-response cycle.
    pub fn cycle_detected(&self) -> bool {
        self.cycle_detected
    }

    /// Whether queries ride the [`RowKernel`] (the separable-monotone
    /// route) rather than the knapsack DP.
    pub fn is_heap(&self) -> bool {
        self.heap_route
    }

    /// Set `v`'s scheduled flag, toggling its fingerprint key when the
    /// flag changes — the only writer of `in_pending`.
    fn set_pending(&mut self, v: u32, on: bool) {
        let flag = &mut self.in_pending[v as usize];
        if *flag != on {
            *flag = on;
            self.cycles.toggle_scheduled(v);
        }
    }

    /// Schedule `v` for the next round (idempotent).
    fn schedule(&mut self, v: u32) {
        let vi = v as usize;
        if !self.in_pending[vi] && !self.in_cur[vi] {
            self.pending.push(v);
            self.set_pending(v, true);
            self.counters.activations += 1;
        }
    }

    /// Wake `v` after a move by `rank`: ahead of the mover it joins the
    /// current epoch (a sweep would still check it this round), behind
    /// it the next.
    fn wake(&mut self, v: u32, rank: u32) {
        let vi = v as usize;
        if v == rank || self.in_cur[vi] {
            return;
        }
        if v > rank {
            if self.in_pending[vi] {
                self.set_pending(v, false);
            } else {
                self.counters.activations += 1;
            }
            self.cur.push(Reverse(v));
            self.in_cur[vi] = true;
        } else {
            self.schedule(v);
        }
    }

    /// Current utility and live best response of `u` against the
    /// maintained neighborhood loads, dispatching exactly like
    /// [`crate::br_fast::BrEngine`]: the [`RowKernel`] over the row's
    /// nonzero cells when the payoff is separable-monotone with all
    /// radios deployed, the knapsack DP over the row materialized by
    /// [`NbrIndex::fill_view`] otherwise. Zero allocation either way; the
    /// best-response row is left in `self.br_row` for a possible
    /// [`commit`](Self::commit).
    fn live_query<G: ChannelGame>(&mut self, game: &SpatialGame<G>, u: u32) -> (f64, f64) {
        let uid = UserId(u as usize);
        let (row, k) = (self.s.row(uid), game.radios_of(uid));
        let (nbr, scratch, out) = (&self.nbr, &mut self.scratch, &mut self.br_row);
        out.clear();
        if self.heap_route {
            let kernel = &mut scratch.kernel;
            nbr.for_each_load(uid.0, |c, l| kernel.push_cell(c as u32, l));
            kernel.best_response_into(game, row, k, out)
        } else {
            nbr.fill_view(uid.0, &mut scratch.view);
            let found = dp_best_response_into(game, row, k, scratch, out);
            nbr.clear_view(uid.0, &mut scratch.view);
            found
        }
    }

    /// Round-boundary fingerprint of the strategy arena plus the
    /// scheduled set (the complete mutable driver state between rounds),
    /// read in `O(1)` from the detector's maintained terms.
    fn fingerprint(&self) -> u64 {
        debug_assert!(self.cur.is_empty(), "fingerprint between rounds only");
        let fp = self.cycles.fingerprint(self.s.n_users());
        #[cfg(feature = "paranoid-checks")]
        debug_assert_eq!(
            fp,
            CycleDetector::fingerprint_of(&self.s, &self.in_pending),
            "fingerprint desync: maintained value differs from a recompute"
        );
        fp
    }

    /// Rewrite `user`'s row to `new`: the arena, the fingerprint's row
    /// term, and the neighborhood index, whose changed cells integrate
    /// into the potential — `O(k · deg)`, the one row-write path of
    /// moves and departures.
    fn write_row<G: ChannelGame>(&mut self, game: &SpatialGame<G>, user: u32, new: &[SparseEntry]) {
        let uid = UserId(user as usize);
        let mut old = std::mem::take(&mut self.old_row);
        old.clear();
        old.extend_from_slice(self.s.row(uid));
        self.s.set_row(uid, new);
        self.cycles.replace_row(user, &old, new);
        let pot = &mut self.potential;
        self.nbr
            .replace_row(game.graph(), user as usize, &old, new, |_, c, b, a| {
                pot.cell_changed(game, c, b, a);
            });
        self.old_row = old;
    }

    /// Commit `user → br` (already known improving): write the row, wake
    /// the graph neighbors, and push the trace entry.
    fn commit<G: ChannelGame>(
        &mut self,
        game: &SpatialGame<G>,
        user: u32,
        trace: Option<&mut Vec<(UserId, StrategyVector)>>,
    ) {
        let uid = UserId(user as usize);
        let br = std::mem::take(&mut self.br_row);
        let phi_before = self.potential.phi();
        self.write_row(game, user, &br);
        self.potential.note_move(phi_before);
        for &v in game.graph().neighbors(user) {
            self.wake(v, user);
        }
        self.counters.moves += 1;
        if let Some(t) = trace {
            t.push((uid, row_to_vector(&br, self.nbr.n_channels())));
        }
        self.br_row = br;
    }

    /// One worklist round in ascending id order; returns whether any
    /// move was applied. An empty round (nothing scheduled) is the
    /// convergence certificate: every user is either freshly checked or
    /// parked with an unchanged neighborhood.
    pub fn round<G: ChannelGame>(
        &mut self,
        game: &SpatialGame<G>,
        mut trace: Option<&mut Vec<(UserId, StrategyVector)>>,
    ) -> bool {
        debug_assert_eq!(game.n_users(), self.s.n_users(), "grow before running");
        let n = self.s.n_users();
        // Promote the pending epoch.
        let mut pending = std::mem::take(&mut self.pending);
        for &u in &pending {
            let ui = u as usize;
            if self.in_pending[ui] {
                self.set_pending(u, false);
                if !self.in_cur[ui] {
                    self.cur.push(Reverse(u));
                    self.in_cur[ui] = true;
                }
            }
        }
        pending.clear();
        self.pending = pending;
        let mut checks = 0u64;
        let mut moves = 0u64;
        while let Some(Reverse(u)) = self.cur.pop() {
            self.in_cur[u as usize] = false;
            checks += 1;
            let (before, after) = self.live_query(game, u);
            if improves(before, after) {
                self.commit(game, u, trace.as_deref_mut());
                moves += 1;
            }
        }
        self.counters.checks += checks;
        self.counters.skipped_checks += n as u64 - checks;
        moves > 0
    }

    /// Run rounds until a move-free round, a detected cycle, or
    /// `max_rounds`. Returns `(converged, rounds)` with the sweep
    /// accounting (the converging round is the final move-free one); a
    /// cycle abort returns `(false, round)` with
    /// [`cycle_detected`](Self::cycle_detected) raised. The convergence
    /// contract is `converged || cycle_detected` — a silent round-cap
    /// timeout means the cap was simply too small for the (finite)
    /// state space.
    pub fn run<G: ChannelGame>(
        &mut self,
        game: &SpatialGame<G>,
        max_rounds: usize,
        mut trace: Option<&mut Vec<(UserId, StrategyVector)>>,
    ) -> (bool, usize) {
        #[cfg(feature = "paranoid-checks")]
        debug_assert!(
            self.scratch.kernel.is_ordered_for(game),
            "stale zero-load order: a payoff changed without reprice_channel"
        );
        self.cycles.clear();
        self.cycle_detected = false;
        for round in 1..=max_rounds {
            if self.cycles.observe(self.fingerprint()) {
                self.cycle_detected = true;
                return (false, round);
            }
            if !self.round(game, trace.as_deref_mut()) {
                return (true, round);
            }
        }
        (false, max_rounds)
    }

    /// In-place population growth: the game has gained users (and the
    /// graph their vertices, via [`SpatialGame::graph_mut`]) since the
    /// driver was built. Arrivals join with empty rows and get
    /// scheduled; no existing neighborhood row changes, so only the
    /// arrivals' own rows enter the potential. Amortized `O(|C|)` plus
    /// the arrivals' neighborhoods, independent of `|N|`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the game reports fewer users than
    /// the driver holds (departures retire users, they never shrink the
    /// population), or when the graph's vertex count differs from the
    /// game's user count (push the arrivals' vertices first);
    /// [`Error::ArenaOverflow`] when the arrivals' summed budgets do not
    /// fit the strategy arena. Either way the driver is left unchanged.
    pub fn grow_users<G: ChannelGame>(&mut self, game: &SpatialGame<G>) -> Result<(), Error> {
        let old_n = self.s.n_users();
        let new_n = game.n_users();
        if new_n < old_n {
            return Err(Error::config(format!(
                "the game reports {new_n} users but the driver holds {old_n}: \
                 the population only grows in place"
            )));
        }
        let vertices = game.graph().n_vertices();
        if vertices != new_n {
            return Err(Error::config(format!(
                "the conflict graph has {vertices} vertices for {new_n} users: \
                 push the arrivals' vertices before grow_users"
            )));
        }
        let budgets: Vec<u32> = (old_n..new_n).map(|u| game.radios_of(UserId(u))).collect();
        self.s.push_rows(&budgets)?;
        for u in old_n..new_n {
            self.cycles.push_row(u as u32, self.s.row(UserId(u)));
            self.in_cur.push(false);
            self.in_pending.push(false);
        }
        self.nbr.grow(game.graph(), &self.s);
        for u in old_n..new_n {
            self.schedule(u as u32);
        }
        self.potential.add_rows(game, &self.nbr, old_n..new_n);
        Ok(())
    }

    /// Departure path: clear `user`'s row (the game should already
    /// report it as a zero-budget tombstone), wake its graph neighbors,
    /// and unschedule it — `O(k · deg)`.
    pub fn retire_user<G: ChannelGame>(&mut self, game: &SpatialGame<G>, user: UserId) {
        debug_assert!(self.cur.is_empty(), "retire outside a running round");
        let u = user.0 as u32;
        self.write_row(game, u, &[]);
        for &v in game.graph().neighbors(u) {
            self.schedule(v);
        }
        self.set_pending(u, false);
    }

    /// Rate-shift path: channel `c`'s payoff changed wholesale, so every
    /// user's best response is suspect — schedule everyone, re-anchor
    /// the potential (its ladders are payoff sums) and rebuild the row
    /// kernel's zero-load order, `O(|C| log |C|)`. Coarser than the
    /// single-domain driver's occupant-index reprice, but exact. This is
    /// the one payoff-change path: call it after every rate change.
    pub fn reprice_channel<G: ChannelGame>(&mut self, game: &SpatialGame<G>, _c: ChannelId) {
        self.scratch.kernel.reorder(game);
        for u in 0..self.s.n_users() as u32 {
            self.schedule(u);
        }
        self.potential
            .reset(PotentialTracker::recompute(game, &self.nbr));
    }
}

/// Convenience: run [`SpatialDynamics`] from `s`, returning
/// `(state, converged, rounds, cycle_detected)`.
pub fn spatial_dynamics<G: ChannelGame>(
    game: &SpatialGame<G>,
    s: SparseStrategies,
    max_rounds: usize,
) -> (SparseStrategies, bool, usize, bool) {
    let mut d = SpatialDynamics::new(game, s);
    let (converged, rounds) = d.run(game, max_rounds, None);
    let cycle = d.cycle_detected();
    (d.into_state(), converged, rounds, cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnGame;

    fn brute_geometric(positions: &[(f64, f64)], range: f64) -> ConflictGraph {
        let mut edges = Vec::new();
        for i in 0..positions.len() as u32 {
            for j in i + 1..positions.len() as u32 {
                let (xi, yi) = positions[i as usize];
                let (xj, yj) = positions[j as usize];
                let (dx, dy) = (xi - xj, yi - yj);
                if (dx * dx + dy * dy).sqrt() <= range {
                    edges.push((i, j));
                }
            }
        }
        ConflictGraph::from_edges(positions.len(), &edges)
    }

    #[test]
    fn graph_constructors() {
        let g = ConflictGraph::empty(4);
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 0);
        assert!(g.neighbors(2).is_empty());

        let g = ConflictGraph::clique(4);
        assert_eq!(g.n_edges(), 6);
        for v in 0..4 {
            assert_eq!(g.degree(v), 3);
            assert!(!g.contains_edge(v, v));
        }
        assert!(g.contains_edge(0, 3) && g.contains_edge(3, 0));

        // Duplicate + reversed edges collapse to one undirected edge.
        let g = ConflictGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn geometric_matches_brute_force() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 40;
            let positions: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            for range in [0.5, 1.3, 4.0] {
                assert_eq!(
                    ConflictGraph::geometric(&positions, range),
                    brute_geometric(&positions, range),
                    "seed {seed} range {range}"
                );
            }
        }
    }

    #[test]
    fn random_geometric_matches_baseline_positions() {
        // Same seed → same positions (and therefore the same edge set)
        // as the dense baselines builder, which replays the identical
        // RNG draw order.
        let (g, positions) = ConflictGraph::random_geometric(30, 5.0, 1.5, 7);
        let (bg, bpos) = mrca_baselines_check(30, 5.0, 1.5, 7);
        assert_eq!(positions, bpos);
        assert_eq!(g, ConflictGraph::geometric(&positions, 1.5));
        for i in 0..30u32 {
            for j in 0..30u32 {
                if i != j {
                    assert_eq!(g.contains_edge(i, j), bg[(i as usize, j as usize)]);
                }
            }
        }
    }

    /// Local replay of the baselines' dense builder (the crates don't
    /// depend on each other, so the RNG-order contract is pinned here
    /// and cross-checked end-to-end in `tests/baseline_comparison.rs`).
    fn mrca_baselines_check(
        n: usize,
        side: f64,
        range: f64,
        seed: u64,
    ) -> (DenseAdj, Vec<(f64, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let mut adj = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (dx, dy) = (
                    positions[i].0 - positions[j].0,
                    positions[i].1 - positions[j].1,
                );
                if (dx * dx + dy * dy).sqrt() <= range {
                    adj[i * n + j] = true;
                }
            }
        }
        (DenseAdj { n, adj }, positions)
    }

    struct DenseAdj {
        n: usize,
        adj: Vec<bool>,
    }

    impl std::ops::Index<(usize, usize)> for DenseAdj {
        type Output = bool;
        fn index(&self, (i, j): (usize, usize)) -> &bool {
            &self.adj[i * self.n + j]
        }
    }

    #[test]
    fn push_vertex_resplices_csr() {
        let mut g = ConflictGraph::from_edges(3, &[(0, 1)]);
        let v = g.push_vertex(&[0, 2]);
        assert_eq!(v, 3);
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g, ConflictGraph::from_edges(4, &[(0, 1), (0, 3), (2, 3)]));
        // Appending with no neighbors: an isolated arrival.
        let v = g.push_vertex(&[]);
        assert_eq!(v, 4);
        assert!(g.neighbors(4).is_empty());
    }

    /// The CSR rows of `ix`.
    fn csr_rows(ix: &NbrIndex) -> &Csr {
        match &ix.rows {
            Rows::Csr(csr) => csr,
            Rows::Dense(_) => panic!("not a CSR index"),
        }
    }

    /// Runs a few row replacements through the index `build` makes,
    /// checking the incremental walk against a from-scratch rebuild
    /// after each one.
    fn incremental_matches_rebuild(build: fn(&ConflictGraph, &SparseStrategies) -> NbrIndex) {
        let graph = ConflictGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (1, 4)]);
        let mut s = SparseStrategies::random_uniform(5, 3, 4, 11);
        let mut nbr = build(&graph, &s);
        assert!(nbr.agrees_with(&graph, &s));
        let rows: [&[SparseEntry]; 3] = [&[(0, 2), (3, 1)], &[], &[(1, 3)]];
        for (step, new_row) in rows.iter().enumerate() {
            let user = step % 5;
            let old: Vec<SparseEntry> = s.row(UserId(user)).to_vec();
            s.set_row(UserId(user), new_row);
            let mut cells = 0u32;
            nbr.replace_row(&graph, user, &old, new_row, |_, _, b, a| {
                assert_ne!(b, a, "callback must fire only on changed cells");
                cells += 1;
            });
            assert!(nbr.agrees_with(&graph, &s), "step {step}");
            assert!(cells > 0 || old.as_slice() == *new_row);
        }
        // A row the strategies do not back fails the check.
        nbr.replace_row(&graph, 0, s.row(UserId(0)), &[(2, 3)], |_, _, _, _| {});
        assert!(!nbr.agrees_with(&graph, &s));
    }

    #[test]
    fn neighborhood_index_incremental_matches_rebuild() {
        incremental_matches_rebuild(NbrIndex::dense_of);
    }

    #[test]
    fn sparse_index_incremental_matches_rebuild() {
        incremental_matches_rebuild(NbrIndex::csr_of);
    }

    #[test]
    fn sparse_and_dense_fire_identical_cell_sequences() {
        let (graph, _) = ConflictGraph::random_geometric(20, 6.0, 2.0, 3);
        let mut s = SparseStrategies::random_uniform(20, 2, 6, 17);
        let mut csr = NbrIndex::csr_of(&graph, &s);
        let mut dense = NbrIndex::dense_of(&graph, &s);
        assert!(csr.is_csr() && !dense.is_csr());
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..60 {
            let user = rng.gen_range(0..20usize);
            let old: Vec<SparseEntry> = s.row(UserId(user)).to_vec();
            let mut new: Vec<SparseEntry> = (0..6u32)
                .filter_map(|c| {
                    let k = rng.gen_range(0..2u32);
                    (k > 0).then_some((c, k))
                })
                .collect();
            new.truncate(2);
            s.set_row(UserId(user), &new);
            let mut ev_s: Vec<(usize, usize, u32, u32)> = Vec::new();
            let mut ev_d: Vec<(usize, usize, u32, u32)> = Vec::new();
            csr.replace_row(&graph, user, &old, &new, |v, c, b, a| {
                ev_s.push((v, c, b, a))
            });
            dense.replace_row(&graph, user, &old, &new, |v, c, b, a| {
                ev_d.push((v, c, b, a))
            });
            assert_eq!(ev_s, ev_d, "step {step}");
            for u in 0..20 {
                assert_eq!(csr.dense_row(u), dense.dense_row(u), "step {step} user {u}");
            }
        }
        assert!(csr.agrees_with(&graph, &s) && dense.agrees_with(&graph, &s));
    }

    #[test]
    fn sparse_index_relocation_and_compaction() {
        // A star: every leaf move patches the hub's row, growing it one
        // distinct channel at a time past its slot cap — forcing
        // relocations and compactions — until it is full width.
        let c_n = 64usize;
        let n = c_n + 1;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let graph = ConflictGraph::from_edges(n, &edges);
        let mut s = SparseStrategies::with_budgets(&vec![1; n], c_n);
        let mut nbr = NbrIndex::csr_of(&graph, &s);
        // Every row holds exactly its nonzero cells, and the hub's `live`.
        let check = |nbr: &NbrIndex, s: &SparseStrategies, live: usize, at: &str| {
            assert!(nbr.agrees_with(&graph, s), "{at}");
            let rows = csr_rows(nbr);
            assert!(
                (0..n).all(|u| rows.row(u).1.iter().all(|&l| l != 0)),
                "zero cell kept ({at})"
            );
            assert_eq!(rows.row(0).0.len(), live, "hub row ({at})");
        };
        let mut relocated = false;
        for v in 1..n {
            let new: &[SparseEntry] = &[(v as u32 - 1, 1)];
            nbr.replace_row(&graph, v, &[], new, |_, _, _, _| {});
            s.set_row(UserId(v), new);
            check(&nbr, &s, v, &format!("leaf {v} joined"));
            let rows = csr_rows(&nbr);
            relocated |= rows.dead_slots > 0;
            assert!(
                rows.dead_slots * 4 < rows.loads.len().max(1),
                "compaction must bound dead slots (leaf {v})"
            );
        }
        assert!(relocated, "the hub row must have outgrown its slot");
        // Full width; now empty it channel by channel.
        for v in 1..n {
            let old: Vec<SparseEntry> = s.row(UserId(v)).to_vec();
            s.set_row(UserId(v), &[]);
            nbr.replace_row(&graph, v, &old, &[], |_, _, _, _| {});
            check(&nbr, &s, c_n - v, &format!("leaf {v} left"));
        }
    }

    #[test]
    fn size_rule_picks_dense_for_full_rows_and_csr_for_wide_channel_spaces() {
        // Toy spatial-dense and spatial-wide shapes: 2 000 users at
        // density 0.1 with conflict range 5 (mean degree ≈ 7.9), two
        // radios each, over |C| = 8 and |C| = 512.
        let (graph, _) = ConflictGraph::random_geometric(2_000, 141.4, 5.0, 1);
        for (c_n, csr) in [(8, false), (512, true)] {
            let s = SparseStrategies::random_uniform(2_000, 2, c_n, 2);
            let ix = NbrIndex::sparse_of(&graph, &s);
            assert_eq!(ix.is_csr(), csr, "|C| = {c_n}");
            assert!(ix.heap_bytes() <= ix.dense_bytes(), "|C| = {c_n}");
            assert!(ix.agrees_with(&graph, &s));
        }
    }

    #[test]
    fn forced_layouts_run_identical_dynamics() {
        let (graph, _) = ConflictGraph::random_geometric(24, 6.0, 2.0, 5);
        let game = SpatialGame::new(ChurnGame::uniform(24, 2, 3, 1.0), graph);
        let start = SparseStrategies::random_uniform(24, 2, 3, 9);
        // At |C| = 3 no CSR row is smaller than a dense one.
        let fresh = SpatialDynamics::new(&game, start.clone());
        assert!(!fresh.neighborhood_loads().is_csr());
        let csr = NbrIndex::csr_of(game.graph(), &start);
        let mut d = SpatialDynamics::with_index(&game, start.clone(), csr);
        let dense = NbrIndex::dense_of(game.graph(), &start);
        let mut o = SpatialDynamics::with_index(&game, start, dense);
        let (dc, dr) = d.run(&game, 200, None);
        let (oc, or) = o.run(&game, 200, None);
        assert_eq!((dc, dr), (oc, or));
        assert_eq!(d.state(), o.state());
        assert_eq!(d.potential().phi().to_bits(), o.potential().phi().to_bits());
        assert!(d.neighborhood_loads().is_csr() && !o.neighborhood_loads().is_csr());
        assert!(d.neighborhood_loads().heap_bytes() > 0);
        assert!(o.neighborhood_loads().heap_bytes() >= o.neighborhood_loads().dense_bytes());
    }

    #[test]
    fn clique_potential_is_population_scaled_rosenthal() {
        let game = SpatialGame::clique(ChurnGame::uniform(6, 2, 3, 1.0));
        let s = SparseStrategies::random_uniform(6, 2, 3, 3);
        let nbr = NbrIndex::sparse_of(game.graph(), &s);
        let mut tracker = PotentialTracker::default();
        tracker.reset(PotentialTracker::recompute(&game, &nbr));
        // On the clique every neighborhood row is the global load
        // vector, so Φ = n · Σ_c Σ_{j≤L(c)} payoff(c, j−1, 1).
        let loads = ChannelLoads::of_sparse(&s);
        for u in 0..6 {
            assert_eq!(nbr.dense_row(u), loads.as_slice(), "user {u}");
        }
        let mut rosenthal = 0.0;
        for c in 0..s.n_channels() {
            for j in 1..=loads.load(ChannelId(c)) {
                rosenthal += game.channel_payoff(ChannelId(c), j - 1, 1);
            }
        }
        assert!((tracker.phi() - 6.0 * rosenthal).abs() <= 1e-9 * rosenthal.abs().max(1.0));
    }

    #[test]
    fn sequential_converges_to_spatial_nash() {
        let (graph, _) = ConflictGraph::random_geometric(24, 6.0, 2.0, 5);
        let game = SpatialGame::new(ChurnGame::uniform(24, 2, 3, 1.0), graph);
        let s = SparseStrategies::random_uniform(24, 2, 3, 9);
        let (s, converged, _rounds, cycle) = spatial_dynamics(&game, s, 200);
        assert!(converged && !cycle);
        assert!(is_nash_spatial(&game, &s));
    }

    /// Rows of [`path_driver`]'s users 0–3.
    const PATH_ROWS: [&[SparseEntry]; 4] = [&[(0, 2)], &[(0, 1), (1, 1)], &[(2, 2)], &[(1, 2)]];

    /// A path graph 0–1–2–3, two radios each over three channels, every
    /// user scheduled.
    fn path_driver() -> (SpatialGame<ChurnGame>, SpatialDynamics) {
        let graph = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let game = SpatialGame::new(ChurnGame::uniform(4, 2, 3, 1.0), graph);
        let mut s = SparseStrategies::with_budgets(&[2; 4], 3);
        for (u, row) in PATH_ROWS.iter().enumerate() {
            s.set_row(UserId(u), row);
        }
        let d = SpatialDynamics::new(&game, s);
        (game, d)
    }

    #[test]
    fn fingerprint_is_path_independent() {
        let (game, mut d) = path_driver();
        let (a, b) = (PATH_ROWS[1], PATH_ROWS[2]);
        // Every user starts scheduled and a row write schedules nobody:
        // only user 1's row differs between the boundaries.
        let fp_a = d.fingerprint();
        assert!(!d.cycles.observe(fp_a));
        d.write_row(&game, 1, b);
        let fp_b = d.fingerprint();
        assert_ne!(fp_b, fp_a);
        assert!(!d.cycles.observe(fp_b));
        d.write_row(&game, 1, a);
        assert_eq!(d.fingerprint(), fp_a, "A → B → A must restore the value");
        assert!(
            d.cycles.observe(fp_a),
            "the detector must report the revisit"
        );
        // ... and equal a fresh driver's keying of the same state.
        let fresh = SpatialDynamics::new(&game, d.state().clone());
        assert_eq!(fresh.fingerprint(), fp_a);
    }

    #[test]
    fn fingerprint_separates_scheduled_sets_rows_and_arrivals() {
        let (mut game, mut d) = path_driver();
        let fp = d.fingerprint();
        d.set_pending(2, false);
        assert_ne!(d.fingerprint(), fp, "scheduled sets differ");
        d.set_pending(2, true);
        assert_eq!(d.fingerprint(), fp);

        // Keys are positional: users 0 and 3 trading rows is a new state.
        for (u, row) in [(0, PATH_ROWS[3]), (3, PATH_ROWS[0])] {
            d.write_row(&game, u, row);
        }
        assert_ne!(d.fingerprint(), fp, "swapped rows");
        for (u, row) in [(0, PATH_ROWS[0]), (3, PATH_ROWS[3])] {
            d.write_row(&game, u, row);
        }
        assert_eq!(d.fingerprint(), fp);

        // One empty-row arrival, unscheduled again so the scheduled set
        // is unchanged: the extra row alone must move the fingerprint.
        game.inner_mut().push_user(2);
        game.graph_mut().push_vertex(&[3]);
        d.grow_users(&game).unwrap();
        d.set_pending(4, false);
        assert_ne!(d.fingerprint(), fp, "one extra empty row");
    }

    /// The driver's books, for the unchanged-after-error checks below.
    type Books = (SparseStrategies, DynCounters, u64, u64, Vec<Vec<u32>>);

    fn books(d: &SpatialDynamics) -> Books {
        (
            d.state().clone(),
            d.counters(),
            d.potential().phi().to_bits(),
            d.fingerprint(),
            (0..d.state().n_users())
                .map(|u| d.neighborhood_loads().dense_row(u))
                .collect(),
        )
    }

    #[test]
    fn grow_users_rejects_a_shrunk_game() {
        let (game, mut d) = path_driver();
        let before = books(&d);
        let shrunk = SpatialGame::new(
            ChurnGame::uniform(3, 2, 3, 1.0),
            ConflictGraph::from_edges(3, &[(0, 1), (1, 2)]),
        );
        let err = d.grow_users(&shrunk);
        assert!(matches!(err, Err(Error::InvalidConfig { .. })), "{err:?}");
        assert_eq!(books(&d), before);
        assert!(
            d.run(&game, 50, None).0,
            "the driver still runs its own game"
        );
    }

    #[test]
    fn grow_users_rejects_arrivals_without_vertices() {
        let (mut game, mut d) = path_driver();
        let before = books(&d);
        game.inner_mut().push_user(2);
        let err = d.grow_users(&game);
        assert!(matches!(err, Err(Error::InvalidConfig { .. })), "{err:?}");
        assert_eq!(books(&d), before);
        // Pushing the arrival's vertex makes the same call succeed.
        game.graph_mut().push_vertex(&[3]);
        d.grow_users(&game).unwrap();
        assert_eq!(d.state().n_users(), 5);
        assert!(d.run(&game, 50, None).0);
    }

    /// Arrivals whose summed budgets overflow the strategy arena: the
    /// first fits, the second does not, and the error must leave no
    /// trace of the first — no state row without an index row.
    #[test]
    fn grow_users_overflow_leaves_the_driver_unchanged() {
        let mut game = SpatialGame::clique(ChurnGame::uniform(3, 2, 3, 1.0));
        let start = SparseStrategies::random_uniform(3, 2, 3, 1);
        let mut d = SpatialDynamics::new(&game, start);
        let before = books(&d);
        for budget in [1, u32::MAX] {
            game.inner_mut().push_user(budget);
            let v = game.graph().n_vertices() as u32;
            game.graph_mut().push_vertex(&(0..v).collect::<Vec<_>>());
        }
        let err = d.grow_users(&game);
        assert!(matches!(err, Err(Error::ArenaOverflow { .. })), "{err:?}");
        assert_eq!(d.state().n_users(), 3, "state rows");
        assert_eq!(d.neighborhood_loads().n_users(), 3, "index rows");
        assert_eq!(books(&d), before);
    }

    /// The paranoid oracle recomputes the fingerprint at every round
    /// boundary: a row write that bypasses the maintained row term is
    /// caught before the next round starts.
    #[cfg(all(feature = "paranoid-checks", debug_assertions))]
    #[test]
    #[should_panic(expected = "fingerprint desync")]
    fn paranoid_check_catches_a_fingerprint_desync() {
        let (game, mut d) = path_driver();
        d.s.set_row(UserId(0), &[]);
        d.run(&game, 10, None);
    }

    #[test]
    fn empty_graph_settles_each_user_alone() {
        let game = SpatialGame::new(ChurnGame::uniform(8, 2, 4, 1.0), ConflictGraph::empty(8));
        let s = SparseStrategies::random_uniform(8, 2, 4, 1);
        let (s, converged, rounds, cycle) = spatial_dynamics(&game, s, 50);
        assert!(converged && !cycle);
        // Everyone best-responds to an otherwise-empty world at once, so
        // one working round plus the certifying quiet round suffice.
        assert!(rounds <= 2, "rounds = {rounds}");
        assert!(is_nash_spatial(&game, &s));
        // With no interference a user's neighborhood row is its own row.
        let nbr = NbrIndex::sparse_of(game.graph(), &s);
        for u in 0..8 {
            assert_eq!(
                nbr.dense_row(u),
                row_to_vector(s.row(UserId(u)), 4).counts(),
                "user {u}"
            );
        }
    }
}
