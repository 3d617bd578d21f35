//! Fast best-response engines for the large-N path: the lazy marginal
//! heap and the incremental (two-column-repair) DP, both behind the
//! [`ChannelGame`] trait and both operating on [`SparseStrategies`].
//!
//! After PR 1/2 every best-response call still rebuilt the full
//! `O(|C|·k²)` knapsack DP from scratch — including its per-channel
//! payoff table — even though a single user's move only changes two
//! channels. This module exploits that structure twice over:
//!
//! * [`HeapEngine`] — for **separable-monotone** payoffs
//!   ([`ChannelGame::payoff_is_separable_monotone`], e.g. the paper's
//!   constant-rate idealization) the best response is the greedy pick of
//!   the `k` best per-channel marginals. The engine keeps a *lazy*
//!   max-heap over every channel's first-radio marginal, stamped with the
//!   load it was computed at: stale entries are discarded when popped, a
//!   move pushes two fresh entries (`O(log |C|)` repair), and one best
//!   response costs `O(k log |C|)` amortized instead of `O(|C|·k²)`.
//! * [`DpCache`] — the generic fallback for every other payoff. It caches
//!   the shared per-channel payoff columns `F[c][t] = payoff(c, k_c, t)`
//!   (exact for any user not occupying `c`; the user's own ≤ `k` channels
//!   get corrected columns per query) and repairs **only the two touched
//!   channels' columns** after a move. The knapsack recurrence itself is
//!   the single [`crate::br_dp`] implementation, so results are
//!   bit-identical to the full DP by construction.
//!
//! [`BrEngine`] routes between the two based on the game's declaration,
//! and the sparse dynamics / Nash-check / protocol drivers below run
//! entirely on [`SparseStrategies`] + [`ChannelLoads`] — no dense
//! `|N|×|C|` matrix is ever materialized, which is what lets the
//! `t9_scale` experiment sweep 10⁵–10⁶ users.
//!
//! # Active-set dynamics (event-driven convergence)
//!
//! With the per-query cost near-optimal, the remaining multiplier in a
//! convergence run was the *sweep*: every round visited all `|N|` users,
//! paying a utility read plus an engine query per non-mover, even when
//! provably nothing near them changed. [`ActiveSetDynamics`] replaces the
//! sweep with an exact dirty-user worklist. After a move it re-activates
//! only
//!
//! * the parked **occupants** of the touched channels whose park
//!   certificate the new load breaks — found via the threshold-ordered
//!   occupant index, where each park files the load interval its
//!   certificate holds over, so a load change visits only the occupants
//!   whose interval it leaves; each is re-validated in `O(k)` when its
//!   rank comes up, before it may pay a best-response query — and
//! * parked users whose recorded best-response **slack**
//!   ([`crate::br_dp::park_slack`]) could have been overcome by the
//!   cumulative payoff-column improvements since their last check —
//!   tracked by per-channel first-entry-payoff horizons (or, on the
//!   generic route, a cumulative improvement clock) feeding one
//!   **lazy temptation index** (a min segment tree over park
//!   thresholds), so re-activation is an `O(log |N|)` rank-order query
//!   against the horizon *currently* in force, not an eager pop of
//!   everyone a transient spike once tempted.
//!
//! Every skipped check is *provably* a no-op (see the safety argument on
//! [`ActiveSetDynamics`]), and the worklist is processed in epoch order by
//! ascending user id (or the round's permutation rank), so the move
//! sequence is **bit-identical** to the reference full sweep
//! ([`sweep_dynamics_traced`]) — the `convergence_trace` goldens pass
//! unchanged on this route, and `fast_path_equiv` pins active-set ≡ sweep
//! on randomized instances of all three game variants. Convergence cost
//! becomes output-sensitive: proportional to moves and wake-ups, not
//! `rounds × |N|`. Rounds run on the calling thread, one best response
//! at a time.
//!
//! # Tie-breaking (pinned)
//!
//! Both engines break exact ties toward the **lowest channel index**
//! (see [`crate::br_dp::solve_knapsack`] for the DP side: radios pack
//! toward low-indexed channels). The heap resolves equal marginals the
//! same way. A unit test below constructs an exact floating-point tie and
//! pins both paths; the `fast_path_equiv` differential suite pins heap ≡
//! incremental DP ≡ full DP ≡ enumeration on randomized instances of all
//! three game variants, and the convergence-trace golden suite pins
//! identical dynamics traces between the dense and sparse engines.
//!
//! The spatial driver answers its heap-route queries with the row kernel
//! ([`crate::spatial::RowKernel`]) instead of this heap: one user's
//! neighborhood loads are a per-user vector no shared heap could key. It
//! takes the same marginals under the same tie rule, and
//! `fast_path_equiv` and `row_kernel_equiv` pin it to [`HeapEngine`] bit
//! for bit.

use crate::br_dp::{self, park_slack, ChannelGame};
use crate::error::Error;
use crate::game::{improvement_eps, improves, NashCheck, UTILITY_TOLERANCE};
use crate::loads::ChannelLoads;
use crate::sparse::{touched_channels_into, SparseEntry, SparseStrategies};
use crate::strategy::StrategyVector;
use crate::types::{ChannelId, UserId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry keyed by a marginal payoff; ordered by key, with exact
/// ties resolved toward the lowest channel index (the workspace-wide
/// tie-breaking rule).
#[derive(Debug, Clone, Copy)]
struct MarginalKey {
    key: f64,
    chan: u32,
}

impl PartialEq for MarginalKey {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq() && self.chan == other.chan
    }
}
impl Eq for MarginalKey {}
impl PartialOrd for MarginalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MarginalKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: larger key first; on exact key ties the *lower*
        // channel index compares greater, so it is popped first.
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.chan.cmp(&self.chan))
    }
}

/// Global heap entry: a channel's first-radio marginal stamped with the
/// load and the payoff epoch it was computed at (lazy invalidation: stale
/// when either stamp no longer matches the live channel — a reprice
/// changes the payoff under an unchanged load, so the load alone cannot
/// tell a pre-reprice key from a fresh one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GlobalEntry {
    key: MarginalKey,
    load: u32,
    epoch: u32,
}

impl PartialOrd for GlobalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GlobalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Per-query candidate: the marginal of placing radio number `next_t` on
/// `chan` against `others` foreign radios, with the payoff at `next_t`
/// carried along so the following marginal costs one payoff call.
#[derive(Debug, Clone, Copy)]
struct LocalEntry {
    key: MarginalKey,
    others: u32,
    next_t: u32,
    /// `channel_payoff(chan, others, next_t)` — memoized for the next step.
    f_next: f64,
}

impl PartialEq for LocalEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for LocalEntry {}
impl PartialOrd for LocalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LocalEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The lazy marginal-share heap: exact `O(k log |C|)` best responses for
/// separable-monotone payoffs, repaired in `O(log |C|)` per touched
/// channel after a move.
#[derive(Debug, Clone)]
pub struct HeapEngine {
    heap: BinaryHeap<GlobalEntry>,
    n_channels: usize,
    /// Per-channel payoff epoch, bumped by [`reprice`](Self::reprice).
    epochs: Vec<u32>,
}

impl HeapEngine {
    /// Build the heap from the current loads (`O(|C|)` heapify).
    ///
    /// # Panics
    ///
    /// Panics if the game does not declare a separable-monotone payoff or
    /// allows idle radios — greedy selection would be wrong there; route
    /// through [`BrEngine::new`] to get the DP fallback instead.
    pub fn new<G: ChannelGame + ?Sized>(game: &G, loads: &ChannelLoads) -> Self {
        assert!(
            game.payoff_is_separable_monotone() && !game.may_idle_radios(),
            "HeapEngine requires a separable-monotone payoff with all radios deployed"
        );
        let mut engine = HeapEngine {
            heap: BinaryHeap::new(),
            n_channels: loads.n_channels(),
            epochs: vec![0; loads.n_channels()],
        };
        engine.rebuild(game, loads);
        engine
    }

    fn fresh_entry<G: ChannelGame + ?Sized>(
        &self,
        game: &G,
        loads: &ChannelLoads,
        c: ChannelId,
    ) -> GlobalEntry {
        let load = loads.load(c);
        GlobalEntry {
            key: MarginalKey {
                // First-radio marginal of a non-occupant: payoff(c, load, 1) − 0.
                key: game.channel_payoff(c, load, 1),
                chan: c.0 as u32,
            },
            load,
            epoch: self.epochs[c.0],
        }
    }

    /// Replace the heap with one fresh entry per channel (`O(|C|)`).
    fn rebuild<G: ChannelGame + ?Sized>(&mut self, game: &G, loads: &ChannelLoads) {
        let entries: Vec<GlobalEntry> = (0..self.n_channels)
            .map(|c| self.fresh_entry(game, loads, ChannelId(c)))
            .collect();
        self.heap = BinaryHeap::from(entries);
    }

    fn is_fresh(&self, e: &GlobalEntry, loads: &ChannelLoads) -> bool {
        let c = e.key.chan as usize;
        e.load == loads.load(ChannelId(c)) && e.epoch == self.epochs[c]
    }

    /// Refresh the entries of channels whose load changed (`O(log |C|)`
    /// each); stale entries are discarded lazily on pop. Occasionally
    /// rebuilds the heap wholesale to garbage-collect accumulated stale
    /// entries, keeping the heap size `O(|C|)` amortized.
    pub fn repair<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        loads: &ChannelLoads,
        touched: &[ChannelId],
    ) {
        if self.heap.len() + touched.len() > 4 * self.n_channels + 64 {
            self.rebuild(game, loads);
            return;
        }
        for &c in touched {
            let e = self.fresh_entry(game, loads, c);
            self.heap.push(e);
        }
    }

    /// Channel `c`'s payoff changed under an unchanged load (a rate
    /// shift): advance its epoch, so every entry keyed under the old
    /// payoff reads stale, and push a fresh one. `O(log |C|)`.
    pub fn reprice<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        loads: &ChannelLoads,
        c: ChannelId,
    ) {
        self.epochs[c.0] = self.epochs[c.0].wrapping_add(1);
        self.repair(game, loads, &[c]);
    }

    /// Exact best response of `user` (current sparse row `row`, budget
    /// `radios_of(user)`): greedily take the `k` best marginals across
    /// the user's own channels (corrected for its own radios) and the
    /// lazily-maintained global heap of foreign channels. Amortized
    /// `O(k log |C|)`; the heap is left exactly as found (fresh entries
    /// popped during the query are restored).
    pub fn best_response<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        row: &[SparseEntry],
        loads: &ChannelLoads,
        user: UserId,
    ) -> (Vec<SparseEntry>, f64) {
        let k = game.radios_of(user);
        // Chosen allocation: (channel, count, others-load).
        let mut alloc: Vec<(u32, u32, u32)> = Vec::with_capacity(k as usize);
        // Candidates already "materialized": the user's own channels and
        // any foreign channel promoted from the global heap.
        let mut local: BinaryHeap<LocalEntry> = BinaryHeap::with_capacity(row.len() + k as usize);
        for &(c, own) in row {
            let cid = ChannelId(c as usize);
            let others = loads.load(cid) - own;
            let f1 = game.channel_payoff(cid, others, 1);
            local.push(LocalEntry {
                key: MarginalKey { key: f1, chan: c },
                others,
                next_t: 1,
                f_next: f1,
            });
        }
        // Fresh global entries popped during this query, to restore.
        let mut set_aside: Vec<GlobalEntry> = Vec::new();
        // Foreign channels already promoted into `local` (further fresh
        // duplicates for them are dropped).
        let mut promoted: Vec<u32> = Vec::new();
        let mut gtop: Option<GlobalEntry> = None;

        for _ in 0..k {
            // Refill the global candidate: pop until a fresh entry for a
            // channel not already handled locally surfaces.
            while gtop.is_none() {
                let Some(e) = self.heap.pop() else { break };
                let chan = e.key.chan;
                if !self.is_fresh(&e, loads) {
                    continue; // stale: drop permanently
                }
                if promoted.contains(&chan) {
                    continue; // duplicate of a promoted channel: drop
                }
                if row.binary_search_by_key(&chan, |&(c, _)| c).is_ok() {
                    // The user's own channel lives in `local` with the
                    // corrected load; park the (still fresh) entry so
                    // other users keep seeing it.
                    set_aside.push(e);
                    continue;
                }
                gtop = Some(e);
            }
            // Compare the two candidate sources; exact ties go to the
            // lower channel index via the MarginalKey ordering.
            let take_global = match (&gtop, local.peek()) {
                (Some(g), Some(l)) => g.key > l.key,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break, // |C| = 0: nothing to place
            };
            if take_global {
                let g = gtop.take().expect("checked above");
                let chan = g.key.chan;
                let cid = ChannelId(chan as usize);
                // The user has no radio here, so others == stamped load.
                let others = g.load;
                alloc.push((chan, 1, others));
                let f1 = g.key.key;
                let f2 = game.channel_payoff(cid, others, 2);
                debug_assert!(
                    f2 - f1 <= f1 + 1e-9 * f1.abs().max(1.0),
                    "payoff declared separable-monotone but marginal rose on {cid}"
                );
                local.push(LocalEntry {
                    key: MarginalKey { key: f2 - f1, chan },
                    others,
                    next_t: 2,
                    f_next: f2,
                });
                promoted.push(chan);
                set_aside.push(g); // restore after the query
            } else {
                let l = local.pop().expect("checked above");
                let chan = l.key.chan;
                match alloc.iter_mut().find(|a| a.0 == chan) {
                    Some(a) => a.1 += 1,
                    None => alloc.push((chan, 1, l.others)),
                }
                let cid = ChannelId(chan as usize);
                let f_up = game.channel_payoff(cid, l.others, l.next_t + 1);
                debug_assert!(
                    f_up - l.f_next <= l.key.key + 1e-9 * l.key.key.abs().max(1.0),
                    "payoff declared separable-monotone but marginal rose on {cid}"
                );
                local.push(LocalEntry {
                    key: MarginalKey {
                        key: f_up - l.f_next,
                        chan,
                    },
                    others: l.others,
                    next_t: l.next_t + 1,
                    f_next: f_up,
                });
            }
        }
        // Restore every fresh entry the query consumed.
        if let Some(g) = gtop {
            self.heap.push(g);
        }
        for e in set_aside {
            self.heap.push(e);
        }

        alloc.sort_unstable_by_key(|a| a.0);
        // Recompute the value as the ascending-channel payoff sum — the
        // exact floating-point association the DP and the Eq.-3 readers
        // use, so all engines agree bit-for-bit on achieved utilities.
        let mut value = 0.0;
        for &(c, t, others) in &alloc {
            value += game.channel_payoff(ChannelId(c as usize), others, t);
        }
        (alloc.into_iter().map(|(c, t, _)| (c, t)).collect(), value)
    }
}

/// The incremental DP: shared per-channel payoff columns repaired two at
/// a time, feeding the single knapsack recurrence of [`crate::br_dp`].
/// Exact for *every* [`ChannelGame`] (no concavity assumption) and
/// bit-identical to the full DP by construction.
#[derive(Debug, Clone)]
pub struct DpCache {
    /// Column stride: `k_max + 1` payoffs per channel.
    stride: usize,
    n_channels: usize,
    /// `f[c·stride + t] = channel_payoff(c, k_c, t)` — the column any user
    /// *not occupying* `c` sees.
    f: Vec<f64>,
}

impl DpCache {
    /// Build the shared payoff columns for the current loads
    /// (`O(|C|·k_max)`).
    pub fn new<G: ChannelGame + ?Sized>(game: &G, loads: &ChannelLoads) -> Self {
        let k_max = UserId::all(game.n_users())
            .map(|u| game.radios_of(u))
            .max()
            .unwrap_or(0) as usize;
        let n_channels = game.n_channels();
        let mut cache = DpCache {
            stride: k_max + 1,
            n_channels,
            f: vec![0.0; n_channels * (k_max + 1)],
        };
        for c in 0..n_channels {
            cache.refresh_column(game, loads, ChannelId(c));
        }
        cache
    }

    fn refresh_column<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        loads: &ChannelLoads,
        c: ChannelId,
    ) {
        let base = c.0 * self.stride;
        let load = loads.load(c);
        for t in 1..self.stride {
            self.f[base + t] = game.channel_payoff(c, load, t as u32);
        }
    }

    /// Recompute **only the touched channels' columns** after a move
    /// (`O(k_max)` per channel — a user-level move touches at most `2k`).
    pub fn repair<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        loads: &ChannelLoads,
        touched: &[ChannelId],
    ) {
        for &c in touched {
            self.refresh_column(game, loads, c);
        }
    }

    /// Exact best response of `user` from the cached columns: the user's
    /// own ≤ `k` channels get corrected columns (others-load excludes its
    /// radios), every other channel reads the shared column, and the
    /// shared knapsack recurrence does the rest. Bit-identical to
    /// [`br_dp::best_response_cached`].
    pub fn best_response<G: ChannelGame + ?Sized>(
        &self,
        game: &G,
        row: &[SparseEntry],
        loads: &ChannelLoads,
        user: UserId,
    ) -> (Vec<SparseEntry>, f64) {
        let k = game.radios_of(user) as usize;
        debug_assert!(k < self.stride, "budget exceeds cached column depth");
        // Corrected columns for the user's own channels, sorted by channel
        // (the row is sorted); flattened at stride k+1.
        let own_chans: Vec<u32> = row.iter().map(|&(c, _)| c).collect();
        let mut own_cols = vec![0.0; row.len() * (k + 1)];
        for (i, &(c, own)) in row.iter().enumerate() {
            let cid = ChannelId(c as usize);
            let others = loads.load(cid) - own;
            for t in 1..=k {
                own_cols[i * (k + 1) + t] = game.channel_payoff(cid, others, t as u32);
            }
        }
        let (counts, value) = br_dp::solve_knapsack(
            self.n_channels,
            k,
            game.may_idle_radios(),
            |c, t| match own_chans.binary_search(&(c as u32)) {
                Ok(i) => own_cols[i * (k + 1) + t],
                Err(_) => self.f[c * self.stride + t],
            },
        );
        let out = counts
            .iter()
            .enumerate()
            .filter_map(|(c, &t)| (t > 0).then_some((c as u32, t)))
            .collect();
        (out, value)
    }
}

/// Engine dispatch: the heap when the game declares a separable-monotone
/// payoff (and never idles radios), the incremental DP otherwise.
#[derive(Debug, Clone)]
pub enum BrEngine {
    /// The `O(k log |C|)` lazy marginal heap.
    Heap(HeapEngine),
    /// The generic incremental DP fallback.
    Dp(DpCache),
}

impl BrEngine {
    /// Pick the engine for `game` and build it against `loads`.
    pub fn new<G: ChannelGame + ?Sized>(game: &G, loads: &ChannelLoads) -> Self {
        if game.payoff_is_separable_monotone() && !game.may_idle_radios() {
            BrEngine::Heap(HeapEngine::new(game, loads))
        } else {
            BrEngine::Dp(DpCache::new(game, loads))
        }
    }

    /// Whether the heap path was selected.
    pub fn is_heap(&self) -> bool {
        matches!(self, BrEngine::Heap(_))
    }

    /// Exact best response of `user` with current sparse row `row`.
    pub fn best_response<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        row: &[SparseEntry],
        loads: &ChannelLoads,
        user: UserId,
    ) -> (Vec<SparseEntry>, f64) {
        match self {
            BrEngine::Heap(h) => h.best_response(game, row, loads, user),
            BrEngine::Dp(d) => d.best_response(game, row, loads, user),
        }
    }

    /// Repair after the listed channels' loads changed.
    pub fn repair<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        loads: &ChannelLoads,
        touched: &[ChannelId],
    ) {
        match self {
            BrEngine::Heap(h) => h.repair(game, loads, touched),
            BrEngine::Dp(d) => d.repair(game, loads, touched),
        }
    }

    /// Repair after channel `c`'s payoff changed under an unchanged load.
    pub fn reprice<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        loads: &ChannelLoads,
        c: ChannelId,
    ) {
        match self {
            BrEngine::Heap(h) => h.reprice(game, loads, c),
            BrEngine::Dp(d) => d.repair(game, loads, &[c]),
        }
    }
}

/// Eq. 3 from a sparse row against a cached load vector: `O(k)` — only
/// the user's occupied channels are read. Bit-identical to the dense
/// [`br_dp::utility_cached`] (same ascending-channel summation).
pub fn utility_sparse<G: ChannelGame + ?Sized>(
    game: &G,
    s: &SparseStrategies,
    loads: &ChannelLoads,
    user: UserId,
) -> f64 {
    s.paranoid_check(loads);
    let mut total = 0.0;
    for &(c, own) in s.row(user) {
        let cid = ChannelId(c as usize);
        let others = loads.load(cid) - own;
        total += game.channel_payoff(cid, others, own);
    }
    total
}

/// Total welfare from the loads alone: `Σ_{c: k_c>0} payoff(c, 0, k_c)`.
/// For every anonymous per-channel payoff in this workspace that equals
/// `Σ_i U_i` exactly — rate-sharing games contribute `R_c(k_c)` per
/// occupied channel (the identity behind Theorem 2), the energy model
/// `R_c(k_c) − cost·k_c`.
pub fn welfare_from_loads<G: ChannelGame + ?Sized>(game: &G, loads: &ChannelLoads) -> f64 {
    let mut total = 0.0;
    for c in ChannelId::all(loads.n_channels()) {
        let kc = loads.load(c);
        if kc > 0 {
            total += game.channel_payoff(c, 0, kc);
        }
    }
    total
}

/// A sparse row as a dense [`StrategyVector`] (witness/trace conversion).
fn row_to_vector(row: &[SparseEntry], n_channels: usize) -> StrategyVector {
    let mut counts = vec![0u32; n_channels];
    for &(c, k) in row {
        counts[c as usize] = k;
    }
    StrategyVector::from_counts(counts)
}

/// Per-run work counters of the active-set dynamics: what was actually
/// paid versus what a full sweep would have paid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynCounters {
    /// Engine best-response queries (plus the paired utility read) that
    /// were actually performed.
    pub checks: u64,
    /// Strategy switches applied.
    pub moves: u64,
    /// Worklist insertions, including the initial all-active epoch.
    pub activations: u64,
    /// Checks the equivalent full sweep would have performed that the
    /// worklist proved unnecessary (`rounds · |N| − checks` for the round
    /// drivers; counted per skipped probe for the protocol).
    pub skipped_checks: u64,
    /// Parked users scheduled through the occupant index: one count per
    /// parked occupant a load change pushed out of its certificate
    /// interval, or a reprice drained. Occupants whose interval still
    /// contains the new load are never visited and not counted.
    pub occupant_wakeups: u64,
    /// Deliveries resolved by an O(k) certificate test instead of a full
    /// engine query: the filed certificate still held — own loads back
    /// inside their intervals, threshold clear of the horizon — or, on
    /// the concave route, the exchange bound held at the delivery-time
    /// loads and the user re-filed under it. Booked under
    /// `skipped_checks`, not `checks` — the sweep would have paid a full
    /// check here and found nothing.
    pub revalidated: u64,
    /// Re-activations delivered through the temptation index (lazy
    /// rank-order discovery or an eager drain, per the calling path).
    pub temptation_wakeups: u64,
    /// Generic-route deliveries resolved by the per-channel column-delta
    /// refinement instead of a full engine query: the walk over the
    /// column log since the park proved every channel's net rise —
    /// healed excursions contribute zero, net-changed channels an exact
    /// recompute — sums (over the user's best `k` channels) to less
    /// than the park gap, so the certificate is provably intact and the
    /// user re-parks under a rebased threshold. A subset of
    /// `revalidated`; booked under `skipped_checks` like every
    /// re-validation.
    pub refined_reparks: u64,
    /// Always zero: every dynamics driver applies one move at a time, so
    /// no move is a batch commit. The field stays because `perfbench`
    /// names every field of this struct.
    pub committed: u64,
    /// Always zero: no dynamics driver defers a candidate move. The
    /// field stays because `perfbench` names every field of this struct.
    pub deferred: u64,
}

/// The lazy temptation index: a min segment tree over per-user park
/// thresholds, keyed by user id. Replaces the old threshold min-heap —
/// the heap could only answer "who has the globally smallest threshold",
/// which forces *eager* wakes (every user under a transient horizon gets
/// scheduled the moment the horizon spikes, even when it subsides before
/// their rank comes up — the thundering-herd pathology rate shifts and
/// departures trigger at scale). The tree answers the question the
/// round's rank-order scan actually asks — "who is the first user at or
/// after rank `r` whose threshold the *current* horizon exceeds" — in
/// O(log n), so a user is only ever woken at the moment its check would
/// actually run, against the horizon in force at that moment.
///
/// `+∞` means "not parked / never tempted" (the padding leaves past the
/// population are `+∞` too, so they never match a query). One slot per
/// user, overwritten in place — no stamps, no stale entries, no GC.
#[derive(Debug, Clone)]
struct TemptIndex {
    /// Live leaf count (== the population size).
    len: usize,
    /// Leaf capacity: the next power of two ≥ `len`.
    base: usize,
    /// `tree[1]` is the root min; `tree[base + u]` is user `u`'s
    /// threshold.
    tree: Vec<f64>,
}

impl TemptIndex {
    fn new(n: usize) -> Self {
        let base = n.next_power_of_two().max(1);
        TemptIndex {
            len: n,
            base,
            tree: vec![f64::INFINITY; 2 * base],
        }
    }

    /// Set user `u`'s threshold and repair the path to the root.
    fn set(&mut self, u: usize, t: f64) {
        let mut i = self.base + u;
        self.tree[i] = t;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// Append one user (threshold `+∞`), doubling the leaf array when
    /// full — the amortized-O(1) churn arrival path.
    fn push(&mut self) {
        if self.len == self.base {
            let base = (2 * self.base).max(1);
            let mut tree = vec![f64::INFINITY; 2 * base];
            tree[base..base + self.len].copy_from_slice(&self.tree[self.base..2 * self.base]);
            for i in (1..base).rev() {
                tree[i] = tree[2 * i].min(tree[2 * i + 1]);
            }
            self.base = base;
            self.tree = tree;
        }
        self.len += 1;
        // The fresh leaf is already +∞; nothing to repair.
    }

    /// The first user id `≥ from` with threshold `≤ h`, if any: climb
    /// from the leaf checking right-sibling subtree minima, then descend
    /// left-first into the first qualifying subtree. O(log n). A NaN
    /// horizon (the degenerate no-channel case) matches nothing.
    fn first_below(&self, from: usize, h: f64) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut i = self.base + from;
        if self.tree[i] <= h {
            return Some(from);
        }
        while i > 1 {
            if i.is_multiple_of(2) && self.tree[i + 1] <= h {
                i += 1;
                while i < self.base {
                    i *= 2;
                    if self.tree[i] > h {
                        i += 1;
                    }
                }
                return Some(i - self.base);
            }
            i /= 2;
        }
        None
    }
}

/// How far, in radios per side, a certificate's load interval may
/// extend past the load it was filed at. Any width is sound; at
/// equilibrium loads the binding marginal leaves its range within a step
/// or two, so the cap only bounds the scan on flat payoff stretches and
/// sizes the occupant index's bucket ring.
const SPAN_STEPS: u32 = 2;

/// Bucket ring size of [`ChannelIndex`]: at least the `2·SPAN_STEPS + 1`
/// distinct values live interval ends can take around the current load.
const RING: usize = 8;
const _: () = assert!(RING > 2 * SPAN_STEPS as usize);

/// One channel's slice of the threshold-ordered occupant index. Every
/// parked occupant files the load interval `[lo, hi]` over which its park
/// certificate holds: once in the bucket of `hi` (popped when the load
/// rises past `hi`) and once in the bucket of `lo` (popped when the load
/// falls below `lo`). A load change drains exactly the buckets of the
/// values it passes, so an occupant whose certificate still holds is
/// never visited, and filing, popping or withdrawing an interval is O(1).
///
/// Only parked users' current intervals are filed — a user's intervals
/// are withdrawn when it is scheduled or re-files — so every live
/// interval contains the current load and spans at most `2·SPAN_STEPS`:
/// upper ends lie in `[L, L + 2·SPAN_STEPS]`, lower ends in
/// `[L − 2·SPAN_STEPS, L]`, and each side is a ring of [`RING`] buckets
/// indexed by value. The buckets are circular doubly linked lists
/// through one node array: nodes `0..RING` head the upper buckets and
/// `RING..2·RING` the lower ones, and interval slot `j ≥ RING` owns
/// nodes `2j` (upper end) and `2j + 1` (lower end). A node that is not
/// linked points to itself.
#[derive(Debug, Clone)]
struct ChannelIndex {
    /// The load the rings are aligned to — the channel's current load.
    at: u32,
    /// `(user, next, prev)`.
    nodes: Vec<(u32, u32, u32)>,
    /// Withdrawn interval slots, reused before the node array grows.
    free: Vec<u32>,
}

impl ChannelIndex {
    fn new(load: u32) -> Self {
        ChannelIndex {
            at: load,
            nodes: (0..2 * RING as u32).map(|i| (u32::MAX, i, i)).collect(),
            free: Vec::new(),
        }
    }

    /// Link node `i` right after head `h`.
    fn link(&mut self, h: u32, i: u32) {
        let next = self.nodes[h as usize].1;
        self.nodes[i as usize].1 = next;
        self.nodes[i as usize].2 = h;
        self.nodes[next as usize].2 = i;
        self.nodes[h as usize].1 = i;
    }

    /// Unlink node `i` (a no-op when it is not linked).
    fn unlink(&mut self, i: u32) {
        let (_, next, prev) = self.nodes[i as usize];
        self.nodes[prev as usize].1 = next;
        self.nodes[next as usize].2 = prev;
        self.nodes[i as usize].1 = i;
        self.nodes[i as usize].2 = i;
    }

    /// File `user` under `[lo, hi]`, an interval around the current
    /// load; returns its slot.
    fn file(&mut self, user: u32, (lo, hi): (u32, u32)) -> u32 {
        debug_assert!(lo <= self.at && self.at <= hi, "interval misses the load");
        debug_assert!(hi - lo <= 2 * SPAN_STEPS, "interval wider than the ring");
        let j = self.free.pop().unwrap_or_else(|| {
            let j = (self.nodes.len() / 2) as u32;
            self.nodes
                .extend([(user, 2 * j, 2 * j), (user, 2 * j + 1, 2 * j + 1)]);
            j
        });
        self.nodes[2 * j as usize].0 = user;
        self.nodes[2 * j as usize + 1].0 = user;
        self.link(hi % RING as u32, 2 * j);
        self.link(RING as u32 + lo % RING as u32, 2 * j + 1);
        j
    }

    /// Withdraw slot `j`'s interval (either end may already be popped).
    fn withdraw(&mut self, j: u32) {
        self.unlink(2 * j);
        self.unlink(2 * j + 1);
        self.free.push(j);
    }

    /// Pop every node of the bucket headed at `h` into `out` as
    /// `(user, slot)`.
    fn pop_bucket(&mut self, h: u32, out: &mut Vec<(u32, u32)>) {
        loop {
            let i = self.nodes[h as usize].1;
            if i == h {
                break;
            }
            self.unlink(i);
            out.push((self.nodes[i as usize].0, i / 2));
        }
    }

    /// Move to `load`, appending `(user, slot)` of every interval the
    /// move leaves to `crossed`. The popped end is unlinked; the other
    /// stays filed until the caller withdraws the slot.
    fn move_to(&mut self, load: u32, crossed: &mut Vec<(u32, u32)>) {
        while self.at < load {
            self.pop_bucket(self.at % RING as u32, crossed);
            self.at += 1;
        }
        while self.at > load {
            self.pop_bucket(RING as u32 + self.at % RING as u32, crossed);
            self.at -= 1;
        }
    }

    /// The users of every filed interval, once each.
    fn users(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for h in 0..RING as u32 {
            let mut i = self.nodes[h as usize].1;
            while i != h {
                out.push(self.nodes[i as usize].0);
                i = self.nodes[i as usize].1;
            }
        }
        out
    }
}

/// The marginals of a user holding `t` radios on `c` against `o` foreign
/// radios: its last radio's `κ = f(t) − f(t−1)` and one more radio's
/// `μ = f(t+1) − f(t)`.
fn own_marginals<G: ChannelGame + ?Sized>(game: &G, c: u32, o: u32, t: u32) -> (f64, f64) {
    let cid = ChannelId(c as usize);
    let f = game.channel_payoff(cid, o, t);
    let below = if t > 1 {
        game.channel_payoff(cid, o, t - 1)
    } else {
        0.0
    };
    (f - below, game.channel_payoff(cid, o, t + 1) - f)
}

/// An entering marginal with the relative float margin every threshold
/// test in this module keeps: `μ` provably stays under `thr` iff
/// `with_margin(μ) < thr`.
fn with_margin(mu: f64) -> f64 {
    mu + 1e-12 * mu.abs()
}

/// The exchange-bound park certificate of a concave-route user holding
/// `row`, each entry's others-load read from `loads` with the user's own
/// radios excluded.
///
/// With concave per-channel payoffs and all `k` radios deployed, any
/// deviation trades `m ≤ k` radios: each one added gains at most the
/// largest *entering* marginal `E` — some channel's first-entry payoff
/// `φ_c`, or `μ` on a channel the user already holds — and each one
/// removed loses at least the smallest *kept* marginal `K` (the `κ` of
/// the user's last radio on some channel), so
/// `best − current ≤ k · max(0, E − K)`. Concavity also gives
/// `current ≥ Σ t_c·κ_c ≥ k·K`. The certificate takes `K` at the current
/// loads and `thr = K·(1 + τ/2)` (`τ` the relative [`improvement_eps`]
/// tolerance): while every own `κ` stays at or above `K` and every own
/// `μ` and `φ_max` stay under `thr`, the bound is at most `k·K·τ/2` —
/// half the improvement epsilon at any utility those conditions allow,
/// the other half absorbing rounding — so the user provably cannot move.
/// `thr` is returned only when it clears `horizon` (the caller's
/// `φ_max` test, pop margin included) and every own `μ`; then, per row
/// entry, `spans` receives the load interval `[lo, hi]` around the
/// current load over which `κ ≥ K` and `μ < thr` keep holding (at most
/// [`SPAN_STEPS`] per side): on the lighter side the bound on deepening
/// into the channel, on the heavier side the bound on the radio kept
/// there. The `φ_max` condition is the temptation index's.
///
/// `None` (and `spans` untouched) when the row does not deploy exactly
/// the user's budget, `K` is not positive, or a condition fails.
fn exchange_cert<G: ChannelGame + ?Sized>(
    game: &G,
    user: UserId,
    row: &[SparseEntry],
    loads: &ChannelLoads,
    horizon: f64,
    spans: &mut Vec<(u32, u32)>,
) -> Option<f64> {
    if row.is_empty() || row.iter().map(|&(_, t)| t).sum::<u32>() != game.radios_of(user) {
        return None;
    }
    let others = |c: u32, t: u32| loads.load(ChannelId(c as usize)) - t;
    let deepen = row.len() > 1;
    let mut kept = f64::INFINITY;
    let mut enter = horizon;
    for &(c, t) in row {
        let (kappa, mu) = own_marginals(game, c, others(c, t), t);
        kept = kept.min(kappa);
        if deepen {
            enter = enter.max(with_margin(mu));
        }
    }
    let thr = kept + 0.5 * UTILITY_TOLERANCE * kept;
    if !(kept > 0.0 && kept.is_finite() && enter < thr) {
        return None;
    }
    let holds = |c: u32, o: u32, t: u32| {
        let (kappa, mu) = own_marginals(game, c, o, t);
        kappa >= kept && (!deepen || with_margin(mu) < thr)
    };
    for &(c, t) in row {
        let o = others(c, t);
        let up = (1..=SPAN_STEPS).take_while(|&s| holds(c, o + s, t)).count() as u32;
        let down = (1..=SPAN_STEPS.min(o))
            .take_while(|&s| holds(c, o - s, t))
            .count() as u32;
        spans.push((o + t - down, o + t + up));
    }
    Some(thr)
}

/// Exact event-driven best-response dynamics: a dirty-user worklist that
/// only ever checks users a move could have tempted, while reproducing
/// the full sweep's move sequence **bit for bit**.
///
/// # State discipline
///
/// Every user is in exactly one of two states:
///
/// * **scheduled** — in the in-flight round's worklist (`in_cur`) or the
///   next epoch's (`in_pending`); it will be checked.
/// * **parked** — its last check found no improving deviation, and its
///   slack ([`park_slack`]) was recorded against the temptation clock.
///   (A mover is parked too: immediately after its move it sits exactly
///   at its best response, so its slack is the improvement epsilon at
///   its new value.)
///
/// # Why skipped checks are provably no-ops
///
/// A parked user `u`'s move condition `best − current > ε` (the
/// scale-relative [`improvement_eps`]) can only become true if the
/// environment changes. Two exhaustive cases:
///
/// * `current` (or a *corrected* own-channel payoff column) changes only
///   when the load of a channel `u` occupies changes. Every park files,
///   under each of `u`'s channels, the **load interval** its certificate
///   holds over in the **threshold-ordered occupant index**
///   ([`ChannelIndex`], the worklist's specialization of the
///   [`ChannelOccupants`](crate::sparse::ChannelOccupants) channel→users
///   reverse index), and a load change delivers exactly the occupants
///   whose interval it leaves. Filing is `O(k)`, and an occupant whose
///   interval still holds the load is never visited. The intervals per
///   route:
///
///   **Separable-monotone route — the exchange bound.** With concave
///   per-channel payoffs and all `k` radios deployed, a deviation trades
///   `m ≤ k` radios. Each radio added gains at most the largest
///   *entering* marginal `E`: some channel's first-entry payoff `φ_c`,
///   or `μ = f(t+1) − f(t)` on a channel `u` already holds. Each radio
///   removed loses at least the smallest *kept* marginal `K = min κ`,
///   `κ = f(t) − f(t−1)` of `u`'s last radio on a channel. So
///   `best − current ≤ k · max(0, E − K)`. Concavity also gives
///   `current ≥ Σ t_c κ_c ≥ k·K`. The certificate ([`exchange_cert`])
///   takes `K` at the park-time loads and the threshold
///   `thr = K·(1 + τ/2)` (`τ` the relative tolerance of
///   [`improvement_eps`]). While every own `κ` stays `≥ K` and every own
///   `μ` and `φ_max` stay `< thr`, the bound is at most `k·K·τ/2`: half
///   the epsilon at any utility those conditions allow, the other half
///   absorbing rounding. No improving move exists, so a check would
///   provably find nothing. On each own channel, `κ ≥ K` and `μ < thr`
///   hold over a contiguous range of loads around the park load — the
///   interval: `lo` the lightest load whose deepening marginal stays
///   under `thr`, `hi` the heaviest whose kept marginal stays at or
///   above `K`, scanned up to [`SPAN_STEPS`] per side. The temptation
///   index below enforces `φ_max < thr`. A load change that leaves an
///   interval schedules the user and withdraws its intervals; when its
///   rank comes up, delivery re-derives the certificate at the then
///   current loads in `O(k)` ([`ActiveSetDynamics::revalidate`]) and
///   re-files it when it holds, so every crossing since the wake
///   coalesces into one test, and only a failure pays the full check.
///   At an exact equilibrium
///   the front-line entry payoff equals the weakest kept marginal bit
///   for bit, and the `τ/2` margin keeps the indifferent users parked.
///   When the bound does not hold at park time (a row within `ε` of a
///   different best response, or a horizon already above `thr`), the
///   user files the exact-load certificate below instead.
///
///   **Exact-load certificates — the generic route, and the concave
///   fallback.** The degenerate interval `[P, P]`, `P` the park-time
///   load: the channel is then in exactly the state the certificate was
///   computed against (a parked user's own radios on it cannot have
///   moved), so the certificate's own-channel premise is intact
///   verbatim. This is the exact park-load wake rule; the generic
///   route's wake set is that rule's, bit for bit.
///
///   A woken occupant, in turn, is not condemned to a full re-check:
///   wakes are often *transient* (the next taker in rank order restores
///   the load before the woken rank comes up), so delivery first tests
///   the filed certificate in O(k) ([`ActiveSetDynamics::cert_holds`])
///   and re-files it without an engine query when it still holds; on
///   the concave route it then tries the exchange bound at the
///   delivery-time loads.
/// * `best` rises only through *shared* columns of channels `u` does not
///   occupy. Re-activation for this case is a query against the **lazy
///   temptation index** ([`TemptIndex`]), with the per-user threshold
///   depending on the engine route:
///
///   **Separable-monotone route** (the lazy heap's regime — concave
///   per-channel marginals, all radios deployed). By concavity a
///   channel's entering marginals are bounded by its **first-entry
///   payoff** `φ_c = f(c, k_c, 1)`, so a parked user cannot move unless
///   the global horizon `φ_max = max_c φ_c` over the *current* loads
///   reaches its threshold: the exchange bound's `thr`, or — for an
///   exact-load certificate — `m* + g/k` with `m*` the weakest marginal
///   of its park-time best response and `g = current + ε − best` its
///   slack (an improvement must route an entering marginal of a changed
///   channel into the greedy top `k`, displacing a marginal `≥ m*`, so
///   it needs some `k·(φ_c − m*) > g`). The crucial property making the
///   test **lazy-safe** is that the certificate is *history-free*: a
///   parked user's own channels sit inside their intervals (a load
///   leaving one delivers it through the occupant index), so its
///   own-channel premises are still live, and at any later moment it can
///   move only if some channel's current `φ_c` exceeds its threshold —
///   the identical-rank round scan therefore delivers a tempted user
///   exactly when its check would run, and a horizon spike that subsided
///   before that rank (a vacated channel the next taker in rank order
///   refills) provably wakes nobody. The eager heap popped every user
///   under the spike — `O(|N|)` futile re-checks per move during a
///   rebalancing trickle, the thundering herd that made large-population
///   departures and rate shifts quadratic.
///   At an exact equilibrium the front-line entry payoff equals the
///   weakest kept marginal bit-for-bit, and the threshold's margin keeps
///   indifferent users parked — a move that merely restores balance
///   wakes nobody beyond the occupants whose intervals it leaves, which
///   is what makes equilibrium maintenance `O(occupants)` instead of
///   `O(|N|)`.
///
///   **Generic (DP) route.** No concavity is assumed, so the engine falls
///   back to a union bound in payoff-delta space: a single column change
///   shifts any allocation's value by at most
///   `D_c = max_t (f_new(c,t) − f_old(c,t))⁺`; the global clock
///   accumulates `T = Σ D_c` over all moves and channels, and a
///   user parked with slack `g` at clock `T₀` is filed at `T₀ + g` —
///   correct for arbitrary payoffs, but conservative near equilibria
///   (where `g ≈ ε`, any improvement anywhere wakes the world; the
///   route is exact, just less output-sensitive).
///
/// Both routes test thresholds with a small relative epsilon so
/// floating-point rounding can only cause extra (harmless) wake-ups,
/// never a missed one. Conservative (superset) wake-ups are harmless: a
/// woken no-op user is checked and re-parked exactly as the sweep would
/// have checked it, so the trace cannot differ. Ordering preserves the sweep
/// semantics: the worklist pops by ascending epoch rank, and a wake
/// caused by a move at rank `r` lands in the current epoch when the
/// woken rank is `> r` (the sweep would still reach it this round) and
/// in the next epoch otherwise.
///
/// The engine is persistent: after [`run`](Self::run) converges, callers
/// may [`apply_row`](Self::apply_row) external perturbations and run
/// again, paying only for the users the perturbation could have tempted —
/// the equilibrium-maintenance workload the `dynamics_active_vs_sweep`
/// bench measures.
#[derive(Debug, Clone)]
pub struct ActiveSetDynamics {
    s: SparseStrategies,
    loads: ChannelLoads,
    engine: BrEngine,
    /// Whether the separable-monotone (first-entry-payoff) wake rule
    /// applies — always equal to the engine routing predicate.
    concave: bool,
    /// Parked flag per user; the threshold lives in the temptation
    /// index.
    parked: Vec<bool>,
    /// The threshold-ordered occupant index, one [`ChannelIndex`] per
    /// channel: every park files, under each of the user's channels, the
    /// load interval its certificate holds over, and a load change pops
    /// only the entries whose interval it leaves.
    occ: Vec<ChannelIndex>,
    /// Per-channel payoff generation, bumped by
    /// [`reprice_channel`](Self::reprice_channel): a filed certificate
    /// records its channels' generations and is void once one moves.
    price_gen: Vec<u32>,
    /// DP route: global temptation clock `T` — the cumulative sum of
    /// per-channel column improvements across all moves (monotone).
    clock: f64,
    /// DP route: append-only log of the per-channel column events behind
    /// every clock advance — `(channel, load before the event, the
    /// advance `D_c`, was it a reprice)`. Zero-rise events (load
    /// increases, pure price drops) are logged too: the *first* entry
    /// for a channel since a user's park then always carries that
    /// channel's exact park-time load, which is what lets the delivery
    /// refinement tell a healed excursion (current load back at the
    /// first entry's `old_load` — contributes nothing) from a net change
    /// (exact two-column recompute). Compacted by halves once it exceeds
    /// a cap; parks older than the retained window fall back to the
    /// coarse clock. Empty on the concave route.
    col_log: Vec<ColEvent>,
    /// Global index of `col_log[0]`: the event epoch is
    /// `log_base + col_log.len()`, monotone across compactions.
    log_base: u64,
    /// Concave route: per-channel first-entry payoff `φ_c = f(c, load_c,
    /// 1)` at the *current* loads (empty on the generic route),
    /// maintained at every load or rate mutation.
    phi: Vec<f64>,
    /// Cached `max_c φ_c` — the global temptation horizon the lazy scan
    /// and the eager drain test park thresholds against.
    phi_max: f64,
    /// Lazy temptation index over parked users (first-entry-payoff or
    /// clock keyed, per the route).
    tempt: TemptIndex,
    /// Whether every parked threshold at or under the current horizon
    /// has been verified futile against the **current** state — set by
    /// a moveless round, cleared by any load or price mutation. Gates
    /// the temptation scan/drain: a converged engine whose state nobody
    /// touches answers `run` in O(1) with zero checks, even when
    /// eps-indifferent users park within the pop margin of the horizon
    /// (their certificates were just checked; nothing changed).
    quiet: bool,
    /// In-flight round worklist, popped by ascending `(rank, user)`.
    cur: BinaryHeap<Reverse<(u32, u32)>>,
    in_cur: Vec<bool>,
    /// Next-epoch worklist (unordered; ranked at round start).
    pending: Vec<u32>,
    in_pending: Vec<bool>,
    /// Largest radio budget (depth of the `D_c` column maxima).
    k_max: u32,
    counters: DynCounters,
    /// The filed certificate's own-channel terms, `k_max`-strided per
    /// user in row order (`cert[u·k_max + i]` pairs with `s.row(u)[i]`),
    /// read by the O(k) delivery test ([`Self::cert_holds`]).
    cert: Vec<OwnCert>,
    /// The threshold each user was last parked at (`+∞` before the
    /// first park). Survives the wake (the temptation-index slot is
    /// reset to `+∞` on wake) so a delivered user's certificate can be
    /// re-validated and re-filed without recomputing it.
    last_thr: Vec<f64>,
    /// Set when the user's own row was replaced (or the certificate
    /// stride changed) since its last park, and cleared on every park.
    /// While set, the filed certificate describes nothing, and only the
    /// full check the new row is owed can park the user.
    cert_stale: Vec<bool>,
    /// DP route: the column-log epoch each user's park certificate is
    /// anchored at (`log_base + col_log.len()` at filing time). Empty on
    /// the concave route.
    park_epoch: Vec<u64>,
    /// DP route: `threshold − clock` at filing time — the slack the
    /// coarse clock must climb before the coarse wake fires, and the
    /// budget the refined walk's top-k column rises are tested against.
    /// A non-positive gap simply fails the refinement into the full
    /// check. Empty on the concave route.
    park_gap: Vec<f64>,
    /// Whether generic-route deliveries run the per-channel column-delta
    /// refinement before paying a full engine query. On by default;
    /// [`set_refined`](Self::set_refined) exists so benchmarks can
    /// measure the coarse clock.
    refined: bool,
    scratch_old: Vec<SparseEntry>,
    scratch_touched: Vec<ChannelId>,
    scratch_old_loads: Vec<u32>,
    /// Certificate intervals of the park being filed.
    scratch_spans: Vec<(u32, u32)>,
    /// Index entries a load change crossed.
    scratch_crossed: Vec<(u32, u32)>,
    /// Refinement walk scratch: per distinct touched channel since the
    /// park, `(channel, first old_load, Σ logged deltas, any reprice)`.
    scratch_walk: Vec<(u32, u32, f64, bool)>,
    /// Refinement scratch: positive per-channel contributions, for the
    /// top-k selection.
    scratch_contrib: Vec<f64>,
}

/// One own-channel term of a filed park certificate: the certificate
/// holds while the channel's load stays in `[lo, hi]` and its payoff
/// generation stays `gen`; `slot` is the interval's slot in the
/// channel's occupant index while the user is parked
/// ([`NO_SLOT`] otherwise).
#[derive(Debug, Clone, Copy)]
struct OwnCert {
    lo: u32,
    hi: u32,
    gen: u32,
    slot: u32,
}

/// [`OwnCert::slot`] of a term not filed in the occupant index.
const NO_SLOT: u32 = u32::MAX;

impl Default for OwnCert {
    fn default() -> Self {
        OwnCert {
            lo: 0,
            hi: 0,
            gen: 0,
            slot: NO_SLOT,
        }
    }
}

/// One generic-route column event (see
/// [`ActiveSetDynamics::col_log`]): channel, its load *before* the
/// event, the clock advance `D_c = max_t (f_new(t) − f_old(t))⁺` it
/// contributed (possibly zero), and whether it was a reprice (payoffs
/// changed under an unchanged load — the refinement must not recompute
/// park-time columns with post-reprice rates, so repriced channels fall
/// back to the logged delta sum).
#[derive(Debug, Clone, Copy)]
struct ColEvent {
    chan: u32,
    old_load: u32,
    delta: f64,
    reprice: bool,
}

impl ActiveSetDynamics {
    /// Build the worklist engine over `s`: loads, [`BrEngine`] and the
    /// occupant index are constructed, and **every** user starts
    /// scheduled (the first round is a full epoch, exactly like the
    /// sweep's first round).
    pub fn new<G: ChannelGame + ?Sized>(game: &G, s: SparseStrategies) -> Self {
        let n = s.n_users();
        let loads = ChannelLoads::of_sparse(&s);
        let engine = BrEngine::new(game, &loads);
        let k_max = UserId::all(n).map(|u| game.radios_of(u)).max().unwrap_or(0);
        let n_channels = s.n_channels();
        let concave = engine.is_heap();
        let phi: Vec<f64> = if concave {
            (0..n_channels)
                .map(|c| game.channel_payoff(ChannelId(c), loads.load(ChannelId(c)), 1))
                .collect()
        } else {
            Vec::new()
        };
        let phi_max = phi.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let occ = ChannelId::all(n_channels)
            .map(|c| ChannelIndex::new(loads.load(c)))
            .collect();
        ActiveSetDynamics {
            s,
            loads,
            engine,
            concave,
            parked: vec![false; n],
            occ,
            price_gen: vec![0; n_channels],
            clock: 0.0,
            col_log: Vec::new(),
            log_base: 0,
            phi,
            phi_max,
            tempt: TemptIndex::new(n),
            quiet: false,
            cur: BinaryHeap::new(),
            in_cur: vec![false; n],
            pending: (0..n as u32).collect(),
            in_pending: vec![true; n],
            k_max,
            counters: DynCounters {
                activations: n as u64,
                ..DynCounters::default()
            },
            cert: vec![OwnCert::default(); n * k_max as usize],
            last_thr: vec![f64::INFINITY; n],
            cert_stale: vec![true; n],
            park_epoch: if concave { Vec::new() } else { vec![0; n] },
            park_gap: if concave { Vec::new() } else { vec![0.0; n] },
            refined: true,
            scratch_old: Vec::new(),
            scratch_touched: Vec::new(),
            scratch_old_loads: Vec::new(),
            scratch_spans: Vec::new(),
            scratch_crossed: Vec::new(),
            scratch_walk: Vec::new(),
            scratch_contrib: Vec::new(),
        }
    }

    /// The current strategy state.
    pub fn state(&self) -> &SparseStrategies {
        &self.s
    }

    /// Consume the engine, returning the strategy state.
    pub fn into_state(self) -> SparseStrategies {
        self.s
    }

    /// The maintained load cache.
    pub fn loads(&self) -> &ChannelLoads {
        &self.loads
    }

    /// Whether the underlying best-response engine is the lazy heap.
    pub fn is_heap(&self) -> bool {
        self.engine.is_heap()
    }

    /// Work counters accumulated so far.
    pub fn counters(&self) -> DynCounters {
        self.counters
    }

    /// Whether `user` is parked (provably unable to move until woken).
    pub fn is_settled(&self, user: UserId) -> bool {
        self.parked[user.0]
    }

    /// Record one check the caller proved unnecessary (the protocol's
    /// settled-skip accounting).
    pub(crate) fn note_skipped_check(&mut self) {
        self.counters.skipped_checks += 1;
    }

    /// Run round-robin rounds until a fixed point or `max_rounds`;
    /// returns `(converged, rounds)` with the sweep's exact round
    /// accounting (the converging round is the final, move-free one).
    pub fn run<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        max_rounds: usize,
        mut trace: Option<&mut Vec<(UserId, StrategyVector)>>,
    ) -> (bool, usize) {
        for round in 1..=max_rounds {
            if !self.round(game, None, trace.as_deref_mut()) {
                return (true, round);
            }
        }
        (false, max_rounds)
    }

    /// Process one epoch of the worklist in rank order and return whether
    /// any user moved. `perm` maps user → rank for this round (`None` =
    /// ascending user id, the round-robin schedule); the rank function
    /// must match what a sweep with the same schedule would use, or the
    /// trace guarantee is void.
    pub fn round<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        perm: Option<&[u32]>,
        mut trace: Option<&mut Vec<(UserId, StrategyVector)>>,
    ) -> bool {
        let n = self.s.n_users();
        debug_assert!(perm.is_none_or(|p| p.len() == n), "rank table shape");
        debug_assert!(self.cur.is_empty(), "previous round fully drained");
        // Under a custom rank permutation the lazy in-order temptation
        // scan does not apply (scan order is user id, not rank): drain
        // every currently-tempted user into this round's worklist up
        // front instead, and again after every move (below).
        if perm.is_some() {
            self.drain_tempted(None);
        }
        // Promote the pending epoch into the ranked worklist.
        for i in 0..self.pending.len() {
            let v = self.pending[i];
            if !self.in_pending[v as usize] {
                continue; // lazily unscheduled (e.g. parked by a probe)
            }
            self.in_pending[v as usize] = false;
            self.in_cur[v as usize] = true;
            let rank = perm.map_or(v, |p| p[v as usize]);
            self.cur.push(Reverse((rank, v)));
        }
        self.pending.clear();

        let mut moved = false;
        let mut checks = 0u64;
        // Identity-rank rounds interleave two ascending streams: the
        // scheduled worklist (`cur`) and a **lazy temptation scan** over
        // the park-threshold index. The scan asks, at the moment the
        // round reaches rank `r`, "who is the first still-parked user at
        // or after `r` that the horizon *now in force* tempts" — so a
        // transient horizon spike that subsides after the move that
        // caused it (a vacated channel the next taker refills) wakes
        // only the users checked while it was live, not every parked
        // user under it. Move traces are unchanged: a parked user can
        // move at its rank iff some changed channel's φ exceeds its
        // threshold *at that moment* (the park certificate is
        // history-free — see the module docs), which is exactly the scan
        // condition; the users the eager heap woke beyond that set were
        // guaranteed futile re-checks.
        let lazy = perm.is_none();
        let mut scan_from: usize = 0;
        let mut h = self.pop_horizon();
        loop {
            let tempted = if lazy && !self.quiet {
                self.tempt.first_below(scan_from, h)
            } else {
                None
            };
            let take_tempted = match (self.cur.peek(), tempted) {
                (Some(&Reverse((rank, _))), Some(t)) => (t as u32) < rank,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            let (rank_u, u) = if take_tempted {
                let t = tempted.unwrap();
                self.unpark(t);
                self.counters.temptation_wakeups += 1;
                self.counters.activations += 1;
                (t as u32, t as u32)
            } else {
                let Reverse((rank, u)) = self.cur.pop().expect("peeked entry");
                self.in_cur[u as usize] = false;
                (rank, u)
            };
            if lazy {
                // Sweep order never revisits a rank: advancing the scan
                // past *every* processed position (not just delivered
                // temptations — the merge already proved nothing is
                // tempted below this rank under the current horizon)
                // keeps a mover that re-parks under a spiked horizon
                // from being re-checked in its own round, exactly as a
                // wake at rank ≤ r would route to the next epoch.
                scan_from = rank_u as usize + 1;
            }
            // A scheduled user whose filed certificate survived the wake
            // that scheduled it (a transient excursion the next taker
            // undid before this rank came up) is re-filed for O(k)
            // instead of paying an engine query — the sweep's check here
            // would provably find nothing, so the trace is unchanged and
            // the delivery books as a skipped check. Tree deliveries
            // can't qualify (their threshold is at or under the horizon),
            // so only worklist pops are tested. On the concave route a
            // user whose filed certificate lapsed may still be provably
            // settled at the current loads: the exchange bound
            // ([`exchange_cert`]) decides that in O(k) and files a fresh
            // certificate when it holds.
            if !take_tempted && self.cert_holds(u as usize) {
                self.refile(u as usize);
                continue;
            }
            if self.concave && self.revalidate(game, u as usize) {
                continue;
            }
            // Generic-route refinement: before paying the full DP query,
            // walk the column log since the park and bound what the
            // delivered user could actually gain — healed excursions
            // contribute nothing, net-changed channels an exact
            // two-column recompute, repriced ones their logged delta
            // sums. If the user's best `k` contributions sum below its
            // park gap the certificate is provably intact and the user
            // re-parks under a rebased threshold; the sweep's check here
            // would find nothing, so the trace is unchanged. Applies to
            // pops and tempted deliveries alike (a tempted user's coarse
            // threshold is under the horizon, but the per-channel walk
            // frequently proves the cumulative clock overcounted).
            if !self.concave && self.refined && self.refined_intact_repark(game, u as usize) {
                continue;
            }
            let user = UserId(u as usize);
            checks += 1;
            let before = utility_sparse(game, &self.s, &self.loads, user);
            let (br, after) = self
                .engine
                .best_response(game, self.s.row(user), &self.loads, user);
            if improves(before, after) {
                self.apply_row_inner(game, user, &br, Some((rank_u, perm)));
                // The mover now sits exactly at its best response, so its
                // slack is the bare improvement epsilon at its new value.
                self.park_user(game, u, &br, improvement_eps(after, after));
                if let Some(t) = trace.as_deref_mut() {
                    t.push((user, row_to_vector(&br, self.s.n_channels())));
                }
                self.counters.moves += 1;
                moved = true;
                // The move shifted loads, so the scan horizon may have
                // moved (in either direction).
                h = self.pop_horizon();
                if !lazy {
                    // No rank-order scan to discover what the move
                    // tempts: drain it now, ranks still ahead into this
                    // epoch, the rest into the next.
                    self.drain_tempted(Some((rank_u, perm)));
                }
            } else {
                self.park_user(game, u, &br, park_slack(before, after));
            }
        }
        debug_assert!(checks <= n as u64, "one check per user per round");
        self.counters.checks += checks;
        self.counters.skipped_checks += n as u64 - checks;
        if !moved {
            // Every scheduled or tempted user just verified its
            // certificate against a state this round did not change:
            // until the next mutation, the scan has nothing to deliver.
            self.quiet = true;
        }
        moved
    }

    /// The horizon park thresholds are tested against: the largest
    /// current first-entry payoff `max_c φ_c` (concave route) or the
    /// temptation clock (generic route), plus the purely-relative pop
    /// margin (see [`drain_tempted`](Self::drain_tempted) for why the
    /// margin has no absolute floor). With no channels at all `φ_max`
    /// is `−∞` and the expression is NaN — which every threshold
    /// comparison rejects, correctly: nothing can tempt anyone.
    fn pop_horizon(&self) -> f64 {
        let h = if self.concave {
            self.phi_max
        } else {
            self.clock
        };
        h + 1e-12 * h.abs()
    }

    /// Best response of `user` against the *current* state without
    /// applying it: returns `Some(row)` when the user can improve, else
    /// parks the user and returns `None`. This is the protocol's probe —
    /// state (loads, engine) is untouched either way.
    pub fn probe<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        user: UserId,
    ) -> Option<Vec<SparseEntry>> {
        debug_assert!(!self.in_cur[user.0], "probe outside a running round");
        self.counters.checks += 1;
        let before = utility_sparse(game, &self.s, &self.loads, user);
        let (br, after) = self
            .engine
            .best_response(game, self.s.row(user), &self.loads, user);
        if improves(before, after) {
            Some(br)
        } else {
            // Unschedule (lazily) and park with the recorded slack.
            self.in_pending[user.0] = false;
            self.park_user(game, user.0 as u32, &br, park_slack(before, after));
            None
        }
    }

    /// Apply an external row change (a protocol retune, a perturbation)
    /// through the full wake machinery, and schedule the changed user
    /// itself for re-checking — unlike an internal move, the new row need
    /// not be a best response against the current loads.
    pub fn apply_row<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        user: UserId,
        new_row: &[SparseEntry],
    ) {
        self.apply_row_inner(game, user, new_row, None);
        self.wake(user.0 as u32, None);
        // External callers (the distributed protocol above all) observe
        // settledness through `is_settled`, i.e. the `parked` flags — so
        // an external change must wake every tempted user *eagerly*; the
        // lazy in-round scan only covers callers that drive `run`.
        self.drain_tempted(None);
    }

    /// Grow the population **in place**: for every user the game knows
    /// beyond the engine's current count, append an empty CSR row
    /// (amortized-doubling arena append, typed [`Error`] on slot-arena
    /// overflow), extend the per-user worklist books, and schedule the
    /// arrival — one dirty worklist entry per new user, the churn
    /// service's arrival path. No other repair is needed: an empty row
    /// changes no load, so existing certificates stay valid. On the
    /// generic route a budget above the cached DP column depth rebuilds
    /// the cache. Call between rounds (like
    /// [`apply_row`](Self::apply_row)); the game must already report the
    /// grown population.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the game reports fewer users than
    /// the engine holds (departures retire users, they never shrink the
    /// population); the engine is left unchanged.
    pub fn grow_users<G: ChannelGame + ?Sized>(&mut self, game: &G) -> Result<(), Error> {
        let old_n = self.s.n_users();
        let new_n = game.n_users();
        if new_n < old_n {
            return Err(Error::config(format!(
                "the game reports {new_n} users but the engine holds {old_n}: \
                 the population only grows in place"
            )));
        }
        for u in old_n..new_n {
            let k = game.radios_of(UserId(u));
            self.s.push_row(k)?;
            self.parked.push(false);
            self.in_cur.push(false);
            self.in_pending.push(false);
            self.tempt.push();
            self.last_thr.push(f64::INFINITY);
            self.cert_stale.push(true);
            if !self.concave {
                self.park_epoch.push(0);
                self.park_gap.push(0.0);
            }
            if k > self.k_max {
                // The filed certificates are `k_max`-strided: lay them
                // out again at the deeper stride. Rare (the first
                // arrival with a record budget).
                let (old_k, new_k) = (self.k_max as usize, k as usize);
                let mut cert = vec![OwnCert::default(); (u + 1) * new_k];
                for v in 0..u {
                    cert[v * new_k..v * new_k + old_k]
                        .copy_from_slice(&self.cert[v * old_k..(v + 1) * old_k]);
                }
                self.cert = cert;
                self.k_max = k;
                if !self.concave {
                    // The DP cache's column depth is `k_max + 1`; a
                    // deeper budget needs a rebuild.
                    self.engine = BrEngine::new(game, &self.loads);
                }
            }
            self.cert
                .resize((u + 1) * self.k_max as usize, OwnCert::default());
            self.wake(u as u32, None);
        }
        Ok(())
    }

    /// Retire `user` from the population: clear its row through the full
    /// wake machinery (occupants of its channels whose certificate the
    /// lighter load breaks are re-validated or woken eagerly; the
    /// vacated channels raise the temptation horizon, and
    /// the next [`run`](Self::run)'s lazy scan delivers whoever it still
    /// tempts when their rank comes up — at scale a departure transiently
    /// tempts half the population, so an eager wake here would herd),
    /// then park it under an **infinite** threshold so no future horizon
    /// ever re-checks it. The row's arena slots stay allocated (a tombstone —
    /// population indices are stable); the caller is expected to have
    /// zeroed the user's budget in the game, so a from-scratch solve of
    /// the same population parks it as a no-op as well. Call between
    /// rounds.
    pub fn retire_user<G: ChannelGame + ?Sized>(&mut self, game: &G, user: UserId) {
        debug_assert!(!self.in_cur[user.0], "retire outside a running round");
        self.apply_row_inner(game, user, &[], None);
        // The row change above scheduled the retiree itself: lazily
        // unschedule, then file the terminal park — an empty row files
        // no index entries, and `∞` never matches a horizon query.
        self.in_pending[user.0] = false;
        self.file_parked(user.0 as u32, f64::INFINITY, None);
    }

    /// Re-price channel `c` after the game's payoff for it changed *in
    /// place* (a churn rate-shift event): repair the engine (a new
    /// payoff epoch for the channel, so no entry keyed under the old
    /// payoff survives), void every certificate filed on the channel
    /// (its intervals were derived from the old payoff), wake the
    /// channel's parked occupants (their utilities changed, in either
    /// direction — each is re-validated in O(k) when its rank comes up),
    /// and raise the temptation horizon — the
    /// channel's new first-entry payoff enters `φ` (concave route) or
    /// the clock advances by `max_t (f_new(t) − f_old(t))⁺` (generic
    /// route), where `old_payoff(t)` must return the channel's payoff at
    /// the *current* load for `t` own radios under the pre-change rates.
    /// Tempted non-occupants are **not** scheduled here: the next
    /// [`run`](Self::run)'s lazy scan discovers them in rank order under
    /// the horizon in force when their rank comes up, so a price spike
    /// the first few takers absorb never wakes the long tail of parked
    /// users it transiently tempted. (This is the churn service's
    /// contract — drive re-convergence through `run`; callers that
    /// observe settledness directly must use
    /// [`apply_row`](Self::apply_row), which drains eagerly.)
    ///
    /// Soundness mirrors the load-change wake rule: a payoff drop cannot
    /// raise any non-occupant's best response (and parked certificates
    /// survive drops on their recorded best-response channels — the
    /// exchange argument in the module docs uses the park-time marginals
    /// regardless of later drops), while a rise is covered by the φ/clock
    /// horizon exactly like a vacated channel. Call between rounds.
    pub fn reprice_channel<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        c: ChannelId,
        old_payoff: &dyn Fn(u32) -> f64,
    ) {
        self.quiet = false;
        self.engine.reprice(game, &self.loads, c);
        self.price_gen[c.0] = self.price_gen[c.0].wrapping_add(1);
        // Wake every occupant filed here — the load did not move, but
        // every interval filed here was derived from the old payoff, and
        // only parked users have filed intervals. The bumped generation
        // voids the certificates of scheduled occupants.
        for v in self.occ[c.0].users() {
            self.counters.occupant_wakeups += 1;
            self.wake(v, None);
        }
        if self.concave {
            self.refresh_phi(game, &[c]);
        } else {
            let load = self.loads.load(c);
            let mut d = 0.0f64;
            for t in 1..=self.k_max {
                let diff = game.channel_payoff(c, load, t) - old_payoff(t);
                if diff > d {
                    d = diff;
                }
            }
            // Log even a zero-rise reprice: the refinement walk must see
            // that the channel's payoff function changed (an exact
            // recompute against post-reprice rates would not describe
            // the park-time column), so repriced channels contribute
            // their logged delta sums instead.
            self.col_log.push(ColEvent {
                chan: c.0 as u32,
                old_load: load,
                delta: d,
                reprice: true,
            });
            self.log_compact();
            if d > 0.0 {
                self.clock += d;
            }
        }
    }

    /// Replace `user`'s row, maintaining loads, occupant index and
    /// engine, then wake every user the change could have tempted.
    /// `route`: `Some((rank, perm))` while a round is in flight (wakes
    /// ranked above `rank` join the current epoch), `None` otherwise
    /// (all wakes go to the pending epoch).
    fn apply_row_inner<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        user: UserId,
        new_row: &[SparseEntry],
        route: Option<(u32, Option<&[u32]>)>,
    ) {
        let mut old = std::mem::take(&mut self.scratch_old);
        old.clear();
        old.extend_from_slice(self.s.row(user));
        let mut touched = std::mem::take(&mut self.scratch_touched);
        touched_channels_into(&old, new_row, &mut touched);
        let mut old_loads = std::mem::take(&mut self.scratch_old_loads);
        old_loads.clear();
        old_loads.extend(touched.iter().map(|&c| self.loads.load(c)));

        self.quiet = false;
        // The subject's row is about to change: its certificate (if any)
        // no longer describes its own channels, so no re-validation may
        // trust it, and its intervals leave the index while the row they
        // were filed for is still in place.
        self.cert_stale[user.0] = true;
        let was_parked = self.parked[user.0];
        if was_parked {
            self.withdraw(user.0);
        }
        self.loads.replace_sparse_row(&old, new_row);
        self.s.set_row(user, new_row);
        self.engine.repair(game, &self.loads, &touched);
        self.refresh_phi(game, &touched);
        self.wake_occupants(game, &touched, &old_loads, route);
        if was_parked {
            // A parked subject is an occupant like any other: it is
            // delivered when the change leaves one of its intervals.
            let base = user.0 * self.k_max as usize;
            let crossed = old.iter().enumerate().any(|(i, &(c, _))| {
                let (oc, l) = (self.cert[base + i], self.loads.load(ChannelId(c as usize)));
                l < oc.lo || l > oc.hi
            });
            if crossed {
                self.counters.occupant_wakeups += 1;
                self.wake(user.0 as u32, route);
            }
        }

        self.scratch_old = old;
        self.scratch_touched = touched;
        self.scratch_old_loads = old_loads;
    }

    /// Refresh the cached first-entry payoffs (and their max) for the
    /// touched channels — concave route only; call after the loads and
    /// the engine are current. When a touched channel held the old max
    /// and dropped, the max is recomputed over all channels: O(C), paid
    /// only on the (rare) moves that lower the global horizon.
    fn refresh_phi<G: ChannelGame + ?Sized>(&mut self, game: &G, touched: &[ChannelId]) {
        if !self.concave {
            return;
        }
        let mut dropped_max = false;
        for &c in touched {
            let new = game.channel_payoff(c, self.loads.load(c), 1);
            let old = self.phi[c.0];
            self.phi[c.0] = new;
            if new >= self.phi_max {
                self.phi_max = new;
            } else if old == self.phi_max {
                dropped_max = true;
            }
        }
        if dropped_max {
            self.phi_max = self.phi.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        }
    }

    /// Deliver every parked occupant of a touched channel whose
    /// certificate interval the new load leaves, and (generic route)
    /// advance the temptation clock. `old_loads[i]` is channel
    /// `touched[i]`'s load *before* the change — the loads themselves
    /// must already be current, and every changed channel must be listed:
    /// all are aligned with their new loads before anyone is woken.
    /// Non-occupant temptation is covered by the `φ`/clock horizon,
    /// tested lazily (the round scan, [`drain_tempted`]): a changed
    /// channel can tempt a non-occupant only up to its *current*
    /// first-entry payoff (concave route — `refresh_phi` has already
    /// folded it into the horizon), or up to the clock's cumulative
    /// column improvement (generic route, advanced here channel by
    /// channel).
    ///
    /// An occupant whose interval still contains the new load is never
    /// visited: its certificate holds verbatim. One the load pushed out
    /// is scheduled, and re-validated in O(k) when its rank comes up
    /// ([`Self::cert_holds`], then [`Self::revalidate`] on the concave
    /// route): a user crossed again before then costs nothing more. The
    /// generic route files exact-load certificates (the degenerate
    /// interval `[P, P]`), so its wake set is that of an exact park-load
    /// comparison, bit for bit.
    fn wake_occupants<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        touched: &[ChannelId],
        old_loads: &[u32],
        route: Option<(u32, Option<&[u32]>)>,
    ) {
        let mut crossed = std::mem::take(&mut self.scratch_crossed);
        crossed.clear();
        for &c in touched {
            self.occ[c.0].move_to(self.loads.load(c), &mut crossed);
        }
        // Every filed interval is a parked user's current one, so each
        // popped user is a crossing — once, however many of its
        // channels the change crossed.
        crossed.sort_unstable();
        crossed.dedup_by_key(|&mut (v, _)| v);
        for &(v, _) in &crossed {
            debug_assert!(
                self.parked[v as usize],
                "filed interval of a scheduled user"
            );
            self.counters.occupant_wakeups += 1;
            self.wake(v, route);
        }
        self.scratch_crossed = crossed;
        if !self.concave {
            for (i, &c) in touched.iter().enumerate() {
                let new_l = self.loads.load(c);
                if new_l != old_loads[i] {
                    self.advance_clock(game, c, old_loads[i], new_l);
                }
            }
        }
    }

    /// Advance channel `c`'s temptation clock by
    /// `D_c = max_{1 ≤ t ≤ k_max} (f(c, new, t) − f(c, old, t))⁺` (the
    /// generic-route union bound), logging the event — including
    /// zero-rise ones (load increases), which carry the heal-detection
    /// information the delivery refinement needs.
    fn advance_clock<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        c: ChannelId,
        old_load: u32,
        new_load: u32,
    ) {
        let mut d = 0.0f64;
        for t in 1..=self.k_max {
            let diff = game.channel_payoff(c, new_load, t) - game.channel_payoff(c, old_load, t);
            if diff > d {
                d = diff;
            }
        }
        self.col_log.push(ColEvent {
            chan: c.0 as u32,
            old_load,
            delta: d,
            reprice: false,
        });
        self.log_compact();
        if d > 0.0 {
            self.clock += d;
        }
    }

    /// Halve the column log once it exceeds the retention cap, advancing
    /// `log_base` so epochs stay monotone. Parks anchored before the
    /// retained window fall back to the coarse clock at delivery.
    fn log_compact(&mut self) {
        const LOG_CAP: usize = 1 << 16;
        if self.col_log.len() > LOG_CAP {
            let half = self.col_log.len() / 2;
            self.col_log.drain(..half);
            self.log_base += half as u64;
        }
    }

    /// The current column-log epoch (`log_base + len`).
    fn log_epoch(&self) -> u64 {
        self.log_base + self.col_log.len() as u64
    }

    /// Eagerly wake every parked user the **current** horizon tempts.
    /// Used where the lazy in-round scan cannot run: external
    /// perturbations ([`apply_row`](Self::apply_row) — the protocol
    /// reads settledness off the `parked` flags, so deferring the wake
    /// would hide a live temptation), custom-permutation rounds (scan
    /// order is rank, the index is keyed by id). The pop margin baked into
    /// [`pop_horizon`](Self::pop_horizon) is *purely* relative — no
    /// absolute floor — so at any payoff scale it sits ~1000× under the
    /// `ε_u/k` park margin (the mover slack is `UTILITY_TOLERANCE·|u|`,
    /// the pop margin `1e-12·|φ|` with `|u| ≥ m* ≈ φ` on the concave
    /// route): rounding can only add harmless wakes, and
    /// exact-equilibrium indifference (φ == m* bit-for-bit) never pops.
    /// A `1 + |h|` floor would wake every near-indifferent parked user
    /// per drain once utilities drop below ~1e-3 — at 10⁷ users that
    /// turns O(occupants) equilibrium maintenance back into O(|N|).
    fn drain_tempted(&mut self, route: Option<(u32, Option<&[u32]>)>) {
        if self.quiet {
            return; // every threshold under the horizon is verified futile
        }
        let h = self.pop_horizon();
        while let Some(u) = self.tempt.first_below(0, h) {
            self.tempt.set(u, f64::INFINITY);
            if self.parked[u] {
                self.counters.temptation_wakeups += 1;
                self.wake(u as u32, route);
            }
        }
    }

    /// Take a parked user out of both indexes: withdraw its certificate
    /// intervals and clear its temptation slot — a finite slot must imply
    /// a parked user, or the lazy scan would re-deliver someone already
    /// scheduled (and double-check it within one round).
    fn unpark(&mut self, u: usize) {
        self.parked[u] = false;
        self.tempt.set(u, f64::INFINITY);
        self.withdraw(u);
    }

    /// Withdraw `u`'s filed intervals from the occupant index. `u`'s row
    /// must be the one they were filed for.
    fn withdraw(&mut self, u: usize) {
        let base = u * self.k_max as usize;
        for (i, &(c, _)) in self.s.row(UserId(u)).iter().enumerate() {
            let slot = std::mem::replace(&mut self.cert[base + i].slot, NO_SLOT);
            if slot != NO_SLOT {
                self.occ[c as usize].withdraw(slot);
            }
        }
    }

    /// Transition `v` to scheduled (idempotent), routing into the current
    /// epoch when its rank is still ahead of the in-flight position.
    fn wake(&mut self, v: u32, route: Option<(u32, Option<&[u32]>)>) {
        let vi = v as usize;
        if self.parked[vi] {
            self.unpark(vi);
        }
        if self.in_cur[vi] || self.in_pending[vi] {
            return;
        }
        self.counters.activations += 1;
        if let Some((rank_u, perm)) = route {
            let rank_v = perm.map_or(v, |p| p[vi]);
            if rank_v > rank_u {
                self.in_cur[vi] = true;
                self.cur.push(Reverse((rank_v, v)));
                return;
            }
        }
        self.in_pending[vi] = true;
        self.pending.push(v);
        // Compact when lazily-unscheduled entries pile up (the protocol
        // wakes into `pending` but drains it through probes, never
        // through `round`, so without this the vector would only grow).
        if self.pending.len() > 2 * self.parked.len() + 64 {
            let mut live = Vec::with_capacity(self.parked.len());
            for i in 0..self.pending.len() {
                let w = self.pending[i];
                if self.in_pending[w as usize] {
                    // Clearing the marker drops later duplicates of the
                    // same user in one pass; restore it below.
                    self.in_pending[w as usize] = false;
                    live.push(w);
                }
            }
            for &w in &live {
                self.in_pending[w as usize] = true;
            }
            self.pending = live;
        }
    }

    /// Park `u` after a check. `br` is the best-response row the check
    /// just computed (equal to the live row for a freshly-applied mover)
    /// and `slack` its recorded slack. On the concave route the user
    /// files the exchange-bound certificate of its live row
    /// ([`exchange_cert`]) when that holds under the current horizon, and
    /// otherwise the exact-load one: the weakest marginal `m*` of `br`
    /// anchors the threshold `m* + slack/k`, valid only at the park-time
    /// loads. On the generic route the threshold is `clock + slack`, also
    /// at the exact park-time loads.
    fn park_user<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        u: u32,
        br: &[SparseEntry],
        slack: f64,
    ) {
        if !self.concave {
            self.file_parked(u, self.clock + slack, None);
        } else if !self.exchange_park(game, u as usize) {
            let user = UserId(u as usize);
            let row = self.s.row(user);
            let thr = concave_park_threshold(game, user, row, br, &self.loads, slack);
            self.file_parked(u, thr, None);
        }
    }

    /// Concave route: certify `u`'s live row at the current loads by the
    /// exchange bound ([`exchange_cert`], against the current horizon)
    /// and, when it holds, file that certificate. O(k) payoff calls plus
    /// the filing.
    fn exchange_park<G: ChannelGame + ?Sized>(&mut self, game: &G, u: usize) -> bool {
        let user = UserId(u);
        let horizon = self.pop_horizon();
        let mut spans = std::mem::take(&mut self.scratch_spans);
        spans.clear();
        let row = self.s.row(user);
        let thr = exchange_cert(game, user, row, &self.loads, horizon, &mut spans);
        if let Some(thr) = thr {
            self.file_parked(u as u32, thr, Some(&spans));
        }
        self.scratch_spans = spans;
        thr.is_some()
    }

    /// File `u` in the park machinery under a fully-computed
    /// `threshold`, replacing any certificate it has filed: the
    /// certificate's own-channel terms, its intervals in the occupant
    /// index, its threshold in the temptation index. `spans[i]` is the
    /// load interval of row entry `i`; `None` files the exact current
    /// load.
    fn file_parked(&mut self, u: u32, threshold: f64, spans: Option<&[(u32, u32)]>) {
        let ui = u as usize;
        debug_assert!(
            !self.in_cur[ui] && !self.in_pending[ui],
            "park a scheduled user"
        );
        self.withdraw(ui);
        let base = ui * self.k_max as usize;
        let row = self.s.row(UserId(ui));
        debug_assert!(spans.is_none_or(|sp| sp.len() == row.len()));
        for (i, &(c, _)) in row.iter().enumerate() {
            let load = self.loads.load(ChannelId(c as usize));
            let (lo, hi) = spans.map_or((load, load), |sp| sp[i]);
            self.cert[base + i] = OwnCert {
                lo,
                hi,
                gen: self.price_gen[c as usize],
                slot: NO_SLOT,
            };
        }
        self.last_thr[ui] = threshold;
        self.cert_stale[ui] = false;
        if !self.concave {
            // Anchor the refinement certificate: the walk at delivery
            // covers exactly the events filed after this epoch, and the
            // gap is the clock headroom the threshold encodes *at filing
            // time* — the single anchoring point every park path goes
            // through.
            self.park_epoch[ui] = self.log_epoch();
            self.park_gap[ui] = threshold - self.clock;
        }
        self.index_parked(ui);
    }

    /// Mark `u` parked and file its certificate — its intervals in the
    /// occupant index (O(k)), its threshold in the temptation index.
    /// `u`'s intervals must not be filed already.
    fn index_parked(&mut self, u: usize) {
        self.parked[u] = true;
        let base = u * self.k_max as usize;
        for (i, &(c, _)) in self.s.row(UserId(u)).iter().enumerate() {
            let oc = &mut self.cert[base + i];
            debug_assert_eq!(oc.slot, NO_SLOT, "interval filed twice");
            oc.slot = self.occ[c as usize].file(u as u32, (oc.lo, oc.hi));
        }
        self.tempt.set(u, self.last_thr[u]);
    }

    /// Whether `u`'s filed certificate still describes it: its row is the
    /// one it was filed for, every own channel keeps its payoff
    /// generation, and every own load sits inside its interval. O(k).
    fn cert_covers(&self, u: usize) -> bool {
        if self.cert_stale[u] {
            return false;
        }
        let base = u * self.k_max as usize;
        self.s
            .row(UserId(u))
            .iter()
            .enumerate()
            .all(|(i, &(c, _))| {
                let oc = self.cert[base + i];
                let l = self.loads.load(ChannelId(c as usize));
                oc.gen == self.price_gen[c as usize] && oc.lo <= l && l <= oc.hi
            })
    }

    /// O(k) delivery test: does the certificate `u` was last filed under
    /// still hold at the **current** state — it covers the live row and
    /// loads ([`Self::cert_covers`]) and its threshold clears the horizon
    /// (`φ_max`/clock with the pop margin, the test the lazy scan
    /// applies)? Then a full check would provably find nothing and the
    /// user is re-filed in place ([`Self::refile`]).
    ///
    /// This is what makes a transient wake cheap: an excursion that the
    /// next taker in rank order undid before the woken rank came up
    /// leaves every own load back inside its interval.
    fn cert_holds(&self, u: usize) -> bool {
        self.last_thr[u] > self.pop_horizon() && self.cert_covers(u)
    }

    /// Re-park a delivered user whose filed certificate still holds: the
    /// same threshold and intervals, filed afresh (scheduling withdrew
    /// them).
    fn refile(&mut self, u: usize) {
        debug_assert!(
            !self.in_cur[u] && !self.in_pending[u],
            "re-park a scheduled user"
        );
        self.counters.revalidated += 1;
        self.index_parked(u);
    }

    /// Concave route, at delivery: certify `u` afresh at the current loads
    /// and file the new certificate when it holds
    /// ([`Self::exchange_park`]), booked as a re-validation; `false`
    /// leaves `u` as it was. A user
    /// whose row was replaced since its last park (an arrival, an
    /// external [`apply_row`](Self::apply_row)) is owed the full check
    /// its new row was scheduled for, and is never re-validated.
    fn revalidate<G: ChannelGame + ?Sized>(&mut self, game: &G, u: usize) -> bool {
        if self.cert_stale[u] || !self.exchange_park(game, u) {
            return false;
        }
        self.counters.revalidated += 1;
        true
    }

    /// Generic-route per-channel refinement of the cumulative wake
    /// clock. The coarse clock charges a parked user *every* column
    /// rise anywhere in the system; a deviation can touch at most
    /// `k_u` foreign channels, and excursions that healed contribute
    /// nothing. Replaying the column log since the user's park epoch
    /// yields the tighter per-channel bound:
    ///
    /// * **healed** (current load == park-time load, no reprice): `0` —
    ///   every column the deviation could price is back to its
    ///   park-time value;
    /// * **net-changed**: the exact two-column rise
    ///   `max_t (f(c, l_now, t) − f(c, l_park, t))⁺`, which the coarse
    ///   clock over-approximated by a sum over intermediate steps;
    /// * **repriced**: the logged delta sum — the rate function itself
    ///   changed, so park-time columns are unrecoverable and only the
    ///   coarse per-step charge is sound.
    ///
    /// Own channels are excluded: the filed certificate still covers
    /// the user ([`Self::cert_covers`] — same row, no own-channel
    /// reprice, every own load at its park value, the generic route's
    /// interval being the exact park load), so the others-load on own
    /// channels — hence the own columns and the user's utility — are
    /// unchanged. If the
    /// top-`k_u` foreign contributions sum strictly below the user's
    /// remaining park gap, no deviation can close its shortfall: the
    /// check is provably futile and the user re-parks in place under
    /// the rebased gap. Rebasing is sound because per-channel rises are
    /// subadditive across consecutive windows
    /// (`D_c(park→τ₂) ≤ D_c(park→τ₁) + D_c(τ₁→τ₂)` termwise for any
    /// fixed `t`). Any doubt — stale certificate, log compacted past
    /// the epoch, over-long walk, own-load drift, a non-positive gap, or
    /// a rebased threshold at or under the pop horizon — declines into
    /// the full engine check.
    ///
    /// Trace-safe: only checks the sweep oracle would find improving
    /// nothing on are skipped, so move sequences stay bit-identical.
    fn refined_intact_repark<G: ChannelGame + ?Sized>(&mut self, game: &G, u: usize) -> bool {
        const WALK_CAP: usize = 128;
        debug_assert!(!self.concave);
        if !self.cert_covers(u) {
            return false;
        }
        let epoch = self.park_epoch[u];
        if epoch < self.log_base {
            return false; // compaction dropped part of the window
        }
        let start = (epoch - self.log_base) as usize;
        if self.col_log.len() - start > WALK_CAP {
            return false; // long window: the walk would cost more than the check
        }
        let gap = self.park_gap[u];
        // Group the window per channel: (chan, park-time load, delta
        // sum, repriced). Every load change is logged — including
        // zero-rise ones — so the first event's `old_load` is exactly
        // the channel's load when the user parked (or re-parked here).
        let mut walk = std::mem::take(&mut self.scratch_walk);
        walk.clear();
        for ev in &self.col_log[start..] {
            match walk.iter_mut().find(|e| e.0 == ev.chan) {
                Some(e) => {
                    e.2 += ev.delta;
                    e.3 |= ev.reprice;
                }
                None => walk.push((ev.chan, ev.old_load, ev.delta, ev.reprice)),
            }
        }
        let mut contrib = std::mem::take(&mut self.scratch_contrib);
        contrib.clear();
        let row = self.s.row(UserId(u));
        for &(chan, park_load, delta_sum, repriced) in &walk {
            if row.iter().any(|&(c, _)| c == chan) {
                continue; // own channel: columns unchanged, see above
            }
            let gain = if repriced {
                delta_sum
            } else {
                let now = self.loads.load(ChannelId(chan as usize));
                if now == park_load {
                    0.0 // healed: the excursion cancels exactly
                } else {
                    let cid = ChannelId(chan as usize);
                    let mut best = 0.0f64;
                    for t in 1..=self.k_max {
                        let d = game.channel_payoff(cid, now, t)
                            - game.channel_payoff(cid, park_load, t);
                        if d > best {
                            best = d;
                        }
                    }
                    best
                }
            };
            if gain > 0.0 {
                contrib.push(gain);
            }
        }
        // A deviation occupies at most k_u distinct foreign channels.
        contrib.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
        let k_u = game.radios_of(UserId(u)) as usize;
        let topk: f64 = contrib.iter().take(k_u).sum();
        self.scratch_walk = walk;
        self.scratch_contrib = contrib;
        let provably_below = matches!(
            (topk * (1.0 + 1e-12)).partial_cmp(&gap),
            Some(std::cmp::Ordering::Less)
        );
        if !provably_below {
            return false; // also catches NaN and non-positive gaps
        }
        let new_gap = gap - topk;
        let new_thr = self.clock + new_gap;
        if new_thr <= self.pop_horizon() {
            return false; // would pop right back: run the real check
        }
        // Re-park in place: the same intervals (verified above), a
        // rebased threshold, gap and epoch.
        self.counters.refined_reparks += 1;
        self.last_thr[u] = new_thr;
        self.park_gap[u] = new_gap;
        self.park_epoch[u] = self.log_epoch();
        self.refile(u);
        true
    }

    /// Toggle the generic-route wake-clock refinement (on by default).
    /// Off, every delivery pays the full engine check — used by the
    /// differential suites and the measured-pipeline speedup arm to
    /// compare against the coarse cumulative clock, move-for-move.
    pub fn set_refined(&mut self, refined: bool) {
        self.refined = refined;
    }
}

/// Round-robin best-response dynamics on the sparse representation —
/// since PR 5 the **active-set route** ([`ActiveSetDynamics`]): loads and
/// engine are repaired incrementally after every move and only users a
/// move could have tempted are re-checked. Semantics (activation order,
/// improvement tolerance, round accounting) mirror
/// [`br_dp::best_response_dynamics`] exactly; the convergence-trace
/// golden suite pins the move sequences identical, and the
/// `fast_path_equiv` suite pins this route against the reference
/// [`sweep_dynamics_traced`].
pub fn best_response_dynamics_sparse<G: ChannelGame + ?Sized>(
    game: &G,
    s: SparseStrategies,
    max_rounds: usize,
) -> (SparseStrategies, bool, usize) {
    let (s, converged, rounds, _) = dynamics_inner(game, s, max_rounds, None);
    (s, converged, rounds)
}

/// The concave-route park threshold: the weakest marginal `m*` of the
/// best response `br` (each entry's gain over its next-lower tuning,
/// computed against `loads` with the user's own radios on `row`
/// excluded) plus the per-radio slack margin `slack / k` — the
/// exact-load certificate [`ActiveSetDynamics`] files at park time when
/// the exchange bound does not hold.
fn concave_park_threshold<G: ChannelGame + ?Sized>(
    game: &G,
    user: UserId,
    row: &[SparseEntry],
    br: &[SparseEntry],
    loads: &ChannelLoads,
    slack: f64,
) -> f64 {
    let mut m_star = f64::INFINITY;
    for &(c, t) in br {
        let cid = ChannelId(c as usize);
        let own = match row.binary_search_by_key(&c, |&(cc, _)| cc) {
            Ok(i) => row[i].1,
            Err(_) => 0,
        };
        let others = loads.load(cid) - own;
        let below = if t == 1 {
            0.0
        } else {
            game.channel_payoff(cid, others, t - 1)
        };
        let m = game.channel_payoff(cid, others, t) - below;
        if m < m_star {
            m_star = m;
        }
    }
    if !m_star.is_finite() {
        m_star = 0.0; // empty best response: any entry tempts
    }
    let k = game.radios_of(user).max(1) as f64;
    m_star + slack / k
}

/// [`best_response_dynamics_sparse`] with the run's [`DynCounters`]
/// returned — what `t9_scale` and `t4_convergence` surface per row.
pub fn best_response_dynamics_sparse_counted<G: ChannelGame + ?Sized>(
    game: &G,
    s: SparseStrategies,
    max_rounds: usize,
) -> (SparseStrategies, bool, usize, DynCounters) {
    dynamics_inner(game, s, max_rounds, None)
}

/// [`best_response_dynamics_sparse`] with the applied moves recorded as
/// `(user, new dense row)` — the sparse half of the golden-trace pin.
pub fn best_response_dynamics_sparse_traced<G: ChannelGame + ?Sized>(
    game: &G,
    s: SparseStrategies,
    max_rounds: usize,
) -> (SparseStrategies, bool, usize, Vec<(UserId, StrategyVector)>) {
    let mut trace = Vec::new();
    let (s, converged, rounds, _) = dynamics_inner(game, s, max_rounds, Some(&mut trace));
    (s, converged, rounds, trace)
}

/// Shared dynamics entry; returns `(state, converged, rounds, counters)`.
fn dynamics_inner<G: ChannelGame + ?Sized>(
    game: &G,
    s: SparseStrategies,
    max_rounds: usize,
    trace: Option<&mut Vec<(UserId, StrategyVector)>>,
) -> (SparseStrategies, bool, usize, DynCounters) {
    let mut d = ActiveSetDynamics::new(game, s);
    let (converged, rounds) = d.run(game, max_rounds, trace);
    let counters = d.counters();
    (d.into_state(), converged, rounds, counters)
}

/// The reference full-sweep dynamics loop the active set replaced: every
/// round visits all `|N|` users in ascending id order, `O(R·|N|)` engine
/// queries regardless of how many users can actually move. Kept as the
/// differential oracle ([`ActiveSetDynamics`] must reproduce its trace
/// bit for bit — pinned by `fast_path_equiv`) and as the baseline arm of
/// the `dynamics_active_vs_sweep` bench. The per-move row snapshot goes
/// through a reused scratch buffer — no allocation inside the loop.
pub fn sweep_dynamics_traced<G: ChannelGame + ?Sized>(
    game: &G,
    mut s: SparseStrategies,
    max_rounds: usize,
) -> (SparseStrategies, bool, usize, Vec<(UserId, StrategyVector)>) {
    let n = game.n_users();
    let mut loads = ChannelLoads::of_sparse(&s);
    let mut engine = BrEngine::new(game, &loads);
    let mut trace = Vec::new();
    let mut old: Vec<SparseEntry> = Vec::new();
    let mut touched: Vec<ChannelId> = Vec::new();
    for round in 1..=max_rounds {
        let mut moved = false;
        for u in UserId::all(n) {
            let before = utility_sparse(game, &s, &loads, u);
            let (br, after) = engine.best_response(game, s.row(u), &loads, u);
            if improves(before, after) {
                old.clear();
                old.extend_from_slice(s.row(u));
                loads.replace_sparse_row(&old, &br);
                touched_channels_into(&old, &br, &mut touched);
                s.set_row(u, &br);
                engine.repair(game, &loads, &touched);
                trace.push((u, row_to_vector(&br, game.n_channels())));
                moved = true;
            }
        }
        if !moved {
            return (s, true, round, trace);
        }
    }
    (s, false, max_rounds, trace)
}

/// Exact Nash check on the sparse representation (Definition 1): one
/// `O(k)` utility read plus one engine best response per user. Returns
/// the same [`NashCheck`] shape as the dense checkers.
pub fn nash_check_sparse<G: ChannelGame + ?Sized>(game: &G, s: &SparseStrategies) -> NashCheck {
    let loads = ChannelLoads::of_sparse(s);
    nash_check_sparse_cached(game, s, &loads)
}

/// [`nash_check_sparse`] against a cached load vector.
pub fn nash_check_sparse_cached<G: ChannelGame + ?Sized>(
    game: &G,
    s: &SparseStrategies,
    loads: &ChannelLoads,
) -> NashCheck {
    let mut engine = BrEngine::new(game, loads);
    let n = game.n_users();
    let mut gains = Vec::with_capacity(n);
    let mut witness = None;
    for user in UserId::all(n) {
        let current = utility_sparse(game, s, loads, user);
        let (br, best_u) = engine.best_response(game, s.row(user), loads, user);
        let gain = (best_u - current).max(0.0);
        if improves(current, best_u) && witness.is_none() {
            witness = Some((user, row_to_vector(&br, game.n_channels())));
        }
        gains.push(gain);
    }
    NashCheck { gains, witness }
}

/// True when the sparse profile is a Nash equilibrium of `game`.
pub fn is_nash_sparse<G: ChannelGame + ?Sized>(game: &G, s: &SparseStrategies) -> bool {
    nash_check_sparse(game, s).is_nash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;
    use crate::heterogeneous::{HeteroConfig, HeteroGame};
    use crate::strategy::StrategyMatrix;

    fn unit_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    /// The documented tie-breaking rule, pinned on an exact tie.
    ///
    /// Others' loads `(1, 5)` with constant unit rate and budget 2 make
    /// `(2,0)` and `(1,1)` *exactly* tie in value space: `f₀(2) = 2/3`
    /// and `f₀(1) + f₁(1) = 1/2 + 1/6` round to the same double. The DP
    /// must pack toward the lowest channel index and return `(2,0)`. (In
    /// marginal space the same tie is broken by rounding — `2/3 − 1/2 <
    /// 1/6` as doubles — so the heap's greedy legitimately lands on the
    /// equal-value `(1,1)`: argmax agreement is "up to ties", value
    /// agreement is exact.)
    #[test]
    fn dp_traceback_packs_exact_ties_toward_low_channels() {
        // Budgets: the responder u0 (2 radios) plus enough users to build
        // others' loads (1, 5) on two channels.
        let g = HeteroGame::with_unit_rate(HeteroConfig::new(vec![2, 1, 2, 2, 1], 2).unwrap());
        let s = StrategyMatrix::from_rows(&[
            vec![0, 0], // the responder
            vec![1, 0],
            vec![0, 2],
            vec![0, 2],
            vec![0, 1],
        ])
        .unwrap();
        let loads = ChannelLoads::of(&s);
        // The tie is exact in value space.
        let v_stack = g.channel_payoff(ChannelId(0), 1, 2);
        let v_split = g.channel_payoff(ChannelId(0), 1, 1) + g.channel_payoff(ChannelId(1), 5, 1);
        assert_eq!(v_stack.to_bits(), v_split.to_bits(), "tie must be exact");
        let (br, _) = br_dp::best_response_cached(&g, &s, &loads, UserId(0));
        assert_eq!(br.counts(), &[2, 0], "DP must pack ties toward channel 0");
        // The heap sees the tie in marginal space, where rounding breaks
        // it toward the split — same value, legal alternative argmax.
        let sp = SparseStrategies::from_matrix(&g, &s);
        let mut engine = BrEngine::new(&g, &loads);
        assert!(engine.is_heap());
        let (hrow, hval) = engine.best_response(&g, sp.row(UserId(0)), &loads, UserId(0));
        assert_eq!(hval.to_bits(), v_stack.to_bits());
        assert!(hrow == vec![(0, 2)] || hrow == vec![(0, 1), (1, 1)]);
    }

    /// Bitwise-equal marginals (symmetric empty channels) must resolve to
    /// the lowest channel index on both paths.
    #[test]
    fn symmetric_ties_go_to_the_lowest_channel_on_both_paths() {
        let g = unit_game(2, 2, 4);
        let s = StrategyMatrix::zeros(2, 4);
        let loads = ChannelLoads::of(&s);
        let (br, _) = br_dp::best_response_cached(&g, &s, &loads, UserId(0));
        assert_eq!(br.counts(), &[1, 1, 0, 0]);
        let sp = SparseStrategies::from_matrix(&g, &s);
        let mut engine = BrEngine::new(&g, &loads);
        let (hrow, _) = engine.best_response(&g, sp.row(UserId(0)), &loads, UserId(0));
        assert_eq!(hrow, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn engine_routing_follows_the_declaration() {
        use crate::rate_model::LinearDecayRate;
        use std::sync::Arc;
        let concave = unit_game(3, 2, 3);
        let loads = ChannelLoads::zeros(3);
        assert!(BrEngine::new(&concave, &loads).is_heap());
        let decaying = ChannelAllocationGame::new(
            GameConfig::new(3, 2, 3).unwrap(),
            Arc::new(LinearDecayRate::new(5.0, 1.0, 0.5)),
        );
        assert!(!BrEngine::new(&decaying, &loads).is_heap());
        let energy = crate::utility_models::EnergyCostGame::new(concave.clone(), 0.01);
        assert!(!BrEngine::new(&energy, &loads).is_heap());
    }

    #[test]
    fn sparse_dynamics_equivalent_to_dense_dynamics_on_the_heap_path() {
        // The heap and the DP may legitimately pick different argmaxes at
        // *exact mathematical ties* (rational identities like
        // 1/2 + 1/6 = 2/3 round differently in marginal space and value
        // space), so traces are pinned per engine by the golden suite
        // rather than across engines here. What must always hold: both
        // engines converge, both ends are exact equilibria of the same
        // game, both are load-balanced, and welfare agrees to rounding.
        let g = unit_game(6, 3, 4);
        for seed in 0..6 {
            let start = crate::dynamics::random_start(&g, seed);
            let (dense, dconv, _, _) = br_dp::best_response_dynamics_traced(&g, start.clone(), 200);
            let sp = SparseStrategies::from_matrix(&g, &start);
            let (sparse, sconv, _, _) = best_response_dynamics_sparse_traced(&g, sp, 200);
            assert!(dconv && sconv, "seed {seed}");
            assert!(g.nash_check(&dense).is_nash(), "seed {seed}");
            assert!(is_nash_sparse(&g, &sparse), "seed {seed}");
            let dloads = ChannelLoads::of(&dense);
            let sloads = ChannelLoads::of_sparse(&sparse);
            assert!(sloads.max_delta() <= 1, "seed {seed}");
            let dw = welfare_from_loads(&g, &dloads);
            let sw = welfare_from_loads(&g, &sloads);
            assert!((dw - sw).abs() <= 1e-9 * dw.abs().max(1.0), "seed {seed}");
        }
    }

    #[test]
    fn heap_engine_survives_long_repair_sequences() {
        // Drive enough moves that the lazy heap's GC rebuild triggers and
        // stale entries pile up, then verify it still answers exactly.
        let g = unit_game(12, 3, 5);
        let start = crate::dynamics::random_start(&g, 9);
        let sp = SparseStrategies::from_matrix(&g, &start);
        let (end, converged, _, _) = dynamics_inner(&g, sp, 300, None);
        assert!(converged);
        let loads = ChannelLoads::of_sparse(&end);
        let mut engine = BrEngine::new(&g, &loads);
        let dense = end.to_dense();
        for u in UserId::all(12) {
            let (_, hv) = engine.best_response(&g, end.row(u), &loads, u);
            let (_, dv) = br_dp::best_response_cached(&g, &dense, &loads, u);
            assert_eq!(hv.to_bits(), dv.to_bits(), "user {u}");
        }
    }

    #[test]
    fn active_set_reproduces_sweep_trace_on_both_routes() {
        use crate::rate_model::LinearDecayRate;
        use std::sync::Arc;
        let games: Vec<ChannelAllocationGame> = vec![
            unit_game(8, 3, 5),
            ChannelAllocationGame::new(
                GameConfig::new(8, 3, 5).unwrap(),
                Arc::new(LinearDecayRate::new(10.0, 0.7, 0.5)),
            ),
        ];
        for g in &games {
            for seed in 0..4 {
                let start = crate::dynamics::random_start(g, seed);
                let sp = SparseStrategies::from_matrix(g, &start);
                let (swept, sc, sr, st) = sweep_dynamics_traced(g, sp.clone(), 200);
                let (active, ac, ar, at) = best_response_dynamics_sparse_traced(g, sp, 200);
                assert_eq!(ac, sc, "seed {seed}");
                assert_eq!(ar, sr, "seed {seed}");
                assert_eq!(at, st, "seed {seed}");
                assert_eq!(active, swept, "seed {seed}");
            }
        }
    }

    #[test]
    fn active_set_skips_provable_noops_and_balances_the_books() {
        let g = unit_game(30, 2, 4);
        let start = crate::dynamics::random_start(&g, 11);
        let sp = SparseStrategies::from_matrix(&g, &start);
        let (_, converged, rounds, c) = best_response_dynamics_sparse_counted(&g, sp, 200);
        assert!(converged);
        let sweep_checks = rounds as u64 * 30;
        assert_eq!(c.checks + c.skipped_checks, sweep_checks, "accounting");
        assert!(c.checks <= sweep_checks);
        assert!(
            rounds < 3 || c.skipped_checks > 0,
            "a multi-round run must skip something: {c:?}"
        );
        assert!(c.activations >= 30, "the first epoch activates everyone");
    }

    #[test]
    fn persistent_engine_starves_then_recovers_from_perturbations() {
        let g = unit_game(12, 2, 4);
        let start = crate::dynamics::random_start(&g, 5);
        let mut d = ActiveSetDynamics::new(&g, SparseStrategies::from_matrix(&g, &start));
        let (conv, _) = d.run(&g, 200, None);
        assert!(conv);
        assert!(is_nash_sparse(&g, d.state()));

        // Drained worklist: one empty round, zero checks.
        let before = d.counters();
        let (conv, rounds) = d.run(&g, 200, None);
        assert!(conv);
        assert_eq!(rounds, 1);
        assert_eq!(d.counters().checks, before.checks);

        // Perturb one user onto a single channel; the event-driven
        // recovery must match a sweep from the same state bit for bit.
        d.apply_row(&g, UserId(0), &[(0, 2)]);
        let perturbed = d.state().clone();
        let checks_at_perturb = d.counters().checks;
        let (swept, sconv, _, strace) = sweep_dynamics_traced(&g, perturbed, 200);
        let mut trace = Vec::new();
        let (aconv, _) = d.run(&g, 200, Some(&mut trace));
        assert_eq!(aconv, sconv);
        assert_eq!(trace, strace);
        assert_eq!(d.state(), &swept);
        // The recovery only touched users the perturbation could tempt.
        assert!(
            d.counters().checks - checks_at_perturb < 12 * 3,
            "recovery should not re-check the world: {:?}",
            d.counters()
        );
    }

    #[test]
    fn noop_apply_row_wakes_only_the_touched_user() {
        // A perturbation equal to the current row changes no load: the
        // temptation horizon must stay empty (a NaN horizon here once
        // drained the whole heap) and only the applied user re-checks.
        let g = unit_game(30, 2, 4);
        let start = crate::dynamics::random_start(&g, 3);
        let mut d = ActiveSetDynamics::new(&g, SparseStrategies::from_matrix(&g, &start));
        let (conv, _) = d.run(&g, 200, None);
        assert!(conv);
        let row = d.state().row(UserId(0)).to_vec();
        let before = d.counters();
        d.apply_row(&g, UserId(0), &row);
        assert_eq!(
            d.counters().temptation_wakeups,
            before.temptation_wakeups,
            "no load changed, nobody can be tempted"
        );
        let (conv, rounds) = d.run(&g, 200, None);
        assert!(conv);
        assert_eq!(rounds, 1);
        assert_eq!(
            d.counters().checks,
            before.checks + 1,
            "only the applied user is re-checked"
        );
    }

    /// The occupant index must actually skip wakes: on a balanced
    /// heap-route equilibrium a departure lightens two channels by one
    /// radio, which keeps every occupant's load inside its certificate
    /// interval (a lighter channel only raises the kept marginals, and
    /// one step of relief cannot lift a deepening marginal over the
    /// weakest kept one) — so no occupant may be woken. The generic
    /// route's exact-load rule wakes them all, and both re-converge
    /// exactly as the sweep does.
    #[test]
    fn occupant_index_skips_loads_inside_certificates() {
        use crate::churn::ChurnGame;
        let uniform = ChurnGame::uniform(400, 2, 8, 1.0);
        for game in [uniform.clone(), uniform.force_generic_route()] {
            let start = SparseStrategies::random_uniform(400, 2, 8, 3);
            let (settled, conv, _, _) = sweep_dynamics_traced(&game, start, 200);
            assert!(conv);
            // A fresh engine certifies every user against the settled
            // state in one move-free round.
            let mut d = ActiveSetDynamics::new(&game, settled);
            assert_eq!(d.run(&game, 200, None), (true, 1));
            for u in [0usize, 57, 123, 301] {
                let (mut g, mut e) = (game.clone(), d.clone());
                let before = e.counters().occupant_wakeups;
                g.retire(UserId(u));
                e.retire_user(&g, UserId(u));
                let woken = e.counters().occupant_wakeups - before;
                if d.is_heap() {
                    assert_eq!(woken, 0, "departure of {u} woke occupants");
                } else {
                    assert!(woken > 0, "the exact-load rule wakes the occupants");
                }
                let (swept, sconv, srounds, strace) =
                    sweep_dynamics_traced(&g, e.state().clone(), 200);
                let mut trace = Vec::new();
                assert_eq!(e.run(&g, 200, Some(&mut trace)), (sconv, srounds));
                assert_eq!(trace, strace);
                assert_eq!(e.state(), &swept);
            }
        }
    }

    /// A game with fewer users than the engine is a caller error: the
    /// typed error comes back before anything changes.
    #[test]
    fn grow_users_rejects_a_shrunk_game() {
        use crate::churn::ChurnGame;
        let game = ChurnGame::uniform(6, 2, 4, 1.0);
        let mut d = ActiveSetDynamics::new(&game, SparseStrategies::random_uniform(6, 2, 4, 5));
        assert!(d.run(&game, 200, None).0);
        let (state, loads, counters) = (d.state().clone(), d.loads().clone(), d.counters());
        let err = d.grow_users(&ChurnGame::uniform(5, 2, 4, 1.0));
        assert!(matches!(err, Err(Error::InvalidConfig { .. })), "{err:?}");
        assert_eq!(d.state(), &state);
        assert_eq!(d.loads(), &loads);
        assert_eq!(d.counters(), counters);
        assert!(UserId::all(6).all(|u| d.is_settled(u)));
        // Still settled against its own game: the next run checks nobody.
        assert_eq!(d.run(&game, 200, None), (true, 1));
        assert_eq!(d.counters().checks, counters.checks);
    }

    /// A rate cut must not leave the heap engine answering from the
    /// channel's pre-cut key: the load is unchanged, so only the payoff
    /// epoch can tell the old entry from the fresh one.
    #[test]
    fn heap_engine_drops_keys_of_a_repriced_channel() {
        use crate::churn::ChurnGame;
        let mut game = ChurnGame::uniform(3, 1, 3, 1.0);
        let s = SparseStrategies::random_uniform(3, 1, 3, 1);
        let loads = ChannelLoads::of_sparse(&s);
        let mut engine = HeapEngine::new(&game, &loads);
        // Cut the rate of the channel the heap currently ranks first.
        let top = (0..3)
            .map(ChannelId)
            .max_by(|&a, &b| {
                let (fa, fb) = (
                    game.channel_payoff(a, loads.load(a), 1),
                    game.channel_payoff(b, loads.load(b), 1),
                );
                fa.total_cmp(&fb).then(b.0.cmp(&a.0))
            })
            .unwrap();
        game.set_rate(top, 0.1);
        engine.reprice(&game, &loads, top);
        let mut fresh = HeapEngine::new(&game, &loads);
        for u in UserId::all(3) {
            let got = engine.best_response(&game, s.row(u), &loads, u);
            assert_eq!(
                got,
                fresh.best_response(&game, s.row(u), &loads, u),
                "user {u}"
            );
        }
    }

    #[test]
    fn welfare_from_loads_matches_total_utility() {
        let g = unit_game(5, 2, 4);
        let s = crate::dynamics::random_start(&g, 3);
        let loads = ChannelLoads::of(&s);
        assert_eq!(
            welfare_from_loads(&g, &loads).to_bits(),
            g.total_utility_cached(&loads).to_bits()
        );
    }

    #[test]
    fn nash_check_sparse_agrees_with_dense() {
        let g = unit_game(5, 2, 4);
        for seed in 0..5 {
            let m = crate::dynamics::random_start(&g, seed);
            let sp = SparseStrategies::from_matrix(&g, &m);
            let dense_check = g.nash_check(&m);
            let sparse_check = nash_check_sparse(&g, &sp);
            assert_eq!(dense_check.is_nash(), sparse_check.is_nash());
            for (a, b) in dense_check.gains.iter().zip(&sparse_check.gains) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }
}
