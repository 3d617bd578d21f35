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
//! and the sparse dynamics and Nash-check drivers below run
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
//! * parked users whose park threshold the **entry horizon** now
//!   reaches — the most one radio can earn by entering some channel at
//!   the current loads (the first-entry payoff on the heap route, the
//!   best per-radio entry payoff on the generic route) — found through
//!   one **lazy temptation index** (a min segment tree over park
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
//! (on the DP side the shared knapsack in [`crate::br_dp`] packs radios
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
    /// [`br_dp::best_response`].
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
/// [`br_dp::utility`] (same ascending-channel summation).
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
    /// drivers).
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
    /// Generic-route deliveries that the filed certificate re-parks
    /// without a full engine query: every own load is back at its park
    /// value and the threshold still clears the entry horizon. A subset
    /// of `revalidated`, booked under `skipped_checks` like every
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
/// * **parked** — its last check found no improving deviation, and it
///   filed a park certificate: a threshold in the temptation index and,
///   under each of its channels, a load interval in the occupant index.
///   (A mover is parked too: immediately after its move it sits exactly
///   at its best response.)
///
/// # Why skipped checks are provably no-ops
///
/// A parked user `u`'s move condition `best − current > ε` (the
/// scale-relative [`improvement_eps`]) can only become true if the
/// environment changes. Two exhaustive cases:
///
/// * `current` (or a *corrected* own-channel payoff column) changes only
///   when the load or the payoff of a channel `u` occupies changes.
///   Every park files, under each of `u`'s channels, the **load
///   interval** its certificate holds over in the **threshold-ordered
///   occupant index** (one `ChannelIndex` per channel, the worklist's
///   specialization of the
///   [`ChannelOccupants`](crate::sparse::ChannelOccupants) channel→users
///   reverse index), and a load change delivers exactly the occupants
///   whose interval it leaves; a payoff change
///   ([`reprice_channel`](Self::reprice_channel)) delivers every
///   occupant and voids its certificate through the channel's payoff
///   generation. Filing is `O(k)`, and an occupant whose interval still
///   holds the load is never visited. The intervals per route:
///
///   **Separable-monotone route — the exchange bound.** With concave
///   per-channel payoffs and all `k` radios deployed, a deviation trades
///   `m ≤ k` radios. Each radio added gains at most the largest
///   *entering* marginal `E`: some channel's first-entry payoff `φ_c`,
///   or `μ = f(t+1) − f(t)` on a channel `u` already holds. Each radio
///   removed loses at least the smallest *kept* marginal `K = min κ`,
///   `κ = f(t) − f(t−1)` of `u`'s last radio on a channel. So
///   `best − current ≤ k · max(0, E − K)`. Concavity also gives
///   `current ≥ Σ t_c κ_c ≥ k·K`. The certificate (`exchange_cert`)
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
///   above `K`, scanned up to `SPAN_STEPS` per side. The temptation
///   index below enforces `φ_max < thr`. A load change that leaves an
///   interval schedules the user and withdraws its intervals; when its
///   rank comes up, delivery re-derives the certificate at the then
///   current loads in `O(k)` and re-files it when it holds, so every
///   crossing since the wake coalesces into one test, and only a
///   failure pays the full check. At an exact equilibrium the
///   front-line entry payoff equals the weakest kept marginal bit for
///   bit, and the `τ/2` margin keeps the indifferent users parked. When
///   the bound does not hold at park time (a row within `ε` of a
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
///   the filed certificate in `O(k)` and re-files it without an engine
///   query when it still holds; on the concave route it then tries the
///   exchange bound at the delivery-time loads.
/// * `best` rises only through *shared* columns of channels `u` does not
///   occupy. Re-activation for this case is a query against the **lazy
///   temptation index** (a min segment tree over park thresholds): a
///   parked user is tempted only while the **entry horizon**
///   `H = max_c η_c` — the most one radio can earn by entering channel
///   `c` at the *current* loads, maximized over channels — reaches its
///   threshold. Both routes keep every `η_c` and `H` current at each
///   load or payoff change, and both routes' thresholds are computed at
///   park from the user's own channels alone, so the test reads only the
///   current state:
///
///   **Separable-monotone route** (the lazy heap's regime — concave
///   per-channel marginals, all radios deployed). By concavity a
///   channel's entering marginals are bounded by its **first-entry
///   payoff** `η_c = φ_c = f(c, k_c, 1)`, so a parked user cannot move
///   unless the global horizon `φ_max = max_c φ_c` over the *current*
///   loads reaches its threshold: the exchange bound's `thr`, or — for
///   an exact-load certificate — `m* + g/k` with `m*` the weakest
///   marginal of its park-time best response and `g = current + ε −
///   best` its slack (an improvement must route an entering marginal of
///   a changed channel into the greedy top `k`, displacing a marginal
///   `≥ m*`, so it needs some `k·(φ_c − m*) > g`).
///
///   **Generic (DP) route.** No concavity is assumed, so the horizon
///   bounds entry per radio: `η_c = max_{1≤t≤k_max} f(c, k_c, t)/t`,
///   and `t` radios entering `c` earn at most `t·η_c ≤ t·H`. (Where
///   `f(t)/t` does not rise with `t` — every game in this workspace —
///   `η_c` is the first-entry payoff again; the max over `t` keeps the
///   bound sound for any [`ChannelGame`].) At park the user solves a
///   knapsack over its own `≤ k` channels in `O(k²·|row|)`: `own_j`, the
///   best value of its own channels holding `j` radios at their
///   own-corrected loads (at most `j` in a game that may idle radios).
///   Its threshold is `θ = min_{0≤j<k} (U + ε/2 − own_j)/(k − j)`, `U`
///   its utility and `ε` the improvement epsilon at `U`. A deviation
///   that places `m ≥ 1` radios on foreign channels keeps (at most)
///   `k − m` on its own channels, so it is worth at most
///   `own_{k−m} + m·H`, which stays `≤ U + ε/2` while `H ≤ θ`; the other
///   half of `ε` absorbs rounding, as `τ/2` does on the heap route. The
///   check that parked the user ruled out every deviation that stays on
///   its own channels, and the exact-load intervals and payoff
///   generations keep those channels as they were. A user whose `θ`
///   does not clear `H` at park files it anyway: each round after a
///   mutation delivers, checks and re-parks it until `H` drops.
///
///   The crucial property making the test **lazy-safe** is that the
///   certificate is *history-free*: a parked user's own channels sit
///   inside their intervals (a load leaving one delivers it through the
///   occupant index), so its own-channel premises are still live, and at
///   any later moment it can move only if the current `H` exceeds its
///   threshold — the identical-rank round scan therefore delivers a
///   tempted user exactly when its check would run, and a horizon spike
///   that subsided before that rank (a vacated channel the next taker in
///   rank order refills) provably wakes nobody. An eager wake would pop
///   every user under the spike — `O(|N|)` futile re-checks per move
///   during a rebalancing trickle, the thundering herd that made
///   large-population departures and rate shifts quadratic. At an exact
///   equilibrium the front-line entry payoff equals the weakest kept
///   marginal bit for bit, and the threshold's margin keeps indifferent
///   users parked — a move that merely restores balance wakes nobody
///   beyond the occupants whose intervals it leaves, which is what makes
///   equilibrium maintenance `O(occupants)` instead of `O(|N|)`.
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
    /// Per-channel entry horizon at the *current* loads, maintained at
    /// every load or rate mutation ([`Self::entry_horizon`]): the
    /// first-entry payoff `φ_c = f(c, load_c, 1)` on the concave route,
    /// `η_c = max_{t ≤ k_max} f(c, load_c, t)/t` on the generic one.
    phi: Vec<f64>,
    /// Cached `max_c φ_c` — the global temptation horizon the lazy scan
    /// and the eager drain test park thresholds against.
    phi_max: f64,
    /// Lazy temptation index over parked users, keyed by park threshold.
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
    /// Largest radio budget (the certificate stride, and the depth of
    /// the generic route's entry horizons).
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
    /// Whether generic-route parks file the entry-horizon threshold
    /// ([`dp_park_threshold`]). On by default; off, every generic-route
    /// park is always tempted, a twin that re-checks like a sweep
    /// ([`set_refined`](Self::set_refined)).
    refined: bool,
    scratch_old: Vec<SparseEntry>,
    scratch_touched: Vec<ChannelId>,
    /// Certificate intervals of the park being filed.
    scratch_spans: Vec<(u32, u32)>,
    /// Index entries a load change crossed.
    scratch_crossed: Vec<(u32, u32)>,
    /// Generic-route park scratch: the own-channel knapsack and payoff
    /// column of [`dp_park_threshold`].
    scratch_own: Vec<f64>,
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
        let occ = ChannelId::all(n_channels)
            .map(|c| ChannelIndex::new(loads.load(c)))
            .collect();
        let mut d = ActiveSetDynamics {
            s,
            loads,
            engine,
            concave,
            parked: vec![false; n],
            occ,
            price_gen: vec![0; n_channels],
            phi: Vec::new(),
            phi_max: f64::NEG_INFINITY,
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
            refined: true,
            scratch_old: Vec::new(),
            scratch_touched: Vec::new(),
            scratch_spans: Vec::new(),
            scratch_crossed: Vec::new(),
            scratch_own: Vec::new(),
        };
        d.rebuild_phi(game);
        d
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
                continue; // lazily unscheduled (e.g. a retired user)
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
    /// current entry horizon `max_c φ_c`, plus the purely-relative pop
    /// margin (see [`drain_tempted`](Self::drain_tempted) for why the
    /// margin has no absolute floor). With no channels at all `φ_max`
    /// is `−∞` and the expression is NaN — which every threshold
    /// comparison rejects, correctly: nothing can tempt anyone.
    fn pop_horizon(&self) -> f64 {
        self.phi_max + 1e-12 * self.phi_max.abs()
    }

    /// Apply an external row change (a retune, a perturbation)
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
        // Wake every tempted user now, not in the next round's lazy scan.
        // No caller needs the eager drain: every caller drives `run` after
        // the change. It stays because perfbench's retune-dp `counts:`
        // lines are pinned with it; dropping it is a measured change of
        // its own.
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
    /// the cache and deepens every channel's entry horizon. Call between
    /// rounds (like
    /// [`apply_row`](Self::apply_row)); the game must already report the
    /// grown population.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the game reports fewer users than
    /// the engine holds (departures retire users, they never shrink the
    /// population); [`Error::ArenaOverflow`] when the arrivals' summed
    /// budgets overflow the slot arena. Either way the engine is left
    /// unchanged: no arrival is absorbed unless all of them fit.
    pub fn grow_users<G: ChannelGame + ?Sized>(&mut self, game: &G) -> Result<(), Error> {
        let old_n = self.s.n_users();
        let new_n = game.n_users();
        if new_n < old_n {
            return Err(Error::config(format!(
                "the game reports {new_n} users but the engine holds {old_n}: \
                 the population only grows in place"
            )));
        }
        self.s
            .check_room((old_n..new_n).map(|u| game.radios_of(UserId(u))))?;
        for u in old_n..new_n {
            let k = game.radios_of(UserId(u));
            self.s.push_row(k).expect("the summed demand fits");
            self.parked.push(false);
            self.in_cur.push(false);
            self.in_pending.push(false);
            self.tempt.push();
            self.last_thr.push(f64::INFINITY);
            self.cert_stale.push(true);
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
                    // The DP cache's column depth is `k_max + 1`, and
                    // the entry horizons maximize over `t ≤ k_max`: a
                    // deeper budget rebuilds both.
                    self.engine = BrEngine::new(game, &self.loads);
                    self.rebuild_phi(game);
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
    /// and refresh the channel's entry horizon under the new payoff.
    /// `old_payoff` is ignored: every park threshold is tested against
    /// the current horizon alone, so the pre-change payoff is never
    /// needed (the parameter stays for existing callers).
    /// Tempted non-occupants are **not** scheduled here: the next
    /// [`run`](Self::run)'s lazy scan discovers them in rank order under
    /// the horizon in force when their rank comes up, so a price spike
    /// the first few takers absorb never wakes the long tail of parked
    /// users it transiently tempted. (This is the churn service's
    /// contract — drive re-convergence through `run`; callers that
    /// observe settledness directly must use
    /// [`apply_row`](Self::apply_row), which drains eagerly.)
    ///
    /// Soundness mirrors the load-change wake rule: the occupants'
    /// certificates are void, and a non-occupant's certificate reads the
    /// channel only through the horizon, which now carries the new
    /// payoff — a rise tempts exactly like a vacated channel. Call
    /// between rounds.
    pub fn reprice_channel<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        c: ChannelId,
        _old_payoff: &dyn Fn(u32) -> f64,
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
        self.refresh_phi(game, &[c]);
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
        self.wake_occupants(&touched, route);
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
    }

    /// Channel `c`'s entry horizon at its current load: the most one
    /// radio can earn by entering `c`. On the concave route that is the
    /// first-entry payoff `φ_c = f(c, load, 1)`; on the generic route,
    /// where `f(t)/t` may rise with `t`, it is
    /// `η_c = max_{1 ≤ t ≤ k_max} f(c, load, t)/t`, so `t` radios
    /// entering `c` earn at most `t·η_c`.
    fn entry_horizon<G: ChannelGame + ?Sized>(&self, game: &G, c: ChannelId) -> f64 {
        let load = self.loads.load(c);
        let mut eta = game.channel_payoff(c, load, 1);
        let depth = if self.concave { 1 } else { self.k_max };
        for t in 2..=depth {
            eta = eta.max(game.channel_payoff(c, load, t) / t as f64);
        }
        eta
    }

    /// Recompute every channel's entry horizon and their max
    /// (`O(|C|·k_max)`): at construction, and when an arrival deepens
    /// the generic route's horizons.
    fn rebuild_phi<G: ChannelGame + ?Sized>(&mut self, game: &G) {
        self.phi = ChannelId::all(self.s.n_channels())
            .map(|c| self.entry_horizon(game, c))
            .collect();
        self.phi_max = self.phi.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    }

    /// Refresh the cached entry horizons (and their max) for the
    /// touched channels; call after the loads and the engine are
    /// current. When a touched channel held the old max and dropped, the
    /// max is recomputed over all channels: O(C), paid only on the
    /// (rare) moves that lower the global horizon.
    fn refresh_phi<G: ChannelGame + ?Sized>(&mut self, game: &G, touched: &[ChannelId]) {
        let mut dropped_max = false;
        for &c in touched {
            let new = self.entry_horizon(game, c);
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
    /// certificate interval the new load leaves. The loads must already
    /// be current, and every changed channel must be listed: all are
    /// aligned with their new loads before anyone is woken.
    /// Non-occupant temptation is covered by the entry horizon, which
    /// `refresh_phi` has already updated and which the round's lazy scan
    /// (or [`drain_tempted`](Self::drain_tempted)) tests.
    ///
    /// An occupant whose interval still contains the new load is never
    /// visited: its certificate holds verbatim. One the load pushed out
    /// is scheduled, and re-validated in O(k) when its rank comes up
    /// ([`Self::cert_holds`], then [`Self::revalidate`] on the concave
    /// route): a user crossed again before then costs nothing more. The
    /// generic route files exact-load certificates (the degenerate
    /// interval `[P, P]`), so its wake set is that of an exact park-load
    /// comparison, bit for bit.
    fn wake_occupants(&mut self, touched: &[ChannelId], route: Option<(u32, Option<&[u32]>)>) {
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
    }

    /// Eagerly wake every parked user the **current** horizon tempts.
    /// Used where the lazy in-round scan is not relied on: external
    /// perturbations ([`apply_row`](Self::apply_row), so the `parked`
    /// flags [`is_settled`](Self::is_settled) reads stay exact) and
    /// custom-permutation rounds (scan order is rank, the index is keyed
    /// by id). The pop margin baked into
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
        // Compact when lazily-unscheduled entries pile up (a caller that
        // wakes and retires users without running rounds would otherwise
        // only grow the vector).
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
    /// and `slack` its recorded slack ([`park_slack`]). On the concave
    /// route the user files the exchange-bound certificate of its live
    /// row ([`exchange_cert`]) when that holds under the current horizon,
    /// and otherwise the exact-load one: the weakest marginal `m*` of
    /// `br` anchors the threshold `m* + slack/k`, valid only at the
    /// park-time loads. On the generic route the threshold is
    /// [`dp_park_threshold`]'s `θ` (`−∞`, always tempted, with the
    /// certificate switched off), also at the exact park-time loads.
    fn park_user<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        u: u32,
        br: &[SparseEntry],
        slack: f64,
    ) {
        if !self.concave {
            let thr = if self.refined {
                let user = UserId(u as usize);
                let row = self.s.row(user);
                dp_park_threshold(game, user, row, &self.loads, &mut self.scratch_own)
            } else {
                f64::NEG_INFINITY
            };
            self.file_parked(u, thr, None);
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
    /// (`φ_max` with the pop margin, the test the lazy scan applies)? Then a full check would provably find nothing and the
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
        // The generic route's share of the re-files (the heap route adds
        // zero).
        self.counters.refined_reparks += u64::from(!self.concave);
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

    /// Toggle the generic route's park certificate (on by default).
    /// Off, every generic-route park files threshold `−∞`, so each round
    /// after a mutation delivers and re-checks every parked user, as a
    /// sweep would, and no certificate re-files anyone — the twin the
    /// differential suites and the measured-pipeline speedup arm compare
    /// against, move for move. Takes effect at each user's next park.
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

/// The generic-route park threshold `θ` of a user holding `row`, each
/// entry's others-load read from `loads` with the user's own radios
/// excluded — the certificate [`ActiveSetDynamics`] files on the DP
/// route, tested against the entry horizon `H`.
///
/// `own_j` is the best value of the user's own channels holding `j`
/// radios at their own-corrected loads (at most `j` when the game may
/// idle radios): a knapsack over the row's `≤ k` channels, `O(k·|row|)`
/// payoff calls and `O(k²·|row|)` additions. With `U` the row's utility
/// and `ε` the improvement epsilon at `U`,
/// `θ = min_{0 ≤ j < k} (U + ε/2 − own_j)/(k − j)`. A deviation placing
/// `m ≥ 1` radios off the user's own channels is worth at most
/// `own_{k−m} + m·H`, so while `H ≤ θ` none beats `U + ε/2`; the other
/// half of `ε` absorbs rounding. `+∞` for a zero budget. `scratch` is
/// reused across calls.
fn dp_park_threshold<G: ChannelGame + ?Sized>(
    game: &G,
    user: UserId,
    row: &[SparseEntry],
    loads: &ChannelLoads,
    scratch: &mut Vec<f64>,
) -> f64 {
    let k = game.radios_of(user) as usize;
    scratch.clear();
    scratch.resize(2 * (k + 1), f64::NEG_INFINITY);
    let (own, col) = scratch.split_at_mut(k + 1);
    own[0] = 0.0;
    let mut utility = 0.0;
    for &(c, t) in row {
        let cid = ChannelId(c as usize);
        let others = loads.load(cid) - t;
        // Ascending-channel sum: bit-identical to `utility_sparse`.
        utility += game.channel_payoff(cid, others, t);
        for (s, f) in col.iter_mut().enumerate().skip(1) {
            *f = game.channel_payoff(cid, others, s as u32);
        }
        // Fold the channel in, heaviest `j` first so each reads the
        // values before this channel.
        for j in (1..=k).rev() {
            for s in 1..=j {
                own[j] = own[j].max(own[j - s] + col[s]);
            }
        }
    }
    if game.may_idle_radios() {
        for j in 1..=k {
            own[j] = own[j].max(own[j - 1]);
        }
    }
    let top = utility + 0.5 * improvement_eps(utility, utility);
    (0..k)
        .map(|j| (top - own[j]) / (k - j) as f64)
        .fold(f64::INFINITY, f64::min)
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
/// `O(Σ_i k_i)` load count, then one `O(k)` utility read plus one engine
/// best response per user. Returns the same [`NashCheck`] shape as the
/// dense checkers.
pub fn nash_check_sparse<G: ChannelGame + ?Sized>(game: &G, s: &SparseStrategies) -> NashCheck {
    let loads = ChannelLoads::of_sparse(s);
    let mut engine = BrEngine::new(game, &loads);
    let n = game.n_users();
    let mut gains = Vec::with_capacity(n);
    let mut witness = None;
    for user in UserId::all(n) {
        let current = utility_sparse(game, s, &loads, user);
        let (br, best_u) = engine.best_response(game, s.row(user), &loads, user);
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
    use crate::br_dp::welfare_from_loads;
    use crate::churn::ChurnGame;
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;
    use crate::heterogeneous::HeteroGame;
    use crate::rate_model::{ExponentialDecayRate, LinearDecayRate, RateModel, StepRate};
    use crate::strategy::StrategyMatrix;
    use crate::utility_models::EnergyCostGame;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

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
        let unit = Arc::new(crate::rate_model::ConstantRate::unit());
        let g = HeteroGame::with_rate(vec![2, 1, 2, 2, 1], 2, unit).unwrap();
        let s = StrategyMatrix::from_rows(&[
            vec![0, 0], // the responder
            vec![1, 0],
            vec![0, 2],
            vec![0, 2],
            vec![0, 1],
        ])
        .unwrap();
        // The tie is exact in value space.
        let v_stack = g.channel_payoff(ChannelId(0), 1, 2);
        let v_split = g.channel_payoff(ChannelId(0), 1, 1) + g.channel_payoff(ChannelId(1), 5, 1);
        assert_eq!(v_stack.to_bits(), v_split.to_bits(), "tie must be exact");
        let (br, _) = br_dp::best_response(&g, &s, UserId(0));
        assert_eq!(br.counts(), &[2, 0], "DP must pack ties toward channel 0");
        // The heap sees the tie in marginal space, where rounding breaks
        // it toward the split — same value, legal alternative argmax.
        let sp = SparseStrategies::from_matrix(&g, &s);
        let loads = ChannelLoads::of_sparse(&sp);
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
        let (br, _) = br_dp::best_response(&g, &s, UserId(0));
        assert_eq!(br.counts(), &[1, 1, 0, 0]);
        let sp = SparseStrategies::from_matrix(&g, &s);
        let loads = ChannelLoads::of_sparse(&sp);
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
            assert!(br_dp::is_nash(&g, &dense), "seed {seed}");
            assert!(is_nash_sparse(&g, &sparse), "seed {seed}");
            let sloads = ChannelLoads::of_sparse(&sparse);
            assert!(sloads.max_delta() <= 1, "seed {seed}");
            let dw = welfare_from_loads(&g, dense.loads());
            let sw = welfare_from_loads(&g, sloads.as_slice());
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
            let (_, dv) = br_dp::best_response(&g, &dense, u);
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

    /// Arrivals whose summed budgets overflow the slot arena are all or
    /// none: the typed error comes back with no arrival absorbed, and
    /// the driver then runs exactly like a twin that never saw them.
    #[test]
    fn grow_users_overflow_leaves_the_driver_unchanged() {
        use crate::churn::ChurnGame;
        let game = ChurnGame::uniform(3, 1, 4, 1.0);
        let mut d = ActiveSetDynamics::new(&game, SparseStrategies::random_uniform(3, 1, 4, 7));
        assert!(d.run(&game, 200, None).0);
        let mut twin = d.clone();
        let (state, loads, counters) = (d.state().clone(), d.loads().clone(), d.counters());
        let mut grown = game.clone();
        grown.push_user(1);
        grown.push_user(u32::MAX);
        let err = d.grow_users(&grown);
        assert!(matches!(err, Err(Error::ArenaOverflow { .. })), "{err:?}");
        assert_eq!(d.state().n_users(), 3, "no arrival is absorbed");
        assert_eq!(d.state(), &state);
        assert_eq!(d.loads(), &loads);
        assert_eq!(d.counters(), counters);
        // Perturb both drivers alike, then re-converge: same answer,
        // same moves, same books.
        let pile = [(0, 1)];
        for e in [&mut d, &mut twin] {
            e.apply_row(&game, UserId(0), &pile);
            e.apply_row(&game, UserId(1), &pile);
        }
        let (mut trace, mut twin_trace) = (Vec::new(), Vec::new());
        assert_eq!(
            d.run(&game, 200, Some(&mut trace)),
            twin.run(&game, 200, Some(&mut twin_trace))
        );
        assert_eq!(trace, twin_trace);
        assert_eq!(d.state(), twin.state());
        assert_eq!(d.loads(), twin.loads());
        assert_eq!(d.counters(), twin.counters());
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
        let loads = ChannelLoads::of_sparse(&SparseStrategies::from_matrix(&g, &s));
        // Total utility as the paper's game summed it: `R(k_c)` per
        // channel, `0` for an empty one.
        let total_utility: f64 = ChannelId::all(4)
            .map(|c| match s.channel_load(c) {
                0 => 0.0,
                kc => g.rate().rate(kc),
            })
            .sum();
        assert_eq!(
            welfare_from_loads(&g, loads.as_slice()).to_bits(),
            total_utility.to_bits()
        );
    }

    /// A test-local game whose per-radio payoff `f(t)/t = w_c·t/(L + t)`
    /// rises with `t`. No workspace game has that shape, so only this
    /// one tells the entry horizon's max over `t` from its first term.
    struct RisingGame {
        budgets: Vec<u32>,
        weights: Vec<f64>,
    }

    impl ChannelGame for RisingGame {
        fn n_users(&self) -> usize {
            self.budgets.len()
        }
        fn n_channels(&self) -> usize {
            self.weights.len()
        }
        fn radios_of(&self, user: UserId) -> u32 {
            self.budgets[user.0]
        }
        fn channel_payoff(&self, c: ChannelId, others: u32, t: u32) -> f64 {
            if t == 0 {
                return 0.0;
            }
            let t = f64::from(t);
            self.weights[c.0] * t * t / (f64::from(others) + t)
        }
    }

    /// A decaying rate curve: linear, exponential or a random step table
    /// (all generic-route shapes).
    fn decaying_rate(rng: &mut StdRng) -> Arc<dyn RateModel> {
        match rng.gen_range(0..3usize) {
            0 => Arc::new(LinearDecayRate::new(
                rng.gen_range(2.0..10.0),
                rng.gen_range(0.1..1.5),
                0.5,
            )),
            1 => Arc::new(ExponentialDecayRate::new(
                rng.gen_range(2.0..10.0),
                rng.gen_range(0.5..0.95),
            )),
            _ => {
                let mut r = rng.gen_range(5.0..50.0);
                let table = (0..16)
                    .map(|_| {
                        let v = r;
                        r = (r - rng.gen_range(0.0..r / 4.0)).max(0.5);
                        v
                    })
                    .collect();
                Arc::new(StepRate::new("prop", table))
            }
        }
    }

    /// Up to its budget per user (under-deployment included), on random
    /// channels, as a sparse row of ascending channels.
    fn random_row(rng: &mut StdRng, k: u32, n_channels: usize) -> Vec<SparseEntry> {
        let mut counts = vec![0u32; n_channels];
        for _ in 0..rng.gen_range(0..=k) {
            counts[rng.gen_range(0..n_channels)] += 1;
        }
        (0..n_channels as u32)
            .zip(counts)
            .filter(|&(_, t)| t > 0)
            .collect()
    }

    /// The best value `user` can reach with an allocation that puts a
    /// radio on a channel its row leaves empty (`−∞` if none exists):
    /// every count vector of its budget (at most its budget when radios
    /// may idle), each summed in ascending channel order as the DP sums.
    fn best_foreign_deviation<G: ChannelGame>(
        game: &G,
        d: &ActiveSetDynamics,
        user: UserId,
    ) -> f64 {
        let row = d.state().row(user);
        let own = |c: usize| row.iter().find(|e| e.0 as usize == c).map_or(0, |e| e.1);
        let k = game.radios_of(user);
        let mut best = f64::NEG_INFINITY;
        // (next channel, radios placed, value so far, any radio foreign)
        let mut stack = vec![(0, 0, 0.0, false)];
        while let Some((c, placed, value, foreign)) = stack.pop() {
            if c == game.n_channels() {
                if foreign && (placed == k || game.may_idle_radios()) {
                    best = best.max(value);
                }
                continue;
            }
            let (cid, o) = (ChannelId(c), own(c));
            stack.push((c + 1, placed, value, foreign));
            for t in 1..=k - placed {
                let v = value + game.channel_payoff(cid, d.loads().load(cid) - o, t);
                stack.push((c + 1, placed + t, v, foreign || o == 0));
            }
        }
        best
    }

    /// The generic route's park certificate, pinned directly: whenever a
    /// user's threshold `θ` clears the engine's entry horizon (pop
    /// margin included), no allocation that puts a radio off the user's
    /// own channels improves on its utility. Checked over every user at
    /// a random start, after each of three random row replacements
    /// (which move the horizon through `refresh_phi`, checked against a
    /// rebuild) and after a run. The property holds at any state, not
    /// only at parked ones: the own-channel deviations a park rules out
    /// are left out of it.
    fn check_dp_certificate<G: ChannelGame>(game: &G, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, n_ch) = (game.n_users(), game.n_channels());
        let budgets: Vec<u32> = UserId::all(n).map(|u| game.radios_of(u)).collect();
        let mut start = SparseStrategies::with_budgets(&budgets, n_ch);
        for (u, &k) in budgets.iter().enumerate() {
            start.set_row(UserId(u), &random_row(&mut rng, k, n_ch));
        }
        let mut d = ActiveSetDynamics::new(game, start);
        prop_assert!(!d.is_heap(), "a generic-route instance");
        let mut own = Vec::new();
        for step in 0..5 {
            if step == 4 {
                d.run(game, 50, None);
            } else if step > 0 {
                let u = UserId(rng.gen_range(0..n));
                d.apply_row(game, u, &random_row(&mut rng, budgets[u.0], n_ch));
            }
            let rebuilt = ActiveSetDynamics::new(game, d.state().clone()).phi_max;
            prop_assert_eq!(d.phi_max.to_bits(), rebuilt.to_bits(), "step {}", step);
            let h = d.pop_horizon();
            for user in UserId::all(n) {
                let row = d.state().row(user);
                let theta = dp_park_threshold(game, user, row, d.loads(), &mut own);
                let u = utility_sparse(game, d.state(), d.loads(), user);
                let best = best_foreign_deviation(game, &d, user);
                prop_assert!(
                    theta <= h || !improves(u, best),
                    "step {}: {} has θ {} over H {} yet {} beats {}",
                    step,
                    user,
                    theta,
                    h,
                    best,
                    u
                );
            }
        }
        Ok(())
    }

    proptest! {
        /// The workspace games the DP route serves, all five per case:
        /// one decaying rate curve (linear, exponential or a step table),
        /// the same under energy costs (radios may idle, payoffs go
        /// negative), per-user budgets, per-channel curves, and constant
        /// rates forced onto the DP route with budgets up to |C| + 1.
        #[test]
        fn dp_certificate_holds_on_workspace_games(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, n_ch) = (rng.gen_range(1..=6usize), rng.gen_range(1..=4usize));
            let cfg = GameConfig::new(n, rng.gen_range(1..=n_ch as u32), n_ch).unwrap();
            let mut budgets = |max: u32| (0..n).map(|_| rng.gen_range(1..=max)).collect();
            let (hetero_k, churn_k) = (budgets(n_ch as u32), budgets(n_ch as u32 + 1));
            let paper = ChannelAllocationGame::new(cfg, decaying_rate(&mut rng));
            check_dp_certificate(&paper, seed)?;
            let energy = EnergyCostGame::new(paper, rng.gen_range(0.0..3.0));
            check_dp_certificate(&energy, seed)?;
            let hetero = HeteroGame::with_rate(hetero_k, n_ch, decaying_rate(&mut rng)).unwrap();
            check_dp_certificate(&hetero, seed)?;
            let rates = (0..n_ch).map(|_| decaying_rate(&mut rng)).collect();
            let k = vec![cfg.radios_per_user(); n];
            check_dp_certificate(&HeteroGame::new(k, n_ch, rates).unwrap(), seed)?;
            let rates = (0..n_ch).map(|_| rng.gen_range(0.2..4.0)).collect();
            check_dp_certificate(&ChurnGame::new(churn_k, rates).force_generic_route(), seed)?;
        }

        /// A per-radio payoff that rises with `t`: only the horizon's max
        /// over `t`, and the `(k − j)` divisor, keep the bound sound.
        /// Budgets start at 2, where both begin to matter.
        #[test]
        fn dp_certificate_holds_on_a_rising_per_radio_payoff(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, n_ch) = (rng.gen_range(1..=6usize), rng.gen_range(1..=4usize));
            let game = RisingGame {
                budgets: (0..n).map(|_| rng.gen_range(2..=n_ch as u32 + 1)).collect(),
                weights: (0..n_ch).map(|_| rng.gen_range(0.5..2.0)).collect(),
            };
            check_dp_certificate(&game, seed)?;
        }
    }

    #[test]
    fn nash_check_sparse_agrees_with_dense() {
        let g = unit_game(5, 2, 4);
        for seed in 0..5 {
            let m = crate::dynamics::random_start(&g, seed);
            let sp = SparseStrategies::from_matrix(&g, &m);
            let dense_check = br_dp::nash_check(&g, &m);
            let sparse_check = nash_check_sparse(&g, &sp);
            assert_eq!(dense_check.is_nash(), sparse_check.is_nash());
            for (a, b) in dense_check.gains.iter().zip(&sparse_check.gains) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }
}
