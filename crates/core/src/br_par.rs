//! Deterministic two-phase parallel best-response dynamics.
//!
//! The paper's convergence results (Algorithm 1, Theorems 3–4) are
//! stated for *sequential* better/best-response dynamics, and every
//! driver in this workspace up to PR 5 computed one best response at a
//! time. [`ParallelDynamics`] parallelizes the expensive part — the
//! best-response *computation* — while keeping the *commit* sequence a
//! deterministic function of `(game, start state)`, independent of the
//! thread count. It wraps an [`ActiveSetDynamics`] (the exact dirty-user
//! worklist) and replaces its sequential round with a snapshot/commit
//! protocol:
//!
//! **Phase A (parallel, read-only).** The pending worklist epoch *is*
//! the batch: it is drained, sorted by user id, and split into chunks
//! claimed by scoped worker threads ([`crate::par::scoped_chunks`]).
//! Against the frozen round snapshot (`SparseStrategies` +
//! [`ChannelLoads`]) each worker computes every batch user's current
//! utility and exact best response. On the separable-monotone route the
//! workers run the **branch-free marginal kernel**
//! ([`kernel_best_response_into`]) over a shared flat
//! [`MarginalTable`] — one contiguous `first[c]` row rebuilt per round —
//! instead of the (inherently single-writer) lazy heap; on the generic
//! route they share the [`BrEngine`]'s `DpCache` read-only, each with
//! its own per-thread scratch columns. Results are placed by batch
//! index, so Phase A's output does not depend on how chunks were
//! scheduled.
//!
//! **Phase B (sequential, canonical order).** The driver walks the
//! results in ascending user id. Non-candidates (no improving
//! deviation against the snapshot) are parked first — the snapshot is
//! still live, so their recorded slacks mean exactly what a sequential
//! check would have recorded; every Phase-A worker precomputes a park
//! certificate (the complete concave threshold with its occupant-index
//! load intervals, or the generic slack) against that same snapshot —
//! for non-candidates from their live row, for candidates the mover
//! certificate their commit will be parked under — so filing each park
//! is pure bookkeeping: no payoff evaluation survives into the serial
//! filing. Candidates are
//! then classified by a per-round touched-channel set:
//!
//! * **Channel-disjoint candidates** — moves whose old ∪ new channels
//!   avoid every channel already claimed this round — commute, so they
//!   commit together as one bulk batch: the load deltas are folded into
//!   a single sorted cache-blocked sweep
//!   ([`ChannelLoads::apply_sparse_deltas`]), and each committed row is
//!   still an *exact* best response at commit time (its channels carry
//!   their snapshot loads — pairwise disjointness is debug-asserted
//!   under the `paranoid-checks` feature).
//! * **Conflicting candidates** — a channel they touch was already
//!   claimed — have potentially stale best responses. For each, in id
//!   order, the driver recomputes the best response against the **live**
//!   loads (it holds the engine `&mut`, so this is exactly the
//!   sequential per-user path): if the fresh optimum still improves by
//!   more than the tolerance it commits; otherwise the candidate is
//!   **deferred** — parked under its live slack certificate and counted
//!   in [`DynCounters::deferred`]. The live recompute is what keeps the
//!   protocol fast at `|N| ≫ |C|`: blind deferral of every conflict
//!   would cap progress at `|C|/2k` moves per round, revalidating only
//!   the *snapshot row* would reject candidates whose gain merely moved
//!   to a different channel (serializing convergence into thin
//!   per-round waves), and blind commit would break the potential
//!   argument. The live queries are serial driver-thread work, so they
//!   run under a **dry-wave cutoff**: after `max(2|C|, 64)` consecutive
//!   non-improving probes the round's balancing wave is exhausted, and
//!   the remaining conflicting candidates are re-scheduled into the
//!   next round — whose *parallel* Phase A re-checks them against the
//!   fresh snapshot and parks the (by then, typically all) hopeless
//!   ones. This bounds the serial portion by the commits actually made
//!   plus an `O(|C|)` tail, at the price of at most one extra parallel
//!   sweep over the first round's conflict set.
//!
//! Committed movers (either tier) park under a zero-slack certificate
//! instead of staying scheduled — the same rule the sequential round
//! applies after a move. A fresh mover sits at its exact best response,
//! so any later temptation must clear the full relative epsilon, which
//! is precisely what the certificate encodes; re-scheduling it would
//! buy one guaranteed-failing re-check per move (PR 6 measured this
//! extra sweep capping parallel speedup near `T/2` on random starts).
//! Tier-1 movers file the certificate their Phase-A worker computed
//! against the snapshot — valid verbatim at commit time because the
//! disjoint tier leaves every channel a mover touches at its snapshot
//! load (on the generic route the commit batch re-anchors the
//! certificate against each mover's own clock advance, since a user's
//! own placement never tempts itself). Tier-2 movers park under their
//! live recompute. In both tiers the park is filed *after* the commit's
//! own occupant wakes, so a mover is never woken by its own move, yet
//! every temptation-horizon pop checks it. Deferred candidates are
//! parked the same way — their live query just proved they cannot
//! improve now, the strongest certificate the sequential dynamics ever
//! record. Wakes ride the exact machinery of the sequential engine
//! (occupant index, temptation index), driven over each batch's commits
//! and then per tier-2 commit in id order, and reactivate parked users —
//! movers, deferred, or otherwise — whenever a later commit breaks their
//! certificates.
//!
//! # Determinism contract
//!
//! The committed move sequence — and therefore the final state, bit for
//! bit — is a pure function of the game and the start state. Thread
//! count, chunk scheduling, and core count only change *wall-clock*:
//! Phase A results are keyed by batch index, the batch is sorted, and
//! every Phase-B decision (park, commit, defer) is taken in ascending
//! id order against deterministic state. The `par_equiv` suite pins
//! final states bit-identical across thread counts {1, 2, 4}.
//!
//! # Progress and fixed points
//!
//! A round with any candidate commits at least one move: the first
//! candidate in id order sees an empty touched set and lands in the
//! disjoint tier. Every committed move strictly improves its mover
//! against the loads at its commit point, so the Rosenthal potential
//! strictly increases and the starvation case (all candidates fighting
//! over one channel) still terminates. A round with zero candidates
//! parks its whole batch against unchanged loads and returns
//! convergence; since every user is then parked under a valid slack
//! certificate, the fixed point is an exact Nash equilibrium —
//! the same fixed points as the sequential oracle.

use crate::br_dp::{park_slack, ChannelGame};
use crate::br_fast::{
    concave_park_threshold, exchange_cert, kernel_best_response_into, utility_sparse,
    ActiveSetDynamics, BrEngine, DpScratch, DynCounters, KernelScratch, MarginalTable, ParCommit,
};
use crate::error::Error;
use crate::game::{improvement_eps, improves};
use crate::loads::ChannelLoads;
use crate::par;
use crate::sparse::{SparseEntry, SparseStrategies};
use crate::types::{ChannelId, UserId};
use std::time::{Duration, Instant};

/// Per-worker best-response scratch, matched to the engine route.
#[derive(Debug)]
enum RouteScratch {
    /// Separable-monotone route: the branch-free kernel's live marginal
    /// row.
    Kernel(KernelScratch),
    /// Generic route: per-thread corrected DP columns.
    Dp(DpScratch),
}

/// One claimed chunk's Phase-A output: per-user `(before, after, row
/// length, park certificate, interval count)` metadata plus the
/// concatenated best-response rows and certificate intervals, keyed by
/// the chunk's batch start index. The park certificate is the complete
/// concave threshold on the heap route — an exchange-bound certificate
/// with one interval per row entry, or the exact-load fallback with
/// none — and the raw slack on the generic route; for non-candidates it
/// certifies the live row, for candidates the row their disjoint-tier
/// commit parks under (the mover's zero-slack certificate). Precomputed
/// here so Phase-B parking on the driver thread is pure bookkeeping.
#[derive(Debug)]
struct ChunkOut {
    start: usize,
    metas: Vec<(f64, f64, u32, f64, u32)>,
    rows: Vec<SparseEntry>,
    spans: Vec<(u32, u32)>,
}

/// Per-worker Phase-A state: route scratch plus the chunks it produced.
#[derive(Debug)]
struct Worker {
    scratch: RouteScratch,
    chunks: Vec<ChunkOut>,
}

/// The deterministic two-phase parallel driver over an
/// [`ActiveSetDynamics`] — see the [module docs](self) for the
/// protocol. Construct with [`new`](Self::new), drive with
/// [`run`](Self::run) or per-round [`round`](Self::round).
#[derive(Debug)]
pub struct ParallelDynamics {
    inner: ActiveSetDynamics,
    threads: usize,
    /// Round batch (drained pending epoch, ascending id) — reused.
    batch: Vec<u32>,
    /// Shared flat first-entry payoff row (separable-monotone route).
    table: MarginalTable,
    /// Channels claimed by disjoint-tier commits this round (bitmap +
    /// reset list).
    touched_mark: Vec<bool>,
    marked: Vec<u32>,
    phase_a: Duration,
    phase_b: Duration,
}

impl ParallelDynamics {
    /// Build the parallel driver over `s` with `threads` Phase-A workers
    /// (`0` = [`par::available_threads`]). Every user starts scheduled,
    /// exactly like the sequential engine.
    pub fn new<G: ChannelGame + ?Sized>(game: &G, s: SparseStrategies, threads: usize) -> Self {
        let n_channels = s.n_channels();
        ParallelDynamics {
            inner: ActiveSetDynamics::new(game, s),
            threads: if threads == 0 {
                par::available_threads()
            } else {
                threads
            },
            batch: Vec::new(),
            table: MarginalTable::default(),
            touched_mark: vec![false; n_channels],
            marked: Vec::new(),
            phase_a: Duration::ZERO,
            phase_b: Duration::ZERO,
        }
    }

    /// The current strategy state.
    pub fn state(&self) -> &SparseStrategies {
        self.inner.state()
    }

    /// Consume the driver, returning the strategy state.
    pub fn into_state(self) -> SparseStrategies {
        self.inner.into_state()
    }

    /// The maintained load cache.
    pub fn loads(&self) -> &ChannelLoads {
        self.inner.loads()
    }

    /// Work counters accumulated so far (including
    /// [`committed`](DynCounters::committed) and
    /// [`deferred`](DynCounters::deferred)).
    pub fn counters(&self) -> DynCounters {
        self.inner.counters()
    }

    /// Whether the underlying route is the separable-monotone (kernel)
    /// one.
    pub fn is_heap(&self) -> bool {
        self.inner.is_heap()
    }

    /// The Phase-A worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative wall time spent in Phase A (parallel best responses).
    pub fn phase_a_time(&self) -> Duration {
        self.phase_a
    }

    /// Cumulative wall time spent in Phase B (sequential park/commit).
    pub fn phase_b_time(&self) -> Duration {
        self.phase_b
    }

    /// Delegate of [`ActiveSetDynamics::apply_row`] — perturb one user's
    /// row between rounds.
    pub fn apply_row<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        user: UserId,
        new_row: &[SparseEntry],
    ) {
        self.inner.apply_row(game, user, new_row);
    }

    /// Delegate of [`ActiveSetDynamics::grow_users`] — in-place
    /// population growth between rounds. The per-channel round books
    /// (`touched_mark`) need no resize: only `N` grows.
    pub fn grow_users<G: ChannelGame + ?Sized>(&mut self, game: &G) -> Result<(), Error> {
        self.inner.grow_users(game)
    }

    /// Delegate of [`ActiveSetDynamics::retire_user`] — departure path.
    pub fn retire_user<G: ChannelGame + ?Sized>(&mut self, game: &G, user: UserId) {
        self.inner.retire_user(game, user);
    }

    /// Delegate of [`ActiveSetDynamics::reprice_channel`] — rate-shift
    /// path.
    pub fn reprice_channel<G: ChannelGame + ?Sized>(
        &mut self,
        game: &G,
        c: ChannelId,
        old_payoff: &dyn Fn(u32) -> f64,
    ) {
        self.inner.reprice_channel(game, c, old_payoff);
    }

    /// Run rounds until a fixed point or `max_rounds`; returns
    /// `(converged, rounds)` with the sequential round accounting (the
    /// converging round is the final, commit-free one).
    pub fn run<G: ChannelGame + Sync + ?Sized>(
        &mut self,
        game: &G,
        max_rounds: usize,
    ) -> (bool, usize) {
        for round in 1..=max_rounds {
            if !self.round(game) {
                return (true, round);
            }
        }
        (false, max_rounds)
    }

    /// One two-phase round; returns whether any move committed.
    pub fn round<G: ChannelGame + Sync + ?Sized>(&mut self, game: &G) -> bool {
        let n = self.state().n_users();
        let mut batch = std::mem::take(&mut self.batch);
        self.inner.par_take_batch(&mut batch);
        {
            let c = self.inner.counters_mut();
            c.checks += batch.len() as u64;
            c.skipped_checks += (n - batch.len()) as u64;
        }
        if batch.is_empty() {
            self.batch = batch;
            self.inner.par_mark_quiet();
            return false;
        }

        // ---- Phase A: parallel best responses against the snapshot.
        let t = Instant::now();
        let mut table = std::mem::take(&mut self.table);
        let heap_route = self.inner.is_heap();
        let horizon = self.inner.par_horizon();
        let mut chunks: Vec<ChunkOut> = {
            let (s, loads, engine) = self.inner.par_view();
            if heap_route {
                table.rebuild(game, loads);
            }
            let dp = match engine {
                BrEngine::Dp(d) => Some(d),
                BrEngine::Heap(_) => None,
            };
            let table = &table;
            let batch = &batch;
            let chunk = batch.len().div_ceil(self.threads.max(1) * 8).clamp(1, 8192);
            let workers = par::scoped_chunks(
                batch.len(),
                self.threads,
                chunk,
                |_| Worker {
                    scratch: if heap_route {
                        RouteScratch::Kernel(KernelScratch::default())
                    } else {
                        RouteScratch::Dp(DpScratch::default())
                    },
                    chunks: Vec::new(),
                },
                |w, range| {
                    let mut out = ChunkOut {
                        start: range.start,
                        metas: Vec::with_capacity(range.len()),
                        rows: Vec::new(),
                        spans: Vec::new(),
                    };
                    for &u in &batch[range] {
                        let user = UserId(u as usize);
                        let row = s.row(user);
                        let before = utility_sparse(game, s, loads, user);
                        let rstart = out.rows.len();
                        let after = match &mut w.scratch {
                            RouteScratch::Kernel(ks) => kernel_best_response_into(
                                game,
                                row,
                                loads,
                                game.radios_of(user),
                                table,
                                ks,
                                &mut out.rows,
                            ),
                            RouteScratch::Dp(ds) => dp
                                .expect("generic route carries the DP cache")
                                .best_response_with(game, row, loads, user, ds, &mut out.rows),
                        };
                        let len = (out.rows.len() - rstart) as u32;
                        // Candidates get the zero-slack certificate a
                        // sequential round would park them under right
                        // after the move; against snapshot loads it is
                        // bit-identical to the post-commit value for the
                        // disjoint tier, because that tier leaves every
                        // channel the mover touches at its snapshot load
                        // (others' load on c is `load(c) − own old count`
                        // either way).
                        let candidate = improves(before, after);
                        let slack = if candidate {
                            improvement_eps(after, after)
                        } else {
                            park_slack(before, after)
                        };
                        let br = &out.rows[rstart..];
                        let sstart = out.spans.len();
                        let cert = if !heap_route {
                            slack
                        } else {
                            // Others-loads exclude the snapshot row, so a
                            // candidate is certified at its post-commit
                            // loads (the disjoint tier leaves its channels
                            // at snapshot load ± its own move).
                            let parked_row = if candidate { br } else { row };
                            let spans = &mut out.spans;
                            exchange_cert(game, user, row, parked_row, loads, horizon, spans)
                                .unwrap_or_else(|| {
                                    concave_park_threshold(game, user, row, br, loads, slack)
                                })
                        };
                        let n_spans = (out.spans.len() - sstart) as u32;
                        out.metas.push((before, after, len, cert, n_spans));
                    }
                    w.chunks.push(out);
                },
            );
            workers.into_iter().flat_map(|w| w.chunks).collect()
        };
        // Chunk production order is scheduling-dependent; batch order is
        // not. Re-sequence before Phase B reads anything.
        chunks.sort_unstable_by_key(|c| c.start);
        self.table = table;
        self.phase_a += t.elapsed();

        // ---- Phase B: sequential park/commit in ascending id order.
        let t = Instant::now();
        // Pass 1 — park every non-candidate first: no load has changed
        // yet, so their slack certificates are computed against exactly
        // the state their best responses saw.
        let mut candidates: Vec<ParCommit<'_>> = Vec::new();
        for ch in &chunks {
            let (mut off, mut soff) = (0usize, 0usize);
            for (j, &(before, after, len, cert, n_spans)) in ch.metas.iter().enumerate() {
                let u = batch[ch.start + j];
                let row = &ch.rows[off..off + len as usize];
                off += len as usize;
                let spans = (n_spans > 0).then(|| &ch.spans[soff..soff + n_spans as usize]);
                soff += n_spans as usize;
                if improves(before, after) {
                    candidates.push((u, row, cert, spans));
                } else {
                    self.inner.par_park_precomputed(u, cert, spans);
                }
            }
        }
        // Pass 2 — classify candidates: disjoint tier commits in bulk,
        // conflicting tier revalidates against live loads.
        let mut tier1: Vec<ParCommit<'_>> = Vec::new();
        let mut tier2: Vec<ParCommit<'_>> = Vec::new();
        {
            let (s, _, _) = self.inner.par_view();
            for &(u, br, cert, spans) in &candidates {
                let old = s.row(UserId(u as usize));
                let conflict = old
                    .iter()
                    .chain(br.iter())
                    .any(|&(c, _)| self.touched_mark[c as usize]);
                if conflict {
                    tier2.push((u, br, cert, spans));
                } else {
                    for &(c, _) in old.iter().chain(br.iter()) {
                        if !self.touched_mark[c as usize] {
                            self.touched_mark[c as usize] = true;
                            self.marked.push(c);
                        }
                    }
                    tier1.push((u, br, cert, spans));
                }
            }
        }
        let mut committed = tier1.len() as u64;
        self.inner.par_commit_batch(game, &tier1);
        // Tier 2, in ascending id order: the snapshot best response is
        // stale (a conflicting commit landed on one of its channels), so
        // recompute the best response against the *live* loads — the
        // driver thread holds the engine `&mut`, exactly the sequential
        // per-user path — and commit if it still improves. Revalidating
        // the snapshot row instead would reject candidates whose gain
        // merely moved to a different channel, serializing convergence
        // into per-round waves the width of the conflict set; the live
        // recompute keeps each round's committed wave as large as a
        // sequential pass over the same candidates. Determinism is
        // untouched: the recompute is a pure function of the live state,
        // which is itself a pure function of the committed prefix.
        // The live queries are serial driver-thread work, so they run
        // under a dry-wave cutoff: once `cutoff` *consecutive* probes
        // find no improvement, the balancing wave this round's commits
        // could carry is exhausted — with near certainty every remaining
        // candidate would also fail — and serially probing the rest
        // (potentially Θ(|N|) of them on the first round of a large
        // instance) would cost more than letting the next round's
        // *parallel* Phase A re-check and park them. Cut-off candidates
        // are re-scheduled, not parked: without a live query they carry
        // no slack certificate.
        let cutoff = (2 * self.touched_mark.len()).max(64);
        let mut consec_fail = 0usize;
        let mut live = Vec::new();
        let mut idx = 0usize;
        while idx < tier2.len() && consec_fail < cutoff {
            let (u, ..) = tier2[idx];
            idx += 1;
            let (before, after) = self.inner.par_live_best_response(game, u, &mut live);
            if improves(before, after) {
                self.inner.par_commit_one(game, u, &live, after);
                committed += 1;
                consec_fail = 0;
            } else {
                // Deferred: the snapshot promised a gain a conflicting
                // commit absorbed. The live query just proved the user
                // cannot improve *now*, so park it with the live slack —
                // the ordinary wake machinery reactivates it if a later
                // commit (this round or any after) touches its channels.
                self.inner
                    .par_park(game, u, &live, park_slack(before, after));
                self.inner.counters_mut().deferred += 1;
                consec_fail += 1;
            }
        }
        for &(u, ..) in &tier2[idx..] {
            self.inner.par_schedule(u);
            self.inner.counters_mut().deferred += 1;
        }
        for c in self.marked.drain(..) {
            self.touched_mark[c as usize] = false;
        }
        self.phase_b += t.elapsed();
        self.batch = batch;
        if committed == 0 {
            self.inner.par_mark_quiet();
        }
        committed > 0
    }
}

/// Parallel best-response dynamics from `s`: the [`ParallelDynamics`]
/// convenience driver, mirroring
/// [`best_response_dynamics_sparse`](crate::br_fast::best_response_dynamics_sparse).
/// `threads = 0` uses [`par::available_threads`]. Returns
/// `(state, converged, rounds)`.
pub fn best_response_dynamics_parallel<G: ChannelGame + Sync + ?Sized>(
    game: &G,
    s: SparseStrategies,
    max_rounds: usize,
    threads: usize,
) -> (SparseStrategies, bool, usize) {
    let (s, converged, rounds, _) =
        best_response_dynamics_parallel_counted(game, s, max_rounds, threads);
    (s, converged, rounds)
}

/// [`best_response_dynamics_parallel`] with the run's [`DynCounters`]
/// returned — what `t9_scale --threads` surfaces per row.
pub fn best_response_dynamics_parallel_counted<G: ChannelGame + Sync + ?Sized>(
    game: &G,
    s: SparseStrategies,
    max_rounds: usize,
    threads: usize,
) -> (SparseStrategies, bool, usize, DynCounters) {
    let mut d = ParallelDynamics::new(game, s, threads);
    let (converged, rounds) = d.run(game, max_rounds);
    let counters = d.counters();
    (d.into_state(), converged, rounds, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_fast::{best_response_dynamics_sparse_counted, is_nash_sparse};
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;

    fn unit_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    #[test]
    fn parallel_run_reaches_a_nash_equilibrium() {
        let g = unit_game(40, 2, 5);
        let start = SparseStrategies::random_uniform(40, 2, 5, 7);
        let (end, converged, rounds, counters) =
            best_response_dynamics_parallel_counted(&g, start, 200, 2);
        assert!(converged, "{counters:?}");
        assert!(is_nash_sparse(&g, &end));
        assert!(counters.committed > 0);
        assert_eq!(counters.moves, counters.committed);
        assert_eq!(
            counters.checks + counters.skipped_checks,
            rounds as u64 * 40,
            "round accounting covers the sweep-equivalent checks"
        );
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let g = unit_game(60, 3, 6);
        let start = SparseStrategies::random_uniform(60, 3, 6, 11);
        let (one, c1, r1, k1) = best_response_dynamics_parallel_counted(&g, start.clone(), 300, 1);
        for threads in [2, 4] {
            let (t, ct, rt, kt) =
                best_response_dynamics_parallel_counted(&g, start.clone(), 300, threads);
            assert_eq!(one, t, "threads={threads}: states must be bit-identical");
            assert_eq!((c1, r1), (ct, rt), "threads={threads}");
            assert_eq!(
                k1, kt,
                "threads={threads}: counters are part of the contract"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree_on_fixed_points() {
        let g = unit_game(30, 2, 4);
        for seed in 0..4 {
            let start = SparseStrategies::random_uniform(30, 2, 4, seed);
            let (par_end, pc, _, _) =
                best_response_dynamics_parallel_counted(&g, start.clone(), 200, 4);
            let (seq_end, sc, _, _) = best_response_dynamics_sparse_counted(&g, start, 200);
            assert!(pc && sc, "seed {seed}");
            assert!(is_nash_sparse(&g, &par_end), "seed {seed}");
            assert!(is_nash_sparse(&g, &seq_end), "seed {seed}");
            // Constant-rate equilibria are balanced, so the load
            // multisets coincide even when the assignments differ.
            let mut pl = ChannelLoads::of_sparse(&par_end).as_slice().to_vec();
            let mut sl = ChannelLoads::of_sparse(&seq_end).as_slice().to_vec();
            pl.sort_unstable();
            sl.sort_unstable();
            assert_eq!(pl, sl, "seed {seed}");
        }
    }

    #[test]
    fn empty_batch_round_is_convergence() {
        let g = unit_game(10, 2, 4);
        let start = SparseStrategies::random_uniform(10, 2, 4, 3);
        let mut d = ParallelDynamics::new(&g, start, 2);
        let (conv, _) = d.run(&g, 100);
        assert!(conv);
        // Drained worklist: the next round sees an empty batch.
        let checks = d.counters().checks;
        assert!(!d.round(&g));
        assert_eq!(d.counters().checks, checks, "empty round checks nobody");
    }
}
