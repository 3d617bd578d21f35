//! CSR-vs-dense neighborhood-index differential suite. [`NbrIndex`]
//! holds its rows either as dense `N·|C|` cells or as CSR rows of the
//! nonzero cells, and its serving builder picks the smaller. The dense
//! layout is the differential oracle. At this suite's narrow channel
//! spaces the size rule always picks dense, so most cases force each
//! layout through the `csr_of` / `dense_of` test seams and pin the two
//! together at both levels:
//!
//! * **index level** — the same seeded stream of row replacements and
//!   population grows, applied to both layouts over the same conflict
//!   graph, fires the *identical* `on_cell(user, channel, before,
//!   after)` event sequence (the exact ladder steps the potential
//!   tracker integrates) and leaves identical logical rows;
//! * **driver level** — a CSR engine and a dense engine replaying the
//!   same churn event stream (arrival, departure, budget change, rate
//!   shift) stay in lockstep: bit-identical move traces, equal states
//!   after every settle, equal round counts, work counters, cycle flags,
//!   and bit-equal maintained potentials — on both best-response routes
//!   (lazy heap and forced generic DP) and on the parallel driver at 1,
//!   2 and 4 workers.
//!
//! One more case widens the channel space (|C| 24–64, short conflict
//! range) so the serving builder picks CSR by itself: its pick must
//! equal the byte rule recomputed here, and the default engine must
//! stay in lockstep with the dense one.
//!
//! Because the round-boundary fingerprint hashes only the strategy
//! state, any divergence between the layouts shows up here as a trace
//! or potential mismatch rather than being masked downstream.

use mrca_core::churn::ChurnGame;
use mrca_core::sparse::{SparseEntry, SparseStrategies};
use mrca_core::spatial::{
    ConflictGraph, NbrIndex, SpatialDynamics, SpatialGame, SpatialParallelDynamics,
};
use mrca_core::{ChannelGame, ChannelId, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_ROUNDS: usize = 500;

// ---------------------------------------------------------------------------
// Index level: identical on_cell sequences and logical rows
// ---------------------------------------------------------------------------

/// A random full-budget row: `m` distinct sorted channels carrying `k`
/// radios total, every count ≥ 1.
fn random_row(rng: &mut StdRng, k: u32, n_channels: usize) -> Vec<SparseEntry> {
    let m = rng.gen_range(1..=(k as usize).min(n_channels));
    let mut chans: Vec<u32> = (0..n_channels as u32).collect();
    for i in 0..m {
        let j = rng.gen_range(i..chans.len());
        chans.swap(i, j);
    }
    let mut row: Vec<SparseEntry> = chans[..m].iter().map(|&c| (c, 1u32)).collect();
    for _ in 0..(k as usize - m) {
        let i = rng.gen_range(0..m);
        row[i].1 += 1;
    }
    row.sort_unstable_by_key(|e| e.0);
    row
}

/// Every logical row of an index, densified for comparison.
fn logical_rows(ix: &NbrIndex) -> Vec<Vec<u32>> {
    (0..ix.n_users()).map(|u| ix.dense_row(u)).collect()
}

/// The layout rule, recomputed from logical rows: a CSR row costs 8 B
/// per slot of `min(len + len/8 + 2, |C|)` plus 12 B, a dense row
/// `4·|C|` B, and CSR wins only when strictly smaller in total.
fn byte_rule_picks_csr(ix: &NbrIndex) -> bool {
    let c = ix.n_channels();
    let csr: usize = logical_rows(ix)
        .iter()
        .map(|row| {
            let len = row.iter().filter(|&&l| l != 0).count();
            8 * (len + len / 8 + 2).min(c) + 12
        })
        .sum();
    csr < ix.n_users() * 4 * c
}

/// Replay a seeded stream of row replacements (with a mid-stream
/// population grow) through both index layouts, asserting the event
/// sequences and rows never diverge.
fn check_index_stream(
    n: usize,
    k: u32,
    c: usize,
    range: f64,
    seed: u64,
    steps: usize,
) -> Result<(), TestCaseError> {
    let (mut graph, _) = ConflictGraph::random_geometric(n, 5.0, range, seed);
    let mut s = SparseStrategies::random_uniform(n, k, c, seed ^ 0x1DE0);
    let mut csr = NbrIndex::csr_of(&graph, &s);
    let mut dense = NbrIndex::dense_of(&graph, &s);
    prop_assert!(csr.is_csr() && !dense.is_csr());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);

    for step in 0..steps {
        if step == steps / 2 {
            // Mid-stream arrival: a fresh empty row joins the graph with
            // a seeded neighbor subset; both indices grow in lockstep.
            let nbrs: Vec<u32> = (0..s.n_users() as u32)
                .filter(|_| rng.gen_range(0.0..1.0) < 0.4)
                .collect();
            graph.push_vertex(&nbrs);
            s.push_row(k).expect("grow population");
            csr.grow(&graph, &s);
            dense.grow(&graph, &s);
        }
        let u = UserId(rng.gen_range(0..s.n_users()));
        let old = s.row(u).to_vec();
        let new = random_row(&mut rng, k, c);
        let mut ev_csr: Vec<(usize, usize, u32, u32)> = Vec::new();
        let mut ev_dense: Vec<(usize, usize, u32, u32)> = Vec::new();
        csr.replace_row(&graph, u.0, &old, &new, |v, ch, b, a| {
            ev_csr.push((v, ch, b, a));
        });
        dense.replace_row(&graph, u.0, &old, &new, |v, ch, b, a| {
            ev_dense.push((v, ch, b, a));
        });
        s.set_row(u, &new);
        prop_assert_eq!(
            &ev_csr,
            &ev_dense,
            "step {}: on_cell sequences diverged",
            step
        );
        prop_assert_eq!(
            logical_rows(&csr),
            logical_rows(&dense),
            "step {}: logical rows diverged",
            step
        );
        for u in 0..s.n_users() {
            for ch in 0..c {
                prop_assert_eq!(
                    csr.load(u, ChannelId(ch)),
                    dense.load(u, ChannelId(ch)),
                    "step {}: point load diverged at ({}, {})",
                    step,
                    u,
                    ch
                );
            }
        }
        prop_assert!(csr.agrees_with(&graph, &s), "csr drifted at {step}");
        prop_assert!(dense.agrees_with(&graph, &s), "dense drifted at {step}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Driver level: lockstep replay through CSR vs dense
// ---------------------------------------------------------------------------

/// One churn event, with raw selectors reduced against the live
/// population at apply time (so shrinking stays meaningful). Mirrors
/// the `churn_equiv` event alphabet.
#[derive(Debug, Clone)]
enum Event {
    Arrive { budget: u32 },
    Depart { pick: usize },
    BudgetChange { pick: usize, budget: u32 },
    RateShift { pick: usize, factor: f64 },
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (0usize..4, 0usize..1_000_000, 1u32..=3, 0usize..3).prop_map(|(kind, pick, budget, f)| {
        match kind {
            0 => Event::Arrive { budget },
            1 => Event::Depart { pick },
            2 => Event::BudgetChange { pick, budget },
            _ => Event::RateShift {
                pick,
                factor: [0.4, 1.7, 3.0][f],
            },
        }
    })
}

/// An arrival joins the conflict graph with a seeded random subset of
/// the existing vertices as neighbors (sorted, as `push_vertex` needs).
fn arrival_neighbors(n_existing: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_existing as u32)
        .filter(|_| rng.gen_range(0.0..1.0) < 0.4)
        .collect()
}

/// How the engine under test builds its index; its twin always runs on
/// [`NbrIndex::dense_of`].
#[derive(Debug, Clone, Copy)]
enum Build {
    /// `with_index(csr_of)`.
    Csr,
    /// `new` — the size rule's own pick.
    Default,
}

/// An engine under test paired with its dense twin; every operation is
/// applied to both and the observable books compared.
enum Pair {
    Seq(Box<SpatialDynamics>, Box<SpatialDynamics>),
    Par(Box<SpatialParallelDynamics>, Box<SpatialParallelDynamics>),
}

impl Pair {
    fn seq(game: &SpatialGame<ChurnGame>, s: SparseStrategies, build: Build) -> Self {
        let dense = NbrIndex::dense_of(game.graph(), &s);
        let a = match build {
            Build::Csr => {
                SpatialDynamics::with_index(game, s.clone(), NbrIndex::csr_of(game.graph(), &s))
            }
            Build::Default => SpatialDynamics::new(game, s.clone()),
        };
        let b = SpatialDynamics::with_index(game, s, dense);
        Pair::Seq(Box::new(a), Box::new(b))
    }

    fn par(
        game: &SpatialGame<ChurnGame>,
        s: SparseStrategies,
        threads: usize,
        build: Build,
    ) -> Self {
        let dense = NbrIndex::dense_of(game.graph(), &s);
        let a = match build {
            Build::Csr => {
                let csr = NbrIndex::csr_of(game.graph(), &s);
                SpatialParallelDynamics::with_index(game, s.clone(), csr, threads)
            }
            Build::Default => SpatialParallelDynamics::new(game, s.clone(), threads),
        };
        let b = SpatialParallelDynamics::with_index(game, s, dense, threads);
        Pair::Par(Box::new(a), Box::new(b))
    }

    fn state(&self) -> &SparseStrategies {
        match self {
            Pair::Seq(a, _) => a.state(),
            Pair::Par(a, _) => a.state(),
        }
    }

    /// Run both engines and assert every observable agrees: outcome,
    /// rounds, move trace (sequential only — the parallel driver has no
    /// trace hook), state, counters, cycle flag, potential bits. The
    /// engine under test must hold the `csr` layout, its twin dense.
    fn run_lockstep(
        &mut self,
        game: &SpatialGame<ChurnGame>,
        csr: bool,
    ) -> Result<bool, TestCaseError> {
        let (outcome_s, outcome_d) = match self {
            Pair::Seq(a, b) => {
                let mut trace_s = Vec::new();
                let mut trace_d = Vec::new();
                let out_s = a.run(game, MAX_ROUNDS, Some(&mut trace_s));
                let out_d = b.run(game, MAX_ROUNDS, Some(&mut trace_d));
                prop_assert_eq!(&trace_s, &trace_d, "move traces diverged");
                (out_s, out_d)
            }
            Pair::Par(a, b) => (a.run(game, MAX_ROUNDS), b.run(game, MAX_ROUNDS)),
        };
        prop_assert_eq!(outcome_s, outcome_d, "(converged, rounds) diverged");
        let (state_s, state_d, counters, cycles, phi_bits) = match self {
            Pair::Seq(a, b) => (
                a.state(),
                b.state(),
                (a.counters(), b.counters()),
                (a.cycle_detected(), b.cycle_detected()),
                (a.potential().phi().to_bits(), b.potential().phi().to_bits()),
            ),
            Pair::Par(a, b) => (
                a.state(),
                b.state(),
                (a.counters(), b.counters()),
                (a.cycle_detected(), b.cycle_detected()),
                (a.potential().phi().to_bits(), b.potential().phi().to_bits()),
            ),
        };
        prop_assert_eq!(state_s, state_d, "states diverged");
        prop_assert_eq!(counters.0, counters.1, "work counters diverged");
        prop_assert_eq!(cycles.0, cycles.1, "cycle flags diverged");
        prop_assert_eq!(phi_bits.0, phi_bits.1, "potential bits diverged");
        // Each side kept its layout through every grow, and neither
        // drifted from a from-scratch rebuild.
        let agree = match self {
            Pair::Seq(a, b) => (
                a.neighborhood_loads().is_csr(),
                b.neighborhood_loads().is_csr(),
                a.neighborhood_loads().agrees_with(game.graph(), a.state()),
                b.neighborhood_loads().agrees_with(game.graph(), b.state()),
            ),
            Pair::Par(a, b) => (
                a.neighborhood_loads().is_csr(),
                b.neighborhood_loads().is_csr(),
                a.neighborhood_loads().agrees_with(game.graph(), a.state()),
                b.neighborhood_loads().agrees_with(game.graph(), b.state()),
            ),
        };
        prop_assert_eq!(agree.0, csr, "engine under test changed layout");
        prop_assert!(!agree.1, "twin engine is not on the dense layout");
        prop_assert!(agree.2, "tested index drifted from rebuild");
        prop_assert!(agree.3, "dense index drifted from rebuild");
        Ok(outcome_s.0)
    }

    fn grow_users(&mut self, game: &SpatialGame<ChurnGame>) {
        match self {
            Pair::Seq(a, b) => {
                a.grow_users(game).unwrap();
                b.grow_users(game).unwrap();
            }
            Pair::Par(a, b) => {
                a.grow_users(game).unwrap();
                b.grow_users(game).unwrap();
            }
        }
    }

    fn retire_user(&mut self, game: &SpatialGame<ChurnGame>, user: UserId) {
        match self {
            Pair::Seq(a, b) => {
                a.retire_user(game, user);
                b.retire_user(game, user);
            }
            Pair::Par(a, b) => {
                a.retire_user(game, user);
                b.retire_user(game, user);
            }
        }
    }

    fn reprice_channel(&mut self, game: &SpatialGame<ChurnGame>, c: ChannelId) {
        match self {
            Pair::Seq(a, b) => {
                a.reprice_channel(game, c);
                b.reprice_channel(game, c);
            }
            Pair::Par(a, b) => {
                a.reprice_channel(game, c);
                b.reprice_channel(game, c);
            }
        }
    }
}

/// Replay `events` through a paired engine whose tested side holds the
/// `csr` layout, holding the lockstep invariants after the initial
/// settle and every event.
fn check_lockstep_replay(
    mut game: SpatialGame<ChurnGame>,
    start: SparseStrategies,
    events: &[Event],
    seed: u64,
    csr: bool,
    make: impl Fn(&SpatialGame<ChurnGame>, SparseStrategies) -> Pair,
) -> Result<(), TestCaseError> {
    let mut pair = make(&game, start);
    if !pair.run_lockstep(&game, csr)? {
        return Ok(()); // both hit the same explicit cycle — scenario over
    }

    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Arrive { budget } => {
                let n = game.n_users();
                game.inner_mut().push_user(*budget);
                let nbrs = arrival_neighbors(n, seed ^ (i as u64).wrapping_mul(0x9E37));
                game.graph_mut().push_vertex(&nbrs);
                pair.grow_users(&game);
            }
            Event::Depart { pick } => {
                let live: Vec<usize> = (0..game.n_users())
                    .filter(|&u| game.inner().is_live(UserId(u)))
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let u = UserId(live[pick % live.len()]);
                game.inner_mut().retire(u);
                pair.retire_user(&game, u);
            }
            Event::BudgetChange { pick, budget } => {
                let live: Vec<usize> = (0..game.n_users())
                    .filter(|&u| game.inner().is_live(UserId(u)))
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let u = UserId(live[pick % live.len()]);
                game.inner_mut().retire(u);
                pair.retire_user(&game, u);
                let n = game.n_users();
                game.inner_mut().push_user(*budget);
                let nbrs = arrival_neighbors(n, seed ^ (i as u64).wrapping_mul(0x9E37));
                game.graph_mut().push_vertex(&nbrs);
                pair.grow_users(&game);
            }
            Event::RateShift { pick, factor } => {
                let c = ChannelId(pick % game.n_channels());
                let old = game.inner().rate(c);
                game.inner_mut().set_rate(c, old * factor);
                pair.reprice_channel(&game, c);
            }
        }
        if !pair.run_lockstep(&game, csr)? {
            return Ok(());
        }
    }

    // The lockstep survivors describe one equilibrium: a fresh default
    // engine on the final population certifies it in one moveless sweep.
    let grown = pair.state().clone();
    let mut fresh = SpatialDynamics::new(&game, grown.clone());
    let (converged, rounds) = fresh.run(&game, 2, None);
    prop_assert!(converged);
    prop_assert_eq!(rounds, 1, "fixed point must certify in one sweep");
    prop_assert_eq!(fresh.counters().moves, 0, "fixed point admits no move");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Index-level stream: replacements plus a mid-stream grow through
    /// both layouts never diverge in events, rows, or point loads.
    #[test]
    fn index_replacement_stream_matches_dense(
        n in 3usize..14,
        k in 1u32..=3,
        c in 2usize..=6,
        range in 0.5f64..4.5,
        seed in 0u64..1_000,
        steps in 4usize..24,
    ) {
        check_index_stream(n, k, c, range, seed, steps)?;
    }

    /// Driver-level lockstep: the same churn stream through paired
    /// CSR/dense engines on both BR routes, sequential and parallel at
    /// 1, 2 and 4 workers.
    #[test]
    fn dynamics_lockstep_sparse_vs_dense(
        n in 4usize..12,
        k in 1u32..=3,
        c in 2usize..=5,
        seed in 0u64..1_000,
        range in 0.8f64..4.0,
        events in prop::collection::vec(event_strategy(), 1..6),
    ) {
        let (graph, _) = ConflictGraph::random_geometric(n, 5.0, range, seed);
        let game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
        let start = SparseStrategies::random_uniform(n, k, c, seed);

        let seq = |g: &SpatialGame<ChurnGame>, s| Pair::seq(g, s, Build::Csr);
        // Sequential, lazy-heap route.
        check_lockstep_replay(game.clone(), start.clone(), &events, seed, true, seq)?;
        // Sequential, forced generic (DP) route.
        let dp = SpatialGame::new(
            game.inner().clone().force_generic_route(),
            game.graph().clone(),
        );
        check_lockstep_replay(dp, start.clone(), &events, seed, true, seq)?;
        // Parallel engine at 1, 2 and 4 workers.
        for threads in [1usize, 2, 4] {
            check_lockstep_replay(game.clone(), start.clone(), &events, seed, true, |g, s| {
                Pair::par(g, s, threads, Build::Csr)
            })?;
        }
    }

    /// The size rule on its own: at |C| 24–64 and a short conflict
    /// range the serving builder picks CSR by itself (dense only for a
    /// crowded draw). Its pick equals the byte rule, and the default
    /// engine stays in lockstep with the dense one, sequential and
    /// parallel.
    #[test]
    fn default_pick_matches_byte_rule_and_dense(
        n in 4usize..12,
        k in 1u32..=3,
        c in 24usize..=64,
        seed in 0u64..1_000,
        range in 0.3f64..1.0,
        events in prop::collection::vec(event_strategy(), 1..6),
    ) {
        let (graph, _) = ConflictGraph::random_geometric(n, 5.0, range, seed);
        let game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
        let start = SparseStrategies::random_uniform(n, k, c, seed);
        let csr = byte_rule_picks_csr(&NbrIndex::dense_of(game.graph(), &start));
        prop_assert_eq!(NbrIndex::sparse_of(game.graph(), &start).is_csr(), csr);
        check_lockstep_replay(game.clone(), start.clone(), &events, seed, csr, |g, s| {
            Pair::seq(g, s, Build::Default)
        })?;
        check_lockstep_replay(game, start, &events, seed, csr, |g, s| {
            Pair::par(g, s, 2, Build::Default)
        })?;
    }
}
