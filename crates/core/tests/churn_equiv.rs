//! Churn differential suite: a standing equilibrium absorbing an
//! arbitrary seeded event sequence (arrival, departure, budget change,
//! rate shift) through the incremental engine APIs must be
//! indistinguishable from a from-scratch solve of the same final
//! population:
//!
//! * after **every** event the re-settled state is certified Nash by the
//!   full `O(|N|)` scan — the detector for missed wakes (a stale parked
//!   user the event should have reactivated);
//! * the final CSR arena is **bit-identical** (`Eq` over starts/lens/
//!   entries) to one rebuilt from scratch with the same capacities and
//!   rows — pinning the dead-slot zeroing and append bookkeeping;
//! * a fresh engine seeded with the churn-grown state converges in one
//!   round with **zero moves** and leaves the state bit-identical — the
//!   maintained equilibrium is a true fixed point of the from-scratch
//!   dynamics, not an artifact of the incremental books;
//! * the maintained load cache and occupant index agree with ones
//!   recomputed from the final strategies.
//!
//! Every sequence runs through the sequential engine on both routes
//! (heap and forced-DP) and the parallel engine, so the event paths of
//! all three drivers are covered.

use mrca_core::br_fast::{is_nash_sparse, ActiveSetDynamics};
use mrca_core::churn::ChurnGame;
use mrca_core::sparse::{ChannelOccupants, SparseStrategies};
use mrca_core::{ChannelGame, ChannelId, ChannelLoads, ParallelDynamics, UserId};
use proptest::prelude::*;

const MAX_ROUNDS: usize = 500;

/// One churn event, with raw selectors reduced against the live
/// population at apply time (so shrinking stays meaningful).
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

/// The two drivers under one face, so the same replay covers both.
enum Engine {
    Seq(ActiveSetDynamics),
    Par(ParallelDynamics),
}

impl Engine {
    fn state(&self) -> &SparseStrategies {
        match self {
            Engine::Seq(d) => d.state(),
            Engine::Par(d) => d.state(),
        }
    }

    fn loads(&self) -> &ChannelLoads {
        match self {
            Engine::Seq(d) => d.loads(),
            Engine::Par(d) => d.loads(),
        }
    }

    fn run(&mut self, game: &ChurnGame) -> bool {
        match self {
            Engine::Seq(d) => d.run(game, MAX_ROUNDS, None).0,
            Engine::Par(d) => d.run(game, MAX_ROUNDS).0,
        }
    }

    fn grow_users(&mut self, game: &ChurnGame) {
        match self {
            Engine::Seq(d) => d.grow_users(game).unwrap(),
            Engine::Par(d) => d.grow_users(game).unwrap(),
        }
    }

    fn retire_user(&mut self, game: &ChurnGame, user: UserId) {
        match self {
            Engine::Seq(d) => d.retire_user(game, user),
            Engine::Par(d) => d.retire_user(game, user),
        }
    }

    fn reprice_channel(&mut self, game: &ChurnGame, c: ChannelId, load: u32, old_rate: f64) {
        let f = move |t: u32| ChurnGame::payoff_at_rate(load, t, old_rate);
        match self {
            Engine::Seq(d) => d.reprice_channel(game, c, &f),
            Engine::Par(d) => d.reprice_channel(game, c, &f),
        }
    }
}

/// Replay `events` against a settled equilibrium through `engine`,
/// asserting the invariants in the module docs.
fn check_churn_replay(
    mut game: ChurnGame,
    start: SparseStrategies,
    events: &[Event],
    make: impl Fn(&ChurnGame, SparseStrategies) -> Engine,
) -> Result<(), TestCaseError> {
    let mut d = make(&game, start);
    prop_assert!(d.run(&game), "initial convergence");
    prop_assert!(is_nash_sparse(&game, d.state()));

    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Arrive { budget } => {
                game.push_user(*budget);
                d.grow_users(&game);
            }
            Event::Depart { pick } => {
                let live: Vec<usize> = (0..game.n_users())
                    .filter(|&u| game.is_live(UserId(u)))
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let u = UserId(live[pick % live.len()]);
                game.retire(u);
                d.retire_user(&game, u);
            }
            Event::BudgetChange { pick, budget } => {
                // Re-provisioning = departure of the old identity plus an
                // arrival with the new budget (row slot capacity is fixed
                // per id, so budgets never change in place).
                let live: Vec<usize> = (0..game.n_users())
                    .filter(|&u| game.is_live(UserId(u)))
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let u = UserId(live[pick % live.len()]);
                game.retire(u);
                d.retire_user(&game, u);
                game.push_user(*budget);
                d.grow_users(&game);
            }
            Event::RateShift { pick, factor } => {
                let c = ChannelId(pick % game.n_channels());
                let load = d.loads().load(c);
                let old = game.set_rate(c, game.rate(c) * factor);
                d.reprice_channel(&game, c, load, old);
            }
        }
        prop_assert!(d.run(&game), "re-convergence after event {i} ({ev:?})");
        prop_assert!(
            is_nash_sparse(&game, d.state()),
            "event {i} ({ev:?}): settled state is not Nash — a wake was missed"
        );
    }

    let grown = d.state();
    let n = grown.n_users();

    // Bit-identical arena rebuild: same capacities, same rows, `Eq`.
    let caps: Vec<u32> = (0..n).map(|u| grown.row_capacity(UserId(u))).collect();
    let mut rebuilt = SparseStrategies::try_with_budgets(&caps, grown.n_channels()).unwrap();
    for u in 0..n {
        rebuilt.set_row(UserId(u), grown.row(UserId(u)));
    }
    prop_assert!(rebuilt == *grown, "arena must rebuild bit-identical");

    // Derived caches agree with recomputation.
    prop_assert!(ChannelLoads::of_sparse(grown) == *d.loads(), "load cache");
    prop_assert!(
        ChannelOccupants::of(grown) == ChannelOccupants::of(&rebuilt),
        "occupant index"
    );

    // A from-scratch engine on the final population, seeded with the
    // maintained state, finds nothing to do: one commit-free round, zero
    // moves, state untouched.
    let mut fresh = ActiveSetDynamics::new(&game, rebuilt);
    let (converged, rounds) = fresh.run(&game, 2, None);
    prop_assert!(converged);
    prop_assert_eq!(rounds, 1, "fixed point must certify in one sweep");
    prop_assert_eq!(fresh.counters().moves, 0, "fixed point admits no move");
    prop_assert!(fresh.state() == grown, "from-scratch run must not drift");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_replay_matches_from_scratch(
        n in 4usize..12,
        k in 1u32..=3,
        c in 2usize..=5,
        seed in 0u64..1_000,
        events in prop::collection::vec(event_strategy(), 1..10),
    ) {
        let game = ChurnGame::uniform(n, k, c, 1.0);
        let start = SparseStrategies::random_uniform(n, k, c, seed);

        // Sequential engine, heap route.
        check_churn_replay(game.clone(), start.clone(), &events, |g, s| {
            Engine::Seq(ActiveSetDynamics::new(g, s))
        })?;
        // Sequential engine, forced generic (DP) route.
        check_churn_replay(game.clone().force_generic_route(), start.clone(), &events, |g, s| {
            Engine::Seq(ActiveSetDynamics::new(g, s))
        })?;
        // Parallel engine (heap route), 2 workers.
        check_churn_replay(game, start, &events, |g, s| {
            Engine::Par(ParallelDynamics::new(g, s, 2))
        })?;
    }
}

// ---------------------------------------------------------------------------
// Spatial variant: churn on a conflict graph
// ---------------------------------------------------------------------------

use mrca_core::spatial::{
    is_nash_spatial, ConflictGraph, SpatialDynamics, SpatialGame, SpatialParallelDynamics,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two spatial drivers under one face, mirroring [`Engine`].
enum SpatialEngine {
    Seq(SpatialDynamics),
    Par(SpatialParallelDynamics),
}

impl SpatialEngine {
    fn state(&self) -> &SparseStrategies {
        match self {
            SpatialEngine::Seq(d) => d.state(),
            SpatialEngine::Par(d) => d.state(),
        }
    }

    fn run(&mut self, game: &SpatialGame<ChurnGame>) -> (bool, bool) {
        match self {
            SpatialEngine::Seq(d) => (d.run(game, MAX_ROUNDS, None).0, d.cycle_detected()),
            SpatialEngine::Par(d) => (d.run(game, MAX_ROUNDS).0, d.cycle_detected()),
        }
    }

    fn grow_users(&mut self, game: &SpatialGame<ChurnGame>) {
        match self {
            SpatialEngine::Seq(d) => d.grow_users(game).unwrap(),
            SpatialEngine::Par(d) => d.grow_users(game).unwrap(),
        }
    }

    fn retire_user(&mut self, game: &SpatialGame<ChurnGame>, user: UserId) {
        match self {
            SpatialEngine::Seq(d) => d.retire_user(game, user),
            SpatialEngine::Par(d) => d.retire_user(game, user),
        }
    }

    fn reprice_channel(&mut self, game: &SpatialGame<ChurnGame>, c: ChannelId) {
        match self {
            SpatialEngine::Seq(d) => d.reprice_channel(game, c),
            SpatialEngine::Par(d) => d.reprice_channel(game, c),
        }
    }

    fn index_agrees(&self, game: &SpatialGame<ChurnGame>) -> bool {
        match self {
            SpatialEngine::Seq(d) => d.neighborhood_loads().agrees_with(game.graph(), d.state()),
            SpatialEngine::Par(d) => d.neighborhood_loads().agrees_with(game.graph(), d.state()),
        }
    }
}

/// An arrival joins the conflict graph with a seeded random subset of
/// the existing vertices as neighbors (sorted, as `push_vertex` needs).
fn arrival_neighbors(n_existing: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_existing as u32)
        .filter(|_| rng.gen_range(0.0..1.0) < 0.4)
        .collect()
}

/// Replay `events` on a spatial game through `engine`: after every
/// event the re-settled state is certified spatial-Nash, the
/// neighborhood index never drifts from recomputation, and a fresh
/// engine on the final population certifies the fixed point in one
/// moveless round.
fn check_spatial_churn_replay(
    mut game: SpatialGame<ChurnGame>,
    start: SparseStrategies,
    events: &[Event],
    seed: u64,
    make: impl Fn(&SpatialGame<ChurnGame>, SparseStrategies) -> SpatialEngine,
) -> Result<(), TestCaseError> {
    let mut d = make(&game, start);
    let (converged, cycle) = d.run(&game);
    prop_assert!(converged || cycle, "initial: silent timeout");
    if !converged {
        return Ok(()); // an initial cycle ends the scenario explicitly
    }
    prop_assert!(is_nash_spatial(&game, d.state()));

    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Arrive { budget } => {
                let n = game.n_users();
                game.inner_mut().push_user(*budget);
                let nbrs = arrival_neighbors(n, seed ^ (i as u64).wrapping_mul(0x9E37));
                game.graph_mut().push_vertex(&nbrs);
                d.grow_users(&game);
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
                d.retire_user(&game, u);
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
                d.retire_user(&game, u);
                let n = game.n_users();
                game.inner_mut().push_user(*budget);
                let nbrs = arrival_neighbors(n, seed ^ (i as u64).wrapping_mul(0x9E37));
                game.graph_mut().push_vertex(&nbrs);
                d.grow_users(&game);
            }
            Event::RateShift { pick, factor } => {
                let c = ChannelId(pick % game.n_channels());
                let old = game.inner().rate(c);
                game.inner_mut().set_rate(c, old * factor);
                d.reprice_channel(&game, c);
            }
        }
        let (converged, cycle) = d.run(&game);
        prop_assert!(converged || cycle, "event {i} ({ev:?}): silent timeout");
        if !converged {
            return Ok(());
        }
        prop_assert!(
            is_nash_spatial(&game, d.state()),
            "event {i} ({ev:?}): settled state is not spatial-Nash — a wake was missed"
        );
        prop_assert!(
            d.index_agrees(&game),
            "event {i} ({ev:?}): neighborhood index drifted"
        );
    }

    // A fresh engine on the final population finds nothing to do.
    let grown = d.state().clone();
    let mut fresh = SpatialDynamics::new(&game, grown.clone());
    let (converged, rounds) = fresh.run(&game, 2, None);
    prop_assert!(converged);
    prop_assert_eq!(rounds, 1, "fixed point must certify in one sweep");
    prop_assert_eq!(fresh.counters().moves, 0, "fixed point admits no move");
    prop_assert!(fresh.state() == &grown, "from-scratch run must not drift");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spatial_churn_replay_matches_from_scratch(
        n in 4usize..12,
        k in 1u32..=3,
        c in 2usize..=5,
        seed in 0u64..1_000,
        range in 0.8f64..4.0,
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let (graph, _) = ConflictGraph::random_geometric(n, 5.0, range, seed);
        let game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
        let start = SparseStrategies::random_uniform(n, k, c, seed);

        // Sequential engine, heap route.
        check_spatial_churn_replay(game.clone(), start.clone(), &events, seed, |g, s| {
            SpatialEngine::Seq(SpatialDynamics::new(g, s))
        })?;
        // Sequential engine, forced generic (DP) route.
        let dp = SpatialGame::new(
            game.inner().clone().force_generic_route(),
            game.graph().clone(),
        );
        check_spatial_churn_replay(dp, start.clone(), &events, seed, |g, s| {
            SpatialEngine::Seq(SpatialDynamics::new(g, s))
        })?;
        // Parallel engine (heap route), 2 workers.
        check_spatial_churn_replay(game, start, &events, seed, |g, s| {
            SpatialEngine::Par(SpatialParallelDynamics::new(g, s, 2))
        })?;
    }
}

// ---------------------------------------------------------------------------
// Geometric arrivals: positions instead of explicit neighbor lists
// ---------------------------------------------------------------------------

use mrca_core::spatial::GeoIndex;

/// Side of the deployment square, matching `random_geometric` call sites.
const SIDE: f64 = 5.0;

/// Draw a seeded arrival position uniformly in the deployment square.
fn arrival_position(seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    (rng.gen_range(0.0..SIDE), rng.gen_range(0.0..SIDE))
}

/// Replay `events` where arrivals carry seeded *positions* and join the
/// conflict graph through the grid-bucketed [`GeoIndex`]
/// (`push_vertex_at`) rather than an explicit neighbor list. Beyond the
/// per-event Nash/index assertions this pins the incremental graph
/// against a from-scratch [`ConflictGraph::geometric`] rebuild over the
/// accumulated positions after every arrival — the two paths share the
/// cell hash and distance predicate, so any drift is a bug.
fn check_spatial_churn_replay_geo(
    mut game: SpatialGame<ChurnGame>,
    mut geo: GeoIndex,
    start: SparseStrategies,
    events: &[Event],
    seed: u64,
    make: impl Fn(&SpatialGame<ChurnGame>, SparseStrategies) -> SpatialEngine,
) -> Result<(), TestCaseError> {
    let mut d = make(&game, start);
    let (converged, cycle) = d.run(&game);
    prop_assert!(converged || cycle, "initial: silent timeout");
    if !converged {
        return Ok(());
    }
    prop_assert!(is_nash_spatial(&game, d.state()));

    let arrive = |game: &mut SpatialGame<ChurnGame>,
                  geo: &mut GeoIndex,
                  i: usize|
     -> Result<(), TestCaseError> {
        let p = arrival_position(seed ^ (i as u64).wrapping_mul(0x9E37));
        game.graph_mut().push_vertex_at(geo, p);
        prop_assert_eq!(
            game.graph(),
            &ConflictGraph::geometric(geo.positions(), geo.range()),
            "event {}: incremental geometric graph drifted from a from-scratch rebuild",
            i
        );
        Ok(())
    };

    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Arrive { budget } => {
                game.inner_mut().push_user(*budget);
                arrive(&mut game, &mut geo, i)?;
                d.grow_users(&game);
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
                d.retire_user(&game, u);
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
                d.retire_user(&game, u);
                game.inner_mut().push_user(*budget);
                arrive(&mut game, &mut geo, i)?;
                d.grow_users(&game);
            }
            Event::RateShift { pick, factor } => {
                let c = ChannelId(pick % game.n_channels());
                let old = game.inner().rate(c);
                game.inner_mut().set_rate(c, old * factor);
                d.reprice_channel(&game, c);
            }
        }
        let (converged, cycle) = d.run(&game);
        prop_assert!(converged || cycle, "event {i} ({ev:?}): silent timeout");
        if !converged {
            return Ok(());
        }
        prop_assert!(
            is_nash_spatial(&game, d.state()),
            "event {i} ({ev:?}): settled state is not spatial-Nash — a wake was missed"
        );
        prop_assert!(
            d.index_agrees(&game),
            "event {i} ({ev:?}): neighborhood index drifted"
        );
    }

    // A fresh engine on the final population finds nothing to do.
    let grown = d.state().clone();
    let mut fresh = SpatialDynamics::new(&game, grown.clone());
    let (converged, rounds) = fresh.run(&game, 2, None);
    prop_assert!(converged);
    prop_assert_eq!(rounds, 1, "fixed point must certify in one sweep");
    prop_assert_eq!(fresh.counters().moves, 0, "fixed point admits no move");
    prop_assert!(fresh.state() == &grown, "from-scratch run must not drift");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spatial_churn_with_geometric_arrivals_matches_from_scratch(
        n in 4usize..12,
        k in 1u32..=3,
        c in 2usize..=5,
        seed in 0u64..1_000,
        range in 0.8f64..4.0,
        events in prop::collection::vec(event_strategy(), 1..8),
    ) {
        let (graph, positions) = ConflictGraph::random_geometric(n, SIDE, range, seed);
        let geo = GeoIndex::new(&positions, range);
        let game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
        let start = SparseStrategies::random_uniform(n, k, c, seed);

        // Sequential engine, heap route.
        check_spatial_churn_replay_geo(
            game.clone(), geo.clone(), start.clone(), &events, seed,
            |g, s| SpatialEngine::Seq(SpatialDynamics::new(g, s)),
        )?;
        // Sequential engine, forced generic (DP) route.
        let dp = SpatialGame::new(
            game.inner().clone().force_generic_route(),
            game.graph().clone(),
        );
        check_spatial_churn_replay_geo(dp, geo.clone(), start.clone(), &events, seed, |g, s| {
            SpatialEngine::Seq(SpatialDynamics::new(g, s))
        })?;
        // Parallel engine (heap route), 2 workers.
        check_spatial_churn_replay_geo(game, geo, start, &events, seed, |g, s| {
            SpatialEngine::Par(SpatialParallelDynamics::new(g, s, 2))
        })?;
    }
}

// ---------------------------------------------------------------------------
// Move-for-move: every re-convergence equals the reference sweep
// ---------------------------------------------------------------------------

use mrca_core::br_fast::sweep_dynamics_traced;
use mrca_core::enumerate::user_strategy_space;

/// Apply one event to the sequential engine `d` and the game, exactly as
/// [`check_churn_replay`] does.
fn apply_event(game: &mut ChurnGame, d: &mut ActiveSetDynamics, ev: &Event) {
    let live = |game: &ChurnGame| -> Vec<usize> {
        (0..game.n_users())
            .filter(|&u| game.is_live(UserId(u)))
            .collect()
    };
    match ev {
        Event::Arrive { budget } => {
            game.push_user(*budget);
            d.grow_users(game).unwrap();
        }
        Event::Depart { pick } => {
            let live = live(game);
            if let Some(&u) = live.get(pick % live.len().max(1)) {
                game.retire(UserId(u));
                d.retire_user(game, UserId(u));
            }
        }
        Event::BudgetChange { pick, budget } => {
            let live = live(game);
            if let Some(&u) = live.get(pick % live.len().max(1)) {
                game.retire(UserId(u));
                d.retire_user(game, UserId(u));
                game.push_user(*budget);
                d.grow_users(game).unwrap();
            }
        }
        Event::RateShift { pick, factor } => {
            let c = ChannelId(pick % game.n_channels());
            let load = d.loads().load(c);
            let old = game.set_rate(c, game.rate(c) * factor);
            let f = move |t: u32| ChurnGame::payoff_at_rate(load, t, old);
            d.reprice_channel(game, c, &f);
        }
    }
}

/// Replay `events` through the sequential engine and, after the initial
/// settle and after every event, pin its re-convergence — move trace,
/// converged flag, round count and state — to the reference sweep run
/// from the same state with a fresh engine. Convergence itself is not
/// asserted: with mixed budgets a population may have no pure
/// equilibrium, and then both must hit the round cap identically.
fn check_churn_against_sweep(
    mut game: ChurnGame,
    start: SparseStrategies,
    events: &[Event],
) -> Result<(), TestCaseError> {
    let mut d = ActiveSetDynamics::new(&game, start);
    for i in 0..=events.len() {
        if i > 0 {
            apply_event(&mut game, &mut d, &events[i - 1]);
        }
        let from = d.state().clone();
        let mut trace = Vec::new();
        let (conv, rounds) = d.run(&game, MAX_ROUNDS, Some(&mut trace));
        let (swept, sconv, srounds, strace) = sweep_dynamics_traced(&game, from, MAX_ROUNDS);
        let at = if i == 0 {
            "initial settle".to_string()
        } else {
            format!("event {} ({:?})", i - 1, events[i - 1])
        };
        prop_assert_eq!(conv, sconv, "{}: converged flag", at);
        prop_assert_eq!(rounds, srounds, "{}: rounds", at);
        prop_assert_eq!(&trace, &strace, "{}: move trace", at);
        prop_assert!(d.state() == &swept, "{}: state", at);
    }
    Ok(())
}

/// A seeded event stream over the full rate-factor range `[0.4, 3]`
/// with mixed budgets (`1..=3`).
fn seeded_events(seed: u64, len: usize) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let pick = rng.gen_range(0..1_000_000usize);
            let budget = rng.gen_range(1..=3u32);
            match rng.gen_range(0..4u32) {
                0 => Event::Arrive { budget },
                1 => Event::Depart { pick },
                2 => Event::BudgetChange { pick, budget },
                _ => Event::RateShift {
                    pick,
                    factor: rng.gen_range(0.4..3.0),
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The proptest streams of [`churn_replay_matches_from_scratch`],
    /// pinned move for move to the sweep on both sequential routes.
    #[test]
    fn churn_replay_matches_sweep(
        n in 4usize..12,
        k in 1u32..=3,
        c in 2usize..=5,
        seed in 0u64..1_000,
        events in prop::collection::vec(event_strategy(), 1..10),
    ) {
        let game = ChurnGame::uniform(n, k, c, 1.0);
        let start = SparseStrategies::random_uniform(n, k, c, seed);
        check_churn_against_sweep(game.clone(), start.clone(), &events)?;
        check_churn_against_sweep(game.force_generic_route(), start, &events)?;
    }
}

/// A seeded grid of longer streams: rate cuts and raises anywhere in
/// `[0.4, 3]`, repeated shifts on few channels, mixed budgets, both
/// routes — each re-convergence pinned to the sweep. Rate shifts must
/// invalidate the heap engine's keys under an unchanged load; a stale
/// first-entry key once surfaced here as a diverging move sequence.
#[test]
fn seeded_churn_streams_match_sweep() {
    for n in [4usize, 8, 16] {
        for k in 1u32..=3 {
            for c in [2usize, 3, 5] {
                for seed in 0..6u64 {
                    let game = ChurnGame::uniform(n, k, c, 1.0);
                    let start = SparseStrategies::random_uniform(n, k, c, seed);
                    let events = seeded_events(seed ^ (n as u64) << 8 ^ (k as u64) << 16, 24);
                    for g in [game.clone(), game.force_generic_route()] {
                        let heap = g.payoff_is_separable_monotone();
                        check_churn_against_sweep(g, start.clone(), &events).unwrap_or_else(|e| {
                            panic!("n={n} k={k} c={c} seed={seed} heap={heap}: {e}")
                        });
                    }
                }
            }
        }
    }
}

/// Mixed budgets can leave a population with no pure Nash equilibrium:
/// budgets 3 and 1 on two equal constant-rate channels. Whichever
/// channel the single radio picks, the 3-radio user's best response
/// stacks two radios on it, which sends the single radio to the other
/// channel. Exhaustive enumeration finds no equilibrium, and round-robin
/// best responses cycle with period 2 on both routes until the round
/// cap.
#[test]
fn mixed_budgets_can_have_no_pure_equilibrium() {
    let game = ChurnGame::new(vec![3, 1], vec![1.0, 1.0]);
    let mut profiles = 0;
    for a in user_strategy_space(2, 3) {
        for b in user_strategy_space(2, 1) {
            let mut s = SparseStrategies::try_with_budgets(&[3, 1], 2).unwrap();
            let row = |v: &mrca_core::StrategyVector| -> Vec<(u32, u32)> {
                (0..2u32)
                    .map(|c| (c, v.counts()[c as usize]))
                    .filter(|&(_, t)| t > 0)
                    .collect()
            };
            s.set_row(UserId(0), &row(&a));
            s.set_row(UserId(1), &row(&b));
            assert!(
                !is_nash_sparse(&game, &s),
                "{a:?} / {b:?} is an equilibrium"
            );
            profiles += 1;
        }
    }
    assert!(profiles > 0);
    for g in [game.clone(), game.force_generic_route()] {
        let start = SparseStrategies::random_uniform(2, 1, 2, 0);
        let mut s = SparseStrategies::try_with_budgets(&[3, 1], 2).unwrap();
        s.set_row(UserId(1), start.row(UserId(1)));
        let mut d = ActiveSetDynamics::new(&g, s);
        let mut states = Vec::new();
        for _ in 0..6 {
            assert!(d.round(&g, None, None), "a round without a move");
            states.push(d.state().clone());
        }
        assert!(
            states[2..] == states[..4],
            "best responses cycle with period 2"
        );
        assert_ne!(states[0], states[1]);
        assert_eq!(d.run(&g, 40, None), (false, 40), "run hits its round cap");
    }
}
