//! Differential harness for the large-N fast paths: on randomized
//! instances of all three game variants, the heap best response, the
//! incremental (two-column-repair) DP and the full DP must agree with
//! each other and with exhaustive enumeration — in utility exactly (to
//! rounding), in argmax up to exact ties — and the sparse-path
//! [`ChannelLoads`] must equal the dense-path one. A maintenance
//! property additionally drives random move sequences through the
//! incremental repair logic and pins every intermediate state against
//! freshly-built engines, so the `O(log |C|)` repairs can never drift
//! from the oracle. A last pair of properties pins the row kernel the
//! spatial driver runs against the lazy heap, bit for bit.
//!
//! Runs under the default case count per property; the nightly deep-fuzz
//! CI job raises `PROPTEST_CASES` ~10x.

use mrca_core::br_dp::{self, ChannelGame};
use mrca_core::br_fast::{self, BrEngine};
use mrca_core::enumerate::user_strategy_space;
use mrca_core::heterogeneous::{HeteroConfig, HeteroGame};
use mrca_core::multi_rate::MultiRateGame;
use mrca_core::rate_model::{
    ConstantRate, ExponentialDecayRate, LinearDecayRate, RateModel, ScaledRate, StepRate,
};
use mrca_core::sparse::SparseStrategies;
use mrca_core::{ChannelId, ChannelLoads, GameConfig, StrategyMatrix, UserId};
use proptest::prelude::*;
use std::sync::Arc;

/// The cross-engine invariant harness. `naive_utility` is the concrete
/// game's independent column-scanning utility, used both as the replay
/// oracle and for the exhaustive enumeration.
fn check_fast_paths<G: ChannelGame>(
    game: &G,
    naive_utility: &dyn Fn(&StrategyMatrix, UserId) -> f64,
    m: &StrategyMatrix,
) -> Result<(), TestCaseError> {
    let loads = ChannelLoads::of(m);
    let sp = SparseStrategies::from_matrix(game, m);

    // Sparse-path loads == dense-path loads, and the bridge round-trips.
    prop_assert_eq!(&ChannelLoads::of_sparse(&sp), &loads, "sparse loads");
    prop_assert_eq!(&sp.to_dense(), m, "sparse round trip");

    let mut engine = BrEngine::new(game, &loads);
    let heap_expected = game.payoff_is_separable_monotone() && !game.may_idle_radios();
    prop_assert_eq!(engine.is_heap(), heap_expected, "engine routing");
    let dp_cache = br_fast::DpCache::new(game, &loads);

    for u in UserId::all(game.n_users()) {
        // Oracle: the full DP.
        let (full_br, full_v) = br_dp::best_response_cached(game, m, &loads, u);
        // Sparse Eq.-3 reader == dense cached reader, bit-for-bit.
        prop_assert_eq!(
            br_fast::utility_sparse(game, &sp, &loads, u).to_bits(),
            br_dp::utility_cached(game, m, &loads, u).to_bits(),
            "sparse utility, user {}",
            u
        );

        // Incremental DP == full DP, bit-for-bit (same recurrence, same
        // payoff calls by construction).
        let (inc_br, inc_v) = dp_cache.best_response(game, sp.row(u), &loads, u);
        prop_assert_eq!(
            inc_v.to_bits(),
            full_v.to_bits(),
            "DpCache value, user {}",
            u
        );
        let inc_dense: Vec<u32> = {
            let mut counts = vec![0u32; game.n_channels()];
            for &(c, k) in &inc_br {
                counts[c as usize] = k;
            }
            counts
        };
        prop_assert_eq!(
            &inc_dense[..],
            full_br.counts(),
            "DpCache argmax, user {}",
            u
        );

        // Engine best response (heap where eligible): utility equal to
        // rounding, argmax achieving exactly its claimed value.
        let (eng_br, eng_v) = engine.best_response(game, sp.row(u), &loads, u);
        let scale = full_v.abs().max(1.0);
        prop_assert!(
            (eng_v - full_v).abs() <= 1e-12 * scale,
            "engine value {} vs full DP {} (user {})",
            eng_v,
            full_v,
            u
        );
        let mut replayed = m.clone();
        let mut counts = vec![0u32; game.n_channels()];
        let mut deployed = 0u32;
        for &(c, k) in &eng_br {
            counts[c as usize] = k;
            deployed += k;
        }
        if !game.may_idle_radios() {
            prop_assert_eq!(deployed, game.radios_of(u), "engine must deploy all radios");
        }
        replayed.set_user_strategy(u, &mrca_core::StrategyVector::from_counts(counts));
        let achieved = naive_utility(&replayed, u);
        prop_assert!(
            (achieved - eng_v).abs() <= 1e-12 * scale,
            "engine argmax achieves {} but claims {} (user {})",
            achieved,
            eng_v,
            u
        );

        // Full DP == exhaustive enumeration of the user's whole space.
        let mut best = f64::NEG_INFINITY;
        for cand in user_strategy_space(game.n_channels(), game.radios_of(u)) {
            let mut alt = m.clone();
            alt.set_user_strategy(u, &cand);
            best = best.max(naive_utility(&alt, u));
        }
        prop_assert!(
            (full_v - best).abs() <= 1e-9 * best.abs().max(1.0),
            "user {}: DP {} vs enumeration {}",
            u,
            full_v,
            best
        );
    }
    Ok(())
}

/// The incremental-maintenance invariant: drive a random sequence of
/// row replacements through the `O(log |C|)` / two-column repairs and
/// pin every intermediate state against freshly-built engines.
fn check_incremental_maintenance<G: ChannelGame>(
    game: &G,
    m: &StrategyMatrix,
    steps: usize,
) -> Result<(), TestCaseError> {
    let mut sp = SparseStrategies::from_matrix(game, m);
    let mut loads = ChannelLoads::of_sparse(&sp);
    let mut engine = BrEngine::new(game, &loads);
    let mut dp_cache = br_fast::DpCache::new(game, &loads);
    let n = game.n_users();
    for step in 0..steps {
        let u = UserId(step % n);
        // Move the user to its best response, repairing incrementally.
        let (br, _) = engine.best_response(game, sp.row(u), &loads, u);
        let old = sp.row(u).to_vec();
        loads.replace_sparse_row(&old, &br);
        let touched = mrca_core::sparse::touched_channels(&old, &br);
        sp.set_row(u, &br);
        engine.repair(game, &loads, &touched);
        dp_cache.repair(game, &loads, &touched);

        // Repaired loads == from-scratch loads.
        prop_assert_eq!(
            &ChannelLoads::of_sparse(&sp),
            &loads,
            "loads after step {}",
            step
        );

        // Repaired engines == freshly-built engines for every user.
        let mut fresh_engine = BrEngine::new(game, &loads);
        let fresh_dp = br_fast::DpCache::new(game, &loads);
        for v in UserId::all(n) {
            let (rb, rv) = engine.best_response(game, sp.row(v), &loads, v);
            let (fb, fv) = fresh_engine.best_response(game, sp.row(v), &loads, v);
            prop_assert_eq!(
                rv.to_bits(),
                fv.to_bits(),
                "engine value, step {} user {}",
                step,
                v
            );
            prop_assert_eq!(&rb, &fb, "engine argmax, step {} user {}", step, v);
            let (ib, iv) = dp_cache.best_response(game, sp.row(v), &loads, v);
            let (jb, jv) = fresh_dp.best_response(game, sp.row(v), &loads, v);
            prop_assert_eq!(
                iv.to_bits(),
                jv.to_bits(),
                "DpCache value, step {} user {}",
                step,
                v
            );
            prop_assert_eq!(&ib, &jb, "DpCache argmax, step {} user {}", step, v);
        }
    }
    Ok(())
}

/// Small configurations, biased toward the conflict regime.
fn config_strategy() -> impl Strategy<Value = GameConfig> {
    (1usize..=4, 1u32..=3, 1usize..=4).prop_filter_map("k <= |C|", |(n, k, c)| {
        GameConfig::new(n, k, c.max(k as usize)).ok()
    })
}

/// Concave-sharing models (heap-eligible): constants and scaled
/// constants.
fn concave_rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (0usize..3, 0.25f64..8.0).prop_map(|(kind, x)| match kind {
        0 => Arc::new(ConstantRate::new(1.0)) as Arc<dyn RateModel>,
        1 => Arc::new(ConstantRate::new(x)),
        _ => Arc::new(ScaledRate::new(ConstantRate::new(2.0), x)),
    })
}

/// Non-concave models (DP-fallback): decaying families.
fn decaying_rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (0usize..3, proptest::collection::vec(0.01f64..1.0, 16)).prop_map(|(kind, drops)| match kind {
        0 => Arc::new(LinearDecayRate::new(10.0, 0.7, 0.5)) as Arc<dyn RateModel>,
        1 => Arc::new(ExponentialDecayRate::new(8.0, 0.8)),
        _ => {
            let mut v = Vec::with_capacity(16);
            let mut r = 50.0f64;
            for d in drops {
                v.push(r);
                r = (r - d).max(0.5);
            }
            Arc::new(StepRate::new("prop", v))
        }
    })
}

/// Either family with equal weight, so every property exercises both
/// engine routes.
fn rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (
        proptest::bool::ANY,
        concave_rate_strategy(),
        decaying_rate_strategy(),
    )
        .prop_map(|(concave, c, d)| if concave { c } else { d })
}

/// A matrix where user `i` deploys up to `budgets[i]` radios on random
/// channels (under-deployment exercises row growth and the Lemma-1 side).
fn matrix_for_budgets(
    budgets: Vec<u32>,
    n_channels: usize,
) -> impl Strategy<Value = StrategyMatrix> {
    let n = budgets.len();
    let max_k = budgets.iter().copied().max().unwrap_or(1) as usize;
    proptest::collection::vec(
        (
            0usize..=max_k,
            proptest::collection::vec(0usize..n_channels, max_k),
        ),
        n,
    )
    .prop_map(move |users| {
        let mut m = StrategyMatrix::zeros(n, n_channels);
        for (u, (deployed, places)) in users.iter().enumerate() {
            let cap = budgets[u] as usize;
            for ch in places.iter().take((*deployed).min(cap)) {
                let cur = m.get(UserId(u), ChannelId(*ch));
                m.set(UserId(u), ChannelId(*ch), cur + 1);
            }
        }
        m
    })
}

fn homogeneous_instance(
) -> impl Strategy<Value = (mrca_core::ChannelAllocationGame, StrategyMatrix)> {
    (config_strategy(), rate_strategy()).prop_flat_map(|(cfg, rate)| {
        let game = mrca_core::ChannelAllocationGame::new(cfg, rate);
        matrix_for_budgets(vec![cfg.radios_per_user(); cfg.n_users()], cfg.n_channels())
            .prop_map(move |m| (game.clone(), m))
    })
}

fn hetero_instance() -> impl Strategy<Value = (HeteroGame, StrategyMatrix)> {
    (1usize..=4, 1usize..=4, rate_strategy())
        .prop_flat_map(|(n, c, rate)| {
            (
                proptest::collection::vec(1u32..=c as u32, n),
                Just(c),
                Just(rate),
            )
        })
        .prop_flat_map(|(budgets, c, rate)| {
            let game = HeteroGame::new(HeteroConfig::new(budgets.clone(), c).unwrap(), rate);
            matrix_for_budgets(budgets, c).prop_map(move |m| (game.clone(), m))
        })
}

fn multi_rate_instance() -> impl Strategy<Value = (MultiRateGame, StrategyMatrix)> {
    (
        config_strategy(),
        proptest::collection::vec(rate_strategy(), 4),
        // Half the instances force an all-concave channel set so the
        // multi-rate heap route is exercised, not just hit by luck.
        proptest::bool::ANY,
        proptest::collection::vec(concave_rate_strategy(), 4),
    )
        .prop_flat_map(|(cfg, rates, all_concave, concave_rates)| {
            let pool: Vec<Arc<dyn RateModel>> = if all_concave {
                concave_rates
                    .into_iter()
                    .map(|r| r as Arc<dyn RateModel>)
                    .collect()
            } else {
                rates
            };
            let per_channel: Vec<Arc<dyn RateModel>> = (0..cfg.n_channels())
                .map(|c| Arc::clone(&pool[c % pool.len()]))
                .collect();
            let game = MultiRateGame::new(cfg, per_channel).unwrap();
            matrix_for_budgets(vec![cfg.radios_per_user(); cfg.n_users()], cfg.n_channels())
                .prop_map(move |m| (game.clone(), m))
        })
}

/// The active-set worklist must reproduce the reference full sweep
/// **bit for bit**: identical move traces, identical final states,
/// identical round counts, on every game variant and both engine routes.
/// Additionally pins the counters' books: the worklist never performs
/// more checks than the sweep, and `checks + skipped == rounds · |N|`.
fn check_active_set_equals_sweep<G: ChannelGame>(
    game: &G,
    m: &StrategyMatrix,
) -> Result<(), TestCaseError> {
    let sp = SparseStrategies::from_matrix(game, m);
    let (swept, sconv, srounds, strace) = br_fast::sweep_dynamics_traced(game, sp.clone(), 60);
    let (active, aconv, arounds, atrace) =
        br_fast::best_response_dynamics_sparse_traced(game, sp.clone(), 60);
    prop_assert_eq!(aconv, sconv, "converged");
    prop_assert_eq!(arounds, srounds, "rounds");
    prop_assert_eq!(&atrace, &strace, "move trace");
    prop_assert_eq!(&active.to_dense(), &swept.to_dense(), "final state");

    let (_, _, _, counters) = br_fast::best_response_dynamics_sparse_counted(game, sp, 60);
    let n = game.n_users() as u64;
    prop_assert_eq!(counters.moves as usize, strace.len(), "move count");
    prop_assert!(counters.checks <= arounds as u64 * n, "no extra checks");
    prop_assert_eq!(
        counters.checks + counters.skipped_checks,
        arounds as u64 * n,
        "check accounting"
    );
    Ok(())
}

/// Worklist starvation and re-activation thresholds on a *persistent*
/// engine: converge, re-run on the drained worklist (zero checks), then
/// perturb rows externally and pin the event-driven recovery against a
/// fresh sweep from the same perturbed state.
fn check_perturb_recovery<G: ChannelGame>(
    game: &G,
    m: &StrategyMatrix,
    perturbed_users: usize,
) -> Result<(), TestCaseError> {
    let sp = SparseStrategies::from_matrix(game, m);
    let mut d = br_fast::ActiveSetDynamics::new(game, sp);
    let (conv, _) = d.run(game, 60, None);
    if !conv {
        return Ok(()); // pathological non-convergence: nothing to pin
    }
    // Worklist starvation: a drained engine converges in one empty round
    // without a single engine query.
    let before = d.counters();
    let (conv2, rounds2) = d.run(game, 60, None);
    prop_assert!(conv2);
    prop_assert_eq!(rounds2, 1, "drained worklist converges immediately");
    prop_assert_eq!(
        d.counters().checks,
        before.checks,
        "no checks on a drained worklist"
    );
    prop_assert_eq!(
        d.counters().moves,
        before.moves,
        "no moves on a drained worklist"
    );

    // Re-activation thresholds: stack each perturbed user's radios on its
    // first legal channel (a maximal disturbance of the parked slacks),
    // then the active-set recovery must equal a full sweep bit for bit.
    let n = game.n_users();
    for i in 0..perturbed_users.min(n) {
        let u = UserId((i * n.div_euclid(perturbed_users.min(n)).max(1)) % n);
        let k = game.radios_of(u);
        d.apply_row(game, u, &[(0, k)]);
    }
    let perturbed = d.state().clone();
    let (swept, sconv, _, strace) = br_fast::sweep_dynamics_traced(game, perturbed, 60);
    let mut trace = Vec::new();
    let (aconv, _) = d.run(game, 60, Some(&mut trace));
    prop_assert_eq!(aconv, sconv, "perturbed convergence");
    prop_assert_eq!(&trace, &strace, "perturbed move trace");
    prop_assert_eq!(
        &d.state().to_dense(),
        &swept.to_dense(),
        "perturbed final state"
    );
    Ok(())
}

proptest! {
    /// Homogeneous game: heap == incremental DP == full DP == enumeration.
    #[test]
    fn homogeneous_fast_paths_agree(instance in homogeneous_instance()) {
        let (game, m) = instance;
        check_fast_paths(&game, &|s, u| game.utility(s, u), &m)?;
    }

    /// Homogeneous game: active-set dynamics == full-sweep dynamics
    /// (both engine routes via the mixed rate strategy).
    #[test]
    fn homogeneous_active_set_equals_sweep(instance in homogeneous_instance()) {
        let (game, m) = instance;
        check_active_set_equals_sweep(&game, &m)?;
    }

    /// Heterogeneous budgets: active-set == sweep.
    #[test]
    fn hetero_active_set_equals_sweep(instance in hetero_instance()) {
        let (game, m) = instance;
        check_active_set_equals_sweep(&game, &m)?;
    }

    /// Per-channel rates: active-set == sweep.
    #[test]
    fn multi_rate_active_set_equals_sweep(instance in multi_rate_instance()) {
        let (game, m) = instance;
        check_active_set_equals_sweep(&game, &m)?;
    }

    /// Worklist starvation + threshold re-activation after external
    /// perturbations, homogeneous instances.
    #[test]
    fn homogeneous_perturb_recovery_matches_sweep(instance in homogeneous_instance()) {
        let (game, m) = instance;
        check_perturb_recovery(&game, &m, 2)?;
    }

    /// Same perturbation pin for heterogeneous budgets.
    #[test]
    fn hetero_perturb_recovery_matches_sweep(instance in hetero_instance()) {
        let (game, m) = instance;
        check_perturb_recovery(&game, &m, 2)?;
    }

    /// Same perturbation pin for per-channel rates.
    #[test]
    fn multi_rate_perturb_recovery_matches_sweep(instance in multi_rate_instance()) {
        let (game, m) = instance;
        check_perturb_recovery(&game, &m, 2)?;
    }

    /// Heterogeneous budgets: all fast paths agree.
    #[test]
    fn hetero_fast_paths_agree(instance in hetero_instance()) {
        let (game, m) = instance;
        check_fast_paths(&game, &|s, u| game.utility(s, u), &m)?;
    }

    /// Per-channel rates: all fast paths agree (heap route included when
    /// every channel is concave-sharing).
    #[test]
    fn multi_rate_fast_paths_agree(instance in multi_rate_instance()) {
        let (game, m) = instance;
        check_fast_paths(&game, &|s, u| game.utility(s, u), &m)?;
    }

    /// Incremental repairs never drift from freshly-built engines, on
    /// either engine route.
    #[test]
    fn incremental_repairs_match_fresh_engines(instance in homogeneous_instance()) {
        let (game, m) = instance;
        check_incremental_maintenance(&game, &m, 6)?;
    }

    /// Same maintenance pin for heterogeneous budgets.
    #[test]
    fn hetero_incremental_repairs_match_fresh_engines(instance in hetero_instance()) {
        let (game, m) = instance;
        check_incremental_maintenance(&game, &m, 6)?;
    }

    /// On the DP-fallback route the sparse dynamics are bit-identical to
    /// the dense dynamics — trace, rounds and final state (the engines
    /// share one recurrence and one payoff sequence by construction).
    #[test]
    fn dp_route_dynamics_are_bit_identical(instance in (
        config_strategy(),
        decaying_rate_strategy(),
    )) {
        let (cfg, rate) = instance;
        let game = mrca_core::ChannelAllocationGame::new(cfg, rate);
        prop_assert!(!game.payoff_is_separable_monotone());
        let start = mrca_core::dynamics::random_start(&game, 7);
        let (dense, dconv, drounds, dtrace) =
            br_dp::best_response_dynamics_traced(&game, start.clone(), 100);
        let sp = SparseStrategies::from_matrix(&game, &start);
        let (sparse, sconv, srounds, strace) =
            br_fast::best_response_dynamics_sparse_traced(&game, sp, 100);
        prop_assert_eq!(dconv, sconv);
        prop_assert_eq!(drounds, srounds);
        prop_assert_eq!(&dtrace, &strace);
        prop_assert_eq!(&sparse.to_dense(), &dense);
    }
}

// ---------------------------------------------------------------------------
// Permuted rounds: the active set under a per-round rank permutation
// ---------------------------------------------------------------------------

use mrca_core::game::improves;
use mrca_core::sparse::touched_channels_into;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `rounds` per-round rank tables (`rank[u]` = position of user `u` in
/// that round's activation order), each a fresh shuffle drawn from
/// `seed` — the schedule `BestResponseDriver::run_sparse` feeds
/// `ActiveSetDynamics::round` under `Schedule::RandomPermutation`.
fn rank_tables(n: usize, rounds: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    (0..rounds)
        .map(|_| {
            order.shuffle(&mut rng);
            let mut rank = vec![0u32; n];
            for (i, &u) in order.iter().enumerate() {
                rank[u] = i as u32;
            }
            rank
        })
        .collect()
}

type PermOutcome = (
    SparseStrategies,
    bool,
    usize,
    Vec<(UserId, mrca_core::StrategyVector)>,
);

/// The reference sweep under the same schedule: round `r` checks every
/// user in ascending `ranks[r]` order against a fresh engine, exactly as
/// [`br_fast::sweep_dynamics_traced`] does in id order.
fn permuted_sweep<G: ChannelGame>(
    game: &G,
    mut s: SparseStrategies,
    ranks: &[Vec<u32>],
) -> PermOutcome {
    let mut loads = ChannelLoads::of_sparse(&s);
    let mut engine = BrEngine::new(game, &loads);
    let mut trace = Vec::new();
    let mut touched = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let mut order: Vec<usize> = (0..rank.len()).collect();
        order.sort_unstable_by_key(|&u| rank[u]);
        let mut moved = false;
        for u in order.into_iter().map(UserId) {
            let before = br_fast::utility_sparse(game, &s, &loads, u);
            let (br, after) = engine.best_response(game, s.row(u), &loads, u);
            if improves(before, after) {
                let old = s.row(u).to_vec();
                loads.replace_sparse_row(&old, &br);
                touched_channels_into(&old, &br, &mut touched);
                s.set_row(u, &br);
                engine.repair(game, &loads, &touched);
                let mut counts = vec![0u32; game.n_channels()];
                for &(c, t) in &br {
                    counts[c as usize] = t;
                }
                trace.push((u, mrca_core::StrategyVector::from_counts(counts)));
                moved = true;
            }
        }
        if !moved {
            return (s, true, r + 1, trace);
        }
    }
    let rounds = ranks.len();
    (s, false, rounds, trace)
}

/// The active-set worklist under per-round permutations must equal the
/// permuted sweep move for move — including temptations a mid-round move
/// raises for users ranked later in the same round.
fn check_permuted_active_set_equals_sweep<G: ChannelGame>(
    game: &G,
    sp: SparseStrategies,
    seed: u64,
) -> Result<(), TestCaseError> {
    let ranks = rank_tables(game.n_users(), 200, seed ^ 0xabc);
    let (swept, sconv, srounds, strace) = permuted_sweep(game, sp.clone(), &ranks);
    let mut d = br_fast::ActiveSetDynamics::new(game, sp);
    let mut trace = Vec::new();
    let mut rounds = ranks.len();
    let mut conv = false;
    for (r, rank) in ranks.iter().enumerate() {
        if !d.round(game, Some(rank), Some(&mut trace)) {
            (conv, rounds) = (true, r + 1);
            break;
        }
    }
    prop_assert_eq!(conv, sconv, "converged");
    prop_assert_eq!(rounds, srounds, "rounds");
    prop_assert_eq!(&trace, &strace, "move trace");
    prop_assert_eq!(&d.state().to_dense(), &swept.to_dense(), "final state");
    Ok(())
}

proptest! {
    /// Per-round permutations: active-set == permuted sweep, on both
    /// engine routes (the mixed rate strategy), homogeneous budgets.
    #[test]
    fn permuted_active_set_equals_sweep(instance in homogeneous_instance(), seed in 0u64..1_000) {
        let (game, m) = instance;
        check_permuted_active_set_equals_sweep(&game, SparseStrategies::from_matrix(&game, &m), seed)?;
    }

    /// Same pin for heterogeneous budgets.
    #[test]
    fn hetero_permuted_active_set_equals_sweep(instance in hetero_instance(), seed in 0u64..1_000) {
        let (game, m) = instance;
        check_permuted_active_set_equals_sweep(&game, SparseStrategies::from_matrix(&game, &m), seed)?;
    }
}

/// A seeded grid of constant-rate instances under per-round
/// permutations. A move that raises the temptation horizon mid-round
/// must schedule the non-occupants it tempts whose rank is still ahead;
/// a round that drained temptations only at its start once missed them
/// here.
#[test]
fn seeded_permuted_rounds_match_sweep() {
    for n in [10usize, 20, 40] {
        for k in 1u32..=3 {
            for c in [3usize, 4, 6, 8] {
                for seed in 0..40u64 {
                    let game = mrca_core::ChannelAllocationGame::with_constant_rate(
                        GameConfig::new(n, k, c).unwrap(),
                        1.0,
                    );
                    let sp = SparseStrategies::random_uniform(n, k, c, seed);
                    check_permuted_active_set_equals_sweep(&game, sp, seed)
                        .unwrap_or_else(|e| panic!("n={n} k={k} c={c} seed={seed}: {e}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The row kernel vs the lazy heap
// ---------------------------------------------------------------------------

use mrca_core::spatial::RowKernel;

/// The row kernel vs the lazy heap, bit for bit: same marginal multiset,
/// same tie rule, same ascending-channel value association — so
/// identical allocation and identical value on every query. The spatial
/// driver answers every heap-route query through this kernel; here the
/// row is the global load vector's nonzero cells.
fn check_kernel_matches_heap<G: ChannelGame>(
    game: &G,
    m: &StrategyMatrix,
) -> Result<(), TestCaseError> {
    if !game.payoff_is_separable_monotone() || game.may_idle_radios() {
        return Ok(()); // DP route: the kernel's precondition fails
    }
    let sp = SparseStrategies::from_matrix(game, m);
    let loads = ChannelLoads::of_sparse(&sp);
    let mut engine = BrEngine::new(game, &loads);
    prop_assert!(engine.is_heap(), "engine routing");
    let mut kernel = RowKernel::new(game);
    for u in UserId::all(game.n_users()) {
        let row = sp.row(u);
        let (hb, hv) = engine.best_response(game, row, &loads, u);
        for (c, &l) in loads.as_slice().iter().enumerate() {
            if l > 0 {
                kernel.push_cell(c as u32, l);
            }
        }
        let mut kb = Vec::new();
        let (_, kv) = kernel.best_response_into(game, row, game.radios_of(u), &mut kb);
        prop_assert_eq!(&kb, &hb, "kernel argmax, user {}", u);
        prop_assert_eq!(kv.to_bits(), hv.to_bits(), "kernel value, user {}", u);
    }
    Ok(())
}

/// Small configurations with at least two users, biased toward many
/// users per channel.
fn crowded_config_strategy() -> impl Strategy<Value = GameConfig> {
    (2usize..=6, 1u32..=3, 1usize..=4).prop_filter_map("k <= |C|", |(n, k, c)| {
        GameConfig::new(n, k, c.max(k as usize)).ok()
    })
}

/// Concave-rate homogeneous instances (heap/kernel route).
fn constant_instance() -> impl Strategy<Value = (mrca_core::ChannelAllocationGame, StrategyMatrix)>
{
    (crowded_config_strategy(), concave_rate_strategy()).prop_flat_map(|(cfg, rate)| {
        let game = mrca_core::ChannelAllocationGame::new(cfg, rate);
        matrix_for_budgets(vec![cfg.radios_per_user(); cfg.n_users()], cfg.n_channels())
            .prop_map(move |m| (game.clone(), m))
    })
}

/// Concave-rate heterogeneous-budget instances (heap/kernel route).
fn concave_hetero_instance() -> impl Strategy<Value = (HeteroGame, StrategyMatrix)> {
    (2usize..=6, 1usize..=4, concave_rate_strategy())
        .prop_flat_map(|(n, c, rate)| {
            (
                proptest::collection::vec(1u32..=c as u32, n),
                Just(c),
                Just(rate),
            )
        })
        .prop_flat_map(|(budgets, c, rate)| {
            let game = HeteroGame::new(HeteroConfig::new(budgets.clone(), c).unwrap(), rate);
            matrix_for_budgets(budgets, c).prop_map(move |m| (game.clone(), m))
        })
}

proptest! {
    /// The row kernel is bit-identical to the lazy heap on every query of
    /// every heap-eligible instance.
    #[test]
    fn kernel_is_bit_identical_to_heap(instance in constant_instance()) {
        let (game, m) = instance;
        check_kernel_matches_heap(&game, &m)?;
    }

    /// Same kernel pin under heterogeneous budgets (per-user `k` hits
    /// differently-sized selections against one zero-load order).
    #[test]
    fn kernel_matches_heap_hetero(instance in concave_hetero_instance()) {
        let (game, m) = instance;
        check_kernel_matches_heap(&game, &m)?;
    }
}
