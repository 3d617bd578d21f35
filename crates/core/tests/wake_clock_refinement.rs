//! Differential suite for the generic-route wake-clock refinement: the
//! per-channel column-delta walk that re-parks delivered users without a
//! full engine check must be a **pure optimization**. On every game
//! variant the DP route serves — heterogeneous budgets, per-channel
//! rates, measured tables, churn and reprice streams — the refined
//! engine's move trace, round count and final state must be
//! bit-identical to both the refinement-disabled engine and the
//! full-sweep oracle; only the work counters may differ (fewer checks,
//! never more).
//!
//! Runs under the default case count per property; the nightly deep-fuzz
//! CI job raises `PROPTEST_CASES` ~10x.

use mrca_core::br_dp::ChannelGame;
use mrca_core::br_fast::{self, ActiveSetDynamics, DynCounters};
use mrca_core::churn::ChurnGame;
use mrca_core::heterogeneous::HeteroGame;
use mrca_core::rate_model::{
    ExponentialDecayRate, LinearDecayRate, MeasuredRate, RateModel, RateShape, StepRate,
};
use mrca_core::sparse::SparseStrategies;
use mrca_core::{ChannelId, GameConfig, StrategyMatrix, StrategyVector, UserId};
use proptest::prelude::*;
use std::sync::Arc;

const MAX_ROUNDS: usize = 200;

type Trace = Vec<(UserId, StrategyVector)>;

/// Run the active-set worklist with the refinement toggled, returning
/// everything the equivalence pins compare.
fn run_toggled<G: ChannelGame>(
    game: &G,
    sp: SparseStrategies,
    refined: bool,
) -> (SparseStrategies, bool, usize, Trace, DynCounters) {
    let mut d = ActiveSetDynamics::new(game, sp);
    d.set_refined(refined);
    let mut trace = Vec::new();
    let (conv, rounds) = d.run(game, MAX_ROUNDS, Some(&mut trace));
    let counters = d.counters();
    (d.into_state(), conv, rounds, trace, counters)
}

/// The central pin: refined == unrefined == sweep, bit for bit, and the
/// refinement can only *save* checks. Valid on any game; on the heap
/// route the refinement is inert by construction (`concave` guard), so
/// the pin degenerates to the existing active-set/sweep equality.
fn check_refinement_is_pure_optimization<G: ChannelGame>(
    game: &G,
    m: &StrategyMatrix,
) -> Result<(), TestCaseError> {
    let sp = SparseStrategies::from_matrix(game, m);
    let (swept, sconv, srounds, strace) =
        br_fast::sweep_dynamics_traced(game, sp.clone(), MAX_ROUNDS);
    let (ron, conv_on, rounds_on, trace_on, cnt_on) = run_toggled(game, sp.clone(), true);
    let (roff, conv_off, rounds_off, trace_off, cnt_off) = run_toggled(game, sp, false);

    prop_assert_eq!(conv_on, sconv, "refined vs sweep: converged");
    prop_assert_eq!(rounds_on, srounds, "refined vs sweep: rounds");
    prop_assert_eq!(&trace_on, &strace, "refined vs sweep: move trace");
    prop_assert_eq!(
        &ron.to_dense(),
        &swept.to_dense(),
        "refined vs sweep: state"
    );

    prop_assert_eq!(conv_on, conv_off, "toggle: converged");
    prop_assert_eq!(rounds_on, rounds_off, "toggle: rounds");
    prop_assert_eq!(&trace_on, &trace_off, "toggle: move trace");
    prop_assert_eq!(&ron, &roff, "toggle: final state");

    prop_assert_eq!(cnt_on.moves, cnt_off.moves, "toggle: moves");
    prop_assert!(
        cnt_on.checks <= cnt_off.checks,
        "refinement must never add checks ({} > {})",
        cnt_on.checks,
        cnt_off.checks
    );
    prop_assert_eq!(
        cnt_off.refined_reparks,
        0,
        "disabled => no refined re-parks"
    );
    let n = game.n_users() as u64;
    for (label, cnt, rounds) in [("on", &cnt_on, rounds_on), ("off", &cnt_off, rounds_off)] {
        prop_assert_eq!(
            cnt.checks + cnt.skipped_checks,
            rounds as u64 * n,
            "check accounting, refined {}",
            label
        );
    }
    Ok(())
}

/// Converge, perturb rows externally, and pin the refined recovery —
/// deliveries here arrive with live park anchors, the case the walk
/// actually refines — against both the sweep oracle and the unrefined
/// twin driven through the identical operation sequence.
fn check_perturbed_recovery<G: ChannelGame>(
    game: &G,
    m: &StrategyMatrix,
) -> Result<(), TestCaseError> {
    let sp = SparseStrategies::from_matrix(game, m);
    let mut on = ActiveSetDynamics::new(game, sp.clone());
    let mut off = ActiveSetDynamics::new(game, sp);
    off.set_refined(false);
    let (conv, _) = on.run(game, MAX_ROUNDS, None);
    let _ = off.run(game, MAX_ROUNDS, None);
    if !conv {
        return Ok(()); // pathological non-convergence: nothing to pin
    }

    let n = game.n_users();
    for i in 0..2usize.min(n) {
        let u = UserId((i * (n / 2).max(1)) % n);
        let k = game.radios_of(u);
        on.apply_row(game, u, &[(0, k)]);
        off.apply_row(game, u, &[(0, k)]);
    }
    let perturbed = on.state().clone();
    let (swept, sconv, _, strace) = br_fast::sweep_dynamics_traced(game, perturbed, MAX_ROUNDS);
    let (mut ton, mut toff) = (Vec::new(), Vec::new());
    let (aconv, _) = on.run(game, MAX_ROUNDS, Some(&mut ton));
    let (bconv, _) = off.run(game, MAX_ROUNDS, Some(&mut toff));
    prop_assert_eq!(aconv, sconv, "perturbed convergence");
    prop_assert_eq!(&ton, &strace, "perturbed trace vs sweep");
    prop_assert_eq!(&ton, &toff, "perturbed trace vs unrefined twin");
    prop_assert_eq!(aconv, bconv);
    prop_assert_eq!(&on.state().to_dense(), &swept.to_dense(), "perturbed state");
    prop_assert_eq!(on.state(), off.state(), "twin state");
    Ok(())
}

// ---- instance strategies (DP-route biased) --------------------------

fn config_strategy() -> impl Strategy<Value = GameConfig> {
    (1usize..=4, 1u32..=3, 1usize..=4).prop_filter_map("k <= |C|", |(n, k, c)| {
        GameConfig::new(n, k, c.max(k as usize)).ok()
    })
}

/// Decaying (generic-route) rate families — the refinement's territory.
fn decaying_rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (0usize..3, proptest::collection::vec(0.05f64..1.0, 16)).prop_map(|(kind, drops)| match kind {
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

/// Harvested-style tables: a decaying mean with multiplicative noise and
/// proportional CI half-widths. The raw table may be non-monotone (the
/// served envelope restores the contract), so instances land on every
/// [`RateShape`] except concave — exactly the generic-route population
/// the measured pipeline produces.
fn measured_rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (
        1.0f64..50.0,
        proptest::collection::vec(0.85f64..1.15, 8),
        0.0f64..0.1,
    )
        .prop_map(|(base, noise, ci_frac)| {
            let mean: Vec<f64> = noise
                .iter()
                .enumerate()
                .map(|(i, w)| base / (i as f64 + 1.0).sqrt() * w)
                .collect();
            let ci: Vec<f64> = mean.iter().map(|m| m * ci_frac).collect();
            Arc::new(MeasuredRate::new("prop-measured", "strategy", mean, ci, 4))
                as Arc<dyn RateModel>
        })
}

fn homogeneous_instance(
    rates: impl Strategy<Value = Arc<dyn RateModel>>,
) -> impl Strategy<Value = (mrca_core::ChannelAllocationGame, StrategyMatrix)> {
    (config_strategy(), rates).prop_flat_map(|(cfg, rate)| {
        let game = mrca_core::ChannelAllocationGame::new(cfg, rate);
        matrix_strategy(vec![cfg.radios_per_user(); cfg.n_users()], cfg.n_channels())
            .prop_map(move |m| (game.clone(), m))
    })
}

fn hetero_instance() -> impl Strategy<Value = (HeteroGame, StrategyMatrix)> {
    (1usize..=4, 1usize..=4, decaying_rate_strategy())
        .prop_flat_map(|(n, c, rate)| {
            (
                proptest::collection::vec(1u32..=c as u32, n),
                Just(c),
                Just(rate),
            )
        })
        .prop_flat_map(|(budgets, c, rate)| {
            let game = HeteroGame::with_rate(budgets.clone(), c, rate).unwrap();
            matrix_strategy(budgets, c).prop_map(move |m| (game.clone(), m))
        })
}

fn multi_rate_instance() -> impl Strategy<Value = (HeteroGame, StrategyMatrix)> {
    (
        config_strategy(),
        proptest::collection::vec(
            (
                proptest::bool::ANY,
                decaying_rate_strategy(),
                measured_rate_strategy(),
            )
                .prop_map(|(measured, d, m)| if measured { m } else { d }),
            4,
        ),
    )
        .prop_flat_map(|(cfg, pool)| {
            let per_channel: Vec<Arc<dyn RateModel>> = (0..cfg.n_channels())
                .map(|c| Arc::clone(&pool[c % pool.len()]))
                .collect();
            let budgets = vec![cfg.radios_per_user(); cfg.n_users()];
            let game = HeteroGame::new(budgets.clone(), cfg.n_channels(), per_channel).unwrap();
            matrix_strategy(budgets, cfg.n_channels()).prop_map(move |m| (game.clone(), m))
        })
}

/// A matrix where user `i` deploys up to `budgets[i]` radios on random
/// channels (under-deployment included).
fn matrix_strategy(budgets: Vec<u32>, n_channels: usize) -> impl Strategy<Value = StrategyMatrix> {
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

proptest! {
    /// Homogeneous decaying rates: refined == unrefined == sweep.
    #[test]
    fn homogeneous_refinement_is_pure(instance in homogeneous_instance(decaying_rate_strategy())) {
        let (game, m) = instance;
        check_refinement_is_pure_optimization(&game, &m)?;
    }

    /// Measured (harvest-style) tables: refined == unrefined == sweep,
    /// and the classification seam keeps them off the heap route.
    #[test]
    fn measured_refinement_is_pure(instance in homogeneous_instance(measured_rate_strategy())) {
        let (game, m) = instance;
        prop_assert!(game.payoff_shape() < RateShape::ConcaveSharing);
        prop_assert!(!game.payoff_is_separable_monotone());
        check_refinement_is_pure_optimization(&game, &m)?;
    }

    /// Heterogeneous budgets (per-user TopK bound widths differ).
    #[test]
    fn hetero_refinement_is_pure(instance in hetero_instance()) {
        let (game, m) = instance;
        check_refinement_is_pure_optimization(&game, &m)?;
    }

    /// Per-channel rate vectors mixing decay and measured tables.
    #[test]
    fn multi_rate_refinement_is_pure(instance in multi_rate_instance()) {
        let (game, m) = instance;
        check_refinement_is_pure_optimization(&game, &m)?;
    }

    /// External perturbation replay: deliveries with live anchors.
    #[test]
    fn homogeneous_perturbed_recovery(instance in homogeneous_instance(decaying_rate_strategy())) {
        let (game, m) = instance;
        check_perturbed_recovery(&game, &m)?;
    }

    /// Same replay pin on measured tables.
    #[test]
    fn measured_perturbed_recovery(instance in homogeneous_instance(measured_rate_strategy())) {
        let (game, m) = instance;
        check_perturbed_recovery(&game, &m)?;
    }

    /// Same replay pin under heterogeneous budgets.
    #[test]
    fn hetero_perturbed_recovery(instance in hetero_instance()) {
        let (game, m) = instance;
        check_perturbed_recovery(&game, &m)?;
    }

    /// Churn + reprice event stream on the generic route: twin engines
    /// (refined on/off) driven through identical arrivals, departures
    /// and rate shifts must stay bit-identical at every stage.
    #[test]
    fn churn_and_reprice_stream_equivalence(
        seed in 0u64..1u64 << 48,
        raise in 1.5f64..4.0,
    ) {
        let mut g = ChurnGame::uniform(10, 2, 4, 1.0).force_generic_route();
        let start = SparseStrategies::random_uniform(10, 2, 4, seed);
        let mut on = ActiveSetDynamics::new(&g, start.clone());
        let mut off = ActiveSetDynamics::new(&g, start);
        off.set_refined(false);

        let settle = |on: &mut ActiveSetDynamics,
                          off: &mut ActiveSetDynamics,
                          g: &ChurnGame,
                          stage: &str|
         -> Result<(), TestCaseError> {
            let (mut ta, mut tb) = (Vec::new(), Vec::new());
            let (ca, _) = on.run(g, MAX_ROUNDS, Some(&mut ta));
            let (cb, _) = off.run(g, MAX_ROUNDS, Some(&mut tb));
            prop_assert!(ca && cb, "{}: both settle", stage);
            prop_assert_eq!(&ta, &tb, "{}: traces", stage);
            prop_assert_eq!(on.state(), off.state(), "{}: states", stage);
            Ok(())
        };

        settle(&mut on, &mut off, &g, "initial")?;

        // Arrival.
        let _ = g.push_user(2);
        on.grow_users(&g).unwrap();
        off.grow_users(&g).unwrap();
        settle(&mut on, &mut off, &g, "arrival")?;

        // Rate shift: reprice poisons the repriced column's log window.
        let c = ChannelId(0);
        let load = on.loads().load(c);
        let old = g.set_rate(c, raise);
        on.reprice_channel(&g, c, &move |t| ChurnGame::payoff_at_rate(load, t, old));
        off.reprice_channel(&g, c, &move |t| ChurnGame::payoff_at_rate(load, t, old));
        settle(&mut on, &mut off, &g, "reprice")?;

        // Departure wakes the vacated channels.
        let victim = UserId(3);
        g.retire(victim);
        on.retire_user(&g, victim);
        off.retire_user(&g, victim);
        settle(&mut on, &mut off, &g, "departure")?;

        prop_assert!(br_fast::is_nash_sparse(&g, on.state()), "final Nash");
    }
}

/// Force the column log past its compaction cap (2^16 events) with a
/// long reprice stream, then pin that post-compaction deliveries —
/// whose park epochs predate the retained window — still replay
/// identically to the unrefined twin. Exercises `log_compact` and the
/// `epoch < log_base` decline path that a normal-length run never hits.
#[test]
fn log_compaction_falls_back_soundly() {
    let mut g = ChurnGame::uniform(6, 2, 3, 1.0).force_generic_route();
    let start = SparseStrategies::random_uniform(6, 2, 3, 11);
    let mut on = ActiveSetDynamics::new(&g, start.clone());
    let mut off = ActiveSetDynamics::new(&g, start);
    off.set_refined(false);
    let (c1, _) = on.run(&g, MAX_ROUNDS, None);
    let (c2, _) = off.run(&g, MAX_ROUNDS, None);
    assert!(c1 && c2);

    // ~2^17 logged events: alternate a channel's rate up and back so the
    // equilibrium never moves but every shift logs a reprice event.
    let c = ChannelId(1);
    for i in 0..(1u32 << 17) {
        let rate = if i % 2 == 0 { 1.0001 } else { 1.0 };
        let load_on = on.loads().load(c);
        let old = g.set_rate(c, rate);
        on.reprice_channel(&g, c, &move |t| ChurnGame::payoff_at_rate(load_on, t, old));
        off.reprice_channel(&g, c, &move |t| ChurnGame::payoff_at_rate(load_on, t, old));
    }
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    let (ca, _) = on.run(&g, MAX_ROUNDS, Some(&mut ta));
    let (cb, _) = off.run(&g, MAX_ROUNDS, Some(&mut tb));
    assert!(ca && cb, "both settle after the reprice storm");
    assert_eq!(ta, tb, "post-compaction traces match");
    assert_eq!(on.state(), off.state(), "post-compaction states match");
    assert!(br_fast::is_nash_sparse(&g, on.state()));
}

/// Deterministic smoke of the counter surface: on a decaying-rate game
/// with a repeated settle/perturb cycle the refined engine must
/// actually *use* the walk (refined_reparks > 0 across the cycles) —
/// guarding against the refinement silently declining everything.
#[test]
fn refinement_actually_fires() {
    let cfg = GameConfig::new(12, 2, 6).unwrap();
    let rate: Arc<dyn RateModel> = Arc::new(LinearDecayRate::new(10.0, 0.6, 0.5));
    let game = mrca_core::ChannelAllocationGame::new(cfg, rate);
    let sp = SparseStrategies::random_uniform(12, 2, 6, 5);
    let mut d = ActiveSetDynamics::new(&game, sp);
    let (conv, _) = d.run(&game, MAX_ROUNDS, None);
    assert!(conv);
    for cycle in 0..40 {
        let u = UserId(cycle % 12);
        d.apply_row(&game, u, &[(0, 2)]);
        let (conv, _) = d.run(&game, MAX_ROUNDS, None);
        assert!(conv, "cycle {cycle}");
    }
    let c = d.counters();
    assert!(
        c.refined_reparks > 0,
        "the walk never re-parked anyone across 40 perturbation cycles: {c:?}"
    );
    assert!(br_fast::is_nash_sparse(&game, d.state()));
}
