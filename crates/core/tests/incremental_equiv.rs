//! The incremental evaluation path is pinned to the
//! recompute-from-scratch path across random games, rate models and
//! (possibly under-deployed) strategy matrices.
//!
//! * A matrix built or changed by `set` / `set_user_strategy` keeps its
//!   loads through every mutation; `StrategyMatrix::from_rows` of the
//!   same rows counts them fresh. Utilities, best responses and the Nash
//!   check read the same loads either way, so they must agree *exactly*
//!   (identical arithmetic, different bookkeeping).
//! * `benefit_of_move` (four-term Δ) versus `benefit_of_move_naive`
//!   (clone + two full Eq.-3 evaluations) differ in summation order, so
//!   they are compared to a tight relative tolerance.
//! * The loads a matrix keeps across a whole best-response-dynamics run
//!   must equal a fresh count of its final rows.
//! * Under random streams of `set`, `move_radio` and `set_user_strategy`,
//!   on matrices from every constructor, the kept loads equal a
//!   column-by-column recount after every single step.

use mrca_core::br_dp::{
    benefit_of_move, benefit_of_move_naive, best_response, is_nash, nash_check, utility,
    welfare_from_loads,
};
use mrca_core::dynamics::{random_start, BestResponseDriver, Schedule};
use mrca_core::rate_model::{
    ConstantRate, ExponentialDecayRate, LinearDecayRate, RateModel, StepRate,
};
use mrca_core::{
    ChannelAllocationGame, ChannelId, GameConfig, SparseStrategies, StrategyMatrix, StrategyVector,
    UserId,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Small valid configurations, biased toward the conflict regime.
fn config_strategy() -> impl Strategy<Value = GameConfig> {
    (1usize..=6, 1u32..=4, 1usize..=6).prop_filter_map("k <= |C|", |(n, k, c)| {
        GameConfig::new(n, k, c.max(k as usize)).ok()
    })
}

/// A mix of the analytic rate families plus random monotone tables.
fn rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (0usize..4, proptest::collection::vec(0.01f64..1.0, 24)).prop_map(|(kind, drops)| match kind {
        0 => Arc::new(ConstantRate::new(5.0)) as Arc<dyn RateModel>,
        1 => Arc::new(LinearDecayRate::new(10.0, 0.7, 0.5)),
        2 => Arc::new(ExponentialDecayRate::new(8.0, 0.8)),
        _ => {
            let mut v = Vec::with_capacity(24);
            let mut r = 100.0f64;
            for d in drops {
                v.push(r);
                r = (r - d).max(0.5);
            }
            Arc::new(StepRate::new("prop", v))
        }
    })
}

/// A possibly under-deployed matrix: each user places `0..=k` radios on
/// random channels (under-deployment exercises the `k_{i,c} = 0` and
/// `k_{i,b} = 1` edges of the Δ formula).
fn matrix_strategy(cfg: GameConfig) -> impl Strategy<Value = StrategyMatrix> {
    let n = cfg.n_users();
    let c = cfg.n_channels();
    let k = cfg.radios_per_user() as usize;
    proptest::collection::vec((0usize..=k, proptest::collection::vec(0usize..c, k)), n).prop_map(
        move |users| {
            let mut m = StrategyMatrix::zeros(n, c);
            for (u, (deployed, places)) in users.iter().enumerate() {
                for ch in places.iter().take(*deployed) {
                    let cur = m.get(UserId(u), ChannelId(*ch));
                    m.set(UserId(u), ChannelId(*ch), cur + 1);
                }
            }
            m
        },
    )
}

/// `s` rebuilt from its rows: the same profile with freshly counted
/// loads.
fn fresh(s: &StrategyMatrix) -> StrategyMatrix {
    let rows: Vec<Vec<u32>> = UserId::all(s.n_users())
        .map(|u| s.row(u).to_vec())
        .collect();
    StrategyMatrix::from_rows(&rows).unwrap()
}

/// The load vector of `s` recounted column by column from its cells.
fn recount(s: &StrategyMatrix) -> Vec<u32> {
    ChannelId::all(s.n_channels())
        .map(|c| UserId::all(s.n_users()).map(|u| s.get(u, c)).sum())
        .collect()
}

/// One matrix mutation: `(kind, (user, channel a, channel b), value,
/// row)`, decoded by [`apply_op`].
type Op = (usize, (usize, usize, usize), u32, Vec<u32>);

/// A random starting matrix from one of the three constructors (`zeros`,
/// `from_rows`, the sparse bridge's `to_dense`) plus a stream of
/// mutations to apply to it.
fn mutation_stream() -> impl Strategy<Value = (StrategyMatrix, Vec<Op>)> {
    (1usize..=5, 1usize..=5, 0usize..3)
        .prop_flat_map(|(n, c, origin)| {
            (
                proptest::collection::vec(proptest::collection::vec(0u32..=3, c), n),
                Just(origin),
                proptest::collection::vec(
                    (
                        0usize..3,
                        (0usize..n, 0usize..c, 0usize..c),
                        0u32..=4,
                        proptest::collection::vec(0u32..=3, c),
                    ),
                    0..40,
                ),
            )
        })
        .prop_map(|(rows, origin, ops)| {
            let s = match origin {
                0 => StrategyMatrix::zeros(rows.len(), rows[0].len()),
                1 => StrategyMatrix::from_rows(&rows).unwrap(),
                _ => SparseStrategies::from(&StrategyMatrix::from_rows(&rows).unwrap()).to_dense(),
            };
            (s, ops)
        })
}

/// Apply one [`Op`]: `set`, `move_radio` (skipped when channel `a` holds
/// none of the user's radios) or `set_user_strategy`.
fn apply_op(s: &mut StrategyMatrix, (kind, (u, a, b), value, row): &Op) {
    let (u, a, b) = (UserId(*u), ChannelId(*a), ChannelId(*b));
    match kind {
        0 => s.set(u, a, *value),
        1 if s.get(u, a) > 0 => s.move_radio(u, a, b),
        1 => {}
        _ => s.set_user_strategy(u, &StrategyVector::from_counts(row.clone())),
    }
}

/// A full random instance: config, rate model and a (possibly
/// under-deployed) matrix for it.
fn game_and_matrix() -> impl Strategy<Value = (GameConfig, Arc<dyn RateModel>, StrategyMatrix)> {
    (config_strategy(), rate_strategy()).prop_flat_map(|(cfg, rate)| {
        matrix_strategy(cfg).prop_map(move |m| (cfg, Arc::clone(&rate), m))
    })
}

proptest! {
    // 96 cases per-PR; the scheduled deep-fuzz CI job raises it via env.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
    ))]

    /// Utility on kept loads ≡ utility on fresh loads, exactly.
    #[test]
    fn utility_cached_equals_naive(cfg in config_strategy(), rate in rate_strategy(), seed in 0u64..1000) {
        let game = ChannelAllocationGame::new(cfg, rate);
        let s = random_start(&game, seed);
        let f = fresh(&s);
        for u in UserId::all(cfg.n_users()) {
            prop_assert_eq!(utility(&game, &s, u), utility(&game, &f, u));
        }
        prop_assert_eq!(welfare_from_loads(&game, s.loads()), welfare_from_loads(&game, f.loads()));
    }

    /// Incremental Eq. 7 ≡ clone-and-recompute Eq. 7 for every legal
    /// single-radio move of every user, on under-deployed matrices too.
    #[test]
    fn benefit_of_move_matches_naive(instance in game_and_matrix()) {
        let (cfg, rate, s) = instance;
        let game = ChannelAllocationGame::new(cfg, rate);
        let f = fresh(&s);
        for u in UserId::all(cfg.n_users()) {
            for b in ChannelId::all(cfg.n_channels()) {
                if s.get(u, b) == 0 {
                    continue;
                }
                for c in ChannelId::all(cfg.n_channels()) {
                    let fast = benefit_of_move(&game, &s, u, b, c);
                    let fresh_delta = benefit_of_move(&game, &f, u, b, c);
                    let naive = benefit_of_move_naive(&game, &s, u, b, c);
                    prop_assert_eq!(fast, fresh_delta, "kept vs fresh loads must be identical");
                    let scale = naive.abs().max(fast.abs()).max(1.0);
                    prop_assert!(
                        (fast - naive).abs() <= 1e-9 * scale,
                        "Δ mismatch u={} {}->{}: incremental {} vs naive {}",
                        u, b, c, fast, naive
                    );
                }
            }
        }
    }

    /// Best response and Nash check on kept loads ≡ on fresh loads.
    #[test]
    fn nash_check_cached_equals_naive(cfg in config_strategy(), rate in rate_strategy(), seed in 0u64..1000) {
        let game = ChannelAllocationGame::new(cfg, rate);
        let s = random_start(&game, seed);
        let f = fresh(&s);
        for u in UserId::all(cfg.n_users()) {
            let (brc, uc) = best_response(&game, &s, u);
            let (brn, un) = best_response(&game, &f, u);
            prop_assert_eq!(uc, un);
            prop_assert_eq!(brc, brn);
        }
        prop_assert_eq!(nash_check(&game, &s), nash_check(&game, &f));
    }

    /// The loads a matrix keeps through a full dynamics run stay exact,
    /// and the run lands on a NE the fresh-load checker confirms.
    #[test]
    fn maintained_cache_survives_dynamics(cfg in config_strategy(), rate in rate_strategy(), seed in 0u64..200) {
        let game = ChannelAllocationGame::new(cfg, rate);
        let out = BestResponseDriver::new(Schedule::RoundRobin)
            .run(&game, random_start(&game, seed), 400);
        prop_assert!(out.converged);
        let f = fresh(&out.matrix);
        prop_assert_eq!(out.matrix.loads(), f.loads());
        prop_assert!(is_nash(&game, &f));
    }

    /// The loads a matrix keeps equal a recount of its cells after every
    /// step of a random mutation stream, whichever constructor built it.
    #[test]
    fn kept_loads_match_a_recount_under_random_mutations(instance in mutation_stream()) {
        let (mut s, ops) = instance;
        prop_assert_eq!(s.loads(), &recount(&s)[..], "as constructed");
        for (step, op) in ops.iter().enumerate() {
            apply_op(&mut s, op);
            let counted = recount(&s);
            prop_assert_eq!(s.loads(), &counted[..], "after step {}: {:?}", step, op);
            for c in ChannelId::all(s.n_channels()) {
                prop_assert_eq!(s.channel_load(c), counted[c.0], "channel {}", c);
            }
        }
    }
}
