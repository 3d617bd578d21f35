//! Tests of the multi-rate extension: [`HeteroGame`] with one rate model
//! `R_c` per channel. The game and what survives per-channel rates are
//! documented in [`heterogeneous`](crate::heterogeneous); this module holds
//! only the tests of that rate axis.
//!
//! [`HeteroGame`]: crate::heterogeneous::HeteroGame

mod tests {
    use crate::br_dp::{best_response, best_response_dynamics, is_nash, utility};
    use crate::dynamics::random_start;
    use crate::error::Error;
    use crate::heterogeneous::tests::assert_uniform_axes_match_the_paper_game;
    use crate::heterogeneous::HeteroGame;
    use crate::pareto::optimal_total_rate;
    use crate::rate_model::ConstantRate;
    use crate::strategy::StrategyMatrix;
    use crate::types::UserId;
    use std::sync::Arc;

    fn two_tier(n: usize, k: u32) -> HeteroGame {
        // Channel 1 is twice as good as channels 2 and 3.
        HeteroGame::new(
            vec![k; n],
            3,
            vec![
                Arc::new(ConstantRate::new(2.0)),
                Arc::new(ConstantRate::new(1.0)),
                Arc::new(ConstantRate::new(1.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn wrong_rate_count_rejected() {
        let err = HeteroGame::new(vec![2, 1], 3, vec![Arc::new(ConstantRate::unit())]).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("rate models"), "{err}");
    }

    #[test]
    fn identical_rates_reduce_to_base_game() {
        // `|C|` separately built models of one curve, not clones of one
        // `Arc`.
        assert_uniform_axes_match_the_paper_game(4, |budgets, c, curve| {
            HeteroGame::new(budgets, c, (0..c).map(|_| curve()).collect()).unwrap()
        });
    }

    #[test]
    fn equilibrium_water_fills_toward_the_better_channel() {
        // 6 single-radio users, channel 1 twice as good: per-radio shares
        // equalize when 2/k1 = 1/k2 = 1/k3, which has no integral solution
        // at k1+k2+k3 = 6, so verify by dynamics + stability instead of
        // guessing the loads.
        let g = two_tier(6, 1);
        let (end, converged, _) = best_response_dynamics(&g, random_start(&g, 1), 200);
        assert!(converged);
        assert!(is_nash(&g, &end));
        let loads = end.loads();
        // The good channel carries strictly more than either plain one.
        assert!(
            loads[0] > loads[1] && loads[0] > loads[2],
            "loads {loads:?} should favour the 2x channel"
        );
        // And the allocation is NOT count-balanced in general.
        assert!(end.max_delta() >= 1);
    }

    #[test]
    fn four_users_one_radio_each_split_2_1_1() {
        // Hand-checkable instance: shares (2/2, 1/1, 1/1) = 1 everywhere.
        let g = two_tier(4, 1);
        let s = StrategyMatrix::from_rows(&[
            vec![1, 0, 0],
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![0, 0, 1],
        ])
        .unwrap();
        assert!(is_nash(&g, &s));
        assert!(g.share_spread(&s) < 1e-12);
        // Everyone earns exactly 1.
        for u in UserId::all(4) {
            assert!((utility(&g, &s, u) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dynamics_converge_with_multi_radio_users() {
        let g = two_tier(5, 2);
        for seed in 0..5 {
            let (end, converged, _) = best_response_dynamics(&g, random_start(&g, seed), 300);
            assert!(converged, "seed {seed}");
            assert!(is_nash(&g, &end), "seed {seed}");
        }
    }

    #[test]
    fn welfare_dp_bounds_equilibria() {
        use crate::br_dp::welfare_from_loads;
        let g = two_tier(5, 2);
        let opt = optimal_total_rate(&g);
        for seed in 0..5 {
            let (end, _, _) = best_response_dynamics(&g, random_start(&g, seed), 300);
            assert!(welfare_from_loads(&g, end.loads()) <= opt + 1e-9);
        }
    }

    #[test]
    fn cached_paths_match_naive_recompute() {
        let g = two_tier(5, 2);
        for seed in 0..10 {
            // `random_start` places radios one `set` at a time; its kept
            // loads against a fresh count.
            let s = random_start(&g, seed);
            let rows: Vec<Vec<u32>> = UserId::all(5).map(|u| s.row(u).to_vec()).collect();
            let fresh = StrategyMatrix::from_rows(&rows).unwrap();
            assert_eq!(s.loads(), fresh.loads());
            for u in UserId::all(5) {
                assert_eq!(utility(&g, &s, u), utility(&g, &fresh, u));
                assert_eq!(best_response(&g, &s, u), best_response(&g, &fresh, u));
            }
        }
    }

    #[test]
    fn best_response_matches_enumeration() {
        let g = two_tier(2, 2);
        let s = random_start(&g, 9);
        for u in UserId::all(2) {
            let (_, dp) = best_response(&g, &s, u);
            let mut best = f64::NEG_INFINITY;
            for cand in crate::enumerate::user_strategy_space(3, 2) {
                let mut alt = s.clone();
                alt.set_user_strategy(u, &cand);
                best = best.max(utility(&g, &alt, u));
            }
            assert!((dp - best).abs() < 1e-12, "user {u}");
        }
    }
}
