//! End-to-end properties of Algorithm 1 and the dynamics across rate
//! models and instance sizes (the claims of Section 3, run wide).

use multi_radio_alloc::core::algorithm::{algorithm1, Ordering, TieBreak};
use multi_radio_alloc::core::dynamics::{random_start, BestResponseDriver, Schedule};
use multi_radio_alloc::core::nash::theorem1;
use multi_radio_alloc::core::prelude::*;
use multi_radio_alloc::prelude::*;
use std::sync::Arc;

fn rate_models() -> Vec<Arc<dyn RateFunction>> {
    use mrca_mac::{ExponentialDecayRate, LinearDecayRate};
    vec![
        Arc::new(ConstantRate::unit()),
        Arc::new(LinearDecayRate::new(8.0, 0.5, 0.5)),
        Arc::new(ExponentialDecayRate::new(8.0, 0.85)),
        Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), 64)),
    ]
}

#[test]
fn algorithm1_output_is_rate_independent() {
    // Algorithm 1 never reads R; its output must be bit-identical across
    // rate models.
    let cfg = GameConfig::new(6, 3, 5).unwrap();
    let outputs: Vec<_> = rate_models()
        .into_iter()
        .map(|r| {
            let game = ChannelAllocationGame::new(cfg, r);
            algorithm1(&game, &Ordering::default())
        })
        .collect();
    for w in outputs.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn algorithm1_prefer_unused_is_ne_for_all_rate_models() {
    for rate in rate_models() {
        for (n, k, c) in [(4usize, 2u32, 3usize), (7, 4, 6), (9, 3, 5), (5, 5, 7)] {
            let cfg = GameConfig::new(n, k, c).unwrap();
            let game = ChannelAllocationGame::new(cfg, Arc::clone(&rate));
            let s = algorithm1(&game, &Ordering::with_tie_break(TieBreak::PreferUnused));
            let check = nash_check(&game, &s);
            assert!(
                check.is_nash(),
                "({n},{k},{c}) with {}: max gain {}",
                game.rate().name(),
                check.max_gain()
            );
            assert!(s.max_delta() <= 1);
        }
    }
}

#[test]
fn algorithm1_matches_paper_figure_settings() {
    // Running Algorithm 1 on the Figure 4/5 dimensions must produce
    // equilibria with exactly the figures' load multisets.
    for (n, k, c, mut expected_loads) in [
        (7usize, 4u32, 6usize, vec![5u32, 5, 5, 5, 4, 4]),
        (4, 4, 6, vec![3, 3, 3, 3, 2, 2]),
    ] {
        let game =
            ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0);
        let s = algorithm1(&game, &Ordering::default());
        let mut loads = s.loads().to_vec();
        loads.sort_unstable();
        expected_loads.sort_unstable();
        assert_eq!(loads, expected_loads, "({n},{k},{c})");
        assert!(theorem1(&game, &s).is_nash());
    }
}

#[test]
fn best_response_dynamics_converge_for_all_rate_models() {
    for rate in rate_models() {
        let cfg = GameConfig::new(8, 3, 6).unwrap();
        let game = ChannelAllocationGame::new(cfg, Arc::clone(&rate));
        for seed in 0..4u64 {
            let out = BestResponseDriver::new(Schedule::RandomPermutation { seed }).run(
                &game,
                random_start(&game, seed),
                300,
            );
            assert!(out.converged, "{}: seed {seed}", game.rate().name());
            assert!(
                is_nash(&game, &out.matrix),
                "{}: seed {seed}",
                game.rate().name()
            );
        }
    }
}

#[test]
fn dynamics_never_decrease_welfare_at_convergence_for_constant_rate() {
    // For constant R the converged welfare equals the optimum regardless
    // of the random start (Theorem 2 via dynamics).
    let cfg = GameConfig::new(6, 2, 4).unwrap();
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    let opt = optimal_total_rate(&game);
    for seed in 0..6u64 {
        let out = BestResponseDriver::new(Schedule::RoundRobin).run(
            &game,
            random_start(&game, seed),
            200,
        );
        assert!((welfare_from_loads(&game, out.matrix.loads()) - opt).abs() < 1e-9);
    }
}

#[test]
fn fact1_regime_end_to_end() {
    // |N|·k ≤ |C|: Algorithm 1 gives everyone private channels and the
    // welfare equals |N|·k·R(1).
    let cfg = GameConfig::new(2, 3, 7).unwrap();
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    let s = algorithm1(&game, &Ordering::default());
    assert!(s.loads().iter().all(|&l| l <= 1));
    assert!((welfare_from_loads(&game, s.loads()) - 6.0).abs() < 1e-12);
    assert!(is_nash(&game, &s));
    assert!(theorem1(&game, &s).is_nash());
}

#[test]
fn ordering_invariance_of_welfare() {
    // Any user ordering yields the same (optimal) welfare — the NE
    // welfare is unique even though the NE itself is not.
    let cfg = GameConfig::new(5, 3, 4).unwrap();
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    let mut welfares = Vec::new();
    for seed in 0..10 {
        let s = algorithm1(&game, &Ordering::random(seed, 5));
        welfares.push(welfare_from_loads(&game, s.loads()));
    }
    for w in &welfares {
        assert!((w - welfares[0]).abs() < 1e-12);
    }
}
