//! Integration tests for the extension layers (heterogeneous fleets,
//! utility models, distributed protocol) against the base theory.

use multi_radio_alloc::core::algorithm::{algorithm1, Ordering, TieBreak};
use multi_radio_alloc::core::distributed::{protocol_stats, run_protocol, ProtocolConfig};
use multi_radio_alloc::core::dynamics::random_start;
use multi_radio_alloc::core::utility_models::{ConcaveUtilityGame, EnergyCostGame};
use multi_radio_alloc::prelude::*;
use std::sync::Arc;

#[test]
fn hetero_reduces_to_homogeneous() {
    // Equal budgets: both Algorithm-1 variants land on NE of both models
    // with the same welfare.
    let homo = ChannelAllocationGame::with_constant_rate(GameConfig::new(5, 3, 4).unwrap(), 1.0);
    let hetero = HeteroGame::with_rate(vec![3; 5], 4, Arc::new(ConstantRate::unit())).unwrap();
    let s_homo = algorithm1(&homo, &Ordering::with_tie_break(TieBreak::PreferUnused));
    let s_hetero = algorithm1(
        &hetero,
        &Ordering::with_users((0..5).collect(), TieBreak::PreferUnused),
    );
    assert!(is_nash(&homo, &s_homo));
    assert!(is_nash(&hetero, &s_hetero));
    let welfare_homo = welfare_from_loads(&homo, s_homo.loads());
    assert!((welfare_homo - welfare_from_loads(&hetero, s_hetero.loads())).abs() < 1e-12);
}

#[test]
fn hetero_load_balancing_with_dcf_rate() {
    let rate: Arc<dyn RateFunction> =
        Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), 32));
    let g = HeteroGame::with_rate(vec![4, 3, 2, 2, 1], 5, rate).unwrap();
    let s = algorithm1(&g, &Ordering::with_tie_break(TieBreak::PreferUnused));
    assert!(s.max_delta() <= 1);
    assert!(is_nash(&g, &s), "gain {}", max_gain(&g, &s));
}

#[test]
fn energy_game_supply_curve_monotone_under_dcf() {
    let cfg = GameConfig::new(5, 3, 5).unwrap();
    let rate: Arc<dyn RateFunction> =
        Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), 16));
    let base = ChannelAllocationGame::new(cfg, rate);
    let r1 = base.rate().rate(1);
    let mut prev = u32::MAX;
    for frac in [0.0, 0.2, 0.5, 0.8, 1.2] {
        let e = EnergyCostGame::new(base.clone(), frac * r1);
        let (end, converged) = e.converge(algorithm1(&base, &Ordering::default()), 400);
        assert!(converged, "frac {frac}");
        let active: u32 = UserId::all(5).map(|u| end.user_total(u)).sum();
        assert!(active <= prev, "frac {frac}");
        prev = active;
    }
    assert_eq!(prev, 0, "cost above R(1) switches everything off");
}

#[test]
fn concave_transform_preserves_algorithm1_equilibria() {
    for alpha in [0.3, 0.5, 1.0] {
        let base =
            ChannelAllocationGame::with_constant_rate(GameConfig::new(6, 2, 4).unwrap(), 1.0);
        let cg = ConcaveUtilityGame::new(base.clone(), alpha);
        let s = algorithm1(&base, &Ordering::with_tie_break(TieBreak::PreferUnused));
        assert!(cg.is_nash(&s), "alpha {alpha}");
    }
}

#[test]
fn distributed_protocol_reaches_theorem1_equilibria() {
    use multi_radio_alloc::core::nash::theorem1;
    let g = ChannelAllocationGame::with_constant_rate(GameConfig::new(10, 3, 7).unwrap(), 1.0);
    for seed in 0..4 {
        let out = run_protocol(
            &g,
            random_start(&g, seed),
            &ProtocolConfig {
                activation_prob: 0.1,
                max_rounds: 3000,
                seed,
            },
        );
        assert!(out.converged, "seed {seed}");
        assert!(theorem1(&g, &out.matrix).is_nash(), "seed {seed}");
        assert!(out.matrix.max_delta() <= 1);
    }
}

#[test]
fn distributed_protocol_works_with_decreasing_rates() {
    let rate: Arc<dyn RateFunction> =
        Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), 32));
    let g = ChannelAllocationGame::new(GameConfig::new(8, 2, 5).unwrap(), rate);
    let stats = protocol_stats(&g, 0.12, &[0, 1, 2, 3, 4], 3000);
    assert_eq!(stats.convergence_rate, 1.0);
}

#[test]
fn aloha_rate_plugs_into_the_game() {
    use multi_radio_alloc::mac::OptimalAlohaRate;
    let rate: Arc<dyn RateFunction> = Arc::new(OptimalAlohaRate::new(1e6));
    let g = ChannelAllocationGame::new(GameConfig::new(6, 2, 4).unwrap(), rate);
    let s = algorithm1(&g, &Ordering::with_tie_break(TieBreak::PreferUnused));
    assert!(is_nash(&g, &s));
    assert!(s.max_delta() <= 1);
    // Aloha's steep k=1→2 drop is convex, so the balanced NE can sit
    // below the welfare optimum (the same Theorem-2 boundary T2 maps for
    // the cliff rate) — but never above the DP bound.
    let opt = optimal_total_rate(&g);
    assert!(welfare_from_loads(&g, s.loads()) <= opt + 1e-9);
}
