//! Cross-crate integration: the paper's theorems checked through the
//! *generic* game toolkit (`mrca-game`) rather than the bespoke checkers,
//! on exhaustively enumerable instances.

use multi_radio_alloc::core::enumerate::enumerate_allocations;
use multi_radio_alloc::core::nash::theorem1;
use multi_radio_alloc::core::prelude::*;
use multi_radio_alloc::game::equilibrium::{is_pure_nash, pure_nash_profiles};
use multi_radio_alloc::game::pareto::is_pareto_optimal;
use multi_radio_alloc::game::Game as _;
use std::sync::Arc;

fn constant_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
    ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
}

#[test]
fn generic_ne_enumeration_matches_theorem1() {
    // Enumerate all pure NE through the generic machinery (indexed game)
    // and through Theorem 1; the sets must coincide.
    for (n, k, c) in [(2usize, 2u32, 2usize), (2, 2, 3), (3, 1, 3), (3, 2, 2)] {
        let game = constant_game(n, k, c);
        let idx = game.indexed();
        let generic_ne = pure_nash_profiles(&idx);
        let mut thm_count = 0usize;
        enumerate_allocations(game.config(), |s| {
            if theorem1(&game, s).is_nash() {
                thm_count += 1;
            }
        });
        assert_eq!(
            generic_ne.len(),
            thm_count,
            "({n},{k},{c}): generic toolkit vs Theorem 1"
        );
        for profile in &generic_ne {
            let m = idx.to_matrix(profile);
            assert!(theorem1(&game, &m).is_nash(), "({n},{k},{c}): {m}");
            assert!(is_nash(&game, &m));
        }
    }
}

#[test]
fn every_ne_is_pareto_optimal_for_constant_rate() {
    // Theorem 2 through the generic Pareto machinery.
    for (n, k, c) in [(2usize, 2u32, 2usize), (2, 2, 3), (3, 1, 2)] {
        let game = constant_game(n, k, c);
        let idx = game.indexed();
        for profile in pure_nash_profiles(&idx) {
            assert!(
                is_pareto_optimal(&idx, &profile),
                "({n},{k},{c}): NE {profile:?} must be Pareto-optimal"
            );
            let m = idx.to_matrix(&profile);
            assert!(is_system_optimal(&game, &m));
        }
    }
}

#[test]
fn ne_loads_are_always_balanced() {
    // Proposition 1 over every enumerated equilibrium.
    for (n, k, c) in [(2usize, 2u32, 2usize), (3, 2, 3), (2, 3, 3)] {
        let game = constant_game(n, k, c);
        enumerate_allocations(game.config(), |s| {
            if is_nash(&game, s) {
                assert!(
                    s.max_delta() <= 1,
                    "({n},{k},{c}): NE with unbalanced loads {:?}",
                    s.loads()
                );
            }
        });
    }
}

#[test]
fn lemma1_holds_in_every_ne() {
    for (n, k, c) in [(2usize, 2u32, 3usize), (3, 2, 3)] {
        let game = constant_game(n, k, c);
        enumerate_allocations(game.config(), |s| {
            if is_nash(&game, s) {
                for u in UserId::all(n) {
                    assert_eq!(
                        s.user_total(u),
                        k,
                        "({n},{k},{c}): NE with idle radios: {s}"
                    );
                }
            }
        });
    }
}

#[test]
fn deviation_search_agrees_with_generic_default_best_response() {
    // The overridden (DP) best response must never find less than the
    // generic full scan.
    let game = constant_game(2, 2, 3);
    let idx = game.indexed();
    for profile in idx.profiles().step_by(7) {
        for p in 0..2 {
            let player = multi_radio_alloc::game::PlayerId(p);
            let (_, u_dp) = idx.best_response(player, &profile);
            // Generic scan.
            let mut work = profile.clone();
            let mut u_scan = f64::NEG_INFINITY;
            for s in 0..idx.num_strategies(player) {
                work[p] = s;
                u_scan = u_scan.max(idx.utility(player, &work));
            }
            assert!((u_dp - u_scan).abs() < 1e-12);
        }
    }
}

#[test]
fn indexed_nash_matches_matrix_nash_for_decreasing_rate() {
    use mrca_mac::LinearDecayRate;
    let cfg = GameConfig::new(2, 2, 3).unwrap();
    let game = ChannelAllocationGame::new(cfg, Arc::new(LinearDecayRate::new(5.0, 0.7, 0.5)));
    let idx = game.indexed();
    for profile in idx.profiles() {
        let m = idx.to_matrix(&profile);
        assert_eq!(
            is_pure_nash(&idx, &profile),
            is_nash(&game, &m),
            "profile {profile:?}"
        );
    }
}

/// `s` rebuilt from its rows: the same profile with freshly counted
/// loads, against the loads `s` kept through its mutations.
fn fresh(s: &StrategyMatrix) -> StrategyMatrix {
    let rows: Vec<Vec<u32>> = UserId::all(s.n_users())
        .map(|u| s.row(u).to_vec())
        .collect();
    StrategyMatrix::from_rows(&rows).unwrap()
}

#[test]
fn theorem1_cached_matches_theorem1_on_randomized_instances() {
    // Certification on the loads a matrix kept through its mutations must
    // render the identical verdict to a freshly counted rebuild of its
    // rows — not merely the same is_nash bit — on randomized instances
    // covering every verdict variant: full and under-deployed matrices,
    // balanced and stacked loads, conflict and Fact-1 regimes.
    use multi_radio_alloc::core::dynamics::random_start;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(20260728);
    let mut verdict_kinds = std::collections::HashSet::new();
    for trial in 0..300 {
        let n = rng.gen_range(1..=5usize);
        let c = rng.gen_range(1..=5usize);
        let k = rng.gen_range(1..=c as u32);
        let game = constant_game(n, k, c);
        let mut s = random_start(&game, rng.gen());
        // Half the trials park random radios to hit the IdleRadios branch.
        if rng.gen_bool(0.5) {
            for u in UserId::all(n) {
                while s.user_total(u) > 0 && rng.gen_bool(0.3) {
                    let ch = (0..c)
                        .map(ChannelId)
                        .find(|&ch| s.get(u, ch) > 0)
                        .expect("deployed radio exists");
                    s.set(u, ch, s.get(u, ch) - 1);
                }
            }
        }
        let on_fresh = theorem1(&game, &fresh(&s));
        let on_kept = theorem1(&game, &s);
        assert_eq!(on_fresh, on_kept, "trial {trial}: N={n},k={k},C={c} {s}");
        verdict_kinds.insert(std::mem::discriminant(&on_kept));
    }
    assert!(
        verdict_kinds.len() >= 3,
        "the sweep should exercise several verdict variants, got {}",
        verdict_kinds.len()
    );
}

#[test]
fn theorem1_cached_consistency_extends_to_hetero_and_multi_rate() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..100 {
        let n = rng.gen_range(2..=5usize);
        let c = rng.gen_range(2..=5usize);
        // Heterogeneous budgets, random (budget-respecting) deployment.
        let budgets: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=c as u32)).collect();
        let hg = HeteroGame::with_rate(budgets.clone(), c, Arc::new(ConstantRate::unit())).unwrap();
        let mut s = multi_radio_alloc::core::StrategyMatrix::zeros(n, c);
        for (u, &b) in budgets.iter().enumerate() {
            for _ in 0..rng.gen_range(0..=b) {
                let ch = ChannelId(rng.gen_range(0..c));
                s.set(UserId(u), ch, s.get(UserId(u), ch) + 1);
            }
        }
        assert_eq!(
            theorem1(&hg, &fresh(&s)),
            theorem1(&hg, &s),
            "hetero trial {trial}"
        );

        // Multi-rate: same structural check, per-channel models.
        let k = rng.gen_range(1..=c as u32);
        let mg = HeteroGame::new(
            vec![k; n],
            c,
            (0..c)
                .map(|i| {
                    std::sync::Arc::new(ConstantRate::new(1.0 + i as f64))
                        as std::sync::Arc<dyn RateModel>
                })
                .collect(),
        )
        .unwrap();
        let sm = random_start(&mg, rng.gen());
        assert_eq!(
            theorem1(&mg, &fresh(&sm)),
            theorem1(&mg, &sm),
            "multi-rate trial {trial}"
        );
    }
}

#[test]
fn the_channel_allocation_game_has_an_ordinal_potential_radio_view() {
    // The radio-level view is a congestion game: verify the ordinal
    // potential property mechanically on a small instance by checking the
    // user-level game with k = 1 (users == radios).
    use multi_radio_alloc::game::potential::{has_exact_potential, has_ordinal_potential};
    let game = constant_game(3, 1, 2);
    let idx = game.indexed();
    let dense = multi_radio_alloc::game::NormalFormGame::from_game(&idx);
    assert!(has_ordinal_potential(&dense));
    // Single-radio users with anonymous shares: even exact.
    assert!(has_exact_potential(&dense));
}
