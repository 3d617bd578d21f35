//! Theorem 2: efficiency of equilibria.
//!
//! The paper concludes that every NE is Pareto-optimal **and** system-
//! optimal (maximizes total rate). Its one-line proof implicitly relies on
//! the fact that, for the rate models it considers, using every channel
//! maximizes `Σ_c R(k_c)` — exactly true for constant `R` (TDMA, optimal
//! CSMA/CA) and a good approximation for the gently-decaying practical
//! DCF curve.
//!
//! For *general* non-increasing `R` both claims can fail: with a steep
//! cliff (`R(1) = 10, R(k≥2) = 2`), two users with two radios on two
//! channels have the balanced NE `loads = (2,2)` with welfare 4, while the
//! unbalanced `loads = (3,1)` achieves 12 — and the profile where each
//! user parks one radio (utilities `(10, 10)`) Pareto-dominates the NE's
//! `(2, 2)`, though it is itself unstable (each user's dominant move is to
//! deploy the idle radio: a prisoner's dilemma). The theorems are exactly
//! right for the constant-`R` regime the paper's MAC models inhabit, and
//! the gap is quantified per rate model in experiment T2. This module
//! exposes:
//!
//! * [`optimal_total_rate`] — exact welfare optimum over load vectors (DP,
//!   no balancedness assumption);
//! * [`is_system_optimal`] — Theorem 2's strong claim, checked against the
//!   DP optimum;
//! * [`is_pareto_optimal_ne`] — the per-user Pareto property, verified by
//!   exhaustive profile scan on enumerable instances;
//! * [`balanced_total_rate`] — welfare of the balanced loads (what every
//!   NE achieves, by Theorem 1);
//! * [`welfare_gap`] — the gap the paper's Theorem 2 asserts to be zero.
//!
//! Experiment T2 quantifies all of this per rate model.

use crate::br_dp::{utility, welfare_from_loads, ChannelGame};
use crate::game::ChannelAllocationGame;
use crate::strategy::StrategyMatrix;
use crate::types::{ChannelId, UserId};

/// Relative tolerance for welfare comparisons.
const REL_TOL: f64 = 1e-9;

/// Exact maximum of `Σ_c R_c(k_c)` over all load vectors summing to the
/// game's total radio count `m = Σ_i k_i`, by dynamic programming over
/// channels (`O(|C|·m²)`).
///
/// A channel holding `t` radios yields `channel_payoff(c, 0, t)` in
/// total — `1 · R_c(t)` for the fair-share games, bit for bit.
///
/// This deliberately ignores per-user budgets: total welfare depends on
/// loads only, and any load vector with every `k_c ≤ m` is realizable by
/// *some* strategy matrix (users fill channels greedily), so the DP bound
/// is tight for welfare purposes.
pub fn optimal_total_rate<G: ChannelGame + ?Sized>(game: &G) -> f64 {
    let m = crate::br_dp::total_radios(game) as usize;
    // dp[r] = best welfare placing r radios on the channels seen so far.
    let neg = f64::NEG_INFINITY;
    let mut dp = vec![neg; m + 1];
    dp[0] = 0.0;
    for c in ChannelId::all(game.n_channels()) {
        let mut next = vec![neg; m + 1];
        for r in 0..=m {
            for t in 0..=r {
                if dp[r - t] == neg {
                    continue;
                }
                let v = dp[r - t]
                    + if t == 0 {
                        0.0
                    } else {
                        game.channel_payoff(c, 0, t as u32)
                    };
                if v > next[r] {
                    next[r] = v;
                }
            }
        }
        dp = next;
    }
    dp[m]
}

/// Welfare of the perfectly balanced load vector (`δ ≤ 1`), which by
/// Theorem 1 is the welfare of **every** NE.
pub fn balanced_total_rate(game: &ChannelAllocationGame) -> f64 {
    let rate = game.rate();
    game.config()
        .balanced_loads()
        .iter()
        .map(|&l| if l == 0 { 0.0 } else { rate.rate(l) })
        .sum()
}

/// `optimal_total_rate − balanced_total_rate`: the amount by which the
/// paper's Theorem 2 can be violated for a given rate model (0 for
/// constant `R`; tests exhibit a positive gap for cliff-shaped `R`).
pub fn welfare_gap(game: &ChannelAllocationGame) -> f64 {
    optimal_total_rate(game) - balanced_total_rate(game)
}

/// True when `s` achieves the exact welfare optimum of its game.
pub fn is_system_optimal<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> bool {
    let total = welfare_from_loads(game, s.loads());
    let opt = optimal_total_rate(game);
    total >= opt - REL_TOL * opt.abs().max(1.0)
}

/// True when `s` is Pareto-optimal (Definition 2), by exhaustive scan over
/// all strategy matrices of the game. Exponential; small instances only —
/// the T2 experiment bounds the enumeration explicitly.
pub fn is_pareto_optimal_ne(game: &ChannelAllocationGame, s: &StrategyMatrix) -> bool {
    let utilities = |m: &StrategyMatrix| -> Vec<f64> {
        UserId::all(m.n_users())
            .map(|u| utility(game, m, u))
            .collect()
    };
    let mine = utilities(s);
    let mut dominated = false;
    crate::enumerate::enumerate_allocations(game.config(), |other| {
        if dominated {
            return;
        }
        if mrca_game::pareto::dominates(&utilities(other), &mine) {
            dominated = true;
        }
    });
    !dominated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_dp::is_nash;
    use crate::config::GameConfig;
    use crate::rate_model::{ConstantRate, RateModel, StepRate};
    use std::sync::Arc;

    fn game(cfg: GameConfig, rate: impl RateModel + 'static) -> ChannelAllocationGame {
        ChannelAllocationGame::new(cfg, Arc::new(rate))
    }

    #[test]
    fn constant_rate_has_zero_gap() {
        for (n, k, c) in [(2usize, 2u32, 2usize), (4, 4, 5), (7, 4, 6), (3, 2, 4)] {
            let g = game(GameConfig::new(n, k, c).unwrap(), ConstantRate::unit());
            assert!(
                welfare_gap(&g).abs() < 1e-12,
                "({n},{k},{c}): gap {}",
                welfare_gap(&g)
            );
        }
    }

    #[test]
    fn optimal_equals_channels_times_rate_when_all_used() {
        // Constant R = 1 and |N|·k ≥ |C|: optimum = |C|.
        let g = game(GameConfig::new(4, 4, 5).unwrap(), ConstantRate::unit());
        assert!((optimal_total_rate(&g) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_caps_at_total_radios_when_channels_abound() {
        // 1 user × 2 radios on 5 channels: at most 2 channels carry rate.
        let g = game(GameConfig::new(1, 2, 5).unwrap(), ConstantRate::unit());
        assert!((optimal_total_rate(&g) - 2.0).abs() < 1e-12);
        assert!((balanced_total_rate(&g) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cliff_rate_breaks_system_optimality_of_balanced_loads() {
        // The documented Theorem-2 boundary: R(1) = 10, R(k ≥ 2) = 2.
        let cfg = GameConfig::new(2, 2, 2).unwrap();
        let cliff = game(cfg, StepRate::new("cliff", vec![10.0, 2.0, 2.0, 2.0]));
        // Balanced loads (2,2): welfare 4. Optimal (3,1): 12.
        assert!((balanced_total_rate(&cliff) - 4.0).abs() < 1e-12);
        assert!((optimal_total_rate(&cliff) - 12.0).abs() < 1e-12);
        assert!((welfare_gap(&cliff) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn cliff_ne_fails_both_efficiency_notions() {
        // Documented boundary of Theorem 2: with a steep-cliff rate the
        // balanced full-deployment NE is neither system-optimal nor even
        // Pareto-optimal. The profile where each user parks ONE radio on
        // its own channel gives both users R(1) = 10 — but it is not a NE
        // (each user's dominant move is to deploy the idle radio, Lemma 1),
        // and after both do, both are down to 2: a prisoner's dilemma
        // embedded in the allocation game.
        let cfg = GameConfig::new(2, 2, 2).unwrap();
        let cliff: Arc<dyn RateModel> = Arc::new(StepRate::new("cliff", vec![10.0, 2.0, 2.0, 2.0]));
        let game = ChannelAllocationGame::new(cfg, cliff);
        let s = StrategyMatrix::from_rows(&[vec![1, 1], vec![1, 1]]).unwrap();
        // It is a NE…
        assert!(is_nash(&game, &s));
        // …not system-optimal…
        assert!(!is_system_optimal(&game, &s));
        // …and not Pareto-optimal either: (1,0)/(0,1) dominates with
        // utilities (10, 10).
        assert!(!is_pareto_optimal_ne(&game, &s));
        let half = StrategyMatrix::from_rows(&[vec![1, 0], vec![0, 1]]).unwrap();
        for u in UserId::all(2) {
            assert_eq!(utility(&game, &half, u), 10.0);
        }
        assert!(!is_nash(&game, &half), "but parking is unstable");
    }

    #[test]
    fn theorem2_holds_for_constant_rate_on_ne() {
        let game =
            ChannelAllocationGame::with_constant_rate(GameConfig::new(2, 2, 3).unwrap(), 1.0);
        // Balanced NE: loads (2,1,1).
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0], vec![1, 0, 1]]).unwrap();
        assert!(is_nash(&game, &s));
        assert!(is_system_optimal(&game, &s));
        assert!(is_pareto_optimal_ne(&game, &s));
    }

    #[test]
    fn non_ne_can_be_suboptimal() {
        let game =
            ChannelAllocationGame::with_constant_rate(GameConfig::new(2, 2, 3).unwrap(), 1.0);
        // Everyone stacked on c1: welfare R(4) = 1 < 3.
        let s = StrategyMatrix::from_rows(&[vec![2, 0, 0], vec![2, 0, 0]]).unwrap();
        assert!(!is_system_optimal(&game, &s));
        assert!(!is_pareto_optimal_ne(&game, &s));
    }

    #[test]
    fn dp_matches_brute_force_on_small_instances() {
        // Compare the DP against enumerating all load vectors.
        let cfg = GameConfig::new(2, 2, 3).unwrap(); // m = 4, |C| = 3
        let rate = StepRate::new("wiggle", vec![7.0, 5.0, 4.5, 1.0]);
        let mut best = f64::NEG_INFINITY;
        for a in 0..=4u32 {
            for b in 0..=(4 - a) {
                let c = 4 - a - b;
                let w = [a, b, c]
                    .iter()
                    .map(|&l| if l == 0 { 0.0 } else { rate.rate(l) })
                    .sum::<f64>();
                best = best.max(w);
            }
        }
        assert!((optimal_total_rate(&game(cfg, rate)) - best).abs() < 1e-12);
    }
}
