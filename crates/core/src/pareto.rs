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

use crate::config::GameConfig;
use crate::game::ChannelAllocationGame;
use crate::rate_model::RateModel;
use crate::strategy::StrategyMatrix;

/// Relative tolerance for welfare comparisons.
const REL_TOL: f64 = 1e-9;

/// Exact maximum of `Σ_c R(k_c)` over all load vectors summing to the
/// game's total radio count, by dynamic programming over channels
/// (`O(|C|·m²)` for `m = |N|·k` total radios).
///
/// This deliberately ignores per-user budgets: total welfare depends on
/// loads only, and any load vector with every `k_c ≤ m` is realizable by
/// *some* strategy matrix (users fill channels greedily), so the DP bound
/// is tight for welfare purposes.
pub fn optimal_total_rate(cfg: &GameConfig, rate: &dyn RateModel) -> f64 {
    let m = cfg.total_radios() as usize;
    let c = cfg.n_channels();
    // dp[r] = best welfare placing r radios on the channels seen so far.
    let neg = f64::NEG_INFINITY;
    let mut dp = vec![neg; m + 1];
    dp[0] = 0.0;
    for _ in 0..c {
        let mut next = vec![neg; m + 1];
        for r in 0..=m {
            for t in 0..=r {
                if dp[r - t] == neg {
                    continue;
                }
                let v = dp[r - t] + if t == 0 { 0.0 } else { rate.rate(t as u32) };
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
pub fn balanced_total_rate(cfg: &GameConfig, rate: &dyn RateModel) -> f64 {
    cfg.balanced_loads()
        .iter()
        .map(|&l| if l == 0 { 0.0 } else { rate.rate(l) })
        .sum()
}

/// `optimal_total_rate − balanced_total_rate`: the amount by which the
/// paper's Theorem 2 can be violated for a given rate model (0 for
/// constant `R`; tests exhibit a positive gap for cliff-shaped `R`).
pub fn welfare_gap(cfg: &GameConfig, rate: &dyn RateModel) -> f64 {
    optimal_total_rate(cfg, rate) - balanced_total_rate(cfg, rate)
}

/// True when `s` achieves the exact welfare optimum of its game.
pub fn is_system_optimal(game: &ChannelAllocationGame, s: &StrategyMatrix) -> bool {
    let total = game.total_utility(s);
    let opt = optimal_total_rate(game.config(), game.rate());
    total >= opt - REL_TOL * opt.abs().max(1.0)
}

/// True when `s` is Pareto-optimal (Definition 2), by exhaustive scan over
/// all strategy matrices of the game. Exponential; small instances only —
/// the T2 experiment bounds the enumeration explicitly.
pub fn is_pareto_optimal_ne(game: &ChannelAllocationGame, s: &StrategyMatrix) -> bool {
    let mine = game.utilities(s);
    let mut dominated = false;
    crate::enumerate::enumerate_allocations(game.config(), |other| {
        if dominated {
            return;
        }
        let theirs = game.utilities(other);
        if mrca_game::pareto::dominates(&theirs, &mine) {
            dominated = true;
        }
    });
    !dominated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate_model::{ConstantRate, StepRate};
    use std::sync::Arc;

    #[test]
    fn constant_rate_has_zero_gap() {
        for (n, k, c) in [(2usize, 2u32, 2usize), (4, 4, 5), (7, 4, 6), (3, 2, 4)] {
            let cfg = GameConfig::new(n, k, c).unwrap();
            let r = ConstantRate::unit();
            assert!(
                welfare_gap(&cfg, &r).abs() < 1e-12,
                "({n},{k},{c}): gap {}",
                welfare_gap(&cfg, &r)
            );
        }
    }

    #[test]
    fn optimal_equals_channels_times_rate_when_all_used() {
        // Constant R = 1 and |N|·k ≥ |C|: optimum = |C|.
        let cfg = GameConfig::new(4, 4, 5).unwrap();
        let r = ConstantRate::unit();
        assert!((optimal_total_rate(&cfg, &r) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_caps_at_total_radios_when_channels_abound() {
        // 1 user × 2 radios on 5 channels: at most 2 channels carry rate.
        let cfg = GameConfig::new(1, 2, 5).unwrap();
        let r = ConstantRate::unit();
        assert!((optimal_total_rate(&cfg, &r) - 2.0).abs() < 1e-12);
        assert!((balanced_total_rate(&cfg, &r) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cliff_rate_breaks_system_optimality_of_balanced_loads() {
        // The documented Theorem-2 boundary: R(1) = 10, R(k ≥ 2) = 2.
        let cfg = GameConfig::new(2, 2, 2).unwrap();
        let cliff = StepRate::new("cliff", vec![10.0, 2.0, 2.0, 2.0]);
        // Balanced loads (2,2): welfare 4. Optimal (3,1): 12.
        assert!((balanced_total_rate(&cfg, &cliff) - 4.0).abs() < 1e-12);
        assert!((optimal_total_rate(&cfg, &cliff) - 12.0).abs() < 1e-12);
        assert!((welfare_gap(&cfg, &cliff) - 8.0).abs() < 1e-12);
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
        assert!(game.nash_check(&s).is_nash());
        // …not system-optimal…
        assert!(!is_system_optimal(&game, &s));
        // …and not Pareto-optimal either: (1,0)/(0,1) dominates with
        // utilities (10, 10).
        assert!(!is_pareto_optimal_ne(&game, &s));
        let half = StrategyMatrix::from_rows(&[vec![1, 0], vec![0, 1]]).unwrap();
        assert_eq!(game.utilities(&half), vec![10.0, 10.0]);
        assert!(!game.nash_check(&half).is_nash(), "but parking is unstable");
    }

    #[test]
    fn theorem2_holds_for_constant_rate_on_ne() {
        let game =
            ChannelAllocationGame::with_constant_rate(GameConfig::new(2, 2, 3).unwrap(), 1.0);
        // Balanced NE: loads (2,1,1).
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0], vec![1, 0, 1]]).unwrap();
        assert!(game.nash_check(&s).is_nash());
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
        assert!((optimal_total_rate(&cfg, &rate) - best).abs() < 1e-12);
    }
}
