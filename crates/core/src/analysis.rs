//! Allocation metrics: load balance, fairness, efficiency.

use crate::br_dp::{utility, welfare_from_loads, ChannelGame};
use crate::strategy::StrategyMatrix;
use crate::types::UserId;
use serde::{Deserialize, Serialize};

/// Summary statistics of one allocation under one game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationStats {
    /// Channel loads `k_c`.
    pub loads: Vec<u32>,
    /// `max_c k_c − min_c k_c` (Proposition 1: ≤ 1 in any NE).
    pub max_delta: u32,
    /// Per-user utilities (Eq. 3).
    pub utilities: Vec<f64>,
    /// Total utility `Σ_i U_i = Σ_c R(k_c)`.
    pub total_utility: f64,
    /// Jain fairness index of the user utilities.
    pub jain_fairness: f64,
    /// Fraction of channels carrying at least one radio.
    pub channel_usage: f64,
    /// Fraction of the exact welfare optimum achieved
    /// (`total / optimal`, 1.0 = system-optimal).
    pub efficiency: f64,
}

/// Compute [`AllocationStats`] for `s` under `game` (the matrix's kept
/// loads feed every metric).
pub fn allocation_stats<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> AllocationStats {
    let utilities: Vec<f64> = UserId::all(game.n_users())
        .map(|u| utility(game, s, u))
        .collect();
    let total = welfare_from_loads(game, s.loads());
    let opt = crate::pareto::optimal_total_rate(game);
    let loads = s.loads().to_vec();
    AllocationStats {
        max_delta: s.max_delta(),
        jain_fairness: jain_fairness(&utilities),
        channel_usage: loads.iter().filter(|&&l| l > 0).count() as f64 / loads.len() as f64,
        efficiency: if opt > 0.0 { total / opt } else { 1.0 },
        total_utility: total,
        utilities,
        loads,
    }
}

/// Jain fairness index `(Σx)²/(n·Σx²)` of a utility vector: 1 when all
/// users fare equally, `1/n` when one user takes everything.
pub fn jain_fairness(utilities: &[f64]) -> f64 {
    if utilities.is_empty() {
        return 1.0;
    }
    let sum: f64 = utilities.iter().sum();
    let sumsq: f64 = utilities.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        1.0
    } else {
        sum * sum / (utilities.len() as f64 * sumsq)
    }
}

/// The load-balance measure `δ_max = max_{b,c} (k_b − k_c)` of an
/// allocation (alias of [`StrategyMatrix::max_delta`] as a free function,
/// for experiment tables).
pub fn load_balance_delta(s: &StrategyMatrix) -> u32 {
    s.max_delta()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GameConfig;
    use crate::prelude::*;

    fn unit_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    #[test]
    fn stats_of_a_nash_equilibrium() {
        let g = unit_game(4, 4, 6);
        let s = algorithm1(&g, &Ordering::default());
        let stats = allocation_stats(&g, &s);
        assert!(stats.max_delta <= 1);
        assert_eq!(stats.channel_usage, 1.0);
        assert!((stats.efficiency - 1.0).abs() < 1e-9);
        assert!((stats.total_utility - 6.0).abs() < 1e-9);
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain_fairness(&[1.0, 1.0, 1.0]), 1.0);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn bad_allocation_scores_poorly() {
        let g = unit_game(2, 2, 4);
        // Everyone stacked on c1.
        let s = StrategyMatrix::from_rows(&[vec![2, 0, 0, 0], vec![2, 0, 0, 0]]).unwrap();
        let stats = allocation_stats(&g, &s);
        assert_eq!(stats.max_delta, 4);
        assert_eq!(stats.channel_usage, 0.25);
        // Welfare 1 vs optimum 4.
        assert!((stats.efficiency - 0.25).abs() < 1e-12);
        // Perfectly fair, though: both users get 0.5.
        assert!((stats.jain_fairness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_alias_matches_method() {
        let s = StrategyMatrix::from_rows(&[vec![2, 0], vec![1, 0]]).unwrap();
        assert_eq!(load_balance_delta(&s), s.max_delta());
        assert_eq!(load_balance_delta(&s), 3);
    }
}
