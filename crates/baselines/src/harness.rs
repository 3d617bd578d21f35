//! Side-by-side comparison of allocators on one game.

use crate::Allocator;
use mrca_core::analysis::{allocation_stats, AllocationStats};
use mrca_core::br_dp::is_nash;
use mrca_core::ChannelAllocationGame;
use serde::{Deserialize, Serialize};

/// One allocator's outcome on one game, averaged over seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Allocator name.
    pub allocator: String,
    /// Mean total utility over the seeds.
    pub mean_welfare: f64,
    /// Mean efficiency (fraction of the welfare optimum).
    pub mean_efficiency: f64,
    /// Mean Jain fairness of user utilities.
    pub mean_fairness: f64,
    /// Worst load imbalance δ observed.
    pub max_delta: u32,
    /// Fraction of runs whose output was a Nash equilibrium.
    pub nash_fraction: f64,
    /// Number of seeds evaluated.
    pub runs: usize,
}

/// Run every allocator on `game` across `seeds` and aggregate.
pub fn compare(
    game: &ChannelAllocationGame,
    allocators: &[&dyn Allocator],
    seeds: &[u64],
) -> Vec<ComparisonRow> {
    assert!(!seeds.is_empty(), "need at least one seed");
    allocators
        .iter()
        .map(|a| {
            let mut welfare = 0.0;
            let mut efficiency = 0.0;
            let mut fairness = 0.0;
            let mut max_delta = 0u32;
            let mut nash = 0usize;
            for &seed in seeds {
                let s = a.allocate(game, seed);
                let stats: AllocationStats = allocation_stats(game, &s);
                welfare += stats.total_utility;
                efficiency += stats.efficiency;
                fairness += stats.jain_fairness;
                max_delta = max_delta.max(stats.max_delta);
                if is_nash(game, &s) {
                    nash += 1;
                }
            }
            let n = seeds.len() as f64;
            ComparisonRow {
                allocator: a.name().to_owned(),
                mean_welfare: welfare / n,
                mean_efficiency: efficiency / n,
                mean_fairness: fairness / n,
                max_delta,
                nash_fraction: nash as f64 / n,
                runs: seeds.len(),
            }
        })
        .collect()
}

/// Format comparison rows as an aligned ASCII table.
pub fn format_table(rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>10} {:>11} {:>9} {:>7} {:>6}\n",
        "allocator", "welfare", "efficiency", "fairness", "δmax", "NE%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>10.3} {:>11.4} {:>9.4} {:>7} {:>5.0}%\n",
            r.allocator,
            r.mean_welfare,
            r.mean_efficiency,
            r.mean_fairness,
            r.max_delta,
            r.nash_fraction * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm1Allocator, GreedyAllocator, RandomAllocator, SelfishAllocator};
    use mrca_core::GameConfig;

    fn game() -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(6, 3, 5).unwrap(), 1.0)
    }

    /// Concave decreasing rate (increasing marginal losses): balanced
    /// loads are *strictly* welfare-optimal, so imbalance shows up in the
    /// efficiency column.
    fn concave_game() -> ChannelAllocationGame {
        use mrca_core::rate_model::StepRate;
        use std::sync::Arc;
        let mut table = Vec::new();
        let mut r: f64 = 10.0;
        let mut drop = 0.25;
        for _ in 0..24 {
            table.push(r);
            r = (r - drop).max(0.05);
            drop += 0.25;
        }
        ChannelAllocationGame::new(
            GameConfig::new(6, 3, 5).unwrap(),
            Arc::new(StepRate::new("concave", table)),
        )
    }

    #[test]
    fn ordering_matches_the_papers_story() {
        let g = concave_game();
        let rows = compare(
            &g,
            &[
                &RandomAllocator,
                &GreedyAllocator,
                &SelfishAllocator::default(),
                &Algorithm1Allocator,
            ],
            &[0, 1, 2, 3, 4, 5, 6, 7],
        );
        let by_name = |n: &str| rows.iter().find(|r| r.allocator == n).unwrap().clone();
        let random = by_name("random");
        let selfish = by_name("selfish-br");
        let alg1 = by_name("algorithm1");
        let greedy = by_name("greedy-central");

        // Selfish convergence and Algorithm 1 achieve full efficiency and
        // always land on equilibria.
        assert!((selfish.mean_efficiency - 1.0).abs() < 1e-9);
        assert!((alg1.mean_efficiency - 1.0).abs() < 1e-9);
        assert_eq!(selfish.nash_fraction, 1.0);
        assert_eq!(alg1.nash_fraction, 1.0);
        // Central greedy matches the welfare but needs full coordination.
        assert!((greedy.mean_efficiency - 1.0).abs() < 1e-9);
        // Uncoordinated random is strictly worse on average.
        assert!(random.mean_efficiency < 0.999);
        assert!(random.max_delta > 1);
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let g = game();
        let rows = compare(&g, &[&RandomAllocator, &Algorithm1Allocator], &[1, 2]);
        let table = format_table(&rows);
        assert!(table.contains("random"));
        assert!(table.contains("algorithm1"));
        assert!(table.contains("efficiency"));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let g = game();
        let _ = compare(&g, &[&RandomAllocator], &[]);
    }
}
