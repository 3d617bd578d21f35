//! # mrca-baselines — comparison allocators
//!
//! The paper's punchline is that *selfish* multi-radio channel allocation
//! converges to a load-balanced, efficient outcome. To make that claim
//! quantitative (experiment T2 and the benches), this crate implements the
//! alternatives a system designer would actually compare against:
//!
//! | Allocator | Models | Coordination |
//! |---|---|---|
//! | [`RandomAllocator`] | uncoordinated plug-and-play devices | none |
//! | [`RoundRobinAllocator`] | static frequency planning | full, offline |
//! | [`GreedyAllocator`] | centralized least-loaded assignment | full, online |
//! | [`ColoringAllocator`] | classical graph-coloring FCA (the paper's refs 7 and 16) | full, offline |
//! | [`SelfishAllocator`] | the paper: best-response dynamics from a random start | none (converges) |
//! | [`Algorithm1Allocator`] | the paper's Algorithm 1 | ordering only |
//!
//! All implement [`Allocator`]; [`harness::compare`] runs any set of them
//! over a game and reports welfare, fairness and balance side by side.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coloring;
pub mod harness;

use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::dynamics::{random_start, BestResponseDriver, Schedule};
use mrca_core::{ChannelAllocationGame, ChannelId, StrategyMatrix, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use coloring::{ColoringAllocator, ConflictGraph};
pub use harness::{compare, ComparisonRow};

/// A channel-allocation policy: maps a game (dimensions + rate model) to a
/// strategy matrix. Implementations must be deterministic given `seed`.
pub trait Allocator: std::fmt::Debug {
    /// Short name for tables.
    fn name(&self) -> &str;

    /// Produce an allocation for `game` using `seed` for any randomness.
    fn allocate(&self, game: &ChannelAllocationGame, seed: u64) -> StrategyMatrix;
}

/// Uncoordinated baseline: every radio lands on an independent uniform
/// channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomAllocator;

impl Allocator for RandomAllocator {
    fn name(&self) -> &str {
        "random"
    }

    fn allocate(&self, game: &ChannelAllocationGame, seed: u64) -> StrategyMatrix {
        let cfg = game.config();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = StrategyMatrix::zeros(cfg.n_users(), cfg.n_channels());
        for u in UserId::all(cfg.n_users()) {
            for _ in 0..cfg.radios_per_user() {
                let c = ChannelId(rng.gen_range(0..cfg.n_channels()));
                let cur = s.get(u, c);
                s.set(u, c, cur + 1);
            }
        }
        s
    }
}

/// Static planning baseline: radio `j` of user `i` goes to channel
/// `(i·k + j) mod |C|`. Perfectly balanced, zero runtime coordination, but
/// oblivious to the rate model and to who shares with whom.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinAllocator;

impl Allocator for RoundRobinAllocator {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn allocate(&self, game: &ChannelAllocationGame, _seed: u64) -> StrategyMatrix {
        let cfg = game.config();
        let k = cfg.radios_per_user() as usize;
        let mut s = StrategyMatrix::zeros(cfg.n_users(), cfg.n_channels());
        for u in 0..cfg.n_users() {
            for j in 0..k {
                let c = ChannelId((u * k + j) % cfg.n_channels());
                let cur = s.get(UserId(u), c);
                s.set(UserId(u), c, cur + 1);
            }
        }
        s
    }
}

/// Centralized cooperative baseline: place radios one at a time on the
/// globally least-loaded channel (ties to the lowest index), ignoring
/// ownership. Produces balanced loads — but can stack one user's radios,
/// so it is welfare-optimal without being an equilibrium (users would
/// deviate if allowed).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyAllocator;

impl Allocator for GreedyAllocator {
    fn name(&self) -> &str {
        "greedy-central"
    }

    fn allocate(&self, game: &ChannelAllocationGame, _seed: u64) -> StrategyMatrix {
        let cfg = game.config();
        let mut s = StrategyMatrix::zeros(cfg.n_users(), cfg.n_channels());
        let mut loads = vec![0u32; cfg.n_channels()];
        for u in 0..cfg.n_users() {
            for _ in 0..cfg.radios_per_user() {
                let c = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .map(|(i, _)| i)
                    .expect("at least one channel");
                loads[c] += 1;
                let cur = s.get(UserId(u), ChannelId(c));
                s.set(UserId(u), ChannelId(c), cur + 1);
            }
        }
        s
    }
}

/// The paper's process: start from a uniformly random deployment and run
/// user-level best-response dynamics to convergence.
#[derive(Debug, Clone, Copy)]
pub struct SelfishAllocator {
    /// Maximum rounds before giving up (the dynamics converge long before
    /// this in practice; see experiment T4).
    pub max_rounds: usize,
}

impl Default for SelfishAllocator {
    fn default() -> Self {
        SelfishAllocator { max_rounds: 1000 }
    }
}

impl Allocator for SelfishAllocator {
    fn name(&self) -> &str {
        "selfish-br"
    }

    fn allocate(&self, game: &ChannelAllocationGame, seed: u64) -> StrategyMatrix {
        let start = random_start(game, seed);
        BestResponseDriver::new(Schedule::RandomPermutation { seed })
            .run(game, start, self.max_rounds)
            .matrix
    }
}

/// The paper's Algorithm 1 with the `PreferUnused` tie-break (the variant
/// our reproduction finds to reliably land on a NE; see
/// `mrca_core::algorithm`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Algorithm1Allocator;

impl Allocator for Algorithm1Allocator {
    fn name(&self) -> &str {
        "algorithm1"
    }

    fn allocate(&self, game: &ChannelAllocationGame, _seed: u64) -> StrategyMatrix {
        algorithm1(game, &Ordering::with_tie_break(TieBreak::PreferUnused))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrca_core::br_dp::{is_nash, validate};
    use mrca_core::GameConfig;

    fn game() -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(5, 3, 4).unwrap(), 1.0)
    }

    #[test]
    fn all_allocators_respect_budgets() {
        let g = game();
        let allocators: Vec<Box<dyn Allocator>> = vec![
            Box::new(RandomAllocator),
            Box::new(RoundRobinAllocator),
            Box::new(GreedyAllocator),
            Box::new(SelfishAllocator::default()),
            Box::new(Algorithm1Allocator),
        ];
        for a in &allocators {
            let s = a.allocate(&g, 7);
            validate(&g, &s).unwrap_or_else(|_| panic!("{}", a.name()));
            for u in UserId::all(5) {
                assert_eq!(s.user_total(u), 3, "{}", a.name());
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = game();
        assert_eq!(
            RandomAllocator.allocate(&g, 3),
            RandomAllocator.allocate(&g, 3)
        );
        assert_ne!(
            RandomAllocator.allocate(&g, 3),
            RandomAllocator.allocate(&g, 4)
        );
    }

    #[test]
    fn round_robin_and_greedy_balance_loads() {
        let g = game();
        for a in [&RoundRobinAllocator as &dyn Allocator, &GreedyAllocator] {
            let s = a.allocate(&g, 0);
            assert!(s.max_delta() <= 1, "{}: loads {:?}", a.name(), s.loads());
        }
    }

    #[test]
    fn selfish_and_algorithm1_reach_nash() {
        let g = game();
        for seed in [0u64, 1, 2] {
            let s = SelfishAllocator::default().allocate(&g, seed);
            assert!(is_nash(&g, &s), "selfish seed {seed}");
        }
        let s = Algorithm1Allocator.allocate(&g, 0);
        assert!(is_nash(&g, &s));
    }

    #[test]
    fn greedy_sweep_is_balanced_and_nash_for_constant_rate() {
        // For homogeneous users with k ≤ |C|, global least-loaded
        // placement keeps every user flat (≤ 1 radio per channel) and the
        // loads balanced, which for constant R is exactly the Theorem-1 NE
        // form. Verify over a grid.
        for n in 1..=5usize {
            for k in 1..=4u32 {
                for c in (k as usize)..=5 {
                    let g = ChannelAllocationGame::with_constant_rate(
                        GameConfig::new(n, k, c).unwrap(),
                        1.0,
                    );
                    let s = GreedyAllocator.allocate(&g, 0);
                    assert!(s.max_delta() <= 1, "({n},{k},{c}): {:?}", s.loads());
                    assert!(is_nash(&g, &s), "({n},{k},{c})");
                }
            }
        }
    }
}
