//! Extension: a distributed channel-allocation protocol.
//!
//! The paper's Algorithm 1 is centralized ("it needs a coordination
//! between the players to determine the order of allocating their radios.
//! The development of a distributed implementation is an important part
//! of our ongoing work"). This module supplies that missing piece as a
//! round-based protocol requiring **no coordination and no messages**:
//!
//! 1. At the start of each round every device *senses* the per-channel
//!    radio counts (carrier-sensing each channel is enough — no control
//!    traffic).
//! 2. Each device, independently with *activation probability* `p`,
//!    computes its exact best response to the sensed snapshot and retunes
//!    its radios.
//!
//! Because activations are simultaneous within a round, the snapshot is
//! stale by construction: with `p = 1` all devices chase the same
//! under-loaded channels and the system can oscillate (a thundering
//! herd); with small `p` progress is slow. The sweet spot in between is
//! quantified by experiment T6. A device that sees no improving response
//! stays put, so every equilibrium of the game is absorbing.

use crate::br_dp::{best_response, is_nash, utility, ChannelGame};
use crate::game::improves;
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::UserId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the sensing-based distributed protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Per-round activation probability `p ∈ (0, 1]`.
    pub activation_prob: f64,
    /// Maximum rounds before the run is declared non-convergent.
    pub max_rounds: usize,
    /// RNG seed for activation coin flips.
    pub seed: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            activation_prob: 0.3,
            max_rounds: 1000,
            seed: 0,
        }
    }
}

/// Outcome of a protocol run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolOutcome {
    /// Final allocation.
    pub matrix: StrategyMatrix,
    /// Whether a Nash equilibrium was reached within the round budget.
    pub converged: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Total retunings performed (radio-vector switches).
    pub retunes: usize,
    /// Rounds in which ≥ 2 devices moved simultaneously (the contention
    /// the activation probability is there to dampen).
    pub simultaneous_rounds: usize,
}

/// Run the distributed protocol on `game` from `start`.
///
/// # Panics
///
/// Panics if `activation_prob` is outside `(0, 1]`.
pub fn run_protocol<G: ChannelGame + ?Sized>(
    game: &G,
    start: StrategyMatrix,
    cfg: &ProtocolConfig,
) -> ProtocolOutcome {
    assert!(
        cfg.activation_prob > 0.0 && cfg.activation_prob <= 1.0,
        "activation probability must be in (0, 1], got {}",
        cfg.activation_prob
    );
    let n = game.n_users();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut s = start;
    let mut retunes = 0usize;
    let mut simultaneous_rounds = 0usize;

    for round in 1..=cfg.max_rounds {
        // Sensing snapshot: all best responses within a round are computed
        // against the state as it stood at the round boundary. Movers are
        // applied only after the scan, so `s` itself is the snapshot — no
        // matrix clone.
        let mut movers: Vec<(UserId, StrategyVector)> = Vec::new();
        for u in UserId::all(n) {
            if !rng.gen_bool(cfg.activation_prob) {
                continue;
            }
            let before = utility(game, &s, u);
            let (br, after) = best_response(game, &s, u);
            if improves(before, after) {
                movers.push((u, br));
            }
        }
        if movers.len() >= 2 {
            simultaneous_rounds += 1;
        }
        for (u, br) in &movers {
            s.set_user_strategy(*u, br);
            retunes += 1;
        }
        // Termination test against the *current* state (cheap: exact check).
        if is_nash(game, &s) {
            return ProtocolOutcome {
                matrix: s,
                converged: true,
                rounds: round,
                retunes,
                simultaneous_rounds,
            };
        }
    }
    ProtocolOutcome {
        converged: false,
        rounds: cfg.max_rounds,
        retunes,
        simultaneous_rounds,
        matrix: s,
    }
}

/// Convergence statistics of the protocol over several seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolStats {
    /// Activation probability used.
    pub activation_prob: f64,
    /// Fraction of runs that converged.
    pub convergence_rate: f64,
    /// Mean rounds to convergence (over converged runs).
    pub mean_rounds: f64,
    /// Mean retunings per run.
    pub mean_retunes: f64,
}

/// Sweep the protocol over `seeds`, returning aggregate statistics.
pub fn protocol_stats<G: ChannelGame + ?Sized>(
    game: &G,
    p: f64,
    seeds: &[u64],
    max_rounds: usize,
) -> ProtocolStats {
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut converged = 0usize;
    let mut rounds_sum = 0usize;
    let mut retunes_sum = 0usize;
    for &seed in seeds {
        let start = crate::dynamics::random_start(game, seed.wrapping_mul(31).wrapping_add(7));
        let out = run_protocol(
            game,
            start,
            &ProtocolConfig {
                activation_prob: p,
                max_rounds,
                seed,
            },
        );
        if out.converged {
            converged += 1;
            rounds_sum += out.rounds;
        }
        retunes_sum += out.retunes;
    }
    ProtocolStats {
        activation_prob: p,
        convergence_rate: converged as f64 / seeds.len() as f64,
        mean_rounds: if converged > 0 {
            rounds_sum as f64 / converged as f64
        } else {
            f64::NAN
        },
        mean_retunes: retunes_sum as f64 / seeds.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GameConfig;
    use crate::dynamics::random_start;
    use crate::game::ChannelAllocationGame;

    fn game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    #[test]
    fn protocol_converges_with_moderate_activation() {
        let g = game(8, 3, 6);
        for seed in 0..6 {
            let out = run_protocol(
                &g,
                random_start(&g, seed),
                &ProtocolConfig {
                    activation_prob: 0.3,
                    max_rounds: 2000,
                    seed,
                },
            );
            assert!(out.converged, "seed {seed}: {} rounds", out.rounds);
            assert!(is_nash(&g, &out.matrix));
            assert!(out.matrix.max_delta() <= 1);
        }
    }

    #[test]
    fn equilibria_are_absorbing() {
        let g = game(5, 2, 4);
        let ne = crate::algorithm::algorithm1(&g, &crate::algorithm::Ordering::default());
        let out = run_protocol(
            &g,
            ne.clone(),
            &ProtocolConfig {
                activation_prob: 1.0,
                max_rounds: 5,
                seed: 1,
            },
        );
        assert!(out.converged);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.retunes, 0);
        assert_eq!(out.matrix, ne);
    }

    #[test]
    fn full_activation_thrashes_more_than_sparse() {
        // p = 1 makes every mover act on the same stale snapshot: more
        // simultaneous-move rounds and more retunes than p = 0.2 on the
        // same instance (it may still converge by luck, but pays for it).
        let g = game(10, 3, 8);
        let mut sim_full = 0usize;
        let mut sim_sparse = 0usize;
        for seed in 0..8 {
            let start = random_start(&g, 100 + seed);
            let full = run_protocol(
                &g,
                start.clone(),
                &ProtocolConfig {
                    activation_prob: 1.0,
                    max_rounds: 300,
                    seed,
                },
            );
            let sparse = run_protocol(
                &g,
                start,
                &ProtocolConfig {
                    activation_prob: 0.2,
                    max_rounds: 300,
                    seed,
                },
            );
            sim_full += full.simultaneous_rounds;
            sim_sparse += sparse.simultaneous_rounds;
        }
        assert!(
            sim_full > sim_sparse,
            "full activation should collide more: {sim_full} vs {sim_sparse}"
        );
    }

    #[test]
    fn stats_aggregation() {
        let g = game(6, 2, 4);
        let seeds: Vec<u64> = (0..5).collect();
        let stats = protocol_stats(&g, 0.4, &seeds, 1000);
        assert_eq!(stats.activation_prob, 0.4);
        assert!(
            stats.convergence_rate > 0.99,
            "rate {}",
            stats.convergence_rate
        );
        assert!(stats.mean_rounds >= 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = game(5, 2, 4);
        let run = |seed| {
            run_protocol(
                &g,
                random_start(&g, 9),
                &ProtocolConfig {
                    activation_prob: 0.5,
                    max_rounds: 500,
                    seed,
                },
            )
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    #[should_panic(expected = "activation probability")]
    fn zero_activation_rejected() {
        let g = game(2, 1, 2);
        let _ = run_protocol(
            &g,
            StrategyMatrix::zeros(2, 2),
            &ProtocolConfig {
                activation_prob: 0.0,
                max_rounds: 1,
                seed: 0,
            },
        );
    }
}
