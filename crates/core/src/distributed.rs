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

use crate::br_dp::ChannelGame;
use crate::br_fast::{ActiveSetDynamics, DynCounters};
use crate::game::{improves, ChannelAllocationGame};
use crate::sparse::{SparseEntry, SparseStrategies};
use crate::strategy::StrategyMatrix;
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
pub fn run_protocol(
    game: &ChannelAllocationGame,
    start: StrategyMatrix,
    cfg: &ProtocolConfig,
) -> ProtocolOutcome {
    assert!(
        cfg.activation_prob > 0.0 && cfg.activation_prob <= 1.0,
        "activation probability must be in (0, 1], got {}",
        cfg.activation_prob
    );
    let n = game.config().n_users();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut s = start;
    let mut retunes = 0usize;
    let mut simultaneous_rounds = 0usize;

    for round in 1..=cfg.max_rounds {
        // Sensing snapshot: all best responses within a round are computed
        // against the state as it stood at the round boundary. Movers are
        // applied only after the scan, so `s` itself is the snapshot — no
        // matrix clone.
        let mut movers: Vec<(UserId, crate::strategy::StrategyVector)> = Vec::new();
        for u in UserId::all(n) {
            if !rng.gen_bool(cfg.activation_prob) {
                continue;
            }
            let before = game.utility(&s, u);
            let (br, after) = game.best_response(&s, u);
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
        if game.nash_check(&s).is_nash() {
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

/// Outcome of a sparse-engine protocol run (the large-N analogue of
/// [`ProtocolOutcome`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseProtocolOutcome {
    /// Final sparse allocation.
    pub strategies: SparseStrategies,
    /// Whether a Nash equilibrium was reached within the round budget.
    pub converged: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Total retunings performed.
    pub retunes: usize,
    /// Rounds in which ≥ 2 devices moved simultaneously.
    pub simultaneous_rounds: usize,
    /// Active-set work counters: best responses actually computed versus
    /// probes the worklist proved unnecessary.
    pub counters: DynCounters,
}

/// [`run_protocol`] on the sparse large-N path, generic over every
/// [`ChannelGame`]: the same sensing-snapshot semantics (all movers of a
/// round best-respond to the round-boundary loads), but the state lives
/// in an [`ActiveSetDynamics`] worklist engine. A settled device — one
/// whose last probe found no improving response and whose recorded slack
/// no later move could have overcome — skips its best-response
/// computation entirely (its activation coin is still flipped, so the
/// random stream and every observable outcome match the pre-active-set
/// implementation bit for bit), and the per-round termination test probes
/// only unsettled devices instead of scanning all `|N|`.
///
/// # Panics
///
/// Panics if `activation_prob` is outside `(0, 1]`.
pub fn run_protocol_sparse<G: ChannelGame + ?Sized>(
    game: &G,
    start: SparseStrategies,
    cfg: &ProtocolConfig,
) -> SparseProtocolOutcome {
    assert!(
        cfg.activation_prob > 0.0 && cfg.activation_prob <= 1.0,
        "activation probability must be in (0, 1], got {}",
        cfg.activation_prob
    );
    let n = game.n_users();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut d = ActiveSetDynamics::new(game, start);
    let mut retunes = 0usize;
    let mut simultaneous_rounds = 0usize;

    for round in 1..=cfg.max_rounds {
        // Sensing snapshot: probes do not mutate loads or engine, so all
        // of a round's movers best-respond to the round-boundary state,
        // exactly like the dense protocol's snapshot load vector.
        let mut movers: Vec<(UserId, Vec<SparseEntry>)> = Vec::new();
        for u in UserId::all(n) {
            if !rng.gen_bool(cfg.activation_prob) {
                continue;
            }
            if d.is_settled(u) {
                d.note_skipped_check();
                continue;
            }
            if let Some(br) = d.probe(game, u) {
                movers.push((u, br));
            }
        }
        if movers.len() >= 2 {
            simultaneous_rounds += 1;
        }
        // Apply the retunes through the wake machinery. A mover's new row
        // was a best response to the *snapshot*, not necessarily to the
        // post-application loads, so `apply_row` leaves it scheduled.
        for (u, br) in &movers {
            d.apply_row(game, *u, br);
            retunes += 1;
        }
        // Termination test against the *current* state, with early exit:
        // settled devices provably cannot improve, so only unsettled ones
        // are probed (each no-op probe settles its device for later
        // rounds).
        let mut is_ne = true;
        for u in UserId::all(n) {
            if !d.is_settled(u) && d.probe(game, u).is_some() {
                is_ne = false;
                break;
            }
        }
        if is_ne {
            let counters = d.counters();
            return SparseProtocolOutcome {
                strategies: d.into_state(),
                converged: true,
                rounds: round,
                retunes,
                simultaneous_rounds,
                counters,
            };
        }
    }
    let counters = d.counters();
    SparseProtocolOutcome {
        converged: false,
        rounds: cfg.max_rounds,
        retunes,
        simultaneous_rounds,
        strategies: d.into_state(),
        counters,
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
pub fn protocol_stats(
    game: &ChannelAllocationGame,
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
            assert!(g.nash_check(&out.matrix).is_nash());
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
    fn sparse_protocol_matches_dense_protocol() {
        let g = game(8, 3, 6);
        for seed in 0..4 {
            let start = random_start(&g, 40 + seed);
            let cfg = ProtocolConfig {
                activation_prob: 0.3,
                max_rounds: 2000,
                seed,
            };
            let dense = run_protocol(&g, start.clone(), &cfg);
            let sparse = run_protocol_sparse(
                &g,
                crate::sparse::SparseStrategies::from_matrix(&g, &start),
                &cfg,
            );
            assert_eq!(sparse.converged, dense.converged, "seed {seed}");
            assert_eq!(sparse.rounds, dense.rounds, "seed {seed}");
            assert_eq!(sparse.retunes, dense.retunes, "seed {seed}");
            assert_eq!(sparse.simultaneous_rounds, dense.simultaneous_rounds);
            assert_eq!(sparse.strategies.to_dense(), dense.matrix, "seed {seed}");
        }
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
