//! Convergence dynamics: user-level best response and radio-level better
//! response.
//!
//! The paper's Algorithm 1 is centralized; it names a distributed
//! implementation as ongoing work. This module provides the two natural
//! decentralized processes and the theory for why they converge:
//!
//! * [`BestResponseDriver`] — each user, in (round-robin or random) turn,
//!   recomputes its exact best response (the DP of
//!   [`br_dp::best_response`]) and switches if it strictly gains.
//! * [`RadioDynamics`] — each *radio* independently moves to the channel
//!   maximizing its own share `R(k_c)/k_c`. Viewing radios as players
//!   turns the game into an anonymous congestion game with payoff
//!   `d(k) = R(k)/k`, which admits the Rosenthal potential
//!   `Φ(S) = Σ_c Σ_{j≤k_c} R(j)/j`; every improving radio move strictly
//!   increases Φ, so the dynamics terminate ([`rosenthal_potential`],
//!   checked in tests and property tests).
//!
//! Experiment T4 measures rounds-to-convergence across instance sizes.

use crate::br_dp::{self, welfare_from_loads, ChannelGame};
use crate::br_fast::{ActiveSetDynamics, DynCounters};
use crate::game::{improves, ChannelAllocationGame};
use crate::sparse::SparseStrategies;
use crate::strategy::StrategyMatrix;
use crate::types::{ChannelId, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Player-activation schedule for the dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schedule {
    /// Fixed index order each round.
    RoundRobin,
    /// Fresh random permutation each round (seeded).
    RandomPermutation {
        /// RNG seed.
        seed: u64,
    },
}

/// Outcome of a dynamics run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceOutcome {
    /// Final strategy matrix.
    pub matrix: StrategyMatrix,
    /// Whether a fixed point was reached within the round budget.
    pub converged: bool,
    /// Rounds executed (full passes over the player set).
    pub rounds: usize,
    /// Individual strategy changes applied.
    pub moves: usize,
    /// Total-welfare trajectory, entry 0 = start.
    pub welfare_trajectory: Vec<f64>,
}

/// User-level best-response dynamics.
#[derive(Debug, Clone)]
pub struct BestResponseDriver {
    schedule: Schedule,
}

impl BestResponseDriver {
    /// Create a driver with the given schedule.
    pub fn new(schedule: Schedule) -> Self {
        BestResponseDriver { schedule }
    }

    /// Run from `start` for at most `max_rounds` rounds. Terminates early
    /// at the first round in which no user moved — then the matrix is a NE
    /// (Definition 1) by construction.
    pub fn run<G: ChannelGame + ?Sized>(
        &self,
        game: &G,
        start: StrategyMatrix,
        max_rounds: usize,
    ) -> ConvergenceOutcome {
        let n = game.n_users();
        let mut s = start;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = match self.schedule {
            Schedule::RandomPermutation { seed } => Some(StdRng::seed_from_u64(seed)),
            Schedule::RoundRobin => None,
        };
        // Every evaluation below is O(1)/O(|C|) against the matrix's kept
        // loads — no matrix clones, no column scans.
        let mut welfare = vec![welfare_from_loads(game, s.loads())];
        let mut moves = 0usize;
        let mut rounds = 0usize;
        let mut converged = false;

        while rounds < max_rounds {
            if let Some(r) = rng.as_mut() {
                order.shuffle(r);
            }
            let mut moved = false;
            for &u in &order {
                let user = UserId(u);
                let before = br_dp::utility(game, &s, user);
                let (br, after) = br_dp::best_response(game, &s, user);
                if improves(before, after) {
                    s.set_user_strategy(user, &br);
                    moves += 1;
                    moved = true;
                }
            }
            rounds += 1;
            welfare.push(welfare_from_loads(game, s.loads()));
            if !moved {
                converged = true;
                break;
            }
        }
        ConvergenceOutcome {
            matrix: s,
            converged,
            rounds,
            moves,
            welfare_trajectory: welfare,
        }
    }
}

/// Outcome of a sparse-engine dynamics run: the sparse analogue of
/// [`ConvergenceOutcome`], produced without ever materializing a dense
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOutcome {
    /// Final sparse strategy set.
    pub strategies: SparseStrategies,
    /// Whether a fixed point was reached within the round budget.
    pub converged: bool,
    /// Rounds executed (full passes over the player set).
    pub rounds: usize,
    /// Individual strategy changes applied.
    pub moves: usize,
    /// Total-welfare trajectory, entry 0 = start (computed from the loads
    /// via the per-channel identity — see
    /// [`br_dp::welfare_from_loads`]).
    pub welfare_trajectory: Vec<f64>,
    /// Active-set work counters (checks performed, checks the worklist
    /// proved unnecessary, wake-ups, moves).
    pub counters: DynCounters,
}

impl BestResponseDriver {
    /// [`run`](Self::run) on the sparse large-N path: same schedules,
    /// same improvement tolerance, same per-round welfare samples, but
    /// every best response goes through the [`ActiveSetDynamics`]
    /// worklist over the [`crate::br_fast::BrEngine`] (lazy heap or
    /// incremental DP) and the state never leaves
    /// [`SparseStrategies`] + [`crate::ChannelLoads`] — rounds cost engine
    /// queries only for users a move could have tempted. Works for any
    /// [`ChannelGame`]; the convergence-trace golden suite pins it to
    /// [`run`](Self::run) move-for-move on the paper's game.
    pub fn run_sparse<G: ChannelGame + ?Sized>(
        &self,
        game: &G,
        start: SparseStrategies,
        max_rounds: usize,
    ) -> SparseOutcome {
        let n = game.n_users();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = match self.schedule {
            Schedule::RandomPermutation { seed } => Some(StdRng::seed_from_u64(seed)),
            Schedule::RoundRobin => None,
        };
        let mut d = ActiveSetDynamics::new(game, start);
        let mut welfare = vec![welfare_from_loads(game, d.loads().as_slice())];
        // rank[u] = position of u in this round's activation order.
        let mut rank: Vec<u32> = Vec::new();
        let mut rounds = 0usize;
        let mut converged = false;

        while rounds < max_rounds {
            let perm = match rng.as_mut() {
                Some(r) => {
                    order.shuffle(r);
                    rank.clear();
                    rank.resize(n, 0);
                    for (i, &u) in order.iter().enumerate() {
                        rank[u] = i as u32;
                    }
                    Some(rank.as_slice())
                }
                None => None,
            };
            let moved = d.round(game, perm, None);
            rounds += 1;
            welfare.push(welfare_from_loads(game, d.loads().as_slice()));
            if !moved {
                converged = true;
                break;
            }
        }
        let counters = d.counters();
        SparseOutcome {
            strategies: d.into_state(),
            converged,
            rounds,
            moves: counters.moves as usize,
            welfare_trajectory: welfare,
            counters,
        }
    }
}

/// Radio-level better-response dynamics (each radio greedily improves its
/// own share). Convergence is guaranteed by the Rosenthal potential.
#[derive(Debug, Clone)]
pub struct RadioDynamics {
    seed: u64,
}

impl RadioDynamics {
    /// Create radio-level dynamics with a seed for the activation order.
    pub fn new(seed: u64) -> Self {
        RadioDynamics { seed }
    }

    /// Run from `start` until no radio can improve or `max_rounds` passes
    /// over all radios elapse.
    ///
    /// Each activation moves one radio of one user to the channel with the
    /// best post-move share, if that strictly improves the radio's share.
    /// Because each such move strictly increases the Rosenthal potential
    /// (bounded above), the process terminates; the round budget is a
    /// safety net.
    pub fn run(
        &self,
        game: &ChannelAllocationGame,
        start: StrategyMatrix,
        max_rounds: usize,
    ) -> ConvergenceOutcome {
        let cfg = game.config();
        let n_ch = cfg.n_channels();
        let mut s = start;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut welfare = vec![welfare_from_loads(game, s.loads())];
        let mut moves = 0usize;
        let mut rounds = 0usize;
        let mut converged = false;

        // Radio identities: (user, slot) pairs; slot is resolved to a
        // current channel at activation time.
        let mut radios: Vec<UserId> = UserId::all(cfg.n_users())
            .flat_map(|u| std::iter::repeat_n(u, cfg.radios_per_user() as usize))
            .collect();

        while rounds < max_rounds {
            radios.shuffle(&mut rng);
            let mut moved = false;
            for &user in &radios {
                // Pick one of the user's deployed radios uniformly (an
                // undeployed radio counts as being on a virtual empty
                // channel with share 0, so deploying it is always an
                // improvement — this realizes Lemma 1 dynamically).
                let deployed = s.user_total(user);
                let from = if deployed < cfg.radios_per_user() {
                    None // activate an idle radio
                } else {
                    // Choose a uniformly random deployed radio.
                    let mut idx = rng.gen_range(0..deployed);
                    let mut chan = None;
                    for c in ChannelId::all(n_ch) {
                        let here = s.get(user, c);
                        if idx < here {
                            chan = Some(c);
                            break;
                        }
                        idx -= here;
                    }
                    Some(chan.expect("deployed radio must be on some channel"))
                };

                let current_share = match from {
                    None => 0.0,
                    Some(b) => {
                        let kb = s.channel_load(b);
                        game.rate().rate(kb) / kb as f64
                    }
                };

                // Best destination share, accounting for the radio leaving
                // its source channel.
                let mut best: Option<(ChannelId, f64)> = None;
                for c in ChannelId::all(n_ch) {
                    if Some(c) == from {
                        continue;
                    }
                    let new_load = s.channel_load(c) + 1;
                    let share = game.rate().rate(new_load) / new_load as f64;
                    if best.is_none_or(|(_, b)| share > b) {
                        best = Some((c, share));
                    }
                }
                if let Some((to, share)) = best {
                    if improves(current_share, share) {
                        match from {
                            None => {
                                let cur = s.get(user, to);
                                s.set(user, to, cur + 1);
                            }
                            Some(b) => s.move_radio(user, b, to),
                        }
                        moves += 1;
                        moved = true;
                    }
                }
            }
            rounds += 1;
            welfare.push(welfare_from_loads(game, s.loads()));
            if !moved {
                converged = true;
                break;
            }
        }
        ConvergenceOutcome {
            matrix: s,
            converged,
            rounds,
            moves,
            welfare_trajectory: welfare,
        }
    }
}

/// The Rosenthal potential `Φ(S) = Σ_c Σ_{j=1..k_c} R(j)/j` of the
/// radio-level congestion game. Single-radio improving moves strictly
/// increase it (see [`mrca_game::potential::rosenthal_potential`] for the
/// generic form).
pub fn rosenthal_potential(game: &ChannelAllocationGame, s: &StrategyMatrix) -> f64 {
    mrca_game::potential::rosenthal_potential(s.loads(), |k| game.rate().rate(k) / k as f64)
}

/// A uniformly random full deployment: every radio of every user lands on
/// an independent uniform channel, drawn user by user from
/// `StdRng::seed_from_u64(seed)`. The canonical "bad start" for dynamics
/// experiments, for the paper's game and the per-user-budget extension
/// alike.
pub fn random_start<G: ChannelGame + ?Sized>(game: &G, seed: u64) -> StrategyMatrix {
    let n_ch = game.n_channels();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = StrategyMatrix::zeros(game.n_users(), n_ch);
    for u in UserId::all(game.n_users()) {
        for _ in 0..game.radios_of(u) {
            let c = ChannelId(rng.gen_range(0..n_ch));
            let cur = s.get(u, c);
            s.set(u, c, cur + 1);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_dp::is_nash;
    use crate::config::GameConfig;
    use crate::rate_model::LinearDecayRate;
    use std::sync::Arc;

    fn unit_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    #[test]
    fn best_response_converges_from_random_starts() {
        let g = unit_game(5, 3, 4);
        for seed in 0..10 {
            let start = random_start(&g, seed);
            let out = BestResponseDriver::new(Schedule::RoundRobin).run(&g, start, 100);
            assert!(out.converged, "seed {seed}");
            assert!(is_nash(&g, &out.matrix), "seed {seed}");
            assert!(out.matrix.max_delta() <= 1, "seed {seed}: not balanced");
        }
    }

    #[test]
    fn best_response_converges_with_decreasing_rate() {
        let cfg = GameConfig::new(6, 3, 5).unwrap();
        let g = ChannelAllocationGame::new(cfg, Arc::new(LinearDecayRate::new(10.0, 0.8, 1.0)));
        for seed in 0..5 {
            let out = BestResponseDriver::new(Schedule::RandomPermutation { seed }).run(
                &g,
                random_start(&g, seed),
                200,
            );
            assert!(out.converged, "seed {seed}");
            assert!(is_nash(&g, &out.matrix), "seed {seed}");
        }
    }

    #[test]
    fn converged_fixed_point_is_detected_quickly_from_ne() {
        let g = unit_game(4, 4, 6);
        let ne = crate::algorithm::algorithm1(&g, &crate::algorithm::Ordering::default());
        let out = BestResponseDriver::new(Schedule::RoundRobin).run(&g, ne.clone(), 10);
        assert!(out.converged);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.moves, 0);
        assert_eq!(out.matrix, ne);
    }

    #[test]
    fn radio_dynamics_converge_and_balance() {
        let g = unit_game(6, 4, 5);
        for seed in 0..8 {
            let out = RadioDynamics::new(seed).run(&g, random_start(&g, seed * 7 + 1), 500);
            assert!(out.converged, "seed {seed}");
            assert!(out.matrix.max_delta() <= 1, "seed {seed}");
            // Radio-level fixed points are single-move stable; for the
            // constant-rate game they coincide with user-level NE when no
            // user stacks avoidably — verify at least load balancing and
            // full deployment (Lemma 1 realized dynamically).
            for u in UserId::all(6) {
                assert_eq!(out.matrix.user_total(u), 4, "seed {seed}");
            }
        }
    }

    #[test]
    fn potential_increases_along_radio_moves() {
        let g = unit_game(4, 3, 4);
        let mut s = random_start(&g, 3);
        let mut phi = rosenthal_potential(&g, &s);
        // Drive manually: apply single improving radio moves and watch Φ.
        for _ in 0..100 {
            let out = RadioDynamics::new(99).run(&g, s.clone(), 1);
            let phi2 = rosenthal_potential(&g, &out.matrix);
            if out.moves == 0 {
                break;
            }
            assert!(
                phi2 > phi - 1e-12,
                "potential must not decrease: {phi} -> {phi2}"
            );
            phi = phi2;
            s = out.matrix;
        }
    }

    #[test]
    fn run_sparse_matches_dense_run_for_both_schedules() {
        let g = unit_game(6, 3, 5);
        for schedule in [
            Schedule::RoundRobin,
            Schedule::RandomPermutation { seed: 4 },
        ] {
            let start = random_start(&g, 2);
            let dense = BestResponseDriver::new(schedule).run(&g, start.clone(), 100);
            let sparse = BestResponseDriver::new(schedule).run_sparse(
                &g,
                crate::sparse::SparseStrategies::from_matrix(&g, &start),
                100,
            );
            assert_eq!(sparse.converged, dense.converged);
            assert_eq!(sparse.rounds, dense.rounds);
            assert_eq!(sparse.moves, dense.moves);
            assert_eq!(sparse.strategies.to_dense(), dense.matrix);
            assert_eq!(sparse.welfare_trajectory, dense.welfare_trajectory);
        }
    }

    #[test]
    fn welfare_trajectory_lengths_match() {
        let g = unit_game(3, 2, 3);
        let out = BestResponseDriver::new(Schedule::RoundRobin).run(&g, random_start(&g, 5), 50);
        assert_eq!(out.welfare_trajectory.len(), out.rounds + 1);
    }

    #[test]
    fn random_start_is_deterministic_and_full() {
        let g = unit_game(4, 3, 5);
        let a = random_start(&g, 11);
        let b = random_start(&g, 11);
        assert_eq!(a, b);
        for u in UserId::all(4) {
            assert_eq!(a.user_total(u), 3);
        }
        assert_ne!(a, random_start(&g, 12));
    }
}
