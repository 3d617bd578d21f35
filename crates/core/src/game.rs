//! The paper's channel-allocation game: one budget `k`, one rate model
//! `R`, the improvement predicate every move and Nash verdict routes
//! through, and the adapter to the generic game toolkit. Its utilities
//! (Eq. 3), benefit of change (Eq. 7), exact best responses and Nash
//! check are the generic bodies of [`br_dp`] over [`ChannelGame`].

use crate::br_dp::{self, ChannelGame};
use crate::config::GameConfig;
use crate::enumerate::user_strategy_space;
use crate::rate_model::{ConstantRate, RateModel, RateShape};
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::{ChannelId, UserId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tolerance for "strictly improving" comparisons on utilities,
/// **relative** to the utility magnitude — see [`improvement_eps`].
pub const UTILITY_TOLERANCE: f64 = 1e-9;

/// The epsilon under which a deviation does not count as improving:
/// `ε = UTILITY_TOLERANCE · max(|before|, |best|)`.
///
/// The comparison must be *relative*: per-user utilities scale like
/// `R/L` and rebalancing gains like `R/L²`, so at 10⁷ users on 64 unit
/// channels a one-radio imbalance is worth ~1e-11 — far below any fixed
/// absolute cutoff that is also loose enough for `R ≈ 1` games. With an
/// absolute 1e-9 both dynamics routes silently stop short of the
/// paper's Prop-1 balance at that scale (PR 6 worked around it by
/// scaling `R` with `N`); a relative epsilon is scale-invariant, so the
/// same game certifies balanced at any population or rate magnitude.
/// Deliberately **no** absolute floor (`max(1, ·)` would reintroduce
/// the stall for sub-unit utilities): when both utilities are exactly
/// zero the epsilon is zero and `best > before` decides, which is the
/// right call for empty rows.
#[inline]
pub fn improvement_eps(before: f64, best: f64) -> f64 {
    UTILITY_TOLERANCE * before.abs().max(best.abs())
}

/// The strict-improvement predicate every gain/park decision routes
/// through: `best` improves on `before` iff it clears
/// [`improvement_eps`]. Centralized so the dynamics drivers and the
/// Nash checkers cannot disagree on what counts as a move.
#[inline]
pub fn improves(before: f64, best: f64) -> bool {
    best > before + improvement_eps(before, best)
}

/// The multi-radio channel-allocation game of the paper: a configuration
/// `(|N|, k, |C|)` plus a channel rate model `R(k_c)`.
///
/// The rate model is shared behind an [`Arc`] so games are cheap to clone
/// and can be sent across threads (parameter sweeps run in parallel).
#[derive(Debug, Clone)]
pub struct ChannelAllocationGame {
    config: GameConfig,
    rate: Arc<dyn RateModel>,
}

/// Outcome of the exact Nash check of [`br_dp::nash_check`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NashCheck {
    /// Per-user best-response improvement over the current utility
    /// (`0` when the user is already best-responding).
    pub gains: Vec<f64>,
    /// The first user with a strictly improving deviation, if any, with its
    /// improving strategy.
    pub witness: Option<(UserId, StrategyVector)>,
}

impl NashCheck {
    /// True when no user can strictly improve: the matrix is a NE
    /// (Definition 1 of the paper).
    pub fn is_nash(&self) -> bool {
        self.witness.is_none()
    }

    /// Largest unilateral improvement available to any user.
    pub fn max_gain(&self) -> f64 {
        self.gains.iter().copied().fold(0.0, f64::max)
    }
}

impl ChannelAllocationGame {
    /// Create a game from a configuration and a rate model.
    pub fn new(config: GameConfig, rate: Arc<dyn RateModel>) -> Self {
        ChannelAllocationGame { config, rate }
    }

    /// Convenience: constant `R(k_c) = bps` (the paper's TDMA idealization,
    /// used in all of its figures).
    pub fn with_constant_rate(config: GameConfig, bps: f64) -> Self {
        ChannelAllocationGame {
            config,
            rate: Arc::new(ConstantRate::new(bps)),
        }
    }

    /// The game's dimensions.
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// The channel rate model.
    pub fn rate(&self) -> &Arc<dyn RateModel> {
        &self.rate
    }

    /// Wrap this game in an adapter implementing [`mrca_game::Game`], with
    /// each user's strategy space enumerated explicitly (all allocations of
    /// *up to* `k` radios — under-provisioning is a legal strategy, which
    /// is what lets the generic machinery re-discover Lemma 1).
    ///
    /// The joint space has `(#vectors)^{|N|}` profiles; use only for small
    /// instances (the cross-validation experiments cap it explicitly).
    pub fn indexed(&self) -> IndexedGame {
        IndexedGame::new(self.clone())
    }
}

/// The paper's game through the unified engine: every user has the same
/// budget `k`, every channel the same rate model, and the payoff is the
/// fair share `t/(L+t)·R(L+t)` of Eq. 3.
impl ChannelGame for ChannelAllocationGame {
    fn n_users(&self) -> usize {
        self.config.n_users()
    }

    fn n_channels(&self) -> usize {
        self.config.n_channels()
    }

    fn radios_of(&self, _user: UserId) -> u32 {
        self.config.radios_per_user()
    }

    fn channel_payoff(&self, _channel: ChannelId, others_load: u32, slots: u32) -> f64 {
        if slots == 0 {
            return 0.0;
        }
        let total = others_load + slots;
        slots as f64 / total as f64 * self.rate.rate(total)
    }

    fn payoff_shape(&self) -> RateShape {
        // Forwarded per rate model: concave-sharing for constant rates
        // (the paper's idealization), enabling the O(k log |C|) heap
        // best response.
        self.rate.shape()
    }
}

/// Adapter presenting [`ChannelAllocationGame`] through the generic
/// [`mrca_game::Game`] trait, for cross-validation against the generic
/// equilibrium/Pareto machinery.
#[derive(Debug, Clone)]
pub struct IndexedGame {
    game: ChannelAllocationGame,
    /// All legal strategy vectors of one user (identical for every user).
    space: Vec<StrategyVector>,
}

impl IndexedGame {
    fn new(game: ChannelAllocationGame) -> Self {
        let space =
            user_strategy_space(game.config().n_channels(), game.config().radios_per_user());
        IndexedGame { game, space }
    }

    /// The enumerated per-user strategy space.
    pub fn strategy_space(&self) -> &[StrategyVector] {
        &self.space
    }

    /// Decode an indexed profile into a strategy matrix.
    pub fn to_matrix(&self, profile: &[usize]) -> StrategyMatrix {
        let cfg = self.game.config();
        let mut m = StrategyMatrix::zeros(cfg.n_users(), cfg.n_channels());
        for (i, &si) in profile.iter().enumerate() {
            m.set_user_strategy(UserId(i), &self.space[si]);
        }
        m
    }

    /// Encode a strategy matrix into an indexed profile.
    ///
    /// # Panics
    ///
    /// Panics if a row of the matrix is not in the enumerated space (can
    /// only happen for matrices that violate the radio budget).
    pub fn to_profile(&self, s: &StrategyMatrix) -> Vec<usize> {
        (0..s.n_users())
            .map(|i| {
                let row = s.user_strategy(UserId(i));
                self.space
                    .iter()
                    .position(|v| *v == row)
                    .expect("strategy vector outside the legal space")
            })
            .collect()
    }

    /// The wrapped game.
    pub fn inner(&self) -> &ChannelAllocationGame {
        &self.game
    }
}

impl mrca_game::Game for IndexedGame {
    fn num_players(&self) -> usize {
        self.game.config().n_users()
    }

    fn num_strategies(&self, _player: mrca_game::PlayerId) -> usize {
        self.space.len()
    }

    fn utility(&self, player: mrca_game::PlayerId, profile: &[usize]) -> f64 {
        let m = self.to_matrix(profile);
        br_dp::utility(&self.game, &m, UserId(player.0))
    }

    fn best_response(&self, player: mrca_game::PlayerId, profile: &[usize]) -> (usize, f64) {
        // Use the structured DP instead of scanning the whole space.
        let m = self.to_matrix(profile);
        let (vec, u) = br_dp::best_response(&self.game, &m, UserId(player.0));
        let idx = self
            .space
            .iter()
            .position(|v| *v == vec)
            .expect("best response must be in the legal space");
        (idx, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_dp::{
        benefit_of_move, best_response, is_nash, nash_check, utility, welfare_from_loads,
    };
    use crate::rate_model::LinearDecayRate;

    fn figure2() -> StrategyMatrix {
        StrategyMatrix::from_rows(&[
            vec![1, 1, 1, 1, 0],
            vec![1, 0, 1, 0, 1],
            vec![1, 2, 0, 1, 0],
            vec![1, 0, 0, 1, 0],
        ])
        .unwrap()
    }

    fn unit_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    #[test]
    fn figure1_utilities_hand_checked() {
        // Constant R = 1. Loads (4,3,2,3,1).
        let g = unit_game(4, 4, 5);
        let s = figure2();
        // u1 = 1/4 + 1/3 + 1/2 + 1/3 = 17/12.
        assert!((utility(&g, &s, UserId(0)) - 17.0 / 12.0).abs() < 1e-12);
        // u2 = 1/4 + 1/2 + 1 = 7/4.
        assert!((utility(&g, &s, UserId(1)) - 1.75).abs() < 1e-12);
        // u3 = 1/4 + 2/3 + 1/3 = 5/4.
        assert!((utility(&g, &s, UserId(2)) - 1.25).abs() < 1e-12);
        // u4 = 1/4 + 1/3 = 7/12.
        assert!((utility(&g, &s, UserId(3)) - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn total_utility_is_sum_of_channel_rates() {
        let g = unit_game(4, 4, 5);
        let s = figure2();
        // All 5 channels occupied, R = 1 each.
        assert!((welfare_from_loads(&g, s.loads()) - 5.0).abs() < 1e-12);
        // And equals the sum of user utilities.
        let sum: f64 = UserId::all(4).map(|u| utility(&g, &s, u)).sum();
        assert!((welfare_from_loads(&g, s.loads()) - sum).abs() < 1e-12);
    }

    #[test]
    fn figure1_is_not_a_nash_equilibrium() {
        let g = unit_game(4, 4, 5);
        let check = nash_check(&g, &figure2());
        assert!(!check.is_nash());
        // u4 idles two radios; its gain must be large.
        assert!(check.gains[3] > 0.5);
    }

    #[test]
    fn benefit_of_move_matches_lemma2_example() {
        // Paper: Lemma 2 applies to u1 with b = c4, c = c5 (δ = 2 > 1).
        let g = unit_game(4, 4, 5);
        let d = benefit_of_move(&g, &figure2(), UserId(0), ChannelId(3), ChannelId(4));
        assert!(d > 0.0, "moving u1's radio c4→c5 must be profitable: {d}");
    }

    #[test]
    fn benefit_of_move_matches_lemma3_example() {
        // Paper: Lemma 3 applies to u3 with b = c2, c = c3 (k_{3,b} = 2,
        // δ = 1).
        let g = unit_game(4, 4, 5);
        let d = benefit_of_move(&g, &figure2(), UserId(2), ChannelId(1), ChannelId(2));
        assert!(d > 0.0, "moving u3's radio c2→c3 must be profitable: {d}");
    }

    #[test]
    fn benefit_of_move_same_channel_is_zero() {
        let g = unit_game(4, 4, 5);
        assert_eq!(
            benefit_of_move(&g, &figure2(), UserId(0), ChannelId(0), ChannelId(0)),
            0.0
        );
    }

    #[test]
    fn best_response_uses_all_radios() {
        let g = unit_game(4, 4, 5);
        for u in 0..4 {
            let (br, _) = best_response(&g, &figure2(), UserId(u));
            assert_eq!(br.radios_in_use(), 4, "user {u} best response idles radios");
        }
    }

    #[test]
    fn best_response_is_optimal_vs_enumeration() {
        // Cross-check the DP against brute-force enumeration of the user's
        // whole strategy space on a small instance with a decreasing rate.
        let cfg = GameConfig::new(3, 2, 3).unwrap();
        let rate = Arc::new(LinearDecayRate::new(6.0, 1.0, 1.0));
        let g = ChannelAllocationGame::new(cfg, rate);
        let s = StrategyMatrix::from_rows(&[vec![2, 0, 0], vec![1, 1, 0], vec![0, 1, 1]]).unwrap();
        for u in 0..3 {
            let user = UserId(u);
            let (_, dp_val) = best_response(&g, &s, user);
            let mut best = f64::NEG_INFINITY;
            for cand in user_strategy_space(3, 2) {
                let mut alt = s.clone();
                alt.set_user_strategy(user, &cand);
                best = best.max(utility(&g, &alt, user));
            }
            assert!(
                (dp_val - best).abs() < 1e-12,
                "user {u}: DP {dp_val} vs enumeration {best}"
            );
        }
    }

    #[test]
    fn flat_allocation_is_nash_without_conflict() {
        // Fact 1 regime: |N|·k = 3 ≤ |C| = 3, one radio per channel.
        let g = unit_game(3, 1, 3);
        let s = StrategyMatrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]).unwrap();
        assert!(is_nash(&g, &s));
    }

    #[test]
    fn balanced_single_radio_profile_is_nash() {
        // 2 users × 2 radios on 2 channels: each user one radio per channel.
        let g = unit_game(2, 2, 2);
        let s = StrategyMatrix::from_rows(&[vec![1, 1], vec![1, 1]]).unwrap();
        let check = nash_check(&g, &s);
        assert!(check.is_nash(), "gains: {:?}", check.gains);
    }

    #[test]
    fn stacked_profile_is_not_nash() {
        // Both radios of u1 on c1, both of u2 on c2: loads (2,2). This is
        // exactly the Lemma-4 situation (γ = 2 on equally-loaded channels):
        // u1 deviating to (1,1) leaves channel 1 with load 1 and earns
        // R(1) + R(3)/3 = 4/3 > 1.
        let g = unit_game(2, 2, 2);
        let s = StrategyMatrix::from_rows(&[vec![2, 0], vec![0, 2]]).unwrap();
        let check = nash_check(&g, &s);
        assert!(!check.is_nash());
        assert!((check.max_gain() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn indexed_game_agrees_with_direct_utilities() {
        use mrca_game::Game as _;
        let g = unit_game(2, 2, 3);
        let idx = g.indexed();
        for profile in [vec![0, 0], vec![1, 3], vec![2, 5]] {
            let m = idx.to_matrix(&profile);
            for p in 0..2 {
                assert_eq!(
                    idx.utility(mrca_game::PlayerId(p), &profile),
                    utility(&g, &m, UserId(p))
                );
            }
            assert_eq!(idx.to_profile(&m), profile);
        }
    }

    #[test]
    fn indexed_best_response_matches_generic_scan() {
        let cfg = GameConfig::new(2, 2, 3).unwrap();
        let rate = Arc::new(LinearDecayRate::new(4.0, 1.0, 0.5));
        let g = ChannelAllocationGame::new(cfg, rate);
        let idx = g.indexed();
        let profile = vec![0usize, 7.min(idx.strategy_space().len() - 1)];
        for p in 0..2 {
            let player = mrca_game::PlayerId(p);
            // Structured best response (overridden method).
            let (_, u_fast) = mrca_game::Game::best_response(&idx, player, &profile);
            // Generic scan over the whole space.
            let mut work = profile.clone();
            let mut u_slow = f64::NEG_INFINITY;
            for s in 0..mrca_game::Game::num_strategies(&idx, player) {
                work[p] = s;
                u_slow = u_slow.max(mrca_game::Game::utility(&idx, player, &work));
            }
            assert!((u_fast - u_slow).abs() < 1e-12);
        }
    }

    #[test]
    fn game_is_send_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ChannelAllocationGame>();
        let g = unit_game(2, 2, 2);
        let _g2 = g.clone();
    }
}
