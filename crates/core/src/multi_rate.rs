//! Extension: heterogeneous channels (per-channel rate functions).
//!
//! The paper assumes all channels share one `R(·)` ("we assume that
//! channels have the same bandwidth and channel characteristics"). In
//! cognitive-radio settings — the paper's own motivating application —
//! channels differ: some carry primary-user interference, some are wider.
//! This module generalizes the game to one rate function per channel.
//!
//! What survives and what changes (all verified in tests):
//!
//! * Eq. 3, the DP best response and the exact NE check generalize
//!   verbatim (channels were already independent given the budget).
//! * Lemma 1 survives (an unused radio still earns something somewhere).
//! * **Load balancing does not**: equilibria *water-fill* — channel loads
//!   equalize per-radio shares `R_c(k_c)/k_c` rather than raw counts, so
//!   better channels carry proportionally more radios.
//! * Best-response dynamics still converge (the radio-level view is still
//!   a congestion game, now with resource-specific payoffs, so the
//!   Rosenthal potential argument goes through unchanged).

use crate::br_dp::{self, ChannelGame};
use crate::config::GameConfig;
use crate::error::Error;
use crate::game::NashCheck;
use crate::rate_model::{RateModel, RateShape};
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::{ChannelId, UserId};
use std::sync::Arc;

/// Channel-allocation game with a distinct rate model per channel.
#[derive(Debug, Clone)]
pub struct MultiRateGame {
    config: GameConfig,
    rates: Vec<Arc<dyn RateModel>>,
}

impl MultiRateGame {
    /// Create a game with one rate model per channel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the number of rate models
    /// does not match the channel count.
    pub fn new(config: GameConfig, rates: Vec<Arc<dyn RateModel>>) -> Result<Self, Error> {
        if rates.len() != config.n_channels() {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "{} rate models for {} channels",
                    rates.len(),
                    config.n_channels()
                ),
            });
        }
        Ok(MultiRateGame { config, rates })
    }

    /// The game's dimensions.
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// Rate model of `channel`.
    pub fn rate_of(&self, channel: ChannelId) -> &Arc<dyn RateModel> {
        &self.rates[channel.0]
    }

    /// Eq. 3 with per-channel rates.
    pub fn utility(&self, s: &StrategyMatrix, user: UserId) -> f64 {
        let mut total = 0.0;
        for c in ChannelId::all(self.config.n_channels()) {
            let kic = s.get(user, c);
            if kic == 0 {
                continue;
            }
            let kc = s.channel_load(c);
            total += kic as f64 / kc as f64 * self.rates[c.0].rate(kc);
        }
        total
    }

    /// Utilities of all users.
    pub fn utilities(&self, s: &StrategyMatrix) -> Vec<f64> {
        UserId::all(self.config.n_users())
            .map(|u| self.utility(s, u))
            .collect()
    }

    /// Total utility `Σ_c R_c(k_c)` over occupied channels.
    pub fn total_utility(&self, s: &StrategyMatrix) -> f64 {
        ChannelId::all(self.config.n_channels())
            .map(|c| {
                let kc = s.channel_load(c);
                if kc == 0 {
                    0.0
                } else {
                    self.rates[c.0].rate(kc)
                }
            })
            .sum()
    }

    /// Exact best response (the shared DP with per-channel `f_c`).
    pub fn best_response(&self, s: &StrategyMatrix, user: UserId) -> (StrategyVector, f64) {
        br_dp::best_response(self, s, user)
    }

    /// Eq. 7 with per-channel rates: benefit of moving one of `user`'s
    /// radios from `b` to `c`, `O(1)` against the matrix's kept loads.
    ///
    /// # Panics
    ///
    /// Panics if the user has no radio on `b`.
    pub fn benefit_of_move(
        &self,
        s: &StrategyMatrix,
        user: UserId,
        b: ChannelId,
        c: ChannelId,
    ) -> f64 {
        br_dp::benefit_of_move(self, s, user, b, c)
    }

    /// Exact Nash check with per-user gains and a deviation witness.
    pub fn nash_check(&self, s: &StrategyMatrix) -> NashCheck {
        br_dp::nash_check(self, s)
    }

    /// Exact Nash check.
    pub fn is_nash(&self, s: &StrategyMatrix) -> bool {
        br_dp::is_nash(self, s)
    }

    /// Largest unilateral improvement available to any user.
    pub fn max_gain(&self, s: &StrategyMatrix) -> f64 {
        br_dp::max_gain(self, s)
    }

    /// Best-response dynamics to a fixed point, routed through the shared
    /// active-set engine of [`crate::br_fast`] (loads, engine and the
    /// dirty-user worklist all maintained incrementally across moves).
    pub fn converge(&self, s: StrategyMatrix, max_rounds: usize) -> (StrategyMatrix, bool) {
        let sp = crate::sparse::SparseStrategies::from_matrix(self, &s);
        let (end, converged, _) =
            crate::br_fast::best_response_dynamics_sparse(self, sp, max_rounds);
        (end.to_dense(), converged)
    }

    /// Exact welfare optimum over load vectors (per-channel DP).
    pub fn optimal_total_rate(&self) -> f64 {
        let m = self.config.total_radios() as usize;
        let neg = f64::NEG_INFINITY;
        let mut dp = vec![neg; m + 1];
        dp[0] = 0.0;
        for c in 0..self.config.n_channels() {
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
                            self.rates[c].rate(t as u32)
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

    /// The water-filling measure: max spread of per-radio shares
    /// `R_c(k_c)/k_c` across occupied channels. Near-zero at equilibria of
    /// single-radio-per-user games (the generalization of `δ ≤ 1`).
    pub fn share_spread(&self, s: &StrategyMatrix) -> f64 {
        let shares: Vec<f64> = ChannelId::all(self.config.n_channels())
            .filter_map(|c| {
                let kc = s.channel_load(c);
                (kc > 0).then(|| self.rates[c.0].rate(kc) / kc as f64)
            })
            .collect();
        if shares.is_empty() {
            return 0.0;
        }
        let max = shares.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }
}

/// The per-channel-rate game through the unified engine: uniform budget
/// `k`, one rate model per channel.
impl ChannelGame for MultiRateGame {
    fn n_users(&self) -> usize {
        self.config.n_users()
    }

    fn n_channels(&self) -> usize {
        self.config.n_channels()
    }

    fn radios_of(&self, _user: UserId) -> u32 {
        self.config.radios_per_user()
    }

    fn channel_payoff(&self, channel: ChannelId, others_load: u32, slots: u32) -> f64 {
        if slots == 0 {
            return 0.0;
        }
        let total = others_load + slots;
        slots as f64 / total as f64 * self.rates[channel.0].rate(total)
    }

    fn payoff_shape(&self) -> RateShape {
        // Greedy needs diminishing marginals on *every* channel; the
        // game-level claim is the lattice meet (weakest) of the
        // independent per-channel classifications.
        self.rates
            .iter()
            .fold(RateShape::ConcaveSharing, |acc, r| acc.meet(r.shape()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::random_start;
    use crate::game::ChannelAllocationGame;
    use crate::rate_model::ConstantRate;

    fn two_tier(n: usize, k: u32) -> MultiRateGame {
        // Channel 1 is twice as good as channels 2 and 3.
        MultiRateGame::new(
            GameConfig::new(n, k, 3).unwrap(),
            vec![
                Arc::new(ConstantRate::new(2.0)),
                Arc::new(ConstantRate::new(1.0)),
                Arc::new(ConstantRate::new(1.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn wrong_rate_count_rejected() {
        let err = MultiRateGame::new(
            GameConfig::new(2, 1, 3).unwrap(),
            vec![Arc::new(ConstantRate::unit())],
        )
        .unwrap_err();
        assert!(err.to_string().contains("rate models"));
    }

    #[test]
    fn identical_rates_reduce_to_base_game() {
        let cfg = GameConfig::new(3, 2, 3).unwrap();
        let multi = MultiRateGame::new(
            cfg,
            (0..3)
                .map(|_| Arc::new(ConstantRate::unit()) as Arc<dyn RateModel>)
                .collect(),
        )
        .unwrap();
        let base = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
        let s = random_start(&base, 4);
        for u in UserId::all(3) {
            assert_eq!(multi.utility(&s, u), base.utility(&s, u));
        }
        assert_eq!(multi.is_nash(&s), base.nash_check(&s).is_nash());
        assert!(
            (multi.optimal_total_rate() - crate::pareto::optimal_total_rate(&cfg, base.rate()))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn equilibrium_water_fills_toward_the_better_channel() {
        // 4 single-radio users, channel 1 twice as good: the unique NE
        // load pattern is (2,1,1) — per-radio shares all equal to 1 —
        // NOT the count-balanced (2,1,1)... which here coincides; sharpen
        // with 6 users: loads (3... let's compute: shares equal when
        // 2/k1 = 1/k2 = 1/k3 and k1+k2+k3 = 6 → (3, 1.5, 1.5) isn't
        // integral; NE loads are (3,1,2) or (3,2,1)-ish with shares
        // {2/3, 1, 1/2}. Verify by dynamics + stability instead of
        // guessing.
        let g = two_tier(6, 1);
        let base = ChannelAllocationGame::with_constant_rate(*g.config(), 1.0);
        let (end, converged) = g.converge(random_start(&base, 1), 200);
        assert!(converged);
        assert!(g.is_nash(&end));
        let loads = end.loads();
        // The good channel carries strictly more than either plain one.
        assert!(
            loads[0] > loads[1] && loads[0] > loads[2],
            "loads {loads:?} should favour the 2x channel"
        );
        // And the allocation is NOT count-balanced in general.
        assert!(end.max_delta() >= 1);
    }

    #[test]
    fn four_users_one_radio_each_split_2_1_1() {
        // Hand-checkable instance: shares (2/2, 1/1, 1/1) = 1 everywhere.
        let g = two_tier(4, 1);
        let s = StrategyMatrix::from_rows(&[
            vec![1, 0, 0],
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![0, 0, 1],
        ])
        .unwrap();
        assert!(g.is_nash(&s));
        assert!(g.share_spread(&s) < 1e-12);
        // Everyone earns exactly 1.
        for u in g.utilities(&s) {
            assert!((u - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dynamics_converge_with_multi_radio_users() {
        let g = two_tier(5, 2);
        let base = ChannelAllocationGame::with_constant_rate(*g.config(), 1.0);
        for seed in 0..5 {
            let (end, converged) = g.converge(random_start(&base, seed), 300);
            assert!(converged, "seed {seed}");
            assert!(g.is_nash(&end), "seed {seed}");
        }
    }

    #[test]
    fn welfare_dp_bounds_equilibria() {
        let g = two_tier(5, 2);
        let base = ChannelAllocationGame::with_constant_rate(*g.config(), 1.0);
        let opt = g.optimal_total_rate();
        for seed in 0..5 {
            let (end, _) = g.converge(random_start(&base, seed), 300);
            assert!(g.total_utility(&end) <= opt + 1e-9);
        }
    }

    #[test]
    fn cached_paths_match_naive_recompute() {
        let g = two_tier(5, 2);
        let base = ChannelAllocationGame::with_constant_rate(*g.config(), 1.0);
        for seed in 0..10 {
            // `random_start` places radios one `set` at a time; its kept
            // loads against a fresh count.
            let s = random_start(&base, seed);
            let rows: Vec<Vec<u32>> = UserId::all(5).map(|u| s.row(u).to_vec()).collect();
            let fresh = StrategyMatrix::from_rows(&rows).unwrap();
            assert_eq!(s.loads(), fresh.loads());
            for u in UserId::all(5) {
                assert_eq!(g.utility(&s, u), g.utility(&fresh, u));
                assert_eq!(g.best_response(&s, u), g.best_response(&fresh, u));
            }
        }
    }

    #[test]
    fn best_response_matches_enumeration() {
        let g = two_tier(2, 2);
        let base = ChannelAllocationGame::with_constant_rate(*g.config(), 1.0);
        let s = random_start(&base, 9);
        for u in UserId::all(2) {
            let (_, dp) = g.best_response(&s, u);
            let mut best = f64::NEG_INFINITY;
            for cand in crate::enumerate::user_strategy_space(3, 2) {
                let mut alt = s.clone();
                alt.set_user_strategy(u, &cand);
                best = best.max(g.utility(&alt, u));
            }
            assert!((dp - best).abs() < 1e-12, "user {u}");
        }
    }
}
