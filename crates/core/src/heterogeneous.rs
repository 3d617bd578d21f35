//! Extension: heterogeneous radio counts.
//!
//! The paper assumes every device owns the same number of radios `k`.
//! Real deployments mix 1-, 2- and 4-radio devices, so we generalize:
//! user `i` owns `k_i ≤ |C|` radios. The utility (Eq. 3), the Δ of
//! Eq. 7, the DP best response and the exact Nash check carry over
//! verbatim; what changes is the *structure* of equilibria:
//!
//! * load balancing (`δ ≤ 1`) still holds at every NE — the proofs of
//!   Lemmas 2–4 never use homogeneity (verified exhaustively in tests);
//! * Lemma 1 (all radios used) still holds — its proof only needs
//!   `k_i ≤ |C|`;
//! * Theorem 1's *second* condition is genuinely about per-user counts
//!   and survives with `k` replaced by `k_i` (tested empirically, not
//!   claimed as a theorem);
//! * Algorithm 1 generalizes unchanged (users place their own `k_i`
//!   radios in turn) and, with the `PreferUnused` tie-break, still lands
//!   on equilibria across our sweeps.

use crate::algorithm::TieBreak;
use crate::br_dp::{self, ChannelGame};
use crate::error::Error;
use crate::game::NashCheck;
use crate::rate_model::{ConstantRate, RateModel, RateShape};
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::{ChannelId, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Dimensions of a heterogeneous game: per-user radio counts over a
/// common channel set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HeteroConfig {
    radios: Vec<u32>,
    n_channels: usize,
}

impl HeteroConfig {
    /// Create a configuration from per-user radio counts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when there are no users, no
    /// channels, a user has zero radios, or some `k_i > |C|`.
    pub fn new(radios: Vec<u32>, n_channels: usize) -> Result<Self, Error> {
        if radios.is_empty() {
            return Err(Error::InvalidConfig {
                reason: "need at least one user".into(),
            });
        }
        if n_channels == 0 {
            return Err(Error::InvalidConfig {
                reason: "need at least one channel".into(),
            });
        }
        for (i, &k) in radios.iter().enumerate() {
            if k == 0 {
                return Err(Error::InvalidConfig {
                    reason: format!("user {i} has zero radios"),
                });
            }
            if k as usize > n_channels {
                return Err(Error::InvalidConfig {
                    reason: format!(
                        "user {i} has k={k} > |C|={n_channels}; the model assumes k_i <= |C|"
                    ),
                });
            }
        }
        Ok(HeteroConfig { radios, n_channels })
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.radios.len()
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Radio budget of `user`.
    pub fn radios_of(&self, user: UserId) -> u32 {
        self.radios[user.0]
    }

    /// Total radios `Σ_i k_i`.
    pub fn total_radios(&self) -> u32 {
        self.radios.iter().sum()
    }
}

/// The heterogeneous channel-allocation game.
#[derive(Debug, Clone)]
pub struct HeteroGame {
    config: HeteroConfig,
    rate: Arc<dyn RateModel>,
}

impl HeteroGame {
    /// Create a game from a configuration and rate model.
    pub fn new(config: HeteroConfig, rate: Arc<dyn RateModel>) -> Self {
        HeteroGame { config, rate }
    }

    /// Convenience: constant unit rate.
    pub fn with_unit_rate(config: HeteroConfig) -> Self {
        HeteroGame {
            config,
            rate: Arc::new(ConstantRate::unit()),
        }
    }

    /// The game's dimensions.
    pub fn config(&self) -> &HeteroConfig {
        &self.config
    }

    /// The rate model.
    pub fn rate(&self) -> &Arc<dyn RateModel> {
        &self.rate
    }

    /// Validate a strategy matrix: shape and per-user budgets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStrategy`] on the first violation.
    pub fn validate(&self, s: &StrategyMatrix) -> Result<(), Error> {
        if s.n_users() != self.config.n_users() || s.n_channels() != self.config.n_channels() {
            return Err(Error::InvalidStrategy {
                reason: format!(
                    "matrix is {}x{}, config is {}x{}",
                    s.n_users(),
                    s.n_channels(),
                    self.config.n_users(),
                    self.config.n_channels()
                ),
            });
        }
        for u in UserId::all(self.config.n_users()) {
            let used = s.user_total(u);
            if used > self.config.radios_of(u) {
                return Err(Error::InvalidStrategy {
                    reason: format!(
                        "{u} uses {used} radios, budget is {}",
                        self.config.radios_of(u)
                    ),
                });
            }
        }
        Ok(())
    }

    /// Eq. 3, unchanged.
    pub fn utility(&self, s: &StrategyMatrix, user: UserId) -> f64 {
        let mut total = 0.0;
        for c in ChannelId::all(self.config.n_channels()) {
            let kic = s.get(user, c);
            if kic == 0 {
                continue;
            }
            let kc = s.channel_load(c);
            total += kic as f64 / kc as f64 * self.rate.rate(kc);
        }
        total
    }

    /// Utilities of all users.
    pub fn utilities(&self, s: &StrategyMatrix) -> Vec<f64> {
        UserId::all(self.config.n_users())
            .map(|u| self.utility(s, u))
            .collect()
    }

    /// Total utility `Σ_c R(k_c)` over occupied channels.
    pub fn total_utility(&self, s: &StrategyMatrix) -> f64 {
        ChannelId::all(self.config.n_channels())
            .map(|c| {
                let kc = s.channel_load(c);
                if kc == 0 {
                    0.0
                } else {
                    self.rate.rate(kc)
                }
            })
            .sum()
    }

    /// The paper's Eq. 7 for the heterogeneous game: benefit of moving
    /// one of `user`'s radios from `b` to `c`, `O(1)` against the
    /// matrix's kept loads.
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

    /// Exact best response of `user` (the shared DP of
    /// [`br_dp::best_response`], with the user's own budget `k_i`).
    pub fn best_response(&self, s: &StrategyMatrix, user: UserId) -> (StrategyVector, f64) {
        br_dp::best_response(self, s, user)
    }

    /// Exact Nash check with per-user gains and a deviation witness —
    /// the same [`NashCheck`] the homogeneous game returns.
    pub fn nash_check(&self, s: &StrategyMatrix) -> NashCheck {
        br_dp::nash_check(self, s)
    }

    /// Exact Nash check by per-user best responses (scale-relative
    /// epsilon, see [`crate::game::improves`]).
    pub fn is_nash(&self, s: &StrategyMatrix) -> bool {
        self.nash_check(s).is_nash()
    }

    /// Largest unilateral improvement available to any user.
    pub fn max_gain(&self, s: &StrategyMatrix) -> f64 {
        br_dp::max_gain(self, s)
    }

    /// Algorithm 1 generalized: users place their own `k_i` radios in
    /// the given order (default: descending radio count, which empirically
    /// helps the big devices spread first), each radio per steps 3–6.
    pub fn algorithm1(&self, tie: TieBreak, order: Option<Vec<usize>>) -> StrategyMatrix {
        let n = self.config.n_users();
        let n_ch = self.config.n_channels();
        let users: Vec<usize> = order.unwrap_or_else(|| {
            let mut v: Vec<usize> = (0..n).collect();
            // Descending budgets; stable for determinism.
            v.sort_by_key(|&u| std::cmp::Reverse(self.config.radios[u]));
            v
        });
        assert_eq!(
            {
                let mut sorted = users.clone();
                sorted.sort_unstable();
                sorted
            },
            (0..n).collect::<Vec<_>>(),
            "order must be a permutation of 0..{n}"
        );
        let mut rng = match tie {
            TieBreak::Random(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let mut s = StrategyMatrix::zeros(n, n_ch);
        for &u in &users {
            let user = UserId(u);
            for _ in 0..self.config.radios_of(user) {
                let loads = s.loads();
                let min = *loads.iter().min().expect("nonempty");
                let max = *loads.iter().max().expect("nonempty");
                let qualifying: Vec<usize> = if min == max {
                    (0..n_ch)
                        .filter(|&c| s.get(user, ChannelId(c)) == 0)
                        .collect()
                } else {
                    (0..n_ch).filter(|&c| loads[c] == min).collect()
                };
                assert!(!qualifying.is_empty(), "placement invariant");
                let pick = match tie {
                    TieBreak::LowestIndex => qualifying[0],
                    TieBreak::PreferUnused => *qualifying
                        .iter()
                        .find(|&&c| s.get(user, ChannelId(c)) == 0)
                        .unwrap_or(&qualifying[0]),
                    TieBreak::Random(_) => *qualifying
                        .choose(rng.as_mut().expect("rng for random tie"))
                        .expect("nonempty"),
                };
                let cur = s.get(user, ChannelId(pick));
                s.set(user, ChannelId(pick), cur + 1);
            }
        }
        s
    }

    /// Best-response dynamics until fixed point or `max_rounds`, routed
    /// through the shared active-set engine of [`crate::br_fast`] (the
    /// same worklist loop every sparse driver uses — the former private
    /// dense loop is gone): the matrix is bridged to
    /// [`crate::sparse::SparseStrategies`], converged on the heap or
    /// incremental-DP route per the rate model's declaration, and bridged
    /// back.
    pub fn best_response_dynamics(
        &self,
        s: StrategyMatrix,
        max_rounds: usize,
    ) -> (StrategyMatrix, bool, usize) {
        let sp = crate::sparse::SparseStrategies::from_matrix(self, &s);
        let (end, converged, rounds) =
            crate::br_fast::best_response_dynamics_sparse(self, sp, max_rounds);
        (end.to_dense(), converged, rounds)
    }
}

/// The heterogeneous game through the unified engine: per-user budgets,
/// one shared rate model.
impl ChannelGame for HeteroGame {
    fn n_users(&self) -> usize {
        self.config.n_users()
    }

    fn n_channels(&self) -> usize {
        self.config.n_channels()
    }

    fn radios_of(&self, user: UserId) -> u32 {
        self.config.radios_of(user)
    }

    fn channel_payoff(&self, _channel: ChannelId, others_load: u32, slots: u32) -> f64 {
        if slots == 0 {
            return 0.0;
        }
        let total = others_load + slots;
        slots as f64 / total as f64 * self.rate.rate(total)
    }

    fn payoff_shape(&self) -> RateShape {
        // Per-user budgets do not affect per-channel concavity; forward
        // the shared rate model's classification.
        self.rate.shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate_model::LinearDecayRate;

    fn mixed() -> HeteroGame {
        // A 4-radio AP, two 2-radio laptops, three 1-radio sensors, 5 channels.
        HeteroGame::with_unit_rate(HeteroConfig::new(vec![4, 2, 2, 1, 1, 1], 5).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(HeteroConfig::new(vec![], 3).is_err());
        assert!(HeteroConfig::new(vec![1, 0], 3).is_err());
        assert!(HeteroConfig::new(vec![4], 3).is_err()); // k > |C|
        assert!(HeteroConfig::new(vec![1, 2], 0).is_err());
        let cfg = HeteroConfig::new(vec![3, 1], 3).unwrap();
        assert_eq!(cfg.total_radios(), 4);
        assert_eq!(cfg.radios_of(UserId(0)), 3);
    }

    #[test]
    fn algorithm1_reaches_nash_on_mixed_fleet() {
        let g = mixed();
        for tie in [TieBreak::LowestIndex, TieBreak::PreferUnused] {
            let s = g.algorithm1(tie, None);
            g.validate(&s).unwrap();
            assert!(s.max_delta() <= 1, "loads {:?}", s.loads());
            assert!(g.is_nash(&s), "tie {tie:?}: gain {}", g.max_gain(&s));
            for u in UserId::all(6) {
                assert_eq!(s.user_total(u), g.config().radios_of(u));
            }
        }
    }

    #[test]
    fn algorithm1_sweep_over_random_fleets() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(2026);
        for _ in 0..40 {
            let n = rng.gen_range(2..=7usize);
            let c = rng.gen_range(2..=6usize);
            let radios: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=c as u32)).collect();
            let g = HeteroGame::with_unit_rate(HeteroConfig::new(radios.clone(), c).unwrap());
            let s = g.algorithm1(TieBreak::PreferUnused, None);
            assert!(s.max_delta() <= 1, "fleet {radios:?}, C={c}");
            assert!(
                g.is_nash(&s),
                "fleet {radios:?}, C={c}: gain {}",
                g.max_gain(&s)
            );
        }
    }

    #[test]
    fn dynamics_converge_on_mixed_fleet_with_decreasing_rate() {
        let cfg = HeteroConfig::new(vec![4, 3, 2, 1], 4).unwrap();
        let g = HeteroGame::new(cfg, Arc::new(LinearDecayRate::new(9.0, 0.6, 0.5)));
        // Pathological start: everyone piles on channel 1.
        let mut s = StrategyMatrix::zeros(4, 4);
        for (u, &k) in [4u32, 3, 2, 1].iter().enumerate() {
            s.set(UserId(u), ChannelId(0), k);
        }
        let (end, converged, rounds) = g.best_response_dynamics(s, 200);
        assert!(converged, "rounds {rounds}");
        assert!(g.is_nash(&end));
        assert!(end.max_delta() <= 1);
    }

    #[test]
    fn utility_matches_homogeneous_game_when_budgets_equal() {
        use crate::config::GameConfig;
        use crate::game::ChannelAllocationGame;
        let homo =
            ChannelAllocationGame::with_constant_rate(GameConfig::new(3, 2, 3).unwrap(), 1.0);
        let hetero = HeteroGame::with_unit_rate(HeteroConfig::new(vec![2, 2, 2], 3).unwrap());
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0], vec![1, 0, 1], vec![0, 1, 1]]).unwrap();
        for u in UserId::all(3) {
            assert_eq!(homo.utility(&s, u), hetero.utility(&s, u));
        }
        assert_eq!(homo.nash_check(&s).is_nash(), hetero.is_nash(&s));
    }

    #[test]
    fn big_device_gets_proportionally_more() {
        // In a balanced NE, a user with twice the radios earns about twice
        // the rate (each radio earns a fair per-radio share).
        let g = mixed();
        let s = g.algorithm1(TieBreak::PreferUnused, None);
        let u = g.utilities(&s);
        // AP (4 radios) vs sensor (1 radio): per-radio shares sit between
        // R/3 and R/2 at the balanced loads (3,2,2,2,2), so the ratio lies
        // in [4·(2/3), 4·(3/2)] = [2.67, 6].
        let ratio = u[0] / u[5];
        assert!((2.6..=6.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn validate_catches_budget_violations() {
        let g = mixed();
        let mut s = StrategyMatrix::zeros(6, 5);
        s.set(UserId(5), ChannelId(0), 2); // sensor has only 1 radio
        assert!(g.validate(&s).is_err());
    }

    #[test]
    fn custom_order_respected() {
        let g = mixed();
        let s = g.algorithm1(TieBreak::LowestIndex, Some(vec![5, 4, 3, 2, 1, 0]));
        assert!(g.is_nash(&s), "gain {}", g.max_gain(&s));
    }

    #[test]
    fn cached_paths_match_naive_recompute() {
        use crate::dynamics::random_start;
        use crate::game::ChannelAllocationGame;
        let g = mixed();
        let homo = ChannelAllocationGame::with_constant_rate(
            crate::config::GameConfig::new(6, 4, 5).unwrap(),
            1.0,
        );
        for seed in 0..10 {
            // Random full deployment over the same shape, then clamp to
            // each user's own budget by parking extras.
            let mut s = random_start(&homo, seed);
            for u in UserId::all(6) {
                while s.user_total(u) > g.config().radios_of(u) {
                    let c = (0..5)
                        .map(ChannelId)
                        .find(|&c| s.get(u, c) > 0)
                        .expect("deployed radio exists");
                    s.set(u, c, s.get(u, c) - 1);
                }
            }
            // The clamped matrix's kept loads against a fresh count.
            let rows: Vec<Vec<u32>> = UserId::all(6).map(|u| s.row(u).to_vec()).collect();
            let fresh = StrategyMatrix::from_rows(&rows).unwrap();
            assert_eq!(s.loads(), fresh.loads());
            for u in UserId::all(6) {
                assert_eq!(g.utility(&s, u), g.utility(&fresh, u));
                assert_eq!(g.best_response(&s, u), g.best_response(&fresh, u));
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_rejected() {
        let g = mixed();
        let _ = g.algorithm1(TieBreak::LowestIndex, Some(vec![0, 0, 1, 2, 3, 4]));
    }
}
