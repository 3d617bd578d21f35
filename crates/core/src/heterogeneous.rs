//! Extension: per-user radio budgets and per-channel rate models.
//!
//! The paper's game has one radio budget `k` and one rate curve `R`.
//! [`HeteroGame`] lifts both assumptions at once: user `i` owns
//! `1 ≤ k_i ≤ |C|` radios, and channel `c` runs its own rate model `R_c`.
//! The paper's game is the case of equal budgets and one shared model,
//! and there the two agree bit for bit (pinned by a test below). Every
//! operation on it is one of the generic bodies over [`ChannelGame`]:
//! utilities, Δ, best responses and the Nash check in
//! [`br_dp`](crate::br_dp), [`algorithm1`](crate::algorithm::algorithm1),
//! [`random_start`](crate::dynamics::random_start) and the welfare
//! optimum [`optimal_total_rate`](crate::pareto::optimal_total_rate).
//!
//! **Heterogeneous radio counts.** The paper assumes every device owns
//! the same number of radios `k`. Real deployments mix 1-, 2- and
//! 4-radio devices. The utility (Eq. 3), the Δ of Eq. 7, the DP best
//! response and the exact Nash check carry over verbatim; what changes is
//! the *structure* of equilibria:
//!
//! * load balancing (`δ ≤ 1`) still holds at every NE — the proofs of
//!   Lemmas 2–4 never use homogeneity (verified exhaustively in tests);
//! * Lemma 1 (all radios used) still holds — its proof only needs
//!   `k_i ≤ |C|`;
//! * Theorem 1's *second* condition is genuinely about per-user counts
//!   and survives with `k` replaced by `k_i` (tested empirically, not
//!   claimed as a theorem);
//! * Algorithm 1 generalizes unchanged (users place their own `k_i`
//!   radios in turn, by default in descending budget order) and, with
//!   the `PreferUnused` tie-break, still lands on equilibria across our
//!   sweeps.
//!
//! **Heterogeneous channels.** The paper assumes all channels share one
//! `R(·)` ("we assume that channels have the same bandwidth and channel
//! characteristics"). In cognitive-radio settings — the paper's own
//! motivating application — channels differ: some carry primary-user
//! interference, some are wider. What survives and what changes (all
//! verified in tests):
//!
//! * Eq. 3, the DP best response and the exact NE check generalize
//!   verbatim (channels were already independent given the budget).
//! * Lemma 1 survives (an unused radio still earns something somewhere).
//! * **Load balancing does not**: equilibria *water-fill* — channel loads
//!   equalize per-radio shares `R_c(k_c)/k_c` rather than raw counts, so
//!   better channels carry proportionally more radios
//!   ([`HeteroGame::share_spread`] measures it).
//! * Best-response dynamics still converge (the radio-level view is still
//!   a congestion game, now with resource-specific payoffs, so the
//!   Rosenthal potential argument goes through unchanged).

use crate::br_dp::ChannelGame;
use crate::error::Error;
use crate::rate_model::{RateModel, RateShape};
use crate::strategy::StrategyMatrix;
use crate::types::{ChannelId, UserId};
use std::sync::Arc;

/// The channel-allocation game with per-user radio budgets `k_i` and one
/// rate model `R_c` per channel. A shared model is `|C|` clones of one
/// [`Arc`].
#[derive(Debug, Clone)]
pub struct HeteroGame {
    budgets: Vec<u32>,
    rates: Vec<Arc<dyn RateModel>>,
}

impl HeteroGame {
    /// Create a game from per-user budgets and one rate model per
    /// channel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when there are no users or no
    /// channels, a budget is zero or exceeds `|C|` (the model assumes
    /// `1 ≤ k_i ≤ |C|`), or `rates.len() != n_channels`.
    pub fn new(
        budgets: Vec<u32>,
        n_channels: usize,
        rates: Vec<Arc<dyn RateModel>>,
    ) -> Result<Self, Error> {
        if budgets.is_empty() {
            return Err(Error::config("need at least one user"));
        }
        if n_channels == 0 {
            return Err(Error::config("need at least one channel"));
        }
        for (i, &k) in budgets.iter().enumerate() {
            if k == 0 {
                return Err(Error::config(format!("user {i} has zero radios")));
            }
            if k as usize > n_channels {
                return Err(Error::config(format!(
                    "user {i} has k={k} > |C|={n_channels}; the model assumes k_i <= |C|"
                )));
            }
        }
        if rates.len() != n_channels {
            return Err(Error::config(format!(
                "{} rate models for {n_channels} channels",
                rates.len()
            )));
        }
        Ok(HeteroGame { budgets, rates })
    }

    /// [`new`](Self::new) with one rate model shared by every channel.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_rate(
        budgets: Vec<u32>,
        n_channels: usize,
        rate: Arc<dyn RateModel>,
    ) -> Result<Self, Error> {
        Self::new(budgets, n_channels, vec![rate; n_channels])
    }

    /// Rate model of `channel`.
    pub fn rate_of(&self, channel: ChannelId) -> &Arc<dyn RateModel> {
        &self.rates[channel.0]
    }

    /// The water-filling measure: max spread of per-radio shares
    /// `R_c(k_c)/k_c` across occupied channels. Near-zero at equilibria of
    /// single-radio-per-user games (the generalization of `δ ≤ 1`).
    pub fn share_spread(&self, s: &StrategyMatrix) -> f64 {
        let shares: Vec<f64> = ChannelId::all(self.rates.len())
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

/// The fair share of Eq. 3 with per-user budgets and per-channel rates.
impl ChannelGame for HeteroGame {
    fn n_users(&self) -> usize {
        self.budgets.len()
    }

    fn n_channels(&self) -> usize {
        self.rates.len()
    }

    fn radios_of(&self, user: UserId) -> u32 {
        self.budgets[user.0]
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
        // per-channel classifications — for one shared model, its own.
        self.rates
            .iter()
            .fold(RateShape::ConcaveSharing, |acc, r| acc.meet(r.shape()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algorithm::{algorithm1, Ordering, TieBreak};
    use crate::br_dp::{
        benefit_of_move, best_response, best_response_dynamics, is_nash, max_gain, nash_check,
        total_radios, utility, validate,
    };
    use crate::config::GameConfig;
    use crate::dynamics::random_start;
    use crate::game::ChannelAllocationGame;
    use crate::pareto::optimal_total_rate;
    use crate::rate_model::{ConstantRate, LinearDecayRate, StepRate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit(budgets: Vec<u32>, n_channels: usize) -> HeteroGame {
        HeteroGame::with_rate(budgets, n_channels, Arc::new(ConstantRate::unit())).unwrap()
    }

    fn mixed() -> HeteroGame {
        // A 4-radio AP, two 2-radio laptops, three 1-radio sensors, 5 channels.
        unit(vec![4, 2, 2, 1, 1, 1], 5)
    }

    /// On random instances with equal budgets and one rate curve, the
    /// extension game that `build(budgets, |C|, curve)` makes and the
    /// paper's game agree bit for bit on every operation. `curve` makes
    /// a fresh model of the instance's curve on each call.
    pub(crate) fn assert_uniform_axes_match_the_paper_game(
        seed: u64,
        build: impl Fn(Vec<u32>, usize, &dyn Fn() -> Arc<dyn RateModel>) -> HeteroGame,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for seed in 0..40u64 {
            let n = rng.gen_range(1..=6usize);
            let c = rng.gen_range(1..=5usize);
            let k = rng.gen_range(1..=c as u32);
            let curve = move || -> Arc<dyn RateModel> {
                match seed % 3 {
                    0 => Arc::new(ConstantRate::unit()),
                    1 => Arc::new(LinearDecayRate::new(6.0, 0.7, 0.5)),
                    _ => Arc::new(StepRate::new("wiggle", vec![7.0, 5.0, 4.5, 1.0])),
                }
            };
            let paper = ChannelAllocationGame::new(GameConfig::new(n, k, c).unwrap(), curve());
            let ext = build(vec![k; n], c, &curve);
            assert_eq!(ext.payoff_shape(), paper.payoff_shape());
            assert_eq!(
                optimal_total_rate(&ext).to_bits(),
                optimal_total_rate(&paper).to_bits()
            );
            let s = random_start(&ext, seed);
            assert_eq!(s, random_start(&paper, seed));
            for u in UserId::all(n) {
                assert_eq!(
                    utility(&ext, &s, u).to_bits(),
                    utility(&paper, &s, u).to_bits()
                );
                assert_eq!(best_response(&ext, &s, u), best_response(&paper, &s, u));
                for b in ChannelId::all(c).filter(|&b| s.get(u, b) > 0) {
                    for to in ChannelId::all(c) {
                        assert_eq!(
                            benefit_of_move(&ext, &s, u, b, to).to_bits(),
                            benefit_of_move(&paper, &s, u, b, to).to_bits()
                        );
                    }
                }
            }
            assert_eq!(nash_check(&ext, &s), nash_check(&paper, &s));
            for tie in [
                TieBreak::LowestIndex,
                TieBreak::PreferUnused,
                TieBreak::Random(seed),
            ] {
                let o = Ordering::with_tie_break(tie);
                assert_eq!(algorithm1(&ext, &o), algorithm1(&paper, &o), "{tie:?}");
            }
            let o = Ordering::random(seed, n);
            assert_eq!(algorithm1(&ext, &o), algorithm1(&paper, &o));
        }
    }

    #[test]
    fn config_validation() {
        // The budget and shape checks; the rate-count check is
        // `multi_rate::tests::wrong_rate_count_rejected`.
        let unit_rate = || Arc::new(ConstantRate::unit()) as Arc<dyn RateModel>;
        for (what, built) in [
            ("no users", HeteroGame::with_rate(vec![], 3, unit_rate())),
            ("no channels", HeteroGame::new(vec![1, 2], 0, vec![])),
            (
                "zero budget",
                HeteroGame::with_rate(vec![1, 0], 3, unit_rate()),
            ),
            ("k > |C|", HeteroGame::with_rate(vec![4], 3, unit_rate())),
        ] {
            assert!(
                matches!(built, Err(Error::InvalidConfig { .. })),
                "{what}: {built:?}"
            );
        }
        let g = unit(vec![3, 1], 3);
        assert_eq!(total_radios(&g), 4);
        assert_eq!(g.radios_of(UserId(0)), 3);
    }

    #[test]
    fn utility_matches_homogeneous_game_when_budgets_equal() {
        // Equal budgets and one shared model (`|C|` clones of one `Arc`).
        assert_uniform_axes_match_the_paper_game(25, |budgets, c, curve| {
            HeteroGame::with_rate(budgets, c, curve()).unwrap()
        });
    }

    #[test]
    fn algorithm1_reaches_nash_on_mixed_fleet() {
        let g = mixed();
        for tie in [TieBreak::LowestIndex, TieBreak::PreferUnused] {
            let s = algorithm1(&g, &Ordering::with_tie_break(tie));
            validate(&g, &s).unwrap();
            assert!(s.max_delta() <= 1, "loads {:?}", s.loads());
            assert!(is_nash(&g, &s), "tie {tie:?}: gain {}", max_gain(&g, &s));
            for u in UserId::all(6) {
                assert_eq!(s.user_total(u), g.radios_of(u));
            }
        }
    }

    #[test]
    fn algorithm1_sweep_over_random_fleets() {
        let mut rng = StdRng::seed_from_u64(2026);
        for _ in 0..40 {
            let n = rng.gen_range(2..=7usize);
            let c = rng.gen_range(2..=6usize);
            let radios: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=c as u32)).collect();
            let g = unit(radios.clone(), c);
            let s = algorithm1(&g, &Ordering::with_tie_break(TieBreak::PreferUnused));
            assert!(s.max_delta() <= 1, "fleet {radios:?}, C={c}");
            assert!(
                is_nash(&g, &s),
                "fleet {radios:?}, C={c}: gain {}",
                max_gain(&g, &s)
            );
        }
    }

    #[test]
    fn dynamics_converge_on_mixed_fleet_with_decreasing_rate() {
        let g = HeteroGame::with_rate(
            vec![4, 3, 2, 1],
            4,
            Arc::new(LinearDecayRate::new(9.0, 0.6, 0.5)),
        )
        .unwrap();
        // Pathological start: everyone piles on channel 1.
        let mut s = StrategyMatrix::zeros(4, 4);
        for (u, &k) in [4u32, 3, 2, 1].iter().enumerate() {
            s.set(UserId(u), ChannelId(0), k);
        }
        let (end, converged, rounds) = best_response_dynamics(&g, s, 200);
        assert!(converged, "rounds {rounds}");
        assert!(is_nash(&g, &end));
        assert!(end.max_delta() <= 1);
    }

    #[test]
    fn big_device_gets_proportionally_more() {
        // In a balanced NE, a user with twice the radios earns about twice
        // the rate (each radio earns a fair per-radio share).
        let g = mixed();
        let s = algorithm1(&g, &Ordering::with_tie_break(TieBreak::PreferUnused));
        // AP (4 radios) vs sensor (1 radio): per-radio shares sit between
        // R/3 and R/2 at the balanced loads (3,2,2,2,2), so the ratio lies
        // in [4·(2/3), 4·(3/2)] = [2.67, 6].
        let ratio = utility(&g, &s, UserId(0)) / utility(&g, &s, UserId(5));
        assert!((2.6..=6.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn validate_catches_budget_violations() {
        let g = mixed();
        let mut s = StrategyMatrix::zeros(6, 5);
        s.set(UserId(5), ChannelId(0), 2); // sensor has only 1 radio
        assert!(validate(&g, &s).is_err());
    }

    #[test]
    fn custom_order_respected() {
        let g = mixed();
        let o = Ordering::with_users(vec![5, 4, 3, 2, 1, 0], TieBreak::LowestIndex);
        let s = algorithm1(&g, &o);
        assert!(is_nash(&g, &s), "gain {}", max_gain(&g, &s));
    }

    #[test]
    fn default_order_is_descending_budget() {
        // Budgets (1, 3, 2): the empty ordering places u2's three radios
        // first, then u3's two, then u1's one — not the id order.
        let g = unit(vec![1, 3, 2], 3);
        let by_budget = Ordering::with_users(vec![1, 2, 0], TieBreak::LowestIndex);
        let by_id = Ordering::with_users(vec![0, 1, 2], TieBreak::LowestIndex);
        let s = algorithm1(&g, &Ordering::default());
        assert_eq!(s, algorithm1(&g, &by_budget));
        assert_ne!(s, algorithm1(&g, &by_id));
    }

    #[test]
    fn cached_paths_match_naive_recompute() {
        let g = mixed();
        let wide = unit(vec![4; 6], 5);
        for seed in 0..10 {
            // Random full deployment over the same shape, then clamp to
            // each user's own budget by parking extras.
            let mut s = random_start(&wide, seed);
            for u in UserId::all(6) {
                while s.user_total(u) > g.radios_of(u) {
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
                assert_eq!(utility(&g, &s, u), utility(&g, &fresh, u));
                assert_eq!(best_response(&g, &s, u), best_response(&g, &fresh, u));
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_rejected() {
        let g = mixed();
        let o = Ordering::with_users(vec![0, 0, 1, 2, 3, 4], TieBreak::LowestIndex);
        let _ = algorithm1(&g, &o);
    }
}
