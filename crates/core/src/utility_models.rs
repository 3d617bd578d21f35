//! Extension: alternative utility functions.
//!
//! The paper fixes `U_i = total rate` and explicitly leaves "the study of
//! other utility functions for future work". This module supplies the two
//! most natural alternatives and the machinery to analyse them:
//!
//! * [`EnergyCostGame`] — `U_i = Σ_c (k_{i,c}/k_c)·R(k_c) − cost·k_i`:
//!   each active radio costs energy. The paper's Lemma 1 ("use all
//!   radios") **fails** once `cost` exceeds the marginal rate of the last
//!   radio — equilibria with idle radios appear, and the equilibrium
//!   number of active radios becomes a supply curve in the cost
//!   (demonstrated in tests and the `t6` experiment).
//! * [`ConcaveUtilityGame`] — `U_i = (Σ_c rate_i,c)^α` with `0 < α ≤ 1`:
//!   diminishing returns to rate. A strictly increasing transform of the
//!   paper's utility, so the best responses — and therefore the NE set —
//!   are *unchanged* (monotone-transformation invariance, verified
//!   mechanically): the paper's analysis is robust to risk-averse users.

use crate::br_dp::{self, best_response, ChannelGame};
use crate::game::{improves, ChannelAllocationGame};
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::{ChannelId, UserId};
use serde::{Deserialize, Serialize};

/// Rate-minus-energy utility wrapper.
#[derive(Debug, Clone)]
pub struct EnergyCostGame {
    inner: ChannelAllocationGame,
    cost_per_radio: f64,
}

/// Outcome of the energy game's Nash check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyNashCheck {
    /// Per-user best-response gains.
    pub gains: Vec<f64>,
    /// Radios each user activates in its best response.
    pub best_active: Vec<u32>,
}

impl EnergyCostGame {
    /// Wrap a game with a per-radio activation cost (same units as the
    /// rate function, e.g. bit/s-equivalents).
    ///
    /// # Panics
    ///
    /// Panics if `cost_per_radio` is negative or non-finite.
    pub fn new(inner: ChannelAllocationGame, cost_per_radio: f64) -> Self {
        assert!(
            cost_per_radio >= 0.0 && cost_per_radio.is_finite(),
            "cost must be non-negative and finite, got {cost_per_radio}"
        );
        EnergyCostGame {
            inner,
            cost_per_radio,
        }
    }

    /// The wrapped rate-only game.
    pub fn inner(&self) -> &ChannelAllocationGame {
        &self.inner
    }

    /// The activation cost.
    pub fn cost_per_radio(&self) -> f64 {
        self.cost_per_radio
    }

    /// Utility: paper's Eq. 3 minus `cost · k_i`. Its exact best response
    /// is the shared DP ([`br_dp::best_response`]), where *using fewer
    /// radios is allowed to win* (each used radio pays the cost —
    /// [`ChannelGame::may_idle_radios`]).
    pub fn utility(&self, s: &StrategyMatrix, user: UserId) -> f64 {
        br_dp::utility(&self.inner, s, user) - self.cost_per_radio * s.user_total(user) as f64
    }

    /// Exact Nash check.
    pub fn nash_check(&self, s: &StrategyMatrix) -> EnergyNashCheck {
        let n = self.inner.config().n_users();
        let mut gains = Vec::with_capacity(n);
        let mut best_active = Vec::with_capacity(n);
        for u in UserId::all(n) {
            let before = self.utility(s, u);
            let (br, after) = best_response(self, s, u);
            gains.push((after - before).max(0.0));
            best_active.push(br.radios_in_use());
        }
        EnergyNashCheck { gains, best_active }
    }

    /// True when no user can improve (by more than the scale-relative
    /// [`improves`] epsilon).
    pub fn is_nash(&self, s: &StrategyMatrix) -> bool {
        UserId::all(self.inner.config().n_users()).all(|u| {
            let before = self.utility(s, u);
            let (_, after) = best_response(self, s, u);
            !improves(before, after)
        })
    }

    /// Best-response dynamics to a fixed point.
    ///
    /// Kept on the naive utility path (not the generic cached loop): the
    /// per-channel cost accounting of [`ChannelGame::channel_payoff`] sums
    /// in a different order than [`utility`](Self::utility), and the
    /// historical trajectories — pinned by the supply-curve experiments —
    /// compare utilities on the latter.
    pub fn converge(&self, mut s: StrategyMatrix, max_rounds: usize) -> (StrategyMatrix, bool) {
        let n = self.inner.config().n_users();
        for _ in 0..max_rounds {
            let mut moved = false;
            for u in UserId::all(n) {
                let before = self.utility(&s, u);
                let (br, after) = best_response(self, &s, u);
                if improves(before, after) {
                    s.set_user_strategy(u, &br);
                    moved = true;
                }
            }
            if !moved {
                return (s, true);
            }
        }
        (s, false)
    }
}

/// The energy-cost model through the unified engine: fair-share payoff
/// minus `cost · t` per channel, with idle radios allowed to win the DP.
impl ChannelGame for EnergyCostGame {
    fn n_users(&self) -> usize {
        self.inner.config().n_users()
    }

    fn n_channels(&self) -> usize {
        self.inner.config().n_channels()
    }

    fn radios_of(&self, _user: UserId) -> u32 {
        self.inner.config().radios_per_user()
    }

    fn channel_payoff(&self, _channel: ChannelId, others_load: u32, slots: u32) -> f64 {
        if slots == 0 {
            return 0.0;
        }
        let total = others_load + slots;
        slots as f64 / total as f64 * self.inner.rate().rate(total)
            - self.cost_per_radio * slots as f64
    }

    fn may_idle_radios(&self) -> bool {
        true
    }
}

/// Concave (risk-averse) utility wrapper: `U_i = (rate_i)^alpha`.
#[derive(Debug, Clone)]
pub struct ConcaveUtilityGame {
    inner: ChannelAllocationGame,
    alpha: f64,
}

impl ConcaveUtilityGame {
    /// Wrap a game with exponent `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(inner: ChannelAllocationGame, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        ConcaveUtilityGame { inner, alpha }
    }

    /// Transformed utility.
    pub fn utility(&self, s: &StrategyMatrix, user: UserId) -> f64 {
        br_dp::utility(&self.inner, s, user).powf(self.alpha)
    }

    /// Best response — computed on the *inner* game: `x ↦ x^α` is strictly
    /// increasing on `x ≥ 0`, so argmaxes coincide.
    pub fn best_response(&self, s: &StrategyMatrix, user: UserId) -> (StrategyVector, f64) {
        let (v, u) = best_response(&self.inner, s, user);
        (v, u.powf(self.alpha))
    }

    /// Nash check — delegated for the same reason; the NE set is provably
    /// identical to the inner game's (tests verify on enumerations).
    pub fn is_nash(&self, s: &StrategyMatrix) -> bool {
        br_dp::is_nash(&self.inner, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{algorithm1, Ordering, TieBreak};
    use crate::br_dp::{is_nash, utility};
    use crate::config::GameConfig;
    use crate::enumerate::enumerate_allocations;

    fn base(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    #[test]
    fn zero_cost_reduces_to_paper_game() {
        let g = base(3, 2, 3);
        let e = EnergyCostGame::new(g.clone(), 0.0);
        let s = algorithm1(&g, &Ordering::default());
        assert_eq!(is_nash(&g, &s), e.is_nash(&s));
        for u in UserId::all(3) {
            assert_eq!(utility(&g, &s, u), e.utility(&s, u));
        }
    }

    #[test]
    fn high_cost_breaks_lemma1() {
        // With per-radio cost above the marginal share, users idle radios:
        // the paper's Lemma 1 fails by design.
        let g = base(3, 2, 3);
        // Per-radio share at the balanced loads (2,2,2) is 0.5; a cost of
        // 0.55 makes the marginal radio unprofitable there (while a lone
        // radio on a load-1 channel, earning 1.0, stays on).
        let e = EnergyCostGame::new(g.clone(), 0.55);
        let start = algorithm1(&g, &Ordering::default()); // loads (2,2,2)
        let (end, converged) = e.converge(start, 100);
        assert!(converged);
        assert!(e.is_nash(&end));
        let total_active: u32 = UserId::all(3).map(|u| end.user_total(u)).sum();
        assert!(
            total_active < 6,
            "someone must switch a radio off: matrix {end}"
        );
        // And the resulting profile is NOT a NE of the costless game
        // (there, deploying is always better).
        assert!(!is_nash(&g, &end));
    }

    #[test]
    fn moderate_cost_keeps_all_radios_on() {
        // Cost below every marginal share: Lemma 1 survives.
        let g = base(3, 2, 3);
        let e = EnergyCostGame::new(g.clone(), 0.05);
        let s = algorithm1(&g, &Ordering::default());
        assert!(e.is_nash(&s), "gains {:?}", e.nash_check(&s).gains);
    }

    #[test]
    fn active_radio_count_is_monotone_in_cost() {
        // The "supply curve": higher energy price, fewer active radios at
        // equilibrium.
        let g = base(4, 3, 4);
        let mut prev_active = u32::MAX;
        for cost in [0.0, 0.1, 0.3, 0.6, 1.1] {
            let e = EnergyCostGame::new(g.clone(), cost);
            let (end, converged) = e.converge(algorithm1(&g, &Ordering::default()), 200);
            assert!(converged, "cost {cost}");
            let active: u32 = UserId::all(4).map(|u| end.user_total(u)).sum();
            assert!(
                active <= prev_active,
                "cost {cost}: active {active} > previous {prev_active}"
            );
            prev_active = active;
        }
        // At cost > R(1) = 1 every radio is off.
        assert_eq!(prev_active, 0);
    }

    #[test]
    fn energy_best_response_beats_enumeration() {
        let g = base(2, 2, 3);
        let e = EnergyCostGame::new(g, 0.3);
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0], vec![0, 1, 1]]).unwrap();
        for u in UserId::all(2) {
            let (_, dp_val) = best_response(&e, &s, u);
            let mut best = f64::NEG_INFINITY;
            for cand in crate::enumerate::user_strategy_space(3, 2) {
                let mut alt = s.clone();
                alt.set_user_strategy(u, &cand);
                best = best.max(e.utility(&alt, u));
            }
            assert!((dp_val - best).abs() < 1e-12, "user {u}");
        }
    }

    #[test]
    fn concave_transform_preserves_ne_set() {
        let g = base(2, 2, 2);
        let cg = ConcaveUtilityGame::new(g.clone(), 0.5);
        enumerate_allocations(g.config(), |s| {
            assert_eq!(
                is_nash(&g, s),
                cg.is_nash(s),
                "NE sets must coincide at {s}"
            );
        });
    }

    #[test]
    fn concave_utility_values_are_transformed() {
        let g = base(2, 2, 2);
        let cg = ConcaveUtilityGame::new(g.clone(), 0.5);
        let s = algorithm1(&g, &Ordering::with_tie_break(TieBreak::PreferUnused));
        for u in UserId::all(2) {
            assert!((cg.utility(&s, u) - utility(&g, &s, u).sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = ConcaveUtilityGame::new(base(2, 2, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "cost")]
    fn negative_cost_rejected() {
        let _ = EnergyCostGame::new(base(2, 2, 2), -1.0);
    }
}
