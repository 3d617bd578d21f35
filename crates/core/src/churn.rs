//! Mutable-population game for the churn service.
//!
//! Every [`ChannelGame`] implementor so far
//! froze its population and rates at construction — the paper's game is
//! one-shot. The churn workload (ROADMAP item 1) needs the opposite: a
//! standing equilibrium absorbing **arrival**, **departure**,
//! **budget-change** and **rate-shift** events with the engine state
//! carried across events. [`ChurnGame`] is the minimal mutable
//! implementor backing it:
//!
//! * per-user radio budgets in a growable vector — arrivals
//!   [`push_user`](ChurnGame::push_user), departures
//!   [`retire`](ChurnGame::retire) (budget zeroed, id tombstoned, so the
//!   population's user ids stay stable — exactly matching the engine's
//!   retired CSR rows);
//! * per-channel constant rates, mutable in place via
//!   [`set_rate`](ChurnGame::set_rate) — the paper's constant-rate
//!   sharing per channel (`f_c(t) = t/(L+t) · R_c`), which keeps the
//!   payoff concave/monotone in own slots and therefore on the
//!   `O(k log |C|)` heap route;
//! * a [`force_generic_route`](ChurnGame::force_generic_route) test hook
//!   that under-reports `payoff_is_separable_monotone`, driving the same
//!   events through the DP route (the engines must stay correct on both).
//!
//! The mutation methods only touch the *game description*. The engine
//! side of each event — CSR row append, row retirement, engine column
//! repair and the wake bookkeeping — lives in
//! [`ActiveSetDynamics::grow_users`](crate::br_fast::ActiveSetDynamics::grow_users),
//! [`retire_user`](crate::br_fast::ActiveSetDynamics::retire_user) and
//! [`reprice_channel`](crate::br_fast::ActiveSetDynamics::reprice_channel);
//! the `ChurnDriver` in `mrca-experiments` pairs the two and measures
//! per-event re-convergence.

use crate::br_dp::ChannelGame;
use crate::rate_model::RateShape;
use crate::types::{ChannelId, UserId};

/// A constant-rate channel-allocation game whose population and rates
/// mutate in place — see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnGame {
    /// Per-user radio budgets; `0` marks a retired (tombstoned) user.
    budgets: Vec<u32>,
    /// Per-channel constant rates.
    rates: Vec<f64>,
    /// Test hook: report the generic route even though the payoff is
    /// separable-monotone.
    concave_route: bool,
}

impl ChurnGame {
    /// A game over `rates.len()` channels with the given per-user
    /// budgets.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` or `rates` is empty, or any rate is not a
    /// finite positive number.
    pub fn new(budgets: Vec<u32>, rates: Vec<f64>) -> Self {
        assert!(!budgets.is_empty(), "need at least one user");
        assert!(!rates.is_empty(), "need at least one channel");
        for &r in &rates {
            assert!(r.is_finite() && r > 0.0, "rates must be finite positive");
        }
        ChurnGame {
            budgets,
            rates,
            concave_route: true,
        }
    }

    /// `n` users of budget `k` over channels of constant rate `rate`.
    pub fn uniform(n: usize, k: u32, n_channels: usize, rate: f64) -> Self {
        Self::new(vec![k; n], vec![rate; n_channels])
    }

    /// Route this game through the generic DP engine (test hook; the
    /// payoff itself is unchanged).
    pub fn force_generic_route(mut self) -> Self {
        self.concave_route = false;
        self
    }

    /// Arrival: append a user with radio budget `budget`, returning its
    /// id. The engine counterpart is
    /// [`grow_users`](crate::br_fast::ActiveSetDynamics::grow_users).
    pub fn push_user(&mut self, budget: u32) -> UserId {
        self.budgets.push(budget);
        UserId(self.budgets.len() - 1)
    }

    /// Departure: zero `user`'s budget, tombstoning its id (the
    /// population never renumbers). Returns the retired budget. The
    /// engine counterpart is
    /// [`retire_user`](crate::br_fast::ActiveSetDynamics::retire_user).
    pub fn retire(&mut self, user: UserId) -> u32 {
        std::mem::take(&mut self.budgets[user.0])
    }

    /// Whether `user` is live (non-zero budget).
    pub fn is_live(&self, user: UserId) -> bool {
        self.budgets[user.0] > 0
    }

    /// Live (non-retired) user count.
    pub fn live_users(&self) -> usize {
        self.budgets.iter().filter(|&&k| k > 0).count()
    }

    /// The current rate of channel `c`.
    pub fn rate(&self, c: ChannelId) -> f64 {
        self.rates[c.0]
    }

    /// Rate shift: set channel `c`'s rate, returning the old one. The
    /// engine counterpart is
    /// [`reprice_channel`](crate::br_fast::ActiveSetDynamics::reprice_channel).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a finite positive number.
    pub fn set_rate(&mut self, c: ChannelId, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rates must be finite positive"
        );
        std::mem::replace(&mut self.rates[c.0], rate)
    }

    /// The sharing payoff `t/(L+t) · rate` — what
    /// [`channel_payoff`](ChannelGame::channel_payoff) computes with the
    /// channel's current rate, exposed with an explicit rate so a caller
    /// can evaluate a rate the game no longer holds (rate-shift callers
    /// build the pre-change column from it for
    /// [`reprice_channel`](crate::br_fast::ActiveSetDynamics::reprice_channel),
    /// which ignores it).
    pub fn payoff_at_rate(others_load: u32, slots: u32, rate: f64) -> f64 {
        if slots == 0 {
            return 0.0;
        }
        let total = others_load + slots;
        slots as f64 / total as f64 * rate
    }
}

impl ChannelGame for ChurnGame {
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
        Self::payoff_at_rate(others_load, slots, self.rates[channel.0])
    }

    fn payoff_shape(&self) -> RateShape {
        // Per-channel scalar rates are constant in occupancy, hence
        // concave-sharing — unless the generic route is forced for
        // differential coverage (`force_generic_route`), which
        // under-reports as monotone-only.
        if self.concave_route {
            RateShape::ConcaveSharing
        } else {
            RateShape::MonotoneOnly
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_fast::{is_nash_sparse, ActiveSetDynamics};
    use crate::sparse::SparseStrategies;

    fn settled(game: &ChurnGame, d: &mut ActiveSetDynamics) {
        let (converged, _) = d.run(game, 500, None);
        assert!(converged, "dynamics must settle");
        assert!(
            is_nash_sparse(game, d.state()),
            "settled state must be Nash"
        );
    }

    #[test]
    fn arrival_is_one_worklist_entry_and_resettles() {
        let mut g = ChurnGame::uniform(8, 2, 4, 1.0);
        let start = SparseStrategies::random_uniform(8, 2, 4, 5);
        let mut d = ActiveSetDynamics::new(&g, start);
        settled(&g, &mut d);

        let u = g.push_user(2);
        d.grow_users(&g).unwrap();
        assert_eq!(d.state().n_users(), 9);
        assert_eq!(d.state().row_capacity(u), 2);
        settled(&g, &mut d);
        assert_eq!(d.state().user_total(u), 2, "arrival deploys its radios");
    }

    #[test]
    fn departure_retires_the_row_and_wakes_the_vacated_channels() {
        let mut g = ChurnGame::uniform(9, 1, 2, 1.0);
        let start = SparseStrategies::random_uniform(9, 1, 2, 3);
        let mut d = ActiveSetDynamics::new(&g, start);
        settled(&g, &mut d);

        let victim = UserId(4);
        g.retire(victim);
        d.retire_user(&g, victim);
        assert!(d.state().row(victim).is_empty());
        settled(&g, &mut d);
        // 8 single-radio users over 2 unit channels: Prop-1 balance is
        // 4/4, so the vacated channel must have been refilled.
        let loads = d.loads().as_slice().to_vec();
        assert_eq!(loads.iter().sum::<u32>(), 8);
        assert!(loads.iter().all(|&l| l == 4), "{loads:?}");
    }

    #[test]
    fn rate_shift_wakes_the_channel_and_rebalances() {
        let mut g = ChurnGame::uniform(12, 1, 3, 1.0);
        let start = SparseStrategies::random_uniform(12, 1, 3, 7);
        let mut d = ActiveSetDynamics::new(&g, start);
        settled(&g, &mut d);
        assert!(d.loads().as_slice().iter().all(|&l| l == 4));

        // Triple channel 0's rate: the balanced 4/4/4 equilibrium is no
        // longer Nash, so parked users must wake and re-settle with the
        // raised channel carrying more load.
        let load = d.loads().load(ChannelId(0));
        let old = g.set_rate(ChannelId(0), 3.0);
        d.reprice_channel(&g, ChannelId(0), &move |t| {
            ChurnGame::payoff_at_rate(load, t, old)
        });
        settled(&g, &mut d);
        assert!(
            d.loads().load(ChannelId(0)) > 4,
            "raised channel must attract load: {:?}",
            d.loads().as_slice()
        );
    }
}
