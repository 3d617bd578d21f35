//! Nash-equilibrium structure: Lemmas 1–4, Proposition 1, Fact 1,
//! Theorem 1.
//!
//! Two independent roads to the same answer:
//!
//! 1. **Exact deviation search** — [`br_dp::nash_check`] computes every
//!    user's exact best response (polynomial DP). This is ground truth,
//!    valid for *any* rate model.
//! 2. **Structural characterization** — [`theorem1()`] evaluates the
//!    paper's closed-form conditions in `O(|N|·|C|)` without touching the
//!    rate function.
//!
//! Experiment T1 enumerates all allocations of small instances and checks
//! the two agree. The lemma predicates in [`lemmas`] additionally explain
//! *why* a given allocation fails (used to reproduce the paper's running
//! Figure-1 commentary).

pub mod lemmas;
pub mod theorem1;

pub use crate::game::NashCheck;
pub use lemmas::{
    lemma1_violations, lemma2_violations, lemma3_violations, lemma4_violations, proposition1_holds,
    LemmaViolation,
};
pub use theorem1::{theorem1, Theorem1Verdict};

use crate::br_dp::{self, ChannelGame};
use crate::rate_model::RateShape;
use crate::strategy::StrategyMatrix;

/// Whether Theorem 1's structural verdict is a *proof* of (non-)equilibrium
/// for this game, derived from the [`ChannelGame::payoff_shape`] seam.
///
/// The theorem is stated for the paper's constant-rate sharing games:
/// concave-sharing payoffs with no idle radios. On other games
/// ([`theorem1()`] stays *available* — sweeps deliberately measure the
/// structural/exact divergence on multi-rate and measured tables) the
/// verdict is a heuristic, not a certificate. Measured rate tables
/// propagate their CI-aware classification here: a table whose intervals
/// cannot certify concave sharing is not Theorem-1-certifiable either.
pub fn theorem1_applicable<G: ChannelGame + ?Sized>(game: &G) -> bool {
    game.payoff_shape() == RateShape::ConcaveSharing && !game.may_idle_radios()
}

/// Fact 1 of the paper: when `Σ_i k_i ≤ |C|`, any allocation in which
/// every channel carries at most one radio **and every user deploys all
/// its radios** is a (Pareto-optimal) NE. Generic over [`ChannelGame`]
/// (per-user budgets read individually).
///
/// Returns `None` when the precondition `Σ_i k_i ≤ |C|` does not hold;
/// otherwise whether the allocation is of the stated flat form.
pub fn fact1_applies<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> Option<bool> {
    if br_dp::has_conflict(game) {
        return None;
    }
    let flat = s.loads().iter().all(|&l| l <= 1)
        && (0..game.n_users()).all(|i| {
            let u = crate::types::UserId(i);
            s.user_total(u) == game.radios_of(u)
        });
    Some(flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_dp::is_nash;
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;

    #[test]
    fn fact1_flat_allocation_is_nash() {
        // 2 users × 2 radios, 5 channels: 4 ≤ 5.
        let g = ChannelAllocationGame::with_constant_rate(GameConfig::new(2, 2, 5).unwrap(), 1.0);
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0, 0, 0], vec![0, 0, 1, 1, 0]]).unwrap();
        assert_eq!(fact1_applies(&g, &s), Some(true));
        assert!(is_nash(&g, &s));
    }

    #[test]
    fn fact1_rejects_stacked_allocation() {
        let g = ChannelAllocationGame::with_constant_rate(GameConfig::new(2, 2, 5).unwrap(), 1.0);
        let s = StrategyMatrix::from_rows(&[vec![2, 0, 0, 0, 0], vec![0, 0, 1, 1, 0]]).unwrap();
        assert_eq!(fact1_applies(&g, &s), Some(false));
        // And indeed it is not a NE: u1 gains by spreading.
        assert!(!is_nash(&g, &s));
    }

    #[test]
    fn fact1_not_applicable_under_conflict() {
        let g = ChannelAllocationGame::with_constant_rate(GameConfig::new(4, 4, 5).unwrap(), 1.0);
        let s = StrategyMatrix::zeros(4, 5);
        assert_eq!(fact1_applies(&g, &s), None);
    }

    #[test]
    fn fact1_requires_all_radios_used() {
        let g = ChannelAllocationGame::with_constant_rate(GameConfig::new(2, 2, 5).unwrap(), 1.0);
        // u2 idles one radio: flat loads but not a NE (Lemma 1).
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0, 0, 0], vec![0, 0, 1, 0, 0]]).unwrap();
        assert_eq!(fact1_applies(&g, &s), Some(false));
        assert!(!is_nash(&g, &s));
    }
}
