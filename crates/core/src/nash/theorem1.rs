//! Theorem 1: the closed-form Nash-equilibrium characterization.
//!
//! For `|N|·k > |C|` the paper states that `S` is a NE iff
//!
//! 1. `δ_{b,c} ≤ 1` for all channels `b, c` (load balancing;
//!    Proposition 1), and
//! 2. `k_{i,c} ≤ 1` for every user and channel, **except** for users `j`
//!    that occupy *every* minimum-load channel; for those the condition
//!    relaxes to: `k_{j,c} ≤ 1` on maximum-load channels, and
//!    `γ_{j,a,c} = k_{j,a} − k_{j,c} ≤ 1` for all `a, c ∈ C_min`.
//!
//! Lemma 1 (`k_i = k` for all users) is a further necessary condition the
//! theorem statement inherits from its context; we check it explicitly as
//! condition 0.
//!
//! For `|N|·k ≤ |C|` (Fact 1's regime) the characterization degenerates
//! to: every user deploys all radios and every channel holds at most one.
//!
//! ## A boundary note (documented reproduction finding)
//!
//! The theorem's exception clause, read literally, admits corner profiles
//! that are *not* equilibria: an exception user holding ≥ 3 radios on a
//! min-load channel of small load satisfies both conditions (γ over
//! `C_min` can be vacuous when `|C_min| = 1`) yet gains by moving a radio
//! to a max channel. `tests::stated_conditions_admit_non_ne_corner_case`
//! constructs such a profile (`|N| = 5, k = 3, |C| = 4`, constant `R`).
//! All of the paper's own examples, and every profile reachable by
//! Algorithm 1 or best-response dynamics in our sweeps, are classified
//! identically by Theorem 1 and exact deviation search (experiment T1);
//! the corner requires a user to stack ≥ 3 radios on one channel, which no
//! improving path produces. We keep the checker faithful to the paper and
//! surface disagreements in T1 rather than silently "fixing" the theorem.

use crate::br_dp::{self, ChannelGame};
use crate::strategy::StrategyMatrix;
use crate::types::{ChannelId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Verdict of the Theorem-1 structural check, with a witness for each
/// possible failure mode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Theorem1Verdict {
    /// All conditions hold: the allocation is a NE (per the theorem).
    Nash,
    /// Condition 0 (Lemma 1): some user idles radios.
    IdleRadios {
        /// The under-deployed user.
        user: UserId,
        /// Radios the user actually deployed.
        used: u32,
    },
    /// Condition 1 (Proposition 1): two channels differ in load by > 1.
    Unbalanced {
        /// A maximum-load channel.
        b: ChannelId,
        /// A minimum-load channel.
        c: ChannelId,
        /// Their load difference `δ_{b,c} ≥ 2`.
        delta: u32,
    },
    /// Condition 2, regular clause: a non-exception user stacks ≥ 2 radios
    /// on one channel.
    Stacked {
        /// The stacking user.
        user: UserId,
        /// The channel holding ≥ 2 of the user's radios.
        channel: ChannelId,
        /// The user's radio count there.
        count: u32,
    },
    /// Condition 2, exception clause: an exception user stacks ≥ 2 radios
    /// on a maximum-load channel.
    ExceptionStackedOnMax {
        /// The exception user.
        user: UserId,
        /// The max-load channel holding ≥ 2 of the user's radios.
        channel: ChannelId,
        /// The user's radio count there.
        count: u32,
    },
    /// Condition 2, exception clause: an exception user's counts over the
    /// min-load channels spread by more than 1.
    ExceptionUnevenOnMin {
        /// The exception user.
        user: UserId,
        /// Min channel with the user's highest count.
        a: ChannelId,
        /// Min channel with the user's lowest count.
        c: ChannelId,
        /// `γ_{j,a,c} ≥ 2`.
        gamma: u32,
    },
}

impl Theorem1Verdict {
    /// True when the verdict certifies a NE.
    pub fn is_nash(&self) -> bool {
        matches!(self, Theorem1Verdict::Nash)
    }
}

/// Evaluate Theorem 1's conditions on `s`.
///
/// Purely structural: only the radio counts matter, never the rate
/// function (that independence is itself one of the paper's punchlines and
/// is validated against the rate-aware deviation search in experiment T1).
///
/// Generic over [`ChannelGame`]: the heterogeneous game reads condition 0
/// against each user's own budget `k_i` (the form the paper's theorem
/// takes with `k` replaced per user — empirically validated, not claimed
/// as a theorem), and the per-channel-rate game gets the *structural*
/// verdict, which genuinely diverges from the exact NE check there
/// (equilibria water-fill; the T1-style sweeps surface the disagreement
/// rather than hiding it). `O(|N|·|C|)` against the matrix's kept loads.
pub fn theorem1<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> Theorem1Verdict {
    // Condition 0 (Lemma 1): every user deploys all its radios.
    for user in UserId::all(game.n_users()) {
        let used = s.user_total(user);
        if used != game.radios_of(user) {
            return Theorem1Verdict::IdleRadios { user, used };
        }
    }

    let loads = s.loads();
    let max = *loads.iter().max().expect("at least one channel");
    let min = *loads.iter().min().expect("at least one channel");

    if !br_dp::has_conflict(game) {
        // Fact 1's regime: flat allocations (k_c ≤ 1) are the equilibria.
        if max <= 1 {
            return Theorem1Verdict::Nash;
        }
        // Some channel is stacked while another must be empty: report the
        // stacking pair as an imbalance witness.
        let b = ChannelId(loads.iter().position(|&l| l == max).expect("max exists"));
        let c = ChannelId(loads.iter().position(|&l| l == min).expect("min exists"));
        return Theorem1Verdict::Unbalanced {
            b,
            c,
            delta: max - min,
        };
    }

    // Condition 1 (Proposition 1): δ ≤ 1.
    if max - min > 1 {
        let b = ChannelId(loads.iter().position(|&l| l == max).expect("max exists"));
        let c = ChannelId(loads.iter().position(|&l| l == min).expect("min exists"));
        return Theorem1Verdict::Unbalanced {
            b,
            c,
            delta: max - min,
        };
    }

    let c_min: HashSet<usize> = loads
        .iter()
        .enumerate()
        .filter_map(|(c, &l)| (l == min).then_some(c))
        .collect();
    let c_max: HashSet<usize> = loads
        .iter()
        .enumerate()
        .filter_map(|(c, &l)| (l == max).then_some(c))
        .collect();

    // Condition 2.
    for user in UserId::all(game.n_users()) {
        let exception = c_min.iter().all(|&c| s.get(user, ChannelId(c)) > 0);
        if !exception {
            for c in ChannelId::all(game.n_channels()) {
                let count = s.get(user, c);
                if count > 1 {
                    return Theorem1Verdict::Stacked {
                        user,
                        channel: c,
                        count,
                    };
                }
            }
        } else {
            // Exception clause: ≤1 on max channels …
            for &c in &c_max {
                // When all loads are equal C_max == C_min; the min-side
                // γ-condition governs those channels.
                if c_min.contains(&c) {
                    continue;
                }
                let count = s.get(user, ChannelId(c));
                if count > 1 {
                    return Theorem1Verdict::ExceptionStackedOnMax {
                        user,
                        channel: ChannelId(c),
                        count,
                    };
                }
            }
            // … and γ ≤ 1 across min channels.
            let counts: Vec<(usize, u32)> = c_min
                .iter()
                .map(|&c| (c, s.get(user, ChannelId(c))))
                .collect();
            let (a_ch, a_cnt) = *counts.iter().max_by_key(|&&(_, v)| v).expect("nonempty");
            let (c_ch, c_cnt) = *counts.iter().min_by_key(|&&(_, v)| v).expect("nonempty");
            if a_cnt - c_cnt > 1 {
                return Theorem1Verdict::ExceptionUnevenOnMin {
                    user,
                    a: ChannelId(a_ch),
                    c: ChannelId(c_ch),
                    gamma: a_cnt - c_cnt,
                };
            }
        }
    }

    Theorem1Verdict::Nash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::br_dp::{is_nash, nash_check};
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;

    fn unit_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
        ChannelAllocationGame::with_constant_rate(GameConfig::new(n, k, c).unwrap(), 1.0)
    }

    /// A NE allocation matching the paper's Figure 4 structure:
    /// |N| = 7, k = 4, |C| = 6, loads (5,5,5,5,4,4), with u1 the
    /// exception user (two radios on each of the two min channels).
    pub(crate) fn figure4() -> StrategyMatrix {
        StrategyMatrix::from_rows(&[
            vec![0, 0, 0, 0, 2, 2], // u1 — exception user
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 0, 0, 1, 1],
            vec![0, 0, 1, 1, 1, 1],
        ])
        .unwrap()
    }

    /// A NE allocation matching the paper's Figure 5 structure:
    /// |N| = 4, k = 4, |C| = 6, loads (3,3,3,3,2,2), no exception user.
    pub(crate) fn figure5() -> StrategyMatrix {
        StrategyMatrix::from_rows(&[
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 0, 0, 1, 1],
            vec![0, 1, 1, 1, 0, 1],
            vec![1, 0, 1, 1, 1, 0],
        ])
        .unwrap()
    }

    #[test]
    fn figure4_is_nash_by_both_checkers() {
        let g = unit_game(7, 4, 6);
        let s = figure4();
        assert_eq!(s.loads(), vec![5, 5, 5, 5, 4, 4]);
        assert!(theorem1(&g, &s).is_nash());
        assert!(is_nash(&g, &s));
    }

    #[test]
    fn figure4_exception_user_detected() {
        // u1 has a radio on every min channel (c5, c6) and 2 on one of
        // them — the regular clause would reject it, the exception admits
        // it.
        let s = figure4();
        let c_min = s.c_min();
        assert_eq!(c_min, vec![ChannelId(4), ChannelId(5)]);
        assert!(c_min.iter().all(|&c| s.get(UserId(0), c) > 0));
        assert_eq!(s.get(UserId(0), ChannelId(4)), 2);
    }

    #[test]
    fn figure5_is_nash_by_both_checkers() {
        let g = unit_game(4, 4, 6);
        let s = figure5();
        assert_eq!(s.loads(), vec![3, 3, 3, 3, 2, 2]);
        assert!(theorem1(&g, &s).is_nash());
        assert!(is_nash(&g, &s));
        // No user stacks radios: the "no exception" case of the paper.
        for u in UserId::all(4) {
            for c in ChannelId::all(6) {
                assert!(s.get(u, c) <= 1);
            }
        }
    }

    #[test]
    fn figure1_fails_with_idle_radio_witness() {
        let g = unit_game(4, 4, 5);
        let s = StrategyMatrix::from_rows(&[
            vec![1, 1, 1, 1, 0],
            vec![1, 0, 1, 0, 1],
            vec![1, 2, 0, 1, 0],
            vec![1, 0, 0, 1, 0],
        ])
        .unwrap();
        match theorem1(&g, &s) {
            Theorem1Verdict::IdleRadios { user, used } => {
                assert_eq!(user, UserId(1)); // u2 uses 3 of 4
                assert_eq!(used, 3);
            }
            other => panic!("expected IdleRadios, got {other:?}"),
        }
    }

    #[test]
    fn unbalanced_witness() {
        let g = unit_game(2, 2, 2);
        // Loads (4, 0).
        let s = StrategyMatrix::from_rows(&[vec![2, 0], vec![2, 0]]).unwrap();
        match theorem1(&g, &s) {
            Theorem1Verdict::Unbalanced { delta, .. } => assert_eq!(delta, 4),
            other => panic!("expected Unbalanced, got {other:?}"),
        }
    }

    #[test]
    fn stacked_witness_for_non_exception_user() {
        let g = unit_game(2, 2, 2);
        // Loads (2, 2) but u1 = (2,0): u1 misses min channel c2 (loads
        // equal → C_min = both), so the regular clause applies and flags
        // the stack.
        let s = StrategyMatrix::from_rows(&[vec![2, 0], vec![0, 2]]).unwrap();
        match theorem1(&g, &s) {
            Theorem1Verdict::Stacked {
                user,
                channel,
                count,
            } => {
                assert_eq!(user, UserId(0));
                assert_eq!(channel, ChannelId(0));
                assert_eq!(count, 2);
            }
            other => panic!("expected Stacked, got {other:?}"),
        }
        // Exact check agrees: not a NE.
        assert!(!is_nash(&g, &s));
    }

    #[test]
    fn stacked_witness_when_loads_equal() {
        // Loads (3,3,3,3) with u1 = (3,1,0,0): C_min = every channel, u1
        // misses c3 → the regular clause applies and flags the stack.
        let g = unit_game(3, 4, 4);
        let s = StrategyMatrix::from_rows(&[vec![3, 1, 0, 0], vec![0, 1, 2, 1], vec![0, 1, 1, 2]])
            .unwrap();
        assert_eq!(s.loads(), vec![3, 3, 3, 3]);
        match theorem1(&g, &s) {
            Theorem1Verdict::Stacked { user, .. } => assert_eq!(user, UserId(0)),
            other => panic!("expected Stacked, got {other:?}"),
        }
    }

    #[test]
    fn exception_uneven_on_min_witness() {
        // |N| = 7, k = 4, |C| = 6, loads (5,5,5,5,4,4). u1 covers both min
        // channels (counts 3 and 1): exception user with γ = 2 over C_min.
        let g = unit_game(7, 4, 6);
        let s = StrategyMatrix::from_rows(&[
            vec![0, 0, 0, 0, 3, 1], // u1 — exception, uneven over C_min
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 0, 0],
            vec![1, 0, 0, 0, 1, 2], // u6 — legal exception user (γ = 1)
            vec![0, 1, 1, 1, 0, 1],
        ])
        .unwrap();
        assert_eq!(s.loads(), vec![5, 5, 5, 5, 4, 4]);
        match theorem1(&g, &s) {
            Theorem1Verdict::ExceptionUnevenOnMin { user, gamma, .. } => {
                assert_eq!(user, UserId(0));
                assert_eq!(gamma, 2);
            }
            other => panic!("expected ExceptionUnevenOnMin, got {other:?}"),
        }
        // Exact check agrees: u1 moving a radio c5 → c6 gains
        // 2/3 + 2/5 = 16/15 > 1.
        assert!(!is_nash(&g, &s));
    }

    #[test]
    fn stated_conditions_admit_non_ne_corner_case() {
        // Documented boundary of the theorem (see module docs): |N| = 5,
        // k = 3, |C| = 4; u1 stacks all 3 radios on the single min channel
        // c4, the other four users each spread over c1..c3.
        // Loads (4,4,4,3): δ = 1 ✓; u1 occupies every min channel (just
        // c4) with γ vacuous ✓ and has nothing on max channels ✓; others
        // are flat ✓ — Theorem 1 says NE.
        let g = unit_game(5, 3, 4);
        let s = StrategyMatrix::from_rows(&[
            vec![0, 0, 0, 3],
            vec![1, 1, 1, 0],
            vec![1, 1, 1, 0],
            vec![1, 1, 1, 0],
            vec![1, 1, 1, 0],
        ])
        .unwrap();
        assert_eq!(s.loads(), vec![4, 4, 4, 3]);
        assert!(theorem1(&g, &s).is_nash(), "literal conditions pass");
        // …but the exact deviation search disagrees: u1 moving one radio
        // c4 → c1 earns 1/5 + 2/2 = 1.2 > 1.
        let check = nash_check(&g, &s);
        assert!(
            !check.is_nash(),
            "the corner profile is not deviation-stable"
        );
        assert_eq!(check.witness.as_ref().unwrap().0, UserId(0));
    }

    #[test]
    fn fact1_regime_flat_is_nash() {
        let g = unit_game(2, 2, 5); // 4 ≤ 5
        let s = StrategyMatrix::from_rows(&[vec![1, 1, 0, 0, 0], vec![0, 0, 1, 1, 0]]).unwrap();
        assert!(theorem1(&g, &s).is_nash());
    }

    #[test]
    fn fact1_regime_stacked_is_rejected() {
        let g = unit_game(2, 2, 5);
        let s = StrategyMatrix::from_rows(&[vec![2, 0, 0, 0, 0], vec![0, 0, 1, 1, 0]]).unwrap();
        assert!(!theorem1(&g, &s).is_nash());
    }

    #[test]
    fn cached_verdict_matches_uncached_on_the_paper_figures() {
        let g4 = unit_game(7, 4, 6);
        let g5 = unit_game(4, 4, 6);
        for (g, fresh) in [(&g4, figure4()), (&g5, figure5())] {
            // The figure rebuilt one row at a time, so its loads are the
            // kept ones, against the fresh count of `from_rows`.
            let mut kept = StrategyMatrix::zeros(fresh.n_users(), fresh.n_channels());
            for u in UserId::all(fresh.n_users()) {
                kept.set_user_strategy(u, &fresh.user_strategy(u));
            }
            assert_eq!(kept.loads(), fresh.loads());
            assert_eq!(theorem1(g, &kept), theorem1(g, &fresh));
        }
    }

    #[test]
    fn theorem1_applies_to_hetero_with_per_user_budgets() {
        use crate::heterogeneous::HeteroGame;
        use crate::rate_model::ConstantRate;
        use std::sync::Arc;
        let unit =
            |budgets, c| HeteroGame::with_rate(budgets, c, Arc::new(ConstantRate::unit())).unwrap();
        // Equal budgets reduce to the homogeneous verdict.
        let homo = unit_game(7, 4, 6);
        let hetero = unit(vec![4; 7], 6);
        let s = figure4();
        assert_eq!(theorem1(&homo, &s), theorem1(&hetero, &s));
        // A genuinely mixed fleet: condition 0 reads each user's own k_i,
        // so a full deployment of (2,1,1) radios has no idle-radio verdict.
        let mixed = unit(vec![2, 1, 1], 2);
        let sm = StrategyMatrix::from_rows(&[vec![1, 1], vec![1, 0], vec![0, 1]]).unwrap();
        assert!(theorem1(&mixed, &sm).is_nash());
        assert!(
            is_nash(&mixed, &sm),
            "exact check agrees on the mixed fleet"
        );
        // Under-deployment is flagged against the *user's* budget.
        let idle = StrategyMatrix::from_rows(&[vec![1, 0], vec![1, 0], vec![0, 1]]).unwrap();
        match theorem1(&mixed, &idle) {
            Theorem1Verdict::IdleRadios { user, used } => {
                assert_eq!(user, UserId(0));
                assert_eq!(used, 1);
            }
            other => panic!("expected IdleRadios, got {other:?}"),
        }
    }

    #[test]
    fn theorem1_structural_verdict_can_disagree_with_exact_check_on_multi_rate() {
        use crate::heterogeneous::HeteroGame;
        use crate::rate_model::{ConstantRate, RateModel};
        use std::sync::Arc;
        // 4 single-radio users, channel 1 is 4x better: the exact NE
        // water-fills (3,1,0)-ish, while the count-balanced (2,1,1) the
        // structural theorem certifies is NOT deviation-stable. The
        // predicate is *available* on multi-rate games precisely so sweeps
        // can measure this divergence.
        let g = HeteroGame::new(
            vec![1; 4],
            3,
            vec![
                Arc::new(ConstantRate::new(4.0)) as Arc<dyn RateModel>,
                Arc::new(ConstantRate::unit()),
                Arc::new(ConstantRate::unit()),
            ],
        )
        .unwrap();
        let balanced = StrategyMatrix::from_rows(&[
            vec![1, 0, 0],
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![0, 0, 1],
        ])
        .unwrap();
        assert!(theorem1(&g, &balanced).is_nash(), "structurally balanced");
        assert!(
            !is_nash(&g, &balanced),
            "but a user on a unit channel gains by joining the 4x one"
        );
    }
}
