//! The unified best-response engine: one [`ChannelGame`] trait, one
//! knapsack DP, one traceback — and one body per operation, shared by
//! every game variant.
//!
//! The paper's best response is a per-user knapsack over channels: with
//! the *other* users' load `L_c` on channel `c` fixed, placing `t` radios
//! there earns some per-channel payoff `f_c(t)` independently of the other
//! channels, and only the radio budget couples the channels. The DP
//! `dp[c][r]` (best value over the first `c` channels using `r` radios)
//! solves it exactly in `O(|C|·k²)`.
//!
//! That structure is identical across the homogeneous game of the paper
//! ([`crate::game::ChannelAllocationGame`]), its extension to per-user
//! budgets and per-channel rates ([`crate::heterogeneous::HeteroGame`])
//! and the energy-cost utility model — they differ *only* in the payoff
//! `f_c(t)` (and, for the energy game, in whether idling radios may win).
//! A game variant implements [`ChannelGame`] — dimensions, per-user radio
//! budgets, and the per-channel payoff closure — and gets, generically:
//!
//! * Eq.-3 utilities in `O(|C|)` ([`utility`]) and the welfare of a load
//!   vector, dense or sparse ([`welfare_from_loads`]);
//! * the exact DP best response ([`best_response`]) — the *single*
//!   `f[c][t]` + traceback implementation in the workspace;
//! * the Eq.-7 benefit of a single-radio move in `O(1)`
//!   ([`benefit_of_move`]) plus its clone-and-recompute oracle
//!   ([`benefit_of_move_naive`]);
//! * the exact Nash check with witnesses ([`nash_check`], [`max_gain`],
//!   [`is_nash`]) and the budget check of a matrix ([`validate`]);
//! * best-response dynamics ([`best_response_dynamics`]);
//! * the Lemma-1/2/3/4 predicates and the Theorem-1 structural
//!   certification (generic over [`ChannelGame`] in [`crate::nash`]).
//!
//! Algorithm 1 ([`crate::algorithm::algorithm1`]), the random start
//! ([`crate::dynamics::random_start`]) and the welfare optimum
//! ([`crate::pareto::optimal_total_rate`]) are generic over the same
//! trait. They are free functions, not provided trait methods: the
//! spatial game implements [`ChannelGame`] too, and a dense operation on
//! it would read global loads where its payoffs read neighborhoods.
//!
//! Every entry point reads the channel loads `k_c` the
//! [`StrategyMatrix`] keeps beside its rows, so none of them scans a
//! column or recounts a load.
//!
//! The `crates/core/tests/conformance.rs` property suite instantiates one
//! generic harness for every implementor and pins (a) the kept loads ≡ a
//! recount and the `O(1)` Δ ≡ its clone-and-recompute oracle, (b) DP ≡
//! exhaustive enumeration, and (c) `is_nash ⇔ max_gain ≤ ε`.

use crate::error::Error;
use crate::game::{improvement_eps, improves, NashCheck};
use crate::rate_model::RateShape;
use crate::strategy::{StrategyMatrix, StrategyVector};
use crate::types::{ChannelId, UserId};

/// A channel-allocation game variant, reduced to what the shared engine
/// needs: dimensions, per-user radio budgets, and the per-channel payoff.
pub trait ChannelGame {
    /// Number of users `|N|`.
    fn n_users(&self) -> usize;

    /// Number of channels `|C|`.
    fn n_channels(&self) -> usize;

    /// Radio budget `k_i` of `user`.
    fn radios_of(&self, user: UserId) -> u32;

    /// Payoff a user earns from `channel` when it places `slots` of its
    /// own radios there and the *other* users contribute `others_load`
    /// radios: the paper's rate-sharing games use
    /// `f_c(t) = t/(L+t) · R_c(L+t)`; the energy model subtracts
    /// `cost · t`.
    ///
    /// # Contract
    ///
    /// `channel_payoff(c, L, 0) == 0.0` for every channel and load (no
    /// radios, no payoff — and no cost). The engine relies on it: the DP
    /// seeds `f_c(0) = 0` without calling this method.
    fn channel_payoff(&self, channel: ChannelId, others_load: u32, slots: u32) -> f64;

    /// Whether a best response may leave radios idle (true only for
    /// variants where deploying a radio can *hurt*, e.g. per-radio energy
    /// costs). When false the DP fixes `Σ_c t_c = k_i`, which is optimal
    /// for every positive rate-sharing payoff (the constructive argument
    /// behind the paper's Lemma 1).
    fn may_idle_radios(&self) -> bool {
        false
    }

    /// Structural classification of this game's per-channel payoff — the
    /// **primary** routing/certification seam; override this, not
    /// [`payoff_is_separable_monotone`].
    ///
    /// The rate-sharing games forward (and, for per-channel rate vectors,
    /// [`RateShape::meet`]-fold) the per-model
    /// [`crate::rate_model::RateModel::shape`] classification, so a
    /// measured table's CI-aware shape propagates unchanged from harvest
    /// to route selection and Theorem-1 applicability
    /// ([`crate::nash::theorem1_applicable`]). Default
    /// [`RateShape::MonotoneOnly`] (conservative: the DP route is always
    /// correct; no heap routing, no structural certification claims).
    ///
    /// [`payoff_is_separable_monotone`]: ChannelGame::payoff_is_separable_monotone
    fn payoff_shape(&self) -> RateShape {
        RateShape::MonotoneOnly
    }

    /// Whether the payoff is **separable-monotone**: for every channel `c`
    /// and others-load `L`, the marginal gain
    /// `channel_payoff(c, L, t) − channel_payoff(c, L, t−1)` is
    /// non-increasing in `t` (diminishing returns per extra own radio on
    /// one channel). Under this property — and only under it — the greedy
    /// selection of the `k` best marginals is an exact best response, so
    /// the engine may route [`best_response`]-equivalent queries to
    /// the `O(k log |C|)` heap path of [`crate::br_fast`] instead of the
    /// `O(|C|·k²)` DP. Declaring it falsely yields *wrong* best responses.
    ///
    /// Provided: derived from [`payoff_shape`](ChannelGame::payoff_shape)
    /// so the classification stays a single seam; implementations should
    /// override `payoff_shape` and leave this derived.
    fn payoff_is_separable_monotone(&self) -> bool {
        self.payoff_shape().heap_eligible()
    }
}

/// The best-response **slack** of a user that did *not* move: with
/// current utility `before` and best-response value `best`
/// (`!improves(before, best)`, else the user would have moved), the
/// slack is how much the best attainable deviation value must still
/// *rise* — with `before` fixed — before a move clears the
/// (scale-relative, [`improvement_eps`]) improvement tolerance. The
/// active-set dynamics of [`crate::br_fast`] compute it at every no-op
/// check; on the heap route it sets the exact-load park threshold
/// `m* + slack/k`, so a parked user provably cannot move until some
/// channel's entry payoff clears that threshold.
///
/// Clamped at zero so floating-point noise in `best ≈ before + ε` never
/// produces a negative threshold.
#[inline]
pub fn park_slack(before: f64, best: f64) -> f64 {
    (before + improvement_eps(before, best) - best).max(0.0)
}

/// Total radios `Σ_i k_i` of a game.
pub fn total_radios<G: ChannelGame + ?Sized>(game: &G) -> u64 {
    UserId::all(game.n_users())
        .map(|u| game.radios_of(u) as u64)
        .sum()
}

/// Whether the interesting regime `Σ_i k_i > |C|` holds (users cannot all
/// have private channels; Fact 1 dispatches the other case).
pub fn has_conflict<G: ChannelGame + ?Sized>(game: &G) -> bool {
    total_radios(game) > game.n_channels() as u64
}

/// Eq. 3 generalized: `U_i = Σ_{c: k_{i,c} > 0} f_c(k_{i,c})`, in
/// `O(|C|)` against the matrix's kept loads.
pub fn utility<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix, user: UserId) -> f64 {
    let mut total = 0.0;
    for c in ChannelId::all(game.n_channels()) {
        let kic = s.get(user, c);
        if kic == 0 {
            continue;
        }
        let others = s.channel_load(c) - kic;
        total += game.channel_payoff(c, others, kic);
    }
    total
}

/// Total welfare from the loads alone: `Σ_{c: k_c>0} payoff(c, 0, k_c)`,
/// over a dense matrix's [`StrategyMatrix::loads`] or a sparse driver's
/// [`ChannelLoads::as_slice`](crate::ChannelLoads::as_slice). For every
/// anonymous per-channel payoff in this workspace that equals `Σ_i U_i`
/// exactly — rate-sharing games contribute `1 · R_c(k_c)` per occupied
/// channel (the identity behind Theorem 2), the energy model
/// `R_c(k_c) − cost·k_c`.
pub fn welfare_from_loads<G: ChannelGame + ?Sized>(game: &G, loads: &[u32]) -> f64 {
    let mut total = 0.0;
    for (c, &kc) in loads.iter().enumerate() {
        if kc > 0 {
            total += game.channel_payoff(ChannelId(c), 0, kc);
        }
    }
    total
}

/// Check that `s` fits `game`: the matrix's shape first, then each
/// user's deployed radios against its budget `k_i`. Using *fewer* radios
/// is a legal strategy (Lemma 1 then shows it cannot happen in a NE), so
/// this checks `≤`, not `==`.
///
/// # Errors
///
/// Returns [`Error::InvalidStrategy`] on the first violation.
pub fn validate<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> Result<(), Error> {
    if s.n_users() != game.n_users() {
        return Err(Error::strategy(format!(
            "matrix has {} rows, game has {} users",
            s.n_users(),
            game.n_users()
        )));
    }
    if s.n_channels() != game.n_channels() {
        return Err(Error::strategy(format!(
            "matrix has {} columns, game has {} channels",
            s.n_channels(),
            game.n_channels()
        )));
    }
    for u in UserId::all(game.n_users()) {
        let (used, budget) = (s.user_total(u), game.radios_of(u));
        if used > budget {
            return Err(Error::strategy(format!(
                "{u} uses {used} radios, budget is {budget}"
            )));
        }
    }
    Ok(())
}

/// Exact best response of `user`: the strategy vector maximizing its
/// utility given the other users' radios, with its utility value.
///
/// The one knapsack DP + traceback of the workspace (`O(|C|·k²)`).
/// `f[c][t] = channel_payoff(c, L_c, t)` is the value of placing `t`
/// radios on channel `c` against the other users' load `L_c`; `dp[r]` is
/// the best value over the channels seen so far using exactly `r` radios,
/// and `choice[c][r]` records the optimum's allocation for the traceback.
/// Games that fix the budget read `dp[k]`; games that may idle radios
/// ([`ChannelGame::may_idle_radios`]) take the best over all `r ≤ k`
/// (ties resolved toward more deployed radios, matching the historical
/// energy-game behavior).
pub fn best_response<G: ChannelGame + ?Sized>(
    game: &G,
    s: &StrategyMatrix,
    user: UserId,
) -> (StrategyVector, f64) {
    let k = game.radios_of(user) as usize;
    let n_ch = game.n_channels();
    // Other users' loads.
    let loads_wo: Vec<u32> = ChannelId::all(n_ch)
        .map(|c| s.channel_load(c) - s.get(user, c))
        .collect();

    // Per-channel payoff of placing t radios: f[c][t] (f[c][0] = 0 by the
    // trait contract).
    let mut f = vec![vec![0.0f64; k + 1]; n_ch];
    #[allow(clippy::needless_range_loop)] // the DP reads as index algebra
    for c in 0..n_ch {
        for t in 1..=k {
            f[c][t] = game.channel_payoff(ChannelId(c), loads_wo[c], t as u32);
        }
    }

    let (counts, value) = solve_knapsack(n_ch, k, game.may_idle_radios(), |c, t| f[c][t]);
    (StrategyVector::from_counts(counts), value)
}

/// The knapsack core shared by every best-response path: `f(c, t)` is the
/// payoff of placing `t` radios on channel `c` (with `f(c, 0) == 0`),
/// `dp[r]` the best value over the channels seen so far using exactly `r`
/// radios, and `choice[c][r]` the optimum's allocation for the traceback.
/// Games that fix the budget read `dp[k]`; games that may idle radios take
/// the best over all `r ≤ k` (ties resolved toward more deployed radios,
/// matching the historical energy-game behavior).
///
/// # Tie-breaking (pinned)
///
/// Among allocations of equal value the result is deterministic: the
/// inner maximization uses strict `>` with `t` scanned upward, so each
/// `choice[c][r]` records the **smallest** optimal count for channel `c`,
/// and the traceback walks channels from the highest index down. The
/// returned allocation is therefore the reverse-lexicographically minimal
/// optimum — radios are **packed toward the lowest-indexed channels**.
/// The heap engine of [`crate::br_fast`] resolves its marginal ties
/// toward the lowest channel index for the same reason; a dedicated unit
/// test there constructs an exact tie and pins both paths, and the
/// `fast_path_equiv` differential suite pins value equality across all
/// engines.
pub(crate) fn solve_knapsack<F: Fn(usize, usize) -> f64>(
    n_ch: usize,
    k: usize,
    may_idle: bool,
    f: F,
) -> (Vec<u32>, f64) {
    let mut scratch = KnapsackScratch::default();
    let mut counts = Vec::new();
    let value = solve_knapsack_scratch(n_ch, k, may_idle, f, &mut scratch, &mut counts);
    (counts, value)
}

/// Reusable buffers of the knapsack DP — the scratch the spatial
/// driver keeps across queries so its hot loop stays allocation-free.
/// The `choice` table is flattened to `c·(k+1)+r`.
#[derive(Debug, Default, Clone)]
pub(crate) struct KnapsackScratch {
    dp: Vec<f64>,
    next: Vec<f64>,
    choice: Vec<usize>,
}

/// [`solve_knapsack`] writing the allocation into `counts` and running
/// entirely on caller-owned buffers. Bit-identical to the allocating
/// wrapper — it *is* the implementation.
pub(crate) fn solve_knapsack_scratch<F: Fn(usize, usize) -> f64>(
    n_ch: usize,
    k: usize,
    may_idle: bool,
    f: F,
    scratch: &mut KnapsackScratch,
    counts: &mut Vec<u32>,
) -> f64 {
    let neg = f64::NEG_INFINITY;
    let dp = &mut scratch.dp;
    dp.clear();
    dp.resize(k + 1, neg);
    dp[0] = 0.0;
    let choice = &mut scratch.choice;
    choice.clear();
    choice.resize(n_ch * (k + 1), 0);
    for c in 0..n_ch {
        let next = &mut scratch.next;
        next.clear();
        next.resize(k + 1, neg);
        let row = &mut choice[c * (k + 1)..(c + 1) * (k + 1)];
        for r in 0..=k {
            for t in 0..=r {
                if dp[r - t] == neg {
                    continue;
                }
                let v = dp[r - t] + f(c, t);
                if v > next[r] {
                    next[r] = v;
                    row[r] = t;
                }
            }
        }
        std::mem::swap(dp, next);
    }

    // Pick the budget to trace back from.
    let best_r = if may_idle {
        // Best over all deployment sizes; `>=` keeps the last maximum,
        // i.e. prefers more active radios on exact ties.
        let mut best = 0usize;
        for r in 1..=k {
            if dp[r] >= dp[best] {
                best = r;
            }
        }
        best
    } else {
        k
    };

    // Reconstruct the allocation.
    counts.clear();
    counts.resize(n_ch, 0);
    let mut r = best_r;
    for c in (0..n_ch).rev() {
        let t = choice[c * (k + 1) + r];
        counts[c] = t as u32;
        r -= t;
    }
    debug_assert_eq!(r, 0, "all chosen radios must be placed");
    dp[best_r]
}

/// The paper's Eq. 7 generalized: benefit Δ for `user` moving one radio
/// from channel `b` to channel `c`. Only the two touched channels change,
/// so Δ reduces to four payoff terms, `O(1)` against the kept loads.
///
/// # Panics
///
/// Panics if the user has no radio on `b`.
pub fn benefit_of_move<G: ChannelGame + ?Sized>(
    game: &G,
    s: &StrategyMatrix,
    user: UserId,
    b: ChannelId,
    c: ChannelId,
) -> f64 {
    let kib = s.get(user, b);
    assert!(kib > 0, "{user} has no radio on {b}");
    if b == c {
        return 0.0;
    }
    let kic = s.get(user, c);
    let others_b = s.channel_load(b) - kib;
    let others_c = s.channel_load(c) - kic;
    let before_b = game.channel_payoff(b, others_b, kib);
    let before_c = if kic == 0 {
        0.0
    } else {
        game.channel_payoff(c, others_c, kic)
    };
    let after_b = if kib == 1 {
        0.0
    } else {
        game.channel_payoff(b, others_b, kib - 1)
    };
    let after_c = game.channel_payoff(c, others_c, kic + 1);
    after_b + after_c - before_b - before_c
}

/// Ground-truth Eq. 7: clone the matrix, apply the move, recompute the
/// two full utilities (`O(|N|·|C|)` plus an allocation per call). Kept as
/// the oracle the `O(1)` [`benefit_of_move`] is pinned against by the
/// conformance and `incremental_equiv` property suites.
///
/// # Panics
///
/// Panics if the user has no radio on `b`.
pub fn benefit_of_move_naive<G: ChannelGame + ?Sized>(
    game: &G,
    s: &StrategyMatrix,
    user: UserId,
    b: ChannelId,
    c: ChannelId,
) -> f64 {
    assert!(s.get(user, b) > 0, "{user} has no radio on {b}");
    if b == c {
        return 0.0;
    }
    let before = utility(game, s, user);
    let mut moved = s.clone();
    moved.move_radio(user, b, c);
    utility(game, &moved, user) - before
}

/// Exact Nash check by best-response comparison (Definition 1): one
/// `O(|C|)` utility read plus the best-response DP per user,
/// `O(|N|·|C|·k²)` total, zero matrix clones.
pub fn nash_check<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> NashCheck {
    let mut gains = Vec::with_capacity(game.n_users());
    let mut witness = None;
    for user in UserId::all(game.n_users()) {
        let current = utility(game, s, user);
        let (best, best_u) = best_response(game, s, user);
        let gain = (best_u - current).max(0.0);
        if improves(current, best_u) && witness.is_none() {
            witness = Some((user, best));
        }
        gains.push(gain);
    }
    NashCheck { gains, witness }
}

/// Largest unilateral best-response improvement available to any user.
pub fn max_gain<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> f64 {
    nash_check(game, s).max_gain()
}

/// True when `s` is a Nash equilibrium (Definition 1) of `game`.
pub fn is_nash<G: ChannelGame + ?Sized>(game: &G, s: &StrategyMatrix) -> bool {
    nash_check(game, s).is_nash()
}

/// Round-robin best-response dynamics to a fixed point or `max_rounds`,
/// with the matrix's loads kept across moves (zero matrix clones).
/// Returns `(final matrix, converged, rounds)`.
pub fn best_response_dynamics<G: ChannelGame + ?Sized>(
    game: &G,
    s: StrategyMatrix,
    max_rounds: usize,
) -> (StrategyMatrix, bool, usize) {
    let (s, converged, rounds, _) = best_response_dynamics_traced(game, s, max_rounds);
    (s, converged, rounds)
}

/// [`best_response_dynamics`] with the applied moves recorded: the trace
/// lists each strategy switch as `(user, new row)` in application order.
/// The convergence-trace golden suite replays the same seed through this
/// and the sparse engine of [`crate::br_fast`] and asserts identical
/// traces, so engine choice can never silently change reproduced results.
pub fn best_response_dynamics_traced<G: ChannelGame + ?Sized>(
    game: &G,
    mut s: StrategyMatrix,
    max_rounds: usize,
) -> (StrategyMatrix, bool, usize, Vec<(UserId, StrategyVector)>) {
    let n = game.n_users();
    let mut trace = Vec::new();
    for round in 1..=max_rounds {
        let mut moved = false;
        for u in UserId::all(n) {
            let before = utility(game, &s, u);
            let (br, after) = best_response(game, &s, u);
            if improves(before, after) {
                s.set_user_strategy(u, &br);
                trace.push((u, br));
                moved = true;
            }
        }
        if !moved {
            return (s, true, round, trace);
        }
    }
    (s, false, max_rounds, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GameConfig;
    use crate::game::ChannelAllocationGame;
    use crate::rate_model::{LinearDecayRate, RateModel};
    use std::sync::Arc;

    /// A minimal bespoke implementor: single shared rate, per-user
    /// budgets — exercising the trait without any concrete game type.
    #[derive(Debug)]
    struct TinyGame {
        budgets: Vec<u32>,
        n_channels: usize,
    }

    impl ChannelGame for TinyGame {
        fn n_users(&self) -> usize {
            self.budgets.len()
        }
        fn n_channels(&self) -> usize {
            self.n_channels
        }
        fn radios_of(&self, user: UserId) -> u32 {
            self.budgets[user.0]
        }
        fn channel_payoff(&self, _channel: ChannelId, others_load: u32, slots: u32) -> f64 {
            if slots == 0 {
                0.0
            } else {
                slots as f64 / (others_load + slots) as f64
            }
        }
    }

    #[test]
    fn trait_engine_matches_concrete_game() {
        // The generic engine through `channel_payoff` against Eq. 3 and
        // the welfare identity written out for the paper's game: the same
        // expressions, so the same bits.
        let cfg = GameConfig::new(3, 2, 3).unwrap();
        let rate = Arc::new(LinearDecayRate::new(6.0, 1.0, 1.0));
        let game = ChannelAllocationGame::new(cfg, rate.clone());
        let s = StrategyMatrix::from_rows(&[vec![2, 0, 0], vec![1, 1, 0], vec![0, 1, 1]]).unwrap();
        let mut welfare = 0.0;
        for u in UserId::all(3) {
            let mut eq3 = 0.0;
            for c in ChannelId::all(3).filter(|&c| s.get(u, c) > 0) {
                let kc = s.channel_load(c);
                eq3 += s.get(u, c) as f64 / kc as f64 * rate.rate(kc);
            }
            assert_eq!(utility(&game, &s, u).to_bits(), eq3.to_bits());
            welfare += eq3;
        }
        assert!((welfare_from_loads(&game, s.loads()) - welfare).abs() < 1e-12);
        assert!(validate(&game, &s).is_ok());
        let over = StrategyMatrix::from_rows(&[vec![3, 0, 0], vec![1, 1, 0], vec![0, 1, 1]]);
        assert!(validate(&game, &over.unwrap()).is_err());
        assert!(validate(&game, &StrategyMatrix::zeros(3, 4)).is_err());
    }

    #[test]
    fn bespoke_implementor_gets_the_full_engine() {
        let g = TinyGame {
            budgets: vec![2, 1, 1],
            n_channels: 2,
        };
        assert_eq!(total_radios(&g), 4);
        assert!(has_conflict(&g));
        // Everyone stacked on channel 0.
        let s = StrategyMatrix::from_rows(&[vec![2, 0], vec![1, 0], vec![1, 0]]).unwrap();
        let check = nash_check(&g, &s);
        assert!(!check.is_nash());
        assert!(check.max_gain() > 0.0);
        let (end, converged, _) = best_response_dynamics(&g, s, 50);
        assert!(converged);
        assert!(is_nash(&g, &end));
        assert!(end.max_delta() <= 1);
    }

    #[test]
    fn benefit_of_move_agrees_with_naive_oracle() {
        let g = TinyGame {
            budgets: vec![3, 2],
            n_channels: 3,
        };
        let s = StrategyMatrix::from_rows(&[vec![2, 1, 0], vec![0, 1, 1]]).unwrap();
        for u in UserId::all(2) {
            for b in ChannelId::all(3) {
                if s.get(u, b) == 0 {
                    continue;
                }
                for c in ChannelId::all(3) {
                    let fast = benefit_of_move(&g, &s, u, b, c);
                    let naive = benefit_of_move_naive(&g, &s, u, b, c);
                    assert!((fast - naive).abs() < 1e-12, "u={u} {b}->{c}");
                }
            }
        }
    }
}
