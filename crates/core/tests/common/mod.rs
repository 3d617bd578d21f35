//! Shared generic harness for the cross-model differential suites:
//! the [`check_conformance`] invariant battery plus the instance
//! strategies it is fed with. `conformance.rs` instantiates it for the
//! single-domain game variants; `spatial_equiv.rs` reuses it for the
//! clique-reduced spatial game, where the per-neighborhood utility must
//! coincide with the single-domain one bit-for-bit.
#![allow(dead_code)]

use mrca_core::br_dp::{self, ChannelGame};
use mrca_core::enumerate::user_strategy_space;
use mrca_core::game::{improvement_eps, improves};
use mrca_core::rate_model::{
    ConstantRate, ExponentialDecayRate, LinearDecayRate, RateModel, StepRate,
};
use mrca_core::{ChannelId, GameConfig, StrategyMatrix, UserId};
use proptest::prelude::*;
use std::sync::Arc;

/// The generic invariant harness. `naive_utility` is the game's Eq.-3
/// utility as callers compute it; (a) reads it on the kept loads and on
/// a freshly counted matrix. The two load bookkeeping schemes are
/// cross-checked too: `s`'s loads, kept through every mutation that
/// built it, against a column-by-column recount and against
/// `from_rows`' fresh count.
pub fn check_conformance<G: ChannelGame>(
    game: &G,
    naive_utility: &dyn Fn(&StrategyMatrix, UserId) -> f64,
    s: &StrategyMatrix,
) -> Result<(), TestCaseError> {
    let n = game.n_users();
    let n_ch = game.n_channels();
    let recount: Vec<u32> = ChannelId::all(n_ch)
        .map(|c| UserId::all(n).map(|u| s.get(u, c)).sum())
        .collect();
    prop_assert_eq!(s.loads(), &recount[..], "kept loads vs a recount");
    let rows: Vec<Vec<u32>> = UserId::all(n).map(|u| s.row(u).to_vec()).collect();
    let fresh = StrategyMatrix::from_rows(&rows).expect("a matrix's own rows");

    for u in UserId::all(n) {
        // (a) utilities: generic on kept loads == generic on fresh loads.
        let nu = naive_utility(s, u);
        prop_assert_eq!(
            br_dp::utility(game, s, u),
            nu,
            "generic utility, user {}",
            u
        );
        prop_assert_eq!(
            br_dp::utility(game, &fresh, u),
            nu,
            "fresh-load utility, user {}",
            u
        );

        // (a) best responses: kept loads == fresh loads, and the
        // traceback's vector really achieves the DP's claimed value.
        let (br_c, u_c) = br_dp::best_response(game, s, u);
        let (br_n, u_n) = br_dp::best_response(game, &fresh, u);
        prop_assert_eq!(u_c, u_n);
        prop_assert_eq!(&br_c, &br_n);
        let mut replayed = s.clone();
        replayed.set_user_strategy(u, &br_c);
        let achieved = naive_utility(&replayed, u);
        let scale = achieved.abs().max(u_c.abs()).max(1.0);
        prop_assert!(
            (achieved - u_c).abs() <= 1e-9 * scale,
            "traceback vector achieves {} but DP claims {} (user {})",
            achieved,
            u_c,
            u
        );

        // (b) DP optimal vs exhaustive enumeration of the user's whole
        // (up-to-k_i) strategy space.
        let mut best = f64::NEG_INFINITY;
        for cand in user_strategy_space(n_ch, game.radios_of(u)) {
            let mut alt = s.clone();
            alt.set_user_strategy(u, &cand);
            best = best.max(naive_utility(&alt, u));
        }
        let scale = best.abs().max(1.0);
        prop_assert!(
            (u_c - best).abs() <= 1e-9 * scale,
            "user {}: DP {} vs enumeration {}",
            u,
            u_c,
            best
        );

        // (a) Eq.-7 benefits: kept loads == fresh loads ==
        // clone-and-recompute.
        for b in ChannelId::all(n_ch) {
            if s.get(u, b) == 0 {
                continue;
            }
            for c in ChannelId::all(n_ch) {
                let fast = br_dp::benefit_of_move(game, s, u, b, c);
                let fresh_delta = br_dp::benefit_of_move(game, &fresh, u, b, c);
                let naive = br_dp::benefit_of_move_naive(game, s, u, b, c);
                prop_assert_eq!(fast, fresh_delta, "kept vs fresh Δ must be identical");
                let scale = naive.abs().max(fast.abs()).max(1.0);
                prop_assert!(
                    (fast - naive).abs() <= 1e-9 * scale,
                    "Δ mismatch u={} {}->{}: {} vs naive {}",
                    u,
                    b,
                    c,
                    fast,
                    naive
                );
            }
        }
    }

    // (c) is_nash ⇔ no user has an improving deviation under the
    // scale-relative epsilon, and the witness is consistent.
    let check = br_dp::nash_check(game, s);
    let relative_nash = UserId::all(n).all(|u| {
        let before = br_dp::utility(game, s, u);
        let (_, after) = br_dp::best_response(game, s, u);
        !improves(before, after)
    });
    prop_assert_eq!(check.is_nash(), relative_nash);
    prop_assert_eq!(check.gains.len(), n);
    if let Some((witness, ref better)) = check.witness {
        let before = br_dp::utility(game, s, witness);
        let gain = check.gains[witness.0];
        prop_assert!(gain > improvement_eps(before, before + gain));
        let mut improved = s.clone();
        improved.set_user_strategy(witness, better);
        prop_assert!(
            naive_utility(&improved, witness) > naive_utility(s, witness),
            "witness deviation must strictly improve"
        );
    }
    prop_assert_eq!(
        br_dp::max_gain(game, &fresh),
        check.max_gain(),
        "fresh-load max_gain"
    );
    Ok(())
}

/// Small configurations, biased toward the conflict regime.
pub fn config_strategy() -> impl Strategy<Value = GameConfig> {
    (1usize..=4, 1u32..=3, 1usize..=4).prop_filter_map("k <= |C|", |(n, k, c)| {
        GameConfig::new(n, k, c.max(k as usize)).ok()
    })
}

/// Strictly positive rate models (the DP's "use all radios" optimality —
/// the paper's Lemma 1 — needs `R(k) > 0`).
pub fn rate_strategy() -> impl Strategy<Value = Arc<dyn RateModel>> {
    (0usize..4, proptest::collection::vec(0.01f64..1.0, 16)).prop_map(|(kind, drops)| match kind {
        0 => Arc::new(ConstantRate::new(5.0)) as Arc<dyn RateModel>,
        1 => Arc::new(LinearDecayRate::new(10.0, 0.7, 0.5)),
        2 => Arc::new(ExponentialDecayRate::new(8.0, 0.8)),
        _ => {
            let mut v = Vec::with_capacity(16);
            let mut r = 50.0f64;
            for d in drops {
                v.push(r);
                r = (r - d).max(0.5);
            }
            Arc::new(StepRate::new("prop", v))
        }
    })
}

/// A matrix where user `i` deploys up to `budgets[i]` radios on random
/// channels (under-deployment exercises the `k_{i,c} = 0` / `k_{i,b} = 1`
/// edges of Δ and the Lemma-1 side of the Nash check).
pub fn matrix_for_budgets(
    budgets: Vec<u32>,
    n_channels: usize,
) -> impl Strategy<Value = StrategyMatrix> {
    let n = budgets.len();
    let max_k = budgets.iter().copied().max().unwrap_or(1) as usize;
    proptest::collection::vec(
        (
            0usize..=max_k,
            proptest::collection::vec(0usize..n_channels, max_k),
        ),
        n,
    )
    .prop_map(move |users| {
        let mut m = StrategyMatrix::zeros(n, n_channels);
        for (u, (deployed, places)) in users.iter().enumerate() {
            let cap = budgets[u] as usize;
            for ch in places.iter().take((*deployed).min(cap)) {
                let cur = m.get(UserId(u), ChannelId(*ch));
                m.set(UserId(u), ChannelId(*ch), cur + 1);
            }
        }
        m
    })
}
