//! Mechanized verification of the paper's proof algebra.
//!
//! The lemma proofs manipulate the benefit-of-change Δ (Eq. 7) into
//! special forms — Eq. 8 in Lemma 3's proof, the γ-factored form in the
//! sufficiency half of Theorem 1. These tests evaluate both sides on
//! hundreds of generated configurations and require exact (1e-12)
//! agreement: the algebra of the proofs, checked by machine.

use mrca_mac::{ExponentialDecayRate, LinearDecayRate};
use multi_radio_alloc::core::dynamics::random_start;
use multi_radio_alloc::prelude::*;
use std::sync::Arc;

fn rate_models() -> Vec<Arc<dyn RateFunction>> {
    vec![
        Arc::new(ConstantRate::new(7.0)),
        Arc::new(LinearDecayRate::new(9.0, 0.8, 0.4)),
        Arc::new(ExponentialDecayRate::new(9.0, 0.75)),
    ]
}

/// Eq. 7 in its expanded form:
/// Δ = (k_ib−1)/(k_b−1)·R(k_b−1) + (k_ic+1)/(k_c+1)·R(k_c+1)
///   − k_ib/k_b·R(k_b) − k_ic/k_c·R(k_c),
/// with the 0/0 channel-emptying conventions that the utility definition
/// implies (an emptied or unused channel contributes 0).
fn eq7(r: &dyn RateFunction, kib: u32, kic: u32, kb: u32, kc: u32) -> f64 {
    let term = |mine: u32, load: u32| {
        if mine == 0 || load == 0 {
            0.0
        } else {
            mine as f64 / load as f64 * r.rate(load)
        }
    };
    term(kib - 1, kb - 1) + term(kic + 1, kc + 1) - term(kib, kb) - term(kic, kc)
}

#[test]
fn eq7_matches_direct_utility_difference_everywhere() {
    for rate in rate_models() {
        for (n, k, c) in [(3usize, 2u32, 3usize), (4, 3, 4), (5, 4, 5)] {
            let game =
                ChannelAllocationGame::new(GameConfig::new(n, k, c).unwrap(), Arc::clone(&rate));
            for seed in 0..8u64 {
                let s = random_start(&game, seed);
                for u in UserId::all(n) {
                    for b in ChannelId::all(c) {
                        if s.get(u, b) == 0 {
                            continue;
                        }
                        for ch in ChannelId::all(c) {
                            if b == ch {
                                continue;
                            }
                            let direct = benefit_of_move(&game, &s, u, b, ch);
                            let algebra = eq7(
                                rate.as_ref(),
                                s.get(u, b),
                                s.get(u, ch),
                                s.channel_load(b),
                                s.channel_load(ch),
                            );
                            assert!(
                                (direct - algebra).abs() < 1e-12,
                                "Eq.7 mismatch: {direct} vs {algebra} ({u}, {b}->{ch}, seed {seed}, rate {})",
                                rate.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn lemma3_equation8_form() {
    // Under Lemma 3's hypotheses (k_ib > 1, k_ic = 0, δ = 1) the proof
    // reduces Δ to Eq. 8:
    // Δ = (k_ib−1)/(k_b−1)·R(k_b−1) − (k_ib−1)/k_b·R(k_b).
    for rate in rate_models() {
        // Construct hypothesis-satisfying configurations directly.
        for kb in 2..=6u32 {
            let kc = kb - 1; // δ = 1
            for kib in 2..=kb {
                let delta_eq7 = eq7(rate.as_ref(), kib, 0, kb, kc);
                let lhs = (kib - 1) as f64 / (kb - 1) as f64 * rate.rate(kb - 1)
                    - (kib - 1) as f64 / kb as f64 * rate.rate(kb);
                // Eq. 8 uses δ = 1 ⇒ R(kc+1) = R(kb): the middle terms
                // cancel exactly.
                assert!(
                    (delta_eq7 - lhs).abs() < 1e-12,
                    "Eq.8 mismatch at kb={kb}, kib={kib}, rate {}: {delta_eq7} vs {lhs}",
                    rate.name()
                );
                // And the lemma's conclusion: strictly positive.
                assert!(
                    delta_eq7 > 0.0,
                    "Lemma 3 benefit must be positive at kb={kb}, kib={kib}"
                );
            }
        }
    }
}

#[test]
fn sufficiency_gamma_factored_form() {
    // Theorem 1's sufficiency proof: moving one radio from b ∈ C_max to
    // c ∈ C_min (δ = 1, so k_b = k_c + 1) gives
    // Δ = (γ − 1)·(R(k_c)/k_c − R(k_c+1)/(k_c+1)), γ = k_ib − k_ic.
    for rate in rate_models() {
        for kc in 1..=6u32 {
            let kb = kc + 1;
            for kib in 1..=kb {
                for kic in 0..=kc.min(3) {
                    if kib > kb || kic > kc {
                        continue;
                    }
                    let gamma = kib as f64 - kic as f64;
                    let delta_eq7 = eq7(rate.as_ref(), kib, kic, kb, kc);
                    let factored = (gamma - 1.0)
                        * (rate.rate(kc) / kc as f64 - rate.rate(kc + 1) / (kc + 1) as f64);
                    assert!(
                        (delta_eq7 - factored).abs() < 1e-12,
                        "γ-form mismatch at kb={kb}, kc={kc}, kib={kib}, kic={kic}, rate {}: {delta_eq7} vs {factored}",
                        rate.name()
                    );
                    // The proof's conclusion: γ ≤ 1 ⇒ Δ ≤ 0.
                    if gamma <= 1.0 {
                        assert!(delta_eq7 <= 1e-12);
                    }
                }
            }
        }
    }
}

#[test]
fn lemma2_positivity_over_its_hypotheses() {
    // Lemma 2: k_ib > 0, k_ic = 0, δ > 1 ⇒ Δ > 0, for any non-increasing
    // positive R. Scan the hypothesis space directly.
    for rate in rate_models() {
        for kc in 0..=4u32 {
            for delta in 2..=4u32 {
                let kb = kc + delta;
                for kib in 1..=kb {
                    let d = eq7(rate.as_ref(), kib, 0, kb, kc);
                    assert!(
                        d > 0.0,
                        "Lemma 2 violated at kb={kb}, kc={kc}, kib={kib}, rate {}: Δ = {d}",
                        rate.name()
                    );
                }
            }
        }
    }
}

#[test]
fn lemma4_positivity_over_its_hypotheses() {
    // Lemma 4 (proof form): equal loads, k_ib − k_ic ≥ 2 ⇒ Δ > 0.
    for rate in rate_models() {
        for load in 2..=6u32 {
            for kib in 2..=load {
                for kic in 0..=(kib - 2).min(load) {
                    if kib - kic < 2 {
                        continue;
                    }
                    let d = eq7(rate.as_ref(), kib, kic, load, load);
                    assert!(
                        d > 0.0,
                        "Lemma 4 violated at load={load}, kib={kib}, kic={kic}, rate {}: Δ = {d}",
                        rate.name()
                    );
                }
            }
        }
    }
}
