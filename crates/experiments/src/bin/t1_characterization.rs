//! T1 — Theorem 1 vs brute force.
//!
//! Enumerates *every* strategy matrix of small instances and classifies
//! each twice: by the paper's Theorem-1 structural conditions and by exact
//! best-response deviation search. Reports the confusion counts per
//! instance and rate model. The paper predicts 100% agreement; our
//! reproduction also tracks the documented corner case (an exception user
//! stacking ≥ 3 radios on a min channel) where the literal statement
//! over-approximates — the table shows exactly how often that occurs.
//!
//! Instance × rate cells run in parallel through `ScenarioSuite`. The
//! enumeration replaces one row per step and the matrix keeps its loads
//! across the change, so neither the exact-deviation side nor
//! `theorem1` clones a matrix or recounts a load vector per profile.

use mrca_core::br_dp::is_nash;
use mrca_core::enumerate::{allocation_count, enumerate_allocations};
use mrca_core::nash::theorem1;
use mrca_experiments::{cells, write_result};
use mrca_experiments::{OrderingSpec, RateSpec, ScenarioSuite};

fn main() {
    println!("== T1: Theorem-1 characterization vs exhaustive deviation search ==\n");
    let rates = [
        RateSpec::ConstantUnit,
        RateSpec::LinearDecay {
            r1: 10.0,
            slope: 1.0,
            floor: 1.0,
        },
        RateSpec::ExpDecay {
            r1: 10.0,
            factor: 0.8,
        },
    ];
    // Instances kept small enough to enumerate exhaustively.
    let instances = [
        (2usize, 1u32, 2usize),
        (2, 2, 2),
        (3, 1, 2),
        (2, 2, 3),
        (3, 2, 2),
        (3, 2, 3),
        (2, 3, 3),
        (4, 1, 3),
        (4, 2, 2),
        (3, 3, 3),
    ];
    let suite = ScenarioSuite::from_instances(
        "t1_characterization",
        &instances,
        &rates,
        &[OrderingSpec::Natural],
        1,
    );

    let headers = [
        "instance",
        "rate",
        "allocations",
        "NE(brute)",
        "NE(thm1)",
        "both",
        "thm1-only",
        "brute-only",
        "agree%",
    ];
    let report = suite.run_with(&headers, |cell| {
        let cfg = cell.config();
        let game = cell.game();
        let mut n_brute = 0u64;
        let mut n_thm = 0u64;
        let mut n_both = 0u64;
        let mut thm_only = 0u64;
        let mut brute_only = 0u64;
        let mut total = 0u64;
        enumerate_allocations(&cfg, |s| {
            total += 1;
            let brute = is_nash(&game, s);
            let thm = theorem1(&game, s).is_nash();
            if brute {
                n_brute += 1;
            }
            if thm {
                n_thm += 1;
            }
            match (brute, thm) {
                (true, true) => n_both += 1,
                (false, true) => thm_only += 1,
                (true, false) => brute_only += 1,
                _ => {}
            }
        });
        assert_eq!(total as u128, allocation_count(&cfg));
        let agree = 100.0 * (total - thm_only - brute_only) as f64 / total as f64;
        vec![cells![
            cell.instance(),
            cell.rate.name(),
            total,
            n_brute,
            n_thm,
            n_both,
            thm_only,
            brute_only,
            format!("{agree:.3}")
        ]
        .to_vec()]
    });

    let mut total_disagreements = 0u64;
    for row in &report.rows {
        let thm_only: u64 = row[6].parse().expect("thm-only count");
        let brute_only: u64 = row[7].parse().expect("brute-only count");
        total_disagreements += thm_only + brute_only;
    }
    println!("{}", report.to_text());
    write_result("t1_characterization.csv", &report.to_csv());

    println!("total disagreements across all instances/rates: {total_disagreements}");
    println!(
        "(the paper's Theorem 1 predicts 0; the known corner case needs an\n\
         exception user with ≥3 radios stacked on a min channel, which\n\
         requires larger instances than the enumerable grid — see\n\
         mrca_core::nash::theorem1 docs and the binary index in\n\
         crates/experiments/src/lib.rs)"
    );
}
