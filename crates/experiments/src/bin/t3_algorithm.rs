//! T3 — Algorithm 1 invariants across a parameter sweep.
//!
//! For every instance in a grid, every tie-break policy and several user
//! orderings: is the output a NE (exact check), does Theorem 1 certify
//! it, is it load-balanced, and is it system-optimal? The table also
//! quantifies the literal-tie-breaking failure mode documented in
//! `mrca_core::algorithm`. The grid runs through `ScenarioSuite`
//! (parallel cells, deterministic per-cell seeds).

use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::nash::theorem1;
use mrca_core::prelude::*;
use mrca_experiments::suite::derive_seed;
use mrca_experiments::{cells, table::Table, write_result};
use mrca_experiments::{OrderingSpec, RateSpec, ScenarioGrid, ScenarioSuite};

fn main() {
    println!("== T3: Algorithm 1 sweep (ScenarioSuite-parallel) ==\n");
    let grid = ScenarioGrid {
        n_users: (1..=8).collect(),
        radios: (1..=4).collect(),
        n_channels: (1..=7).collect(),
        rates: vec![RateSpec::ConstantUnit],
        orderings: vec![
            OrderingSpec::Natural,
            OrderingSpec::PreferUnused,
            OrderingSpec::Seeded,
        ],
    };
    let suite = ScenarioSuite::new("t3_algorithm", &grid, 3);

    // Per cell: three user orderings (the spec's own, then two random
    // permutations with the same tie-break), each yielding one row of
    // boolean outcomes.
    let report = suite.run_with(
        &[
            "policy", "instance", "order", "ne", "thm1", "balanced", "sysopt",
        ],
        |cell| {
            let game = cell.game();
            let n = cell.n_users;
            let mut rows = Vec::new();
            for order_seed in 0..3u64 {
                let ordering = match (cell.ordering, order_seed) {
                    (OrderingSpec::Seeded, s) => Ordering::random(derive_seed(cell.seed, s), n),
                    (spec, 0) => spec.build(n, cell.seed),
                    (OrderingSpec::Natural, s) => {
                        let mut o = Ordering::random(derive_seed(cell.seed, s), n);
                        o.tie_break = TieBreak::LowestIndex;
                        o
                    }
                    (OrderingSpec::PreferUnused, s) => {
                        let mut o = Ordering::random(derive_seed(cell.seed, s), n);
                        o.tie_break = TieBreak::PreferUnused;
                        o
                    }
                };
                let s = algorithm1(&game, &ordering);
                rows.push(
                    cells![
                        cell.ordering.name(),
                        cell.instance(),
                        order_seed,
                        is_nash(&game, &s),
                        theorem1(&game, &s).is_nash(),
                        s.max_delta() <= 1,
                        is_system_optimal(&game, &s)
                    ]
                    .to_vec(),
                );
            }
            rows
        },
    );
    write_result("t3_algorithm_runs.csv", &report.to_csv());

    // Aggregate per policy.
    let mut t = Table::new(&[
        "tie-break",
        "runs",
        "NE%",
        "thm1%",
        "balanced%",
        "system-opt%",
    ]);
    for policy in ["natural", "prefer-unused", "seeded"] {
        let rows: Vec<_> = report.rows.iter().filter(|r| r[0] == policy).collect();
        let runs = rows.len() as u64;
        let count = |col: usize| rows.iter().filter(|r| r[col] == "true").count() as u64;
        let pct = |x: u64| format!("{:.2}", 100.0 * x as f64 / runs as f64);
        let (ne, thm, bal, opt) = (count(3), count(4), count(5), count(6));
        assert_eq!(bal, runs, "balanced% must be 100 for {policy}");
        assert_eq!(opt, runs, "system-opt% must be 100 for {policy}");
        if policy == "prefer-unused" {
            assert_eq!(ne, runs, "prefer-unused must always reach NE");
        }
        t.row(&cells![policy, runs, pct(ne), pct(thm), pct(bal), pct(opt)]);
    }
    println!("{}", t.to_text());
    write_result("t3_algorithm.csv", &t.to_csv());
    println!("OK: Algorithm 1 always balanced + system-optimal; prefer-unused always NE.");
}
