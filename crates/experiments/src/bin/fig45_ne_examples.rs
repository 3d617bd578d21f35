//! Figures 4 and 5 reproduction: Nash-equilibrium examples verified both
//! by Theorem 1's structural conditions and by exact deviation search,
//! plus the Theorem-2 efficiency properties.

use mrca_core::prelude::*;
use mrca_experiments::{cells, table::Table, write_result};

fn main() {
    println!("== Figures 4 & 5: NE channel allocations ==\n");

    // Figure 4: |N| = 7, k = 4, |C| = 6; u1 is the exception user of
    // Theorem 1's second condition (two radios on each min channel).
    let fig4 = StrategyMatrix::from_rows(&[
        vec![0, 0, 0, 0, 2, 2],
        vec![1, 1, 1, 1, 0, 0],
        vec![1, 1, 1, 1, 0, 0],
        vec![1, 1, 1, 1, 0, 0],
        vec![1, 1, 1, 1, 0, 0],
        vec![1, 1, 0, 0, 1, 1],
        vec![0, 0, 1, 1, 1, 1],
    ])
    .expect("well-formed");
    let g4 = ChannelAllocationGame::with_constant_rate(GameConfig::new(7, 4, 6).unwrap(), 1.0);

    // Figure 5: |N| = 4, k = 4, |C| = 6; no exception user.
    let fig5 = StrategyMatrix::from_rows(&[
        vec![1, 1, 1, 1, 0, 0],
        vec![1, 1, 0, 0, 1, 1],
        vec![0, 1, 1, 1, 0, 1],
        vec![1, 0, 1, 1, 1, 0],
    ])
    .expect("well-formed");
    let g5 = ChannelAllocationGame::with_constant_rate(GameConfig::new(4, 4, 6).unwrap(), 1.0);

    let mut t = Table::new(&[
        "figure",
        "loads",
        "δmax",
        "thm1",
        "exact NE",
        "system-opt",
        "welfare",
        "exception user",
    ]);
    for (name, g, s, exception) in [
        ("fig4", &g4, &fig4, "u1 (2+2 on C_min)"),
        ("fig5", &g5, &fig5, "none"),
    ] {
        println!("{name} allocation:\n{}", render_allocation(s));
        let thm = theorem1(g, s);
        let exact = nash_check(g, s);
        t.row(&cells![
            name,
            format!("{:?}", s.loads()),
            s.max_delta(),
            thm.is_nash(),
            exact.is_nash(),
            is_system_optimal(g, s),
            format!("{:.3}", welfare_from_loads(g, s.loads())),
            exception
        ]);
        assert!(thm.is_nash(), "{name}: Theorem 1 must certify");
        assert!(exact.is_nash(), "{name}: deviation search must certify");
        assert!(is_system_optimal(g, s), "{name}: Theorem 2 must hold");
    }
    println!("{}", t.to_text());
    write_result("fig45_ne_examples.csv", &t.to_csv());

    // The exception structure of Figure 4's u1, explicitly.
    let cmin = fig4.c_min();
    println!(
        "Figure 4 exception check: C_min = {:?}, u1 radios there = {:?}",
        cmin,
        cmin.iter()
            .map(|&c| fig4.get(UserId(0), c))
            .collect::<Vec<_>>()
    );
    assert!(cmin.iter().all(|&c| fig4.get(UserId(0), c) > 0));
    assert!(cmin.iter().any(|&c| fig4.get(UserId(0), c) >= 2));

    println!("\nOK: Figures 4 & 5 verified as Pareto-/system-optimal Nash equilibria.");
}
