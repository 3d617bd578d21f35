//! Figure 1 + Figure 2 reproduction: the paper's running example
//! (`|N| = 4, k = 4, |C| = 5`, constant rate), its strategy matrix,
//! per-user utilities, and the lemma-by-lemma diagnosis of why it is not
//! a Nash equilibrium — matching the paper's in-text commentary.

use mrca_core::nash::{lemma1_violations, lemma2_violations, lemma3_violations, lemma4_violations};
use mrca_core::prelude::*;
use mrca_experiments::{cells, table::Table, write_result};

fn main() {
    println!("== Figure 1 / Figure 2: the paper's running example ==\n");
    let cfg = GameConfig::new(4, 4, 5).expect("paper setting is valid");
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    // Rows pinned by the paper's text: c5 only u2; k_u2 = 3, k_u4 = 2; u3
    // stacks two radios on c2.
    let s = StrategyMatrix::from_rows(&[
        vec![1, 1, 1, 1, 0],
        vec![1, 0, 1, 0, 1],
        vec![1, 2, 0, 1, 0],
        vec![1, 0, 0, 1, 0],
    ])
    .expect("well-formed matrix");

    println!("Allocation (Figure 1):\n{}", render_allocation(&s));
    println!("Strategy matrix (Figure 2):\n{}", s);
    println!(
        "Channel loads k_c: {:?}  (δ_max = {})\n",
        s.loads(),
        s.max_delta()
    );

    let mut t = Table::new(&["user", "radios used", "utility U_i (Eq. 3)"]);
    for u in UserId::all(4) {
        t.row(&cells![
            u,
            s.user_total(u),
            format!("{:.4}", utility(&game, &s, u))
        ]);
    }
    println!("{}", t.to_text());

    println!("Why this is not a NE (paper, Section 3):");
    for v in lemma1_violations(&game, &s) {
        println!("  {v}");
    }
    for v in lemma2_violations(&game, &s) {
        println!("  {v}");
    }
    for v in lemma3_violations(&game, &s) {
        println!("  {v}");
    }
    for v in lemma4_violations(&game, &s) {
        println!("  {v}");
    }
    let check = nash_check(&game, &s);
    println!(
        "\nExact deviation search: is_nash = {}, max unilateral gain = {:.4}",
        check.is_nash(),
        check.max_gain()
    );
    assert!(!check.is_nash(), "Figure 1 must not be an equilibrium");

    // Paper's named witnesses must be present.
    let l2 = lemma2_violations(&game, &s);
    assert!(
        l2.iter()
            .any(|v| v.user == UserId(0) && v.from == Some(ChannelId(3)) && v.to == ChannelId(4)),
        "paper's Lemma-2 witness (u1, c4→c5) missing"
    );
    let l3 = lemma3_violations(&game, &s);
    assert!(
        l3.iter()
            .any(|v| v.user == UserId(2) && v.from == Some(ChannelId(1)) && v.to == ChannelId(2)),
        "paper's Lemma-3 witness (u3, c2→c3) missing"
    );

    // CSV artifact.
    let mut csv = Table::new(&["user", "radios_used", "utility"]);
    for u in UserId::all(4) {
        csv.row(&cells![u, s.user_total(u), utility(&game, &s, u)]);
    }
    write_result("fig1_utilities.csv", &csv.to_csv());
    println!("\nOK: Figure 1/2 reproduced (matrix, utilities, lemma witnesses).");
}
