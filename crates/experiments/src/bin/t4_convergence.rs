//! T4 — convergence of decentralized dynamics.
//!
//! The paper's Algorithm 1 is centralized; the natural decentralized
//! variant is best-response dynamics from arbitrary deployments. This
//! experiment measures rounds-to-convergence across instance sizes for
//! user-level best response and radio-level better response, from random
//! starts. Instances run in parallel through `ScenarioSuite`
//! (deterministic per-cell seeds; the largest instances dominate the
//! wall-clock, so parallelism across cells pays directly).
//!
//! User-level best response runs the sparse **active-set** route
//! (`BestResponseDriver::run_sparse`, trace-pinned to the dense sweep by
//! the golden suite) and reports its work counters per row: engine checks
//! actually performed, checks the worklist proved unnecessary, and
//! wake-ups — the output-sensitivity evidence for the event-driven
//! dynamics.

use mrca_core::br_dp::is_nash;
use mrca_core::dynamics::{random_start, BestResponseDriver, RadioDynamics, Schedule};
use mrca_core::SparseStrategies;
use mrca_experiments::suite::derive_seed;
use mrca_experiments::{cells, write_result};
use mrca_experiments::{OrderingSpec, RateSpec, ScenarioSuite};
use mrca_sim::stats::OnlineStats;

fn main() {
    println!("== T4: convergence of best-response dynamics (random starts) ==\n");
    let instances = [
        (4usize, 2u32, 3usize),
        (6, 3, 5),
        (10, 4, 8),
        (20, 4, 10),
        (40, 4, 12),
        (50, 4, 16),
    ];
    let suite = ScenarioSuite::from_instances(
        "t4_convergence",
        &instances,
        &[RateSpec::ConstantUnit],
        &[OrderingSpec::Natural],
        4,
    );
    let n_seeds = 12u64;
    let cap = 500usize;

    let headers = [
        "instance",
        "radios",
        "dynamic",
        "runs",
        "converged%",
        "mean rounds",
        "max rounds",
        "mean moves",
        "NE%",
        "mean checks",
        "mean skipped",
        "mean wakeups",
    ];
    let report = suite.run_with(&headers, |cell| {
        let game = cell.game();
        let mut rows = Vec::new();
        for dyn_name in ["user-BR", "radio-BR"] {
            let mut rounds = OnlineStats::new();
            let mut moves = OnlineStats::new();
            let mut checks = OnlineStats::new();
            let mut skipped = OnlineStats::new();
            let mut wakeups = OnlineStats::new();
            let mut converged = 0usize;
            let mut nash = 0usize;
            for i in 0..n_seeds {
                // Two decorrelated streams per run: seeding the start and
                // the schedule identically would make the round-1 update
                // order a function of the start allocation.
                let start_seed = derive_seed(cell.seed, 2 * i);
                let dyn_seed = derive_seed(cell.seed, 2 * i + 1);
                let start = random_start(&game, start_seed);
                let (rounds_i, moves_i, converged_i, nash_i) = match dyn_name {
                    "user-BR" => {
                        // The sparse active-set route (trace-pinned to the
                        // dense sweep), with per-run work counters.
                        let out =
                            BestResponseDriver::new(Schedule::RandomPermutation { seed: dyn_seed })
                                .run_sparse(
                                    &game,
                                    SparseStrategies::from_matrix(&game, &start),
                                    cap,
                                );
                        let c = out.counters;
                        checks.push(c.checks as f64);
                        skipped.push(c.skipped_checks as f64);
                        wakeups.push((c.occupant_wakeups + c.temptation_wakeups) as f64);
                        let is_ne = mrca_core::br_fast::is_nash_sparse(&game, &out.strategies);
                        (out.rounds, out.moves, out.converged, is_ne)
                    }
                    _ => {
                        let out = RadioDynamics::new(dyn_seed).run(&game, start, cap);
                        let is_ne = is_nash(&game, &out.matrix);
                        (out.rounds, out.moves, out.converged, is_ne)
                    }
                };
                rounds.push(rounds_i as f64);
                moves.push(moves_i as f64);
                if converged_i {
                    converged += 1;
                }
                if nash_i {
                    nash += 1;
                }
            }
            let counter_cell = |s: &OnlineStats| {
                if dyn_name == "user-BR" {
                    format!("{:.1}", s.mean())
                } else {
                    "-".to_string()
                }
            };
            rows.push(
                cells![
                    cell.instance(),
                    cell.n_users as u32 * cell.radios,
                    dyn_name,
                    n_seeds,
                    format!("{:.0}", 100.0 * converged as f64 / n_seeds as f64),
                    format!("{:.1}", rounds.mean()),
                    format!("{:.0}", rounds.max()),
                    format!("{:.1}", moves.mean()),
                    format!("{:.0}", 100.0 * nash as f64 / n_seeds as f64),
                    counter_cell(&checks),
                    counter_cell(&skipped),
                    counter_cell(&wakeups)
                ]
                .to_vec(),
            );
        }
        rows
    });
    println!("{}", report.to_text());
    write_result("t4_convergence.csv", &report.to_csv());

    // Reproduction targets: user-level BR always converges to a NE within
    // the cap, and does so in a handful of rounds even at 200 radios —
    // and the active-set route never degenerates into a full sweep on the
    // larger instances (it must skip provably-idle users).
    let mut total_skipped = 0.0f64;
    for row in &report.rows {
        if row[2] == "user-BR" {
            assert_eq!(row[4], "100", "user BR must converge: {row:?}");
            assert_eq!(row[8], "100", "user BR must land on NE: {row:?}");
            total_skipped += row[10].parse::<f64>().expect("skipped column");
        }
    }
    assert!(
        total_skipped > 0.0,
        "the active-set route must skip provably-idle users somewhere in the sweep"
    );
    println!("OK: user-level best response converged to a NE on every run (active-set route).");
}
