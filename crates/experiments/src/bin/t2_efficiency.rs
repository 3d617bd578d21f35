//! T2 — Theorem 2: equilibrium efficiency vs baselines.
//!
//! For each rate model and instance: welfare of the NE produced by the
//! selfish process (best-response dynamics) and Algorithm 1, the exact
//! welfare optimum (DP over load vectors), the price of anarchy that
//! follows, and the baseline allocators for contrast. Part A's
//! instance × rate grid runs in parallel through `ScenarioSuite`.

use mrca_baselines::{
    compare, Algorithm1Allocator, ColoringAllocator, GreedyAllocator, RandomAllocator,
    RoundRobinAllocator, SelfishAllocator,
};
use mrca_core::pareto::{balanced_total_rate, optimal_total_rate, welfare_gap};
use mrca_core::prelude::*;
use mrca_experiments::{cells, table::Table, write_result};
use mrca_experiments::{OrderingSpec, RateSpec, ScenarioSuite};

fn rate_specs() -> Vec<RateSpec> {
    vec![
        RateSpec::Constant { bps: 1e6 },
        RateSpec::Bianchi,
        RateSpec::Cliff {
            r1: 10e6,
            rest: 2e6,
        },
    ]
}

fn main() {
    println!("== T2: NE efficiency (Theorem 2) and baseline comparison ==\n");

    // Part A: the welfare gap of balanced (i.e. NE) loads per rate model,
    // one suite cell per (instance, rate).
    let instances = [
        (2usize, 2u32, 2usize),
        (4, 4, 5),
        (7, 4, 6),
        (10, 3, 8),
        (6, 2, 12),
    ];
    let suite = ScenarioSuite::from_instances(
        "t2_efficiency",
        &instances,
        &rate_specs(),
        &[OrderingSpec::Natural],
        2,
    );
    let headers = [
        "instance",
        "rate",
        "NE welfare",
        "optimal welfare",
        "PoA(NE)",
        "thm2 holds",
    ];
    let report = suite.run_with(&headers, |cell| {
        let game = cell.game();
        let ne = balanced_total_rate(&game);
        let opt = optimal_total_rate(&game);
        let poa = if ne > 0.0 { opt / ne } else { f64::INFINITY };
        vec![cells![
            cell.instance(),
            cell.rate.name(),
            format!("{:.3e}", ne),
            format!("{:.3e}", opt),
            format!("{poa:.4}"),
            welfare_gap(&game).abs() < 1e-6 * opt.max(1.0)
        ]
        .to_vec()]
    });
    println!("Part A — welfare of balanced/NE loads vs exact optimum:");
    println!("{}", report.to_text());
    write_result("t2_efficiency_poa.csv", &report.to_csv());

    // Part B: allocator comparison on a mid-size instance per rate model.
    let cfg = GameConfig::new(8, 3, 6).expect("valid");
    let seeds: Vec<u64> = (0..16).collect();
    for spec in rate_specs() {
        let rname = spec.name();
        let game = ChannelAllocationGame::new(cfg, spec.build(cfg.total_radios()));
        let coloring = ColoringAllocator::clique(cfg.n_users());
        let rows = compare(
            &game,
            &[
                &RandomAllocator,
                &RoundRobinAllocator,
                &GreedyAllocator,
                &coloring,
                &SelfishAllocator::default(),
                &Algorithm1Allocator,
            ],
            &seeds,
        );
        println!("Part B — allocators on N=8,k=3,C=6 with rate `{rname}`:");
        println!("{}", mrca_baselines::harness::format_table(&rows));
        let mut csv = Table::new(&[
            "allocator",
            "welfare",
            "efficiency",
            "fairness",
            "max_delta",
            "nash_fraction",
        ]);
        for r in &rows {
            csv.row(&cells![
                r.allocator,
                r.mean_welfare,
                r.mean_efficiency,
                r.mean_fairness,
                r.max_delta,
                r.nash_fraction
            ]);
        }
        write_result(
            &format!(
                "t2_allocators_{}.csv",
                rname
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                    .collect::<String>()
            ),
            &csv.to_csv(),
        );

        // Reproduction targets.
        let selfish = rows.iter().find(|r| r.allocator == "selfish-br").unwrap();
        assert_eq!(
            selfish.nash_fraction, 1.0,
            "{rname}: selfish BR must converge to NE"
        );
        assert!(selfish.max_delta <= 1, "{rname}: NE must be load-balanced");
        if rname.starts_with("constant") {
            assert!(
                (selfish.mean_efficiency - 1.0).abs() < 1e-9,
                "{rname}: Theorem 2 exact"
            );
        }
    }
    println!("OK: T2 regenerated (PoA = 1 for constant R; DCF near 1; cliff quantifies the Theorem-2 boundary).");
}
