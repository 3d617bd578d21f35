//! Bench: scaling of the core primitives with instance size — utility
//! evaluation, best-response DP, full Nash check, packet-level simulation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrca_bench::constant_game;
use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::br_dp::{best_response, nash_check, utility};
use mrca_core::UserId;
use mrca_experiments::{OrderingSpec, RateSpec, ScenarioGrid, ScenarioSuite};
use mrca_sim::prelude::*;

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/core");
    for n in [10usize, 100, 1000] {
        let game = constant_game(n, 4, (n / 2).max(4));
        let s = algorithm1(&game, &Ordering::with_tie_break(TieBreak::PreferUnused));
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("all_utilities", n), &(), |b, _| {
            b.iter(|| {
                UserId::all(n)
                    .map(|u| utility(&game, black_box(&s), u))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_with_input(BenchmarkId::new("one_best_response", n), &(), |b, _| {
            b.iter(|| best_response(&game, black_box(&s), UserId(0)))
        });
        g.bench_with_input(BenchmarkId::new("full_nash_check", n), &(), |b, _| {
            b.iter(|| nash_check(&game, black_box(&s)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scaling/simulator");
    for ch in [2usize, 8] {
        let game = constant_game(8, 2, ch.max(2));
        let s = algorithm1(&game, &Ordering::default());
        g.bench_with_input(
            BenchmarkId::new("tdma_100ms", format!("C{ch}")),
            &(),
            |b, _| {
                b.iter(|| {
                    ScenarioBuilder::new(ch.max(2))
                        .mac(MacKind::Tdma)
                        .allocation(&s)
                        .seed(1)
                        .build()
                        .expect("valid scenario")
                        .run(SimDuration::from_secs(0.1))
                })
            },
        );
    }
    g.finish();

    // The ScenarioSuite sweep runner itself: one small grid end-to-end
    // (cells in parallel, standard Algorithm-1 + dynamics pipeline).
    let mut g = c.benchmark_group("scaling/suite");
    let grid = ScenarioGrid {
        n_users: vec![4, 8, 12],
        radios: vec![2, 4],
        n_channels: vec![6],
        rates: vec![RateSpec::ConstantUnit, RateSpec::Bianchi],
        orderings: vec![OrderingSpec::PreferUnused],
    };
    let suite = ScenarioSuite::new("bench", &grid, 1).with_max_rounds(200);
    g.bench_function(format!("sweep_{}_cells", suite.cells.len()), |b| {
        b.iter(|| suite.run().0.len())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
