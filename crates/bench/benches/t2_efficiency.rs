//! Bench: T2 — welfare computations: the exact optimum DP vs the
//! closed-form balanced welfare, per rate model.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mrca_core::pareto::{balanced_total_rate, optimal_total_rate};
use mrca_core::{ChannelAllocationGame, GameConfig};
use mrca_mac::{ConstantRate, PhyParams, PracticalDcfRate, RateFunction};
use std::sync::Arc;

fn bench_welfare(c: &mut Criterion) {
    let rates: Vec<(&str, Arc<dyn RateFunction>)> = vec![
        ("constant", Arc::new(ConstantRate::unit())),
        (
            "dcf",
            Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), 512)),
        ),
    ];
    let mut g = c.benchmark_group("t2/welfare");
    for (n, k, ch) in [(10usize, 4u32, 8usize), (40, 4, 12), (100, 4, 24)] {
        let cfg = GameConfig::new(n, k, ch).expect("valid");
        for (rname, rate) in &rates {
            let game = ChannelAllocationGame::new(cfg, Arc::clone(rate));
            g.bench_with_input(
                BenchmarkId::new(format!("optimal_dp_{rname}"), format!("N{n}k{k}C{ch}")),
                &(),
                |b, _| b.iter(|| optimal_total_rate(black_box(&game))),
            );
            g.bench_with_input(
                BenchmarkId::new(
                    format!("balanced_closed_form_{rname}"),
                    format!("N{n}k{k}C{ch}"),
                ),
                &(),
                |b, _| b.iter(|| balanced_total_rate(black_box(&game))),
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_welfare
}
criterion_main!(benches);
