//! Bench: T1 — NE verification cost, Theorem 1 (structural, O(N·C))
//! versus exact deviation search (DP, O(N·C·k²)). The gap is the paper's
//! practical payoff: equilibrium detection without touching utilities.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mrca_bench::constant_game;
use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::br_dp::is_nash;
use mrca_core::nash::theorem1;

fn bench_verification(c: &mut Criterion) {
    let mut g = c.benchmark_group("t1/ne_verification");
    for (n, k, ch) in [(10usize, 4u32, 8usize), (50, 4, 16), (200, 4, 32)] {
        let game = constant_game(n, k, ch);
        let ne = algorithm1(&game, &Ordering::with_tie_break(TieBreak::PreferUnused));
        g.bench_with_input(
            BenchmarkId::new("theorem1_structural", format!("N{n}k{k}C{ch}")),
            &(),
            |b, _| b.iter(|| theorem1(&game, black_box(&ne)).is_nash()),
        );
        g.bench_with_input(
            BenchmarkId::new("exact_deviation_dp", format!("N{n}k{k}C{ch}")),
            &(),
            |b, _| b.iter(|| is_nash(&game, black_box(&ne))),
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_verification
}
criterion_main!(benches);
