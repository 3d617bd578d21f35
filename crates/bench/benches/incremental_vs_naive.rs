//! Bench: incremental evaluation of Eq. 7 — the `O(1)` benefit of move
//! against the loads the strategy matrix keeps — versus the naive
//! clone-and-recompute path, at the instance `(|N| = 10, k = 4, |C| = 8)`.
//!
//! The run asserts (not just reports) a ≥ 5× advantage of the incremental
//! benefit-of-move over the naive one on a full best-response sweep, so a
//! future regression of the hot path fails `cargo bench` loudly.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrca_bench::constant_game;
use mrca_core::br_dp::{benefit_of_move, benefit_of_move_naive, nash_check};
use mrca_core::dynamics::random_start;
use mrca_core::{ChannelAllocationGame, ChannelId, StrategyMatrix, UserId};
use std::time::Instant;

/// Sum of Δ over every legal (user, b, c) move — the "one sweep" unit both
/// arms perform.
fn sweep_incremental(game: &ChannelAllocationGame, s: &StrategyMatrix) -> f64 {
    let cfg = game.config();
    let mut acc = 0.0;
    for u in UserId::all(cfg.n_users()) {
        for b in ChannelId::all(cfg.n_channels()) {
            if s.get(u, b) == 0 {
                continue;
            }
            for c in ChannelId::all(cfg.n_channels()) {
                acc += benefit_of_move(game, s, u, b, c);
            }
        }
    }
    acc
}

fn sweep_naive(game: &ChannelAllocationGame, s: &StrategyMatrix) -> f64 {
    let cfg = game.config();
    let mut acc = 0.0;
    for u in UserId::all(cfg.n_users()) {
        for b in ChannelId::all(cfg.n_channels()) {
            if s.get(u, b) == 0 {
                continue;
            }
            for c in ChannelId::all(cfg.n_channels()) {
                acc += benefit_of_move_naive(game, s, u, b, c);
            }
        }
    }
    acc
}

fn timed<F: FnMut() -> f64>(mut f: F) -> f64 {
    // Warm up, then time enough iterations for a stable mean.
    black_box(f());
    let start = Instant::now();
    let mut iters = 0u32;
    let mut acc = 0.0;
    while start.elapsed().as_millis() < 200 {
        acc += f();
        iters += 1;
    }
    black_box(acc);
    start.elapsed().as_secs_f64() / iters as f64
}

fn bench_incremental_vs_naive(c: &mut Criterion) {
    let game = constant_game(10, 4, 8);
    let s = random_start(&game, 7);

    let mut g = c.benchmark_group("incremental_vs_naive/benefit_sweep_n10_k4_c8");
    g.bench_function("incremental", |b| {
        b.iter(|| sweep_incremental(&game, black_box(&s)))
    });
    g.bench_function("naive_clone_recompute", |b| {
        b.iter(|| sweep_naive(&game, black_box(&s)))
    });
    g.finish();

    // Pin the speedup: the whole point of the refactor.
    let t_inc = timed(|| sweep_incremental(&game, &s));
    let t_naive = timed(|| sweep_naive(&game, &s));
    let speedup = t_naive / t_inc;
    println!(
        "incremental vs naive benefit-of-move sweep at (10,4,8): {speedup:.1}x \
         ({:.2} us vs {:.2} us)",
        t_inc * 1e6,
        t_naive * 1e6
    );
    assert!(
        speedup >= 5.0,
        "incremental path must be ≥5x faster than naive (got {speedup:.2}x)"
    );

    // Context: the full Nash check on the same instance.
    let mut g = c.benchmark_group("incremental_vs_naive/nash_check_n10_k4_c8");
    g.bench_function("nash_check", |b| {
        b.iter(|| nash_check(&game, black_box(&s)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_incremental_vs_naive
}
criterion_main!(benches);
