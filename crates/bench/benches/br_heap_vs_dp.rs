//! Bench: the large-N tentpole speedup — the `O(k log |C|)` lazy-heap
//! best response versus the `O(|C|·k²)` DP, as a full
//! best-response sweep over every user at the acceptance instance
//! `(|N| = 10⁴, k = 4, |C| = 64)`.
//!
//! The run asserts (not just reports) a ≥ 10× advantage of the heap
//! sweep, mirroring the `incremental_vs_naive` gate of PR 1, and records
//! the measurement as the first trajectory point of
//! `results/BENCH_scale.json` so future PRs can chart the path to the
//! million-user north star. Values are cross-checked bit-for-bit against
//! the DP before any timing, so the bench cannot pass on a wrong fast
//! path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrca_bench::constant_game;
use mrca_core::br_fast::{BrEngine, DpCache, HeapEngine};
use mrca_core::sparse::SparseStrategies;
use mrca_core::{br_dp, ChannelLoads, UserId};
use std::time::Instant;

const N_USERS: usize = 10_000;
const RADIOS: u32 = 4;
const N_CHANNELS: usize = 64;

fn timed<F: FnMut() -> f64>(mut f: F) -> f64 {
    // Warm up, then time enough iterations for a stable mean.
    black_box(f());
    let start = Instant::now();
    let mut iters = 0u32;
    let mut acc = 0.0;
    while start.elapsed().as_millis() < 300 {
        acc += f();
        iters += 1;
    }
    black_box(acc);
    start.elapsed().as_secs_f64() / iters as f64
}

fn bench_br_heap_vs_dp(c: &mut Criterion) {
    let game = constant_game(N_USERS, RADIOS, N_CHANNELS);
    let sparse = SparseStrategies::random_uniform(N_USERS, RADIOS, N_CHANNELS, 7);
    let dense = sparse.to_dense();
    let loads = ChannelLoads::of_sparse(&sparse);
    assert_eq!(loads.as_slice(), dense.loads(), "sparse loads oracle");

    // Correctness first: the heap sweep must reproduce the DP's values
    // bit-for-bit on this instance before its speed means anything.
    let mut heap = HeapEngine::new(&game, &loads);
    for u in UserId::all(N_USERS) {
        let (_, hv) = heap.best_response(&game, sparse.row(u), &loads, u);
        let (_, dv) = br_dp::best_response(&game, &dense, u);
        assert_eq!(hv.to_bits(), dv.to_bits(), "heap vs DP value, user {u}");
    }
    assert!(BrEngine::new(&game, &loads).is_heap(), "routing");

    let mut g = c.benchmark_group("br_heap_vs_dp/sweep_n1e4_k4_c64");
    g.bench_function("heap_lazy_marginals", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for u in UserId::all(N_USERS) {
                let (_, v) = heap.best_response(&game, black_box(sparse.row(u)), &loads, u);
                acc += v;
            }
            acc
        })
    });
    g.bench_function("dp_full", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for u in UserId::all(N_USERS) {
                let (_, v) = br_dp::best_response(&game, black_box(&dense), u);
                acc += v;
            }
            acc
        })
    });
    // Context: the incremental DP (shared payoff columns) sits between.
    let dp_cache = DpCache::new(&game, &loads);
    g.bench_function("dp_incremental_columns", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for u in UserId::all(N_USERS) {
                let (_, v) = dp_cache.best_response(&game, black_box(sparse.row(u)), &loads, u);
                acc += v;
            }
            acc
        })
    });
    g.finish();

    // Pin the speedup: the whole point of the engine.
    let t_heap = timed(|| {
        let mut acc = 0.0;
        for u in UserId::all(N_USERS) {
            acc += heap.best_response(&game, sparse.row(u), &loads, u).1;
        }
        acc
    });
    let t_dp = timed(|| {
        let mut acc = 0.0;
        for u in UserId::all(N_USERS) {
            acc += br_dp::best_response(&game, &dense, u).1;
        }
        acc
    });
    let speedup = t_dp / t_heap;
    println!(
        "heap vs DP best-response sweep at ({N_USERS},{RADIOS},{N_CHANNELS}): \
         {speedup:.1}x ({:.2} ms vs {:.2} ms per sweep)",
        t_heap * 1e3,
        t_dp * 1e3
    );
    assert!(
        speedup >= 10.0,
        "heap path must be ≥10x faster than the DP (got {speedup:.2}x)"
    );

    // First BENCH_scale.json trajectory point (hand-rolled JSON: the
    // offline build has no serde_json). Future PRs append further points.
    let json = format!(
        "[\n  {{\"bench\": \"br_heap_vs_dp\", \"n_users\": {N_USERS}, \"radios\": {RADIOS}, \
         \"n_channels\": {N_CHANNELS}, \"heap_ms_per_sweep\": {:.3}, \
         \"dp_ms_per_sweep\": {:.3}, \"speedup\": {:.2}, \
         \"mem_ratio_sparse_vs_dense\": {:.2}}}\n]\n",
        t_heap * 1e3,
        t_dp * 1e3,
        speedup,
        sparse.dense_bytes() as f64 / sparse.heap_bytes() as f64,
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_scale.json"
    );
    std::fs::create_dir_all(dir).expect("creating results/");
    std::fs::write(path, json).expect("writing BENCH_scale.json");
    println!("  [written] {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_br_heap_vs_dp
}
criterion_main!(benches);
