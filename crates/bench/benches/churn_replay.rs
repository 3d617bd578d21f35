//! Bench: the churn service — per-event re-convergence of a standing
//! equilibrium absorbing a seeded arrival / departure / budget-change /
//! rate-shift stream (the `t10_churn` workload, via
//! [`mrca_experiments::churn::ChurnDriver`]).
//!
//! Two parts:
//!
//! * a criterion group timing the initial settle and a full replay at a
//!   small shape (2·10⁴ users, 100 events) — the sampled, repeatable
//!   measurement;
//! * one measured replay at the CI smoke shape (10⁵ users, 200 events),
//!   asserted drift-free and written to `results/BENCH_churn.json` in
//!   the same schema the `t10_churn` bin produces — whichever ran last
//!   owns the file, both describe the same contract.
//!
//! The replay itself re-asserts convergence after every event and runs
//! periodic full Nash scans, so the bench cannot produce numbers from a
//! drifted equilibrium.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrca_experiments::churn::{ChurnConfig, ChurnDriver};

/// Small sampled shape: settle + replay fast enough to repeat.
fn small_cfg() -> ChurnConfig {
    ChurnConfig {
        initial_users: 20_000,
        radios: 2,
        n_channels: 64,
        rate: 1.0,
        events: 100,
        seed: 2026,
        // A rate shift on a heavy channel rebalances through a trickle of
        // rank-serialized swap chains — thousands of cheap rounds, same as
        // the smoke shape. The cap only catches genuine stalls.
        max_rounds: 20_000,
        drift_every: 25,
    }
}

fn bench_churn_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("churn_replay/n2e4_c64_e100");
    g.bench_function("settle", |b| {
        b.iter(|| {
            let d = ChurnDriver::new(small_cfg());
            black_box(d.state().n_users())
        })
    });
    g.bench_function("settle_plus_replay", |b| {
        b.iter(|| {
            let report = ChurnDriver::new(small_cfg()).replay();
            assert_eq!(report.drift_failures, 0, "replay must stay drift-free");
            black_box(report.total_moves)
        })
    });
    g.finish();

    // The reported workload: the CI smoke shape, measured once and
    // written out. Release-only sizing (debug builds carry the paranoid
    // O(Σ k_i) checks) — criterion benches always build with
    // optimizations, so no cap is needed here.
    let report = ChurnDriver::new(ChurnConfig::smoke()).replay();
    assert!(report.events_processed > 0);
    assert_eq!(report.drift_failures, 0, "{}", report.summary());
    println!("\n== churn replay (smoke shape) ==\n{}", report.summary());

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_churn.json"
    );
    std::fs::create_dir_all(dir).expect("creating results/");
    std::fs::write(path, report.to_json()).expect("writing BENCH_churn.json");
    println!("  [written] {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_churn_replay
}
criterion_main!(benches);
