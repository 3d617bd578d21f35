//! Bench: two design ablations behind the experiments of the binary index
//! in `crates/experiments/src/lib.rs` —
//!
//! * rate-model polymorphism: table-memoized DCF vs re-solving the Bianchi
//!   fixed point on every `R(k)` evaluation;
//! * NE-verification strategy: Theorem 1 vs exact DP vs naive enumeration
//!   of the deviating user's strategy space.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrca_bench::constant_game;
use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::br_dp::{nash_check, utility};
use mrca_core::enumerate::user_strategy_space;
use mrca_core::nash::theorem1;
use mrca_core::{ChannelAllocationGame, GameConfig, UserId};
use mrca_mac::{BianchiModel, PhyParams, PracticalDcfRate, RateFunction};
use std::sync::Arc;

/// A deliberately un-memoized DCF rate model (the ablation's "raw" arm).
#[derive(Debug)]
struct UnmemoizedDcf {
    model: BianchiModel,
}

impl RateFunction for UnmemoizedDcf {
    fn rate(&self, k: u32) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.model.solve(k).throughput_bps
        }
    }
    fn name(&self) -> &str {
        "dcf-unmemoized"
    }
}

fn bench_memoization_ablation(c: &mut Criterion) {
    let cfg = GameConfig::new(12, 3, 6).expect("valid");
    let memoized = ChannelAllocationGame::new(
        cfg,
        Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), 40)),
    );
    let raw = ChannelAllocationGame::new(
        cfg,
        Arc::new(UnmemoizedDcf {
            model: BianchiModel::new(PhyParams::bianchi_fhss()),
        }),
    );
    let s = algorithm1(&memoized, &Ordering::with_tie_break(TieBreak::PreferUnused));

    let mut g = c.benchmark_group("ablation/rate_memoization");
    g.bench_function("nash_check_memoized_table", |b| {
        b.iter(|| nash_check(&memoized, black_box(&s)))
    });
    g.sample_size(10);
    g.bench_function("nash_check_raw_fixed_point", |b| {
        b.iter(|| nash_check(&raw, black_box(&s)))
    });
    g.finish();
}

fn bench_verification_ablation(c: &mut Criterion) {
    let game = constant_game(12, 4, 8);
    let s = algorithm1(&game, &Ordering::with_tie_break(TieBreak::PreferUnused));
    let space = user_strategy_space(8, 4);

    let mut g = c.benchmark_group("ablation/ne_verification");
    g.bench_function("theorem1", |b| b.iter(|| theorem1(&game, black_box(&s))));
    g.bench_function("exact_dp", |b| b.iter(|| nash_check(&game, black_box(&s))));
    g.bench_function("naive_enumeration", |b| {
        b.iter(|| {
            // For each user, scan its whole strategy space (what one would
            // do without the DP) — C(12,4) = 495 candidates per user.
            let mut is_ne = true;
            'outer: for u in UserId::all(12) {
                let current = utility(&game, &s, u);
                for cand in &space {
                    let mut alt = s.clone();
                    alt.set_user_strategy(u, cand);
                    if utility(&game, &alt, u) > current + 1e-9 {
                        is_ne = false;
                        break 'outer;
                    }
                }
            }
            is_ne
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_memoization_ablation, bench_verification_ablation
}
criterion_main!(benches);
