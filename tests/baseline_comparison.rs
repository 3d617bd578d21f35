//! Efficiency-ordering invariants across the baseline allocators.

use multi_radio_alloc::prelude::*;
use std::sync::Arc;

fn dcf_game(n: usize, k: u32, c: usize) -> ChannelAllocationGame {
    let cfg = GameConfig::new(n, k, c).unwrap();
    let rate: Arc<dyn RateFunction> = Arc::new(PracticalDcfRate::new(
        PhyParams::bianchi_fhss(),
        (n as u32 * k).max(1),
    ));
    ChannelAllocationGame::new(cfg, rate)
}

#[test]
fn selfish_never_loses_to_random() {
    let game = dcf_game(8, 3, 6);
    let seeds: Vec<u64> = (0..10).collect();
    let rows = compare(
        &game,
        &[&RandomAllocator, &SelfishAllocator::default()],
        &seeds,
    );
    let random = &rows[0];
    let selfish = &rows[1];
    assert!(selfish.mean_welfare >= random.mean_welfare - 1e-6);
    assert!(selfish.mean_fairness >= random.mean_fairness - 1e-9);
    assert!(selfish.max_delta <= 1);
}

#[test]
fn selfish_matches_centralized_welfare() {
    // The paper's headline: zero price of coordination (for its MAC
    // models). Balanced allocators all achieve the same welfare.
    let game = dcf_game(10, 2, 5);
    let seeds: Vec<u64> = (0..6).collect();
    let rows = compare(
        &game,
        &[
            &GreedyAllocator,
            &RoundRobinAllocator,
            &SelfishAllocator::default(),
            &Algorithm1Allocator,
        ],
        &seeds,
    );
    let welfare: Vec<f64> = rows.iter().map(|r| r.mean_welfare).collect();
    for w in &welfare {
        assert!(
            (w - welfare[0]).abs() < 1e-6 * welfare[0],
            "balanced allocators must tie: {welfare:?}"
        );
    }
}

#[test]
fn equilibrium_allocators_always_report_nash() {
    let game = dcf_game(7, 3, 5);
    let seeds: Vec<u64> = (0..8).collect();
    let rows = compare(
        &game,
        &[&SelfishAllocator::default(), &Algorithm1Allocator],
        &seeds,
    );
    for r in &rows {
        assert_eq!(r.nash_fraction, 1.0, "{}", r.allocator);
    }
}

#[test]
fn coloring_equals_round_robin_on_a_clique() {
    // In the paper's single collision domain the conflict graph is
    // complete and coloring degenerates to spreading — same welfare as
    // round-robin.
    let game = dcf_game(6, 2, 6);
    let coloring = ColoringAllocator::clique(6);
    let rows = compare(&game, &[&coloring, &RoundRobinAllocator], &[0]);
    assert!((rows[0].mean_welfare - rows[1].mean_welfare).abs() < 1e-6 * rows[0].mean_welfare);
}

#[test]
fn random_allocation_wastes_channels_under_light_load() {
    // Random allocation's dominant welfare loss is *empty channels*: with
    // 8 radios thrown at 8 channels some stay vacant (coupon-collector),
    // while 48 radios over 6 channels cover everything and the flat-ish
    // DCF curve forgives the imbalance. So light load is where random
    // hurts most, relative to the optimum.
    let light = dcf_game(4, 2, 8);
    let heavy = dcf_game(12, 4, 6);
    let seeds: Vec<u64> = (0..10).collect();
    let eff =
        |g: &ChannelAllocationGame| compare(g, &[&RandomAllocator], &seeds)[0].mean_efficiency;
    let e_light = eff(&light);
    let e_heavy = eff(&heavy);
    assert!(
        e_light < e_heavy - 0.05,
        "light-load random efficiency {e_light} should trail heavy-load {e_heavy}"
    );
    // And the selfish process fixes exactly that gap.
    let selfish = compare(&light, &[&SelfishAllocator::default()], &seeds)[0].mean_efficiency;
    assert!(selfish > e_light + 0.05);
}

#[test]
fn spatial_equilibrium_weakly_dominates_coloring_per_user() {
    // On seeded geometric graphs, start the spatial best-response
    // dynamics FROM the greedy coloring allocation and compare the
    // settled equilibrium's per-user rates against the coloring's
    // implied rates cell by cell. Each user must weakly dominate its
    // coloring rate, or the cell is logged as a *recorded exception*
    // (other users' selfish moves can hurt a bystander); exceptions
    // must stay a small, explicitly accounted minority.
    use multi_radio_alloc::core::spatial::{
        spatial_utility, ConflictGraph as CoreGraph, NbrIndex, SpatialDynamics, SpatialGame,
    };

    let (n, k, c) = (20usize, 2u32, 4usize);
    let cfg = GameConfig::new(n, k, c).unwrap();
    let mut exceptions: Vec<String> = Vec::new();
    let mut cells = 0usize;

    for seed in 0..8u64 {
        let (side, range) = (6.0, 1.0 + 0.4 * seed as f64);
        // Both graph builders replay the same RNG draws, so the dense
        // baseline graph and the sparse engine graph have identical
        // edge sets.
        let (dense, positions) =
            multi_radio_alloc::baselines::ConflictGraph::random_geometric(n, side, range, seed);
        let (graph, core_positions) = CoreGraph::random_geometric(n, side, range, seed);
        assert_eq!(
            positions, core_positions,
            "builders must agree on positions"
        );
        for i in 0..n {
            for j in dense.neighbors(i) {
                assert!(
                    graph.contains_edge(i as u32, j as u32),
                    "edge sets must agree"
                );
            }
        }

        let flat = ChannelAllocationGame::with_constant_rate(cfg, 1.0);
        let coloring = ColoringAllocator::new(dense).allocate(&flat, seed);

        let game = SpatialGame::new(flat, graph);
        let mut start = SparseStrategies::with_budgets(&vec![k; n], c);
        for u in 0..n {
            let row: Vec<(u32, u32)> = (0..c)
                .filter_map(|ch| {
                    let t = coloring.get(UserId(u), ChannelId(ch));
                    (t > 0).then_some((ch as u32, t))
                })
                .collect();
            start.set_row(UserId(u), &row);
        }

        let nbr0 = NbrIndex::sparse_of(game.graph(), &start);
        let before: Vec<f64> = (0..n)
            .map(|u| spatial_utility(&game, &start, &nbr0, UserId(u)))
            .collect();

        let mut d = SpatialDynamics::new(&game, start);
        let (converged, _) = d.run(&game, 2_000, None);
        assert!(converged, "seed {seed}: dynamics must settle");
        let nbr = NbrIndex::sparse_of(game.graph(), d.state());
        for (u, &was) in before.iter().enumerate() {
            cells += 1;
            let after = spatial_utility(&game, d.state(), &nbr, UserId(u));
            if after < was - 1e-9 * was.abs().max(1.0) {
                exceptions.push(format!(
                    "seed {seed} user {u}: equilibrium {after:.6} < coloring {was:.6}"
                ));
            }
        }
    }

    for e in &exceptions {
        eprintln!("recorded exception: {e}");
    }
    assert!(
        exceptions.len() * 5 <= cells,
        "dominated cells must be the overwhelming majority: {} exceptions in {} cells\n{}",
        exceptions.len(),
        cells,
        exceptions.join("\n")
    );
}
