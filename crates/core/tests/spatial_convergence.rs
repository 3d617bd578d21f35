//! Convergence accounting for the spatial engine. Off the clique the
//! paper's theorems no longer apply, so the contract is *explicit
//! outcomes*: every run must end in either a converged (and certified
//! Nash) state or an explicitly detected best-response cycle — never a
//! silent round-cap timeout — and the incrementally maintained
//! potential must always agree with a from-scratch recomputation.
//!
//! A hand-built two-triangle (bowtie-with-bridge) instance, where the
//! six users see genuinely different neighborhood loads, is pinned as a
//! golden move-sequence test.

mod common;

use mrca_core::churn::ChurnGame;
use mrca_core::spatial::{
    is_nash_spatial, ConflictGraph, GeoIndex, NbrIndex, PotentialTracker, SpatialDynamics,
    SpatialGame, SpatialParallelDynamics,
};
use mrca_core::{SparseStrategies, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_ROUNDS: usize = 2_000;

/// Either spatial driver, behind the calls the arrival stream needs.
enum Driver {
    Seq(SpatialDynamics),
    Par(SpatialParallelDynamics),
}

impl Driver {
    /// `threads == 0` selects the sequential driver.
    fn new(game: &SpatialGame<ChurnGame>, start: SparseStrategies, threads: usize) -> Self {
        if threads == 0 {
            Driver::Seq(SpatialDynamics::new(game, start))
        } else {
            Driver::Par(SpatialParallelDynamics::new(game, start, threads))
        }
    }

    /// `(converged, cycle_detected)`.
    fn run(&mut self, game: &SpatialGame<ChurnGame>) -> (bool, bool) {
        match self {
            Driver::Seq(d) => (d.run(game, MAX_ROUNDS, None).0, d.cycle_detected()),
            Driver::Par(d) => (d.run(game, MAX_ROUNDS).0, d.cycle_detected()),
        }
    }

    fn grow_users(&mut self, game: &SpatialGame<ChurnGame>) {
        match self {
            Driver::Seq(d) => d.grow_users(game).expect("arena growth"),
            Driver::Par(d) => d.grow_users(game).expect("arena growth"),
        }
    }

    fn books(&self) -> (&SparseStrategies, &NbrIndex, f64) {
        match self {
            Driver::Seq(d) => (d.state(), d.neighborhood_loads(), d.potential().phi()),
            Driver::Par(d) => (d.state(), d.neighborhood_loads(), d.potential().phi()),
        }
    }
}

/// The maintained index equals a rebuild and `Φ` is within 1e-9
/// relative of a from-scratch recompute.
fn check_no_drift(
    game: &SpatialGame<ChurnGame>,
    d: &Driver,
    at: &str,
) -> Result<(), TestCaseError> {
    let (state, nbr, phi) = d.books();
    prop_assert!(
        nbr.agrees_with(game.graph(), state),
        "neighborhood index drifted {at}"
    );
    let fresh = PotentialTracker::recompute(game, nbr);
    prop_assert!(
        (phi - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
        "potential drifted {at}: {phi} vs {fresh}"
    );
    Ok(())
}

/// Settle a geometric instance, then replay a seeded arrival stream —
/// batches of one or two empty-row users at random positions, joining
/// the graph through [`GeoIndex`] — re-converging after every batch.
/// Arrivals add only their own neighborhood rows to `Φ`, so the check
/// runs both right after each grow and after each re-convergence.
fn check_arrival_stream(
    n: usize,
    k: u32,
    c: usize,
    range: f64,
    seed: u64,
    batches: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let side = 6.0;
    let (graph, positions) = ConflictGraph::random_geometric(n, side, range, seed);
    let mut geo = GeoIndex::new(&positions, range);
    let mut game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
    let start = SparseStrategies::random_uniform(n, k, c, seed ^ 0xA221);
    let mut d = Driver::new(&game, start, threads);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77);
    for batch in 0..=batches {
        if batch > 0 {
            for _ in 0..rng.gen_range(1..=2usize) {
                game.inner_mut().push_user(rng.gen_range(1..=k));
                let p = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                game.graph_mut().push_vertex_at(&mut geo, p);
            }
            d.grow_users(&game);
            check_no_drift(&game, &d, &format!("after grow {batch}"))?;
        }
        let (converged, cycle) = d.run(&game);
        prop_assert!(converged || cycle, "silent round cap at batch {batch}");
        check_no_drift(&game, &d, &format!("after run {batch}"))?;
        if cycle {
            return Ok(());
        }
    }
    Ok(())
}

fn check_explicit_outcome(
    game: &SpatialGame<ChurnGame>,
    start: &SparseStrategies,
    threads: usize,
) -> Result<(), TestCaseError> {
    let (state, converged, cycle, nbr_ok, phi, decreases, fresh) = if threads == 0 {
        let mut d = SpatialDynamics::new(game, start.clone());
        let (converged, _) = d.run(game, MAX_ROUNDS, None);
        let fresh = PotentialTracker::recompute(game, d.neighborhood_loads());
        let ok = d.neighborhood_loads().agrees_with(game.graph(), d.state());
        let (phi, dec, cyc) = (
            d.potential().phi(),
            d.potential().decreases(),
            d.cycle_detected(),
        );
        (d.into_state(), converged, cyc, ok, phi, dec, fresh)
    } else {
        let mut d = SpatialParallelDynamics::new(game, start.clone(), threads);
        let (converged, _) = d.run(game, MAX_ROUNDS);
        let fresh = PotentialTracker::recompute(game, d.neighborhood_loads());
        let ok = d.neighborhood_loads().agrees_with(game.graph(), d.state());
        let (phi, dec, cyc) = (
            d.potential().phi(),
            d.potential().decreases(),
            d.cycle_detected(),
        );
        (d.into_state(), converged, cyc, ok, phi, dec, fresh)
    };

    // Never a silent timeout: either the run converged or the detector
    // names the cycle.
    prop_assert!(
        converged || cycle,
        "round cap hit without a detected cycle (threads {threads})"
    );
    if converged {
        prop_assert!(!cycle);
        prop_assert!(
            is_nash_spatial(game, &state),
            "converged state not spatial-Nash (threads {threads})"
        );
    }
    // The maintained index and potential never drift from recomputation.
    prop_assert!(nbr_ok, "neighborhood index drifted (threads {threads})");
    let scale = fresh.abs().max(1.0);
    prop_assert!(
        (phi - fresh).abs() <= 1e-9 * scale,
        "potential drifted: {phi} vs {fresh} (threads {threads})"
    );
    // A monotone run reports zero decreases; a non-monotone run that
    // still converged is legal and the count says how non-monotone.
    let _ = decreases;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Density × conflict range × |C| sweep: explicit outcomes on both
    /// drivers, at every graph density from isolated dust to a clique.
    #[test]
    fn geometric_sweep_has_explicit_outcomes(
        n in 2usize..=20,
        k in 1u32..=3,
        c in 2usize..=4,
        seed in 0u64..1_000,
        range in 0.2f64..6.0,
        side in 2.0f64..8.0,
    ) {
        let (graph, _) = ConflictGraph::random_geometric(n, side, range, seed);
        let game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
        let start = SparseStrategies::random_uniform(n, k, c, seed ^ 0x5EED);
        check_explicit_outcome(&game, &start, 0)?;
        check_explicit_outcome(&game, &start, 2)?;
    }

    /// Isolated vertices mixed with a clique component: the clique part
    /// balances like the paper's game, the dust settles in one move
    /// each, and the index stays exact throughout.
    #[test]
    fn isolated_plus_clique_component(
        dust in 1usize..=6,
        clique in 2usize..=6,
        k in 1u32..=2,
        c in 2usize..=4,
        seed in 0u64..1_000,
    ) {
        let n = dust + clique;
        let mut edges = Vec::new();
        for i in 0..clique as u32 {
            for j in i + 1..clique as u32 {
                edges.push((dust as u32 + i, dust as u32 + j));
            }
        }
        let graph = ConflictGraph::from_edges(n, &edges);
        let game = SpatialGame::new(ChurnGame::uniform(n, k, c, 1.0), graph);
        let start = SparseStrategies::random_uniform(n, k, c, seed);
        check_explicit_outcome(&game, &start, 0)?;
        check_explicit_outcome(&game, &start, 2)?;

        let mut d = SpatialDynamics::new(&game, start);
        let (converged, _) = d.run(&game, MAX_ROUNDS, None);
        prop_assert!(converged);
        // Each isolated user spreads its radios alone: its neighborhood
        // row is exactly its own row.
        for u in 0..dust {
            for &(ch, t) in d.state().row(UserId(u)) {
                prop_assert_eq!(
                    d.neighborhood_loads().load(u, mrca_core::ChannelId(ch as usize)), t
                );
            }
        }
    }

    /// The drift check over a seeded geometric arrival stream, on the
    /// sequential driver and the parallel one at two workers.
    #[test]
    fn arrival_stream_keeps_potential_exact(
        n in 2usize..=16,
        k in 1u32..=3,
        c in 2usize..=4,
        range in 0.5f64..3.0,
        seed in 0u64..1_000,
        batches in 1usize..=10,
    ) {
        check_arrival_stream(n, k, c, range, seed, batches, 0)?;
        check_arrival_stream(n, k, c, range, seed, batches, 2)?;
    }
}

/// Two triangles {0,1,2} and {3,4,5} bridged by the edge (2,3): users
/// 0/1 see a 3-user domain, 2/3 see a 4-user domain, so neighborhood
/// loads genuinely differ per user. From everyone-stacked-on-channel-0
/// the ascending-rank dynamics produce this exact move sequence.
#[test]
fn two_triangle_golden_move_sequence() {
    let graph =
        ConflictGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]);
    let game = SpatialGame::new(ChurnGame::uniform(6, 1, 2, 1.0), graph);
    let mut start = SparseStrategies::with_budgets(&[1; 6], 2);
    for u in 0..6 {
        start.set_row(UserId(u), &[(0, 1)]);
    }
    let mut d = SpatialDynamics::new(&game, start);
    let mut trace = Vec::new();
    let (converged, rounds) = d.run(&game, 100, Some(&mut trace));
    assert!(converged && !d.cycle_detected());
    let got: Vec<(usize, Vec<u32>)> = trace
        .iter()
        .map(|(u, v)| {
            let counts: Vec<u32> = (0..v.n_channels())
                .map(|c| v.on_channel(mrca_core::ChannelId(c)))
                .collect();
            (u.0, counts)
        })
        .collect();
    // Golden: three rounds, four moves — user 0 vacates the stacked
    // channel first; 2 and 3 (the bridge endpoints, each seeing a
    // 4-user domain) both flee to channel 1; 3's flight makes channel 1
    // crowded *for user 2 only*, who returns to channel 0. Users 1, 4,
    // 5 never move.
    assert_eq!(rounds, 3);
    assert_eq!(
        got,
        vec![
            (0usize, vec![0u32, 1]),
            (2, vec![0, 1]),
            (3, vec![0, 1]),
            (2, vec![1, 0]),
        ]
    );
    let final_rows: Vec<Vec<(u32, u32)>> =
        (0..6).map(|u| d.state().row(UserId(u)).to_vec()).collect();
    assert_eq!(
        final_rows,
        vec![
            vec![(1u32, 1u32)],
            vec![(0, 1)],
            vec![(0, 1)],
            vec![(1, 1)],
            vec![(0, 1)],
            vec![(0, 1)],
        ]
    );
    assert!(is_nash_spatial(&game, d.state()));
    // The per-user neighborhood loads genuinely differ: the triangle
    // interiors see [2,1], bridge endpoint 2 sees [2,2], endpoint 3
    // sees [3,1] — the instance is not a clique reduction.
    let expect_nbr: Vec<Vec<u32>> = vec![
        vec![2, 1],
        vec![2, 1],
        vec![2, 2],
        vec![3, 1],
        vec![2, 1],
        vec![2, 1],
    ];
    for (u, expect) in expect_nbr.iter().enumerate() {
        assert_eq!(
            d.neighborhood_loads().dense_row(u),
            expect.as_slice(),
            "user {u}"
        );
    }
    assert_eq!(
        NbrIndex::sparse_of(game.graph(), d.state()).dense_row(3),
        expect_nbr[3]
    );
}
