//! Clique-reduction differential suite: the spatial engine on
//! `ConflictGraph::clique(n)` **is** the single-domain engine — not
//! approximately, bit-for-bit:
//!
//! * the per-neighborhood utility, best responses, Δ benefits and Nash
//!   verdicts satisfy the full generic conformance battery with a naive
//!   *graph-walking* utility as the independent reference;
//! * [`SpatialDynamics`] replays [`ActiveSetDynamics`] exactly — same
//!   final state (`Eq`), same convergence verdict, same round count,
//!   same move count, and the same **move-by-move trace** — on both the
//!   heap route and the forced-DP route.
//!
//! Check/skip/activation counters are *not* pinned across engines: the
//! wake machineries are different by design (occupant index + horizons
//! vs. graph neighborhoods) and only the move sequence is contractual.

mod common;

use common::check_conformance;
use mrca_core::br_fast::ActiveSetDynamics;
use mrca_core::churn::ChurnGame;
use mrca_core::spatial::{SpatialDynamics, SpatialGame};
use mrca_core::{ChannelGame, ChannelId, SparseStrategies, StrategyMatrix, UserId};
use proptest::prelude::*;

const MAX_ROUNDS: usize = 500;

/// Naive spatial utility: walk the closed graph neighborhood per
/// channel. Independent of both the cached single-domain path and the
/// maintained neighborhood index.
fn naive_spatial_utility<G: ChannelGame>(
    game: &SpatialGame<G>,
    m: &StrategyMatrix,
    u: UserId,
) -> f64 {
    let mut total = 0.0;
    for c in ChannelId::all(game.n_channels()) {
        let own = m.get(u, c);
        if own == 0 {
            continue;
        }
        let mut load = own;
        for &v in game.graph().neighbors(u.0 as u32) {
            load += m.get(UserId(v as usize), c);
        }
        total += game.channel_payoff(c, load - own, own);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On the clique the spatial game passes the full generic
    /// conformance battery with the graph-walking utility as reference:
    /// per-neighborhood and global bookkeeping are the same floats.
    #[test]
    fn clique_spatial_game_conforms(
        n in 1usize..=4,
        k in 1u32..=3,
        c in 1usize..=4,
        seed in 0u64..1_000,
    ) {
        let c = c.max(k as usize);
        let game = SpatialGame::clique(ChurnGame::uniform(n, k, c, 1.0));
        let s = SparseStrategies::random_uniform(n, k, c, seed).to_dense();
        check_conformance(&game, &|m, u| naive_spatial_utility(&game, m, u), &s)?;
    }

    /// Sequential driver: `SpatialDynamics(clique)` replays
    /// `ActiveSetDynamics` move-for-move on both best-response routes.
    #[test]
    fn clique_sequential_replays_active_set(
        n in 1usize..=10,
        k in 1u32..=3,
        c in 2usize..=5,
        seed in 0u64..1_000,
        force_dp in proptest::bool::ANY,
    ) {
        let game = if force_dp {
            ChurnGame::uniform(n, k, c, 1.0).force_generic_route()
        } else {
            ChurnGame::uniform(n, k, c, 1.0)
        };
        let start = SparseStrategies::random_uniform(n, k, c, seed);

        let mut base = ActiveSetDynamics::new(&game, start.clone());
        let mut base_trace = Vec::new();
        let (base_conv, base_rounds) = base.run(&game, MAX_ROUNDS, Some(&mut base_trace));

        let spatial = SpatialGame::clique(game.clone());
        let mut sp = SpatialDynamics::new(&spatial, start);
        prop_assert_eq!(sp.is_heap(), !force_dp, "route selection must match");
        let mut sp_trace = Vec::new();
        let (sp_conv, sp_rounds) = sp.run(&spatial, MAX_ROUNDS, Some(&mut sp_trace));

        prop_assert!(!sp.cycle_detected(), "clique dynamics cannot cycle");
        prop_assert_eq!(sp_conv, base_conv);
        prop_assert_eq!(sp_rounds, base_rounds);
        prop_assert_eq!(sp.counters().moves, base.counters().moves);
        prop_assert_eq!(&sp_trace, &base_trace, "move sequences must be identical");
        prop_assert!(sp.state() == base.state(), "final states must be bit-identical");
        // The incrementally maintained potential agrees with a full
        // recomputation. (No monotonicity claim even on the clique: the
        // Rosenthal argument is radio-level, and a whole-user best
        // response can dip Φ while still improving its own utility.)
        let fresh = mrca_core::spatial::PotentialTracker::recompute(
            &spatial, sp.neighborhood_loads());
        let scale = fresh.abs().max(1.0);
        prop_assert!((sp.potential().phi() - fresh).abs() <= 1e-9 * scale,
            "incremental potential drifted: {} vs {}", sp.potential().phi(), fresh);
    }
}
