//! The spatial row kernel against its oracles.
//!
//! * A property pins [`RowKernel`] to `BrEngine`'s lazy heap on the same
//!   loads: equal rows, equal value bits and the exact current utility.
//!   Its instances draw per-channel rates from {0.5, 1, 2, 3}, so exact
//!   cross-channel ties occur (rate 2 at others-load 1 equals rate 1 at
//!   zero load), over 1–64 channels with mostly zero loads, budgets 1–4
//!   (often more than the row's nonzero cells) and empty rows.
//! * A rate shift that reverses the zero-load order must be absorbed by
//!   `reprice_channel`: the driver then replays a fresh driver on the
//!   shifted game move for move.
//! * `nash_check_spatial`, which aggregates each neighborhood row on the
//!   spot, must equal a test-local reference bit for bit on both routes:
//!   the dense oracle index, with each user's query answered by
//!   `BrEngine` against its row as a load vector.
//!
//! Runs under the default case count; the nightly deep-fuzz CI job
//! raises `PROPTEST_CASES` ~10x.

use mrca_core::br_dp::ChannelGame;
use mrca_core::churn::ChurnGame;
use mrca_core::game::{improves, NashCheck};
use mrca_core::sparse::SparseEntry;
use mrca_core::spatial::{
    is_nash_spatial, nash_check_spatial, spatial_utility, ConflictGraph, NbrIndex, RowKernel,
    SpatialDynamics, SpatialGame,
};
use mrca_core::{BrEngine, ChannelId, ChannelLoads, SparseStrategies, StrategyVector, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const MAX_ROUNDS: usize = 2_000;

/// Per-channel rates whose sharing payoffs tie exactly across channels.
const RATES: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

/// One single-domain load vector and the rows of the users querying it.
struct RowCase {
    game: ChurnGame,
    loads: ChannelLoads,
    rows: Vec<Vec<SparseEntry>>,
}

/// Sorted sparse row of radio placements.
fn row_of(channels: impl IntoIterator<Item = u32>) -> Vec<SparseEntry> {
    let mut counts = BTreeMap::new();
    for c in channels {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

fn row_case() -> impl Strategy<Value = RowCase> {
    (1usize..=64, 1usize..=4)
        .prop_flat_map(|(c_n, n)| {
            (
                proptest::collection::vec(0usize..RATES.len(), c_n),
                proptest::collection::vec(1u32..=4, n),
                proptest::collection::vec(0u32..10, c_n),
                proptest::collection::vec(proptest::collection::vec(0..c_n as u32, 0..=4usize), n),
            )
        })
        .prop_map(|(rate_ix, budgets, foreign, picks)| {
            let c_n = rate_ix.len();
            let rates = rate_ix.iter().map(|&i| RATES[i]).collect();
            // Seven draws in ten leave a channel without foreign radios.
            let mut loads = ChannelLoads::zeros(c_n);
            for (c, &d) in foreign.iter().enumerate() {
                for _ in 0..d.saturating_sub(6) {
                    loads.add_radio(ChannelId(c));
                }
            }
            // At most a budget's worth of radios; zero picks is an empty row.
            let rows: Vec<Vec<SparseEntry>> = picks
                .iter()
                .zip(&budgets)
                .map(|(p, &k)| row_of(p.iter().copied().take(k as usize)))
                .collect();
            for &(c, t) in rows.iter().flatten() {
                for _ in 0..t {
                    loads.add_radio(ChannelId(c as usize));
                }
            }
            RowCase {
                game: ChurnGame::new(budgets, rates),
                loads,
                rows,
            }
        })
}

proptest! {
    /// The row kernel equals the lazy heap on every user's query: the
    /// same row and the same value bits, plus the user's exact utility.
    #[test]
    fn row_kernel_matches_heap_engine(case in row_case()) {
        let RowCase { game, loads, rows } = case;
        let mut engine = BrEngine::new(&game, &loads);
        prop_assert!(engine.is_heap(), "engine routing");
        let mut kernel = RowKernel::new(&game);
        for (u, own) in rows.iter().enumerate() {
            let uid = UserId(u);
            let (hb, hv) = engine.best_response(&game, own, &loads, uid);
            for (c, &l) in loads.as_slice().iter().enumerate() {
                if l > 0 {
                    kernel.push_cell(c as u32, l);
                }
            }
            let mut kb = Vec::new();
            let (ku, kv) = kernel.best_response_into(&game, own, game.radios_of(uid), &mut kb);
            prop_assert_eq!(&kb, &hb, "row, user {}", u);
            prop_assert_eq!(kv.to_bits(), hv.to_bits(), "value, user {}", u);
            // The current utility: Eq. 3's ascending-channel sum.
            let mut utility = 0.0;
            for &(c, t) in own {
                let cid = ChannelId(c as usize);
                utility += game.channel_payoff(cid, loads.load(cid) - t, t);
            }
            prop_assert_eq!(ku.to_bits(), utility.to_bits(), "utility, user {}", u);
        }
    }
}

/// A rate shift that reverses the zero-load order. Users 0–5 are
/// isolated and 6–11 form a path, so most picks come from channels
/// nobody nearby occupies, ranked by the zero-load order alone: after
/// `reprice_channel` the driver must replay a fresh driver on the
/// shifted game, in outcome, move trace and state.
#[test]
fn reprice_matches_a_fresh_driver_after_the_order_reverses() {
    let (n, k, c_n) = (12usize, 2u32, 6usize);
    let edges: Vec<(u32, u32)> = (6..11).map(|u| (u, u + 1)).collect();
    let descending: Vec<f64> = (0..c_n).map(|c| (c_n - c) as f64).collect();
    let mut game = SpatialGame::new(
        ChurnGame::new(vec![k; n], descending),
        ConflictGraph::from_edges(n, &edges),
    );
    let mut d = SpatialDynamics::new(&game, SparseStrategies::random_uniform(n, k, c_n, 7));
    assert!(d.run(&game, MAX_ROUNDS, None).0);
    let settled = d.state().clone();

    for c in 0..c_n {
        game.inner_mut().set_rate(ChannelId(c), (c + 1) as f64);
        d.reprice_channel(&game, ChannelId(c));
    }
    let mut trace = Vec::new();
    let outcome = d.run(&game, MAX_ROUNDS, Some(&mut trace));
    let mut fresh = SpatialDynamics::new(&game, settled);
    let mut fresh_trace = Vec::new();
    let fresh_outcome = fresh.run(&game, MAX_ROUNDS, Some(&mut fresh_trace));

    assert!(!trace.is_empty(), "the shift must move users");
    assert_eq!(outcome, fresh_outcome, "(converged, rounds)");
    assert_eq!(trace, fresh_trace, "move trace");
    assert_eq!(d.state(), fresh.state(), "state");
    assert!(is_nash_spatial(&game, d.state()));
}

/// The reference certifier: the dense oracle index, and each user's
/// query answered by `BrEngine` against its neighborhood row as a load
/// vector.
fn reference_nash_check(game: &SpatialGame<ChurnGame>, s: &SparseStrategies) -> NashCheck {
    let nbr = NbrIndex::dense_of(game.graph(), s);
    let mut gains = Vec::new();
    let mut witness = None;
    for u in UserId::all(s.n_users()) {
        let mut loads = ChannelLoads::zeros(s.n_channels());
        for (c, &l) in nbr.dense_row(u.0).iter().enumerate() {
            for _ in 0..l {
                loads.add_radio(ChannelId(c));
            }
        }
        let mut engine = BrEngine::new(game, &loads);
        let (br, after) = engine.best_response(game, s.row(u), &loads, u);
        let before = spatial_utility(game, s, &nbr, u);
        gains.push((after - before).max(0.0));
        if witness.is_none() && improves(before, after) {
            let mut counts = vec![0; s.n_channels()];
            for (c, t) in br {
                counts[c as usize] = t;
            }
            witness = Some((u, StrategyVector::from_counts(counts)));
        }
    }
    NashCheck { gains, witness }
}

fn assert_matches_reference(game: &SpatialGame<ChurnGame>, s: &SparseStrategies, at: &str) {
    let got = nash_check_spatial(game, s);
    let want = reference_nash_check(game, s);
    let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.gains), bits(&want.gains), "{at}: gains");
    assert_eq!(got.witness, want.witness, "{at}: witness");
}

/// Every radio of every user on a uniform random channel.
fn random_state(budgets: &[u32], c_n: usize, rng: &mut StdRng) -> SparseStrategies {
    let mut s = SparseStrategies::with_budgets(budgets, c_n);
    for (u, &k) in budgets.iter().enumerate() {
        let row = row_of((0..k).map(|_| rng.gen_range(0..c_n as u32)));
        s.set_row(UserId(u), &row);
    }
    s
}

/// `nash_check_spatial` equals the reference on random geometric games,
/// heap route and forced DP route, at a random start, after one round
/// and once settled. Channel counts span both of the row aggregation's
/// modes (a whole-scratch scan up to 32 channels, touched ids above).
#[test]
fn nash_check_spatial_matches_a_per_user_engine_reference() {
    for seed in 0..3u64 {
        for (n, side, range) in [(60usize, 8.0, 1.5), (150, 10.0, 2.0)] {
            let (graph, _) = ConflictGraph::random_geometric(n, side, range, seed);
            for c_n in [3usize, 8, 40] {
                let mut rng = StdRng::seed_from_u64(seed << 8 | c_n as u64);
                let rates: Vec<f64> = (0..c_n)
                    .map(|_| RATES[rng.gen_range(0..RATES.len())])
                    .collect();
                let budgets: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=3)).collect();
                let start = random_state(&budgets, c_n, &mut rng);
                for generic in [false, true] {
                    let mut inner = ChurnGame::new(budgets.clone(), rates.clone());
                    if generic {
                        inner = inner.force_generic_route();
                    }
                    let game = SpatialGame::new(inner, graph.clone());
                    let at = format!("seed {seed} n {n} |C| {c_n} generic {generic}");
                    assert_matches_reference(&game, &start, &format!("{at}, start"));
                    let mut d = SpatialDynamics::new(&game, start.clone());
                    assert_eq!(d.is_heap(), !generic, "{at}: routing");
                    d.round(&game, None);
                    assert_matches_reference(&game, d.state(), &format!("{at}, one round"));
                    assert!(d.run(&game, MAX_ROUNDS, None).0, "{at}: settles");
                    assert_matches_reference(&game, d.state(), &format!("{at}, settled"));
                }
            }
        }
    }
}
