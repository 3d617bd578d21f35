//! T11 — the spatial interference sweep: per-neighborhood load games on
//! geometric conflict graphs, measured where the paper's theorems end.
//!
//! The sweep crosses **density × conflict range × |C|** on seeded random
//! geometric graphs. Each cell settles a random start through the
//! spatial engine and records the *explicit outcome* (converged and
//! certified by [`nash_check_spatial`], outside the timed settle, or a
//! detected best-response cycle — never a silent round cap), the
//! potential-decrease count (how non-monotone the trajectory
//! was), and a welfare comparison against the greedy
//! [`ColoringAllocator`](mrca_baselines::ColoringAllocator) baseline:
//! per-user equilibrium rates vs the coloring allocation's implied
//! rates, with the dominated-user fraction reported per cell.
//!
//! The coloring baseline is recomputed here over the sparse
//! [`ConflictGraph`] with exactly the dense allocator's rule
//! (Welsh–Powell descending-degree order, `k` distinct least-used
//! channels, ties to the lowest index); small cells cross-check the
//! sparse recomputation against `mrca_baselines` bit-for-bit, which is
//! what lets the 10⁶-user smoke cell skip the `O(n²)` dense graph.
//!
//! Beyond the sweep, two standalone cells probe the scale axes
//! separately: a 10⁶-user geometric **smoke** cell (population) and a
//! `|C| = 512` **wide** cell (channel width). Every cell measures the
//! neighborhood index the driver held — dense or CSR rows, whichever
//! the build found smaller — against the dense `N·|C|` matrix
//! (`index_bytes` vs `index_dense_bytes`; `mem_ratio` is dense bytes
//! over held bytes, so ≥ 1 within the index's scratch means never
//! larger than dense).
//!
//! `t11_spatial` drives this and writes the per-cell
//! `results/t11_spatial.csv`, plus `results/BENCH_spatial.json` on a
//! full run; the CI `spatial-smoke` job gates both standalone cells —
//! convergence, certification of every converged cell, the smoke cell's
//! index at most dense size and the ≥8× wide-cell memory reduction —
//! through the `spatial:` summary line.

use mrca_core::churn::ChurnGame;
use mrca_core::spatial::{
    nash_check_spatial, spatial_utility, spatial_welfare, ConflictGraph, NbrIndex, SpatialDynamics,
    SpatialGame,
};
use mrca_core::{SparseStrategies, UserId};
use std::time::Instant;

/// Sweep configuration for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SpatialConfig {
    /// Users per unit area, one sweep axis.
    pub densities: Vec<f64>,
    /// Conflict (disk) ranges, one sweep axis.
    pub ranges: Vec<f64>,
    /// Channel counts, one sweep axis.
    pub channels: Vec<usize>,
    /// Square world side length for the sweep cells.
    pub side: f64,
    /// Radios per user.
    pub radios: u32,
    /// Base per-channel rate.
    pub rate: f64,
    /// Base seed (cells derive theirs from it).
    pub seed: u64,
    /// Round cap — only reached on a genuine stall, since cycles are
    /// detected explicitly.
    pub max_rounds: usize,
    /// Population of the standalone geometric smoke cell.
    pub smoke_users: usize,
    /// World side and conflict range of the smoke cell.
    pub smoke_side: f64,
    /// Conflict range of the smoke cell.
    pub smoke_range: f64,
    /// Channel count of the smoke cell.
    pub smoke_channels: usize,
    /// Population of the wide-channel (`|C| ≫ k`) memory cell.
    pub wide_users: usize,
    /// World side of the wide cell.
    pub wide_side: f64,
    /// Conflict range of the wide cell.
    pub wide_range: f64,
    /// Channel count of the wide cell — wide enough that the dense
    /// `N·|C|` index pays for every channel nobody occupies.
    pub wide_channels: usize,
}

impl SpatialConfig {
    /// The CI smoke shape: one small sweep cell, the 10⁶-user geometric
    /// cell, and the wide-channel memory cell.
    pub fn smoke() -> Self {
        SpatialConfig {
            densities: vec![1.0],
            ranges: vec![1.5],
            channels: vec![4],
            side: 20.0,
            radios: 2,
            rate: 1.0,
            seed: 2026,
            max_rounds: 20_000,
            smoke_users: 1_000_000,
            smoke_side: 3_162.0,
            smoke_range: 5.0,
            smoke_channels: 8,
            wide_users: 100_000,
            wide_side: 1_000.0,
            wide_range: 5.0,
            wide_channels: 512,
        }
    }

    /// The full sweep: 3 densities × 3 ranges × 2 channel counts.
    pub fn full() -> Self {
        SpatialConfig {
            densities: vec![0.25, 1.0, 4.0],
            ranges: vec![1.0, 2.0, 4.0],
            channels: vec![4, 8],
            side: 50.0,
            ..Self::smoke()
        }
    }
}

/// One settled sweep cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Population.
    pub n: usize,
    /// Users per unit area this cell was built at (0 for the smoke cell).
    pub density: f64,
    /// Conflict range.
    pub range: f64,
    /// Channel count.
    pub n_channels: usize,
    /// Mean conflict-graph degree.
    pub mean_degree: f64,
    /// Did the dynamics converge?
    pub converged: bool,
    /// Did [`nash_check_spatial`] certify the converged state a spatial
    /// Nash equilibrium? False when the run did not converge.
    pub certified: bool,
    /// Did the cycle detector fire instead?
    pub cycle: bool,
    /// Rounds to the outcome.
    pub rounds: usize,
    /// Total strategy switches.
    pub moves: u64,
    /// Moves that decreased the Rosenthal-style potential.
    pub potential_decreases: u64,
    /// Equilibrium welfare (sum of per-user spatial rates).
    pub welfare_eq: f64,
    /// Greedy-coloring welfare on the same graph.
    pub welfare_coloring: f64,
    /// Users whose equilibrium rate weakly dominates their coloring rate.
    pub dominated: usize,
    /// Heap bytes of the neighborhood-load index the driver actually
    /// held, in whichever layout its build picked.
    pub index_bytes: usize,
    /// Bytes the dense `N·|C|` matrix would hold for the same cell.
    pub index_dense_bytes: usize,
    /// Heap bytes of the conflict graph's CSR adjacency.
    pub graph_bytes: usize,
    /// Wall time for the settle.
    pub ms: f64,
    /// Wall time of the certifying Nash scan (0 when the run did not
    /// converge), outside [`ms`](Self::ms).
    pub certify_ms: f64,
}

impl CellReport {
    /// Dense bytes over held index bytes: how many times smaller the
    /// held index is than the dense `N·|C|` matrix (just under 1 when
    /// the build picked the dense layout, whose delta scratch counts).
    pub fn mem_ratio(&self) -> f64 {
        self.index_dense_bytes as f64 / self.index_bytes.max(1) as f64
    }
}

/// The sweep result `results/BENCH_spatial.json` carries.
#[derive(Debug, Clone)]
pub struct SpatialReport {
    /// Configuration the sweep ran under.
    pub cfg: SpatialConfig,
    /// Sweep cells in axis order.
    pub cells: Vec<CellReport>,
    /// The standalone large geometric smoke cell.
    pub smoke: CellReport,
    /// The wide-channel (`|C| ≫ k`) memory cell the index gate reads.
    pub wide: CellReport,
}

/// The dense [`mrca_baselines::ColoringAllocator`] rule recomputed over
/// the sparse graph: Welsh–Powell descending-degree order (stable ties),
/// each vertex takes `k` distinct channels least used by its
/// already-colored neighbors, ties to the lowest channel.
pub fn greedy_coloring(graph: &ConflictGraph, n_channels: usize, k: u32) -> SparseStrategies {
    let n = graph.n_vertices();
    let mut s = SparseStrategies::with_budgets(&vec![k; n], n_channels);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(graph.degree(i as u32)));
    let mut usage = vec![0u32; n_channels];
    let mut picks: Vec<usize> = Vec::with_capacity(n_channels);
    for &i in &order {
        usage.iter_mut().for_each(|u| *u = 0);
        for &j in graph.neighbors(i as u32) {
            for &(c, t) in s.row(UserId(j as usize)) {
                usage[c as usize] += t;
            }
        }
        picks.clear();
        picks.extend(0..n_channels);
        picks.sort_by_key(|&c| (usage[c], c));
        let mut row: Vec<(u32, u32)> = picks
            .iter()
            .take(k as usize)
            .map(|&c| (c as u32, 1))
            .collect();
        row.sort_unstable();
        s.set_row(UserId(i), &row);
    }
    s
}

/// Settle one cell and measure it. `density == 0.0` marks the smoke
/// cell in the report.
pub fn run_cell(
    cfg: &SpatialConfig,
    n: usize,
    density: f64,
    side: f64,
    range: f64,
    n_channels: usize,
    seed: u64,
) -> CellReport {
    let (graph, _) = ConflictGraph::random_geometric(n, side, range, seed);
    let mean_degree = if n == 0 {
        0.0
    } else {
        2.0 * graph.n_edges() as f64 / n as f64
    };
    let game = SpatialGame::new(
        ChurnGame::uniform(n, cfg.radios, n_channels, cfg.rate),
        graph,
    );
    let start = SparseStrategies::random_uniform(n, cfg.radios, n_channels, seed ^ 0x5EED);

    let t0 = Instant::now();
    let mut d = SpatialDynamics::new(&game, start);
    let (converged, rounds) = d.run(&game, cfg.max_rounds, None);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let certified = converged && nash_check_spatial(&game, d.state()).is_nash();
    let certify_ms = if converged {
        t1.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    let (moves, decreases, cycle) = (
        d.counters().moves,
        d.potential().decreases(),
        d.cycle_detected(),
    );
    let (index_bytes, index_dense_bytes) = (
        d.neighborhood_loads().heap_bytes(),
        d.neighborhood_loads().dense_bytes(),
    );
    let state = d.into_state();
    let graph_bytes = game.graph().heap_bytes();

    // Welfare and per-user domination vs the greedy coloring baseline.
    // Both comparison indices come from the serving builder too — at the
    // wide cell a forced dense pair would cost 2·N·|C|·4 bytes just to
    // score the outcome.
    let coloring = greedy_coloring(game.graph(), n_channels, cfg.radios);
    let nbr_eq = NbrIndex::sparse_of(game.graph(), &state);
    let nbr_col = NbrIndex::sparse_of(game.graph(), &coloring);
    let welfare_eq = spatial_welfare(&game, &state, &nbr_eq);
    let welfare_coloring = spatial_welfare(&game, &coloring, &nbr_col);
    let mut dominated = 0usize;
    for u in 0..n {
        let eq = spatial_utility(&game, &state, &nbr_eq, UserId(u));
        let col = spatial_utility(&game, &coloring, &nbr_col, UserId(u));
        if eq >= col - 1e-9 * col.abs().max(1.0) {
            dominated += 1;
        }
    }

    CellReport {
        n,
        density,
        range,
        n_channels,
        mean_degree,
        converged,
        certified,
        cycle,
        rounds,
        moves,
        potential_decreases: decreases,
        welfare_eq,
        welfare_coloring,
        dominated,
        index_bytes,
        index_dense_bytes,
        graph_bytes,
        ms,
        certify_ms,
    }
}

/// Run the full density × range × |C| sweep plus the large smoke cell.
pub fn run_sweep(cfg: &SpatialConfig) -> SpatialReport {
    let mut cells = Vec::new();
    for (di, &density) in cfg.densities.iter().enumerate() {
        for (ri, &range) in cfg.ranges.iter().enumerate() {
            for (ci, &n_channels) in cfg.channels.iter().enumerate() {
                let n = ((density * cfg.side * cfg.side).round() as usize).max(4);
                let seed = cfg
                    .seed
                    .wrapping_add((di as u64) << 16 | (ri as u64) << 8 | ci as u64);
                let cell = run_cell(cfg, n, density, cfg.side, range, n_channels, seed);
                println!(
                    "cell n={:<6} density={:<5} range={:<4} C={:<3} deg={:<7.2} \
                     {} rounds={} moves={} phi_dec={} eq/col welfare {:.1}/{:.1} \
                     dominated {}/{} ({:.0} ms)",
                    cell.n,
                    density,
                    range,
                    n_channels,
                    cell.mean_degree,
                    if cell.converged {
                        "converged"
                    } else if cell.cycle {
                        "CYCLE"
                    } else {
                        "UNRESOLVED"
                    },
                    cell.rounds,
                    cell.moves,
                    cell.potential_decreases,
                    cell.welfare_eq,
                    cell.welfare_coloring,
                    cell.dominated,
                    cell.n,
                    cell.ms,
                );
                cells.push(cell);
            }
        }
    }

    println!(
        "wide cell: {} users, side {}, range {}, C={} ...",
        cfg.wide_users, cfg.wide_side, cfg.wide_range, cfg.wide_channels
    );
    let wide = run_cell(
        cfg,
        cfg.wide_users,
        0.0,
        cfg.wide_side,
        cfg.wide_range,
        cfg.wide_channels,
        cfg.seed ^ 0x31DE,
    );
    println!(
        "wide: deg={:.2} {} rounds={} moves={} index {} B vs dense {} B \
         ({:.1}x) ({:.0} ms)",
        wide.mean_degree,
        if wide.converged {
            "converged"
        } else {
            "NOT CONVERGED"
        },
        wide.rounds,
        wide.moves,
        wide.index_bytes,
        wide.index_dense_bytes,
        wide.mem_ratio(),
        wide.ms,
    );

    println!(
        "smoke cell: {} users, side {}, range {}, C={} ...",
        cfg.smoke_users, cfg.smoke_side, cfg.smoke_range, cfg.smoke_channels
    );
    let smoke = run_cell(
        cfg,
        cfg.smoke_users,
        0.0,
        cfg.smoke_side,
        cfg.smoke_range,
        cfg.smoke_channels,
        cfg.seed ^ 0x5100E,
    );
    println!(
        "smoke: deg={:.2} {} rounds={} moves={} ({:.0} ms, certified in {:.0} ms)",
        smoke.mean_degree,
        if smoke.converged {
            "converged"
        } else {
            "NOT CONVERGED"
        },
        smoke.rounds,
        smoke.moves,
        smoke.ms,
        smoke.certify_ms,
    );
    SpatialReport {
        cfg: cfg.clone(),
        cells,
        smoke,
        wide,
    }
}

impl CellReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"n\": {}, \"density\": {}, \"range\": {}, \"n_channels\": {}, \
             \"mean_degree\": {:.3}, \"converged\": {}, \"certified\": {}, \"cycle\": {}, \
             \"rounds\": {}, \"moves\": {}, \"potential_decreases\": {}, \
             \"welfare_eq\": {:.6}, \"welfare_coloring\": {:.6}, \
             \"dominated\": {}, \"index_bytes\": {}, \"index_dense_bytes\": {}, \
             \"graph_bytes\": {}, \"mem_ratio\": {:.2}, \"ms\": {:.1}, \"certify_ms\": {:.1}}}",
            self.n,
            self.density,
            self.range,
            self.n_channels,
            self.mean_degree,
            self.converged,
            self.certified,
            self.cycle,
            self.rounds,
            self.moves,
            self.potential_decreases,
            self.welfare_eq,
            self.welfare_coloring,
            self.dominated,
            self.index_bytes,
            self.index_dense_bytes,
            self.graph_bytes,
            self.mem_ratio(),
            self.ms,
            self.certify_ms,
        )
    }
}

impl SpatialReport {
    /// Cells that ended at the round cap with no detected cycle — the
    /// one outcome the engine promises not to produce silently; the bin
    /// and the CI gate both require zero.
    pub fn unresolved(&self) -> usize {
        self.cells
            .iter()
            .chain([&self.smoke, &self.wide])
            .filter(|c| !c.converged && !c.cycle)
            .count()
    }

    /// Converged cells the Nash scan did not certify — a converged run
    /// that is not an equilibrium is an engine bug; the bin and the CI
    /// gate both require zero.
    pub fn uncertified(&self) -> usize {
        self.cells
            .iter()
            .chain([&self.smoke, &self.wide])
            .filter(|c| c.converged && !c.certified)
            .count()
    }

    /// Detected cycles across all cells (reported, not forbidden).
    pub fn cycles(&self) -> usize {
        self.cells
            .iter()
            .chain([&self.smoke, &self.wide])
            .filter(|c| c.cycle)
            .count()
    }

    /// Hand-rolled JSON (the offline build has no `serde_json`) — the
    /// schema `results/BENCH_spatial.json` carries.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(|c| c.to_json()).collect();
        format!(
            "{{\"bench\": \"t11_spatial\", \"radios\": {}, \"seed\": {}, \
             \"cells\": [{}], \"smoke\": {}, \"wide\": {}}}\n",
            self.cfg.radios,
            self.cfg.seed,
            cells.join(", "),
            self.smoke.to_json(),
            self.wide.to_json(),
        )
    }
}

/// Small-cell cross-check used by tests: the sparse greedy coloring is
/// bit-identical to the dense `mrca_baselines` allocator.
pub fn coloring_matches_baselines(n: usize, side: f64, range: f64, seed: u64) -> bool {
    use mrca_baselines::Allocator;
    let (dense, positions) = mrca_baselines::ConflictGraph::random_geometric(n, side, range, seed);
    let graph = ConflictGraph::geometric(&positions, range);
    let cfg = mrca_core::GameConfig::new(n, 2, 4).unwrap();
    let flat = mrca_core::ChannelAllocationGame::with_constant_rate(cfg, 1.0);
    let dense_alloc = mrca_baselines::ColoringAllocator::new(dense).allocate(&flat, seed);
    let sparse_alloc = greedy_coloring(&graph, 4, 2);
    (0..n).all(|u| {
        (0..4).all(|c| {
            dense_alloc.get(UserId(u), mrca_core::ChannelId(c))
                == sparse_alloc
                    .row(UserId(u))
                    .iter()
                    .find(|&&(cc, _)| cc == c as u32)
                    .map_or(0, |&(_, t)| t)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_coloring_matches_dense_baseline() {
        for seed in 0..6u64 {
            assert!(
                coloring_matches_baselines(40, 8.0, 1.0 + 0.5 * seed as f64, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn smoke_config_cells_resolve() {
        let mut cfg = SpatialConfig::smoke();
        cfg.smoke_users = 500;
        cfg.smoke_side = 50.0;
        cfg.wide_users = 300;
        cfg.wide_side = 60.0;
        let report = run_sweep(&cfg);
        assert_eq!(report.unresolved(), 0);
        assert_eq!(report.uncertified(), 0);
        assert!(report.smoke.certified && report.wide.certified);
        assert!(report.smoke.converged);
        assert!(report.wide.converged);
        // The memory accounting is live: nonzero index and graph bytes,
        // and the wide cell's CSR index beats its dense equivalent.
        assert!(report.smoke.index_bytes > 0 && report.smoke.graph_bytes > 0);
        assert!(report.wide.index_bytes > 0 && report.wide.graph_bytes > 0);
        assert!(report.wide.mem_ratio() > 1.0);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"t11_spatial\""));
        assert!(json.contains("\"smoke\""));
        assert!(json.contains("\"wide\""));
        assert!(json.contains("\"mem_ratio\""));
    }
}
