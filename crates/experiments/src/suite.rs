//! `ScenarioSuite` — the parallel scenario-sweep runner.
//!
//! Every experiment in this crate is, at heart, the same loop: build a
//! game for each cell of a `(|N|, k, |C|, rate model, ordering)` grid,
//! drive it (Algorithm 1 and/or dynamics), measure, and tabulate. This
//! module factors that loop out once, with:
//!
//! * **declarative grids** — [`ScenarioGrid`] takes the axis values and
//!   produces the cross product of valid cells (`k ≤ |C|` enforced);
//! * **parallel execution** — cells run concurrently on all cores via a
//!   work-stealing index loop over `std::thread::scope` (no external
//!   dependency; the build environment is offline);
//! * **deterministic per-cell seeds** — each cell's RNG seed is derived
//!   from the suite seed and the cell's *contents* `(n, k, |C|, rate,
//!   ordering)` with an FNV-1a/SplitMix64 hash, so two runs of the same
//!   suite are bit-identical and growing or reordering any grid axis
//!   never perturbs the seeds of pre-existing cells (pinned by tests);
//! * **CSV / JSON output** — [`SuiteReport`] renders both formats with
//!   rows in grid order regardless of completion order.
//!
//! The standard evaluator ([`ScenarioSuite::run`]) plays the paper's
//! pipeline per cell — Algorithm 1, then best-response dynamics from a
//! random start — and records equilibrium, balance, welfare and
//! convergence metrics. Experiments with bespoke per-cell logic (T1's
//! exhaustive enumeration, T6's protocol sweep, …) reuse the grid,
//! seeding, parallelism and output layers through
//! [`ScenarioSuite::run_with`].

use crate::table::Table;
use mrca_core::algorithm::{algorithm1, Ordering, TieBreak};
use mrca_core::br_dp::{is_nash, welfare_from_loads};
use mrca_core::br_fast;
use mrca_core::dynamics::{random_start, BestResponseDriver, Schedule};
use mrca_core::heterogeneous::HeteroGame;
use mrca_core::nash::theorem1;
use mrca_core::par;
use mrca_core::rate_model::{
    ConstantRate, ExponentialDecayRate, LinearDecayRate, RateModel, ScaledRate,
};
use mrca_core::sparse::SparseStrategies;
use mrca_core::{ChannelAllocationGame, ChannelLoads, GameConfig};
use mrca_mac::{
    FixedAlohaRate, HarvestConfig, OptimalCsmaRate, PhyParams, PracticalDcfRate, RateHarvester,
    TdmaRate,
};
use std::sync::Arc;

/// Rate-model axis of a scenario grid: a constructible *description* of a
/// [`RateModel`], so cells stay `Send + Sync + Clone` and each worker can
/// materialize its own table (the Bianchi-based models precompute their
/// curves up to the cell's maximum load).
#[derive(Debug, Clone, PartialEq)]
pub enum RateSpec {
    /// Constant `R(k) = 1` (the paper's idealized TDMA, all figures).
    ConstantUnit,
    /// Linear decay `max(floor, r1 − slope·(k−1))`.
    LinearDecay {
        /// Rate at `k = 1`.
        r1: f64,
        /// Decay per additional radio.
        slope: f64,
        /// Positive floor.
        floor: f64,
    },
    /// Geometric decay `r1 · factor^(k−1)`.
    ExpDecay {
        /// Rate at `k = 1`.
        r1: f64,
        /// Factor in `(0, 1]`.
        factor: f64,
    },
    /// Reservation TDMA from the Bianchi FHSS PHY (flat, realistic bps).
    Tdma,
    /// 802.11 DCF with standard windows — Bianchi's saturation throughput
    /// (the paper's "practical CSMA/CA" Figure-3 curve).
    Bianchi,
    /// DCF with per-population optimal contention windows (the paper's
    /// "optimal CSMA/CA" curve).
    OptimalCsma,
    /// Slotted Aloha with fixed transmission probability.
    Aloha {
        /// Per-slot transmission probability.
        p: f64,
    },
    /// Constant `R(k) = bps` (reservation TDMA at an explicit bitrate).
    Constant {
        /// Rate in bit/s.
        bps: f64,
    },
    /// Steep cliff `R(1) = r1, R(k ≥ 2) = rest` — the documented
    /// Theorem-2 boundary case.
    Cliff {
        /// Rate of a private channel.
        r1: f64,
        /// Rate once shared.
        rest: f64,
    },
    /// Harvested `R(k)` table from a slot-level MAC simulator (the
    /// harvest → classify route, `mrca_mac::harvest`). The cell carries
    /// the harvest *parameters*, not the table: each worker re-runs the
    /// seeded harvest and materializes an identical
    /// `mrca_core::rate_model::MeasuredRate`, so cells stay cheap to
    /// clone and the suite's determinism contract holds.
    Measured {
        /// Which simulator feeds the table.
        sim: MeasuredSim,
        /// Independent repetitions per occupancy (CI sample size).
        reps: u32,
        /// Simulated events (DCF) or slots (Aloha) per repetition.
        events: u64,
        /// Root seed of the harvest.
        base_seed: u64,
    },
}

/// Simulator axis of [`RateSpec::Measured`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasuredSim {
    /// Slot-level 802.11 DCF Monte-Carlo (`mrca_mac::sim_dcf`) on the
    /// Bianchi FHSS PHY — the measured twin of [`RateSpec::Bianchi`].
    Dcf,
    /// Slotted-Aloha success simulation at the per-`k` optimal
    /// transmission probability — the measured twin of an optimal-Aloha
    /// analytic curve.
    Aloha,
}

impl RateSpec {
    /// Short name for tables/CSV.
    pub fn name(&self) -> String {
        match self {
            RateSpec::ConstantUnit => "constant".into(),
            RateSpec::LinearDecay { r1, slope, floor } => {
                format!("linear(r1={r1};slope={slope};floor={floor})")
            }
            RateSpec::ExpDecay { r1, factor } => format!("expdecay(r1={r1};f={factor})"),
            RateSpec::Tdma => "tdma".into(),
            RateSpec::Bianchi => "bianchi-dcf".into(),
            RateSpec::OptimalCsma => "optimal-csma".into(),
            RateSpec::Aloha { p } => format!("aloha(p={p})"),
            RateSpec::Constant { bps } => format!("constant({bps})"),
            RateSpec::Cliff { r1, rest } => format!("cliff({r1};{rest})"),
            RateSpec::Measured {
                sim, reps, events, ..
            } => {
                let sim = match sim {
                    MeasuredSim::Dcf => "dcf",
                    MeasuredSim::Aloha => "aloha",
                };
                format!("measured-{sim}(reps={reps};events={events})")
            }
        }
    }

    /// Materialize the rate model; table-driven models precompute up to
    /// `max_load` (the cell's `|N|·k`).
    pub fn build(&self, max_load: u32) -> Arc<dyn RateModel> {
        let max_k = max_load.max(1);
        match *self {
            RateSpec::ConstantUnit => Arc::new(ConstantRate::unit()),
            RateSpec::LinearDecay { r1, slope, floor } => {
                Arc::new(LinearDecayRate::new(r1, slope, floor))
            }
            RateSpec::ExpDecay { r1, factor } => Arc::new(ExponentialDecayRate::new(r1, factor)),
            RateSpec::Tdma => Arc::new(TdmaRate::from_phy(&PhyParams::bianchi_fhss())),
            RateSpec::Bianchi => Arc::new(PracticalDcfRate::new(PhyParams::bianchi_fhss(), max_k)),
            RateSpec::OptimalCsma => {
                Arc::new(OptimalCsmaRate::new(PhyParams::bianchi_fhss(), max_k))
            }
            RateSpec::Aloha { p } => Arc::new(FixedAlohaRate::new(1e6, p, max_k)),
            RateSpec::Constant { bps } => Arc::new(ConstantRate::new(bps)),
            // The table is exactly `max(max_k, 1)` entries — `r1` then
            // `rest` repeated — like every other table-driven spec. The
            // old `max_k.max(2) - 1` repeat count produced a 2-entry
            // table at `max_k == 1`, i.e. a rate defined past the cell's
            // maximum load instead of the documented length-`max_k`
            // table (`max_k` is already clamped to ≥ 1 above).
            RateSpec::Cliff { r1, rest } => Arc::new(mrca_core::rate_model::StepRate::new(
                format!("cliff({r1};{rest})"),
                std::iter::once(r1)
                    .chain(std::iter::repeat_n(rest, max_k as usize - 1))
                    .collect(),
            )),
            RateSpec::Measured {
                sim,
                reps,
                events,
                base_seed,
            } => {
                let harvester = RateHarvester::new(HarvestConfig {
                    max_k,
                    reps,
                    events,
                    base_seed,
                });
                let table = match sim {
                    MeasuredSim::Dcf => {
                        harvester.harvest_dcf(&PhyParams::bianchi_fhss(), "measured-dcf")
                    }
                    MeasuredSim::Aloha => harvester.harvest_aloha(1e6, "measured-aloha"),
                };
                Arc::new(table.to_rate())
            }
        }
    }
}

/// Ordering axis: how Algorithm 1 sequences users in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingSpec {
    /// Natural user order, lowest-index tie-break (the literal reading).
    Natural,
    /// Natural order with the `PreferUnused` repair.
    PreferUnused,
    /// Random permutation and random tie-breaks from the cell seed.
    Seeded,
}

impl OrderingSpec {
    /// Short name for tables/CSV.
    pub fn name(&self) -> &'static str {
        match self {
            OrderingSpec::Natural => "natural",
            OrderingSpec::PreferUnused => "prefer-unused",
            OrderingSpec::Seeded => "seeded",
        }
    }

    /// Concrete [`Ordering`] for a cell.
    pub fn build(&self, n_users: usize, seed: u64) -> Ordering {
        match self {
            OrderingSpec::Natural => Ordering::default(),
            OrderingSpec::PreferUnused => Ordering::with_tie_break(TieBreak::PreferUnused),
            OrderingSpec::Seeded => Ordering::random(seed, n_users),
        }
    }
}

/// One cell of a scenario grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Users `|N|`.
    pub n_users: usize,
    /// Radios per user `k`.
    pub radios: u32,
    /// Channels `|C|`.
    pub n_channels: usize,
    /// Rate-model description.
    pub rate: RateSpec,
    /// Algorithm-1 ordering policy.
    pub ordering: OrderingSpec,
    /// Deterministic seed derived from the suite seed and grid position.
    pub seed: u64,
}

impl ScenarioCell {
    /// The cell's game configuration.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are invalid (the grid constructor filters
    /// them, so this only fires on hand-built cells).
    pub fn config(&self) -> GameConfig {
        GameConfig::new(self.n_users, self.radios, self.n_channels)
            .expect("grid guarantees valid dimensions")
    }

    /// Materialize the cell's game.
    pub fn game(&self) -> ChannelAllocationGame {
        let cfg = self.config();
        ChannelAllocationGame::new(cfg, self.rate.build(cfg.total_radios()))
    }

    /// Instance label `N=..,k=..,C=..`.
    pub fn instance(&self) -> String {
        format!("N={},k={},C={}", self.n_users, self.radios, self.n_channels)
    }

    /// Canonical cell id ([`cell_label`]): the content-derived label the
    /// seed hashes and the shard planner partitions on, so shard
    /// membership is as stable under grid growth as the seed itself.
    pub fn canonical_id(&self) -> String {
        cell_label(
            self.n_users,
            self.radios,
            self.n_channels,
            &self.rate,
            self.ordering,
        )
    }
}

/// Declarative `(n, k, |C|, rate, ordering)` grid.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// Values of `|N|`.
    pub n_users: Vec<usize>,
    /// Values of `k`.
    pub radios: Vec<u32>,
    /// Values of `|C|`.
    pub n_channels: Vec<usize>,
    /// Rate models to cross with the dimensions.
    pub rates: Vec<RateSpec>,
    /// Ordering policies to cross in.
    pub orderings: Vec<OrderingSpec>,
}

impl ScenarioGrid {
    /// Expand into cells (skipping invalid `k > |C|` combinations), with
    /// per-cell seeds derived from `suite_seed` and each cell's contents
    /// (see [`cell_seed`]).
    pub fn cells(&self, suite_seed: u64) -> Vec<ScenarioCell> {
        let mut out = Vec::new();
        for &n in &self.n_users {
            for &k in &self.radios {
                for &c in &self.n_channels {
                    for rate in &self.rates {
                        for &ordering in &self.orderings {
                            if GameConfig::new(n, k, c).is_err() {
                                continue;
                            }
                            out.push(ScenarioCell {
                                n_users: n,
                                radios: k,
                                n_channels: c,
                                rate: rate.clone(),
                                ordering,
                                seed: cell_seed(suite_seed, n, k, c, rate, ordering),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// FNV-1a over a label — the one label-hash primitive behind
/// [`cell_seed`], [`extended_cell_seed`] and shard ownership
/// ([`crate::shard::ShardSpec::owns`]). Extracted because the copy-pasted
/// inline versions had started to drift.
pub fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Join label components with `|`, escaping `\` and `|` inside each
/// component (`\\` and `\|`) first. The naive `|`-join aliased: with axis
/// names containing `|`, `["a|b", "c"]` and `["a", "b|c"]` produced the
/// same label and therefore the same cell seed. None of the built-in axis
/// names contain `|` or `\`, so every existing seed is unchanged.
pub fn join_label<S: AsRef<str>>(parts: &[S]) -> String {
    parts
        .iter()
        .map(|p| p.as_ref().replace('\\', "\\\\").replace('|', "\\|"))
        .collect::<Vec<_>>()
        .join("|")
}

/// Canonical id of a `(n, k, |C|, rate, ordering)` cell — the label both
/// [`cell_seed`] hashes and the shard planner partitions on.
pub fn cell_label(n: usize, k: u32, c: usize, rate: &RateSpec, ordering: OrderingSpec) -> String {
    join_label(&[
        n.to_string(),
        k.to_string(),
        c.to_string(),
        rate.name(),
        ordering.name().to_string(),
    ])
}

/// Per-cell seed derived from the suite seed and the cell's *contents*
/// (never its grid position): growing, shrinking or reordering axes
/// leaves every surviving cell's seed unchanged. Listing the exact same
/// `(n, k, |C|, rate, ordering)` cell twice yields the same seed — the
/// duplicate is a duplicate measurement by construction.
pub fn cell_seed(
    suite_seed: u64,
    n: usize,
    k: u32,
    c: usize,
    rate: &RateSpec,
    ordering: OrderingSpec,
) -> u64 {
    // FNV-1a over the cell's canonical label, then the same SplitMix64
    // finalizer as `derive_seed`.
    derive_seed(suite_seed, fnv1a(&cell_label(n, k, c, rate, ordering)))
}

/// SplitMix64-finalized seed mixer: decorrelated, stable, and independent
/// of thread scheduling. Used to derive sub-seeds (per repetition, per
/// activation probability, …) from a cell seed; [`cell_seed`] builds the
/// cell seed itself from the cell's contents.
pub fn derive_seed(suite_seed: u64, index: u64) -> u64 {
    let mut z = suite_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of the standard per-cell pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The evaluated cell.
    pub cell: ScenarioCell,
    /// Algorithm 1 output is a NE (exact check).
    pub algo1_nash: bool,
    /// Algorithm 1 output certified by Theorem 1.
    pub algo1_theorem1: bool,
    /// Algorithm 1 output max load delta.
    pub algo1_delta: u32,
    /// Best-response dynamics converged within the round cap.
    pub br_converged: bool,
    /// Rounds the dynamics took.
    pub br_rounds: usize,
    /// Final state of the dynamics is a NE.
    pub br_nash: bool,
    /// Welfare of the dynamics' final state.
    pub br_welfare: f64,
    /// Welfare of the dynamics' start (for the improvement column).
    pub start_welfare: f64,
}

/// A finished sweep: cells in grid order plus the column layout.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Column headers.
    pub headers: Vec<String>,
    /// One row per cell (grid order, not completion order).
    pub rows: Vec<Vec<String>>,
    /// Suite name (used in file names).
    pub name: String,
}

impl SuiteReport {
    /// Render as CSV (deterministic given deterministic rows).
    pub fn to_csv(&self) -> String {
        let mut t = Table::new(&self.headers.iter().map(String::as_str).collect::<Vec<_>>());
        for row in &self.rows {
            t.row(row);
        }
        t.to_csv()
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut t = Table::new(&self.headers.iter().map(String::as_str).collect::<Vec<_>>());
        for row in &self.rows {
            t.row(row);
        }
        t.to_text()
    }

    /// Render as a JSON array of objects (hand-rolled: the offline build
    /// has no serde_json; strings are escaped, numbers/bools pass through
    /// when they parse as such).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (j, (h, v)) in self.headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(h), json_value(v)));
            }
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// True when `s` is a number per the JSON grammar (RFC 8259 §6) — what a
/// bare literal must satisfy. Stricter than `str::parse`: rejects leading
/// zeros ("05"), a leading '+', and bare/trailing dots (".5", "1.") that
/// Rust parses but strict JSON parsers reject.
fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(c) if c.is_ascii_digit() => {
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        }
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        let frac = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac {
            return false;
        }
    }
    if matches!(b.get(i), Some(b'e') | Some(b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+') | Some(b'-')) {
            i += 1;
        }
        let exp = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp {
            return false;
        }
    }
    i == b.len()
}

/// Emit bare JSON literals for cells that are booleans or valid JSON
/// numbers; everything else is quoted. Integers outside the IEEE-754
/// exact range (|x| > 2⁵³, e.g. the 64-bit cell seeds) are quoted too: a
/// bare literal would silently lose precision in any double-based JSON
/// parser. Non-finite magnitudes ("1e999") are quoted for the same
/// reason parsers disagree on them.
fn json_value(v: &str) -> String {
    if v == "true" || v == "false" {
        return v.to_string();
    }
    if !is_json_number(v) {
        return json_string(v);
    }
    if let Ok(i) = v.parse::<i128>() {
        const EXACT: i128 = 1 << 53;
        if !(-EXACT..=EXACT).contains(&i) {
            return json_string(v);
        }
    } else if v.parse::<f64>().map(f64::is_finite) != Ok(true) {
        return json_string(v);
    }
    v.to_string()
}

/// The sweep runner: a named grid plus execution knobs.
#[derive(Debug, Clone)]
pub struct ScenarioSuite {
    /// Suite name (file-name stem for results).
    pub name: String,
    /// The expanded cells.
    pub cells: Vec<ScenarioCell>,
    /// Round cap for the dynamics in the standard evaluator.
    pub max_rounds: usize,
}

impl ScenarioSuite {
    /// Build a suite from a grid with the given suite seed.
    pub fn new(name: impl Into<String>, grid: &ScenarioGrid, suite_seed: u64) -> Self {
        ScenarioSuite {
            name: name.into(),
            cells: grid.cells(suite_seed),
            max_rounds: 500,
        }
    }

    /// Build a suite from an explicit `(n, k, |C|)` instance list crossed
    /// with rate models and orderings — for experiments whose instance
    /// sets are curated rather than a full cross product. Seeds derive
    /// from `suite_seed` and each cell's contents exactly like grid cells
    /// ([`cell_seed`]), so reordering the list never shifts seeds — and a
    /// duplicated instance reproduces the identical row rather than acting
    /// as an independent repetition.
    pub fn from_instances(
        name: impl Into<String>,
        instances: &[(usize, u32, usize)],
        rates: &[RateSpec],
        orderings: &[OrderingSpec],
        suite_seed: u64,
    ) -> Self {
        let mut cells = Vec::new();
        for &(n, k, c) in instances {
            for rate in rates {
                for &ordering in orderings {
                    if GameConfig::new(n, k, c).is_err() {
                        continue;
                    }
                    cells.push(ScenarioCell {
                        n_users: n,
                        radios: k,
                        n_channels: c,
                        rate: rate.clone(),
                        ordering,
                        seed: cell_seed(suite_seed, n, k, c, rate, ordering),
                    });
                }
            }
        }
        ScenarioSuite {
            name: name.into(),
            cells,
            max_rounds: 500,
        }
    }

    /// Override the dynamics round cap.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Column layout of the standard pipeline's report.
    pub fn standard_headers() -> Vec<String> {
        [
            "instance",
            "rate",
            "ordering",
            "seed",
            "algo1_nash",
            "algo1_thm1",
            "algo1_delta",
            "br_converged",
            "br_rounds",
            "br_nash",
            "br_welfare",
            "start_welfare",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Render one outcome as a report row (the single formatting path
    /// shared by [`run`](ScenarioSuite::run) and the sharded runner, so a
    /// merged multi-shard sweep is byte-identical to a single-process
    /// one).
    pub fn outcome_row(o: &CellOutcome) -> Vec<String> {
        vec![
            o.cell.instance(),
            o.cell.rate.name(),
            o.cell.ordering.name().to_string(),
            o.cell.seed.to_string(),
            o.algo1_nash.to_string(),
            o.algo1_theorem1.to_string(),
            o.algo1_delta.to_string(),
            o.br_converged.to_string(),
            o.br_rounds.to_string(),
            o.br_nash.to_string(),
            format!("{:.6e}", o.br_welfare),
            format!("{:.6e}", o.start_welfare),
        ]
    }

    /// Run the standard pipeline over every cell, in parallel, and return
    /// the outcomes in grid order.
    pub fn run(&self) -> (Vec<CellOutcome>, SuiteReport) {
        let max_rounds = self.max_rounds;
        let outcomes = parallel_map(&self.cells, |cell| evaluate_cell(cell, max_rounds));
        let rows = outcomes.iter().map(Self::outcome_row).collect();
        let report = SuiteReport {
            headers: Self::standard_headers(),
            rows,
            name: self.name.clone(),
        };
        (outcomes, report)
    }

    /// Run only this shard's cells (ownership by canonical cell id, so
    /// the partition is independent of grid order), streaming each
    /// finished row — prefixed with its canonical `cell_index` — to
    /// `results/<name>.shard<i>of<m>.csv`, resuming any valid prefix an
    /// interrupted run left behind and reporting progress/ETA. The
    /// returned report carries the shard's rows (recovered + computed) in
    /// canonical order; [`crate::merge::merge_files`] recombines the `m`
    /// shard files into the canonical single-process report.
    pub fn run_sharded(&self, shard: &crate::shard::ShardSpec) -> SuiteReport {
        let max_rounds = self.max_rounds;
        crate::shard::run_sharded_streaming(
            &self.name,
            &Self::standard_headers(),
            &self.cells,
            shard,
            crate::shard::Parallelism::FullCores,
            |c| c.canonical_id(),
            // The row columns that are pure functions of the cell —
            // including the content-derived seed, so resuming over a
            // file from a different suite seed fails loudly.
            |c| {
                vec![
                    c.instance(),
                    c.rate.name(),
                    c.ordering.name().to_string(),
                    c.seed.to_string(),
                ]
            },
            |c| Self::outcome_row(&evaluate_cell(c, max_rounds)),
        )
    }

    /// Run a custom evaluator over every cell in parallel. `headers`
    /// names the columns; the evaluator returns any number of rows per
    /// cell (e.g. one per sub-seed or activation probability). Rows keep
    /// grid order.
    pub fn run_with<F>(&self, headers: &[&str], eval: F) -> SuiteReport
    where
        F: Fn(&ScenarioCell) -> Vec<Vec<String>> + Sync,
    {
        let per_cell = parallel_map(&self.cells, |cell| eval(cell));
        SuiteReport {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: per_cell.into_iter().flatten().collect(),
            name: self.name.clone(),
        }
    }
}

/// The standard per-cell pipeline: Algorithm 1 (checked both ways), then
/// best-response dynamics from a seeded random start — the dynamics and
/// the final Nash verdict run on the sparse large-N engine
/// ([`BestResponseDriver::run_sparse`]: the active-set worklist over the
/// heap for separable-monotone rates, the incremental DP otherwise), so
/// the suite exercises exactly the code path `t9_scale` scales up.
fn evaluate_cell(cell: &ScenarioCell, max_rounds: usize) -> CellOutcome {
    let game = cell.game();
    // Decorrelate the three RNG consumers: seeding ordering, start matrix
    // and update schedule with the same raw u64 would make them identical
    // SplitMix64 streams (the "random" schedule a deterministic function
    // of the "random" start).
    let ordering = cell.ordering.build(cell.n_users, derive_seed(cell.seed, 0));
    let algo1 = algorithm1(&game, &ordering);
    let start = random_start(&game, derive_seed(cell.seed, 1));
    let start_welfare = welfare_from_loads(&game, start.loads());
    let out = BestResponseDriver::new(Schedule::RandomPermutation {
        seed: derive_seed(cell.seed, 2),
    })
    .run_sparse(
        &game,
        SparseStrategies::from_matrix(&game, &start),
        max_rounds,
    );
    CellOutcome {
        algo1_nash: is_nash(&game, &algo1),
        algo1_theorem1: theorem1(&game, &algo1).is_nash(),
        algo1_delta: algo1.max_delta(),
        br_converged: out.converged,
        br_rounds: out.rounds,
        br_nash: br_fast::nash_check_sparse(&game, &out.strategies).is_nash(),
        br_welfare: welfare_from_loads(&game, ChannelLoads::of_sparse(&out.strategies).as_slice()),
        start_welfare,
        cell: cell.clone(),
    }
}

/// Per-user radio-budget axis of an [`ExtendedScenarioGrid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetSpec {
    /// Every user gets the cell's `k` (the homogeneous paper setting).
    Uniform,
    /// Budgets cycle through the pattern: user `i` gets
    /// `pattern[i mod len]`, clamped into `[1, |C|]` (the model's
    /// `1 ≤ k_i ≤ |C|`).
    Cycle(Vec<u32>),
}

impl BudgetSpec {
    /// Short name for tables/CSV (and the content-derived cell seed).
    pub fn name(&self) -> String {
        match self {
            BudgetSpec::Uniform => "uniform".into(),
            BudgetSpec::Cycle(p) => {
                let parts: Vec<String> = p.iter().map(u32::to_string).collect();
                format!("cycle({})", parts.join(";"))
            }
        }
    }

    /// Materialize per-user budgets for a cell.
    pub fn budgets(&self, n_users: usize, k: u32, n_channels: usize) -> Vec<u32> {
        let cap = n_channels as u32;
        match self {
            BudgetSpec::Uniform => vec![k.min(cap); n_users],
            BudgetSpec::Cycle(p) => {
                assert!(!p.is_empty(), "BudgetSpec::Cycle needs a non-empty pattern");
                (0..n_users).map(|i| p[i % p.len()].clamp(1, cap)).collect()
            }
        }
    }
}

/// Per-channel rate-vector axis: multiplicative scales over the cell's
/// base rate model (channel `c` runs `scale[c mod len] · R(·)` via
/// [`ScaledRate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelScaleSpec {
    /// All channels share the base model unchanged.
    Uniform,
    /// Scales cycle through the pattern across channels.
    Cycle(Vec<f64>),
}

impl ChannelScaleSpec {
    /// Short name for tables/CSV (and the content-derived cell seed).
    pub fn name(&self) -> String {
        match self {
            ChannelScaleSpec::Uniform => "uniform".into(),
            ChannelScaleSpec::Cycle(p) => {
                let parts: Vec<String> = p.iter().map(f64::to_string).collect();
                format!("scale({})", parts.join(";"))
            }
        }
    }

    /// Materialize the per-channel factors for a cell.
    pub fn scales(&self, n_channels: usize) -> Vec<f64> {
        match self {
            ChannelScaleSpec::Uniform => vec![1.0; n_channels],
            ChannelScaleSpec::Cycle(p) => {
                assert!(
                    !p.is_empty(),
                    "ChannelScaleSpec::Cycle needs a non-empty pattern"
                );
                (0..n_channels).map(|c| p[c % p.len()]).collect()
            }
        }
    }
}

/// One cell of an extended grid: the classic dimensions plus the budget
/// and channel-scale axes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendedCell {
    /// Users `|N|`.
    pub n_users: usize,
    /// Baseline radios per user `k` (the `Uniform` budget; cycles ignore
    /// it).
    pub radios: u32,
    /// Channels `|C|`.
    pub n_channels: usize,
    /// Base rate-model description.
    pub rate: RateSpec,
    /// Per-user budget pattern.
    pub budget: BudgetSpec,
    /// Per-channel scale pattern.
    pub scale: ChannelScaleSpec,
    /// Deterministic seed derived from the suite seed and the cell's
    /// contents.
    pub seed: u64,
}

impl ExtendedCell {
    /// Materialized per-user budgets.
    pub fn budgets(&self) -> Vec<u32> {
        self.budget
            .budgets(self.n_users, self.radios, self.n_channels)
    }

    /// Materialize the cell's game: per-user budgets × per-channel rates,
    /// evaluated entirely through the generic
    /// [`ChannelGame`](mrca_core::ChannelGame) engine.
    pub fn game(&self) -> HeteroGame {
        let budgets = self.budgets();
        let max_load: u32 = budgets.iter().sum();
        let base = self.rate.build(max_load);
        let rates = self
            .scale
            .scales(self.n_channels)
            .into_iter()
            .map(|f| {
                if f == 1.0 {
                    Arc::clone(&base)
                } else {
                    Arc::new(ScaledRate::new(Arc::clone(&base), f)) as Arc<dyn RateModel>
                }
            })
            .collect();
        HeteroGame::new(budgets, self.n_channels, rates)
            .expect("budgets are clamped into [1, |C|], one rate per channel")
    }

    /// Instance label `N=..,k=..,C=..`.
    pub fn instance(&self) -> String {
        format!("N={},k={},C={}", self.n_users, self.radios, self.n_channels)
    }

    /// Canonical cell id ([`extended_cell_label`]) — see
    /// [`ScenarioCell::canonical_id`].
    pub fn canonical_id(&self) -> String {
        extended_cell_label(
            self.n_users,
            self.radios,
            self.n_channels,
            &self.rate,
            &self.budget,
            &self.scale,
        )
    }
}

/// Declarative grid over `(n, k, |C|, rate) × budgets × channel scales`.
///
/// Orderings are absent on purpose: the extended pipeline is
/// dynamics-only.
#[derive(Debug, Clone)]
pub struct ExtendedScenarioGrid {
    /// Values of `|N|`.
    pub n_users: Vec<usize>,
    /// Values of `k` (the `Uniform` budget baseline).
    pub radios: Vec<u32>,
    /// Values of `|C|`.
    pub n_channels: Vec<usize>,
    /// Base rate models.
    pub rates: Vec<RateSpec>,
    /// Per-user budget patterns.
    pub budgets: Vec<BudgetSpec>,
    /// Per-channel scale patterns.
    pub scales: Vec<ChannelScaleSpec>,
}

impl ExtendedScenarioGrid {
    /// Expand into cells (skipping invalid `k > |C|` baselines), with
    /// seeds derived from `suite_seed` and each cell's contents — same
    /// stability contract as [`ScenarioGrid::cells`]: growing or
    /// reordering any axis never shifts surviving cells' seeds.
    pub fn cells(&self, suite_seed: u64) -> Vec<ExtendedCell> {
        let mut out = Vec::new();
        for &n in &self.n_users {
            for &k in &self.radios {
                for &c in &self.n_channels {
                    if GameConfig::new(n, k, c).is_err() {
                        continue;
                    }
                    for rate in &self.rates {
                        for budget in &self.budgets {
                            for scale in &self.scales {
                                out.push(ExtendedCell {
                                    n_users: n,
                                    radios: k,
                                    n_channels: c,
                                    rate: rate.clone(),
                                    budget: budget.clone(),
                                    scale: scale.clone(),
                                    seed: extended_cell_seed(
                                        suite_seed, n, k, c, rate, budget, scale,
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Canonical id of an extended cell (the [`cell_label`] scheme with the
/// two extra axes folded in).
pub fn extended_cell_label(
    n: usize,
    k: u32,
    c: usize,
    rate: &RateSpec,
    budget: &BudgetSpec,
    scale: &ChannelScaleSpec,
) -> String {
    join_label(&[
        n.to_string(),
        k.to_string(),
        c.to_string(),
        rate.name(),
        budget.name(),
        scale.name(),
    ])
}

/// Content-derived seed for an extended cell (the [`cell_seed`] scheme
/// with the two new axes folded into the label).
pub fn extended_cell_seed(
    suite_seed: u64,
    n: usize,
    k: u32,
    c: usize,
    rate: &RateSpec,
    budget: &BudgetSpec,
    scale: &ChannelScaleSpec,
) -> u64 {
    derive_seed(
        suite_seed,
        fnv1a(&extended_cell_label(n, k, c, rate, budget, scale)),
    )
}

/// Outcome of the extended per-cell pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendedOutcome {
    /// The evaluated cell.
    pub cell: ExtendedCell,
    /// Dynamics converged within the round cap.
    pub converged: bool,
    /// Rounds the dynamics took.
    pub rounds: usize,
    /// Final state is a NE (exact generic check).
    pub nash: bool,
    /// Largest remaining unilateral improvement.
    pub max_gain: f64,
    /// Max load delta of the final state (water-filling can exceed 1 on
    /// scaled channels).
    pub delta: u32,
    /// Welfare `Σ_c R_c(k_c)` of the final state.
    pub welfare: f64,
    /// Theorem-1 structural verdict on the final state (diverges from
    /// `nash` by design on non-uniform scales).
    pub thm1_nash: bool,
}

/// The extended sweep runner: budget × scale axes over the generic
/// engine, sharing the seeding, parallelism and output layers of
/// [`ScenarioSuite`].
#[derive(Debug, Clone)]
pub struct ExtendedScenarioSuite {
    /// Suite name (file-name stem for results).
    pub name: String,
    /// The expanded cells.
    pub cells: Vec<ExtendedCell>,
    /// Round cap for the dynamics.
    pub max_rounds: usize,
}

impl ExtendedScenarioSuite {
    /// Build a suite from an extended grid with the given suite seed.
    pub fn new(name: impl Into<String>, grid: &ExtendedScenarioGrid, suite_seed: u64) -> Self {
        ExtendedScenarioSuite {
            name: name.into(),
            cells: grid.cells(suite_seed),
            max_rounds: 500,
        }
    }

    /// Override the dynamics round cap.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Column layout of the extended pipeline's report.
    pub fn extended_headers() -> Vec<String> {
        [
            "instance",
            "rate",
            "budget",
            "scales",
            "seed",
            "converged",
            "rounds",
            "nash",
            "max_gain",
            "delta",
            "welfare",
            "thm1_nash",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Render one extended outcome as a report row (shared by
    /// [`run`](ExtendedScenarioSuite::run) and the sharded runner).
    pub fn outcome_row(o: &ExtendedOutcome) -> Vec<String> {
        vec![
            o.cell.instance(),
            o.cell.rate.name(),
            o.cell.budget.name(),
            o.cell.scale.name(),
            o.cell.seed.to_string(),
            o.converged.to_string(),
            o.rounds.to_string(),
            o.nash.to_string(),
            format!("{:.6e}", o.max_gain),
            o.delta.to_string(),
            format!("{:.6e}", o.welfare),
            o.thm1_nash.to_string(),
        ]
    }

    /// Run the extended pipeline over every cell, in parallel, and return
    /// the outcomes in grid order.
    pub fn run(&self) -> (Vec<ExtendedOutcome>, SuiteReport) {
        let max_rounds = self.max_rounds;
        let outcomes = parallel_map(&self.cells, |cell| evaluate_extended_cell(cell, max_rounds));
        let rows = outcomes.iter().map(Self::outcome_row).collect();
        let report = SuiteReport {
            headers: Self::extended_headers(),
            rows,
            name: self.name.clone(),
        };
        (outcomes, report)
    }

    /// Sharded/resumable/streamed variant of
    /// [`run`](ExtendedScenarioSuite::run) — see
    /// [`ScenarioSuite::run_sharded`].
    pub fn run_sharded(&self, shard: &crate::shard::ShardSpec) -> SuiteReport {
        let max_rounds = self.max_rounds;
        crate::shard::run_sharded_streaming(
            &self.name,
            &Self::extended_headers(),
            &self.cells,
            shard,
            crate::shard::Parallelism::FullCores,
            |c| c.canonical_id(),
            |c| {
                vec![
                    c.instance(),
                    c.rate.name(),
                    c.budget.name(),
                    c.scale.name(),
                    c.seed.to_string(),
                ]
            },
            |c| Self::outcome_row(&evaluate_extended_cell(c, max_rounds)),
        )
    }
}

/// The extended per-cell pipeline: seeded random start, sparse-engine
/// best-response dynamics ([`br_fast`]: the active-set worklist over the
/// heap or incremental DP per the cell's rate declaration), exact sparse
/// Nash check and Theorem-1 certification — all through the
/// [`ChannelGame`](mrca_core::ChannelGame) engine.
fn evaluate_extended_cell(cell: &ExtendedCell, max_rounds: usize) -> ExtendedOutcome {
    let game = cell.game();
    let start = random_start(&game, derive_seed(cell.seed, 1));
    let sparse_start = SparseStrategies::from_matrix(&game, &start);
    let (end, converged, rounds) =
        br_fast::best_response_dynamics_sparse(&game, sparse_start, max_rounds);
    let loads = ChannelLoads::of_sparse(&end);
    let check = br_fast::nash_check_sparse(&game, &end);
    // Theorem 1 reads per-user rows structurally; extended cells are
    // small, so the dense view is cheap here (t9's scale path never
    // certifies Theorem 1).
    let thm1_nash = theorem1(&game, &end.to_dense()).is_nash();
    ExtendedOutcome {
        converged,
        rounds,
        nash: check.is_nash(),
        max_gain: check.max_gain(),
        delta: loads.max_delta(),
        welfare: welfare_from_loads(&game, loads.as_slice()),
        thm1_nash,
        cell: cell.clone(),
    }
}

/// Map `f` over `items` on all cores, returning results in input order.
/// The offline build has no rayon; this is a thin wrapper over the
/// workspace's one threading idiom, [`mrca_core::par::scoped_chunks`]:
/// each worker accumulates `(index, result)` pairs, and the joined
/// per-worker vectors are merged and re-sorted by index.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let states = par::scoped_chunks(
        items.len(),
        par::available_threads(),
        1,
        |_| Vec::new(),
        |out: &mut Vec<(usize, R)>, range| {
            for i in range {
                out.push((i, f(&items[i])));
            }
        },
    );
    let mut indexed: Vec<(usize, R)> = states.into_iter().flatten().collect();
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// [`parallel_map`] with in-order streaming: `sink(i, result)` is called
/// on the caller's thread, in input order, as soon as every result up to
/// `i` is available — so a consumer that appends to a file always sees a
/// canonical-order prefix, while the evaluations themselves still run on
/// all cores. This is the delivery guarantee the resumable sharded
/// sweeps rely on: an interrupted run's file is a plan-order prefix by
/// construction.
pub fn parallel_map_streamed<T, R, F, S>(items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    if items.is_empty() {
        return;
    }
    let n_threads = par::available_threads().min(items.len());
    if n_threads <= 1 {
        for (i, item) in items.iter().enumerate() {
            sink(i, f(item));
        }
        return;
    }
    // The sink must run concurrently with the workers on the caller's
    // thread, so this drives the scope by hand — but the claiming
    // primitive is the shared [`par::ChunkQueue`], the same one
    // `scoped_chunks` (and through it `parallel_map`) uses.
    let queue = par::ChunkQueue::new(items.len(), 1);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || {
                while let Some(range) = queue.claim() {
                    for i in range {
                        // The receiver outlives the workers (it drains
                        // exactly items.len() messages), so send only
                        // fails if it panicked — in which case this
                        // worker may die too.
                        if tx.send((i, f(&items[i]))).is_err() {
                            return;
                        }
                    }
                }
            });
        }
        drop(tx);
        let mut pending: std::collections::BTreeMap<usize, R> = std::collections::BTreeMap::new();
        let mut want = 0usize;
        for _ in 0..items.len() {
            let (i, r) = rx.recv().expect("a sweep worker panicked");
            pending.insert(i, r);
            while let Some(r) = pending.remove(&want) {
                sink(want, r);
                want += 1;
            }
        }
        debug_assert!(pending.is_empty() && want == items.len());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid {
            n_users: vec![2, 4],
            radios: vec![2],
            n_channels: vec![3],
            rates: vec![RateSpec::ConstantUnit, RateSpec::Bianchi],
            orderings: vec![OrderingSpec::PreferUnused],
        }
    }

    #[test]
    fn grid_expands_and_seeds_are_deterministic() {
        let cells = small_grid().cells(7);
        assert_eq!(cells.len(), 4);
        // Same suite seed → same cell seeds; different → different.
        let again = small_grid().cells(7);
        assert_eq!(cells, again);
        let other = small_grid().cells(8);
        assert!(cells.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
    }

    #[test]
    fn growing_an_axis_preserves_existing_cells_seeds() {
        // Seeds derive from cell contents, so extending any axis (here a
        // middle one: rates) must leave the original cells' seeds intact.
        let base = small_grid().cells(7);
        let mut grown = small_grid();
        grown.rates.insert(1, RateSpec::Tdma); // squeeze a new rate in
        grown.n_users.push(9); // and a new outer value
        let grown_cells = grown.cells(7);
        for cell in &base {
            let found = grown_cells
                .iter()
                .find(|c| {
                    c.n_users == cell.n_users
                        && c.rate == cell.rate
                        && c.ordering == cell.ordering
                        && c.n_channels == cell.n_channels
                })
                .expect("original cell still present");
            assert_eq!(found.seed, cell.seed, "seed must not shift: {cell:?}");
        }
    }

    #[test]
    fn invalid_dimensions_are_skipped() {
        let grid = ScenarioGrid {
            n_users: vec![2],
            radios: vec![2, 5],
            n_channels: vec![3],
            rates: vec![RateSpec::ConstantUnit],
            orderings: vec![OrderingSpec::Natural],
        };
        // k = 5 > |C| = 3 is filtered.
        let cells = grid.cells(1);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].radios, 2);
    }

    #[test]
    fn standard_run_reaches_equilibria() {
        let suite = ScenarioSuite::new("test", &small_grid(), 42);
        let (outcomes, report) = suite.run();
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(o.algo1_nash, "{:?}", o.cell);
            assert!(o.br_converged && o.br_nash, "{:?}", o.cell);
            assert!(o.br_welfare >= o.start_welfare - 1e-9);
        }
        assert_eq!(report.rows.len(), 4);
    }

    #[test]
    fn run_is_deterministic_across_invocations() {
        let suite = ScenarioSuite::new("det", &small_grid(), 123);
        let (_, a) = suite.run();
        let (_, b) = suite.run();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_escapes_and_types() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_value("true"), "true");
        assert_eq!(json_value("1.5e3"), "1.5e3");
        assert_eq!(json_value("N=2,k=2"), "\"N=2,k=2\"");
        // 64-bit seeds exceed 2^53: quoted so parsers keep them exact.
        assert_eq!(json_value("42"), "42");
        assert_eq!(
            json_value("13399792675488815619"),
            "\"13399792675488815619\""
        );
        // Rust-parseable but not valid JSON number literals: quoted.
        assert_eq!(json_value("05"), "\"05\"");
        assert_eq!(json_value("+5"), "\"+5\"");
        assert_eq!(json_value(".5"), "\".5\"");
        assert_eq!(json_value("1."), "\"1.\"");
        assert_eq!(json_value("1e999"), "\"1e999\"");
        assert_eq!(json_value("-3.25e-2"), "-3.25e-2");
    }

    fn small_extended_grid() -> ExtendedScenarioGrid {
        ExtendedScenarioGrid {
            n_users: vec![3, 5],
            radios: vec![2],
            n_channels: vec![3],
            rates: vec![RateSpec::ConstantUnit],
            budgets: vec![BudgetSpec::Uniform, BudgetSpec::Cycle(vec![1, 2, 3])],
            scales: vec![
                ChannelScaleSpec::Uniform,
                ChannelScaleSpec::Cycle(vec![2.0, 1.0]),
            ],
        }
    }

    #[test]
    fn extended_grid_expands_with_stable_seeds() {
        let cells = small_extended_grid().cells(7);
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells, small_extended_grid().cells(7));
        // Growing a new axis value leaves surviving seeds untouched.
        let mut grown = small_extended_grid();
        grown.budgets.insert(0, BudgetSpec::Cycle(vec![4, 1]));
        let grown_cells = grown.cells(7);
        for cell in &cells {
            let found = grown_cells
                .iter()
                .find(|c| {
                    c.n_users == cell.n_users && c.budget == cell.budget && c.scale == cell.scale
                })
                .expect("original cell still present");
            assert_eq!(found.seed, cell.seed);
        }
    }

    #[test]
    fn budget_and_scale_specs_materialize() {
        assert_eq!(BudgetSpec::Uniform.budgets(3, 2, 4), vec![2, 2, 2]);
        // Cycling pattern, clamped into [1, |C|].
        assert_eq!(
            BudgetSpec::Cycle(vec![1, 5]).budgets(4, 2, 3),
            vec![1, 3, 1, 3]
        );
        assert_eq!(ChannelScaleSpec::Uniform.scales(2), vec![1.0, 1.0]);
        assert_eq!(
            ChannelScaleSpec::Cycle(vec![2.0, 0.5]).scales(3),
            vec![2.0, 0.5, 2.0]
        );
    }

    #[test]
    fn extended_run_reaches_equilibria_and_respects_budgets() {
        let suite = ExtendedScenarioSuite::new("ext", &small_extended_grid(), 42);
        let (outcomes, report) = suite.run();
        assert_eq!(report.rows.len(), outcomes.len());
        for o in &outcomes {
            assert!(o.converged && o.nash, "{:?}", o.cell);
            assert!(o.max_gain <= 1e-9);
            // Uniform × uniform cells reduce to the paper's game: their
            // equilibria stay count-balanced.
            if o.cell.budget == BudgetSpec::Uniform && o.cell.scale == ChannelScaleSpec::Uniform {
                assert!(o.delta <= 1, "{:?}", o.cell);
            }
        }
        // The 2x-scaled channel set must yield strictly more welfare than
        // the uniform variant of the same (instance, budget) cell: at any
        // NE of the unit-rate game every 2x channel is occupied (an empty
        // one would offer R = 2 against per-radio shares < 2), so the
        // scaled welfare strictly dominates the all-unit welfare.
        let mut compared = 0usize;
        for o in &outcomes {
            if o.cell.scale == ChannelScaleSpec::Uniform {
                continue;
            }
            let twin = outcomes
                .iter()
                .find(|u| {
                    u.cell.scale == ChannelScaleSpec::Uniform
                        && u.cell.instance() == o.cell.instance()
                        && u.cell.budget == o.cell.budget
                })
                .expect("uniform twin exists for every scaled cell");
            assert!(
                o.welfare > twin.welfare + 1e-9,
                "scaled {:?}: welfare {} vs uniform {}",
                o.cell,
                o.welfare,
                twin.welfare
            );
            compared += 1;
        }
        assert!(compared > 0);
    }

    #[test]
    fn extended_run_is_deterministic() {
        let suite = ExtendedScenarioSuite::new("det-ext", &small_extended_grid(), 123);
        let (_, a) = suite.run();
        let (_, b) = suite.run();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn axis_game_uniform_axes_match_the_concrete_games() {
        use mrca_core::br_dp::{best_response, nash_check, utility, ChannelGame};
        use mrca_core::pareto::optimal_total_rate;
        use mrca_core::UserId;
        // An extended cell with uniform budget and scale axes builds the
        // paper cell's game, bit for bit.
        let rates = [
            RateSpec::ConstantUnit,
            RateSpec::Bianchi,
            RateSpec::LinearDecay {
                r1: 6.0,
                slope: 0.7,
                floor: 0.5,
            },
        ];
        for rate in rates {
            for (n, k, c) in [(1, 1, 1), (3, 2, 4), (5, 3, 3), (6, 1, 5)] {
                let paper = ScenarioCell {
                    n_users: n,
                    radios: k,
                    n_channels: c,
                    rate: rate.clone(),
                    ordering: OrderingSpec::Natural,
                    seed: 0,
                }
                .game();
                let ext = ExtendedCell {
                    n_users: n,
                    radios: k,
                    n_channels: c,
                    rate: rate.clone(),
                    budget: BudgetSpec::Uniform,
                    scale: ChannelScaleSpec::Uniform,
                    seed: 0,
                }
                .game();
                assert_eq!(ext.payoff_shape(), paper.payoff_shape());
                assert_eq!(
                    optimal_total_rate(&ext).to_bits(),
                    optimal_total_rate(&paper).to_bits()
                );
                let s = random_start(&ext, 99);
                assert_eq!(s, random_start(&paper, 99));
                for u in UserId::all(n) {
                    assert_eq!(
                        utility(&ext, &s, u).to_bits(),
                        utility(&paper, &s, u).to_bits()
                    );
                    assert_eq!(best_response(&ext, &s, u), best_response(&paper, &s, u));
                }
                assert_eq!(nash_check(&ext, &s), nash_check(&paper, &s));
                let o = Ordering::with_tie_break(TieBreak::PreferUnused);
                assert_eq!(algorithm1(&ext, &o), algorithm1(&paper, &o));
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |&x: &usize| x).is_empty());
    }

    #[test]
    fn parallel_map_streamed_sinks_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let mut seen = Vec::new();
        parallel_map_streamed(&items, |&x| x * 3, |i, r| seen.push((i, r)));
        assert_eq!(
            seen,
            items.iter().map(|&x| (x, x * 3)).collect::<Vec<_>>(),
            "sink must observe results in input order"
        );
        let mut none = 0;
        parallel_map_streamed(&Vec::<usize>::new(), |&x| x, |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn join_label_escapes_the_separator() {
        // Regression: the naive `|`-join aliased these two component
        // lists to the same label "a|b|c" — two distinct cells whose
        // names contain `|` would have collided to one seed.
        let a = join_label(&["a|b", "c"]);
        let b = join_label(&["a", "b|c"]);
        assert_ne!(a, b, "{a:?} vs {b:?}");
        assert_ne!(fnv1a(&a), fnv1a(&b));
        // Backslashes are escaped too, so escaping itself cannot alias.
        assert_ne!(join_label(&["a\\", "b"]), join_label(&["a", "\\b"]));
        assert_ne!(join_label(&["a\\|b"]), join_label(&["a|b"]));
        // Pipe-free components (every built-in axis name) are joined
        // verbatim: existing content-derived seeds are unchanged.
        assert_eq!(
            join_label(&["2", "constant", "natural"]),
            "2|constant|natural"
        );
        assert_eq!(
            cell_label(2, 1, 3, &RateSpec::ConstantUnit, OrderingSpec::Natural),
            "2|1|3|constant|natural"
        );
    }

    #[test]
    fn cliff_table_has_exactly_max_k_entries() {
        // Regression: `max_k.max(2) - 1` repeats yielded a 2-entry table
        // at max_k == 1. The table must hold exactly max(max_k, 1)
        // entries — r1 then rest — and clamp beyond its length like
        // every other table-driven spec.
        let spec = RateSpec::Cliff {
            r1: 10.0,
            rest: 2.0,
        };
        for max_k in [1u32, 2, 4] {
            let model = spec.build(max_k);
            assert_eq!(model.rate(0), 0.0);
            assert_eq!(model.rate(1), 10.0, "max_k={max_k}");
            for k in 2..=max_k {
                assert_eq!(model.rate(k), 2.0, "max_k={max_k}, k={k}");
            }
            // Beyond the table the last entry clamps: for max_k == 1
            // that last entry must be r1 (a 1-entry table), not a
            // phantom `rest` defined past the cell's maximum load.
            let expect_clamp = if max_k == 1 { 10.0 } else { 2.0 };
            assert_eq!(model.rate(max_k + 1), expect_clamp, "max_k={max_k}");
        }
    }
}
