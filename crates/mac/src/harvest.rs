//! Rate harvesting: measured `R(k)` tables from the MAC simulators.
//!
//! The paper's Figure 3 treats the per-channel rate function as given.
//! The rest of the workspace can also *measure* it: run a slot-level
//! simulator per occupancy `k = 1..=max_k`, repeat under independent
//! seeds, and keep the sample mean with a 95% confidence half-width per
//! entry. The result is a [`MeasuredTable`] — plain data with
//! provenance — which persists to CSV/JSON byte-deterministically and
//! converts to an [`mrca_core::rate_model::MeasuredRate`] whose CI-aware
//! [`RateShape`] classification drives engine-route selection and
//! Theorem-1 applicability downstream.
//!
//! ```text
//! DcfSimulator / simulate_success_rate          (mrca-mac sims)
//!        │  reps × seeds per occupancy k
//!        ▼
//! RateHarvester::harvest_*  →  MeasuredTable { mean, ci, samples }
//!        │  to_csv / to_json (byte-deterministic round trip)
//!        ▼
//! MeasuredTable::to_rate()  →  MeasuredRate (+ CI-aware RateShape)
//! ```
//!
//! Determinism: all seeds derive from [`HarvestConfig::base_seed`] via a
//! splitmix-style mix, floats persist through Rust's shortest-round-trip
//! `Display`, and both writers emit a canonical layout — so
//! `to_csv(from_csv(to_csv(t))) == to_csv(t)` byte-for-byte (same for
//! JSON), which the `proptest_harvest` suite pins.

use crate::aloha;
use crate::params::PhyParams;
use crate::sim_dcf::DcfSimulator;
use mrca_core::rate_model::{classify_rate_table, MeasuredRate, RateShape};

/// Shape of a harvest run: occupancy range, repetitions and seeding.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestConfig {
    /// Largest occupancy measured (table covers `k = 1..=max_k`).
    pub max_k: u32,
    /// Independent repetitions per occupancy (CI sample size).
    pub reps: u32,
    /// Simulated transmission events (DCF) or slots (Aloha) per rep.
    pub events: u64,
    /// Root seed; per-rep seeds are derived, so tables are reproducible
    /// from `(config, simulator)` alone.
    pub base_seed: u64,
}

impl HarvestConfig {
    /// The acceptance-workload shape: `k ≤ 24`, 8 reps of 20 000 events.
    pub fn full() -> Self {
        HarvestConfig {
            max_k: 24,
            reps: 8,
            events: 20_000,
            base_seed: 0x5EED_7AB1E,
        }
    }

    /// The CI-gate shape: `k ≤ 10`, 3 reps of 3 000 events.
    pub fn smoke() -> Self {
        HarvestConfig {
            max_k: 10,
            reps: 3,
            events: 3_000,
            base_seed: 0x5EED_7AB1E,
        }
    }

    /// The derived seed for repetition `rep` (splitmix-style odd-constant
    /// mix, so consecutive reps land in unrelated stream regions).
    pub fn rep_seed(&self, rep: u32) -> u64 {
        self.base_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rep as u64 + 1)
    }
}

/// A harvested rate table with provenance: per-occupancy sample means,
/// 95% CI half-widths and the repetition count behind them.
///
/// Invariants (enforced by [`MeasuredTable::new`] and both parsers):
/// non-empty equal-length tables, `samples ≥ 1`, and `label`/`source`
/// free of the separator characters (`,`, `"`, newlines) so the CSV
/// layout stays unquoted and canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredTable {
    /// Short table name (becomes the [`MeasuredRate`] name).
    pub label: String,
    /// Free-form provenance: simulator, parameters, seeds.
    pub source: String,
    /// Repetitions behind each entry.
    pub samples: u32,
    /// Sample means for `k = 1..=max_k`, in bit/s.
    pub mean_bps: Vec<f64>,
    /// 95% CI half-widths aligned with `mean_bps`.
    pub ci_half_width_bps: Vec<f64>,
}

/// CSV header line (also the format version marker).
const CSV_MAGIC: &str = "# mrca measured rate table v1";
/// JSON schema tag.
const JSON_SCHEMA: &str = "mrca.measured_rate.v1";

impl MeasuredTable {
    /// Assemble a table, checking the type invariants.
    ///
    /// # Panics
    ///
    /// Panics if the tables are empty or length-mismatched, `samples`
    /// is zero, or `label`/`source` contain `,`, `"`, `\n` or `\r`.
    pub fn new(
        label: impl Into<String>,
        source: impl Into<String>,
        samples: u32,
        mean_bps: Vec<f64>,
        ci_half_width_bps: Vec<f64>,
    ) -> Self {
        let label = label.into();
        let source = source.into();
        assert!(!mean_bps.is_empty(), "measured table must be non-empty");
        assert_eq!(
            mean_bps.len(),
            ci_half_width_bps.len(),
            "mean and CI tables must have equal length"
        );
        assert!(samples >= 1, "need at least one sample per entry");
        for field in [&label, &source] {
            assert!(
                !field.contains([',', '"', '\n', '\r']),
                "label/source must not contain CSV separator characters: {field:?}"
            );
        }
        MeasuredTable {
            label,
            source,
            samples,
            mean_bps,
            ci_half_width_bps,
        }
    }

    /// Largest measured occupancy.
    pub fn max_k(&self) -> u32 {
        self.mean_bps.len() as u32
    }

    /// CI-aware structural classification of the raw table
    /// ([`classify_rate_table`]): a shape claim must hold at the CI
    /// boundaries, not just the means.
    pub fn shape(&self) -> RateShape {
        classify_rate_table(&self.mean_bps, &self.ci_half_width_bps)
    }

    /// Wrap as a [`MeasuredRate`] for the game engines.
    ///
    /// # Panics
    ///
    /// Panics where [`MeasuredRate::new`] does (non-positive or
    /// non-finite means, negative CI) — harvested tables satisfy this
    /// by construction, hand-built ones must.
    pub fn to_rate(&self) -> MeasuredRate {
        MeasuredRate::new(
            self.label.clone(),
            self.source.clone(),
            self.mean_bps.clone(),
            self.ci_half_width_bps.clone(),
            self.samples,
        )
    }

    // ---- CSV ---------------------------------------------------------

    /// Canonical CSV layout:
    ///
    /// ```text
    /// # mrca measured rate table v1
    /// label,<label>
    /// source,<source>
    /// samples,<n>
    /// k,mean_bps,ci_half_width_bps
    /// 1,<mean>,<ci>
    /// ...
    /// ```
    ///
    /// Floats go through `Display` (shortest round-trip form), so
    /// parse-and-re-emit is byte-identical.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(CSV_MAGIC);
        out.push('\n');
        out.push_str(&format!("label,{}\n", self.label));
        out.push_str(&format!("source,{}\n", self.source));
        out.push_str(&format!("samples,{}\n", self.samples));
        out.push_str("k,mean_bps,ci_half_width_bps\n");
        for (i, (&m, &c)) in self
            .mean_bps
            .iter()
            .zip(&self.ci_half_width_bps)
            .enumerate()
        {
            out.push_str(&format!("{},{},{}\n", i + 1, m, c));
        }
        out
    }

    /// Parse the canonical CSV layout of [`MeasuredTable::to_csv`].
    pub fn from_csv(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let magic = lines.next().ok_or("empty table file")?;
        if magic != CSV_MAGIC {
            return Err(format!("bad header {magic:?}, expected {CSV_MAGIC:?}"));
        }
        let mut field = |key: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing {key} line"))?;
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix(','))
                .map(str::to_owned)
                .ok_or_else(|| format!("expected \"{key},...\", got {line:?}"))
        };
        let label = field("label")?;
        let source = field("source")?;
        let samples: u32 = field("samples")?
            .parse()
            .map_err(|e| format!("samples: {e}"))?;
        let header = lines.next().ok_or("missing column header")?;
        if header != "k,mean_bps,ci_half_width_bps" {
            return Err(format!("bad column header {header:?}"));
        }
        let mut mean = Vec::new();
        let mut ci = Vec::new();
        for line in lines {
            let mut cols = line.split(',');
            let (k, m, c) = (
                cols.next().ok_or("missing k column")?,
                cols.next()
                    .ok_or_else(|| format!("row {line:?}: missing mean"))?,
                cols.next()
                    .ok_or_else(|| format!("row {line:?}: missing ci"))?,
            );
            if cols.next().is_some() {
                return Err(format!("row {line:?}: too many columns"));
            }
            let k: usize = k.parse().map_err(|e| format!("row {line:?}: k: {e}"))?;
            if k != mean.len() + 1 {
                return Err(format!(
                    "row {line:?}: occupancies must be 1,2,... in order"
                ));
            }
            mean.push(m.parse::<f64>().map_err(|e| format!("row {line:?}: {e}"))?);
            ci.push(c.parse::<f64>().map_err(|e| format!("row {line:?}: {e}"))?);
        }
        if mean.is_empty() {
            return Err("table has no data rows".into());
        }
        if samples == 0 {
            return Err("samples must be >= 1".into());
        }
        if label.contains([',', '"', '\n', '\r']) || source.contains([',', '"', '\n', '\r']) {
            return Err("label/source contain separator characters".into());
        }
        Ok(MeasuredTable {
            label,
            source,
            samples,
            mean_bps: mean,
            ci_half_width_bps: ci,
        })
    }

    // ---- JSON --------------------------------------------------------

    /// Canonical JSON layout (fixed key order, 2-space indent):
    ///
    /// ```json
    /// {
    ///   "schema": "mrca.measured_rate.v1",
    ///   "label": "...",
    ///   "source": "...",
    ///   "samples": 8,
    ///   "mean_bps": [ ... ],
    ///   "ci_half_width_bps": [ ... ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let arr = |xs: &[f64]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"label\": \"{}\",\n  \"source\": \"{}\",\n  \
             \"samples\": {},\n  \"mean_bps\": [{}],\n  \"ci_half_width_bps\": [{}]\n}}\n",
            JSON_SCHEMA,
            self.label,
            self.source,
            self.samples,
            arr(&self.mean_bps),
            arr(&self.ci_half_width_bps),
        )
    }

    /// Parse the canonical JSON layout of [`MeasuredTable::to_json`]
    /// (fixed key order; whitespace between tokens is free).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = JsonCursor::new(text);
        p.expect('{')?;
        if p.key_string("schema")? != JSON_SCHEMA {
            return Err(format!("unknown schema, expected {JSON_SCHEMA:?}"));
        }
        p.expect(',')?;
        let label = p.key_string("label")?;
        p.expect(',')?;
        let source = p.key_string("source")?;
        p.expect(',')?;
        let samples = p.key_u32("samples")?;
        p.expect(',')?;
        let mean = p.key_f64_array("mean_bps")?;
        p.expect(',')?;
        let ci = p.key_f64_array("ci_half_width_bps")?;
        p.expect('}')?;
        p.end()?;
        if mean.is_empty() || mean.len() != ci.len() || samples == 0 {
            return Err("invalid table dimensions".into());
        }
        if label.contains([',', '"', '\n', '\r']) || source.contains([',', '"', '\n', '\r']) {
            return Err("label/source contain separator characters".into());
        }
        Ok(MeasuredTable {
            label,
            source,
            samples,
            mean_bps: mean,
            ci_half_width_bps: ci,
        })
    }
}

/// Minimal strict cursor over the canonical JSON layout. Separator
/// characters are banned from the string fields (see
/// [`MeasuredTable::new`]), so strings need no escape handling — any
/// `\` or `"` inside one is a parse error, keeping the grammar a
/// regular language.
#[derive(Debug)]
struct JsonCursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(s: &'a str) -> Self {
        JsonCursor {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == c as u8 {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let start = self.i;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'"' => {
                    let s =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    self.i += 1;
                    return Ok(s.to_owned());
                }
                b'\\' | b'\n' | b'\r' => {
                    return Err(format!(
                        "unsupported character in string at byte {}",
                        self.i
                    ))
                }
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("number at byte {start}: {e}"))
    }

    fn key(&mut self, name: &str) -> Result<(), String> {
        let k = self.string()?;
        if k != name {
            return Err(format!("expected key {name:?}, got {k:?}"));
        }
        self.expect(':')
    }

    fn key_string(&mut self, name: &str) -> Result<String, String> {
        self.skip_ws();
        self.key(name)?;
        self.skip_ws();
        self.string()
    }

    fn key_u32(&mut self, name: &str) -> Result<u32, String> {
        self.skip_ws();
        self.key(name)?;
        let v = self.number()?;
        if v.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&v) {
            return Err(format!("{name} must be a u32, got {v}"));
        }
        Ok(v as u32)
    }

    fn key_f64_array(&mut self, name: &str) -> Result<Vec<f64>, String> {
        self.skip_ws();
        self.key(name)?;
        self.expect('[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == b']' {
            self.i += 1;
            return Ok(out);
        }
        loop {
            out.push(self.number()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.i))
        }
    }
}

/// Drives the MAC simulators across occupancies and repetitions,
/// reducing each occupancy's samples to `(mean, 95% CI half-width)`.
#[derive(Debug, Clone)]
pub struct RateHarvester {
    cfg: HarvestConfig,
}

impl RateHarvester {
    /// A harvester over `cfg`.
    ///
    /// # Panics
    ///
    /// Panics unless `max_k ≥ 1`, `reps ≥ 1` and `events ≥ 1`.
    pub fn new(cfg: HarvestConfig) -> Self {
        assert!(cfg.max_k >= 1, "need at least one occupancy");
        assert!(cfg.reps >= 1, "need at least one repetition");
        assert!(cfg.events >= 1, "need at least one event per rep");
        RateHarvester { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &HarvestConfig {
        &self.cfg
    }

    /// Harvest from an arbitrary sampler `f(k, rep) -> bit/s` — the
    /// seam the simulator fronts below share, public so tests and
    /// future substrates can harvest deterministic closures.
    pub fn harvest_with<F: FnMut(u32, u32) -> f64>(
        &self,
        label: &str,
        source: &str,
        mut f: F,
    ) -> MeasuredTable {
        let mut mean = Vec::with_capacity(self.cfg.max_k as usize);
        let mut ci = Vec::with_capacity(self.cfg.max_k as usize);
        let mut samples = Vec::with_capacity(self.cfg.reps as usize);
        for k in 1..=self.cfg.max_k {
            samples.clear();
            samples.extend((0..self.cfg.reps).map(|r| f(k, r)));
            let (m, c) = mean_ci95(&samples);
            mean.push(m);
            ci.push(c);
        }
        MeasuredTable::new(label, source, self.cfg.reps, mean, ci)
    }

    /// Measure 802.11 DCF saturation throughput per occupancy with the
    /// slot-level simulator ([`DcfSimulator`]), one independent seed
    /// per repetition.
    pub fn harvest_dcf(&self, phy: &PhyParams, label: &str) -> MeasuredTable {
        let source = format!(
            "sim_dcf phy={} events={} reps={} base_seed={:#x}",
            phy.name, self.cfg.events, self.cfg.reps, self.cfg.base_seed
        );
        let cfg = self.cfg.clone();
        self.harvest_with(label, &source, |k, rep| {
            DcfSimulator::new(phy.clone(), cfg.rep_seed(rep))
                .run(k, cfg.events)
                .throughput_bps
        })
    }

    /// Measure slotted Aloha at the per-population optimal transmission
    /// probability `p* = 1/k` ([`aloha::simulate_success_rate`]);
    /// `events` counts slots here.
    pub fn harvest_aloha(&self, bitrate: f64, label: &str) -> MeasuredTable {
        assert!(bitrate > 0.0, "bitrate must be positive, got {bitrate}");
        let source = format!(
            "sim_aloha bitrate={} slots={} reps={} base_seed={:#x}",
            bitrate, self.cfg.events, self.cfg.reps, self.cfg.base_seed
        );
        let cfg = self.cfg.clone();
        self.harvest_with(label, &source, |k, rep| {
            bitrate
                * aloha::simulate_success_rate(
                    k,
                    aloha::optimal_p(k),
                    cfg.events,
                    cfg.rep_seed(rep).wrapping_add(k as u64),
                )
        })
    }
}

/// Sample mean and 95% normal-approximation CI half-width
/// (`1.96·s/√n`, `n−1`-divisor standard deviation; zero for `n = 1`).
fn mean_ci95(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrca_core::rate_model::RateModel;

    fn toy() -> MeasuredTable {
        MeasuredTable::new(
            "toy",
            "unit test",
            4,
            vec![10.0, 8.25, 7.0],
            vec![0.5, 0.25, 0.125],
        )
    }

    #[test]
    fn mean_ci_hand_values() {
        let (m, c) = mean_ci95(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        // s = √2, ci = 1.96·√2/√2 = 1.96.
        assert!((c - 1.96).abs() < 1e-12);
        assert_eq!(mean_ci95(&[7.0]), (7.0, 0.0));
    }

    #[test]
    fn csv_round_trip_is_byte_identical() {
        let t = toy();
        let csv = t.to_csv();
        let back = MeasuredTable::from_csv(&csv).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_csv(), csv);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let t = toy();
        let json = t.to_json();
        let back = MeasuredTable::from_json(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parsers_reject_malformed_input() {
        assert!(MeasuredTable::from_csv("").is_err());
        assert!(MeasuredTable::from_csv("wrong magic\n").is_err());
        let mut csv = toy().to_csv();
        csv.push_str("5,1,1\n"); // out-of-order occupancy
        assert!(MeasuredTable::from_csv(&csv).is_err());
        assert!(MeasuredTable::from_json("{}").is_err());
        assert!(MeasuredTable::from_json(&toy().to_json().replace("v1", "v9")).is_err());
        let truncated = &toy().to_json()[..40];
        assert!(MeasuredTable::from_json(truncated).is_err());
    }

    #[test]
    fn harvested_dcf_table_is_reproducible_and_usable() {
        let h = RateHarvester::new(HarvestConfig {
            max_k: 4,
            reps: 3,
            events: 1_500,
            base_seed: 7,
        });
        let phy = PhyParams::bianchi_fhss();
        let a = h.harvest_dcf(&phy, "dcf");
        let b = h.harvest_dcf(&phy, "dcf");
        assert_eq!(a, b, "same config + seed must reproduce byte-identically");
        assert_eq!(a.max_k(), 4);
        assert!(a.mean_bps.iter().all(|&m| m > 0.0));
        assert!(a.ci_half_width_bps.iter().all(|&c| c >= 0.0));
        // Wrapping for the engines serves positive rates.
        let r = a.to_rate();
        assert_eq!(r.rate(0), 0.0);
        assert!(r.rate(3) > 0.0);
    }

    #[test]
    fn harvested_aloha_decays_and_classifies_monotone_at_least() {
        let h = RateHarvester::new(HarvestConfig {
            max_k: 6,
            reps: 4,
            events: 30_000,
            base_seed: 11,
        });
        let t = h.harvest_aloha(1e6, "aloha");
        // R(1) = bitrate exactly (a lone station always succeeds at p*=1).
        assert!((t.mean_bps[0] - 1e6).abs() < 1e-6);
        assert!(t.mean_bps[5] < t.mean_bps[0]);
        // At 30k slots the CI is tight enough to certify monotonicity.
        assert!(
            t.shape() >= RateShape::MonotoneOnly,
            "shape {:?}",
            t.shape()
        );
    }

    #[test]
    fn deterministic_closure_harvest_reaches_concave() {
        let h = RateHarvester::new(HarvestConfig {
            max_k: 8,
            reps: 1,
            events: 1,
            base_seed: 0,
        });
        // Exact constant table with zero CI: the strongest claim holds.
        let t = h.harvest_with("flat", "closure", |_, _| 5.0e6);
        assert_eq!(t.shape(), RateShape::ConcaveSharing);
        assert_eq!(t.ci_half_width_bps, vec![0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "separator")]
    fn separator_characters_rejected() {
        let _ = MeasuredTable::new("a,b", "s", 1, vec![1.0], vec![0.0]);
    }
}
