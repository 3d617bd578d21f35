//! # mrca-experiments — figure/table regeneration harness
//!
//! One binary per artifact of the paper. This table is the binary index
//! the other crates' docs point to:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_example` | Figures 1–2: the running example + lemma diagnosis |
//! | `fig3_rate_functions` | Figure 3: `R(k_c)` for three MAC models |
//! | `fig45_ne_examples` | Figures 4–5: NE examples, verified both ways |
//! | `t1_characterization` | Theorem 1 vs exhaustive search |
//! | `t2_efficiency` | Theorem 2: NE welfare vs optimum vs baselines |
//! | `t3_algorithm` | Algorithm 1 invariants across sweeps |
//! | `t4_convergence` | Best-response convergence scaling |
//! | `t5_bianchi` | Bianchi model vs slot-level simulation |
//! | `t6_distributed` | distributed-protocol activation sweep |
//! | `t7_extensions` | energy-cost supply curve, mixed-budget fleets, slotted Aloha |
//! | `t8_suite` | `ScenarioSuite` grid sweep + extended axes (T8b: budgets × channel rates) |
//! | `t9_scale` | large-N sparse+heap sweep, 10⁵–10⁶ users, streamed CSV |
//! | `t10_churn` | churn service: seeded event replay vs a standing equilibrium |
//! | `t11_spatial` | spatial interference sweep on geometric conflict graphs |
//! | `t12_measured` | measured DCF/Aloha rate tables: harvest → classify → converge |
//! | `all` | run everything |
//!
//! Each binary prints an ASCII table/plot and writes a CSV to `results/`
//! (workspace root), so the repository regenerates every table above with
//! `cargo run --release -p mrca-experiments --bin all`. The seeded binaries
//! from `fig1_example` to `t8_suite` (all but `t6_distributed`) are pinned
//! byte for byte: `.github/paper-golden.sh` prints their stdout and the
//! sha256 of every result file they write, and CI diffs that against
//! `.github/paper-golden.txt`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ascii_plot;
pub mod churn;
pub mod merge;
pub mod progress;
pub mod shard;
pub mod spatial;
pub mod suite;
pub mod table;

pub use progress::ProgressMeter;
pub use shard::ShardSpec;
pub use suite::{
    BudgetSpec, CellOutcome, ChannelScaleSpec, ExtendedCell, ExtendedOutcome, ExtendedScenarioGrid,
    ExtendedScenarioSuite, MeasuredSim, OrderingSpec, RateSpec, ScenarioCell, ScenarioGrid,
    ScenarioSuite, SuiteReport,
};

use std::fs;
use std::io;
use std::path::PathBuf;

/// Resolve the shared `results/` directory (workspace root), creating it
/// if needed.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/experiments; results live two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    let _ = fs::create_dir_all(&p);
    p
}

/// Write `contents` to `results/<name>` and echo the path.
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("  [written] {}", path.display());
    path
}

/// A row-at-a-time CSV writer for sweeps whose result sets should not be
/// held in memory: each [`row`](StreamingCsv::row) is quoted exactly like
/// [`table::Table::to_csv`], written through a buffer and flushed, so a
/// partially-completed (or interrupted) large-N sweep still leaves a
/// valid, readable prefix on disk. The `t9_scale` bin streams its
/// 10⁵–10⁶-user grid through this instead of a [`suite::SuiteReport`].
#[derive(Debug)]
pub struct StreamingCsv {
    w: io::BufWriter<fs::File>,
    n_cols: usize,
    path: PathBuf,
}

impl StreamingCsv {
    /// Create (truncate) `results/<name>` and write the header row.
    pub fn create(name: &str, headers: &[&str]) -> Self {
        let path = results_dir().join(name);
        let file =
            fs::File::create(&path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
        let mut s = StreamingCsv {
            w: io::BufWriter::new(file),
            n_cols: headers.len(),
            path,
        };
        s.write_line(headers.iter().map(|h| h.to_string()));
        s
    }

    /// Reopen `results/<name>` for appending, recovering the rows an
    /// interrupted sweep already finished — the resume half of the
    /// streaming contract:
    ///
    /// * no file (or one without a single complete record) → behaves
    ///   exactly like [`create`](StreamingCsv::create), returning no
    ///   completed rows;
    /// * otherwise the longest valid prefix is parsed
    ///   ([`merge::parse_csv_prefix`]: complete, newline-terminated
    ///   records with balanced quotes and the header's column count), the
    ///   file is truncated to that prefix (dropping a torn trailing
    ///   record from a mid-write kill), and the completed data rows are
    ///   returned so the caller can skip their cells instead of
    ///   recomputing them.
    ///
    /// # Panics
    ///
    /// Panics if the existing header row differs from `headers`: the file
    /// belongs to a different schema, and silently truncating it would
    /// destroy data. Delete the file (or pick another name) to restart.
    pub fn resume(name: &str, headers: &[&str]) -> (Self, Vec<Vec<String>>) {
        let path = results_dir().join(name);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return (Self::create(name, headers), Vec::new());
            }
            Err(e) => panic!("reading {}: {e}", path.display()),
        };
        let (mut records, ends) = merge::parse_csv_prefix(&text);
        if records.is_empty() {
            // An empty or torn-mid-header file: nothing recoverable.
            return (Self::create(name, headers), Vec::new());
        }
        assert!(
            records[0]
                .iter()
                .map(String::as_str)
                .eq(headers.iter().copied()),
            "resuming {}: header {:?} does not match the expected {:?}; \
             delete the file to restart the sweep under the new schema",
            path.display(),
            records[0],
            headers,
        );
        // Keep data rows up to the first width mismatch (a row that parsed
        // as a complete record but with the wrong arity is corrupt, and so
        // is everything after it).
        let mut keep = 1;
        while keep < records.len() && records[keep].len() == headers.len() {
            keep += 1;
        }
        let valid_bytes = ends[keep - 1] as u64;
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("reopening {}: {e}", path.display()));
        f.set_len(valid_bytes)
            .unwrap_or_else(|e| panic!("truncating {}: {e}", path.display()));
        drop(f);
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("appending to {}: {e}", path.display()));
        records.truncate(keep);
        let completed: Vec<Vec<String>> = records.drain(1..).collect();
        (
            StreamingCsv {
                w: io::BufWriter::new(file),
                n_cols: headers.len(),
                path,
            },
            completed,
        )
    }

    /// Append one row (must match the header width) and flush it.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header or the write
    /// fails.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.n_cols, "row width != header width");
        self.write_line(cells.iter().cloned());
    }

    /// The file being written.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }

    fn write_line(&mut self, cells: impl Iterator<Item = String>) {
        use io::Write as _;
        let quoted: Vec<String> = cells.map(|c| table::csv_quote(&c)).collect();
        writeln!(self.w, "{}", quoted.join(","))
            .and_then(|_| self.w.flush())
            .unwrap_or_else(|e| panic!("writing {}: {e}", self.path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_csv_matches_table_quoting_and_streams_rows() {
        let mut s = StreamingCsv::create("_selftest_stream.csv", &["instance", "x"]);
        // Flushed after every row: the prefix is already on disk.
        s.row(&["N=2,k=2".into(), "1".into()]);
        let prefix = std::fs::read_to_string(s.path()).unwrap();
        assert_eq!(prefix, "instance,x\n\"N=2,k=2\",1\n");
        s.row(&["plain".into(), "2.5".into()]);
        let full = std::fs::read_to_string(s.path()).unwrap();
        assert_eq!(full, "instance,x\n\"N=2,k=2\",1\nplain,2.5\n");
        let _ = std::fs::remove_file(s.path().clone());
    }

    #[test]
    fn streaming_csv_quotes_newlines() {
        // Regression: a cell with an embedded newline must not split the
        // on-disk row (it used to be written bare, corrupting the prefix).
        let mut s = StreamingCsv::create("_selftest_stream_nl.csv", &["instance", "x"]);
        s.row(&["two\nlines".into(), "cr\rcell".into()]);
        let on_disk = std::fs::read_to_string(s.path()).unwrap();
        assert_eq!(on_disk, "instance,x\n\"two\nlines\",\"cr\rcell\"\n");
        // And it parses back as exactly one data record.
        let rows = merge::parse_csv(&on_disk).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["two\nlines".to_string(), "cr\rcell".into()]);
        let _ = std::fs::remove_file(s.path().clone());
    }

    #[test]
    fn streaming_csv_resume_recovers_prefix_and_drops_torn_tail() {
        let name = "_selftest_resume.csv";
        let mut s = StreamingCsv::create(name, &["a", "b"]);
        s.row(&["1".into(), "x,y".into()]);
        s.row(&["2".into(), "multi\nline".into()]);
        let full = std::fs::read_to_string(s.path()).unwrap();
        let path = s.path().clone();
        drop(s);
        // Simulate a mid-write kill: cut inside the second data row (the
        // quoted multi-line cell), leaving an unbalanced quote.
        std::fs::write(&path, &full.as_bytes()[..full.len() - 4]).unwrap();
        let (mut s, completed) = StreamingCsv::resume(name, &["a", "b"]);
        assert_eq!(completed, vec![vec!["1".to_string(), "x,y".into()]]);
        // The torn record was truncated away; re-append it and the file
        // must be byte-identical to the uninterrupted run.
        s.row(&["2".into(), "multi\nline".into()]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        // Resuming a finished file appends nothing and returns every row.
        drop(s);
        let (s, completed) = StreamingCsv::resume(name, &["a", "b"]);
        assert_eq!(completed.len(), 2);
        drop(s);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn streaming_csv_resume_of_missing_file_creates_it() {
        let name = "_selftest_resume_fresh.csv";
        let path = results_dir().join(name);
        let _ = std::fs::remove_file(&path);
        let (s, completed) = StreamingCsv::resume(name, &["a"]);
        assert!(completed.is_empty());
        assert_eq!(std::fs::read_to_string(s.path()).unwrap(), "a\n");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "does not match the expected")]
    fn streaming_csv_resume_rejects_header_mismatch() {
        let name = "_selftest_resume_schema.csv";
        let path = {
            let s = StreamingCsv::create(name, &["old", "schema"]);
            s.path().clone()
        };
        let out = std::panic::catch_unwind(|| StreamingCsv::resume(name, &["new", "schema"]));
        let _ = std::fs::remove_file(path);
        std::panic::resume_unwind(out.unwrap_err());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn streaming_csv_rejects_ragged_rows() {
        let mut s = StreamingCsv::create("_selftest_ragged.csv", &["a", "b"]);
        let p = s.path().clone();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.row(&["only-one".into()]);
        }));
        let _ = std::fs::remove_file(p);
        std::panic::resume_unwind(out.unwrap_err());
    }

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.is_dir());
        assert!(d.ends_with("results"));
    }

    #[test]
    fn write_result_roundtrips() {
        let p = write_result("_selftest.csv", "a,b\n1,2\n");
        let back = std::fs::read_to_string(&p).unwrap();
        assert_eq!(back, "a,b\n1,2\n");
        let _ = std::fs::remove_file(p);
    }
}
