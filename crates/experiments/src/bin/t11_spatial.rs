//! T11 — the spatial interference sweep: per-neighborhood load games on
//! geometric conflict graphs (see [`mrca_experiments::spatial`] for the
//! sweep and measurement contract).
//!
//! ```text
//! t11_spatial [--radios K] [--seed S] [--rounds R]
//!             [--smoke-users N] [--wide-users N] [--smoke]
//! ```
//!
//! The default is the full density × range × |C| sweep plus two
//! standalone cells: a 10⁶-user geometric **smoke** cell and a
//! `|C| = 512` **wide** cell. Every cell measures the neighborhood
//! index it held — dense or CSR rows, whichever its build found
//! smaller — against the dense `N·|C|` matrix. `--smoke` is the CI gate
//! — one small sweep cell plus both standalone cells. Either shape
//! writes the per-cell `results/t11_spatial.csv` and prints a
//! `spatial:` summary line the CI job asserts on (`cells > 0`,
//! `unresolved == 0`, both standalone cells converged,
//! `smoke_mem_ratio >= 0.99` — the smoke cell's index at most dense
//! size plus scratch — and `mem_ratio >= 8` at the wide cell); only
//! the full shape writes the tracked `results/BENCH_spatial.json`, so a
//! smoke run leaves the committed report alone. The bin itself asserts
//! the same gates, so a regression is a nonzero exit, not just a
//! number in a file.

use mrca_experiments::spatial::{run_sweep, CellReport, SpatialConfig};
use mrca_experiments::{write_result, StreamingCsv};

/// The run's configuration and whether it is the `--smoke` shape.
fn parse_args() -> (SpatialConfig, bool) {
    let mut cfg = SpatialConfig::full();
    let mut smoke = false;
    let mut explicit_smoke_users = None;
    let mut explicit_wide_users = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match flag.as_str() {
            "--radios" => cfg.radios = grab("--radios") as u32,
            "--seed" => cfg.seed = grab("--seed"),
            "--rounds" => cfg.max_rounds = grab("--rounds") as usize,
            "--smoke-users" => explicit_smoke_users = Some(grab("--smoke-users") as usize),
            "--wide-users" => explicit_wide_users = Some(grab("--wide-users") as usize),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    if smoke {
        let keep = (cfg.radios, cfg.seed, cfg.max_rounds);
        cfg = SpatialConfig::smoke();
        (cfg.radios, cfg.seed, cfg.max_rounds) = keep;
    }
    if let Some(n) = explicit_smoke_users {
        cfg.smoke_users = n;
    }
    if let Some(n) = explicit_wide_users {
        cfg.wide_users = n;
    }
    // Debug builds keep the paranoid checks compiled in; cap the cell
    // populations so a debug run still finishes (CI's spatial-smoke job
    // runs --release at the real size, like t9/t10). The wide cell's
    // debug shape keeps the density low (side 200 for 2000 users) so
    // the ≥8× memory assertion below holds at either scale.
    #[cfg(debug_assertions)]
    {
        if cfg.smoke_users > 2_000 {
            eprintln!("note: debug build — capping the smoke cell at 2000 users");
            cfg.smoke_users = 2_000;
            cfg.smoke_side = 100.0;
        }
        if cfg.wide_users > 2_000 {
            eprintln!("note: debug build — capping the wide cell at 2000 users");
            cfg.wide_users = 2_000;
            cfg.wide_side = 200.0;
        }
        if cfg.side > 25.0 {
            eprintln!("note: debug build — shrinking the sweep world to side 25");
            cfg.side = 25.0;
        }
    }
    (cfg, smoke)
}

/// One CSV row per cell, standalone cells tagged by name.
fn csv_row(csv: &mut StreamingCsv, tag: &str, c: &CellReport) {
    csv.row(&[
        tag.to_string(),
        c.n.to_string(),
        c.density.to_string(),
        c.range.to_string(),
        c.n_channels.to_string(),
        format!("{:.3}", c.mean_degree),
        u8::from(c.converged).to_string(),
        u8::from(c.cycle).to_string(),
        c.rounds.to_string(),
        c.moves.to_string(),
        c.potential_decreases.to_string(),
        format!("{:.6}", c.welfare_eq),
        format!("{:.6}", c.welfare_coloring),
        c.dominated.to_string(),
        c.index_bytes.to_string(),
        c.index_dense_bytes.to_string(),
        c.graph_bytes.to_string(),
        format!("{:.2}", c.mem_ratio()),
        format!("{:.1}", c.ms),
    ]);
}

fn main() {
    let (cfg, smoke) = parse_args();
    println!("== T11: spatial interference — per-neighborhood load games on conflict graphs ==\n");
    println!(
        "sweep: {} densities x {} ranges x {} channel counts (side {}), k={}",
        cfg.densities.len(),
        cfg.ranges.len(),
        cfg.channels.len(),
        cfg.side,
        cfg.radios
    );
    let report = run_sweep(&cfg);
    if !smoke {
        write_result("BENCH_spatial.json", &report.to_json());
    }

    let mut csv = StreamingCsv::create(
        "t11_spatial.csv",
        &[
            "cell",
            "n",
            "density",
            "range",
            "n_channels",
            "mean_degree",
            "converged",
            "cycle",
            "rounds",
            "moves",
            "potential_decreases",
            "welfare_eq",
            "welfare_coloring",
            "dominated",
            "index_bytes",
            "index_dense_bytes",
            "graph_bytes",
            "mem_ratio",
            "ms",
        ],
    );
    for (i, c) in report.cells.iter().enumerate() {
        csv_row(&mut csv, &format!("sweep{i}"), c);
    }
    csv_row(&mut csv, "wide", &report.wide);
    csv_row(&mut csv, "smoke", &report.smoke);

    let total = report.cells.len() + 2;
    let smoke_ok = report.smoke.converged || report.smoke.cycle;
    // The CI-parseable gate line (spatial-smoke parses the key=value
    // fields; the unprefixed index fields are the wide cell's).
    println!(
        "spatial: cells={} cycles={} unresolved={} wide_users={} wide_converged={} \
         index_bytes={} index_dense_bytes={} graph_bytes={} mem_ratio={:.2} \
         smoke_users={} smoke_converged={} smoke_rounds={} smoke_moves={} smoke_ms={:.0} \
         smoke_mem_ratio={:.6}",
        total,
        report.cycles(),
        report.unresolved(),
        report.wide.n,
        u8::from(report.wide.converged),
        report.wide.index_bytes,
        report.wide.index_dense_bytes,
        report.wide.graph_bytes,
        report.wide.mem_ratio(),
        report.smoke.n,
        u8::from(report.smoke.converged),
        report.smoke.rounds,
        report.smoke.moves,
        report.smoke.ms,
        report.smoke.mem_ratio(),
    );
    assert!(!report.cells.is_empty(), "the sweep must produce cells");
    assert_eq!(
        report.unresolved(),
        0,
        "every cell must end in an explicit outcome (converged or detected cycle)"
    );
    assert!(smoke_ok, "the smoke cell must resolve");
    assert!(report.wide.converged, "the wide cell must converge");
    assert!(
        report.wide.index_bytes > 0 && report.wide.graph_bytes > 0,
        "memory accounting must be live"
    );
    assert!(
        report.smoke.mem_ratio() >= 0.99,
        "the smoke cell's index must be no larger than dense plus scratch \
         (got {:.6}: {} B vs {} B dense)",
        report.smoke.mem_ratio(),
        report.smoke.index_bytes,
        report.smoke.index_dense_bytes,
    );
    assert!(
        report.wide.mem_ratio() >= 8.0,
        "the CSR index must be >= 8x smaller than dense at the wide cell \
         (got {:.2}x: {} B vs {} B)",
        report.wide.mem_ratio(),
        report.wide.index_bytes,
        report.wide.index_dense_bytes,
    );
    println!(
        "\nOK: {} cells resolved explicitly ({} detected cycles); wide cell of {} users \
         at |C|={} holds the index in {} B vs {} B dense ({:.1}x); smoke cell of {} users {}.",
        total,
        report.cycles(),
        report.wide.n,
        report.wide.n_channels,
        report.wide.index_bytes,
        report.wide.index_dense_bytes,
        report.wide.mem_ratio(),
        report.smoke.n,
        if report.smoke.converged {
            "converged"
        } else {
            "ended in a detected cycle"
        }
    );
}
