//! Run every experiment binary in sequence (the one-shot regeneration of
//! all figures/tables; the binary index is in `crates/experiments/src/lib.rs`)
//! — or, as `all merge`,
//! deterministically recombine shard CSVs into the canonical artifact:
//!
//! ```text
//! all                                  # run every experiment
//! all merge <out.csv> <shard.csv>...   # merge shard files into out
//! ```
//!
//! `merge` resolves bare file names against `results/` (paths containing
//! a separator are taken as-is), validates the shard set (one schema,
//! unique and gap-free `cell_index`), and writes the canonical-order CSV
//! plus its JSON twin (`<out>.json`) — byte-identical to what a
//! single-process run of the sharded suite would have written.

use std::path::PathBuf;
use std::process::Command;

fn resolve(name: &str) -> PathBuf {
    let p = PathBuf::from(name);
    if p.components().count() > 1 {
        p
    } else {
        mrca_experiments::results_dir().join(name)
    }
}

fn merge_mode(args: &[String]) {
    if args.len() < 2 {
        eprintln!("usage: all merge <out.csv> <shard.csv>...");
        std::process::exit(2);
    }
    let out = resolve(&args[0]);
    let shards: Vec<PathBuf> = args[1..].iter().map(|a| resolve(a)).collect();
    let stem = out
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "merged".into());
    let report = mrca_experiments::merge::merge_files(&shards, &stem).unwrap_or_else(|e| {
        eprintln!("merge error: {e}");
        std::process::exit(2);
    });
    std::fs::write(&out, report.to_csv())
        .unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!("  [written] {}", out.display());
    let json = out.with_extension("json");
    std::fs::write(&json, report.to_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", json.display()));
    println!("  [written] {}", json.display());
    println!(
        "merged {} shard file(s): {} cells in canonical order",
        shards.len(),
        report.rows.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return merge_mode(&args[1..]);
    }
    assert!(
        args.is_empty(),
        "unknown arguments {args:?} (only the `merge` subcommand takes arguments)"
    );
    let bins = [
        "fig1_example",
        "fig3_rate_functions",
        "fig45_ne_examples",
        "t1_characterization",
        "t2_efficiency",
        "t3_algorithm",
        "t4_convergence",
        "t5_bianchi",
        "t6_distributed",
        "t7_extensions",
        "t8_suite",
        "t9_scale",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n================ {bin} ================\n");
        let status = Command::new(exe_dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
        if !status.success() {
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments regenerated successfully.");
    } else {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}
