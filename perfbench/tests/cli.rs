//! End-to-end checks of the benchmark binary on its tiny shapes.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["churn-heap", "retune-dp", "spatial-dense", "spatial-wide"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn perfbench")
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits one level below the repository root")
}

fn tiny(workload: &str, trace: &str) -> String {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--tiny",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{workload}: {last}"
    );
    stdout
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in\n{stdout}"))
}

#[test]
fn same_seed_repeats_counts_and_final_state() {
    for w in WORKLOADS {
        let (a, b) = (tiny(w, "1"), tiny(w, "1"));
        assert_eq!(line(&a, "counts:"), line(&b, "counts:"), "{w}");
        assert_eq!(line(&a, "fingerprint:"), line(&b, "fingerprint:"), "{w}");
    }
}

#[test]
fn traced_run_prints_a_layer_table_that_sums_to_the_wall() {
    for w in WORKLOADS {
        let out = tiny(w, "1");
        let sums = line(&out, "  rows sum to ");
        let words: Vec<&str> = sums.split_whitespace().collect();
        assert_eq!(words[3], words[6], "{w}: {sums}");
        assert!(out.contains("\"trace.overhead_frac\""), "{w}");
        assert!(out.contains("  unattributed "), "{w}");
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        let out = tiny(w, "0");
        let last = out.lines().last().expect("a result line");
        for m in [
            "setup_s",
            "solve_s",
            "event_p50_ms",
            "event_p95_ms",
            "events_per_s",
            "peak_rss_mb",
        ] {
            assert!(
                last.contains(&format!("\"{m}\": {{\"value\": ")),
                "{w}: {m}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "churn-heap", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "churn-heap",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Running the benchmark must never change a tracked file (nor leave an
/// untracked one behind): it writes nothing but its build directory.
#[test]
fn a_run_leaves_git_status_unchanged() {
    let status = || {
        Command::new("git")
            .args(["status", "--porcelain"])
            .current_dir(repo_root())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| o.stdout)
    };
    let Some(before) = status() else {
        eprintln!("skipped: not inside a git work tree");
        return;
    };
    for w in WORKLOADS {
        tiny(w, "0");
    }
    assert_eq!(
        String::from_utf8_lossy(&before),
        String::from_utf8_lossy(&status().expect("git status")),
    );
}
