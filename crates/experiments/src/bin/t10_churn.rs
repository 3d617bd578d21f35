//! T10 — the churn service: replay a seeded arrival / departure /
//! budget-change / rate-shift event stream against a standing
//! equilibrium and measure per-event re-convergence (see
//! [`mrca_experiments::churn`] for the driver and the measurement
//! contract).
//!
//! ```text
//! t10_churn [--users N] [--channels C] [--radios K] [--seed S]
//!           [--events E] [--rounds R] [--drift-every D] [--smoke]
//! ```
//!
//! The default shape is the acceptance workload: a standing **10⁶-user**
//! equilibrium absorbing 2 000 events. `--smoke` is the CI gate — 10⁵
//! users, 200 events, a drift check every 50. Either shape prints a
//! `churn:` key=value summary line the CI job asserts on (`events > 0`,
//! `drift_failures == 0`, and the engine's best-response `checks` over
//! the stream under a bound — a seeded count, so it is deterministic
//! and cannot flake on a slow runner; the line also
//! carries `occupant_wakeups`, `revalidated` and `moves`); only the
//! full shape writes the tracked
//! `results/BENCH_churn.json`, so a smoke run leaves the committed
//! report alone. The bin itself also asserts both, so a drift failure
//! is a nonzero exit, not just a number in a file. The replay runs the
//! sequential active-set worklist on one thread.

use mrca_experiments::churn::{ChurnConfig, ChurnDriver};
use mrca_experiments::write_result;

/// The run's configuration and whether it is the `--smoke` shape.
fn parse_args() -> (ChurnConfig, bool) {
    let mut cfg = ChurnConfig::full();
    let mut smoke = false;
    let mut explicit_events = None;
    let mut explicit_drift = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match flag.as_str() {
            "--users" => cfg.initial_users = grab("--users") as usize,
            "--channels" => cfg.n_channels = grab("--channels") as usize,
            "--radios" => cfg.radios = grab("--radios") as u32,
            "--seed" => cfg.seed = grab("--seed"),
            "--events" => explicit_events = Some(grab("--events") as usize),
            "--rounds" => cfg.max_rounds = grab("--rounds") as usize,
            "--drift-every" => explicit_drift = Some(grab("--drift-every") as usize),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    if smoke {
        let keep = (cfg.initial_users, cfg.radios, cfg.n_channels, cfg.seed);
        cfg = ChurnConfig::smoke();
        // --smoke composes with explicit dimension flags (the CI job
        // pins --users 100000 to make the gate's shape visible).
        if std::env::args().any(|a| a == "--users") {
            cfg.initial_users = keep.0;
        }
        (cfg.radios, cfg.n_channels, cfg.seed) = (keep.1, keep.2, keep.3);
    }
    if let Some(e) = explicit_events {
        cfg.events = e;
    }
    if let Some(d) = explicit_drift {
        cfg.drift_every = d;
    }
    // Debug builds keep the O(Σ k_i) paranoid checks compiled in; cap the
    // standing population so a debug run still finishes (CI's churn-smoke
    // job runs --release at the real size, like t9's scale-smoke).
    #[cfg(debug_assertions)]
    {
        if cfg.initial_users > 2_000 {
            eprintln!("note: debug build — capping the standing population at 2000 users");
            cfg.initial_users = 2_000;
        }
    }
    (cfg, smoke)
}

fn main() {
    let (cfg, smoke) = parse_args();
    println!("== T10: churn service — seeded event replay vs a standing equilibrium ==\n");
    println!(
        "settling {} users (k={}, C={}) ...",
        cfg.initial_users, cfg.radios, cfg.n_channels
    );
    let driver = ChurnDriver::new(cfg.clone());
    println!("replaying {} events ...", cfg.events);
    let report = driver.replay();

    println!("\n{}", report.summary());
    if !smoke {
        write_result("BENCH_churn.json", &report.to_json());
    }

    // The CI-parseable gate line (churn-smoke parses its key=value
    // fields).
    println!(
        "churn: events={} drift_failures={} events_per_sec={:.1} checks={} \
         occupant_wakeups={} revalidated={} moves={}",
        report.events_processed,
        report.drift_failures,
        report.events_per_sec,
        report.checks,
        report.occupant_wakeups,
        report.revalidated,
        report.total_moves
    );
    assert!(
        report.events_processed > 0,
        "the stream must process events"
    );
    assert_eq!(
        report.drift_failures, 0,
        "the standing equilibrium must never drift"
    );
    println!(
        "\nOK: standing equilibrium held through {} events with zero drift.",
        report.events_processed
    );
}
