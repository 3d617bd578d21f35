//! T9 — the large-N scale sweep: best-response dynamics over 10⁵–10⁷
//! users on the sparse + heap engine, streamed row-by-row to CSV.
//!
//! This is the workload the ROADMAP's "Incremental best response" and
//! "Large-N memory" items blocked: a dense `|N|×|C|` matrix at 10⁶ users
//! × 64 channels is 256 MB before any work happens, and the full-DP best
//! response costs `O(|C|·k²)` per user per round. The sparse CSR rows
//! plus the `O(k log |C|)` lazy-heap engine run the same game in
//! `Θ(Σ_i k_i)` memory — and the run *asserts* the allocation-free
//! claim: the engine is the heap, the state never leaves
//! `SparseStrategies` + `ChannelLoads` (the dense bridge is simply never
//! called on this path), and the measured footprint must stay at least
//! 4× under the dense one.
//!
//! ```text
//! t9_scale [--users N] [--channels C] [--radios K] [--seed S]
//!          [--rounds R] [--smoke] [--shard i/m]
//! ```
//!
//! Every cell runs the sequential active-set worklist on one thread and
//! must land on an exact, balanced equilibrium; the `activations`,
//! `br_checks`, `skipped_checks` and `moves` columns are its counters,
//! a deterministic function of the flags.
//!
//! `--smoke` runs the single `--users` cell (default 10⁵) under a small
//! round budget — the CI wall-clock-gated job; without it the bin sweeps
//! 10⁵ → 10⁶ users and reports the sparse/dense memory ratio at each
//! size. `--shard i/m` runs only shard `i`'s cells (ownership by
//! canonical cell id, like `t8_suite`), streamed **resumably** to
//! `t9_scale.s<seed>r<rounds>.shard<i>of<m>.csv` with a leading
//! `cell_index` column — the stem encodes the run configuration, since
//! `--seed`/`--rounds` are invisible in the rows and resuming under
//! different flags must never mix results. Kill and rerun the same
//! shard and finished cells are skipped, the final file byte-identical;
//! recombine shards with `all merge`.

use mrca_core::br_fast::{self, BrEngine};
use mrca_core::sparse::SparseStrategies;
use mrca_core::{ChannelAllocationGame, ChannelLoads, GameConfig};
use mrca_experiments::shard::{run_sharded_streaming, Parallelism};
use mrca_experiments::suite::join_label;
use mrca_experiments::{ShardSpec, StreamingCsv};
use std::time::Instant;

struct Args {
    users: usize,
    channels: usize,
    radios: u32,
    seed: u64,
    rounds: usize,
    smoke: bool,
    shard: Option<ShardSpec>,
}

fn parse_args() -> Args {
    let mut args = Args {
        users: 100_000,
        channels: 64,
        radios: 2,
        seed: 2026,
        // Round cap, not a work budget: the active set skips converged
        // users, so idle rounds are nearly free (the 10⁶ cell needs ~41),
        // and the cap leaves generous headroom.
        rounds: 400,
        smoke: false,
        shard: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match flag.as_str() {
            "--users" => args.users = grab("--users") as usize,
            "--channels" => args.channels = grab("--channels") as usize,
            "--radios" => args.radios = grab("--radios") as u32,
            "--seed" => args.seed = grab("--seed"),
            "--rounds" => args.rounds = grab("--rounds") as usize,
            "--smoke" => args.smoke = true,
            "--shard" => {
                let v = it.next().unwrap_or_else(|| panic!("--shard needs i/m"));
                args.shard =
                    Some(ShardSpec::parse(&v).unwrap_or_else(|e| panic!("--shard {v:?}: {e}")));
            }
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    args
}

/// Canonical id of one scale cell — the label shard ownership hashes
/// (content-derived like the suite's `cell_label`, so the partition is
/// stable if the size list grows).
fn scale_cell_id(n_users: usize, radios: u32, n_channels: usize) -> String {
    join_label(&[
        "t9_scale".to_string(),
        n_users.to_string(),
        radios.to_string(),
        n_channels.to_string(),
    ])
}

/// One scale cell, entirely on the sparse path, driven by the
/// sequential active-set worklist. Returns the CSV row.
fn run_cell(
    n_users: usize,
    radios: u32,
    n_channels: usize,
    seed: u64,
    rounds: usize,
) -> Vec<String> {
    let cfg = GameConfig::new(n_users, radios, n_channels).expect("valid scale dims");
    // Unit rate at every cell size: the improvement predicate is
    // scale-relative, so the ~1e-11 per-radio payoff gaps of a 10⁷-user
    // cell are resolved exactly like the ~1e-4 gaps of a 10⁴-user one
    // (the rate-inflation workaround this bin once carried is gone).
    let game = ChannelAllocationGame::with_constant_rate(cfg, 1.0);

    let build = Instant::now();
    let start = SparseStrategies::random_uniform(n_users, radios, n_channels, seed);
    let sparse_bytes = start.heap_bytes();
    let dense_bytes = start.dense_bytes();
    let mem_ratio = dense_bytes as f64 / sparse_bytes as f64;

    // The allocation-free acceptance assertions: the sparse footprint is
    // structurally independent of |C| and far under the dense matrix, and
    // the engine on this payoff is the O(k log |C|) heap — if either ever
    // regresses (a dense detour sneaking into the path, a rate model
    // losing its concavity declaration), the run fails loudly rather than
    // just getting slower.
    assert!(
        sparse_bytes * 4 < dense_bytes,
        "sparse path must stay ≥4x under dense: {sparse_bytes} vs {dense_bytes}"
    );
    let start_loads = ChannelLoads::of_sparse(&start);
    assert!(
        BrEngine::new(&game, &start_loads).is_heap(),
        "constant-rate scale cells must route to the heap engine"
    );
    let build_ms = build.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let (end, converged, used_rounds, counters) =
        br_fast::best_response_dynamics_sparse_counted(&game, start, rounds);
    let dyn_ms = t.elapsed().as_secs_f64() * 1e3;

    // Active-set acceptance assertions: the dynamics must route through
    // the worklist (checks + skips account for every sweep slot), the
    // first epoch checks everyone, and any non-trivial convergence must
    // actually *skip* work — if the worklist ever degenerates into a
    // disguised sweep, the run fails loudly.
    assert_eq!(
        counters.checks + counters.skipped_checks,
        used_rounds as u64 * n_users as u64,
        "active-set bookkeeping must cover the sweep-equivalent checks"
    );
    assert!(
        counters.checks >= n_users as u64,
        "first epoch checks all users"
    );
    assert!(
        used_rounds < 3 || counters.skipped_checks > 0,
        "a ≥3-round convergence must skip provably-idle users"
    );

    let t = Instant::now();
    let check = br_fast::nash_check_sparse(&game, &end);
    let nash_ms = t.elapsed().as_secs_f64() * 1e3;
    let loads = ChannelLoads::of_sparse(&end);
    assert!(converged, "scale cell must converge within {rounds} rounds");
    assert!(check.is_nash(), "converged state must be an exact NE");
    assert!(
        loads.max_delta() <= 1,
        "constant-rate NE must be load-balanced (Proposition 1)"
    );

    println!(
        "N={n_users:>8} k={radios} C={n_channels}: converged in {used_rounds:>2} rounds \
         ({dyn_ms:>9.1} ms dynamics, {nash_ms:>8.1} ms NE check); \
         memory {:.1} MB sparse vs {:.1} MB dense ({mem_ratio:.1}x); \
         {} checks / {} skipped / {} moves",
        sparse_bytes as f64 / 1e6,
        dense_bytes as f64 / 1e6,
        counters.checks,
        counters.skipped_checks,
        counters.moves,
    );

    vec![
        n_users.to_string(),
        radios.to_string(),
        n_channels.to_string(),
        "heap".into(),
        converged.to_string(),
        used_rounds.to_string(),
        counters.activations.to_string(),
        counters.checks.to_string(),
        counters.skipped_checks.to_string(),
        counters.moves.to_string(),
        format!("{build_ms:.3}"),
        format!("{dyn_ms:.3}"),
        format!("{nash_ms:.3}"),
        sparse_bytes.to_string(),
        dense_bytes.to_string(),
        format!("{mem_ratio:.2}"),
        loads.max_delta().to_string(),
        check.is_nash().to_string(),
    ]
}

const HEADERS: [&str; 18] = [
    "n_users",
    "radios",
    "n_channels",
    "engine",
    "converged",
    "rounds",
    "activations",
    "br_checks",
    "skipped_checks",
    "moves",
    "build_ms",
    "dynamics_ms",
    "nash_check_ms",
    "sparse_bytes",
    "dense_bytes",
    "mem_ratio",
    "max_delta",
    "nash",
];

fn main() {
    let args = parse_args();
    println!("== T9: large-N sparse+heap scale sweep ==\n");
    #[allow(unused_mut)]
    let mut sizes: Vec<usize> = if args.smoke {
        vec![args.users]
    } else {
        vec![100_000, 250_000, 500_000, 1_000_000, 10_000_000]
    };
    // Debug builds keep the O(Σ k_i)-per-read paranoid load checks
    // compiled in, which makes large-N rounds quadratic; cap the sweep so
    // a debug `all` run still finishes, and leave the real sizes to
    // `--release` (what CI's scale-smoke job runs).
    #[cfg(debug_assertions)]
    {
        eprintln!("note: debug build — capping the sweep at 2000 users; use --release for scale");
        sizes = sizes.into_iter().map(|n| n.min(2_000)).collect();
        sizes.dedup();
    }

    if let Some(spec) = args.shard {
        // Sharded + resumable through the same engine as the suites
        // (sequentially: scale cells are huge, and concurrent 10⁶-user
        // games would distort the memory and timing columns). The file
        // stem encodes --seed/--rounds — they are invisible in the rows,
        // so differently-configured runs must land in different files —
        // while the dimension columns of recovered rows are validated by
        // the engine's static-prefix check.
        let base = format!("t9_scale.s{}r{}", args.seed, args.rounds);
        let headers: Vec<String> = HEADERS.iter().map(|s| s.to_string()).collect();
        println!(
            "shard {spec} of the {} scale cells -> {}",
            sizes.len(),
            spec.file_name(&base)
        );
        let report = run_sharded_streaming(
            &base,
            &headers,
            &sizes,
            &spec,
            Parallelism::Sequential,
            |&n| scale_cell_id(n, args.radios, args.channels),
            |&n| {
                vec![
                    n.to_string(),
                    args.radios.to_string(),
                    args.channels.to_string(),
                ]
            },
            |&n| run_cell(n, args.radios, args.channels, args.seed, args.rounds),
        );
        println!(
            "\nOK: shard {spec} ({} cells) converged to exact, balanced equilibria on the sparse path.",
            report.rows.len()
        );
        println!(
            "  [streamed] {}",
            mrca_experiments::results_dir()
                .join(spec.file_name(&base))
                .display()
        );
        return;
    }

    let mut csv = StreamingCsv::create("t9_scale.csv", &HEADERS);
    for n in sizes {
        let row = run_cell(n, args.radios, args.channels, args.seed, args.rounds);
        csv.row(&row); // streamed: each finished cell is on disk immediately
    }
    println!("\nOK: all scale cells converged to exact, balanced equilibria on the sparse path.");
    println!("  [streamed] {}", csv.path().display());
}
