//! T12 — measured rates end-to-end: harvest → classify → converge.
//!
//! The paper derives its equilibria for *analytic* sharing curves; real
//! MAC layers produce measured, noisy, often non-concave rate tables.
//! This bin closes the loop (ROADMAP open item 4): it harvests
//! `R(k)` tables from the slot-level DCF and Aloha simulators
//! ([`mrca_mac::harvest`]), lets the CI-aware classifier decide what
//! structure each table can certify, replays full games against the
//! measured curves next to their analytic twins on both best-response
//! routes, and measures what measured non-concavity actually costs:
//! heap eligibility, Theorem-1 certifiability, and convergence effort.
//!
//! ```text
//! t12_measured [--users N] [--channels C] [--radios K] [--seed S]
//!              [--rounds R] [--cycles P] [--smoke]
//! ```
//!
//! Every arm's active-set run is pinned **bit-identical** against the
//! full-sweep oracle (`mismatches` in the gate line counts trace
//! divergences — the bin asserts zero), and the generic route's park
//! certificate (the entry-horizon threshold of
//! [`ActiveSetDynamics`]) is measured by replaying the same seeded
//! perturbation stream through twin engines with the certificate on and
//! off (`speedup` = certificate-off / certificate-on engine checks; off,
//! every parked user is re-checked after each mutation, like a sweep;
//! the traces must stay identical, so the certificate is a pure
//! optimization by construction). The JSON keeps its historical
//! `wake_clock` / `refined_*` key names for the on arm.
//! Writes the harvested tables and prints the `measured:` gate line
//! CI's measured-smoke job asserts on. Only the full shape writes the
//! tracked `results/BENCH_measured.json`: a `--smoke` run (and a debug
//! build, which falls back to the smoke shape) leaves it alone.

use mrca_core::br_fast::{is_nash_sparse, sweep_dynamics_traced, ActiveSetDynamics, DynCounters};
use mrca_core::nash::{theorem1, theorem1_applicable};
use mrca_core::rate_model::{ConstantRate, RateModel};
use mrca_core::{
    ChannelAllocationGame, GameConfig, SparseStrategies, StrategyMatrix, StrategyVector, UserId,
};
use mrca_experiments::write_result;
use mrca_mac::{HarvestConfig, OptimalAlohaRate, PhyParams, PracticalDcfRate, RateHarvester};
use std::sync::Arc;
use std::time::Instant;

/// Aloha channel bitrate shared by the measured and analytic arms (the
/// same figure the Bianchi FHSS PHY uses, so the families are
/// comparable).
const ALOHA_BITRATE: f64 = 1e6;

#[derive(Clone)]
struct Config {
    users: usize,
    radios: u32,
    n_channels: usize,
    seed: u64,
    max_rounds: usize,
    /// Perturbation cycles of the certificate speedup replay.
    cycles: usize,
    harvest: HarvestConfig,
}

impl Config {
    /// Acceptance shape: the full harvest (24 occupancies × 8 reps ×
    /// 20 000 events) feeding a game whose mean per-channel load (20)
    /// sits inside the measured table.
    fn full() -> Self {
        Config {
            users: 240,
            radios: 2,
            n_channels: 24,
            seed: 12,
            max_rounds: 400,
            cycles: 60,
            harvest: HarvestConfig::full(),
        }
    }

    /// CI-gate shape: the smoke harvest (10 occupancies × 3 reps ×
    /// 3 000 events) and a proportionally smaller game (mean load 8).
    fn smoke() -> Self {
        Config {
            users: 64,
            radios: 2,
            n_channels: 16,
            seed: 12,
            max_rounds: 400,
            cycles: 12,
            harvest: HarvestConfig::smoke(),
        }
    }
}

/// The run's configuration and whether it is the smoke shape.
fn parse_args() -> (Config, bool) {
    let mut cfg = Config::full();
    let mut it = std::env::args().skip(1);
    let mut smoke = false;
    let mut explicit: Vec<(String, u64)> = Vec::new();
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        match flag.as_str() {
            "--users" | "--channels" | "--radios" | "--seed" | "--rounds" | "--cycles" => {
                let v = grab(&flag);
                explicit.push((flag, v));
            }
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    if smoke {
        cfg = Config::smoke();
    }
    // Debug builds carry the O(Σ k_i) paranoid checks and an unoptimized
    // slot simulator; drop to the smoke shape so a debug run still
    // finishes (CI's measured-smoke job runs --release, like t10/t11).
    #[cfg(debug_assertions)]
    if !smoke {
        eprintln!("note: debug build — using the smoke shape");
        cfg = Config::smoke();
        smoke = true;
    }
    for (flag, v) in explicit {
        match flag.as_str() {
            "--users" => cfg.users = v as usize,
            "--channels" => cfg.n_channels = v as usize,
            "--radios" => cfg.radios = v as u32,
            "--seed" => cfg.seed = v,
            "--rounds" => cfg.max_rounds = v as usize,
            "--cycles" => cfg.cycles = v as usize,
            _ => unreachable!(),
        }
    }
    (cfg, smoke)
}

/// One (family × curve-kind) convergence arm.
struct Arm {
    family: &'static str,
    kind: &'static str,
    rate: Arc<dyn RateModel>,
}

/// What one arm's replay measured.
struct ArmResult {
    family: &'static str,
    kind: &'static str,
    rate_name: String,
    shape: &'static str,
    heap_route: bool,
    converged: bool,
    rounds: usize,
    counters: DynCounters,
    exact_nash: bool,
    t1_applicable: bool,
    t1_nash: bool,
    t1_agrees: bool,
    trace_matches_sweep: bool,
    wall_ms: f64,
}

fn run_arm(cfg: &Config, arm: &Arm) -> ArmResult {
    let game = ChannelAllocationGame::new(
        GameConfig::new(cfg.users, cfg.radios, cfg.n_channels).expect("valid dimensions"),
        Arc::clone(&arm.rate),
    );
    let start = SparseStrategies::random_uniform(cfg.users, cfg.radios, cfg.n_channels, cfg.seed);

    let t0 = Instant::now();
    let mut d = ActiveSetDynamics::new(&game, start.clone());
    let mut trace = Vec::new();
    let (converged, rounds) = d.run(&game, cfg.max_rounds, Some(&mut trace));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let heap_route = d.is_heap();
    let counters = d.counters();
    let state = d.into_state();

    // The sweep oracle must produce the same move sequence, round count
    // and final state — the active-set worklist (park certificates
    // included) is an optimization, never a different trajectory.
    let (sweep_state, sweep_converged, sweep_rounds, sweep_trace) =
        sweep_dynamics_traced(&game, start, cfg.max_rounds);
    let trace_matches_sweep = converged == sweep_converged
        && rounds == sweep_rounds
        && trace == sweep_trace
        && state == sweep_state;

    let exact_nash = converged && is_nash_sparse(&game, &state);
    let dense = StrategyMatrix::from(&state);
    let t1_nash = theorem1(&game, &dense).is_nash();
    let t1_applicable = theorem1_applicable(&game);
    let t1_agrees = t1_nash == exact_nash;

    ArmResult {
        family: arm.family,
        kind: arm.kind,
        rate_name: arm.rate.name().to_owned(),
        shape: arm.rate.shape().label(),
        heap_route,
        converged,
        rounds,
        counters,
        exact_nash,
        t1_applicable,
        t1_nash,
        t1_agrees,
        trace_matches_sweep,
        wall_ms,
    }
}

/// Replay the same seeded perturbation stream through twin engines —
/// park certificate on vs off — on the generic (measured) route.
/// Returns `(on counters, off counters, on wall ms, off wall ms)`;
/// panics if any cycle's traces diverge (the certificate must be a pure
/// optimization).
fn certificate_replay(
    cfg: &Config,
    game: &ChannelAllocationGame,
    settled: &SparseStrategies,
) -> (DynCounters, DynCounters, f64, f64) {
    let run_cycles = |certified: bool| -> (DynCounters, f64, Vec<Vec<(UserId, StrategyVector)>>) {
        let mut d = ActiveSetDynamics::new(game, settled.clone());
        d.set_refined(certified);
        // Flush the initial all-active epoch so the timed cycles start
        // from an identical settled worklist on both twins.
        let (ok, _) = d.run(game, cfg.max_rounds, None);
        assert!(ok, "settled state must re-certify");
        let t0 = Instant::now();
        let mut traces = Vec::with_capacity(cfg.cycles);
        for cycle in 0..cfg.cycles {
            // Deterministic schedule: concentrate one user's radios on
            // one channel, then let the worklist re-converge.
            let u = UserId((cycle * 7 + 3) % cfg.users);
            let c = ((cycle * 5 + 1) % cfg.n_channels) as u32;
            d.apply_row(game, u, &[(c, cfg.radios)]);
            let mut trace = Vec::new();
            let (ok, _) = d.run(game, cfg.max_rounds, Some(&mut trace));
            assert!(ok, "perturbation cycle {cycle} must re-converge");
            traces.push(trace);
        }
        (d.counters(), t0.elapsed().as_secs_f64() * 1e3, traces)
    };

    let (off, off_ms, off_traces) = run_cycles(false);
    let (on, on_ms, on_traces) = run_cycles(true);
    assert_eq!(
        on_traces, off_traces,
        "certificate-on and -off replays must be move-for-move identical"
    );
    (on, off, on_ms, off_ms)
}

fn json_arm(r: &ArmResult) -> String {
    format!(
        "{{\"family\": \"{}\", \"kind\": \"{}\", \"rate\": \"{}\", \
         \"shape\": \"{}\", \"heap_route\": {}, \"converged\": {}, \
         \"rounds\": {}, \"moves\": {}, \"checks\": {}, \
         \"skipped_checks\": {}, \"revalidated\": {}, \
         \"refined_reparks\": {}, \"exact_nash\": {}, \
         \"t1_applicable\": {}, \"t1_nash\": {}, \"t1_agrees\": {}, \
         \"trace_matches_sweep\": {}, \"wall_ms\": {:.2}}}",
        r.family,
        r.kind,
        r.rate_name,
        r.shape,
        r.heap_route,
        r.converged,
        r.rounds,
        r.counters.moves,
        r.counters.checks,
        r.counters.skipped_checks,
        r.counters.revalidated,
        r.counters.refined_reparks,
        r.exact_nash,
        r.t1_applicable,
        r.t1_nash,
        r.t1_agrees,
        r.trace_matches_sweep,
        r.wall_ms,
    )
}

fn main() {
    let (cfg, smoke) = parse_args();
    println!("== T12: measured rates end-to-end — harvest → classify → converge ==\n");

    // ---- Harvest ----------------------------------------------------
    let h = &cfg.harvest;
    println!(
        "harvesting R(k) tables: occupancies 1..={}, {} reps x {} events, base seed {:#x} ...",
        h.max_k, h.reps, h.events, h.base_seed
    );
    let harvester = RateHarvester::new(h.clone());
    let phy = PhyParams::bianchi_fhss();
    let t0 = Instant::now();
    let dcf = harvester.harvest_dcf(&phy, "measured-dcf");
    let dcf_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let aloha = harvester.harvest_aloha(ALOHA_BITRATE, "measured-aloha");
    let aloha_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (t, ms) in [(&dcf, dcf_ms), (&aloha, aloha_ms)] {
        println!(
            "  {:14} shape={:16} R(1)={:.0} R({})={:.0} max_ci={:.0}  ({:.0} ms)",
            t.label,
            t.shape().label(),
            t.mean_bps[0],
            t.max_k(),
            t.mean_bps[t.mean_bps.len() - 1],
            t.ci_half_width_bps.iter().fold(0.0f64, |a, &b| a.max(b)),
            ms
        );
    }
    // Persist both tables in both formats — the harvest side of the
    // pipeline (round-trip byte-determinism is pinned by the mac crate's
    // proptest suite; these files are the artifacts downstream tooling
    // reads back).
    write_result("measured_dcf.csv", &dcf.to_csv());
    write_result("measured_dcf.json", &dcf.to_json());
    write_result("measured_aloha.csv", &aloha.to_csv());
    write_result("measured_aloha.json", &aloha.to_json());

    // ---- Converge: measured vs analytic on both routes --------------
    let arms = [
        Arm {
            family: "dcf",
            kind: "measured",
            rate: Arc::new(dcf.to_rate()),
        },
        Arm {
            family: "dcf",
            kind: "analytic",
            rate: Arc::new(PracticalDcfRate::new(phy.clone(), h.max_k)),
        },
        Arm {
            family: "aloha",
            kind: "measured",
            rate: Arc::new(aloha.to_rate()),
        },
        Arm {
            family: "aloha",
            kind: "analytic",
            rate: Arc::new(OptimalAlohaRate::new(ALOHA_BITRATE)),
        },
        Arm {
            family: "constant",
            kind: "analytic",
            rate: Arc::new(ConstantRate::new(ALOHA_BITRATE)),
        },
    ];

    println!(
        "\nreplaying {} users x {} radios on {} channels (seed {}) per arm:\n",
        cfg.users, cfg.radios, cfg.n_channels, cfg.seed
    );
    println!(
        "  {:8} {:9} {:16} {:6} {:>7} {:>7} {:>7} {:>5} {:>5} {:>9}",
        "family", "kind", "shape", "route", "rounds", "moves", "checks", "nash", "T1", "wall"
    );
    let results: Vec<ArmResult> = arms.iter().map(|a| run_arm(&cfg, a)).collect();
    for r in &results {
        println!(
            "  {:8} {:9} {:16} {:6} {:>7} {:>7} {:>7} {:>5} {:>5} {:>7.1}ms",
            r.family,
            r.kind,
            r.shape,
            if r.heap_route { "heap" } else { "dp" },
            r.rounds,
            r.counters.moves,
            r.counters.checks,
            r.exact_nash,
            if r.t1_applicable {
                if r.t1_nash {
                    "cert"
                } else {
                    "no"
                }
            } else if r.t1_agrees {
                "agree"
            } else {
                "split"
            },
            r.wall_ms,
        );
    }

    // ---- Measure: the park certificate on the measured route --------
    println!("\npark-certificate replay (measured DCF, generic route):");
    let speedup_game = ChannelAllocationGame::new(
        GameConfig::new(cfg.users, cfg.radios, cfg.n_channels).expect("valid dimensions"),
        Arc::new(dcf.to_rate()),
    );
    let start = SparseStrategies::random_uniform(cfg.users, cfg.radios, cfg.n_channels, cfg.seed);
    let (settled, ok, _) =
        mrca_core::br_fast::best_response_dynamics_sparse(&speedup_game, start, cfg.max_rounds);
    assert!(ok, "the speedup arm must settle");
    let (on, off, on_ms, off_ms) = certificate_replay(&cfg, &speedup_game, &settled);
    let speedup = off.checks as f64 / on.checks.max(1) as f64;
    println!(
        "  {} cycles: certificate on {} checks ({} certificate re-parks, {:.1} ms) vs \
         off {} checks ({:.1} ms) -> {:.2}x fewer engine checks",
        cfg.cycles, on.checks, on.refined_reparks, on_ms, off.checks, off_ms, speedup
    );

    // ---- Report -----------------------------------------------------
    let converged = results.iter().filter(|r| r.converged).count();
    let mismatches = results.iter().filter(|r| !r.trace_matches_sweep).count();
    let heap_arms = results.iter().filter(|r| r.heap_route).count();
    let t1_agree_arms = results.iter().filter(|r| r.t1_agrees).count();
    let delta = |family: &str| -> String {
        let get = |kind: &str| {
            results
                .iter()
                .find(|r| r.family == family && r.kind == kind)
                .expect("arm present")
        };
        let (m, a) = (get("measured"), get("analytic"));
        format!(
            "{{\"family\": \"{}\", \"d_rounds\": {}, \"d_moves\": {}, \"d_checks\": {}}}",
            family,
            m.rounds as i64 - a.rounds as i64,
            m.counters.moves as i64 - a.counters.moves as i64,
            m.counters.checks as i64 - a.counters.checks as i64,
        )
    };
    let json = format!(
        "{{\"bench\": \"t12_measured\", \
         \"users\": {}, \"radios\": {}, \"n_channels\": {}, \"seed\": {}, \
         \"harvest\": {{\"max_k\": {}, \"reps\": {}, \"events\": {}, \"base_seed\": {}}}, \
         \"arms\": [{}], \
         \"measured_vs_analytic\": [{}, {}], \
         \"heap_eligible_arms\": {}, \"t1_agree_arms\": {}, \"total_arms\": {}, \
         \"trace_mismatches\": {}, \
         \"wake_clock\": {{\"cycles\": {}, \"refined_checks\": {}, \
         \"unrefined_checks\": {}, \"refined_reparks\": {}, \
         \"refined_ms\": {:.2}, \"unrefined_ms\": {:.2}, \"check_speedup\": {:.3}}}}}\n",
        cfg.users,
        cfg.radios,
        cfg.n_channels,
        cfg.seed,
        h.max_k,
        h.reps,
        h.events,
        h.base_seed,
        results.iter().map(json_arm).collect::<Vec<_>>().join(", "),
        delta("dcf"),
        delta("aloha"),
        heap_arms,
        t1_agree_arms,
        results.len(),
        mismatches,
        cfg.cycles,
        on.checks,
        off.checks,
        on.refined_reparks,
        on_ms,
        off_ms,
        speedup,
    );
    if !smoke {
        write_result("BENCH_measured.json", &json);
    }

    // The CI-parseable gate line (measured-smoke greps this).
    println!(
        "\nmeasured: arms={} converged={} mismatches={} speedup={:.2}",
        results.len(),
        converged,
        mismatches,
        speedup
    );
    assert_eq!(converged, results.len(), "every arm must converge");
    assert_eq!(
        mismatches, 0,
        "active-set traces must match the sweep oracle"
    );
    assert!(
        results.iter().all(|r| r.exact_nash),
        "every converged profile must be an exact NE"
    );
    assert!(
        results
            .iter()
            .filter(|r| r.t1_applicable)
            .all(|r| r.t1_agrees),
        "Theorem 1 must agree with the exact check wherever it applies"
    );
    assert!(
        on.checks <= off.checks,
        "the certificate must never add engine checks"
    );
    assert!(
        on.refined_reparks > 0,
        "the certificate must actually re-park users on the measured route"
    );
    println!(
        "\nOK: {} arms converged to exact NE, traces pinned to the sweep oracle, \
         the certificate saved {:.2}x checks.",
        converged, speedup
    );
}
