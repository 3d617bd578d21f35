//! perfbench — the engine's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <churn-heap|retune-dp|spatial-dense|spatial-wide>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` the run repeats whole passes of the workload (set-up,
//! solve, certified event stream) for about `--seconds` and prints the
//! end-to-end metrics. With `--trace 1` it runs one traced
//! pass between two untraced ones, prints the layer table and the
//! per-layer metrics, and reports the tracing overhead. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A wrong answer exits with code 1, bad arguments with code 2.

mod gen;
mod trace;
mod workloads;

use trace::Tracer;
use workloads::{Pass, Probe, Workload};

const USAGE: &str =
    "usage: perfbench --workload <churn-heap|retune-dp|spatial-dense|spatial-wide> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

/// Untraced passes per run, at the least; each repeats the same inputs,
/// and the per-event minimum needs a few.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad(&"out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Linear-interpolated percentile of unsorted samples (0 when empty).
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// Passes of one seed must agree on every count and the final state.
fn same_outcome(first: &Pass, other: &Pass) -> Result<(), String> {
    if first.counts() != other.counts()
        || first.event_moves() != other.event_moves()
        || first.fingerprint != other.fingerprint
    {
        return Err("two passes over the same seed disagree on counts or final state".into());
    }
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

fn min(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics over all passes of an untraced run. Passes
/// repeat identical work, spread over the run, so a solve's time and each
/// event's time is its minimum over the repetitions: the cost of the work
/// without the bursts of contention a shared host adds, which come and go
/// over seconds. Event percentiles and throughput are taken over those
/// per-event minima; set-up time is the median over all set-ups.
fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.clone()).collect();
    let solves: Vec<f64> = passes.iter().flat_map(|p| p.solve_s.clone()).collect();
    let event_ms: Vec<f64> = (0..passes[0].events.len())
        .map(|i| min(passes.iter().map(|p| p.events[i].total_s)) * 1e3)
        .collect();
    let event_s: f64 = event_ms.iter().sum::<f64>() / 1e3;
    println!(
        "samples: {} set-ups, {} solves, {} events x {} passes ({} beyond p95)",
        setups.len(),
        solves.len(),
        event_ms.len(),
        passes.len(),
        event_ms.len() - (0.95 * event_ms.len() as f64).ceil() as usize
    );
    vec![
        ("setup_s", percentile(&setups, 0.5), "s"),
        ("solve_s", min(solves.iter().copied()), "s"),
        ("event_p50_ms", percentile(&event_ms, 0.5), "ms"),
        ("event_p95_ms", percentile(&event_ms, 0.95), "ms"),
        ("events_per_s", ratio(event_ms.len() as f64, event_s), "1/s"),
        ("peak_rss_mb", passes[0].peak_rss_mb, "MiB"),
    ]
}

/// The per-layer metrics of a traced pass. Every ratio's base is a
/// metric of its own: events (`driver.events`), checks (`br.checks`),
/// certification queries and index probe moves (`driver.users`,
/// `driver.moves`), the solve's run (`driver.run_s`) and the untraced
/// pass (`trace.untraced_s`).
fn per_layer(p: &Pass, probe: &Probe, untraced_s: f64) -> Vec<Metric> {
    let (s, e) = (&p.solve, &p.during_events);
    let events = p.events.len() as f64;
    let per_event = |x: u64| ratio(x as f64, events);
    let query_us = ratio(p.certify_s * 1e6, p.users as f64);
    let event_ms = |kind: &str| -> f64 {
        let xs: Vec<f64> = p
            .events
            .iter()
            .filter(|ev| ev.kind == kind)
            .map(|ev| ev.total_s * 1e3)
            .collect();
        percentile(&xs, 0.5)
    };
    let apply_us: Vec<f64> = p.events.iter().map(|ev| ev.apply_s * 1e6).collect();
    let reconverge_ms: Vec<f64> = p
        .events
        .iter()
        .map(|ev| (ev.total_s - ev.apply_s) * 1e3)
        .collect();
    vec![
        ("rate.harvest_s", p.harvest_s, "s"),
        ("rate.sim_events", p.sim_events as f64, "count"),
        ("br.checks", s.checks as f64, "count"),
        ("br.checks_per_event", per_event(e.checks), "count"),
        (
            "br.useful_ratio",
            ratio(e.moves as f64, e.checks as f64),
            "ratio",
        ),
        ("br.certify_s", p.certify_s, "s"),
        ("br.query_us", query_us, "us"),
        (
            "br.est_share",
            ratio(s.checks as f64 * query_us * 1e-6, p.run_s),
            "ratio",
        ),
        ("index.graph_build_s", p.graph_build_s, "s"),
        ("index.build_s", probe.index_build_s, "s"),
        ("index.bytes", p.index_bytes as f64, "B"),
        ("index.dense_bytes", p.dense_bytes as f64, "B"),
        ("index.graph_bytes", p.graph_bytes as f64, "B"),
        (
            "index.replace_ns_per_move",
            ratio(probe.replace_s * 1e9, probe.moves as f64),
            "ns",
        ),
        (
            "index.cells_per_move",
            ratio(probe.cells as f64, probe.moves as f64),
            "count",
        ),
        ("wake.activations", s.activations as f64, "count"),
        ("wake.skipped_checks", s.skipped_checks as f64, "count"),
        (
            "wake.occupant_wakeups_per_event",
            per_event(e.occupant_wakeups),
            "count",
        ),
        (
            "wake.temptation_wakeups_per_event",
            per_event(e.temptation_wakeups),
            "count",
        ),
        (
            "wake.revalidated_per_event",
            per_event(e.revalidated),
            "count",
        ),
        (
            "wake.refined_reparks_per_event",
            per_event(e.refined_reparks),
            "count",
        ),
        (
            "wake.useful_ratio",
            ratio(e.moves as f64, e.activations as f64),
            "ratio",
        ),
        ("driver.users", p.users as f64, "count"),
        ("driver.rounds", p.rounds as f64, "count"),
        ("driver.moves", s.moves as f64, "count"),
        ("driver.run_s", p.run_s, "s"),
        ("driver.events", events, "count"),
        ("driver.apply_us_p50", percentile(&apply_us, 0.5), "us"),
        (
            "driver.reconverge_ms_p95",
            percentile(&reconverge_ms, 0.95),
            "ms",
        ),
        ("driver.moves_per_event", per_event(e.moves), "count"),
        ("driver.arrive_ms_p50", event_ms("arrive"), "ms"),
        ("driver.depart_ms_p50", event_ms("depart"), "ms"),
        ("driver.reprice_ms_p50", event_ms("reprice"), "ms"),
        ("trace.wall_s", p.wall_s, "s"),
        ("trace.untraced_s", untraced_s, "s"),
        ("trace.overhead_s", p.wall_s - untraced_s, "s"),
        (
            "trace.overhead_frac",
            ratio(p.wall_s - untraced_s, untraced_s),
            "ratio",
        ),
    ]
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let sh = w.shape(args.tiny);
    println!(
        "perfbench {} seed={} users={} radios={} channels={} events/pass={}{}",
        w.name(),
        args.seed,
        sh.users,
        sh.radios,
        sh.channels,
        sh.events,
        if args.tiny { " (tiny)" } else { "" }
    );
    let untraced = |reps| workloads::pass(w, &sh, args.seed, &mut Tracer::new(false), reps);
    let mut tracer = Tracer::new(true);
    let passes = if args.trace {
        // One traced pass between two untraced ones over the same inputs:
        // their mean wall is the base of the tracing overhead.
        vec![
            untraced(1)?,
            workloads::pass(w, &sh, args.seed, &mut tracer, 1)?,
            untraced(1)?,
        ]
    } else {
        // The pass count follows from `--seconds` and the shape's nominal
        // pass time, never from how fast this build runs: both sides of an
        // A/B comparison repeat the same work the same number of times.
        let n = ((args.seconds / sh.pass_s) as usize).max(MIN_PASSES);
        (0..n)
            .map(|_| untraced(sh.setup_reps))
            .collect::<Result<Vec<_>, _>>()?
    };
    for p in &passes[1..] {
        same_outcome(&passes[0], p)?;
    }
    let metrics = if args.trace {
        let traced = &passes[1];
        trace::print_table(w.name(), &tracer, traced.wall_s);
        let probe = match w {
            Workload::SpatialDense | Workload::SpatialWide => {
                workloads::spatial_probe(&sh, args.seed)?
            }
            _ => Probe::default(),
        };
        if probe.moves != 0 && probe.moves != traced.solve.moves {
            return Err("index probe replayed a different number of moves than the solve".into());
        }
        per_layer(traced, &probe, (passes[0].wall_s + passes[2].wall_s) / 2.0)
    } else {
        end_to_end(&passes)
    };
    let counts: Vec<String> = passes[0]
        .counts()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.2}", p.wall_s)).collect();
    println!("passes: {} ({} s)", passes.len(), walls.join(" "));
    println!("counts: {}", counts.join(" "));
    println!("fingerprint: {:#018x}", passes[0].fingerprint);
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    Ok(Outcome {
        metrics,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.attempted,
                out.failed,
                metrics.join(", ")
            );
        }
        Err(e) => {
            eprintln!("perfbench: wrong answer: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
