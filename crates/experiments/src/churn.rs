//! Churn as a long-lived service: replay a seeded event stream against a
//! standing equilibrium and measure per-event re-convergence.
//!
//! The paper's game is one-shot; the ROADMAP north-star is a service
//! holding an equilibrium for millions of users while the population and
//! the spectrum change under it. [`ChurnDriver`] is that service in
//! miniature: it settles a starting population once, then replays a
//! seeded stream of **arrival** / **departure** / **budget-change** /
//! **rate-shift** events through the incremental engine APIs
//! ([`grow_users`](ActiveSetDynamics::grow_users),
//! [`retire_user`](ActiveSetDynamics::retire_user),
//! [`reprice_channel`](ActiveSetDynamics::reprice_channel)) and runs the
//! dynamics back to a certified fixed point after each event, recording
//!
//! * per-event re-convergence latency — moves and wall time, reported as
//!   p50 / p99 / max over the stream;
//! * the engine's work over the stream — best-response checks, occupant
//!   wakeups and O(k) certificate re-validations — which, unlike wall
//!   time, is a deterministic function of the seeded stream;
//! * sustained throughput (events per second of replay wall time);
//! * equilibrium drift — periodic full `O(|N|)` Nash scans plus a load
//!   cache recomputation; any failure is counted, and the smoke gate
//!   requires the count to be zero.
//!
//! Budget changes are re-provisioning: the old identity departs and a
//! fresh one arrives with the new budget (CSR row capacity is fixed per
//! id). Rate shifts multiply one channel's rate by a bounded factor, so
//! a long stream cannot run the rates off to numerical extremes.
//!
//! The `t10_churn` bin drives this against a 10⁶-user standing
//! equilibrium and writes `results/BENCH_churn.json`; the `churn_replay`
//! bench reuses the same driver and report plumbing at a smaller
//! standing population.

use mrca_core::br_fast::{is_nash_sparse, ActiveSetDynamics, DynCounters};
use mrca_core::churn::ChurnGame;
use mrca_core::sparse::SparseStrategies;
use mrca_core::{ChannelId, ChannelLoads, ParallelDynamics, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Replay configuration for a [`ChurnDriver`].
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Standing population settled before the stream starts.
    pub initial_users: usize,
    /// Radio budget of the initial population (arrivals sample
    /// `1..=radios`).
    pub radios: u32,
    /// Channel count.
    pub n_channels: usize,
    /// Base per-channel rate.
    pub rate: f64,
    /// Events to replay.
    pub events: usize,
    /// Stream seed (start state uses `seed ^ 1`).
    pub seed: u64,
    /// `<= 1` runs the sequential active-set engine, more the parallel
    /// two-phase driver with this many Phase-A workers.
    pub threads: usize,
    /// Round cap per re-convergence (and for the initial settle).
    ///
    /// Sized well above the worst-case event: a rate shift on a heavy
    /// channel triggers a rebalancing trickle whose swap chains
    /// serialize under the pinned round-robin order (a few moves per
    /// sweep-equivalent round), so re-convergence can take thousands of
    /// *cheap* rounds — the cap only exists to catch genuine stalls.
    pub max_rounds: usize,
    /// Run a full drift check every this many events (`0` = only the
    /// final one; a final check always runs).
    pub drift_every: usize,
}

impl ChurnConfig {
    /// The CI smoke shape: 10⁵ users, 64 channels, 200 events.
    pub fn smoke() -> Self {
        ChurnConfig {
            initial_users: 100_000,
            radios: 2,
            n_channels: 64,
            rate: 1.0,
            events: 200,
            seed: 2026,
            threads: 1,
            max_rounds: 20_000,
            drift_every: 50,
        }
    }

    /// The full `t10_churn` shape: a standing 10⁶-user equilibrium.
    pub fn full() -> Self {
        ChurnConfig {
            initial_users: 1_000_000,
            events: 2_000,
            drift_every: 500,
            max_rounds: 100_000,
            ..Self::smoke()
        }
    }
}

/// Event mix of the replay stream (percent weights 35/35/15/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Arrive,
    Depart,
    BudgetChange,
    RateShift,
}

/// Sequential or parallel engine under one face.
#[derive(Debug)]
enum Engine {
    Seq(ActiveSetDynamics),
    Par(ParallelDynamics),
}

impl Engine {
    fn state(&self) -> &SparseStrategies {
        match self {
            Engine::Seq(d) => d.state(),
            Engine::Par(d) => d.state(),
        }
    }

    fn loads(&self) -> &ChannelLoads {
        match self {
            Engine::Seq(d) => d.loads(),
            Engine::Par(d) => d.loads(),
        }
    }

    fn counters(&self) -> DynCounters {
        match self {
            Engine::Seq(d) => d.counters(),
            Engine::Par(d) => d.counters(),
        }
    }

    fn moves(&self) -> u64 {
        self.counters().moves
    }

    fn run(&mut self, game: &ChurnGame, max_rounds: usize) -> (bool, usize) {
        match self {
            Engine::Seq(d) => d.run(game, max_rounds, None),
            Engine::Par(d) => d.run(game, max_rounds),
        }
    }
}

/// Aggregated replay outcome — everything `BENCH_churn.json` records.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// The configuration the stream ran under.
    pub cfg: ChurnConfig,
    /// Events processed (always `cfg.events` unless the stream failed).
    pub events_processed: usize,
    /// Arrival events in the stream.
    pub arrivals: usize,
    /// Departure events in the stream.
    pub departures: usize,
    /// Budget-change events in the stream.
    pub budget_changes: usize,
    /// Rate-shift events in the stream.
    pub rate_shifts: usize,
    /// Median moves to re-converge after one event.
    pub p50_moves: u64,
    /// 99th-percentile moves to re-converge.
    pub p99_moves: u64,
    /// Worst-case moves to re-converge.
    pub max_moves: u64,
    /// Median per-event re-convergence wall time (µs).
    pub p50_us: f64,
    /// 99th-percentile per-event wall time (µs).
    pub p99_us: f64,
    /// Worst-case per-event wall time (µs).
    pub max_us: f64,
    /// Sustained replay throughput (events per second of replay wall).
    pub events_per_sec: f64,
    /// Total moves across the whole stream.
    pub total_moves: u64,
    /// Engine best-response checks across the stream (after the settle).
    pub checks: u64,
    /// Occupant wakeups across the stream: parked users a load change
    /// pushed out of their certificate interval, or a reprice drained.
    pub occupant_wakeups: u64,
    /// O(k) certificate re-validations across the stream: parks
    /// re-established without a best-response check.
    pub revalidated: u64,
    /// Full drift checks run (Nash scan + load recompute).
    pub drift_checks: usize,
    /// Drift checks that failed — the smoke gate requires `0`.
    pub drift_failures: usize,
    /// Initial settle: wall milliseconds.
    pub settle_ms: f64,
    /// Initial settle: rounds to the first fixed point.
    pub settle_rounds: usize,
    /// Row count at the end (arrivals never renumber, so this is
    /// `initial + arrivals + budget_changes`).
    pub population_end: usize,
    /// Users still live at the end.
    pub live_end: usize,
}

/// The standing-equilibrium churn service — see the [module docs](self).
#[derive(Debug)]
pub struct ChurnDriver {
    cfg: ChurnConfig,
    game: ChurnGame,
    engine: Engine,
    /// Live user ids (swap-removed on departure).
    live: Vec<u32>,
    rng: StdRng,
    settle_ms: f64,
    settle_rounds: usize,
}

impl ChurnDriver {
    /// Build the game and engine, then settle the initial population to
    /// its standing equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if the initial dynamics fail to converge inside
    /// `cfg.max_rounds`.
    pub fn new(cfg: ChurnConfig) -> Self {
        let game = ChurnGame::uniform(cfg.initial_users, cfg.radios, cfg.n_channels, cfg.rate);
        let start = SparseStrategies::random_uniform(
            cfg.initial_users,
            cfg.radios,
            cfg.n_channels,
            cfg.seed ^ 1,
        );
        let mut engine = if cfg.threads <= 1 {
            Engine::Seq(ActiveSetDynamics::new(&game, start))
        } else {
            Engine::Par(ParallelDynamics::new(&game, start, cfg.threads))
        };
        let t = Instant::now();
        let (converged, settle_rounds) = engine.run(&game, cfg.max_rounds);
        let settle_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(converged, "initial settle must converge");
        let live = (0..cfg.initial_users as u32).collect();
        let rng = StdRng::seed_from_u64(cfg.seed);
        ChurnDriver {
            cfg,
            game,
            engine,
            live,
            rng,
            settle_ms,
            settle_rounds,
        }
    }

    /// The standing strategy state.
    pub fn state(&self) -> &SparseStrategies {
        self.engine.state()
    }

    fn next_kind(&mut self) -> EventKind {
        match self.rng.gen_range(0..100u32) {
            0..=34 => EventKind::Arrive,
            35..=69 => EventKind::Depart,
            70..=84 => EventKind::BudgetChange,
            _ => EventKind::RateShift,
        }
    }

    fn arrive(&mut self) {
        let budget = self.rng.gen_range(1..=self.cfg.radios.max(1));
        let u = self.game.push_user(budget);
        self.live.push(u.0 as u32);
        match &mut self.engine {
            Engine::Seq(d) => d.grow_users(&self.game).expect("arena growth"),
            Engine::Par(d) => d.grow_users(&self.game).expect("arena growth"),
        }
    }

    fn depart(&mut self) -> bool {
        if self.live.is_empty() {
            return false;
        }
        let idx = self.rng.gen_range(0..self.live.len());
        let u = UserId(self.live.swap_remove(idx) as usize);
        self.game.retire(u);
        match &mut self.engine {
            Engine::Seq(d) => d.retire_user(&self.game, u),
            Engine::Par(d) => d.retire_user(&self.game, u),
        }
        true
    }

    fn rate_shift(&mut self) {
        let c = ChannelId(self.rng.gen_range(0..self.cfg.n_channels));
        // Halve or double, bounded to rate × [1/8, 8] so a long stream
        // cannot run a channel off to a numerical extreme.
        let cur = self.game.rate(c);
        let up = self.rng.gen_bool(0.5);
        let factor = if cur >= self.cfg.rate * 8.0 {
            0.5
        } else if cur <= self.cfg.rate / 8.0 || up {
            2.0
        } else {
            0.5
        };
        let load = self.engine.loads().load(c);
        let old = self.game.set_rate(c, cur * factor);
        let f = move |t: u32| ChurnGame::payoff_at_rate(load, t, old);
        match &mut self.engine {
            Engine::Seq(d) => d.reprice_channel(&self.game, c, &f),
            Engine::Par(d) => d.reprice_channel(&self.game, c, &f),
        }
    }

    /// Full drift check: the standing state must still be an exact Nash
    /// equilibrium of the *current* game (full `O(|N|)` best-response
    /// scan), and the maintained load cache must match a recomputation.
    fn drifted(&self) -> bool {
        !is_nash_sparse(&self.game, self.engine.state())
            || ChannelLoads::of_sparse(self.engine.state()) != *self.engine.loads()
    }

    /// Replay `cfg.events` seeded events, re-converging after each, and
    /// aggregate the measurements.
    ///
    /// # Panics
    ///
    /// Panics if any re-convergence exceeds `cfg.max_rounds` — a stalled
    /// standing service is a bug, not a data point.
    pub fn replay(mut self) -> ChurnReport {
        let cfg = self.cfg.clone();
        let mut moves_per_event = Vec::with_capacity(cfg.events);
        let mut wall_per_event = Vec::with_capacity(cfg.events);
        let (mut arrivals, mut departures, mut budget_changes, mut rate_shifts) = (0, 0, 0, 0);
        let mut drift_checks = 0usize;
        let mut drift_failures = 0usize;
        let mut replay_wall = Duration::ZERO;
        let settled = self.engine.counters();

        for i in 0..cfg.events {
            let kind = self.next_kind();
            let before = self.engine.moves();
            let t = Instant::now();
            match kind {
                EventKind::Arrive => {
                    self.arrive();
                    arrivals += 1;
                }
                EventKind::Depart => {
                    if self.depart() {
                        departures += 1;
                    } else {
                        self.arrive();
                        arrivals += 1;
                    }
                }
                EventKind::BudgetChange => {
                    // Re-provision: the old identity departs, a fresh one
                    // arrives with a resampled budget. With nobody live
                    // the event degrades to a plain arrival.
                    if self.depart() {
                        self.arrive();
                        budget_changes += 1;
                    } else {
                        self.arrive();
                        arrivals += 1;
                    }
                }
                EventKind::RateShift => {
                    self.rate_shift();
                    rate_shifts += 1;
                }
            }
            let (converged, _) = self.engine.run(&self.game, cfg.max_rounds);
            let dt = t.elapsed();
            assert!(converged, "event {i} ({kind:?}): re-convergence stalled");
            replay_wall += dt;
            moves_per_event.push(self.engine.moves() - before);
            wall_per_event.push(dt.as_secs_f64() * 1e6);

            if cfg.drift_every > 0 && (i + 1) % cfg.drift_every == 0 {
                drift_checks += 1;
                if self.drifted() {
                    drift_failures += 1;
                }
            }
        }
        // A final drift check always runs.
        drift_checks += 1;
        if self.drifted() {
            drift_failures += 1;
        }
        let work = self.engine.counters();

        let mut sorted_moves = moves_per_event.clone();
        sorted_moves.sort_unstable();
        let mut sorted_wall = wall_per_event.clone();
        sorted_wall.sort_by(f64::total_cmp);
        let events_per_sec = if replay_wall.as_secs_f64() > 0.0 {
            cfg.events as f64 / replay_wall.as_secs_f64()
        } else {
            f64::INFINITY
        };
        ChurnReport {
            events_processed: cfg.events,
            arrivals,
            departures,
            budget_changes,
            rate_shifts,
            p50_moves: pct_u64(&sorted_moves, 0.50),
            p99_moves: pct_u64(&sorted_moves, 0.99),
            max_moves: sorted_moves.last().copied().unwrap_or(0),
            p50_us: pct_f64(&sorted_wall, 0.50),
            p99_us: pct_f64(&sorted_wall, 0.99),
            max_us: sorted_wall.last().copied().unwrap_or(0.0),
            events_per_sec,
            total_moves: moves_per_event.iter().sum(),
            checks: work.checks - settled.checks,
            occupant_wakeups: work.occupant_wakeups - settled.occupant_wakeups,
            revalidated: work.revalidated - settled.revalidated,
            drift_checks,
            drift_failures,
            settle_ms: self.settle_ms,
            settle_rounds: self.settle_rounds,
            population_end: self.engine.state().n_users(),
            live_end: self.live.len(),
            cfg,
        }
    }
}

fn pct_u64(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(((sorted.len() - 1) as f64) * p).round() as usize]
}

fn pct_f64(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(((sorted.len() - 1) as f64) * p).round() as usize]
}

impl ChurnReport {
    /// Hand-rolled JSON object (the offline build has no `serde_json`) —
    /// the schema `results/BENCH_churn.json` carries.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\": \"t10_churn\", \
             \"initial_users\": {}, \"radios\": {}, \"n_channels\": {}, \
             \"threads\": {}, \"seed\": {}, \
             \"events\": {}, \"arrivals\": {}, \"departures\": {}, \
             \"budget_changes\": {}, \"rate_shifts\": {}, \
             \"p50_moves\": {}, \"p99_moves\": {}, \"max_moves\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \
             \"events_per_sec\": {:.1}, \"total_moves\": {}, \
             \"checks\": {}, \"occupant_wakeups\": {}, \"revalidated\": {}, \
             \"drift_checks\": {}, \"drift_failures\": {}, \
             \"settle_ms\": {:.1}, \"settle_rounds\": {}, \
             \"population_end\": {}, \"live_end\": {}}}\n",
            self.cfg.initial_users,
            self.cfg.radios,
            self.cfg.n_channels,
            self.cfg.threads,
            self.cfg.seed,
            self.events_processed,
            self.arrivals,
            self.departures,
            self.budget_changes,
            self.rate_shifts,
            self.p50_moves,
            self.p99_moves,
            self.max_moves,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.events_per_sec,
            self.total_moves,
            self.checks,
            self.occupant_wakeups,
            self.revalidated,
            self.drift_checks,
            self.drift_failures,
            self.settle_ms,
            self.settle_rounds,
            self.population_end,
            self.live_end,
        )
    }

    /// Human-readable summary block for the bin / bench output.
    pub fn summary(&self) -> String {
        format!(
            "  standing population : {} users ({} live at end, {} rows)\n\
             \x20 initial settle      : {:.1} ms, {} rounds\n\
             \x20 events              : {} ({} arrive / {} depart / {} budget / {} rate)\n\
             \x20 re-convergence moves: p50 {}  p99 {}  max {}\n\
             \x20 re-convergence wall : p50 {:.0} µs  p99 {:.0} µs  max {:.0} µs\n\
             \x20 throughput          : {:.1} events/s (total {} moves)\n\
             \x20 engine work         : {} checks, {} occupant wakeups, {} re-validations\n\
             \x20 drift checks        : {} run, {} failed",
            self.cfg.initial_users,
            self.live_end,
            self.population_end,
            self.settle_ms,
            self.settle_rounds,
            self.events_processed,
            self.arrivals,
            self.departures,
            self.budget_changes,
            self.rate_shifts,
            self.p50_moves,
            self.p99_moves,
            self.max_moves,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.events_per_sec,
            self.total_moves,
            self.checks,
            self.occupant_wakeups,
            self.revalidated,
            self.drift_checks,
            self.drift_failures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_sustains_zero_drift() {
        let cfg = ChurnConfig {
            initial_users: 200,
            radios: 2,
            n_channels: 8,
            rate: 1.0,
            events: 60,
            seed: 7,
            threads: 1,
            max_rounds: 400,
            drift_every: 15,
        };
        let report = ChurnDriver::new(cfg).replay();
        assert_eq!(report.events_processed, 60);
        assert!(report.drift_checks >= 5);
        assert_eq!(report.drift_failures, 0, "{}", report.summary());
        assert!(report.events_per_sec > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"drift_failures\": 0"), "{json}");
        assert!(
            json.contains(&format!("\"checks\": {}", report.checks)),
            "{json}"
        );
        assert!(
            report.checks > 0 && report.total_moves > 0,
            "{}",
            report.summary()
        );
    }

    #[test]
    fn parallel_replay_matches_the_contract_too() {
        let cfg = ChurnConfig {
            initial_users: 300,
            radios: 2,
            n_channels: 8,
            rate: 1.0,
            events: 40,
            seed: 11,
            threads: 2,
            max_rounds: 400,
            drift_every: 10,
        };
        let report = ChurnDriver::new(cfg).replay();
        assert_eq!(report.drift_failures, 0, "{}", report.summary());
    }
}
