//! The four workloads. Each pass builds the engine from seeded inputs,
//! solves from the random start, certifies the result, then replays a
//! closed-loop event stream: one event in flight, the next applied only
//! after `run` has re-converged. Everything runs on one thread.

use crate::gen::{self, Rng, Stream};
use crate::trace::Tracer;
use mrca_core::br_fast::{nash_check_sparse, ActiveSetDynamics, DynCounters};
use mrca_core::churn::ChurnGame;
use mrca_core::spatial::{
    nash_check_spatial, ConflictGraph, NbrIndex, SpatialDynamics, SpatialGame,
};
use mrca_core::{
    ChannelAllocationGame, ChannelGame, ChannelId, ChannelLoads, GameConfig, SparseStrategies,
    UserId,
};
use mrca_mac::{HarvestConfig, PhyParams, RateHarvester};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChurnHeap,
    RetuneDp,
    SpatialDense,
    SpatialWide,
}

/// Round cap of every `run`: far above any convergence seen, so reaching
/// it means a stall (counted as a failure).
const MAX_ROUNDS: usize = 20_000;

/// A workload's size. `tiny` shapes exist for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Shape {
    pub users: usize,
    pub radios: u32,
    pub channels: usize,
    /// Events per pass.
    pub events: usize,
    /// Set-up + solve repetitions per pass; the first one goes on to the
    /// event stream.
    pub setup_reps: usize,
    /// Nominal seconds per untraced pass on the reference host: a run of
    /// `--seconds s` makes `s / pass_s` passes.
    pub pass_s: f64,
    /// Full Nash + load-recompute check every this many events (and
    /// always after the last one).
    pub drift_every: usize,
    /// Spatial workloads: square side and conflict range.
    pub side: f64,
    pub range: f64,
    /// retune-dp: the DCF harvest behind the measured rate curve.
    pub harvest: Option<HarvestConfig>,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChurnHeap,
        Workload::RetuneDp,
        Workload::SpatialDense,
        Workload::SpatialWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnHeap => "churn-heap",
            Workload::RetuneDp => "retune-dp",
            Workload::SpatialDense => "spatial-dense",
            Workload::SpatialWide => "spatial-wide",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self, tiny: bool) -> Shape {
        let base = Shape {
            users: 0,
            radios: 2,
            channels: 0,
            events: 0,
            setup_reps: 3,
            pass_s: 1.0,
            drift_every: 100,
            side: 0.0,
            range: 5.0,
            harvest: None,
        };
        match (self, tiny) {
            (Workload::ChurnHeap, false) => Shape {
                users: 5_000,
                channels: 64,
                events: 1_000,
                setup_reps: 10,
                pass_s: 1.1,
                drift_every: 500,
                ..base
            },
            (Workload::ChurnHeap, true) => Shape {
                users: 300,
                channels: 8,
                events: 40,
                drift_every: 10,
                ..base
            },
            // 750 × 2 radios over 64 channels: mean occupancy 23.4,
            // inside the full harvest's max_k = 24.
            (Workload::RetuneDp, false) => Shape {
                users: 750,
                channels: 64,
                events: 400,
                setup_reps: 1,
                pass_s: 1.5,
                harvest: Some(HarvestConfig::full()),
                ..base
            },
            (Workload::RetuneDp, true) => Shape {
                users: 40,
                channels: 16,
                events: 40,
                drift_every: 10,
                harvest: Some(HarvestConfig::smoke()),
                ..base
            },
            // Density 0.1 per unit area at range 5: mean degree ≈ 7.9.
            // The population and square of spatial-wide, so a seed gives
            // both the same conflict graph.
            (Workload::SpatialDense, false) => Shape {
                users: 100_000,
                channels: 8,
                events: 400,
                setup_reps: 2,
                pass_s: 2.7,
                drift_every: 200,
                side: 1_000.0,
                ..base
            },
            (Workload::SpatialDense, true) => Shape {
                users: 2_000,
                channels: 8,
                events: 40,
                side: 141.4,
                drift_every: 10,
                ..base
            },
            (Workload::SpatialWide, false) => Shape {
                users: 100_000,
                channels: 512,
                events: 300,
                setup_reps: 1,
                pass_s: 2.2,
                drift_every: 300,
                side: 1_000.0,
                ..base
            },
            (Workload::SpatialWide, true) => Shape {
                users: 1_000,
                channels: 512,
                events: 40,
                side: 100.0,
                drift_every: 10,
                ..base
            },
        }
    }
}

/// One closed-loop event: the event call alone, and the call plus
/// re-convergence.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: &'static str,
    pub apply_s: f64,
    pub total_s: f64,
    pub moves: u64,
}

/// What one pass measured. Counts are deterministic per seed; times are
/// not.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    /// `run` from the random start plus the certification scan, one per
    /// set-up.
    pub solve_s: Vec<f64>,
    pub run_s: f64,
    pub certify_s: f64,
    pub rounds: u64,
    pub users: u64,
    pub harvest_s: f64,
    pub sim_events: u64,
    pub graph_build_s: f64,
    pub index_bytes: u64,
    pub dense_bytes: u64,
    pub graph_bytes: u64,
    /// Engine counters after the solve, and their growth over the events.
    pub solve: DynCounters,
    pub during_events: DynCounters,
    pub events: Vec<Event>,
    /// Peak RSS after the first instance of the pass.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
}

impl Pass {
    /// Every count this pass produced: equal seeds must give equal counts.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let c = |d: &DynCounters| {
            [
                d.checks,
                d.moves,
                d.activations,
                d.skipped_checks,
                d.occupant_wakeups,
                d.revalidated,
                d.temptation_wakeups,
                d.refined_reparks,
            ]
        };
        let names_solve = [
            "solve.checks",
            "solve.moves",
            "solve.activations",
            "solve.skipped_checks",
            "solve.occupant_wakeups",
            "solve.revalidated",
            "solve.temptation_wakeups",
            "solve.refined_reparks",
        ];
        let names_events = [
            "events.checks",
            "events.moves",
            "events.activations",
            "events.skipped_checks",
            "events.occupant_wakeups",
            "events.revalidated",
            "events.temptation_wakeups",
            "events.refined_reparks",
        ];
        let mut out = vec![
            ("users", self.users),
            ("rounds", self.rounds),
            ("sim_events", self.sim_events),
            ("index_bytes", self.index_bytes),
            ("dense_bytes", self.dense_bytes),
            ("graph_bytes", self.graph_bytes),
            ("events", self.events.len() as u64),
        ];
        out.extend(names_solve.into_iter().zip(c(&self.solve)));
        out.extend(names_events.into_iter().zip(c(&self.during_events)));
        out
    }

    /// Per-event moves, in stream order (part of the determinism check).
    pub fn event_moves(&self) -> Vec<u64> {
        self.events.iter().map(|e| e.moves).collect()
    }
}

/// Results of the traced-only index probe on the spatial workloads.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub index_build_s: f64,
    pub moves: u64,
    pub cells: u64,
    pub replace_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn growth(before: DynCounters, after: DynCounters) -> DynCounters {
    DynCounters {
        checks: after.checks - before.checks,
        moves: after.moves - before.moves,
        activations: after.activations - before.activations,
        skipped_checks: after.skipped_checks - before.skipped_checks,
        occupant_wakeups: after.occupant_wakeups - before.occupant_wakeups,
        revalidated: after.revalidated - before.revalidated,
        temptation_wakeups: after.temptation_wakeups - before.temptation_wakeups,
        refined_reparks: after.refined_reparks - before.refined_reparks,
        committed: after.committed - before.committed,
        deferred: after.deferred - before.deferred,
    }
}

/// Build once inside a timed `setup` span.
fn timed_setup<T>(
    p: &mut Pass,
    tr: &mut Tracer,
    build: impl FnOnce(&mut Tracer, &mut Pass) -> Result<T, String>,
) -> Result<T, String> {
    let t = Instant::now();
    let built = tr.span("setup", None, |tr| build(tr, p))?;
    p.setup_s.push(secs(t));
    Ok(built)
}

/// VmHWM of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Close a pass: the first instance has run its event stream and been
/// dropped, so the process peak is that of one whole workload. Only then
/// come the `reps - 1` further set-up + solve repetitions, which add
/// timing samples: the allocator keeps memory freed by one instance, so
/// later ones would raise the peak by amounts that vary with the input.
fn finish_pass(
    p: &mut Pass,
    reps: usize,
    mut instance: impl FnMut(&mut Pass) -> Result<(), String>,
) -> Result<(), String> {
    p.peak_rss_mb = peak_rss_mb()?;
    for _ in 1..reps {
        instance(p)?;
    }
    Ok(())
}

/// One closed-loop event on `state`: the event call (`apply`, a span
/// named `kind`), then re-convergence (`run`). Returns the event record
/// without its move count, and whether `run` converged.
fn closed_loop_event<S>(
    tr: &mut Tracer,
    id: usize,
    kind: &'static str,
    state: &mut S,
    apply: impl FnOnce(&mut S),
    run: impl FnOnce(&mut S) -> bool,
) -> (Event, bool) {
    let ev = Some(id as u32);
    tr.span("event", ev, |tr| {
        let t0 = Instant::now();
        tr.span(kind, ev, |_| apply(state));
        let apply_s = secs(t0);
        let converged = tr.span("run", ev, |_| run(state));
        let total_s = secs(t0);
        (
            Event {
                kind,
                apply_s,
                total_s,
                moves: 0,
            },
            converged,
        )
    })
}

/// Run `f` as an untimed output check.
fn check(tr: &mut Tracer, f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    tr.span("check", None, |_| f())
}

fn check_sparse<G: ChannelGame>(game: &G, d: &ActiveSetDynamics, at: &str) -> Result<(), String> {
    if !nash_check_sparse(game, d.state()).is_nash() {
        return Err(format!("{at}: state is not an exact Nash equilibrium"));
    }
    if ChannelLoads::of_sparse(d.state()) != *d.loads() {
        return Err(format!("{at}: maintained loads differ from a recount"));
    }
    Ok(())
}

fn check_spatial(
    game: &SpatialGame<ChurnGame>,
    d: &SpatialDynamics,
    at: &str,
) -> Result<(), String> {
    if !nash_check_spatial(game, d.state()).is_nash() {
        return Err(format!(
            "{at}: state is not an exact spatial Nash equilibrium"
        ));
    }
    if !d.neighborhood_loads().agrees_with(game.graph(), d.state()) {
        return Err(format!("{at}: neighborhood index differs from a rebuild"));
    }
    Ok(())
}

/// Run one pass of `w`: a timed set-up, solved, checked and driven
/// through the event stream, then `reps - 1` more timed set-ups, each
/// solved and checked.
pub fn pass(
    w: Workload,
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    reps: usize,
) -> Result<Pass, String> {
    let t = Instant::now();
    let mut p = Pass {
        users: sh.users as u64,
        ..Pass::default()
    };
    match w {
        Workload::ChurnHeap => churn_heap(sh, seed, tr, reps, &mut p)?,
        Workload::RetuneDp => retune_dp(sh, seed, tr, reps, &mut p)?,
        Workload::SpatialDense | Workload::SpatialWide => spatial(sh, seed, tr, reps, &mut p)?,
    }
    p.wall_s = secs(t);
    Ok(p)
}

/// Solve from the random start (`run`) and certify the result with the
/// exact Nash scan (`certify`); both are timed as the solve.
fn solve<S>(
    tr: &mut Tracer,
    p: &mut Pass,
    state: &mut S,
    run: impl FnOnce(&mut S) -> (bool, usize),
    certify: impl FnOnce(&S) -> bool,
) -> Result<(), String> {
    let t = Instant::now();
    let (converged, certified) = tr.span("solve", None, |tr| {
        let t_run = Instant::now();
        let (converged, rounds) = tr.span("run", None, |_| run(state));
        p.run_s = secs(t_run);
        p.rounds = rounds as u64;
        let t_cert = Instant::now();
        let certified = tr.span("certify", None, |_| certify(state));
        p.certify_s = secs(t_cert);
        (converged, certified)
    });
    p.solve_s.push(secs(t));
    p.attempted += 1;
    if !converged {
        p.failed += 1;
    }
    if !certified {
        return Err("solve: state is not an exact Nash equilibrium".into());
    }
    Ok(())
}

enum ChurnAction {
    Arrive(u32),
    Depart(usize),
    Budget(usize, u32),
    Reprice(ChannelId, bool),
}

struct ChurnState {
    game: ChurnGame,
    d: ActiveSetDynamics,
    live: Vec<u32>,
}

impl ChurnState {
    fn arrive(&mut self, budget: u32) {
        let u = self.game.push_user(budget);
        self.live.push(u.0 as u32);
        self.d.grow_users(&self.game).expect("arena growth");
    }

    fn depart(&mut self, idx: usize) {
        let u = UserId(self.live.swap_remove(idx) as usize);
        self.game.retire(u);
        self.d.retire_user(&self.game, u);
    }

    /// Halve or double one channel's rate, bounded to [1/8, 8] of the
    /// base rate so a long stream stays numerically tame.
    fn reprice(&mut self, c: ChannelId, up: bool) {
        let cur = self.game.rate(c);
        let factor = if cur != 1.0 {
            1.0 / cur
        } else if up {
            2.0
        } else {
            0.5
        };
        let load = self.d.loads().load(c);
        let old = self.game.set_rate(c, cur * factor);
        self.d.reprice_channel(&self.game, c, &move |t| {
            ChurnGame::payoff_at_rate(load, t, old)
        });
    }
}

/// churn-heap: a standing constant-rate equilibrium on the heap route
/// absorbing arrive / depart / budget-change / rate-shift events
/// (35/35/15/15).
fn churn_heap(
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    reps: usize,
    p: &mut Pass,
) -> Result<(), String> {
    let (n, k, c_n) = (sh.users, sh.radios, sh.channels);
    let (game, d) = churn_instance(sh, seed, tr, p)?;
    p.solve = d.counters();

    let mut st = ChurnState {
        game,
        d,
        live: (0..n as u32).collect(),
    };
    let mut rng = Rng::new(seed, Stream::Events);
    let mut deck: Vec<u8> = Vec::new();
    for i in 0..sh.events {
        let budget = |rng: &mut Rng| 1 + rng.below(k as usize) as u32;
        // The mix is exact per block of 20 events (7 arrive, 7 depart,
        // 3 budget change, 3 rate shift) in seeded order, so percentiles
        // that fall between two event classes do not move with the seed.
        if deck.is_empty() {
            deck.extend([0; 7].into_iter().chain([1; 7]).chain([2; 3]).chain([3; 3]));
            for j in (1..deck.len()).rev() {
                deck.swap(j, rng.below(j + 1));
            }
        }
        // Draws happen before the clock starts; with nobody live a
        // departure or budget change degrades to an arrival.
        let action = match deck.pop().expect("refilled above") {
            1 if !st.live.is_empty() => ChurnAction::Depart(rng.below(st.live.len())),
            2 if !st.live.is_empty() => {
                ChurnAction::Budget(rng.below(st.live.len()), budget(&mut rng))
            }
            3 => ChurnAction::Reprice(ChannelId(rng.below(c_n)), rng.below(2) == 0),
            _ => ChurnAction::Arrive(budget(&mut rng)),
        };
        let kind = match action {
            ChurnAction::Arrive(_) => "arrive",
            ChurnAction::Depart(_) => "depart",
            ChurnAction::Budget(..) => "budget",
            ChurnAction::Reprice(..) => "reprice",
        };
        let before = st.d.counters().moves;
        let (mut ev, converged) = closed_loop_event(
            tr,
            i,
            kind,
            &mut st,
            |st| match action {
                ChurnAction::Arrive(b) => st.arrive(b),
                ChurnAction::Depart(idx) => st.depart(idx),
                ChurnAction::Budget(idx, b) => {
                    st.depart(idx);
                    st.arrive(b);
                }
                ChurnAction::Reprice(c, up) => st.reprice(c, up),
            },
            |st| st.d.run(&st.game, MAX_ROUNDS, None).0,
        );
        ev.moves = st.d.counters().moves - before;
        p.events.push(ev);
        p.attempted += 1;
        if !converged {
            p.failed += 1;
        }
        if (i + 1) % sh.drift_every == 0 || i + 1 == sh.events {
            let at = format!("after event {i}");
            check(tr, || check_sparse(&st.game, &st.d, &at))?;
        }
    }
    p.during_events = growth(p.solve, st.d.counters());
    p.fingerprint = gen::fingerprint(st.d.state());
    drop(st);
    finish_pass(p, reps, |p| churn_instance(sh, seed, tr, p).map(drop))
}

/// Set up a churn-heap engine, solve it and check the result.
fn churn_instance(
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<(ChurnGame, ActiveSetDynamics), String> {
    let (n, k, c_n) = (sh.users, sh.radios, sh.channels);
    let (game, mut d) = timed_setup(p, tr, |tr, _| {
        let start = tr.span("start", None, |_| {
            gen::start_state(n, k, c_n, &mut Rng::new(seed, Stream::Start))
        });
        let game = ChurnGame::uniform(n, k, c_n, 1.0);
        let d = tr.span("engine", None, |_| ActiveSetDynamics::new(&game, start));
        Ok((game, d))
    })?;
    solve(
        tr,
        p,
        &mut d,
        |d| d.run(&game, MAX_ROUNDS, None),
        |d| nash_check_sparse(&game, d.state()).is_nash(),
    )?;
    check(tr, || {
        if !d.is_heap() {
            return Err("churn-heap must run on the heap route".into());
        }
        if ChannelLoads::of_sparse(d.state()) != *d.loads() {
            return Err("solve: maintained loads differ from a recount".into());
        }
        let delta = d.loads().max_delta();
        if delta > 1 {
            return Err(format!(
                "solve: Proposition 1 balance broken, max_delta {delta}"
            ));
        }
        Ok(())
    })?;
    Ok((game, d))
}

/// retune-dp: a DCF rate table harvested in set-up drives a measured-rate
/// game on the generic DP route; each event piles one user's radios onto
/// one channel through `apply_row`, then the engine re-converges.
fn retune_dp(
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    reps: usize,
    p: &mut Pass,
) -> Result<(), String> {
    let (n, k, c_n) = (sh.users, sh.radios, sh.channels);
    let (game, mut d, max_k) = retune_instance(sh, seed, tr, p)?;
    p.solve = d.counters();

    let mut rng = Rng::new(seed, Stream::Events);
    for i in 0..sh.events {
        let u = UserId(rng.below(n));
        let c = rng.below(c_n) as u32;
        let before = d.counters().moves;
        let (mut ev, converged) = closed_loop_event(
            tr,
            i,
            "retune",
            &mut d,
            |d| d.apply_row(&game, u, &[(c, k)]),
            |d| d.run(&game, MAX_ROUNDS, None).0,
        );
        ev.moves = d.counters().moves - before;
        p.events.push(ev);
        p.attempted += 1;
        if !converged {
            p.failed += 1;
        }
        if (i + 1) % sh.drift_every == 0 || i + 1 == sh.events {
            let at = format!("after event {i}");
            check(tr, || {
                check_sparse(&game, &d, &at)?;
                occupancy_within(&d, max_k, &at)
            })?;
        }
    }
    p.during_events = growth(p.solve, d.counters());
    p.fingerprint = gen::fingerprint(d.state());
    drop((game, d));
    finish_pass(p, reps, |p| retune_instance(sh, seed, tr, p).map(drop))
}

/// The measured curve must drive the game, not its clamp beyond the
/// table: every channel's occupancy stays within the harvested `max_k`.
fn occupancy_within(d: &ActiveSetDynamics, max_k: u32, at: &str) -> Result<(), String> {
    let top = d.loads().as_slice().iter().copied().max().unwrap_or(0);
    if top > max_k {
        return Err(format!(
            "{at}: channel occupancy {top} exceeds the harvested max_k {max_k}"
        ));
    }
    Ok(())
}

/// Harvest the rate table, set up a retune-dp engine, solve it and check
/// the result.
fn retune_instance(
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<(ChannelAllocationGame, ActiveSetDynamics, u32), String> {
    let (n, k, c_n) = (sh.users, sh.radios, sh.channels);
    let h = sh.harvest.clone().expect("retune-dp has a harvest shape");
    p.sim_events = h.max_k as u64 * h.reps as u64 * h.events;
    let (game, mut d) = timed_setup(p, tr, |tr, p| {
        let t = Instant::now();
        let table = tr.span("harvest", None, |_| {
            RateHarvester::new(h.clone()).harvest_dcf(&PhyParams::bianchi_fhss(), "measured-dcf")
        });
        p.harvest_s = secs(t);
        let start = tr.span("start", None, |_| {
            gen::start_state(n, k, c_n, &mut Rng::new(seed, Stream::Start))
        });
        let cfg = GameConfig::new(n, k, c_n).map_err(|e| format!("retune-dp shape: {e}"))?;
        let game = ChannelAllocationGame::new(cfg, Arc::new(table.to_rate()));
        let d = tr.span("engine", None, |_| ActiveSetDynamics::new(&game, start));
        Ok((game, d))
    })?;
    solve(
        tr,
        p,
        &mut d,
        |d| d.run(&game, MAX_ROUNDS, None),
        |d| nash_check_sparse(&game, d.state()).is_nash(),
    )?;
    check(tr, || {
        if d.is_heap() {
            return Err("retune-dp must run on the generic DP route".into());
        }
        if ChannelLoads::of_sparse(d.state()) != *d.loads() {
            return Err("solve: maintained loads differ from a recount".into());
        }
        occupancy_within(&d, h.max_k, "solve")
    })?;
    Ok((game, d, h.max_k))
}

fn spatial_game(sh: &Shape, seed: u64, tr: &mut Tracer) -> SpatialGame<ChurnGame> {
    let pos = tr.span("positions", None, |_| {
        gen::positions(sh.users, sh.side, &mut Rng::new(seed, Stream::Positions))
    });
    let graph = tr.span("graph", None, |_| ConflictGraph::geometric(&pos, sh.range));
    SpatialGame::new(
        ChurnGame::uniform(sh.users, sh.radios, sh.channels, 1.0),
        graph,
    )
}

/// spatial-dense / spatial-wide: per-neighborhood games on a geometric
/// conflict graph, solved from a random start, then a stream of events
/// that each retire two random nodes (`retire_user`) and re-converge.
fn spatial(
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    reps: usize,
    p: &mut Pass,
) -> Result<(), String> {
    let (mut game, mut d) = spatial_instance(sh, seed, tr, p)?;
    p.solve = d.counters();

    let mut live: Vec<u32> = (0..sh.users as u32).collect();
    let mut rng = Rng::new(seed, Stream::Events);
    for i in 0..sh.events {
        if live.len() < 2 {
            break;
        }
        // Two nodes leave per event. A single departure re-converges in
        // one round or in two about equally often, which leaves the
        // median event on the edge between the two modes.
        let pair = [0, 1].map(|_| UserId(live.swap_remove(rng.below(live.len())) as usize));
        let before = d.counters().moves;
        let mut st = (&mut game, &mut d);
        let (mut ev, converged) = closed_loop_event(
            tr,
            i,
            "depart",
            &mut st,
            |(game, d)| {
                for u in pair {
                    game.inner_mut().retire(u);
                    d.retire_user(game, u);
                }
            },
            |(game, d)| d.run(game, MAX_ROUNDS, None).0,
        );
        ev.moves = d.counters().moves - before;
        p.events.push(ev);
        p.attempted += 1;
        if !converged {
            p.failed += 1;
        }
        if (i + 1) % sh.drift_every == 0 || i + 1 == sh.events {
            let at = format!("after event {i}");
            check(tr, || check_spatial(&game, &d, &at))?;
        }
    }
    p.during_events = growth(p.solve, d.counters());
    p.fingerprint = gen::fingerprint(d.state());
    drop((game, d));
    finish_pass(p, reps, |p| spatial_instance(sh, seed, tr, p).map(drop))
}

/// Build the graph, set up a spatial engine, solve it and check the
/// result.
fn spatial_instance(
    sh: &Shape,
    seed: u64,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<(SpatialGame<ChurnGame>, SpatialDynamics), String> {
    let (n, k, c_n) = (sh.users, sh.radios, sh.channels);
    let (game, mut d) = timed_setup(p, tr, |tr, p| {
        let t = Instant::now();
        let game = spatial_game(sh, seed, tr);
        p.graph_build_s = secs(t);
        let start = tr.span("start", None, |_| {
            gen::start_state(n, k, c_n, &mut Rng::new(seed, Stream::Start))
        });
        let d = tr.span("engine", None, |_| SpatialDynamics::new(&game, start));
        Ok((game, d))
    })?;
    p.index_bytes = d.neighborhood_loads().heap_bytes() as u64;
    p.dense_bytes = d.neighborhood_loads().dense_bytes() as u64;
    p.graph_bytes = game.graph().heap_bytes() as u64;
    solve(
        tr,
        p,
        &mut d,
        |d| d.run(&game, MAX_ROUNDS, None),
        |d| nash_check_spatial(&game, d.state()).is_nash(),
    )?;
    check(tr, || {
        if !d.neighborhood_loads().agrees_with(game.graph(), d.state()) {
            return Err("solve: neighborhood index differs from a rebuild".into());
        }
        Ok(())
    })?;
    Ok((game, d))
}

/// Traced runs only, spatial workloads: time a standalone neighborhood
/// index build, then replay the solve's move list, round by round,
/// through `NbrIndex::replace_row` on a second index. The replayed index
/// must end equal to a rebuild from the solved state.
pub fn spatial_probe(sh: &Shape, seed: u64) -> Result<Probe, String> {
    let (n, k, c_n) = (sh.users, sh.radios, sh.channels);
    let game = spatial_game(sh, seed, &mut Tracer::new(false));
    let start = gen::start_state(n, k, c_n, &mut Rng::new(seed, Stream::Start));
    let t = Instant::now();
    let mut index = NbrIndex::sparse_of(game.graph(), &start);
    let mut probe = Probe {
        index_build_s: secs(t),
        ..Probe::default()
    };
    let mut replay: SparseStrategies = start.clone();
    let mut d = SpatialDynamics::new(&game, start);
    let mut trace = Vec::new();
    // (user, old row, new row) per move of one round.
    type Replace = (usize, Vec<(u32, u32)>, Vec<(u32, u32)>);
    let mut batch: Vec<Replace> = Vec::new();
    let mut settled = false;
    for _ in 0..MAX_ROUNDS {
        trace.clear();
        let moved = d.round(&game, Some(&mut trace));
        // A user moves at most once per round, so every old row is the
        // replay state's row from before the round.
        batch.clear();
        for (u, sv) in &trace {
            let new = sv
                .counts()
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t > 0)
                .map(|(c, &t)| (c as u32, t))
                .collect();
            batch.push((u.0, replay.row(*u).to_vec(), new));
        }
        let mut cells = 0u64;
        let t = Instant::now();
        for (u, old, new) in &batch {
            index.replace_row(game.graph(), *u, old, new, |_, _, _, _| cells += 1);
        }
        probe.replace_s += secs(t);
        probe.cells += cells;
        probe.moves += batch.len() as u64;
        for (u, _, new) in &batch {
            replay.set_row(UserId(*u), new);
        }
        if !moved {
            settled = true;
            break;
        }
    }
    if !settled || replay != *d.state() || !index.agrees_with(game.graph(), d.state()) {
        return Err("index probe: replayed moves do not rebuild the solved index".into());
    }
    Ok(probe)
}
