//! Outside-in spans. The benchmark wraps each call it makes into the
//! engine in a span (name, event id, parent, start, duration) kept in
//! memory; the layer table is computed when the traced pass ends. With
//! tracing off a span is a plain call.

use std::time::Instant;

#[derive(Debug)]
struct Span {
    name: &'static str,
    event: Option<u32>,
    parent: Option<usize>,
    start: Instant,
    dur: f64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// One row of the layer table: spans of one name under one parent name.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub parent: &'static str,
    pub count: u64,
    pub self_s: f64,
}

/// One slow event: its id, total seconds, and its child spans' seconds.
pub type SlowEvent = (u32, f64, Vec<(&'static str, f64)>);

/// The engine layer (or benchmark role) a span's self time belongs to.
/// The `wake` and `commit` layers run inside `run` and have no span of
/// their own from outside; they are reported through counters.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "harvest" => "rate",
        "certify" => "br",
        "graph" => "index",
        "engine" | "run" | "arrive" | "depart" | "budget" | "reprice" | "retune" => "driver",
        "start" | "positions" => "input",
        "check" => "check",
        _ => "bench",
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` (child of the innermost open
    /// span), tagged with `event` when it belongs to one event.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        event: Option<u32>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            event,
            parent: self.stack.last().copied(),
            start: Instant::now(),
            dur: 0.0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let span = &mut self.spans[id];
        span.dur = span.start.elapsed().as_secs_f64();
        out
    }

    /// Self time and count per (span name, parent name), in first-seen
    /// order, plus an `unattributed` row holding the part of `wall` no
    /// top-level span covers. The rows sum to `wall` by construction.
    pub fn table(&self, wall: f64) -> Vec<Row> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        let mut rows: Vec<Row> = Vec::new();
        let mut top = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-", |p| self.spans[p].name);
            if s.parent.is_none() {
                top += s.dur;
            }
            let self_s = s.dur - child_time[i];
            match rows
                .iter_mut()
                .find(|r| r.name == s.name && r.parent == parent)
            {
                Some(r) => {
                    r.count += 1;
                    r.self_s += self_s;
                }
                None => rows.push(Row {
                    name: s.name,
                    parent,
                    count: 1,
                    self_s,
                }),
            }
        }
        rows.push(Row {
            name: "unattributed",
            parent: "-",
            count: 1,
            self_s: wall - top,
        });
        rows
    }

    /// The `n` slowest `event` spans.
    pub fn slowest_events(&self, n: usize) -> Vec<SlowEvent> {
        let mut events: Vec<(usize, &Span)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "event")
            .collect();
        events.sort_by(|a, b| b.1.dur.total_cmp(&a.1.dur));
        events
            .into_iter()
            .take(n)
            .map(|(i, s)| {
                let children = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.name, c.dur))
                    .collect();
                (s.event.unwrap_or(u32::MAX), s.dur, children)
            })
            .collect()
    }
}

/// Print the layer table and the slowest events to stdout.
pub fn print_table(workload: &str, tracer: &Tracer, wall: f64) {
    println!("layer table [{workload}] (traced pass wall {wall:.6} s)");
    println!(
        "  {:<14} {:<10} {:<7} {:>8} {:>12} {:>7}",
        "span", "parent", "layer", "count", "self_s", "share"
    );
    let rows = tracer.table(wall);
    for r in &rows {
        println!(
            "  {:<14} {:<10} {:<7} {:>8} {:>12.6} {:>6.2}%",
            r.name,
            r.parent,
            if r.name == "unattributed" {
                "-"
            } else {
                layer_of(r.name)
            },
            r.count,
            r.self_s,
            100.0 * r.self_s / wall
        );
    }
    let sum: f64 = rows.iter().map(|r| r.self_s).sum();
    println!("  rows sum to {sum:.6} s of {wall:.6} s traced wall");
    for (id, total, children) in tracer.slowest_events(5) {
        let parts: Vec<String> = children
            .iter()
            .map(|(name, s)| format!("{name} {:.3} ms", s * 1e3))
            .collect();
        println!(
            "  slow event #{id}: {:.3} ms = {}",
            total * 1e3,
            parts.join(" + ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_wall_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        t.span("solve", None, |t| {
            t.span("run", None, |_| {
                std::hint::black_box((0..10_000).sum::<u64>())
            });
            t.span("certify", None, |_| ());
        });
        for e in 0..3 {
            t.span("event", Some(e), |t| t.span("depart", Some(e), |_| ()));
        }
        let wall = t0.elapsed().as_secs_f64();
        let rows = t.table(wall);
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum - wall).abs() < 1e-9, "{sum} vs {wall}");
        let depart = rows.iter().find(|r| r.name == "depart").unwrap();
        assert_eq!((depart.parent, depart.count), ("event", 3));
        assert!(rows
            .iter()
            .all(|r| r.name == "unattributed" || r.self_s >= 0.0));
        assert_eq!(t.slowest_events(2).len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("run", None, |_| 7), 7);
        assert_eq!(t.table(1.0).len(), 1);
    }
}
