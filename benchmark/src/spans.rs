//! Host-time spans around the public calls the benchmark makes into each
//! layer. Spans are kept in memory and written once, as Chrome-trace JSON,
//! when the run ends. No `sim::Tracer` is installed: an installed tracer
//! turns the superblock tier off, so a traced run would execute
//! differently from the run it explains.

use std::time::Instant;

use regvault_bench::json::Value;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (crate or module) the call enters.
    pub layer: &'static str,
    /// Call name within the layer.
    pub name: &'static str,
    /// What the call worked on (guest program, config), or "".
    pub detail: &'static str,
    /// Round the call belongs to; spans of one round share it.
    pub round: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Span recorder. When off, [`Spans::time`] only calls the closure.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    round: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records (`on`) or only passes calls through.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            round: 0,
            spans: Vec::new(),
        }
    }

    /// Sets the round later spans belong to.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Runs `f`, recording a span `layer.name` around it when on.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(layer, name, detail, start, end);
        out
    }

    /// Records a span measured by the caller.
    pub fn push(
        &mut self,
        layer: &'static str,
        name: &'static str,
        detail: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let nanos = |at: Instant| u64::try_from((at - self.t0).as_nanos()).unwrap_or(u64::MAX);
        let start_ns = nanos(start);
        self.spans.push(Span {
            layer,
            name,
            detail,
            round: self.round,
            start_ns,
            dur_ns: nanos(end) - start_ns,
        });
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of spans named `layer.name`.
    #[must_use]
    pub fn total_ns(&self, layer: &str, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document:
    /// complete events with microsecond timestamps, the round and detail
    /// in `args`.
    #[must_use]
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(format!("{}.{}", s.layer, s.name))),
                    ("cat".into(), Value::Str(s.layer.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Num(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), Value::Int(1)),
                    (
                        "args".into(),
                        Value::Obj(vec![
                            ("round".into(), Value::Int(s.round)),
                            ("detail".into(), Value::Str(s.detail.into())),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ns".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_records_each_call() {
        let mut off = Spans::new(false);
        assert_eq!(off.time("kernel", "boot", "", || 7), 7);
        assert!(off.spans().is_empty());

        let mut on = Spans::new(true);
        on.set_round(3);
        on.time("kernel", "boot", "x", || ());
        on.time("kernel", "boot", "y", || ());
        on.time("bench", "check", "", || ());
        assert_eq!(on.spans().len(), 3);
        assert!(on.spans().iter().all(|s| s.round == 3));
        let boot = on.total_ns("kernel", "boot");
        assert_eq!(boot, on.spans()[0].dur_ns + on.spans()[1].dur_ns);
        assert_eq!(on.total_ns("kernel", "run_user"), 0);
        assert!(on.chrome_trace().render().contains("\"kernel.boot\""));
    }
}
