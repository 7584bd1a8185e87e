//! Spans and counts recorded by the benchmark around the calls it makes
//! into each layer. Kept in memory, written out as JSON lines when the
//! run ends.
//!
//! The tracer is off in the run that produces the end-to-end numbers:
//! [`Tracer::span`] then only calls the closure. A separate traced run
//! gives the per-layer numbers, and the two runs' loop times give the
//! tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and call, `crate.module.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Sampling round the span belongs to (spans of one round share it).
    pub round: u64,
    /// Calls into the layer the span covers (a batch over all VMs is one
    /// span): the per-call time is the length divided by this.
    pub calls: u32,
    /// Scaled seconds per wall second when the span started (`clock.rs`):
    /// lengths are reported multiplied by this.
    pub scale: f64,
}

impl Span {
    /// Length of the interval in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Length of the interval in scaled nanoseconds.
    pub fn scaled_ns(&self) -> f64 {
        self.duration_ns() as f64 * self.scale
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

/// Records spans and counts while enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
    scale: f64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records (`true`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            scale: 1.0,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next sampling round: spans recorded from now on carry
    /// its identifier, which is unique within the process.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// Sets the speed factor stamped on spans from now on.
    pub fn set_scale(&mut self, scale: f64) {
        self.scale = scale;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
            calls: 1,
            scale: self.scale,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Closes a span under another name — for calls whose kind is only
    /// known once they return (an idle, predict or train round).
    pub fn exit_as(&mut self, open: Open, name: &'static str) {
        if let Some(idx) = open.0 {
            self.spans[idx].name = name;
        }
        self.exit(open);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_n(name, 1, f)
    }

    /// Runs `f`, which makes `calls` calls into the layer, inside one
    /// span.
    pub fn span_n<R>(&mut self, name: &'static str, calls: usize, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        if let Some(idx) = open.0 {
            self.spans[idx].calls = calls.max(1) as u32;
        }
        let out = f();
        self.exit(open);
        out
    }

    /// Adds `by` to the count named `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    /// The count named `name` (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call time in scaled microseconds of every span named `name`.
    pub fn per_call_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.scaled_ns() / 1e3 / f64::from(s.calls))
            .collect()
    }

    /// Writes one JSON object per span to `out`, for the first `limit`
    /// spans.
    ///
    /// # Errors
    ///
    /// Returns the first write error.
    pub fn write_jsonl(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        for s in self.spans.iter().take(limit) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            // Span names are identifiers from this crate: nothing to escape.
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"calls\":{},\"scale\":{:?}}}",
                s.name, s.start_ns, s.end_ns, parent, s.round, s.calls, s.scale
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its length minus the part its direct
/// children cover. Children of one parent never overlap (one thread
/// records them), so the covered part is the sum of their lengths.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}
