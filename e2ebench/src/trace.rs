//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! analyzer's public entry points (the analyzer itself is not
//! instrumented). They stay in memory during the run and are written
//! out once, at the end, as JSON lines. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans of one verdict or request share `req`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The span recorder. A disabled tracer records nothing, so the same
/// code path serves the untraced and the traced loop.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, req: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let now = self.us(Instant::now());
        self.spans.push(Span { name, req, parent, start_us: now, end_us: now });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end_us = self.us(Instant::now());
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (another thread, or a phase
    /// time the analyzer reported itself).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        self.spans.push(Span { name, req, parent, start_us, end_us });
        self.spans.len() - 1
    }

    /// Microseconds since the tracer's origin (for [`Tracer::record`]).
    pub fn at(&self, t: Instant) -> f64 {
        self.us(t)
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            *out.entry(s.name).or_insert(0.0) += (s.ms() - c).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.req, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
