//! In-memory span recorder for the traced run. Spans are opened and
//! closed by the benchmark around its own calls into the system; nothing
//! inside the system is instrumented.

use std::time::Instant;

/// One completed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one workload run.
    pub run: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    pub fn on(run: u64) -> Tracer {
        Tracer::new(true, run)
    }

    fn new(enabled: bool, run: u64) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close `span`; spans must close innermost first.
    pub fn exit(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time per span: its duration minus the part its children
    /// cover. Children of one span run on the same thread and never
    /// overlap, so that part is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Summed self time in seconds of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |a, (_, ns)| a + ns as f64 * 1e-9)
    }
}
