//! Spans recorded by the benchmark around its calls into each layer, and
//! a [`Backend`] wrapper that adds one span per inference call.
//!
//! Spans are kept in memory and written out as a Chrome trace-event file
//! when the run ends. Everything runs on one thread, so spans nest
//! strictly and a span's self time is its duration minus its children's.

use crate::sys::Instant;
use kwt_engine::{Backend, BackendHealth, BackendKind, FaultStats, Result};
use kwt_model::KwtConfig;
use kwt_rv32::RunResult;
use kwt_tensor::qops::QuantStats;
use kwt_tensor::Mat;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers (`serve.drive`, `rv32.device`, …).
    pub name: &'static str,
    /// Clip, chunk, window or wave the span belongs to.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Summed duration of the direct children.
    pub child_ns: u64,
}

impl Span {
    /// Duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration not covered by a child span.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns() - self.child_ns
    }
}

/// In-memory span and counter store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    values: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            counters: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, id: u64) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: 0,
            child_ns: 0,
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("every span end matches a begin");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        let dur = span.dur_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += dur;
        }
    }

    /// Adds `v` to the named counter.
    pub fn add(&mut self, counter: &'static str, v: u64) {
        *self.counters.entry(counter).or_insert(0) += v;
    }

    /// Records a figure computed by the benchmark itself, such as a
    /// percentile of the generator's lateness.
    pub fn set_value(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// A figure stored with [`set_value`](Self::set_value) (0 when unset).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// `(count, total ns, total self ns)` of the spans named `name`
    /// that lie inside one of `phases`.
    pub fn totals(&self, name: &str, phases: &[Span]) -> (u64, u64, u64) {
        self.named(name)
            .filter(|s| inside(s, phases))
            .fold((0, 0, 0), |(n, d, s), sp| {
                (n + 1, d + sp.dur_ns(), s + sp.self_ns())
            })
    }

    /// A copy of every counter.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.counters.clone()
    }

    /// Writes every span as a Chrome trace-event JSON file (loadable in
    /// `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// `true` when `span` lies inside one of `phases`.
pub fn inside(span: &Span, phases: &[Span]) -> bool {
    phases
        .iter()
        .any(|p| span.start_ns >= p.start_ns && span.end_ns <= p.end_ns)
}

/// Shared handle to the run's tracer; `None` in an untraced run, where
/// every span helper is a no-op.
#[derive(Debug, Clone)]
pub struct Trace(Option<Arc<Mutex<Tracer>>>);

impl Trace {
    /// A recording tracer.
    pub fn on() -> Self {
        Trace(Some(Arc::new(Mutex::new(Tracer::new()))))
    }

    /// The no-op tracer.
    pub fn off() -> Self {
        Trace(None)
    }

    /// `true` when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` inside a span. The tracer is not locked while `f` runs,
    /// so spans nest.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let Some(t) = &self.0 else {
            return f();
        };
        lock(t).begin(name, id);
        let r = f();
        lock(t).end();
        r
    }

    /// Locks the tracer for reading or counting (`None` when off).
    pub fn get(&self) -> Option<MutexGuard<'_, Tracer>> {
        self.0.as_ref().map(lock)
    }
}

fn lock(t: &Arc<Mutex<Tracer>>) -> MutexGuard<'_, Tracer> {
    t.lock()
        .expect("the tracer is only used from one thread and never panics")
}

/// Delegating [`Backend`]: forwards every trait method to `inner`,
/// recording one span per inference call, so an engine over it takes the
/// same prequantised and wave paths as over `inner` itself. After each
/// call `probe` reads the backend's own statistics into the tracer's
/// counters, given the number of windows the call classified.
#[derive(Clone)]
pub struct TracedBackend<B, P> {
    inner: B,
    trace: Trace,
    span: &'static str,
    probe: P,
    calls: u64,
}

impl<B: Backend, P: FnMut(&B, usize, &mut Tracer)> TracedBackend<B, P> {
    /// Wraps `inner`, naming its spans `span`.
    pub fn new(inner: B, trace: Trace, span: &'static str, probe: P) -> Self {
        TracedBackend {
            inner,
            trace,
            span,
            probe,
            calls: 0,
        }
    }

    fn traced<R>(&mut self, windows: usize, f: impl FnOnce(&mut B) -> R) -> R {
        self.calls += 1;
        let inner = &mut self.inner;
        let r = self.trace.span(self.span, self.calls, || f(inner));
        if let Some(mut t) = self.trace.get() {
            (self.probe)(&self.inner, windows, &mut t);
        }
        r
    }
}

impl<B, P> Backend for TracedBackend<B, P>
where
    B: Backend + Clone + 'static,
    P: FnMut(&B, usize, &mut Tracer) + Clone + Send + 'static,
{
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn config(&self) -> &KwtConfig {
        self.inner.config()
    }

    fn infer_into(&mut self, mfcc: &Mat<f32>, logits: &mut Vec<f32>) -> Result<()> {
        self.traced(1, |b| b.infer_into(mfcc, logits))
    }

    fn input_exponent(&self) -> Option<i32> {
        self.inner.input_exponent()
    }

    fn infer_prequantized_into(&mut self, input: &Mat<i8>, logits: &mut Vec<f32>) -> Result<()> {
        self.traced(1, |b| b.infer_prequantized_into(input, logits))
    }

    fn batch_width(&self) -> usize {
        self.inner.batch_width()
    }

    fn infer_wave(&mut self, mfccs: &[Mat<f32>], logits: &mut [Vec<f32>]) -> Result<()> {
        self.traced(mfccs.len(), |b| b.infer_wave(mfccs, logits))
    }

    fn infer_prequantized_wave(
        &mut self,
        inputs: &[Mat<i8>],
        logits: &mut [Vec<f32>],
    ) -> Result<()> {
        self.traced(inputs.len(), |b| b.infer_prequantized_wave(inputs, logits))
    }

    fn last_device_run(&self) -> Option<RunResult> {
        self.inner.last_device_run()
    }

    fn wave_device_cycles(&self) -> Option<u64> {
        self.inner.wave_device_cycles()
    }

    fn last_quant_stats(&self) -> Option<QuantStats> {
        self.inner.last_quant_stats()
    }

    fn clone_boxed(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }

    fn recover(&mut self) -> Option<kwt_baremetal::RecoveryReport> {
        self.inner.recover()
    }

    fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.inner.set_cycle_budget(budget);
    }

    fn inject_faults(&mut self, plan: kwt_rv32::FaultPlan) -> bool {
        self.inner.inject_faults(plan)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.fault_stats()
    }

    fn health(&self) -> Option<BackendHealth> {
        self.inner.health()
    }
}
