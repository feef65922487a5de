//! Tracing from outside the program: spans the benchmark records around its
//! calls into each crate, the phase records the program already emits through
//! an [`ObsSink`], and a timing [`Normalizer`] wrapper.

use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::{LlmError, Matrix};
use haan_obs::{EventKind, ObsEvent, ObsSink};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept in memory; later ones are counted as dropped.
const MAX_SPANS: usize = 200_000;

/// One timed interval. `parent` is the id of the benchmark span open when the
/// span was recorded (0 for none); `key` is the session, tick or request id.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
struct Collected {
    spans: Vec<Span>,
    dropped: u64,
    queue_wait_us: Vec<f64>,
    prefix_attach_rows: u64,
}

/// The benchmark's trace: an [`ObsSink`] for the program's phase records and
/// a span log for the benchmark's own spans, sharing one clock.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    /// The benchmark span currently open; phase records nest under it.
    open: AtomicU64,
    collected: Mutex<Collected>,
}

impl Trace {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            collected: Mutex::new(Collected::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, name: &'static str, key: u64, start_ns: u64, end_ns: u64, id: u64) {
        let parent = self.open.load(Ordering::Relaxed);
        let mut c = self.collected.lock().expect("trace lock poisoned");
        if c.spans.len() < MAX_SPANS {
            c.spans.push(Span {
                id,
                parent,
                name,
                key,
                start_ns,
                end_ns,
            });
        } else {
            c.dropped += 1;
        }
    }

    /// Runs `f` inside a span named `name`; phase records the program emits
    /// meanwhile get this span as their parent.
    pub fn span<T>(&self, name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = self.open.swap(id, Ordering::Relaxed);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.store(outer, Ordering::Relaxed);
        self.push(name, key, start, end, id);
        out
    }

    /// Records a span that the benchmark timed itself, such as a request's
    /// submit → reply interval.
    pub fn interval(&self, name: &'static str, key: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(name, key, ns(start), ns(end), id);
    }

    /// Durations (ns) of every kept span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let c = self.collected.lock().expect("trace lock poisoned");
        c.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Queue waits (µs) the engines reported through `serve.queue_wait_us`.
    pub fn queue_waits_us(&self) -> Vec<f64> {
        let c = self.collected.lock().expect("trace lock poisoned");
        c.queue_wait_us.clone()
    }

    /// Prompt rows served from a shared prefix (`prefix_attach` events).
    pub fn prefix_attach_rows(&self) -> u64 {
        self.collected
            .lock()
            .expect("trace lock poisoned")
            .prefix_attach_rows
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let c = self.collected.lock().expect("trace lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &c.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", c.dropped)?;
        out.flush()
    }
}

impl ObsSink for Trace {
    fn event(&self, event: ObsEvent) {
        if let EventKind::PrefixAttach { shared_rows } = event.kind {
            self.collected
                .lock()
                .expect("trace lock poisoned")
                .prefix_attach_rows += shared_rows;
        }
    }

    fn record(&self, name: &str, value: u64) {
        let name: &'static str = match name {
            "serve.queue_wait_us" => {
                let mut c = self.collected.lock().expect("trace lock poisoned");
                c.queue_wait_us.push(value as f64);
                return;
            }
            "serve.phase.gather_ns" => "serve.phase.gather",
            "serve.phase.normalize_ns" => "serve.phase.normalize",
            "serve.phase.scatter_ns" => "serve.phase.scatter",
            "group.phase.advance_ns" => "group.phase.advance",
            _ => return,
        };
        // Phase records arrive when the phase ends, carrying its duration.
        let end = self.now_ns();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(name, 0, end.saturating_sub(value), end, id);
    }
}

/// Time spent inside a wrapped normalizer's calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormTiming {
    /// Every `Normalizer` call.
    pub total_ns: u64,
    /// The norm→matmul epilogue calls alone (they include their matmuls).
    pub epilogue_ns: u64,
    /// Elements normalized.
    pub elements: u64,
    /// Elements normalized by epilogue calls.
    pub epilogue_elements: u64,
}

impl NormTiming {
    pub fn add(&mut self, other: NormTiming) {
        self.total_ns += other.total_ns;
        self.epilogue_ns += other.epilogue_ns;
        self.elements += other.elements;
        self.epilogue_elements += other.epilogue_elements;
    }

    /// Nanoseconds per element of the calls that only normalize (the
    /// epilogue calls also run their matmuls).
    pub fn norm_ns_per_elem(&self) -> f64 {
        (self.total_ns - self.epilogue_ns) as f64
            / (self.elements - self.epilogue_elements).max(1) as f64
    }
}

/// A [`Normalizer`] that forwards every call to `inner` and times it.
#[derive(Debug)]
pub struct TimingNormalizer<N> {
    pub inner: N,
    pub timing: NormTiming,
}

impl<N: Normalizer> TimingNormalizer<N> {
    pub fn new(inner: N) -> Self {
        Self {
            inner,
            timing: NormTiming::default(),
        }
    }

    fn timed<T>(&mut self, elements: usize, f: impl FnOnce(&mut N) -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.timing.total_ns += ns;
        self.timing.elements += elements as u64;
        (out, ns)
    }
}

impl<N: Normalizer> Normalizer for TimingNormalizer<N> {
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        self.timed(z.len(), |n| n.normalize(site, z, gamma, beta)).0
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        let elements = input.as_slice().len();
        self.timed(elements, |n| {
            n.normalize_matrix_into(site, input, gamma, beta, out);
        });
    }

    fn normalize_residual_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        residual: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        sum_out: &mut Matrix,
        out: &mut Matrix,
    ) {
        let elements = input.as_slice().len();
        self.timed(elements, |n| {
            n.normalize_residual_into(site, input, residual, gamma, beta, sum_out, out);
        });
    }

    fn normalize_matmul_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        weights: &[&Matrix],
        outs: &mut [Matrix],
    ) -> Result<(), LlmError> {
        let elements = input.as_slice().len();
        let (result, ns) = self.timed(elements, |n| {
            n.normalize_matmul_into(site, input, gamma, beta, weights, outs)
        });
        self.timing.epilogue_ns += ns;
        self.timing.epilogue_elements += elements as u64;
        result
    }

    fn begin_sequence(&mut self) {
        self.inner.begin_sequence();
    }

    fn description(&self) -> String {
        format!("timed {}", self.inner.description())
    }
}
