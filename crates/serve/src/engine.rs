//! The serving engine: bounded request queue → scheduler → batched normalization →
//! per-client response routing.

use crate::admission::{AdmissionController, AdmissionDecision, AdmissionPolicy, AdmissionStats};
use crate::error::ServeError;
use crate::faults::{FaultAction, FaultInjector};
use crate::request::{CancelHandle, NormParams, NormRequest, NormResponse, PendingResponse};
use crate::scheduler::{BatchKey, ReadyBatch, Scheduler, SchedulerPolicy};
use crate::session::Session;
use crate::telemetry::{Recorder, ServingStats};
use haan::{AnchorState, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::{KvBlockPool, LlmError, Matrix};
use haan_obs::{EventKind, FaultKind, ObsEvent, ObsSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the worker sleeps between queue polls when no flush deadline is nearer,
/// which bounds shutdown latency.
const IDLE_TICK_US: u64 = 2_000;

/// Configuration of a [`ServeEngine`].
///
/// Every field has a serviceable default, so partial construction works:
///
/// ```
/// use haan::HaanConfig;
/// use haan_serve::{SchedulerPolicy, ServeConfig};
///
/// let config = ServeConfig {
///     normalizer: HaanConfig::builder().subsample(64).build(),
///     scheduler: SchedulerPolicy {
///         max_batch_rows: 16,
///         ..Default::default()
///     },
///     ..Default::default()
/// };
/// assert!(config.plan.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The HAAN configuration of the worker's shared normalizer and of the
    /// normalizer each decode group owns. Use
    /// [`BackendSelection::Fused`](haan::BackendSelection) for deterministic
    /// parity with direct `normalize_matrix_into` calls.
    pub normalizer: HaanConfig,
    /// Calibrated skip plan attached to every normalizer the engine builds, if
    /// any.
    pub plan: Option<SkipPlan>,
    /// Coalescing policy of the request-batching scheduler.
    pub scheduler: SchedulerPolicy,
    /// Bound of the submission queue, in requests; submissions block (backpressure)
    /// while the queue is full. Values of 0 act as 1.
    pub queue_capacity: usize,
    /// Sizing of the shared K/V block pools behind
    /// [`ServeEngine::decode_stream`] / [`ServeEngine::decode_group`].
    pub kv_pool: KvPoolPolicy,
    /// Watermark policy of the admission controller gating new decode streams
    /// against live pool pressure (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Per-tick prompt-chunk bound inherited by every
    /// [`ServeEngine::decode_group`] (0 — the default — keeps one-shot
    /// activation prefills). See
    /// [`DecodeGroup::set_prefill_chunk_rows`](crate::DecodeGroup::set_prefill_chunk_rows).
    pub prefill_chunk_rows: usize,
    /// Bound of the engine's interned-prefix LRU store
    /// ([`ServeEngine::intern_prefix`]): interning past this many resident
    /// prefixes evicts the least-recently-used entries **no stream currently
    /// maps** (refcount 0), returning their pages to the pool. 0 disables
    /// eviction (the pre-LRU pin-until-shutdown behavior, fine for a fixed
    /// set of system prompts). See [`PrefixStoreStats`](haan_llm::PrefixStoreStats).
    pub prefix_store_capacity: usize,
    /// Bounded-retry policy of the worker's batch dispatch (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Optional deterministic fault injector, threaded through pool allocation
    /// and the worker's batch dispatch (see [`crate::faults`]; decode-group
    /// ticks do not use the worker, so they see pool faults only). `None` in
    /// production; chaos drills install a
    /// [`SeededFaults`](crate::SeededFaults).
    pub faults: Option<Arc<dyn FaultInjector>>,
    /// Optional observability sink (see [`haan_obs`]): when installed it is
    /// threaded through the worker loop, the admission controller, every K/V
    /// pool, every normalizer, and every decode group this engine starts
    /// — metrics, flight-recorder events, and span timings all flow into it.
    /// `None` (the default) keeps every instrumentation site a single branch.
    pub obs: Option<Arc<dyn ObsSink>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            normalizer: HaanConfig::default(),
            plan: None,
            scheduler: SchedulerPolicy::default(),
            queue_capacity: 64,
            kv_pool: KvPoolPolicy::default(),
            admission: AdmissionPolicy::default(),
            prefill_chunk_rows: 0,
            prefix_store_capacity: 64,
            retry: RetryPolicy::default(),
            faults: None,
            obs: None,
        }
    }
}

/// Bounded retry with exponential backoff for failed worker batches. The
/// normalization path itself is infallible, so retries only trigger under
/// fault injection today — but the worker is written against this policy so a
/// future fallible backend inherits bounded, typed failure for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Most attempts per batch (the first try included). Values of 0 act as 1.
    /// When every attempt fails, all member requests are answered with
    /// [`ServeError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Backoff before the second attempt, microseconds; doubles per further
    /// attempt.
    pub backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_us: 100,
        }
    }
}

/// Sizing of the engine's shared [`KvBlockPool`]s: every decode stream the
/// engine starts borrows its K/V pages from one pool per embedding width, so
/// memory is bounded by the pool instead of `streams × max_seq × E`.
///
/// Sizing heuristic (see `ROADMAP.md`): `capacity_rows ≈ expected concurrent
/// streams × model blocks × expected live positions per stream`. Pool pages are
/// materialized lazily, so an over-provisioned capacity only bounds, it does
/// not allocate; an under-provisioned one surfaces as
/// [`LlmError::KvPoolExhausted`](haan_llm::LlmError) on the stream that could
/// not grow (never as a panic, and never corrupting the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvPoolPolicy {
    /// Rows per page. Smaller pages waste less slack per block/stream but grow
    /// page tables faster; 16 suits decode (1 row per step) with short prompts.
    pub page_rows: usize,
    /// Total K/V row pairs per pool (one pool per distinct embedding width).
    pub capacity_rows: usize,
}

impl Default for KvPoolPolicy {
    fn default() -> Self {
        Self {
            page_rows: 16,
            capacity_rows: 16_384,
        }
    }
}

/// One in-flight request: the public request plus its response route.
pub(crate) struct WorkItem {
    request: NormRequest,
    reply: mpsc::Sender<Result<NormResponse, ServeError>>,
    /// Engine-clock timestamp of *submission* (not worker admission), so queue-wait
    /// telemetry and max-wait flushes include time spent in the bounded channel —
    /// which is exactly where backpressure queuing happens.
    enqueued_us: u64,
    /// Client-shared cancellation flag; the worker answers a cancelled request
    /// with [`ServeError::Cancelled`] instead of executing it.
    cancel: CancelHandle,
}

/// The submission side of the bounded work queue, cloned into every session.
pub(crate) type WorkSender = SyncSender<WorkItem>;

/// State shared between the engine handle, its sessions, and the worker thread.
#[derive(Debug)]
pub(crate) struct Shared {
    epoch: Instant,
    closed: AtomicBool,
    /// Requests accepted by `submit_via` but not yet received by the worker.
    /// Closes the shutdown race: a submitter increments *before* checking
    /// `closed`, so the drain can wait for every accepted request to land in the
    /// queue instead of missing ones sent concurrently with shutdown.
    in_flight: AtomicU64,
    /// True while the worker thread lives. Cleared (by the worker's drop guard)
    /// only when the worker *panics*, so clients can distinguish a typed
    /// [`ServeError::WorkerDied`] from a clean [`ServeError::Shutdown`]. Behind
    /// an `Arc` so each [`PendingResponse`] can consult it without `Shared`.
    worker_alive: Arc<AtomicBool>,
    params: Mutex<HashMap<u64, Vec<Arc<NormParams>>>>,
    recorder: Recorder,
    /// The engine-wide observability sink, if installed.
    obs: Option<Arc<dyn ObsSink>>,
    /// Monotone correlation-ID allocator: every decode stream the engine
    /// starts draws a unique ID here, so flight-recorder events from all
    /// layers can be joined back into per-stream lifecycles.
    next_corr: AtomicU64,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The installed observability sink, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<dyn ObsSink>> {
        self.obs.as_ref()
    }

    /// Allocates the next stream correlation ID (1-based; deterministic in
    /// stream-creation order per engine).
    pub(crate) fn next_corr(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Emits one flight-recorder event stamped with the engine clock.
    /// A single branch when no sink is installed.
    pub(crate) fn emit(&self, stream: Option<u64>, kind: EventKind) {
        if let Some(obs) = &self.obs {
            obs.event(ObsEvent {
                t_us: self.now_us(),
                stream,
                kind,
            });
        }
    }

    pub(crate) fn worker_is_alive(&self) -> bool {
        self.worker_alive.load(Ordering::SeqCst)
    }

    /// Records one executed normalization dispatch in the engine's ledger:
    /// [`ServingStats`], the `serve.batches/requests/rows` counters, the
    /// `serve.phase.normalize_ns` and `serve.queue_wait_us` histograms, and a
    /// `batch_dispatch` event. One queue wait per member request. The worker
    /// records each coalesced batch here; a decode group records each site
    /// call as one request with zero queue wait.
    pub(crate) fn record_dispatch(
        &self,
        rows: usize,
        cols: usize,
        exec_ns: u64,
        queue_waits_us: &[u64],
    ) {
        let requests = queue_waits_us.len() as u64;
        self.recorder.record_batch(
            requests,
            rows as u64,
            (rows * cols) as u64,
            exec_ns,
            queue_waits_us.iter().copied(),
        );
        if let Some(obs) = &self.obs {
            obs.record("serve.phase.normalize_ns", exec_ns);
            obs.counter_add("serve.batches", 1);
            obs.counter_add("serve.requests", requests);
            obs.counter_add("serve.rows", rows as u64);
            for &wait in queue_waits_us {
                obs.record("serve.queue_wait_us", wait);
            }
        }
        self.emit(
            None,
            EventKind::BatchDispatch {
                requests,
                rows: rows as u64,
            },
        );
    }

    /// FNV-1a over the parameter bit patterns, used only to bucket the intern table
    /// (and the sessions' lock-free memo of it).
    pub(crate) fn params_fingerprint(gamma: &[f32], beta: &[f32]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |value: u64| {
            hash ^= value;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(gamma.len() as u64);
        for &v in gamma.iter().chain(beta) {
            mix(u64::from(v.to_bits()));
        }
        hash
    }

    pub(crate) fn intern_params(&self, gamma: &[f32], beta: &[f32]) -> Arc<NormParams> {
        let fingerprint = Self::params_fingerprint(gamma, beta);
        // Poison recovery: the table only ever grows by fully constructed
        // entries (push of a finished Arc), so a thread that panicked while
        // holding the lock cannot have left a half-built bucket behind. Losing
        // interning entirely because one client thread crashed would be worse.
        let mut table = haan_obs::lock_recover(&self.params);
        let bucket = table.entry(fingerprint).or_default();
        if let Some(existing) = bucket
            .iter()
            .find(|p| p.gamma() == gamma && p.beta() == beta)
        {
            return Arc::clone(existing);
        }
        let interned = Arc::new(
            NormParams::new(gamma.to_vec(), beta.to_vec())
                .expect("interned parameters are shape-checked by the caller"),
        );
        bucket.push(Arc::clone(&interned));
        interned
    }
}

/// A [`HaanNormalizer`] called directly on the caller's thread, with each
/// site call recorded in the engine's ledger as one dispatch of one request
/// with zero queue wait ([`Shared::record_dispatch`]). This is how decode
/// groups and prefix interning normalize: no request copy, no channel hop,
/// no coalescing wait, and the fused residual+norm and norm+matmul kernels
/// run in place. A norm+matmul call's recorded time includes its matmuls.
pub(crate) struct RecordedNormalizer<'a> {
    pub(crate) normalizer: &'a mut HaanNormalizer,
    pub(crate) shared: &'a Shared,
}

impl RecordedNormalizer<'_> {
    fn timed<T>(
        &mut self,
        rows: usize,
        cols: usize,
        call: impl FnOnce(&mut HaanNormalizer) -> T,
    ) -> T {
        let started = Instant::now();
        let out = call(self.normalizer);
        self.shared
            .record_dispatch(rows, cols, ns_since(started), &[0]);
        out
    }
}

impl Normalizer for RecordedNormalizer<'_> {
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        self.timed(1, z.len(), |n| n.normalize(site, z, gamma, beta))
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        self.timed(input.rows(), input.cols(), |n| {
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
        self.timed(input.rows(), input.cols(), |n| {
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
        self.timed(input.rows(), input.cols(), |n| {
            n.normalize_matmul_into(site, input, gamma, beta, weights, outs)
        })
    }

    fn begin_sequence(&mut self) {
        self.normalizer.begin_sequence();
    }

    fn description(&self) -> String {
        self.normalizer.description()
    }
}

pub(crate) fn submit_via(
    shared: &Shared,
    tx: &SyncSender<WorkItem>,
    request: NormRequest,
) -> Result<PendingResponse, ServeError> {
    request.validate()?;
    // Announce the submission before checking `closed` (both SeqCst): either the
    // shutdown drain observes our in-flight count and waits for the send, or we
    // observe `closed` and never send. No accepted request can fall between.
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    if shared.closed.load(Ordering::SeqCst) {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        return Err(ServeError::Shutdown);
    }
    // A dead worker will never drain the queue; fail typed instead of blocking
    // on a full channel (or silently queueing work nobody will execute).
    if !shared.worker_is_alive() {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        return Err(ServeError::WorkerDied);
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let cancel = CancelHandle::default();
    let sent = tx.send(WorkItem {
        request,
        reply: reply_tx,
        enqueued_us: shared.now_us(),
        cancel: cancel.clone(),
    });
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    // The receiver only disappears when the worker is gone: died (guard clears
    // the flag) or exited after shutdown.
    sent.map_err(|_| {
        if shared.worker_is_alive() {
            ServeError::Shutdown
        } else {
            ServeError::WorkerDied
        }
    })?;
    Ok(PendingResponse {
        rx: reply_rx,
        cancel,
        worker_alive: Arc::clone(&shared.worker_alive),
    })
}

/// The request-batching serving engine.
///
/// Many concurrent clients (each holding a [`Session`], or calling
/// [`ServeEngine::submit`] directly) feed normalization requests into a bounded
/// queue; a worker thread coalesces compatible requests — same site, same width,
/// same interned parameters — into one batched `normalize_matrix_into` call per
/// scheduler tick and routes the per-row results back to each submitter, together
/// with its updated skip-anchor state. Decode groups bypass the worker: each
/// owns a normalizer built from the same configuration and records its site
/// calls in the same ledger ([`ServeEngine::stats`]). See `ARCHITECTURE.md`
/// ("Serving layer") for the data-flow diagram.
pub struct ServeEngine {
    shared: Arc<Shared>,
    tx: SyncSender<WorkItem>,
    worker: Option<JoinHandle<()>>,
    /// Shared K/V block pools of the engine's decode streams, one per distinct
    /// embedding width (created on first use).
    kv_pools: Mutex<Vec<Arc<KvBlockPool>>>,
    kv_pool_policy: KvPoolPolicy,
    /// Admission controller shared by every stream/group this engine starts.
    admission: Arc<AdmissionController>,
    /// Per-tick prompt-chunk bound handed to every decode group.
    prefill_chunk_rows: usize,
    /// Content-addressed interned K/V prefixes: a bounded LRU — entries past
    /// [`ServeConfig::prefix_store_capacity`] are evicted once no stream maps
    /// them, returning their pages to the pool (see
    /// [`PrefixStore`](haan_llm::PrefixStore)).
    prefixes: haan_llm::PrefixStore,
    /// Fault injector installed into every pool this engine creates.
    faults: Option<Arc<dyn FaultInjector>>,
    /// The normalizer every decode group (and every prefix interning pass)
    /// clones: the worker's configuration, plan and sink, with fresh anchor
    /// state and telemetry.
    normalizer: HaanNormalizer,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("closed", &self.shared.closed.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Starts an engine: spawns the scheduler/worker thread and returns the handle
    /// clients create sessions from.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            closed: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            worker_alive: Arc::new(AtomicBool::new(true)),
            params: Mutex::new(HashMap::new()),
            recorder: Recorder::default(),
            obs: config.obs.clone(),
            next_corr: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let kv_pool_policy = config.kv_pool;
        let admission =
            Arc::new(AdmissionController::new(config.admission).with_obs_sink(config.obs.clone()));
        let prefill_chunk_rows = config.prefill_chunk_rows;
        let prefix_store_capacity = config.prefix_store_capacity;
        let faults = config.faults.clone();
        let normalizer = build_normalizer(&config);
        let worker_normalizer = normalizer.clone();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("haan-serve-worker".to_string())
            .spawn(move || {
                // Clears `worker_alive` iff the worker unwinds (fault-injected
                // panic, poisoned invariant, …) — a clean exit leaves the flag
                // set so pending clients map to `Shutdown`, not `WorkerDied`.
                struct AliveGuard(Arc<AtomicBool>);
                impl Drop for AliveGuard {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.0.store(false, Ordering::SeqCst);
                        }
                    }
                }
                let _guard = AliveGuard(Arc::clone(&worker_shared.worker_alive));
                worker_loop(&worker_shared, &rx, &config, worker_normalizer);
            })
            .expect("spawn serving worker");
        Self {
            shared,
            tx,
            worker: Some(worker),
            kv_pools: Mutex::new(Vec::new()),
            kv_pool_policy,
            admission,
            prefill_chunk_rows,
            prefixes: haan_llm::PrefixStore::new(prefix_store_capacity),
            faults,
            normalizer,
        }
    }

    /// Creates a client session. Sessions are independent `Send` handles: each owns
    /// its stream's skip-anchor state and can live on its own thread.
    #[must_use]
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.shared), self.tx.clone())
    }

    /// The engine's shared K/V block pool for streams of the given embedding
    /// width, created (lazily, sized by [`KvPoolPolicy`]) on first use. Every
    /// stream of [`ServeEngine::decode_stream`] and
    /// [`ServeEngine::decode_group`] borrows its pages here, so concurrent
    /// streams share one bounded arena instead of each preallocating
    /// `max_seq × E` per block.
    #[must_use]
    pub fn kv_pool(&self, embedding_dim: usize) -> Arc<KvBlockPool> {
        // Poison recovery: the registry only ever grows by fully constructed
        // pools, so no half-built state can leak past a panicking thread.
        let mut pools = haan_obs::lock_recover(&self.kv_pools);
        if let Some(pool) = pools
            .iter()
            .find(|pool| pool.embedding_dim() == embedding_dim)
        {
            return Arc::clone(pool);
        }
        let pool = KvBlockPool::shared(
            self.kv_pool_policy.capacity_rows.max(1),
            self.kv_pool_policy.page_rows.max(1),
            embedding_dim,
        );
        if let Some(injector) = &self.faults {
            let injector = Arc::clone(injector);
            pool.set_alloc_fault(Some(Arc::new(move |requested, free| {
                injector.on_pool_alloc(requested, free)
            })));
        }
        if let Some(obs) = self.shared.obs() {
            pool.set_obs_sink(Some(Arc::clone(obs)));
        }
        pools.push(Arc::clone(&pool));
        pool
    }

    /// The engine's admission controller (shared with every
    /// [`DecodeGroup`](crate::DecodeGroup) it starts).
    #[must_use]
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.admission)
    }

    /// Admission telemetry accumulated so far (offered / admitted / queued /
    /// shed stream counts).
    #[must_use]
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Microseconds elapsed on the engine clock, the time base of
    /// [`NormRequest::deadline_us`].
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// False once the worker thread has died (panicked); submissions then fail
    /// with [`ServeError::WorkerDied`] instead of hanging.
    #[must_use]
    pub fn worker_is_alive(&self) -> bool {
        self.shared.worker_is_alive()
    }

    /// Starts a KV-cached decode stream over `model`, normalizing through a fresh
    /// session of this engine: each generated token runs one incremental forward
    /// pass whose normalization sites are coalesced with other in-flight streams
    /// by the scheduler. The stream's K/V rows are paged out of the engine's
    /// shared pool ([`ServeEngine::kv_pool`]), so any number of streams share one
    /// bounded arena.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the prompt is empty, too long
    /// for the model, or out of vocabulary, and [`ServeError::Shed`] when the
    /// admission controller refuses the stream (a standalone stream has no
    /// group to wait in, so a would-queue decision sheds too; retry after the
    /// carried hint, or use [`ServeEngine::decode_group`], whose queued
    /// streams resume automatically).
    ///
    /// # Examples
    ///
    /// ```
    /// use haan_llm::{ModelConfig, TransformerModel};
    /// use haan_serve::{ServeConfig, ServeEngine};
    ///
    /// let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
    /// let mut engine = ServeEngine::start(ServeConfig::default());
    /// let mut stream = engine.decode_stream(&model, &[1, 5, 9])?;
    /// let token = stream.step()?; // one O(seq) forward pass through the engine
    /// assert_eq!(stream.generated(), &[token]);
    /// // The stream's K/V pages live in the engine's shared pool.
    /// assert!(engine.kv_pool(model.config().embedding_dim).pages_in_use() > 0);
    /// engine.shutdown();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn decode_stream<'m>(
        &self,
        model: &'m haan_llm::TransformerModel,
        prompt: &[u32],
    ) -> Result<crate::DecodeStream<'m>, ServeError> {
        let pool = self.kv_pool(model.config().embedding_dim);
        let est = self
            .admission
            .page_estimate(&pool, model.config().num_blocks, prompt.len());
        let corr = self.shared.next_corr();
        self.shared.emit(
            Some(corr),
            EventKind::Offer {
                est_pages: est as u64,
            },
        );
        // `queued_now = usize::MAX`: a standalone stream cannot wait in a
        // group, so its queue is always "full" and would-queue offers shed.
        match self.admission.offer(&pool, est, 0, usize::MAX) {
            AdmissionDecision::Admit => {
                self.admission.note_admitted();
                self.shared.emit(Some(corr), EventKind::Admit);
            }
            AdmissionDecision::Queue => unreachable!("queue is reported full"),
            AdmissionDecision::Shed { retry_after_us } => {
                self.shared
                    .emit(Some(corr), EventKind::Shed { retry_after_us });
                return Err(ServeError::Shed { retry_after_us });
            }
        }
        crate::DecodeStream::new(self.session(), &pool, model, prompt)
    }

    /// Starts a **batched multi-stream** decode group: `prompts.len()` KV-cached
    /// streams that advance in lockstep, one token per stream per
    /// [`DecodeGroup::step_all`](crate::DecodeGroup::step_all) tick. Each tick
    /// gathers every ready stream and runs one incremental pass over the stacked
    /// rows, so the group's own normalizer executes **one fused call per site
    /// with one row per stream** — wide batches by construction, where
    /// independent [`ServeEngine::decode_stream`]s only coalesce when their
    /// client threads happen to overlap. The group normalizes on the ticking
    /// thread, never through the engine worker; each site call still counts in
    /// [`ServeEngine::stats`]. K/V pages come from the engine's shared pool;
    /// tokens are bit-identical to each stream decoding alone (see
    /// `tests/kv_decode.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when `prompts` is empty or any
    /// prompt is empty, too long for the model, or out of vocabulary.
    pub fn decode_group<'m>(
        &self,
        model: &'m haan_llm::TransformerModel,
        prompts: &[&[u32]],
    ) -> Result<crate::DecodeGroup<'m>, ServeError> {
        if prompts.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a decode group needs at least one prompt".to_string(),
            ));
        }
        self.new_group(model, prompts)
    }

    /// Starts a decode group with **no streams**: the routing-tier entry
    /// point. A router owns one empty group per engine and feeds it entirely
    /// through [`DecodeGroup::add_stream`](crate::DecodeGroup::add_stream) /
    /// [`DecodeGroup::adopt_stream`](crate::DecodeGroup::adopt_stream), so
    /// membership is decided per stream at placement time instead of at
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the engine's pool width
    /// does not match the model.
    pub fn empty_decode_group<'m>(
        &self,
        model: &'m haan_llm::TransformerModel,
    ) -> Result<crate::DecodeGroup<'m>, ServeError> {
        self.new_group(model, &[])
    }

    fn new_group<'m>(
        &self,
        model: &'m haan_llm::TransformerModel,
        prompts: &[&[u32]],
    ) -> Result<crate::DecodeGroup<'m>, ServeError> {
        let pool = self.kv_pool(model.config().embedding_dim);
        let mut group = crate::DecodeGroup::new(
            Arc::clone(&self.shared),
            self.normalizer.clone(),
            &pool,
            model,
            prompts,
            self.admission(),
        )?;
        group.set_prefill_chunk_rows(self.prefill_chunk_rows);
        Ok(group)
    }

    /// Re-bases the engine's correlation-ID allocator: the next stream draws
    /// `base + 1`, then `base + 2`, and so on. A router gives each member
    /// engine a disjoint base (e.g. `group_index << 32`) so one shared
    /// [`ObsSink`] sees fleet-unique stream IDs — and a migrated stream,
    /// which keeps its ID across groups, still reads as one lifecycle.
    ///
    /// Call before the engine starts streams; re-basing later can re-issue
    /// IDs already in use.
    pub fn set_correlation_base(&self, base: u64) {
        self.shared.next_corr.store(base, Ordering::SeqCst);
    }

    /// Interns the whole-page prefix of `tokens` for `model`, returning the
    /// engine-wide shared handle. Content-equal prefixes (same model, same
    /// leading tokens) always return the same `Arc`: the first call prefills
    /// the shared rows once on a fresh normalizer and exports their K/V
    /// pages ([`DecodeContext::export_prefix`](haan_llm::DecodeContext::export_prefix));
    /// every later call — and every stream attached via
    /// [`DecodeGroup::add_stream_with_prefix`](crate::DecodeGroup::add_stream_with_prefix)
    /// — maps those same refcounted pages instead of recomputing them. Only
    /// `⌊len / page_rows⌋ × page_rows` leading tokens are shared (whole pages
    /// only, so sharers never write a shared page); feed the remainder as part
    /// of each stream's suffix.
    ///
    /// The store is a bounded LRU ([`ServeConfig::prefix_store_capacity`]):
    /// interning past the bound evicts the least-recently-used prefixes no
    /// stream currently maps, returning their pages to the pool (each evicted
    /// entry emits a `prefix_evict` flight-recorder event). Explicit
    /// reclamation is [`ServeEngine::release_prefix`]; counters are
    /// [`ServeEngine::prefix_store_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the tokens fail validation
    /// or are too few to fill one page, and [`ServeError::Shed`] when the pool
    /// has no room to materialize the prefix right now (retry after the hint).
    pub fn intern_prefix(
        &self,
        model: &haan_llm::TransformerModel,
        tokens: &[u32],
    ) -> Result<Arc<haan_llm::KvPrefix>, ServeError> {
        let pool = self.kv_pool(model.config().embedding_dim);
        let page_rows = pool.page_rows();
        let shared_rows = (tokens.len() / page_rows) * page_rows;
        if shared_rows == 0 {
            return Err(ServeError::InvalidRequest(format!(
                "a prefix of {} tokens fills no whole page (page_rows = {page_rows})",
                tokens.len()
            )));
        }
        let shared_tokens = &tokens[..shared_rows];
        model
            .validate_tokens(shared_tokens)
            .map_err(|err| ServeError::InvalidRequest(err.to_string()))?;
        if let Some(existing) = self.prefixes.lookup(model.seed(), &pool, shared_tokens) {
            if let Some(obs) = self.shared.obs() {
                obs.counter_add("serve.prefix.hits", 1);
            }
            return Ok(existing);
        }
        // Miss: materialize outside the store lock. A racing thread may intern
        // the same prefix meanwhile; the insert below keeps the store canonical
        // and drops our duplicate (releasing its pages).
        let mut normalizer = self.normalizer.clone();
        let mut context = model
            .start_decode_in(&pool)
            .map_err(|err| ServeError::InvalidRequest(err.to_string()))?;
        context
            .prefill_last(
                shared_tokens,
                &mut RecordedNormalizer {
                    normalizer: &mut normalizer,
                    shared: &self.shared,
                },
            )
            .map_err(|err| match err {
                haan_llm::LlmError::KvPoolExhausted {
                    requested_pages,
                    free_pages,
                } => {
                    self.shared.emit(
                        None,
                        EventKind::PoolExhausted {
                            requested_pages: requested_pages as u64,
                            free_pages: free_pages as u64,
                        },
                    );
                    ServeError::Shed {
                        retry_after_us: self.admission.policy().retry_after_us,
                    }
                }
                other => ServeError::InvalidRequest(other.to_string()),
            })?;
        let prefix = Arc::new(
            context
                .export_prefix()
                .map_err(|err| ServeError::InvalidRequest(err.to_string()))?,
        );
        let (canonical, evicted) = self.prefixes.insert(Arc::clone(&prefix));
        if let Some(obs) = self.shared.obs() {
            // A racing thread may have interned first; only the winner counts.
            if Arc::ptr_eq(&canonical, &prefix) {
                obs.counter_add("serve.prefix.interned", 1);
            }
        }
        for victim in evicted {
            if let Some(obs) = self.shared.obs() {
                obs.counter_add("serve.prefix.evictions", 1);
            }
            self.shared.emit(
                None,
                EventKind::PrefixEvict {
                    rows: victim.rows() as u64,
                },
            );
        }
        Ok(canonical)
    }

    /// Removes the interned prefix covering `tokens` (whole-page truncated,
    /// exactly as [`ServeEngine::intern_prefix`] would intern it) from the
    /// engine's prefix store, returning whether one was resident. Streams
    /// already attached keep their shared pages; the pages return to the pool
    /// once the last such stream drops (immediately, when none is attached).
    /// This is the explicit-reclamation path for fixed-set callers; the LRU
    /// bound ([`ServeConfig::prefix_store_capacity`]) is the automatic one.
    pub fn release_prefix(&self, model: &haan_llm::TransformerModel, tokens: &[u32]) -> bool {
        let pool = self.kv_pool(model.config().embedding_dim);
        let page_rows = pool.page_rows();
        let shared_rows = (tokens.len() / page_rows) * page_rows;
        if shared_rows == 0 {
            return false;
        }
        self.prefixes
            .release(model.seed(), &pool, &tokens[..shared_rows])
    }

    /// Counter snapshot of the engine's interned-prefix store (hits / misses /
    /// interned / evictions / released).
    #[must_use]
    pub fn prefix_store_stats(&self) -> haan_llm::PrefixStoreStats {
        self.prefixes.stats()
    }

    /// Prefixes currently resident in the engine's interned-prefix store.
    #[must_use]
    pub fn prefix_store_len(&self) -> usize {
        self.prefixes.len()
    }

    /// Interns `γ`/`β` parameter vectors, returning the engine-wide shared handle.
    /// Content-equal vectors always return the same `Arc`, which is what makes
    /// requests from different clients coalescible (see
    /// [`BatchKey`]).
    #[must_use]
    pub fn intern_params(&self, gamma: &[f32], beta: &[f32]) -> Arc<NormParams> {
        self.shared.intern_params(gamma, beta)
    }

    /// Submits one request, returning a handle to the (possibly not yet produced)
    /// response. Blocks only while the submission queue is full (backpressure).
    ///
    /// Most clients use the higher-level [`Session::normalize`] instead, which
    /// manages the anchor-state round trip automatically.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for malformed requests and
    /// [`ServeError::Shutdown`] once the engine has been shut down.
    ///
    /// # Examples
    ///
    /// ```
    /// use haan::AnchorState;
    /// use haan_llm::norm::NormSite;
    /// use haan_llm::NormKind;
    /// use haan_serve::{NormRequest, ServeConfig, ServeEngine};
    ///
    /// let mut engine = ServeEngine::start(ServeConfig::default());
    /// let params = engine.intern_params(&[1.0; 4], &[0.0; 4]);
    /// let pending = engine.submit(NormRequest {
    ///     site: NormSite { layer_index: 0, kind: NormKind::LayerNorm },
    ///     cols: 4,
    ///     data: vec![2.0, 4.0, 6.0, 8.0],
    ///     params,
    ///     anchors: AnchorState::new(),
    ///     deadline_us: None,
    /// })?;
    /// let response = pending.wait()?;
    /// assert_eq!(response.data.len(), 4);
    /// // LayerNorm output is (close to) zero-mean.
    /// let mean: f32 = response.data.iter().sum::<f32>() / 4.0;
    /// assert!(mean.abs() < 1e-3);
    /// engine.shutdown();
    /// # Ok::<(), haan_serve::ServeError>(())
    /// ```
    pub fn submit(&self, request: NormRequest) -> Result<PendingResponse, ServeError> {
        submit_via(&self.shared, &self.tx, request)
    }

    /// Serving statistics accumulated so far (occupancy, queue waits, execution
    /// cost) over worker batches and decode-group site calls alike. Safe to
    /// call at any time, including after shutdown.
    #[must_use]
    pub fn stats(&self) -> ServingStats {
        self.shared.recorder.stats()
    }

    /// Shuts the engine down gracefully: new submissions fail with
    /// [`ServeError::Shutdown`], every request accepted before that — including
    /// ones racing this call — is drained and answered, then the worker exits.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds a normalizer from the engine configuration: its HAAN config, its
/// plan, and its sink, which receives per-site skip/exact decisions (no-op
/// when none is installed).
fn build_normalizer(config: &ServeConfig) -> HaanNormalizer {
    let mut normalizer = HaanNormalizer::new(config.normalizer.clone());
    if let Some(plan) = config.plan {
        normalizer = normalizer.with_plan(plan);
    }
    normalizer.set_obs_sink(config.obs.clone());
    normalizer
}

fn worker_loop(
    shared: &Shared,
    rx: &mpsc::Receiver<WorkItem>,
    config: &ServeConfig,
    mut normalizer: HaanNormalizer,
) {
    let mut scheduler: Scheduler<WorkItem> = Scheduler::new(config.scheduler);
    // Monotone batch-attempt counter, fed to the fault injector.
    let mut attempt_index: u64 = 0;
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            // Graceful drain: answer everything accepted before `closed` was
            // observed. `in_flight` covers submitters racing the shutdown (they
            // increment before checking `closed`), so once it reads zero every
            // accepted request has finished its queue insert and one more sweep
            // of the channel sees it.
            loop {
                while let Ok(item) = rx.try_recv() {
                    admit(shared, &mut scheduler, item);
                }
                sweep_dead_requests(shared, &mut scheduler);
                while let Some(batch) = scheduler.pop_any() {
                    dispatch_batch(shared, &mut normalizer, config, &mut attempt_index, batch);
                }
                if shared.in_flight.load(Ordering::SeqCst) > 0 {
                    std::thread::yield_now();
                    continue;
                }
                // In-flight hit zero after the sweep above; one last look catches
                // a queue insert that completed in between.
                match rx.try_recv() {
                    Ok(item) => admit(shared, &mut scheduler, item),
                    Err(_) => return,
                }
            }
        }
        let now = shared.now_us();
        let wait_us = scheduler
            .next_deadline_us()
            .map_or(IDLE_TICK_US, |deadline| deadline.saturating_sub(now))
            .min(IDLE_TICK_US);
        match rx.recv_timeout(Duration::from_micros(wait_us)) {
            Ok(item) => {
                admit(shared, &mut scheduler, item);
                // Greedily drain everything already buffered so one wake-up sees
                // the full backlog (this is where coalescing happens).
                while let Ok(more) = rx.try_recv() {
                    admit(shared, &mut scheduler, more);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Engine handle and every session are gone: drain and exit.
                sweep_dead_requests(shared, &mut scheduler);
                while let Some(batch) = scheduler.pop_any() {
                    dispatch_batch(shared, &mut normalizer, config, &mut attempt_index, batch);
                }
                return;
            }
        }
        // Answer expired/cancelled requests typed *before* assembling batches,
        // so a request behind a slow batch never executes past its deadline —
        // and never waits unboundedly.
        sweep_dead_requests(shared, &mut scheduler);
        // Backlog gauges, sampled once per wake-up (after the admit drain, so
        // they reflect the backlog the coalescing pass actually saw).
        if let Some(obs) = &config.obs {
            obs.gauge_set(
                "serve.pending_requests",
                scheduler.pending_requests() as f64,
            );
            obs.gauge_set("serve.pending_rows", scheduler.pending_rows() as f64);
        }
        let now = shared.now_us();
        while let Some(batch) = scheduler.pop_ready(now) {
            dispatch_batch(shared, &mut normalizer, config, &mut attempt_index, batch);
        }
    }
}

fn admit(shared: &Shared, scheduler: &mut Scheduler<WorkItem>, item: WorkItem) {
    // Expired-on-arrival or already-cancelled requests are answered typed
    // immediately instead of occupying the queue.
    if item.cancel.is_cancelled() {
        let _ = item.reply.send(Err(ServeError::Cancelled));
        return;
    }
    if item
        .request
        .deadline_us
        .is_some_and(|deadline| deadline <= shared.now_us())
    {
        let _ = item.reply.send(Err(ServeError::TimedOut));
        return;
    }
    let key = BatchKey::of(&item.request);
    let rows = item.request.rows();
    // The scheduler's clock is the submission timestamp, so max-wait flushes and
    // queue-wait telemetry measure true request age, including channel dwell.
    let enqueued_us = item.enqueued_us;
    scheduler.admit(key, rows, enqueued_us, item);
}

/// Answers every queued request whose deadline elapsed ([`ServeError::TimedOut`])
/// or whose client cancelled ([`ServeError::Cancelled`]), removing them from
/// the scheduler. This is what bounds client waits: whatever happens to the
/// batches ahead of it, a deadline request is answered no later than the
/// worker's next wake-up.
fn sweep_dead_requests(shared: &Shared, scheduler: &mut Scheduler<WorkItem>) {
    let now = shared.now_us();
    let dead = scheduler.drain_matching(|entry| {
        entry.item.cancel.is_cancelled()
            || entry
                .item
                .request
                .deadline_us
                .is_some_and(|deadline| deadline <= now)
    });
    for entry in dead {
        let error = if entry.item.cancel.is_cancelled() {
            ServeError::Cancelled
        } else {
            ServeError::TimedOut
        };
        let _ = entry.item.reply.send(Err(error));
    }
}

/// Runs one batch through the fault injector and the bounded-retry policy,
/// then executes it. A failed attempt backs off exponentially and re-consults
/// the injector; when the attempt budget is spent, every member request is
/// answered with [`ServeError::RetriesExhausted`] — clients always get *an*
/// answer.
fn dispatch_batch(
    shared: &Shared,
    normalizer: &mut HaanNormalizer,
    config: &ServeConfig,
    attempt_index: &mut u64,
    batch: ReadyBatch<WorkItem>,
) {
    let max_attempts = config.retry.max_attempts.max(1);
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        let action = config.faults.as_ref().map_or(FaultAction::None, |faults| {
            let index = *attempt_index;
            *attempt_index += 1;
            faults.on_worker_batch(index)
        });
        match action {
            FaultAction::None => {}
            FaultAction::SlowUs(us) => {
                shared.emit(
                    None,
                    EventKind::FaultInjected {
                        kind: FaultKind::SlowBatch,
                    },
                );
                std::thread::sleep(Duration::from_micros(us));
            }
            FaultAction::FailBatch => {
                shared.emit(
                    None,
                    EventKind::FaultInjected {
                        kind: FaultKind::FailBatch,
                    },
                );
                if attempts >= max_attempts {
                    for entry in batch.entries {
                        let _ = entry
                            .item
                            .reply
                            .send(Err(ServeError::RetriesExhausted { attempts }));
                    }
                    return;
                }
                // Exponential backoff, capped so the shift cannot overflow.
                let backoff = config.retry.backoff_us << (attempts - 1).min(16);
                std::thread::sleep(Duration::from_micros(backoff));
                continue;
            }
            FaultAction::PanicWorker => {
                shared.emit(
                    None,
                    EventKind::FaultInjected {
                        kind: FaultKind::PanicWorker,
                    },
                );
                // Clear the liveness flag *before* unwinding: the panic drops
                // the batch's reply senders while it unwinds `worker_loop`,
                // which is before the thread-level `AliveGuard` runs — a
                // client woken by that hangup must already see the flag down,
                // or it would misread the death as a clean `Shutdown`.
                shared.worker_alive.store(false, Ordering::SeqCst);
                let index = *attempt_index - 1;
                panic!("fault injection: worker killed at batch attempt {index}")
            }
        }
        execute_batch(shared, normalizer, batch);
        return;
    }
}

/// Nanoseconds elapsed since `started`, saturated into `u64`.
pub(crate) fn ns_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Executes one coalesced batch: gather rows (and, at skipped sites, per-session
/// anchors), run the batched engine once, scatter rows (and, at anchor sites,
/// updated anchors) back per request.
fn execute_batch(shared: &Shared, normalizer: &mut HaanNormalizer, batch: ReadyBatch<WorkItem>) {
    let cols = batch.key.cols;
    let rows = batch.rows;
    let site = batch.key.site;
    let obs = shared.obs();
    // Span profiling: phase clocks run only with a sink installed, so the
    // disabled hot path never calls `Instant::now` beyond the existing
    // exec-time measurement.
    let gather_started = obs.map(|_| Instant::now());
    let params = Arc::clone(&batch.entries[0].item.request.params);
    // Site role under the engine's plan — queried from the normalizer itself (the
    // same policy the batched path applies), so serve-side batch assembly can
    // never disagree with solo execution about a site.
    let skipped = normalizer.is_skipped_site(site.layer_index);
    let is_anchor = normalizer.is_anchor_site(site.layer_index);

    let mut data = Vec::with_capacity(rows * cols);
    for entry in &batch.entries {
        data.extend_from_slice(&entry.item.request.data);
    }
    // Anchors are gathered only where the site consumes them: resolve each
    // session's state into one per-row vector, so every row predicts from *its
    // own* session's history even inside a mixed batch.
    if skipped {
        let calibration_fallback = normalizer
            .plan()
            .map_or(0.0, |plan| plan.calibration_anchor_log_isd);
        let mut combined_anchors = Vec::with_capacity(rows);
        for entry in &batch.entries {
            let request = &entry.item.request;
            combined_anchors.extend(
                request
                    .anchors
                    .resolved_row_logs(request.rows(), calibration_fallback),
            );
        }
        normalizer.set_anchor_state(AnchorState::from_parts(None, combined_anchors));
    }
    let input = Matrix::from_vec(rows, cols, data).expect("validated request shapes");
    let mut out = Matrix::zeros(rows, cols);
    if let (Some(obs), Some(t)) = (obs, gather_started) {
        obs.record("serve.phase.gather_ns", ns_since(t));
    }

    let dispatched_us = shared.now_us();
    let started = Instant::now();
    normalizer.normalize_matrix_into(site, &input, params.gamma(), params.beta(), &mut out);
    let exec_ns = ns_since(started);

    // A snapshot is taken only where the site produced fresh anchors.
    let snapshot = is_anchor.then(|| normalizer.anchor_state());
    // Record the batch *before* routing replies: a client must never observe its
    // response while the batch is still missing from the statistics.
    let queue_waits: Vec<u64> = batch
        .entries
        .iter()
        .map(|entry| dispatched_us.saturating_sub(entry.enqueued_us))
        .collect();
    shared.record_dispatch(rows, cols, exec_ns, &queue_waits);
    let scatter_started = obs.map(|_| Instant::now());
    // Scatter: per-request row segments plus, at anchor sites, each session's
    // slice of the observed anchors (last-row-wins scalar tier, the same rule the
    // batched path applies — see `AnchorState::slice_rows`).
    let mut row_offset = 0usize;
    for (entry, queue_wait_us) in batch.entries.into_iter().zip(queue_waits) {
        let item = entry.item;
        let request_rows = item.request.rows();
        let segment = &out.as_slice()[row_offset * cols..(row_offset + request_rows) * cols];
        let anchors = match &snapshot {
            Some(observed) => observed.slice_rows(row_offset..row_offset + request_rows),
            None => item.request.anchors,
        };
        // A client that gave up (dropped the receiver) is not an engine error.
        let _ = item.reply.send(Ok(NormResponse {
            data: segment.to_vec(),
            anchors,
            queue_wait_us,
        }));
        row_offset += request_rows;
    }
    if let (Some(obs), Some(t)) = (obs, scatter_started) {
        obs.record("serve.phase.scatter_ns", ns_since(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan::BackendSelection;
    use haan_llm::norm::NormSite;
    use haan_llm::NormKind;

    fn fused_config() -> ServeConfig {
        ServeConfig {
            normalizer: HaanConfig::builder()
                .backend(BackendSelection::Fused)
                .build(),
            ..Default::default()
        }
    }

    #[test]
    fn submit_rejects_malformed_requests() {
        let mut engine = ServeEngine::start(fused_config());
        let params = engine.intern_params(&[1.0; 4], &[0.0; 4]);
        let site = NormSite {
            layer_index: 0,
            kind: NormKind::LayerNorm,
        };
        let ragged = NormRequest {
            site,
            cols: 4,
            data: vec![0.0; 6],
            params,
            anchors: AnchorState::new(),
            deadline_us: None,
        };
        assert!(matches!(
            engine.submit(ragged),
            Err(ServeError::InvalidRequest(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_new_work() {
        let mut engine = ServeEngine::start(fused_config());
        let params = engine.intern_params(&[1.0; 2], &[0.0; 2]);
        engine.shutdown();
        engine.shutdown();
        let site = NormSite {
            layer_index: 0,
            kind: NormKind::LayerNorm,
        };
        let request = NormRequest {
            site,
            cols: 2,
            data: vec![1.0, 2.0],
            params,
            anchors: AnchorState::new(),
            deadline_us: None,
        };
        assert!(matches!(engine.submit(request), Err(ServeError::Shutdown)));
    }

    fn simple_request(engine: &ServeEngine, deadline_us: Option<u64>) -> NormRequest {
        NormRequest {
            site: NormSite {
                layer_index: 0,
                kind: NormKind::LayerNorm,
            },
            cols: 2,
            data: vec![1.0, 2.0],
            params: engine.intern_params(&[1.0; 2], &[0.0; 2]),
            anchors: AnchorState::new(),
            deadline_us,
        }
    }

    #[test]
    fn expired_deadlines_resolve_typed_not_hung() {
        let mut engine = ServeEngine::start(fused_config());
        // A deadline already in the past: answered TimedOut on admission.
        let expired = simple_request(&engine, Some(0));
        let pending = engine.submit(expired).expect("submission is accepted");
        assert!(matches!(pending.wait(), Err(ServeError::TimedOut)));
        // A generous deadline executes normally.
        let alive = simple_request(&engine, Some(engine.now_us() + 5_000_000));
        let response = engine.submit(alive).unwrap().wait().expect("in time");
        assert_eq!(response.data.len(), 2);
        engine.shutdown();
    }

    #[test]
    fn cancelled_requests_resolve_typed_not_hung() {
        let mut engine = ServeEngine::start(fused_config());
        let request = simple_request(&engine, None);
        let pending = engine.submit(request).expect("submission is accepted");
        pending.cancel_handle().cancel();
        assert!(matches!(pending.wait(), Err(ServeError::Cancelled)));
        engine.shutdown();
    }

    #[test]
    fn a_dead_worker_fails_submissions_typed_instead_of_hanging() {
        use crate::faults::{FaultPlan, SeededFaults};
        let mut engine = ServeEngine::start(ServeConfig {
            faults: Some(Arc::new(SeededFaults::new(
                7,
                FaultPlan {
                    panic_at_batch: Some(0),
                    ..Default::default()
                },
            ))),
            ..fused_config()
        });
        // The first batch panics the worker mid-stream: the submitted request
        // must resolve to WorkerDied, never hang.
        let pending = engine.submit(simple_request(&engine, None)).unwrap();
        assert!(matches!(pending.wait(), Err(ServeError::WorkerDied)));
        assert!(!engine.worker_is_alive());
        // Later submissions fail fast with the same typed error.
        assert!(matches!(
            engine.submit(simple_request(&engine, None)),
            Err(ServeError::WorkerDied)
        ));
        engine.shutdown();
    }

    #[test]
    fn failed_batches_retry_then_exhaust_typed() {
        use crate::faults::{FaultPlan, SeededFaults};
        let faults = Arc::new(SeededFaults::new(
            3,
            FaultPlan {
                fail_probability: 1.0,
                max_failed_batches: 2,
                ..Default::default()
            },
        ));
        // Two attempts always fail; with a 2-attempt budget the first request
        // exhausts its retries, after which the spent fault budget lets the
        // next request through.
        let mut engine = ServeEngine::start(ServeConfig {
            faults: Some(faults.clone()),
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_us: 10,
            },
            ..fused_config()
        });
        let pending = engine.submit(simple_request(&engine, None)).unwrap();
        assert!(matches!(
            pending.wait(),
            Err(ServeError::RetriesExhausted { attempts: 2 })
        ));
        assert_eq!(faults.injected().failed_batches, 2);
        let response = engine.submit(simple_request(&engine, None)).unwrap().wait();
        assert!(response.is_ok(), "budget spent, batches execute again");
        engine.shutdown();
    }

    #[test]
    fn standalone_streams_shed_when_the_pool_is_hot() {
        use haan_llm::{ModelConfig, TransformerModel};
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 42).unwrap();
        let blocks = model.config().num_blocks;
        let engine = ServeEngine::start(ServeConfig {
            // 4 pages of 4 rows; the watermark (0.75) allows 3 pages.
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows: 16,
            },
            ..fused_config()
        });
        // tiny_test has 4 blocks: even a 1-token prompt estimates 4 pages > 3.
        assert_eq!(blocks, 4);
        let err = engine.decode_stream(&model, &[1]).expect_err("must shed");
        assert!(matches!(err, ServeError::Shed { .. }));
        let stats = engine.admission_stats();
        assert_eq!((stats.offered, stats.shed, stats.admitted), (1, 1, 0));
    }

    #[test]
    fn interning_is_content_addressed() {
        let engine = ServeEngine::start(fused_config());
        let a = engine.intern_params(&[1.0, 2.0], &[0.0, 0.5]);
        let b = engine.intern_params(&[1.0, 2.0], &[0.0, 0.5]);
        let c = engine.intern_params(&[1.0, 2.0], &[0.0, 0.6]);
        assert!(Arc::ptr_eq(&a, &b), "equal content must share the Arc");
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn an_installed_sink_sees_batches_phases_and_fault_events() {
        use crate::faults::{FaultPlan, SeededFaults};
        use haan_obs::Obs;
        let obs = Obs::shared(256);
        let mut engine = ServeEngine::start(ServeConfig {
            obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
            faults: Some(Arc::new(SeededFaults::new(
                11,
                FaultPlan {
                    fail_probability: 1.0,
                    max_failed_batches: 1,
                    ..Default::default()
                },
            ))),
            ..fused_config()
        });
        let response = engine.submit(simple_request(&engine, None)).unwrap().wait();
        assert!(response.is_ok(), "one injected failure retries through");
        engine.shutdown();
        let snapshot = obs.export();
        assert_eq!(snapshot.counter("serve.batches"), Some(1));
        assert_eq!(snapshot.counter("serve.requests"), Some(1));
        for phase in ["gather", "normalize", "scatter"] {
            let name = format!("serve.phase.{phase}_ns");
            assert_eq!(
                snapshot.histogram(&name).map(|h| h.count),
                Some(1),
                "{name} must be timed once"
            );
        }
        let labels: Vec<&str> = obs
            .recorder()
            .events()
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert!(labels.contains(&"fault_injected"));
        assert!(labels.contains(&"batch_dispatch"));
    }

    #[test]
    fn debug_impl_reports_state() {
        let engine = ServeEngine::start(fused_config());
        let rendered = format!("{engine:?}");
        assert!(rendered.contains("ServeEngine"));
    }
}
