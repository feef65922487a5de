//! Async serving layer of the HAAN reproduction: continuous batching of many
//! concurrent normalization streams over one shared batched engine.
//!
//! HAAN's premise is that normalization is a *serving-time* bottleneck, and fused
//! normalization kernels pay off most when many concurrent token streams share one
//! engine. This crate supplies that front end on top of the `haan` core:
//!
//! * [`ServeEngine`] — the engine: a bounded MPSC submission queue (backpressure by
//!   blocking), a worker thread running the request-batching [`Scheduler`], and the
//!   shared [`HaanNormalizer`](haan::HaanNormalizer) every batch dispatches through
//!   (so all of [`BackendSelection`](haan::BackendSelection)'s execution backends —
//!   fused, row-parallel, accelerator-simulated — serve traffic unchanged).
//! * [`Scheduler`] / [`SchedulerPolicy`] — pure coalescing logic with an injected
//!   clock: requests merge only when compatible (same site, width, and interned
//!   `γ`/`β`, see [`BatchKey`]), and a batch dispatches when it reaches
//!   `max_batch_rows` or its oldest request has waited `max_wait_us`.
//! * [`Session`] — the per-client handle. Each session owns its stream's
//!   skip-anchor state ([`AnchorState`](haan::AnchorState)) and round-trips it
//!   through every request, so ISD skipping predicts each stream's tokens from that
//!   stream's own anchor history even though batches interleave many streams.
//!   Sessions implement [`Normalizer`](haan_llm::norm::Normalizer), so a
//!   [`StreamingModel`](haan_llm::StreamingModel) decode loop can push all its
//!   normalization sites through the engine unchanged.
//! * [`DecodeStream`] — a session bundled with a KV-cached
//!   [`DecodeContext`](haan_llm::DecodeContext)-backed decode loop
//!   ([`ServeEngine::decode_stream`]): per-token work is O(seq) — the prefix is
//!   never recomputed — K/V rows are paged out of the engine's shared
//!   [`KvBlockPool`](haan_llm::KvBlockPool) (sized by [`KvPoolPolicy`], so
//!   memory is bounded by the pool instead of `streams × max_seq`), and each
//!   step's single-row normalization requests coalesce with every other
//!   in-flight stream's.
//! * [`DecodeGroup`] — batched multi-stream decode
//!   ([`ServeEngine::decode_group`]): every tick advances all ready streams in
//!   lockstep through one incremental pass, so each normalization site executes
//!   as **one fused call carrying one row per stream** — guaranteed batching
//!   width, where independent streams only coalesce when their threads happen to
//!   overlap. Each group owns a [`HaanNormalizer`](haan::HaanNormalizer) built
//!   from the engine's configuration and calls it directly on the ticking
//!   thread, bypassing the worker; its site calls still count in
//!   [`ServeEngine::stats`]. The group is *continuously batched*: prompts join mid-flight
//!   ([`DecodeGroup::add_stream`]) and backfill retired slots, long prompts
//!   prefill in bounded chunks stacked into the same batched passes as the
//!   decode rows ([`ServeConfig::prefill_chunk_rows`]), and streams with a
//!   common prompt prefix share its K/V pages through an interned, refcounted
//!   [`KvPrefix`] ([`ServeEngine::intern_prefix`] /
//!   [`DecodeGroup::add_stream_with_prefix`]) — all bit-identical to solo
//!   decode.
//! * [`ServingStats`] — per-batch telemetry: batch occupancy, queue-wait
//!   percentiles, ns/element.
//! * [`AdmissionController`] / [`AdmissionPolicy`] — overload safety: new
//!   streams are admitted, queued, or shed (typed [`ServeError::Shed`] with a
//!   retry-after hint) against live [`KvBlockPool`](haan_llm::KvBlockPool)
//!   pressure, and a [`DecodeGroup`] under pool pressure *preempts* its
//!   youngest stream (freeing its pages, keeping its token history) and
//!   transparently re-prefills it when pages free — bit-identical to a stream
//!   that was never preempted. Per-request deadlines
//!   ([`Session::set_request_timeout_us`]), client cancellation
//!   ([`PendingResponse::cancel_handle`]), bounded batch retry
//!   ([`RetryPolicy`]) and dead-worker detection ([`ServeError::WorkerDied`])
//!   guarantee no client ever blocks forever.
//! * [`faults`] — a deterministic fault-injection harness
//!   ([`FaultInjector`] / [`SeededFaults`]): seeded, budgeted pool
//!   exhaustion, slow batches, failed batches and worker kills, threaded
//!   through the real allocation and dispatch paths so chaos drills reproduce
//!   exactly per seed (see `tests/serving_chaos.rs` and `examples/chaos.rs`).
//! * **Observability** — install an [`ObsSink`](haan_obs::ObsSink) via
//!   [`ServeConfig::obs`] and the whole stack emits into it: hierarchical
//!   metrics (`serve.*` batching and phase timings, `pool.*` page occupancy,
//!   `group.*` lockstep-tick shape, `haan.*` per-site skip rates) into an
//!   [`ObsRegistry`](haan_obs::ObsRegistry), and clock-stamped lifecycle
//!   events (offer → admit/queue/shed → chunk-drain → preempt/resume →
//!   finish, correlated per stream via [`DecodeGroup::correlation_id`]) into a
//!   [`FlightRecorder`](haan_obs::FlightRecorder). Disabled — the default —
//!   every instrumentation site is one branch on a `None`. See
//!   `docs/OBSERVABILITY.md` and `examples/observability.rs`.
//!
//! Everything runs on `std::thread` (the build container is offline — no async
//! runtime); a tokio adapter is a listed follow-up in `ROADMAP.md`. See
//! `docs/SERVING.md` for the full serving guide (queue → scheduler → backend →
//! response walkthrough, policy tuning, anchor-state lifetime, decode-stream
//! batching semantics) and `ARCHITECTURE.md` for the diagrams.
//!
//! # Examples
//!
//! Raw normalization requests through a [`Session`]:
//!
//! ```
//! use haan::{BackendSelection, HaanConfig};
//! use haan_llm::norm::NormSite;
//! use haan_llm::{Matrix, NormKind};
//! use haan_serve::{ServeConfig, ServeEngine};
//!
//! let mut engine = ServeEngine::start(ServeConfig {
//!     normalizer: HaanConfig::builder()
//!         .backend(BackendSelection::Fused)
//!         .build(),
//!     ..Default::default()
//! });
//! let mut session = engine.session();
//! let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
//! let input = Matrix::from_vec(1, 4, vec![2.0, 4.0, 6.0, 8.0])?;
//! let out = session.normalize(site, &input, &[1.0; 4], &[0.0; 4])?;
//! assert_eq!(out.shape(), (1, 4));
//! engine.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Batched multi-stream decode over pooled K/V pages:
//!
//! ```
//! use haan_llm::{ModelConfig, TransformerModel};
//! use haan_serve::{ServeConfig, ServeEngine};
//!
//! let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
//! let mut engine = ServeEngine::start(ServeConfig::default());
//! let prompts: [&[u32]; 2] = [&[1, 5, 9], &[2, 4]];
//! let mut group = engine.decode_group(&model, &prompts)?;
//! group.decode(3)?; // 3 ticks × 2 streams, one fused call per site per tick
//! assert_eq!(group.generated(0).len(), 3);
//! assert_eq!(group.generated(1).len(), 3);
//! engine.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod decode;
pub mod engine;
pub mod error;
pub mod faults;
pub mod multi;
pub mod request;
pub mod scheduler;
pub mod session;
pub mod telemetry;

pub use admission::{AdmissionController, AdmissionDecision, AdmissionPolicy, AdmissionStats};
pub use decode::DecodeStream;
pub use engine::{KvPoolPolicy, RetryPolicy, ServeConfig, ServeEngine};
pub use error::ServeError;
pub use faults::{FaultAction, FaultInjector, FaultPlan, InjectedFaults, SeededFaults};
pub use haan_llm::{KvPrefix, PrefixStore, PrefixStoreStats};
pub use multi::{DecodeGroup, GroupStats, MigratedStream, StreamStatus};
pub use request::{CancelHandle, NormParams, NormRequest, NormResponse, PendingResponse};
pub use scheduler::{BatchKey, Entry, QueueOrdering, ReadyBatch, Scheduler, SchedulerPolicy};
pub use session::Session;
pub use telemetry::ServingStats;
