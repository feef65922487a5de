//! Deterministic fault injection for overload and chaos drills.
//!
//! Robustness claims ("no hung clients", "admitted work completes bit-identical
//! to solo decode") are only testable if failures can be *provoked on demand
//! and reproduced exactly*. This module defines the [`FaultInjector`] trait the
//! engine threads through its two failure points:
//!
//! * **pool allocation** — [`FaultInjector::on_pool_alloc`] is consulted (via
//!   [`KvBlockPool::set_alloc_fault`](haan_llm::KvBlockPool::set_alloc_fault))
//!   before every page allocation; returning `true` injects a typed
//!   [`LlmError::KvPoolExhausted`](haan_llm::LlmError) exactly as if the pool
//!   were full, which exercises preemption/resume and retry-rollback paths;
//! * **worker batches** — [`FaultInjector::on_worker_batch`] is consulted
//!   before every batched normalization pass of the engine worker; it can
//!   slow the batch, fail it (exercising the worker's bounded backoff-retry),
//!   or kill the worker thread outright (exercising dead-worker detection).
//!
//! Worker-batch faults reach only the row-request API
//! ([`Session::normalize`](crate::Session::normalize),
//! [`ServeEngine::submit`](crate::ServeEngine::submit),
//! [`DecodeStream`](crate::DecodeStream)). A
//! [`DecodeGroup`](crate::DecodeGroup) normalizes on its own normalizer and
//! never touches the worker, so group ticks see pool-allocation faults only —
//! drawn on the ticking thread in tick order, so still seed-reproducible —
//! and keep ticking after a worker kill.
//!
//! [`SeededFaults`] is the stock deterministic implementation: a [`FaultPlan`]
//! of probabilities and budgets driven by two independent seeded ChaCha12
//! streams — one for pool draws, one for batch draws. The two decision sites
//! live on different threads (pool allocations happen on the stream-driving
//! thread, batches on the engine worker), so sharing one stream would make the
//! draw *order* — and therefore the fault schedule — racy. With separated
//! streams, each site's draws depend only on that site's own call sequence,
//! which is deterministic, so a given seed reproduces the exact same fault
//! schedule on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// What the injector wants done to one worker batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute the batch normally.
    None,
    /// Sleep this many microseconds before executing (a slow batch — lets
    /// deadline tests force queued requests past their deadline).
    SlowUs(u64),
    /// Fail this attempt; the worker retries with backoff up to its
    /// [`RetryPolicy`](crate::RetryPolicy) budget and answers
    /// [`ServeError::RetriesExhausted`](crate::ServeError) if every attempt
    /// fails.
    FailBatch,
    /// Panic the worker thread (simulating a poisoned-lock / crashed-worker
    /// scenario); clients must observe a typed
    /// [`ServeError::WorkerDied`](crate::ServeError), never a hang.
    PanicWorker,
}

/// A source of injected faults, threaded through the engine's failure points.
///
/// Both hooks default to "no fault", so implementations override only the
/// sites they care about. Implementations must be `Send + Sync` (the pool hook
/// runs on stream-driving threads, the batch hook on the engine worker) and
/// should be deterministic per seed if drills built on them are to reproduce.
pub trait FaultInjector: std::fmt::Debug + Send + Sync {
    /// Consulted before every pool page allocation with the requested page
    /// count and the pages currently free; return `true` to inject a typed
    /// pool-exhaustion failure in place of the allocation.
    fn on_pool_alloc(&self, requested_pages: usize, free_pages: usize) -> bool {
        let _ = (requested_pages, free_pages);
        false
    }

    /// Consulted once per worker batch *attempt* (retries of a failed batch
    /// consult again, with fresh indices) with a monotone attempt index.
    fn on_worker_batch(&self, attempt_index: u64) -> FaultAction {
        let _ = attempt_index;
        FaultAction::None
    }
}

/// Probabilities and budgets of the stock [`SeededFaults`] injector.
///
/// The default plan injects nothing; set the probabilities (and budgets) of
/// the faults a drill needs:
///
/// ```
/// use haan_serve::FaultPlan;
///
/// let plan = FaultPlan {
///     exhaust_probability: 0.2,
///     max_exhaustions: 3,
///     ..Default::default()
/// };
/// assert_eq!(plan.fail_probability, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-allocation probability of injecting pool exhaustion.
    pub exhaust_probability: f64,
    /// Most pool exhaustions to inject in total.
    pub max_exhaustions: u64,
    /// Per-batch probability of a slow batch.
    pub slow_probability: f64,
    /// How long a slow batch sleeps, microseconds.
    pub slow_us: u64,
    /// Most slow batches to inject in total.
    pub max_slow_batches: u64,
    /// Per-attempt probability of failing a batch.
    pub fail_probability: f64,
    /// Most failed batch attempts to inject in total.
    pub max_failed_batches: u64,
    /// Panic the worker on exactly this batch-attempt index.
    pub panic_at_batch: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            exhaust_probability: 0.0,
            max_exhaustions: u64::MAX,
            slow_probability: 0.0,
            slow_us: 0,
            max_slow_batches: u64::MAX,
            fail_probability: 0.0,
            max_failed_batches: u64::MAX,
            panic_at_batch: None,
        }
    }
}

/// Counts of faults actually injected so far, snapshotted by
/// [`SeededFaults::injected`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Pool exhaustions injected.
    pub exhaustions: u64,
    /// Slow batches injected.
    pub slow_batches: u64,
    /// Failed batch attempts injected.
    pub failed_batches: u64,
}

#[derive(Debug)]
struct SiteState {
    rng: StdRng,
    injected: u64,
}

impl SiteState {
    fn new(seed: u64) -> Mutex<Self> {
        Mutex::new(Self {
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        })
    }
}

/// The stock deterministic injector: seeded Bernoulli draws per decision site,
/// bounded by the plan's budgets.
///
/// Each decision site (pool allocations; slow and failed batches each get
/// their own stream too) draws from its own seeded generator, so the fault
/// schedule depends only on each site's own call sequence — cross-thread
/// interleaving between sites cannot perturb it. Counter snapshots are cheap
/// and lock-ordered after the draw, so [`SeededFaults::injected`] is safe to
/// call from assertions mid-drill.
#[derive(Debug)]
pub struct SeededFaults {
    plan: FaultPlan,
    pool: Mutex<SiteState>,
    slow: Mutex<SiteState>,
    fail: Mutex<SiteState>,
}

impl SeededFaults {
    /// Creates an injector executing `plan` with draws derived from `seed`.
    #[must_use]
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        // Distinct derived seeds per site: xor with fixed tags so the three
        // streams are independent even for equal site call counts.
        Self {
            plan,
            pool: SiteState::new(seed ^ 0x706f_6f6c),
            slow: SiteState::new(seed ^ 0x736c_6f77),
            fail: SiteState::new(seed ^ 0x6661_696c),
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Snapshot of the faults injected so far.
    #[must_use]
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            exhaustions: lock(&self.pool).injected,
            slow_batches: lock(&self.slow).injected,
            failed_batches: lock(&self.fail).injected,
        }
    }
}

/// Site locks only guard an RNG and a counter; both stay internally consistent
/// across a panic mid-draw, so poisoning is recoverable.
fn lock(site: &Mutex<SiteState>) -> std::sync::MutexGuard<'_, SiteState> {
    haan_obs::lock_recover(site)
}

/// Draws one budgeted Bernoulli decision from a site.
fn draw(site: &Mutex<SiteState>, probability: f64, budget: u64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    let mut state = lock(site);
    if state.injected >= budget {
        return false;
    }
    if state.rng.gen_bool(probability.min(1.0)) {
        state.injected += 1;
        true
    } else {
        false
    }
}

impl FaultInjector for SeededFaults {
    fn on_pool_alloc(&self, _requested_pages: usize, _free_pages: usize) -> bool {
        draw(
            &self.pool,
            self.plan.exhaust_probability,
            self.plan.max_exhaustions,
        )
    }

    fn on_worker_batch(&self, attempt_index: u64) -> FaultAction {
        if self.plan.panic_at_batch == Some(attempt_index) {
            return FaultAction::PanicWorker;
        }
        if draw(
            &self.fail,
            self.plan.fail_probability,
            self.plan.max_failed_batches,
        ) {
            return FaultAction::FailBatch;
        }
        if draw(
            &self.slow,
            self.plan.slow_probability,
            self.plan.max_slow_batches,
        ) {
            return FaultAction::SlowUs(self.plan.slow_us);
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let faults = SeededFaults::new(7, FaultPlan::default());
        for i in 0..64 {
            assert!(!faults.on_pool_alloc(4, 4));
            assert_eq!(faults.on_worker_batch(i), FaultAction::None);
        }
        assert_eq!(faults.injected(), InjectedFaults::default());
    }

    #[test]
    fn schedules_reproduce_exactly_per_seed() {
        let plan = FaultPlan {
            exhaust_probability: 0.3,
            slow_probability: 0.2,
            slow_us: 50,
            fail_probability: 0.2,
            ..Default::default()
        };
        let run = |seed: u64| {
            let faults = SeededFaults::new(seed, plan);
            let pool: Vec<bool> = (0..64).map(|_| faults.on_pool_alloc(1, 8)).collect();
            let batch: Vec<FaultAction> = (0..64).map(|i| faults.on_worker_batch(i)).collect();
            (pool, batch, faults.injected())
        };
        let first = run(42);
        assert_eq!(first, run(42), "same seed must replay the same schedule");
        assert_ne!(first, run(43), "different seeds should diverge");
        assert!(first.0.iter().any(|&hit| hit), "p=0.3 over 64 draws");
        assert!(first.2.exhaustions > 0);
    }

    #[test]
    fn budgets_cap_each_fault_kind() {
        let faults = SeededFaults::new(
            1,
            FaultPlan {
                exhaust_probability: 1.0,
                max_exhaustions: 2,
                fail_probability: 1.0,
                max_failed_batches: 1,
                slow_probability: 1.0,
                slow_us: 9,
                max_slow_batches: 1,
                panic_at_batch: None,
            },
        );
        assert!(faults.on_pool_alloc(1, 1));
        assert!(faults.on_pool_alloc(1, 1));
        assert!(!faults.on_pool_alloc(1, 1), "budget of 2 is spent");
        // Fail budget first, then slow budget, then nothing.
        assert_eq!(faults.on_worker_batch(0), FaultAction::FailBatch);
        assert_eq!(faults.on_worker_batch(1), FaultAction::SlowUs(9));
        assert_eq!(faults.on_worker_batch(2), FaultAction::None);
        assert_eq!(
            faults.injected(),
            InjectedFaults {
                exhaustions: 2,
                slow_batches: 1,
                failed_batches: 1,
            }
        );
    }

    #[test]
    fn panic_fires_on_the_exact_attempt_index() {
        let faults = SeededFaults::new(
            1,
            FaultPlan {
                panic_at_batch: Some(3),
                ..Default::default()
            },
        );
        assert_eq!(faults.on_worker_batch(2), FaultAction::None);
        assert_eq!(faults.on_worker_batch(3), FaultAction::PanicWorker);
        assert_eq!(faults.on_worker_batch(4), FaultAction::None);
    }
}
