//! Per-batch serving telemetry: occupancy, queue wait, execution cost.

use haan_obs::Histogram;
use std::sync::{Mutex, MutexGuard};

/// Aggregated serving statistics, snapshotted by
/// [`ServeEngine::stats`](crate::ServeEngine::stats).
///
/// One ledger for both normalization paths: the worker records each
/// coalesced batch, and a [`DecodeGroup`](crate::DecodeGroup) records each
/// site call as a batch of one request with zero queue wait (its exec time
/// includes the fused matmuls at norm→matmul sites).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingStats {
    /// Requests answered.
    pub requests: u64,
    /// Rows normalized.
    pub rows: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Elements (rows × cols) normalized.
    pub elements: u64,
    /// Total time spent inside the batched engine, nanoseconds (saturating —
    /// a multi-day run degrades the mean rather than wrapping it).
    pub exec_ns: u64,
    /// Mean queue wait across *all* requests served so far, microseconds.
    pub mean_queue_wait_us: f64,
    /// Median queue wait over the engine's whole lifetime, microseconds.
    /// Estimated from a fixed-bucket log-scale histogram, so it is within
    /// 1/8 relative error of the exact order statistic.
    pub p50_queue_wait_us: u64,
    /// 99th-percentile queue wait over the whole lifetime, microseconds
    /// (same log-histogram estimate as the median).
    pub p99_queue_wait_us: u64,
}

impl ServingStats {
    /// Mean requests coalesced per dispatched batch (> 1 means the scheduler is
    /// actually batching concurrent clients; decode-group dispatches count 1).
    #[must_use]
    pub fn mean_batch_occupancy_requests(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Mean rows per dispatched batch.
    #[must_use]
    pub fn mean_batch_occupancy_rows(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.rows as f64 / self.batches as f64
        }
    }

    /// Engine-side normalization cost per element, nanoseconds.
    #[must_use]
    pub fn ns_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.exec_ns as f64 / self.elements as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    requests: u64,
    rows: u64,
    batches: u64,
    elements: u64,
    exec_ns: u64,
    total_queue_wait_us: u128,
}

/// Interior-mutable recorder shared between the worker thread (writes) and the
/// engine handle (reads).
///
/// Queue waits go into a constant-memory log-scale [`Histogram`] (replacing
/// the bounded sorted-window percentile estimate of earlier revisions): the
/// percentiles now cover the engine's whole lifetime instead of a recency
/// window, at ≤ 1/8 relative error, and recording is lock-free.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    inner: Mutex<Inner>,
    queue_wait_us: Histogram,
}

impl Recorder {
    /// Telemetry counters are monotone aggregates with no cross-field
    /// invariants that a panicking writer could leave half-established, so a
    /// poisoned lock is recovered rather than propagated: the engine must keep
    /// serving (and reporting stats) even after a worker thread died mid-batch.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        haan_obs::lock_recover(&self.inner)
    }

    pub(crate) fn record_batch(
        &self,
        requests: u64,
        rows: u64,
        elements: u64,
        exec_ns: u64,
        queue_waits_us: impl IntoIterator<Item = u64>,
    ) {
        let mut inner = self.lock();
        inner.requests += requests;
        inner.rows += rows;
        inner.batches += 1;
        inner.elements += elements;
        inner.exec_ns = inner.exec_ns.saturating_add(exec_ns);
        for wait in queue_waits_us {
            inner.total_queue_wait_us += u128::from(wait);
            self.queue_wait_us.record(wait);
        }
    }

    pub(crate) fn stats(&self) -> ServingStats {
        let inner = self.lock();
        let waits = self.queue_wait_us.snapshot();
        let mean = if inner.requests == 0 {
            0.0
        } else {
            inner.total_queue_wait_us as f64 / inner.requests as f64
        };
        ServingStats {
            requests: inner.requests,
            rows: inner.rows,
            batches: inner.batches,
            elements: inner.elements,
            exec_ns: inner.exec_ns,
            mean_queue_wait_us: mean,
            p50_queue_wait_us: waits.quantile(0.50),
            p99_queue_wait_us: waits.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_all_zero() {
        let stats = Recorder::default().stats();
        assert_eq!(stats, ServingStats::default());
        assert_eq!(stats.mean_batch_occupancy_requests(), 0.0);
        assert_eq!(stats.mean_batch_occupancy_rows(), 0.0);
        assert_eq!(stats.ns_per_element(), 0.0);
    }

    #[test]
    fn batches_aggregate_and_percentiles_are_ordered() {
        let recorder = Recorder::default();
        recorder.record_batch(3, 6, 384, 1_000, [10, 20, 30]);
        recorder.record_batch(1, 2, 128, 500, [100]);
        let stats = recorder.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.rows, 8);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.elements, 512);
        assert_eq!(stats.exec_ns, 1_500);
        assert_eq!(stats.mean_batch_occupancy_requests(), 2.0);
        assert_eq!(stats.mean_batch_occupancy_rows(), 4.0);
        assert!((stats.mean_queue_wait_us - 40.0).abs() < 1e-9);
        assert!(stats.p50_queue_wait_us <= stats.p99_queue_wait_us);
        // 100 lands in the log bucket [96, 104): the p99 estimate is the
        // bucket midpoint clamped to the observed max, within 1/8 of exact.
        let p99 = stats.p99_queue_wait_us as f64;
        assert!((p99 - 100.0).abs() <= 100.0 / 8.0, "p99 {p99} too far");
        assert!((stats.ns_per_element() - 1_500.0 / 512.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_survives_a_poisoned_lock() {
        let recorder = std::sync::Arc::new(Recorder::default());
        recorder.record_batch(1, 1, 16, 100, [5]);
        let poisoner = std::sync::Arc::clone(&recorder);
        std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the telemetry lock");
        })
        .join()
        .unwrap_err();
        // Reads and writes keep working on the recovered lock.
        recorder.record_batch(1, 1, 16, 100, [15]);
        let stats = recorder.stats();
        assert_eq!(stats.requests, 2);
        assert!((stats.mean_queue_wait_us - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exec_ns_saturates_instead_of_wrapping() {
        let recorder = Recorder::default();
        recorder.record_batch(1, 1, 1, u64::MAX, [0]);
        recorder.record_batch(1, 1, 1, u64::MAX, [0]);
        assert_eq!(recorder.stats().exec_ns, u64::MAX);
    }

    #[test]
    fn lifetime_percentiles_and_mean_stay_exactish_at_scale() {
        let recorder = Recorder::default();
        // A bimodal lifetime: 4096 zero-waits then a 4096-long 1000 µs plateau.
        // The histogram covers the *whole* history (no window eviction), so the
        // median sits on the zero mode exactly (zeros occupy their own unit
        // bucket) and the p99 lands within one log bucket of the plateau.
        recorder.record_batch(8_192, 8_192, 1, 1, std::iter::repeat_n(0u64, 4_096));
        recorder.record_batch(0, 0, 0, 0, std::iter::repeat_n(1_000u64, 4_096));
        let stats = recorder.stats();
        assert_eq!(stats.p50_queue_wait_us, 0);
        let p99 = stats.p99_queue_wait_us as f64;
        assert!((p99 - 1_000.0).abs() <= 1_000.0 / 8.0, "p99 {p99} too far");
        assert!((stats.mean_queue_wait_us - 500.0).abs() < 1e-9);
    }
}
