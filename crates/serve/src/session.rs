//! Per-client sessions: the stateful handle a token stream uses to talk to the
//! engine.

use crate::engine::{submit_via, Shared, WorkSender};
use crate::error::ServeError;
use crate::request::NormRequest;
use haan::AnchorState;
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::Matrix;
use std::sync::Arc;

/// One client's handle onto a [`ServeEngine`](crate::ServeEngine).
///
/// A session owns the stream's HAAN skip-anchor state
/// ([`AnchorState`]) and round-trips it through every request, so skipped-site ISD
/// prediction stays coherent *across* requests even though the engine's shared
/// normalizer interleaves batches from many sessions in between. Sessions are
/// `Send`: create one per client thread (they are cheap) and keep it for the
/// lifetime of the stream.
///
/// Sessions also implement the [`Normalizer`] trait, so a whole transformer forward
/// pass — e.g. [`StreamingModel::decode_step`](haan_llm::StreamingModel) — can push
/// every normalization site through the serving engine unchanged. For token
/// generation, prefer [`ServeEngine::decode_stream`](crate::ServeEngine::decode_stream),
/// which pairs a session with a KV-cached [`DecodeContext`](haan_llm::DecodeContext)
/// so each step submits only the new token's rows instead of the whole prefix.
#[derive(Debug)]
pub struct Session {
    shared: Arc<Shared>,
    tx: WorkSender,
    anchors: AnchorState,
    /// Session-local memo of interned parameters (fingerprint → shared `Arc`), so
    /// the steady state skips the engine-global intern lock: a forward pass names
    /// the same few `γ`/`β` vectors every time.
    params_memo: Vec<(u64, Arc<crate::NormParams>)>,
    /// Per-request timeout applied to every submission, microseconds.
    request_timeout_us: Option<u64>,
}

impl Session {
    pub(crate) fn new(shared: Arc<Shared>, tx: WorkSender) -> Self {
        Self {
            shared,
            tx,
            anchors: AnchorState::new(),
            params_memo: Vec::new(),
            request_timeout_us: None,
        }
    }

    /// Sets (or clears) a per-request timeout: every subsequent submission
    /// carries `now + timeout` as its [`NormRequest::deadline_us`], so a
    /// request stuck behind slow batches resolves to
    /// [`ServeError::TimedOut`] instead of blocking its client forever.
    pub fn set_request_timeout_us(&mut self, timeout_us: Option<u64>) {
        self.request_timeout_us = timeout_us;
    }

    /// The per-request timeout, if one is set.
    #[must_use]
    pub fn request_timeout_us(&self) -> Option<u64> {
        self.request_timeout_us
    }

    /// Resolves `γ`/`β` to the engine-wide interned `Arc`, consulting the
    /// session-local memo first (no lock) and the engine's intern table only on
    /// the first sighting.
    fn interned_params(&mut self, gamma: &[f32], beta: &[f32]) -> Arc<crate::NormParams> {
        let fingerprint = Shared::params_fingerprint(gamma, beta);
        if let Some((_, hit)) = self
            .params_memo
            .iter()
            .find(|(f, p)| *f == fingerprint && p.gamma() == gamma && p.beta() == beta)
        {
            return Arc::clone(hit);
        }
        let interned = self.shared.intern_params(gamma, beta);
        self.params_memo.push((fingerprint, Arc::clone(&interned)));
        interned
    }

    /// The session's current skip-anchor state.
    #[must_use]
    pub fn anchor_state(&self) -> &AnchorState {
        &self.anchors
    }

    /// Forgets the stream's anchor history, as at the start of a new sequence
    /// (the [`Normalizer::begin_sequence`] equivalent).
    pub fn reset(&mut self) {
        self.anchors = AnchorState::new();
    }

    /// Normalizes every row of `input` at `site` through the serving engine,
    /// blocking until the scheduler has dispatched the batch containing this
    /// request. The session's anchor state is sent along and replaced by the
    /// engine's updated state, so calling this repeatedly across the sites of a
    /// forward pass behaves like a private `HaanNormalizer` — while the engine
    /// coalesces compatible requests from other sessions into the same batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] on shape mismatches,
    /// [`ServeError::Shutdown`] when the engine stopped before answering,
    /// [`ServeError::WorkerDied`] when its worker thread is gone, and
    /// [`ServeError::TimedOut`] when a session timeout
    /// ([`Session::set_request_timeout_us`]) elapsed while the request was
    /// still queued.
    ///
    /// # Examples
    ///
    /// ```
    /// use haan_llm::norm::NormSite;
    /// use haan_llm::{Matrix, NormKind};
    /// use haan_serve::{ServeConfig, ServeEngine};
    ///
    /// let mut engine = ServeEngine::start(ServeConfig::default());
    /// let mut session = engine.session();
    /// let input = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0])
    ///     .expect("consistent shape");
    /// let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
    /// let out = session.normalize(site, &input, &[1.0; 4], &[0.0; 4])?;
    /// assert_eq!(out.shape(), (2, 4));
    /// // Every row comes back normalized to (close to) zero mean.
    /// for row in 0..2 {
    ///     let mean: f32 = out.row(row).iter().sum::<f32>() / 4.0;
    ///     assert!(mean.abs() < 1e-2);
    /// }
    /// engine.shutdown();
    /// # Ok::<(), haan_serve::ServeError>(())
    /// ```
    pub fn normalize(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
    ) -> Result<Matrix, ServeError> {
        let (rows, cols) = input.shape();
        if rows == 0 || cols == 0 {
            return Ok(Matrix::zeros(rows, cols));
        }
        if gamma.len() != cols || beta.len() != cols {
            return Err(ServeError::InvalidRequest(format!(
                "gamma/beta are {}/{} wide but the input is {} wide",
                gamma.len(),
                beta.len(),
                cols
            )));
        }
        let params = self.interned_params(gamma, beta);
        let deadline_us = self
            .request_timeout_us
            .map(|timeout| self.shared.now_us().saturating_add(timeout));
        let pending = submit_via(
            &self.shared,
            &self.tx,
            NormRequest {
                site,
                cols,
                data: input.as_slice().to_vec(),
                params,
                anchors: self.anchors.clone(),
                deadline_us,
            },
        )?;
        let response = pending.wait()?;
        self.anchors = response.anchors;
        Ok(Matrix::from_vec(rows, cols, response.data)
            .expect("engine responses preserve the request shape"))
    }
}

/// Sessions are drop-in normalizers: a model evaluated with a session routes every
/// normalization site through the serving engine.
///
/// The trait has no error channel, so these methods panic with a descriptive
/// message if the engine shuts down mid-pass — a serving deployment should drive
/// sessions through [`Session::normalize`] (which returns `Result`) when it needs
/// to survive engine restarts.
impl Normalizer for Session {
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        if z.is_empty() {
            return Vec::new();
        }
        let input = Matrix::from_vec(1, z.len(), z.to_vec()).expect("one consistent row");
        let out = Session::normalize(self, site, &input, gamma, beta)
            .expect("serving engine failed mid-pass");
        out.as_slice().to_vec()
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        assert_eq!(
            input.shape(),
            out.shape(),
            "normalize_matrix_into shape mismatch"
        );
        let normalized = Session::normalize(self, site, input, gamma, beta)
            .expect("serving engine failed mid-pass");
        out.as_mut_slice().copy_from_slice(normalized.as_slice());
    }

    fn begin_sequence(&mut self) {
        self.reset();
    }

    fn description(&self) -> String {
        "HAAN serving session (batched through ServeEngine)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeConfig, ServeEngine};
    use haan::{BackendSelection, HaanConfig};
    use haan_llm::NormKind;

    fn engine() -> ServeEngine {
        ServeEngine::start(ServeConfig {
            normalizer: HaanConfig::builder()
                .backend(BackendSelection::Fused)
                .build(),
            ..Default::default()
        })
    }

    fn site(layer_index: usize) -> NormSite {
        NormSite {
            layer_index,
            kind: NormKind::LayerNorm,
        }
    }

    #[test]
    fn session_normalize_round_trips() {
        let mut engine = engine();
        let mut session = engine.session();
        let input = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0])
            .expect("consistent shape");
        let out = session
            .normalize(site(0), &input, &[1.0; 4], &[0.0; 4])
            .expect("serving round trip");
        assert_eq!(out.shape(), (2, 4));
        for row in 0..2 {
            let mean: f32 = out.row(row).iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-2, "row {row} mean {mean}");
        }
        engine.shutdown();
    }

    #[test]
    fn session_rejects_mismatched_params() {
        let mut engine = engine();
        let mut session = engine.session();
        let input = Matrix::zeros(1, 4);
        assert!(matches!(
            session.normalize(site(0), &input, &[1.0; 3], &[0.0; 4]),
            Err(ServeError::InvalidRequest(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn empty_inputs_short_circuit() {
        let mut engine = engine();
        let mut session = engine.session();
        let out = session
            .normalize(site(0), &Matrix::zeros(0, 0), &[], &[])
            .expect("empty is a no-op");
        assert_eq!(out.shape(), (0, 0));
        assert!(Normalizer::normalize(&mut session, site(0), &[], &[], &[]).is_empty());
        engine.shutdown();
    }

    #[test]
    fn trait_impl_matches_inherent_entry_point() {
        let mut engine = engine();
        let mut a = engine.session();
        let mut b = engine.session();
        let input = Matrix::from_vec(3, 8, (0..24).map(|i| i as f32 * 0.3 - 3.0).collect())
            .expect("consistent shape");
        let gamma = vec![1.1f32; 8];
        let beta = vec![-0.2f32; 8];
        let inherent = a
            .normalize(site(0), &input, &gamma, &beta)
            .expect("inherent path");
        let via_trait = Normalizer::normalize_matrix(&mut b, site(0), &input, &gamma, &beta);
        assert_eq!(inherent, via_trait);
        let scalar = Normalizer::normalize(&mut b, site(0), input.row(1), &gamma, &beta);
        assert_eq!(scalar.as_slice(), inherent.row(1));
        assert!(b.description().contains("serving"));
        b.begin_sequence();
        assert!(b.anchor_state().is_empty());
        engine.shutdown();
    }

    #[test]
    fn session_timeouts_resolve_typed() {
        let mut engine = engine();
        let mut session = engine.session();
        // An already-elapsed timeout: the request expires on arrival.
        session.set_request_timeout_us(Some(0));
        assert_eq!(session.request_timeout_us(), Some(0));
        let input = Matrix::zeros(1, 4);
        assert_eq!(
            session
                .normalize(site(0), &input, &[1.0; 4], &[0.0; 4])
                .unwrap_err(),
            ServeError::TimedOut
        );
        // Clearing the timeout restores normal service on the same session.
        session.set_request_timeout_us(None);
        assert!(session
            .normalize(site(0), &input, &[1.0; 4], &[0.0; 4])
            .is_ok());
        engine.shutdown();
    }

    #[test]
    fn sessions_fail_cleanly_after_shutdown() {
        let mut engine = engine();
        let mut session = engine.session();
        engine.shutdown();
        let input = Matrix::zeros(1, 4);
        assert_eq!(
            session
                .normalize(site(0), &input, &[1.0; 4], &[0.0; 4])
                .unwrap_err(),
            ServeError::Shutdown
        );
    }
}
