//! `norm_rows`: the row-request API alone. One generator thread drives 8
//! chains of `ServeEngine::submit` requests in closed-loop rounds; each chain
//! walks the 65 sites of the LLaMA-7B paper preset and carries its
//! `AnchorState` forward.
//!
//! Rounds (submit one request per chain, then wait for all eight) keep the
//! chains in step. Free-running chains drift into phase patterns that differ
//! from run to run — the same seed measured 15k and 23k requests/s — because
//! the scheduler's 200 µs batching wait decides which requests coalesce.

use crate::gen::{NormRowsInputs, Rng, NORM_CHAINS, NORM_COLS};
use crate::stats::{self, median};
use crate::trace::{TimingNormalizer, Trace};
use crate::{Args, Metric, Outcome};
use haan::{AnchorState, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::synthetic::IsdProfileModel;
use haan_llm::{Matrix, NormKind};
use haan_numerics::stats::VectorStats;
use haan_serve::{
    NormParams, NormRequest, PendingResponse, ServeConfig, ServeEngine, ServingStats,
};
use std::sync::Arc;
use std::time::Instant;

/// Normalization sites of LLaMA-7B (32 blocks × 2 + the final norm).
const SITES: u64 = 65;
/// Chain walks run during set-up.
const WARM_WALKS: u64 = 1;
/// Share of requests kept for the output check, and the most kept.
const CHECK_EVERY: u64 = 16;
const CHECK_MAX: usize = 128;
/// How long the traced run times the direct normalizer and the stats kernel.
const DIRECT_SECONDS: f64 = 1.0;

fn site(step: u64) -> NormSite {
    NormSite {
        layer_index: (step % SITES) as usize,
        kind: NormKind::RmsNorm,
    }
}

/// The paper preset with its (50, 60) skip range fitted on the synthetic
/// LLaMA-7B profile. Part of set-up.
fn preset() -> (HaanConfig, SkipPlan) {
    let profile = IsdProfileModel::llama_7b();
    let profiles = profile.sample_profiles(100, 7);
    let plan = SkipPlan::for_fixed_range(&profiles, 50, 60).expect("preset range fits 65 sites");
    (HaanConfig::llama_7b_paper(), plan)
}

/// A request kept for the output check, with the engine's answer.
struct Kept {
    step: u64,
    chain: usize,
    data: Vec<f32>,
    anchors_in: AnchorState,
    out: Vec<f32>,
    anchors_out: AnchorState,
}

struct Served {
    /// Replies received in each whole second of the run.
    per_second: Vec<u64>,
    requests: u64,
    failed: u64,
    elapsed_s: f64,
    latency_ms: Vec<f64>,
    /// `(seconds into the run, gap in ms)` between a chain's replies.
    gap_ms: Vec<(f64, f64)>,
    queue_wait_us: Vec<f64>,
    kept: Vec<Kept>,
}

struct Rig {
    engine: ServeEngine,
    params: Vec<Arc<NormParams>>,
    log_isd: Vec<f64>,
    /// Site step every chain is at (chains advance in rounds).
    step: u64,
    anchors: Vec<AnchorState>,
    last_reply: Vec<Option<Instant>>,
}

impl Rig {
    fn start(
        config: &HaanConfig,
        plan: SkipPlan,
        inputs: &NormRowsInputs,
        trace: Option<&Arc<Trace>>,
    ) -> Self {
        let engine = ServeEngine::start(ServeConfig {
            normalizer: config.clone(),
            plan: Some(plan),
            obs: trace.map(|t| Arc::clone(t) as Arc<dyn haan_obs::ObsSink>),
            ..ServeConfig::default()
        });
        let params = inputs
            .params
            .iter()
            .map(|(g, b)| engine.intern_params(g, b))
            .collect();
        let profile = IsdProfileModel::llama_7b();
        Self {
            engine,
            params,
            log_isd: (0..SITES as usize)
                .map(|l| profile.expected_log_isd(l))
                .collect(),
            step: 0,
            anchors: vec![AnchorState::new(); NORM_CHAINS],
            last_reply: vec![None; NORM_CHAINS],
        }
    }

    fn request(&self, inputs: &NormRowsInputs, chain: usize) -> NormRequest {
        let site = site(self.step);
        NormRequest {
            site,
            cols: NORM_COLS,
            data: inputs.request_data(chain, self.step, self.log_isd[site.layer_index]),
            params: Arc::clone(&self.params[inputs.chains[chain].params]),
            anchors: self.anchors[chain].clone(),
            deadline_us: None,
        }
    }

    /// Runs rounds of the closed loop for `seconds` (or `walks` full walks
    /// when given): each round submits one request per chain, then waits for
    /// all eight replies. A seeded sample of requests is kept for the check.
    fn serve(
        &mut self,
        inputs: &NormRowsInputs,
        seconds: f64,
        walks: Option<u64>,
        mut keep: Option<&mut Rng>,
        trace: Option<&Trace>,
    ) -> Served {
        let mut served = Served {
            per_second: Vec::new(),
            requests: 0,
            failed: 0,
            elapsed_s: 0.0,
            latency_ms: Vec::new(),
            gap_ms: Vec::new(),
            queue_wait_us: Vec::new(),
            kept: Vec::new(),
        };
        let last_step = walks.map(|w| self.step + w * SITES);
        let started = Instant::now();
        loop {
            let more = match last_step {
                Some(last) => self.step < last,
                None => started.elapsed().as_secs_f64() < seconds,
            };
            if !more {
                break;
            }
            let mut round: Vec<(PendingResponse, Instant, Option<NormRequest>)> =
                Vec::with_capacity(NORM_CHAINS);
            for chain in 0..NORM_CHAINS {
                let request = self.request(inputs, chain);
                let sampled = keep.as_mut().is_some_and(|rng| {
                    served.kept.len() < CHECK_MAX && rng.next_u64() % CHECK_EVERY == 0
                });
                let copy = sampled.then(|| request.clone());
                let at = Instant::now();
                let pending = self
                    .engine
                    .submit(request)
                    .expect("engine accepts requests");
                round.push((pending, at, copy));
            }
            for (chain, (pending, at, copy)) in round.into_iter().enumerate() {
                let reply = pending.wait();
                let now = Instant::now();
                served.requests += 1;
                let second = (now - started).as_secs() as usize;
                if served.per_second.len() <= second {
                    served.per_second.resize(second + 1, 0);
                }
                served.per_second[second] += 1;
                match reply {
                    Ok(response) => {
                        served.latency_ms.push((now - at).as_secs_f64() * 1e3);
                        if let Some(last) = self.last_reply[chain] {
                            served.gap_ms.push((
                                (now - started).as_secs_f64(),
                                (now - last).as_secs_f64() * 1e3,
                            ));
                        }
                        served.queue_wait_us.push(response.queue_wait_us as f64);
                        if let Some(trace) = trace {
                            trace.interval("engine.submit_reply", served.requests, at, now);
                        }
                        if let Some(request) = copy {
                            served.kept.push(Kept {
                                step: self.step,
                                chain,
                                data: request.data,
                                anchors_in: request.anchors,
                                out: response.data,
                                anchors_out: response.anchors.clone(),
                            });
                        }
                        self.anchors[chain] = response.anchors;
                    }
                    Err(err) => {
                        eprintln!("request failed: {err}");
                        served.failed += 1;
                    }
                }
                self.last_reply[chain] = Some(now);
            }
            self.step += 1;
            if self.step.is_multiple_of(SITES) {
                // Every chain starts a new sequence at site 0.
                self.anchors.fill(AnchorState::new());
            }
        }
        served.elapsed_s = started.elapsed().as_secs_f64();
        served
    }
}

impl Served {
    /// Requests per second: the median over the run's whole seconds.
    fn throughput(&self) -> f64 {
        if self.per_second.is_empty() {
            return 0.0;
        }
        let whole = (self.elapsed_s as usize).clamp(1, self.per_second.len());
        let rates: Vec<f64> = self.per_second[..whole].iter().map(|&n| n as f64).collect();
        median(&rates)
    }
}

/// Checks each kept response bit for bit against a direct normalizer given
/// the same anchors; returns the mismatch count.
fn check(
    config: &HaanConfig,
    plan: SkipPlan,
    inputs: &NormRowsInputs,
    rig: &Rig,
    kept: &[Kept],
) -> u64 {
    let mut direct = HaanNormalizer::new(config.clone()).with_plan(plan);
    let mut mismatches = 0;
    for k in kept {
        let rows = k.data.len() / NORM_COLS;
        let input = Matrix::from_vec(rows, NORM_COLS, k.data.clone()).expect("request shape");
        let mut out = Matrix::zeros(rows, NORM_COLS);
        let params = &rig.params[inputs.chains[k.chain].params];
        direct.set_anchor_state(k.anchors_in.clone());
        direct.normalize_matrix_into(
            site(k.step),
            &input,
            params.gamma(),
            params.beta(),
            &mut out,
        );
        let same_rows = out
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .eq(k.out.iter().map(|v| v.to_bits()));
        if !same_rows || direct.anchor_state() != k.anchors_out {
            eprintln!("output mismatch: chain {} step {}", k.chain, k.step);
            mismatches += 1;
        }
    }
    if kept.is_empty() {
        eprintln!("output check: no response kept");
        mismatches += 1;
    }
    mismatches
}

/// Times the direct normalizer and the stats kernel on the workload's own
/// chain walks, without the engine.
fn direct_layers(
    config: &HaanConfig,
    plan: SkipPlan,
    inputs: &NormRowsInputs,
    rig: &Rig,
) -> Vec<Metric> {
    let mut direct = TimingNormalizer::new(HaanNormalizer::new(config.clone()).with_plan(plan));
    let mut stats_ns = 0u64;
    let mut stats_elems = 0u64;
    let mut anchors = vec![AnchorState::new(); NORM_CHAINS];
    let started = Instant::now();
    let mut step = 0u64;
    while started.elapsed().as_secs_f64() < DIRECT_SECONDS {
        if step.is_multiple_of(SITES) {
            anchors.fill(AnchorState::new());
        }
        for (chain, chain_anchors) in anchors.iter_mut().enumerate() {
            let site = site(step);
            let data = inputs.request_data(chain, step, rig.log_isd[site.layer_index]);
            let rows = data.len() / NORM_COLS;
            let input = Matrix::from_vec(rows, NORM_COLS, data).expect("request shape");
            let mut out = Matrix::zeros(rows, NORM_COLS);
            let params = &rig.params[inputs.chains[chain].params];
            direct.inner.set_anchor_state(std::mem::take(chain_anchors));
            direct.normalize_matrix_into(site, &input, params.gamma(), params.beta(), &mut out);
            *chain_anchors = direct.inner.anchor_state();
            let t = Instant::now();
            for row in input.as_slice().chunks(NORM_COLS) {
                std::hint::black_box(
                    VectorStats::compute_chunked(std::hint::black_box(row)).expect("non-empty row"),
                );
            }
            stats_ns += t.elapsed().as_nanos() as u64;
            stats_elems += input.as_slice().len() as u64;
        }
        step += 1;
    }
    let t = direct.timing;
    let telemetry = direct.inner.telemetry();
    vec![
        Metric::new(
            "haan.direct_ns_per_elem",
            t.norm_ns_per_elem(),
            "ns",
            t.elements as usize,
        ),
        Metric::new(
            "haan.skip_frac",
            telemetry.skip_fraction(),
            "fraction",
            telemetry.calls as usize,
        ),
        Metric::new(
            "haan.read_frac",
            telemetry.read_fraction(),
            "fraction",
            telemetry.calls as usize,
        ),
        Metric::new(
            "numerics.stats_ns_per_elem",
            stats_ns as f64 / stats_elems.max(1) as f64,
            "ns",
            stats_elems as usize,
        ),
    ]
}

fn delta(after: ServingStats, before: ServingStats) -> ServingStats {
    ServingStats {
        requests: after.requests - before.requests,
        rows: after.rows - before.rows,
        batches: after.batches - before.batches,
        elements: after.elements - before.elements,
        exec_ns: after.exec_ns - before.exec_ns,
        ..after
    }
}

/// Sets up `reps` times (preset, plan, engine, warm-up walk) and returns the
/// set-up times and the last rig.
fn set_up(
    inputs: &NormRowsInputs,
    reps: usize,
    trace: Option<&Arc<Trace>>,
) -> (Vec<f64>, HaanConfig, SkipPlan, Rig) {
    let mut setup_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        let started = Instant::now();
        let (config, plan) = preset();
        let mut rig = Rig::start(&config, plan, inputs, trace.filter(|_| rep + 1 == reps));
        rig.serve(inputs, 0.0, Some(WARM_WALKS), None, None);
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 == reps {
            return (setup_s, config, plan, rig);
        }
    }
    unreachable!("reps is at least 1")
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = NormRowsInputs::new(args.seed);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let (setup_s, config, plan, mut rig) = set_up(&inputs, reps, None);
    let mut keep = Rng::new(args.seed, 0xC4EC);
    let served = rig.serve(&inputs, seconds, None, Some(&mut keep), None);
    let mut mismatches = check(&config, plan, &inputs, &rig, &served.kept);
    let throughput = served.throughput();
    let metrics = if !args.trace {
        let gap = stats::per_second(&served.gap_ms, 0.9)?;
        let slo_ok = served
            .latency_ms
            .iter()
            .filter(|&&l| l <= crate::NORM_ROWS_SLO.first_ms)
            .count();
        crate::end_to_end(
            (throughput, served.requests as usize),
            &served.latency_ms,
            gap,
            (slo_ok, served.requests as usize),
            (
                (served.requests - served.failed) as usize,
                served.requests as usize,
            ),
            &setup_s,
        )?
    } else {
        drop(rig);
        let trace = Trace::new();
        let (_, config, plan, mut rig) = set_up(&inputs, 1, Some(&trace));
        let before = rig.engine.stats();
        let traced = rig.serve(&inputs, seconds, None, Some(&mut keep), Some(&trace));
        let engine = delta(rig.engine.stats(), before);
        mismatches += check(&config, plan, &inputs, &rig, &traced.kept);
        let (qw_p99, qw_n) =
            stats::summarize(&traced.queue_wait_us, 0.99).map_or((0.0, 0), |s| (s.tail, s.n));
        let latency_us: Vec<f64> = trace
            .durations_ns("engine.submit_reply")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        let mut layers = vec![
            Metric::new(
                "engine.rows_per_batch",
                engine.mean_batch_occupancy_rows(),
                "rows",
                engine.batches as usize,
            ),
            Metric::new(
                "engine.requests_per_batch",
                engine.mean_batch_occupancy_requests(),
                "requests",
                engine.batches as usize,
            ),
            Metric::new("engine.queue_wait_us_p99", qw_p99, "us", qw_n),
            Metric::new(
                "engine.exec_ns_per_elem",
                engine.ns_per_element(),
                "ns",
                engine.elements as usize,
            ),
            Metric::new(
                "engine.submit_reply_us_p50",
                median(&latency_us),
                "us",
                latency_us.len(),
            ),
        ];
        layers.extend(direct_layers(&config, plan, &inputs, &rig));
        let traced_throughput = traced.throughput();
        layers.push(Metric::new(
            "trace.overhead_frac",
            1.0 - traced_throughput / throughput,
            "fraction",
            traced.requests as usize,
        ));
        if let Some(path) = &args.trace_out {
            trace
                .write_jsonl(path)
                .map_err(|e| format!("writing trace: {e}"))?;
        }
        layers
    };
    Ok(Outcome {
        attempted: served.requests,
        failed: served.failed,
        mismatches,
        metrics,
    })
}
