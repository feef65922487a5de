//! The router workloads: `decode_long` (closed loop over 32 session slots) and
//! `chat_shared_prefix` (open loop, seeded Poisson arrivals), both on a
//! 2-group `Router` driven through its public API.

use crate::gen::{self, ChatSchedule, Rng};
use crate::stats::{self, median};
use crate::trace::{NormTiming, TimingNormalizer, Trace};
use crate::{Args, Metric, Outcome, Slo};
use haan::{Calibrator, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::{DecodeContext, KvBlockPool, ModelConfig, ModelFamily, TransformerModel};
use haan_numerics::Format;
use haan_router::{Router, RouterConfig, SessionId};
use haan_serve::{AdmissionPolicy, KvPoolPolicy, ServeConfig, ServingStats, StreamStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUPS: usize = 2;
const PAGE_ROWS: usize = 16;
const CHUNK_ROWS: usize = 16;
/// Session slots of the `decode_long` closed loop.
const DECODE_SLOTS: usize = 32;
/// Lockstep ticks run during `decode_long` set-up, after the first 32
/// placements, so pool pages and scratch buffers exist before timing.
const DECODE_WARM_TICKS: usize = 16;
/// Ticks run after set-up and before the window, so the slots' context
/// lengths reach their steady mix. Not part of set-up time.
const DECODE_RAMP_TICKS: usize = 144;
/// Seconds of `chat_shared_prefix` arrivals before the window opens; their
/// sessions are served but not counted.
const CHAT_RAMP_S: f64 = 2.0;
/// Offered rate of `chat_shared_prefix`, sessions per second. Frozen when the
/// benchmark was defined, below half the rate the fleet saturates at, so each
/// group's site requests stay under the scheduler's 32-row dispatch size; see
/// README.md for how it was chosen. Changing it redefines the workload.
const CHAT_RATE_PER_S: usize = 30;
/// Per-group K/V pool of `chat_shared_prefix`, in rows. Sized so arrival bursts
/// queue in admission and nothing is shed.
const CHAT_POOL_ROWS: usize = 12_288;
/// Admission watermark of `chat_shared_prefix`: new sessions queue once 40% of
/// the pool is in use. Arrival bursts cross it, and the other 60% is decode
/// headroom, so no session is preempted.
const CHAT_QUEUE_ABOVE: f64 = 0.4;
/// Sessions of the output check, solo-decoded per run.
const CHECK_SESSIONS: usize = 6;
/// A session still unfinished this long after the window closes is failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Which router workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DecodeLong,
    ChatSharedPrefix,
}

impl Kind {
    fn slo(self) -> Slo {
        match self {
            Kind::DecodeLong => crate::DECODE_LONG_SLO,
            Kind::ChatSharedPrefix => crate::CHAT_SLO,
        }
    }
}

/// The model, HAAN config and skip plan a fleet runs.
struct Program {
    model: TransformerModel,
    haan: HaanConfig,
    plan: Option<SkipPlan>,
    pool_rows: usize,
    admission: AdmissionPolicy,
}

fn gpt2_config(name: &str, blocks: usize, width: usize, max_seq_len: usize) -> ModelConfig {
    ModelConfig {
        name: name.to_string(),
        family: ModelFamily::Gpt2,
        num_blocks: blocks,
        embedding_dim: width,
        num_heads: 4,
        mlp_dim: 4 * width,
        vocab_size: 512,
        max_seq_len,
        final_norm: true,
        paper_embedding_dim: width,
    }
}

/// Builds the workload's model and calibrates its HAAN plan. Part of set-up.
fn build_program(kind: Kind) -> Program {
    match kind {
        Kind::DecodeLong => {
            let config = gpt2_config("decode_long", 4, 128, 320);
            // Every slot at full context fits one group's pool.
            let pool_rows = DECODE_SLOTS * config.num_blocks * config.max_seq_len;
            Program {
                model: TransformerModel::new(&config, 2025).expect("decode_long model"),
                haan: HaanConfig::unoptimized(),
                plan: None,
                pool_rows,
                admission: AdmissionPolicy::default(),
            }
        }
        Kind::ChatSharedPrefix => {
            let config = gpt2_config("chat_shared_prefix", 6, 64, 128);
            let model = TransformerModel::new(&config, 2026).expect("chat model");
            let plan = Calibrator::new(16, 32)
                .with_min_gap(4)
                .calibrate_model(&model, 7)
                .expect("calibration finds a skip range")
                .plan;
            let haan = HaanConfig {
                label: "chat_shared_prefix".to_string(),
                n_sub: Some(config.embedding_dim / 4),
                format: Format::Fp16,
                invsqrt_newton_iterations: Some(1),
                ..HaanConfig::default()
            };
            Program {
                model,
                haan,
                plan: Some(plan),
                pool_rows: CHAT_POOL_ROWS,
                admission: AdmissionPolicy {
                    queue_above: CHAT_QUEUE_ABOVE,
                    ..AdmissionPolicy::default()
                },
            }
        }
    }
}

fn serve_config(program: &Program, trace: Option<&Arc<Trace>>) -> ServeConfig {
    ServeConfig {
        normalizer: program.haan.clone(),
        plan: program.plan,
        kv_pool: KvPoolPolicy {
            page_rows: PAGE_ROWS,
            capacity_rows: program.pool_rows,
        },
        admission: program.admission,
        prefill_chunk_rows: CHUNK_ROWS,
        obs: trace.map(|t| Arc::clone(t) as Arc<dyn haan_obs::ObsSink>),
        ..ServeConfig::default()
    }
}

fn direct_normalizer(program: &Program) -> HaanNormalizer {
    let normalizer = HaanNormalizer::new(program.haan.clone());
    match program.plan {
        Some(plan) => normalizer.with_plan(plan),
        None => normalizer,
    }
}

/// The group's greedy choice: the last maximal logit.
fn argmax(logits: &[f32]) -> u32 {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .map(|(i, _)| i as u32)
        .expect("non-empty vocabulary")
}

/// One session as the benchmark saw it. Times are seconds since the fleet's
/// epoch.
#[derive(Debug, Clone)]
struct Session {
    id: SessionId,
    group: usize,
    slot: usize,
    prompt: Vec<u32>,
    output_len: usize,
    due_s: f64,
    placed_s: f64,
    active_s: Option<f64>,
    first_s: Option<f64>,
    last_s: f64,
    /// `(time of the later token, gap in ms)` per consecutive token pair.
    gaps_ms: Vec<(f64, f64)>,
    tokens: Vec<u32>,
    /// In the measured sample (placed or due inside the window).
    counted: bool,
    done: bool,
    failed: bool,
    /// Ticks run before the session was placed.
    placed_tick: usize,
    /// Ticks run before the session was cancelled.
    cancelled_tick: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct TickRecord {
    start_s: f64,
    dur_s: f64,
    tokens: usize,
}

struct Fleet<'m> {
    router: Router<'m>,
    sessions: Vec<Session>,
    live: Vec<usize>,
    ticks: Vec<TickRecord>,
    epoch: Instant,
    trace: Option<Arc<Trace>>,
    /// Generator lateness: placement time minus due time, ms.
    lateness_ms: Vec<f64>,
}

impl<'m> Fleet<'m> {
    fn start(program: &'m Program, trace: Option<Arc<Trace>>) -> Self {
        let router = Router::with_uniform_groups(
            &program.model,
            GROUPS,
            &serve_config(program, trace.as_ref()),
            RouterConfig::default(),
        )
        .expect("router starts");
        Self {
            router,
            sessions: Vec::new(),
            live: Vec::new(),
            ticks: Vec::new(),
            epoch: Instant::now(),
            trace,
            lateness_ms: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn place(&mut self, prompt: Vec<u32>, output_len: usize, due_s: f64, counted: bool) {
        let key = self.sessions.len() as u64;
        let placed = match &self.trace {
            Some(trace) => trace.span("router.place", key, || self.router.place(&prompt)),
            None => self.router.place(&prompt),
        };
        let placed_s = self.now_s();
        self.lateness_ms.push((placed_s - due_s) * 1e3);
        let id = placed.expect("generated prompts are valid");
        let (group, slot) = self.router.location(id);
        let shed = matches!(self.router.status(id), StreamStatus::Shed);
        self.sessions.push(Session {
            id,
            group,
            slot,
            prompt,
            output_len,
            due_s,
            placed_s,
            active_s: None,
            first_s: None,
            last_s: placed_s,
            gaps_ms: Vec::new(),
            tokens: Vec::new(),
            counted,
            done: shed,
            failed: shed,
            placed_tick: self.ticks.len(),
            cancelled_tick: None,
        });
        if !shed {
            self.live.push(self.sessions.len() - 1);
        }
    }

    /// One fleet tick; returns how many sessions completed in it.
    fn step(&mut self) -> usize {
        let tick_index = self.ticks.len();
        let start_s = self.now_s();
        let tick = match &self.trace {
            Some(trace) => trace.span("router.step_all", tick_index as u64, || {
                self.router.step_all()
            }),
            None => self.router.step_all(),
        }
        .expect("fleet tick");
        let end_s = self.now_s();
        let mut tokens = 0;
        let mut completed = 0;
        let trace_on = self.trace.is_some();
        let router = &mut self.router;
        let sessions = &mut self.sessions;
        self.live.retain(|&i| {
            let s = &mut sessions[i];
            if let Some(token) = tick.tokens[s.group][s.slot] {
                tokens += 1;
                s.tokens.push(token);
                match s.first_s {
                    None => s.first_s = Some(end_s),
                    Some(_) => s.gaps_ms.push((end_s, (end_s - s.last_s) * 1e3)),
                }
                s.last_s = end_s;
                if s.tokens.len() == s.output_len {
                    router.cancel(s.id);
                    s.done = true;
                    s.cancelled_tick = Some(tick_index + 1);
                    completed += 1;
                    return false;
                }
            }
            let status = router.status(s.id);
            if trace_on && s.active_s.is_none() && matches!(status, StreamStatus::Active) {
                s.active_s = Some(end_s);
            }
            if !matches!(status, StreamStatus::Active | StreamStatus::Queued) {
                s.done = true;
                s.failed = true;
                return false;
            }
            true
        });
        self.ticks.push(TickRecord {
            start_s,
            dur_s: end_s - start_s,
            tokens,
        });
        completed
    }

    fn counted_done(&self) -> bool {
        self.live.iter().all(|&i| !self.sessions[i].counted)
    }

    /// Fails every counted session still live (drain limit reached).
    fn fail_stragglers(&mut self) {
        for &i in &self.live {
            if self.sessions[i].counted {
                self.sessions[i].failed = true;
                self.sessions[i].done = true;
            }
        }
    }

    fn engine_stats(&self) -> ServingStats {
        let mut sum = ServingStats::default();
        for g in 0..self.router.num_groups() {
            let s = self.router.engine(g).stats();
            sum.requests += s.requests;
            sum.rows += s.rows;
            sum.batches += s.batches;
            sum.elements += s.elements;
            sum.exec_ns += s.exec_ns;
        }
        sum
    }
}

/// What one fleet run leaves behind for metrics and checks.
struct FleetRun {
    sessions: Vec<Session>,
    ticks: Vec<TickRecord>,
    window: (f64, f64),
    /// First tick of the measured window.
    window_ticks: (usize, usize),
    lateness_ms: Vec<f64>,
    layers: Vec<Metric>,
}

impl FleetRun {
    /// Tokens per busy second: the median over each whole second of the
    /// window of the tokens its ticks produced over the time they ran. Also
    /// returns the window's token count.
    fn throughput(&self) -> (f64, usize) {
        let seconds = ((self.window.1 - self.window.0) as usize).max(1);
        let mut buckets = vec![(0usize, 0.0f64); seconds];
        for t in &self.ticks {
            let offset = t.start_s - self.window.0;
            if offset >= 0.0 && t.start_s < self.window.1 {
                let b = &mut buckets[(offset as usize).min(seconds - 1)];
                b.0 += t.tokens;
                b.1 += t.dur_s;
            }
        }
        let rates: Vec<f64> = buckets
            .iter()
            .filter(|b| b.1 > 0.0)
            .map(|b| b.0 as f64 / b.1)
            .collect();
        (median(&rates), buckets.iter().map(|b| b.0).sum())
    }
}

/// Places the first sessions and runs the warm-up: the part of set-up that
/// needs a live fleet.
fn warm_up(kind: Kind, fleet: &mut Fleet, seed: u64, next_session: &mut u64) {
    let vocab = fleet.router.model().config().vocab_size;
    match kind {
        Kind::DecodeLong => {
            // The first session of each slot stops after a seeded share of
            // its length, so slots turn over at staggered ticks from the start.
            let mut residual = Rng::new(seed, 0x5245_5349);
            for _ in 0..DECODE_SLOTS {
                let spec = gen::decode_long_session(seed, *next_session, vocab);
                *next_session += 1;
                let now = fleet.now_s();
                let output_len = residual.range(1, spec.output_len);
                fleet.place(spec.prompt, output_len, now, false);
            }
            for _ in 0..DECODE_WARM_TICKS {
                let done = fleet.step();
                replace_completed(fleet, seed, next_session, f64::NEG_INFINITY, done);
            }
        }
        Kind::ChatSharedPrefix => {
            // Two requests per system prompt, so the router promotes and
            // interns all eight prefixes before timing starts.
            let mut warm = ChatSchedule::new(seed ^ 0x5741_524D, CHAT_RATE_PER_S, vocab);
            for system in (0..gen::CHAT_SYSTEM_PROMPTS).chain(0..gen::CHAT_SYSTEM_PROMPTS) {
                let r = warm.request_for(system, 0.0);
                let now = fleet.now_s();
                fleet.place(r.prompt, r.output_len, now, false);
            }
            while !fleet.live.is_empty() {
                fleet.step();
            }
        }
    }
}

/// Closed loop: every completed slot gets the next session, counted when it
/// is placed before `window_end`.
fn replace_completed(fleet: &mut Fleet, seed: u64, next: &mut u64, window_end: f64, n: usize) {
    let vocab = fleet.router.model().config().vocab_size;
    for _ in 0..n {
        let spec = gen::decode_long_session(seed, *next, vocab);
        *next += 1;
        let now = fleet.now_s();
        fleet.place(spec.prompt, spec.output_len, now, now < window_end);
    }
}

/// Runs the ramp, then the measured window, then the drain of the sessions
/// counted in the window, on a fleet that has been set up.
fn measure(kind: Kind, fleet: &mut Fleet, seed: u64, next: &mut u64, seconds: f64) -> FleetRun {
    let vocab = fleet.router.model().config().vocab_size;
    let mut schedule = ChatSchedule::new(seed, CHAT_RATE_PER_S, vocab).peekable();
    let origin = fleet.now_s();
    if kind == Kind::DecodeLong {
        for _ in 0..DECODE_RAMP_TICKS {
            let done = fleet.step();
            replace_completed(fleet, seed, next, f64::NEG_INFINITY, done);
        }
    }
    let start = match kind {
        Kind::DecodeLong => fleet.now_s(),
        Kind::ChatSharedPrefix => origin + CHAT_RAMP_S,
    };
    let end = start + seconds;
    let mut window_ticks = (usize::MAX, 0);
    loop {
        let now = fleet.now_s();
        if now >= end && fleet.counted_done() {
            break;
        }
        if now >= end + DRAIN_LIMIT.as_secs_f64() {
            fleet.fail_stragglers();
            break;
        }
        if kind == Kind::ChatSharedPrefix {
            while let Some(r) = schedule.next_if(|r| origin + r.due_s <= fleet.now_s()) {
                let due = origin + r.due_s;
                fleet.place(r.prompt, r.output_len, due, due >= start && due < end);
            }
            if fleet.live.is_empty() {
                let due = origin + schedule.peek().expect("endless schedule").due_s;
                let wait = (due - fleet.now_s()).clamp(0.0, 0.001);
                std::thread::sleep(Duration::from_secs_f64(wait));
                continue;
            }
        }
        let tick = fleet.ticks.len();
        if now >= start && now < end {
            window_ticks = (window_ticks.0.min(tick), tick + 1);
        }
        let done = fleet.step();
        if kind == Kind::DecodeLong {
            replace_completed(fleet, seed, next, end, done);
        }
    }
    FleetRun {
        sessions: fleet.sessions.clone(),
        ticks: fleet.ticks.clone(),
        window: (start, end),
        window_ticks,
        lateness_ms: fleet.lateness_ms.clone(),
        layers: Vec::new(),
    }
}

/// Solo-decodes a seeded sample of completed counted sessions with a fresh
/// normalizer of the same config and plan; returns how many differ from what
/// the fleet produced.
fn check_sessions(
    program: &Program,
    sessions: &[Session],
    seed: u64,
) -> (usize, NormTiming, haan::NormalizerTelemetry) {
    let mut candidates: Vec<&Session> = sessions
        .iter()
        .filter(|s| s.counted && s.done && !s.failed)
        .collect();
    Rng::new(seed, 0xC4EC).shuffle(&mut candidates);
    let mut mismatches = 0;
    let mut timing = NormTiming::default();
    let mut telemetry = haan::NormalizerTelemetry::default();
    for s in candidates.iter().take(CHECK_SESSIONS) {
        let mut normalizer = TimingNormalizer::new(direct_normalizer(program));
        let mut context = program.model.start_decode();
        let mut solo = Vec::with_capacity(s.output_len);
        let mut logits = context
            .prefill_last(&s.prompt, &mut normalizer)
            .expect("solo prefill");
        while solo.len() < s.output_len {
            let token = argmax(&logits);
            solo.push(token);
            if solo.len() < s.output_len {
                logits = context.step(token, &mut normalizer).expect("solo step");
            }
        }
        if solo != s.tokens {
            eprintln!("output mismatch: session prompt {:?}…", &s.prompt[..4]);
            mismatches += 1;
        }
        timing.add(normalizer.timing);
        let t = normalizer.inner.telemetry();
        telemetry.calls += t.calls;
        telemetry.skipped_isd += t.skipped_isd;
        telemetry.subsampled += t.subsampled;
        telemetry.elements_read += t.elements_read;
        telemetry.elements_total += t.elements_total;
    }
    if candidates.is_empty() {
        eprintln!("output check: no completed session to compare");
        mismatches += 1;
    }
    (mismatches, timing, telemetry)
}

/// The direct replay of a `decode_long` run: the same seeded tick sequence,
/// the same feeds per tick, through `TransformerModel::advance_many` on
/// contexts from a `KvBlockPool` and a timed direct `HaanNormalizer`.
struct Replay {
    /// Summed `advance_many` time of each fleet tick, seconds.
    tick_s: Vec<f64>,
    timing: NormTiming,
    telemetry: haan::NormalizerTelemetry,
    mismatches: usize,
}

struct ReplayStream<'m> {
    session: usize,
    context: DecodeContext<'m>,
    backlog: Vec<u32>,
}

fn replay(program: &Program, run: &FleetRun) -> Replay {
    let pool_rows = program.pool_rows;
    let width = program.model.config().embedding_dim;
    let pools: Vec<Arc<KvBlockPool>> = (0..GROUPS)
        .map(|_| KvBlockPool::shared(pool_rows, PAGE_ROWS, width))
        .collect();
    let mut normalizer = TimingNormalizer::new(direct_normalizer(program));
    let mut groups: Vec<Vec<ReplayStream>> = (0..GROUPS).map(|_| Vec::new()).collect();
    let mut outputs: Vec<Vec<u32>> = vec![Vec::new(); run.sessions.len()];
    let mut order: Vec<usize> = (0..run.sessions.len()).collect();
    order.sort_by_key(|&i| (run.sessions[i].placed_tick, i));
    let mut next = 0;
    let mut tick_s = Vec::with_capacity(run.window_ticks.1);
    for tick in 0..run.window_ticks.1 {
        if tick == run.window_ticks.0 {
            normalizer.timing = NormTiming::default();
        }
        while next < order.len() && run.sessions[order[next]].placed_tick == tick {
            let i = order[next];
            let s = &run.sessions[i];
            if !s.failed {
                groups[s.group].push(ReplayStream {
                    session: i,
                    context: program
                        .model
                        .start_decode_in(&pools[s.group])
                        .expect("replay context"),
                    backlog: s.prompt.clone(),
                });
            }
            next += 1;
        }
        let mut elapsed = 0.0;
        for streams in &mut groups {
            if streams.is_empty() {
                continue;
            }
            let feeds: Vec<Vec<u32>> = streams
                .iter()
                .map(|r| {
                    if r.backlog.is_empty() {
                        vec![*outputs[r.session]
                            .last()
                            .expect("decoding stream has a token")]
                    } else {
                        r.backlog[..CHUNK_ROWS.min(r.backlog.len())].to_vec()
                    }
                })
                .collect();
            let feed_refs: Vec<&[u32]> = feeds.iter().map(Vec::as_slice).collect();
            let mut contexts: Vec<&mut DecodeContext> =
                streams.iter_mut().map(|r| &mut r.context).collect();
            let started = Instant::now();
            let logits = program
                .model
                .advance_many(&mut contexts, &feed_refs, &mut normalizer)
                .expect("replay pass");
            elapsed += started.elapsed().as_secs_f64();
            for (row, r) in streams.iter_mut().enumerate() {
                let was_prefill = !r.backlog.is_empty();
                if was_prefill {
                    r.backlog.drain(..feeds[row].len());
                }
                if r.backlog.is_empty() {
                    outputs[r.session].push(argmax(logits.row(row)));
                }
            }
        }
        tick_s.push(elapsed);
        for streams in &mut groups {
            streams.retain(|r| run.sessions[r.session].cancelled_tick != Some(tick + 1));
        }
    }
    let mismatches = run
        .sessions
        .iter()
        .zip(&outputs)
        .filter(|(s, out)| !s.failed && s.tokens.get(..out.len()) != Some(&out[..]))
        .count();
    Replay {
        tick_s,
        timing: normalizer.timing,
        telemetry: normalizer.inner.telemetry(),
        mismatches,
    }
}

/// Sets up a fleet `reps` times (model, calibration, router, warm-up) and
/// returns the set-up times; the last fleet is passed to `run`.
fn with_fleet<T>(
    kind: Kind,
    seed: u64,
    reps: usize,
    trace: Option<Arc<Trace>>,
    run: impl FnOnce(&Program, &mut Fleet, &mut u64) -> T,
) -> (Vec<f64>, T) {
    let mut setup_s = Vec::with_capacity(reps);
    for _ in 1..reps {
        let started = Instant::now();
        let program = build_program(kind);
        let mut fleet = Fleet::start(&program, None);
        warm_up(kind, &mut fleet, seed, &mut 0);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let program = build_program(kind);
    let mut fleet = Fleet::start(&program, trace);
    let mut next = 0;
    warm_up(kind, &mut fleet, seed, &mut next);
    setup_s.push(started.elapsed().as_secs_f64());
    let out = run(&program, &mut fleet, &mut next);
    (setup_s, out)
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let (setup_s, (run, program_mismatches, check_timing, check_telemetry, replay)) =
        with_fleet(kind, args.seed, reps, None, |program, fleet, next| {
            let run = measure(kind, fleet, args.seed, next, seconds);
            let (mismatches, timing, telemetry) = check_sessions(program, &run.sessions, args.seed);
            let replay = (args.trace && kind == Kind::DecodeLong).then(|| replay(program, &run));
            (run, mismatches, timing, telemetry, replay)
        });
    let counted: Vec<&Session> = run.sessions.iter().filter(|s| s.counted).collect();
    let failed = counted.iter().filter(|s| s.failed).count();
    let mut mismatches = program_mismatches;
    let (throughput, tokens) = run.throughput();
    let mut metrics = Vec::new();
    if !args.trace {
        let ok: Vec<&&Session> = counted.iter().filter(|s| !s.failed).collect();
        let first: Vec<f64> = ok
            .iter()
            .map(|s| (s.first_s.expect("completed session") - s.due_s) * 1e3)
            .collect();
        let gaps: Vec<(f64, f64)> = ok
            .iter()
            .flat_map(|s| s.gaps_ms.iter().map(|&(t, g)| (t - run.window.0, g)))
            .collect();
        let gap = stats::per_second(&gaps, 0.9)?;
        let slo = kind.slo();
        let slo_ok = counted
            .iter()
            .filter(|s| {
                !s.failed
                    && (s.first_s.expect("completed session") - s.due_s) * 1e3 <= slo.first_ms
                    && s.gaps_ms.iter().map(|g| g.1).sum::<f64>() / s.gaps_ms.len().max(1) as f64
                        <= slo.gap_ms
            })
            .count();
        metrics.extend(crate::end_to_end(
            (throughput, tokens),
            &first,
            gap,
            (slo_ok, counted.len()),
            (counted.len() - failed, counted.len()),
            &setup_s,
        )?);
    } else {
        // The traced run: a fresh fleet with the trace sink installed.
        let trace = Trace::new();
        let (_, traced) = with_fleet(
            kind,
            args.seed,
            1,
            Some(Arc::clone(&trace)),
            |program, fleet, next| {
                let mut run = measure(kind, fleet, args.seed, next, seconds);
                let (m, _, _) = check_sessions(program, &run.sessions, args.seed);
                run.layers = fleet_layers(kind, fleet, &run, &trace);
                (run, m)
            },
        );
        let (traced_run, traced_mismatches) = traced;
        mismatches += traced_mismatches;
        let (traced_throughput, _) = traced_run.throughput();
        let mut layers = traced_run.layers;
        // The direct path on this workload: the replay's normalizer for
        // decode_long, the output check's solo normalizers otherwise.
        let (timing, telemetry) = match &replay {
            Some(r) => (r.timing, r.telemetry),
            None => (check_timing, check_telemetry),
        };
        layers.push(Metric::new(
            "haan.direct_ns_per_elem",
            timing.norm_ns_per_elem(),
            "ns",
            (timing.elements - timing.epilogue_elements) as usize,
        ));
        layers.push(Metric::new(
            "haan.skip_frac",
            telemetry.skip_fraction(),
            "fraction",
            telemetry.calls as usize,
        ));
        layers.push(Metric::new(
            "haan.read_frac",
            telemetry.read_fraction(),
            "fraction",
            telemetry.calls as usize,
        ));
        if let Some(r) = &replay {
            mismatches += r.mismatches;
            let (a, b) = run.window_ticks;
            let replay_s: f64 = r.tick_s[a..b].iter().sum();
            let router_s: f64 = run.ticks[a..b].iter().map(|t| t.dur_s).sum();
            let advance_ms: Vec<f64> = r.tick_s[a..b].iter().map(|s| s * 1e3).collect();
            layers.push(Metric::new(
                "serve.overhead_frac",
                1.0 - replay_s / router_s,
                "fraction",
                b - a,
            ));
            layers.push(Metric::new(
                "llm.advance_ms_per_tick",
                median(&advance_ms),
                "ms",
                b - a,
            ));
            layers.push(Metric::new(
                "llm.norm_share",
                r.timing.total_ns as f64 * 1e-9 / replay_s,
                "fraction",
                b - a,
            ));
            layers.push(Metric::new(
                "llm.norm_epilogue_share",
                r.timing.epilogue_ns as f64 * 1e-9 / replay_s,
                "fraction",
                b - a,
            ));
        }
        layers.push(Metric::new(
            "trace.overhead_frac",
            1.0 - traced_throughput / throughput,
            "fraction",
            tokens,
        ));
        if let Some(path) = &args.trace_out {
            trace
                .write_jsonl(path)
                .map_err(|e| format!("writing trace: {e}"))?;
        }
        metrics = layers;
    }
    Ok(Outcome {
        attempted: counted.len() as u64,
        failed: failed as u64,
        mismatches: mismatches as u64,
        metrics,
    })
}

/// Per-layer metrics of a traced fleet run, read through the crates' public
/// stats and the trace.
fn fleet_layers(kind: Kind, fleet: &Fleet, run: &FleetRun, trace: &Trace) -> Vec<Metric> {
    let router = &fleet.router;
    let tick_ms: Vec<f64> = trace
        .durations_ns("router.step_all")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let place_us: Vec<f64> = trace
        .durations_ns("router.place")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let mut admission = haan_serve::AdmissionStats::default();
    let mut kv_peak_pages = 0;
    let mut kv_bytes = 0;
    let mut evictions = 0;
    let width = router.model().config().embedding_dim;
    for g in 0..router.num_groups() {
        let engine = router.engine(g);
        let a = engine.admission_stats();
        admission.offered += a.offered;
        admission.queued += a.queued;
        admission.shed += a.shed;
        let pool = engine.kv_pool(width);
        kv_peak_pages += pool.peak_pages_in_use();
        kv_bytes += pool.bytes_materialized();
        evictions += engine.prefix_store_stats().evictions;
    }
    let counted: Vec<&Session> = run
        .sessions
        .iter()
        .filter(|s| s.counted && !s.failed)
        .collect();
    let waits: Vec<f64> = counted
        .iter()
        .filter_map(|s| s.active_s.map(|a| (a - s.placed_s) * 1e3))
        .collect();
    let prompt_tokens: usize = run.sessions.iter().map(|s| s.prompt.len()).sum();
    let fleet_stats = router.fleet_stats().totals;
    let engine = fleet.engine_stats();
    let queue_waits = trace.queue_waits_us();
    let frac = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let (wait_p90, wait_n) =
        stats::summarize(&waits, 0.9).map_or((0.0, waits.len()), |s| (s.tail, s.n));
    let (qw_p99, qw_n) =
        stats::summarize(&queue_waits, 0.99).map_or((0.0, queue_waits.len()), |s| (s.tail, s.n));
    let lateness = if kind == Kind::ChatSharedPrefix {
        let window: Vec<f64> = run
            .sessions
            .iter()
            .zip(&run.lateness_ms)
            .filter(|(s, _)| s.counted)
            .map(|(_, l)| *l)
            .collect();
        stats::summarize(&window, 0.9).map_or((0.0, window.len()), |s| (s.tail, s.n))
    } else {
        (0.0, 0)
    };
    vec![
        Metric::new("router.tick_ms_p50", median(&tick_ms), "ms", tick_ms.len()),
        Metric::new(
            "router.place_us_p50",
            median(&place_us),
            "us",
            place_us.len(),
        ),
        Metric::new(
            "router.prefix_hit_rate",
            router.stats().prefix_hit_rate(),
            "fraction",
            router.stats().placed as usize,
        ),
        Metric::new(
            "admission.queued_frac",
            frac(admission.queued, admission.offered),
            "fraction",
            admission.offered as usize,
        ),
        Metric::new(
            "admission.shed_frac",
            frac(admission.shed, admission.offered),
            "fraction",
            admission.offered as usize,
        ),
        Metric::new("admission.wait_ms_p90", wait_p90, "ms", wait_n),
        Metric::new(
            "group.rows_per_tick",
            fleet_stats.mean_tick_occupancy_rows(),
            "rows",
            fleet_stats.ticks as usize,
        ),
        Metric::new(
            "group.preemptions",
            fleet_stats.preemptions as f64,
            "count",
            fleet_stats.ticks as usize,
        ),
        Metric::new("llm.kv_peak_pages", kv_peak_pages as f64, "pages", GROUPS),
        Metric::new(
            "llm.kv_bytes_materialized",
            kv_bytes as f64,
            "bytes",
            GROUPS,
        ),
        Metric::new(
            "llm.prefix_tokens_saved_frac",
            frac(trace.prefix_attach_rows(), prompt_tokens as u64),
            "fraction",
            run.sessions.len(),
        ),
        Metric::new("llm.prefix_evictions", evictions as f64, "count", GROUPS),
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
        Metric::new("generator.lateness_ms_p90", lateness.0, "ms", lateness.1),
    ]
}
