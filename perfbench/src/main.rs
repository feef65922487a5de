//! The repository benchmark. Runs one seeded workload through the crates'
//! public APIs and prints every metric by name, with its unit and sample count;
//! the last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode_long --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
//! metrics of a traced run and writes its spans to `perfbench/traces/`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod fleet;
mod gen;
mod norm_rows;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Latency limits of `slo_ok_frac`: a session (or request) meets them when its
/// first result comes within `first_ms` of when it was due and its mean gap
/// between consecutive results is at most `gap_ms`.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub first_ms: f64,
    pub gap_ms: f64,
}

pub const DECODE_LONG_SLO: Slo = Slo {
    first_ms: 200.0,
    gap_ms: 40.0,
};
pub const CHAT_SLO: Slo = Slo {
    first_ms: 80.0,
    gap_ms: 25.0,
};
/// `norm_rows` requests have one result, so only `first_ms` applies.
pub const NORM_ROWS_SLO: Slo = Slo {
    first_ms: 1.0,
    gap_ms: f64::INFINITY,
};

/// End-to-end metrics, printed by every untraced run in this order.
const END_TO_END: [(&str, &str); 7] = [
    ("throughput_per_s", "1/s"),
    ("first_ms_p50", "ms"),
    ("gap_ms_p50", "ms"),
    ("slo_ok_frac", "fraction"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Tails of the end-to-end timings. Untraced runs print them with the other
/// metrics but leave them out of the JSON result: on a shared 2-vCPU host their
/// run-to-run spread reached 27%, too wide to bound a regression by.
const TAILS: [(&str, &str); 2] = [("first_ms_p90", "ms"), ("gap_ms_p90", "ms")];

/// Per-layer metrics, printed by every traced run in this order. A layer a
/// workload does not exercise reads 0 with a sample count of 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("router.tick_ms_p50", "ms"),
    ("router.place_us_p50", "us"),
    ("router.prefix_hit_rate", "fraction"),
    ("admission.queued_frac", "fraction"),
    ("admission.shed_frac", "fraction"),
    ("admission.wait_ms_p90", "ms"),
    ("group.rows_per_tick", "rows"),
    ("group.preemptions", "count"),
    ("serve.overhead_frac", "fraction"),
    ("llm.advance_ms_per_tick", "ms"),
    ("llm.norm_share", "fraction"),
    ("llm.norm_epilogue_share", "fraction"),
    ("llm.kv_peak_pages", "pages"),
    ("llm.kv_bytes_materialized", "bytes"),
    ("llm.prefix_tokens_saved_frac", "fraction"),
    ("llm.prefix_evictions", "count"),
    ("engine.rows_per_batch", "rows"),
    ("engine.requests_per_batch", "requests"),
    ("engine.queue_wait_us_p99", "us"),
    ("engine.exec_ns_per_elem", "ns"),
    ("engine.submit_reply_us_p50", "us"),
    ("haan.direct_ns_per_elem", "ns"),
    ("haan.skip_frac", "fraction"),
    ("haan.read_frac", "fraction"),
    ("numerics.stats_ns_per_elem", "ns"),
    ("generator.lateness_ms_p90", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Self {
        Self {
            name,
            value,
            unit,
            n,
        }
    }
}

/// What a workload run reports.
pub struct Outcome {
    /// Sessions or requests in the measured sample.
    pub attempted: u64,
    /// Of those, failed or shed.
    pub failed: u64,
    /// Results that differed from the solo/direct recomputation.
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
}

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace_out =
        trace.then(|| PathBuf::from(format!("perfbench/traces/{workload}-seed{seed}.jsonl")));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(30.0),
        trace,
        trace_out,
    })
}

/// The end-to-end metrics and tails of an untraced run (all but
/// `peak_rss_mib`, which `main` reads last). `first_ms` are the first-result
/// times; a run too short for their p90 leaves that printed tail out.
pub fn end_to_end(
    throughput: (f64, usize),
    first_ms: &[f64],
    gap: stats::Summary,
    slo_ok: (usize, usize),
    ok: (usize, usize),
    setup_s: &[f64],
) -> Result<Vec<Metric>, String> {
    if first_ms.is_empty() {
        return Err("no session or request completed".to_string());
    }
    let frac = |(n, d): (usize, usize)| n as f64 / d.max(1) as f64;
    let mut metrics = vec![
        Metric::new("throughput_per_s", throughput.0, "1/s", throughput.1),
        Metric::new(
            "first_ms_p50",
            stats::median(first_ms),
            "ms",
            first_ms.len(),
        ),
        Metric::new("gap_ms_p50", gap.p50, "ms", gap.n),
        Metric::new("gap_ms_p90", gap.tail, "ms", gap.n),
        Metric::new("slo_ok_frac", frac(slo_ok), "fraction", slo_ok.1),
        Metric::new("ok_frac", frac(ok), "fraction", ok.1),
        Metric::new("setup_s", stats::median(setup_s), "s", setup_s.len()),
    ];
    if let Ok(first) = stats::summarize(first_ms, 0.9) {
        metrics.push(Metric::new("first_ms_p90", first.tail, "ms", first.n));
    }
    Ok(metrics)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Orders `metrics` by `names`, filling layers the workload did not report
/// with 0 (sample count 0).
fn complete(
    mut metrics: Vec<Metric>,
    names: &[(&'static str, &'static str)],
) -> Result<Vec<Metric>, String> {
    if let Some(m) = metrics.iter().find(|m| !names.contains(&(m.name, m.unit))) {
        return Err(format!("metric {} ({}) is not declared", m.name, m.unit));
    }
    Ok(names
        .iter()
        .map(
            |&(name, unit)| match metrics.iter().position(|m| m.name == name) {
                Some(i) => metrics.swap_remove(i),
                None => Metric::new(name, 0.0, unit, 0),
            },
        )
        .collect())
}

/// The workload's outcome, the metrics of its JSON result, and the unbounded
/// tails printed beside them.
fn run(args: &Args) -> Result<(Outcome, Vec<Metric>, Vec<Metric>), String> {
    let mut outcome = match args.workload.as_str() {
        "decode_long" => fleet::run(fleet::Kind::DecodeLong, args)?,
        "chat_shared_prefix" => fleet::run(fleet::Kind::ChatSharedPrefix, args)?,
        "norm_rows" => norm_rows::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if outcome.attempted == 0 {
        return Err("the run attempted nothing".to_string());
    }
    let (mut tails, mut metrics): (Vec<Metric>, Vec<Metric>) = std::mem::take(&mut outcome.metrics)
        .into_iter()
        .partition(|m| TAILS.contains(&(m.name, m.unit)));
    let metrics = if args.trace {
        complete(metrics, &PER_LAYER)?
    } else {
        metrics.push(Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1));
        tails = complete(tails, &TAILS)?;
        complete(metrics, &END_TO_END)?
    };
    if let Some(m) = metrics.iter().chain(&tails).find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    Ok((outcome, metrics, tails))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let (outcome, metrics, tails) = match run(&args) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}: attempted {}, failed {}, output mismatches {}",
        args.workload, args.seed, outcome.attempted, outcome.failed, outcome.mismatches
    );
    for m in &metrics {
        println!("{:<30} {:>16.6} {:<9} (n={})", m.name, m.value, m.unit, m.n);
    }
    for m in &tails {
        println!(
            "{:<30} {:>16.6} {:<9} (n={}, not bounded)",
            m.name, m.value, m.unit, m.n
        );
    }
    let correct = outcome.mismatches == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed + outcome.mismatches,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
