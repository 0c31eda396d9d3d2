//! One benchmark for the quench stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <step80|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds one workload from its seed, measures it for `--seconds`
//! of wall time, checks the program's outputs, and prints as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` they are the per-layer set ([`PER_LAYER`]), measured by
//! timing calls into each layer's public functions from outside and by
//! reading the counters the public API already returns. The traced run
//! also writes its in-memory spans to `perfbench/out/`.
//!
//! A run exits non-zero when any operation fails or any correctness check
//! does not hold. `perfbench/RECORD.md` states what each workload is for
//! and which layer metric should move which end-to-end metric.

mod probe;
mod serve_mix;
mod stats;
mod step80;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: (name, unit). Every workload reports every one of
/// them; `RECORD.md` states what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("newton_it_per_s", "it/s"),
    ("step_ms_p50", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("job_e2e_ms_p50", "ms"),
    ("job_e2e_ms_tail", "ms"),
    ("interactive_e2e_ms_p50", "ms"),
    ("first_record_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit), grouped by the program module they
/// measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.inner_integral_ms", "ms"),
    ("kernels.flops_per_newton", "flop"),
    ("kernels.bytes_per_newton", "B"),
    ("kernels.flops_per_byte", "flop/B"),
    ("operator.assemble_ms", "ms"),
    ("operator.tail_ms", "ms"),
    ("tensor_cache.build_s", "s"),
    ("tensor_cache.table_bytes", "B"),
    ("band.build_ms", "ms"),
    ("band.factor_ms", "ms"),
    ("band.solve_ms", "ms"),
    ("band.half_bandwidth", "count"),
    ("band.factor_flops", "flop"),
    ("batched.factor_ms", "ms"),
    ("batched.solve_ms", "ms"),
    ("batched.factor_flops", "flop"),
    ("solver.newton_per_step", "count"),
    ("solver.landau_share", "fraction"),
    ("solver.factor_share", "fraction"),
    ("solver.self_ms", "ms"),
    ("solver.closure", "fraction"),
    ("batch.lanes_per_launch", "count"),
    ("batch.launches_per_round", "count"),
    ("batch.retired_per_newton", "count"),
    ("batch.self_ms", "ms"),
    ("recover.productive_frac", "fraction"),
    ("recover.retried", "count"),
    ("recover.failed", "count"),
    ("fem.space_build_ms", "ms"),
    ("quench.build_ms", "ms"),
    ("quench.slice_ms", "ms"),
    ("quench.newton_per_job", "count"),
    ("serve.slice_ms_sum_per_job", "ms"),
    ("serve.unattributed_frac", "fraction"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.steals", "count"),
    ("serve.rejected", "count"),
    ("serve.grant_spread", "fraction"),
    ("serve.compute_spread", "fraction"),
    ("obs.journal_published", "count"),
    ("obs.journal_dropped", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("error_rate", "fraction"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Splitmix64: every generated input derives from `--seed` through it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[-1, 1]`.
pub fn unit_jitter(rng: &mut u64) -> f64 {
    (splitmix64(rng) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (steps or jobs, plus conservation and reference
    /// checks).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
    /// Metric values by name, with a note (sample count, definition) for
    /// the human-readable report.
    pub metrics: BTreeMap<&'static str, (f64, String)>,
    /// Per-layer metrics whose layer the workload never calls; they read 0.
    pub not_exercised: &'static [&'static str],
    /// Extra report lines (closure tables, per-seed Newton counts).
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.insert(name, (value, note.into()));
    }

    /// Record one checked condition: counts as attempted, and as failed
    /// with `msg` when it does not hold.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(msg());
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// A JSON number with every digit of the measurement; non-finite values
/// (a bench defect) become `null` so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "step80" => step80::run(&args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (step80, serve_mix)");
            return ExitCode::from(2);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for &name in out.not_exercised {
        assert!(
            wanted.iter().any(|(n, _)| *n == name),
            "not-exercised metric {name} is not in the reported set"
        );
        out.metrics
            .entry(name)
            .or_insert((0.0, "layer not called by this workload".into()));
    }
    if args.trace {
        let rate = out.failed as f64 / out.attempted.max(1) as f64;
        out.set(
            "error_rate",
            rate,
            format!("{}/{}", out.failed, out.attempted),
        );
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &out.report {
        println!("{line}");
    }
    let mut json_metrics = Vec::new();
    for &(name, unit) in wanted {
        let (value, note) = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {} did not report {name}", args.workload));
        println!("  {name:<30} {value:>16.6} {unit:<9} {note}");
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        ));
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
