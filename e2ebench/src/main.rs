//! End-to-end and per-layer benchmark of the stamp analyzer.
//!
//! ```text
//! e2ebench --workload <e6_large|variant_sweep|serve_warm> --seed N --seconds S --trace <0|1>
//!          [--stamp PATH]
//! e2ebench --selftest [--seed N] [--stamp PATH]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See README.md for the workloads and what each metric measures.

mod common;
mod e6;
mod serve;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Metric, Outcome};
use trace::Tracer;

/// Span names of the analysis phases and the per-layer metric each
/// one's mean self time per verdict is reported as.
const PHASE_METRICS: &[(&str, &str)] = &[
    ("cfg.build", "cfg.build_ms"),
    ("ai.context", "ai.context_ms"),
    ("value", "value.ms"),
    ("loopbound", "loopbound.ms"),
    ("cache", "cache.ms"),
    ("pipeline", "pipeline.ms"),
    ("path", "path.ms"),
    ("stack", "stack.ms"),
    ("sample", "sample.ms"),
];

const WORKLOADS: &[&str] = &["e6_large", "variant_sweep", "serve_warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    stamp: PathBuf,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        stamp: PathBuf::from(".bench_build/release/stamp"),
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--stamp" => args.stamp = PathBuf::from(value()?),
            "--selftest" => args.selftest = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// A per-run work directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    stamp: &Path,
    trace: &mut Tracer,
) -> Result<Outcome, String> {
    let work = WorkDir::create(workload)?;
    match workload {
        "e6_large" => e6::run(seed, seconds, trace),
        "variant_sweep" => sweep::run(seed, seconds, &work.0, trace),
        "serve_warm" => serve::run(seed, seconds, &work.0, stamp, trace),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest(&args);
    }
    let mut trace = Tracer::new(args.trace);
    // A traced run alternates untraced and traced work, half the time
    // each, so it takes as long as an untraced run.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let outcome = match run_workload(&args.workload, args.seed, seconds, &args.stamp, &mut trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace.write_jsonl(&path) {
            eprintln!("e2ebench: writing spans to {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# spans written to {}", path.display());
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if args.trace { outcome.layer_metrics() } else { outcome.end_to_end.clone() };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}

/// Runs every workload's traced run twice at one seed (one second of
/// timed work each) and fails if a deterministic work counter differs
/// between the two, or if any check fails. Prints the counters as JSON
/// so they can be recorded (`counters.json`).
fn selftest(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut recorded = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut trace = Tracer::new(true);
            match run_workload(workload, args.seed, 1.0, &args.stamp, &mut trace) {
                Ok(o) => {
                    if !o.problems.is_empty() {
                        eprintln!("selftest {workload}: {} checks failed", o.problems.len());
                        ok = false;
                    }
                    let counters: Vec<(&str, f64)> = common::DETERMINISTIC
                        .iter()
                        .map(|&name| (name, o.layers.get(name).copied().unwrap_or(0.0)))
                        .collect();
                    runs.push(counters);
                }
                Err(e) => {
                    eprintln!("selftest {workload}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        for ((name, a), (_, b)) in runs[0].iter().zip(&runs[1]) {
            if a != b {
                eprintln!(
                    "selftest {workload}: counter {name} drifted between two runs: {a} vs {b}"
                );
                ok = false;
            }
        }
        let fields: Vec<String> = runs[0].iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
        recorded.push(format!("  \"{workload}\": {{{}}}", fields.join(", ")));
    }
    println!("{{\"seed\": {},\n{}\n}}", args.seed, recorded.join(",\n"));
    if ok {
        eprintln!("selftest: counters identical across two runs; all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
