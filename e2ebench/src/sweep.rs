//! `variant_sweep`: a task set swept across hardware and analysis
//! configurations, cold, into a durable store.
//!
//! The corpus targets plus generated programs (`GenConfig::rich()`)
//! cross six variants; every pass runs the whole matrix through
//! `run_batch_with` at two workers over a fresh `ArtifactStore::with_disk`
//! on an empty directory, so every artifact is written through to the
//! log.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use stamp_bench::pins;
use stamp_core::{
    run_batch_with, ArtifactStore, BatchJob, BatchReport, BatchRequest, Json, StackAnalysis,
    WcetAnalysis,
};
use stamp_isa::asm::assemble;
use stamp_isa::Program;
use stamp_suite::{benchmarks, generate, parse_manifest, GenConfig};

use crate::common::{
    self, layer_metrics, median, ms, percentile, LayerCounters, Outcome, StoreReading, WORKERS,
};
use crate::trace::Tracer;

/// Construct counts of the generated targets, cycled.
const GEN_SIZES: [usize; 4] = [32, 64, 128, 256];
/// Generated targets.
const GENERATED: usize = 24;
/// Minimum set-up repetitions per run (set-up is short, so many);
/// `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The variant axis, in manifest (and serve request) vocabulary.
pub const VARIANTS: &[&str] = &[
    r#"{"name": "default"}"#,
    r#"{"name": "no-cache", "hw": "no-cache"}"#,
    r#"{"name": "ideal", "hw": "ideal"}"#,
    r#"{"name": "cache128", "hw": {"cache_bytes": 128}}"#,
    r#"{"name": "strided", "domain": "strided"}"#,
    r#"{"name": "sampled", "sampling": {"samples": 64}}"#,
];

/// One target of the matrix, as a manifest target object.
pub struct Target {
    pub json: Json,
    /// Scratch size of a generated target (`None` for corpus targets).
    pub scratch_bytes: Option<u32>,
}

/// The job matrix and the pieces it was built from.
pub struct Matrix {
    pub targets: Vec<Target>,
    pub variants: Vec<Json>,
    pub request: BatchRequest,
    /// The assembled program of every target, by target name.
    pub programs: HashMap<String, Program>,
}

/// Builds the matrix for `seed` through the batch-manifest parser (the
/// same vocabulary `stamp batch` and `stamp serve` read). The corpus
/// targets are `corpus_matrix`'s: every `stamp_suite::benchmarks()`
/// entry.
pub fn matrix(seed: u64, variants: &[&str], tracer: &mut Tracer) -> Result<Matrix, String> {
    let mut targets: Vec<Target> = benchmarks()
        .iter()
        .map(|b| Target {
            json: Json::obj([("benchmark", Json::str(b.name))]),
            scratch_bytes: None,
        })
        .collect();
    let mut rng = common::rng_for("variant_sweep", seed);
    for i in 0..GENERATED {
        let cfg = GenConfig { constructs: GEN_SIZES[i % GEN_SIZES.len()], ..GenConfig::rich() };
        let source = generate(&mut rng, &cfg);
        targets.push(Target {
            json: Json::obj([
                ("name", Json::str(format!("gen{i:02}"))),
                ("source", Json::str(source)),
            ]),
            scratch_bytes: Some(cfg.scratch_bytes()),
        });
    }
    let variants: Vec<Json> = variants
        .iter()
        .map(|v| Json::parse(v).map_err(|e| format!("variant {v}: {e}")))
        .collect::<Result<_, _>>()?;
    let request = request_for(&targets, &variants)?;
    let mut programs = HashMap::new();
    for job in &request.jobs {
        if !programs.contains_key(&job.target) {
            let req = programs.len() as u64;
            let program = tracer
                .span("isa.assemble", req, None, || assemble(&job.source))
                .map_err(|e| format!("target {} does not assemble: {e}", job.target))?;
            programs.insert(job.target.clone(), program);
        }
    }
    Ok(Matrix { targets, variants, request, programs })
}

/// The batch request for `targets × variants`.
pub fn request_for(targets: &[Target], variants: &[Json]) -> Result<BatchRequest, String> {
    let manifest = Json::obj([
        ("targets", Json::Arr(targets.iter().map(|t| t.json.clone()).collect())),
        ("variants", Json::Arr(variants.to_vec())),
    ]);
    parse_manifest(&manifest.to_string(), Path::new(".")).map_err(|e| e.to_string())
}

/// The deterministic digest of a report's `results_json`.
pub fn digest(report: &BatchReport) -> u64 {
    common::fnv(report.results_json().to_string().as_bytes())
}

/// Digest of a request's inputs: every job's name and source.
fn inputs_digest(request: &BatchRequest) -> u64 {
    let mut text = String::new();
    for job in &request.jobs {
        text.push_str(&job.name());
        text.push_str(&job.source);
    }
    common::fnv(text.as_bytes())
}

/// Total size in bytes of the files in a store directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// One cold pass: open a durable store on an empty directory, run the
/// matrix, flush the log.
struct Pass {
    report: BatchReport,
    wall_s: f64,
    open_ms: f64,
    records: usize,
    log_bytes: u64,
}

fn pass(request: &BatchRequest, dir: &Path) -> Result<Pass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t = Instant::now();
    let (store, warnings) =
        ArtifactStore::with_disk(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let open_ms = ms(t.elapsed());
    let report = run_batch_with(request, WORKERS, &store).map_err(|e| e.to_string())?;
    store.flush_disk();
    let wall_s = t.elapsed().as_secs_f64();
    if let Some(w) = warnings.first().cloned().or_else(|| store.take_disk_warning()) {
        return Err(format!("store {}: {w}", dir.display()));
    }
    let records = store.disk_artifact_count();
    drop(store);
    let log_bytes = dir_bytes(dir);
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Pass { report, wall_s, open_ms, records, log_bytes })
}

/// Passes until `seconds` of pass time have accumulated (two at least,
/// so the digests can be compared). With tracing on, untraced and
/// traced passes alternate, each kind getting `seconds`, so the tracing
/// overhead is not confounded with warm-up.
fn passes(
    request: &BatchRequest,
    work: &Path,
    seconds: f64,
    trace: &mut Tracer,
    between_passes: &mut dyn FnMut(),
) -> Result<(Vec<Pass>, Vec<Pass>), String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let total = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).sum::<f64>();
    let short = |ps: &[Pass]| ps.len() < 2 || total(ps) < seconds;
    while short(&plain) || (trace.is_on() && short(&traced)) {
        if !plain.is_empty() {
            between_passes();
        }
        let n = plain.len() + traced.len();
        plain.push(pass(request, &work.join(format!("pass-{n}")))?);
        if trace.is_on() {
            let dir = work.join(format!("pass-{}", n + 1));
            traced.push(trace.span("pass", n as u64, None, || pass(request, &dir))?);
        }
    }
    Ok((plain, traced))
}

/// The corpus default-variant results against `stamp_bench::pins`;
/// returns the number of drifting jobs.
pub fn check_pins(report: &BatchReport, out: &mut Outcome) -> u64 {
    let measured: Vec<pins::MeasuredTask> = report
        .results
        .iter()
        .filter(|r| r.variant == "default" && benchmarks().iter().any(|b| b.name == r.target))
        .map(|r| pins::MeasuredTask {
            name: r.target.clone(),
            wcet: r.wcet,
            stack: r.stack,
            evaluations: r.evaluations,
            fetch: r.fetch,
            data: r.data,
        })
        .collect();
    let drift = pins::check_corpus(&measured);
    for d in &drift {
        out.problem(format!("pin drift: {d}"));
    }
    drift.len() as u64
}

/// Every generated target's job verdicts against the differential
/// oracle, one oracle run per distinct analysis configuration.
pub fn check_generated(m: &Matrix, report: &BatchReport, seed: u64, out: &mut Outcome) -> u64 {
    let mut rng = common::rng_for("variant_sweep/oracle", seed);
    let mut failed = 0;
    let mut seen: Vec<(String, String)> = Vec::new();
    for (job, result) in m.request.jobs.iter().zip(&report.results) {
        let Some(scratch) = scratch_of(m, &job.target) else { continue };
        // Variants that differ only in sampling analyze identically.
        let key = (job.target.clone(), format!("{:?}{:?}", job.config.hw, job.config.value));
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let program = &m.programs[&job.target];
        if let Err(e) = common::oracle_check(
            program,
            scratch,
            &job.config,
            (result.wcet, result.stack),
            &mut rng,
        ) {
            out.problem(format!("{}: {e}", result.name));
            failed += 1;
        }
    }
    failed
}

fn scratch_of(m: &Matrix, target: &str) -> Option<u32> {
    m.targets
        .iter()
        .find(|t| t.json.get("name").and_then(Json::as_str) == Some(target))
        .and_then(|t| t.scratch_bytes)
}

/// Spans for one job's phases, from the phase times the analyzer
/// itself reports (`WcetReport::phases`), under a `job` span.
pub fn record_phases(
    trace: &mut Tracer,
    req: u64,
    parent: usize,
    start_us: f64,
    phases: &[stamp_core::PhaseStats],
) {
    let mut at = start_us;
    for p in phases {
        let name = match p.phase.name() {
            "cfg" => "cfg.build",
            "context" => "ai.context",
            "value" => "value",
            "loopbound" => "loopbound",
            "cache" => "cache",
            "pipeline" => "pipeline",
            "path" => "path",
            _ => "other",
        };
        let end = at + p.seconds * 1e6;
        trace.record(name, req, Some(parent), at, end);
        at = end;
    }
}

/// Runs `jobs` serially through `store` with the production entry
/// points, recording each job's phase times (from its `WcetReport`),
/// its sampling pass and its stack analysis as spans. Checks every
/// verdict against `expected` (the batch or daemon result of the same
/// job).
pub fn layer_pass(
    jobs: &[&BatchJob],
    programs: &HashMap<String, Program>,
    store: &ArtifactStore,
    expected: &HashMap<String, stamp_core::JobResult>,
    trace: &mut Tracer,
    out: &mut Outcome,
) -> LayerCounters {
    let mut c = LayerCounters::default();
    for (k, job) in jobs.iter().enumerate() {
        let req = k as u64;
        let program = &programs[&job.target];
        let want = &expected[&job.name()];
        let span = trace.start("job", req, None);
        if job.wcet {
            let t0 = trace.at(Instant::now());
            let run = WcetAnalysis::new(program)
                .config(job.config.clone())
                .annotations(job.annotations.clone())
                .run_full(store);
            let (report, arts) = match run {
                Ok(r) => r,
                Err(e) => {
                    out.problem(format!("layer pass {}: {e}", job.name()));
                    trace.end(span);
                    continue;
                }
            };
            record_phases(trace, req, span, t0, &report.phases);
            if Some(report.wcet) != want.wcet {
                out.problem(format!(
                    "layer pass {}: wcet {} != served/batch {:?}",
                    job.name(),
                    report.wcet,
                    want.wcet
                ));
            }
            c.blocks += report.blocks as u64;
            c.nodes += report.nodes as u64;
            c.evaluations += report.evaluations;
            c.loop_instances += (arts.lb.bounds().len() + arts.lb.unbounded().len()) as u64;
            c.ilp_vars += report.ilp_size.0 as u64;
            c.summaries_computed += report.summaries_computed;
            c.summaries_reused += report.summaries_reused;
            c.uarch_computed += report.uarch_computed;
            c.uarch_reused += report.uarch_reused;
            if let Some(params) = job.sampling {
                let options = stamp_sample::SampleOptions {
                    samples: params.samples,
                    seed: params.seed,
                    use_infeasible: job.config.use_infeasible,
                    ..stamp_sample::SampleOptions::default()
                };
                let summary = trace.span("sample", req, Some(span), || {
                    stamp_sample::sample_paths(
                        &arts.cfg, &arts.icfg, &arts.va, &arts.lb, &arts.pa, &options,
                    )
                });
                c.walks += (summary.completed + summary.dead_ends) as u64;
                if want.sampling.as_ref() != Some(&summary) {
                    out.problem(format!(
                        "layer pass {}: sampling differs from the batch result",
                        job.name()
                    ));
                }
            }
        }
        let stack = trace.span("stack", req, Some(span), || {
            StackAnalysis::new(program)
                .hw(job.config.hw)
                .annotations(job.annotations.clone())
                .run_with(store)
        });
        match stack {
            Ok(s) if Some(s.bound) == want.stack => {}
            Ok(s) => out.problem(format!(
                "layer pass {}: stack {} != served/batch {:?}",
                job.name(),
                s.bound,
                want.stack
            )),
            Err(e) => out.problem(format!("layer pass {}: stack: {e}", job.name())),
        }
        trace.end(span);
    }
    c
}

pub fn run(seed: u64, seconds: f64, work: &Path, trace: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // ---- Set-up: generation, manifest parsing and assembly. It is
    // repeated between passes, outside the timed passes, so the median
    // `setup_s` samples the whole run rather than one moment of it; every
    // repetition must rebuild the same inputs.
    let t = Instant::now();
    let m = matrix(seed, VARIANTS, trace)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let inputs = inputs_digest(&m.request);
    let mut same_inputs = true;
    let mut set_up_again = || {
        let t = Instant::now();
        let again = matrix(seed, VARIANTS, &mut Tracer::disabled());
        setup.push(t.elapsed().as_secs_f64());
        same_inputs &= again.map(|a| inputs_digest(&a.request)) == Ok(inputs);
    };
    let jobs = m.request.jobs.len();

    // ---- Passes: untraced, and with tracing on also traced ones (the
    // same passes inside spans, plus the layers' own statistics).
    let (plain, traced) = passes(&m.request, work, seconds, trace, &mut set_up_again)?;
    // One set-up so far per untraced pass (the first before the loop).
    for _ in plain.len()..SETUP_REPS {
        set_up_again();
    }
    if !same_inputs {
        out.problem("one seed built different inputs in one run".to_string());
    }
    let rss = common::peak_rss_mb("self")?;

    // ---- Checks: job errors, one digest for every pass, pins, oracle.
    let reference = digest(&plain[0].report);
    for p in plain.iter().chain(&traced) {
        out.attempted += p.report.results.len() as u64;
        let errors = p.report.errors() as u64;
        if errors > 0 {
            out.problem(format!("{errors} jobs failed in a pass"));
        }
        if digest(&p.report) != reference {
            out.problem("results_json digest differs between passes".to_string());
            out.failed += p.report.results.len() as u64;
        } else {
            out.failed += errors;
        }
    }
    out.failed += check_pins(&plain[0].report, &mut out);
    out.failed += check_generated(&m, &plain[0].report, seed, &mut out);

    let wall: f64 = plain.iter().map(|p| p.wall_s).sum();
    let pass_s = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let lat: Vec<f64> =
        plain.iter().flat_map(|p| p.report.results.iter().map(|r| r.wall_ms)).collect();
    // Jobs per second of the median pass: robust to a pass a noisy
    // neighbour slows down.
    out.e2e("throughput_per_s", jobs as f64 / pass_s, "1/s");
    out.e2e("latency_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("latency_p90_ms", percentile(&lat, 90.0), "ms");
    out.e2e("latency_p99_ms", percentile(&lat, 99.0), "ms");
    out.e2e("setup_s", median(&setup), "s");
    out.e2e("peak_rss_mb", rss, "MB");
    out.notes.push(format!(
        "variant_sweep: {} targets x {} variants = {jobs} jobs per pass, {} passes in {wall:.2} s",
        m.targets.len(),
        m.variants.len(),
        plain.len()
    ));
    let how = format!("every job of {} passes", plain.len());
    out.notes.push(common::latency_note("job latency", &lat, &how));

    if trace.is_on() {
        let first = &traced[0];
        out.store_layers(&StoreReading::from_stats(&first.report.artifacts));
        out.layer(
            "store_disk.open_ms",
            median(&traced.iter().map(|p| p.open_ms).collect::<Vec<_>>()),
        );
        out.layer("store_disk.records", first.records as f64);
        out.layer("store_disk.log_mb", first.log_bytes as f64 / 1e6);
        let job_ms: Vec<f64> =
            traced.iter().flat_map(|p| p.report.results.iter().map(|r| r.wall_ms)).collect();
        out.layer("exec.job_ms_p50", median(&job_ms));
        let busy: Vec<f64> = traced
            .iter()
            .map(|p| {
                let sum: f64 = p.report.results.iter().map(|r| r.wall_ms).sum();
                sum / (WORKERS as f64 * p.wall_s * 1e3)
            })
            .collect();
        out.layer("exec.busy_share", median(&busy));
        let mean = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).sum::<f64>() / ps.len() as f64;
        out.layer("trace.overhead_share", mean(&traced) / mean(&plain) - 1.0);

        // Layer pass: every job serially through one shared in-memory
        // store, phase times from the reports.
        let expected: HashMap<String, stamp_core::JobResult> =
            plain[0].report.results.iter().map(|r| (r.name.clone(), r.clone())).collect();
        let job_refs: Vec<&BatchJob> = m.request.jobs.iter().collect();
        let c =
            layer_pass(&job_refs, &m.programs, &ArtifactStore::new(), &expected, trace, &mut out);
        layer_metrics(&mut out, trace, jobs, m.programs.len(), &c);
    }
    Ok(out)
}
