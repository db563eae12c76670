//! The analysis-kernel benchmark: measures wall time, solver
//! `evaluations` and result invariants of the whole corpus, the
//! per-phase breakdown on `matmult`, and the E6 scaling series, then
//! writes the machine-readable `BENCH_kernel.json`.
//!
//! ```sh
//! cargo run -p stamp_bench --release --bin kernel_bench -- --out BENCH_kernel.json
//! ```
//!
//! Flags:
//!
//! * `--quick`      — best of two repetitions per workload instead of
//!   seven (CI smoke mode);
//! * `--check`      — compare WCET/stack bounds, `evaluations` and cache
//!   classification counts against the pinned values in
//!   [`stamp_bench::pins`], and the parallel batch report against the
//!   serial one (byte-for-byte), exiting non-zero on any drift;
//! * `--out PATH`   — where to write the JSON (default `BENCH_kernel.json`);
//! * `--diff PATH`  — read a previously committed `BENCH_kernel.json`
//!   and print a markdown wall-time delta table (current vs committed)
//!   to stdout, flagging — but never failing on — workloads past a
//!   1.5× regression tolerance (the CI job appends this to
//!   `$GITHUB_STEP_SUMMARY`);
//! * `--print-pins` — regenerate the source of the pin table.
//!
//! Besides the serial workloads, the harness measures the **batch
//! engine**: the corpus × {default, no-cache, ideal} job matrix run
//! through `stamp_core::run_batch` at 1/2/4/8 workers, reported as
//! aggregate throughput (jobs/s) and scaling-per-core under a `batch`
//! key. The `cores` field records the machine's available parallelism —
//! speedup is bounded by it, so a 1-core CI container shows ~1.0×
//! while the numbers in a multi-core run show the real scaling.
//!
//! The **artifact store** is measured separately under an `artifacts`
//! key: the same corpus matrix run cold (fresh store) versus warm
//! (store primed by a previous pass), with per-phase hit/miss counts.
//! `--check` additionally gates on the warm-pass hit rate (≥ 50%;
//! structurally it is 100%) and on cached results being byte-identical
//! to a `--no-artifact-cache` run.
//!
//! The **durable store** (`stamp batch --store DIR`) is measured under
//! an `artifacts_disk` key: the same matrix run by a cold process
//! (empty directory) versus a warm process (fresh in-memory store over
//! a primed directory — a reopened log, exactly what a second `stamp
//! batch` invocation sees). `--check` gates on the warm-process disk
//! hit rate (≥ 50%) and on its results being byte-identical to a
//! storeless run.
//!
//! The **fuzz engine** (`stamp fuzz`) is measured under a `fuzz` key: a
//! fixed-seed differential campaign (generate → analyze → simulate →
//! compare) at 1 and 4 workers, reported as programs analyzed+simulated
//! per second. `--check` gates on the campaign being green (zero
//! violations — a violation here is a soundness bug, not a perf
//! regression) and on serial/parallel reports being byte-identical.
//!
//! The **sampling engine** (`stamp sample`) is measured under a
//! `sampling` key: the corpus with every WCET job walking 64
//! seed-pinned loop-bound-weighted paths, run cold (fresh store)
//! versus artifact-warm (store primed by a *plain* batch pass — the
//! sampler reuses the batch's value/cache/pipeline artifacts and only
//! adds the walks), reported as completed samples/s. `--check` gates
//! on serial/4-worker sampling reports being byte-identical, on every
//! observed-max staying ≤ its job's WCET bound (the soundness
//! invariant the sampler shares with `stamp fuzz`), and on the warm
//! hit rate (≥ 50%).
//!
//! The **serve engine** (`stamp serve`) is measured under a `serve`
//! key: the corpus × 3-variant request mix pushed through an in-process
//! daemon engine (admission queue + workers over one warm store), run
//! by a cold engine versus a warm one, reported as sustained requests/s
//! and the warm-pass artifact hit rate. `--check` gates on the warm hit
//! rate (≥ 50%; structurally ~100%) and on every served result being
//! byte-identical to `run_batch` over the same job matrix.
//!
//! The **procedure-summary path solver** is measured under a
//! `summaries` key: the E6 scaling series (extended to 640 constructs)
//! analyzed per size, timing the path phase alone. `--check` gates on
//! the WCET bound and ILP size equalling the monolithic reference solve
//! (`stamp_path::analyze_reference` over the same phase artifacts) at
//! every size — the summary decomposition is exact, not an
//! approximation — and on the path wall time growing no faster than
//! the ILP itself across the 64 → 640 decade.
//!
//! The emitted JSON carries a `before` section: wall times recorded with
//! this same harness at the pre-refactor kernel (commit 848c9d7, full
//! `State::clone`-per-edge solver, `BTreeMap` cache sets), so the file
//! documents the measured speedup, not an assertion of one.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_bench::pins::{self, CorpusPin};
use stamp_core::{
    run_batch, run_batch_with, AnalysisConfig, ArtifactStats, ArtifactStore, BatchVariant, Json,
    PhaseId, SampleParams, StackAnalysis, WcetAnalysis, WcetReport,
};
use stamp_hw::HwConfig;
use stamp_isa::asm::assemble;
use stamp_suite::{benchmarks, corpus_matrix, generate, GenConfig};

/// Wall times recorded at the pre-refactor kernel (commit 848c9d7) with
/// this harness in `--full` mode on the same machine that produced the
/// committed `BENCH_kernel.json`. Times in milliseconds, best of 7.
mod baseline {
    pub const COMMIT: &str = "848c9d7";
    pub const CORPUS_MS: &[(&str, f64)] = &[
        ("fibcall", 0.129),
        ("insertsort", 2.232),
        ("bsort", 1.971),
        ("matmult", 5.822),
        ("crc", 0.280),
        ("fir", 0.936),
        ("bs", 1.362),
        ("cnt", 0.437),
        ("switchcase", 0.914),
        ("prime", 0.502),
        ("statemate", 1.091),
        ("nested", 0.483),
        ("arraysum", 0.966),
        ("fdct", 0.177),
        ("ns", 12.896),
        ("memcpy", 0.237),
    ];
    pub const SCALING_MS: &[(usize, f64)] =
        &[(2, 1.441), (4, 0.844), (8, 9.230), (16, 10.432), (32, 321.593), (64, 1770.884)];
    pub const PHASES_MS: &[(&str, f64)] = &[
        ("cfg_building", 0.005),
        ("context_expansion", 0.017),
        ("value_analysis", 0.056),
        ("loop_bounds", 0.009),
        ("cache_analysis", 0.767),
        ("pipeline_analysis", 0.011),
        ("path_analysis_ilp", 4.770),
    ];
}

struct Args {
    quick: bool,
    check: bool,
    print_pins: bool,
    out: String,
    diff: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        check: false,
        print_pins: false,
        out: "BENCH_kernel.json".to_string(),
        diff: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--print-pins" => args.print_pins = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--diff" => args.diff = Some(it.next().expect("--diff needs a path")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Best-of-`reps` wall time of `f`, in milliseconds, plus the last result.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("at least one rep"))
}

struct CorpusRow {
    pin: CorpusPin,
    best_ms: f64,
    phase_ms: Vec<(String, f64)>,
}

fn corpus_row(name: &'static str, reps: usize) -> CorpusRow {
    let b = benchmarks().into_iter().find(|b| b.name == name).expect("benchmark");
    let program = b.program();
    let stack = StackAnalysis::new(&program)
        .annotations(b.annotations())
        .run()
        .expect("stack analysis")
        .bound;
    if !b.supports_wcet {
        return CorpusRow {
            pin: CorpusPin { name, wcet: None, stack, evaluations: 0, fetch: [0; 4], data: [0; 4] },
            best_ms: 0.0,
            phase_ms: Vec::new(),
        };
    }
    let run = || -> WcetReport {
        WcetAnalysis::new(&program)
            .config(AnalysisConfig::default())
            .annotations(b.annotations())
            .run()
            .expect("wcet analysis")
    };
    let (best, report) = best_ms(reps, run);
    let mut phase_ms: Vec<(String, f64)> = Vec::new();
    for p in &report.phases {
        match phase_ms.iter_mut().find(|(n, _)| n == p.name()) {
            Some((_, s)) => *s += p.seconds * 1e3,
            None => phase_ms.push((p.name().to_string(), p.seconds * 1e3)),
        }
    }
    let (f, d) = (report.fetch_stats, report.data_stats);
    CorpusRow {
        pin: CorpusPin {
            name,
            wcet: Some(report.wcet),
            stack,
            evaluations: report.evaluations,
            fetch: [f.hit, f.miss, f.persistent, f.unclassified],
            data: [d.hit, d.miss, d.persistent, d.unclassified],
        },
        best_ms: best,
        phase_ms,
    }
}

struct ScalingRow {
    constructs: usize,
    insns: usize,
    nodes: usize,
    evaluations: u64,
    wcet: u64,
    best_ms: f64,
}

/// The E6 scaling series sizes. The tail past 64 exists because the
/// procedure-summary path solver made the whole-series run affordable —
/// the monolithic ILP alone took ~21 s at 640 constructs. The prefix
/// draws of the shared rng are unchanged by appending sizes, so the
/// pinned evaluations for the original sizes stay valid.
const SCALING_SIZES: &[usize] = &[2, 4, 8, 16, 32, 64, 128, 256, 640];

fn scaling_rows(reps: usize) -> Vec<ScalingRow> {
    // Same seed discipline as experiment E6: one rng across the series.
    let mut rng = StdRng::seed_from_u64(0xE6);
    let mut rows = Vec::new();
    for &constructs in SCALING_SIZES {
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let src = generate(&mut rng, &cfg);
        let program = assemble(&src).expect("generated");
        let (best, report) = best_ms(reps, || WcetAnalysis::new(&program).run().expect("analysis"));
        rows.push(ScalingRow {
            constructs,
            insns: report.insns,
            nodes: report.nodes,
            evaluations: report.evaluations,
            wcet: report.wcet,
            best_ms: best,
        });
    }
    rows
}

/// One E6 program's path phase: the per-segment procedure-summary
/// solver's wall time and counts, and whether its result matches the
/// monolithic reference solve.
struct SummaryRow {
    constructs: usize,
    nodes: usize,
    ilp_vars: usize,
    summarized_path_ms: f64,
    /// WCET and ILP size both equal [`stamp_path::analyze_reference`]'s.
    matches_reference: bool,
    summaries_computed: u64,
    summaries_reused: u64,
}

/// Best-of-`reps` *path-phase* wall time in milliseconds, plus the last
/// report. Unlike [`best_ms`] this keys the minimum on the phase timer
/// inside the report, so jitter in the other phases cannot pick a rep
/// with a slow path solve.
fn best_path_ms(reps: usize, mut f: impl FnMut() -> WcetReport) -> (f64, WcetReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let report = f();
        let ms: f64 = report
            .phases
            .iter()
            .filter(|p| p.phase == PhaseId::Path)
            .map(|p| p.seconds * 1e3)
            .sum();
        best = best.min(ms);
        last = Some(report);
    }
    (best, last.expect("at least one rep"))
}

/// The procedure-summary workload: the E6 series (same rng discipline
/// as [`scaling_rows`], so the programs are identical) with the path
/// phase timed. The reference solve runs once per size, untimed, on
/// the artifacts of the last timed run; it is super-linear (about 30 s
/// at 640 constructs).
fn summaries_rows(reps: usize) -> Vec<SummaryRow> {
    let mut rng = StdRng::seed_from_u64(0xE6);
    let mut rows = Vec::new();
    for &constructs in SCALING_SIZES {
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let src = generate(&mut rng, &cfg);
        let program = assemble(&src).expect("generated");
        let mut artifacts = None;
        let (summarized_path_ms, summarized) = best_path_ms(reps, || {
            let (report, a) = WcetAnalysis::new(&program)
                .run_full(&ArtifactStore::disabled())
                .expect("summarized analysis");
            artifacts = Some(a);
            report
        });
        let a = artifacts.expect("at least one rep");
        let reference = stamp_path::analyze_reference(
            &a.cfg,
            &a.icfg,
            &a.va,
            &a.lb,
            &a.pa,
            &stamp_path::PathOptions::default(),
        )
        .expect("reference path analysis");
        rows.push(SummaryRow {
            constructs,
            nodes: summarized.nodes,
            ilp_vars: summarized.ilp_size.0,
            summarized_path_ms,
            matches_reference: a.path.wcet == reference.wcet
                && a.path.ilp_size == reference.ilp_size,
            summaries_computed: summarized.summaries_computed,
            summaries_reused: summarized.summaries_reused,
        });
    }
    rows
}

/// Per-phase wall times on `matmult` (the criterion `phases` bench,
/// replayed here so the numbers land in the JSON).
fn phase_rows(reps: usize) -> Vec<(&'static str, f64)> {
    use stamp_ai::{Icfg, VivuConfig};
    use stamp_cache::CacheAnalysis;
    use stamp_cfg::CfgBuilder;
    use stamp_hw::HwConfig;
    use stamp_loopbound::{LoopBoundAnalysis, LoopBoundOptions};
    use stamp_pipeline::PipelineAnalysis;
    use stamp_value::{ValueAnalysis, ValueOptions};

    let b = benchmarks().into_iter().find(|b| b.name == "matmult").expect("matmult");
    let program = b.program();
    let hw = HwConfig::default();
    let cfg = CfgBuilder::new(&program).build().expect("cfg");
    let icfg = Icfg::build(&cfg, &VivuConfig::default()).expect("icfg");
    let va = ValueAnalysis::run(&program, &hw, &cfg, &icfg, &ValueOptions::default());
    let ca = CacheAnalysis::run(&hw, &cfg, &icfg, &va);
    let pa = PipelineAnalysis::run(&hw, &cfg, &icfg, &ca, &va);
    let lb = LoopBoundAnalysis::run(&program, &cfg, &icfg, &va, &LoopBoundOptions::default());

    let mut rows = Vec::new();
    rows.push((
        "cfg_building",
        best_ms(reps, || CfgBuilder::new(&program).build().unwrap().blocks().len()).0,
    ));
    rows.push((
        "context_expansion",
        best_ms(reps, || Icfg::build(&cfg, &VivuConfig::default()).unwrap().nodes().len()).0,
    ));
    rows.push((
        "value_analysis",
        best_ms(reps, || {
            ValueAnalysis::run(&program, &hw, &cfg, &icfg, &ValueOptions::default())
                .precision_summary()
                .total()
        })
        .0,
    ));
    rows.push((
        "loop_bounds",
        best_ms(reps, || {
            LoopBoundAnalysis::run(&program, &cfg, &icfg, &va, &LoopBoundOptions::default())
                .bounds()
                .len()
        })
        .0,
    ));
    rows.push((
        "cache_analysis",
        best_ms(reps, || CacheAnalysis::run(&hw, &cfg, &icfg, &va).fetch_stats().total()).0,
    ));
    rows.push((
        "pipeline_analysis",
        best_ms(reps, || PipelineAnalysis::run(&hw, &cfg, &icfg, &ca, &va).times().len()).0,
    ));
    rows.push((
        "path_analysis_ilp",
        best_ms(reps, || {
            stamp_path::analyze(&cfg, &icfg, &va, &lb, &pa, &Default::default()).expect("path").wcet
        })
        .0,
    ));
    rows
}

/// The batch-engine workload: the whole corpus under three hardware
/// variants, enough jobs (17 × 3) to keep several workers busy.
fn batch_request() -> stamp_core::BatchRequest {
    corpus_matrix(&[
        BatchVariant::default(),
        BatchVariant {
            name: "no-cache".to_string(),
            config: AnalysisConfig { hw: HwConfig::no_cache(), ..AnalysisConfig::default() },
            sampling: None,
        },
        BatchVariant {
            name: "ideal".to_string(),
            config: AnalysisConfig { hw: HwConfig::ideal(), ..AnalysisConfig::default() },
            sampling: None,
        },
    ])
}

struct BatchRow {
    workers: usize,
    wall_ms: f64,
    throughput_per_s: f64,
}

struct BatchBench {
    cores: usize,
    jobs_total: usize,
    variants: Vec<String>,
    rows: Vec<BatchRow>,
    /// Deterministic results of the serial and the 4-worker run, for
    /// the `--check` bit-identity gate.
    serial_results: String,
    parallel_results: String,
}

fn batch_rows(reps: usize) -> BatchBench {
    let request = batch_request();
    let jobs_total = request.jobs.len();
    // Derived from the request, not restated, so the emitted JSON stays
    // truthful if the workload matrix changes (first-seen order; the
    // matrix interleaves variants per target).
    let mut variants: Vec<String> = Vec::new();
    for j in &request.jobs {
        if !variants.contains(&j.variant) {
            variants.push(j.variant.clone());
        }
    }
    let mut rows = Vec::new();
    let mut serial_results = String::new();
    let mut parallel_results = String::new();
    for workers in [1usize, 2, 4, 8] {
        let (wall_ms, report) =
            best_ms(reps, || run_batch(&request, workers).expect("batch run panicked"));
        if workers == 1 {
            serial_results = report.results_json().to_string();
        }
        if workers == 4 {
            parallel_results = report.results_json().to_string();
        }
        rows.push(BatchRow {
            workers,
            wall_ms,
            throughput_per_s: jobs_total as f64 / (wall_ms / 1e3),
        });
    }
    BatchBench {
        cores: stamp_exec::default_workers(),
        jobs_total,
        variants,
        rows,
        serial_results,
        parallel_results,
    }
}

/// The artifact-store workload: the corpus matrix run cold (fresh
/// store, within-run sharing only) versus warm (store primed by a full
/// previous pass), plus a no-store run for the bit-identity gate.
struct ArtifactBench {
    workers: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_stats: ArtifactStats,
    warm_stats: ArtifactStats,
    /// Deterministic results of the cached and the uncached run — the
    /// `--check` gate compares them byte-for-byte (artifact reuse must
    /// be invisible in `results_json`).
    cached_results: String,
    uncached_results: String,
}

impl ArtifactBench {
    fn warm_speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            f64::NAN
        }
    }
}

fn artifact_rows(reps: usize) -> ArtifactBench {
    let request = batch_request();
    let workers = 4;
    // Cold: a fresh store per rep — jobs share artifacts within the
    // pass, but every unique fingerprint is computed once.
    let mut cold_stats = None;
    let mut cached_results = String::new();
    let (cold_ms, _) = best_ms(reps, || {
        let store = ArtifactStore::new();
        let report = run_batch_with(&request, workers, &store).expect("cold batch");
        cold_stats = Some(report.artifacts);
        cached_results = report.results_json().to_string();
    });
    // Warm: one long-lived store primed by a full pass; each measured
    // pass should be ~all hits.
    let store = ArtifactStore::new();
    run_batch_with(&request, workers, &store).expect("priming batch");
    let mut warm_stats = None;
    let (warm_ms, _) = best_ms(reps, || {
        let report = run_batch_with(&request, workers, &store).expect("warm batch");
        warm_stats = Some(report.artifacts);
    });
    // No store at all: the determinism reference.
    let uncached =
        run_batch_with(&request, workers, &ArtifactStore::disabled()).expect("uncached batch");
    ArtifactBench {
        workers,
        cold_ms,
        warm_ms,
        cold_stats: cold_stats.expect("at least one cold rep"),
        warm_stats: warm_stats.expect("at least one warm rep"),
        cached_results,
        uncached_results: uncached.results_json().to_string(),
    }
}

/// The durable-store workload (`stamp batch --store DIR`): the corpus
/// matrix run by a *cold process* (empty directory, every artifact
/// computed and written through) versus a *warm process* (a fresh
/// in-memory store over a directory primed by a previous process —
/// modeled by reopening the log with a second `with_disk` store, which
/// is exactly what a new `stamp batch` invocation does).
struct ArtifactDiskBench {
    workers: usize,
    cold_ms: f64,
    warm_ms: f64,
    cold_stats: ArtifactStats,
    warm_stats: ArtifactStats,
    /// Artifacts in the log after the cold pass.
    artifacts_on_disk: usize,
    /// Deterministic results of the warm-process and the storeless run —
    /// the `--check` gate compares them byte-for-byte.
    warm_results: String,
    storeless_results: String,
}

impl ArtifactDiskBench {
    fn warm_speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            f64::NAN
        }
    }
}

fn artifact_disk_rows(reps: usize) -> ArtifactDiskBench {
    let request = batch_request();
    let workers = 4;
    let dir = std::env::temp_dir().join(format!("stamp-bench-disk-{}", std::process::id()));

    // Cold process: an empty directory per rep — everything is computed
    // and the wall time includes the write-through cost.
    let mut cold_stats = None;
    let (cold_ms, _) = best_ms(reps, || {
        let _ = std::fs::remove_dir_all(&dir);
        let (store, warnings) = ArtifactStore::with_disk(&dir).expect("disk store opens");
        assert!(warnings.is_empty(), "{warnings:?}");
        let report = run_batch_with(&request, workers, &store).expect("cold batch");
        cold_stats = Some(report.artifacts);
    });
    let artifacts_on_disk = {
        let (store, _) = ArtifactStore::with_disk(&dir).expect("disk store reopens");
        store.disk_artifact_count()
    };

    // Warm process: each rep opens a *fresh* store over the primed
    // directory, so the in-memory map is empty and every fill is
    // answered from disk — the cross-process incremental path.
    let mut warm_stats = None;
    let mut warm_results = String::new();
    let (warm_ms, _) = best_ms(reps, || {
        let (store, warnings) = ArtifactStore::with_disk(&dir).expect("disk store reopens");
        assert!(warnings.is_empty(), "{warnings:?}");
        let report = run_batch_with(&request, workers, &store).expect("warm batch");
        warm_stats = Some(report.artifacts);
        warm_results = report.results_json().to_string();
    });
    let storeless =
        run_batch_with(&request, workers, &ArtifactStore::disabled()).expect("storeless batch");
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactDiskBench {
        workers,
        cold_ms,
        warm_ms,
        cold_stats: cold_stats.expect("at least one cold rep"),
        warm_stats: warm_stats.expect("at least one warm rep"),
        artifacts_on_disk,
        warm_results,
        storeless_results: storeless.results_json().to_string(),
    }
}

/// The fuzz-engine workload: a fixed-seed differential campaign at 1
/// and 4 workers. Shrinking is off and no reproducers are written —
/// the campaign is expected green, and the measurement is pure
/// generate→analyze→simulate→compare throughput.
struct FuzzBenchRow {
    workers: usize,
    wall_ms: f64,
    programs_per_s: f64,
}

struct FuzzBench {
    iterations: usize,
    sim_runs: u64,
    rows: Vec<FuzzBenchRow>,
    /// Serial vs 4-worker deterministic reports, for the `--check`
    /// bit-identity gate.
    deterministic: bool,
    violations: usize,
}

fn fuzz_rows(reps: usize) -> FuzzBench {
    use stamp_suite::fuzz::{run_campaign, FuzzConfig};
    let cfg = FuzzConfig {
        iterations: 48,
        seed: 0xF0,
        rounds: 2,
        shrink: false,
        repro_dir: None,
        ..FuzzConfig::default()
    };
    let mut rows = Vec::new();
    let mut serial_results = String::new();
    let mut parallel_results = String::new();
    let mut sim_runs = 0;
    let mut violations = 0;
    for workers in [1usize, 4] {
        let (wall_ms, report) =
            best_ms(reps, || run_campaign(&cfg, workers).expect("fuzz campaign panicked"));
        if workers == 1 {
            serial_results = report.results_json().to_string();
        } else {
            parallel_results = report.results_json().to_string();
        }
        sim_runs = report.sim_runs;
        violations = report.violations();
        rows.push(FuzzBenchRow {
            workers,
            wall_ms,
            programs_per_s: cfg.iterations as f64 / (wall_ms / 1e3),
        });
    }
    FuzzBench {
        iterations: cfg.iterations,
        sim_runs,
        rows,
        deterministic: serial_results == parallel_results,
        violations,
    }
}

/// The sampling-engine workload (`stamp sample`): the single-variant
/// corpus with every WCET job walking 64 seed-pinned paths, cold
/// (fresh store) versus artifact-warm (store primed by a *plain*
/// batch pass — the walks ride on the batch's phase artifacts).
struct SamplingBench {
    workers: usize,
    samples: usize,
    cold_ms: f64,
    warm_ms: f64,
    /// Completed walks across the matrix (one measured pass).
    walks_total: u64,
    /// Whether the serial run's deterministic results were
    /// byte-identical to the warm 4-worker run's — the `--check`
    /// determinism gate (covers worker count *and* cache state).
    deterministic: bool,
    /// Whether every sampled observed-max stayed ≤ its job's WCET
    /// bound — the `--check` soundness gate.
    sound: bool,
    /// Artifact statistics of the measured warm pass alone.
    warm_stats: ArtifactStats,
}

impl SamplingBench {
    fn warm_speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            f64::NAN
        }
    }

    fn warm_samples_per_s(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.walks_total as f64 / (self.warm_ms / 1e3)
        } else {
            f64::NAN
        }
    }
}

fn sampling_request(samples: usize) -> stamp_core::BatchRequest {
    let mut request = corpus_matrix(&[BatchVariant::default()]);
    for job in &mut request.jobs {
        if job.wcet {
            job.sampling = Some(SampleParams { samples, seed: 0 });
        }
    }
    request
}

fn sampling_rows(reps: usize) -> SamplingBench {
    let samples = 64;
    let request = sampling_request(samples);
    let workers = 4;

    // Cold: a fresh store per rep — phases computed, then walked.
    let (cold_ms, _) = best_ms(reps, || {
        run_batch_with(&request, workers, &ArtifactStore::new()).expect("cold sampling batch")
    });

    // Warm: the store primed by a *plain* (non-sampling) batch pass —
    // the measured pass must answer every phase request from the store
    // and spend its time on the walks alone.
    let store = ArtifactStore::new();
    run_batch_with(&corpus_matrix(&[BatchVariant::default()]), workers, &store)
        .expect("priming batch");
    let mut warm_stats = None;
    let mut warm_results = String::new();
    let mut walks_total = 0u64;
    let mut sound = true;
    let (warm_ms, _) = best_ms(reps, || {
        let report = run_batch_with(&request, workers, &store).expect("warm sampling batch");
        warm_stats = Some(report.artifacts);
        warm_results = report.results_json().to_string();
        walks_total = 0;
        sound = true;
        for r in &report.results {
            if let Some(s) = &r.sampling {
                walks_total += s.completed as u64;
                if let (Some(observed), Some(bound)) = (s.observed_max, r.wcet) {
                    sound &= observed <= bound;
                }
            }
        }
    });

    // The determinism reference: serial workers, fresh in-memory store.
    let serial = run_batch(&request, 1).expect("serial sampling batch");

    SamplingBench {
        workers,
        samples,
        cold_ms,
        warm_ms,
        walks_total,
        deterministic: serial.results_json().to_string() == warm_results,
        sound,
        warm_stats: warm_stats.expect("at least one warm rep"),
    }
}

/// The serve-engine workload: the corpus × 3-variant request mix as
/// protocol lines through an in-process daemon
/// [`Engine`](stamp_serve::Engine), cold (fresh engine and store) versus
/// warm (same engine, store primed by a full previous pass) — the steady
/// state a long-lived daemon reaches.
struct ServeBench {
    workers: usize,
    requests_total: usize,
    cold_ms: f64,
    warm_ms: f64,
    /// Artifact statistics of the measured warm pass alone.
    warm_stats: ArtifactStats,
    /// Whether every served `result` was byte-identical to the
    /// corresponding `run_batch` job — the `--check` identity gate.
    identical_to_batch: bool,
}

impl ServeBench {
    fn warm_requests_per_s(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.requests_total as f64 / (self.warm_ms / 1e3)
        } else {
            f64::NAN
        }
    }
}

fn serve_rows(reps: usize) -> ServeBench {
    use stamp_serve::{Engine, EngineConfig};

    let request = batch_request();
    let workers = 4;
    let config = EngineConfig { workers, ..EngineConfig::default() };
    // One protocol line per batch job, with the request id set to the
    // job's display name so served results can be matched to `run_batch`
    // results one-to-one.
    let lines: Vec<String> = request
        .jobs
        .iter()
        .map(|j| {
            let variant = match j.variant.as_str() {
                "default" => String::new(),
                name => format!(r#", "variant": {{"name": "{name}", "hw": "{name}"}}"#),
            };
            format!(r#"{{"id": "{}", "job": {{"benchmark": "{}"}}{variant}}}"#, j.name(), j.target)
        })
        .collect();
    let pump = |engine: &Engine| -> Vec<Json> {
        let (tx, rx) = std::sync::mpsc::channel();
        for line in &lines {
            engine.submit(line, "bench", tx.clone());
        }
        drop(tx);
        rx.iter().collect()
    };

    // Cold: a fresh engine (and store) per rep, drained inside the
    // measurement — daemon startup to last response.
    let (cold_ms, _) = best_ms(reps, || {
        let engine = Engine::new(ArtifactStore::new(), config.clone());
        let responses = pump(&engine);
        assert_eq!(responses.len(), lines.len(), "every request is answered");
    });

    // Warm: one long-lived engine primed by a full pass; each measured
    // pass runs against the fully warm store.
    let engine = Engine::new(ArtifactStore::new(), config.clone());
    let served = pump(&engine);
    let mut warm_stats = None;
    let (warm_ms, _) = best_ms(reps, || {
        let before = engine.store().stats();
        let responses = pump(&engine);
        assert_eq!(responses.len(), lines.len(), "every request is answered");
        warm_stats = Some(engine.store().stats().since(&before));
    });

    // The identity reference: the same job matrix through `run_batch`.
    let report = run_batch(&request, workers).expect("reference batch");
    let reference: std::collections::BTreeMap<String, String> =
        report.results.iter().map(|r| (r.name.clone(), r.result_json().to_string())).collect();
    let identical_to_batch = served.len() == reference.len()
        && served.iter().all(|resp| {
            let id = resp.get("id").and_then(Json::as_str).unwrap_or("");
            resp.get("status").and_then(Json::as_str) == Some("ok")
                && resp.get("result").map(|r| r.to_string()).as_deref()
                    == reference.get(id).map(String::as_str)
        });

    ServeBench {
        workers,
        requests_total: lines.len(),
        cold_ms,
        warm_ms,
        warm_stats: warm_stats.expect("at least one warm rep"),
        identical_to_batch,
    }
}

/// The wall-time delta table: freshly measured numbers against a
/// previously committed `BENCH_kernel.json`, as markdown on stdout.
/// Purely informational — regressions warn, never fail.
#[allow(clippy::too_many_arguments)] // one parameter per report section
fn print_diff_table(
    committed_path: &str,
    corpus: &[CorpusRow],
    scaling: &[ScalingRow],
    summaries: &[SummaryRow],
    phases: &[(&'static str, f64)],
    batch: &BatchBench,
    artifacts: &ArtifactBench,
    artifacts_disk: &ArtifactDiskBench,
    fuzz: &FuzzBench,
    sampling: &SamplingBench,
    serve: &ServeBench,
) {
    let text = match std::fs::read_to_string(committed_path) {
        Ok(t) => t,
        Err(e) => {
            println!("_no committed bench file at `{committed_path}` ({e}); skipping delta table_");
            return;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            println!("_could not parse `{committed_path}` ({e}); skipping delta table_");
            return;
        }
    };
    let after = doc.get("after");
    let committed_ms = |path: &[&str]| -> Option<f64> {
        let mut v = after?;
        for k in path {
            v = v.get(k)?;
        }
        v.as_f64()
    };

    const TOLERANCE: f64 = 1.5;
    let mut lines = Vec::new();
    let mut regressed = 0usize;
    let mut row = |name: String, committed: Option<f64>, current: f64| {
        let Some(committed) = committed else {
            lines.push(format!("| {name} | — | {current:.3} | — |  |"));
            return;
        };
        let ratio = if committed > 0.0 { current / committed } else { f64::NAN };
        let flag = if ratio > TOLERANCE {
            regressed += 1;
            "⚠️"
        } else {
            ""
        };
        lines.push(format!("| {name} | {committed:.3} | {current:.3} | {ratio:.2}× | {flag} |"));
    };

    for r in corpus {
        if r.pin.wcet.is_some() {
            row(
                format!("corpus/{}", r.pin.name),
                committed_ms(&["corpus", r.pin.name, "best_ms"]),
                r.best_ms,
            );
        }
    }
    for r in scaling {
        let committed = after
            .and_then(|a| a.get("scaling"))
            .and_then(Json::as_arr)
            .and_then(|arr| {
                arr.iter().find(|e| {
                    e.get("constructs").and_then(Json::as_u64) == Some(r.constructs as u64)
                })
            })
            .and_then(|e| e.get("best_ms"))
            .and_then(Json::as_f64);
        row(format!("scaling/{}", r.constructs), committed, r.best_ms);
    }
    for r in summaries {
        let committed = doc
            .get("summaries")
            .and_then(|s| s.get("series"))
            .and_then(Json::as_arr)
            .and_then(|arr| {
                arr.iter().find(|e| {
                    e.get("constructs").and_then(Json::as_u64) == Some(r.constructs as u64)
                })
            })
            .and_then(|e| e.get("summarized_path_ms"))
            .and_then(Json::as_f64);
        row(format!("summaries/{}", r.constructs), committed, r.summarized_path_ms);
    }
    for (name, ms) in phases {
        row(format!("phases/{name}"), committed_ms(&["phases_ms", name]), *ms);
    }
    for r in &batch.rows {
        let committed = doc
            .get("batch")
            .and_then(|b| b.get("workers"))
            .and_then(Json::as_arr)
            .and_then(|arr| {
                arr.iter()
                    .find(|e| e.get("workers").and_then(Json::as_u64) == Some(r.workers as u64))
            })
            .and_then(|e| e.get("wall_ms"))
            .and_then(Json::as_f64);
        row(format!("batch/{}-workers", r.workers), committed, r.wall_ms);
    }
    let committed_artifact =
        |key: &str| doc.get("artifacts").and_then(|a| a.get(key)).and_then(Json::as_f64);
    row("artifacts/cold".to_string(), committed_artifact("cold_ms"), artifacts.cold_ms);
    row("artifacts/warm".to_string(), committed_artifact("warm_ms"), artifacts.warm_ms);
    let committed_disk =
        |key: &str| doc.get("artifacts_disk").and_then(|a| a.get(key)).and_then(Json::as_f64);
    row("artifacts_disk/cold".to_string(), committed_disk("cold_ms"), artifacts_disk.cold_ms);
    row("artifacts_disk/warm".to_string(), committed_disk("warm_ms"), artifacts_disk.warm_ms);
    for r in &fuzz.rows {
        let committed = doc
            .get("fuzz")
            .and_then(|b| b.get("workers"))
            .and_then(Json::as_arr)
            .and_then(|arr| {
                arr.iter()
                    .find(|e| e.get("workers").and_then(Json::as_u64) == Some(r.workers as u64))
            })
            .and_then(|e| e.get("wall_ms"))
            .and_then(Json::as_f64);
        row(format!("fuzz/{}-workers", r.workers), committed, r.wall_ms);
    }
    let committed_sampling =
        |key: &str| doc.get("sampling").and_then(|s| s.get(key)).and_then(Json::as_f64);
    row("sampling/cold".to_string(), committed_sampling("cold_ms"), sampling.cold_ms);
    row("sampling/warm".to_string(), committed_sampling("warm_ms"), sampling.warm_ms);
    let committed_serve =
        |key: &str| doc.get("serve").and_then(|s| s.get(key)).and_then(Json::as_f64);
    row("serve/cold".to_string(), committed_serve("cold_ms"), serve.cold_ms);
    row("serve/warm".to_string(), committed_serve("warm_ms"), serve.warm_ms);

    println!("### kernel bench wall-time delta (current vs committed)\n");
    println!("| workload | committed ms | current ms | ratio | |");
    println!("|---|---:|---:|---:|---|");
    for l in &lines {
        println!("{l}");
    }
    println!();
    if regressed > 0 {
        println!(
            "⚠️ **{regressed} workload(s) regressed past the {TOLERANCE}× wall-time \
             tolerance** (informational — wall time varies with runner load; the hard \
             gates are the pinned evaluations and batch determinism)."
        );
    } else {
        println!("All workloads within the {TOLERANCE}× wall-time tolerance.");
    }
}

fn pin_json(p: &CorpusPin) -> Json {
    Json::obj([
        ("wcet", p.wcet.map(Json::int).unwrap_or(Json::Null)),
        ("stack", Json::int(p.stack as u64)),
        ("evaluations", Json::int(p.evaluations)),
        ("fetch", Json::Arr(p.fetch.iter().map(|&v| Json::int(v as u64)).collect())),
        ("data", Json::Arr(p.data.iter().map(|&v| Json::int(v as u64)).collect())),
    ])
}

fn main() {
    let args = parse_args();
    let reps = if args.quick { 2 } else { 7 };

    eprintln!("kernel_bench: corpus ({} reps each)...", reps);
    let corpus: Vec<CorpusRow> = benchmarks().iter().map(|b| corpus_row(b.name, reps)).collect();
    eprintln!("kernel_bench: scaling series...");
    let scaling = scaling_rows(reps);
    eprintln!("kernel_bench: procedure summaries (path solver vs monolithic reference)...");
    let summaries = summaries_rows(reps);
    eprintln!("kernel_bench: matmult phase breakdown...");
    let phases = phase_rows(reps);
    eprintln!("kernel_bench: batch engine (corpus × 3 variants at 1/2/4/8 workers)...");
    let batch = batch_rows(reps);
    eprintln!("kernel_bench: artifact store (corpus matrix, cold vs warm)...");
    let artifacts = artifact_rows(reps);
    eprintln!("kernel_bench: durable store (corpus matrix, cold vs warm process)...");
    let artifacts_disk = artifact_disk_rows(reps);
    eprintln!("kernel_bench: fuzz engine (48-program differential campaign at 1/4 workers)...");
    let fuzz = fuzz_rows(reps);
    eprintln!("kernel_bench: sampling engine (corpus × 64 walks, cold vs artifact-warm)...");
    let sampling = sampling_rows(reps);
    eprintln!("kernel_bench: serve engine (corpus request mix, cold vs warm daemon)...");
    let serve = serve_rows(reps);

    if args.print_pins {
        println!("pub const CORPUS: &[CorpusPin] = &[");
        for r in &corpus {
            let p = &r.pin;
            println!(
                "    CorpusPin {{ name: {:?}, wcet: {:?}, stack: {}, evaluations: {}, fetch: {:?}, data: {:?} }},",
                p.name, p.wcet, p.stack, p.evaluations, p.fetch, p.data
            );
        }
        println!("];");
        println!("pub const SCALING_EVALS: &[(usize, u64, u64)] = &[");
        for r in &scaling {
            println!("    ({}, {}, {}),", r.constructs, r.evaluations, r.wcet);
        }
        println!("];");
    }

    // ---- Derived procedure-summary figures (shared by the gates, the
    // JSON and the stderr summary). The series endpoints frame the
    // 64 → 640 decade the tentpole claims.
    let sum_base = summaries.iter().find(|r| r.constructs == 64).expect("64 in series");
    let sum_top = summaries.last().expect("nonempty series");
    let summarized_growth = sum_top.summarized_path_ms / sum_base.summarized_path_ms.max(1e-9);
    let ilp_growth = sum_top.ilp_vars as f64 / sum_base.ilp_vars as f64;

    // ---- Drift check against the pinned corpus (CI bench-smoke gate).
    let mut drift = Vec::new();
    if args.check {
        let measured: Vec<pins::MeasuredTask> = corpus
            .iter()
            .map(|r| pins::MeasuredTask {
                name: r.pin.name.to_string(),
                wcet: r.pin.wcet,
                stack: Some(r.pin.stack),
                evaluations: r.pin.evaluations,
                fetch: r.pin.fetch,
                data: r.pin.data,
            })
            .collect();
        drift.extend(pins::check_corpus(&measured));
        for r in &scaling {
            match pins::SCALING_EVALS.iter().find(|(c, _, _)| *c == r.constructs) {
                Some(&(_, evaluations, wcet)) => {
                    if evaluations != r.evaluations {
                        drift.push(format!(
                            "scaling/{}: pinned {} evaluations != measured {}",
                            r.constructs, evaluations, r.evaluations
                        ));
                    }
                    if wcet != r.wcet {
                        drift.push(format!(
                            "scaling/{}: pinned WCET {} != measured {}",
                            r.constructs, wcet, r.wcet
                        ));
                    }
                }
                None => drift.push(format!("scaling/{}: no pin recorded", r.constructs)),
            }
        }
        // The procedure-summary gates: the segment decomposition must be
        // exact — WCET bound and ILP size equal to the monolithic
        // reference at every size — and its wall time must grow no
        // faster than the ILP itself across the 64 → 640 decade (3×
        // slack for timer noise on the sub-ms base).
        for r in &summaries {
            if !r.matches_reference {
                drift.push(format!(
                    "summaries/{}: summarized WCET or ILP size differs from the monolithic \
                     reference",
                    r.constructs
                ));
            }
        }
        if summarized_growth > 3.0 * ilp_growth {
            drift.push(format!(
                "summaries: path wall time grew {summarized_growth:.1}x over 64→{} constructs \
                 while the ILP grew {ilp_growth:.1}x (super-linear; ceiling is 3x the ILP growth)",
                sum_top.constructs
            ));
        }
        // The batch determinism gate: the 4-worker merged report must be
        // bit-identical to the serial one.
        if batch.serial_results != batch.parallel_results {
            drift.push("batch: parallel (4-worker) results differ from serial results".to_string());
        }
        // The artifact-store gates: reuse must be invisible in the
        // deterministic results, and a warm pass must actually reuse
        // (structurally ~100%; ≥50% is the acceptance floor).
        if artifacts.cached_results != artifacts.uncached_results {
            drift.push(
                "artifacts: cached batch results differ from --no-artifact-cache results"
                    .to_string(),
            );
        }
        if artifacts.warm_stats.hit_rate() < 0.5 {
            drift.push(format!(
                "artifacts: warm-pass hit rate {:.0}% below the 50% floor",
                artifacts.warm_stats.hit_rate() * 100.0
            ));
        }
        // The durable-store gates: a warm *process* (fresh in-memory
        // store over a primed directory) must be answered mostly from
        // disk (structurally ~100%; ≥50% is the acceptance floor) and
        // its deterministic results must be byte-identical to a
        // storeless run.
        if artifacts_disk.warm_results != artifacts_disk.storeless_results {
            drift.push(
                "artifacts_disk: warm-process batch results differ from storeless results"
                    .to_string(),
            );
        }
        if artifacts_disk.warm_stats.disk_hit_rate() < 0.5 {
            drift.push(format!(
                "artifacts_disk: warm-process disk hit rate {:.0}% below the 50% floor",
                artifacts_disk.warm_stats.disk_hit_rate() * 100.0
            ));
        }
        // The fuzz-engine gates: the fixed-seed campaign must be green
        // (a violation is a soundness bug) and byte-identical across
        // worker counts.
        if fuzz.violations > 0 {
            drift.push(format!(
                "fuzz: {} soundness violation(s) in the fixed-seed campaign",
                fuzz.violations
            ));
        }
        if !fuzz.deterministic {
            drift.push("fuzz: parallel (4-worker) results differ from serial results".to_string());
        }
        // The sampling-engine gates: seed-pinned walks must be
        // byte-identical across worker counts and cache states, every
        // observed-max must stay under its job's WCET bound (a sampled
        // path above the bound is a soundness counterexample), and the
        // artifact-warm pass must reuse the plain batch's phases
        // (structurally ~100%; ≥50% is the acceptance floor).
        if !sampling.deterministic {
            drift.push(
                "sampling: warm 4-worker results differ from serial cold-store results".to_string(),
            );
        }
        if !sampling.sound {
            drift.push("sampling: an observed-max exceeded its job's WCET bound".to_string());
        }
        if sampling.warm_stats.hit_rate() < 0.5 {
            drift.push(format!(
                "sampling: artifact-warm hit rate {:.0}% below the 50% floor",
                sampling.warm_stats.hit_rate() * 100.0
            ));
        }
        // The serve-engine gates: a warm daemon must answer mostly from
        // its artifact store (structurally ~100%; ≥50% is the acceptance
        // floor) and every served result must be byte-identical to
        // `run_batch` over the same job matrix.
        if !serve.identical_to_batch {
            drift.push("serve: served results differ from run_batch results".to_string());
        }
        if serve.warm_stats.hit_rate() < 0.5 {
            drift.push(format!(
                "serve: warm-daemon hit rate {:.0}% below the 50% floor",
                serve.warm_stats.hit_rate() * 100.0
            ));
        }
    }

    // ---- The before/after comparison on shared workloads.
    let sum_current_corpus: f64 = corpus
        .iter()
        .filter(|r| baseline::CORPUS_MS.iter().any(|(n, _)| *n == r.pin.name))
        .map(|r| r.best_ms)
        .sum();
    let sum_before_corpus: f64 = baseline::CORPUS_MS.iter().map(|(_, ms)| ms).sum();
    // Only the sizes the pre-refactor baseline measured — the series
    // has since been extended to 640 constructs, and summing the new
    // sizes against the old six would fabricate a slowdown.
    let sum_current_scaling: f64 = scaling
        .iter()
        .filter(|r| baseline::SCALING_MS.iter().any(|(c, _)| *c == r.constructs))
        .map(|r| r.best_ms)
        .sum();
    let sum_before_scaling: f64 = baseline::SCALING_MS.iter().map(|(_, ms)| ms).sum();
    let sum_current_phases: f64 = phases.iter().map(|(_, ms)| ms).sum();
    let sum_before_phases: f64 = baseline::PHASES_MS.iter().map(|(_, ms)| ms).sum();
    let ratio = |before: f64, after: f64| {
        if after > 0.0 {
            Json::Num(before / after)
        } else {
            Json::Null
        }
    };

    let json = Json::obj([
        ("schema", Json::str("stamp-bench-kernel/1")),
        ("generated_by", Json::str("cargo run -p stamp_bench --release --bin kernel_bench")),
        ("mode", Json::str(if args.quick { "quick" } else { "full" })),
        (
            "before",
            Json::obj([
                ("commit", Json::str(baseline::COMMIT)),
                (
                    "corpus_ms",
                    Json::Obj(
                        baseline::CORPUS_MS
                            .iter()
                            .map(|(n, ms)| (n.to_string(), Json::Num(*ms)))
                            .collect(),
                    ),
                ),
                (
                    "scaling_ms",
                    Json::Obj(
                        baseline::SCALING_MS
                            .iter()
                            .map(|(c, ms)| (c.to_string(), Json::Num(*ms)))
                            .collect(),
                    ),
                ),
                (
                    "phases_ms",
                    Json::Obj(
                        baseline::PHASES_MS
                            .iter()
                            .map(|(n, ms)| (n.to_string(), Json::Num(*ms)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "after",
            Json::obj([
                (
                    "corpus",
                    Json::Obj(
                        corpus
                            .iter()
                            .map(|r| {
                                let mut o = match pin_json(&r.pin) {
                                    Json::Obj(o) => o,
                                    _ => unreachable!(),
                                };
                                if r.pin.wcet.is_some() {
                                    o.insert("best_ms".into(), Json::Num(r.best_ms));
                                    o.insert(
                                        "phases_ms".into(),
                                        Json::Obj(
                                            r.phase_ms
                                                .iter()
                                                .map(|(n, ms)| (n.clone(), Json::Num(*ms)))
                                                .collect(),
                                        ),
                                    );
                                }
                                (r.pin.name.to_string(), Json::Obj(o))
                            })
                            .collect(),
                    ),
                ),
                (
                    "scaling",
                    Json::Arr(
                        scaling
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("constructs", Json::int(r.constructs as u64)),
                                    ("insns", Json::int(r.insns as u64)),
                                    ("nodes", Json::int(r.nodes as u64)),
                                    ("evaluations", Json::int(r.evaluations)),
                                    ("best_ms", Json::Num(r.best_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "phases_ms",
                    Json::Obj(
                        phases.iter().map(|(n, ms)| (n.to_string(), Json::Num(*ms))).collect(),
                    ),
                ),
            ]),
        ),
        (
            "speedup",
            Json::obj([
                ("corpus", ratio(sum_before_corpus, sum_current_corpus)),
                ("scaling", ratio(sum_before_scaling, sum_current_scaling)),
                ("phases", ratio(sum_before_phases, sum_current_phases)),
            ]),
        ),
        (
            "summaries",
            Json::obj([
                (
                    "series",
                    Json::Arr(
                        summaries
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("constructs", Json::int(r.constructs as u64)),
                                    ("nodes", Json::int(r.nodes as u64)),
                                    ("ilp_vars", Json::int(r.ilp_vars as u64)),
                                    ("summarized_path_ms", Json::Num(r.summarized_path_ms)),
                                    ("matches_reference", Json::Bool(r.matches_reference)),
                                    ("summaries_computed", Json::int(r.summaries_computed)),
                                    ("summaries_reused", Json::int(r.summaries_reused)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("summarized_growth_64_to_max", Json::Num(summarized_growth)),
                ("ilp_growth_64_to_max", Json::Num(ilp_growth)),
            ]),
        ),
        (
            "batch",
            Json::obj([
                ("cores", Json::int(batch.cores as u64)),
                ("jobs_total", Json::int(batch.jobs_total as u64)),
                (
                    "variants",
                    Json::Arr(batch.variants.iter().map(|v| Json::str(v.clone())).collect()),
                ),
                ("deterministic", Json::Bool(batch.serial_results == batch.parallel_results)),
                (
                    "workers",
                    Json::Arr(
                        batch
                            .rows
                            .iter()
                            .map(|r| {
                                let serial = batch.rows[0].wall_ms;
                                Json::obj([
                                    ("workers", Json::int(r.workers as u64)),
                                    ("wall_ms", Json::Num(r.wall_ms)),
                                    ("throughput_jobs_per_s", Json::Num(r.throughput_per_s)),
                                    (
                                        "speedup_vs_serial",
                                        if r.wall_ms > 0.0 {
                                            Json::Num(serial / r.wall_ms)
                                        } else {
                                            Json::Null
                                        },
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "artifacts",
            Json::obj([
                ("workers", Json::int(artifacts.workers as u64)),
                ("cold_ms", Json::Num(artifacts.cold_ms)),
                ("warm_ms", Json::Num(artifacts.warm_ms)),
                ("warm_speedup", Json::Num(artifacts.warm_speedup())),
                (
                    "deterministic",
                    Json::Bool(artifacts.cached_results == artifacts.uncached_results),
                ),
                ("cold", artifacts.cold_stats.to_json()),
                ("warm", artifacts.warm_stats.to_json()),
            ]),
        ),
        (
            "artifacts_disk",
            Json::obj([
                ("workers", Json::int(artifacts_disk.workers as u64)),
                ("cold_ms", Json::Num(artifacts_disk.cold_ms)),
                ("warm_ms", Json::Num(artifacts_disk.warm_ms)),
                ("warm_speedup", Json::Num(artifacts_disk.warm_speedup())),
                ("artifacts_on_disk", Json::int(artifacts_disk.artifacts_on_disk as u64)),
                (
                    "deterministic",
                    Json::Bool(artifacts_disk.warm_results == artifacts_disk.storeless_results),
                ),
                ("cold", artifacts_disk.cold_stats.to_json()),
                ("warm", artifacts_disk.warm_stats.to_json()),
            ]),
        ),
        (
            "fuzz",
            Json::obj([
                ("iterations", Json::int(fuzz.iterations as u64)),
                ("sim_runs", Json::int(fuzz.sim_runs)),
                ("deterministic", Json::Bool(fuzz.deterministic)),
                ("violations", Json::int(fuzz.violations as u64)),
                (
                    "workers",
                    Json::Arr(
                        fuzz.rows
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("workers", Json::int(r.workers as u64)),
                                    ("wall_ms", Json::Num(r.wall_ms)),
                                    ("programs_per_s", Json::Num(r.programs_per_s)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "sampling",
            Json::obj([
                ("workers", Json::int(sampling.workers as u64)),
                ("samples_per_job", Json::int(sampling.samples as u64)),
                ("walks_total", Json::int(sampling.walks_total)),
                ("cold_ms", Json::Num(sampling.cold_ms)),
                ("warm_ms", Json::Num(sampling.warm_ms)),
                ("warm_speedup", Json::Num(sampling.warm_speedup())),
                ("warm_samples_per_s", Json::Num(sampling.warm_samples_per_s())),
                ("deterministic", Json::Bool(sampling.deterministic)),
                ("sound", Json::Bool(sampling.sound)),
                ("warm", sampling.warm_stats.to_json()),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("workers", Json::int(serve.workers as u64)),
                ("requests_total", Json::int(serve.requests_total as u64)),
                ("cold_ms", Json::Num(serve.cold_ms)),
                ("warm_ms", Json::Num(serve.warm_ms)),
                ("warm_requests_per_s", Json::Num(serve.warm_requests_per_s())),
                ("identical_to_batch", Json::Bool(serve.identical_to_batch)),
                ("warm", serve.warm_stats.to_json()),
            ]),
        ),
        ("drift", Json::Arr(drift.iter().map(|d| Json::str(d.clone())).collect())),
    ]);

    std::fs::write(&args.out, format!("{json}\n")).expect("write BENCH_kernel.json");
    if let Some(committed) = &args.diff {
        print_diff_table(
            committed,
            &corpus,
            &scaling,
            &summaries,
            &phases,
            &batch,
            &artifacts,
            &artifacts_disk,
            &fuzz,
            &sampling,
            &serve,
        );
    }
    eprintln!(
        "kernel_bench: artifact store: cold {:.1} ms, warm {:.1} ms ({:.1}x), warm hit rate {:.0}%",
        artifacts.cold_ms,
        artifacts.warm_ms,
        artifacts.warm_speedup(),
        artifacts.warm_stats.hit_rate() * 100.0,
    );
    eprintln!(
        "kernel_bench: durable store: cold {:.1} ms, warm process {:.1} ms ({:.1}x), \
         disk hit rate {:.0}%, {} artifacts on disk",
        artifacts_disk.cold_ms,
        artifacts_disk.warm_ms,
        artifacts_disk.warm_speedup(),
        artifacts_disk.warm_stats.disk_hit_rate() * 100.0,
        artifacts_disk.artifacts_on_disk,
    );
    eprintln!(
        "kernel_bench: fuzz engine: {} programs, {:.0} programs/s serial, {} violation(s)",
        fuzz.iterations,
        fuzz.rows.first().map(|r| r.programs_per_s).unwrap_or(0.0),
        fuzz.violations,
    );
    eprintln!(
        "kernel_bench: sampling engine: {} walks, cold {:.1} ms, artifact-warm {:.1} ms \
         ({:.1}x, {:.0} samples/s), deterministic: {}, sound: {}",
        sampling.walks_total,
        sampling.cold_ms,
        sampling.warm_ms,
        sampling.warm_speedup(),
        sampling.warm_samples_per_s(),
        sampling.deterministic,
        sampling.sound,
    );
    eprintln!(
        "kernel_bench: serve engine: {} requests, cold {:.1} ms, warm {:.1} ms \
         ({:.0} requests/s), warm hit rate {:.0}%, identical to batch: {}",
        serve.requests_total,
        serve.cold_ms,
        serve.warm_ms,
        serve.warm_requests_per_s(),
        serve.warm_stats.hit_rate() * 100.0,
        serve.identical_to_batch,
    );
    eprintln!(
        "kernel_bench: procedure summaries: path solve at {} constructs {:.2} ms; wall grew \
         {:.1}x over 64→{} vs ILP {:.1}x",
        sum_top.constructs,
        sum_top.summarized_path_ms,
        summarized_growth,
        sum_top.constructs,
        ilp_growth,
    );
    eprintln!(
        "kernel_bench: corpus {:.1} ms (before {:.1}), scaling {:.1} ms (before {:.1}), phases {:.1} ms (before {:.1})",
        sum_current_corpus,
        sum_before_corpus,
        sum_current_scaling,
        sum_before_scaling,
        sum_current_phases,
        sum_before_phases,
    );
    eprintln!("kernel_bench: wrote {}", args.out);

    if !drift.is_empty() {
        eprintln!("kernel_bench: DRIFT from pinned values:");
        for d in &drift {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}
