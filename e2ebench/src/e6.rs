//! `e6_large`: the single big task an engineer waits on.
//!
//! Programs in the E6 shape (`functions: 2`) at 256, 640 and 1280
//! constructs each get a WCET verdict and then a stack verdict, one
//! program at a time on one thread, with no artifact store shared
//! between programs. The untraced loop calls the production entry
//! points (`WcetAnalysis::run`, `StackAnalysis::run`); the traced loop
//! composes the same phases by hand from the phase crates' public
//! functions, the way `WcetAnalysis::run` chains them, with one span
//! around each.

use std::time::{Duration, Instant};

use stamp_ai::Icfg;
use stamp_cache::{CacheAnalysis, LocalUarchMemo};
use stamp_cfg::CfgBuilder;
use stamp_core::{AnalysisConfig, StackAnalysis, WcetAnalysis};
use stamp_isa::asm::assemble;
use stamp_isa::Program;
use stamp_loopbound::{LoopBoundAnalysis, LoopBoundOptions};
use stamp_path::{LocalMemo, PathOptions};
use stamp_pipeline::PipelineAnalysis;
use stamp_suite::{generate, GenConfig};
use stamp_value::ValueAnalysis;

use crate::common::{self, median, ms, percentile, LayerCounters, Outcome};
use crate::trace::Tracer;

/// Construct counts, cycled through the pool.
const SIZES: [usize; 3] = [256, 640, 1280];
/// Programs per size.
const PER_SIZE: usize = 10;
/// Minimum set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Task {
    constructs: usize,
    program: Program,
    scratch_bytes: u32,
}

/// Generates and assembles the pool (the whole of `e6_large`'s set-up).
/// Also returns a digest of the generated sources.
fn make_pool(seed: u64, tracer: &mut Tracer) -> Result<(Vec<Task>, u64), String> {
    let mut rng = common::rng_for("e6_large", seed);
    let mut pool = Vec::new();
    let mut sources = String::new();
    for i in 0..SIZES.len() * PER_SIZE {
        let constructs = SIZES[i % SIZES.len()];
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let source = generate(&mut rng, &cfg);
        sources.push_str(&source);
        let program = tracer
            .span("isa.assemble", i as u64, None, || assemble(&source))
            .map_err(|e| format!("generated program {i} does not assemble: {e}"))?;
        pool.push(Task { constructs, program, scratch_bytes: cfg.scratch_bytes() });
    }
    Ok((pool, common::fnv(sources.as_bytes())))
}

/// One program's verdict: WCET bound and stack bound.
type Verdict = (u64, u32);

/// Per-program record of the verdicts a loop produced.
struct Loop {
    /// Wall times per pool index, one per pass.
    by_task: Vec<Vec<f64>>,
    /// Seconds spent in the loop.
    seconds: f64,
    failed: u64,
}

impl Loop {
    fn new(n: usize) -> Loop {
        Loop { by_task: vec![Vec::new(); n], seconds: 0.0, failed: 0 }
    }

    fn verdicts(&self) -> usize {
        self.by_task.iter().map(Vec::len).sum()
    }

    /// Passes after the first, which is a warm-up.
    fn timed_passes(&self) -> usize {
        self.by_task[0].len() - 1
    }

    /// Each program's slowest verdict time over the timed passes. The
    /// host's speed drifts with other tenants' load by up to 2x over
    /// minutes, and a busy host runs at a steady floor speed; a
    /// program's slowest time is its time at that floor, steadier from
    /// run to run than its median or fastest time (see README.md).
    fn slowest(&self) -> Vec<f64> {
        self.by_task.iter().map(|t| common::slowest(&t[1..])).collect()
    }

    /// The cost of one pass over the pool, each program at its slowest.
    fn pass_ms(&self) -> f64 {
        self.slowest().iter().sum()
    }
}

/// Checks a verdict against the first verdict of the same program.
fn settle(
    first: &mut [Option<Verdict>],
    i: usize,
    got: Result<Verdict, String>,
    out: &mut Outcome,
) -> bool {
    match got {
        Err(e) => {
            out.problem(format!("program {i}: {e}"));
            false
        }
        Ok(v) => match first[i] {
            None => {
                first[i] = Some(v);
                true
            }
            Some(f) if f == v => true,
            Some(f) => {
                out.problem(format!("program {i}: verdict {v:?} differs from earlier {f:?}"));
                false
            }
        },
    }
}

/// The production verdict.
fn production(p: &Program, counters: Option<&mut LayerCounters>) -> Result<Verdict, String> {
    let report = WcetAnalysis::new(p).run().map_err(|e| format!("wcet: {e}"))?;
    let stack = StackAnalysis::new(p).run().map_err(|e| format!("stack: {e}"))?;
    if let Some(c) = counters {
        c.blocks += report.blocks as u64;
        c.nodes += report.nodes as u64;
        c.evaluations += report.evaluations;
        c.ilp_vars += report.ilp_size.0 as u64;
        c.summaries_computed += report.summaries_computed;
        c.summaries_reused += report.summaries_reused;
        c.uarch_computed += report.uarch_computed;
        c.uarch_reused += report.uarch_reused;
    }
    Ok((report.wcet, stack.bound))
}

/// The hand-composed verdict: each phase crate's public entry point,
/// one span each, under one `verdict` span. Like `WcetAnalysis::run`
/// without a store, the cache and pipeline phases run over per-procedure
/// summaries with a fresh memo each and fall back to the monolithic
/// fixpoint when nothing is summarizable, and the path phase shares
/// segment summaries within the program.
fn composed(
    p: &Program,
    req: u64,
    tr: &mut Tracer,
    counters: Option<&mut LayerCounters>,
) -> Result<Verdict, String> {
    let config = AnalysisConfig::default();
    let v = tr.start("verdict", req, None);
    let cfg = tr
        .span("cfg.build", req, Some(v), || CfgBuilder::new(p).build())
        .map_err(|e| format!("cfg: {e}"))?;
    if !cfg.unresolved_indirects().is_empty() {
        return Err("unresolved indirect jumps (generated programs have none)".to_string());
    }
    let icfg = tr
        .span("ai.context", req, Some(v), || Icfg::build(&cfg, &config.vivu))
        .map_err(|e| format!("context: {e}"))?;
    let va = tr.span("value", req, Some(v), || {
        ValueAnalysis::run(p, &config.hw, &cfg, &icfg, &config.value)
    });
    let lb = tr.span("loopbound", req, Some(v), || {
        LoopBoundAnalysis::run(p, &cfg, &icfg, &va, &LoopBoundOptions::default())
    });
    let hw = &config.hw;
    let summarized = config.uarch_summaries;
    let ca = tr.span("cache", req, Some(v), || {
        let mut memo = LocalUarchMemo::default();
        summarized
            .then(|| CacheAnalysis::run_summarized(hw, &cfg, &icfg, &va, &mut memo))
            .flatten()
            .map(|(ca, _)| ca)
            .unwrap_or_else(|| CacheAnalysis::run(hw, &cfg, &icfg, &va))
    });
    let pa = tr.span("pipeline", req, Some(v), || {
        let mut memo = LocalUarchMemo::default();
        summarized
            .then(|| PipelineAnalysis::run_summarized(hw, &cfg, &icfg, &ca, &va, &mut memo))
            .flatten()
            .map(|(pa, _)| pa)
            .unwrap_or_else(|| PipelineAnalysis::run(hw, &cfg, &icfg, &ca, &va))
    });
    let options =
        PathOptions { use_infeasible: config.use_infeasible, summaries: config.summaries };
    let result = tr
        .span("path", req, Some(v), || {
            let memo = LocalMemo::default();
            stamp_path::analyze_with_memo(&cfg, &icfg, &va, &lb, &pa, &options, &memo)
        })
        .map_err(|e| format!("path: {e}"))?;
    let stack = tr
        .span("stack", req, Some(v), || StackAnalysis::new(p).run())
        .map_err(|e| format!("stack: {e}"))?;
    tr.end(v);
    if let Some(c) = counters {
        c.loop_instances += (lb.bounds().len() + lb.unbounded().len()) as u64;
    }
    Ok((result.wcet, stack.bound))
}

/// A verdict function: `(verdict index, program, first pass?)`.
type VerdictFn<'a> = &'a mut dyn FnMut(usize, &Program, bool) -> Result<Verdict, String>;

/// Runs verdicts round-robin over the pool, one loop per verdict
/// function, alternating between them verdict by verdict, in whole
/// passes over the pool until each loop has had `budget`, two passes at
/// least (a warm-up and a timed one). Whole passes weight every program
/// equally and check every program at least once. Every verdict must
/// equal the first one for its program.
fn timed(
    pool: &[Task],
    budget: Duration,
    first: &mut [Option<Verdict>],
    out: &mut Outcome,
    verdicts: &mut [VerdictFn<'_>],
    between_passes: &mut dyn FnMut(),
) -> Vec<Loop> {
    let mut loops: Vec<Loop> = verdicts.iter().map(|_| Loop::new(pool.len())).collect();
    let mut k = 0;
    let short = |loops: &[Loop]| loops.iter().any(|l| l.seconds < budget.as_secs_f64());
    while k < 2 * pool.len() || k % pool.len() != 0 || short(&loops) {
        let i = k % pool.len();
        if i == 0 && k > 0 {
            between_passes();
        }
        for (verdict, lp) in verdicts.iter_mut().zip(&mut loops) {
            let t = Instant::now();
            let got = verdict(k, &pool[i].program, k < pool.len());
            let elapsed = t.elapsed();
            if !settle(first, i, got, out) {
                lp.failed += 1;
            }
            lp.seconds += elapsed.as_secs_f64();
            lp.by_task[i].push(ms(elapsed));
        }
        k += 1;
    }
    loops
}

pub fn run(seed: u64, seconds: f64, trace: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // ---- Set-up: generation and assembly. It is repeated between
    // passes, outside the timed loop, so the median `setup_s` samples
    // the whole run rather than one moment of it; every repetition must
    // rebuild the same inputs.
    let t = Instant::now();
    let (pool, inputs) = make_pool(seed, trace)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let mut same_inputs = true;
    let mut set_up_again = || {
        let t = Instant::now();
        let again = make_pool(seed, &mut Tracer::disabled());
        setup.push(t.elapsed().as_secs_f64());
        same_inputs &= again.map(|(_, digest)| digest) == Ok(inputs);
    };
    let n = pool.len();
    let budget = Duration::from_secs_f64(seconds);

    // ---- The untraced loop calls the production entry points. With
    // tracing on, a traced verdict composed by hand from the phases
    // follows each untraced one; its WCET and stack bound must equal
    // the production verdict.
    let traced_on = trace.is_on();
    let mut first: Vec<Option<Verdict>> = vec![None; n];
    let mut counters = LayerCounters::default();
    let mut composed_counters = LayerCounters::default();
    let mut plain_fn = |_: usize, p: &Program, first_pass: bool| {
        production(p, if first_pass { Some(&mut counters) } else { None })
    };
    let mut traced_fn = |k: usize, p: &Program, first_pass: bool| {
        composed(p, k as u64, trace, if first_pass { Some(&mut composed_counters) } else { None })
    };
    let mut fns: Vec<VerdictFn<'_>> = vec![&mut plain_fn];
    if traced_on {
        fns.push(&mut traced_fn);
    }
    let loops = timed(&pool, budget, &mut first, &mut out, &mut fns, &mut set_up_again);
    drop(fns);
    // One set-up so far per pass (the first before the loop).
    for _ in loops[0].by_task[0].len()..SETUP_REPS {
        set_up_again();
    }
    if !same_inputs {
        out.problem("one seed built different inputs in one run".to_string());
    }
    let rss = common::peak_rss_mb("self")?;
    for lp in &loops {
        out.attempted += lp.verdicts() as u64;
        out.failed += lp.failed;
    }
    let plain = &loops[0];
    if let Some(traced) = loops.get(1) {
        counters.loop_instances = composed_counters.loop_instances;
        common::layer_metrics(&mut out, trace, traced.verdicts(), n, &counters);
        out.layer("trace.overhead_share", traced.pass_ms() / plain.pass_ms() - 1.0);
    }

    // ---- Oracle: simulated cycles and stack stay within the bounds,
    // and the oracle's own analysis reproduces the measured verdict.
    let mut rng = common::rng_for("e6_large/oracle", seed);
    let config = AnalysisConfig::default();
    for (i, task) in pool.iter().enumerate() {
        let Some((wcet, stack)) = first[i] else { continue };
        if let Err(e) = common::oracle_check(
            &task.program,
            task.scratch_bytes,
            &config,
            (Some(wcet), Some(stack)),
            &mut rng,
        ) {
            out.problem(format!("program {i} ({} constructs): {e}", task.constructs));
            out.failed += plain.by_task[i].len() as u64;
        }
    }

    // Each program at its slowest verdict of the timed passes: verdicts
    // per second over one pass, and the percentiles over the pool.
    let lat = plain.slowest();
    out.e2e("throughput_per_s", n as f64 / (plain.pass_ms() / 1e3), "1/s");
    out.e2e("latency_p50_ms", percentile(&lat, 50.0), "ms");
    out.e2e("latency_p90_ms", percentile(&lat, 90.0), "ms");
    out.e2e("latency_p99_ms", percentile(&lat, 99.0), "ms");
    out.e2e("setup_s", median(&setup), "s");
    out.e2e("peak_rss_mb", rss, "MB");
    out.notes.push(format!(
        "e6_large: {n} programs ({PER_SIZE} each at {SIZES:?} constructs), {} verdicts in {:.2} s",
        plain.verdicts(),
        plain.seconds
    ));
    let how =
        format!("each program's slowest of {} passes after a warm-up pass", plain.timed_passes());
    out.notes.push(common::latency_note("verdict latency", &lat, &how));
    Ok(out)
}
