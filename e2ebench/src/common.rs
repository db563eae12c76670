//! Shared pieces of the three workloads: the result shape, the
//! per-layer metric table, statistics, seeding and process probes.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_core::Annotations;
use stamp_isa::Program;
use stamp_suite::oracle::{self, OracleConfig};

use crate::trace::Tracer;

/// Analysis threads every workload may use (the machine has two cores).
pub const WORKERS: usize = 2;

/// Every per-layer metric, in output order, with its unit. The traced
/// run prints all of them on every workload; a layer that does no work
/// on a workload reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("isa.assemble_ms", "ms"),
    ("cfg.build_ms", "ms"),
    ("cfg.blocks", "count"),
    ("ai.context_ms", "ms"),
    ("ai.nodes", "count"),
    ("ai.evaluations", "count"),
    ("value.ms", "ms"),
    ("loopbound.ms", "ms"),
    ("loopbound.instances", "count"),
    ("cache.ms", "ms"),
    ("pipeline.ms", "ms"),
    ("path.ms", "ms"),
    ("path.ilp_vars", "count"),
    ("path.summaries_computed", "count"),
    ("path.summaries_reused", "count"),
    ("uarch.summaries_computed", "count"),
    ("uarch.summaries_reused", "count"),
    ("stack.ms", "ms"),
    ("sample.ms", "ms"),
    ("sample.walks", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.waits", "count"),
    ("store.hit_rate", "ratio"),
    ("store.assemble.hits", "count"),
    ("store.assemble.misses", "count"),
    ("store.cfg.hits", "count"),
    ("store.cfg.misses", "count"),
    ("store.context.hits", "count"),
    ("store.context.misses", "count"),
    ("store.value.hits", "count"),
    ("store.value.misses", "count"),
    ("store.loopbound.hits", "count"),
    ("store.loopbound.misses", "count"),
    ("store.cache.hits", "count"),
    ("store.cache.misses", "count"),
    ("store.pipeline.hits", "count"),
    ("store.pipeline.misses", "count"),
    ("store.path.hits", "count"),
    ("store.path.misses", "count"),
    ("store.stack.hits", "count"),
    ("store.stack.misses", "count"),
    ("store.summary.hits", "count"),
    ("store.summary.misses", "count"),
    ("store.uarch.hits", "count"),
    ("store.uarch.misses", "count"),
    ("store.hits_disk", "count"),
    ("store_disk.open_ms", "ms"),
    ("store_disk.records", "count"),
    ("store_disk.log_mb", "MB"),
    ("exec.job_ms_p50", "ms"),
    ("exec.busy_share", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.read_latency_p50_ms", "ms"),
    ("serve.write_latency_p50_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.timeouts", "count"),
    ("trace.overhead_share", "ratio"),
];

/// The work counters that must repeat exactly at one seed (checked by
/// `--selftest`).
pub const DETERMINISTIC: &[&str] = &[
    "ai.evaluations",
    "ai.nodes",
    "cfg.blocks",
    "loopbound.instances",
    "path.ilp_vars",
    "store.misses",
    "store_disk.records",
    "sample.walks",
];

/// Phase names whose store counters are reported per phase.
pub const STORE_PHASES: &[&str] = &[
    "assemble",
    "cfg",
    "context",
    "value",
    "loopbound",
    "cache",
    "pipeline",
    "path",
    "stack",
    "summary",
    "uarch",
];

/// Work counters of a traced pass (deterministic: serial, in order).
#[derive(Default)]
pub struct LayerCounters {
    pub blocks: u64,
    pub nodes: u64,
    pub evaluations: u64,
    pub loop_instances: u64,
    pub ilp_vars: u64,
    pub summaries_computed: u64,
    pub summaries_reused: u64,
    pub uarch_computed: u64,
    pub uarch_reused: u64,
    pub walks: u64,
}

/// Per-layer metrics of a traced pass: mean self time per verdict and
/// the pass's work counters.
pub fn layer_metrics(
    out: &mut Outcome,
    trace: &Tracer,
    verdicts: usize,
    programs: usize,
    c: &LayerCounters,
) {
    let self_ms = trace.self_ms();
    let per = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let v = verdicts.max(1) as f64;
    out.layer("isa.assemble_ms", per("isa.assemble") / programs.max(1) as f64);
    for (span, metric) in crate::PHASE_METRICS {
        out.layer(metric, per(span) / v);
    }
    out.layer("cfg.blocks", c.blocks as f64);
    out.layer("ai.nodes", c.nodes as f64);
    out.layer("ai.evaluations", c.evaluations as f64);
    out.layer("loopbound.instances", c.loop_instances as f64);
    out.layer("path.ilp_vars", c.ilp_vars as f64);
    out.layer("path.summaries_computed", c.summaries_computed as f64);
    out.layer("path.summaries_reused", c.summaries_reused as f64);
    out.layer("uarch.summaries_computed", c.uarch_computed as f64);
    out.layer("uarch.summaries_reused", c.uarch_reused as f64);
    out.layer("sample.walks", c.walks as f64);
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts attempted in the timed loop(s).
    pub attempted: u64,
    /// Verdicts that failed: an analysis error, a non-`ok` serve status
    /// or a wrong output.
    pub failed: u64,
    /// Correctness findings; the run is correct when there are none.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced loop).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics by name (traced run); missing names print 0.
    pub layers: std::collections::BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.to_string(), value, unit });
    }

    /// Sets a per-layer metric; the name must be in [`LAYER_METRICS`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let (key, _) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
        self.layers.insert(key, value);
    }

    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            eprintln!("e2ebench: check failed: {message}");
        }
        self.problems.push(message);
    }

    /// The per-layer metrics in table order.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: self.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Sets the store counters from an `ArtifactStats`-shaped reading.
    pub fn store_layers(&mut self, stats: &StoreReading) {
        self.layer("store.hits", stats.hits as f64);
        self.layer("store.misses", stats.misses as f64);
        self.layer("store.waits", stats.waits as f64);
        self.layer("store.hits_disk", stats.hits_disk as f64);
        let requests = stats.hits + stats.hits_disk + stats.misses;
        let rate = if requests > 0 {
            (stats.hits + stats.hits_disk) as f64 / requests as f64
        } else {
            0.0
        };
        self.layer("store.hit_rate", rate);
        for (phase, hits, misses) in &stats.phases {
            if let Some(&p) = STORE_PHASES.iter().find(|p| **p == phase.as_str()) {
                self.layer(&format!("store.{p}.hits"), *hits as f64);
                self.layer(&format!("store.{p}.misses"), *misses as f64);
            }
        }
    }
}

/// Artifact-store counters, from `ArtifactStats` or from the daemon's
/// `stats` response. Per-phase hits include disk hits.
#[derive(Debug, Default)]
pub struct StoreReading {
    pub hits: u64,
    pub hits_disk: u64,
    pub misses: u64,
    pub waits: u64,
    pub phases: Vec<(String, u64, u64)>,
}

impl StoreReading {
    pub fn from_stats(stats: &stamp_core::ArtifactStats) -> StoreReading {
        StoreReading {
            hits: stats.hits(),
            hits_disk: stats.hits_disk(),
            misses: stats.misses(),
            waits: stats.phases.iter().map(|p| p.waits).sum(),
            phases: stats
                .phases
                .iter()
                .map(|p| (p.phase.to_string(), p.hits + p.hits_disk, p.misses))
                .collect(),
        }
    }

    pub fn from_json(stats: &stamp_core::Json) -> StoreReading {
        let num = |j: &stamp_core::Json, k: &str| j.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
        let mut reading = StoreReading {
            hits: num(stats, "hits"),
            hits_disk: num(stats, "hits_disk"),
            misses: num(stats, "misses"),
            ..StoreReading::default()
        };
        if let Some(phases) = stats.get("phases").and_then(|p| p.as_obj()) {
            for (name, p) in phases {
                reading.waits += num(p, "waits");
                reading.phases.push((
                    name.clone(),
                    num(p, "hits") + num(p, "hits_disk"),
                    num(p, "misses"),
                ));
            }
        }
        reading
    }
}

/// The workload's input rng: a function of the workload's name and the
/// seed only.
pub fn rng_for(stream: &str, seed: u64) -> StdRng {
    StdRng::seed_from_u64(fnv(stream.as_bytes()) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// FNV-1a, used for result digests and rng streams.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of unsorted samples (0 on no samples).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many samples lie strictly beyond the nearest-rank percentile.
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize
}

/// The slowest of an item's repeated times (0 on no samples).
pub fn slowest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// The latency note stating each percentile's sample support: `how`
/// says what the samples are.
pub fn latency_note(what: &str, samples: &[f64], how: &str) -> String {
    let n = samples.len();
    format!(
        "{what}: {n} samples ({how}); p50 {:.3} ms, p90 {:.3} ms ({} beyond), \
         p99 {:.3} ms ({} beyond)",
        percentile(samples, 50.0),
        percentile(samples, 90.0),
        beyond(n, 90.0),
        percentile(samples, 99.0),
        beyond(n, 99.0),
    )
}

/// Peak resident set (`VmHWM`) of a process in MB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: bad VmHWM line `{line}`"))?;
    Ok(kb / 1024.0)
}

/// Runs the shared differential oracle (`stamp_suite::oracle`) on a
/// generated program and checks that it reproduces the verdict the
/// timed loop produced: simulated cycles ≤ WCET and observed stack ≤
/// stack bound, with the same bounds.
pub fn oracle_check(
    program: &Program,
    scratch_bytes: u32,
    config: &stamp_core::AnalysisConfig,
    expected: (Option<u64>, Option<u32>),
    rng: &mut StdRng,
) -> Result<(), String> {
    let oracle_cfg = OracleConfig {
        hw: config.hw,
        value: config.value.clone(),
        rounds: 2,
        samples: 0,
        ..OracleConfig::default()
    };
    let report = oracle::check(
        program,
        &Annotations::new(),
        Some(("scratch", scratch_bytes)),
        &oracle_cfg,
        rng,
    )
    .map_err(|v| format!("oracle violation: {v:?}"))?;
    if (report.wcet, Some(report.stack_bound)) != expected {
        return Err(format!(
            "oracle bounds (wcet {:?}, stack {}) differ from the measured verdict {expected:?}",
            report.wcet, report.stack_bound
        ));
    }
    Ok(())
}
