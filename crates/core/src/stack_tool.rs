//! The StackAnalyzer product: per-task worst-case stack bounds.
//!
//! The stack tool rides the same phase graph as the WCET analyzer: its
//! CFG / context / value prefix is the WCET driver's own CFG ↔ value
//! loop, which resolves indirect jumps before any bound is taken
//! (always at default VIVU and value options — stack bounds do not
//! depend on unrolling contexts). It goes through the shared
//! [`ArtifactStore`], so in a batch a target's stack
//! analysis and its WCET analysis share one value fixpoint, and a
//! hardware sweep shares the stack bound itself across variants (only
//! the memory map reaches the stack fingerprint).

use std::collections::BTreeMap;
use std::time::Instant;

use stamp_ai::IcfgError;
use stamp_hw::HwConfig;
use stamp_isa::Program;
use stamp_stack::{FunctionStack, StackOptions};

use crate::analyzer::{resolve_prefix, AnalysisConfig};
use crate::annot::Annotations;
use crate::artifact::ArtifactStore;
use crate::error::AnalysisError;
use crate::json::Json;
use crate::phase::{self, PhaseId};
use crate::report::PhaseStats;

/// Result of a stack analysis.
#[derive(Clone, Debug)]
pub struct StackReport {
    /// Worst-case stack usage of the task in bytes.
    pub bound: u32,
    /// Which analysis produced the bound: `"precise"` (supergraph replay)
    /// or `"callgraph"` (compositional, used for recursive tasks).
    pub mode: &'static str,
    /// Per-function breakdown (callgraph mode only).
    pub per_function: BTreeMap<String, FunctionStack>,
    /// Per-phase timing and artifact provenance of *this run* (excluded
    /// from [`StackReport::to_json`]: provenance depends on scheduling,
    /// and the JSON rendering is deterministic).
    pub phases: Vec<PhaseStats>,
}

impl StackReport {
    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stack_bound", Json::int(self.bound as u64)),
            ("mode", Json::str(self.mode)),
            (
                "functions",
                Json::Obj(
                    self.per_function
                        .iter()
                        .map(|(n, f)| {
                            (
                                n.clone(),
                                Json::obj([
                                    ("local", Json::int(f.local as u64)),
                                    ("usage", Json::int(f.usage as u64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl stamp_codec::Codec for StackReport {
    /// Stored stack artifacts always carry an empty `phases` vector
    /// (provenance is per-run, never shared), so the field is not
    /// persisted and decodes as empty.
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.bound);
        e.u8(match self.mode {
            "precise" => 0,
            "callgraph" => 1,
            other => unreachable!("unknown stack mode {other:?}"),
        });
        self.per_function.enc(e);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<StackReport, stamp_codec::CodecError> {
        let bound = d.u32()?;
        let mode = match d.u8()? {
            0 => "precise",
            1 => "callgraph",
            _ => return Err(stamp_codec::CodecError::Invalid("stack mode")),
        };
        Ok(StackReport { bound, mode, per_function: BTreeMap::dec(d)?, phases: Vec::new() })
    }
}

/// The stack analyzer. Prefers the precise supergraph mode and falls
/// back to the compositional call-graph mode when the task is recursive
/// (which then requires recursion-depth annotations).
///
/// # Example
///
/// ```
/// use stamp_isa::asm::assemble;
/// use stamp_core::StackAnalysis;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = assemble(".text\nmain: addi sp, sp, -64\naddi sp, sp, 64\nhalt\n")?;
/// let report = StackAnalysis::new(&p).run()?;
/// assert_eq!(report.bound, 64);
/// # Ok(())
/// # }
/// ```
pub struct StackAnalysis<'p> {
    program: &'p Program,
    hw: HwConfig,
    annotations: Annotations,
}

impl<'p> StackAnalysis<'p> {
    /// Creates a stack analyzer with the default hardware model.
    pub fn new(program: &'p Program) -> StackAnalysis<'p> {
        StackAnalysis { program, hw: HwConfig::default(), annotations: Annotations::new() }
    }

    /// Sets the hardware model (memory map / stack top).
    pub fn hw(mut self, hw: HwConfig) -> Self {
        self.hw = hw;
        self
    }

    /// Attaches annotations (recursion depths, indirect targets).
    pub fn annotations(mut self, annotations: Annotations) -> Self {
        self.annotations = annotations;
        self
    }

    /// Analyzes the task at the program's entry point.
    pub fn run(&self) -> Result<StackReport, AnalysisError> {
        self.run_program(self.program, &ArtifactStore::disabled())
    }

    /// Like [`StackAnalysis::run`], but sharing phase artifacts through
    /// `store` (see the module docs). The report is identical except
    /// for timing and provenance.
    pub fn run_with(&self, store: &ArtifactStore) -> Result<StackReport, AnalysisError> {
        self.run_program(self.program, store)
    }

    /// Analyzes the task whose entry is the given symbol (for multi-task
    /// images, one task per OSEK task entry).
    pub fn run_task(&self, entry_symbol: &str) -> Result<StackReport, AnalysisError> {
        let addr = self
            .program
            .symbols
            .addr_of(entry_symbol)
            .ok_or_else(|| AnalysisError::UnknownSymbol { name: entry_symbol.to_string() })?;
        let mut program = self.program.clone();
        program.entry = addr;
        // The entry point is part of the program fingerprint, so
        // per-task artifacts of a multi-task image never collide.
        self.run_program(&program, &ArtifactStore::disabled())
    }

    fn run_program(
        &self,
        program: &Program,
        store: &ArtifactStore,
    ) -> Result<StackReport, AnalysisError> {
        let mut phases: Vec<PhaseStats> = Vec::new();
        let extra = self.annotations.resolved_indirects(program);
        let recursion = self.annotations.resolved_recursion(program);
        let config = AnalysisConfig { hw: self.hw, ..AnalysisConfig::default() };
        let prefix = resolve_prefix(store, program, extra, &config, &mut phases)?;
        let cfg = &prefix.cfg;

        // Phase boundary = cancellation point (see the WCET driver).
        stamp_exec::cancel::checkpoint_now();
        let t = Instant::now();
        let (report, reused) = match prefix.context {
            Ok((icfg, va, value_fp)) => {
                let stack_fp = phase::stack_fingerprint(value_fp, &recursion);
                store.get_or_compute(PhaseId::Stack, stack_fp, || {
                    let precise = stamp_stack::analyze_icfg(program, &self.hw, cfg, &icfg, &va)?;
                    // The callgraph mode also provides the per-function
                    // table.
                    let breakdown = stamp_stack::analyze_callgraph(
                        program,
                        cfg,
                        &StackOptions { recursion_depths: recursion.clone() },
                    )
                    .map(|r| r.per_function)
                    .unwrap_or_default();
                    Ok(StackReport {
                        bound: precise.total,
                        mode: "precise",
                        per_function: breakdown,
                        phases: Vec::new(),
                    })
                })?
            }
            // Recursion: fall back to the compositional mode (the cached
            // context error carries the variant, so sharing jobs take
            // the same branch).
            Err(AnalysisError::Icfg(
                IcfgError::CallDepthExceeded { .. } | IcfgError::ContextExplosion { .. },
            )) => {
                // Without a value analysis nothing resolves indirect
                // jumps, and a call graph cut off at one is unsound.
                if !cfg.unresolved_indirects().is_empty() {
                    return Err(AnalysisError::UnresolvedIndirects {
                        addrs: cfg.unresolved_indirects().to_vec(),
                    });
                }
                let stack_fp =
                    phase::stack_callgraph_fingerprint(prefix.cfg_fp, &self.hw.mem, &recursion);
                store.get_or_compute(PhaseId::Stack, stack_fp, || {
                    let opts = StackOptions { recursion_depths: recursion.clone() };
                    let r = stamp_stack::analyze_callgraph(program, cfg, &opts)?;
                    Ok(StackReport {
                        bound: r.total,
                        mode: "callgraph",
                        per_function: r.per_function,
                        phases: Vec::new(),
                    })
                })?
            }
            Err(e) => return Err(e),
        };
        phases.push(PhaseStats {
            phase: PhaseId::Stack,
            seconds: t.elapsed().as_secs_f64(),
            reused,
        });
        Ok(StackReport { phases, ..(*report).clone() })
    }
}
