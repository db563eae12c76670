//! Pinned analysis results for the whole corpus.
//!
//! These values were recorded with the **pre-refactor** kernel (commit
//! 848c9d7, `BTreeSet` worklist, per-edge `State::clone`, `BTreeMap`
//! cache sets) and gate every later kernel change: the solver rework of
//! the allocation-lean kernel must reproduce them **bit-identically** —
//! same WCET and stack bounds, same cache classification counts, same
//! solver `evaluations` — or the worklist reordering changed analysis
//! semantics rather than just its speed.
//!
//! Checked by the `corpus_pins` regression test and by
//! `kernel_bench --check` (the CI `bench-smoke` job). Regenerate with
//! `cargo run -p stamp_bench --release --bin kernel_bench -- --print-pins`
//! — but only after convincing yourself the drift is an intended
//! precision change, not an accident.

/// Pinned per-benchmark analysis invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusPin {
    /// Benchmark name (`stamp_suite::benchmarks`).
    pub name: &'static str,
    /// WCET bound in cycles; `None` for stack-only (recursive) tasks.
    pub wcet: Option<u64>,
    /// Stack bound in bytes.
    pub stack: u32,
    /// Total solver node evaluations (value + cache + pipeline), 0 for
    /// stack-only tasks.
    pub evaluations: u64,
    /// I-cache classifications `[always-hit, always-miss, persistent,
    /// not-classified]`.
    pub fetch: [usize; 4],
    /// D-cache classifications, same order.
    pub data: [usize; 4],
}

/// The pinned corpus results (see module docs for provenance).
#[rustfmt::skip] // table: one pin per line, matching --print-pins output
pub const CORPUS: &[CorpusPin] = &[
    CorpusPin { name: "fibcall", wcet: Some(242), stack: 0, evaluations: 20, fetch: [11, 3, 0, 0], data: [0, 0, 0, 0] },
    CorpusPin { name: "insertsort", wcet: Some(1090), stack: 0, evaluations: 75, fetch: [42, 6, 1, 0], data: [1, 1, 3, 0] },
    CorpusPin { name: "bsort", wcet: Some(1468), stack: 0, evaluations: 96, fetch: [42, 5, 0, 0], data: [3, 1, 4, 0] },
    CorpusPin { name: "matmult", wcet: Some(4680), stack: 0, evaluations: 142, fetch: [212, 10, 0, 0], data: [2, 2, 12, 0] },
    CorpusPin { name: "crc", wcet: Some(443), stack: 0, evaluations: 15, fetch: [22, 5, 0, 0], data: [1, 2, 1, 0] },
    CorpusPin { name: "fir", wcet: Some(1824), stack: 0, evaluations: 58, fetch: [79, 7, 0, 0], data: [1, 2, 5, 0] },
    CorpusPin { name: "bs", wcet: Some(299), stack: 0, evaluations: 64, fetch: [28, 7, 1, 0], data: [0, 2, 0, 1] },
    CorpusPin { name: "cnt", wcet: Some(286), stack: 0, evaluations: 55, fetch: [20, 4, 0, 0], data: [0, 1, 1, 0] },
    CorpusPin { name: "switchcase", wcet: Some(279), stack: 0, evaluations: 66, fetch: [30, 8, 3, 0], data: [2, 2, 0, 0] },
    CorpusPin { name: "prime", wcet: Some(385), stack: 0, evaluations: 57, fetch: [14, 3, 0, 0], data: [0, 0, 0, 0] },
    CorpusPin { name: "statemate", wcet: Some(284), stack: 0, evaluations: 43, fetch: [22, 6, 0, 0], data: [0, 1, 1, 0] },
    CorpusPin { name: "nested", wcet: Some(134), stack: 112, evaluations: 34, fetch: [18, 6, 0, 0], data: [0, 2, 0, 0] },
    CorpusPin { name: "arraysum", wcet: Some(3243), stack: 0, evaluations: 18, fetch: [16, 3, 0, 0], data: [0, 1, 1, 0] },
    CorpusPin { name: "fdct", wcet: Some(195), stack: 0, evaluations: 16, fetch: [31, 7, 0, 0], data: [4, 1, 3, 0] },
    CorpusPin { name: "ns", wcet: Some(1735), stack: 0, evaluations: 184, fetch: [127, 8, 1, 0], data: [1, 1, 6, 0] },
    CorpusPin { name: "memcpy", wcet: Some(308), stack: 0, evaluations: 19, fetch: [17, 4, 0, 0], data: [0, 1, 1, 1] },
    CorpusPin { name: "fac", wcet: None, stack: 88, evaluations: 0, fetch: [0, 0, 0, 0], data: [0, 0, 0, 0] },
];

/// Pinned solver evaluations and WCET bounds of the E6 scaling series
/// `(constructs, evaluations, wcet)`. The WCET column guards the loop
/// instance keying and the path ILP at sizes the corpus does not reach.
pub const SCALING_EVALS: &[(usize, u64, u64)] = &[
    (2, 84, 2357),
    (4, 42, 497),
    (8, 133, 980),
    (16, 124, 1243),
    (32, 538, 6539),
    (64, 824, 7825),
    (128, 2042, 22921),
    (256, 4423, 40153),
    (640, 10418, 94870),
];

/// One task's measured invariants, in pin-comparable form. `stack` is
/// an `Option` because a failed stack analysis measures as "absent"
/// (and must therefore drift against any pin).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasuredTask {
    /// Task name (matched against [`CorpusPin::name`]).
    pub name: String,
    /// Measured WCET bound.
    pub wcet: Option<u64>,
    /// Measured stack bound.
    pub stack: Option<u32>,
    /// Measured solver evaluations.
    pub evaluations: u64,
    /// Measured I-cache classifications.
    pub fetch: [usize; 4],
    /// Measured D-cache classifications.
    pub data: [usize; 4],
}

impl MeasuredTask {
    fn matches(&self, pin: &CorpusPin) -> bool {
        self.wcet == pin.wcet
            && self.stack == Some(pin.stack)
            && self.evaluations == pin.evaluations
            && self.fetch == pin.fetch
            && self.data == pin.data
    }
}

/// Compares measured corpus results against [`CORPUS`], returning one
/// human-readable drift line per divergence (empty means green). The
/// single comparison used by every pin gate — `kernel_bench --check`
/// and `stamp batch --check-pins` — so a pin-field change cannot make
/// the two gates diverge.
pub fn check_corpus(measured: &[MeasuredTask]) -> Vec<String> {
    let mut drift = Vec::new();
    for pin in CORPUS {
        match measured.iter().find(|m| m.name == pin.name) {
            None => drift.push(format!("{}: pinned but not measured", pin.name)),
            Some(m) if !m.matches(pin) => {
                drift.push(format!("{}: pinned {pin:?} != measured {m:?}", pin.name))
            }
            _ => {}
        }
    }
    for m in measured {
        if !CORPUS.iter().any(|p| p.name == m.name) {
            drift.push(format!("{}: no pin recorded", m.name));
        }
    }
    drift
}
