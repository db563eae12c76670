//! Regression pins for the whole corpus: WCET and stack bounds, solver
//! `evaluations` and cache classification counts must match the values
//! recorded with the pre-refactor kernel exactly. Guards against
//! accidental precision or termination changes from worklist reordering,
//! state-sharing bugs, or cache-set representation drift.

use stamp_bench::pins::{CorpusPin, CORPUS, SCALING_EVALS};
use stamp_core::{AnalysisConfig, StackAnalysis, WcetAnalysis};
use stamp_suite::benchmarks;

#[test]
fn every_corpus_benchmark_is_pinned() {
    let names: Vec<&str> = benchmarks().iter().map(|b| b.name).collect();
    for b in &names {
        assert!(CORPUS.iter().any(|p| p.name == *b), "benchmark {b} has no pin");
    }
    for p in CORPUS {
        assert!(names.contains(&p.name), "pin {} has no benchmark", p.name);
    }
}

#[test]
fn corpus_results_match_pins_bit_for_bit() {
    for b in benchmarks() {
        let pin = CORPUS.iter().find(|p| p.name == b.name).expect("pinned");
        let program = b.program();
        let stack = StackAnalysis::new(&program)
            .annotations(b.annotations())
            .run()
            .expect("stack analysis")
            .bound;
        let measured = if b.supports_wcet {
            let r = WcetAnalysis::new(&program)
                .config(AnalysisConfig::default())
                .annotations(b.annotations())
                .run()
                .expect("wcet analysis");
            CorpusPin {
                name: b.name,
                wcet: Some(r.wcet),
                stack,
                evaluations: r.evaluations,
                fetch: [
                    r.fetch_stats.hit,
                    r.fetch_stats.miss,
                    r.fetch_stats.persistent,
                    r.fetch_stats.unclassified,
                ],
                data: [
                    r.data_stats.hit,
                    r.data_stats.miss,
                    r.data_stats.persistent,
                    r.data_stats.unclassified,
                ],
            }
        } else {
            CorpusPin {
                name: b.name,
                wcet: None,
                stack,
                evaluations: 0,
                fetch: [0; 4],
                data: [0; 4],
            }
        };
        assert_eq!(
            *pin, measured,
            "{}: drift from pinned kernel results — if intended, regenerate \
             with `kernel_bench --print-pins`",
            b.name
        );
    }
}

#[test]
fn scaling_series_evaluations_match_pins() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stamp_isa::asm::assemble;
    use stamp_suite::{generate, GenConfig};

    let mut rng = StdRng::seed_from_u64(0xE6);
    for &(constructs, evaluations, wcet) in SCALING_EVALS {
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let src = generate(&mut rng, &cfg);
        let program = assemble(&src).expect("generated");
        let report = WcetAnalysis::new(&program).run().expect("analysis");
        assert_eq!(
            report.evaluations, evaluations,
            "scaling/{constructs}: solver evaluations drifted"
        );
        assert_eq!(report.wcet, wcet, "scaling/{constructs}: WCET bound drifted");
    }
}
