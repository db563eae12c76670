//! The procedure-summary solver's contract: segment decomposition is
//! *exact*. The production path solve proves the same WCET over the
//! same ILP as the monolithic reference solve
//! (`stamp_path::analyze_reference`) on the same phase artifacts, and
//! batch results are byte-identical at every worker count, while the
//! timing layer records real summary reuse.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp::analyzer::{run_batch, AnalysisConfig, Annotations, ArtifactStore};
use stamp::path::{analyze_reference, PathOptions};
use stamp::suite::{corpus_matrix, generate, GenConfig};
use stamp::{assemble, BatchVariant, HwConfig, Program, WcetAnalysis};

/// A path verdict: the WCET bound and the ILP size `(vars, constraints)`.
type PathVerdict = (u64, (usize, usize));

/// The production path verdict for `program` next to the reference
/// solve over the very artifacts the production run produced.
fn production_and_reference(
    program: &Program,
    config: &AnalysisConfig,
    annotations: &Annotations,
) -> (PathVerdict, PathVerdict) {
    let (_, a) = WcetAnalysis::new(program)
        .config(config.clone())
        .annotations(annotations.clone())
        .run_full(&ArtifactStore::disabled())
        .expect("analysis");
    let options = PathOptions { use_infeasible: config.use_infeasible, ..PathOptions::default() };
    let reference =
        analyze_reference(&a.cfg, &a.icfg, &a.va, &a.lb, &a.pa, &options).expect("reference");
    ((a.path.wcet, a.path.ilp_size), (reference.wcet, reference.ilp_size))
}

/// The tentpole identity: every corpus program under the default,
/// no-cache and ideal hardware, plus the E6 scaling series up to 128
/// constructs, gets the reference solver's WCET and ILP size.
#[test]
fn summarized_path_equals_the_reference_on_corpus_and_e6() {
    let variant = |name: &str, hw: HwConfig| BatchVariant {
        name: name.to_string(),
        config: AnalysisConfig { hw, ..AnalysisConfig::default() },
        sampling: None,
    };
    let request = corpus_matrix(&[
        variant("default", HwConfig::default()),
        variant("no-cache", HwConfig::no_cache()),
        variant("ideal", HwConfig::ideal()),
    ]);
    let mut checked = 0;
    for job in request.jobs.iter().filter(|j| j.wcet) {
        let program = assemble(&job.source).expect("corpus assembles");
        let (production, reference) =
            production_and_reference(&program, &job.config, &job.annotations);
        assert_eq!(production, reference, "{}", job.name());
        checked += 1;
    }
    assert!(checked >= 3 * 10, "only {checked} corpus jobs checked");

    // The E6 series, generated exactly as kernel_bench does.
    let mut rng = StdRng::seed_from_u64(0xE6);
    for constructs in [2, 4, 8, 16, 32, 64, 128] {
        let cfg = GenConfig { constructs, functions: 2, ..GenConfig::default() };
        let program = assemble(&generate(&mut rng, &cfg)).expect("generated");
        let (production, reference) =
            production_and_reference(&program, &AnalysisConfig::default(), &Annotations::new());
        assert_eq!(production, reference, "E6 at {constructs} constructs");
    }
}

/// Batch results are byte-identical at one, two and eight workers, and
/// every WCET in them is the reference solver's.
#[test]
fn summarized_corpus_results_match_monolithic_at_every_worker_count() {
    let request = corpus_matrix(&[BatchVariant::default()]);
    let serial = run_batch(&request, 1).unwrap();
    assert_eq!(serial.errors(), 0);
    for (job, result) in request.jobs.iter().zip(&serial.results) {
        if job.wcet {
            let program = assemble(&job.source).unwrap();
            let (_, (reference_wcet, _)) =
                production_and_reference(&program, &job.config, &job.annotations);
            assert_eq!(result.wcet, Some(reference_wcet), "{}", job.name());
        }
    }
    for workers in [2usize, 8] {
        let parallel = run_batch(&request, workers).unwrap();
        assert_eq!(
            parallel.results_json().to_string(),
            serial.results_json().to_string(),
            "results differ at {workers} workers"
        );
    }
}

/// A call-heavy task whose supergraph decomposes at every return: the
/// memo solves fewer segments than it serves, and the counts surface
/// in the report's timing layer.
const CALLS: &str = "\
    .text
    main: call f
          call f
          call f
          halt
    f:    div r1, r2, r3
          ret
";

/// The render layer reports the summary counts; the deterministic JSON
/// stays witness-free.
#[test]
fn summary_counts_live_in_the_timing_layer_only() {
    let program = assemble(CALLS).unwrap();
    let report = WcetAnalysis::new(&program).run().unwrap();
    assert!(report.summaries_computed > 0);
    assert!(report.summaries_reused > 0, "isomorphic call segments must be recalled");
    let rendered = report.render(&program);
    assert!(rendered.contains("procedure summaries"), "{rendered}");
    let json = report.to_json().to_string();
    assert!(!json.contains("summar"), "deterministic JSON must not carry provenance: {json}");
}
