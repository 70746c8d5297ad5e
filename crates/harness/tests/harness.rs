//! Integration tests for the experiment engine: determinism across
//! worker counts, exactly-once caching across experiments, and golden
//! comparison against the committed `results/*.txt` files (fast-subset
//! rows of full-suite experiments, whole reports of fast-only ones).

use lvp_harness::{experiment, Engine, FAST_WORKLOADS};

fn run_named(engine: &Engine, name: &str) -> String {
    let def = experiment(name).unwrap_or_else(|| panic!("unknown experiment {name}"));
    (def.run)(engine)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"))
        .render_text()
}

/// Acceptance: output is byte-identical at any worker count. The engine
/// merges results in plan order, so a serial run and a heavily
/// oversubscribed run must render the same bytes.
#[test]
fn parallel_output_is_byte_identical_to_serial() {
    for name in ["fig1", "table3"] {
        let serial = run_named(&Engine::fast().with_threads(1), name);
        let parallel = run_named(&Engine::fast().with_threads(8), name);
        assert_eq!(serial, parallel, "{name} differs between 1 and 8 threads");
        assert!(!serial.is_empty());
    }
}

/// Acceptance: two experiments in one process generate each (workload,
/// profile) trace exactly once. table3 and table4 plan the identical
/// (profile × config) matrix, so table4 must be served entirely from
/// the caches table3 populated.
#[test]
fn traces_and_annotations_are_computed_exactly_once() {
    let engine = Engine::new()
        .with_workload_names(&["sc"])
        .unwrap()
        .with_threads(4);

    run_named(&engine, "table3");
    let after_t3 = engine.stats();
    // One workload under two profiles: exactly two phase-1 runs; two
    // configs per profile: exactly four annotation passes.
    assert_eq!(after_t3.traces_computed, 2, "{after_t3:?}");
    assert_eq!(after_t3.annotations_computed, 4, "{after_t3:?}");

    run_named(&engine, "table4");
    let after_t4 = engine.stats();
    assert_eq!(
        after_t4.traces_computed, 2,
        "table4 re-traced: {after_t4:?}"
    );
    assert_eq!(
        after_t4.annotations_computed, 4,
        "table4 re-annotated: {after_t4:?}"
    );
    assert!(
        after_t4.annotation_hits > after_t3.annotation_hits,
        "table4 did not hit the annotation cache: {after_t4:?}"
    );
}

/// Rows for the fast workloads, tokenized by whitespace. Aggregate rows
/// (GM/Total/Mean) and full-suite-only rows are excluded, since those
/// legitimately differ between the fast subset and the committed
/// full-suite output; column widths differ too, which is why rows are
/// compared token-wise rather than byte-wise.
fn fast_rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|first| FAST_WORKLOADS.contains(&first))
        })
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// Golden test: the harness reproduces the committed `results/*.txt`
/// numbers for the fast-subset workloads. Every measurement in these
/// experiments is per-workload, so fast-subset rows must match the
/// full-suite files exactly (modulo alignment).
#[test]
fn fast_subset_matches_committed_results() {
    let engine = Engine::fast().with_threads(4);
    for name in ["table1", "fig1", "fig6"] {
        let rendered = run_named(&engine, name);
        let golden_path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
        let got = fast_rows(&rendered);
        let want = fast_rows(&golden);
        assert!(
            !want.is_empty(),
            "{name}: no fast-workload rows in {golden_path}"
        );
        assert_eq!(
            got, want,
            "{name}: fast-subset rows diverge from {golden_path}"
        );
    }
}

/// Golden test: experiments that always run on the fast subset render
/// their committed `results/<name>.txt` byte for byte, so a change that
/// moves any of their numbers must regenerate the file (`lvp bench
/// <name> | sed '/^\[<name>: /,$d' > results/<name>.txt`).
#[test]
fn fast_subset_experiments_match_committed_results_byte_for_byte() {
    let engine = Engine::fast().with_threads(2);
    for name in ["ablation_predictor", "ablation_hints"] {
        let rendered = run_named(&engine, name);
        let golden_path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
        assert_eq!(
            rendered, golden,
            "{name}: output diverges from {golden_path}; regenerate it"
        );
    }
}
