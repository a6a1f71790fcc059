//! Threaded-sweep determinism: `momsim sweep --jobs N` must emit every
//! report document byte-identically to the default sweep, for any worker
//! count, and do exactly the same work.  The store is bypassed so every run
//! actually computes — this pins the scheduler's result ordering, not the
//! store's replay.

use mom_bench::cli::sweep_documents;

/// The rendered documents of one sweep, with the timing simulations and
/// functional executions it ran.
fn measured_sweep(jobs: Option<usize>) -> (Vec<(String, String)>, u64, u64) {
    let timing_before = mom_pipeline::timing_simulations();
    let functional_before = mom_kernels::functional_executions();
    let documents = sweep_documents(jobs)
        .expect("sweep must succeed")
        .into_iter()
        .map(|(name, doc, _points)| (name.to_string(), doc.pretty()))
        .collect();
    (
        documents,
        mom_pipeline::timing_simulations() - timing_before,
        mom_kernels::functional_executions() - functional_before,
    )
}

#[test]
fn threaded_sweeps_emit_identical_bytes() {
    let _bypass = mom_store::bypass_guard();
    // The first sweep fills the process-wide functional trace cache; the
    // second is the reference every thread count must match exactly: the
    // same timing simulations and no functional re-execution.
    let (first, ..) = measured_sweep(None);
    let (single, timing, functional) = measured_sweep(None);
    assert!(!single.is_empty(), "the sweep emits documents");
    assert_eq!(first, single, "the default sweep is deterministic");
    assert!(timing > 0, "a bypassed sweep simulates");
    for jobs in [1, 2, 3] {
        let (threaded, threaded_timing, threaded_functional) = measured_sweep(Some(jobs));
        assert_eq!(
            single.len(),
            threaded.len(),
            "--jobs {jobs} emits the same document set"
        );
        for ((name, want), (threaded_name, got)) in single.iter().zip(&threaded) {
            assert_eq!(name, threaded_name);
            assert_eq!(
                want, got,
                "{name} must be byte-identical under --jobs {jobs}"
            );
        }
        assert_eq!(
            (threaded_timing, threaded_functional),
            (timing, functional),
            "--jobs {jobs} runs as many timing simulations and functional executions as the default sweep"
        );
    }
}
