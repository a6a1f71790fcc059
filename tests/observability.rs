//! Observability must be free: with span tracing enabled, a warm sweep
//! still performs **zero** functional executions and **zero** timing
//! simulations and emits byte-identical report documents — and the
//! Chrome trace export is well-formed JSON the workspace's own parser
//! accepts, with the expected event shape.
//!
//! The store is pointed at a private temp directory before anything
//! touches the process-global instance.

use momsim::bench::cli::sweep_documents;
use momsim::obs::json::{parse, Json};
use std::path::PathBuf;
use std::sync::OnceLock;

fn private_store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mom-observability-{}", std::process::id()));
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir.clone()),
            cold: false,
        })
        .expect("configure must run before the first store use");
        dir
    })
}

fn rendered_sweep() -> Vec<(String, String)> {
    sweep_documents(None)
        .expect("sweep must succeed")
        .into_iter()
        .map(|(name, doc, _points)| (name.to_string(), doc.pretty()))
        .collect()
}

#[test]
fn tracing_is_neutral_and_the_chrome_export_is_well_formed() {
    let dir = private_store_dir();
    let store = mom_store::global();
    assert_eq!(store.dir(), Some(dir.as_path()), "private store in effect");
    store.clear().expect("start from a cold store");

    // --- Cold sweep with tracing off: fills the store. ---
    let cold = rendered_sweep();

    // --- Warm sweep with tracing on: still zero recomputation, same bytes. ---
    momsim::obs::enable_tracing();
    let functional_before = momsim::kernels::functional_executions();
    let timing_before = momsim::pipeline::timing_simulations();
    let warm = rendered_sweep();
    assert_eq!(
        momsim::kernels::functional_executions(),
        functional_before,
        "a traced warm sweep must not execute any kernel functionally"
    );
    assert_eq!(
        momsim::pipeline::timing_simulations(),
        timing_before,
        "a traced warm sweep must not run any timing simulation"
    );
    assert_eq!(cold, warm, "tracing must not change a single report byte");
    assert!(
        momsim::obs::trace_event_count() > 0,
        "the warm sweep's store reads must record spans"
    );

    // --- The export is valid JSON in the Chrome trace-event shape. ---
    let exported = momsim::obs::export_chrome_trace();
    let doc = parse(&exported).expect("the Chrome trace export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents must be an array");
    assert!(!events.is_empty(), "the trace must contain events");
    for event in events {
        assert_eq!(
            event.get("ph").and_then(Json::as_str),
            Some("X"),
            "every event is a complete (X) event: {event:?}"
        );
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(event.get(key).is_some(), "event missing {key}: {event:?}");
        }
        let ts = event.get("ts").and_then(Json::as_u64);
        assert!(ts.is_some(), "ts must be a non-negative integer: {event:?}");
    }
    // The sweep-level spans fire regardless of cache state, so the sweep
    // category must be represented even on a fully warm sweep.
    assert!(
        events
            .iter()
            .any(|event| { event.get("cat").and_then(Json::as_str) == Some("sweep") }),
        "sweep spans must appear in the trace"
    );

    let _ = std::fs::remove_dir_all(dir);
}
