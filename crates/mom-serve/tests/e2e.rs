//! End-to-end daemon test over real HTTP: submit a registered experiment,
//! stream its results, replay the committed report byte-identically, and
//! prove a resubmission performs **zero** new timing simulations.  One
//! `#[test]` only: the assertions ride on process-global counters.
//!
//! The store is pointed at a private temp directory before anything
//! touches the process-global instance.

use mom_obs::json::Json;
use mom_serve::client::request_json;
use mom_serve::{serve, serve_with, Daemon, ServeConfig};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn private_store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mom-serve-e2e-{}", std::process::id()));
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir.clone()),
            cold: false,
        })
        .expect("configure must run before the first store use");
        dir
    })
}

fn get(addr: &str, path: &str) -> (u16, Json) {
    request_json(addr, "GET", path, None).expect("GET must not fail at the transport level")
}

fn post(addr: &str, path: &str, body: &str) -> (u16, Json) {
    request_json(addr, "POST", path, Some(body.as_bytes()))
        .expect("POST must not fail at the transport level")
}

fn u(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing numeric '{key}' in {doc}"))
}

fn wait_done(addr: &str, job: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let (status, doc) = get(addr, &format!("/jobs/{job}"));
        assert_eq!(status, 200, "job {job} must stay visible: {doc}");
        if doc.get("state").and_then(Json::as_str) != Some("running") {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {job} never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn daemon_round_trip_dedup_and_shutdown() {
    private_store_dir();
    mom_store::global().clear().expect("start cold");

    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_limit: 4,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr().to_string();

    // Liveness, unknown routes, and replay-before-results refusal.
    assert_eq!(get(&addr, "/healthz").0, 200);
    assert_eq!(get(&addr, "/jobs/999").0, 404);
    assert_eq!(get(&addr, "/nope").0, 404);
    assert_eq!(get(&addr, "/reports/frobnicate").0, 404);
    let (status, doc) = get(&addr, "/reports/fig4");
    assert_eq!(status, 409, "cold store cannot replay: {doc}");
    let (status, doc) = post(&addr, "/jobs", "{\"experiment\": \"fig9000\"}");
    assert_eq!(status, 400, "unknown experiments are rejected: {doc}");
    let (status, _) = post(&addr, "/jobs", "not json {{{");
    assert_eq!(status, 400);

    // --- Submit fig4 over HTTP and wait for it. ---
    let fig4 = mom_bench::find_experiment("fig4").expect("registered");
    let points = fig4.spec().expect("fig4 is a grid").points() as u64;
    let (status, doc) = post(&addr, "/jobs", "{\"experiment\": \"fig4\"}");
    assert_eq!(status, 202, "{doc}");
    let job = u(&doc, "job");
    assert_eq!(u(&doc, "points"), points);
    assert_eq!(
        u(&doc, "scheduled"),
        points,
        "cold store schedules everything"
    );
    let done = wait_done(&addr, job);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(u(&done, "completed"), points);
    assert_eq!(u(&done, "failed"), 0);
    let rows = done.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len() as u64, points, "one streamed row per grid point");

    // The streamed rows match the batch grid document field-for-field:
    // running the spec in-process now is pure store hits (the daemon
    // filled it), and grid rows use the same `point_json` emitter.
    let grid = mom_bench::grid_json(&fig4.spec().expect("grid").run().expect("store hits"));
    let grid_rows = grid.get("points").and_then(Json::as_arr).expect("points");
    assert_eq!(rows, grid_rows, "streamed rows == batch grid rows");

    // The derived figure document is what the replay endpoint serves.
    let report = fig4.run().expect("all store hits").json();

    // --- Replay: byte-identical to the batch emitter, zero simulation. ---
    let timing_before = mom_pipeline::timing_simulations();
    let (status, bytes) = mom_serve::client::request_raw(&addr, "GET", "/reports/fig4", None)
        .expect("replay transport");
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(bytes).expect("utf8"),
        report.pretty(),
        "replay must serve the committed document byte-identically"
    );

    // --- Resubmit: 100% dedup, zero new timing simulations. ---
    let (status, doc) = post(&addr, "/jobs", "{\"experiment\": \"fig4\"}");
    assert_eq!(status, 202, "{doc}");
    assert_eq!(
        u(&doc, "scheduled"),
        0,
        "warm resubmission schedules nothing"
    );
    assert_eq!(
        u(&doc, "deduped"),
        points,
        "every point answered at submit time"
    );
    let resubmitted = u(&doc, "job");
    let done = wait_done(&addr, resubmitted);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        mom_pipeline::timing_simulations(),
        timing_before,
        "a deduplicated job must not simulate anything"
    );

    // --- The application scenario flows through the same queue. ---
    let (status, doc) = post(&addr, "/jobs", "{\"experiment\": \"app-speedups\"}");
    assert_eq!(status, 202, "{doc}");
    let apps_job = u(&doc, "job");
    let done = wait_done(&addr, apps_job);
    assert_eq!(
        done.get("state").and_then(Json::as_str),
        Some("done"),
        "{done}"
    );
    let rows = done.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 18, "6 apps x 3 media ISAs");
    let (status, _) = get(&addr, "/reports/apps");
    assert_eq!(status, 200, "apps report replayable once the scenario ran");

    // --- Job listing shows all three. ---
    let (status, doc) = get(&addr, "/jobs");
    assert_eq!(status, 200);
    assert_eq!(
        doc.get("jobs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(3)
    );

    // --- Backpressure and cancellation, deterministic via zero workers. ---
    let parked = Daemon::new(0, 1);
    let parked_server = serve_with(parked, "127.0.0.1:0").expect("bind");
    let parked_addr = parked_server.addr().to_string();
    let body =
        "{\"kernels\": [\"addblock\"], \"isas\": [\"mom\"], \"widths\": [2], \"replication\": 64}";
    let (status, doc) = post(&parked_addr, "/jobs", body);
    assert_eq!(status, 202, "{doc}");
    let parked_job = u(&doc, "job");
    assert_eq!(
        u(&doc, "scheduled"),
        1,
        "nothing in the store for this point"
    );
    let other =
        "{\"kernels\": [\"motion1\"], \"isas\": [\"mom\"], \"widths\": [2], \"replication\": 64}";
    let (status, doc) = post(&parked_addr, "/jobs", other);
    assert_eq!(status, 429, "bounded queue rejects while full: {doc}");
    let (status, doc) = request_json(&parked_addr, "DELETE", &format!("/jobs/{parked_job}"), None)
        .expect("cancel transport");
    assert_eq!(status, 200);
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("cancelled"));
    let (status, doc) = post(&parked_addr, "/jobs", other);
    assert_eq!(status, 202, "cancellation frees the queue slot: {doc}");
    let queued_job = u(&doc, "job");

    // --- Shutdown: drains, drops the queued unit, rejects new work. ---
    // (Post-shutdown state is asserted through the queue handle: the
    // accept loop stops once /shutdown responds, so further HTTP requests
    // would race its exit.)
    let parked_daemon = std::sync::Arc::clone(parked_server.daemon());
    let (status, doc) = post(&parked_addr, "/shutdown", "");
    assert_eq!(status, 200, "{doc}");
    assert_eq!(u(&doc, "dropped_queued"), 1, "the parked unit is dropped");
    parked_server.join();
    let snapshot = parked_daemon
        .snapshot(queued_job)
        .expect("job stays visible");
    assert_eq!(
        snapshot.state,
        mom_serve::queue::JobState::Cancelled,
        "a job whose queued units were dropped reads as cancelled"
    );
    let request =
        mom_serve::wire::parse_submit(&mom_obs::json::parse(body).expect("valid submission"))
            .expect("valid request");
    assert!(
        matches!(
            parked_daemon.submit(request),
            Err(mom_serve::SubmitError::ShuttingDown)
        ),
        "draining daemons reject submissions"
    );

    let (status, doc) = post(&addr, "/shutdown", "");
    assert_eq!(status, 200, "{doc}");
    server.join();
}
