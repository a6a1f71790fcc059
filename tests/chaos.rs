//! Chaos round trip over the real binary: a `momsim serve` child process
//! is SIGKILLed mid-`fig4`, restarted on the same store and journal, and
//! must finish the job under its original id, serve the report
//! byte-identically to the committed `BENCH_fig4.json`, and recompute
//! strictly fewer timing simulations than the full grid holds.

use momsim::obs::json::Json;
use momsim::serve::client::{request_json_with, request_raw_with, RetryPolicy};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn policy() -> RetryPolicy {
    RetryPolicy {
        retries: 4,
        backoff: Duration::from_millis(50),
        timeout: Duration::from_secs(60),
    }
}

fn get(addr: &str, path: &str) -> (u16, Json) {
    request_json_with(addr, "GET", path, None, &policy())
        .unwrap_or_else(|e| panic!("GET {path} must not fail at the transport level: {e}"))
}

fn u(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing numeric '{key}' in {doc}"))
}

/// A daemon child whose process is killed on drop, so a failing assertion
/// never leaks a listener into the test harness.
struct DaemonChild {
    child: Child,
    addr: String,
}

impl DaemonChild {
    /// Spawns `momsim serve` on an ephemeral port against `store`, parses
    /// the advertised address off stdout, and keeps the pipe drained.
    fn spawn(store: &Path, extra: &[&str]) -> DaemonChild {
        let mut child = Command::new(env!("CARGO_BIN_EXE_momsim"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--store")
            .arg(store)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("momsim serve must spawn");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).expect("daemon stdout") > 0 {
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
            line.clear();
        }
        let addr = addr.expect("the daemon announces its address before exiting");
        // Keep draining so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        DaemonChild { child, addr }
    }

    /// SIGKILLs the daemon — no drain, no journal truncation, exactly the
    /// crash the journal exists for.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        self.child.wait().expect("reap the daemon");
    }

    /// Asks the daemon to drain and waits for a clean exit.
    fn shutdown(mut self) {
        let (status, doc) = request_json_with(&self.addr, "POST", "/shutdown", None, &policy())
            .expect("shutdown transport");
        assert_eq!(status, 200, "{doc}");
        assert_eq!(
            u(&doc, "dropped_queued"),
            0,
            "a drained daemon drops nothing"
        );
        let status = self.child.wait().expect("the daemon exits after draining");
        assert!(status.success(), "clean shutdown exits 0: {status}");
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn wait_until(addr: &str, job: u64, deadline: Duration, ready: impl Fn(&Json) -> bool) -> Json {
    let end = Instant::now() + deadline;
    loop {
        let (status, doc) = get(addr, &format!("/jobs/{job}"));
        assert_eq!(status, 200, "job {job} must stay visible: {doc}");
        if ready(&doc) {
            return doc;
        }
        assert!(Instant::now() < end, "job {job} never got ready: {doc}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The value of a plain (unlabelled) counter in a Prometheus exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.split_whitespace().next_back())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or_else(|| panic!("no metric '{name}' in the exposition"))
}

#[test]
fn sigkilled_daemon_recovers_the_job_from_its_journal() {
    let store = std::env::temp_dir().join(format!("mom-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // Phase 1: a daemon whose workers dawdle (so the kill lands mid-job)
    // accepts fig4 and makes a visible dent in it.
    let victim = DaemonChild::spawn(&store, &["--inject", "seed=7,worker-delay=1,delay-ms=60"]);
    let (status, doc) = request_json_with(
        &victim.addr,
        "POST",
        "/jobs",
        Some(b"{\"experiment\": \"fig4\"}"),
        &policy(),
    )
    .expect("submit transport");
    assert_eq!(status, 202, "{doc}");
    let job = u(&doc, "job");
    let points = u(&doc, "points");
    assert_eq!(
        u(&doc, "scheduled"),
        points,
        "a cold store schedules all of fig4"
    );

    let addr = victim.addr.clone();
    let progress = wait_until(&addr, job, Duration::from_secs(120), |doc| {
        u(doc, "completed") >= 3
    });
    let completed_at_kill = u(&progress, "completed");
    assert!(completed_at_kill < points, "the kill must land mid-job");
    victim.kill();

    // Phase 2: a fresh daemon on the same store finds the journal, re-admits
    // the job under its original id, and finishes only what was lost.
    let heir = DaemonChild::spawn(&store, &[]);
    let (status, health) = get(&heir.addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(u(&health, "recovered_jobs"), 1, "{health}");
    assert!(
        u(&health, "recovered_units_done") >= 3,
        "finished units are answered from the store: {health}"
    );
    assert!(
        u(&health, "recovered_units_requeued") >= 1,
        "the lost remainder is requeued: {health}"
    );

    let done = wait_until(&heir.addr, job, Duration::from_secs(600), |doc| {
        doc.get("state").and_then(Json::as_str) != Some("running")
    });
    assert_eq!(
        done.get("state").and_then(Json::as_str),
        Some("done"),
        "{done}"
    );
    assert_eq!(u(&done, "completed"), points);
    assert_eq!(u(&done, "failed"), 0);

    // The replayed report is byte-identical to the committed artifact.
    let (status, bytes) = request_raw_with(&heir.addr, "GET", "/reports/fig4", None, &policy())
        .expect("replay transport");
    assert_eq!(status, 200);
    let committed =
        std::fs::read(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_fig4.json"))
            .expect("the committed BENCH_fig4.json");
    assert_eq!(
        bytes, committed,
        "the recovered daemon serves the committed report byte-for-byte"
    );

    // The restart recomputed strictly less than the whole grid: the units
    // the victim finished came back as store hits.
    let (status, bytes) = request_raw_with(&heir.addr, "GET", "/metrics", None, &policy())
        .expect("metrics transport");
    assert_eq!(status, 200);
    let exposition = String::from_utf8(bytes).expect("metrics are UTF-8");
    let resimulated = metric(&exposition, "momsim_timing_simulations_total");
    assert!(
        resimulated > 0 && resimulated < points,
        "only the lost units are recomputed: {resimulated} of {points}"
    );

    heir.shutdown();
    let journal = std::fs::metadata(store.join("journal.wal")).expect("the journal file exists");
    assert_eq!(journal.len(), 0, "a clean drain truncates the journal");
    let _ = std::fs::remove_dir_all(&store);
}
