//! Fault-tolerance suite: supervised workers retry injected panics to
//! success, exhausted retries fail the job with unit coordinates, the
//! crash journal re-admits unfinished jobs recomputing only lost units,
//! slow clients get 408, injected accept faults are ridden out by the
//! client's retry policy, the accept loop answers without a polling floor,
//! and `POST /shutdown` wakes a blocked accept.
//!
//! The fault plane and the artifact store are process-global, so every
//! test serialises on one mutex and clears its fault plan before
//! returning.

use mom_bench::ExperimentSpec;
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::{MemoryModel, PipelineConfig};
use mom_serve::client::{request_json_with, RetryPolicy};
use mom_serve::journal::{self, Journal, Record};
use mom_serve::queue::{JobState, Supervision};
use mom_serve::wire::JobRequest;
use mom_serve::{serve_with, serve_with_timeout, Daemon};
use mom_store::faults::{self, FaultPlan, FaultSite};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn private_store_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("mom-serve-robust-{}", std::process::id()));
        mom_store::configure(mom_store::StoreConfig {
            dir: Some(dir.clone()),
            cold: false,
        })
        .expect("configure must run before the first store use");
        dir
    })
}

/// One kernel, one ISA, one point per width — the cheapest honest grid.
fn spec(widths: &[usize]) -> ExperimentSpec {
    ExperimentSpec {
        kernels: vec![KernelId::AddBlock],
        isas: vec![IsaKind::Mom],
        configs: widths.iter().map(|&w| PipelineConfig::way(w)).collect(),
        replication: 64,
        ..ExperimentSpec::default()
    }
}

fn grid(label: &str, widths: &[usize]) -> JobRequest {
    JobRequest::Grid {
        label: label.to_string(),
        spec: spec(widths),
    }
}

/// Tight supervision so retry tests finish in milliseconds.
fn fast_supervision() -> Supervision {
    Supervision {
        retries: 3,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        deadline: Duration::from_secs(120),
    }
}

#[test]
fn injected_worker_panics_are_retried_to_success() {
    let _serial = serial();
    private_store_dir();

    // The first two attempts panic (budget 2); the third succeeds.
    faults::install(FaultPlan::new(21).with_site(FaultSite::WorkerPanic, 1.0, Some(2)));
    let daemon = Daemon::with_options(1, 4, 64, fast_supervision());
    let outcome = daemon.submit(grid("retry-to-success", &[2])).unwrap();
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    let injected = faults::injected_count(FaultSite::WorkerPanic);
    faults::clear();

    assert_eq!(
        snapshot.state,
        JobState::Done,
        "errors: {:?}",
        snapshot.errors
    );
    assert_eq!(injected, 2, "both budgeted panics fired before success");
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn exhausted_retries_fail_the_job_with_unit_coordinates() {
    let _serial = serial();
    private_store_dir();

    // Every attempt panics: 1 try + 3 retries, then the unit fails.
    faults::install(FaultPlan::new(22).with_site(FaultSite::WorkerPanic, 1.0, None));
    let daemon = Daemon::with_options(1, 4, 64, fast_supervision());
    let outcome = daemon.submit(grid("retries-exhausted", &[4])).unwrap();
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    let injected = faults::injected_count(FaultSite::WorkerPanic);
    faults::clear();

    assert_eq!(snapshot.state, JobState::Failed);
    assert_eq!(injected, 4, "one per attempt");
    let error = snapshot.errors.first().expect("a failed-point message");
    let coordinates = format!("{}/{}/way4", KernelId::AddBlock.name(), IsaKind::Mom.name());
    assert!(
        error.contains(&coordinates),
        "the error names the failed point: {error}"
    );
    assert!(
        error.contains("after 4 attempts") && error.contains("panicked"),
        "the error shows the attempt count and cause: {error}"
    );
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn one_attempt_covers_a_pair_group_and_each_failure_names_its_point() {
    let _serial = serial();
    private_store_dir();

    // Every attempt panics and nothing is retried, so the number of
    // injected panics is the number of compute attempts.  The four 4-way
    // memory points of one (kernel, ISA) pair — Figure 5's column — are
    // queued together; no other test stores any of them.
    faults::install(FaultPlan::new(24).with_site(FaultSite::WorkerPanic, 1.0, None));
    let supervision = Supervision {
        retries: 0,
        ..fast_supervision()
    };
    let daemon = Daemon::with_options(1, 4, 64, supervision);
    let memories = [
        MemoryModel::PERFECT,
        MemoryModel::L2,
        MemoryModel::MAIN_MEMORY,
        MemoryModel::CACHE,
    ];
    let request = JobRequest::Grid {
        label: "memory-column".to_string(),
        spec: ExperimentSpec {
            configs: memories
                .iter()
                .map(|&memory| PipelineConfig::way_with_memory(4, memory))
                .collect(),
            ..spec(&[4])
        },
    };
    let outcome = daemon.submit(request).unwrap();
    assert_eq!(outcome.scheduled, 4, "all four points are computed");
    let snapshot = daemon.wait(outcome.job).expect("job exists");
    let injected = faults::injected_count(FaultSite::WorkerPanic);
    faults::clear();

    assert_eq!(snapshot.state, JobState::Failed);
    assert_eq!(injected, 1, "one attempt computes the whole pair group");
    assert_eq!(snapshot.errors.len(), 4, "every point fails on its own key");
    for (error, memory) in snapshot.errors.iter().zip(memories) {
        let coordinates = format!(
            "{}/{}/way4/{}: ",
            KernelId::AddBlock.name(),
            IsaKind::Mom.name(),
            memory.label()
        );
        assert!(
            error.starts_with(&coordinates) && error.contains("after 1 attempt)"),
            "the error names its own point {coordinates:?}: {error}"
        );
    }
    let distinct: std::collections::BTreeSet<&String> = snapshot.errors.iter().collect();
    assert_eq!(distinct.len(), 4, "errors: {:?}", snapshot.errors);
    daemon.shutdown();
    daemon.join_workers();
}

#[test]
fn journal_recovery_requeues_only_the_lost_units() {
    let _serial = serial();
    private_store_dir();

    // Make the width-8 point durable, simulating a unit that finished
    // before the crash.
    let warm = Daemon::new(1, 4);
    let done = warm.submit(grid("pre-crash", &[8])).unwrap();
    assert_eq!(
        warm.wait(done.job).expect("job exists").state,
        JobState::Done
    );
    warm.shutdown();
    warm.join_workers();

    // A journal holding one accepted-but-unfinished two-point submission
    // (widths 8 and 16) — what a daemon killed right after the 202 leaves.
    let path = std::env::temp_dir().join(format!(
        "mom-serve-robust-journal-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let submission = Record::Submit {
        job: 5,
        body: r#"{"kernels": ["addblock"], "isas": ["mom"], "widths": [8, 16], "replication": 64}"#
            .to_string(),
    };
    {
        let (journal, _) = Journal::open(&path).unwrap();
        journal.append(&submission);
    }

    // Recovery into a zero-worker daemon: the stored width-8 point is
    // answered from the store, only the lost width-16 point is requeued.
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), 1);
    let daemon = Daemon::with_options(0, 4, 64, fast_supervision());
    let (summary, live) = journal::recover(&daemon, &records);
    assert_eq!(summary.jobs, 1);
    assert_eq!(summary.jobs_skipped, 0);
    assert_eq!(summary.units_done, 1, "width 8 came from the store");
    assert_eq!(summary.units_requeued, 1, "width 16 was genuinely lost");
    let snapshot = daemon.snapshot(5).expect("recovered under its own id");
    assert_eq!(snapshot.state, JobState::Running);
    assert_eq!(snapshot.completed, 1);

    // The still-live submission survives compaction; new jobs get ids
    // after the recovered one.
    assert_eq!(live.len(), 1);
    journal.compact(&live);
    drop(journal);
    let (_, replayed) = Journal::open(&path).unwrap();
    assert_eq!(replayed, vec![submission.clone()]);
    let next = daemon.submit(grid("post-recovery", &[8])).unwrap();
    assert_eq!(next.job, 6, "ids continue past the recovered job");
    daemon.shutdown();
    daemon.join_workers();

    // A journal whose job also has a JobEnd record is skipped entirely.
    let ended = vec![
        submission,
        Record::JobEnd {
            job: 5,
            state: "done".to_string(),
        },
    ];
    let fresh = Daemon::with_options(0, 4, 64, fast_supervision());
    let (summary, live) = journal::recover(&fresh, &ended);
    assert_eq!(summary.jobs, 0);
    assert_eq!(summary.jobs_skipped, 1);
    assert!(live.is_empty());
    assert!(fresh.snapshot(5).is_none(), "nothing re-admitted");
    fresh.shutdown();
    fresh.join_workers();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_stalled_request_head_gets_408() {
    let _serial = serial();
    let server = serve_with_timeout(Daemon::new(0, 1), "127.0.0.1:0", Duration::from_millis(150))
        .expect("bind an ephemeral port");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    // Half a request line, then silence: the peer is slow, not gone.
    stream.write_all(b"GET /healthz HTT").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408 Request Timeout"),
        "a stalled head draws 408: {response:?}"
    );
    assert!(
        response.contains("timed out"),
        "the body says what happened: {response:?}"
    );
    // The daemon is unharmed: a full request still answers.
    let policy = RetryPolicy::default();
    let (status, _) = request_json_with(&addr.to_string(), "GET", "/healthz", None, &policy)
        .expect("healthz after the timeout");
    assert_eq!(status, 200);
}

#[test]
fn injected_accept_faults_are_ridden_out_by_client_retries() {
    let _serial = serial();
    let server = serve_with(Daemon::new(0, 1), "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr().to_string();

    // The first connection is accepted and dropped on the floor; the
    // client's first retry gets through.
    faults::install(FaultPlan::new(23).with_site(FaultSite::HttpAccept, 1.0, Some(1)));
    let policy = RetryPolicy {
        retries: 2,
        backoff: Duration::from_millis(10),
        timeout: Duration::from_secs(10),
    };
    let result = request_json_with(&addr, "GET", "/healthz", None, &policy);
    let injected = faults::injected_count(FaultSite::HttpAccept);
    faults::clear();

    let (status, doc) = result.expect("the retry must get through");
    assert_eq!(status, 200, "{doc}");
    assert_eq!(injected, 1, "exactly the budgeted accept fault fired");
}

#[test]
fn healthz_round_trips_have_no_accept_polling_floor() {
    let _serial = serial();
    let server = serve_with(Daemon::new(0, 1), "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr().to_string();
    let policy = RetryPolicy::default();
    // An untimed first request: a connection queued before the accept
    // thread's first `accept()` is picked up at once even by a sleep-poll
    // loop, so only the steady state after it says anything.
    request_json_with(&addr, "GET", "/healthz", None, &policy).expect("healthz");
    // The minimum of 20 sequential round trips: a sleep-poll accept loop
    // puts a floor under every one of them, while noise from a busy host
    // only ever adds time.
    let fastest = (0..20)
        .map(|_| {
            let start = Instant::now();
            let (status, _) =
                request_json_with(&addr, "GET", "/healthz", None, &policy).expect("healthz");
            assert_eq!(status, 200);
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(5),
        "fastest healthz round trip took {fastest:?}"
    );
}

#[test]
fn shutdown_wakes_a_blocked_accept_on_any_bind_address() {
    let _serial = serial();
    for bind in ["0.0.0.0:0", "127.0.0.1:0"] {
        let server = serve_with(Daemon::new(0, 1), bind).expect("bind an ephemeral port");
        let port = server.addr().port();
        let policy = RetryPolicy::default();
        let (status, doc) = request_json_with(
            &format!("127.0.0.1:{port}"),
            "POST",
            "/shutdown",
            None,
            &policy,
        )
        .expect("shutdown");
        assert_eq!(status, 200, "{doc}");
        // Join on a watchdog thread: a wedged accept fails the test
        // instead of hanging it.
        let (done, joined) = mpsc::channel();
        let watchdog = std::thread::spawn(move || {
            server.join();
            let _ = done.send(());
        });
        assert!(
            joined.recv_timeout(Duration::from_secs(5)).is_ok(),
            "Server::join on {bind} did not return within 5 s of POST /shutdown"
        );
        watchdog.join().expect("join thread");
    }
}
