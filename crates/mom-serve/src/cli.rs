//! The service half of the `momsim` command line: `serve` runs the
//! daemon, `submit` / `status` / `report` / `shutdown` talk to one over
//! HTTP.  Argument conventions (and the `--store DIR` / `--cold` globals)
//! are shared with the batch commands in `mom_bench::cli`; exit codes
//! follow the same contract (0 success, 2 usage, 1 runtime failure).

use crate::client::{request_json_with, request_raw_with, RetryPolicy};
use crate::serve::ServeConfig;
use mom_bench::cli::{
    configure_obs, configure_store, extract_obs_args, extract_store_args, finish_obs,
    split_axis_args, CliError,
};
use mom_obs::json::Json;
use std::time::Duration;

const DEFAULT_ADDR: &str = "127.0.0.1:5099";

/// Consecutive failed status polls `submit --wait` rides out (a daemon
/// restart takes a few seconds; the job is journalled, so it comes back).
const WAIT_POLL_TOLERANCE: u32 = 10;

fn finish(result: Result<(), CliError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

/// Entry point of the service subcommands; `args` starts at the
/// subcommand name.  Returns the process exit code.
pub fn cli_main() -> i32 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    finish((|| {
        let store = extract_store_args(&mut args)?;
        let obs = extract_obs_args(&mut args)?;
        configure_obs(&obs);
        let command = args.first().cloned().unwrap_or_default();
        let rest = &args[1..];
        // The daemon owns a store; the clients never touch one, so only
        // `serve` installs the configuration.
        match command.as_str() {
            "serve" => {
                configure_store(store)?;
                run_serve(rest)?;
            }
            "submit" => run_submit(rest)?,
            "status" => run_status(rest)?,
            "report" => run_report(rest)?,
            "shutdown" => run_shutdown(rest)?,
            "stats" => run_stats(rest)?,
            other => {
                return Err(CliError::Usage(format!(
                "unknown service command '{other}' (expected serve, submit, status, report, shutdown, stats)"
            )))
            }
        }
        finish_obs(&obs)
    })())
}

/// Pops `--addr HOST:PORT` out of an argument list (any position).
fn extract_addr(args: &mut Vec<String>) -> Result<String, CliError> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            if i + 1 >= args.len() {
                return Err(CliError::Usage("--addr needs a host:port argument".into()));
            }
            addr = args.remove(i + 1);
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(addr)
}

fn positive(flag: &str, value: &str) -> Result<usize, CliError> {
    let n: usize = value
        .parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))?;
    if n == 0 {
        return Err(CliError::Usage(format!("{flag} needs a positive count")));
    }
    Ok(n)
}

fn count(flag: &str, value: &str) -> Result<u32, CliError> {
    value
        .parse()
        .map_err(|e| CliError::Usage(format!("{flag}: {e}")))
}

/// Pops the client resilience flags (`--retries N`, `--timeout SECS`,
/// `--backoff MS`) out of an argument list (any position).
fn extract_retry_args(args: &mut Vec<String>) -> Result<RetryPolicy, CliError> {
    let mut policy = RetryPolicy::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let take = |args: &mut Vec<String>, i: usize| -> Result<String, CliError> {
            if i + 1 >= args.len() {
                return Err(CliError::Usage(format!("{flag} needs a value")));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(value)
        };
        match flag.as_str() {
            "--retries" => policy.retries = count("--retries", &take(args, i)?)?,
            "--timeout" => {
                policy.timeout = Duration::from_secs(positive("--timeout", &take(args, i)?)? as u64)
            }
            "--backoff" => {
                policy.backoff =
                    Duration::from_millis(positive("--backoff", &take(args, i)?)? as u64)
            }
            _ => i += 1,
        }
    }
    Ok(policy)
}

fn run_serve(args: &[String]) -> Result<(), CliError> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?.to_string(),
            "--workers" => config.workers = positive("--workers", value()?)?,
            "--queue" => config.queue_limit = positive("--queue", value()?)?,
            "--retain" => config.retain = positive("--retain", value()?)?,
            "--retries" => config.supervision.retries = count("--retries", value()?)?,
            "--backoff" => {
                config.supervision.backoff =
                    Duration::from_millis(positive("--backoff", value()?)? as u64)
            }
            "--deadline" => {
                config.supervision.deadline =
                    Duration::from_secs(positive("--deadline", value()?)? as u64)
            }
            "--no-journal" => config.journal = false,
            "--inject" => {
                let plan: mom_store::FaultPlan = value()?.parse().map_err(CliError::Usage)?;
                mom_store::faults::install(plan);
            }
            "--log-level" => {
                let level: mom_obs::log::LogLevel = value()?.parse().map_err(CliError::Usage)?;
                mom_obs::set_log_level(level);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --addr HOST:PORT, --workers N, \
                     --queue N, --retain N, --retries N, --backoff MS, --deadline SECS, \
                     --no-journal, --inject PLAN, --log-level LEVEL)"
                )))
            }
        }
    }
    if mom_store::faults::is_active() {
        println!("momsim serve: FAULT INJECTION ACTIVE (--inject); not for production use");
        mom_obs::log::warn("serve", "fault injection active (--inject)");
    }
    let server = crate::serve::serve(&config)
        .map_err(|e| CliError::Io(format!("cannot bind {}: {e}", config.addr)))?;
    println!(
        "momsim serve: listening on {} ({} workers, queue limit {})",
        server.addr(),
        config.workers,
        config.queue_limit
    );
    mom_obs::log::info(
        "serve",
        &format!(
            "listening on {} ({} workers, queue limit {}, retaining {} done units)",
            server.addr(),
            config.workers,
            config.queue_limit,
            config.retain
        ),
    );
    println!(
        "submit work with: momsim submit --addr {} <experiment> --wait",
        server.addr()
    );
    println!("stop with:        momsim shutdown --addr {}", server.addr());
    // The accept loop exits when POST /shutdown flips the stop flag; a
    // SIGINT instead kills the process without draining (in-flight results
    // are still durable: the store write happens before a unit reports).
    server.join();
    println!("momsim serve: drained and stopped");
    mom_obs::log::info("serve", "drained and stopped");
    Ok(())
}

/// `momsim stats [--addr HOST:PORT]`: with `--addr`, fetches and prints a
/// running daemon's `/metrics` exposition; without, prints this process's
/// own registry (useful after batch commands run in-process).
fn run_stats(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let remote = args.iter().any(|arg| arg == "--addr");
    let addr = extract_addr(&mut args)?;
    let policy = extract_retry_args(&mut args)?;
    if !args.is_empty() {
        return Err(CliError::Usage(
            "momsim stats takes only --addr HOST:PORT and the retry flags".into(),
        ));
    }
    if remote {
        let (status, bytes) = request_raw_with(&addr, "GET", "/metrics", None, &policy)
            .map_err(|e| CliError::Io(e.to_string()))?;
        if status != 200 {
            return Err(CliError::Io(format!("metrics request failed ({status})")));
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| CliError::Io("metrics body is not UTF-8".into()))?;
        print!("{text}");
    } else {
        mom_store::publish_gauges();
        print!("{}", mom_obs::render_prometheus());
    }
    Ok(())
}

/// Builds the submission document from `momsim submit` arguments.
/// A leading bare word is a registered experiment name; otherwise the axis
/// flags are split out by the argv reader `momsim run` uses
/// ([`split_axis_args`]) and shipped as string tokens, uninterpreted: one
/// token as a string, any other count as an array, a bare `--sampled` as
/// `true`.
/// The daemon reads them with the same [`ExperimentSpec::from_axes`] as
/// `momsim run`, so both accept and reject the same grids.
///
/// [`ExperimentSpec::from_axes`]: mom_bench::ExperimentSpec::from_axes
fn submit_body(args: &[String]) -> Result<(Json, Vec<String>), CliError> {
    if let Some(name) = args.first().filter(|first| !first.starts_with("--")) {
        return Ok((
            Json::obj([("experiment", Json::str(name.clone()))]),
            args[1..].to_vec(),
        ));
    }
    let (axes, rest) = split_axis_args(args)?;
    let mut pairs = Vec::new();
    let mut passthrough = Vec::new();
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--wait" => passthrough.push(flag),
            "--json" | "--label" => {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
                if flag == "--label" {
                    pairs.push(("label".to_string(), Json::Str(value)));
                } else {
                    passthrough.extend([flag, value]);
                }
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (see `momsim help`)"
                )))
            }
        }
    }
    for (axis, mut tokens) in axes {
        let value = match tokens.len() {
            0 if axis == "sampled" => Json::Bool(true),
            1 => Json::Str(tokens.remove(0)),
            _ => Json::Arr(tokens.into_iter().map(Json::Str).collect()),
        };
        pairs.push((axis, value));
    }
    if pairs.is_empty() {
        return Err(CliError::Usage(
            "momsim submit needs an experiment name or axis flags (see `momsim help`)".into(),
        ));
    }
    Ok((Json::Obj(pairs), passthrough))
}

fn get_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn run_submit(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let addr = extract_addr(&mut args)?;
    let policy = extract_retry_args(&mut args)?;
    let (body, options) = submit_body(&args)?;
    let mut wait = false;
    let mut json_path = None;
    let mut it = options.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--wait" => wait = true,
            "--json" => json_path = it.next(),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --wait, --json PATH)"
                )))
            }
        }
    }
    let (status, doc) = request_json_with(
        &addr,
        "POST",
        "/jobs",
        Some(body.pretty().as_bytes()),
        &policy,
    )
    .map_err(|e| CliError::Io(e.to_string()))?;
    if status != 202 {
        return Err(CliError::Io(format!(
            "submission rejected ({status}): {}",
            doc.get("error").and_then(Json::as_str).unwrap_or("?")
        )));
    }
    let job = get_u64(&doc, "job");
    println!(
        "job {job} submitted: {} points ({} scheduled, {} from the store, {} shared)",
        get_u64(&doc, "points"),
        get_u64(&doc, "scheduled"),
        get_u64(&doc, "deduped"),
        get_u64(&doc, "shared"),
    );
    if !wait {
        return Ok(());
    }
    // The poll loop tolerates a bounded run of failed polls on top of the
    // per-request retries: the job is journalled, so a restarting daemon
    // recovers it under the same id and the wait just resumes.
    let mut failed_polls = 0u32;
    loop {
        let poll = request_json_with(&addr, "GET", &format!("/jobs/{job}"), None, &policy);
        let (status, doc) = match poll {
            Ok(answer) => answer,
            Err(e) => {
                failed_polls += 1;
                if failed_polls > WAIT_POLL_TOLERANCE {
                    return Err(CliError::Io(e.to_string()));
                }
                eprintln!("momsim submit: poll failed ({e}); daemon restarting? retrying");
                std::thread::sleep(Duration::from_millis(500));
                continue;
            }
        };
        if status != 200 {
            failed_polls += 1;
            if failed_polls > WAIT_POLL_TOLERANCE {
                return Err(CliError::Io(format!("job {job} vanished ({status})")));
            }
            std::thread::sleep(Duration::from_millis(500));
            continue;
        }
        failed_polls = 0;
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("?");
        if state == "running" {
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        let total = get_u64(&doc, "points").max(1);
        let reused = get_u64(&doc, "reused");
        println!(
            "job {job} {state}: {}/{} points, {} computed, {} reused ({}% dedup)",
            get_u64(&doc, "completed"),
            total,
            get_u64(&doc, "scheduled"),
            reused,
            reused * 100 / total,
        );
        if let Some(errors) = doc.get("errors").and_then(Json::as_arr) {
            for error in errors {
                eprintln!("  error: {}", error.as_str().unwrap_or("?"));
            }
        }
        if let Some(path) = &json_path {
            std::fs::write(path, doc.pretty())
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
        }
        if state != "done" {
            return Err(CliError::Io(format!("job {job} finished as {state}")));
        }
        return Ok(());
    }
}

fn run_status(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let addr = extract_addr(&mut args)?;
    let policy = extract_retry_args(&mut args)?;
    match args.first() {
        None => {
            let (status, doc) = request_json_with(&addr, "GET", "/jobs", None, &policy)
                .map_err(|e| CliError::Io(e.to_string()))?;
            if status != 200 {
                return Err(CliError::Io(format!("status request failed ({status})")));
            }
            let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
            if jobs.is_empty() {
                println!("no jobs");
                return Ok(());
            }
            println!(
                "{:>5}  {:<16} {:<10} {:>9}",
                "job", "label", "state", "points"
            );
            for job in jobs {
                println!(
                    "{:>5}  {:<16} {:<10} {:>4}/{}",
                    get_u64(job, "job"),
                    job.get("label").and_then(Json::as_str).unwrap_or("?"),
                    job.get("state").and_then(Json::as_str).unwrap_or("?"),
                    get_u64(job, "completed"),
                    get_u64(job, "points"),
                );
            }
            Ok(())
        }
        Some(id) => {
            if args.len() > 1 {
                return Err(CliError::Usage(
                    "momsim status takes at most one job id".into(),
                ));
            }
            let id: u64 = id
                .parse()
                .map_err(|e| CliError::Usage(format!("bad job id '{id}': {e}")))?;
            let (status, doc) =
                request_json_with(&addr, "GET", &format!("/jobs/{id}"), None, &policy)
                    .map_err(|e| CliError::Io(e.to_string()))?;
            if status != 200 {
                return Err(CliError::Io(format!(
                    "no such job {id} ({})",
                    doc.get("error").and_then(Json::as_str).unwrap_or("?")
                )));
            }
            print!("{}", doc.pretty());
            Ok(())
        }
    }
}

fn run_report(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let addr = extract_addr(&mut args)?;
    let policy = extract_retry_args(&mut args)?;
    let mut name = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => return Err(CliError::Usage("--out needs a path argument".into())),
            },
            other if !other.starts_with("--") && name.is_none() => name = Some(other.to_string()),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected <report>, --out PATH)"
                )))
            }
        }
    }
    let name = name.ok_or_else(|| {
        CliError::Usage(
            "momsim report needs a report name (fig4, fig5, tables, apps, ablations)".into(),
        )
    })?;
    let (status, bytes) =
        request_raw_with(&addr, "GET", &format!("/reports/{name}"), None, &policy)
            .map_err(|e| CliError::Io(e.to_string()))?;
    if status != 200 {
        let detail = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| mom_obs::json::parse(text).ok())
            .and_then(|doc| doc.get("error").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| format!("HTTP {status}"));
        return Err(CliError::Io(format!("report '{name}': {detail}")));
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &bytes)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path} ({} bytes)", bytes.len());
        }
        None => {
            let text = String::from_utf8(bytes)
                .map_err(|_| CliError::Io("report body is not UTF-8".into()))?;
            print!("{text}");
        }
    }
    Ok(())
}

fn run_shutdown(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let addr = extract_addr(&mut args)?;
    let policy = extract_retry_args(&mut args)?;
    if !args.is_empty() {
        return Err(CliError::Usage(
            "momsim shutdown takes only --addr and the retry flags".into(),
        ));
    }
    let (status, doc) = request_json_with(&addr, "POST", "/shutdown", None, &policy)
        .map_err(|e| CliError::Io(e.to_string()))?;
    if status != 200 {
        return Err(CliError::Io(format!("shutdown failed ({status})")));
    }
    println!(
        "daemon draining: {} jobs served, {} units completed, {} queued units dropped",
        get_u64(&doc, "jobs"),
        get_u64(&doc, "completed_units"),
        get_u64(&doc, "dropped_queued"),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_bench::ExperimentSpec;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn addr_extracts_from_any_position() {
        let mut args = strs(&["fig4", "--addr", "127.0.0.1:7000", "--wait"]);
        assert_eq!(extract_addr(&mut args).unwrap(), "127.0.0.1:7000");
        assert_eq!(args, strs(&["fig4", "--wait"]));
        let mut args = strs(&["fig4"]);
        assert_eq!(extract_addr(&mut args).unwrap(), DEFAULT_ADDR);
        let err = extract_addr(&mut strs(&["--addr"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn submit_bodies_cover_both_shapes() {
        let (body, rest) = submit_body(&strs(&["fig4", "--wait"])).unwrap();
        assert_eq!(body.get("experiment").and_then(Json::as_str), Some("fig4"));
        assert_eq!(rest, strs(&["--wait"]));

        let (body, rest) = submit_body(&strs(&[
            "--kernels",
            "idct",
            "--widths",
            "2,4",
            "--isas",
            "media",
            "--json",
            "o.json",
            "--label",
            "probe",
            "--sampled",
        ]))
        .unwrap();
        assert_eq!(rest, strs(&["--json", "o.json"]));
        assert_eq!(body.get("kernels").and_then(Json::as_str), Some("idct"));
        assert_eq!(body.get("isas").and_then(Json::as_str), Some("media"));
        assert_eq!(
            body.get("widths"),
            Some(&Json::Arr(vec![Json::str("2"), Json::str("4")]))
        );
        assert_eq!(body.get("label").and_then(Json::as_str), Some("probe"));
        assert_eq!(body.get("sampled").and_then(Json::as_bool), Some(true));

        let err = submit_body(&strs(&[])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = submit_body(&strs(&["--frobnicate", "x"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = submit_body(&strs(&["--widths"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    /// The spec `momsim run` builds from an argv.
    fn run_spec(argv: &[&str]) -> Result<ExperimentSpec, String> {
        mom_bench::cli::adhoc_run_args(&strs(argv))
            .map(|(spec, _, _)| spec)
            .map_err(|e| e.to_string())
    }

    /// The spec the daemon builds from what `momsim submit` sends for the
    /// same argv: body, JSON text, parse, `parse_submit`.
    fn submit_spec(argv: &[&str]) -> Result<ExperimentSpec, String> {
        let (body, rest) = submit_body(&strs(argv)).map_err(|e| e.to_string())?;
        assert!(rest.is_empty(), "{rest:?}");
        let doc = mom_obs::json::parse(&body.pretty()).expect("submit emits valid JSON");
        match crate::wire::parse_submit(&doc)? {
            crate::wire::JobRequest::Grid { spec, .. } => Ok(spec),
            other => Err(format!("expected a grid, got {other:?}")),
        }
    }

    #[test]
    fn run_and_submit_build_the_same_spec_from_axis_flags() {
        let table: &[&[&str]] = &[
            &["--kernels", "all"],
            &["--isas", "media"],
            &["--widths", "1,8"],
            &["--memory", "12,cache"],
            &["--rob", "32", "--lanes", "4"],
            &["--replication", "100"],
            &["--sampled"],
            &["--sampled", "200:671:150"],
            &[
                "--kernels",
                "idct,motion1",
                "--isas",
                "mom,mmx",
                "--seed",
                "7",
            ],
        ];
        for argv in table {
            let run = run_spec(argv).unwrap_or_else(|e| panic!("run {argv:?}: {e}"));
            let submit = submit_spec(argv).unwrap_or_else(|e| panic!("submit {argv:?}: {e}"));
            assert_eq!(run, submit, "{argv:?}");
        }
        assert_eq!(
            run_spec(&["--sampled"]).unwrap().sampling,
            Some(mom_pipeline::SamplingConfig::DEFAULT)
        );
        // Both reject bad values, a zero replication among them, with the
        // same message.
        for argv in [
            &["--replication", "0"][..],
            &["--widths", "x"],
            &["--kernels", "fft"],
            &["--kernels", ","],
            &["--seed", "1,2"],
        ] {
            let run = run_spec(argv).unwrap_err();
            let submit = submit_spec(argv).unwrap_err();
            assert_eq!(run, submit, "{argv:?}");
        }
        assert!(run_spec(&["--replication", "0"])
            .unwrap_err()
            .contains("replication must be at least one instruction"));
    }

    #[test]
    fn seeds_above_two_to_the_53_survive_submit() {
        let argv = ["--kernels", "addblock", "--seed", "9007199254740993"];
        let run = run_spec(&argv).unwrap();
        assert_eq!(run.seed, 9_007_199_254_740_993);
        assert_eq!(submit_spec(&argv).unwrap(), run);
        let (body, _) = submit_body(&strs(&argv)).unwrap();
        assert_eq!(
            body.get("seed").and_then(Json::as_str),
            Some("9007199254740993"),
            "the seed travels as a decimal string"
        );
        // The integer form cannot carry it: the daemon names the string form.
        let doc = mom_obs::json::parse("{\"seed\": 9007199254740993}").unwrap();
        let err = crate::wire::parse_submit(&doc).unwrap_err();
        assert!(err.contains("\"seed\": \""), "{err}");
    }
}
