//! The `momsim` command-line front end.
//!
//! One binary runs any experiment:
//!
//! ```text
//! momsim list                         # registered experiments + axis values
//! momsim run fig5 --json out.json     # a registered experiment
//! momsim run --kernels idct,motion1 --isas mom,mdmx \
//!            --widths 1,2,4,8 --memory l1l2          # an ad-hoc grid
//! momsim sweep --out-dir .            # regenerate every BENCH_*.json
//! ```
//!
//! Axis flags are split out by [`split_axis_args`] (shared with
//! `momsim submit`) and read by [`ExperimentSpec::from_axes`] (shared with
//! the daemon), whose `FromStr` parsing of every value makes a typo an
//! error listing the valid names instead of a panic.  All parsing returns
//! [`Result`]; `momsim` maps errors to exit status 2 (usage) or 1 (runtime
//! failure).

use crate::spec::{find_experiment, registry, ExperimentError, ExperimentSpec, AXES};
use crate::{full_sweep_with_jobs, Report};
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_obs::json::Json;
use std::path::{Path, PathBuf};

/// A command-line failure: bad usage, a failed experiment run, or an I/O
/// error writing a report.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (unknown flag, unparsable axis value, missing operand).
    Usage(String),
    /// The experiment itself failed (invalid spec or kernel verification).
    Experiment(ExperimentError),
    /// Reading or writing a report file failed.
    Io(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) => f.write_str(message),
            CliError::Experiment(e) => write!(f, "{e}"),
            CliError::Io(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        CliError::Experiment(e)
    }
}

impl CliError {
    /// The conventional exit status: 2 for usage errors, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

/// Prints the error (if any) to stderr and returns the process exit code.
fn finish(result: Result<(), CliError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

fn write_report(path: &Path, doc: &Json) -> Result<(), CliError> {
    std::fs::write(path, doc.pretty())
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn run_registered(name: &str, json: Option<PathBuf>, jobs: Option<usize>) -> Result<(), CliError> {
    let report = find_experiment(name)
        .map_err(CliError::Usage)?
        .run_with_jobs(jobs)?;
    print!("{}", report.text());
    if let Some(path) = json {
        write_report(&path, &report.json())?;
    }
    Ok(())
}

/// The combined document of the registered ablation series (what
/// `BENCH_ablations.json` holds, and what the daemon's
/// `GET /reports/ablations` replays): one top-level key per series, named
/// by the experiment with its `ablation-` prefix stripped (`lanes`, `rob`,
/// ...).
pub fn ablations_doc(series: &[(&'static str, Report)]) -> Json {
    let mut doc = vec![
        ("schema", Json::int(1)),
        ("experiment", Json::str("ablations")),
    ];
    for (name, report) in series {
        doc.push((
            name.strip_prefix("ablation-").unwrap_or(name),
            report.json(),
        ));
    }
    Json::obj(doc)
}

/// Extracts the global `--store DIR` / `--cold` options (valid on any
/// subcommand, in any position) from the argument list, leaving the
/// remaining arguments in place for the subcommand parsers.  Shared with
/// the `mom-serve` service commands, which honour the same flags.
pub fn extract_store_args(args: &mut Vec<String>) -> Result<mom_store::StoreConfig, CliError> {
    let mut config = mom_store::StoreConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                if i + 1 >= args.len() {
                    return Err(CliError::Usage("--store needs a directory argument".into()));
                }
                config.dir = Some(PathBuf::from(args.remove(i + 1)));
                args.remove(i);
            }
            "--cold" => {
                config.cold = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    Ok(config)
}

/// Installs the extracted store options as the process-global store
/// configuration (before any simulation touches the store).
pub fn configure_store(config: mom_store::StoreConfig) -> Result<(), CliError> {
    mom_store::configure(config).map_err(CliError::Usage)
}

/// Observability options valid on any subcommand, in any position
/// (extracted the same way as the store flags).  Shared with the
/// `mom-serve` service commands.
#[derive(Debug, Default)]
pub struct ObsArgs {
    /// `--trace-out FILE`: enable span tracing now, write the recorded
    /// spans as Chrome trace-event JSON to FILE when the command finishes.
    pub trace_out: Option<PathBuf>,
    /// `--stats`: print a Prometheus-format metrics snapshot after the
    /// command.
    pub stats: bool,
}

/// Extracts `--trace-out FILE` / `--stats` from the argument list, leaving
/// the remaining arguments for the subcommand parsers.
pub fn extract_obs_args(args: &mut Vec<String>) -> Result<ObsArgs, CliError> {
    let mut obs = ObsArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                if i + 1 >= args.len() {
                    return Err(CliError::Usage("--trace-out needs a file argument".into()));
                }
                obs.trace_out = Some(PathBuf::from(args.remove(i + 1)));
                args.remove(i);
            }
            "--stats" => {
                obs.stats = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    Ok(obs)
}

/// Applies the extracted observability options that must take effect
/// *before* the command runs (span recording).
pub fn configure_obs(obs: &ObsArgs) {
    if obs.trace_out.is_some() {
        mom_obs::enable_tracing();
    }
}

/// Applies the extracted observability options that run *after* the
/// command: writes the Chrome trace file and/or prints the metrics
/// snapshot.
pub fn finish_obs(obs: &ObsArgs) -> Result<(), CliError> {
    if let Some(path) = &obs.trace_out {
        std::fs::write(path, mom_obs::export_chrome_trace())
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
        eprintln!(
            "wrote {} ({} trace events)",
            path.display(),
            mom_obs::trace_event_count()
        );
    }
    if obs.stats {
        mom_store::publish_gauges();
        print!("{}", mom_obs::render_prometheus());
    }
    Ok(())
}

/// The `momsim cache` subcommand: `stats` (default), `path`, `gc`, `clear`.
fn cache_command(args: &[String]) -> Result<(), CliError> {
    if args.len() > 1 {
        return Err(CliError::Usage(
            "momsim cache takes one subcommand (stats, path, gc, clear)".into(),
        ));
    }
    let store = mom_store::global();
    match args.first().map(String::as_str) {
        None | Some("stats") => {
            print!("{}", store.report().format());
            Ok(())
        }
        Some("path") => {
            match store.dir() {
                Some(dir) => println!("{}", dir.display()),
                None => println!("(no disk tier)"),
            }
            Ok(())
        }
        Some("gc") => {
            let report = store
                .gc()
                .map_err(|e| CliError::Io(format!("cache gc: {e}")))?;
            println!(
                "gc: removed {} files ({} bytes), kept {} files ({} bytes)",
                report.removed_files, report.removed_bytes, report.kept_files, report.kept_bytes
            );
            Ok(())
        }
        Some("clear") => {
            let (files, bytes) = store
                .clear()
                .map_err(|e| CliError::Io(format!("cache clear: {e}")))?;
            println!("clear: removed {files} files ({bytes} bytes)");
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown cache subcommand '{other}' (expected stats, path, gc, clear)"
        ))),
    }
}

/// One-line store summary printed after a sweep. The warm-run wording is
/// load-bearing: CI greps for `100% store hits` to prove the second sweep
/// of the job reused every artifact and recomputed nothing.
fn print_sweep_store_summary() {
    let store = mom_store::global();
    if !store.is_active() {
        println!("store: disabled (--cold)");
        return;
    }
    let results = store.counters(mom_store::NS_RESULT);
    let traces = store.counters(mom_store::NS_TRACE);
    let fills = results.fills + traces.fills;
    let hits = results.hits() + traces.hits();
    if fills == 0 && hits > 0 {
        println!("store: 100% store hits ({hits} artifacts reused, 0 recomputed)");
    } else {
        println!("store: {hits} hits, {fills} fills");
    }
}

/// Computes every document `momsim sweep` writes, without touching the
/// filesystem: `(file name, document, points)` in write order. Split from
/// `run_sweep` so the incremental-sweep tests can byte-compare the exact
/// documents a cold and a warm sweep would emit.
pub fn sweep_documents(jobs: Option<usize>) -> Result<Vec<(&'static str, Json, usize)>, CliError> {
    // The full registered-experiment set in one process: one measured pass
    // per (kernel, ISA) pair feeds the three union-grid reports, and every
    // *other* registered experiment (the application scenario layer, the
    // ablations, anything registered later) runs on its own — all of them
    // replaying the same memoised functional traces, so no kernel executes
    // functionally more than once.  `jobs` sets the worker threads the
    // (kernel, ISA) pair groups run on (`None`: one per core); every count
    // emits byte-identical documents.
    let results = {
        let _span = mom_obs::span("sweep", "union-grids");
        full_sweep_with_jobs(jobs)?
    };
    let mut files = vec![
        ("BENCH_fig4.json", Report::Fig4(results.fig4)),
        ("BENCH_fig5.json", Report::Fig5(results.fig5)),
        ("BENCH_tables.json", Report::Tables(results.tables)),
    ]
    .into_iter()
    .map(|(name, report)| (name, report.json(), report.points()))
    .collect::<Vec<_>>();
    let mut ablations: Vec<(&'static str, Report)> = Vec::new();
    for experiment in crate::spec::registry() {
        if crate::perf::UNION_GRID_EXPERIMENTS.contains(&experiment.name) {
            continue;
        }
        let report = {
            let _span = mom_obs::span_fmt("sweep", || format!("experiment {}", experiment.name));
            experiment.run_with_jobs(jobs)?
        };
        if experiment.name == "app-speedups" {
            let points = report.points();
            files.push(("BENCH_apps.json", report.json(), points));
        } else {
            ablations.push((experiment.name, report));
        }
    }
    let ablation_points = ablations.iter().map(|(_, r)| r.points()).sum();
    files.push((
        "BENCH_ablations.json",
        ablations_doc(&ablations),
        ablation_points,
    ));
    Ok(files)
}

fn run_sweep(out_dir: &Path, jobs: Option<usize>) -> Result<(), CliError> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", out_dir.display())))?;
    for (name, doc, points) in sweep_documents(jobs)? {
        let path = out_dir.join(name);
        std::fs::write(&path, doc.pretty())
            .map_err(|e| CliError::Io(format!("cannot write {name}: {e}")))?;
        println!("{:<22} {:>5} points", path.display(), points);
    }
    print_sweep_store_summary();
    Ok(())
}

/// Parses a `--jobs` operand: a positive worker count.
fn parse_jobs(value: &str) -> Result<usize, CliError> {
    let jobs: usize = value
        .parse()
        .map_err(|e| CliError::Usage(format!("--jobs: {e}")))?;
    if jobs == 0 {
        return Err(CliError::Usage(
            "--jobs needs a positive worker count".into(),
        ));
    }
    Ok(jobs)
}

fn sweep_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(PathBuf, Option<usize>), CliError> {
    let mut out_dir = PathBuf::from(".");
    let mut jobs = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return Err(CliError::Usage("--out-dir needs a value".into())),
            },
            "--jobs" => match args.next() {
                Some(n) => jobs = Some(parse_jobs(&n)?),
                None => return Err(CliError::Usage("--jobs needs a value".into())),
            },
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --out-dir DIR, --jobs N)"
                )))
            }
        }
    }
    Ok((out_dir, jobs))
}

const USAGE: &str = "\
momsim — declarative experiment runner for the MOM (SC'99) reproduction

USAGE:
  momsim list
      Show the registered experiments and the valid axis values.
  momsim run <experiment> [--json PATH] [--jobs N]
      Run a registered experiment (fig4, fig5, tables, app-speedups,
      ablation-lanes, ablation-rob); print the text report and optionally
      write the JSON.
  momsim run [AXES] [--json PATH] [--jobs N]
      Run an ad-hoc scenario grid assembled from axis flags:
        --kernels K,K,..       kernel names, or 'all' (default: all)
        --isas I,I,..          isa names, 'all' or 'media' (default: all)
        --widths N,N,..        issue widths (default: 4)
        --memory M,M,..        memory models: a latency in cycles,
                               perfect, l2, main, cache/l1l2 (default: 1)
        --rob N,N,..           reorder-buffer sizes (default: 16 x width)
        --lanes N,N,..         multimedia lane counts (default: width-derived)
        --replication N        min dynamic instructions (default: 4000)
        --seed N               workload seed (default: 23705)
        --sampled [D:F:W]      estimate timing by systematic sampling
                               (D detailed, F fast-forward, W warm-up
                               instructions per interval; default 200:671:150)
                               instead of simulating every instruction
  momsim sweep [--out-dir DIR] [--jobs N]
      Regenerate the full registered-experiment set: BENCH_fig4.json,
      BENCH_fig5.json, BENCH_tables.json, BENCH_apps.json and
      BENCH_ablations.json, with every kernel executed functionally at most
      once (shared trace cache). Finished grid points persist in the
      artifact store, so a repeated sweep is incremental: unchanged points
      are read back instead of re-simulated. --jobs N runs the (kernel, ISA)
      pair batches on N worker threads (default: one per core); the reports
      are byte-identical at any worker count.
  momsim bench [--quick] [--json PATH] [--check PATH]
      Measure engine throughput (optimized vs the retained naive reference),
      the wall time of the full registered-experiment set, and the sampled
      vs full grid comparison; optionally write BENCH_perf.json or verify a
      committed one (--check verifies the deterministic structure exactly
      and fails on engine speed-up regressions beyond the slack thresholds;
      raw wall times are ignored). Measurements bypass the artifact store;
      the cache diagnostic is printed after the report.
  momsim cache [stats|path|gc|clear]
      Inspect or maintain the persistent artifact store: hit/miss counters
      and the on-disk footprint (stats, the default), the store directory
      (path), removal of damaged or stale blobs (gc), full deletion (clear).
      The store directory also holds the daemon's crash journal
      (journal.wal); clearing the store discards it.
  momsim serve [--addr HOST:PORT] [--workers N] [--queue N] [--retain N]
               [--retries N] [--backoff MS] [--deadline SECS] [--no-journal]
               [--inject PLAN] [--log-level off|error|warn|info|debug]
      Run the simulation job-queue daemon: accept experiment submissions
      over HTTP, deduplicate grid points against the artifact store and
      against each other, and shard the missing ones across a worker pool.
      Serves live Prometheus metrics on GET /metrics; logs startup,
      shutdown and per-request lines at --log-level (default info); keeps
      at most --retain finished unit payloads in memory (default 1024),
      evicting the least recently used (the artifact store still holds
      everything). Workers are supervised: a unit that panics, fails
      transiently or exceeds --deadline SECS (default 300) is retried up
      to --retries times (default 3) with jittered backoff starting at
      --backoff MS (default 50). Accepted jobs are journaled to
      journal.wal in the store directory and re-admitted after a crash
      (--no-journal disables this). --inject PLAN enables the
      deterministic fault-injection harness for chaos testing, e.g.
      'seed=7,store-write=0.05,worker-panic=0.1:20,delay-ms=25' — never
      use it in production.
  momsim submit [--addr HOST:PORT] (<experiment> | AXES [--label NAME])
                [--wait] [--json PATH]
      Submit an experiment to a running daemon (AXES: the flags of an
      ad-hoc `momsim run`, sent as given); --wait polls until the job
      finishes and prints a summary (--json writes the result rows), riding
      out daemon restarts of up to ten consecutive failed polls.
  momsim status [--addr HOST:PORT] [JOB]
      List a daemon's jobs, or show one job's progress and partial results.
  momsim report [--addr HOST:PORT] <name> [--out PATH]
      Replay a committed report (fig4, fig5, tables, apps, ablations)
      byte-identically from the daemon's store, without simulating.
  momsim shutdown [--addr HOST:PORT]
      Drain a running daemon: finish in-flight points, drop queued ones,
      reject new submissions, flush the store, and exit.
  momsim stats [--addr HOST:PORT]
      Print a metrics snapshot in Prometheus text format: this process's
      registry, or — with --addr — a running daemon's GET /metrics.

  Every client command (submit, status, report, shutdown, stats) also
  takes --retries N (default 2), --backoff MS (first retry delay,
  default 100) and --timeout SECS (socket deadline, default 120):
  connection failures and 503 responses are retried with jittered
  exponential backoff, so clients ride out daemon restarts.

OPTIONS (any command):
  --store DIR
      Root directory of the persistent artifact store (default:
      $MOMSIM_STORE, else target/mom-store next to the workspace root).
  --cold
      Disable the artifact store: recompute everything, read and write
      nothing. Reports are byte-identical either way.
  --trace-out FILE
      Record spans (store reads/writes, functional fills, timing
      simulation, job lifecycle) and write them as Chrome trace-event JSON
      to FILE when the command finishes (load in chrome://tracing or
      https://ui.perfetto.dev). Tracing is timing-neutral: reports stay
      byte-identical.
  --stats
      Print the process metrics registry (Prometheus text format) after
      the command.
";

fn list() {
    println!("registered experiments (momsim run <name>):");
    for e in registry() {
        println!("  {:<16} {}", e.name, e.description);
    }
    println!();
    println!("kernels (--kernels):");
    for k in KernelId::all() {
        println!(
            "  {:<10} {} [{}]",
            k.name(),
            k.description(),
            k.source_program()
        );
    }
    println!();
    println!("isas (--isas):");
    for i in IsaKind::all() {
        println!(
            "  {:<10} {}",
            i.name().to_ascii_lowercase(),
            i.description()
        );
    }
    println!();
    println!("applications (momsim run app-speedups):");
    for app in mom_apps::AppId::all() {
        let spec = app.spec();
        let phases = spec
            .phases
            .iter()
            .map(|p| p.kernel.name())
            .collect::<Vec<_>>()
            .join(" -> ");
        println!(
            "  {:<10} {} [{phases}; coverage {:.2}]",
            app.name(),
            app.description(),
            spec.coverage
        );
    }
    println!();
    println!("memory models (--memory): a latency in cycles, perfect, l2, main, cache/l1l2");
}

/// Grid axes as `(axis, tokens)` pairs, the input of
/// [`ExperimentSpec::from_axes`].
pub type Axes = Vec<(String, Vec<String>)>;

/// Splits the grid-axis flags (`--kernels`, `--isas`, ... — one per
/// [`AXES`] name) out of an argument list: the one argv reader of both
/// `momsim run` and `momsim submit`.  An axis value is split on commas
/// into tokens, uninterpreted; `--sampled` takes an optional operand (bare,
/// it is an axis with no tokens: the default schedule).  Every other
/// argument is returned, in order, for the caller's own flags.
pub fn split_axis_args(args: &[String]) -> Result<(Axes, Vec<String>), CliError> {
    let mut axes = Axes::new();
    let mut rest = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(axis) = arg.strip_prefix("--").filter(|name| AXES.contains(name)) else {
            rest.push(arg.clone());
            continue;
        };
        let value = if axis == "sampled" {
            it.next_if(|next| !next.starts_with("--"))
        } else {
            Some(
                it.next()
                    .ok_or_else(|| CliError::Usage(format!("{arg} needs a value")))?,
            )
        };
        let tokens = value.map_or_else(Vec::new, |value| {
            value
                .split(',')
                .map(str::trim)
                .filter(|token| !token.is_empty())
                .map(String::from)
                .collect()
        });
        axes.push((axis.to_string(), tokens));
    }
    Ok((axes, rest))
}

/// Parses the arguments of an ad-hoc `momsim run`: the grid (axis flags
/// through [`split_axis_args`] and [`ExperimentSpec::from_axes`]), then
/// `--json PATH` and `--jobs N`.
pub fn adhoc_run_args(
    args: &[String],
) -> Result<(ExperimentSpec, Option<PathBuf>, Option<usize>), CliError> {
    let (axes, rest) = split_axis_args(args)?;
    let (json, jobs) = registered_run_args(&rest)?;
    let spec = ExperimentSpec::from_axes(&axes).map_err(CliError::Usage)?;
    Ok((spec, json, jobs))
}

/// Parsed arguments of `momsim bench`.
#[derive(Debug, Default)]
struct BenchArgs {
    quick: bool,
    json: Option<PathBuf>,
    check: Option<PathBuf>,
}

fn parse_bench_args(args: &[String]) -> Result<BenchArgs, CliError> {
    let mut parsed = BenchArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => match it.next() {
                Some(p) => parsed.json = Some(PathBuf::from(p)),
                None => return Err(CliError::Usage("--json needs a path argument".into())),
            },
            "--check" => match it.next() {
                Some(p) => parsed.check = Some(PathBuf::from(p)),
                None => return Err(CliError::Usage("--check needs a path argument".into())),
            },
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (expected --quick, --json PATH, --check PATH)"
                )))
            }
        }
    }
    Ok(parsed)
}

fn run_bench(args: BenchArgs) -> Result<(), CliError> {
    let report = crate::perf::run(args.quick)?;
    print!("{}", crate::perf::format_perf(&report));
    // The cache diagnostic: the measurements above ran under a store
    // bypass (perf times the simulators, not the disk), so the counters
    // reflect other work in this process and the disk scan shows what the
    // persistent tier currently holds.
    println!();
    print!("{}", mom_store::global().report().format());
    if let Some(path) = &args.json {
        write_report(path, &crate::perf::perf_json(&report))?;
    }
    if let Some(path) = &args.check {
        let committed = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {}: {e}", path.display())))?;
        crate::perf::check_structure(&committed, &report).map_err(|detail| {
            CliError::Io(format!(
                "{} is stale (regenerate with `momsim bench --json {}`): {detail}",
                path.display(),
                path.display()
            ))
        })?;
        crate::perf::check_performance(&committed, &report).map_err(|detail| {
            CliError::Io(format!(
                "performance regression against {}: {detail}",
                path.display()
            ))
        })?;
        println!(
            "{}: structure is fresh, no performance regression",
            path.display()
        );
    }
    Ok(())
}

/// Parses the `--json PATH` / `--jobs N` options of a registered-experiment
/// run (`momsim run fig4 --jobs 2`).
fn registered_run_args(args: &[String]) -> Result<(Option<PathBuf>, Option<usize>), CliError> {
    let mut json = None;
    let mut jobs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--json" => json = Some(PathBuf::from(value()?)),
            "--jobs" => jobs = Some(parse_jobs(value()?)?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other} (see `momsim help`)"
                )))
            }
        }
    }
    Ok((json, jobs))
}

fn run_command(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        // `momsim run <registered> [--json PATH] [--jobs N]`
        Some(name) if !name.starts_with("--") => {
            let (json, jobs) = registered_run_args(&args[1..])?;
            run_registered(name, json, jobs)
        }
        // `momsim run --kernels .. --isas ..` (an ad-hoc grid)
        Some(_) => {
            let (spec, json, jobs) = adhoc_run_args(args)?;
            let report = Report::Grid(spec.run_with_jobs(jobs)?);
            print!("{}", report.text());
            if let Some(path) = &json {
                write_report(path, &report.json())?;
            }
            Ok(())
        }
        None => Err(CliError::Usage(
            "momsim run needs an experiment name or axis flags (see `momsim help`)".into(),
        )),
    }
}

/// Entry point of the `momsim` binary; returns the process exit code.
pub fn momsim_main() -> i32 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match extract_store_args(&mut args).and_then(configure_store) {
        Ok(()) => {}
        Err(e) => return finish(Err(e)),
    }
    let obs = match extract_obs_args(&mut args) {
        Ok(obs) => obs,
        Err(e) => return finish(Err(e)),
    };
    configure_obs(&obs);
    let code = match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                return finish(Err(CliError::Usage(
                    "momsim list takes no arguments".into(),
                )));
            }
            list();
            0
        }
        Some("run") => finish(run_command(&args[1..])),
        Some("sweep") => {
            finish(sweep_args(args[1..].to_vec()).and_then(|(dir, jobs)| run_sweep(&dir, jobs)))
        }
        Some("bench") => finish(parse_bench_args(&args[1..]).and_then(run_bench)),
        Some("cache") => finish(cache_command(&args[1..])),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => finish(Err(CliError::Usage(format!(
            "unknown command '{other}' (see `momsim help`)"
        )))),
        None => {
            eprint!("{USAGE}");
            2
        }
    };
    if code == 0 {
        return finish(finish_obs(&obs));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_pipeline::{MemoryModel, SamplingConfig};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn adhoc_spec(args: &[&str]) -> Result<ExperimentSpec, CliError> {
        adhoc_run_args(&strs(args)).map(|(spec, _, _)| spec)
    }

    #[test]
    fn grid_args_assemble_the_cross_product() {
        let spec = adhoc_spec(&[
            "--kernels",
            "idct,motion1",
            "--isas",
            "mom,mdmx",
            "--widths",
            "1,2,4,8",
            "--memory",
            "l1l2",
        ])
        .unwrap();
        assert_eq!(spec.kernels, vec![KernelId::Idct, KernelId::Motion1]);
        assert_eq!(spec.isas, vec![IsaKind::Mom, IsaKind::Mdmx]);
        assert_eq!(spec.configs.len(), 4);
        assert!(spec.configs.iter().all(|c| c.memory == MemoryModel::CACHE));
        assert_eq!(
            spec.configs.iter().map(|c| c.width).collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
        spec.validate().unwrap();
    }

    #[test]
    fn grid_args_sweep_rob_and_lanes() {
        let spec = adhoc_spec(&[
            "--rob",
            "16,32",
            "--lanes",
            "1,2",
            "--seed",
            "7",
            "--replication",
            "100",
        ])
        .unwrap();
        assert_eq!(spec.configs.len(), 4, "2 rob x 2 lane values");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.replication, 100);
        assert_eq!(spec.kernels.len(), KernelId::ALL.len(), "default axis");
        let robs: Vec<usize> = spec.configs.iter().map(|c| c.rob_size).collect();
        assert_eq!(robs, vec![16, 16, 32, 32]);
        let lanes: Vec<usize> = spec.configs.iter().map(|c| c.media_lanes).collect();
        assert_eq!(lanes, vec![1, 2, 1, 2]);
    }

    #[test]
    fn sampled_flag_takes_an_optional_schedule() {
        let spec = adhoc_spec(&["--sampled", "--widths", "2"]).unwrap();
        assert_eq!(spec.sampling, Some(SamplingConfig::DEFAULT));
        let (axes, rest) = split_axis_args(&strs(&["--sampled", "--json", "o.json"])).unwrap();
        assert_eq!(axes, vec![("sampled".to_string(), vec![])]);
        assert_eq!(rest, strs(&["--json", "o.json"]));

        let spec = adhoc_spec(&["--sampled", "100:900:20"]).unwrap();
        assert_eq!(
            spec.sampling,
            Some(SamplingConfig {
                detailed: 100,
                fastforward: 900,
                warmup: 20,
            })
        );

        let err = adhoc_spec(&["--sampled", "nonsense"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        assert_eq!(adhoc_spec(&["--widths", "4"]).unwrap().sampling, None);
    }

    #[test]
    fn store_flags_extract_from_any_position() {
        let mut args = strs(&["sweep", "--store", "/tmp/s", "--out-dir", ".", "--cold"]);
        let config = extract_store_args(&mut args).unwrap();
        assert_eq!(config.dir, Some(PathBuf::from("/tmp/s")));
        assert!(config.cold);
        assert_eq!(args, strs(&["sweep", "--out-dir", "."]));

        let err = extract_store_args(&mut strs(&["--store"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        let mut args = strs(&["run", "fig4"]);
        let config = extract_store_args(&mut args).unwrap();
        assert!(config.dir.is_none());
        assert!(!config.cold);
        assert_eq!(args, strs(&["run", "fig4"]), "untouched without flags");
    }

    #[test]
    fn jobs_flag_parses_on_every_command() {
        let (dir, jobs) = sweep_args(strs(&["--jobs", "3", "--out-dir", "/tmp/x"])).unwrap();
        assert_eq!(dir, PathBuf::from("/tmp/x"));
        assert_eq!(jobs, Some(3));
        assert_eq!(sweep_args(strs(&[])).unwrap().1, None);
        let err = sweep_args(strs(&["--jobs", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = sweep_args(strs(&["--jobs", "many"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        let (_, json, jobs) = adhoc_run_args(&strs(&["--jobs", "2", "--widths", "4"])).unwrap();
        assert_eq!((json, jobs), (None, Some(2)));

        let (json, jobs) =
            registered_run_args(&strs(&["--json", "o.json", "--jobs", "2"])).unwrap();
        assert_eq!(json, Some(PathBuf::from("o.json")));
        assert_eq!(jobs, Some(2));
        let err = registered_run_args(&strs(&["--frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn bad_axis_values_report_the_valid_names() {
        let err = adhoc_spec(&["--kernels", "fft"]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("idct"), "{text}");
        assert_eq!(err.exit_code(), 2);
        let err = adhoc_spec(&["--isas", "sse"]).unwrap_err();
        assert!(err.to_string().contains("mdmx"));
        let err = adhoc_spec(&["--memory", "dram"]).unwrap_err();
        assert!(err.to_string().contains("l1l2"));
        let err = adhoc_spec(&["--widths", "x"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // Invalid machine axes surface the builder's validation message.
        let err = adhoc_spec(&["--widths", "0"]).unwrap_err();
        assert!(err.to_string().contains("issue width"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = adhoc_spec(&["--widths"]).unwrap_err();
        assert!(err.to_string().contains("needs a value"), "{err}");
        let err = adhoc_spec(&["--widths", "4", "--frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("--frobnicate"), "{err}");
    }
}
