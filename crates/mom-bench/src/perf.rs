//! The performance-measurement subsystem: `momsim bench`.
//!
//! The workspace's correctness bar is byte-identical `BENCH_*.json`
//! reports; this module is the *speed* bar.  It measures
//!
//! * **engine throughput** — retired instructions per second of the
//!   optimised out-of-order engine ([`mom_pipeline::PipelineSim`]) against
//!   the retained naive reference ([`mom_pipeline::ReferenceSim`]) on a set
//!   of pinned kernel streams covering the interesting regimes (scalar
//!   versus matrix code, perfect memory versus long latencies versus the
//!   simulated cache hierarchy), and
//! * **whole-sweep wall time** — the end-to-end time to regenerate the
//!   full registered-experiment set (everything `momsim sweep` writes) in
//!   one process, functional-trace cache shared.
//!
//! The committed `BENCH_perf.json` is the repo's perf-trajectory record:
//! its *structure* (which benchmarks exist, how many instructions each
//! stream retires, how many experiments and points the sweep covers) is
//! deterministic and CI-checked ([`check_structure`]), while the measured
//! timings are machine-dependent snapshots refreshed by maintainers with
//! `momsim bench --json BENCH_perf.json`.

use crate::{full_sweep, steady_state_trace, ExperimentError, EXPERIMENT_SEED};
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_obs::json::{self, Json};
use mom_pipeline::{
    MemoryModel, PipelineConfig, PipelineSim, ReferenceSim, SamplingConfig, TraceSink,
};
use std::time::Instant;

/// One pinned engine workload: a kernel stream timed on one machine
/// configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    /// Kernel providing the instruction stream.
    pub kernel: KernelId,
    /// ISA of the stream (scalar Alpha streams are long and
    /// dependence-heavy; MOM streams are short with multi-cycle
    /// occupancies).
    pub isa: IsaKind,
    /// Issue width of the timed configuration.
    pub width: usize,
    /// Memory model of the timed configuration.
    pub memory: MemoryModel,
}

impl EngineWorkload {
    /// Stable benchmark id, e.g. `motion1/mom/4w/cache`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}w/{}",
            self.kernel.name(),
            self.isa.name().to_ascii_lowercase(),
            self.width,
            self.memory.label()
        )
    }
}

/// The pinned workload set: both engines are measured on exactly these
/// streams, chosen to cover the regimes that stress different parts of the
/// scheduler (dependence chains, memory ordering, functional-unit
/// occupancy, the cache hierarchy).
pub const ENGINE_WORKLOADS: [EngineWorkload; 6] = [
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Alpha,
        width: 4,
        memory: MemoryModel::PERFECT,
    },
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Alpha,
        width: 4,
        memory: MemoryModel::MAIN_MEMORY,
    },
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Mom,
        width: 4,
        memory: MemoryModel::PERFECT,
    },
    EngineWorkload {
        kernel: KernelId::Motion1,
        isa: IsaKind::Mom,
        width: 4,
        memory: MemoryModel::CACHE,
    },
    EngineWorkload {
        kernel: KernelId::Idct,
        isa: IsaKind::Alpha,
        width: 8,
        memory: MemoryModel::CACHE,
    },
    EngineWorkload {
        kernel: KernelId::Idct,
        isa: IsaKind::Mdmx,
        width: 2,
        memory: MemoryModel::L2,
    },
];

/// One measured engine point.
#[derive(Debug, Clone)]
pub struct EngineMeasurement {
    /// Which pinned workload.
    pub workload: EngineWorkload,
    /// Instructions the stream retires per measured pass (deterministic).
    pub instructions: u64,
    /// Optimised-engine throughput, retired instructions per second.
    pub optimized_ips: f64,
    /// Reference-engine throughput, retired instructions per second.
    pub reference_ips: f64,
}

impl EngineMeasurement {
    /// Speed-up of the optimised engine over the naive reference.
    pub fn speedup(&self) -> f64 {
        self.optimized_ips / self.reference_ips
    }
}

/// The sampled-vs-full comparison: the full kernel × ISA grid timed once
/// with the exact engine and once with systematic sampling
/// ([`mom_pipeline::sample`]), with the error of every sampled estimate
/// checked against its exact counterpart.
///
/// The wall times are machine-dependent measurements; the error statistics
/// are **deterministic** (the simulators are) and therefore part of the
/// committed structure [`check_structure`] verifies.
#[derive(Debug, Clone)]
pub struct SampledComparison {
    /// The sampling schedule measured.
    pub sampling: SamplingConfig,
    /// Points in the compared grid.
    pub grid_points: usize,
    /// Wall seconds for the full-fidelity grid run.
    pub full_seconds: f64,
    /// Wall seconds for the sampled grid run.
    pub sampled_seconds: f64,
    /// Largest relative cycle-count error of any sampled point against its
    /// full-fidelity counterpart (deterministic).
    pub max_relative_error: f64,
    /// Points whose reported confidence interval covers the exact cycle
    /// count (deterministic; the error-bound test pins this to all).
    pub covered_points: usize,
}

impl SampledComparison {
    /// Wall-time speed-up of the sampled run over the full run.
    pub fn speedup(&self) -> f64 {
        if self.sampled_seconds == 0.0 {
            return 0.0;
        }
        self.full_seconds / self.sampled_seconds
    }

    /// Whether every point's confidence interval covered the exact count.
    pub fn all_within_ci(&self) -> bool {
        self.covered_points == self.grid_points
    }
}

/// The full `momsim bench` outcome.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Whether the quick (CI smoke) parameters were used.
    pub quick: bool,
    /// Per-workload engine measurements.
    pub engine: Vec<EngineMeasurement>,
    /// Registered experiments regenerated by the sweep measurement.
    pub sweep_experiments: usize,
    /// Total report points those experiments produced.
    pub sweep_points: usize,
    /// Wall seconds for the whole registered-experiment set (one process,
    /// shared trace cache).
    pub sweep_seconds: f64,
    /// The sampled-vs-full grid comparison.
    pub sampled: SampledComparison,
}

impl PerfReport {
    /// Geometric mean of the per-workload engine speed-ups.
    pub fn engine_speedup_geomean(&self) -> f64 {
        if self.engine.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.engine.iter().map(|m| m.speedup().ln()).sum();
        (log_sum / self.engine.len() as f64).exp()
    }
}

/// Times replays of a prepared trace through a consumer, returning
/// (instructions, best seconds-per-replay).
///
/// A single replay of a pinned stream takes well under a millisecond on the
/// optimised engine — far too short to time reliably (scheduler preemption
/// or one cache-cold pass lands anywhere within a few hundred microseconds,
/// which once produced a nonsense committed speed-up of 0.95x on
/// `motion1/alpha/4w/1`).  Each pass therefore replays the stream into the
/// *same* consumer until at least `min_seconds` of wall time has elapsed
/// and divides by the replay count; the best pass is reported.  The
/// consumers are streaming and bounded-memory, so repeated replays are the
/// intended usage, not an artefact.
fn time_engine<S, F>(
    trace: &mom_arch::Trace,
    passes: usize,
    min_seconds: f64,
    mut fresh: F,
) -> (u64, f64)
where
    S: TraceSink,
    F: FnMut() -> S,
{
    let mut best = f64::INFINITY;
    for _ in 0..passes.max(1) {
        let mut sink = fresh();
        let mut replays = 0u32;
        let start = Instant::now();
        let elapsed = loop {
            trace.replay_into(1, &mut sink);
            replays += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= min_seconds {
                break elapsed;
            }
        };
        best = best.min(elapsed / replays as f64);
        std::hint::black_box(&sink);
    }
    (trace.len() as u64, best)
}

/// Runs the engine benchmarks: each pinned workload through both engines.
///
/// `quick` uses two passes (CI smoke); the full mode takes the best of
/// several passes for a stable committed number.  Both modes keep the
/// same minimum measurement window: the quick numbers feed the CI
/// regression gate, and shrinking the window is exactly what made short
/// measurements noisy enough to flag phantom regressions.
pub fn engine_benchmarks(quick: bool) -> Result<Vec<EngineMeasurement>, ExperimentError> {
    let passes = if quick { 2 } else { 3 };
    let min_seconds = 0.02;
    let mut out = Vec::with_capacity(ENGINE_WORKLOADS.len());
    for workload in ENGINE_WORKLOADS {
        let (trace, _) = steady_state_trace(workload.kernel, workload.isa, EXPERIMENT_SEED)?;
        let config = PipelineConfig::builder()
            .issue_width(workload.width)
            .memory(workload.memory)
            .build()
            .expect("a valid pinned workload configuration");
        let (instructions, optimized) = time_engine(&trace, passes, min_seconds, || {
            PipelineSim::new(config.clone())
        });
        let (_, reference) = time_engine(&trace, passes, min_seconds, || {
            ReferenceSim::new(config.clone())
        });
        out.push(EngineMeasurement {
            workload,
            instructions,
            optimized_ips: instructions as f64 / optimized,
            reference_ips: instructions as f64 / reference,
        });
    }
    Ok(out)
}

/// The three registered experiments whose reports derive from the one
/// shared union grid of [`full_sweep`] (everything else in the registry
/// runs on its own); the sweep measurement and `momsim sweep` share this
/// split.
pub const UNION_GRID_EXPERIMENTS: [&str; 3] = ["fig4", "fig5", "tables"];

/// Names of every registered experiment the sweep measurement covers —
/// the whole registry, by construction, so a newly registered experiment
/// is covered automatically.
pub fn sweep_experiment_names() -> Vec<&'static str> {
    crate::registry().iter().map(|e| e.name).collect()
}

/// Times one in-process regeneration of the full registered-experiment set
/// (shared functional-trace cache, no file I/O), returning
/// (total points, wall seconds).
pub fn time_full_set() -> Result<(usize, f64), ExperimentError> {
    let start = Instant::now();
    // The three kernel-level reports come from one shared union grid, just
    // as `momsim sweep` computes them; every other registered experiment
    // runs on its own.
    let results = full_sweep()?;
    let mut points = results.fig4.len() + results.fig5.len() + results.tables.len();
    for experiment in crate::registry() {
        if UNION_GRID_EXPERIMENTS.contains(&experiment.name) {
            continue;
        }
        points += experiment.run()?.points();
    }
    Ok((points, start.elapsed().as_secs_f64()))
}

/// Runs the sampled-vs-full comparison on the full kernel × ISA grid (the
/// `tables` spec): one exact run, one sampled run on the default schedule,
/// then a point-by-point error check of the estimates.
pub fn sampled_comparison() -> Result<SampledComparison, ExperimentError> {
    let sampling = SamplingConfig::DEFAULT;
    let full_spec = crate::spec::tables_spec();
    let sampled_spec = crate::ExperimentSpec {
        sampling: Some(sampling),
        ..full_spec.clone()
    };

    let start = Instant::now();
    let full = full_spec.run()?;
    let full_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let sampled = sampled_spec.run()?;
    let sampled_seconds = start.elapsed().as_secs_f64();

    let mut max_relative_error: f64 = 0.0;
    let mut covered_points = 0;
    for (exact, estimated) in full.points.iter().zip(&sampled.points) {
        let reference = exact.result.cycles;
        let estimate = estimated
            .result
            .sampled
            .as_ref()
            .expect("a sampled grid reports its estimates");
        let error =
            (estimated.result.cycles as f64 - reference as f64).abs() / reference.max(1) as f64;
        max_relative_error = max_relative_error.max(error);
        if estimate.covers(estimated.result.cycles, reference) {
            covered_points += 1;
        }
    }
    Ok(SampledComparison {
        sampling,
        grid_points: full.points.len(),
        full_seconds,
        sampled_seconds,
        max_relative_error,
        covered_points,
    })
}

/// Runs the whole perf suite.
///
/// The sweep is timed **first**, so the committed `sweep_seconds` reflects
/// a cold functional-trace cache — the same state a fresh `momsim sweep`
/// process starts from — rather than one pre-warmed by the engine
/// benchmarks.  The sampled-vs-full comparison runs last, on the warm
/// trace cache, so both of its runs pay identical functional costs and the
/// wall-time ratio isolates the timing engines.
pub fn run(quick: bool) -> Result<PerfReport, ExperimentError> {
    // Perf measures the *simulators*: suspend the persistent artifact store
    // for the whole suite, or a warm store would turn the sweep wall time
    // into a disk-read benchmark and invalidate the committed trajectory.
    let _bypass = mom_store::bypass_guard();
    let (sweep_points, sweep_seconds) = time_full_set()?;
    let engine = engine_benchmarks(quick)?;
    let sampled = sampled_comparison()?;
    Ok(PerfReport {
        quick,
        engine,
        sweep_experiments: sweep_experiment_names().len(),
        sweep_points,
        sweep_seconds,
        sampled,
    })
}

/// Formats the report as an aligned text table.
pub fn format_perf(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str("Engine throughput: optimized vs naive reference (retired instrs/sec)\n");
    out.push_str(&format!(
        "{:<28} {:>9} {:>12} {:>12} {:>9}\n",
        "workload", "instrs", "optimized", "reference", "speedup"
    ));
    for m in &report.engine {
        out.push_str(&format!(
            "{:<28} {:>9} {:>10.2}M {:>10.2}M {:>8.2}x\n",
            m.workload.id(),
            m.instructions,
            m.optimized_ips / 1e6,
            m.reference_ips / 1e6,
            m.speedup()
        ));
    }
    out.push_str(&format!(
        "engine speedup (geomean): {:.2}x\n\n",
        report.engine_speedup_geomean()
    ));
    out.push_str(&format!(
        "Full registered-experiment set ({} experiments, {} points): {:.3}s wall\n",
        report.sweep_experiments, report.sweep_points, report.sweep_seconds
    ));
    let s = &report.sampled;
    out.push_str(&format!(
        "\nSampled vs full timing (kernel x ISA grid, schedule {}): {} points\n",
        s.sampling, s.grid_points
    ));
    out.push_str(&format!(
        "full {:.3}s, sampled {:.3}s ({:.2}x), max rel error {:.2}%, {}/{} within 95% CI\n",
        s.full_seconds,
        s.sampled_seconds,
        s.speedup(),
        s.max_relative_error * 100.0,
        s.covered_points,
        s.grid_points
    ));
    out
}

/// The report as the machine-readable `BENCH_perf.json` document.
///
/// Everything except the keys listed in [`MEASURED_KEYS`] is deterministic
/// structure; [`check_structure`] relies on that split.
pub fn perf_json(report: &PerfReport) -> Json {
    Json::obj([
        ("schema", Json::int(1)),
        ("experiment", Json::str("perf")),
        ("seed", Json::int(EXPERIMENT_SEED as i64)),
        (
            "sweep_experiments",
            Json::Arr(
                sweep_experiment_names()
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        ("sweep_points", Json::int(report.sweep_points as i64)),
        ("sweep_seconds", Json::Num(report.sweep_seconds)),
        (
            "engine",
            Json::Arr(
                report
                    .engine
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("workload", Json::str(m.workload.id())),
                            ("instructions", Json::int(m.instructions as i64)),
                            ("optimized_instrs_per_sec", Json::Num(m.optimized_ips)),
                            ("reference_instrs_per_sec", Json::Num(m.reference_ips)),
                            ("speedup", Json::Num(m.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "engine_speedup_geomean",
            Json::Num(report.engine_speedup_geomean()),
        ),
        (
            "sampled",
            Json::obj([
                ("sampling", Json::str(report.sampled.sampling.to_string())),
                ("grid_points", Json::int(report.sampled.grid_points as i64)),
                // Deterministic (the simulators are): part of the checked
                // structure, pinning the estimator's accuracy in the repo.
                (
                    "max_relative_error",
                    Json::Num(report.sampled.max_relative_error),
                ),
                (
                    "covered_points",
                    Json::int(report.sampled.covered_points as i64),
                ),
                // Machine-dependent wall times.
                ("full_seconds", Json::Num(report.sampled.full_seconds)),
                ("sampled_seconds", Json::Num(report.sampled.sampled_seconds)),
                ("sampled_speedup", Json::Num(report.sampled.speedup())),
            ]),
        ),
    ])
}

/// JSON keys of `BENCH_perf.json` whose values are measured timings
/// (machine-dependent); every other value of the document is deterministic
/// structure.
pub const MEASURED_KEYS: [&str; 8] = [
    "sweep_seconds",
    "optimized_instrs_per_sec",
    "reference_instrs_per_sec",
    "speedup",
    "engine_speedup_geomean",
    "full_seconds",
    "sampled_seconds",
    "sampled_speedup",
];

/// Parses a committed `BENCH_perf.json`.
fn parse_committed(committed: &str) -> Result<Json, String> {
    json::parse(committed).map_err(|e| format!("the committed report does not parse: {e}"))
}

/// The first difference between two documents, ignoring only the values
/// of [`MEASURED_KEYS`]: object keys (and their order), array lengths and
/// every other value must match.  Named by its JSON path, e.g.
/// `engine[0].instructions`.
fn first_difference(committed: &Json, fresh: &Json, path: &str) -> Option<String> {
    let child = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    let here = match path {
        "" => "the document root",
        _ => path,
    };
    match (committed, fresh) {
        (Json::Obj(a), Json::Obj(b)) => {
            for index in 0..a.len().max(b.len()) {
                let ((key, x), (fresh_key, y)) = match (a.get(index), b.get(index)) {
                    (Some(x), Some(y)) => (x, y),
                    (Some((key, _)), None) => {
                        return Some(format!("{}: only in the committed report", child(key)))
                    }
                    (None, Some((key, _))) => {
                        return Some(format!("{}: only in the fresh report", child(key)))
                    }
                    (None, None) => unreachable!("index below both lengths"),
                };
                if key != fresh_key {
                    return Some(format!(
                        "{}: the fresh report has \"{fresh_key}\" in its place",
                        child(key)
                    ));
                }
                if !MEASURED_KEYS.contains(&key.as_str()) {
                    if let Some(difference) = first_difference(x, y, &child(key)) {
                        return Some(difference);
                    }
                }
            }
            None
        }
        (Json::Arr(a), Json::Arr(b)) => {
            let elements = a.iter().zip(b).enumerate();
            elements
                .filter_map(|(i, (x, y))| first_difference(x, y, &format!("{path}[{i}]")))
                .next()
                .or_else(|| {
                    (a.len() != b.len()).then(|| {
                        format!("{here}: committed {} entries, fresh {}", a.len(), b.len())
                    })
                })
        }
        _ if committed == fresh => None,
        _ => Some(format!("{here}: committed {committed}, fresh {fresh}")),
    }
}

/// Verifies that a freshly measured report has the same *structure* as a
/// committed `BENCH_perf.json`: both documents are compared as ordered
/// trees with only the [`MEASURED_KEYS`] values masked, so the benchmark
/// set, stream lengths, sweep coverage and sampling accuracy must match
/// exactly.  Returns the JSON path of the first mismatch, if any.
pub fn check_structure(committed: &str, fresh: &PerfReport) -> Result<(), String> {
    let committed = parse_committed(committed)?;
    match first_difference(&committed, &perf_json(fresh), "") {
        None => Ok(()),
        Some(difference) => Err(format!("structure differs at {difference}")),
    }
}

/// Fraction of the committed geomean engine speed-up a fresh measurement
/// must reach for [`check_performance`] to pass: the aggregate is stable
/// across machines, so only a quarter is granted to noise.
pub const GEOMEAN_REGRESSION_SLACK: f64 = 0.75;

/// Fraction of each committed per-workload speed-up a fresh measurement
/// must reach: individual sub-millisecond streams are noisier than the
/// aggregate, so the per-workload floor is wider.
pub const WORKLOAD_REGRESSION_SLACK: f64 = 0.5;

/// Verifies that freshly measured engine throughput has not **regressed**
/// against a committed `BENCH_perf.json`: the geomean speed-up must stay
/// above [`GEOMEAN_REGRESSION_SLACK`] of the committed value, and every
/// workload above [`WORKLOAD_REGRESSION_SLACK`] of its committed speed-up.
///
/// Unlike [`check_structure`] this compares *measured* values — the slack
/// factors absorb machine differences and noise, so only a real
/// order-of-magnitude loss (an accidentally de-optimised engine, a
/// quadratic scan reintroduced) fails the check.
pub fn check_performance(committed: &str, fresh: &PerfReport) -> Result<(), String> {
    let committed = parse_committed(committed)?;
    let committed_geomean = committed
        .get("engine_speedup_geomean")
        .and_then(Json::as_f64)
        .ok_or("no engine_speedup_geomean in the committed report")?;
    let workloads = committed
        .get("engine")
        .and_then(Json::as_arr)
        .filter(|entries| !entries.is_empty())
        .ok_or("no per-workload speed-ups in the committed report")?
        .iter()
        .map(|entry| {
            let id = entry
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("an engine entry without a workload id")?;
            let speedup = entry
                .get("speedup")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("engine entry {id} has no numeric speedup"))?;
            Ok((id, speedup))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let fresh_geomean = fresh.engine_speedup_geomean();
    let floor = committed_geomean * GEOMEAN_REGRESSION_SLACK;
    if fresh_geomean < floor {
        return Err(format!(
            "engine speed-up geomean regressed: measured {fresh_geomean:.2}x, committed \
             {committed_geomean:.2}x (floor {floor:.2}x)"
        ));
    }
    for (id, committed_speedup) in workloads {
        let measured = fresh
            .engine
            .iter()
            .find(|m| m.workload.id() == id)
            .ok_or_else(|| format!("workload {id} is in the committed report but not measured"))?
            .speedup();
        let floor = committed_speedup * WORKLOAD_REGRESSION_SLACK;
        if measured < floor {
            return Err(format!(
                "engine speed-up of {id} regressed: measured {measured:.2}x, committed \
                 {committed_speedup:.2}x (floor {floor:.2}x)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        PerfReport {
            quick: true,
            engine: vec![EngineMeasurement {
                workload: ENGINE_WORKLOADS[0],
                instructions: 5804,
                optimized_ips: 2.0e7,
                reference_ips: 1.0e7,
            }],
            sweep_experiments: sweep_experiment_names().len(),
            sweep_points: 322,
            sweep_seconds: 0.5,
            sampled: SampledComparison {
                sampling: SamplingConfig::DEFAULT,
                grid_points: 36,
                full_seconds: 0.08,
                sampled_seconds: 0.02,
                max_relative_error: 0.013,
                covered_points: 36,
            },
        }
    }

    #[test]
    fn workload_ids_are_stable_and_unique() {
        let ids: std::collections::HashSet<_> = ENGINE_WORKLOADS.iter().map(|w| w.id()).collect();
        assert_eq!(ids.len(), ENGINE_WORKLOADS.len());
        assert_eq!(ENGINE_WORKLOADS[0].id(), "motion1/alpha/4w/1");
        assert_eq!(ENGINE_WORKLOADS[3].id(), "motion1/mom/4w/cache");
    }

    #[test]
    fn speedup_and_geomean() {
        let report = tiny_report();
        assert!((report.engine[0].speedup() - 2.0).abs() < 1e-12);
        assert!((report.engine_speedup_geomean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn structure_check_ignores_timings_but_catches_workload_changes() {
        let report = tiny_report();
        let committed = perf_json(&report).pretty();
        // Different measured numbers, same structure: passes.
        let mut retimed = report.clone();
        retimed.engine[0].optimized_ips = 9.9e7;
        retimed.sweep_seconds = 0.001;
        assert!(check_structure(&committed, &retimed).is_ok());
        // A different stream length is a structural change: fails.
        let mut reshaped = report.clone();
        reshaped.engine[0].instructions += 1;
        let err = check_structure(&committed, &reshaped).unwrap_err();
        assert!(err.contains("engine[0].instructions"), "{err}");
        // A missing benchmark is a structural change: fails.
        let mut dropped = report.clone();
        dropped.engine.clear();
        let err = check_structure(&committed, &dropped).unwrap_err();
        assert!(
            err.contains("engine: committed 1 entries, fresh 0"),
            "{err}"
        );
        // Reordered keys, a dropped measured key and an unparsable document
        // all fail: the measured values are masked, their keys are not.
        let reordered = committed.replace(
            "\"schema\": 1,\n  \"experiment\": \"perf\"",
            "\"experiment\": \"perf\",\n  \"schema\": 1",
        );
        assert_ne!(reordered, committed);
        let err = check_structure(&reordered, &report).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let unmeasured = committed.replace("  \"sweep_seconds\": 0.5,\n", "");
        assert_ne!(unmeasured, committed);
        assert!(check_structure(&unmeasured, &report).is_err());
        assert!(check_structure(&committed[..committed.len() / 2], &report).is_err());
    }

    #[test]
    fn text_report_names_every_workload() {
        let report = tiny_report();
        let text = format_perf(&report);
        assert!(text.contains("motion1/alpha/4w/1"), "{text}");
        assert!(text.contains("geomean"), "{text}");
        assert!(text.contains("6 experiments"), "{text}");
        assert!(text.contains("Sampled vs full"), "{text}");
        assert!(text.contains("36/36 within 95% CI"), "{text}");
    }

    #[test]
    fn structure_check_pins_the_sampling_accuracy_but_not_its_wall_times() {
        let report = tiny_report();
        let committed = perf_json(&report).pretty();
        // Different machine, different wall times: still the same structure.
        let mut retimed = report.clone();
        retimed.sampled.full_seconds = 1.5;
        retimed.sampled.sampled_seconds = 0.2;
        assert!(check_structure(&committed, &retimed).is_ok());
        // A different error statistic is a real behavioural change: fails.
        let mut drifted = report.clone();
        drifted.sampled.max_relative_error = 0.5;
        assert!(check_structure(&committed, &drifted).is_err());
        let mut uncovered = report;
        uncovered.sampled.covered_points -= 1;
        assert!(check_structure(&committed, &uncovered).is_err());
    }

    #[test]
    fn performance_check_passes_within_slack_and_fails_on_regression() {
        let report = tiny_report();
        let committed = perf_json(&report).pretty();
        // Identical measurement: passes.
        assert!(check_performance(&committed, &report).is_ok());
        // Slightly slower but within the slack: passes.
        let mut noisy = report.clone();
        noisy.engine[0].optimized_ips = 1.6e7; // speed-up 1.6 vs committed 2.0
        assert!(check_performance(&committed, &noisy).is_ok());
        // An order-of-magnitude loss: both floors fail.
        let mut regressed = report.clone();
        regressed.engine[0].optimized_ips = 1.0e6; // speed-up 0.1
        let err = check_performance(&committed, &regressed).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // A workload missing from the fresh measurement is an error.
        let mut dropped = report;
        dropped.engine.clear();
        assert!(check_performance(&committed, &dropped).is_err());
        // Garbage committed documents are rejected, not ignored.
        assert!(check_performance("{}", &tiny_report()).is_err());
    }

    #[test]
    fn quick_engine_benchmarks_measure_something() {
        let measurements = engine_benchmarks(true).expect("benchmarks must run");
        assert_eq!(measurements.len(), ENGINE_WORKLOADS.len());
        for m in &measurements {
            assert!(m.instructions > 0);
            assert!(m.optimized_ips > 0.0);
            assert!(m.reference_ips > 0.0);
        }
    }
}
