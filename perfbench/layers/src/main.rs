//! Per-layer ledger of the momsim benchmark.
//!
//! The benchmark command (`perfbench/run.py`) measures end-to-end numbers
//! against the release `momsim` binary with no tracing.  This program is its
//! traced half: it repeats a workload's work in-process through the public
//! functions of each layer, records a span around every call from here (the
//! program itself is not instrumented), and derives the per-layer metrics.
//!
//! * `sweep` replays `momsim sweep` over a store directory: the union grid
//!   and the ablation grids are decomposed into the same store lookups,
//!   point decodes, trace fills, fan-out simulations, point encodes and
//!   store writes the binary performs, then the reports are emitted and
//!   compared byte for byte with the committed `BENCH_*.json`.  `--cold`
//!   (the store disabled) replays `sweep-cold`, a filled store
//!   `sweep-warm`.
//! * `serve` times the layers under the work a `serve-mixed` run gave the
//!   daemon, read from a work file `run.py` writes after the run.
//!
//! Both then time each layer directly on the workload's own items (the
//! traces it filled, the points it computed, the blobs it read), so a
//! layer the workload never touched reads zero.
//!
//! Usage:
//!   perfbench-layers sweep [--cold] --store DIR --committed DIR --scratch DIR
//!                          (--trace-out FILE | --untraced)
//!   perfbench-layers serve --store DIR --work FILE --scratch DIR --trace-out FILE
//!
//! The last line of standard output is one JSON object of metric values.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mom_arch::{codec, TraceStats};
use mom_bench::schedule::{self, PointJob};
use mom_bench::store::{decode_point, encode_point, result_key};
use mom_bench::{
    ablation_from, fig4_from, fig5_from, find_experiment, invocations_for, tables_from,
    ExperimentPoint, ExperimentSpec, GridResult, Report, EXPERIMENT_SEED, FIG4_WIDTHS,
};
use mom_isa::IsaKind;
use mom_kernels::{run_kernel, shared_kernel_run, trace_content_key, KernelId};
use mom_pipeline::{
    CacheSim, HierarchyConfig, MemoryModel, PipelineConfig, PipelineFanout, PipelineSim,
};
use mom_store::{Key, Store, StoreConfig, NS_RESULT, NS_TRACE};

/// Chrome trace process ids: the in-process replay of the workload, and
/// the direct per-layer calls on its items.
const PID_REPLAY: u32 = 1;
const PID_DIRECT: u32 = 2;

/// A (kernel, ISA, seed) triple: one functional trace.
type Triple = (KernelId, IsaKind, u64);

struct Event {
    pid: u32,
    tid: u64,
    cat: &'static str,
    name: &'static str,
    ts_us: f64,
    dur_us: f64,
    detail: String,
}

/// Spans recorded around calls into the layers, kept in memory until the
/// run ends.
struct Ledger {
    origin: Instant,
    enabled: bool,
    events: Mutex<Vec<Event>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Ledger {
    /// A ledger that records spans, or (`enabled == false`) one that only
    /// runs the calls, to price the recording.
    fn new(enabled: bool) -> Ledger {
        Ledger {
            origin: Instant::now(),
            enabled,
            events: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of layer `cat`; returns its value.
    fn span<T>(&self, pid: u32, cat: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_detail(pid, cat, name, String::new, f)
    }

    fn span_detail<T>(
        &self,
        pid: u32,
        cat: &'static str,
        name: &'static str,
        detail: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let event = Event {
            pid,
            tid: TID.with(|tid| *tid),
            cat,
            name,
            ts_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
            detail: detail(),
        };
        self.events
            .lock()
            .expect("ledger lock poisoned")
            .push(event);
        value
    }

    /// Durations in seconds of every span named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.events
            .lock()
            .expect("ledger lock poisoned")
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us / 1e6)
            .collect()
    }

    fn busy_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes the spans as Chrome trace-event JSON (the `--trace-out`
    /// format of `momsim`), loadable in Perfetto.
    fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let events = self.events.lock().expect("ledger lock poisoned");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (pid, label) in [(PID_REPLAY, "replay"), (PID_DIRECT, "direct")] {
            let _ = writeln!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}},"
            );
        }
        for (i, e) in events.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                e.name, e.cat, e.ts_us, e.dur_us, e.pid, e.tid, e.detail
            );
            out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64())
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `work / seconds`, or zero when the layer did no work.
fn rate(work: f64, seconds: f64) -> f64 {
    if work > 0.0 && seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// The in-process sweep replay
// ---------------------------------------------------------------------------

/// One (kernel, ISA) pair whose missing points the replay simulated.
struct TimedPair {
    triple: Triple,
    configs: Vec<PipelineConfig>,
    replication: usize,
}

/// What the replay touched, for the direct per-layer calls afterwards.
#[derive(Default)]
struct Touched {
    filled: BTreeSet<Triple>,
    timed: Vec<TimedPair>,
    keys: BTreeSet<u128>,
    points: Vec<ExperimentPoint>,
    fanout_instructions: u64,
}

/// The configurations `momsim sweep` measures once per (kernel, ISA) pair
/// for Figure 4, Figure 5 and Tables 1-9.
fn union_spec() -> ExperimentSpec {
    let mut configs: Vec<PipelineConfig> = FIG4_WIDTHS
        .iter()
        .map(|&w| PipelineConfig::way(w))
        .collect();
    configs.push(PipelineConfig::way_with_memory(4, MemoryModel::L2));
    configs.push(PipelineConfig::way_with_memory(4, MemoryModel::MAIN_MEMORY));
    configs.push(PipelineConfig::way_with_memory(4, MemoryModel::CACHE));
    ExperimentSpec {
        configs,
        ..ExperimentSpec::default()
    }
}

/// The points of one (kernel, ISA) pair, through the same steps as the
/// store-fronted grid runner: key, lookup, decode; for the missing ones the
/// shared trace fill, one fan-out over their configurations, encode, write.
fn replay_pair(
    ledger: &Ledger,
    touched: &Mutex<Touched>,
    spec: &ExperimentSpec,
    kernel: KernelId,
    isa: IsaKind,
) -> Result<Vec<ExperimentPoint>, String> {
    let store = mom_store::global();
    let pair = || format!("{}/{}", kernel.name(), isa.name());
    // `--cold`: the grid runner skips the store altogether, keys included.
    let keys: Vec<Key> = if store.is_active() {
        ledger.span_detail(PID_REPLAY, "bench", "bench.plan", pair, || {
            spec.configs
                .iter()
                .map(|c| result_key(kernel, isa, spec.seed, c, spec.replication, None))
                .collect()
        })
    } else {
        Vec::new()
    };
    let mut points: Vec<Option<ExperimentPoint>> = vec![None; spec.configs.len()];
    for ((&key, config), slot) in keys.iter().zip(&spec.configs).zip(&mut points) {
        let bytes = ledger.span(PID_REPLAY, "store", "store.get", || {
            store.get(NS_RESULT, key)
        });
        let point = bytes.and_then(|bytes| {
            ledger.span(PID_REPLAY, "bench", "bench.point_codec", || {
                decode_point(&bytes).ok()
            })
        });
        *slot = point.filter(|p| {
            p.kernel == kernel
                && p.isa == isa
                && p.width == config.width
                && p.memory == config.memory.label()
        });
    }
    let missing: Vec<usize> = (0..points.len()).filter(|&i| points[i].is_none()).collect();
    if !missing.is_empty() {
        let run = ledger
            .span_detail(PID_REPLAY, "kernels", "kernels.fill", pair, || {
                shared_kernel_run(kernel, isa, spec.seed)
            })
            .map_err(|e| format!("{}/{}: {e}", kernel.name(), isa.name()))?;
        let invocations = invocations_for(spec.replication, run.trace.len());
        let subset: Vec<PipelineConfig> =
            missing.iter().map(|&i| spec.configs[i].clone()).collect();
        let (results, stats) = ledger.span_detail(
            PID_REPLAY,
            "pipeline",
            "pipeline.fanout",
            || format!("{} x{}", pair(), subset.len()),
            || {
                let mut stats = TraceStats::default();
                let mut fanout = PipelineFanout::new(subset.iter().cloned());
                let mut sinks = (&mut stats, &mut fanout);
                run.trace.replay_into(invocations, &mut sinks);
                (fanout.finish(), stats)
            },
        );
        {
            let mut touched = touched.lock().expect("touched lock poisoned");
            touched.filled.insert((kernel, isa, spec.seed));
            touched.fanout_instructions += stats.instructions * subset.len() as u64;
            touched.timed.push(TimedPair {
                triple: (kernel, isa, spec.seed),
                configs: subset.clone(),
                replication: spec.replication,
            });
        }
        for ((&index, result), config) in missing.iter().zip(results).zip(&subset) {
            let point = ExperimentPoint {
                kernel,
                isa,
                width: config.width,
                mem_latency: config.memory.base_latency(),
                memory: config.memory.label(),
                invocations,
                result,
                stats,
            };
            if store.is_active() {
                let bytes = ledger.span(PID_REPLAY, "bench", "bench.point_codec", || {
                    encode_point(&point)
                });
                ledger.span(PID_REPLAY, "store", "store.put", || {
                    store.put(NS_RESULT, keys[index], bytes)
                });
            }
            points[index] = Some(point);
        }
    }
    let points: Vec<ExperimentPoint> = points
        .into_iter()
        .map(|p| p.expect("every grid slot is filled"))
        .collect();
    let mut touched = touched.lock().expect("touched lock poisoned");
    touched.keys.extend(keys.iter().map(|k| k.0));
    touched.points.extend(points.iter().cloned());
    Ok(points)
}

/// A whole grid, its (kernel, ISA) pairs spread over the same thread pool
/// the grid runner uses.
fn replay_grid(
    ledger: &Ledger,
    touched: &Mutex<Touched>,
    spec: &ExperimentSpec,
) -> Result<GridResult, String> {
    let pairs: Vec<(KernelId, IsaKind)> = spec
        .kernels
        .iter()
        .flat_map(|&k| spec.isas.iter().map(move |&i| (k, i)))
        .collect();
    let measured = mom_bench::sweep::parallel_map(pairs, |(kernel, isa)| {
        replay_pair(ledger, touched, spec, kernel, isa)
    });
    let mut points = Vec::with_capacity(spec.points());
    for pair_points in measured {
        points.extend(pair_points?);
    }
    Ok(GridResult {
        spec: spec.clone(),
        points,
    })
}

fn grid_spec(name: &str) -> Result<ExperimentSpec, String> {
    find_experiment(name)?
        .spec()
        .ok_or_else(|| format!("{name} is not a grid experiment"))
}

/// Emits one report inside a `bench.report` span: render, write.
fn emit(
    ledger: &Ledger,
    out_dir: &Path,
    name: &'static str,
    render: impl FnOnce() -> String,
) -> Result<String, String> {
    ledger.span_detail(
        PID_REPLAY,
        "bench",
        "bench.report",
        || name.to_string(),
        || {
            let text = render();
            std::fs::write(out_dir.join(name), &text)
                .map_err(|e| format!("cannot write {name}: {e}"))?;
            Ok(text)
        },
    )
}

fn cmd_sweep(opts: &Opts) -> Result<BTreeMap<String, f64>, String> {
    let store_dir = opts.path("--store")?;
    let committed = opts.path("--committed")?;
    let scratch = opts.path("--scratch")?;
    let out_dir = scratch.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    mom_store::configure(StoreConfig {
        dir: Some(store_dir.clone()),
        cold: opts.flag("--cold"),
    })?;
    let bytes_before = dir_bytes(&store_dir);
    let functional_before = mom_kernels::functional_executions();

    let traced = !opts.flag("--untraced");
    let ledger = Ledger::new(traced);
    let touched = Mutex::new(Touched::default());
    let wall = Instant::now();
    let mut docs: Vec<(&'static str, String)> = Vec::new();
    let union = replay_grid(&ledger, &touched, &union_spec())?;
    for (name, report) in [
        ("BENCH_fig4.json", Report::Fig4(fig4_from(&union))),
        ("BENCH_fig5.json", Report::Fig5(fig5_from(&union))),
        ("BENCH_tables.json", Report::Tables(tables_from(&union))),
    ] {
        docs.push((
            name,
            emit(&ledger, &out_dir, name, || report.json().pretty())?,
        ));
    }
    let apps = ledger.span(PID_REPLAY, "apps", "apps.run", || {
        find_experiment("app-speedups")?
            .run()
            .map_err(|e| e.to_string())
    })?;
    let text = emit(&ledger, &out_dir, "BENCH_apps.json", || {
        apps.json().pretty()
    })?;
    docs.push(("BENCH_apps.json", text));
    let lanes = replay_grid(&ledger, &touched, &grid_spec("ablation-lanes")?)?;
    let rob = replay_grid(&ledger, &touched, &grid_spec("ablation-rob")?)?;
    let series = [
        (
            "ablation-lanes",
            Report::Ablation(ablation_from(&lanes, "media-lanes", |c| c.media_lanes)),
        ),
        (
            "ablation-rob",
            Report::Ablation(ablation_from(&rob, "rob-size", |c| c.rob_size)),
        ),
    ];
    let text = emit(&ledger, &out_dir, "BENCH_ablations.json", || {
        mom_bench::cli::ablations_doc(&series).pretty()
    })?;
    docs.push(("BENCH_ablations.json", text));
    let replay_wall_s = wall.elapsed().as_secs_f64();

    let mut mismatched = 0.0;
    for (name, text) in &docs {
        let expected = std::fs::read(committed.join(name))
            .map_err(|e| format!("cannot read committed {name}: {e}"))?;
        if expected != text.as_bytes() {
            eprintln!("perfbench-layers: {name} differs from the committed report");
            mismatched += 1.0;
        }
    }

    let store = mom_store::global();
    let results = store.counters(NS_RESULT);
    let traces = store.counters(NS_TRACE);
    let hits = (results.hits() + traces.hits()) as f64;
    let misses = (results.misses + traces.misses) as f64;
    let touched = touched.into_inner().expect("touched lock poisoned");

    let mut m = BTreeMap::new();
    m.insert(
        "kernels.run.calls".into(),
        (mom_kernels::functional_executions() - functional_before) as f64,
    );
    m.insert("store.hit_ratio".into(), rate(hits, hits + misses));
    m.insert("store.fills".into(), (results.fills + traces.fills) as f64);
    m.insert(
        "store.bytes_written".into(),
        dir_bytes(&store_dir).saturating_sub(bytes_before) as f64,
    );
    let mut puts: Vec<f64> = ledger
        .durations("store.put")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    if !puts.is_empty() {
        // The workload's own writes; a workload that writes nothing gets
        // the scratch-store writes of the direct calls instead.
        m.insert("store.put.busy_s".into(), ledger.busy_s("store.put"));
        m.insert("store.put.us_p50".into(), median(&mut puts));
    }
    let fanout_s = ledger.busy_s("pipeline.fanout");
    m.insert("pipeline.fanout.busy_s".into(), fanout_s);
    m.insert(
        "pipeline.fanout.minstr_per_s".into(),
        rate(touched.fanout_instructions as f64 / 1e6, fanout_s),
    );
    let report_s = ledger.busy_s("bench.report");
    let report_bytes: usize = docs.iter().map(|(_, text)| text.len()).sum();
    m.insert("bench.report.busy_s".into(), report_s);
    m.insert(
        "bench.report.mb_per_s".into(),
        rate(report_bytes as f64 / 1e6, report_s),
    );
    m.insert("apps.run.busy_s".into(), ledger.busy_s("apps.run"));
    m.insert("replay.wall_s".into(), replay_wall_s);
    m.insert("replay.mismatched_reports".into(), mismatched);
    if !traced {
        return Ok(m);
    }

    let filled: Vec<Triple> = touched.filled.into_iter().collect();
    let registered = ["fig4", "fig5", "tables", "ablation-lanes", "ablation-rob"];
    direct_layers(
        &ledger,
        &mut m,
        &scratch,
        &filled,
        &[],
        &touched.timed,
        &touched.keys,
        &touched.points,
        &registered,
    )?;
    ledger.write_chrome(&opts.path("--trace-out")?)?;
    Ok(m)
}

// ---------------------------------------------------------------------------
// Direct calls into each layer, on the workload's own items
// ---------------------------------------------------------------------------

/// Times each layer's public functions on what the workload touched:
/// `encoded` traces were executed and encoded, `decoded` ones read back
/// from the store, `timed` pairs simulated, `keys` result blobs read or
/// written, `points` decoded or encoded, `registered` grids planned.
#[allow(clippy::too_many_arguments)]
fn direct_layers(
    ledger: &Ledger,
    m: &mut BTreeMap<String, f64>,
    scratch: &Path,
    encoded: &[Triple],
    decoded: &[Triple],
    timed: &[TimedPair],
    keys: &BTreeSet<u128>,
    points: &[ExperimentPoint],
    registered: &[&str],
) -> Result<(), String> {
    // kernels: functional execution + golden verification of one invocation.
    let (mut busy, mut instructions) = (0.0, 0u64);
    let mut runs = Vec::new();
    for &(kernel, isa, seed) in encoded {
        let (run, s) = clock(|| {
            ledger.span(PID_DIRECT, "kernels", "kernels.run", || {
                run_kernel(kernel, isa, seed, 1)
            })
        });
        let run = run.map_err(|e| format!("{}/{}: {e}", kernel.name(), isa.name()))?;
        busy += s;
        instructions += run.stats.instructions;
        runs.push(run);
    }
    m.insert("kernels.run.busy_s".into(), busy);
    m.insert(
        "kernels.run.minstr_per_s".into(),
        rate(instructions as f64 / 1e6, busy),
    );

    // codec: encode the traces the workload filled, decode the ones it
    // read back from the store.
    let (mut enc_s, mut enc_bytes, mut dec_s, mut dec_bytes) = (0.0, 0usize, 0.0, 0usize);
    for run in &runs {
        let (bytes, s) = clock(|| {
            ledger.span(PID_DIRECT, "codec", "codec.encode", || {
                codec::encode_trace(&run.trace, &run.stats)
            })
        });
        enc_s += s;
        enc_bytes += bytes.len();
    }
    let disk = Store::new(mom_store::global().dir().map(Path::to_path_buf));
    for &(kernel, isa, seed) in decoded {
        let Some(bytes) = disk.get_disk(NS_TRACE, trace_content_key(kernel, isa, seed)) else {
            continue;
        };
        let (trace, s) = clock(|| {
            ledger.span(PID_DIRECT, "codec", "codec.decode", || {
                codec::decode_trace(&bytes)
            })
        });
        trace.map_err(|e| {
            format!(
                "stored trace {}/{} does not decode: {e}",
                kernel.name(),
                isa.name()
            )
        })?;
        dec_s += s;
        dec_bytes += bytes.len();
    }
    m.insert(
        "codec.encode.mb_per_s".into(),
        rate(enc_bytes as f64 / 1e6, enc_s),
    );
    m.insert(
        "codec.decode.mb_per_s".into(),
        rate(dec_bytes as f64 / 1e6, dec_s),
    );
    m.insert("codec.bytes".into(), (enc_bytes + dec_bytes) as f64);

    // pipeline: one core per memory model, and the cache model alone, on
    // every stream the workload timed.
    let (mut fixed_s, mut hier_s, mut cache_s) = (0.0, 0.0, 0.0);
    let (mut streamed, mut accesses) = (0u64, 0u64);
    for pair in timed {
        let (kernel, isa, seed) = pair.triple;
        let run = shared_kernel_run(kernel, isa, seed).map_err(|e| e.to_string())?;
        let invocations = invocations_for(pair.replication, run.trace.len());
        streamed += (run.trace.len() * invocations) as u64;
        for (memory, total) in [
            (MemoryModel::PERFECT, &mut fixed_s),
            (MemoryModel::CACHE, &mut hier_s),
        ] {
            let name = if memory == MemoryModel::PERFECT {
                "pipeline.fixed"
            } else {
                "pipeline.hierarchy"
            };
            let (_, s) = clock(|| {
                ledger.span(PID_DIRECT, "pipeline", name, || {
                    let mut sim = PipelineSim::new(PipelineConfig::way_with_memory(4, memory));
                    run.trace.replay_into(invocations, &mut sim);
                    sim.finish()
                })
            });
            *total += s;
        }
        let (n, s) = clock(|| {
            ledger.span(PID_DIRECT, "pipeline", "pipeline.cachesim", || {
                let mut cache = CacheSim::new(HierarchyConfig::DEFAULT);
                let mut n = 0u64;
                for _ in 0..invocations {
                    for entry in run.trace.iter() {
                        if let Some(access) = &entry.mem {
                            std::hint::black_box(cache.access(access));
                            n += 1;
                        }
                    }
                }
                n
            })
        });
        cache_s += s;
        accesses += n;
    }
    m.insert(
        "pipeline.fixed.minstr_per_s".into(),
        rate(streamed as f64 / 1e6, fixed_s),
    );
    m.insert(
        "pipeline.hierarchy.minstr_per_s".into(),
        rate(streamed as f64 / 1e6, hier_s),
    );
    m.insert(
        "pipeline.cachesim.maccess_per_s".into(),
        rate(accesses as f64 / 1e6, cache_s),
    );

    // store: write the workload's result blobs into a scratch store, read
    // them back from disk through a fresh one, then from its memory tier.
    let payloads: Vec<(Key, Vec<u8>)> = keys
        .iter()
        .filter_map(|&k| {
            disk.get_disk(NS_RESULT, Key(k))
                .map(|bytes| (Key(k), bytes))
        })
        .collect();
    let dir = scratch.join("store-direct");
    let _ = std::fs::remove_dir_all(&dir);
    let writer = Store::new(Some(dir.clone()));
    let mut put_us = Vec::new();
    for (key, bytes) in &payloads {
        let (_, s) = clock(|| {
            ledger.span(PID_DIRECT, "store", "store.put", || {
                writer.put(NS_RESULT, *key, bytes.clone())
            })
        });
        put_us.push(s * 1e6);
    }
    let reader = Store::new(Some(dir.clone()));
    let (mut disk_us, mut mem_us) = (Vec::new(), Vec::new());
    for (key, _) in &payloads {
        let (_, s) = clock(|| {
            ledger.span(PID_DIRECT, "store", "store.get_disk", || {
                reader.get(NS_RESULT, *key)
            })
        });
        disk_us.push(s * 1e6);
        let (_, s) = clock(|| {
            ledger.span(PID_DIRECT, "store", "store.get_mem", || {
                reader.get(NS_RESULT, *key)
            })
        });
        mem_us.push(s * 1e6);
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.entry("store.put.us_p50".into())
        .or_insert_with(|| median(&mut put_us));
    m.entry("store.put.busy_s".into())
        .or_insert_with(|| put_us.iter().sum::<f64>() / 1e6);
    m.insert("store.get_disk.us_p50".into(), median(&mut disk_us));
    m.insert("store.get_mem.us_p50".into(), median(&mut mem_us));

    // bench: the batched fan-out against the per-point work unit, on the
    // points the workload computed (the store is bypassed, so both time the
    // simulation and nothing else).
    let (mut batch_s, mut unit_s, mut computed) = (0.0, 0.0, 0usize);
    {
        let _bypass = mom_store::bypass_guard();
        for pair in timed {
            let (kernel, isa, seed) = pair.triple;
            let (_, s) = clock(|| {
                ledger.span(PID_DIRECT, "bench", "bench.batch", || {
                    mom_bench::simulate_configs_replicated(
                        kernel,
                        isa,
                        &pair.configs,
                        seed,
                        pair.replication,
                    )
                })
            });
            batch_s += s;
            for config in &pair.configs {
                let job = PointJob {
                    kernel,
                    isa,
                    config: config.clone(),
                    seed,
                    replication: pair.replication,
                    sampling: None,
                };
                let (point, s) =
                    clock(|| ledger.span(PID_DIRECT, "bench", "bench.unit", || job.compute()));
                point.map_err(|e| e.to_string())?;
                unit_s += s;
            }
            computed += pair.configs.len();
        }
    }
    m.insert(
        "bench.batch.us_per_point".into(),
        rate(batch_s * 1e6, computed as f64),
    );
    m.insert(
        "bench.unit.us_per_point".into(),
        rate(unit_s * 1e6, computed as f64),
    );

    // bench: planning a registered grid and answering it from the store.
    let (mut plan_s, mut planned) = (0.0, 0usize);
    let registered = if mom_store::global().is_active() {
        registered
    } else {
        &[]
    };
    for name in registered {
        let spec = grid_spec(name)?;
        let (hits, s) = clock(|| {
            ledger.span(PID_DIRECT, "bench", "bench.plan", || {
                schedule::plan(&spec)
                    .iter()
                    .filter(|job| job.cached().is_some())
                    .count()
            })
        });
        if hits != spec.points() {
            return Err(format!("{name}: {hits} of {} points stored", spec.points()));
        }
        plan_s += s;
        planned += hits;
    }
    m.insert(
        "bench.plan.us_per_point".into(),
        rate(plan_s * 1e6, planned as f64),
    );

    let (_, codec_s) = clock(|| {
        ledger.span(PID_DIRECT, "bench", "bench.point_codec", || {
            points
                .iter()
                .map(|p| {
                    decode_point(&encode_point(p))
                        .map(|d| d.result.cycles)
                        .unwrap_or(0)
                })
                .sum::<u64>()
        })
    });
    m.insert(
        "bench.point_codec.us_per_point".into(),
        rate(codec_s * 1e6, points.len() as f64),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-mixed: the layers under the daemon's work
// ---------------------------------------------------------------------------

fn cmd_serve(opts: &Opts) -> Result<BTreeMap<String, f64>, String> {
    let store_dir = opts.path("--store")?;
    let work_path = opts.path("--work")?;
    let scratch = opts.path("--scratch")?;
    let trace_out = opts.path("--trace-out")?;
    mom_store::configure(StoreConfig {
        dir: Some(store_dir),
        cold: false,
    })?;
    let text = std::fs::read_to_string(&work_path)
        .map_err(|e| format!("cannot read {}: {e}", work_path.display()))?;
    let work = mom_serve::json::parse(&text).map_err(|e| format!("work file: {e}"))?;
    let strings = |key: &str| -> Vec<String> {
        work.get(key)
            .and_then(|v| v.as_arr())
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    };
    let explore_bodies = strings("explore");
    let reports = strings("reports");
    let docs = strings("docs");

    let ledger = Ledger::new(true);
    let mut m = BTreeMap::new();

    // serve: the daemon's JSON parser on the documents it served, and its
    // journal append on the submissions it accepted.
    let doc_bytes: usize = docs.iter().map(String::len).sum();
    let (parsed, parse_s) = clock(|| {
        ledger.span(PID_DIRECT, "serve", "serve.json.parse", || {
            docs.iter()
                .filter(|d| mom_serve::json::parse(d).is_ok())
                .count()
        })
    });
    if parsed != docs.len() {
        return Err(format!(
            "{} of {} job documents do not parse",
            docs.len() - parsed,
            docs.len()
        ));
    }
    m.insert(
        "serve.json.parse_mb_per_s".into(),
        rate(doc_bytes as f64 / 1e6, parse_s),
    );
    let journal_dir = scratch.join("journal-direct");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let (journal, _) =
        mom_serve::Journal::open(&journal_dir.join("journal.wal")).map_err(|e| e.to_string())?;
    let mut append_us = Vec::new();
    for (job, body) in explore_bodies.iter().enumerate() {
        let record = mom_serve::Record::Submit {
            job: job as u64 + 1,
            body: body.clone(),
        };
        let (_, s) = clock(|| {
            ledger.span(PID_DIRECT, "serve", "serve.journal.append", || {
                journal.append(&record)
            })
        });
        append_us.push(s * 1e6);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&journal_dir);
    m.insert("serve.journal.append_us".into(), median(&mut append_us));

    // The explore grids through the daemon's own submission parser.
    let mut specs = Vec::new();
    for body in &explore_bodies {
        let doc = mom_serve::json::parse(body).map_err(|e| format!("explore body: {e}"))?;
        match mom_serve::wire::parse_submit(&doc)? {
            mom_serve::wire::JobRequest::Grid { spec, .. } => specs.push(spec),
            mom_serve::wire::JobRequest::Apps { .. } => {}
        }
    }
    let mut encoded = BTreeSet::new();
    let mut decoded = BTreeSet::new();
    let mut timed_pairs: BTreeMap<(Triple, usize), Vec<PipelineConfig>> = BTreeMap::new();
    let mut keys = BTreeSet::new();
    for spec in &specs {
        for job in schedule::plan(spec) {
            let triple = (job.kernel, job.isa, job.seed);
            if job.seed == EXPERIMENT_SEED {
                decoded.insert(triple);
            } else {
                encoded.insert(triple);
            }
            let configs = timed_pairs.entry((triple, job.replication)).or_default();
            if !configs.contains(&job.config) {
                configs.push(job.config.clone());
            }
            keys.insert(job.key().0);
        }
    }
    let timed: Vec<TimedPair> = timed_pairs
        .into_iter()
        .map(|((triple, replication), configs)| TimedPair {
            triple,
            configs,
            replication,
        })
        .collect();
    let points: Vec<ExperimentPoint> = specs
        .iter()
        .flat_map(schedule::plan)
        .filter_map(|job| job.cached())
        .collect();

    // pipeline.fanout: one fan-out per explored pair over its configurations.
    let (mut fanout_s, mut fanout_instructions) = (0.0, 0u64);
    {
        let _bypass = mom_store::bypass_guard();
        for pair in &timed {
            let (kernel, isa, seed) = pair.triple;
            let run = shared_kernel_run(kernel, isa, seed).map_err(|e| e.to_string())?;
            let invocations = invocations_for(pair.replication, run.trace.len());
            let (_, s) = clock(|| {
                ledger.span(PID_DIRECT, "pipeline", "pipeline.fanout", || {
                    let mut fanout = PipelineFanout::new(pair.configs.iter().cloned());
                    run.trace.replay_into(invocations, &mut fanout);
                    fanout.finish()
                })
            });
            fanout_s += s;
            fanout_instructions += (run.trace.len() * invocations * pair.configs.len()) as u64;
        }
    }
    m.insert("pipeline.fanout.busy_s".into(), fanout_s);
    m.insert(
        "pipeline.fanout.minstr_per_s".into(),
        rate(fanout_instructions as f64 / 1e6, fanout_s),
    );

    // bench.report: the daemon's report replay, rendered from the store.
    let (mut report_s, mut report_bytes) = (0.0, 0usize);
    for name in &reports {
        let experiment = match name.as_str() {
            "apps" => "app-speedups",
            "ablations" => continue,
            other => other,
        };
        let (text, s) = clock(|| {
            ledger.span(PID_DIRECT, "bench", "bench.report", || {
                find_experiment(experiment)
                    .and_then(|e| e.run().map_err(|e| e.to_string()))
                    .map(|r| r.json().pretty())
            })
        });
        report_s += s;
        report_bytes += text?.len();
    }
    m.insert("bench.report.busy_s".into(), report_s);
    m.insert(
        "bench.report.mb_per_s".into(),
        rate(report_bytes as f64 / 1e6, report_s),
    );
    m.insert("apps.run.busy_s".into(), 0.0);

    let encoded: Vec<Triple> = encoded.into_iter().collect();
    let decoded: Vec<Triple> = decoded.into_iter().collect();
    let registered = ["fig4", "fig5", "tables", "ablation-lanes", "ablation-rob"];
    direct_layers(
        &ledger,
        &mut m,
        &scratch,
        &encoded,
        &decoded,
        &timed,
        &keys,
        &points,
        &registered,
    )?;
    ledger.write_chrome(&trace_out)?;
    Ok(m)
}

// ---------------------------------------------------------------------------

struct Opts(Vec<String>);

impl Opts {
    fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn path(&self, flag: &str) -> Result<PathBuf, String> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing {flag} PATH"))
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.is_empty() {
        String::new()
    } else {
        args.remove(0)
    };
    let opts = Opts(args);
    let result = match command.as_str() {
        "sweep" => cmd_sweep(&opts),
        "serve" => cmd_serve(&opts),
        _ => Err("usage: perfbench-layers (sweep|serve) --store DIR ... --trace-out FILE".into()),
    };
    match result {
        Ok(metrics) => {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            let fields: Vec<String> = metrics
                .iter()
                .map(|(name, value)| format!("\"{name}\": {:?}", value + 0.0))
                .collect();
            println!("{{{}}}", fields.join(", "));
        }
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            std::process::exit(1);
        }
    }
}
