//! Grid points as units of work, and the one function that computes them.
//!
//! A [`PointJob`] is one grid point.  It knows its content key in the
//! persistent store ([`PointJob::key`]) and can answer "is this already
//! done?" without computing anything ([`PointJob::cached`]); that key is the
//! dedup identity of the `momsim serve` job queue.
//!
//! Points are *computed* in pair batches.  [`compute_group`] takes jobs that
//! share one (kernel, ISA, seed, replication, sampling) pair, looks every
//! point up in the store, fans the pair's verified functional trace out over
//! the missing configurations at once, and writes the fresh points back.  It
//! is the only code that simulates a grid point:
//!
//! * [`ExperimentSpec::run`] (so `momsim run` and `momsim sweep` at any
//!   `--jobs N`) splits [`plan`] into per-pair chunks and hands them to the
//!   thread pool, one group per chunk;
//! * the daemon's workers claim every queued unit of a pair together and
//!   compute them as one group;
//! * [`PointJob::compute`] is the one-element group.
//!
//! Consumers of a fan-out are independent, so a point's result does not
//! depend on which other configurations shared its group (pinned by
//! `point_schedule_matches_pair_fanout`), and every schedule produces
//! byte-identical reports.

use crate::spec::ExperimentSpec;
use crate::{invocations_for, store, ExperimentPoint, MIN_SAMPLED_INTERVALS};
use mom_arch::TraceStats;
use mom_isa::IsaKind;
use mom_kernels::{shared_kernel_run, trace_content_key, KernelError, KernelId};
use mom_pipeline::{PipelineConfig, PipelineFanout, SampledFanout, SamplingConfig};

/// One grid point as a schedulable, content-addressed unit of work.
#[derive(Debug, Clone)]
pub struct PointJob {
    /// The kernel to measure.
    pub kernel: KernelId,
    /// The ISA of the program.
    pub isa: IsaKind,
    /// The machine configuration to time the stream on.
    pub config: PipelineConfig,
    /// Seed of the deterministic synthetic workload.
    pub seed: u64,
    /// Target dynamic-stream length in instructions.
    pub replication: usize,
    /// Systematic-sampling schedule; `None` is exact timing.
    pub sampling: Option<SamplingConfig>,
}

impl PointJob {
    /// The content hash addressing this point in the persistent store —
    /// the dedup identity of the job queue: two submissions overlap exactly
    /// when their [`PointJob`]s share keys.
    pub fn key(&self) -> mom_store::Key {
        store::result_key(
            self.kernel,
            self.isa,
            self.seed,
            &self.config,
            self.replication,
            self.sampling,
        )
    }

    /// The finished point, **if** the persistent store already holds it —
    /// no functional run, no simulation, no fill.  `None` when the store is
    /// inactive or the point is missing.
    pub fn cached(&self) -> Option<ExperimentPoint> {
        self.lookup(self.key())
    }

    /// Computes the point as a one-element [`compute_group`]: the result
    /// lands in the store, and the functional run is shared process-wide
    /// with every other job of the same (kernel, ISA, seed).
    pub fn compute(&self) -> Result<ExperimentPoint, KernelError> {
        let mut points = compute_group(std::slice::from_ref(self))?;
        Ok(points.pop().expect("one job in, one point out"))
    }

    /// The point's coordinates for messages: `kernel/isa/wayN/memory`,
    /// e.g. `addblock/mom/way4/50`.
    pub fn describe(&self) -> String {
        format!(
            "{}/{}/way{}/{}",
            self.kernel.name(),
            self.isa.name(),
            self.config.width,
            self.config.memory.label()
        )
    }

    /// Whether `other` times the same stream — the same (kernel, ISA, seed,
    /// replication, sampling) — so one [`compute_group`] can hold both.
    pub fn same_pair(&self, other: &PointJob) -> bool {
        let pair = |job: &PointJob| (job.kernel, job.isa, job.seed, job.replication, job.sampling);
        pair(self) == pair(other)
    }

    /// Reads the point stored under `key`.  `None` when the store is
    /// inactive, the blob is missing or damaged, or the decoded point does
    /// not describe exactly this coordinate (a hash collision would be the
    /// only path to the latter).
    fn lookup(&self, key: mom_store::Key) -> Option<ExperimentPoint> {
        let persistent = mom_store::global();
        if !persistent.is_active() {
            return None;
        }
        let decoded = persistent
            .get(mom_store::NS_RESULT, key)
            .and_then(|bytes| store::decode_point(&bytes).ok())?;
        (decoded.kernel == self.kernel
            && decoded.isa == self.isa
            && decoded.width == self.config.width
            && decoded.memory == self.config.memory.label())
        .then_some(decoded)
    }
}

/// Computes a batch of points of one pair (see [`PointJob::same_pair`]),
/// returning one point per job, in order.
///
/// Every point's key is hashed once — the pair's trace content key once
/// for the whole group — and looked up in the persistent store;
/// only the **missing** configurations are timed, in one fan-out of the
/// pair's verified functional trace (from the process-wide trace cache,
/// replayed by reference), and their fresh points are written back.  With
/// a fully warm store nothing executes or simulates; with the store
/// inactive (`--cold`) no key is hashed and every point is timed.
///
/// # Panics
///
/// When the jobs do not all share one pair.
pub fn compute_group(jobs: &[PointJob]) -> Result<Vec<ExperimentPoint>, KernelError> {
    let Some(pair) = jobs.first() else {
        return Ok(Vec::new());
    };
    assert!(
        jobs.iter().all(|job| job.same_pair(pair)),
        "a compute group holds the points of one pair"
    );
    let persistent = mom_store::global();
    let keys: Vec<mom_store::Key> = if persistent.is_active() {
        let trace = trace_content_key(pair.kernel, pair.isa, pair.seed);
        jobs.iter()
            .map(|job| {
                store::result_key_for_trace(
                    mom_pipeline::ENGINE_VERSION,
                    trace,
                    &job.config,
                    job.replication,
                    job.sampling,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut points: Vec<Option<ExperimentPoint>> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| keys.get(i).and_then(|&key| job.lookup(key)))
        .collect();
    let missing: Vec<usize> = (0..jobs.len()).filter(|&i| points[i].is_none()).collect();
    if !missing.is_empty() {
        let configs: Vec<PipelineConfig> =
            missing.iter().map(|&i| jobs[i].config.clone()).collect();
        let _span = mom_obs::span_fmt("simulate", || {
            format!(
                "simulate {:?}/{:?} x{}",
                pair.kernel,
                pair.isa,
                configs.len()
            )
        });
        let fresh = fan_out(pair, &configs)?;
        for (&index, point) in missing.iter().zip(fresh) {
            if let Some(&key) = keys.get(index) {
                persistent.put(mom_store::NS_RESULT, key, store::encode_point(&point));
            }
            points[index] = Some(point);
        }
    }
    Ok(points
        .into_iter()
        .map(|p| p.expect("every grid slot is filled"))
        .collect())
}

/// Times `pair`'s stream on every configuration at once: a lockstep
/// [`PipelineFanout`], or a [`SampledFanout`] when the pair is sampled.
/// The single verified invocation is replayed until the stream holds at
/// least `replication` instructions.
fn fan_out(
    pair: &PointJob,
    configs: &[PipelineConfig],
) -> Result<Vec<ExperimentPoint>, KernelError> {
    let run = shared_kernel_run(pair.kernel, pair.isa, pair.seed)?;
    let invocations = invocations_for(pair.replication, run.trace.len());
    let mut stats = TraceStats::default();
    let results = match pair.sampling {
        None => {
            let mut fanout = PipelineFanout::new(configs.iter().cloned());
            run.trace
                .replay_into(invocations, &mut (&mut stats, &mut fanout));
            fanout.finish()
        }
        Some(sampling) => {
            let schedule = sampling_schedule(sampling, run.trace.len() as u64, invocations);
            let mut fanout = SampledFanout::new(configs.iter().cloned(), schedule);
            run.trace
                .replay_into(invocations, &mut (&mut stats, &mut fanout));
            fanout.finish()
        }
    };
    Ok(results
        .into_iter()
        .zip(configs)
        .map(|(result, config)| ExperimentPoint {
            kernel: pair.kernel,
            isa: pair.isa,
            width: config.width,
            mem_latency: config.memory.base_latency(),
            memory: config.memory.label(),
            invocations,
            result,
            stats,
        })
        .collect())
}

/// The schedule a sampled pair actually runs.  The requested schedule is
/// [aligned](SamplingConfig::aligned_to) to the invocation length: the
/// stream is one invocation replayed, and invocation-aligned intervals
/// measure whole loop iterations at a fixed phase instead of aliasing
/// against it.  A stream too short to hold [`MIN_SAMPLED_INTERVALS`]
/// measurement intervals — (k - 1) periods plus one final warm-up and
/// detailed span for k intervals — runs fully detailed instead, so its
/// points report the exact cycle count with a zero-width interval: a
/// couple of long invocations have nothing worth skipping, and
/// extrapolating from one measurement dominated by the cold-start head of
/// the stream is exactly the bias sampling must avoid.
fn sampling_schedule(
    requested: SamplingConfig,
    invocation_entries: u64,
    invocations: usize,
) -> SamplingConfig {
    let total = invocation_entries * invocations as u64;
    let sampling = requested.aligned_to(invocation_entries);
    let min_stream =
        (MIN_SAMPLED_INTERVALS - 1) * sampling.period() + sampling.warmup + sampling.detailed;
    if total < min_stream {
        SamplingConfig {
            detailed: total,
            fastforward: sampling.fastforward,
            warmup: 0,
        }
    } else {
        sampling
    }
}

/// Decomposes a spec into one [`PointJob`] per grid point, in the spec's
/// axis order (kernel-major, then ISA, then configuration) — the same order
/// [`ExperimentSpec::run`] emits points, so `plan(spec)[i]` is point `i` of
/// the grid, and each pair's jobs are one contiguous run of
/// `spec.configs.len()`.
pub fn plan(spec: &ExperimentSpec) -> Vec<PointJob> {
    let mut jobs = Vec::with_capacity(spec.points());
    for &kernel in &spec.kernels {
        for &isa in &spec.isas {
            for config in &spec.configs {
                jobs.push(PointJob {
                    kernel,
                    isa,
                    config: config.clone(),
                    seed: spec.seed,
                    replication: spec.replication,
                    sampling: spec.sampling,
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENT_SEED;

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec {
            kernels: vec![KernelId::AddBlock, KernelId::Motion1],
            isas: vec![IsaKind::Mmx, IsaKind::Mom],
            configs: vec![PipelineConfig::way(2), PipelineConfig::way(4)],
            replication: 64,
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn plan_matches_grid_order_and_keys_are_distinct() {
        let spec = small_spec();
        let jobs = plan(&spec);
        assert_eq!(jobs.len(), spec.points());
        // Kernel-major, then ISA, then config — the GridResult point order.
        assert_eq!(jobs[0].kernel, KernelId::AddBlock);
        assert_eq!(jobs[0].isa, IsaKind::Mmx);
        assert_eq!(jobs[0].config.width, 2);
        assert_eq!(jobs[1].config.width, 4);
        assert_eq!(jobs[2].isa, IsaKind::Mom);
        assert_eq!(jobs[4].kernel, KernelId::Motion1);
        let mut keys: Vec<_> = jobs.iter().map(PointJob::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len(), "every point has a distinct key");
        // The key is the result_key of the same coordinate.
        assert_eq!(
            jobs[0].key(),
            store::result_key(
                KernelId::AddBlock,
                IsaKind::Mmx,
                EXPERIMENT_SEED,
                &PipelineConfig::way(2),
                64,
                None
            )
        );
    }

    #[test]
    fn point_schedule_matches_pair_fanout() {
        // A point computed as a one-element group equals the same point
        // timed in its pair's full fan-out.  Byte-level equivalence over
        // full sweeps at every thread count is pinned by tests/sweep_jobs.rs.
        let _cold = mom_store::bypass_guard();
        let spec = small_spec();
        let fanned = spec.run().unwrap();
        let pointwise: Vec<ExperimentPoint> = plan(&spec)
            .iter()
            .map(|job| job.compute().unwrap())
            .collect();
        assert_eq!(fanned.points.len(), pointwise.len());
        for (a, b) in fanned.points.iter().zip(&pointwise) {
            assert_eq!((a.kernel, a.isa, a.width), (b.kernel, b.isa, b.width));
            assert_eq!(a.result, b.result);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.invocations, b.invocations);
        }
    }

    #[test]
    #[should_panic(expected = "one pair")]
    fn a_group_spanning_two_pairs_is_rejected() {
        let jobs = plan(&small_spec());
        // jobs[1] is AddBlock/MMX, jobs[2] AddBlock/MOM.
        let _ = compute_group(&jobs[1..3]);
    }
}
