//! SMARTS-style systematic sampling for the timing engine.
//!
//! A full-fidelity run pays the out-of-order engine for every instruction
//! of the stream.  Most of that work is redundant on the steady-state
//! streams the paper's experiments replay: the CPI of a kernel loop barely
//! moves between iterations.  [`SampledSim`] exploits that by alternating
//! two modes over the stream:
//!
//! * **detailed intervals** — `warmup + detailed` instructions are fed
//!   through a real [`PipelineSim`]; the first `warmup` instructions prime
//!   the window and scheduler and are excluded from measurement, the next
//!   `detailed` instructions contribute one CPI sample (measured as the
//!   difference of two drain probes, see
//!   `PipelineSim::drained_cycle_count`);
//! * **fast-forward spans** — the next `fastforward` instructions bypass
//!   the window and issue machinery entirely and only replay their memory
//!   accesses into the cache model, so the L1/L2 state a later interval
//!   observes is exactly what a full run would have left behind.
//!
//! The final cycle count is a **stratified** extrapolation: the
//! cold-start head of the stream (the first interval's warm-up, where the
//! resumed state is the true machine state) is counted exactly, and the
//! steady-state `mean CPI × body instructions` covers the rest.  The
//! per-interval spread is reported as a ~95% confidence interval in
//! [`SimResult::sampled`] (a Student-t interval widened by a conservative
//! relative floor for the systematic error the estimator cannot see).
//! Architectural counters — instructions, operations, media/memory mix,
//! cache hit/miss counters — are **exact**: every entry of the stream is
//! observed in one mode or the other.
//!
//! On periodic streams (one kernel invocation replayed many times — every
//! benchmark grid) the schedule should be
//! [aligned](SamplingConfig::aligned_to) to the invocation length first:
//! interval boundaries then always land on the same loop phase, so the
//! backlog terms of the two drain probes cancel exactly instead of
//! aliasing against the loop.
//!
//! Sampling is strictly opt-in: nothing in the full-fidelity path is
//! touched, and a degenerate stream shorter than one detailed interval is
//! reported exactly (zero-width interval).  [`SampledFanout`] is the
//! sampled counterpart of [`crate::PipelineFanout`] for configuration
//! sweeps.

use crate::cache::{CacheSim, CacheStats};
use crate::config::PipelineConfig;
use crate::ooo::{Pipeline, PipelineSim};
use crate::stats::{SamplingEstimate, SimResult};
use mom_arch::{Trace, TraceEntry, TraceSink};
use mom_isa::FuClass;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// The systematic-sampling schedule: how a sampled run alternates between
/// detailed simulation and cache-warming fast-forward.
///
/// The stream is consumed in periods of `warmup + detailed + fastforward`
/// instructions, starting with a detailed interval at the head of the
/// stream.  The default schedule keeps the period **prime** (1021) so a
/// raw, unaligned schedule cannot lock onto the loop period of a replayed
/// kernel invocation; consumers that know the invocation length (the
/// benchmark grids) should instead round the schedule onto whole
/// invocations with [`SamplingConfig::aligned_to`], which turns that
/// phase lock from a hazard into the measurement's foundation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Instructions measured in detail per interval.
    pub detailed: u64,
    /// Instructions fast-forwarded (cache model only) between intervals.
    pub fastforward: u64,
    /// Instructions simulated in detail before each measurement to prime
    /// the window and scheduler, excluded from the CPI sample.
    pub warmup: u64,
}

impl SamplingConfig {
    /// The default schedule: 200 measured + 150 warm-up instructions per
    /// interval, 671 fast-forwarded between intervals (a prime period of
    /// 1021, ~34% of the stream simulated in detail).
    ///
    /// The warm-up is sized to **refill the deepest default window** (the
    /// 8-wide machine's 128-entry reorder buffer) after a fast-forward
    /// span, so the measured instructions run at steady-state occupancy
    /// rather than on a ramping pipeline; a shorter warm-up measurably
    /// biases wide-machine CPI upward.
    pub const DEFAULT: SamplingConfig = SamplingConfig {
        detailed: 200,
        fastforward: 671,
        warmup: 150,
    };

    /// Validates the schedule: a measurement interval and a fast-forward
    /// span of at least one instruction each (a zero fast-forward is just
    /// full simulation at extra cost; ask for that directly instead).
    pub fn validate(&self) -> Result<(), String> {
        if self.detailed == 0 {
            return Err("sampling needs a detailed interval of at least one instruction".into());
        }
        if self.fastforward == 0 {
            return Err(
                "sampling needs a fast-forward span of at least one instruction \
                 (a zero span is full simulation; run the full engine instead)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Length of one full sampling period in instructions.
    pub fn period(&self) -> u64 {
        self.warmup + self.detailed + self.fastforward
    }

    /// Rounds every span of the schedule **up to whole multiples of
    /// `unit` instructions** (an invocation length), so each interval
    /// boundary lands on the same phase of a periodic stream.
    ///
    /// On the benchmark grids a stream is one kernel invocation replayed
    /// many times.  Sampling such a stream with an arbitrary period puts
    /// interval boundaries at arbitrary loop phases, and the drain-probe
    /// measurement then picks up phase-dependent bias: the in-flight
    /// backlog differs between the warm-up boundary and the interval end,
    /// so their drain times do not cancel out of the subtraction.
    /// Aligning the schedule makes both probe points the *same* position
    /// in the periodic steady state — the backlog terms cancel exactly,
    /// every measurement covers whole invocations, and the warm-up
    /// replays complete invocations so cross-invocation dependence
    /// chains are rebuilt before measurement starts.
    ///
    /// The detailed span is additionally rounded up to an **even** number
    /// of invocations (at least two): replayed kernels commonly settle
    /// into a period-two steady state (consecutive invocations alternate
    /// between a fast and a slow phase as their in-flight work meshes),
    /// and a span covering whole oscillation cycles yields an unbiased
    /// sample no matter which phase the interval lands on.  A `unit` of
    /// zero or one (or an explicit zero warm-up) leaves the schedule
    /// unchanged.
    #[must_use]
    pub fn aligned_to(self, unit: u64) -> SamplingConfig {
        if unit <= 1 {
            return self;
        }
        let round_up = |v: u64| v.div_ceil(unit) * unit;
        SamplingConfig {
            detailed: self.detailed.div_ceil(unit).max(2).next_multiple_of(2) * unit,
            fastforward: round_up(self.fastforward),
            warmup: round_up(self.warmup),
        }
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::DEFAULT
    }
}

impl fmt::Display for SamplingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.detailed, self.fastforward, self.warmup)
    }
}

/// Error parsing a `detailed:fastforward:warmup` sampling schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSamplingConfigError(String);

impl fmt::Display for ParseSamplingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid sampling schedule '{}': expected detailed:fastforward:warmup, \
             e.g. '{}'",
            self.0,
            SamplingConfig::DEFAULT
        )
    }
}

impl std::error::Error for ParseSamplingConfigError {}

impl FromStr for SamplingConfig {
    type Err = ParseSamplingConfigError;

    /// Parses `detailed:fastforward:warmup`, e.g. `200:671:150`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSamplingConfigError(s.to_string());
        let mut parts = s.split(':');
        let mut next = || -> Result<u64, ParseSamplingConfigError> {
            parts
                .next()
                .ok_or_else(err)?
                .trim()
                .parse()
                .map_err(|_| err())
        };
        let config = SamplingConfig {
            detailed: next()?,
            fastforward: next()?,
            warmup: next()?,
        };
        if parts.next().is_some() {
            return Err(err());
        }
        config.validate().map_err(|_| err())?;
        Ok(config)
    }
}

/// Student-t 97.5% quantiles for 1..=30 degrees of freedom (then ~normal).
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

fn t_975(df: usize) -> f64 {
    if df == 0 {
        0.0
    } else if df <= T_975.len() {
        T_975[df - 1]
    } else {
        1.96
    }
}

/// Relative floor on the confidence-interval half-width: the drain-probe
/// estimator carries systematic error (interval boundaries drain the
/// pipeline; a resumed interval forgets in-flight state; the short paper
/// streams yield only a handful of intervals) that the per-interval
/// spread cannot see, so the reported interval is never narrower than
/// this fraction of the estimate.  Calibrated against the full kernel ×
/// ISA grids with the invocation-aligned default schedule: the worst
/// observed estimator error on any registered experiment is ~4.5%, so a
/// 10% floor keeps every confidence interval honest with ~2× margin (the
/// error-bound test in `mom-bench` re-verifies this on every run).
const SYSTEMATIC_FLOOR: f64 = 0.10;

/// Which mode the sampled consumer is currently in.
#[derive(Debug, Clone)]
enum Phase {
    /// Feeding a detailed interval through a real engine.
    Detailed {
        /// The timing engine of this interval (resumed on the warm cache).
        sim: Box<PipelineSim>,
        /// Entries fed into this interval so far.
        fed: u64,
        /// Drain-probe cycle count at the warm-up boundary; `Some(0)`
        /// immediately when the schedule has no warm-up.
        warm_cycles: Option<u64>,
    },
    /// Fast-forwarding: only the cache model observes the entries.
    FastForward {
        /// Entries left before the next detailed interval begins.
        left: u64,
    },
}

/// The sampled timing consumer: a drop-in alternative to [`PipelineSim`]
/// that estimates the cycle count from systematically sampled detailed
/// intervals (see the [module docs](crate::sample)).
///
/// Implements [`TraceSink`], so it can be attached to
/// `Machine::run_with_sink` or [`Trace::replay_into`] exactly like the
/// full-fidelity consumer; [`SampledSim::finish`] returns a [`SimResult`]
/// whose [`SimResult::sampled`] field reports the confidence interval.
#[derive(Debug, Clone)]
pub struct SampledSim {
    config: PipelineConfig,
    sampling: SamplingConfig,
    phase: Phase,
    /// The cache hierarchy between detailed intervals (inside the engine
    /// during one); `None` under a fixed-latency memory model.
    dcache: Option<CacheSim>,
    /// Exact architectural counters over the whole stream.
    instructions: u64,
    operations: u64,
    media_instructions: u64,
    memory_instructions: u64,
    /// Cache counters harvested from completed spans (the live tail stays
    /// in `dcache`/the engine until the next harvest).
    cache_acc: CacheStats,
    /// Per-interval CPI samples and their weights (measured instructions).
    samples: Vec<f64>,
    weights: Vec<u64>,
    /// Totals over the measured (post-warm-up) parts of all intervals.
    detailed_cycles: u64,
    detailed_instructions: u64,
    /// Secondary statistics accumulated over the detailed windows only.
    fu_busy: HashMap<FuClass, u64>,
    max_rob_occupancy: usize,
    dispatch_stall_cycles: u64,
    /// Entries consumed by fast-forward spans.
    ff_entries: u64,
    /// Completed detailed intervals.
    intervals_completed: usize,
    /// Exact cycles and instructions of the **cold-start head**: the first
    /// interval's warm-up runs at the true head of the stream (the resumed
    /// state *is* the real machine state there — empty window, cold
    /// cache), so its drain-probe cycle count is a measurement, not an
    /// artifact.  The estimator counts this stratum exactly and
    /// extrapolates the steady-state CPI only over the remaining
    /// instructions; without the split, a cache-cold first invocation is
    /// averaged away and the extrapolated total lands well under truth.
    head_cycles: u64,
    head_instructions: u64,
    /// Exact total cycle count, available while the whole stream so far
    /// has been simulated in detail (cleared by the first fast-forwarded
    /// entry): lets a stream shorter than one period report exact timing.
    exact_cycles: Option<u64>,
}

impl SampledSim {
    /// Creates a sampled consumer for the given machine configuration and
    /// sampling schedule.
    ///
    /// # Panics
    /// Panics if either configuration fails validation.
    pub fn new(config: PipelineConfig, sampling: SamplingConfig) -> Self {
        sampling.validate().expect("invalid sampling schedule");
        let sim = PipelineSim::new(config.clone());
        SampledSim {
            config,
            phase: Phase::Detailed {
                sim: Box::new(sim),
                fed: 0,
                warm_cycles: if sampling.warmup == 0 { Some(0) } else { None },
            },
            sampling,
            dcache: None,
            instructions: 0,
            operations: 0,
            media_instructions: 0,
            memory_instructions: 0,
            cache_acc: CacheStats::default(),
            samples: Vec::new(),
            weights: Vec::new(),
            detailed_cycles: 0,
            detailed_instructions: 0,
            fu_busy: HashMap::new(),
            max_rob_occupancy: 0,
            dispatch_stall_cycles: 0,
            ff_entries: 0,
            intervals_completed: 0,
            head_cycles: 0,
            head_instructions: 0,
            exact_cycles: None,
        }
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The sampling schedule in use.
    pub fn sampling(&self) -> SamplingConfig {
        self.sampling
    }

    /// Consumes the next retired instruction of the stream.
    pub fn feed(&mut self, entry: TraceEntry) {
        self.instructions += 1;
        self.operations += entry.ops();
        if entry.instr.is_media() {
            self.media_instructions += 1;
        }
        if entry.instr.is_memory() {
            self.memory_instructions += 1;
        }
        let interval = self.sampling.warmup + self.sampling.detailed;
        match &mut self.phase {
            Phase::Detailed {
                sim,
                fed,
                warm_cycles,
            } => {
                sim.feed(entry);
                *fed += 1;
                if warm_cycles.is_none() && *fed == self.sampling.warmup {
                    *warm_cycles = Some(sim.drained_cycle_count());
                }
                if *fed < interval {
                    return;
                }
            }
            Phase::FastForward { left } => {
                self.ff_entries += 1;
                self.exact_cycles = None;
                if let Some(cache) = self.dcache.as_mut() {
                    Self::warm_cache(cache, &entry);
                }
                *left -= 1;
                if *left > 0 {
                    return;
                }
            }
        }
        self.advance_phase();
    }

    /// Replays one entry's memory traffic into the cache model — the same
    /// charging rule as the detailed path (only memory-class instructions
    /// with traced addresses touch the hierarchy; metadata-free entries
    /// are assumed to hit L1 and leave no trace).
    fn warm_cache(cache: &mut CacheSim, entry: &TraceEntry) {
        if matches!(entry.instr.fu_class(), FuClass::Mem | FuClass::VecMem) {
            if let Some(access) = entry.mem.as_ref() {
                cache.access(access);
            }
        }
    }

    /// Crosses the phase boundary the last fed entry completed: harvests a
    /// finished detailed interval into the CPI samples and switches to
    /// fast-forward, or ends an exhausted fast-forward span by resuming a
    /// fresh engine on the warm cache.
    fn advance_phase(&mut self) {
        let next_ff = Phase::FastForward {
            left: self.sampling.fastforward,
        };
        match std::mem::replace(&mut self.phase, next_ff) {
            Phase::Detailed {
                sim, warm_cycles, ..
            } => {
                let (result, cache) = sim.into_parts();
                self.dcache = cache;
                self.intervals_completed += 1;
                if self.intervals_completed == 1 && self.ff_entries == 0 {
                    // Nothing has been skipped yet: the interval's engine
                    // saw the entire stream so far, and its drained cycle
                    // count is exact, not an extrapolation.
                    self.exact_cycles = Some(result.cycles);
                }
                let warm = warm_cycles.unwrap_or(0);
                if self.intervals_completed == 1 {
                    // The first warm-up is the genuine cold-start head of
                    // the stream: record it as an exactly-measured stratum.
                    self.head_cycles = warm;
                    self.head_instructions = self.sampling.warmup;
                }
                let measured = self.sampling.detailed;
                let cycles = result.cycles - warm;
                self.samples.push(cycles as f64 / measured as f64);
                self.weights.push(measured);
                self.detailed_cycles += cycles;
                self.detailed_instructions += measured;
                self.harvest_window_stats(&result);
            }
            Phase::FastForward { .. } => {
                if let Some(cache) = &self.dcache {
                    self.cache_acc.merge(&cache.stats);
                }
                let sim = PipelineSim::resume(self.config.clone(), self.dcache.take());
                self.phase = Phase::Detailed {
                    sim: Box::new(sim),
                    fed: 0,
                    warm_cycles: if self.sampling.warmup == 0 {
                        Some(0)
                    } else {
                        None
                    },
                };
            }
        }
    }

    /// Accumulates the window statistics of one detailed interval (cache
    /// counters are harvested separately, from the live hierarchy, so the
    /// fast-forward accesses are not double-counted).
    fn harvest_window_stats(&mut self, result: &SimResult) {
        for (&class, &busy) in &result.fu_busy_cycles {
            *self.fu_busy.entry(class).or_insert(0) += busy;
        }
        self.max_rob_occupancy = self.max_rob_occupancy.max(result.max_rob_occupancy);
        self.dispatch_stall_cycles += result.dispatch_stall_cycles;
    }

    /// Ends the stream and returns the estimated [`SimResult`], with the
    /// confidence interval in [`SimResult::sampled`].
    pub fn finish(mut self) -> SimResult {
        // Close the open phase: a partial detailed interval still
        // contributes a (shorter, down-weighted) CPI sample.
        let placeholder = Phase::FastForward { left: 1 };
        match std::mem::replace(&mut self.phase, placeholder) {
            Phase::Detailed {
                sim,
                fed,
                warm_cycles,
            } => {
                let (result, cache) = sim.into_parts();
                self.dcache = cache;
                if self.intervals_completed == 0 && self.ff_entries == 0 {
                    self.exact_cycles = Some(result.cycles);
                }
                if let Some(warm) = warm_cycles {
                    let measured = fed.saturating_sub(self.sampling.warmup);
                    if measured > 0 {
                        let cycles = result.cycles - warm;
                        self.samples.push(cycles as f64 / measured as f64);
                        self.weights.push(measured);
                        self.detailed_cycles += cycles;
                        self.detailed_instructions += measured;
                    }
                }
                self.harvest_window_stats(&result);
            }
            Phase::FastForward { .. } => {}
        }
        if let Some(cache) = &self.dcache {
            self.cache_acc.merge(&cache.stats);
        }

        let total = self.instructions;
        let (cycles, estimate) = if let Some(exact) = self.exact_cycles {
            // The whole stream went through one detailed engine: report it
            // exactly, with a zero-width interval.
            let cpi = if total == 0 {
                0.0
            } else {
                exact as f64 / total as f64
            };
            (
                exact,
                SamplingEstimate {
                    intervals: self.samples.len(),
                    detailed_instructions: total,
                    cpi_mean: cpi,
                    cpi_stddev: 0.0,
                    half_width_cycles: 0.0,
                },
            )
        } else {
            // Stratified ratio estimator: the cold-start head (the first
            // interval's warm-up) is counted exactly, and the steady-state
            // CPI — total measured cycles over total measured instructions,
            // equivalently the weighted mean of the per-interval CPIs — is
            // extrapolated over the remaining (body) instructions only.
            debug_assert!(
                self.detailed_instructions > 0,
                "a non-exact sampled run must have measured at least one interval"
            );
            let body = total - self.head_instructions;
            let mean = self.detailed_cycles as f64 / self.detailed_instructions.max(1) as f64;
            let n = self.samples.len();
            let stddev = if n >= 2 {
                let weight_sum = self.weights.iter().sum::<u64>() as f64;
                let variance = self
                    .samples
                    .iter()
                    .zip(&self.weights)
                    .map(|(&s, &w)| (w as f64 / weight_sum) * (s - mean) * (s - mean))
                    .sum::<f64>()
                    * n as f64
                    / (n - 1) as f64;
                variance.sqrt()
            } else {
                0.0
            };
            let student_t = t_975(n.saturating_sub(1)) * stddev / (n as f64).sqrt();
            let half_width_cpi = student_t.max(SYSTEMATIC_FLOOR * mean);
            (
                self.head_cycles + (mean * body as f64).round() as u64,
                SamplingEstimate {
                    intervals: n,
                    detailed_instructions: self.detailed_instructions,
                    cpi_mean: mean,
                    cpi_stddev: stddev,
                    half_width_cycles: half_width_cpi * body as f64,
                },
            )
        };

        SimResult {
            cycles,
            instructions: self.instructions,
            operations: self.operations,
            media_instructions: self.media_instructions,
            memory_instructions: self.memory_instructions,
            fu_busy_cycles: self.fu_busy,
            max_rob_occupancy: self.max_rob_occupancy,
            dispatch_stall_cycles: self.dispatch_stall_cycles,
            cache: self.cache_acc,
            sampled: Some(estimate),
        }
    }
}

impl TraceSink for SampledSim {
    fn retire(&mut self, entry: TraceEntry) {
        self.feed(entry);
    }

    /// The fast-forward hook: a run that fits entirely inside the current
    /// fast-forward span is consumed in one tight loop over the slice —
    /// counters and cache warming only, no per-entry state-machine checks.
    /// (Strictly `>`: the entry landing on the span boundary must restart
    /// a detailed interval, so boundary-crossing runs take the entry loop.)
    fn retire_many(&mut self, entries: &[TraceEntry]) {
        if let Phase::FastForward { left } = &mut self.phase {
            if *left > entries.len() as u64 {
                *left -= entries.len() as u64;
                self.ff_entries += entries.len() as u64;
                self.exact_cycles = None;
                for entry in entries {
                    self.instructions += 1;
                    self.operations += entry.ops();
                    if entry.instr.is_media() {
                        self.media_instructions += 1;
                    }
                    if entry.instr.is_memory() {
                        self.memory_instructions += 1;
                    }
                    if let Some(cache) = self.dcache.as_mut() {
                        Self::warm_cache(cache, entry);
                    }
                }
                return;
            }
        }
        for entry in entries {
            self.feed(*entry);
        }
    }
}

/// The sampled counterpart of [`crate::PipelineFanout`]: one instruction
/// stream drives a sampled consumer per machine configuration.  All
/// consumers share the schedule, so their detailed intervals cover the
/// same stream positions and the per-configuration estimates are directly
/// comparable.
#[derive(Debug, Clone, Default)]
pub struct SampledFanout {
    sims: Vec<SampledSim>,
}

impl SampledFanout {
    /// Creates a sampled fan-out over the given configurations, in order,
    /// all on the same sampling schedule.
    pub fn new<I: IntoIterator<Item = PipelineConfig>>(
        configs: I,
        sampling: SamplingConfig,
    ) -> Self {
        SampledFanout {
            sims: configs
                .into_iter()
                .map(|config| SampledSim::new(config, sampling))
                .collect(),
        }
    }

    /// Adds one more consumer on its own schedule.
    pub fn push(&mut self, config: PipelineConfig, sampling: SamplingConfig) {
        self.sims.push(SampledSim::new(config, sampling));
    }

    /// Number of consumers.
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the fan-out has no consumers.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Feeds one entry to every consumer.
    pub fn feed(&mut self, entry: TraceEntry) {
        for sim in &mut self.sims {
            sim.feed(entry);
        }
    }

    /// Finishes every consumer, returning one estimated [`SimResult`] per
    /// configuration, in construction order.
    pub fn finish(self) -> Vec<SimResult> {
        self.sims.into_iter().map(SampledSim::finish).collect()
    }
}

impl TraceSink for SampledFanout {
    fn retire(&mut self, entry: TraceEntry) {
        self.feed(entry);
    }

    fn retire_many(&mut self, entries: &[TraceEntry]) {
        for sim in &mut self.sims {
            sim.retire_many(entries);
        }
    }
}

impl Pipeline {
    /// Replays a materialised trace through a sampled consumer — the
    /// sampled counterpart of [`Pipeline::simulate`].
    pub fn simulate_sampled(&self, trace: &Trace, sampling: SamplingConfig) -> SimResult {
        let mut sim = SampledSim::new(self.config().clone(), sampling);
        trace.replay_into(1, &mut sim);
        sim.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryModel;
    use mom_isa::prelude::*;
    use mom_isa::Instruction;

    fn entry(instr: Instruction) -> TraceEntry {
        TraceEntry {
            instr,
            vl: 0,
            taken: false,
            mem: None,
        }
    }

    fn add(rd: u8, ra: u8, rb: u8) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rd,
            ra,
            rb,
        }
    }

    /// A long dependence-free stream with a deterministic mix.
    fn stream(len: usize) -> Trace {
        (0..len)
            .map(|i| {
                entry(add(
                    (i % 23) as u8 + 1,
                    (i % 7) as u8 + 1,
                    (i % 5) as u8 + 1,
                ))
            })
            .collect()
    }

    #[test]
    fn schedule_parses_and_validates() {
        let parsed: SamplingConfig = "200:671:150".parse().unwrap();
        assert_eq!(parsed, SamplingConfig::DEFAULT);
        assert_eq!(parsed.to_string(), "200:671:150");
        assert_eq!(parsed.period(), 1021);
        assert!("200:671".parse::<SamplingConfig>().is_err());
        assert!("0:671:150".parse::<SamplingConfig>().is_err());
        assert!("200:0:150".parse::<SamplingConfig>().is_err());
        assert!("a:b:c".parse::<SamplingConfig>().is_err());
        assert!(SamplingConfig::DEFAULT.validate().is_ok());
    }

    #[test]
    fn aligned_schedules_cover_whole_even_invocations() {
        let aligned = SamplingConfig::DEFAULT.aligned_to(167);
        assert_eq!(
            aligned,
            SamplingConfig {
                detailed: 334,
                fastforward: 835,
                warmup: 167,
            }
        );
        // The detailed span always covers an even number (>= 2) of
        // invocations, so it averages over a period-two steady state.
        let tiny = SamplingConfig {
            detailed: 10,
            fastforward: 10,
            warmup: 0,
        }
        .aligned_to(16);
        assert_eq!(tiny.detailed, 32);
        assert_eq!(tiny.fastforward, 16);
        // An explicit zero warm-up stays zero; unit <= 1 is a no-op.
        assert_eq!(tiny.warmup, 0);
        assert_eq!(
            SamplingConfig::DEFAULT.aligned_to(1),
            SamplingConfig::DEFAULT
        );
        assert_eq!(
            SamplingConfig::DEFAULT.aligned_to(0),
            SamplingConfig::DEFAULT
        );
    }

    #[test]
    fn short_stream_is_exact() {
        // Shorter than one detailed interval: the estimate must equal the
        // full simulation exactly, with a zero-width interval.
        let trace = stream(100);
        let pipeline = Pipeline::new(PipelineConfig::way(4));
        let full = pipeline.simulate(&trace);
        let sampled = pipeline.simulate_sampled(&trace, SamplingConfig::DEFAULT);
        assert_eq!(sampled.cycles, full.cycles);
        assert_eq!(sampled.instructions, full.instructions);
        assert_eq!(sampled.operations, full.operations);
        let estimate = sampled.sampled.expect("sampled result carries estimate");
        assert_eq!(estimate.half_width_cycles, 0.0);
        assert!(estimate.covers(sampled.cycles, full.cycles));
    }

    #[test]
    fn empty_stream_is_exact_zero() {
        let sampled = SampledSim::new(PipelineConfig::way(4), SamplingConfig::DEFAULT).finish();
        assert_eq!(sampled.cycles, 0);
        assert_eq!(sampled.instructions, 0);
        assert!(sampled.sampled.is_some());
    }

    #[test]
    fn architectural_counters_are_exact_and_estimate_covers_full() {
        let trace = stream(997);
        for &latency in &[1u64, 12, 50] {
            let config = PipelineConfig::way_with_memory(4, MemoryModel::Fixed { latency });
            let pipeline = Pipeline::new(config);
            let mut full = pipeline.simulate(&trace);
            // The stream is replayed several times to cross many intervals.
            let mut sink = SampledSim::new(pipeline.config().clone(), SamplingConfig::DEFAULT);
            trace.replay_into(8, &mut sink);
            let sampled = sink.finish();
            // Exact architectural counters: 8 replications of the trace.
            assert_eq!(sampled.instructions, 8 * full.instructions);
            assert_eq!(sampled.operations, 8 * full.operations);
            assert_eq!(sampled.media_instructions, 8 * full.media_instructions);
            assert_eq!(sampled.memory_instructions, 8 * full.memory_instructions);
            // The full run of the same 8-fold stream, for the cycle bound.
            let mut full_sink = PipelineSim::new(pipeline.config().clone());
            trace.replay_into(8, &mut full_sink);
            full = full_sink.finish();
            let estimate = sampled.sampled.as_ref().expect("estimate present");
            assert!(estimate.intervals >= 2, "several intervals were measured");
            assert!(
                estimate.covers(sampled.cycles, full.cycles),
                "estimate {} ± {} must cover full {}",
                sampled.cycles,
                estimate.half_width_cycles,
                full.cycles
            );
        }
    }

    #[test]
    fn fast_forward_keeps_cache_state_exact() {
        use mom_arch::MemAccess;
        // A strided load stream under the cache hierarchy: the sampled
        // run's cache counters must equal the full run's exactly, because
        // every access is replayed into the hierarchy in both modes.
        let mut entries = Vec::new();
        for i in 0..4000u64 {
            let addr = (i * 96) % 0x40000;
            entries.push(TraceEntry {
                instr: Instruction::Load {
                    size: MemSize::Quad,
                    signed: false,
                    rd: ((i % 20) + 1) as u8,
                    base: 29,
                    offset: 0,
                },
                vl: 0,
                taken: false,
                mem: Some(MemAccess::unit(addr, 8, false)),
            });
            entries.push(entry(add(((i % 13) + 1) as u8, 2, 3)));
        }
        let trace: Trace = entries.into_iter().collect();
        let config = PipelineConfig::way_with_memory(4, MemoryModel::CACHE);
        let pipeline = Pipeline::new(config);
        let full = pipeline.simulate(&trace);
        let sampled = pipeline.simulate_sampled(&trace, SamplingConfig::DEFAULT);
        assert_eq!(sampled.cache, full.cache, "cache counters must be exact");
        let estimate = sampled.sampled.as_ref().expect("estimate present");
        assert!(
            estimate.covers(sampled.cycles, full.cycles),
            "estimate {} ± {} must cover full {}",
            sampled.cycles,
            estimate.half_width_cycles,
            full.cycles
        );
    }

    #[test]
    fn retire_many_fast_path_matches_per_entry_feeding() {
        let trace = stream(131); // smaller than a fast-forward span
        let config = PipelineConfig::way(2);
        let mut by_slice = SampledSim::new(config.clone(), SamplingConfig::DEFAULT);
        trace.replay_into(40, &mut by_slice);
        let mut by_entry = SampledSim::new(config, SamplingConfig::DEFAULT);
        for _ in 0..40 {
            for e in trace.iter() {
                by_entry.feed(*e);
            }
        }
        assert_eq!(by_slice.finish(), by_entry.finish());
    }

    #[test]
    fn sampled_fanout_matches_individual_sampled_sims() {
        let trace = stream(509);
        let configs: Vec<_> = [1, 2, 4, 8].map(PipelineConfig::way).into();
        let mut fanout = SampledFanout::new(configs.iter().cloned(), SamplingConfig::DEFAULT);
        trace.replay_into(6, &mut fanout);
        let results = fanout.finish();
        for (config, expected) in configs.into_iter().zip(results) {
            let mut single = SampledSim::new(config, SamplingConfig::DEFAULT);
            trace.replay_into(6, &mut single);
            assert_eq!(single.finish(), expected);
        }
    }
}
