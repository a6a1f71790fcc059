//! Declarative experiment descriptions: scenario grids as *data*.
//!
//! The paper's evaluation is a grid — kernels × ISAs × machine
//! configurations — and every experiment in this workspace is one slice of
//! that grid.  [`ExperimentSpec`] captures the slice declaratively (which
//! kernels, which ISAs, which [`PipelineConfig`]s, how much replication,
//! which seed); [`ExperimentSpec::run`] executes it on the shared thread
//! pool with each (kernel, ISA) pair's functional run fanned out over every
//! configuration exactly once, returning a [`GridResult`] that report
//! derivations index by `(kernel, isa, config)`.
//!
//! The paper's figures and tables — and the ablations beyond them — are
//! *registered* specs ([`registry`]): a name, a description, a spec builder
//! and a derivation from the measured grid to a [`Report`].  Any new sweep
//! (cache sizes, ROB depths, lane counts, new kernels) is a one-line
//! scenario description instead of a new driver binary.
//!
//! Ad-hoc grids are read from named axes ([`AXES`]) by one function,
//! [`ExperimentSpec::from_axes`], whichever way they arrive: `momsim run`
//! and `momsim submit` flags or a `POST /jobs` body on the daemon.

use crate::schedule::{self, PointJob};
use crate::sweep::{parallel_map_with, worker_count};
use crate::{ExperimentPoint, Report, EXPERIMENT_SEED, FIG4_WIDTHS, STEADY_STATE_INSTRUCTIONS};
use mom_isa::IsaKind;
use mom_kernels::{KernelError, KernelId};
use mom_pipeline::{MemoryModel, PipelineConfig, SamplingConfig};
use std::str::FromStr;

/// The ad-hoc grid axes [`ExperimentSpec::from_axes`] reads, spelled as the
/// `momsim run` / `momsim submit` flags (`--kernels`, ...) and the keys of
/// a `POST /jobs` body.
pub const AXES: [&str; 9] = [
    "kernels",
    "isas",
    "widths",
    "memory",
    "rob",
    "lanes",
    "replication",
    "seed",
    "sampled",
];

/// A declarative experiment: the grid of scenarios to measure.
///
/// Every axis is data — construct the struct directly (with
/// `..Default::default()` for the axes you don't care about) and call
/// [`run`](ExperimentSpec::run):
///
/// ```
/// use mom_bench::ExperimentSpec;
/// use mom_isa::IsaKind;
/// use mom_kernels::KernelId;
/// use mom_pipeline::PipelineConfig;
///
/// let spec = ExperimentSpec {
///     kernels: vec![KernelId::AddBlock],
///     isas: vec![IsaKind::Mom],
///     configs: vec![PipelineConfig::builder().issue_width(2).build().unwrap()],
///     replication: 1, // one invocation is enough for a doc example
///     ..ExperimentSpec::default()
/// };
/// let grid = spec.run().unwrap();
/// assert_eq!(grid.points.len(), 1);
/// assert!(grid.points[0].result.cycles > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Kernels to measure (rows of the grid, in output order).
    pub kernels: Vec<KernelId>,
    /// ISAs to measure each kernel under.
    pub isas: Vec<IsaKind>,
    /// Machine configurations; each (kernel, ISA) functional run is fanned
    /// out over all of them at once.
    pub configs: Vec<PipelineConfig>,
    /// Target dynamic-stream length in instructions: each kernel invocation
    /// is replicated until the measured stream is at least this long
    /// (the paper's "simulated a certain number of times in a loop").
    pub replication: usize,
    /// Seed for the deterministic synthetic workloads.
    pub seed: u64,
    /// When set, the grid is timed by **systematic sampling**
    /// ([`mom_pipeline::sample`]): detailed intervals in the timing engine
    /// with cache-warming fast-forward between them, an extrapolated cycle
    /// count, and a confidence interval in every point's
    /// [`mom_pipeline::SimResult::sampled`].  `None` (the default, and the
    /// setting of every registered experiment) is exact full-fidelity
    /// timing.
    pub sampling: Option<SamplingConfig>,
}

impl Default for ExperimentSpec {
    /// The full kernel × ISA matrix on the paper's 4-way reference machine,
    /// at the standard replication and seed.
    fn default() -> Self {
        ExperimentSpec {
            kernels: KernelId::ALL.to_vec(),
            isas: IsaKind::ALL.to_vec(),
            configs: vec![PipelineConfig::default()],
            replication: STEADY_STATE_INSTRUCTIONS,
            seed: EXPERIMENT_SEED,
            sampling: None,
        }
    }
}

impl ExperimentSpec {
    /// Number of grid points the spec describes.
    pub fn points(&self) -> usize {
        self.kernels.len() * self.isas.len() * self.configs.len()
    }

    /// Validates the spec: every axis non-empty and duplicate-free, every
    /// configuration valid, replication at least one instruction.
    pub fn validate(&self) -> Result<(), String> {
        fn unique<T: PartialEq>(items: &[T]) -> bool {
            items
                .iter()
                .enumerate()
                .all(|(i, a)| items[..i].iter().all(|b| b != a))
        }
        if self.kernels.is_empty() {
            return Err("an experiment needs at least one kernel".into());
        }
        if self.isas.is_empty() {
            return Err("an experiment needs at least one ISA".into());
        }
        if self.configs.is_empty() {
            return Err("an experiment needs at least one machine configuration".into());
        }
        if !unique(&self.kernels) {
            return Err("duplicate kernel in the experiment grid".into());
        }
        if !unique(&self.isas) {
            return Err("duplicate ISA in the experiment grid".into());
        }
        if self.replication == 0 {
            return Err("replication must be at least one instruction".into());
        }
        for (i, config) in self.configs.iter().enumerate() {
            config.validate().map_err(|e| format!("config {i}: {e}"))?;
        }
        if let Some(sampling) = &self.sampling {
            sampling.validate()?;
        }
        Ok(())
    }

    /// Builds an ad-hoc grid from named axes, each a list of string tokens
    /// (`("widths", ["1", "8"])`): the one reader behind `momsim run`'s
    /// axis flags, `momsim submit` and the daemon's `POST /jobs`.
    ///
    /// Every token goes through the `FromStr` of its domain type, so a typo
    /// is an error listing the valid names.  `kernels all`, `isas all` and
    /// `isas media` name sets; `sampled` with no token is the default
    /// schedule.  Absent axes keep their defaults: every kernel and ISA,
    /// width 4, perfect memory, width-derived ROB and lanes, the standard
    /// replication and seed, exact timing.  A repeated axis replaces the
    /// earlier one.  The configurations are the cross product of widths ×
    /// memory × ROB × lanes, each built by [`PipelineConfig::builder`], and
    /// the result passes [`validate`](ExperimentSpec::validate).
    pub fn from_axes(axes: &[(String, Vec<String>)]) -> Result<ExperimentSpec, String> {
        let mut spec = ExperimentSpec::default();
        let mut widths = vec![4];
        let mut memory = vec![MemoryModel::PERFECT];
        let mut robs = vec![None];
        let mut lanes = vec![None];
        for (axis, tokens) in axes {
            let axis = axis.as_str();
            let set = match tokens.as_slice() {
                [only] => Some(only.as_str()),
                _ => None,
            };
            match (axis, set) {
                ("kernels", Some("all")) => spec.kernels = KernelId::ALL.to_vec(),
                ("kernels", _) => spec.kernels = parse_tokens(axis, tokens)?,
                ("isas", Some("all")) => spec.isas = IsaKind::ALL.to_vec(),
                ("isas", Some("media")) => spec.isas = IsaKind::MEDIA.to_vec(),
                ("isas", _) => spec.isas = parse_tokens(axis, tokens)?,
                ("widths", _) => widths = parse_tokens(axis, tokens)?,
                ("memory", _) => memory = parse_tokens(axis, tokens)?,
                ("rob", _) => robs = parse_tokens(axis, tokens)?.into_iter().map(Some).collect(),
                ("lanes", _) => lanes = parse_tokens(axis, tokens)?.into_iter().map(Some).collect(),
                ("replication", _) => spec.replication = parse_one(axis, tokens)?,
                ("seed", _) => spec.seed = parse_one(axis, tokens)?,
                ("sampled", _) if tokens.is_empty() => {
                    spec.sampling = Some(SamplingConfig::DEFAULT)
                }
                ("sampled", _) => spec.sampling = Some(parse_one(axis, tokens)?),
                (other, _) => {
                    return Err(format!(
                        "unknown axis '{other}' (expected one of: {})",
                        AXES.join(", ")
                    ))
                }
            }
        }
        spec.configs.clear();
        for &width in &widths {
            for &memory in &memory {
                for &rob in &robs {
                    for &lanes in &lanes {
                        let mut builder =
                            PipelineConfig::builder().issue_width(width).memory(memory);
                        if let Some(rob) = rob {
                            builder = builder.rob(rob);
                        }
                        if let Some(lanes) = lanes {
                            builder = builder.lanes(lanes);
                        }
                        spec.configs.push(builder.build()?);
                    }
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Runs the grid: (kernel, ISA) pairs concurrently on the thread pool,
    /// each pair's verified functional run fanned out over every
    /// configuration at once.  Point order is kernel-major, then ISA, then
    /// configuration — exactly the spec's axis order.
    pub fn run(&self) -> Result<GridResult, ExperimentError> {
        self.run_with_jobs(None)
    }

    /// [`run`](ExperimentSpec::run) on an explicit number of worker
    /// threads (`None`: [`worker_count`], one per core).  The grid is
    /// planned point by point ([`schedule::plan`]) and split into its
    /// (kernel, ISA) pairs — contiguous, because configurations vary
    /// fastest — and each pair is one [`schedule::compute_group`], the same
    /// unit the `momsim serve` workers compute.  The thread count only
    /// changes how pairs interleave, so every count yields the same grid.
    pub fn run_with_jobs(&self, jobs: Option<usize>) -> Result<GridResult, ExperimentError> {
        self.validate().map_err(ExperimentError::Spec)?;
        let planned = schedule::plan(self);
        let pairs: Vec<&[PointJob]> = planned.chunks(self.configs.len()).collect();
        let threads = jobs.unwrap_or_else(|| worker_count(pairs.len()));
        let mut points = Vec::with_capacity(planned.len());
        for pair_points in parallel_map_with(pairs, threads, schedule::compute_group) {
            points.extend(pair_points?);
        }
        Ok(GridResult {
            spec: self.clone(),
            points,
        })
    }
}

/// Parses every token of an axis; an axis needs at least one.
fn parse_tokens<T>(axis: &str, tokens: &[String]) -> Result<Vec<T>, String>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    if tokens.is_empty() {
        return Err(format!("{axis} needs at least one value"));
    }
    tokens
        .iter()
        .map(|token| token.parse().map_err(|e: T::Err| format!("{axis}: {e}")))
        .collect()
}

/// Parses the single token of a scalar axis (`replication`, `seed`,
/// `sampled`).
fn parse_one<T>(axis: &str, tokens: &[String]) -> Result<T, String>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    match tokens {
        [token] => token.parse().map_err(|e: T::Err| format!("{axis}: {e}")),
        _ => Err(format!("{axis} takes exactly one value")),
    }
}

/// The measured grid of an [`ExperimentSpec`]: one [`ExperimentPoint`] per
/// (kernel, ISA, configuration), in spec order.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// The spec that produced the grid.
    pub spec: ExperimentSpec,
    /// Kernel-major, then ISA, then configuration.
    pub points: Vec<ExperimentPoint>,
}

impl GridResult {
    /// Looks up the point of `(kernel, isa, config_index)`, or `None` when
    /// the coordinate is outside the grid.
    pub fn point(
        &self,
        kernel: KernelId,
        isa: IsaKind,
        config_index: usize,
    ) -> Option<&ExperimentPoint> {
        let k = self.spec.kernels.iter().position(|&x| x == kernel)?;
        let i = self.spec.isas.iter().position(|&x| x == isa)?;
        if config_index >= self.spec.configs.len() {
            return None;
        }
        self.points
            .get((k * self.spec.isas.len() + i) * self.spec.configs.len() + config_index)
    }

    /// Indices (into the spec's `configs`) whose configuration satisfies a
    /// predicate, in config order — how report derivations name their series
    /// (e.g. "all perfect-memory configs" for Figure 4's width axis).
    pub fn config_indices(&self, pred: impl Fn(&PipelineConfig) -> bool) -> Vec<usize> {
        self.spec
            .configs
            .iter()
            .enumerate()
            .filter(|(_, c)| pred(c))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Error of a declarative experiment run: an invalid spec, a kernel whose
/// functional run failed verification, or a failed application scenario.
#[derive(Debug)]
pub enum ExperimentError {
    /// The spec failed [`ExperimentSpec::validate`].
    Spec(String),
    /// A kernel failed to run or verify against its golden reference.
    Kernel(KernelError),
    /// An application pipeline failed (the error names the phase).
    App(mom_apps::AppError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Spec(message) => write!(f, "invalid experiment spec: {message}"),
            ExperimentError::Kernel(e) => write!(f, "kernel run failed: {e}"),
            ExperimentError::App(e) => write!(f, "application run failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<KernelError> for ExperimentError {
    fn from(e: KernelError) -> Self {
        ExperimentError::Kernel(e)
    }
}

impl From<mom_apps::AppError> for ExperimentError {
    fn from(e: mom_apps::AppError) -> Self {
        ExperimentError::App(e)
    }
}

// ---------------------------------------------------------------------------
// The registry of named experiments
// ---------------------------------------------------------------------------

/// How a registered experiment measures its report.
#[derive(Debug)]
enum Runner {
    /// A kernel × ISA × configuration grid ([`ExperimentSpec`]) plus the
    /// derivation from the measured grid to the report.
    Grid {
        spec: fn() -> ExperimentSpec,
        derive: fn(&GridResult) -> Report,
    },
    /// A scenario with its own execution shape (e.g. the multi-kernel
    /// application pipelines of `mom-apps`, which are *not* a grid: phases
    /// share one machine and carry cache state across boundaries).
    Scenario(fn() -> Result<Report, ExperimentError>),
}

/// A named, registered experiment: a grid spec plus its report derivation,
/// or a self-contained scenario runner.
#[derive(Debug)]
pub struct NamedExperiment {
    /// The CLI name (`momsim run <name>`).
    pub name: &'static str,
    /// One-line description shown by `momsim list`.
    pub description: &'static str,
    runner: Runner,
}

impl NamedExperiment {
    /// The experiment's grid spec, when the experiment is a grid (scenario
    /// experiments like `app-speedups` have no grid shape).
    pub fn spec(&self) -> Option<ExperimentSpec> {
        match &self.runner {
            Runner::Grid { spec, .. } => Some(spec()),
            Runner::Scenario(_) => None,
        }
    }

    /// Runs the experiment and derives the report.
    pub fn run(&self) -> Result<Report, ExperimentError> {
        self.run_with_jobs(None)
    }

    /// [`run`](NamedExperiment::run) with an explicit worker count for grid
    /// experiments (see [`ExperimentSpec::run_with_jobs`]); scenario
    /// experiments have no grid to shard and ignore it.
    pub fn run_with_jobs(&self, jobs: Option<usize>) -> Result<Report, ExperimentError> {
        match &self.runner {
            Runner::Grid { spec, derive } => Ok(derive(&spec().run_with_jobs(jobs)?)),
            Runner::Scenario(run) => run(),
        }
    }
}

pub(crate) fn fig4_spec() -> ExperimentSpec {
    ExperimentSpec {
        configs: FIG4_WIDTHS
            .iter()
            .map(|&w| PipelineConfig::way(w))
            .collect(),
        ..ExperimentSpec::default()
    }
}

pub(crate) fn fig5_spec() -> ExperimentSpec {
    ExperimentSpec {
        configs: [
            MemoryModel::PERFECT,
            MemoryModel::L2,
            MemoryModel::MAIN_MEMORY,
            MemoryModel::CACHE,
        ]
        .into_iter()
        .map(|m| PipelineConfig::way_with_memory(4, m))
        .collect(),
        ..ExperimentSpec::default()
    }
}

pub(crate) fn tables_spec() -> ExperimentSpec {
    ExperimentSpec::default()
}

fn ablation_lanes_spec() -> ExperimentSpec {
    ExperimentSpec {
        kernels: vec![KernelId::Motion1, KernelId::Idct, KernelId::Compensation],
        isas: vec![IsaKind::Mom, IsaKind::Mmx],
        configs: [1, 2, 4, 8]
            .into_iter()
            .map(|lanes| {
                PipelineConfig::builder()
                    .issue_width(4)
                    .lanes(lanes)
                    .build()
                    .expect("a valid lane-ablation config")
            })
            .collect(),
        ..ExperimentSpec::default()
    }
}

fn ablation_rob_spec() -> ExperimentSpec {
    ExperimentSpec {
        kernels: vec![KernelId::Motion1, KernelId::Compensation],
        isas: vec![IsaKind::Mom, IsaKind::Mmx],
        configs: [16, 32, 64, 128]
            .into_iter()
            .map(|rob| {
                PipelineConfig::builder()
                    .issue_width(4)
                    .memory(MemoryModel::MAIN_MEMORY)
                    .rob(rob)
                    .build()
                    .expect("a valid rob-ablation config")
            })
            .collect(),
        ..ExperimentSpec::default()
    }
}

fn derive_fig4(grid: &GridResult) -> Report {
    Report::Fig4(crate::fig4_from(grid))
}

fn derive_fig5(grid: &GridResult) -> Report {
    Report::Fig5(crate::fig5_from(grid))
}

fn derive_tables(grid: &GridResult) -> Report {
    Report::Tables(crate::tables_from(grid))
}

fn derive_ablation_lanes(grid: &GridResult) -> Report {
    Report::Ablation(crate::ablation_from(grid, "media-lanes", |c| c.media_lanes))
}

fn derive_ablation_rob(grid: &GridResult) -> Report {
    Report::Ablation(crate::ablation_from(grid, "rob-size", |c| c.rob_size))
}

/// Runs the `app-speedups` scenario: the six Mediabench applications as
/// multi-kernel pipelines on the application reference machine (2-way core,
/// L1/L2 cache hierarchy carried across phase boundaries), reported as
/// kernel-region and Amdahl whole-application speed-ups.  The scenario sits
/// behind the result store ([`crate::store::stored_app_speedups`]): a warm
/// store serves the whole report without building a single simulation.
fn run_app_speedups() -> Result<Report, ExperimentError> {
    let rows = crate::store::stored_app_speedups(
        &mom_apps::reference_config(),
        EXPERIMENT_SEED,
        mom_apps::DEFAULT_FRAMES,
    )?;
    Ok(Report::Apps(rows))
}

/// The registered experiments — the paper's figures and tables, the
/// whole-application scenario layer, and the ablations — in `momsim list`
/// order.
pub fn registry() -> &'static [NamedExperiment] {
    static REGISTRY: [NamedExperiment; 6] = [
        NamedExperiment {
            name: "fig4",
            description: "Figure 4: speed-up over the scalar baseline at issue widths 1/2/4/8",
            runner: Runner::Grid {
                spec: fig4_spec,
                derive: derive_fig4,
            },
        },
        NamedExperiment {
            name: "fig5",
            description: "Figure 5: cycles vs memory system (1/12/50 cycles + L1/L2 cache), 4-way",
            runner: Runner::Grid {
                spec: fig5_spec,
                derive: derive_fig5,
            },
        },
        NamedExperiment {
            name: "tables",
            description: "Tables 1-9: IPC / OPI / R / S / F / VLx / VLy per kernel, 4-way",
            runner: Runner::Grid {
                spec: tables_spec,
                derive: derive_tables,
            },
        },
        NamedExperiment {
            name: "app-speedups",
            description: "Whole applications: kernel-region + Amdahl speed-ups of the six \
                          Mediabench programs (2-way, L1/L2 cache across phases)",
            runner: Runner::Scenario(run_app_speedups),
        },
        NamedExperiment {
            name: "ablation-lanes",
            description: "Ablation: multimedia lane count (MOM vs MMX, 4-way, perfect memory)",
            runner: Runner::Grid {
                spec: ablation_lanes_spec,
                derive: derive_ablation_lanes,
            },
        },
        NamedExperiment {
            name: "ablation-rob",
            description: "Ablation: reorder-buffer size (MOM vs MMX, 4-way, 50-cycle memory)",
            runner: Runner::Grid {
                spec: ablation_rob_spec,
                derive: derive_ablation_rob,
            },
        },
    ];
    &REGISTRY
}

/// Looks up a registered experiment by name; the error lists the valid
/// names.
pub fn find_experiment(name: &str) -> Result<&'static NamedExperiment, String> {
    registry().iter().find(|e| e.name == name).ok_or_else(|| {
        format!(
            "unknown experiment '{}' (registered: {})",
            name,
            registry()
                .iter()
                .map(|e| e.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_specs_validate_and_cover_the_reports() {
        let mut grids = 0;
        for experiment in registry() {
            if let Some(spec) = experiment.spec() {
                grids += 1;
                spec.validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", experiment.name));
                assert!(spec.points() > 0);
            }
            assert!(!experiment.description.is_empty());
        }
        assert!(grids >= 5, "the five grid experiments stay registered");
        assert!(find_experiment("fig5").is_ok());
        assert!(
            find_experiment("app-speedups").is_ok(),
            "the application scenario layer must be registered"
        );
        assert!(
            find_experiment("app-speedups").unwrap().spec().is_none(),
            "app-speedups is a scenario, not a grid"
        );
        let err = find_experiment("fig6").unwrap_err();
        for name in [
            "fig6",
            "fig4",
            "tables",
            "app-speedups",
            "ablation-lanes",
            "ablation-rob",
        ] {
            assert!(err.contains(name), "{err:?} should mention {name}");
        }
    }

    #[test]
    fn spec_validation_rejects_degenerate_grids() {
        let empty = ExperimentSpec {
            kernels: vec![],
            ..ExperimentSpec::default()
        };
        assert!(empty.validate().is_err());
        let dup = ExperimentSpec {
            isas: vec![IsaKind::Mom, IsaKind::Mom],
            ..ExperimentSpec::default()
        };
        assert!(dup.validate().is_err());
        let none = ExperimentSpec {
            configs: vec![],
            ..ExperimentSpec::default()
        };
        assert!(none.validate().is_err());
        let zero = ExperimentSpec {
            replication: 0,
            ..ExperimentSpec::default()
        };
        assert!(zero.validate().is_err());
        let bad = PipelineConfig {
            rob_size: 0,
            ..PipelineConfig::default()
        };
        let invalid = ExperimentSpec {
            configs: vec![bad],
            ..ExperimentSpec::default()
        };
        assert!(matches!(invalid.run(), Err(ExperimentError::Spec(_))));
    }

    #[test]
    fn sampled_grid_carries_estimates_and_validates_schedule() {
        let spec = ExperimentSpec {
            kernels: vec![KernelId::AddBlock],
            isas: vec![IsaKind::Mom],
            configs: vec![PipelineConfig::way(2), PipelineConfig::way(4)],
            sampling: Some(SamplingConfig::DEFAULT),
            ..ExperimentSpec::default()
        };
        let grid = spec.run().unwrap();
        assert_eq!(grid.points.len(), 2);
        for point in &grid.points {
            assert!(
                point.result.sampled.is_some(),
                "sampled grids must report the estimate"
            );
            assert!(point.result.cycles > 0);
        }
        let bad = ExperimentSpec {
            sampling: Some(SamplingConfig {
                fastforward: 0,
                ..SamplingConfig::DEFAULT
            }),
            ..ExperimentSpec::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn grid_lookup_addresses_every_point() {
        let spec = ExperimentSpec {
            kernels: vec![KernelId::AddBlock, KernelId::Motion1],
            isas: vec![IsaKind::Mmx, IsaKind::Mom],
            configs: vec![PipelineConfig::way(1), PipelineConfig::way(4)],
            replication: 1,
            ..ExperimentSpec::default()
        };
        let grid = spec.run().unwrap();
        assert_eq!(grid.points.len(), 8);
        for &kernel in &grid.spec.kernels {
            for &isa in &grid.spec.isas {
                for (ci, config) in grid.spec.configs.iter().enumerate() {
                    let p = grid.point(kernel, isa, ci).expect("inside the grid");
                    assert_eq!((p.kernel, p.isa, p.width), (kernel, isa, config.width));
                }
            }
        }
        assert!(grid.point(KernelId::Idct, IsaKind::Mom, 0).is_none());
        assert!(grid.point(KernelId::AddBlock, IsaKind::Alpha, 0).is_none());
        assert!(grid.point(KernelId::AddBlock, IsaKind::Mom, 2).is_none());
        assert_eq!(grid.config_indices(|c| c.width == 4), vec![1]);
    }
}
