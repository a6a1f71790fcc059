//! Steady-state extrapolation is exact on the real workloads: for every
//! kernel × ISA pair and every machine configuration the registered
//! experiments use (the paper's grids, the ablations and the application
//! reference machine), timing a replicated invocation through
//! [`TraceSink::retire_repeated`] — which stops simulating once the machine
//! state repeats — gives the same [`SimResult`] and the same final cache
//! contents as feeding every copy entry by entry.
//!
//! The registered seed at the registered invocation counts runs in every
//! build.  The sweep over more seeds and invocation counts is slow without
//! optimisations, so it runs in release builds only:
//!
//! ```text
//! cargo test --release -p mom-pipeline --test steady_state
//! ```

use mom_bench::{invocations_for, STEADY_STATE_INSTRUCTIONS};
use mom_isa::IsaKind;
use mom_kernels::KernelId;
use mom_pipeline::{PipelineConfig, PipelineFanout, PipelineSim, TraceSink};

/// Every distinct machine configuration of the registered grid experiments
/// plus the application reference machine.
fn registered_configs() -> Vec<PipelineConfig> {
    let mut configs: Vec<PipelineConfig> = Vec::new();
    let grids = mom_bench::spec::registry()
        .iter()
        .filter_map(|experiment| experiment.spec());
    for config in grids
        .flat_map(|spec| spec.configs)
        .chain([mom_apps::reference_config()])
    {
        if !configs.contains(&config) {
            configs.push(config);
        }
    }
    configs
}

/// Times every pair at `seed` for each invocation count `counts` yields
/// (given the single-invocation length), through a standalone consumer and
/// a fan-out, against per-entry feeding; returns the number of comparisons.
fn check_grid(seeds: &[u64], counts: impl Fn(usize) -> Vec<usize>) -> usize {
    let configs = registered_configs();
    let mut compared = 0;
    for &seed in seeds {
        for kernel in KernelId::ALL {
            for isa in IsaKind::ALL {
                let run = mom_kernels::run_kernel(kernel, isa, seed, 1)
                    .unwrap_or_else(|e| panic!("{kernel}/{isa:?} seed {seed}: {e}"));
                for times in counts(run.trace.len()) {
                    let mut fanout = PipelineFanout::new(configs.iter().cloned());
                    run.trace.replay_into(times, &mut fanout);
                    let fanned = fanout.finish();
                    for (config, fanned) in configs.iter().zip(fanned) {
                        let at = || {
                            format!(
                                "{kernel}/{isa:?} seed {seed} x{times} on {}-way rob {} lanes {} memory {}",
                                config.width, config.rob_size, config.media_lanes, config.memory
                            )
                        };
                        let mut fed = PipelineSim::new(config.clone());
                        for _ in 0..times {
                            fed.retire_many(run.trace.entries());
                        }
                        let (expected, expected_cache) = fed.into_parts();
                        let mut repeated = PipelineSim::new(config.clone());
                        run.trace.replay_into(times, &mut repeated);
                        let (result, cache) = repeated.into_parts();
                        assert_eq!(result, expected, "standalone: {}", at());
                        assert_eq!(cache, expected_cache, "final cache: {}", at());
                        assert_eq!(fanned, expected, "fan-out: {}", at());
                        compared += 1;
                    }
                }
            }
        }
    }
    compared
}

#[test]
fn extrapolation_is_exact_on_the_registered_grid() {
    let extrapolated_before = mom_pipeline::invocations_extrapolated();
    let compared = check_grid(&[mom_bench::EXPERIMENT_SEED], |len| {
        vec![invocations_for(STEADY_STATE_INSTRUCTIONS, len)]
    });
    let pairs = KernelId::ALL.len() * IsaKind::ALL.len();
    assert_eq!(compared, pairs * registered_configs().len());
    assert!(
        mom_pipeline::invocations_extrapolated() > extrapolated_before,
        "the registered grid must take the extrapolation path"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow unoptimised; run with cargo test --release -p mom-pipeline --test steady_state"
)]
fn extrapolation_is_exact_across_seeds_and_invocation_counts() {
    let compared = check_grid(&[mom_bench::EXPERIMENT_SEED, 1, 7], |len| {
        vec![invocations_for(STEADY_STATE_INSTRUCTIONS, len), 3, 7, 40]
    });
    let pairs = KernelId::ALL.len() * IsaKind::ALL.len();
    assert_eq!(compared, 3 * pairs * registered_configs().len() * 4);
}
