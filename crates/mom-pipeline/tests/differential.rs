//! Differential property tests: the optimised, scan-free out-of-order
//! engine ([`PipelineSim`]) must produce **identical** [`SimResult`]s to the
//! retained naive reference implementation ([`ReferenceSim`]) on arbitrary
//! traces, for every issue width and under both memory models.
//!
//! The generator deliberately stresses the paths the optimisation changed:
//! dependence chains through a small register pool (wakeup lists), stores
//! with overlapping, disjoint and *unknown* addresses in a narrow address
//! range (the store-address queue), matrix instructions with multi-cycle
//! occupancy (the free-unit heaps) and the non-pipelined transpose unit.

use mom_arch::{MemAccess, Trace, TraceEntry};
use mom_isa::prelude::*;
use mom_isa::Instruction;
use mom_pipeline::{
    CacheSim, MemoryModel, PipelineConfig, PipelineFanout, PipelineSim, ReferenceSim, SimResult,
};
use proptest::prelude::*;

/// Instruction shapes covering every functional-unit class the engines
/// schedule differently: scalar ALU, loads/stores, packed MMX, strided MOM
/// memory, matrix compute, the accumulator recurrence and the non-pipelined
/// transpose.
fn random_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (0u8..12, 0u8..12, 0u8..12).prop_map(|(rd, ra, rb)| Instruction::Alu {
            op: AluOp::Add,
            rd,
            ra,
            rb
        }),
        (0u8..12, 0u8..12).prop_map(|(rd, base)| Instruction::Load {
            size: MemSize::Quad,
            signed: false,
            rd,
            base,
            offset: 0
        }),
        (0u8..12, 0u8..12).prop_map(|(rs, base)| Instruction::Store {
            size: MemSize::Quad,
            rs,
            base,
            offset: 0
        }),
        (0u8..31, 0u8..31, 0u8..31).prop_map(|(vd, va, vb)| Instruction::MmxOp {
            op: PackedOp::Add(Overflow::Saturate),
            ty: ElemType::U8,
            vd,
            va,
            vb
        }),
        (0u8..15, 0u8..12, 0u8..12).prop_map(|(md, base, stride)| Instruction::MomLoad {
            md,
            base,
            stride,
            ty: ElemType::U8
        }),
        (0u8..15, 0u8..12, 0u8..12).prop_map(|(ms, base, stride)| Instruction::MomStore {
            ms,
            base,
            stride,
            ty: ElemType::U8
        }),
        (0u8..15, 0u8..15, 0u8..15).prop_map(|(md, ma, mb)| Instruction::MomOp {
            op: PackedOp::Add(Overflow::Wrap),
            ty: ElemType::U8,
            md,
            ma,
            mb: MomOperand::Mat(mb)
        }),
        (0u8..2, 0u8..15).prop_map(|(acc, ma)| Instruction::MomAccStep {
            op: AccumOp::MulAdd,
            ty: ElemType::I16,
            acc,
            ma,
            mb: MomOperand::Mat(0)
        }),
        (0u8..15, 0u8..15).prop_map(|(md, ms)| Instruction::MomTranspose {
            md,
            ms,
            ty: ElemType::U8
        }),
    ]
}

/// Random traces over a deliberately *narrow* address range, so stores and
/// loads genuinely collide, with metadata dropped on some memory
/// instructions to exercise the unknown-address (conservative) paths.
fn random_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (random_instruction(), 1u16..=16, 0u64..0x400, 0u8..8),
        1..max_len,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(instr, vl, addr, meta)| {
                let vl = if instr.is_vl_dependent() { vl } else { 1 };
                let mem = if instr.is_memory() && meta > 0 {
                    Some(if instr.is_vl_dependent() {
                        MemAccess::strided(addr, 8, vl, 8 * meta as i64, instr.is_store())
                    } else {
                        MemAccess::unit(addr, 8, instr.is_store())
                    })
                } else {
                    None
                };
                TraceEntry {
                    instr,
                    vl,
                    taken: false,
                    mem,
                }
            })
            .collect()
    })
}

/// The memory models the differential sweep covers: the paper's fixed
/// latencies and the simulated L1/L2 hierarchy.
fn memory_models() -> impl Strategy<Value = MemoryModel> {
    prop::sample::select(vec![
        MemoryModel::PERFECT,
        MemoryModel::L2,
        MemoryModel::MAIN_MEMORY,
        MemoryModel::CACHE,
    ])
}

fn run_both(trace: &Trace, config: PipelineConfig) -> (SimResult, SimResult) {
    let mut optimized = PipelineSim::new(config.clone());
    let mut reference = ReferenceSim::new(config);
    for e in trace.iter() {
        optimized.feed(*e);
        reference.feed(*e);
    }
    (optimized.finish(), reference.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The whole result — cycles, every counter, the per-class busy cycles
    /// and the cache statistics — is identical between the optimised engine
    /// and the naive reference, for every width and memory model.
    #[test]
    fn optimized_engine_equals_reference(
        trace in random_trace(120),
        width in prop::sample::select(vec![1usize, 2, 4, 8]),
        memory in memory_models(),
    ) {
        let config = PipelineConfig::way_with_memory(width, memory);
        let (optimized, reference) = run_both(&trace, config);
        prop_assert_eq!(optimized, reference, "width {} memory {}", width, memory);
    }

    /// Same equivalence on a small reorder buffer, where dispatch stalls
    /// and the window-full path dominate.
    #[test]
    fn optimized_engine_equals_reference_under_rob_pressure(
        trace in random_trace(120),
        rob in prop::sample::select(vec![8usize, 12, 24]),
    ) {
        let config = PipelineConfig::builder()
            .issue_width(4)
            .rob(rob)
            .memory(MemoryModel::MAIN_MEMORY)
            .build()
            .expect("a valid config");
        let (optimized, reference) = run_both(&trace, config);
        prop_assert_eq!(optimized, reference, "rob {}", rob);
    }

    /// The lockstep-batched fan-out — one shared structure-of-arrays decode
    /// per batch, swept by every consumer — is pinned **cycle-for-cycle**
    /// against independent per-configuration [`PipelineSim`]s fed entry by
    /// entry, across all widths, both memory-model families and a
    /// ROB-pressure configuration in one fan-out.  The trace is replayed
    /// several times so the stream crosses multiple batch boundaries and
    /// ends mid-batch (exercising the flush in `finish`).
    #[test]
    fn batched_fanout_equals_independent_sims(
        trace in random_trace(100),
        replays in 1usize..=4,
    ) {
        let mut configs: Vec<PipelineConfig> = [1usize, 2, 4, 8]
            .iter()
            .flat_map(|&w| {
                [MemoryModel::PERFECT, MemoryModel::CACHE]
                    .into_iter()
                    .map(move |m| PipelineConfig::way_with_memory(w, m))
            })
            .collect();
        configs.push(
            PipelineConfig::builder()
                .issue_width(4)
                .rob(8)
                .memory(MemoryModel::MAIN_MEMORY)
                .build()
                .expect("a valid rob-pressure config"),
        );

        let mut fanout = PipelineFanout::new(configs.iter().cloned());
        trace.replay_into(replays, &mut fanout);
        let batched = fanout.finish();

        for (config, batched_result) in configs.into_iter().zip(batched) {
            let mut single = PipelineSim::new(config.clone());
            for _ in 0..replays {
                for e in trace.iter() {
                    single.feed(*e);
                }
            }
            prop_assert_eq!(
                batched_result,
                single.finish(),
                "width {} rob {} memory {}",
                config.width,
                config.rob_size,
                config.memory
            );
        }
    }

    /// Steady-state extrapolation: timing `times` copies of a random loop
    /// body through `retire_repeated` — which stops simulating once the
    /// machine state repeats and extrapolates the rest — gives the same
    /// result *and* the same final cache contents as feeding every copy
    /// entry by entry and as the naive reference engine, for 1–64 copies,
    /// fixed and hierarchy memory, on a cold cache or resumed on a warm one
    /// (an application phase boundary).  The fan-out, which decodes the
    /// body once for all consumers, must agree too.
    #[test]
    fn retire_repeated_equals_feeding_and_reference(
        body in random_trace(24),
        warm_up in random_trace(24),
        times in 1usize..=64,
        width in prop::sample::select(vec![1usize, 2, 4, 8]),
        memory in memory_models(),
        resume_warm in any::<bool>(),
    ) {
        let config = PipelineConfig::way_with_memory(width, memory);
        let warm: Option<CacheSim> = if resume_warm {
            let mut donor = PipelineSim::new(config.clone());
            warm_up.replay_into(1, &mut donor);
            donor.into_parts().1
        } else {
            None
        };
        let mut repeated = PipelineSim::resume(config.clone(), warm.clone());
        body.replay_into(times, &mut repeated);
        let mut fed = PipelineSim::resume(config.clone(), warm.clone());
        let mut reference = ReferenceSim::resume(config.clone(), warm.clone());
        for _ in 0..times {
            for e in body.iter() {
                fed.feed(*e);
                reference.feed(*e);
            }
        }
        let (result, cache) = repeated.into_parts();
        let (fed_result, fed_cache) = fed.into_parts();
        let (reference_result, reference_cache) = reference.into_parts();
        prop_assert_eq!(&result, &fed_result, "x{} width {} memory {}", times, width, memory);
        prop_assert_eq!(&result, &reference_result, "x{} width {} memory {}", times, width, memory);
        prop_assert_eq!(&cache, &fed_cache);
        prop_assert_eq!(&cache, &reference_cache);
        if warm.is_none() {
            let mut fanout = PipelineFanout::new([config]);
            body.replay_into(times, &mut fanout);
            prop_assert_eq!(&fanout.finish()[0], &fed_result);
        }
    }
}
