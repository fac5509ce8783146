//! Property test: for random contractions, random legal mappings and
//! random (often non-dividing) tile sizes, a kernel plan's derived
//! quantities stay consistent with its bindings.

mod strategy;

use cogent_gpu_sim::plan::MapDim;
use proptest::prelude::*;
use strategy::plan_strategy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_structure_invariants(plan in plan_strategy()) {
        // Thread and register sizes multiply out to the block's data space.
        let tbx = plan.group_size(MapDim::ThreadX);
        let tby = plan.group_size(MapDim::ThreadY);
        let rx = plan.group_size(MapDim::RegX);
        let ry = plan.group_size(MapDim::RegY);
        prop_assert_eq!(plan.threads_per_block(), tbx * tby);
        prop_assert_eq!(plan.outputs_per_thread(), rx * ry);
        // Shared memory holds exactly the two staged tiles.
        prop_assert_eq!(
            plan.smem_bytes(8),
            (plan.a_tile_elements() + plan.b_tile_elements()) * 8
        );
        // Padded flops never undercount true flops.
        prop_assert!(plan.padded_flops() >= plan.true_flops());
    }
}
