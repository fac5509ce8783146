//! Property test: for random contractions, random legal mappings and
//! random (often non-dividing) tile sizes, interpreting the kernel program
//! lowered from the plan must reproduce the reference contraction.

#[path = "../../gpu-sim/tests/strategy/mod.rs"]
mod strategy;

use cogent_ir::SizeMap;
use cogent_kir::interpret_plan;
use cogent_tensor::reference::{contract_reference, random_inputs};
use proptest::prelude::*;
use strategy::plan_strategy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_execution_matches_reference(plan in plan_strategy(), seed in 0u64..100) {
        let tc = plan.contraction();
        let sizes = SizeMap::from_pairs(
            plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)),
        );
        let (a, b) = random_inputs::<f64>(tc, &sizes, seed);
        let got = interpret_plan(&plan, &a, &b)
            .unwrap_or_else(|e| panic!("plan {plan} failed to interpret: {e}"));
        let want = contract_reference(tc, &sizes, &a, &b);
        prop_assert!(
            got.approx_eq(&want, 1e-11),
            "plan {} diverged: max diff {}",
            plan,
            got.max_abs_diff(&want)
        );
    }
}
