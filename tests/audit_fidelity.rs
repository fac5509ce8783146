//! Cost-model fidelity over the whole TCCG suite: for every one of the 48
//! entries, the model's top-8 ranking (V100, FP64) is audited against the
//! `gpu-sim` address tracer, and its Spearman rank correlation, regret and
//! p99 relative error must stay within fixed tolerances of the values
//! recorded below.
//!
//! This is the paper's central claim (§IV: Algorithm 3 picks a near-best
//! kernel without autotuning) held to numbers. Every metric is a pure
//! function of the search and the tracer, so a run reproduces the table
//! bit for bit; the tolerances leave room for a deliberate model change
//! that moves a metric slightly, and a change that moves one further must
//! update the table in the same commit with the reason.

use cogent::generator::{audit_contraction, AuditOptions};
use cogent::prelude::*;

/// Allowed per-entry drop in Spearman correlation.
const SPEARMAN_TOL: f64 = 0.02;
/// Allowed per-entry rise in regret.
const REGRET_TOL: f64 = 0.05;
/// Allowed per-entry rise in p99 relative error, in ppm (1 percentage
/// point).
const REL_ERROR_TOL_PPM: u128 = 10_000;

/// `(entry, spearman, regret, p99 relative error in ppm)` for every TCCG
/// entry under `AuditOptions::default()` on the V100 at FP64.
const RECORDED: [(&str, f64, f64, u128); 48] = [
    ("ml_1", 0.6595501762613932, 0.007697859032956459, 326804),
    ("ml_2", 1.0, 0.0, 308007),
    ("ml_3", 0.8122554803228605, 0.020999153259949197, 76832),
    ("ml_4", 0.5618903886626766, 0.015948275862068966, 308271),
    ("ml_5", 0.8, 0.08557457212713937, 85575),
    ("ml_6", 0.8, 0.08557457212713937, 85575),
    ("ml_7", 1.0, 0.0, 0),
    ("ml_8", 0.4472135954999579, 0.15748031496062992, 210884),
    ("aomo_1", 0.7844645405527361, 0.0755813953488372, 286486),
    ("aomo_2", 1.0, 0.0, 316062),
    ("aomo_3", 1.0, 0.0, 265613),
    ("ccsd_1", 1.0, 0.0, 0),
    ("ccsd_2", 1.0, 0.0, 0),
    ("ccsd_3", 1.0, 0.0, 0),
    ("ccsd_4", 1.0, 0.0, 0),
    ("ccsd_5", 1.0, 0.0, 0),
    ("ccsd_6", 1.0, 0.0, 0),
    ("ccsd_7", 1.0, 0.0, 0),
    ("ccsd_8", 1.0, 0.0, 0),
    ("ccsd_9", 1.0, 0.0, 0),
    ("ccsd_10", 1.0, 0.0, 0),
    ("ccsd_11", 1.0, 0.0, 0),
    ("ccsd_12", 1.0, 0.0, 0),
    ("ccsd_13", 1.0, 0.0, 0),
    ("ccsd_14", 1.0, 0.0, 0),
    ("ccsd_15", 1.0, 0.0, 0),
    ("ccsd_16", 1.0, 0.0, 0),
    ("ccsd_17", 1.0, 0.0, 0),
    ("ccsd_18", 1.0, 0.0, 0),
    ("ccsd_19", 1.0, 0.0, 0),
    ("sd1_1", 1.0, 0.0, 0),
    ("sd1_2", 1.0, 0.0, 0),
    ("sd1_3", 1.0, 0.0, 0),
    ("sd1_4", 1.0, 0.0, 0),
    ("sd1_5", 1.0, 0.0, 0),
    ("sd1_6", 1.0, 0.0, 0),
    ("sd1_7", 1.0, 0.0, 0),
    ("sd1_8", 1.0, 0.0, 0),
    ("sd1_9", 1.0, 0.0, 0),
    ("sd2_1", 0.9621023987294833, 0.0, 37037),
    ("sd2_2", 0.9621023987294833, 0.0, 37037),
    ("sd2_3", 0.9621023987294833, 0.0, 37037),
    ("sd2_4", 0.9621023987294833, 0.0, 37037),
    ("sd2_5", 0.9621023987294833, 0.0, 37037),
    ("sd2_6", 0.9621023987294833, 0.0, 37037),
    ("sd2_7", 0.9486832980505138, 0.0, 37037),
    ("sd2_8", 0.9486832980505138, 0.0, 37037),
    ("sd2_9", 0.9486832980505138, 0.0, 37037),
];

#[test]
fn audit_fidelity_holds_on_all_48_entries() {
    let device = GpuDevice::v100();
    let options = AuditOptions::default();
    assert_eq!(options.top_k, 8);
    let suite = cogent::tccg::suite();
    assert_eq!(suite.len(), RECORDED.len());
    let mut violations = Vec::new();
    for entry in &suite {
        let &(_, spearman, regret, rel_error_ppm) = RECORDED
            .iter()
            .find(|row| row.0 == entry.name)
            .unwrap_or_else(|| panic!("{}: no recorded fidelity row", entry.name));
        let audit = audit_contraction(
            &entry.name,
            &entry.contraction(),
            &entry.sizes(),
            &device,
            Precision::F64,
            &options,
        )
        .unwrap_or_else(|e| panic!("auditing {} failed: {e}", entry.name));
        if audit.spearman < spearman - SPEARMAN_TOL {
            violations.push(format!(
                "{}: spearman {:.4} below {spearman:.4} - {SPEARMAN_TOL}",
                entry.name, audit.spearman
            ));
        }
        if audit.regret > regret + REGRET_TOL {
            violations.push(format!(
                "{}: regret {:.4} above {regret:.4} + {REGRET_TOL}",
                entry.name, audit.regret
            ));
        }
        let p99 = audit.rel_error_ppm.p99().unwrap_or(0);
        if p99 > rel_error_ppm + REL_ERROR_TOL_PPM {
            violations.push(format!(
                "{}: p99 relative error {p99} ppm above {rel_error_ppm} + {REL_ERROR_TOL_PPM}",
                entry.name
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "{} fidelity violation(s):\n{}",
        violations.len(),
        violations.join("\n")
    );
}
