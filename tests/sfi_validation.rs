//! Cross-validation of the ACE methodology by statistical fault
//! injection: the ACE-derived AVF is conservative, so for every pipeline
//! structure it must sit at or above the SFI estimate's 95% lower
//! confidence bound (DESIGN.md §5c).

use sim_inject::FaultTarget;
use smt_avf::prelude::*;

#[test]
fn ace_avf_upper_bounds_sfi_for_pipeline_structures() {
    let workload = table2().into_iter().find(|w| w.name == "2T-MIX-A").unwrap();
    // A reduced window keeps the campaign inside tier-1 time; the bound is
    // scale-free, and fewer trials only widen the interval being tested.
    let scale = ExperimentScale {
        warmup_per_thread: 3_000,
        measure_per_thread: 5_000,
    };
    let mut campaign = default_campaign(&workload, 50, 2701, scale);
    // Records are lane-count-independent; the bound is checked on the
    // scalar oracle's.
    campaign.lanes = 0;
    campaign.targets = vec![
        FaultTarget::Iq,
        FaultTarget::Rob,
        FaultTarget::LsqTag,
        FaultTarget::RegFile,
    ];
    let v = validate_workload(&workload, &campaign).unwrap();
    assert_eq!(v.rows.len(), 4);
    for row in &v.rows {
        assert!(
            row.bound_holds,
            "{}: ACE AVF {:.3} < SFI lower bound {:.3} (point {:.3}, {} / {} failures)\n{}",
            row.sfi.structure,
            row.ace_avf,
            row.sfi.lo,
            row.sfi.point,
            row.sfi.failures,
            row.sfi.trials,
            v.render()
        );
        assert!(
            row.ace_avf > 0.0,
            "{}: ACE AVF degenerate",
            row.sfi.structure
        );
    }
    // The campaign must actually have exercised the propagation machinery:
    // across the pipeline structures some strikes land and some mask.
    let sum: u64 = v
        .campaign
        .per_target
        .iter()
        .map(|t| t.sdc + t.detected)
        .sum();
    let masked: u64 = v.campaign.per_target.iter().map(|t| t.masked).sum();
    assert!(sum > 0, "no strike ever propagated:\n{}", v.render());
    assert!(masked > 0, "no strike was ever masked:\n{}", v.render());
}
