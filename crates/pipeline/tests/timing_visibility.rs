//! The probe's timing-visibility rule, checked on every live ROB PC and
//! LSQ address of a warm machine rather than on sampled campaign strikes,
//! which reach the FLUSH and waiting-load clauses too rarely for the
//! lane-equivalence suites to pin them. A PC or address rewrite rides as
//! metadata only past issue, and never under FLUSH, whose L2-miss squash
//! replays slots from their recorded PCs and addresses.

use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{Fault, FaultProbe, FaultTarget, SmtCore};
use sim_workload::{profile, TraceGenerator};

fn smt2(policy: FetchPolicyKind) -> SmtCore {
    let cfg = MachineConfig::ispass07_baseline()
        .with_contexts(2)
        .with_fetch_policy(policy);
    let gens = ["bzip2", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(profile(p).expect("known benchmark"), i as u64 + 1))
        .collect();
    SmtCore::new(cfg, gens)
}

#[test]
fn pc_and_address_strikes_ride_only_past_issue_and_never_under_flush() {
    for policy in [FetchPolicyKind::Icount, FetchPolicyKind::Flush] {
        let mut core = smt2(policy);
        let cfg = core.config().clone();
        let targets = [
            (FaultTarget::Rob, cfg.rob_entries_per_thread),
            (FaultTarget::LsqTag, cfg.lsq_entries_per_thread),
        ];
        // Per target: (rides, diverges) over bit 0 — a PC bit in a ROB
        // entry, an address bit in an LSQ entry.
        let mut seen = [(0u64, 0u64); 2];
        for _ in 0..2_000 {
            core.step();
            for (k, &(target, per_thread)) in targets.iter().enumerate() {
                for entry in 0..per_thread as u64 * cfg.contexts as u64 {
                    match core.probe_fault(&Fault {
                        target,
                        entry,
                        bit: 0,
                    }) {
                        FaultProbe::TaintSlot { .. } => seen[k].0 += 1,
                        FaultProbe::Diverges => seen[k].1 += 1,
                        _ => {}
                    }
                }
            }
        }
        for (&(target, _), &(rides, diverges)) in targets.iter().zip(&seen) {
            // Waiting loads (and stores, for LSQ addresses) diverge under
            // every policy.
            assert!(diverges > 0, "{policy:?} {target:?}: nothing diverged");
            if policy == FetchPolicyKind::Flush {
                assert_eq!(rides, 0, "FLUSH rode a {target:?} strike");
            } else {
                assert!(rides > 0, "{policy:?} {target:?}: nothing rode");
            }
        }
    }
}
