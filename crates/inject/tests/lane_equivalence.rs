//! The lane-parallel batched trial engine must be bit-identical to the
//! scalar per-trial oracle — record for record, at lanes = 1/4/8/64 and
//! workers = 1/2/4, under ICOUNT and FLUSH — and the read-only fault probe
//! must agree with the real injection's landing on every sampled strike.
//! FLUSH matters because the probe's timing-visibility rule branches on
//! it: its L2-miss squash replays slots from their recorded PCs and
//! addresses.
//!
//! `CampaignConfig::lanes = 0` keeps the scalar path alive precisely so
//! this test can hold the batched path to it (the same pattern as the
//! checkpoint and fast-forward equivalence proofs); both run through the
//! one trial-range entry point, `run_trials_batched_full`.

use sim_inject::*;
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{FaultProbe, Landing, SimBudget, SmtCore};
use sim_workload::{profile, TraceGenerator};

const POLICIES: [FetchPolicyKind; 2] = [FetchPolicyKind::Icount, FetchPolicyKind::Flush];

fn factory(policy: FetchPolicyKind) -> impl Fn() -> SmtCore + Sync {
    move || {
        let cfg = MachineConfig::ispass07_baseline()
            .with_contexts(2)
            .with_fetch_policy(policy);
        let gens = ["bzip2", "mcf"]
            .iter()
            .enumerate()
            .map(|(i, p)| TraceGenerator::new(profile(p).expect("profiled"), i as u64 + 7))
            .collect();
        SmtCore::new(cfg, gens)
    }
}

fn budget() -> SimBudget {
    SimBudget::total_instructions(2_500).with_warmup(1_000)
}

fn campaign(workers: usize, lanes: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(5, 0xBADC0DE, budget());
    cfg.workers = workers;
    cfg.lanes = lanes;
    cfg
}

#[test]
fn batched_campaign_matches_scalar_oracle_at_every_lane_and_worker_count() {
    for policy in POLICIES {
        let oracle = run_campaign(factory(policy), &campaign(1, 0)).expect("scalar campaign runs");
        for lanes in [1usize, 4, 8, 64] {
            for workers in [1usize, 2, 4] {
                let batched = run_campaign(factory(policy), &campaign(workers, lanes))
                    .expect("batched campaign runs");
                assert_eq!(
                    oracle.window, batched.window,
                    "{policy:?}, {lanes} lanes, {workers} workers"
                );
                assert_eq!(
                    oracle.records, batched.records,
                    "batched records diverged from the scalar oracle at \
                     {policy:?}, {lanes} lanes, {workers} workers"
                );
                assert_eq!(
                    oracle.per_target, batched.per_target,
                    "{policy:?}, {lanes} lanes, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn batched_trial_range_matches_scalar_execs_including_metrics() {
    // run_trials_batched_full is the store's lease entry point: hold a lease's
    // worth of TrialExecs (records *and* the early-exit / restore-distance
    // diagnostics) to the scalar path, over an offset range so the
    // start/len plumbing is exercised too.
    let cfg = campaign(1, 4);
    let factory = factory(FetchPolicyKind::Icount);
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    let total = prepared.total_trials();
    let (start, len) = (3, total - 5);
    let scalar: Vec<TrialExec> = (0..len)
        .map(|i| prepared.run_index(&factory, start + i))
        .collect();
    for workers in [1usize, 2, 4] {
        let (batched, _, _) = run_trials_batched_full(&prepared, &factory, start, len, workers);
        assert_eq!(scalar, batched, "{workers} workers");
    }
}

#[test]
fn lanes_on_a_scalar_prepared_campaign_fall_back_to_the_oracle() {
    // lanes set together with replay_from_zero: no checkpoints exist, so
    // the batched entry point must fall back to (and match) the oracle.
    let mut cfg = campaign(1, 8);
    cfg.replay_from_zero = true;
    let factory = factory(FetchPolicyKind::Icount);
    let prepared = PreparedCampaign::prepare(&factory, &cfg).expect("prepare");
    let total = prepared.total_trials();
    let scalar: Vec<TrialExec> = (0..total)
        .map(|i| prepared.run_index(&factory, i))
        .collect();
    let (batched, _, lane_stats) = run_trials_batched_full(&prepared, &factory, 0, total, 2);
    assert_eq!(scalar, batched);
    assert!(lane_stats.is_none(), "the fallback reports no lane tally");
}

#[test]
fn probe_agrees_with_injection_on_every_sampled_strike() {
    // For every trial the campaign would sample, step a scalar core to the
    // injection cycle, probe (read-only), then inject for real: the probe
    // must predict the landing exactly, and the metadata-probe classes
    // must match what injection actually mutated.
    for policy in POLICIES {
        let cfg = campaign(1, 0);
        let prepared = PreparedCampaign::prepare(&factory(policy), &cfg).expect("prepare");
        let ckpt = prepared.checkpointed_golden().expect("checkpointed path");
        let mut checked = 0u64;
        for i in 0..prepared.total_trials() {
            let s = prepared.sample(i);
            let mut core = ckpt
                .snapshots()
                .filter(|(c, _)| *c <= s.cycle)
                .last()
                .expect("snapshot at or before cycle")
                .1
                .clone();
            while core.cycle() < s.cycle {
                core.step_fast_bounded(s.cycle);
            }
            let digest_before = core.state_digest();
            let probe = core.probe_fault(&s.fault);
            assert_eq!(
                core.state_digest(),
                digest_before,
                "probe mutated state for {:?} under {policy:?}",
                s.fault
            );
            let landing = core.inject_fault(&s.fault);
            let what = format!("{:?} under {policy:?}", s.fault);
            match probe {
                FaultProbe::Empty => assert_eq!(landing, Landing::Empty, "{what}"),
                FaultProbe::Benign => assert_eq!(landing, Landing::Benign, "{what}"),
                FaultProbe::Detected => assert_eq!(landing, Landing::Detected, "{what}"),
                FaultProbe::TaintSlot { .. } | FaultProbe::PoisonReg { .. } => {
                    assert_eq!(landing, Landing::Injected, "{what}");
                }
                // The resident classes claim a strike on *valid* cache/TLB
                // state: injection must land (Injected), never find the
                // slot empty or the field idle.
                FaultProbe::CacheResident { .. }
                | FaultProbe::CacheDirtyLine { .. }
                | FaultProbe::TlbResident { .. } => {
                    assert_eq!(landing, Landing::Injected, "{what}");
                }
                // Conservative class: the only claim is that the scalar
                // fork handles it; any landing is possible.
                FaultProbe::Diverges => {}
            }
            checked += 1;
        }
        assert_eq!(checked, prepared.total_trials() as u64);
    }
}
