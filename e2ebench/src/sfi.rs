//! The SFI job, the second part of `ace-sfi`: `validate_workload` done
//! layer by layer for 2T-MIX-A at quick scale, 200 trials x 8 targets,
//! 64 lanes, one worker: `PreparedCampaign::prepare` (golden + checkpoint
//! clones), `run_trials_batched_full` (lane follower and forks),
//! `summarize`, the `run_workload_on` ACE reference and `compare`. No
//! store, no processes.

use crate::host::digest_debug;
use crate::trace::Tracer;
use crate::{IterOut, Samples};
use avf_core::compare;
use sim_inject::{run_trials_batched_full, summarize, CampaignConfig, PreparedCampaign};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::SmtCore;
use sim_workload::SmtWorkload;
use smt_avf::experiments::campaign::default_campaign;
use smt_avf::runner::{run_workload_on, workload_generators};
use smt_avf::ExperimentScale;

pub const WORKLOAD: &str = "2T-MIX-A";
pub const TRIALS: usize = 200;
pub const LANES: usize = 64;

pub struct SfiLanes {
    workload: SmtWorkload,
    seed: u64,
    campaign: Option<(MachineConfig, CampaignConfig)>,
}

impl SfiLanes {
    pub fn new(seed: u64) -> SfiLanes {
        let workload = sim_workload::table2()
            .into_iter()
            .find(|w| w.name == WORKLOAD)
            .expect("Table 2 workload");
        SfiLanes {
            workload,
            seed,
            campaign: None,
        }
    }

    /// What `validate_workload` does before its campaign: resolve the
    /// generators, configure the machine and the campaign.
    pub fn setup(&mut self, tr: &Tracer, samples: &mut Samples) {
        let (gens, gen_s) = tr.span("sim-workload.generators", || {
            workload_generators(&self.workload).expect("Table 2 profiles resolve")
        });
        samples.add("sim-workload.generators_s", gen_s);
        let machine = MachineConfig::ispass07_baseline()
            .with_contexts(self.workload.contexts)
            .with_fetch_policy(FetchPolicyKind::Icount);
        let (_, new_s) = tr.span("sim-pipeline.new", || SmtCore::new(machine.clone(), gens));
        samples.add("sim-pipeline.new_s", new_s);
        let mut cfg = default_campaign(&self.workload, TRIALS, self.seed, ExperimentScale::quick());
        cfg.workers = 1;
        cfg.lanes = LANES;
        self.campaign = Some((machine, cfg));
    }

    pub fn iterate(&mut self, tr: &Tracer, samples: &mut Samples) -> IterOut {
        let (machine, cfg) = self
            .campaign
            .as_ref()
            .expect("setup precedes every iteration");
        let w = &self.workload;
        let factory = || {
            let (gens, _) = tr.span("sim-workload.generators", || {
                workload_generators(w).expect("resolved in setup")
            });
            tr.span("sim-pipeline.new", || SmtCore::new(machine.clone(), gens))
                .0
        };
        let mut out = IterOut::default();
        let t0 = std::time::Instant::now();
        let (prepared, prepare_s) = tr.span("sim-inject.prepare", || {
            PreparedCampaign::prepare(&factory, cfg)
        });
        let prepared = prepared.expect("campaign prepares");
        let total = prepared.total_trials();
        let ((execs, pool, lanes), trials_s) = tr.span("sim-inject.trials", || {
            run_trials_batched_full(&prepared, &factory, 0, total, cfg.workers)
        });
        let records: Vec<_> = execs.iter().map(|e| e.record).collect();
        let (per_target, summarize_s) = tr.span("sim-inject.summarize", || {
            summarize(&cfg.targets, cfg.trials_per_structure, &records)
        });
        let (ace, ace_s) = tr.span("smt-avf.ace_ref", || {
            run_workload_on(machine, w, cfg.budget)
        });
        let ace = ace.expect("ACE reference runs");
        let points: Vec<_> = per_target.iter().map(|t| t.sfi).collect();
        let (rows, compare_s) = tr.span("avf-core.compare", || compare(&ace.report, &points));
        out.job_s = t0.elapsed().as_secs_f64();

        // One record per trial, in (target, trial) order; tallies sum to trials.
        let per = cfg.trials_per_structure;
        out.attempted = total as u64;
        let mut ok = vec![false; total];
        for (i, r) in records.iter().enumerate().take(total) {
            ok[i] = r.target == cfg.targets[i / per] && r.trial == i % per;
        }
        for (ti, t) in per_target.iter().enumerate() {
            if t.masked + t.latent + t.sdc + t.detected != t.trials || t.trials != per as u64 {
                eprintln!("ace-sfi: {:?} tallies do not sum to {per} trials", t.target);
                ok[ti * per..(ti + 1) * per]
                    .iter_mut()
                    .for_each(|o| *o = false);
            }
        }
        out.failed = ok.iter().filter(|o| !**o).count() as u64;
        if records.len() != total || rows.len() != cfg.targets.len() {
            eprintln!(
                "ace-sfi: {} records / {} rows for {total} trials",
                records.len(),
                rows.len()
            );
            out.failed = out.attempted;
        }
        out.ops = total as f64;
        out.ops_time_s = trials_s;
        for v in [&records as &dyn std::fmt::Debug, &per_target, &rows, &ace] {
            out.digest = digest_debug(out.digest, &v);
        }

        let lanes = lanes.expect("lanes > 0 takes the batched path").totals();
        samples.add("sim-inject.prepare_s", prepare_s);
        samples.add("sim-inject.trials_s", trials_s);
        samples.add("sim-inject.summarize_s", summarize_s);
        samples.add("sim-inject.trials_per_s", total as f64 / trials_s);
        samples.add("smt-avf.ace_ref_s", ace_s);
        samples.add("avf-core.compare_s", compare_s);
        samples.add("sim-exec.jobs", pool.total_jobs() as f64);
        samples.add("sim-inject.prechecked", lanes.prechecked as f64);
        samples.add("sim-inject.batched", lanes.batched as f64);
        samples.add("sim-inject.resident", lanes.resident as f64);
        samples.add("sim-inject.forked", lanes.forked as f64);
        samples.add("sim-inject.reconverged", lanes.reconverged as f64);
        samples.add("sim-inject.deduped", lanes.deduped as f64);
        samples.add("sim-inject.fork_rate", lanes.forked as f64 / total as f64);
        println!(
            "  {total} trials: prepare {prepare_s:.3} s, trials {trials_s:.3} s, \
             {} forked, digest {:016x}",
            lanes.forked, out.digest
        );
        out
    }
}
