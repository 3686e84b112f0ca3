//! The ACE sweep, the first part of `ace-sfi`: the paper's
//! characterization path. `run_workload` of 4T-CPU-A, 4T-MIX-A and
//! 4T-MEM-A at default scale under ICOUNT, on one thread, split into its
//! layer calls: `workload_generators` (sim-workload) and `SmtCore::new`
//! (sim-pipeline) as set-up, then `SmtCore::run` (sim-pipeline, with
//! sim-mem, sim-frontend and avf-core inside) as the measured work.

use crate::host::{digest_debug, FNV_OFFSET};
use crate::trace::Tracer;
use crate::{IterOut, Samples};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::{SimBudget, SimResult, SmtCore};
use sim_workload::{SmtWorkload, TraceGenerator};
use smt_avf::runner::workload_generators;
use smt_avf::ExperimentScale;

pub const MIXES: [&str; 3] = ["4T-CPU-A", "4T-MIX-A", "4T-MEM-A"];

pub struct AceSweep {
    mixes: Vec<(SmtWorkload, MachineConfig, SimBudget)>,
    cores: Vec<SmtCore<TraceGenerator>>,
}

impl AceSweep {
    pub fn new() -> AceSweep {
        let table = sim_workload::table2();
        let mixes = MIXES
            .iter()
            .map(|name| {
                let w = table
                    .iter()
                    .find(|w| w.name == *name)
                    .expect("Table 2 workload")
                    .clone();
                let cfg = MachineConfig::ispass07_baseline()
                    .with_contexts(w.contexts)
                    .with_fetch_policy(FetchPolicyKind::Icount);
                let budget = ExperimentScale::default_scale().budget(w.contexts);
                (w, cfg, budget)
            })
            .collect();
        AceSweep {
            mixes,
            cores: Vec::new(),
        }
    }

    /// Build one fresh core per mix, exactly as `run_workload_on` does.
    pub fn setup(&mut self, tr: &Tracer, samples: &mut Samples) {
        self.cores.clear();
        for (w, cfg, _) in &self.mixes {
            let (gens, gen_s) = tr.span("sim-workload.generators", || {
                workload_generators(w).expect("Table 2 profiles resolve")
            });
            let (core, new_s) = tr.span("sim-pipeline.new", || SmtCore::new(cfg.clone(), gens));
            samples.add("sim-workload.generators_s", gen_s);
            samples.add("sim-pipeline.new_s", new_s);
            self.cores.push(core);
        }
    }

    pub fn iterate(&mut self, tr: &Tracer, samples: &mut Samples) -> IterOut {
        let mut out = IterOut::default();
        let cores = std::mem::take(&mut self.cores);
        assert_eq!(
            cores.len(),
            self.mixes.len(),
            "setup precedes every iteration"
        );
        for ((w, _, budget), mut core) in self.mixes.iter().zip(cores) {
            let (result, run_s) = tr.span("sim-pipeline.run", || core.run(*budget));
            let (cycles, insts) = (core.cycle(), core.total_committed());
            let mix = w.name.as_str();
            samples.add(&format!("sim-pipeline.run_s.{mix}"), run_s);
            samples.add(
                &format!("sim-pipeline.ns_per_cycle.{mix}"),
                run_s * 1e9 / cycles as f64,
            );
            samples.add(&format!("sim-pipeline.cycles.{mix}"), cycles as f64);
            samples.add(&format!("sim-pipeline.insts.{mix}"), insts as f64);
            out.job_s += run_s;
            out.ops += insts as f64 / 1000.0;
            out.ops_time_s += run_s;
            out.attempted += 1;
            match check(&result) {
                Ok(()) => {}
                Err(e) => {
                    eprintln!("ace-sfi: {mix}: check failed: {e}");
                    out.failed += 1;
                }
            }
            out.digest = digest_debug(out.digest, &result);
            println!(
                "  {mix}: {cycles} cycles, {insts} insts, {run_s:.3} s, digest {:016x}",
                digest_debug(FNV_OFFSET, &result)
            );
        }
        samples.add("sim-pipeline.kinst_per_s", out.ops / out.ops_time_s);
        out
    }
}

/// Every AVF lies in (0, 1) and the per-thread AVFs sum to the aggregate.
fn check(result: &SimResult) -> Result<(), String> {
    for s in result.report.structures() {
        if !(s.avf > 0.0 && s.avf < 1.0) {
            return Err(format!("{:?} AVF {} outside (0, 1)", s.structure, s.avf));
        }
        let sum: f64 = s.per_thread.iter().sum();
        if (sum - s.avf).abs() > 1e-9 {
            return Err(format!(
                "{:?} per-thread AVFs sum to {sum}, aggregate {}",
                s.structure, s.avf
            ));
        }
    }
    Ok(())
}
