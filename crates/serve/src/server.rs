//! Job execution: resolve a [`JobSpec`] into a prepared campaign, shard
//! its missing chunks across worker processes in leases (or run them
//! in-process), persist every completed chunk, and publish the final
//! result.
//!
//! The parent process is the store's single canonical writer: workers
//! never touch disk, they stream completed chunks back over the
//! [`protocol`](crate::protocol) and the parent publishes them. Killing
//! the parent (or any worker) at any point loses at most the chunks of
//! the leases in flight; a rerun of the same spec resumes from the
//! published ones and finishes with byte-identical results.

use crate::protocol::{read_frame, write_frame, WorkerChunk, WorkerReady, WorkerTask};
use avf_core::AvfReport;
use sim_inject::{CampaignMetrics, Landing, PreparedCampaign};
use sim_model::{FetchPolicyKind, MachineConfig};
use sim_pipeline::SmtCore;
use sim_store::{
    decode_record, encode_record, open_job, plan_leases, run_lease, ChunkPlan, ChunkPublisher,
    ChunkRecord, GoldenFingerprint, JobResultRecord, JobSpec, ObjectId, Opened, Store,
    StoredOutcome,
};
use sim_trace::metrics::{self, micros_since};
use sim_workload::{table2, SmtWorkload, TraceGenerator};
use smt_avf::runner::{run_workload_on, workload_generators};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Look up a Table 2 workload by name.
pub fn resolve_workload(name: &str) -> Result<SmtWorkload, String> {
    table2()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload '{name}'; Table 2 defines: {}",
                table2()
                    .iter()
                    .map(|w| w.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

/// The machine every campaign job runs on: the Table 1 baseline under
/// ICOUNT, sized for the workload — the same configuration the ACE
/// experiments and `validate_avf` use, so stored results are comparable.
pub fn machine_for(workload: &SmtWorkload) -> MachineConfig {
    MachineConfig::ispass07_baseline()
        .with_contexts(workload.contexts)
        .with_fetch_policy(FetchPolicyKind::Icount)
}

/// Build the deterministic core factory for `workload` (profiles resolved
/// up front so the returned closure cannot fail).
pub fn factory_for(
    workload: &SmtWorkload,
) -> Result<impl Fn() -> SmtCore<TraceGenerator> + Sync + '_, String> {
    workload_generators(workload).map_err(|e| e.to_string())?;
    let cfg = machine_for(workload);
    Ok(move || {
        SmtCore::new(
            cfg.clone(),
            workload_generators(workload).expect("profiles resolved above"),
        )
    })
}

/// How a finished job is reported.
pub struct JobReport {
    /// The job's identity.
    pub job: ObjectId,
    /// The published result.
    pub result: JobResultRecord,
    /// Chunks loaded from a previous run vs computed now.
    pub resumed_chunks: usize,
    /// Chunks computed by this run.
    pub computed_chunks: usize,
    /// Execution metrics for the chunks computed by this run.
    pub metrics: CampaignMetrics,
}

/// Run `spec` to completion against the store at `store_dir`, sharding
/// across `worker_procs` spawned worker processes (0 or 1 = in-process).
/// Idempotent and resumable: published chunks are never recomputed.
pub fn run_job(store_dir: &Path, spec: &JobSpec, worker_procs: usize) -> Result<JobReport, String> {
    let store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let workload = resolve_workload(&spec.workload)?;
    let started = Instant::now();
    let outcome = if worker_procs <= 1 {
        run_in_process(&store, spec, &workload)?
    } else {
        run_sharded(&store, spec, &workload, worker_procs)?
    };
    let elapsed = started.elapsed().as_secs_f64();
    let computed_trials = outcome.computed_trials as u64;
    let injected = outcome
        .result
        .records
        .iter()
        .filter(|r| r.landing == Landing::Injected)
        .count() as u64;
    let metrics = CampaignMetrics {
        trials: computed_trials,
        golden_secs: 0.0,
        trial_secs: elapsed,
        trials_per_sec: if elapsed > 0.0 {
            computed_trials as f64 / elapsed
        } else {
            0.0
        },
        workers: worker_procs.max(1),
        per_worker_jobs: Vec::new(),
        injected_trials: injected,
        early_exits: 0,
        restore: None,
        lane_stats: None,
    };
    if metrics::enabled() {
        let reg = metrics::global();
        reg.counter("serve.jobs").inc();
        reg.counter("serve.chunks_resumed")
            .add(outcome.resumed_chunks as u64);
        reg.counter("serve.chunks_computed")
            .add(outcome.computed_chunks as u64);
        reg.histogram("serve.job_us")
            .observe((elapsed * 1e6) as u64);
        metrics.export(reg, "campaign");
    }
    Ok(JobReport {
        job: spec.id(),
        result: outcome.result,
        resumed_chunks: outcome.resumed_chunks,
        computed_chunks: outcome.computed_chunks,
        metrics,
    })
}

/// The ACE reference closure for `spec`: the uninjected run whose report
/// is published with the job result.
fn ace_for<'a>(
    workload: &'a SmtWorkload,
    spec: &'a JobSpec,
) -> impl FnOnce() -> Result<AvfReport, String> + 'a {
    move || {
        run_workload_on(&machine_for(workload), workload, spec.cfg.budget)
            .map(|r| r.report)
            .map_err(|e| e.to_string())
    }
}

fn run_in_process(
    store: &Store,
    spec: &JobSpec,
    workload: &SmtWorkload,
) -> Result<StoredOutcome, String> {
    let factory = factory_for(workload)?;
    sim_store::run_campaign_stored(store, spec, &factory, ace_for(workload, spec))
        .map_err(|e| e.to_string())
}

/// One spawned worker process and its protocol streams.
struct Worker {
    child: Child,
    stdin: BufWriter<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_worker(spec: &JobSpec) -> Result<Worker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(&exe)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        // Workers must not see the parent's crash hook: the hook models
        // killing the *writer*, and only the parent writes.
        .env_remove("SIM_STORE_CRASH_AFTER_CHUNKS")
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if metrics::enabled() {
        metrics::global().counter("serve.worker.spawns").inc();
    }
    let mut stdin = BufWriter::new(child.stdin.take().expect("piped"));
    let stdout = BufReader::new(child.stdout.take().expect("piped"));
    write_frame(&mut stdin, spec).map_err(|e| format!("sending spec to worker: {e}"))?;
    Ok(Worker {
        child,
        stdin,
        stdout,
    })
}

fn run_sharded(
    store: &Store,
    spec: &JobSpec,
    workload: &SmtWorkload,
    worker_procs: usize,
) -> Result<StoredOutcome, String> {
    // The parent prepares its own golden (in `open_job`): it owns
    // fingerprint verification against the store and must not trust
    // workers for it.
    let factory = factory_for(workload)?;
    let open = match open_job(store, spec, &factory).map_err(|e| e.to_string())? {
        Opened::Done(done) => return Ok(done),
        Opened::Open(open) => *open,
    };
    let expected = encode_record(&GoldenFingerprint::of(&open.prepared));
    let job = open.job;
    let total = open.plans.len();
    let resumed = total - open.missing.len();
    let leases = plan_leases(&open.missing, spec.cfg.workers, worker_procs);
    let procs = worker_procs.min(leases.len());
    let queue = Mutex::new(VecDeque::from(leases));
    let publisher = ChunkPublisher::new(store);

    let mut workers = Vec::with_capacity(procs);
    for _ in 0..procs {
        workers.push(spawn_worker(spec)?);
    }

    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::with_capacity(workers.len());
        for (wi, mut worker) in workers.into_iter().enumerate() {
            let (queue, publisher, expected) = (&queue, &publisher, &expected);
            handles.push(scope.spawn(move || -> Result<(), String> {
                let ready: WorkerReady = read_frame(&mut worker.stdout)
                    .map_err(|e| format!("worker {wi}: {e}"))?
                    .ok_or_else(|| format!("worker {wi} exited before greeting"))?;
                if encode_record(&ready.fingerprint) != *expected {
                    return Err(format!(
                        "worker {wi} rebuilt a different golden state than the parent; \
                         refusing to shard across divergent machines"
                    ));
                }
                drive_worker(
                    wi,
                    &job,
                    &mut worker.stdout,
                    &mut worker.stdin,
                    || queue.lock().expect("queue lock").pop_front(),
                    |chunk| {
                        let fresh = publisher.publish(chunk).map_err(|e| e.to_string())?;
                        eprintln!(
                            "sim-serve: job {} chunk {} published ({}/{total})",
                            short(&job),
                            chunk.index,
                            resumed + fresh
                        );
                        Ok(())
                    },
                )?;
                // Closing stdin is the shutdown signal.
                drop(worker.stdin);
                let status = worker
                    .child
                    .wait()
                    .map_err(|e| format!("worker {wi}: {e}"))?;
                if !status.success() {
                    return Err(format!("worker {wi} exited with {status}"));
                }
                Ok(())
            }));
        }
        let mut first_err = None;
        for h in handles {
            if let Err(e) = h.join().expect("worker thread panicked") {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;

    open.finish(store, spec, &publisher, ace_for(workload, spec))
        .map_err(|e| e.to_string())
}

/// One worker's side of the lease conversation. Each lease from `next`
/// goes out as one [`WorkerTask`]; the worker answers with one
/// [`WorkerChunk`] per chunk, and every reply is checked against its slot
/// (job, index, start, trial count) before any chunk of that lease
/// reaches `publish`. The worker's next lease is dispatched before the
/// current lease's chunks are published, so the worker computes while the
/// parent fsyncs. A short or mis-slotted reply fails the job with an
/// error; nothing of the failing lease is published.
fn drive_worker<R: Read, W: Write>(
    wi: usize,
    job: &ObjectId,
    rx: &mut R,
    tx: &mut W,
    mut next: impl FnMut() -> Option<Vec<ChunkPlan>>,
    mut publish: impl FnMut(&ChunkRecord) -> Result<(), String>,
) -> Result<(), String> {
    // Handles resolved once per worker, not per lease.
    let timers = metrics::enabled().then(|| {
        let reg = metrics::global();
        (
            reg.histogram("serve.worker.chunk_us"),
            reg.counter(&format!("serve.worker{wi}.busy_us")),
            reg.counter(&format!("serve.worker{wi}.frames")),
        )
    });
    let mut dispatch = |lease: Vec<ChunkPlan>| -> Result<(Vec<ChunkPlan>, Instant), String> {
        let task = WorkerTask { lease };
        let sent = Instant::now();
        write_frame(tx, &task).map_err(|e| format!("worker {wi}: {e}"))?;
        Ok((task.lease, sent))
    };
    let mut inflight = next().map(&mut dispatch).transpose()?;
    while let Some((lease, sent)) = inflight {
        let mut chunks = Vec::with_capacity(lease.len());
        for plan in &lease {
            let chunk = read_frame::<WorkerChunk, _>(rx)
                .map_err(|e| format!("worker {wi}: {e}"))?
                .ok_or_else(|| format!("worker {wi} died running chunk {}", plan.index))?
                .chunk;
            if chunk.job != *job
                || chunk.index != plan.index
                || chunk.start != plan.start
                || chunk.records.len() != plan.len
            {
                return Err(format!(
                    "worker {wi} returned chunk {} for the wrong slot (expected chunk {})",
                    chunk.index, plan.index
                ));
            }
            chunks.push(chunk);
        }
        if let Some((chunk_us, busy_us, frames)) = &timers {
            // Dispatch→last reply is this worker's busy window for the
            // lease: it computes from the task frame to its last chunk.
            let us = micros_since(sent);
            chunk_us.observe(us);
            busy_us.add(us);
            frames.add(1 + lease.len() as u64);
        }
        inflight = next().map(&mut dispatch).transpose()?;
        for chunk in &chunks {
            publish(chunk)?;
        }
    }
    Ok(())
}

/// Worker-process entry point: speak the protocol on stdin/stdout until
/// the parent closes stdin. Never touches the store.
pub fn worker_main() -> Result<(), String> {
    let mut stdin = BufReader::new(std::io::stdin());
    let mut stdout = BufWriter::new(std::io::stdout());
    let spec: JobSpec = read_frame(&mut stdin)
        .map_err(|e| format!("reading job spec: {e}"))?
        .ok_or("parent closed the pipe before sending a job spec")?;
    let workload = resolve_workload(&spec.workload)?;
    let factory = factory_for(&workload)?;
    let prepared = PreparedCampaign::prepare(&factory, &spec.cfg).map_err(|e| e.to_string())?;
    let job = spec.id();
    write_frame(
        &mut stdout,
        &WorkerReady {
            fingerprint: GoldenFingerprint::of(&prepared),
        },
    )
    .map_err(|e| format!("sending greeting: {e}"))?;
    while let Some(task) =
        read_frame::<WorkerTask, _>(&mut stdin).map_err(|e| format!("reading task: {e}"))?
    {
        for chunk in run_lease(&prepared, &factory, &job, &task.lease, spec.cfg.workers) {
            let index = chunk.index;
            write_frame(&mut stdout, &WorkerChunk { chunk })
                .map_err(|e| format!("sending chunk {index}: {e}"))?;
        }
    }
    Ok(())
}

/// One job processed by a [`drain_queue`] pass.
pub struct DrainedJob {
    /// The job's identity (`None` when the queue file did not decode).
    pub job: Option<ObjectId>,
    /// Where the queue file was parked: `"done"`, `"failed"`, `"rejected"`.
    pub disposition: &'static str,
    /// Submit (queue-file mtime) → parked, in microseconds.
    pub latency_us: u64,
    /// Dispatch (decode start) → parked, in microseconds.
    pub service_us: u64,
}

/// What one queue pass did.
pub struct DrainStats {
    /// Jobs parked by this pass, in dispatch order.
    pub drained: Vec<DrainedJob>,
}

/// Run one pass over `queue`: every `*.job` file (sorted, so dispatch
/// order is deterministic) is decoded, executed against the store, and
/// parked as `.done` / `.failed` / `.rejected`. This is the single
/// drain path shared by `sim-serve serve` and the soak harness, and the
/// place submit→dispatch→result latencies are observed: submit time is
/// the queue file's mtime (stamped by the atomic rename in `enqueue`),
/// so the latency survives across serve restarts.
pub fn drain_queue(
    store_dir: &Path,
    queue: &Path,
    worker_procs: usize,
) -> Result<DrainStats, String> {
    let timed = metrics::enabled();
    let mut jobs: Vec<PathBuf> = std::fs::read_dir(queue)
        .map_err(|e| format!("{}: {e}", queue.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "job"))
        .collect();
    jobs.sort();
    if timed {
        metrics::global()
            .gauge("serve.queue_depth")
            .set(jobs.len() as i64);
    }
    let mut drained = Vec::new();
    for path in &jobs {
        let submitted = std::fs::metadata(path).and_then(|m| m.modified()).ok();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sim-serve: skipping {}: {e}", path.display());
                continue;
            }
        };
        let dispatched = Instant::now();
        if timed {
            let wait_us = submitted
                .and_then(|t| t.elapsed().ok())
                .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
            metrics::global()
                .histogram("serve.submit_to_dispatch_us")
                .observe(wait_us);
        }
        let (job, disposition) = match decode_record::<JobSpec>(&bytes) {
            Err(e) => {
                eprintln!("sim-serve: rejecting {}: {e}", path.display());
                (None, "rejected")
            }
            Ok(spec) => {
                eprintln!(
                    "sim-serve: running job {} ({})",
                    short(&spec.id()),
                    spec.name
                );
                match run_job(store_dir, &spec, worker_procs) {
                    Ok(report) => {
                        eprintln!(
                            "sim-serve: job {} done ({} resumed, {} computed)",
                            short(&report.job),
                            report.resumed_chunks,
                            report.computed_chunks
                        );
                        (Some(report.job), "done")
                    }
                    Err(e) => {
                        eprintln!("sim-serve: job failed: {e}");
                        (Some(spec.id()), "failed")
                    }
                }
            }
        };
        let parked = path.with_extension(disposition);
        if let Err(e) = std::fs::rename(path, &parked) {
            return Err(format!("parking {}: {e}", path.display()));
        }
        let service_us = micros_since(dispatched);
        let latency_us = submitted
            .and_then(|t| t.elapsed().ok())
            .map_or(service_us, |d| d.as_micros().min(u64::MAX as u128) as u64);
        if timed {
            let reg = metrics::global();
            reg.histogram("serve.submit_to_result_us")
                .observe(latency_us);
            reg.histogram("serve.service_us").observe(service_us);
            reg.counter(&format!("serve.jobs_{disposition}")).inc();
            reg.gauge("serve.queue_depth").add(-1);
        }
        drained.push(DrainedJob {
            job,
            disposition,
            latency_us,
            service_us,
        });
    }
    Ok(DrainStats { drained })
}

/// Abbreviated job id for log lines.
pub fn short(id: &ObjectId) -> String {
    id.to_hex()[..12].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_inject::{FaultTarget, Outcome, TrialRecord};
    use sim_store::{
        campaign::{chunk_ref, result_ref},
        plan_chunks,
    };

    fn temp_store(tag: &str) -> (Store, PathBuf) {
        let dir = std::env::temp_dir().join(format!("sim-serve-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Store::open(&dir).unwrap(), dir)
    }

    fn chunk(job: ObjectId, plan: ChunkPlan) -> ChunkRecord {
        ChunkRecord {
            job,
            index: plan.index,
            start: plan.start,
            records: (plan.start..plan.start + plan.len)
                .map(|trial| TrialRecord {
                    target: FaultTarget::Iq,
                    trial,
                    entry: 0,
                    bit: 0,
                    cycle: 0,
                    landing: Landing::Injected,
                    outcome: Outcome::Masked,
                })
                .collect(),
        }
    }

    #[test]
    fn short_or_misslotted_replies_fail_the_job_and_publish_only_validated_chunks() {
        let job = ObjectId::of(b"lease protocol test job");
        let plans = plan_chunks(13, 4);
        let leases = vec![plans[..2].to_vec(), plans[2..].to_vec()];
        let mut truncated = chunk(job, plans[2]);
        truncated.records.pop();
        let bad_second_leases = [
            (
                "wrong slot",
                vec![chunk(job, plans[3]), chunk(job, plans[2])],
            ),
            ("wrong slot", vec![truncated]),
            ("died running chunk 3", vec![chunk(job, plans[2])]),
            ("died running chunk 2", Vec::new()),
        ];
        for (i, (expect, second)) in bad_second_leases.into_iter().enumerate() {
            let (store, dir) = temp_store(&format!("lease-{i}"));
            let publisher = ChunkPublisher::new(&store);
            // The worker answers its first lease in full, then misbehaves.
            let mut replies = Vec::new();
            for reply in [chunk(job, plans[0]), chunk(job, plans[1])]
                .into_iter()
                .chain(second)
            {
                write_frame(&mut replies, &WorkerChunk { chunk: reply }).unwrap();
            }
            let mut sent = Vec::new();
            let mut queue = VecDeque::from(leases.clone());
            let err = drive_worker(
                0,
                &job,
                &mut &replies[..],
                &mut sent,
                || queue.pop_front(),
                |c| publisher.publish(c).map(|_| ()).map_err(|e| e.to_string()),
            )
            .unwrap_err();
            assert!(err.contains(expect), "case {i}: {err}");
            // Both leases went out: the second before the first was published.
            let mut r = &sent[..];
            for lease in &leases {
                let task: WorkerTask = read_frame(&mut r).unwrap().unwrap();
                assert_eq!(&task.lease, lease);
            }
            // Exactly the validated first lease reached the store.
            let names: Vec<String> = store
                .refs("jobs/")
                .unwrap()
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            assert_eq!(
                names,
                vec![chunk_ref(&job, 0), chunk_ref(&job, 1)],
                "case {i}"
            );
            assert_eq!(publisher.published(), (2, 8));
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn resumed_job_counts_the_trials_it_computed_not_whole_chunks() {
        let (_, dir) = temp_store("tail-trials");
        let workload = resolve_workload("2T-MIX-A").unwrap();
        let mut cfg = smt_avf::experiments::campaign::default_campaign(
            &workload,
            13,
            5,
            smt_avf::ExperimentScale::quick(),
        );
        cfg.targets = vec![FaultTarget::Iq];
        cfg.workers = 1;
        let spec = JobSpec {
            name: "tail-trials".to_string(),
            workload: workload.name.clone(),
            cfg,
            chunk_trials: 4,
        };
        let first = run_job(&dir, &spec, 1).unwrap();
        assert_eq!((first.resumed_chunks, first.computed_chunks), (0, 4));
        assert_eq!(first.metrics.trials, 13);

        // Forget the one-trial tail chunk and the result: the resume
        // recomputes only the tail.
        for name in [chunk_ref(&first.job, 3), result_ref(&first.job)] {
            std::fs::remove_file(dir.join("refs").join(name)).unwrap();
        }
        let second = run_job(&dir, &spec, 1).unwrap();
        assert_eq!((second.resumed_chunks, second.computed_chunks), (3, 1));
        assert_eq!(second.metrics.trials, 1, "the tail chunk holds one trial");
        assert_eq!(encode_record(&second.result), encode_record(&first.result));
        let _ = std::fs::remove_dir_all(dir);
    }
}
