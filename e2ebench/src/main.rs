//! End-to-end benchmark harness for the SMT AVF simulator.
//!
//! ```text
//! e2ebench --workload ace-sfi|serve-job --seed N --seconds S
//!          --trace 0|1 --work-dir DIR [--serve-bin PATH]
//! ```
//!
//! Each iteration is: set-up (timed, reported as `setup_s`), the host
//! reference kernel (timed, `host.ref_s`), then the workload (timed,
//! `wall_s`). Iterations repeat until `--seconds` would be exceeded (at
//! least three). End-to-end metrics are medians over iterations. With
//! `--trace 1`, untraced and traced iterations alternate: traced ones keep
//! every layer span, and the last line carries the per-layer metrics (the
//! medians over traced iterations) instead of the end-to-end ones. The
//! last line of stdout is one JSON object: correct, attempted, failed,
//! metrics.

mod ace;
mod host;
mod serve;
mod sfi;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Largest share of a traced iteration's wall time that may go uncharged
/// to a program layer (it is the benchmark's own glue: checks, digests).
const SELF_TIME_TOLERANCE: f64 = 0.05;

/// Set-ups per iteration; `setup_s` is the median over all of them.
const SETUP_REPS: usize = 5;

/// End-to-end metrics, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("job_s", "s"),
    ("ops_per_s", "ops/s"),
];

/// Layers that spans charge self time to.
const LAYERS: &[&str] = &[
    "e2ebench",
    "sim-workload",
    "sim-pipeline",
    "sim-inject",
    "smt-avf",
    "avf-core",
    "sim-serve",
    "sim-store",
];

/// Per-layer metrics, in output order. A layer a workload leaves idle
/// reads 0 on that workload.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("host.ref_s", "s"),
        ("host.nproc", "count"),
        ("bench.threads", "count"),
        ("bench.procs", "count"),
        ("sim-workload.generators_s", "s"),
        ("sim-pipeline.new_s", "s"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for mix in ace::MIXES {
        m.push((format!("sim-pipeline.run_s.{mix}"), "s"));
        m.push((format!("sim-pipeline.ns_per_cycle.{mix}"), "ns"));
        m.push((format!("sim-pipeline.cycles.{mix}"), "count"));
        m.push((format!("sim-pipeline.insts.{mix}"), "count"));
    }
    for (n, u) in [
        ("sim-pipeline.kinst_per_s", "kinst/s"),
        ("sim-inject.prepare_s", "s"),
        ("sim-inject.trials_s", "s"),
        ("sim-inject.summarize_s", "s"),
        ("sim-inject.trials_per_s", "1/s"),
        ("sim-inject.prechecked", "count"),
        ("sim-inject.batched", "count"),
        ("sim-inject.resident", "count"),
        ("sim-inject.forked", "count"),
        ("sim-inject.reconverged", "count"),
        ("sim-inject.deduped", "count"),
        ("sim-inject.fork_rate", "ratio"),
        ("sim-exec.jobs", "count"),
        ("smt-avf.ace_ref_s", "s"),
        ("avf-core.compare_s", "s"),
        ("sim-serve.status_s", "s"),
        ("sim-serve.submit_s", "s"),
        ("sim-serve.result_s", "s"),
        ("sim-store.fsck_s", "s"),
        ("sim-serve.trials_per_s", "1/s"),
        ("sim-serve.cpu_per_wall", "ratio"),
        ("sim-serve.worker.chunk_us.p50", "us"),
        ("sim-serve.worker.chunk_us.p95", "us"),
        ("sim-serve.worker_busy_share", "ratio"),
        ("sim-store.chunk_publish_us.p50", "us"),
        ("sim-store.chunk_publish_us.p95", "us"),
        ("sim-store.fsync_us.sum", "us"),
        ("sim-store.objects", "count"),
        ("sim-store.bytes", "bytes"),
        ("sim-store.chunks_published", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    for layer in LAYERS {
        m.push((format!("self_s.{layer}"), "s"));
    }
    for (n, u) in [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.layer_sum_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.iterations", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Named per-iteration measurements; adding to a name twice sums.
#[derive(Default)]
pub struct Samples(BTreeMap<String, f64>);

impl Samples {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }
}

/// What one workload iteration reports.
pub struct IterOut {
    /// Start of the work until its result record is in hand.
    pub job_s: f64,
    /// Work units done (kilo-instructions or trials) ...
    pub ops: f64,
    /// ... over this much time.
    pub ops_time_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every simulated result the iteration produced.
    pub digest: u64,
}

impl IterOut {
    /// Fold a later part of the same iteration into this one. The work
    /// rate stays this part's: `ace-sfi` reports the ACE legs' simulated
    /// kilo-instructions per second, and the SFI part's trials per second
    /// is the per-layer `sim-inject.trials_per_s`.
    fn absorb(&mut self, later: IterOut) {
        self.job_s += later.job_s;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.digest = host::fnv1a(self.digest, &later.digest.to_le_bytes());
    }
}

impl Default for IterOut {
    fn default() -> IterOut {
        IterOut {
            job_s: 0.0,
            ops: 0.0,
            ops_time_s: 0.0,
            attempted: 0,
            failed: 0,
            digest: host::FNV_OFFSET,
        }
    }
}

/// The benchmark's workloads. `ace-sfi` runs the ACE sweep and then the
/// lane-batched SFI job in one process, one thread; `serve-job` runs the
/// service binary. The two in-process parts are one workload because, on
/// the 2-vCPU host the benchmark was tuned on, the SFI job alone drifted
/// too far between sets of runs for any bound the benchmark may set.
enum Workload {
    AceSfi(ace::AceSweep, Box<sfi::SfiLanes>),
    Serve(serve::ServeJob),
}

impl Workload {
    fn setup(&mut self, tr: &Tracer, s: &mut Samples) {
        match self {
            Workload::AceSfi(ace, sfi) => {
                ace.setup(tr, s);
                sfi.setup(tr, s);
            }
            Workload::Serve(w) => w.setup(tr, s),
        }
    }

    fn iterate(&mut self, tr: &Tracer, s: &mut Samples) -> IterOut {
        match self {
            Workload::AceSfi(ace, sfi) => {
                let mut out = ace.iterate(tr, s);
                out.absorb(sfi.iterate(tr, s));
                out
            }
            Workload::Serve(w) => w.iterate(tr, s),
        }
    }

    /// (compute threads per simulator process, simulator processes).
    fn parallelism(&self) -> (u64, u64) {
        match self {
            Workload::AceSfi(..) => (1, 1),
            Workload::Serve(_) => (1, 1 + serve::WORKER_PROCS),
        }
    }

    /// Threads simulating at once: the sharding parent only dispatches.
    fn busy_threads(&self) -> usize {
        match self {
            Workload::AceSfi(..) => 1,
            Workload::Serve(_) => serve::WORKER_PROCS as usize,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("{k} is required"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
        work_dir: PathBuf::from(get("--work-dir")?),
        serve_bin: kv.get("--serve-bin").map(PathBuf::from),
    })
}

/// Per-iteration record kept by the run loop.
struct Iteration {
    traced: bool,
    id: u32,
    setup_s: Vec<f64>,
    ref_s: f64,
    wall_s: f64,
    out: IterOut,
    samples: Samples,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work_dir).expect("create work dir");
    let mut workload = match args.workload.as_str() {
        "ace-sfi" => Workload::AceSfi(
            ace::AceSweep::new(),
            Box::new(sfi::SfiLanes::new(args.seed)),
        ),
        "serve-job" => {
            let Some(bin) = args.serve_bin.clone() else {
                eprintln!("e2ebench: serve-job needs --serve-bin");
                std::process::exit(2);
            };
            Workload::Serve(serve::ServeJob::new(bin, &args.work_dir, args.seed))
        }
        other => {
            eprintln!("e2ebench: unknown workload {other} (ace-sfi, serve-job)");
            std::process::exit(2);
        }
    };
    let (threads, procs) = workload.parallelism();
    println!(
        "e2ebench {} seed {} for {} s, trace {}: nproc {}, {threads} compute thread(s) x {procs} process(es)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc()
    );

    let mut ref_bufs = host::reference_buffers(workload.busy_threads());
    host::reference_kernel(&mut ref_bufs); // fault the buffers in, untimed
    let min_iters = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let tr = Tracer::new();
    loop {
        let traced = args.trace && iters.len() % 2 == 1;
        let id = iters.len() as u32;
        tr.begin_iteration(id, traced);
        let t_iter = Instant::now();
        let mut samples = Samples::default();
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        for rep in 0..SETUP_REPS {
            // Only the last set-up's layer figures are kept; its state is
            // what the iteration runs on.
            let mut scratch = Samples::default();
            let s = if rep + 1 == SETUP_REPS {
                &mut samples
            } else {
                &mut scratch
            };
            setup_s.push(tr.span("e2ebench.setup", || workload.setup(&tr, s)).1);
        }
        let ref_s = host::reference_kernel(&mut ref_bufs);
        let (out, wall_s) = tr.span("e2ebench.iteration", || workload.iterate(&tr, &mut samples));
        println!(
            "iter {} {}: setup {:.4} s, ref {ref_s:.4} s, wall {wall_s:.4} s, \
             wall/ref {:.4}, digest {:016x}",
            id,
            if traced { "traced" } else { "untraced" },
            host::median(&setup_s),
            wall_s / ref_s,
            out.digest
        );
        iters.push(Iteration {
            traced,
            id,
            setup_s,
            ref_s,
            wall_s,
            out,
            samples,
        });
        let per_iter = t_iter.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        if iters.len() >= min_iters && elapsed + per_iter > args.seconds {
            break;
        }
    }
    if let Workload::Serve(w) = &workload {
        w.cleanup();
    }

    let attempted: u64 = iters.iter().map(|i| i.out.attempted).sum();
    let mut failed: u64 = iters.iter().map(|i| i.out.failed).sum();
    let digest0 = iters[0].out.digest;
    for it in &iters[1..] {
        if it.out.digest != digest0 {
            eprintln!(
                "e2ebench: iteration {} digest {:016x} != {digest0:016x}",
                it.id, it.out.digest
            );
            failed += it.out.attempted;
        }
    }
    println!(
        "digest {digest0:016x} (identical across {} iterations: {})",
        iters.len(),
        failed == 0
    );

    let untraced: Vec<&Iteration> = iters.iter().filter(|i| !i.traced).collect();
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        host::median(&untraced.iter().map(|i| f(i)).collect::<Vec<_>>())
    };
    let (rss_self, _) = host::rusage(false);
    let (rss_children, _) = host::rusage(true);
    let e2e: BTreeMap<&str, f64> = [
        ("wall_s", med(&|i| i.wall_s)),
        (
            "setup_s",
            host::median(
                &untraced
                    .iter()
                    .flat_map(|i| i.setup_s.clone())
                    .collect::<Vec<_>>(),
            ),
        ),
        ("peak_rss_mib", rss_self.max(rss_children)),
        ("job_s", med(&|i| i.out.job_s)),
        ("ops_per_s", med(&|i| i.out.ops / i.out.ops_time_s)),
    ]
    .into_iter()
    .collect();
    for (name, unit) in END_TO_END {
        println!("metric {name} = {} {unit}", e2e[name]);
    }

    let mut correct = failed == 0 && attempted > 0;
    let mut layer = BTreeMap::new();
    if args.trace {
        let spans = tr.spans();
        let traced: Vec<&Iteration> = iters.iter().filter(|i| i.traced).collect();
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for it in &traced {
            for (k, v) in &it.samples.0 {
                series.entry(k.clone()).or_default().push(*v);
            }
            let (selfs, root) = trace::layer_self_times(&spans, it.id, "e2ebench.iteration");
            let mut sum = 0.0;
            for l in LAYERS {
                let v = selfs.get(l).copied().unwrap_or(0.0);
                series.entry(format!("self_s.{l}")).or_default().push(v);
                if *l != "e2ebench" {
                    sum += v;
                }
            }
            series.entry("trace.wall_s".into()).or_default().push(root);
            series
                .entry("trace.layer_sum_s".into())
                .or_default()
                .push(sum);
            series
                .entry("trace.coverage".into())
                .or_default()
                .push(sum / root);
            let unknown: Vec<_> = selfs.keys().filter(|k| !LAYERS.contains(k)).collect();
            assert!(
                unknown.is_empty(),
                "spans charge unknown layers {unknown:?}"
            );
        }
        for (k, v) in &series {
            layer.insert(k.clone(), host::median(v));
        }
        let untraced_wall = e2e["wall_s"];
        layer.insert("trace.untraced_wall_s".into(), untraced_wall);
        layer.insert(
            "trace.overhead_s".into(),
            layer["trace.wall_s"] - untraced_wall,
        );
        layer.insert("trace.iterations".into(), traced.len() as f64);
        layer.insert(
            "host.ref_s".into(),
            host::median(&iters.iter().map(|i| i.ref_s).collect::<Vec<_>>()),
        );
        layer.insert("host.nproc".into(), host::nproc() as f64);
        layer.insert("bench.threads".into(), threads as f64);
        layer.insert("bench.procs".into(), procs as f64);
        let coverage = layer["trace.coverage"];
        let ok = (1.0 - SELF_TIME_TOLERANCE..=1.0 + 1e-9).contains(&coverage);
        println!(
            "trace: layer self times sum to {:.4} s of traced wall {:.4} s (coverage {coverage:.4}, \
             tolerance {SELF_TIME_TOLERANCE}: {}); tracing overhead {:+.4} s",
            layer["trace.layer_sum_s"],
            layer["trace.wall_s"],
            if ok { "ok" } else { "VIOLATED" },
            layer["trace.overhead_s"]
        );
        correct &= ok;
        let spans_path = args
            .work_dir
            .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&spans_path, trace::spans_json(&spans)).expect("write spans");
        println!("spans: {} written to {}", spans.len(), spans_path.display());
    }

    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in per_layer_metrics() {
            let v = layer.get(&name).copied().unwrap_or(0.0);
            println!("metric {name} = {v} {unit}");
            metrics.push((name, v, unit));
        }
        let extra: Vec<_> = layer
            .keys()
            .filter(|k| !per_layer_metrics().iter().any(|(n, _)| n == *k))
            .collect();
        assert!(extra.is_empty(), "unlisted per-layer metrics {extra:?}");
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name.to_string(), e2e[name], unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
