//! `serve-job`: the real `sim-serve` binary as a subprocess. `submit` of
//! 2T-MIX-A at quick scale, 100 trials x 8 targets, into a fresh store
//! with two worker processes of one compute thread each, 4-trial chunks
//! and the production-default lane count; then `result`, then `fsck`.

use crate::host::{fnv1a, rusage};
use crate::trace::Tracer;
use crate::{IterOut, Samples};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub const WORKLOAD: &str = "2T-MIX-A";
pub const TRIALS: u64 = 100;
pub const TARGETS: u64 = 8;
pub const WORKER_PROCS: u64 = 2;
const CHUNK: u64 = 4;

pub struct ServeJob {
    bin: PathBuf,
    work: PathBuf,
    store: PathBuf,
    stores: usize,
    seed: u64,
}

/// Run `sim-serve <args>` to completion; its stdout, or an error naming
/// the exit status and the tail of its stderr.
fn sim_serve(bin: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "sim-serve {} exited {}: {}",
            args[0],
            out.status,
            tail.join(" | ")
        ));
    }
    Ok(stdout)
}

impl ServeJob {
    pub fn new(bin: PathBuf, work: &Path, seed: u64) -> ServeJob {
        ServeJob {
            bin,
            work: work.to_path_buf(),
            store: PathBuf::new(),
            stores: 0,
            seed,
        }
    }

    /// A fresh, empty store: one `sim-serve status` on a new directory,
    /// which starts the binary and lays out the store. Every set-up gets a
    /// directory of its own and none is removed before the run ends, so
    /// no deletion's disk traffic lands inside a measurement.
    pub fn setup(&mut self, tr: &Tracer, samples: &mut Samples) {
        self.stores += 1;
        self.store = self.work.join(format!("store-{}", self.stores));
        let store = self.store.to_str().expect("utf-8 path");
        let (out, s) = tr.span("sim-serve.status", || {
            sim_serve(&self.bin, &["status", "--store", store])
        });
        let out = out.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(out.trim(), "no jobs", "a fresh store holds no jobs");
        samples.add("sim-serve.status_s", s);
    }

    pub fn iterate(&mut self, tr: &Tracer, samples: &mut Samples) -> IterOut {
        let mut out = IterOut::default();
        let total = TRIALS * TARGETS;
        out.attempted = total;
        let store = self.store.to_str().expect("utf-8 path").to_string();
        let (trials, seed, chunk) = (TRIALS.to_string(), self.seed.to_string(), CHUNK.to_string());
        let procs = WORKER_PROCS.to_string();
        let mut submit = vec![
            "submit",
            "--store",
            &store,
            "--workload",
            WORKLOAD,
            "--trials",
            &trials,
            "--seed",
            &seed,
            "--scale",
            "quick",
            "--worker-procs",
            &procs,
            "--workers",
            "1",
            "--chunk",
            &chunk,
        ];
        if !tr.is_on() {
            submit.push("--no-metrics");
        }
        let cpu0 = rusage(true).1;
        let t0 = Instant::now();
        let (submitted, submit_s) = tr.span("sim-serve.submit", || sim_serve(&self.bin, &submit));
        let cpu = rusage(true).1 - cpu0;
        let job = submitted.as_ref().ok().and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("job "))
                .map(|j| j.trim().to_string())
        });
        let Some(job) = job else {
            eprintln!("serve-job: submit failed: {submitted:?}");
            out.failed = total;
            return out;
        };
        let (result, result_s) = tr.span("sim-serve.result", || {
            sim_serve(&self.bin, &["result", "--store", &store, "--job", &job])
        });
        out.job_s = t0.elapsed().as_secs_f64();
        let (fsck, fsck_s) = tr.span("sim-store.fsck", || {
            sim_serve(&self.bin, &["fsck", "--store", &store])
        });

        // `result` returns every trial; `fsck` finds no errors.
        let result = result.unwrap_or_else(|e| format!("error: {e}"));
        let tallied: u64 = result
            .lines()
            .find_map(|l| l.strip_prefix("outcomes: "))
            .map(|l| {
                l.split(", ")
                    .filter_map(|p| p.split(' ').next()?.parse::<u64>().ok())
                    .sum()
            })
            .unwrap_or(0);
        out.failed = total.saturating_sub(tallied.min(total));
        if tallied != total {
            eprintln!("serve-job: result tallies {tallied} trials, expected {total}");
        }
        let fsck = fsck.unwrap_or_else(|e| format!("error: {e}"));
        if !fsck.trim_end().ends_with(", 0 errors") {
            eprintln!("serve-job: fsck: {}", fsck.trim());
            out.failed = total;
        }
        out.digest = fnv1a(out.digest, result.as_bytes());
        out.ops = total as f64;
        out.ops_time_s = out.job_s;

        let (objects, bytes) = object_totals(&self.store.join("objects"));
        samples.add("sim-serve.submit_s", submit_s);
        samples.add("sim-serve.result_s", result_s);
        samples.add("sim-store.fsck_s", fsck_s);
        samples.add("sim-serve.trials_per_s", total as f64 / out.job_s);
        samples.add("sim-serve.cpu_per_wall", cpu / submit_s);
        samples.add("sim-store.objects", objects as f64);
        samples.add("sim-store.bytes", bytes as f64);
        if tr.is_on() {
            snapshot_samples(&self.store.join("metrics").join("submit.json"), samples);
        }
        println!(
            "  job {}: submit {submit_s:.3} s, result {result_s:.3} s, fsck {fsck_s:.3} s, \
             {objects} objects, digest {:016x}",
            &job[..12.min(job.len())],
            out.digest
        );
        out
    }

    pub fn cleanup(&self) {
        for i in 1..=self.stores {
            let _ = std::fs::remove_dir_all(self.work.join(format!("store-{i}")));
        }
    }
}

/// Object count and total bytes under a store's `objects/` tree.
fn object_totals(dir: &Path) -> (u64, u64) {
    let (mut n, mut bytes) = (0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let meta = match entry.metadata() {
                Ok(m) => m,
                Err(_) => continue,
            };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                n += 1;
                bytes += meta.len();
            }
        }
    }
    (n, bytes)
}

/// Per-layer figures from the submit's own metrics snapshot. A metric the
/// snapshot lacks reads 0 and is reported on stderr.
fn snapshot_samples(path: &Path, samples: &mut Samples) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let metrics = match json::parse(&text) {
        Some(doc) => doc.get("metrics").cloned().unwrap_or(json::Value::Other),
        None => {
            eprintln!(
                "serve-job: no readable metrics snapshot at {}",
                path.display()
            );
            json::Value::Other
        }
    };
    let metric = |name: &str| {
        let m = metrics.get(name);
        if m.is_none() {
            eprintln!("serve-job: metrics snapshot lacks {name}");
        }
        m.cloned().unwrap_or(json::Value::Other)
    };
    let field = |m: &json::Value, f: &str| m.get(f).and_then(json::Value::num).unwrap_or(0.0);
    let publish = metric("store.chunk_publish_us");
    samples.add("sim-store.chunk_publish_us.p50", quantile(&publish, 0.50));
    samples.add("sim-store.chunk_publish_us.p95", quantile(&publish, 0.95));
    samples.add(
        "sim-store.fsync_us.sum",
        field(&metric("store.fsync_us"), "sum"),
    );
    samples.add(
        "sim-store.chunks_published",
        field(&metric("store.chunks_published"), "value"),
    );
    let chunk = metric("serve.worker.chunk_us");
    samples.add("sim-serve.worker.chunk_us.p50", quantile(&chunk, 0.50));
    samples.add("sim-serve.worker.chunk_us.p95", quantile(&chunk, 0.95));
    let job_us = field(&metric("serve.job_us"), "sum");
    let busy_us: f64 = (0..WORKER_PROCS)
        .map(|w| field(&metric(&format!("serve.worker{w}.busy_us")), "value"))
        .sum();
    let share = if job_us > 0.0 {
        busy_us / (WORKER_PROCS as f64 * job_us)
    } else {
        0.0
    };
    samples.add("sim-serve.worker_busy_share", share);
}

/// Conservative quantile of a snapshot histogram, as the registry computes
/// it: the upper bound of the bucket holding rank `ceil(q * count)`.
fn quantile(hist: &json::Value, q: f64) -> f64 {
    let Some(json::Value::Obj(buckets)) = hist.get("buckets") else {
        return 0.0;
    };
    let mut b: Vec<(f64, f64)> = buckets
        .iter()
        .filter_map(|(k, v)| Some((k.parse().ok()?, v.num()?)))
        .collect();
    b.sort_by(|x, y| x.0.total_cmp(&y.0));
    let n: f64 = b.iter().map(|x| x.1).sum();
    if n == 0.0 {
        return 0.0;
    }
    let rank = (q * n).ceil().clamp(1.0, n);
    let mut seen = 0.0;
    for (bound, count) in &b {
        seen += count;
        if seen >= rank {
            return *bound;
        }
    }
    b.last().map_or(0.0, |x| x.0)
}

/// Just enough JSON to read a metrics snapshot.
mod json {
    #[derive(Debug, Clone)]
    pub enum Value {
        /// `null`, a boolean or an array: nothing a snapshot reader needs.
        Other,
        Num(f64),
        Str(String),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Option<()> {
            self.ws();
            (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
        }

        fn value(&mut self) -> Option<Value> {
            self.ws();
            match *self.s.get(self.i)? {
                b'{' => {
                    self.i += 1;
                    let mut kv = Vec::new();
                    if self.eat(b'}').is_some() {
                        return Some(Value::Obj(kv));
                    }
                    loop {
                        self.ws();
                        let Value::Str(k) = self.string()? else {
                            return None;
                        };
                        self.eat(b':')?;
                        kv.push((k, self.value()?));
                        if self.eat(b',').is_none() {
                            self.eat(b'}')?;
                            return Some(Value::Obj(kv));
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    if self.eat(b']').is_some() {
                        return Some(Value::Other);
                    }
                    loop {
                        self.value()?;
                        if self.eat(b',').is_none() {
                            self.eat(b']')?;
                            return Some(Value::Other);
                        }
                    }
                }
                b'"' => self.string(),
                b't' => self.word("true"),
                b'f' => self.word("false"),
                b'n' => self.word("null"),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()?
                        .parse()
                        .ok()
                        .map(Value::Num)
                }
            }
        }

        fn word(&mut self, w: &str) -> Option<Value> {
            self.s[self.i..].starts_with(w.as_bytes()).then(|| {
                self.i += w.len();
                Value::Other
            })
        }

        /// A string without escapes (metric names never carry any).
        fn string(&mut self) -> Option<Value> {
            self.eat(b'"')?;
            let start = self.i;
            while *self.s.get(self.i)? != b'"' {
                if self.s[self.i] == b'\\' {
                    return None;
                }
                self.i += 1;
            }
            self.i += 1;
            Some(Value::Str(
                std::str::from_utf8(&self.s[start..self.i - 1])
                    .ok()?
                    .to_string(),
            ))
        }
    }
}
