//! Spans recorded from the benchmark's own code around each call into a
//! layer (a workspace crate's public function).
//!
//! Every call goes through [`Tracer::span`], which always returns the
//! call's duration (end-to-end metrics need some of them). When tracing is
//! on, the tracer also keeps one [`Span`] per call — name, start, end,
//! parent, and the id of the iteration it belongs to — in memory until the
//! run ends. A span's self time is its duration minus the time its child
//! spans cover; a layer's self time is the sum over its spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub iter: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    /// The layer a span name charges: the text before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct State {
    iter: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Span recorder, shareable with the simulator's worker threads (campaign
/// factories run inside library calls).
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Start iteration `iter`, recording its spans when `on`.
    pub fn begin_iteration(&self, iter: u32, on: bool) {
        self.on.store(on, Ordering::Relaxed);
        self.state.lock().unwrap().iter = iter;
    }

    /// Run `f` inside a span called `name`; returns its value and duration.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.is_on() {
            let t0 = Instant::now();
            let v = f();
            return (v, t0.elapsed().as_secs_f64());
        }
        let id = {
            let mut s = self.state.lock().unwrap();
            let id = s.spans.len() as u32;
            let span = Span {
                iter: s.iter,
                id,
                parent: s.open.last().copied(),
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
            };
            s.spans.push(span);
            s.open.push(id);
            id
        };
        let v = f();
        let mut s = self.state.lock().unwrap();
        let end = self.origin.elapsed().as_secs_f64();
        assert_eq!(s.open.pop(), Some(id), "spans must nest");
        let span = &mut s.spans[id as usize];
        span.end = end;
        let d = end - span.start;
        (v, d)
    }

    /// All recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().unwrap().spans.clone()
    }
}

/// Self time per layer over the spans of iteration `iter` under the root
/// span called `root`, plus that root's duration. The root's own self
/// time is charged to the root's layer (the benchmark's glue).
pub fn layer_self_times(
    spans: &[Span],
    iter: u32,
    root: &str,
) -> (BTreeMap<&'static str, f64>, f64) {
    let mine: Vec<&Span> = spans.iter().filter(|s| s.iter == iter).collect();
    let Some(root_span) = mine.iter().find(|s| s.name == root && s.parent.is_none()) else {
        return (BTreeMap::new(), 0.0);
    };
    let in_root = |s: &Span| {
        let mut p = Some(s.id);
        while let Some(id) = p {
            if id == root_span.id {
                return true;
            }
            p = spans[id as usize].parent;
        }
        false
    };
    let mut out = BTreeMap::new();
    for s in mine.iter().filter(|s| in_root(s)) {
        let children: f64 = mine
            .iter()
            .filter(|c| c.parent == Some(s.id))
            .map(|c| c.end - c.start)
            .sum();
        *out.entry(s.layer()).or_insert(0.0) += (s.end - s.start) - children;
    }
    (out, root_span.end - root_span.start)
}

/// The spans as JSON, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"iter\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}{}\n",
            s.iter,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start,
            s.end,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}
