//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the run's epoch), its own id,
//! its parent's id (0 at the root) and a request id (0 when it does not
//! belong to one request). Spans are pushed into a process-wide list only
//! when tracing is on; with tracing off [`span`] is a plain call. At the end
//! of a traced run the list is written out and each name's self time —
//! duration minus the part of it covered by child spans — is derived.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turn recording on for the rest of the process.
pub fn enable() {
    tracer();
    ON.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Reserve a span id before the span closes, so children started inside it
/// can name it as their parent.
pub fn new_id() -> u64 {
    tracer().next_id.fetch_add(1, Ordering::Relaxed)
}

/// Record a finished span (no-op with tracing off).
pub fn record(span: Span) {
    if enabled() {
        tracer()
            .spans
            .lock()
            .expect("span list poisoned")
            .push(span);
    }
}

/// Record many finished spans at once (one lock for a generator thread's
/// whole buffer).
pub fn record_all(spans: Vec<Span>) {
    if enabled() && !spans.is_empty() {
        tracer()
            .spans
            .lock()
            .expect("span list poisoned")
            .extend(spans);
    }
}

/// Run `f` inside a span named `name` under `parent`; returns the result
/// and the span's duration in seconds (measured whether or not tracing is
/// on, so the caller can use it as its timer).
pub fn span<R>(name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
    let id = if enabled() { new_id() } else { 0 };
    let start = Instant::now();
    let start_ns = if enabled() { now_ns() } else { 0 };
    let out = f(id);
    let secs = start.elapsed().as_secs_f64();
    if enabled() {
        record(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            id,
            parent,
            req: 0,
        });
    }
    (out, secs)
}

/// A span opened with [`open`] and recorded when closed, for intervals that
/// do not fit one closure.
pub struct Open {
    name: &'static str,
    pub id: u64,
    parent: u64,
    start_ns: u64,
}

pub fn open(name: &'static str, parent: u64) -> Open {
    let on = enabled();
    Open {
        name,
        id: if on { new_id() } else { 0 },
        parent,
        start_ns: if on { now_ns() } else { 0 },
    }
}

impl Open {
    pub fn close(self) {
        if enabled() {
            record(Span {
                name: self.name,
                start_ns: self.start_ns,
                end_ns: now_ns(),
                id: self.id,
                parent: self.parent,
                req: 0,
            });
        }
    }
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    tracer().spans.lock().expect("span list poisoned").clone()
}

/// Take every recorded span.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span list poisoned"))
}

/// Self time per span name, seconds: each span's duration minus the union
/// of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing` / Perfetto), one
/// complete event per span; parent and request ids ride in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Cost of recording one span, seconds, measured by recording `n` empty
/// spans into a scratch list — the basis of `trace.overhead_pct`.
pub fn per_span_cost() -> f64 {
    let n = 100_000u64;
    let sink = Mutex::new(Vec::with_capacity(n as usize));
    let t = Instant::now();
    for i in 0..n {
        let start_ns = now_ns();
        let s = Span {
            name: "calibrate",
            start_ns,
            end_ns: now_ns(),
            id: i,
            parent: 0,
            req: 0,
        };
        sink.lock().expect("scratch list poisoned").push(s);
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(&sink);
    secs / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            name: if parent == 0 { "outer" } else { "inner" },
            start_ns: a,
            end_ns: b,
            id,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Outer 0..100 with overlapping children 10..30 and 20..50 (union
        // 40) plus 60..70: self = 100 - 50.
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 50),
            sp(4, 1, 60, 70),
        ];
        let t = self_times(&spans);
        assert!((t["outer"] - 50e-9).abs() < 1e-15);
        assert!((t["inner"] - 60e-9).abs() < 1e-15);
    }
}
