//! The serve workloads: `serve_hot` and `serve_churn`, plus the router hop
//! measured in `serve_hot`'s traced run.
//!
//! Each run spawns the program in-process with `ServerConfig::default()`
//! (and, for the hop, `RouterConfig::default()` over two backends),
//! changing only bind addresses and backend lists. Set-up — spawn, then
//! warm-up (hot) or cache fill (churn) — is repeated [`SETUPS`] times, and
//! the median of the program's CPU seconds over it (the process's less the
//! warm-up clients') is `setup_s`; the timed window runs on the last
//! set-up. The schedule is the benchmark's own and is built once, before.
//!
//! The timed window is open loop: every request has an intended send time
//! from its phase's fixed rate, and its latency is stamped from that time,
//! so a stall charges every request queued behind it. The generator uses
//! `nproc` connections with one thread each; a thread encodes and sends
//! whatever is due and otherwise reads replies until the next send is due.
//!
//! The program's CPU over a phase is the process's CPU less the generator
//! threads' own and the main thread's. Each phase's replies are checked
//! against the oracle when it ends, from records the next phase reuses, so
//! the benchmark's own memory stays small beside the server's. Peak
//! memory is the resident high-water mark of the timed window, restarted
//! when the window opens, so set-up and the hot oracle's simulations
//! before it are not charged to it.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind as IoKind, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use iconv_api::hist::bucket_bounds;
use iconv_api::proto::StatsSnapshot;
use iconv_api::Work;
use iconv_serve::{
    spawn, spawn_router, Client, RouterConfig, RouterHandle, ServerConfig, ServerHandle,
};

use crate::host::{cpu_seconds, nproc, thread_cpu_seconds};
use crate::stats::{median, quantile_sorted};
use crate::trace::{self, Span};
use crate::traffic::{expected_hash, Mix, ReplyHash, Traffic};
use crate::{Cfg, Metric, Outcome};

/// Set-ups per run; `setup_s` is the median of their CPU seconds.
const SETUPS: usize = 5;
/// The fixed p99 latency limit a ladder rung must meet.
const LIMIT_MS: f64 = 20.0;
/// A rung stops sending once its oldest outstanding request is this old:
/// it has failed already, and a deeper backlog would only slow the drain.
const ABORT_AGE: Duration = Duration::from_millis(80);
/// Entries in flight per connection before the sender must read first.
const MAX_IN_FLIGHT: usize = 64;
/// A reply slower than this fails its request and ends the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Work items per warm-up batch request.
const WARM_CHUNK: usize = 64;
/// Completion records checked against the oracle at a time.
const CHECK_CHUNK: usize = 4096;
/// Traced runs record a request span for one schedule entry in this many.
const REQUEST_SPAN_EVERY: u64 = 16;
/// A generator whose p99 lateness exceeds this fell behind its schedule.
const LATE_FLAG_MS: f64 = 1.0;

/// Offered rate of the router-hop comparison, routed and direct. The router
/// forwards each client connection's requests lockstep, so this stays far
/// under the rate at which a slow stretch of the host saturates a
/// connection.
const HOP_RPS: f64 = 500.0;
/// Requests per side of the router-hop comparison.
const HOP_REQUESTS: usize = 1500;

/// Offered rates (requests per second) of one workload.
struct Plan {
    low: f64,
    high: f64,
    /// The fixed rate ladder `max_ok_rps` is read from, ascending.
    ladder: Vec<f64>,
    /// Ladder rung the search starts from.
    start: usize,
    /// Entries per unpaced burst.
    burst: u64,
}

/// The fixed rate ladder, requests per second: 1000 × 1.1^k rounded to
/// three significant digits, k = 0..=48 (1000 to about 97 000).
fn rate_ladder() -> Vec<f64> {
    (0..=48)
        .map(|k| {
            let r = 1000.0 * 1.1f64.powi(k);
            let unit = 10f64.powi(r.log10().floor() as i32 - 2);
            (r / unit).round() * unit
        })
        .collect()
}

/// Offered rates (low, high), ladder start rung and burst size of each
/// workload. `low` sits well under the knee and `high` near a third of it
/// on a 2-vCPU host.
fn plan(kind: Mix) -> Plan {
    let (low, high, start, burst) = match kind {
        Mix::Hot => (2000.0, 14000.0, 37, 20000),
        Mix::Churn => (2000.0, 6000.0, 28, 20000),
    };
    Plan {
        low,
        high,
        ladder: rate_ladder(),
        start,
        burst,
    }
}

/// The program under test: one server, or a router over two backends.
enum Fleet {
    Single(ServerHandle),
    Routed {
        router: RouterHandle,
        backends: Vec<ServerHandle>,
    },
}

fn server() -> Result<ServerHandle, String> {
    spawn(ServerConfig::default()).map_err(|e| format!("spawn served: {e}"))
}

impl Fleet {
    fn single() -> Result<Fleet, String> {
        Ok(Fleet::Single(server()?))
    }

    fn routed() -> Result<Fleet, String> {
        let backends = vec![server()?, server()?];
        let router = spawn_router(RouterConfig {
            backends: backends
                .iter()
                .map(|b| b.local_addr().to_string())
                .collect(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("spawn routed: {e}"))?;
        Ok(Fleet::Routed { router, backends })
    }

    fn addr(&self) -> String {
        match self {
            Fleet::Single(s) => s.local_addr().to_string(),
            Fleet::Routed { router, .. } => router.local_addr().to_string(),
        }
    }

    fn shutdown(self) {
        match self {
            Fleet::Single(s) => {
                s.shutdown();
            }
            Fleet::Routed { router, backends } => {
                router.shutdown();
                for b in backends {
                    b.shutdown();
                }
            }
        }
    }
}

/// How the schedule is split: the low and high phases and the bursts
/// each take their own slice; ladder rungs take consecutive slices of a
/// ring that they wrap around. The ring holds the top rung's entries and
/// at least four caches' worth, so a churn key comes round again only
/// after the cache has turned over.
struct Layout {
    low: Range<u64>,
    high: Range<u64>,
    burst: Range<u64>,
    ring: Range<u64>,
}

impl Layout {
    fn new(p: &Plan, secs: f64) -> Self {
        let low = (p.low * LOW_SHARE * secs) as u64;
        let high = low + (p.high * HIGH_SHARE * secs) as u64;
        let burst = high + BURSTS as u64 * p.burst;
        let top = *p.ladder.last().expect("ladder is non-empty");
        let ring =
            ((top * rung_secs(secs)) as usize).max(4 * ServerConfig::default().cache_capacity);
        Layout {
            low: 0..low,
            high: low..high,
            burst: high..burst,
            ring: burst..burst + ring as u64,
        }
    }

    fn total(&self) -> usize {
        self.ring.end as usize
    }

    /// Entries in the largest phase.
    fn largest(&self) -> usize {
        let len = |r: &Range<u64>| (r.end - r.start) as usize;
        len(&self.high).max(len(&self.ring))
    }
}

/// The schedule entries one phase sends: `len` consecutive entries of
/// `ring` from `from`, wrapping round.
#[derive(Clone)]
struct Slice {
    ring: Range<u64>,
    from: u64,
    len: usize,
}

impl Slice {
    fn of(r: Range<u64>) -> Self {
        Slice {
            from: r.start,
            len: (r.end - r.start) as usize,
            ring: r,
        }
    }

    fn at(&self, k: usize) -> u64 {
        let n = self.ring.end - self.ring.start;
        self.ring.start + (self.from - self.ring.start + k as u64) % n
    }
}

/// Shares of the window the low and high phases take. The high phase,
/// which the gated `cpu_ms` is read from, takes the most, so it averages
/// over as much of the host's minute-to-minute swings as a run holds.
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.45;
/// Unpaced bursts per window (`burst_wall_s`, `burst_cpu_ms`).
const BURSTS: usize = 3;

fn rung_secs(secs: f64) -> f64 {
    (0.025 * secs).max(0.5)
}

/// Send `works` as batch requests over `nproc` connections and require an
/// answer without error for each. Returns the CPU seconds the client
/// threads used.
fn warm(addr: &str, works: &[Work]) -> Result<f64, String> {
    let conns = nproc();
    let chunks: Vec<&[Work]> = works.chunks(WARM_CHUNK).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let chunks = &chunks;
                s.spawn(move || -> Result<f64, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("warm connect: {e}"))?;
                    for chunk in chunks.iter().skip(c).step_by(conns) {
                        let got = client
                            .batch(chunk, None)
                            .map_err(|e| format!("warm batch: {e}"))?;
                        if let Some(Err((kind, detail))) = got.iter().find(|r| r.is_err()) {
                            return Err(format!("warm item failed: {kind:?} {detail}"));
                        }
                    }
                    Ok(thread_cpu_seconds())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm thread panicked"))
            .sum()
    })
}

/// One set-up: spawn, then warm with `works` (hot: every distinct work the
/// schedule touches; churn: enough to fill the cache). Returns the server
/// and the CPU seconds the warm-up's client threads used.
fn setup(works: &[Work], parent: u64) -> Result<(Fleet, f64), String> {
    let (fleet, _) = trace::span("serve.spawn", parent, |_| Fleet::single());
    let fleet = fleet?;
    let (client_cpu, _) = trace::span("serve.warm", parent, |_| warm(&fleet.addr(), works));
    Ok((fleet, client_cpu?))
}

/// A completed request as the generator saw it: its position in the
/// phase's slice, its latency from the intended send time (saturating at
/// 4.29 s) and the hash of its reply.
#[derive(Clone, Copy)]
struct Done {
    k: u32,
    latency_ns: u32,
    hash: u64,
}

/// One connection's records of a phase, 24 bytes a request. They live as
/// long as the connection and are cleared for each phase, so a phase makes
/// no large allocation of the benchmark's own.
#[derive(Default)]
struct Records {
    done: Vec<Done>,
    /// Positions whose reply was a typed error.
    errors: Vec<u32>,
    /// Lateness behind the schedule and time blocked in the send, ns
    /// (saturating).
    late_ns: Vec<u32>,
    wait_ns: Vec<u32>,
}

/// What one phase's generator threads did, besides their records.
#[derive(Default)]
struct PhaseRun {
    sent: usize,
    aborted: bool,
    wall_s: f64,
    /// CPU seconds the generator threads used.
    gen_cpu_s: f64,
    spans: Vec<Span>,
}

struct Pending {
    k: usize,
    entry: u64,
    intended_ns: u64,
    sent_ns: u64,
    lines_left: usize,
    hash: ReplyHash,
    error: bool,
}

/// Send the entries of `slice` over `streams`, paced at `rate` (or all due
/// at once when `None`); the `k`th rides stream `k % streams.len()` and is
/// recorded in the matching `records`. `abort` enables the rung abort rule.
fn run_phase(
    streams: &[TcpStream],
    records: &mut [Records],
    traffic: &Traffic,
    slice: &Slice,
    rate: Option<f64>,
    abort: bool,
    parent: u64,
) -> Result<PhaseRun, String> {
    let conns = streams.len();
    let stop = AtomicBool::new(false);
    let epoch = Instant::now() + Duration::from_millis(2);
    let results: Vec<Result<PhaseRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(records.iter_mut())
            .enumerate()
            .map(|(c, (stream, rec))| {
                let stop = &stop;
                s.spawn(move || {
                    let gen = Gen {
                        traffic,
                        slice,
                        first: c,
                        step: conns,
                        rate,
                        epoch,
                        stop,
                        abort,
                        parent,
                    };
                    let mut run = conn_loop(stream, rec, &gen);
                    if let Ok(r) = &mut run {
                        r.gen_cpu_s = thread_cpu_seconds();
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = PhaseRun::default();
    for r in results {
        let r = r?;
        out.sent += r.sent;
        out.spans.extend(r.spans);
        out.wall_s = out.wall_s.max(r.wall_s);
        out.gen_cpu_s += r.gen_cpu_s;
    }
    out.aborted = stop.load(Ordering::SeqCst);
    trace::record_all(std::mem::take(&mut out.spans));
    Ok(out)
}

/// One generator connection's share of a phase: entries `first`,
/// `first + step`, … of the slice.
struct Gen<'a> {
    traffic: &'a Traffic,
    slice: &'a Slice,
    first: usize,
    step: usize,
    rate: Option<f64>,
    epoch: Instant,
    stop: &'a AtomicBool,
    abort: bool,
    parent: u64,
}

fn conn_loop(stream: &TcpStream, rec: &mut Records, g: &Gen) -> Result<PhaseRun, String> {
    let mut out = PhaseRun::default();
    rec.done.clear();
    rec.errors.clear();
    rec.late_ns.clear();
    rec.wait_ns.clear();
    if g.first >= g.slice.len {
        return Ok(out);
    }
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut writer = stream;
    let traced = trace::enabled();
    let now_ns = || Instant::now().saturating_duration_since(g.epoch).as_nanos() as u64;
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut k = g.first;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut wire: Vec<u8> = Vec::with_capacity(4096);
    let mut timeout_us = 0u64;
    loop {
        let now = now_ns();
        let mut wait = None;
        if k < g.slice.len && !g.stop.load(Ordering::Relaxed) {
            let due = g.rate.map_or(0, |r| (k as f64 * 1e9 / r) as u64);
            if let (true, Some(front)) = (g.abort, pending.front()) {
                if now.saturating_sub(front.intended_ns) > ABORT_AGE.as_nanos() as u64 {
                    g.stop.store(true, Ordering::Relaxed);
                    continue;
                }
            }
            if now >= due && pending.len() < MAX_IN_FLIGHT {
                let entry = g.slice.at(k);
                let e = g.traffic.entry(entry);
                wire.clear();
                g.traffic.encode(&e, &mut wire);
                let t = Instant::now();
                writer
                    .write_all(&wire)
                    .map_err(|err| format!("send: {err}"))?;
                rec.wait_ns.push(sat32(t.elapsed().as_nanos() as u64));
                rec.late_ns.push(sat32(now - due));
                out.sent += 1;
                pending.push_back(Pending {
                    k,
                    entry,
                    intended_ns: due,
                    sent_ns: now,
                    lines_left: e.reply_lines(),
                    hash: ReplyHash::default(),
                    error: false,
                });
                k += g.step;
                continue;
            }
            if now < due {
                wait = Some(Duration::from_nanos(due - now));
            }
        } else if pending.is_empty() {
            break;
        }
        let Some(front) = pending.front() else {
            std::thread::sleep(wait.unwrap_or(Duration::from_micros(50)));
            continue;
        };
        if Duration::from_nanos(now.saturating_sub(front.sent_ns)) > REPLY_TIMEOUT {
            return Err(format!("no reply within {REPLY_TIMEOUT:?}"));
        }
        // Read until the next send is due. The timeout is rounded down to a
        // power of two of microseconds and only re-set when that changes,
        // which at a steady rate is rarely: one syscall saved per request.
        let want = wait
            .unwrap_or(Duration::from_millis(100))
            .clamp(Duration::from_micros(16), Duration::from_millis(100));
        let us = 1u64 << (63 - (want.as_micros() as u64).leading_zeros());
        if us != timeout_us {
            timeout_us = us;
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_micros(us)))
                .map_err(|e| format!("set timeout: {e}"))?;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) if buf.last() == Some(&b'\n') => {
                let done_ns = now_ns();
                let p = pending
                    .front_mut()
                    .expect("a reply implies a pending request");
                let line = &buf[..buf.len() - 1];
                p.hash.line(line);
                p.error |= contains(line, b"\"error\"");
                p.lines_left -= 1;
                if p.lines_left == 0 {
                    let p = pending.pop_front().expect("front exists");
                    let latency_ns = done_ns.saturating_sub(p.intended_ns);
                    rec.done.push(Done {
                        k: p.k as u32,
                        latency_ns: sat32(latency_ns),
                        hash: p.hash.finish(),
                    });
                    if p.error {
                        rec.errors.push(p.k as u32);
                    }
                    if traced && p.entry.is_multiple_of(REQUEST_SPAN_EVERY) {
                        let start = trace::now_ns();
                        out.spans.push(Span {
                            name: "serve.request",
                            start_ns: start.saturating_sub(latency_ns),
                            end_ns: start,
                            id: trace::new_id(),
                            parent: g.parent,
                            req: p.entry + 1,
                        });
                    }
                }
                buf.clear();
            }
            Ok(_) => {} // partial line at EOF of this read; keep accumulating
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {}
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    out.wall_s = g.epoch.elapsed().as_secs_f64();
    Ok(out)
}

fn sat32(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Percentile `q` of `values`, sorted in the reusable `scratch`.
fn pct(values: impl Iterator<Item = f64>, q: f64, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend(values);
    scratch.sort_by(f64::total_cmp);
    quantile_sorted(scratch, q)
}

/// Percentile `q` of a paced phase's latencies (in send order), read as the
/// median over its quarter-second slices of intended send time of each
/// slice's percentile, so one stall moves one slice rather than the whole
/// figure.
fn sliced_pct(lat_ms: &[f64], rate: Option<f64>, q: f64, scratch: &mut Vec<f64>) -> f64 {
    let per_slice = rate
        .map_or(lat_ms.len(), |r| (r / 4.0).ceil() as usize)
        .max(1);
    let ps: Vec<f64> = lat_ms
        .chunks(per_slice)
        .map(|c| pct(c.iter().copied(), q, scratch))
        .collect();
    median(&ps)
}

/// Connections to one address, open for the whole window: the
/// generator's `nproc` streams and one `stats` client. Keeping them open
/// keeps the server's per-connection threads, and their allocations, the
/// same from phase to phase.
struct Target {
    streams: Vec<TcpStream>,
    records: Vec<Records>,
    /// Reusable buffers: latencies in send order, and a sort scratch.
    lat: Vec<f64>,
    scratch: Vec<f64>,
    stats: Client,
}

impl Target {
    /// Connect, with room for phases of up to `entries` entries.
    fn open(addr: &str, entries: usize) -> Result<Self, String> {
        let streams = (0..nproc())
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let stats = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mine = entries.div_ceil(streams.len());
        let records = (0..streams.len())
            .map(|_| Records {
                done: Vec::with_capacity(mine),
                errors: Vec::new(),
                late_ns: Vec::with_capacity(mine),
                wait_ns: Vec::with_capacity(mine),
            })
            .collect();
        Ok(Target {
            streams,
            records,
            lat: Vec::with_capacity(entries),
            scratch: Vec::with_capacity(entries),
            stats,
        })
    }

    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.stats.stats().map_err(|e| format!("stats: {e}"))
    }
}

/// Poll `stats` until the phase's ledgers balance: `requests` grew by the
/// items answered, `hits + misses == requests` and
/// `tunes == tune_searches + tune_cached` over the delta. Counters are
/// bumped after replies are written, so a short poll absorbs that lag; a
/// ledger still off after it is a failure.
fn settle(
    target: &mut Target,
    before: &StatsSnapshot,
    items: u64,
) -> Result<(StatsSnapshot, bool), String> {
    let mut last = None;
    for _ in 0..50 {
        let after = target.stats()?;
        let d = |f: fn(&StatsSnapshot) -> u64| f(&after).wrapping_sub(f(before));
        let ok = d(|s| s.requests) == items
            && d(|s| s.hits) + d(|s| s.misses) == d(|s| s.requests)
            && d(|s| s.tunes) == d(|s| s.tune_searches) + d(|s| s.tune_cached);
        if ok {
            return Ok((after, true));
        }
        last = Some(after);
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok((last.expect("polled at least once"), false))
}

/// The expected bodies of works, by id, from `iconv_serve::engine::evaluate`.
/// Hot evaluates every warmed work before the window and keeps them (its
/// population is small and holds the costly GPU channel-first and tune
/// works); churn evaluates a chunk's works as it checks them and drops
/// them after. They are evaluated on the calling thread: simulations on
/// fresh threads leave their transient allocations in fresh malloc arenas.
struct Oracle {
    bodies: HashMap<u32, String>,
    keep: bool,
}

impl Oracle {
    /// Evaluate the bodies of `ids`.
    fn add(&mut self, traffic: &Traffic, ids: &[u32]) {
        for &id in ids {
            self.bodies
                .insert(id, iconv_serve::engine::evaluate(&traffic.work(id)));
        }
    }

    /// Failed requests among `done`: replies whose hash differs from the
    /// reply built from the expected bodies (a typed error always does).
    /// Checked in
    /// chunks, so churn holds at most a chunk's bodies at once.
    fn check(&mut self, traffic: &Traffic, slice: &Slice, done: &[Done]) -> u64 {
        done.chunks(CHECK_CHUNK)
            .map(|chunk| self.check_chunk(traffic, slice, chunk))
            .sum()
    }

    fn check_chunk(&mut self, traffic: &Traffic, slice: &Slice, done: &[Done]) -> u64 {
        let mut want = Vec::new();
        for d in done {
            for &id in traffic.entry(slice.at(d.k as usize)).items() {
                if !self.bodies.contains_key(&id) {
                    want.push(id);
                }
            }
        }
        want.sort_unstable();
        want.dedup();
        self.add(traffic, &want);
        let bodies = &self.bodies;
        let bad = done
            .iter()
            .filter(|d| {
                let e = traffic.entry(slice.at(d.k as usize));
                d.hash != expected_hash(&e, |id| bodies[&id].as_str())
            })
            .count();
        if !self.keep {
            self.bodies = HashMap::new();
        }
        bad as u64
    }
}

/// One checked phase: what it measured, the counter snapshots around it
/// and how many of its requests failed, read from its records before the
/// next phase reuses them.
struct Measured {
    sent: usize,
    answered: usize,
    failed: u64,
    aborted: bool,
    /// Whether any reply was a typed error.
    errors: bool,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// Median latency of the last quarter of the phase (by intended send
    /// time), ms: a growing backlog shows here.
    tail_p50_ms: f64,
    wall_s: f64,
    /// The program's CPU seconds over the phase: the process's less the
    /// generator threads' and the main thread's.
    cpu_s: f64,
    /// p99 of the generator's lateness behind the schedule, and of the
    /// time it spent blocked in a send, ms.
    late_p99_ms: f64,
    wait_p99_ms: f64,
    before: StatsSnapshot,
    after: StatsSnapshot,
    ledger_ok: bool,
    /// Seconds from the first `stats` call to the settled ledger, the
    /// oracle check excluded.
    span_s: f64,
}

impl Measured {
    /// Whether a ladder rung met the limit: every request sent and answered
    /// without error, p99 within the limit, and no growing backlog — the
    /// last quarter's median latency within a quarter of the limit.
    fn rung_ok(&self, planned: usize) -> bool {
        !self.aborted
            && !self.errors
            && self.sent >= planned
            && self.answered >= 4
            && self.p99_ms <= LIMIT_MS
            && self.tail_p50_ms <= LIMIT_MS / 4.0
    }

    /// Program CPU per answered request, ms.
    fn cpu_ms(&self) -> f64 {
        self.cpu_s * 1e3 / self.answered.max(1) as f64
    }
}

/// The shared state of a run's phases.
struct Bench<'a> {
    traffic: &'a Traffic,
    oracle: Oracle,
}

impl Bench<'_> {
    fn measured(
        &mut self,
        target: &mut Target,
        slice: Slice,
        rate: Option<f64>,
        abort: bool,
        name: &'static str,
        parent: u64,
    ) -> Result<Measured, String> {
        let t0 = Instant::now();
        let before = target.stats()?;
        let (cpu0, main0) = (cpu_seconds(), thread_cpu_seconds());
        let (run, _) = trace::span(name, parent, |id| {
            run_phase(
                &target.streams,
                &mut target.records,
                self.traffic,
                &slice,
                rate,
                abort,
                id,
            )
        });
        let cpu_s = cpu_seconds() - cpu0 - (thread_cpu_seconds() - main0);
        let run = run?;
        let items_at = |k: u32| self.traffic.entry(slice.at(k as usize)).items().len() as u64;
        let recs = &target.records;
        let items: u64 = recs
            .iter()
            .flat_map(|r| &r.done)
            .map(|d| items_at(d.k))
            .sum::<u64>()
            - recs
                .iter()
                .flat_map(|r| &r.errors)
                .map(|&k| items_at(k))
                .sum::<u64>();
        let answered = recs.iter().map(|r| r.done.len()).sum::<usize>();
        let errors = recs.iter().any(|r| !r.errors.is_empty());
        let (after, ledger_ok) = settle(target, &before, items)?;
        let span_s = t0.elapsed().as_secs_f64();

        let mut failed = (run.sent - answered) as u64;
        for r in &target.records {
            failed += self.oracle.check(self.traffic, &slice, &r.done);
        }
        // Latencies in send order.
        let Target {
            records,
            lat,
            scratch,
            ..
        } = target;
        lat.clear();
        lat.resize(slice.len, f64::NAN);
        for d in records.iter().flat_map(|r| &r.done) {
            lat[d.k as usize] = d.latency_ns as f64 / 1e6;
        }
        lat.retain(|x| !x.is_nan());
        let ns_p99 = |f: fn(&Records) -> &Vec<u32>, scratch: &mut Vec<f64>| {
            let all = records.iter().flat_map(f).map(|&x| x as f64 / 1e6);
            pct(all, 0.99, scratch)
        };
        Ok(Measured {
            sent: run.sent,
            answered,
            failed,
            aborted: run.aborted,
            errors,
            p50_ms: pct(lat.iter().copied(), 0.5, scratch),
            p90_ms: sliced_pct(lat, rate, 0.9, scratch),
            p99_ms: pct(lat.iter().copied(), 0.99, scratch),
            tail_p50_ms: pct(
                lat[lat.len() - lat.len() / 4..].iter().copied(),
                0.5,
                scratch,
            ),
            wall_s: run.wall_s,
            cpu_s: cpu_s - run.gen_cpu_s,
            late_p99_ms: ns_p99(|r| &r.late_ns, scratch),
            wait_p99_ms: ns_p99(|r| &r.wait_ns, scratch),
            before,
            after,
            ledger_ok,
            span_s,
        })
    }

    /// The router hop: the same requests at [`HOP_RPS`] through a router
    /// over two backends warmed with `warmed`, and straight to the warmed
    /// single server `direct`.
    fn router_hop(
        &mut self,
        slice: Slice,
        warmed: &[u32],
        direct: &mut Target,
        parent: u64,
    ) -> Result<Hop, String> {
        let fleet = Fleet::routed()?;
        let addr = fleet.addr();
        let mut run = || -> Result<(Measured, Measured), String> {
            let works: Vec<Work> = warmed.iter().map(|&id| self.traffic.work(id)).collect();
            warm(&addr, &works)?;
            let mut routed = Target::open(&addr, HOP_REQUESTS)?;
            let routed = self.measured(
                &mut routed,
                slice.clone(),
                Some(HOP_RPS),
                false,
                "serve.hop.routed",
                parent,
            )?;
            let direct = self.measured(
                direct,
                slice.clone(),
                Some(HOP_RPS),
                false,
                "serve.hop.direct",
                parent,
            )?;
            Ok((routed, direct))
        };
        let result = run();
        let failovers = match &fleet {
            Fleet::Routed { router, .. } => router.stats().failovers,
            Fleet::Single(_) => 0,
        };
        fleet.shutdown();
        let (routed, direct) = result?;
        Ok(Hop {
            routed,
            direct,
            failovers,
        })
    }
}

/// Quantile of the service-time histogram delta between two snapshots, µs.
fn service_quantile_us(before: &StatsSnapshot, after: &StatsSnapshot, q: f64) -> f64 {
    let mut counts = std::collections::BTreeMap::new();
    for (i, c) in after.service_hist.nonzero_buckets() {
        *counts.entry(i).or_insert(0i64) += c as i64;
    }
    for (i, c) in before.service_hist.nonzero_buckets() {
        *counts.entry(i).or_insert(0i64) -= c as i64;
    }
    let total: i64 = counts.values().sum();
    if total <= 0 {
        return 0.0;
    }
    let target = ((q * total as f64).ceil() as i64).clamp(1, total);
    let mut cum = 0;
    for (&i, &c) in &counts {
        cum += c;
        if cum >= target {
            return bucket_bounds(i).1 as f64;
        }
    }
    0.0
}

/// The router hop: the same requests routed and direct.
struct Hop {
    routed: Measured,
    direct: Measured,
    failovers: u64,
}

/// Run one serve workload.
pub fn run(kind: Mix, cfg: &Cfg) -> Outcome {
    match run_inner(kind, cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            Outcome::broken(e)
        }
    }
}

fn run_inner(kind: Mix, cfg: &Cfg) -> Result<Outcome, String> {
    let p = plan(kind);
    let layout = Layout::new(&p, cfg.seconds);

    // The schedule and what set-up warms with, once: they are the
    // benchmark's own work, not the program's set-up.
    let (traffic, _) = trace::span("serve.schedule", 0, |_| Traffic::new(kind, cfg.seed));
    let warmed = match kind {
        Mix::Hot => traffic.touched(layout.total()),
        Mix::Churn => Vec::new(),
    };
    let works: Vec<Work> = match kind {
        Mix::Hot => warmed.iter().map(|&id| traffic.work(id)).collect(),
        Mix::Churn => traffic.fill(ServerConfig::default().cache_capacity),
    };

    // Set-up, several times; the last one is kept for the timed window. Its
    // cost is the process's CPU less the warm-up clients'.
    let mut setup_cpu = Vec::new();
    let mut setup_wall = Vec::new();
    let mut setup_rss = Vec::new();
    let mut kept: Option<Fleet> = None;
    for _ in 0..SETUPS {
        if let Some(f) = kept.take() {
            f.shutdown();
        }
        crate::host::restart_peak_rss();
        let cpu0 = cpu_seconds();
        let (got, secs) = trace::span("serve.setup", 0, |id| setup(&works, id));
        let (fleet, client_cpu) = got?;
        kept = Some(fleet);
        setup_cpu.push(cpu_seconds() - cpu0 - client_cpu);
        setup_wall.push(secs);
        setup_rss.push(crate::host::peak_rss_mb());
    }
    drop(works);
    let fleet = kept.expect("at least one set-up");
    eprintln!(
        "[{kind:?}: set-up {:.3} CPU s, {:.3} s wall, median of {SETUPS}; {} entries]",
        median(&setup_cpu),
        median(&setup_wall),
        layout.total()
    );

    // Timed window. Time spent checking replies between phases is not
    // charged to the ladder's share of it.
    let mut bench = Bench {
        traffic: &traffic,
        oracle: Oracle {
            bodies: HashMap::new(),
            keep: kind == Mix::Hot,
        },
    };
    if kind == Mix::Hot {
        bench.oracle.add(&traffic, &warmed);
    }
    let mut target = Target::open(&fleet.addr(), layout.largest())?;
    crate::host::restart_peak_rss();
    let window_span = trace::open("serve.window", 0);
    let ws = window_span.id;
    let low = bench.measured(
        &mut target,
        Slice::of(layout.low.clone()),
        Some(p.low),
        false,
        "serve.low",
        ws,
    )?;
    let high = bench.measured(
        &mut target,
        Slice::of(layout.high.clone()),
        Some(p.high),
        false,
        "serve.high",
        ws,
    )?;
    let mut bursts = Vec::new();
    for b in 0..BURSTS as u64 {
        let start = layout.burst.start + b * p.burst;
        let m = bench.measured(
            &mut target,
            Slice::of(start..start + p.burst),
            None,
            false,
            "serve.burst",
            ws,
        )?;
        bursts.push(m);
    }
    let spent: f64 = [&low, &high]
        .into_iter()
        .chain(&bursts)
        .map(|m| m.span_s)
        .sum();
    let (rungs, best) = search_ladder(
        &mut bench,
        &mut target,
        &p,
        &layout,
        (cfg.seconds, cfg.seconds - spent),
        ws,
    )?;
    window_span.close();
    let peak_rss = crate::host::peak_rss_mb();

    // Traced hot runs only: the router hop, after the window.
    let hop = if trace::enabled() && kind == Mix::Hot {
        let slice = Slice::of(layout.low.start..layout.low.start + HOP_REQUESTS as u64);
        let (h, _) = trace::span("serve.router", 0, |id| {
            bench.router_hop(slice, &warmed, &mut target, id)
        });
        Some(h?)
    } else {
        None
    };
    drop(target);
    fleet.shutdown();

    let phases: Vec<&Measured> = [&low, &high]
        .into_iter()
        .chain(bursts.iter())
        .chain(rungs.iter().map(|(m, _)| m))
        .chain(hop.iter().flat_map(|h| [&h.routed, &h.direct]))
        .collect();
    let attempted: u64 = phases.iter().map(|m| m.sent as u64).sum();
    let failed: u64 = phases.iter().map(|m| m.failed).sum();
    let ledgers_ok = phases.iter().all(|m| m.ledger_ok);
    if !ledgers_ok {
        eprintln!("perfbench: a stats ledger did not balance over a timed phase");
    }

    let late_p99 = low.late_p99_ms.max(high.late_p99_ms);
    let behind = late_p99 > LATE_FLAG_MS;
    if behind {
        eprintln!("perfbench: generator fell behind its schedule (p99 lateness {late_p99:.3} ms)");
    }
    // Counter deltas over the timed window: from before `low` to after the
    // last rung (or burst, if no rung ran).
    let last = rungs.last().map_or(&bursts[bursts.len() - 1], |(m, _)| m);
    let d = |f: fn(&StatsSnapshot) -> u64| f(&last.after).saturating_sub(f(&low.before));

    let mut o = Outcome::new(attempted, failed, ledgers_ok);
    o.flag("generator_behind", behind);
    o.note("limit_ms", LIMIT_MS);
    o.note("rate_low", p.low);
    o.note("rate_high", p.high);
    for (m, rate) in &rungs {
        o.rung(*rate, m.p99_ms, m.rung_ok(m.sent));
    }
    let walls: Vec<f64> = bursts.iter().map(|b| b.wall_s).collect();
    let burst_cpu: Vec<f64> = bursts.iter().map(Measured::cpu_ms).collect();
    o.push(Metric::with_samples("setup_s", "s", &setup_cpu));
    o.push(Metric::new("peak_rss_mb", "MiB", peak_rss));
    // Gated: the program's CPU per request at the high rate, read from some
    // 10⁵ requests at a steady pace.
    o.push(Metric::counted(
        "cpu_ms",
        "ms",
        high.cpu_ms(),
        high.answered,
    ));
    // Recorded in the history, not gated: latency, the bursts and the knee
    // follow the host's load, and between two sets of ten seeds they moved
    // by more than any bound can hold (README).
    o.push(Metric::counted(
        "p50_ms.high",
        "ms",
        high.p50_ms,
        high.answered,
    ));
    o.push(Metric::with_samples("setup_wall_s", "s", &setup_wall));
    o.push(Metric::with_samples("peak_rss_mb.setup", "MiB", &setup_rss));
    o.push(Metric::counted(
        "p90_ms.high",
        "ms",
        high.p90_ms,
        high.answered,
    ));
    o.push(Metric::counted(
        "p99_ms.high",
        "ms",
        high.p99_ms,
        high.answered,
    ));
    let n = low.answered;
    o.push(Metric::counted("p50_ms.low", "ms", low.p50_ms, n));
    o.push(Metric::counted("p90_ms.low", "ms", low.p90_ms, n));
    o.push(Metric::counted("p99_ms.low", "ms", low.p99_ms, n));
    o.push(Metric::counted("cpu_ms.low", "ms", low.cpu_ms(), n));
    o.push(Metric::with_samples("burst_wall_s", "s", &walls));
    o.push(Metric::with_samples("burst_cpu_ms", "ms", &burst_cpu));
    o.push(Metric::new("max_ok_rps", "1/s", best));

    // Per-layer numbers from the same window.
    let requests = d(|s| s.requests).max(1);
    let service_p99_high = service_quantile_us(&high.before, &high.after, 0.99);
    o.layer("cache.hit_ratio", d(|s| s.hits) as f64 / requests as f64);
    o.layer("cache.evictions", d(|s| s.evictions) as f64);
    o.layer(
        "server.service_p50_us",
        service_quantile_us(&high.before, &high.after, 0.5),
    );
    o.layer("server.service_p99_us", service_p99_high);
    o.layer("server.gap_p99_ms", high.p99_ms - service_p99_high / 1e3);
    o.layer("server.busy", d(|s| s.busy_rejections) as f64);
    o.layer("server.tune_searches", d(|s| s.tune_searches) as f64);
    if let Some(h) = &hop {
        let (r, d) = (&h.routed, &h.direct);
        o.layer("router.hop_p50_ms", r.p50_ms - d.p50_ms);
        o.layer("router.hop_p99_ms", r.p99_ms - d.p99_ms);
        o.layer("router.failovers", h.failovers as f64);
    }
    o.layer("gen.late_p99_ms", late_p99);
    o.layer("client.wait_p99_ms", low.wait_p99_ms.max(high.wait_p99_ms));
    Ok(o)
}

/// Trials that must fail before a rung counts as over the limit.
const CONFIRM: u32 = 2;

/// Search the fixed ladder upward from the plan's start rung while rungs
/// pass (downward while they fail), with rungs sized for a `secs` window,
/// within `budget` seconds of measuring.
/// Returns every rung run with its rate, and the achieved rate of the
/// highest passing rung (the lowest rung's achieved rate halved if none
/// passed, so the metric stays positive and visibly bad).
fn search_ladder(
    bench: &mut Bench,
    target: &mut Target,
    p: &Plan,
    layout: &Layout,
    (secs, budget): (f64, f64),
    parent: u64,
) -> Result<(Vec<(Measured, f64)>, f64), String> {
    let rung = rung_secs(secs);
    let mut runs: Vec<(Measured, f64)> = Vec::new();
    let mut at = p.start;
    let mut cursor = layout.ring.start;
    let mut best: Option<f64> = None;
    let mut failures = vec![0u32; p.ladder.len()];
    let mut spent = 0.0;
    loop {
        let rate = p.ladder[at];
        let n = (rate * rung) as usize;
        let slice = Slice {
            ring: layout.ring.clone(),
            from: cursor,
            len: n,
        };
        cursor = slice.at(n);
        let m = bench.measured(target, slice, Some(rate), true, "serve.rung", parent)?;
        spent += m.span_s;
        let ok = m.rung_ok(n);
        let achieved = m.answered as f64 / m.wall_s;
        eprintln!(
            "  rung {rate:>7.0} rps: p99 {:8.3} ms, achieved {achieved:8.1} rps, {}",
            m.p99_ms,
            if ok { "ok" } else { "over" }
        );
        runs.push((m, rate));
        if ok {
            best = Some(achieved);
            if at + 1 == p.ladder.len() || failures[at + 1] >= CONFIRM {
                break;
            }
            at += 1;
        } else {
            failures[at] += 1;
            if failures[at] < CONFIRM {
                // A rung fails only when it fails twice running; one
                // transient stall must not end the search.
            } else if best.is_some() || at == 0 {
                break;
            } else {
                at -= 1;
            }
        }
        if spent + rung > budget.max(rung) {
            break;
        }
    }
    let fallback = runs
        .last()
        .map_or(1.0, |(m, _)| m.answered as f64 / m.wall_s / 2.0);
    Ok((runs, best.unwrap_or(fallback)))
}
