//! The cache-affinity router: a front-end that consistent-hashes canonical
//! keys across a fleet of `served` backends.
//!
//! One `served` process striped sixteen ways still tops out at one
//! machine's worth of cache; the router scales the *fleet* the same way
//! the [`crate::cache::StripedCache`] scales the locks — by hashing the
//! canonical key ([`iconv_api::stable_hash64`], the same function the
//! shards use) onto a [`HashRing`] of backends. Every request for a key
//! lands on the same backend, so each backend's cache stays hot for its
//! own key range, and losing a backend moves only that backend's keys
//! (the consistent-hashing property).
//!
//! # Forwarding model
//!
//! Each client connection gets one router thread working in lockstep:
//! read a request line, forward, relay the response, repeat. Single
//! estimates are forwarded **verbatim** — the backend sees the client's
//! exact bytes (id included), so the relayed response is byte-identical
//! to talking to that backend directly. A `batch` is scattered: items
//! are grouped by owning backend, sub-batches are sent id-free, and the
//! item lines are rebuilt with the client's id and original item indices
//! — the same rendering `served` itself uses, so the assembled stream is
//! byte-identical to a single server's. `stats` merges every backend's
//! snapshot ([`StatsSnapshot::merge`]); `shards` concatenates the fleet's
//! per-shard counters with renumbered shard ids; `ping` is answered
//! locally; `shutdown` is broadcast and then honored by the router
//! itself.
//!
//! # Failure containment
//!
//! Each backend has a [`Breaker`] — a circuit breaker whose open
//! intervals follow the [`RetryPolicy`] backoff schedule (the same capped
//! exponential + deterministic jitter the [`crate::client::RetryClient`]
//! sleeps). `threshold` consecutive failures open the circuit; after the
//! backoff elapses one probe is allowed through (half-open), and its
//! outcome closes or re-opens the breaker with a longer interval. A
//! request whose primary is open walks the key's
//! [`HashRing::failover_order`] — estimates re-issue safely because they
//! are idempotent under canonical keys. Only when *no* backend accepts
//! the work does the client see an error (`busy`, detail "no healthy
//! backend" — retryable, exactly like queue overload). A background
//! health thread pings each backend so breakers recover without client
//! traffic.
//!
//! # Fault seams
//!
//! When [`RouterConfig::faults`] is armed, the router↔backend hop
//! consults two sites: `route-send` (the forward write fails as if the
//! backend dropped) and `route-recv` (the relay read fails likewise).
//! Both feed the same failover machinery as real socket errors, so chaos
//! runs exercise the breaker paths deterministically.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind as IoErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iconv_api::{canonical_key, HashRing};
use iconv_faults::{FaultPoint, FaultSite};

use crate::client::{Client, RetryPolicy};
use crate::protocol::{
    self, batch_summary_body, encode_batch, encode_simple, error_body, finish_item_response,
    finish_response, pong_body, shards_body, shutdown_body, stats_body, ErrorKind, Request,
    Response, ShardStat, StatsSnapshot, Work,
};

/// Default virtual nodes per backend on the ring.
pub const DEFAULT_VNODES: usize = 64;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub listen_addr: String,
    /// Backend `served` addresses, in ring order. Must be non-empty.
    pub backends: Vec<String>,
    /// Virtual nodes per backend (`0` means [`DEFAULT_VNODES`]).
    pub vnodes: usize,
    /// Consecutive failures that open a backend's circuit breaker.
    pub breaker_threshold: u32,
    /// Backoff schedule for open intervals (attempts field unused).
    pub breaker_backoff: RetryPolicy,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Connect-retry budget per backend exchange.
    pub connect_timeout: Duration,
    /// Armed fault plan consulted at the router↔backend seams.
    pub faults: Option<Arc<dyn FaultPoint>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            listen_addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            vnodes: 0,
            breaker_threshold: 3,
            breaker_backoff: RetryPolicy::default(),
            health_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(1),
            faults: None,
        }
    }
}

/// Circuit-breaker state, exposed for stats and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are refused until the backoff elapses.
    Open,
    /// Backoff elapsed: one probe in flight decides the next state.
    HalfOpen,
}

struct BreakerInner {
    state: BreakerState,
    /// Consecutive failures while closed.
    fails: u32,
    /// Consecutive open periods (the backoff exponent).
    attempt: u32,
    /// While open: the earliest instant a probe may pass.
    until: Instant,
}

/// A per-backend circuit breaker. Open intervals follow the
/// [`RetryPolicy`] backoff schedule, salted by the backend index so a
/// fleet of breakers doesn't probe in lockstep.
pub struct Breaker {
    threshold: u32,
    policy: RetryPolicy,
    salt: u64,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    /// A closed breaker that opens after `threshold` consecutive failures.
    #[must_use]
    pub fn new(threshold: u32, policy: RetryPolicy, salt: u64) -> Self {
        Self {
            threshold: threshold.max(1),
            policy,
            salt,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                fails: 0,
                attempt: 0,
                until: Instant::now(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// May a request pass? An open breaker whose backoff has elapsed
    /// transitions to half-open and lets the caller through as the probe.
    pub fn allow(&self) -> bool {
        let mut b = self.lock();
        match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if Instant::now() >= b.until {
                    b.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report a successful exchange: the breaker closes fully.
    pub fn on_success(&self) {
        let mut b = self.lock();
        b.state = BreakerState::Closed;
        b.fails = 0;
        b.attempt = 0;
    }

    /// Report a failed exchange: closed breakers count toward the
    /// threshold; a failed half-open probe re-opens with a longer
    /// backoff.
    pub fn on_failure(&self) {
        let mut b = self.lock();
        match b.state {
            BreakerState::Closed => {
                b.fails += 1;
                if b.fails >= self.threshold {
                    Self::open(&mut b, &self.policy, self.salt);
                }
            }
            BreakerState::HalfOpen => Self::open(&mut b, &self.policy, self.salt),
            BreakerState::Open => {}
        }
    }

    fn open(b: &mut BreakerInner, policy: &RetryPolicy, salt: u64) {
        b.state = BreakerState::Open;
        b.until = Instant::now() + policy.backoff(b.attempt, salt);
        b.attempt = b.attempt.saturating_add(1);
        b.fails = 0;
    }

    /// Current state (open breakers are reported open even when their
    /// backoff has elapsed — only a passing request flips them).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }
}

/// Router-local counters (backend traffic is accounted by the backends
/// themselves and surfaced through the merged `stats` op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Request lines forwarded to a backend (sub-batches count once).
    pub forwarded: u64,
    /// Exchanges answered by a non-primary backend.
    pub failovers: u64,
    /// Requests (or batch items) refused because no backend was healthy.
    pub unrouted: u64,
    /// Client lines that failed to parse.
    pub parse_errors: u64,
}

#[derive(Default)]
struct Counters {
    forwarded: AtomicU64,
    failovers: AtomicU64,
    unrouted: AtomicU64,
    parse_errors: AtomicU64,
}

struct RouterShared {
    ring: HashRing,
    backends: Vec<String>,
    breakers: Vec<Breaker>,
    counters: Counters,
    connect_timeout: Duration,
    faults: Option<Arc<dyn FaultPoint>>,
    shutting_down: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl RouterShared {
    fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let mut req = self
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        *req = true;
        drop(req);
        self.shutdown_cv.notify_all();
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            unrouted: self.counters.unrouted.load(Ordering::Relaxed),
            parse_errors: self.counters.parse_errors.load(Ordering::Relaxed),
        }
    }
}

/// A running router. Call [`RouterHandle::shutdown`] for graceful
/// teardown.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Router-local counter snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Current breaker state per backend, in backend order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.shared.breakers.iter().map(Breaker::state).collect()
    }

    /// Block until some client sends the `shutdown` op (or
    /// [`RouterHandle::request_shutdown`] is called locally).
    pub fn wait_shutdown_requested(&self) {
        let mut req = self
            .shared
            .shutdown_requested
            .lock()
            .expect("flag poisoned");
        while !*req {
            req = self.shared.shutdown_cv.wait(req).expect("flag poisoned");
        }
    }

    /// Begin refusing new work, as if a `shutdown` op had arrived.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Graceful teardown: stop accepting, close client connections, join
    /// every thread. Backends are *not* shut down unless a client's
    /// `shutdown` op already broadcast one.
    pub fn shutdown(mut self) -> RouterStats {
        self.shared.request_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        for conn in self.shared.conns.lock().expect("conns poisoned").drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let threads: Vec<_> = {
            let mut guard = self.shared.conn_threads.lock().expect("threads poisoned");
            guard.drain(..).collect()
        };
        for h in threads {
            let _ = h.join();
        }
        self.shared.stats()
    }
}

/// Spawn a router on `cfg.listen_addr` over `cfg.backends`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or
/// `InvalidInput` when no backends are configured.
pub fn spawn_router(cfg: RouterConfig) -> io::Result<RouterHandle> {
    if cfg.backends.is_empty() {
        return Err(io::Error::new(
            IoErrorKind::InvalidInput,
            "router needs at least one --backend",
        ));
    }
    let listener = TcpListener::bind(&cfg.listen_addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let vnodes = if cfg.vnodes == 0 {
        DEFAULT_VNODES
    } else {
        cfg.vnodes
    };
    let breakers = (0..cfg.backends.len())
        .map(|b| Breaker::new(cfg.breaker_threshold, cfg.breaker_backoff, b as u64))
        .collect();
    let shared = Arc::new(RouterShared {
        ring: HashRing::new(cfg.backends.len(), vnodes),
        backends: cfg.backends,
        breakers,
        counters: Counters::default(),
        connect_timeout: cfg.connect_timeout,
        faults: cfg.faults,
        shutting_down: AtomicBool::new(false),
        shutdown_requested: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        conns: Mutex::new(Vec::new()),
        conn_threads: Mutex::new(Vec::new()),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("iconv-route-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn acceptor")
    };
    let health = {
        let shared = Arc::clone(&shared);
        let interval = cfg.health_interval;
        std::thread::Builder::new()
            .name("iconv-route-health".to_owned())
            .spawn(move || health_loop(&shared, interval))
            .expect("spawn health thread")
    };
    Ok(RouterHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        health: Some(health),
    })
}

/// Probe every backend each interval so breakers recover (and trip)
/// without client traffic. A probe is one fresh connection and one ping —
/// it deliberately bypasses `allow()`'s half-open transition only for
/// breakers still inside their backoff window.
fn health_loop(shared: &Arc<RouterShared>, interval: Duration) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        for (b, addr) in shared.backends.iter().enumerate() {
            if !shared.breakers[b].allow() {
                continue;
            }
            let ok = Client::connect(addr)
                .ok()
                .is_some_and(|mut c| c.ping().is_ok());
            if ok {
                shared.breakers[b].on_success();
            } else {
                shared.breakers[b].on_failure();
            }
        }
        std::thread::sleep(interval);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<RouterShared>) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(e) = start_connection(stream, shared) {
                    eprintln!("routed: failed to start connection: {e}");
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn start_connection(stream: TcpStream, shared: &Arc<RouterShared>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .push(stream.try_clone()?);
    let handler = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("iconv-route-conn".to_owned())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| conn_loop(stream, &shared)));
            })?
    };
    shared
        .conn_threads
        .lock()
        .expect("threads poisoned")
        .push(handler);
    Ok(())
}

/// One client connection, in strict lockstep: read a line, emit its
/// response lines, flush, repeat. The thread owns its backend
/// connections, so concurrent clients never contend on a shared socket.
fn conn_loop(stream: TcpStream, shared: &Arc<RouterShared>) {
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut out = BufWriter::new(stream);
    let mut conns: Vec<Option<Client>> = (0..shared.backends.len()).map(|_| None).collect();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let responses = handle_request(line.trim_end(), shared, &mut conns);
        for r in &responses {
            if out.write_all(r.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                return;
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
}

/// One request↔backend exchange: send `line`, read `n_lines` responses.
/// Any failure (connect, injected seam, socket) drops the backend
/// connection so the next exchange starts clean — a half-read stream
/// must never be re-used.
fn exchange(
    shared: &RouterShared,
    conns: &mut [Option<Client>],
    b: usize,
    line: &str,
    n_lines: usize,
) -> io::Result<Vec<String>> {
    if conns[b].is_none() {
        conns[b] = Some(Client::connect_retry(
            &shared.backends[b],
            shared.connect_timeout,
        )?);
    }
    let c = conns[b].as_mut().expect("just connected");
    let res = (|| {
        if let Some(f) = &shared.faults {
            if f.decide(FaultSite::RouteSend).is_some() {
                f.observe(FaultSite::RouteSend);
                return Err(io::Error::other("injected route-send failure"));
            }
        }
        c.send_line(line)?;
        c.flush()?;
        let mut lines = Vec::with_capacity(n_lines);
        for _ in 0..n_lines {
            if let Some(f) = &shared.faults {
                if f.decide(FaultSite::RouteRecv).is_some() {
                    f.observe(FaultSite::RouteRecv);
                    return Err(io::Error::other("injected route-recv failure"));
                }
            }
            lines.push(c.recv_line()?);
        }
        Ok(lines)
    })();
    if res.is_err() {
        conns[b] = None;
    }
    res
}

/// Forward a raw single-response line along `key`'s failover order,
/// returning the backend's response verbatim; `None` when no backend is
/// healthy.
fn forward_raw(
    shared: &RouterShared,
    conns: &mut [Option<Client>],
    key: &str,
    line: &str,
) -> Option<String> {
    for (nth, b) in shared.ring.failover_order(key).into_iter().enumerate() {
        if !shared.breakers[b].allow() {
            continue;
        }
        match exchange(shared, conns, b, line, 1) {
            Ok(mut lines) => {
                shared.breakers[b].on_success();
                shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if nth > 0 {
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return lines.pop();
            }
            Err(_) => shared.breakers[b].on_failure(),
        }
    }
    shared.counters.unrouted.fetch_add(1, Ordering::Relaxed);
    None
}

/// Decode one sub-batch exchange: `n` item lines (`{"item":j,<body>}` —
/// the id-free rendering, since sub-batches are sent without an id)
/// followed by the summary. Returns the extracted bodies in sub-batch
/// order.
fn split_batch_lines(lines: &[String], n: usize) -> Result<Vec<String>, String> {
    if lines.len() != n + 1 {
        return Err(format!("expected {} lines, got {}", n + 1, lines.len()));
    }
    let mut out = Vec::with_capacity(n);
    for (j, line) in lines[..n].iter().enumerate() {
        let prefix = format!("{{\"item\":{j},");
        let body = line
            .strip_prefix(prefix.as_str())
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| format!("malformed batch item line: {line:?}"))?;
        out.push(body.to_owned());
    }
    if !lines[n].contains("\"batch\":") {
        return Err(format!("missing batch summary: {:?}", lines[n]));
    }
    Ok(out)
}

/// Scatter a batch across the fleet by key ownership and reassemble the
/// item stream in the client's order. Failed sub-batches walk their
/// items' failover orders (idempotent re-issue); items no backend will
/// take come back as `busy` errors, mirroring queue overload.
fn handle_batch(
    shared: &RouterShared,
    conns: &mut [Option<Client>],
    id: Option<&str>,
    items: &[Work],
    deadline_ms: Option<u64>,
) -> Vec<String> {
    let n = items.len();
    let keys: Vec<String> = items.iter().map(canonical_key).collect();
    let mut bodies: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let mut unresolved: Vec<usize> = (0..n).collect();
    while !unresolved.is_empty() {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in &unresolved {
            let target = shared
                .ring
                .failover_order(&keys[i])
                .into_iter()
                .find(|&b| shared.breakers[b].allow());
            match target {
                Some(b) => groups.entry(b).or_default().push(i),
                None => {
                    shared.counters.unrouted.fetch_add(1, Ordering::Relaxed);
                    bodies[i] = Some(error_body(ErrorKind::Busy, "no healthy backend"));
                }
            }
        }
        if groups.is_empty() {
            break;
        }
        unresolved = Vec::new();
        for (b, idxs) in groups {
            let works: Vec<Work> = idxs.iter().map(|&i| items[i]).collect();
            let line = encode_batch(None, &works, deadline_ms);
            let relayed = exchange(shared, conns, b, &line, idxs.len() + 1)
                .map_err(|e| e.to_string())
                .and_then(|lines| split_batch_lines(&lines, idxs.len()));
            match relayed {
                Ok(item_bodies) => {
                    shared.breakers[b].on_success();
                    shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                    for (j, &i) in idxs.iter().enumerate() {
                        bodies[i] = Some(item_bodies[j].clone());
                    }
                }
                Err(_) => {
                    shared.breakers[b].on_failure();
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    unresolved.extend(idxs);
                }
            }
        }
    }
    let mut out = Vec::with_capacity(n + 1);
    let mut errors = 0u64;
    for (i, body) in bodies.iter().enumerate() {
        let fallback = error_body(ErrorKind::Busy, "no healthy backend");
        let body = body.as_deref().unwrap_or(&fallback);
        if body.starts_with("\"ok\":false") {
            errors += 1;
        }
        out.push(finish_item_response(id, i, body));
    }
    out.push(finish_response(id, &batch_summary_body(n as u64, errors)));
    out
}

/// Merge every healthy backend's `stats` snapshot into one fleet view.
fn handle_stats(
    shared: &RouterShared,
    conns: &mut [Option<Client>],
    id: Option<&str>,
) -> Vec<String> {
    let mut merged = StatsSnapshot::default();
    let mut seen = 0usize;
    for b in 0..shared.backends.len() {
        if !shared.breakers[b].allow() {
            continue;
        }
        let parsed = exchange(shared, conns, b, &encode_simple("stats", None), 1)
            .ok()
            .and_then(|lines| protocol::parse_response(&lines[0]).ok());
        match parsed {
            Some(Response::Stats { stats, .. }) => {
                shared.breakers[b].on_success();
                merged.merge(&stats);
                seen += 1;
            }
            _ => shared.breakers[b].on_failure(),
        }
    }
    if seen == 0 {
        shared.counters.unrouted.fetch_add(1, Ordering::Relaxed);
        return vec![finish_response(
            id,
            &error_body(ErrorKind::Busy, "no healthy backend"),
        )];
    }
    vec![finish_response(id, &stats_body(&merged))]
}

/// Concatenate every healthy backend's per-shard counters, renumbering
/// shard ids so the fleet reads as one wide striped cache.
fn handle_shards(
    shared: &RouterShared,
    conns: &mut [Option<Client>],
    id: Option<&str>,
) -> Vec<String> {
    let mut all: Vec<ShardStat> = Vec::new();
    let mut seen = 0usize;
    for b in 0..shared.backends.len() {
        if !shared.breakers[b].allow() {
            continue;
        }
        let parsed = exchange(shared, conns, b, &encode_simple("shards", None), 1)
            .ok()
            .and_then(|lines| protocol::parse_response(&lines[0]).ok());
        match parsed {
            Some(Response::Shards { shards, .. }) => {
                shared.breakers[b].on_success();
                all.extend(shards);
                seen += 1;
            }
            _ => shared.breakers[b].on_failure(),
        }
    }
    if seen == 0 {
        shared.counters.unrouted.fetch_add(1, Ordering::Relaxed);
        return vec![finish_response(
            id,
            &error_body(ErrorKind::Busy, "no healthy backend"),
        )];
    }
    for (k, s) in all.iter_mut().enumerate() {
        s.shard = k as u64;
    }
    vec![finish_response(id, &shards_body(&all))]
}

/// Handle one client line, returning the response lines to emit in order.
fn handle_request(line: &str, shared: &RouterShared, conns: &mut [Option<Client>]) -> Vec<String> {
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            return vec![finish_response(
                e.id.as_deref(),
                &error_body(e.kind, &e.detail),
            )];
        }
    };
    match req {
        Request::Ping { id } => vec![finish_response(id.as_deref(), &pong_body())],
        Request::Stats { id } => handle_stats(shared, conns, id.as_deref()),
        Request::Shards { id } => handle_shards(shared, conns, id.as_deref()),
        Request::Shutdown { id } => {
            // Broadcast to the whole fleet (breakers ignored: a draining
            // fleet should not leave a flaky backend running), then honor
            // it locally.
            for b in 0..shared.backends.len() {
                let _ = exchange(shared, conns, b, &encode_simple("shutdown", None), 1);
            }
            shared.request_shutdown();
            vec![finish_response(id.as_deref(), &shutdown_body())]
        }
        Request::Estimate(req) => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return vec![finish_response(
                    req.id.as_deref(),
                    &error_body(ErrorKind::ShuttingDown, "router is draining"),
                )];
            }
            let cache_key = canonical_key(&req.work);
            match forward_raw(shared, conns, &cache_key, line) {
                Some(response) => vec![response],
                None => vec![finish_response(
                    req.id.as_deref(),
                    &error_body(ErrorKind::Busy, "no healthy backend"),
                )],
            }
        }
        Request::TunedEstimate {
            id, shape, target, ..
        } => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return vec![finish_response(
                    id.as_deref(),
                    &error_body(ErrorKind::ShuttingDown, "router is draining"),
                )];
            }
            // Key the forward by the layer's *tune* key, so one backend
            // owns a layer's search, its tune-store entry, and every
            // `"hw":"tuned"` estimate derived from it — the same affinity
            // the plain `tune` op gets through its canonical key.
            let cache_key = canonical_key(&Work::Tune { shape, target });
            match forward_raw(shared, conns, &cache_key, line) {
                Some(response) => vec![response],
                None => vec![finish_response(
                    id.as_deref(),
                    &error_body(ErrorKind::Busy, "no healthy backend"),
                )],
            }
        }
        Request::Batch {
            id,
            items,
            deadline_ms,
        } => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                // Mirror `served`'s refusal shape: n error items + summary.
                let n = items.len();
                let body = error_body(ErrorKind::ShuttingDown, "router is draining");
                let mut out: Vec<String> = (0..n)
                    .map(|i| finish_item_response(id.as_deref(), i, &body))
                    .collect();
                out.push(finish_response(
                    id.as_deref(),
                    &batch_summary_body(n as u64, n as u64),
                ));
                return out;
            }
            handle_batch(shared, conns, id.as_deref(), &items, deadline_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let b = Breaker::new(3, policy, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        b.on_failure();
        assert!(b.allow(), "below threshold stays closed");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Within the backoff window nothing passes; after it one probe does.
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.allow(), "elapsed backoff admits a probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_longer_backoff() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let b = Breaker::new(1, policy, 7);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(3));
        assert!(b.allow());
        b.on_failure(); // the probe failed
        assert_eq!(b.state(), BreakerState::Open);
        // Attempt counter grew, so the second window is at least as long
        // as the first's ceiling permits (both jittered; just re-probe).
        std::thread::sleep(Duration::from_millis(10));
        assert!(b.allow());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn split_batch_lines_extracts_bodies_in_order() {
        let lines = vec![
            "{\"item\":0,\"ok\":true,\"x\":1}".to_owned(),
            "{\"item\":1,\"ok\":false,\"error\":\"deadline\",\"detail\":\"d\"}".to_owned(),
            "{\"ok\":true,\"batch\":{\"items\":2,\"errors\":1}}".to_owned(),
        ];
        let bodies = split_batch_lines(&lines, 2).unwrap();
        assert_eq!(bodies[0], "\"ok\":true,\"x\":1");
        assert!(bodies[1].starts_with("\"ok\":false"));
        // Wrong count, wrong prefix, or a missing summary are all errors.
        assert!(split_batch_lines(&lines, 1).is_err());
        assert!(split_batch_lines(&lines[1..], 2).is_err());
    }

    #[test]
    fn router_requires_backends() {
        match spawn_router(RouterConfig::default()) {
            Err(e) => assert_eq!(e.kind(), IoErrorKind::InvalidInput),
            Ok(_) => panic!("empty backend list must be rejected"),
        }
    }
}
