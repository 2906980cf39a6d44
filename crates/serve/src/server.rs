//! The TCP server: accept loop, per-connection reader/writer threads, the
//! shared report cache, and the worker-pool dispatch path.
//!
//! # Threading model
//!
//! * One acceptor thread polls a non-blocking listener so shutdown never
//!   hangs in `accept`.
//! * Each connection gets a **reader** thread (parses request lines,
//!   serves cache hits inline, dispatches misses to the shared
//!   [`WorkerPool`]) and a **writer** thread (reassembles responses into
//!   request order by sequence number, so pipelined clients always read
//!   answers in the order they asked).
//! * The pool is the only place simulations run; its bounded queue is the
//!   overload valve — a full queue turns into an immediate `busy` error,
//!   never a blocked reader.
//!
//! # Cache, striping, and single-flight
//!
//! The report cache is a [`StripedCache`]: N independent LRU shards
//! selected by the stable hash of the canonical key, so connections
//! touching different keys never serialize on one global lock, and hit
//! bodies are shared `Arc<str>` handles cloned by pointer rather than by
//! content. Concurrent misses on the *same* key collapse via the cache's
//! per-shard single-flight registry: the first requester leads the one
//! simulation, later requesters join as waiters whose response callbacks
//! fire when the leader completes. A leader must complete its flight on
//! **every** path (success, deadline, storm, panic, pool refusal) — a
//! leaked flight would strand its followers forever.
//!
//! # Counter discipline
//!
//! `hits` and `misses` live in the cache's per-shard counters (the
//! `shards` op exposes them; their sums are the global `stats` numbers).
//! A hit is counted at each response-delivery point: the reader's inline
//! lookup, a dedup follower inside a batch, or a single-flight follower
//! when its leader completes — followers' bytes came from the
//! cache-to-be, so they are hits. A miss is counted exactly once per
//! simulation actually run, by the leader. Rejections (busy / deadline /
//! parse / bad-request / shutting-down) increment their own counters and
//! are excluded from `requests`; a follower whose leader fails inherits
//! the same typed error and is accounted as the same kind of rejection.
//! So `hits + misses == requests` holds exactly at any quiescent point —
//! the `stats` RPC invariant the determinism test pins.
//!
//! # Batch execution
//!
//! A `batch` request occupies a *span* of sequence numbers: item `i` of an
//! `n`-item batch is assigned `seq + i` and the summary line `seq + n`, so
//! the writer's ordinary seq reassembly streams items back in item order,
//! interleaving nothing else into the span. Per-item cache hits are
//! answered inline by the reader without consuming a worker slot;
//! duplicate canonical keys within one batch collapse onto a single
//! simulation (the first item is the miss, followers are hits). The misses
//! become one shared `BatchRun` work list driven by at most
//! `batch_chunk` runner jobs; each runner re-enqueues itself at the *back*
//! of the pool FIFO after every simulation, so a giant sweep cannot starve
//! interleaved single requests or other batches. The batch counters keep
//! the invariant `batch_hits + batch_misses + batch_errors == batch_items`
//! at any quiescent point.
//!
//! # Fault seams
//!
//! When [`ServerConfig::faults`] carries an armed [`FaultPoint`], the
//! server consults it at every I/O and dispatch seam: per request line
//! read (`read`), per response line written (`write`, `partial`, `delay`),
//! and per simulation dispatched (`panic`, `deadline`). Every seam is a
//! single `Option` branch when unarmed — the production path pays nothing.
//! Injected socket faults shut the stream down `Both` ways explicitly
//! because `shared.conns` holds a dup'd handle that would otherwise keep
//! the FD open; injected panics are raised *inside* the dispatch
//! `catch_unwind` so the client always receives a typed `worker-crashed`
//! response instead of a hole in the writer's sequence space.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind as IoErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iconv_api::canonical_key;
use iconv_faults::{FaultPoint, FaultSite, Injection};
use iconv_par::{Job, PoolBusy, WorkerPool};
use iconv_trace::TraceSink;

use crate::cache::{Admission, Body, FlightOutcome, StripedCache};
use crate::engine;
use crate::protocol::{
    self, batch_summary_body, error_body, finish_item_response, finish_response, pong_body,
    shards_body, shutdown_body, stats_body, ErrorKind, LatencyHist, Request, StatsSnapshot, Work,
};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads running simulations.
    pub workers: usize,
    /// Bounded job-queue capacity (overload backpressure threshold).
    pub queue_capacity: usize,
    /// Report-cache capacity in entries (spread across the shards).
    pub cache_capacity: usize,
    /// Lock shards in the report cache. `0` means
    /// [`StripedCache::DEFAULT_SHARDS`]; `1` degenerates to the old
    /// single-lock cache (useful for comparison benchmarks).
    pub cache_shards: usize,
    /// Maximum runner jobs a single batch may hold in the pool at once
    /// (the in-flight chunk). `0` means "as many as there are workers".
    /// Items beyond the chunk wait on the batch's own work list, so one
    /// giant sweep never monopolizes the queue against other clients.
    pub batch_chunk: usize,
    /// Armed fault plan consulted at the I/O and dispatch seams (see the
    /// module-level *Fault seams* notes). `None` — the production default
    /// — compiles every seam down to a branch on this `Option`.
    pub faults: Option<Arc<dyn FaultPoint>>,
    /// Persistent tune-store path (`served --tune-cache`). Loaded at boot
    /// — seeding both the best-config store and the response cache, so a
    /// warm boot answers tunes without re-searching — and saved back on
    /// graceful shutdown. `None` keeps tunes process-local.
    pub tune_cache_path: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: iconv_par::default_jobs(),
            queue_capacity: 1024,
            cache_capacity: 16 * 1024,
            cache_shards: 0,
            batch_chunk: 0,
            faults: None,
            tune_cache_path: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    busy: AtomicU64,
    deadline: AtomicU64,
    parse_errors: AtomicU64,
    latency_us_total: AtomicU64,
    latency_us_max: AtomicU64,
    batches: AtomicU64,
    batch_items: AtomicU64,
    batch_hits: AtomicU64,
    batch_misses: AtomicU64,
    batch_errors: AtomicU64,
    worker_crashes: AtomicU64,
    /// Completed design-space searches answered, however they arrived
    /// (`tune` op, batch item, or the implicit search behind
    /// `"hw":"tuned"`). Ledger: `tunes == tune_searches + tune_cached`.
    tunes: AtomicU64,
    /// Tunes that actually ran the search (cache/store misses).
    tune_searches: AtomicU64,
    /// Tunes answered from the cache, the tune store, or a joined flight.
    tune_cached: AtomicU64,
    /// Service-time histograms, striped by cache shard so concurrent
    /// recorders contend no harder than the cache itself; the `stats` op
    /// merges the stripes (exact — the layout is fixed). Sized to the
    /// cache's shard count at spawn.
    service_hists: Vec<Mutex<LatencyHist>>,
}

impl Counters {
    fn with_stripes(n: usize) -> Self {
        Self {
            service_hists: (0..n.max(1))
                .map(|_| Mutex::new(LatencyHist::new()))
                .collect(),
            ..Self::default()
        }
    }

    /// Record one successful request's service time, stamped from `since`
    /// (request receipt). `stripe` is the request's cache-shard index —
    /// already in hand at every call site — so recording contends only
    /// with requests of the same shard.
    fn record_latency(&self, since: Instant, stripe: usize) {
        let us = since.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.latency_us_total.fetch_add(us, Ordering::Relaxed);
        self.latency_us_max.fetch_max(us, Ordering::Relaxed);
        let slot = stripe % self.service_hists.len();
        self.service_hists[slot]
            .lock()
            .expect("latency stripe poisoned")
            .record(us);
    }

    /// Merge every stripe into one histogram (the `stats` view).
    fn merged_hist(&self) -> LatencyHist {
        let mut all = LatencyHist::new();
        for stripe in &self.service_hists {
            all.merge(&stripe.lock().expect("latency stripe poisoned"));
        }
        all
    }
}

struct Shared {
    counters: Counters,
    cache: StripedCache,
    pool: WorkerPool,
    workers: usize,
    /// Armed fault plan, if any (see [`ServerConfig::faults`]).
    faults: Option<Arc<dyn FaultPoint>>,
    /// Resolved in-flight runner cap per batch (see [`ServerConfig::batch_chunk`]).
    batch_chunk: usize,
    /// Best-config results of every completed design-space search, keyed
    /// by canonical tune key — what `"hw":"tuned"` requests consult, and
    /// what `--tune-cache` persists across restarts.
    tune_store: Mutex<iconv_tune::TuneCache>,
    /// Where to save the tune store on graceful shutdown.
    tune_cache_path: Option<std::path::PathBuf>,
    shutting_down: AtomicBool,
    /// Set by the `shutdown` op; `wait_shutdown_requested` blocks on it.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Read-half clones of live connections, shut down to unblock readers.
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
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

    fn snapshot(&self) -> StatsSnapshot {
        let c = &self.counters;
        let (queue_depth, in_flight) =
            (self.pool.queue_depth() as u64, self.pool.in_flight() as u64);
        let (faults_injected, faults_observed) = self.faults.as_ref().map_or((0, 0), |f| {
            let fc = f.counters();
            (fc.injected_total(), fc.observed_total())
        });
        StatsSnapshot {
            requests: c.served.load(Ordering::Relaxed),
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            evictions: self.cache.evictions(),
            cache_entries: self.cache.len() as u64,
            cache_capacity: self.cache.capacity() as u64,
            queue_depth,
            in_flight,
            busy_rejections: c.busy.load(Ordering::Relaxed),
            deadline_expired: c.deadline.load(Ordering::Relaxed),
            parse_errors: c.parse_errors.load(Ordering::Relaxed),
            latency_us_total: c.latency_us_total.load(Ordering::Relaxed),
            latency_us_max: c.latency_us_max.load(Ordering::Relaxed),
            workers: self.workers as u64,
            batches: c.batches.load(Ordering::Relaxed),
            batch_items: c.batch_items.load(Ordering::Relaxed),
            batch_hits: c.batch_hits.load(Ordering::Relaxed),
            batch_misses: c.batch_misses.load(Ordering::Relaxed),
            batch_errors: c.batch_errors.load(Ordering::Relaxed),
            worker_crashes: c.worker_crashes.load(Ordering::Relaxed),
            faults_injected,
            faults_observed,
            tunes: c.tunes.load(Ordering::Relaxed),
            tune_searches: c.tune_searches.load(Ordering::Relaxed),
            tune_cached: c.tune_cached.load(Ordering::Relaxed),
            service_hist: c.merged_hist(),
        }
    }

    /// Mirror the counters into an `iconv-trace` sink (the `stats` RPC is
    /// the live view; this writes the same numbers as trace counters for
    /// offline tooling).
    fn emit_trace(&self, sink: &mut dyn TraceSink) {
        let s = self.snapshot();
        sink.counter("serve.requests", s.requests);
        sink.counter("serve.cache_hits", s.hits);
        sink.counter("serve.cache_misses", s.misses);
        sink.counter("serve.cache_evictions", s.evictions);
        sink.counter("serve.queue_depth", s.queue_depth);
        sink.counter("serve.busy_rejections", s.busy_rejections);
        sink.counter("serve.deadline_expired", s.deadline_expired);
        sink.counter("serve.parse_errors", s.parse_errors);
        sink.counter("serve.latency_us_total", s.latency_us_total);
        sink.counter("serve.latency_us_max", s.latency_us_max);
        sink.counter("serve.batch.batches", s.batches);
        sink.counter("serve.batch.items", s.batch_items);
        sink.counter("serve.batch.hits", s.batch_hits);
        sink.counter("serve.batch.misses", s.batch_misses);
        sink.counter("serve.batch.errors", s.batch_errors);
        sink.counter("serve.worker_crashes", s.worker_crashes);
        sink.counter("serve.tune.tunes", s.tunes);
        sink.counter("serve.tune.searches", s.tune_searches);
        sink.counter("serve.tune.cached", s.tune_cached);
        sink.counter("serve.fault.injected", s.faults_injected);
        sink.counter("serve.fault.observed", s.faults_observed);
        for shard in self.cache.shard_stats() {
            let i = shard.shard as usize;
            sink.counter_indexed("serve.shard", i, "hits", shard.hits);
            sink.counter_indexed("serve.shard", i, "misses", shard.misses);
            sink.counter_indexed("serve.shard", i, "evictions", shard.evictions);
            sink.counter_indexed("serve.shard", i, "entries", shard.entries);
        }
        if let Some(f) = &self.faults {
            let fc = f.counters();
            for site in FaultSite::ALL {
                sink.counter(
                    &format!("serve.fault.injected.{}", site.name()),
                    fc.injected[site.index()],
                );
                sink.counter(
                    &format!("serve.fault.observed.{}", site.name()),
                    fc.observed[site.index()],
                );
            }
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] aborts the process-local threads abruptly;
/// call `shutdown` for the graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot (same numbers as the `stats` RPC).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// The per-stripe service-time histograms (one per cache shard), as
    /// recorded so far. Their bucket-wise sum is exactly the `stats` op's
    /// `service_hist` — the ledger identity the capacity tests pin.
    pub fn service_hist_stripes(&self) -> Vec<LatencyHist> {
        self.shared
            .counters
            .service_hists
            .iter()
            .map(|m| m.lock().expect("latency stripe poisoned").clone())
            .collect()
    }

    /// Emit the counters into an `iconv-trace` sink.
    pub fn emit_trace(&self, sink: &mut dyn TraceSink) {
        self.shared.emit_trace(sink);
    }

    /// Block until some client sends the `shutdown` op (or
    /// [`ServerHandle::request_shutdown`] is called locally).
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

    /// Graceful teardown: stop accepting connections, drain queued and
    /// in-flight simulations, deliver their responses, then close
    /// connections and join every thread.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.request_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Drain the pool: queued jobs run to completion and push their
        // responses into the writers before this returns. The pool's
        // `shutdown` takes `&self`, so batch runners resubmitting their
        // continuations race against it without any outer lock to deadlock
        // on — a refused continuation just keeps draining inline.
        self.shared.pool.shutdown();
        // Unblock readers parked in read(); keeps the write half intact so
        // writers can still flush drained responses.
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
        // Persist every search this process completed (best-effort: a
        // full disk must not turn a clean drain into a crash).
        if let Some(path) = &self.shared.tune_cache_path {
            let store = self.shared.tune_store.lock().expect("tune store poisoned");
            if let Err(e) = store.save(path) {
                eprintln!("iconv-serve: {e}");
            }
        }
        self.shared.snapshot()
    }
}

/// Spawn a server on `cfg.addr`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let batch_chunk = if cfg.batch_chunk == 0 {
        workers
    } else {
        cfg.batch_chunk
    };
    let cache_shards = if cfg.cache_shards == 0 {
        StripedCache::DEFAULT_SHARDS
    } else {
        cfg.cache_shards
    };
    // A corrupt tune cache refuses the boot rather than silently serving
    // a cold store — the operator asked for persistence and did not get it.
    let tune_store = match &cfg.tune_cache_path {
        Some(path) => iconv_tune::TuneCache::load(path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        None => iconv_tune::TuneCache::new(),
    };
    let shared = Arc::new(Shared {
        counters: Counters::with_stripes(cache_shards),
        cache: StripedCache::new(cfg.cache_capacity.max(1), cache_shards),
        pool: WorkerPool::new(workers, cfg.queue_capacity.max(1)),
        workers,
        batch_chunk,
        tune_store: Mutex::new(tune_store),
        tune_cache_path: cfg.tune_cache_path,
        shutting_down: AtomicBool::new(false),
        shutdown_requested: Mutex::new(false),
        shutdown_cv: Condvar::new(),
        faults: cfg.faults,
        conns: Mutex::new(Vec::new()),
        conn_threads: Mutex::new(Vec::new()),
    });
    // Warm the response cache from the loaded store: a tune for a
    // persisted key is a plain cache hit on the very first request.
    {
        let store = shared.tune_store.lock().expect("tune store poisoned");
        for (tune_key, est) in store.iter() {
            shared
                .cache
                .insert(tune_key.to_owned(), Body::from(protocol::tune_body(est)));
        }
    }
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("iconv-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn acceptor")
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(e) = start_connection(stream, shared) {
                    eprintln!("iconv-serve: failed to start connection: {e}");
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn start_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone()?;
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .push(stream.try_clone()?);
    let (tx, rx) = channel::<(u64, String)>();
    // Per-connection containment: a panic inside either half is absorbed
    // here, tearing down only this connection's threads — the acceptor,
    // the pool, and every other connection stay up.
    let writer = {
        let faults = shared.faults.clone();
        std::thread::Builder::new()
            .name("iconv-serve-write".to_owned())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    writer_loop(stream, &rx, faults.as_ref());
                }));
            })?
    };
    let reader = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("iconv-serve-read".to_owned())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| reader_loop(read_half, &shared, &tx)));
            })?
    };
    let mut threads = shared.conn_threads.lock().expect("threads poisoned");
    threads.push(writer);
    threads.push(reader);
    Ok(())
}

/// Reassemble `(seq, line)` messages into ascending-`seq` order and write
/// them out, flushing whenever the channel momentarily runs dry.
fn writer_loop(
    stream: TcpStream,
    rx: &std::sync::mpsc::Receiver<(u64, String)>,
    faults: Option<&Arc<dyn FaultPoint>>,
) {
    let mut out = BufWriter::new(stream);
    let mut next_seq = 0u64;
    let mut held: BinaryHeap<std::cmp::Reverse<(u64, String)>> = BinaryHeap::new();
    let write = |out: &mut BufWriter<TcpStream>, line: &str| -> bool {
        // Fault seams, consulted once per response line. A `Delay` stalls
        // mid-stream with everything so far flushed (slow-loris); a
        // `PartialWrite` flushes a prefix of the line and drops the
        // connection; a `SockWrite` drops it cold. The explicit
        // `Shutdown::Both` matters: `shared.conns` holds a dup'd handle
        // that would otherwise keep the socket open and the client blocked.
        if let Some(f) = faults {
            if let Some(Injection::Delay { ms }) = f.decide(FaultSite::Delay) {
                let _ = out.flush();
                std::thread::sleep(Duration::from_millis(ms));
                f.observe(FaultSite::Delay);
            }
            if let Some(Injection::PartialWrite { keep }) = f.decide(FaultSite::PartialWrite) {
                let keep = keep.min(line.len());
                let _ = out.write_all(&line.as_bytes()[..keep]);
                let _ = out.flush();
                let _ = out.get_ref().shutdown(Shutdown::Both);
                f.observe(FaultSite::PartialWrite);
                return false;
            }
            if f.decide(FaultSite::SockWrite).is_some() {
                let _ = out.get_ref().shutdown(Shutdown::Both);
                f.observe(FaultSite::SockWrite);
                return false;
            }
        }
        out.write_all(line.as_bytes()).is_ok() && out.write_all(b"\n").is_ok()
    };
    'recv: while let Ok(msg) = rx.recv() {
        held.push(std::cmp::Reverse(msg));
        // Drain everything already queued so a burst (a batch span being
        // streamed) is written and flushed once, not per line.
        while let Ok(more) = rx.try_recv() {
            held.push(std::cmp::Reverse(more));
        }
        while let Some(std::cmp::Reverse((seq, _))) = held.peek() {
            if *seq != next_seq {
                break;
            }
            let std::cmp::Reverse((_, line)) = held.pop().expect("peeked");
            if !write(&mut out, &line) {
                break 'recv;
            }
            next_seq += 1;
        }
        // Nothing immediately pending: push what we have to the client.
        let _ = out.flush();
    }
    // Channel closed (reader and all jobs done): drain any stragglers.
    while let Some(std::cmp::Reverse((_, line))) = held.pop() {
        if !write(&mut out, &line) {
            break;
        }
    }
    let _ = out.flush();
}

fn reader_loop(stream: TcpStream, shared: &Arc<Shared>, tx: &Sender<(u64, String)>) {
    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
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
        // Fault seam: an injected read error behaves exactly like a
        // mid-request network failure — the socket is shut down both ways
        // so the client sees the drop rather than a stall (the dup'd
        // handle in `shared.conns` would otherwise hold it open).
        if let Some(f) = &shared.faults {
            if f.decide(FaultSite::SockRead).is_some() {
                f.observe(FaultSite::SockRead);
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                break;
            }
        }
        // A request consumes as many sequence numbers as it will emit
        // response lines (1 for everything except `batch`, which spans
        // n items + 1 summary).
        seq += handle_line(line.trim_end(), seq, shared, tx);
    }
}

/// One deduplicated simulation owed to a batch: the work, its cache key,
/// and every item index that asked for it (first = miss, rest = hits).
struct PendingSim {
    work: Work,
    key: String,
    items: Vec<usize>,
}

/// Shared state for one in-flight batch: the un-simulated work list, how
/// many item lines are still owed, and where the summary line goes.
struct BatchRun {
    shared: Arc<Shared>,
    tx: Sender<(u64, String)>,
    id: Option<String>,
    deadline: Option<Duration>,
    t0: Instant,
    n_items: u64,
    base_seq: u64,
    summary_seq: u64,
    pending: Mutex<VecDeque<PendingSim>>,
    /// Item lines still owed (misses, their dedup followers, and
    /// single-flight joins), **plus one sentinel unit** held by the
    /// admission pass itself: a joined flight's waiter may fire the
    /// instant it is registered, and the sentinel keeps such early
    /// completions from seeing the count hit zero and emitting the
    /// summary before admission finishes.
    remaining: AtomicUsize,
    errors: AtomicU64,
}

impl BatchRun {
    fn send_item(&self, item: usize, body: &str) {
        let _ = self.tx.send((
            self.base_seq + item as u64,
            finish_item_response(self.id.as_deref(), item, body),
        ));
    }

    /// Mark `k` owed item lines as sent; the runner that clears the last
    /// one emits the summary. The summary totals are stable by then: every
    /// error was added before its items were marked done.
    fn items_done(&self, k: usize) {
        if self.remaining.fetch_sub(k, Ordering::AcqRel) == k {
            let _ = self.tx.send((
                self.summary_seq,
                finish_response(
                    self.id.as_deref(),
                    &batch_summary_body(self.n_items, self.errors.load(Ordering::Acquire)),
                ),
            ));
        }
    }

    /// Settle one item that joined a flight led elsewhere (another
    /// connection, or another batch): count it, send its line, retire its
    /// owed unit. Runs as a single-flight waiter, outside any shard lock.
    fn settle_follower(&self, item: usize, shard: usize, is_tune: bool, outcome: &FlightOutcome) {
        let c = &self.shared.counters;
        match outcome {
            FlightOutcome::Ready(body) => {
                self.shared.cache.note_hit(shard);
                count_tune_cached(c, is_tune, 1);
                c.batch_hits.fetch_add(1, Ordering::Relaxed);
                c.served.fetch_add(1, Ordering::Relaxed);
                c.record_latency(self.t0, shard);
                self.send_item(item, body);
            }
            FlightOutcome::Failed(kind, detail) => {
                count_rejection(c, *kind);
                c.batch_errors.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.send_item(item, &error_body(*kind, detail));
            }
        }
        self.items_done(1);
    }

    /// Fail every item of a dedup group with one typed error, completing
    /// the group's flight so single-flight followers elsewhere inherit
    /// the same outcome (the caller has already bumped the kind-specific
    /// counter for its own items).
    fn fail_items(&self, sim: &PendingSim, kind: ErrorKind, detail: &str) {
        let k = sim.items.len();
        let c = &self.shared.counters;
        c.batch_errors.fetch_add(k as u64, Ordering::Relaxed);
        self.errors.fetch_add(k as u64, Ordering::Relaxed);
        self.shared
            .cache
            .complete(&sim.key, &FlightOutcome::Failed(kind, detail.to_owned()));
        let body = error_body(kind, detail);
        for &i in &sim.items {
            self.send_item(i, &body);
        }
        self.items_done(k);
    }

    /// Answer one deduplicated simulation: run it (or expire it), complete
    /// its flight, send every item line it owes, and retire those items.
    fn process(&self, sim: PendingSim) {
        let c = &self.shared.counters;
        let k = sim.items.len();
        if let Some(d) = self.deadline {
            if self.t0.elapsed() > d {
                c.deadline.fetch_add(k as u64, Ordering::Relaxed);
                self.fail_items(&sim, ErrorKind::Deadline, "deadline expired in queue");
                return;
            }
        }
        // Fault seams (mirrors the single-estimate job): a deadline storm
        // expires the whole dedup group; an injected panic is caught here
        // so every owed item line is still sent — the batch summary and
        // the writer's seq reassembly both depend on nothing going missing.
        if let Some(f) = &self.shared.faults {
            if f.decide(FaultSite::DeadlineStorm).is_some() {
                f.observe(FaultSite::DeadlineStorm);
                c.deadline.fetch_add(k as u64, Ordering::Relaxed);
                self.fail_items(&sim, ErrorKind::Deadline, "deadline expired in queue");
                return;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = &self.shared.faults {
                if f.decide(FaultSite::WorkerPanic).is_some() {
                    f.observe(FaultSite::WorkerPanic);
                    panic!("iconv-faults: injected worker panic");
                }
            }
            engine::evaluate(&sim.work)
        }));
        let body: Body = match outcome {
            Ok(body) => Body::from(body),
            Err(_) => {
                c.worker_crashes.fetch_add(1, Ordering::Relaxed);
                self.fail_items(&sim, ErrorKind::WorkerCrashed, "simulation worker panicked");
                return;
            }
        };
        // Completing caches the body and answers every joined follower.
        let shard = self.shared.cache.shard_of(&sim.key);
        self.shared
            .cache
            .complete(&sim.key, &FlightOutcome::Ready(Arc::clone(&body)));
        // The first item of a dedup group is the miss that paid for the
        // simulation; followers are hits by construction.
        let is_tune = matches!(sim.work, Work::Tune { .. });
        self.shared.cache.note_miss(shard);
        note_tune_search(&self.shared, is_tune, &sim.key, &body);
        c.batch_misses.fetch_add(1, Ordering::Relaxed);
        if k > 1 {
            for _ in 1..k {
                self.shared.cache.note_hit(shard);
            }
            count_tune_cached(c, is_tune, k as u64 - 1);
            c.batch_hits.fetch_add(k as u64 - 1, Ordering::Relaxed);
        }
        c.served.fetch_add(k as u64, Ordering::Relaxed);
        for _ in 0..k {
            c.record_latency(self.t0, shard);
        }
        for &i in &sim.items {
            self.send_item(i, &body);
        }
        self.items_done(k);
    }

    /// Refuse everything still pending (pool rejected the batch's runners)
    /// and account the refusals; each refused group's flight completes
    /// Failed so joined followers are not stranded.
    fn refuse_all(&self, e: PoolBusy) {
        let kind = match e {
            PoolBusy::QueueFull => ErrorKind::Busy,
            PoolBusy::ShuttingDown => ErrorKind::ShuttingDown,
        };
        let detail = e.to_string();
        let drained: Vec<PendingSim> = {
            let mut pending = self.pending.lock().expect("batch pending poisoned");
            pending.drain(..).collect()
        };
        let c = &self.shared.counters;
        for sim in drained {
            if kind == ErrorKind::Busy {
                c.busy.fetch_add(sim.items.len() as u64, Ordering::Relaxed);
            }
            self.fail_items(&sim, kind, &detail);
        }
    }
}

/// Count a follower's inherited failure against the counter its kind
/// belongs to — rejections stay out of `requests`, exactly as if the
/// follower had led the flight and failed the same way itself. Worker
/// crashes are counted once per actual panic (by the leader), and drain
/// refusals have no dedicated counter, so both fall through.
fn count_rejection(c: &Counters, kind: ErrorKind) {
    match kind {
        ErrorKind::Busy => {
            c.busy.fetch_add(1, Ordering::Relaxed);
        }
        ErrorKind::Deadline => {
            c.deadline.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
}

/// Count `n` tunes answered without running a search (cache hit, joined
/// flight, dedup follower, or tune-store hit). No-op for ordinary
/// estimates — every response-delivery point calls this with its own
/// `is_tune`, which keeps `tunes == tune_searches + tune_cached` exact.
fn count_tune_cached(c: &Counters, is_tune: bool, n: u64) {
    if is_tune && n > 0 {
        c.tunes.fetch_add(n, Ordering::Relaxed);
        c.tune_cached.fetch_add(n, Ordering::Relaxed);
    }
}

/// A freshly-led tune search succeeded: count it and remember its winner
/// in the tune store (what `"hw":"tuned"` requests consult, and what
/// `--tune-cache` persists). The body was rendered by the engine, so
/// re-parsing it cannot fail; a hypothetical mismatch only skips the store.
fn note_tune_search(shared: &Shared, is_tune: bool, tune_key: &str, body: &str) {
    if !is_tune {
        return;
    }
    shared.counters.tunes.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .tune_searches
        .fetch_add(1, Ordering::Relaxed);
    if let Ok(protocol::Response::Tune { est, .. }) =
        protocol::parse_response(&finish_response(None, body))
    {
        shared
            .tune_store
            .lock()
            .expect("tune store poisoned")
            .insert(tune_key.to_owned(), est);
    }
}

/// A batch runner: take one simulation off the batch's work list, answer
/// it, then *yield* by re-enqueueing a continuation at the back of the
/// pool FIFO so interleaved requests from other clients get a turn. If the
/// pool refuses the continuation (full queue or draining), keep going
/// inline — progress is never sacrificed to fairness.
fn run_batch_step(run: &Arc<BatchRun>) {
    loop {
        let sim = {
            let mut pending = run.pending.lock().expect("batch pending poisoned");
            pending.pop_front()
        };
        let Some(sim) = sim else { return };
        run.process(sim);
        let cont = Arc::clone(run);
        if run
            .shared
            .pool
            .try_submit(move || run_batch_step(&cont))
            .is_ok()
        {
            return;
        }
    }
}

/// Handle one request line. Returns the number of sequence numbers the
/// request consumed (== response lines it will emit): 1 for everything
/// except a well-formed `batch`, which consumes `items + 1`.
fn handle_line(line: &str, seq: u64, shared: &Arc<Shared>, tx: &Sender<(u64, String)>) -> u64 {
    let t0 = Instant::now();
    let send = |line: String| {
        let _ = tx.send((seq, line));
    };
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            send(finish_response(
                e.id.as_deref(),
                &error_body(e.kind, &e.detail),
            ));
            return 1;
        }
    };
    match req {
        Request::Ping { id } => send(finish_response(id.as_deref(), &pong_body())),
        Request::Stats { id } => {
            let body = stats_body(&shared.snapshot());
            send(finish_response(id.as_deref(), &body));
        }
        Request::Shards { id } => {
            let body = shards_body(&shared.cache.shard_stats());
            send(finish_response(id.as_deref(), &body));
        }
        Request::Shutdown { id } => {
            send(finish_response(id.as_deref(), &shutdown_body()));
            shared.request_shutdown();
        }
        Request::Estimate(req) => return handle_estimate(req, t0, seq, shared, tx),
        Request::TunedEstimate {
            id,
            shape,
            target,
            deadline_ms,
        } => return handle_tuned(id, shape, target, deadline_ms, t0, seq, shared, tx),
        Request::Batch {
            id,
            items,
            deadline_ms,
        } => return handle_batch(id, items, deadline_ms, t0, seq, shared, tx),
    }
    1
}

/// Admit and answer one estimate request (op `conv`, `gemm`, or `tune`):
/// cache fast path, single-flight admission, or a led worker job.
/// Returns the sequence span consumed (always 1).
fn handle_estimate(
    req: protocol::EstimateRequest,
    t0: Instant,
    seq: u64,
    shared: &Arc<Shared>,
    tx: &Sender<(u64, String)>,
) -> u64 {
    let send = |line: String| {
        let _ = tx.send((seq, line));
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        send(finish_response(
            req.id.as_deref(),
            &error_body(ErrorKind::ShuttingDown, "server is draining"),
        ));
        return 1;
    }
    let cache_key = canonical_key(&req.work);
    let shard = shared.cache.shard_of(&cache_key);
    let is_tune = matches!(req.work, Work::Tune { .. });
    // Hit fast path: served inline by the reader, deadline ignored
    // (a hit costs microseconds). One shard lock, pointer clone.
    if let Some(body) = shared.cache.get(&cache_key) {
        shared.cache.note_hit(shard);
        count_tune_cached(&shared.counters, is_tune, 1);
        shared.counters.served.fetch_add(1, Ordering::Relaxed);
        shared.counters.record_latency(t0, shard);
        send(finish_response(req.id.as_deref(), &body));
        return 1;
    }
    // Single-flight admission. The waiter fires if another
    // connection is already simulating this key: the follower's
    // bytes come from the cache-to-be, so it is a hit; on failure
    // it inherits the leader's typed error. A follower's own
    // deadline is moot — joining costs nothing, like a hit.
    let w_shared = Arc::clone(shared);
    let w_tx = tx.clone();
    let w_id = req.id.clone();
    let waiter = move |outcome: &FlightOutcome| {
        let line = match outcome {
            FlightOutcome::Ready(body) => {
                w_shared.cache.note_hit(shard);
                count_tune_cached(&w_shared.counters, is_tune, 1);
                w_shared.counters.served.fetch_add(1, Ordering::Relaxed);
                w_shared.counters.record_latency(t0, shard);
                finish_response(w_id.as_deref(), body)
            }
            FlightOutcome::Failed(kind, detail) => {
                count_rejection(&w_shared.counters, *kind);
                finish_response(w_id.as_deref(), &error_body(*kind, detail))
            }
        };
        let _ = w_tx.send((seq, line));
    };
    match shared.cache.admit(&cache_key, waiter) {
        Admission::Cached(body) => {
            // Raced in between the lock-free get and the admit:
            // an ordinary hit.
            shared.cache.note_hit(shard);
            count_tune_cached(&shared.counters, is_tune, 1);
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            shared.counters.record_latency(t0, shard);
            send(finish_response(req.id.as_deref(), &body));
            return 1;
        }
        Admission::Joined => return 1,
        Admission::Lead => {}
    }
    // We lead: run the one simulation. Every exit below completes
    // the flight exactly once so joined followers are answered.
    let err_id = req.id.clone();
    let job_shared = Arc::clone(shared);
    let job_tx = tx.clone();
    let job_key = cache_key.clone();
    let job = move || {
        let fail = |kind: ErrorKind, detail: &str| {
            job_shared
                .cache
                .complete(&job_key, &FlightOutcome::Failed(kind, detail.to_owned()));
            let _ = job_tx.send((
                seq,
                finish_response(req.id.as_deref(), &error_body(kind, detail)),
            ));
        };
        let deadline = req.deadline_ms.map(Duration::from_millis);
        if let Some(d) = deadline {
            if t0.elapsed() > d {
                job_shared.counters.deadline.fetch_add(1, Ordering::Relaxed);
                fail(ErrorKind::Deadline, "deadline expired in queue");
                return;
            }
        }
        // Fault seams: a deadline storm expires the request as if
        // it had aged out in the queue; an injected panic is raised
        // *inside* this catch so the typed `worker-crashed` line is
        // always emitted — a swallowed seq would wedge the writer's
        // reorder heap and hang the connection forever.
        if let Some(f) = &job_shared.faults {
            if f.decide(FaultSite::DeadlineStorm).is_some() {
                f.observe(FaultSite::DeadlineStorm);
                job_shared.counters.deadline.fetch_add(1, Ordering::Relaxed);
                fail(ErrorKind::Deadline, "deadline expired in queue");
                return;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = &job_shared.faults {
                if f.decide(FaultSite::WorkerPanic).is_some() {
                    f.observe(FaultSite::WorkerPanic);
                    panic!("iconv-faults: injected worker panic");
                }
            }
            engine::evaluate(&req.work)
        }));
        let body: Body = match outcome {
            Ok(body) => Body::from(body),
            Err(_) => {
                job_shared
                    .counters
                    .worker_crashes
                    .fetch_add(1, Ordering::Relaxed);
                fail(ErrorKind::WorkerCrashed, "simulation worker panicked");
                return;
            }
        };
        // Completing caches the body and answers every follower.
        job_shared
            .cache
            .complete(&job_key, &FlightOutcome::Ready(Arc::clone(&body)));
        job_shared.cache.note_miss(shard);
        note_tune_search(&job_shared, is_tune, &job_key, &body);
        job_shared.counters.served.fetch_add(1, Ordering::Relaxed);
        job_shared.counters.record_latency(t0, shard);
        let _ = job_tx.send((seq, finish_response(req.id.as_deref(), &body)));
    };
    if let Err(e) = shared.pool.try_submit(job) {
        let kind = match e {
            PoolBusy::QueueFull => {
                shared.counters.busy.fetch_add(1, Ordering::Relaxed);
                ErrorKind::Busy
            }
            PoolBusy::ShuttingDown => ErrorKind::ShuttingDown,
        };
        // The refused leader still owes the flight its completion
        // (a follower may have joined between admit and here).
        shared
            .cache
            .complete(&cache_key, &FlightOutcome::Failed(kind, e.to_string()));
        send(finish_response(
            err_id.as_deref(),
            &error_body(kind, &e.to_string()),
        ));
    }
    1
}

/// Answer a `conv` spelled `"hw":"tuned"`: resolve the layer's tuned
/// configuration — from the tune store when the layer has been tuned
/// before, otherwise by running the design-space search on a worker — and
/// then estimate the layer under the winning concrete config. The resolve
/// contributes one tune-ledger bump (`tune_cached` on a store hit,
/// `tune_searches` when the search ran) and nothing to `hits`/`misses`;
/// the concrete estimate is an ordinary hit-or-miss request, so
/// `hits + misses == requests` is preserved. Returns the sequence span
/// consumed (always 1).
#[allow(clippy::too_many_arguments)]
fn handle_tuned(
    id: Option<String>,
    shape: iconv_tensor::ConvShape,
    target: protocol::TuneTarget,
    deadline_ms: Option<u64>,
    t0: Instant,
    seq: u64,
    shared: &Arc<Shared>,
    tx: &Sender<(u64, String)>,
) -> u64 {
    let send = |line: String| {
        let _ = tx.send((seq, line));
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        send(finish_response(
            id.as_deref(),
            &error_body(ErrorKind::ShuttingDown, "server is draining"),
        ));
        return 1;
    }
    let tune_key = canonical_key(&Work::Tune { shape, target });
    // Store fast path: the layer has been tuned before (this boot, or a
    // warm-loaded cache file). Delegating to `handle_estimate` gives the
    // concrete work the full ordinary treatment — cache, single-flight,
    // deadline — under its own canonical key.
    let stored = shared
        .tune_store
        .lock()
        .expect("tune store poisoned")
        .get(&tune_key)
        .copied();
    if let Some(est) = stored {
        count_tune_cached(&shared.counters, true, 1);
        return handle_estimate(
            protocol::EstimateRequest {
                id,
                work: est.best.to_work(shape),
                deadline_ms,
            },
            t0,
            seq,
            shared,
            tx,
        );
    }
    // Store miss: run the search plus the winner's estimate as one worker
    // job. No single-flight admission here — the tune store dedups
    // repeats, and concurrent first-tuners at worst race two identical
    // searches whose byte-identical results collapse in store and cache.
    let err_id = id.clone();
    let job_shared = Arc::clone(shared);
    let job_tx = tx.clone();
    let job = move || {
        let send = |line: String| {
            let _ = job_tx.send((seq, line));
        };
        if let Some(d) = deadline_ms.map(Duration::from_millis) {
            if t0.elapsed() > d {
                job_shared.counters.deadline.fetch_add(1, Ordering::Relaxed);
                send(finish_response(
                    id.as_deref(),
                    &error_body(ErrorKind::Deadline, "deadline expired in queue"),
                ));
                return;
            }
        }
        if let Some(f) = &job_shared.faults {
            if f.decide(FaultSite::DeadlineStorm).is_some() {
                f.observe(FaultSite::DeadlineStorm);
                job_shared.counters.deadline.fetch_add(1, Ordering::Relaxed);
                send(finish_response(
                    id.as_deref(),
                    &error_body(ErrorKind::Deadline, "deadline expired in queue"),
                ));
                return;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = &job_shared.faults {
                if f.decide(FaultSite::WorkerPanic).is_some() {
                    f.observe(FaultSite::WorkerPanic);
                    panic!("iconv-faults: injected worker panic");
                }
            }
            let est = iconv_tune::tune(
                &iconv_tune::InProcessSource::new(),
                &shape,
                target,
                &iconv_tune::TuneOptions::default(),
            );
            let concrete = est.best.to_work(shape);
            let concrete_key = canonical_key(&concrete);
            let cached = job_shared.cache.get(&concrete_key);
            let hit = cached.is_some();
            let body = cached.unwrap_or_else(|| Body::from(engine::evaluate(&concrete)));
            (est, concrete_key, body, hit)
        }));
        let (est, concrete_key, body, hit) = match outcome {
            Ok(v) => v,
            Err(_) => {
                job_shared
                    .counters
                    .worker_crashes
                    .fetch_add(1, Ordering::Relaxed);
                send(finish_response(
                    id.as_deref(),
                    &error_body(ErrorKind::WorkerCrashed, "simulation worker panicked"),
                ));
                return;
            }
        };
        // The search ran: one tune-ledger bump, and the result is made
        // durable (tune store) and hot (striped cache under the tune key)
        // so the next asker — `tune` op or `"hw":"tuned"` — is a hit.
        let c = &job_shared.counters;
        c.tunes.fetch_add(1, Ordering::Relaxed);
        c.tune_searches.fetch_add(1, Ordering::Relaxed);
        job_shared
            .cache
            .insert(tune_key.clone(), Body::from(protocol::tune_body(&est)));
        job_shared
            .tune_store
            .lock()
            .expect("tune store poisoned")
            .insert(tune_key, est);
        // The winner's concrete estimate is an ordinary hit-or-miss on its
        // own canonical key.
        let shard = job_shared.cache.shard_of(&concrete_key);
        if hit {
            job_shared.cache.note_hit(shard);
        } else {
            job_shared.cache.insert(concrete_key, Arc::clone(&body));
            job_shared.cache.note_miss(shard);
        }
        c.served.fetch_add(1, Ordering::Relaxed);
        c.record_latency(t0, shard);
        send(finish_response(id.as_deref(), &body));
    };
    if let Err(e) = shared.pool.try_submit(job) {
        let kind = match e {
            PoolBusy::QueueFull => {
                shared.counters.busy.fetch_add(1, Ordering::Relaxed);
                ErrorKind::Busy
            }
            PoolBusy::ShuttingDown => ErrorKind::ShuttingDown,
        };
        send(finish_response(
            err_id.as_deref(),
            &error_body(kind, &e.to_string()),
        ));
    }
    1
}

/// Admit and drive one batch (see the module-level *Batch execution*
/// notes). Returns the sequence-number span it consumed: `items + 1`.
fn handle_batch(
    id: Option<String>,
    items: Vec<Work>,
    deadline_ms: Option<u64>,
    t0: Instant,
    seq: u64,
    shared: &Arc<Shared>,
    tx: &Sender<(u64, String)>,
) -> u64 {
    let n = items.len();
    let span = n as u64 + 1;
    let send_at = |s: u64, line: String| {
        let _ = tx.send((s, line));
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        let body = error_body(ErrorKind::ShuttingDown, "server is draining");
        for i in 0..n {
            send_at(
                seq + i as u64,
                finish_item_response(id.as_deref(), i, &body),
            );
        }
        send_at(
            seq + n as u64,
            finish_response(id.as_deref(), &batch_summary_body(n as u64, n as u64)),
        );
        return span;
    }
    let c = &shared.counters;
    c.batches.fetch_add(1, Ordering::Relaxed);
    c.batch_items.fetch_add(n as u64, Ordering::Relaxed);
    let run = Arc::new(BatchRun {
        shared: Arc::clone(shared),
        tx: tx.clone(),
        id,
        deadline: deadline_ms.map(Duration::from_millis),
        t0,
        n_items: n as u64,
        base_seq: seq,
        summary_seq: seq + n as u64,
        pending: Mutex::new(VecDeque::new()),
        // The sentinel unit: held by this admission pass, released after
        // the work list is published (see the field docs).
        remaining: AtomicUsize::new(1),
        errors: AtomicU64::new(0),
    });
    // Per-item cache pass: hits are answered inline without a worker
    // slot; keys already in flight (led by another connection or batch)
    // are joined; the rest dedup onto one PendingSim per canonical key.
    // The work list stays local until the pass ends — no runner is
    // draining it, so dedup slot indices stay valid.
    let mut pending: VecDeque<PendingSim> = VecDeque::new();
    let mut dedup: BTreeMap<String, usize> = BTreeMap::new();
    for (i, work) in items.into_iter().enumerate() {
        let cache_key = canonical_key(&work);
        let shard = shared.cache.shard_of(&cache_key);
        let is_tune = matches!(work, Work::Tune { .. });
        if let Some(body) = shared.cache.get(&cache_key) {
            shared.cache.note_hit(shard);
            count_tune_cached(c, is_tune, 1);
            c.batch_hits.fetch_add(1, Ordering::Relaxed);
            c.served.fetch_add(1, Ordering::Relaxed);
            c.record_latency(t0, shard);
            run.send_item(i, &body);
            continue;
        }
        if let Some(&slot) = dedup.get(&cache_key) {
            // Intra-batch duplicate of a key this batch will lead.
            pending[slot].items.push(i);
            run.remaining.fetch_add(1, Ordering::AcqRel);
            continue;
        }
        // Claim the owed unit *before* admitting: a joined waiter may
        // fire the instant `admit` returns, and must find its own unit
        // already in the count.
        run.remaining.fetch_add(1, Ordering::AcqRel);
        let w_run = Arc::clone(&run);
        match shared.cache.admit(&cache_key, move |o| {
            w_run.settle_follower(i, shard, is_tune, o)
        }) {
            Admission::Cached(body) => {
                // Raced in since the lock-free get: an ordinary hit. Give
                // the claimed unit back (the sentinel keeps this from
                // emitting the summary early).
                shared.cache.note_hit(shard);
                count_tune_cached(c, is_tune, 1);
                c.batch_hits.fetch_add(1, Ordering::Relaxed);
                c.served.fetch_add(1, Ordering::Relaxed);
                c.record_latency(t0, shard);
                run.send_item(i, &body);
                run.items_done(1);
            }
            Admission::Joined => {}
            Admission::Lead => {
                dedup.insert(cache_key.clone(), pending.len());
                pending.push_back(PendingSim {
                    work,
                    key: cache_key,
                    items: vec![i],
                });
            }
        }
    }
    let owed_sims = pending.len();
    *run.pending.lock().expect("batch pending poisoned") = pending;
    if owed_sims > 0 {
        let runners = shared.batch_chunk.min(owed_sims).max(1);
        let jobs: Vec<Job> = (0..runners)
            .map(|_| {
                let run = Arc::clone(&run);
                Box::new(move || run_batch_step(&run)) as Job
            })
            .collect();
        if let Err(batch_err) = shared.pool.try_submit_batch(jobs) {
            // The whole chunk did not fit; a single runner still makes
            // the batch progress (slower, but admitted).
            let single = Arc::clone(&run);
            if shared
                .pool
                .try_submit(move || run_batch_step(&single))
                .is_err()
            {
                run.refuse_all(batch_err);
            }
        }
    }
    // Release the sentinel; if every item settled inline (all hits, or
    // fast joins already completed), this emits the summary.
    run.items_done(1);
    span
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strict request/response lockstep: each line is answered before the
    /// next is sent, so a repeated request is guaranteed to see the cache
    /// entry its predecessor created.
    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        lines
            .iter()
            .map(|l| {
                writeln!(stream, "{l}").unwrap();
                let mut resp = String::new();
                reader.read_line(&mut resp).unwrap();
                resp.trim_end().to_owned()
            })
            .collect()
    }

    #[test]
    fn ping_stats_and_graceful_shutdown() {
        let h = spawn(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = h.local_addr();
        let out = roundtrip(
            addr,
            &[
                r#"{"id":"p","op":"ping"}"#,
                r#"{"op":"conv","layer":{"n":1,"ci":64,"hi":14,"wi":14,"co":64,"hf":3,"wf":3,"pad":1}}"#,
                r#"{"op":"conv","layer":{"n":1,"ci":64,"hi":14,"wi":14,"co":64,"hf":3,"wf":3,"pad":1}}"#,
                r#"{"op":"stats"}"#,
            ],
        );
        assert!(out[0].contains("\"id\":\"p\""), "{}", out[0]);
        assert!(out[0].contains("\"pong\":true"));
        assert_eq!(out[1], out[2], "cache replay must be byte-identical");
        let stats = match protocol::parse_response(&out[3]).unwrap() {
            protocol::Response::Stats { stats, .. } => stats,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hits + stats.misses, stats.requests);
        assert_eq!(stats.hits, 1);
        let final_stats = h.shutdown();
        assert_eq!(final_stats.requests, 2);
    }

    #[test]
    fn malformed_lines_get_typed_errors_not_disconnects() {
        let h = spawn(ServerConfig::default()).unwrap();
        let out = roundtrip(
            h.local_addr(),
            &[
                "{not json",
                r#"{"op":"warp"}"#,
                r#"{"id":"still-alive","op":"ping"}"#,
            ],
        );
        assert!(out[0].contains("\"error\":\"parse\""), "{}", out[0]);
        assert!(out[1].contains("\"error\":\"bad-request\""), "{}", out[1]);
        assert!(out[2].contains("\"pong\":true"), "{}", out[2]);
        let stats = h.shutdown();
        assert_eq!(stats.parse_errors, 2);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn batch_streams_items_in_order_and_dedups() {
        let h = spawn(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(h.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Items 0 and 2 are the same canonical work: one simulation, the
        // follower answered as a hit.
        writeln!(
            stream,
            "{}",
            concat!(
                r#"{"id":"b","op":"batch","items":["#,
                r#"{"op":"gemm","m":64,"n":64,"k":64},"#,
                r#"{"op":"gemm","m":96,"n":96,"k":96},"#,
                r#"{"op":"gemm","m":64,"n":64,"k":64}]}"#
            )
        )
        .unwrap();
        let mut lines = Vec::new();
        for _ in 0..4 {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_owned());
        }
        for (i, line) in lines.iter().take(3).enumerate() {
            assert!(line.contains(&format!("\"item\":{i},")), "{line}");
            assert!(line.contains("\"id\":\"b\""), "{line}");
        }
        assert_eq!(
            lines[0].replace("\"item\":0,", ""),
            lines[2].replace("\"item\":2,", ""),
            "deduped items must be byte-identical modulo the item tag"
        );
        assert!(
            lines[3].contains("\"batch\":{\"items\":3,\"errors\":0}"),
            "{}",
            lines[3]
        );
        let stats = h.shutdown();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_items, 3);
        assert_eq!(stats.batch_misses, 2);
        assert_eq!(stats.batch_hits, 1);
        assert_eq!(stats.batch_errors, 0);
        assert_eq!(stats.hits + stats.misses, stats.requests);
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn shutdown_op_drains_and_refuses() {
        let h = spawn(ServerConfig::default()).unwrap();
        let addr = h.local_addr();
        let out = roundtrip(
            addr,
            &[
                r#"{"op":"gemm","m":256,"n":256,"k":256}"#,
                r#"{"op":"shutdown"}"#,
                r#"{"op":"gemm","m":512,"n":512,"k":512}"#,
            ],
        );
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert!(out[1].contains("\"shutdown\":true"), "{}", out[1]);
        assert!(out[2].contains("shutting-down"), "{}", out[2]);
        h.wait_shutdown_requested();
        h.shutdown();
    }
}
