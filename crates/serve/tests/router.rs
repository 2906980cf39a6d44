//! Router end-to-end: a `routed` front-end over a fleet of in-process
//! `served` backends must be observationally identical to one big server —
//! byte-identical responses for estimates and batches, a merged `stats`
//! ledger, renumbered fleet-wide `shards` — and must keep answering
//! (by failing over along the ring) when a backend dies mid-run.

use std::collections::HashSet;
use std::time::Duration;

use iconv_api::table::workload_works;
use iconv_serve::client::RetryPolicy;
use iconv_serve::protocol::{encode_batch, encode_estimate, encode_simple};
use iconv_serve::router::{spawn_router, RouterConfig, RouterHandle};
use iconv_serve::{
    spawn, Client, EstimateRequest, Response, ServerConfig, ServerHandle, Work,
    DEFAULT_CONNECT_TIMEOUT,
};

fn fleet(n: usize) -> (Vec<ServerHandle>, RouterHandle) {
    let backends: Vec<ServerHandle> = (0..n)
        .map(|_| spawn(ServerConfig::default()).expect("spawn backend"))
        .collect();
    let router = spawn_router(RouterConfig {
        backends: backends
            .iter()
            .map(|h| h.local_addr().to_string())
            .collect(),
        breaker_threshold: 2,
        breaker_backoff: RetryPolicy {
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
        health_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("spawn router");
    (backends, router)
}

/// The paper workload, deduped by canonical key and truncated — enough
/// keys to land on every backend, small enough to keep the test quick.
fn works(n: usize) -> Vec<Work> {
    let mut seen = HashSet::new();
    workload_works(true)
        .into_iter()
        .filter(|w| seen.insert(iconv_api::canonical_key(w)))
        .take(n)
        .collect()
}

/// Replay `works` as id-tagged estimates on one connection, returning the
/// raw response lines.
fn replay_estimates(addr: &str, works: &[Work]) -> Vec<String> {
    let mut c = Client::connect_retry(addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    works
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let line = encode_estimate(&EstimateRequest {
                id: Some(format!("req-{i}")),
                work: *w,
                deadline_ms: None,
            });
            c.send_line(&line).expect("send");
            c.flush().expect("flush");
            c.recv_line().expect("recv")
        })
        .collect()
}

/// Replay `works` as one id-tagged batch, returning every line (items in
/// order plus the summary).
fn replay_batch(addr: &str, works: &[Work]) -> Vec<String> {
    let mut c = Client::connect_retry(addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    c.send_line(&encode_batch(Some("b-1"), works, None))
        .expect("send");
    c.flush().expect("flush");
    (0..=works.len())
        .map(|_| c.recv_line().expect("recv"))
        .collect()
}

#[test]
fn routed_fleet_is_byte_identical_to_one_server() {
    let works = works(40);

    // Reference: one plain server, straight replay.
    let reference = spawn(ServerConfig::default()).expect("spawn reference");
    let ref_addr = reference.local_addr().to_string();
    let want_est = replay_estimates(&ref_addr, &works);
    let want_batch = replay_batch(&ref_addr, &works);
    reference.shutdown();

    // Via the router over 3 backends: same bytes, estimate and batch.
    let (backends, router) = fleet(3);
    let addr = router.local_addr().to_string();
    assert_eq!(replay_estimates(&addr, &works), want_est);
    assert_eq!(replay_batch(&addr, &works), want_batch);

    // A batch of duplicated keys dedups per backend and still reassembles
    // in client order (every response identical per duplicated key).
    let dup: Vec<Work> = works
        .iter()
        .cycle()
        .take(works.len() * 2)
        .copied()
        .collect();
    let dup_lines = replay_batch(&addr, &dup);
    let ref2 = spawn(ServerConfig::default()).expect("spawn reference");
    let want_dup = replay_batch(&ref2.local_addr().to_string(), &dup);
    ref2.shutdown();
    assert_eq!(dup_lines, want_dup);

    // Every backend saw some share of the keys: affinity spreads the
    // space, it does not funnel everything to one backend.
    let stats = router.stats();
    assert!(stats.forwarded > 0);
    assert_eq!(stats.failovers, 0, "healthy fleet never fails over");
    assert_eq!(stats.unrouted, 0);
    let mut touched = 0;
    for b in &backends {
        let mut c = Client::connect_retry(&b.local_addr().to_string(), DEFAULT_CONNECT_TIMEOUT)
            .expect("connect backend");
        let s = c.stats().expect("backend stats");
        if s.requests > 0 {
            touched += 1;
        }
    }
    assert_eq!(touched, 3, "all 3 backends took traffic");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn stats_and_shards_aggregate_the_fleet() {
    let works = works(24);
    let (backends, router) = fleet(3);
    let addr = router.local_addr().to_string();
    let _ = replay_estimates(&addr, &works);
    let _ = replay_estimates(&addr, &works); // warm pass: all hits

    let mut c = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let merged = c.stats().expect("merged stats");
    assert_eq!(merged.requests, works.len() as u64 * 2);
    assert_eq!(
        merged.misses,
        works.len() as u64,
        "cold pass missed once each"
    );
    assert_eq!(merged.hits, works.len() as u64, "warm pass all hits");
    assert_eq!(merged.hits + merged.misses, merged.requests);

    // The fleet's shards concatenate with sequential ids, and their
    // hit/miss sums equal the merged globals (per-shard sum == global,
    // across processes).
    let shards = c.shards().expect("fleet shards");
    let per_backend = iconv_serve::StripedCache::DEFAULT_SHARDS;
    assert_eq!(shards.len(), per_backend * backends.len());
    for (k, s) in shards.iter().enumerate() {
        assert_eq!(s.shard, k as u64, "renumbered sequentially");
    }
    let shard_hits: u64 = shards.iter().map(|s| s.hits).sum();
    let shard_misses: u64 = shards.iter().map(|s| s.misses).sum();
    assert_eq!(shard_hits, merged.hits);
    assert_eq!(shard_misses, merged.misses);

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn losing_a_backend_fails_over_and_keeps_answers_identical() {
    let works = works(30);

    let reference = spawn(ServerConfig::default()).expect("spawn reference");
    let want = replay_estimates(&reference.local_addr().to_string(), &works);
    reference.shutdown();

    let (mut backends, router) = fleet(3);
    let addr = router.local_addr().to_string();
    assert_eq!(replay_estimates(&addr, &works), want, "healthy fleet");

    // Kill one backend mid-run: its keys re-route along the ring; the
    // answers must not change by a byte (the survivors re-simulate cold).
    backends.remove(1).shutdown();
    assert_eq!(replay_estimates(&addr, &works), want, "degraded fleet");
    let stats = router.stats();
    assert!(
        stats.failovers > 0,
        "the dead backend's keys re-routed: {stats:?}"
    );
    assert_eq!(stats.unrouted, 0, "no request went unanswered");

    // The whole fleet down: the router answers with a typed busy error
    // instead of hanging or disconnecting.
    for b in backends.drain(..) {
        b.shutdown();
    }
    // Let the health loop trip the remaining breakers so the error path is
    // fast and deterministic.
    std::thread::sleep(Duration::from_millis(300));
    let mut c = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let line = encode_estimate(&EstimateRequest {
        id: Some("orphan".to_owned()),
        work: works[0],
        deadline_ms: None,
    });
    match c.call(&line) {
        Ok(Response::Error { kind, .. }) => {
            assert_eq!(
                kind,
                iconv_serve::ErrorKind::Busy,
                "typed, retryable refusal"
            );
        }
        other => panic!("expected a busy error with no backends, got {other:?}"),
    }
    // Local ops still answer.
    let pong = c.call(&encode_simple("ping", Some("p"))).expect("ping");
    assert!(matches!(pong, Response::Pong { .. }));

    router.shutdown();
}
