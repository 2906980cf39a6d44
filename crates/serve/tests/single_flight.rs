//! Single-flight regression: two connections missing the same key at the
//! same time must run **one** simulation — the second caller joins the
//! first's flight and is counted as a hit. Before single-flight, this
//! exact shape (a popular key arriving on N connections while cold)
//! simulated N times and counted N misses: the thundering-herd form of
//! the cache-lock bottleneck.
//!
//! The race is made deterministic with a runway: a single-worker server
//! is first loaded with a large batch of *distinct* heavy layers on a
//! third connection, so the racing key's leader job sits in the queue —
//! still in flight — while the second connection admits and joins.

use iconv_api::table::workload_works;
use iconv_serve::protocol::{encode_batch, encode_estimate};
use iconv_serve::{spawn, Client, EstimateRequest, ServerConfig, Work, DEFAULT_CONNECT_TIMEOUT};
use iconv_tensor::ConvShape;
use iconv_tpusim::SimMode;

/// The racing request: a layer that is *not* in the workload table, so
/// the runway batch can never have cached it.
fn racing_work() -> Work {
    let shape = ConvShape::new(1, 96, 31, 31, 96, 3, 3)
        .stride(1)
        .pad(1)
        .build()
        .expect("buildable shape");
    Work::TpuConv {
        shape,
        mode: SimMode::ChannelFirst,
        hw: iconv_serve::TpuHwSpec::default(),
    }
}

#[test]
fn concurrent_misses_of_one_key_simulate_once() {
    let handle = spawn(ServerConfig {
        workers: 1,
        cache_capacity: 4096,
        ..ServerConfig::default()
    })
    .expect("spawn serve");
    let addr = handle.local_addr().to_string();

    // Runway: every distinct layer of the paper's workload table (deduped
    // by canonical key, so each is exactly one miss), pipelined as one
    // batch and left unread. The single worker grinds through these while
    // the race below happens at connection-handler speed.
    let mut seen = std::collections::HashSet::new();
    let runway: Vec<Work> = workload_works(false)
        .into_iter()
        .filter(|w| seen.insert(iconv_api::canonical_key(w)))
        .collect();
    assert!(runway.len() >= 32, "runway too short to be convincing");
    let mut loader = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    loader
        .send_line(&encode_batch(None, &runway, None))
        .expect("send runway");
    loader.flush().expect("flush runway");

    // The race: the same uncached key from two connections. Connection A's
    // handler admits as leader and queues the job behind the runway;
    // connection B's handler then finds the flight open and joins it.
    let line = encode_estimate(&EstimateRequest {
        id: None,
        work: racing_work(),
        deadline_ms: None,
    });
    let mut a = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    let mut b = Client::connect_retry(&addr, DEFAULT_CONNECT_TIMEOUT).expect("connect");
    a.send_line(&line).expect("send a");
    a.flush().expect("flush a");
    b.send_line(&line).expect("send b");
    b.flush().expect("flush b");

    let ra = a.recv_line().expect("a answered");
    let rb = b.recv_line().expect("b answered");
    assert_eq!(ra, rb, "joiner must read the leader's exact bytes");
    assert!(ra.contains("\"ok\":true"), "the race must succeed: {ra}");

    // Drain the runway so shutdown sees a quiet server.
    for _ in 0..=runway.len() {
        loader.recv_line().expect("runway item");
    }

    let stats = handle.shutdown();
    // The runway's layers are distinct so each is a miss; the racing key
    // must add exactly ONE more miss (the leader) and ONE hit (the joiner).
    // Without single-flight this reads misses == runway + 2, hits == 0.
    let runway_n = runway.len() as u64;
    assert_eq!(
        stats.misses,
        runway_n + 1,
        "exactly one simulation for the racing key"
    );
    assert_eq!(stats.hits, 1, "the second caller counts as a hit");
    assert_eq!(
        stats.requests,
        runway_n + 2,
        "2 estimate requests + {runway_n} batch items served"
    );
    assert_eq!(
        stats.hits + stats.misses,
        stats.requests,
        "every served request hit or missed — the ledger is conserved"
    );
}
