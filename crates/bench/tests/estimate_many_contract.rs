//! The `estimate_many` contract: every implementation must return exactly
//! the values the per-item default loop returns, in input order — u64
//! cycles equal, GPU f64 cycles *bit*-equal. This pins the `ServeSource`
//! batch override against both the in-process source and the default loop
//! running over the same server, including a mixed cache state where a
//! pre-warmed slice interleaves hits between cold misses.

use iconv_api::table::workload_works;
use iconv_api::Work;
use iconv_bench::serve_source::ServeSource;
use iconv_serve::{spawn, ServerConfig};
use iconv_tune::{CycleCount, CycleSource, InProcessSource};

fn assert_bit_identical(got: &[CycleCount], want: &[CycleCount], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (CycleCount::Tpu(g), CycleCount::Tpu(w)) => {
                assert_eq!(g, w, "{ctx}: TPU item {i}");
            }
            (CycleCount::Gpu(g), CycleCount::Gpu(w)) => {
                assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: GPU item {i} ({g} vs {w})");
            }
            other => panic!("{ctx}: item {i} engine mismatch: {other:?}"),
        }
    }
}

/// A serve-backed source that deliberately does NOT override
/// `estimate_many`: it inherits the trait's default per-item loop, which
/// is the baseline the batched wire path must reproduce.
struct LoopedServe<'a>(&'a ServeSource);

impl CycleSource for LoopedServe<'_> {
    fn estimate(&self, work: &Work) -> CycleCount {
        self.0.estimate(work)
    }
}

#[test]
fn batched_estimate_many_matches_the_default_loop() {
    let works = workload_works(false);
    assert!(works.len() > 100, "workload table suspiciously small");
    let local = InProcessSource::new();
    let expected = local.estimate_many(2, &works);

    let handle = spawn(ServerConfig::default()).expect("spawn serve");
    let addr = handle.local_addr().to_string();
    let src = ServeSource::connect(&addr).expect("connect");

    // Pre-warm the middle third so the full-table batch interleaves cache
    // hits (answered inline by the reader) between cold misses.
    let third = works.len() / 3;
    let warm = &works[third..2 * third];
    let warmed = src.estimate_many(4, warm);
    assert_bit_identical(&warmed, &expected[third..2 * third], "warm slice");

    // The batched path over the mixed hit/miss table...
    let batched = src.estimate_many(4, &works);
    assert_bit_identical(&batched, &expected, "batched vs in-process");

    // ...must agree with the default loop issuing one request per item
    // against the very same (now fully warm) server.
    let looped = LoopedServe(&src).estimate_many(1, &works);
    assert_bit_identical(&looped, &expected, "default loop vs in-process");

    let stats = src.stats();
    drop(src);
    handle.shutdown();
    assert!(stats.batches >= 2, "both estimate_many calls must batch");
    assert!(
        stats.batch_hits >= warm.len() as u64,
        "pre-warmed items must come back as batch hits"
    );
    assert_eq!(
        stats.batch_hits + stats.batch_misses + stats.batch_errors,
        stats.batch_items,
        "batch counters must partition the batch item count"
    );
    assert_eq!(stats.batch_errors, 0);
    assert_eq!(
        stats.hits + stats.misses,
        stats.requests,
        "global counters must absorb batch items exactly"
    );
}
