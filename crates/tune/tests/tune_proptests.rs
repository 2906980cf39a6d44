//! Property tests for the tuner and its persistent cache.
//!
//! * **Determinism** — one `TuneKey` has one answer: for any shape and
//!   target, every `batch_chunk` measurement chunking returns a
//!   `TuneEstimate` whose rendered `tune_body` is byte-identical to the
//!   unchunked reference, and `tune_all` over any worker count returns
//!   exactly the per-pair `tune` answers, in input order. This is the
//!   invariant that lets a tune be cached, single-flighted, and
//!   fleet-routed like any other estimate.
//! * **Persistence** — `to_json`/`from_json` is the identity, and corrupt
//!   input (truncations, byte flips) is rejected with an error, never a
//!   panic.
//!
//! Runs under the offline `proptest` shim: deterministic seed, no
//! shrinking — a failing case prints its inputs via the assertion message.

use proptest::prelude::*;

use iconv_api::proto::tune_body;
use iconv_api::{TpuChip, TuneTarget};
use iconv_tensor::ConvShape;
use iconv_tune::{tune, tune_all, tune_key, InProcessSource, TuneCache, TuneOptions};

/// Small-but-varied valid conv shapes (the tuner measures dozens of
/// candidates per case, so keep each simulation cheap).
fn shape_strategy() -> impl proptest::strategy::Strategy<Value = ConvShape> {
    (
        (1usize..=4, 1usize..=64, 4usize..=20),
        (1usize..=64, 1usize..=5),
        (1usize..=2, 0usize..=2),
    )
        .prop_filter_map("buildable shape", |((n, ci, hw_dim), (co, f), (s, p))| {
            ConvShape::new(n, ci, hw_dim, hw_dim, co, f, f)
                .stride(s)
                .pad(p)
                .build()
                .ok()
        })
}

fn target_strategy() -> impl proptest::strategy::Strategy<Value = TuneTarget> {
    prop::sample::select(vec![
        TuneTarget::Tpu { chip: TpuChip::V2 },
        TuneTarget::Tpu { chip: TpuChip::V3 },
        TuneTarget::Gpu,
    ])
}

/// One entry of a sweep list: which of two shapes, and a target. Six
/// draws over two shapes always repeat a shape, and often a whole pair.
fn pick() -> impl proptest::strategy::Strategy<Value = (usize, TuneTarget)> {
    (0usize..2, target_strategy())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same key, same answer: the measurement chunking never changes a
    /// tune result, byte for byte.
    #[test]
    fn tune_is_deterministic_across_chunking(
        shape in shape_strategy(),
        target in target_strategy(),
        batch_chunk in 1usize..12,
    ) {
        let src = InProcessSource::new();
        let reference = tune(&src, &shape, target, &TuneOptions { batch_chunk: 1 });
        let got = tune(&src, &shape, target, &TuneOptions { batch_chunk });
        prop_assert_eq!(got, reference);
        prop_assert_eq!(tune_body(&got), tune_body(&reference));
        prop_assert!(got.tuned_cycles <= got.default_cycles);
    }

    /// The worker count never changes a sweep: `tune_all` returns exactly
    /// the per-pair `tune` answers, element by element and byte for byte,
    /// with repeated shapes and mixed targets in the list.
    #[test]
    fn tune_all_matches_per_pair_tune_for_any_jobs(
        a in shape_strategy(),
        b in shape_strategy(),
        picks in (pick(), pick(), pick(), pick(), pick(), pick()),
        len in 1usize..=6,
        jobs in 1usize..6,
    ) {
        let src = InProcessSource::new();
        let shapes = [a, b];
        let picks = [picks.0, picks.1, picks.2, picks.3, picks.4, picks.5];
        let pairs: Vec<_> = picks[..len]
            .iter()
            .map(|&(i, target)| (shapes[i], target))
            .collect();
        let got = tune_all(&src, jobs, &pairs);
        prop_assert_eq!(got.len(), pairs.len());
        for ((shape, target), est) in pairs.iter().zip(&got) {
            let want = tune(&src, shape, *target, &TuneOptions::default());
            prop_assert_eq!(*est, want, "jobs {} shape {:?} target {:?}", jobs, shape, target);
            prop_assert_eq!(tune_body(est), tune_body(&want));
        }
    }

    /// The JSON rendering round-trips exactly, and its rendering is a
    /// fixed point (so save/load/save is stable on disk).
    #[test]
    fn cache_json_round_trip_is_identity(
        a in shape_strategy(),
        b in shape_strategy(),
        target in target_strategy(),
    ) {
        let src = InProcessSource::new();
        let mut cache = TuneCache::new();
        for shape in [&a, &b] {
            let est = tune(&src, shape, target, &TuneOptions::default());
            cache.insert(tune_key(shape, target), est);
        }
        let text = cache.to_json();
        let back = TuneCache::from_json(&text);
        prop_assert!(back.is_ok(), "{:?}", back.err());
        let back = back.unwrap();
        prop_assert_eq!(&back, &cache);
        prop_assert_eq!(back.to_json(), text);
    }

    /// Corrupting a valid document never panics the parser: truncations
    /// are always rejected, byte flips either reparse or error.
    #[test]
    fn corrupted_cache_files_are_rejected_without_panic(
        shape in shape_strategy(),
        target in target_strategy(),
        cut_frac in 0.01f64..0.99,
        flip_frac in 0.0f64..1.0,
        flip_byte in 0u8..=255,
    ) {
        let src = InProcessSource::new();
        let mut cache = TuneCache::new();
        cache.insert(tune_key(&shape, target), tune(&src, &shape, target, &TuneOptions::default()));
        let text = cache.to_json();

        // Truncation strictly inside the document can never be valid.
        let cut = ((text.len() as f64 * cut_frac) as usize).clamp(1, text.len() - 1);
        let truncated = &text[..cut];
        if truncated.is_empty() || std::str::from_utf8(truncated.as_bytes()).is_ok() {
            prop_assert!(TuneCache::from_json(truncated).is_err(), "cut {}", cut);
        }

        // A flipped byte must be handled — Ok only if it still denotes a
        // well-formed cache, and in no case a panic.
        let mut bytes = text.clone().into_bytes();
        let at = ((bytes.len() as f64 * flip_frac) as usize).min(bytes.len() - 1);
        bytes[at] = flip_byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            let _ = TuneCache::from_json(&mutated);
        }
    }
}
