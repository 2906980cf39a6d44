//! Property tests for value identity: a work's [`Canonical`] value and its
//! cache key agree on which works are the same simulation.
//!
//! * **Identity** — over every candidate of every target's grid, under
//!   every conv pass, on random shapes (strides, dilation, asymmetric
//!   pad): `Canonical::new(a) == Canonical::new(b)` exactly when
//!   `canonical_key(a) == canonical_key(b)`, and equal values measure
//!   equal cycles, so dropping one of them loses nothing. Shapes one field
//!   apart never share a key.
//! * **Pruning** — `tune` keeps, prunes and picks exactly what a search
//!   that dedups by rendered key strings does.
//!
//! Runs under the offline `proptest` shim: deterministic seed, no
//! shrinking — a failing case prints its inputs via the assertion message.

use std::collections::BTreeSet;

use proptest::prelude::*;

use iconv_api::{canonical_key, Canonical, TunedConfig, Work};
use iconv_core::ALL_PASSES;
use iconv_tensor::ConvShape;
use iconv_tune::{
    candidates, tune, CycleCount, CycleSource, InProcessSource, TuneOptions, TuneTarget,
    ALL_TARGETS,
};

/// A valid shape from its fields, in `ConvShape` order with the trailing
/// pads last: n, ci, hi, wi, co, hf, wf, sh, sw, ph, pw, dh, dw, phe, pwe.
fn build(p: [usize; 15]) -> Option<ConvShape> {
    ConvShape::new(p[0], p[1], p[2], p[3], p[4], p[5], p[6])
        .stride_hw(p[7], p[8])
        .pad_hw(p[9], p[10])
        .dilation_hw(p[11], p[12])
        .pad_end_hw(p[13], p[14])
        .build()
        .ok()
}

/// The fields of a random valid shape. Strides, dilations and leading and
/// trailing pads vary per axis; channel counts straddle the 64/128/256-row
/// arrays of the TPU grid, so grouped and automatic modes alias on some
/// cases and not on others.
fn shape_fields() -> impl proptest::strategy::Strategy<Value = [usize; 15]> {
    (
        (
            1usize..=2,
            1usize..=160,
            5usize..=14,
            5usize..=14,
            1usize..=160,
        ),
        (1usize..=4, 1usize..=4, 1usize..=3, 1usize..=3),
        (
            0usize..=2,
            0usize..=2,
            1usize..=2,
            1usize..=2,
            0usize..=2,
            0usize..=2,
        ),
    )
        .prop_map(
            |((n, ci, hi, wi, co), (hf, wf, sh, sw), (ph, pw, dh, dw, phe, pwe))| {
                [n, ci, hi, wi, co, hf, wf, sh, sw, ph, pw, dh, dw, phe, pwe]
            },
        )
        .prop_filter("buildable shape", |fields| build(*fields).is_some())
}

/// Every grid candidate of `target` under every pass, plus the tune work
/// itself — valid or not.
fn grid_works(shape: ConvShape, target: TuneTarget) -> Vec<Work> {
    let mut works = vec![Work::Tune { shape, target }];
    for cfg in candidates(target) {
        for pass in ALL_PASSES {
            works.push(match cfg {
                TunedConfig::Tpu { mode, hw } => Work::TpuPass {
                    shape,
                    pass,
                    mode,
                    hw,
                },
                TunedConfig::Gpu { algo, hw } => Work::GpuPass {
                    shape,
                    pass,
                    algo,
                    hw,
                },
            });
        }
    }
    works
}

fn hw_is_valid(cfg: &TunedConfig) -> bool {
    match cfg {
        TunedConfig::Tpu { hw, .. } => hw.resolve().is_ok(),
        TunedConfig::Gpu { hw, .. } => hw.resolve().is_ok(),
    }
}

/// The search's pruning as it was first written: validate, then dedup by
/// the rendered canonical key. Returns the kept candidates and the count
/// pruned.
fn string_dedup(shape: ConvShape, target: TuneTarget) -> (Vec<TunedConfig>, u64) {
    let mut seen = BTreeSet::new();
    let mut kept = Vec::new();
    let mut pruned = 0;
    for cfg in candidates(target) {
        if hw_is_valid(&cfg) && seen.insert(canonical_key(&cfg.to_work(shape))) {
            kept.push(cfg);
        } else {
            pruned += 1;
        }
    }
    (kept, pruned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Value identity is key identity, and equal values measure equal
    /// cycles: the tuner's value dedup drops only true aliases.
    #[test]
    fn value_identity_is_key_identity(fields in shape_fields()) {
        let src = InProcessSource::new();
        let shape = build(fields).unwrap();
        for target in ALL_TARGETS {
            let mut works = Vec::new();
            let mut ids = Vec::new();
            for work in grid_works(shape, target) {
                match Canonical::new(&work) {
                    Ok(id) => {
                        works.push(work);
                        ids.push(id);
                    }
                    Err(e) => prop_assert!(
                        !matches!(work, Work::Tune { .. }),
                        "a tune work has no hardware to reject: {}", e
                    ),
                }
            }
            let keys: Vec<String> = works.iter().map(canonical_key).collect();
            // Tune works are searches, not estimates: nothing to measure.
            let cycles: Vec<Option<CycleCount>> = works
                .iter()
                .map(|w| (!matches!(w, Work::Tune { .. })).then(|| src.estimate(w)))
                .collect();
            for i in 0..works.len() {
                prop_assert_eq!(&ids[i].to_string(), &keys[i]);
                for j in 0..i {
                    prop_assert_eq!(
                        ids[i] == ids[j],
                        keys[i] == keys[j],
                        "{:?} vs {:?}",
                        works[i],
                        works[j]
                    );
                    if ids[i] == ids[j] {
                        prop_assert_eq!(cycles[i], cycles[j], "{}", keys[i]);
                    }
                }
            }
        }
    }

    /// Shapes one field apart never share a value (the shape is part of
    /// it), so they must never share a key either.
    #[test]
    fn neighbouring_shapes_never_share_a_key(fields in shape_fields()) {
        let shape = build(fields).unwrap();
        let keys = |shape| -> BTreeSet<String> {
            ALL_TARGETS
                .into_iter()
                .flat_map(|target| grid_works(shape, target))
                .filter(|w| Canonical::new(w).is_ok())
                .map(|w| canonical_key(&w))
                .collect()
        };
        let own = keys(shape);
        for field in 0..fields.len() {
            let mut bumped = fields;
            bumped[field] += 1;
            if let Some(neighbour) = build(bumped) {
                prop_assert!(own.is_disjoint(&keys(neighbour)), "{:?} vs {:?}", shape, neighbour);
            }
        }
    }

    /// `tune` keeps, prunes and picks exactly what string-key dedup does.
    #[test]
    fn tune_prunes_like_string_dedup(fields in shape_fields()) {
        let src = InProcessSource::new();
        let shape = build(fields).unwrap();
        for target in ALL_TARGETS {
            let (kept, pruned) = string_dedup(shape, target);
            let works: Vec<Work> = kept.iter().map(|c| c.to_work(shape)).collect();
            let cycles: Vec<f64> = src
                .estimate_many(1, &works)
                .into_iter()
                .map(CycleCount::as_f64)
                .collect();
            let mut best = 0;
            for (i, &c) in cycles.iter().enumerate() {
                if c < cycles[best] {
                    best = i;
                }
            }
            let got = tune(&src, &shape, target, &TuneOptions::default());
            prop_assert_eq!(got.candidates, kept.len() as u64, "{:?}", target);
            prop_assert_eq!(got.pruned, pruned, "{:?}", target);
            prop_assert_eq!(got.best, kept[best], "{:?}", target);
            prop_assert_eq!(got.tuned_cycles.to_bits(), cycles[best].to_bits());
            prop_assert_eq!(got.default_cycles.to_bits(), cycles[0].to_bits());
        }
    }
}
