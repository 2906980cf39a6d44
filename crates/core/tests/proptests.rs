//! Property-based tests of the channel-first algorithm's invariants:
//! decomposition completeness, schedule coverage, address-stream
//! correctness, and working-set algebra — over randomized shapes.

use iconv_core::addrgen::{AddrGen, VectorMemSpec};
use iconv_core::block::{reordered_taps, BlockConfig, BlockDecomposition, FetchOrder};
use iconv_core::decompose::FilterTile;
use iconv_core::reference;
use iconv_core::schedule::{tpu_group_size, TileSchedule};
use iconv_tensor::conv_ref::{direct_conv, filter_dims, ifmap_dims};
use iconv_tensor::{ColumnOrder, ConvShape, Layout, Tensor};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn conv_shapes() -> impl Strategy<Value = ConvShape> {
    (
        1usize..=3,
        1usize..=5,
        1usize..=3,
        1usize..=3,
        1usize..=5,
        1usize..=3,
        0usize..=1,
        0usize..=5,
    )
        .prop_filter_map("filter must fit", |(n, ci, hf, wf, co, s, p, extra)| {
            let hi = hf.saturating_sub(2 * p).max(1) + extra;
            let wi = wf.saturating_sub(2 * p).max(1) + extra;
            ConvShape::new(n, ci, hi, wi, co, hf, wf)
                .stride(s)
                .pad(p)
                .build()
                .ok()
        })
}

/// Ragged shapes for the footprint counts: strides 1–3, dilations 1–2 and
/// independent per-axis geometry, with no padding, explicit leading
/// padding, or asymmetric "same" padding (even dilated filters pad one
/// more at the end).
fn footprint_shapes() -> impl Strategy<Value = ConvShape> {
    (
        (1usize..=4, 1usize..=3, 1usize..=3),
        (1usize..=4, 1usize..=4),
        (1usize..=3, 1usize..=3, 1usize..=2, 1usize..=2),
        (0usize..=6, 0usize..=6),
        (0usize..=2, 0usize..=2, 0usize..=2),
    )
        .prop_filter_map(
            "filter must fit",
            |((n, ci, co), (hf, wf), (sh, sw, dh, dw), (xh, xw), (pad, ph, pw))| {
                let b = ConvShape::new(
                    n,
                    ci,
                    dh * (hf - 1) + 1 + xh,
                    dw * (wf - 1) + 1 + xw,
                    co,
                    hf,
                    wf,
                )
                .stride_hw(sh, sw)
                .dilation_hw(dh, dw);
                match pad {
                    0 => b,
                    1 => b.pad_hw(ph, pw),
                    _ => b.same_pad(),
                }
                .build()
                .ok()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The closed-form block footprints equal the enumerated ones exactly:
    /// per block and summed over the layer, cold and warm, for both fetch
    /// orders, with `bm` from 1 row up to past three images (so a block
    /// can span three or more) and several column blocks. The closed-form
    /// greedy tap order and pairwise overlaps equal the enumerated ones.
    #[test]
    fn closed_form_footprint_matches_reference(
        shape in footprint_shapes(),
        bm_raw in 0usize..10_000,
        bn in 1usize..=3,
    ) {
        let per_img = shape.out_h() * shape.out_w();
        let bm = 1 + bm_raw % (3 * per_img + 2);
        let cfg = BlockConfig { bm, bn, bk: 2 };
        prop_assert_eq!(reordered_taps(&shape), reference::reordered_taps(&shape));
        let taps = FilterTile::all(&shape);
        for a in &taps {
            for b in &taps {
                prop_assert_eq!(a.overlap(b, &shape), reference::overlap(a, b, &shape), "{} {}", a, b);
            }
        }
        for order in [FetchOrder::Naive, FetchOrder::Reordered] {
            let d = BlockDecomposition::new(shape, cfg, order);
            for block in d.output_blocks() {
                prop_assert_eq!(
                    d.block_fetch_elems(&block),
                    reference::block_fetch_elems(&d, &block),
                    "{:?} {:?}", order, block
                );
            }
            prop_assert_eq!(
                d.layer_fetch_elems(),
                reference::layer_fetch_elems(&d),
                "{:?} bm {}", order, bm
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filter decomposition partitions the lowered matrix: the per-tile
    /// `a_tile` slices, laid side by side in channel-first tap order,
    /// reconstruct the full lowered matrix exactly.
    #[test]
    fn tiles_partition_the_lowered_matrix(shape in conv_shapes(), seed in 0u64..500) {
        let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, seed);
        let full = iconv_tensor::im2col::lower(&shape, &x, ColumnOrder::ChannelFirst);
        for tile in FilterTile::all(&shape) {
            let a = tile.a_tile(&shape, &x);
            let col0 = tile.index(&shape) * shape.ci;
            for r in 0..a.rows() {
                for c in 0..shape.ci {
                    prop_assert_eq!(a[(r, c)], full[(r, col0 + c)]);
                }
            }
        }
    }

    /// The closed-form working-set size equals the enumerated set, and the
    /// union over all tiles covers every pixel any tile touches.
    #[test]
    fn working_set_algebra(shape in conv_shapes()) {
        let mut union = BTreeSet::new();
        for tile in FilterTile::all(&shape) {
            let ws = tile.working_set(&shape);
            prop_assert_eq!(tile.working_set_len(&shape), ws.len(), "{}", tile);
            union.extend(ws);
        }
        // Union is within the input plane.
        for &(h, w) in &union {
            prop_assert!(h < shape.hi && w < shape.wi);
        }
        // Stride 1, no padding: union = exactly the input region reachable
        // by windows.
        if shape.stride_h == 1 && shape.stride_w == 1 && shape.pad_h == 0 && shape.pad_w == 0 {
            prop_assert_eq!(union.len(), shape.hi * shape.wi.min(shape.wi));
        }
    }

    /// Every schedule (single, multi, tpu) visits each filter tile exactly
    /// once, and its duplication never exceeds the group size.
    #[test]
    fn schedules_cover_tiles_exactly_once(shape in conv_shapes(), g in 1usize..5) {
        for sched in [
            TileSchedule::single_tile(&shape),
            TileSchedule::multi_tile(&shape, g),
            TileSchedule::tpu(&shape, 16),
        ] {
            let tiles: Vec<_> = sched.tiles().collect();
            let set: BTreeSet<_> = tiles.iter().copied().collect();
            prop_assert_eq!(tiles.len(), shape.hf * shape.wf);
            prop_assert_eq!(set.len(), tiles.len(), "duplicate tiles");
            prop_assert!(sched.max_duplication() <= shape.wf.max(1));
        }
    }

    /// The TPU group size never overflows the array and is bounded by Wf.
    #[test]
    fn tpu_group_size_bounds(rows in 1usize..512, ci in 1usize..512, wf in 1usize..12) {
        let g = tpu_group_size(rows, ci, wf);
        prop_assert!(g >= 1 && g <= wf);
        // Merged rows only exceed the array by at most one partial tile.
        prop_assert!((g - 1) * ci < rows.max(ci));
    }

    /// Address-generator streams deliver exactly the channel-first lowered
    /// matrix: every element matches, every lowered row appears once.
    #[test]
    fn addrgen_streams_are_complete_and_correct(shape in conv_shapes(), seed in 0u64..500) {
        let spec = VectorMemSpec { arrays: 4 * shape.ci, word_elems: 2 };
        let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, seed);
        let lowered = iconv_tensor::im2col::lower(&shape, &x, ColumnOrder::ChannelFirst);
        let sched = TileSchedule::multi_tile(&shape, (4).min(shape.wf));
        for group in sched.groups() {
            let gen = AddrGen::new(&shape, spec, group);
            let mut row_seen = vec![0u32; shape.lowered_rows()];
            for step in 0..gen.steps() {
                for lane in 0..spec.word_elems {
                    let Some(row) = gen.lowered_row(step, lane) else { continue };
                    row_seen[row] += 1;
                    for (member, tile) in group.tiles().iter().enumerate() {
                        for ci in 0..shape.ci {
                            let array = member * shape.ci + ci;
                            let col = tile.index(&shape) * shape.ci + ci;
                            let want = lowered[(row, col)];
                            let got = gen.element(step, array, lane).map_or(0, |c| x.get(c));
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }
            prop_assert!(row_seen.iter().all(|&n| n == 1), "rows streamed exactly once");
        }
    }

    /// Reordered tap order is always a permutation of all taps, and its
    /// chained overlap is at least the naive order's.
    #[test]
    fn reordering_never_loses_taps_or_reuse(shape in conv_shapes()) {
        let naive = FilterTile::all(&shape);
        let reordered = reordered_taps(&shape);
        let mut sorted = reordered.clone();
        sorted.sort();
        prop_assert_eq!(&sorted, &naive);
        let chain = |order: &[FilterTile]| -> usize {
            order.windows(2).map(|w| w[0].overlap(&w[1], &shape)).sum()
        };
        prop_assert!(chain(&reordered) >= chain(&naive));
    }

    /// Block-level execution equals direct convolution for random blockings.
    #[test]
    fn blocked_execution_correct(
        shape in conv_shapes(),
        bm in 1usize..40, bn in 1usize..10, bk in 1usize..8,
        seed in 0u64..500,
    ) {
        let x = Tensor::<i64>::random(ifmap_dims(&shape), Layout::Nchw, seed);
        let f = Tensor::<i64>::random(filter_dims(&shape), Layout::Nchw, seed + 7);
        let want = direct_conv(&shape, &x, &f);
        let cfg = BlockConfig { bm, bn, bk };
        for order in [FetchOrder::Naive, FetchOrder::Reordered] {
            let got = BlockDecomposition::new(shape, cfg, order).execute(&x, &f);
            prop_assert!(want.approx_eq(&got, 0.0));
        }
    }

    /// Traffic accounting: warm fetches never exceed cold, and cold equals
    /// the sum of per-tap footprints.
    #[test]
    fn traffic_monotonicity(shape in conv_shapes(), bm in 4usize..40) {
        let cfg = BlockConfig { bm, bn: 8, bk: 4 };
        let d = BlockDecomposition::new(shape, cfg, FetchOrder::Reordered);
        let (cold, warm) = d.layer_fetch_elems();
        prop_assert!(warm <= cold, "warm {warm} > cold {cold}");
        // With a single tap there is nothing to reuse.
        if shape.hf * shape.wf == 1 {
            prop_assert_eq!(warm, cold);
        }
    }
}
