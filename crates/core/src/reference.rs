//! The original enumerating footprint counts, retained as the semantic
//! reference for the closed forms in [`crate::decompose`] and
//! [`crate::block`].
//!
//! Every count here builds the actual pixel sets — per block, per tap, as
//! `BTreeSet`s — and intersects them, exactly as the first implementation
//! did. That is easy to audit and far too slow to sit on an estimate path
//! (milliseconds per layer). The closed forms must return the same numbers
//! for every shape, block tile and fetch order (see `tests/proptests.rs`
//! and the workload-table check in `iconv-bench`'s `paper_invariants`).

use crate::block::{BlockDecomposition, FetchOrder, OutputBlock};
use crate::decompose::FilterTile;
use iconv_tensor::ConvShape;
use std::collections::BTreeSet;

/// `|working_set(a) ∩ working_set(b)|` by set intersection.
pub fn overlap(a: &FilterTile, b: &FilterTile, shape: &ConvShape) -> usize {
    a.working_set(shape)
        .intersection(&b.working_set(shape))
        .count()
}

/// Greedy nearest-neighbour tap order over enumerated working sets: start
/// at `(0,0)`, repeatedly take the unvisited tap with the largest overlap
/// with the current one (ties broken by raster order).
pub fn reordered_taps(shape: &ConvShape) -> Vec<FilterTile> {
    let all = FilterTile::all(shape);
    if all.len() <= 2 {
        return all;
    }
    let sets: Vec<BTreeSet<(usize, usize)>> = all.iter().map(|t| t.working_set(shape)).collect();
    let mut order = vec![all[0]];
    let mut used = vec![false; all.len()];
    used[0] = true;
    let mut cur = 0usize;
    for _ in 1..all.len() {
        let mut best: Option<(usize, usize)> = None; // (overlap, idx)
        for i in 0..all.len() {
            if used[i] {
                continue;
            }
            let ov = sets[cur].intersection(&sets[i]).count();
            if best.is_none_or(|(bov, _)| ov > bov) {
                best = Some((ov, i));
            }
        }
        let (_, idx) = best.expect("unvisited tap must exist");
        used[idx] = true;
        order.push(all[idx]);
        cur = idx;
    }
    order
}

/// The distinct input pixels `(h, w)` a block must fetch for one tap — the
/// shared-memory A-subtile footprint, per channel per image.
pub fn block_tap_pixels(
    shape: &ConvShape,
    block: &OutputBlock,
    tile: FilterTile,
) -> BTreeSet<(usize, usize)> {
    block_tap_coords(shape, block, tile)
        .into_iter()
        .map(|(_, h, w)| (h, w))
        .collect()
}

/// The distinct `(image, h, w)` input coordinates a block must fetch for
/// one tap — per image, so blocks spanning batch boundaries count each
/// image's footprint separately.
fn block_tap_coords(
    shape: &ConvShape,
    block: &OutputBlock,
    tile: FilterTile,
) -> BTreeSet<(usize, usize, usize)> {
    let (ho, wo) = (shape.out_h(), shape.out_w());
    let per_img = ho * wo;
    let mut set = BTreeSet::new();
    for r in block.row0..block.row0 + block.rows {
        let img = r / per_img;
        let oh = (r / wo) % ho;
        let ow = r % wo;
        if let Some((h, w)) = tile.input_pixel(shape, oh, ow) {
            set.insert((img, h, w));
        }
    }
    set
}

/// The decomposition's tap order, resolved by enumeration: raster, or the
/// greedy [`reordered_taps`] over enumerated working sets.
fn tap_order(decomp: &BlockDecomposition) -> Vec<FilterTile> {
    match decomp.order() {
        FetchOrder::Naive => FilterTile::all(decomp.shape()),
        FetchOrder::Reordered => reordered_taps(decomp.shape()),
    }
}

/// [`BlockDecomposition::block_fetch_elems`] by enumeration: each tap's
/// coordinate set, and its difference with the previous tap's.
pub fn block_fetch_elems(decomp: &BlockDecomposition, block: &OutputBlock) -> (u64, u64) {
    fetch_elems(decomp.shape(), &tap_order(decomp), block)
}

fn fetch_elems(shape: &ConvShape, taps: &[FilterTile], block: &OutputBlock) -> (u64, u64) {
    let ci = shape.ci as u64;
    let mut cold = 0u64;
    let mut warm = 0u64;
    let mut prev: Option<BTreeSet<(usize, usize, usize)>> = None;
    for &tile in taps {
        let coords = block_tap_coords(shape, block, tile);
        cold += coords.len() as u64 * ci;
        let fresh = match &prev {
            Some(p) => coords.difference(p).count() as u64,
            None => coords.len() as u64,
        };
        warm += fresh * ci;
        prev = Some(coords);
    }
    (cold, warm)
}

/// [`BlockDecomposition::layer_fetch_elems`] by enumeration: every block of
/// [`BlockDecomposition::output_blocks`], one at a time.
pub fn layer_fetch_elems(decomp: &BlockDecomposition) -> (u64, u64) {
    let taps = tap_order(decomp);
    decomp
        .output_blocks()
        .iter()
        .map(|b| fetch_elems(decomp.shape(), &taps, b))
        .fold((0, 0), |(c, w), (bc, bw)| (c + bc, w + bw))
}
