//! Block-level channel-first im2col for output-partitioned GEMM engines
//! (paper Sec. V, Fig. 12).
//!
//! GPUs parallelize GEMM by assigning each **output tile** to a thread
//! block, so partial sums must stay inside a block (no atomics). The flat
//! filter-decomposition schedule would accumulate the OFMap `Hf·Wf` times
//! globally; the block-level variant instead applies the channel-first
//! decomposition *inside* each output tile: a block iterates over the
//! K-dimension in channel-first order (per-tap `Ci` slices), fetching each
//! tap's input sub-tile from global memory into shared memory and running a
//! tensor-core GEMM per slice.
//!
//! [`FetchOrder::Reordered`] implements the inter-tile reuse optimization
//! (Sec. V "Inter-tile Reuse"): consecutive taps are ordered greedily by
//! working-set overlap, so part of each shared-memory fill is already
//! resident. The paper leaves optimal reordering to future work; the greedy
//! nearest-neighbour order here is the "simple reordering" it describes.
//!
//! The traffic counts are closed forms. For a fixed tap, output `(oh, ow)`
//! maps to a distinct input pixel, so a block's pixels for that tap are its
//! output rows inside the tap's `OutputWindow`; what two consecutive taps
//! share is the same count over a shifted window
//! (`FilterTile::shared_with`). [`crate::reference`] keeps the
//! enumeration they are tested against.

use crate::decompose::{Axis, FilterTile, OutputWindow};
use iconv_tensor::conv_ref::{filter_dims, ifmap_dims};
use iconv_tensor::{ConvShape, Coord, Matrix, Scalar, Tensor};

/// Thread-block tiling of the output GEMM (`M = N·Ho·Wo` × `N = Co`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockConfig {
    /// Output rows per thread block (`M` tile).
    pub bm: usize,
    /// Output columns per thread block (`N` tile).
    pub bn: usize,
    /// K-slice depth per shared-memory stage (≤ `Ci`; one tap is split into
    /// `ceil(Ci / bk)` slices).
    pub bk: usize,
}

impl BlockConfig {
    /// The CUDA-SDK-style 128×128×32 blocking used by the paper's
    /// `cudaTensorCoreGemm`-based implementation.
    pub fn cuda_sdk() -> Self {
        Self {
            bm: 128,
            bn: 128,
            bk: 32,
        }
    }
}

/// Execution order of the decomposed filter taps within each block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchOrder {
    /// Taps "as they show up on the original filter" (raster) — no reuse.
    #[default]
    Naive,
    /// Greedy nearest-neighbour by working-set overlap — the inter-tile
    /// reuse optimization.
    Reordered,
}

/// One thread block's output tile: rows `row0 .. row0+rows`, columns
/// `col0 .. col0+cols` of the output matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputBlock {
    /// First output-matrix row.
    pub row0: usize,
    /// Row count (≤ `bm`; edge blocks are smaller).
    pub rows: usize,
    /// First output-matrix column.
    pub col0: usize,
    /// Column count (≤ `bn`).
    pub cols: usize,
}

/// One K-stage of a block: tap `tile`, channels `ci0 .. ci0+ci_len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KSlice {
    /// The decomposed filter tap.
    pub tile: FilterTile,
    /// First channel of the slice.
    pub ci0: usize,
    /// Channel count (≤ `bk`).
    pub ci_len: usize,
}

/// The block-level decomposition of one convolution.
#[derive(Debug, Clone)]
pub struct BlockDecomposition {
    shape: ConvShape,
    config: BlockConfig,
    order: FetchOrder,
    /// Tap order resolved once at construction.
    taps: Vec<FilterTile>,
    /// Per tap in fetch order: its output window, and the window and
    /// output-matrix row offset it shares with the previous tap.
    footprints: Vec<(OutputWindow, Option<(OutputWindow, isize)>)>,
}

impl BlockDecomposition {
    /// Create a decomposition.
    pub fn new(shape: ConvShape, config: BlockConfig, order: FetchOrder) -> Self {
        let taps = match order {
            FetchOrder::Naive => FilterTile::all(&shape),
            FetchOrder::Reordered => reordered_taps(&shape),
        };
        let footprints = taps
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let shared = i
                    .checked_sub(1)
                    .and_then(|p| t.shared_with(&taps[p], &shape));
                (t.window(&shape), shared)
            })
            .collect();
        Self {
            shape,
            config,
            order,
            taps,
            footprints,
        }
    }

    /// The convolution being decomposed.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The blocking parameters.
    pub fn config(&self) -> BlockConfig {
        self.config
    }

    /// Taps in the configured fetch order (resolved at construction).
    pub fn tap_order(&self) -> Vec<FilterTile> {
        self.taps.clone()
    }

    /// The configured fetch order.
    pub fn order(&self) -> FetchOrder {
        self.order
    }

    /// All thread-block output tiles, row-major over the output matrix.
    pub fn output_blocks(&self) -> Vec<OutputBlock> {
        let (m, n, _) = self.shape.gemm_mnk();
        let mut blocks = Vec::new();
        let mut row0 = 0;
        while row0 < m {
            let rows = self.config.bm.min(m - row0);
            let mut col0 = 0;
            while col0 < n {
                let cols = self.config.bn.min(n - col0);
                blocks.push(OutputBlock {
                    row0,
                    rows,
                    col0,
                    cols,
                });
                col0 += cols;
            }
            row0 += rows;
        }
        blocks
    }

    /// The K-slices each block iterates, in fetch order: for each tap (in
    /// [`Self::tap_order`]), `ceil(Ci / bk)` channel slices.
    pub fn k_slices(&self) -> Vec<KSlice> {
        let mut slices = Vec::new();
        for tile in self.tap_order() {
            let mut ci0 = 0;
            while ci0 < self.shape.ci {
                let ci_len = self.config.bk.min(self.shape.ci - ci0);
                slices.push(KSlice { tile, ci0, ci_len });
                ci0 += ci_len;
            }
        }
        slices
    }

    /// Global-memory elements fetched by `block` across its decomposed
    /// filter taps, with and without counting reuse from the previously
    /// resident tap's sub-tile: returns `(total_without_reuse,
    /// total_with_reuse)` in elements (distinct `(image, pixel)` coordinates
    /// × all `Ci` channels).
    ///
    /// Reuse is accounted at **tap granularity**: the on-chip window
    /// (shared memory + L2) is assumed to retain one tap's full working set,
    /// so the next tap only fetches the coordinates outside the overlap —
    /// the Sec. V inter-tile-reuse model. Channel sub-slicing (`bk`) affects
    /// compute staging, not traffic: each (pixel, channel) is fetched once
    /// per tap visit regardless of slicing.
    ///
    /// Counted in O(taps): a tap's distinct pixels are the block's rows in
    /// its window, and the pixels it shares with the previous tap are the
    /// rows `r` in the shared window whose partner row `r + offset` is also
    /// in the block. Equal to [`crate::reference::block_fetch_elems`].
    pub fn block_fetch_elems(&self, block: &OutputBlock) -> (u64, u64) {
        let (ho, wo) = (self.shape.out_h(), self.shape.out_w());
        self.rows_fetch_elems(block.row0..block.row0 + block.rows, ho, wo)
    }

    /// [`Self::block_fetch_elems`] for the output-matrix rows `rows`.
    fn rows_fetch_elems(&self, rows: std::ops::Range<usize>, ho: usize, wo: usize) -> (u64, u64) {
        let (mut cold, mut shared) = (0usize, 0usize);
        for (window, prev) in &self.footprints {
            cold += window.count_rows(rows.clone(), ho, wo);
            if let Some((window, offset)) = prev {
                let shift = offset.unsigned_abs();
                let pairs = if *offset >= 0 {
                    rows.start..rows.end.saturating_sub(shift)
                } else {
                    rows.start + shift..rows.end
                };
                shared += window.count_rows(pairs, ho, wo);
            }
        }
        let ci = self.shape.ci as u64;
        (cold as u64 * ci, (cold - shared) as u64 * ci)
    }

    /// Whole-layer global traffic in elements: `(naive, with_reuse)` summed
    /// over all blocks. The ratio drives the Fig. 18b speedups.
    ///
    /// Every column block of a row block fetches the same A footprint, so
    /// only row blocks are walked, and only one period of them: a footprint
    /// depends on where the block starts within its image, and full row
    /// blocks repeat that phase every `per_img / gcd(bm, per_img)` blocks.
    pub fn layer_fetch_elems(&self) -> (u64, u64) {
        let (m, n, _) = self.shape.gemm_mnk();
        let (ho, wo) = (self.shape.out_h(), self.shape.out_w());
        let bm = self.config.bm;
        let per_img = ho * wo;
        let period = per_img / gcd(bm, per_img);
        let full = m / bm;
        let (reps, rest) = (full / period, full % period);
        let (mut cold, mut warm) = self.rows_fetch_elems(full * bm..m, ho, wo);
        for i in 0..full.min(period) {
            let times = (reps + usize::from(i < rest)) as u64;
            let (c, w) = self.rows_fetch_elems(i * bm..(i + 1) * bm, ho, wo);
            cold += c * times;
            warm += w * times;
        }
        let blocks_n = n.div_ceil(self.config.bn) as u64;
        (cold * blocks_n, warm * blocks_n)
    }

    /// Functional execution: compute the convolution with the block-level
    /// schedule (each block accumulates privately — no cross-block writes),
    /// proving the schedule needs no atomics. Output in `NCHW`.
    ///
    /// # Panics
    ///
    /// Panics if tensor dims do not match the shape.
    pub fn execute<T: Scalar>(&self, ifmap: &Tensor<T>, filter: &Tensor<T>) -> Tensor<T> {
        assert_eq!(ifmap.dims(), ifmap_dims(&self.shape), "ifmap dims mismatch");
        assert_eq!(
            filter.dims(),
            filter_dims(&self.shape),
            "filter dims mismatch"
        );
        let (m, _, _) = self.shape.gemm_mnk();
        let mut out = Matrix::<T>::zeros(m, self.shape.co);
        let (ho, wo) = (self.shape.out_h(), self.shape.out_w());
        for block in self.output_blocks() {
            for slice in self.k_slices() {
                for r in block.row0..block.row0 + block.rows {
                    let n = r / (ho * wo);
                    let oh = (r / wo) % ho;
                    let ow = r % wo;
                    let Some((h, w)) = slice.tile.input_pixel(&self.shape, oh, ow) else {
                        continue;
                    };
                    for ci in slice.ci0..slice.ci0 + slice.ci_len {
                        let a = ifmap.get(Coord::new(n, ci, h, w));
                        if a == T::zero() {
                            continue;
                        }
                        for co in block.col0..block.col0 + block.cols {
                            let b = filter.get(Coord::new(co, ci, slice.tile.fh, slice.tile.fw));
                            out[(r, co)] += a * b;
                        }
                    }
                }
            }
        }
        iconv_tensor::im2col::ofmap_from_matrix(&self.shape, &out)
    }
}

/// Greedy nearest-neighbour tap order: start at `(0,0)`, repeatedly take the
/// unvisited tap with the largest working-set overlap with the current one
/// (ties broken by raster order).
///
/// Working sets are separable grids, so the overlap of two taps is the
/// product of a filter-row and a filter-column overlap; both are tabulated
/// once and the greedy walk is O(taps²) lookups. Equal to
/// [`crate::reference::reordered_taps`].
pub fn reordered_taps(shape: &ConvShape) -> Vec<FilterTile> {
    let all = FilterTile::all(shape);
    if all.len() <= 2 {
        return all;
    }
    let table = |axis: Axis, n: usize| -> Vec<usize> {
        (0..n * n)
            .map(|i| axis.shared(i / n, i % n).map_or(0, |(r, _)| r.len()))
            .collect()
    };
    let rows = table(Axis::h(shape), shape.hf);
    let cols = table(Axis::w(shape), shape.wf);
    let overlap =
        |a: FilterTile, b: FilterTile| rows[a.fh * shape.hf + b.fh] * cols[a.fw * shape.wf + b.fw];
    let mut order = vec![all[0]];
    let mut used = vec![false; all.len()];
    used[0] = true;
    for _ in 1..all.len() {
        let cur = order[order.len() - 1];
        let mut best: Option<(usize, usize)> = None; // (overlap, idx)
        for (i, &t) in all.iter().enumerate() {
            if used[i] {
                continue;
            }
            let ov = overlap(cur, t);
            if best.is_none_or(|(bov, _)| ov > bov) {
                best = Some((ov, i));
            }
        }
        let (_, idx) = best.expect("unvisited tap must exist");
        used[idx] = true;
        order.push(all[idx]);
    }
    order
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iconv_tensor::conv_ref::direct_conv;
    use iconv_tensor::Layout;

    fn shape() -> ConvShape {
        ConvShape::square(2, 5, 9, 6, 3, 1, 1).unwrap()
    }

    fn cfg() -> BlockConfig {
        BlockConfig {
            bm: 16,
            bn: 4,
            bk: 3,
        }
    }

    #[test]
    fn output_blocks_tile_exactly() {
        let d = BlockDecomposition::new(shape(), cfg(), FetchOrder::Naive);
        let (m, n, _) = shape().gemm_mnk();
        let blocks = d.output_blocks();
        let covered: usize = blocks.iter().map(|b| b.rows * b.cols).sum();
        assert_eq!(covered, m * n);
        // Edge blocks are clipped, not padded.
        assert!(blocks
            .iter()
            .all(|b| b.row0 + b.rows <= m && b.col0 + b.cols <= n));
    }

    #[test]
    fn k_slices_cover_all_taps_and_channels() {
        let d = BlockDecomposition::new(shape(), cfg(), FetchOrder::Naive);
        let slices = d.k_slices();
        // 9 taps × ceil(5/3)=2 slices.
        assert_eq!(slices.len(), 18);
        let total_k: usize = slices.iter().map(|s| s.ci_len).sum();
        assert_eq!(total_k, shape().lowered_cols());
    }

    #[test]
    fn execute_matches_direct_conv_both_orders() {
        let s = shape();
        let x = Tensor::<i64>::random(ifmap_dims(&s), Layout::Nchw, 1);
        let f = Tensor::<i64>::random(filter_dims(&s), Layout::Nchw, 2);
        let want = direct_conv(&s, &x, &f);
        for order in [FetchOrder::Naive, FetchOrder::Reordered] {
            let got = BlockDecomposition::new(s, cfg(), order).execute(&x, &f);
            assert!(want.approx_eq(&got, 0.0), "{order:?}");
        }
    }

    #[test]
    fn execute_matches_with_strides_and_big_blocks() {
        let s = ConvShape::square(1, 3, 11, 4, 3, 2, 1).unwrap();
        let x = Tensor::<i64>::random(ifmap_dims(&s), Layout::Nchw, 3);
        let f = Tensor::<i64>::random(filter_dims(&s), Layout::Nchw, 4);
        let want = direct_conv(&s, &x, &f);
        let big = BlockConfig {
            bm: 1024,
            bn: 1024,
            bk: 1024,
        };
        let got = BlockDecomposition::new(s, big, FetchOrder::Reordered).execute(&x, &f);
        assert!(want.approx_eq(&got, 0.0));
    }

    #[test]
    fn reordered_taps_is_a_permutation() {
        let s = ConvShape::square(1, 2, 9, 2, 5, 2, 2).unwrap();
        let order = reordered_taps(&s);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, FilterTile::all(&s));
    }

    #[test]
    fn reuse_reduces_traffic_stride_1() {
        // Stride 1: adjacent taps overlap heavily, so reordered traffic is
        // much lower than naive.
        let s = ConvShape::square(1, 8, 28, 8, 3, 1, 1).unwrap();
        let d = BlockDecomposition::new(
            s,
            BlockConfig {
                bm: 64,
                bn: 8,
                bk: 8,
            },
            FetchOrder::Reordered,
        );
        let (cold, warm) = d.layer_fetch_elems();
        assert!(warm < cold, "reuse must reduce traffic: {warm} vs {cold}");
        assert!(
            (warm as f64) < 0.6 * cold as f64,
            "expected >40% cut, got {warm}/{cold}"
        );
    }

    #[test]
    fn reordered_beats_naive_order_under_stride_2() {
        // Under stride 2 only congruent taps share data; the greedy order
        // chains them while the raster order alternates congruence classes.
        let s = ConvShape::square(1, 8, 56, 8, 3, 2, 1).unwrap();
        let naive = BlockDecomposition::new(
            s,
            BlockConfig {
                bm: 64,
                bn: 8,
                bk: 8,
            },
            FetchOrder::Naive,
        );
        let reord = BlockDecomposition::new(
            s,
            BlockConfig {
                bm: 64,
                bn: 8,
                bk: 8,
            },
            FetchOrder::Reordered,
        );
        let (_, warm_naive) = naive.layer_fetch_elems();
        let (_, warm_reord) = reord.layer_fetch_elems();
        assert!(
            warm_reord < warm_naive,
            "reordered {warm_reord} should beat naive {warm_naive}"
        );
    }

    #[test]
    fn block_tap_pixels_respects_block_rows() {
        let s = shape();
        let d = BlockDecomposition::new(s, cfg(), FetchOrder::Naive);
        let blocks = d.output_blocks();
        let tile = FilterTile::new(1, 1);
        // A small block touches at most `rows` pixels.
        let px = crate::reference::block_tap_pixels(&s, &blocks[0], tile);
        assert!(px.len() <= blocks[0].rows);
        assert!(!px.is_empty());
    }
}
