//! Filter decomposition into 1×1 convolutions (paper Sec. III-B).
//!
//! Channel-first im2col "essentially decomposes the `Hf × Wf × Ci` filter
//! into `Hf · Wf` 1×1 filters". Each [`FilterTile`] is one such decomposed
//! filter: the tap `(fh, fw)` applied across all channels. Its GEMM operands
//! are an `M × Ci` slice of the lowered matrix ([`FilterTile::a_tile`]) and a
//! `Ci × Co` slice of the filter matrix ([`FilterTile::b_tile`]); the full
//! convolution is the sum of the per-tile products, in **any order**
//! (commutativity of accumulation — tested in [`crate::algo`]).
//!
//! The tile working-set analysis here ([`FilterTile::working_set_len`],
//! [`FilterTile::overlap`], both closed forms over valid-output intervals)
//! also powers two headline results:
//!
//! * stride-insensitivity: a tile's working set (and its GEMM) shrinks by
//!   `stride²`, so SRAM-fill latency stays hidden (Fig. 8b);
//! * inter-tile reuse on GPUs: tiles whose taps are congruent modulo the
//!   stride share most of their working set (Sec. V, Fig. 18b).

use iconv_tensor::conv_ref::{filter_dims, ifmap_dims, input_pixel};
use iconv_tensor::{ConvShape, Coord, Matrix, Scalar, Tensor};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

/// One decomposed 1×1 filter: the tap at `(fh, fw)`.
///
/// The paper writes this `⟨fh+1, fw+1⟩` (1-based); we are 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterTile {
    /// Filter row of the tap.
    pub fh: usize,
    /// Filter column of the tap.
    pub fw: usize,
}

impl FilterTile {
    /// Construct a tile.
    pub fn new(fh: usize, fw: usize) -> Self {
        Self { fh, fw }
    }

    /// All `Hf · Wf` tiles of `shape` in raster (`fh`, then `fw`) order —
    /// the naive execution order.
    /// # Examples
    ///
    /// ```
    /// # use iconv_core::FilterTile;
    /// # use iconv_tensor::ConvShape;
    /// # fn main() -> Result<(), iconv_tensor::ShapeError> {
    /// let shape = ConvShape::square(1, 8, 5, 4, 3, 1, 0)?;
    /// let tiles = FilterTile::all(&shape);
    /// assert_eq!(tiles.len(), 9); // a 3x3 filter decomposes into nine 1x1s
    /// // Stride-insensitivity: working sets shrink with the outputs.
    /// assert_eq!(tiles[0].working_set_len(&shape), 9);
    /// # Ok(()) }
    /// ```
    pub fn all(shape: &ConvShape) -> Vec<FilterTile> {
        let mut v = Vec::with_capacity(shape.hf * shape.wf);
        for fh in 0..shape.hf {
            for fw in 0..shape.wf {
                v.push(FilterTile::new(fh, fw));
            }
        }
        v
    }

    /// Linear tile index in raster order.
    pub fn index(&self, shape: &ConvShape) -> usize {
        self.fh * shape.wf + self.fw
    }

    /// The input pixel `(h, w)` this tile reads for output pixel `(oh, ow)`,
    /// or `None` in the padding.
    pub fn input_pixel(&self, shape: &ConvShape, oh: usize, ow: usize) -> Option<(usize, usize)> {
        input_pixel(shape, oh, ow, self.fh, self.fw)
    }

    /// The distinct valid input pixels `(h, w)` this tile touches across the
    /// whole output plane (per image, per channel): a strided grid. An
    /// enumeration, kept as the reference the closed forms are tested
    /// against ([`crate::reference`]) and for callers that need the pixels
    /// themselves.
    pub fn working_set(&self, shape: &ConvShape) -> BTreeSet<(usize, usize)> {
        let mut set = BTreeSet::new();
        for oh in 0..shape.out_h() {
            for ow in 0..shape.out_w() {
                if let Some(p) = self.input_pixel(shape, oh, ow) {
                    set.insert(p);
                }
            }
        }
        set
    }

    /// The output positions at which this tap reads a valid (non-padding)
    /// pixel. Each output maps to a distinct pixel, so this is also the
    /// working set, counted by output.
    pub(crate) fn window(&self, shape: &ConvShape) -> OutputWindow {
        OutputWindow {
            oh: Axis::h(shape).valid(self.fh),
            ow: Axis::w(shape).valid(self.fw),
        }
    }

    /// Where `self` and `other` read the same input pixels: the window of
    /// outputs at which `self` reads a pixel that `other` also reads, and
    /// the output-matrix row offset at which `other` reads it (output
    /// `(oh, ow)` under `self` matches `(oh + Δh, ow + Δw)` under `other`,
    /// i.e. row `r` matches row `r + Δh·Wo + Δw`).
    ///
    /// Two taps share a pixel row only when their dilated offsets differ by
    /// a multiple of the stride; otherwise the grids are disjoint and this
    /// is `None`.
    pub(crate) fn shared_with(
        &self,
        other: &FilterTile,
        shape: &ConvShape,
    ) -> Option<(OutputWindow, isize)> {
        let (oh, dh) = Axis::h(shape).shared(self.fh, other.fh)?;
        let (ow, dw) = Axis::w(shape).shared(self.fw, other.fw)?;
        Some((OutputWindow { oh, ow }, dh * shape.out_w() as isize + dw))
    }

    /// `|working_set(self) ∩ working_set(other)|` — shared input pixels.
    ///
    /// Closed form: both working sets are separable grids, so the overlap
    /// is `|H ∩ H'| · |W ∩ W'|`, zero unless the taps are congruent modulo
    /// the stride.
    pub fn overlap(&self, other: &FilterTile, shape: &ConvShape) -> usize {
        self.shared_with(other, shape)
            .map_or(0, |(window, _)| window.len())
    }

    /// Fraction of `self`'s working set also needed by `other`: the data
    /// reuse a fetch of `other` can get from `self`'s residency.
    ///
    /// Returns 0 when `self`'s working set is empty (degenerate shapes).
    pub fn reuse_fraction(&self, other: &FilterTile, shape: &ConvShape) -> f64 {
        let len = self.working_set_len(shape);
        if len == 0 {
            return 0.0;
        }
        self.overlap(other, shape) as f64 / len as f64
    }

    /// The `M × Ci` lowered-matrix slice for this tile: the operand of its
    /// 1×1 GEMM. Row `r` is output pixel `r`, column `ci` is that channel's
    /// value at the tile's tap (0 in the padding).
    ///
    /// # Panics
    ///
    /// Panics if `ifmap` dims do not match `shape`.
    pub fn a_tile<T: Scalar>(&self, shape: &ConvShape, ifmap: &Tensor<T>) -> Matrix<T> {
        assert_eq!(ifmap.dims(), ifmap_dims(shape), "ifmap dims mismatch");
        let (ho, wo) = (shape.out_h(), shape.out_w());
        Matrix::from_fn(shape.lowered_rows(), shape.ci, |row, ci| {
            let n = row / (ho * wo);
            let oh = (row / wo) % ho;
            let ow = row % wo;
            self.input_pixel(shape, oh, ow)
                .map_or_else(T::zero, |(h, w)| ifmap.get(Coord::new(n, ci, h, w)))
        })
    }

    /// The `Ci × Co` filter slice for this tile: weights of tap `(fh, fw)`
    /// across all channel pairs. This is what gets pre-loaded into the
    /// (weight-stationary) systolic array for this tile.
    ///
    /// # Panics
    ///
    /// Panics if `filter` dims do not match `shape`.
    pub fn b_tile<T: Scalar>(&self, shape: &ConvShape, filter: &Tensor<T>) -> Matrix<T> {
        assert_eq!(filter.dims(), filter_dims(shape), "filter dims mismatch");
        Matrix::from_fn(shape.ci, shape.co, |ci, co| {
            filter.get(Coord::new(co, ci, self.fh, self.fw))
        })
    }

    /// `|working_set|` in closed form — the pixel grid is a product of the
    /// valid output rows and columns (each output maps to a distinct input
    /// pixel, strides being positive). Tested equal to
    /// [`FilterTile::working_set`]`.len()`. Shrinks ∝ `1/stride²`, the key
    /// to Fig. 8b; multiplied out by channels/batch elsewhere.
    pub fn working_set_len(&self, shape: &ConvShape) -> usize {
        self.window(shape).len()
    }
}

/// A product of an output-row and an output-column interval, per image:
/// the outputs at which a tap (or a pair of taps) reads valid pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OutputWindow {
    /// Output rows `oh` in the window.
    pub(crate) oh: Range<usize>,
    /// Output columns `ow` in the window.
    pub(crate) ow: Range<usize>,
}

impl OutputWindow {
    /// Outputs in the window, per image.
    pub(crate) fn len(&self) -> usize {
        self.oh.len() * self.ow.len()
    }

    /// How many output-matrix rows in `rows` fall inside the window, on an
    /// `out_h × out_w` output plane. Rows are raster order over `(image,
    /// oh, ow)`, so a range spans partial and whole output rows of one or
    /// more images; counted in O(1).
    pub(crate) fn count_rows(&self, rows: Range<usize>, out_h: usize, out_w: usize) -> usize {
        if rows.is_empty() {
            return 0;
        }
        self.rows_below(rows.end, out_h, out_w) - self.rows_below(rows.start, out_h, out_w)
    }

    /// `#{r < x : r in the window}`: whole output rows before `x`, each
    /// contributing `|ow|` when its `oh` is in the window, plus the partial
    /// row `x` ends in.
    fn rows_below(&self, x: usize, ho: usize, wo: usize) -> usize {
        let (g, ow) = (x / wo, x % wo);
        let (img, oh) = (g / ho, g % ho);
        let full = img * self.oh.len() + oh.clamp(self.oh.start, self.oh.end) - self.oh.start;
        let part = if self.oh.contains(&oh) {
            ow.clamp(self.ow.start, self.ow.end) - self.ow.start
        } else {
            0
        };
        full * self.ow.len() + part
    }
}

/// One spatial axis of a convolution: the geometry that decides which
/// outputs a tap reads a valid pixel at, and which outputs two taps share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Axis {
    out: usize,
    stride: usize,
    dil: usize,
    pad: usize,
    extent: usize,
}

impl Axis {
    /// The height axis (`oh`, filter rows `fh`).
    pub(crate) fn h(shape: &ConvShape) -> Self {
        Self {
            out: shape.out_h(),
            stride: shape.stride_h,
            dil: shape.dil_h,
            pad: shape.pad_h,
            extent: shape.hi,
        }
    }

    /// The width axis (`ow`, filter columns `fw`).
    pub(crate) fn w(shape: &ConvShape) -> Self {
        Self {
            out: shape.out_w(),
            stride: shape.stride_w,
            dil: shape.dil_w,
            pad: shape.pad_w,
            extent: shape.wi,
        }
    }

    /// The outputs `o ∈ [0, out)` whose input coordinate `o·stride + f·dil
    /// − pad` under filter index `f` lies in `[0, extent)`. The coordinate
    /// grows with `o`, so they form one interval; every closed-form count
    /// in this module and in [`crate::block`] starts from it.
    pub(crate) fn valid(&self, f: usize) -> Range<usize> {
        let off = f * self.dil;
        let lo = self
            .pad
            .saturating_sub(off)
            .div_ceil(self.stride)
            .min(self.out);
        let hi = (self.pad + self.extent)
            .saturating_sub(off)
            .div_ceil(self.stride)
            .clamp(lo, self.out);
        lo..hi
    }

    /// Output `o` under filter index `f` reads the coordinate that output
    /// `o + shift` reads under `g`, where `shift = (f − g)·dil / stride`.
    /// Returns the valid `o` whose partner is also valid, with the shift,
    /// or `None` when the offsets are not congruent modulo the stride (the
    /// two grids are disjoint).
    pub(crate) fn shared(&self, f: usize, g: usize) -> Option<(Range<usize>, isize)> {
        let delta = (f as isize - g as isize) * self.dil as isize;
        let stride = self.stride as isize;
        if delta % stride != 0 {
            return None;
        }
        let shift = delta / stride;
        let (mine, theirs) = (self.valid(f), self.valid(g));
        let lo = (theirs.start as isize - shift).max(0) as usize;
        let hi = (theirs.end as isize - shift).max(0) as usize;
        let start = mine.start.max(lo);
        Some((start..mine.end.min(hi).max(start), shift))
    }
}

impl fmt::Display for FilterTile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.fh + 1, self.fw + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iconv_tensor::Layout;

    #[test]
    fn all_tiles_raster_order() {
        let s = ConvShape::square(1, 2, 5, 2, 3, 1, 0).unwrap();
        let tiles = FilterTile::all(&s);
        assert_eq!(tiles.len(), 9);
        assert_eq!(tiles[0], FilterTile::new(0, 0));
        assert_eq!(tiles[5], FilterTile::new(1, 2));
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(t.index(&s), i);
        }
    }

    #[test]
    fn working_set_stride_one_is_shifted_window() {
        // 5x5 input, 3x3 filter, stride 1, no pad: every tile sees a 3x3
        // output grid of distinct pixels, i.e. 9 pixels.
        let s = ConvShape::square(1, 8, 5, 4, 3, 1, 0).unwrap();
        for tile in FilterTile::all(&s) {
            assert_eq!(tile.working_set_len(&s), 9, "{tile}");
        }
        // Tile ⟨1,1⟩ covers rows/cols 0..2; tile ⟨3,3⟩ covers 2..4.
        let ws = FilterTile::new(0, 0).working_set(&s);
        assert!(ws.contains(&(0, 0)) && ws.contains(&(2, 2)) && !ws.contains(&(3, 3)));
    }

    #[test]
    fn working_set_shrinks_with_stride_squared() {
        // Paper Fig. 8: stride 2 quarters each tile's working set.
        let s1 = ConvShape::square(1, 8, 9, 4, 3, 1, 0).unwrap();
        let s2 = ConvShape::square(1, 8, 9, 4, 3, 2, 0).unwrap();
        let t = FilterTile::new(0, 0);
        let (w1, w2) = (t.working_set_len(&s1), t.working_set_len(&s2));
        assert_eq!(w1, 49); // 7x7 outputs
        assert_eq!(w2, 16); // 4x4 outputs
        assert!((w1 as f64 / w2 as f64 - 4.0).abs() < 1.0);
    }

    #[test]
    fn fig8c_overlap_example() {
        // Paper Fig. 8c: 5x5 input, 3x3 filter, stride 2. Tiles ⟨1,1⟩ and
        // ⟨1,3⟩ (0-based (0,0) and (0,2)) share half their pixels (1C, 3C).
        let s = ConvShape::square(1, 8, 5, 4, 3, 2, 0).unwrap();
        let a = FilterTile::new(0, 0);
        let b = FilterTile::new(0, 2);
        // a reads {(0,0),(0,2),(2,0),(2,2)}; b reads {(0,2),(0,4),(2,2),(2,4)}.
        assert_eq!(a.working_set(&s).len(), 4);
        assert_eq!(a.overlap(&b, &s), 2);
        assert!((a.reuse_fraction(&b, &s) - 0.5).abs() < 1e-12);
        // Non-congruent taps share nothing under stride 2.
        let c = FilterTile::new(0, 1);
        assert_eq!(a.overlap(&c, &s), 0);
    }

    #[test]
    fn large_map_overlap_approaches_96_percent() {
        // Paper: "when the IFMap size increases to 99×99, the working set
        // overlap between these two decomposed filters becomes 96%."
        let s = ConvShape::square(1, 1, 99, 1, 3, 2, 0).unwrap();
        let a = FilterTile::new(0, 0);
        let b = FilterTile::new(0, 2);
        let f = a.reuse_fraction(&b, &s);
        assert!(f > 0.94 && f < 1.0, "reuse fraction = {f}");
    }

    #[test]
    fn a_tile_is_lowered_column_slice() {
        // a_tile(t) must equal columns [tap range] of the channel-first
        // lowered matrix.
        let s = ConvShape::square(2, 3, 6, 2, 3, 2, 1).unwrap();
        let x = Tensor::<i64>::random(iconv_tensor::conv_ref::ifmap_dims(&s), Layout::Nchw, 5);
        let full = iconv_tensor::im2col::lower(&s, &x, iconv_tensor::ColumnOrder::ChannelFirst);
        for tile in FilterTile::all(&s) {
            let a = tile.a_tile(&s, &x);
            let col0 = (tile.fh * s.wf + tile.fw) * s.ci;
            for r in 0..a.rows() {
                for ci in 0..s.ci {
                    assert_eq!(a[(r, ci)], full[(r, col0 + ci)], "{tile} r{r} ci{ci}");
                }
            }
        }
    }

    #[test]
    fn b_tile_extracts_tap_weights() {
        let s = ConvShape::square(1, 2, 5, 3, 3, 1, 0).unwrap();
        let f = Tensor::<i32>::coordinate_coded(filter_dims(&s), Layout::Nchw);
        let b = FilterTile::new(2, 1).b_tile(&s, &f);
        assert_eq!(b.shape(), (2, 3));
        // filter coord (co, ci, 2, 1) encodes co*1e6 + ci*1e4 + 201.
        assert_eq!(b[(1, 2)], 2 * 1_000_000 + 10_000 + 201);
    }

    #[test]
    fn padding_shrinks_edge_tile_working_sets() {
        let s = ConvShape::square(1, 1, 5, 1, 3, 1, 1).unwrap();
        // Corner tap (0,0) misses the first output row/col (padding).
        let corner = FilterTile::new(0, 0).working_set_len(&s);
        let centre = FilterTile::new(1, 1).working_set_len(&s);
        assert_eq!(centre, 25);
        assert_eq!(corner, 16);
    }

    #[test]
    fn dilated_taps_spread_working_sets() {
        let s = ConvShape::new(1, 1, 9, 9, 1, 3, 3)
            .dilation(2)
            .build()
            .unwrap();
        let a = FilterTile::new(0, 0).working_set(&s);
        let b = FilterTile::new(0, 1).working_set(&s);
        // Tap (0,1) is offset by dilation 2 in w.
        assert!(a.contains(&(0, 0)));
        assert!(b.contains(&(0, 2)) && !b.contains(&(0, 1)));
    }

    #[test]
    fn display_is_one_based() {
        assert_eq!(FilterTile::new(0, 0).to_string(), "⟨1,1⟩");
    }

    #[test]
    fn closed_form_working_set_matches_enumeration() {
        let shapes = [
            ConvShape::square(1, 2, 9, 2, 3, 1, 0).unwrap(),
            ConvShape::square(1, 2, 9, 2, 3, 2, 1).unwrap(),
            ConvShape::square(1, 2, 11, 2, 5, 3, 2).unwrap(),
            ConvShape::new(1, 1, 9, 13, 1, 3, 3)
                .stride_hw(2, 1)
                .pad_hw(0, 1)
                .dilation(2)
                .build()
                .unwrap(),
        ];
        for s in shapes {
            for tile in FilterTile::all(&s) {
                assert_eq!(
                    tile.working_set_len(&s),
                    tile.working_set(&s).len(),
                    "{tile} on {s}"
                );
            }
        }
    }
}
