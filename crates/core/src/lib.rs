//! # iconv-core
//!
//! The paper's primary contribution: the **channel-first implicit im2col**
//! algorithm (IISWC 2021, "Characterizing and Demystifying the Implicit
//! Convolution Algorithm on Commercial Matrix-Multiplication Accelerators").
//!
//! The algorithm converts a convolution into GEMM *dynamically* — the
//! lowered matrix never exists in memory — while keeping every IFMap element
//! routed to a **fixed** PE row, so the feeding SRAM needs neither banks nor
//! a crossbar. It rests on three pieces, each a module here:
//!
//! * [`lowered`] — the index algebra of the conceptual lowered matrix and
//!   the column-permutation correctness argument;
//! * [`decompose`] — the filter decomposition into `Hf·Wf` 1×1 convolutions
//!   whose working sets shrink with `stride²` (stride-insensitivity);
//! * [`schedule`] — tile execution orders, including the multi-tile merge
//!   (`min(R/Ci, Wf)`) that fills the array for small channel counts;
//! * [`addrgen`] — the skewed per-SRAM-array address generation that maps
//!   the algorithm onto a TPU-style systolic array;
//! * [`block`] — the block-level variant for output-partitioned engines
//!   (GPU tensor cores), with the inter-tile-reuse reordering;
//! * [`reference`](mod@reference) — the enumerating footprint counts the
//!   closed forms in [`decompose`] and [`block`] are tested against;
//! * [`algo`] — functional executors proving every variant equal to direct
//!   convolution;
//! * [`backward`] — the training pass: weight and input gradients lowered
//!   through the same per-tap decomposition (TPU-v2/v3 are training chips).
//!
//! ## Example: three lowerings, one answer
//!
//! ```
//! use iconv_core::algo::{run, ConvAlgorithm};
//! use iconv_tensor::{conv_ref, ColumnOrder, ConvShape, Layout, Tensor};
//!
//! # fn main() -> Result<(), iconv_tensor::ShapeError> {
//! let shape = ConvShape::square(1, 8, 5, 4, 3, 1, 0)?;
//! let x = Tensor::<f32>::random(conv_ref::ifmap_dims(&shape), Layout::Nhwc, 1);
//! let f = Tensor::<f32>::random(conv_ref::filter_dims(&shape), Layout::Nchw, 2);
//! let golden = conv_ref::direct_conv(&shape, &x, &f);
//!
//! for algo in [
//!     ConvAlgorithm::ExplicitIm2col(ColumnOrder::ChannelLast),
//!     ConvAlgorithm::ImplicitChannelLast,
//!     ConvAlgorithm::ImplicitChannelFirst { group_size: 3 },
//! ] {
//!     assert!(golden.approx_eq(&run(algo, &shape, &x, &f), 1e-4));
//! }
//! # Ok(()) }
//! ```

pub mod addrgen;
pub mod algo;
pub mod backward;
pub mod block;
pub mod decompose;
pub mod lowered;
pub mod pass;
pub mod reference;
pub mod schedule;
pub mod sparse;

pub use addrgen::{AddrGen, ArrayOp, VectorMemSpec, WordAddr};
pub use algo::ConvAlgorithm;
pub use block::{BlockConfig, BlockDecomposition, FetchOrder, KSlice, OutputBlock};
pub use decompose::FilterTile;
pub use lowered::LoweredView;
pub use pass::{ConvPass, ALL_PASSES};
pub use schedule::{chunked_steady, tpu_group_size, PipelineSchedule, TileGroup, TileSchedule};
pub use sparse::SparseFilter;
