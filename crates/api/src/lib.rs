//! `iconv-api` — the one shared request vocabulary.
//!
//! Before this crate existed, the "what do you want simulated?" types lived
//! in `iconv-serve`'s protocol module and every other consumer (the bench
//! summary sweeps, the load generator, the facade) either depended on the
//! whole service crate or re-declared parallel structs. This crate extracts
//! the vocabulary into a leaf that everything can share:
//!
//! - [`TpuChip`] / [`TpuHwSpec`]: hardware selection plus overrides, with
//!   [`TpuHwSpec::resolve`] producing a **validated** `TpuConfig` (via the
//!   simulator's typed config builder) so out-of-domain overrides surface as
//!   [`iconv_tpusim::TpuConfigError`] instead of panics downstream.
//! - [`Work`]: one unit of simulation (TPU conv, TPU GEMM, GPU conv).
//! - [`Canonical`]: a [`Work`]'s identity as a value (resolved hardware,
//!   pass, engine-normalized mode, shape), and [`canonical_key`], its
//!   injective cache-key rendering — requests that denote the same
//!   simulation collapse to the same value and the same key.
//! - [`SweepSpec`]: a compact batch description (base shape × axis ranges)
//!   that [`SweepSpec::expand`]s into concrete [`Work`] items in a fixed,
//!   documented order — the `batch` protocol op's "sweep" form.
//! - [`table::workload_works`]: the paper's full workload table under the
//!   standard four estimators, shared by `loadgen` and the contract tests.
//! - [`stable_hash64`] / [`shard_of`] / [`HashRing`]: the process-stable
//!   key hash shared by the striped in-process cache and the `routed`
//!   consistent-hash fleet, so shard placement is identical everywhere a
//!   canonical key is hashed.
//! - [`hist::LatencyHist`]: the fixed-layout HDR-style latency histogram —
//!   exact counts, mergeable across connections and backends, bounded
//!   quantile error — shared by the server's `stats` op and the open-loop
//!   capacity harness.
//! - [`zipf::ZipfSampler`]: the deterministic seeded Zipfian key sampler
//!   the capacity harness skews its canonical-key population with (the
//!   splitmix primitives are re-exported from `iconv-faults`).
//!
//! - [`proto`]: the NDJSON wire codecs themselves — one typed [`proto::Op`]
//!   registry plus request/response structs, shared verbatim by the server,
//!   the clients, and the `routed` front-end (they ride on [`json`], the
//!   hand-rolled panic-free parser). Sockets stay in `iconv-serve`; this
//!   crate still knows nothing about I/O.

#![warn(missing_docs)]

pub mod gpuspec;
pub mod hist;
pub mod json;
pub mod key;
pub mod proto;
pub mod ring;
pub mod spec;
pub mod sweep;
pub mod table;
pub mod tuned;
pub mod work;
pub mod zipf;

pub use gpuspec::{resolve_gpu, GpuHwSpec};
pub use hist::LatencyHist;
pub use key::{canonical_key, Canonical, HwError};
pub use ring::{shard_of, stable_hash64, HashRing};
pub use spec::{resolve_tpu, TpuChip, TpuHwSpec};
pub use sweep::{SweepError, SweepSpec, SweepTarget, MAX_SWEEP_ITEMS};
pub use tuned::{TuneTarget, TunedConfig};
pub use work::Work;
pub use zipf::ZipfSampler;
