//! `iconv-tune` — design-space autotuning as a first-class operation.
//!
//! The paper's Table II fixes one configuration per target; this crate
//! asks, per layer, whether any nearby design-space point beats it. A
//! [`search::tune`] enumerates a fixed candidate grid (TPU: lowering mode
//! x array size x ifmap layout x pipeline schedule; GPU: kernel algorithm
//! x block tile x residency x schedule), prunes infeasible points and
//! aliases, measures the rest through a [`CycleSource`], and returns the
//! strict-minimum winner with the Table-II default as the reported
//! baseline — candidate 0 *is* the default, so tuned cycles never exceed
//! default cycles. Pruning is by value: one [`iconv_api::Canonical`]
//! resolve per candidate both validates it and gives its identity, and a
//! candidate whose identity equals a kept one's is an alias.
//!
//! Everything is deterministic: same `(shape, target)` in, byte-identical
//! [`iconv_api::proto::TuneEstimate`] out, for every measurement chunking
//! (proptest-pinned). One search runs on one thread; the worker fan-out
//! lives across searches, in [`search::tune_all`], which runs each
//! distinct pair once and returns exactly what per-pair [`search::tune`]
//! calls would, for every worker count (also proptest-pinned). That is
//! what lets a tune ride the serve stack as ordinary cached work —
//! `Work::Tune` has a canonical key like any estimate, so the striped
//! cache, single-flight, the batch op, and the `routed` hash ring all
//! apply unchanged.
//!
//! [`TuneCache`] is the durable layer: a canonical-key -> best-config map
//! with a lossless JSON round trip (cycles as IEEE-754 bit strings), used
//! by `served --tune-cache` for warm boots and by `tunebench` for
//! `BENCH_tune.json`.
//!
//! [`CycleSource`] (and [`InProcessSource`]) live here so the tuner, the
//! bench runners, and the serve engine measure through one trait.

#![warn(missing_docs)]

pub mod search;
pub mod source;
pub mod store;

pub use iconv_api::proto::TuneEstimate;
pub use iconv_api::{TuneTarget, TunedConfig};
pub use search::{
    candidates, default_config, tune, tune_all, tune_key, tune_work, TuneOptions, ALL_TARGETS,
};
pub use source::{CycleCount, CycleSource, InProcessSource};
pub use store::TuneCache;
