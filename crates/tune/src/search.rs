//! The design-space search itself.
//!
//! A tune is a deterministic function of (shape, target): enumerate a
//! fixed candidate grid with the Table-II default configuration first,
//! prune candidates that fail hardware validation or whose [`Canonical`]
//! identity equals an already-kept one, measure the survivors through a
//! [`CycleSource`], and keep the strict minimum with first-in-order
//! tie-breaking. Because candidate 0 *is* the default, the winner's cycles
//! are `<=` the default's by construction — the CI gate checks the
//! inequality end to end anyway.

use std::collections::HashMap;

use iconv_api::proto::TuneEstimate;
use iconv_api::{
    canonical_key, Canonical, GpuHwSpec, TpuChip, TpuHwSpec, TuneTarget, TunedConfig, Work,
};
use iconv_core::PipelineSchedule;
use iconv_gpusim::GpuAlgo;
use iconv_tensor::{ConvShape, Layout};
use iconv_tpusim::SimMode;

use crate::source::{CycleCount, CycleSource};

/// Measurement mechanics for a search. Chunking only partitions the
/// candidate table, so it never changes the result — the determinism
/// proptests pin that byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneOptions {
    /// Candidates measured per `estimate_many` call (a networked source
    /// turns each chunk into one batched request). Clamped to >= 1.
    pub batch_chunk: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self { batch_chunk: 16 }
    }
}

/// The Table-II default configuration for a target — always candidate 0,
/// and the baseline the tuned result is reported against.
pub fn default_config(target: TuneTarget) -> TunedConfig {
    match target {
        TuneTarget::Tpu { chip } => TunedConfig::Tpu {
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec {
                chip,
                ..TpuHwSpec::default()
            },
        },
        TuneTarget::Gpu => TunedConfig::Gpu {
            algo: GpuAlgo::ChannelFirst { reuse: true },
            hw: GpuHwSpec::default(),
        },
    }
}

/// The full candidate grid for a target, default first, fixed order.
/// Includes points that hardware validation rejects (counted as pruned) —
/// the grid is the *asked* space, not the feasible one.
pub fn candidates(target: TuneTarget) -> Vec<TunedConfig> {
    let mut out = vec![default_config(target)];
    match target {
        TuneTarget::Tpu { chip } => {
            // mode x array x layout x schedule, nested in that order. The
            // grouped modes intentionally overlap ChannelFirst's automatic
            // group on many shapes — value-identity dedup prunes the alias.
            const MODES: [SimMode; 6] = [
                SimMode::ChannelFirst,
                SimMode::ChannelFirstGrouped(1),
                SimMode::ChannelFirstGrouped(2),
                SimMode::ChannelFirstGrouped(4),
                SimMode::Explicit,
                SimMode::Indirect,
            ];
            const ARRAYS: [Option<usize>; 3] = [None, Some(64), Some(256)];
            const LAYOUTS: [Option<Layout>; 2] = [None, Some(Layout::Nhwc)];
            const SCHEDULES: [Option<PipelineSchedule>; 2] =
                [None, Some(PipelineSchedule::DoubleBuffered)];
            for mode in MODES {
                for array in ARRAYS {
                    for layout in LAYOUTS {
                        for schedule in SCHEDULES {
                            out.push(TunedConfig::Tpu {
                                mode,
                                hw: TpuHwSpec {
                                    chip,
                                    array,
                                    word_elems: None,
                                    mxus: None,
                                    layout,
                                    schedule,
                                },
                            });
                        }
                    }
                }
            }
        }
        TuneTarget::Gpu => {
            // algo x (block tile, residency, schedule) alternates. The
            // GemmEquivalent reference bars are deliberately absent: they
            // are not a convolution, so they may not win a conv tune. The
            // bare 128x128x64 tile overflows shared memory at the default
            // residency — it stays in the grid as a validation-prune probe.
            const ALGOS: [GpuAlgo; 5] = [
                GpuAlgo::ChannelFirst { reuse: true },
                GpuAlgo::ChannelFirst { reuse: false },
                GpuAlgo::CudnnImplicit,
                GpuAlgo::ExplicitIm2col,
                GpuAlgo::Indirect,
            ];
            let base = GpuHwSpec::default();
            let hws = [
                base,
                GpuHwSpec {
                    block: Some((64, 64, 32)),
                    ..base
                },
                GpuHwSpec {
                    block: Some((128, 128, 64)),
                    blocks_per_sm: Some(1),
                    ..base
                },
                GpuHwSpec {
                    block: Some((128, 128, 64)),
                    ..base
                },
                GpuHwSpec {
                    schedule: Some(PipelineSchedule::SingleBuffered),
                    ..base
                },
            ];
            for algo in ALGOS {
                for hw in hws {
                    out.push(TunedConfig::Gpu { algo, hw });
                }
            }
        }
    }
    out
}

/// Run the design-space search for one layer, on the calling thread.
///
/// Deterministic in every argument: the candidate order is fixed, pruning
/// compares [`Canonical`] identities, measurement order is preserved by the
/// [`CycleSource::estimate_many`] contract, and chunking by
/// `opts.batch_chunk` only partitions the table. Two calls with the same
/// `(shape, target)` return identical [`TuneEstimate`]s on any
/// bit-deterministic source. A candidate costs microseconds to estimate,
/// less than a thread spawn, so parallelism lives a level up: across
/// whole searches, in [`tune_all`].
pub fn tune(
    src: &dyn CycleSource,
    shape: &ConvShape,
    target: TuneTarget,
    opts: &TuneOptions,
) -> TuneEstimate {
    let grid = candidates(target);
    let mut kept: Vec<(TunedConfig, Work)> = Vec::with_capacity(grid.len());
    let mut seen: Vec<Canonical> = Vec::with_capacity(grid.len());
    let mut pruned = 0u64;
    for cfg in grid {
        let work = cfg.to_work(*shape);
        // One resolve both validates the candidate and names the simulation
        // it denotes. Candidates with equal identities run the same
        // simulation; measuring one of them is measuring all of them.
        match Canonical::new(&work) {
            Ok(id) if !seen.contains(&id) => {
                seen.push(id);
                kept.push((cfg, work));
            }
            _ => pruned += 1,
        }
    }

    let works: Vec<Work> = kept.iter().map(|(_, w)| *w).collect();
    let chunk = opts.batch_chunk.max(1);
    let mut cycles: Vec<f64> = Vec::with_capacity(works.len());
    for part in works.chunks(chunk) {
        cycles.extend(
            src.estimate_many(1, part)
                .into_iter()
                .map(CycleCount::as_f64),
        );
    }

    // Strict minimum, first-in-order tie-break; index 0 is the default.
    let mut best = 0usize;
    for (i, &c) in cycles.iter().enumerate() {
        if c < cycles[best] {
            best = i;
        }
    }
    TuneEstimate {
        best: kept[best].0,
        tuned_cycles: cycles[best],
        default_cycles: cycles[0],
        candidates: works.len() as u64,
        pruned,
    }
}

/// Run one search per `(shape, target)` pair, fanned out over `jobs`
/// workers, and return one estimate per pair in input order.
///
/// Equal pairs denote the same search (they share a [`tune_key`]), so
/// each distinct pair is searched once (in first-seen order) and its
/// estimate is shared by every pair that names it. Each search runs
/// sequentially on one worker ([`tune`] at the default options); since a
/// search is a pure function of its pair, the result equals
/// `pairs.iter().map(tune)` element by element for every `jobs`.
///
/// # Panics
///
/// Panics if `jobs == 0`.
pub fn tune_all(
    src: &dyn CycleSource,
    jobs: usize,
    pairs: &[(ConvShape, TuneTarget)],
) -> Vec<TuneEstimate> {
    let mut index: HashMap<(ConvShape, TuneTarget), usize> = HashMap::with_capacity(pairs.len());
    let mut distinct: Vec<(ConvShape, TuneTarget)> = Vec::new();
    let slots: Vec<usize> = pairs
        .iter()
        .map(|&(shape, target)| {
            *index.entry((shape, target)).or_insert_with(|| {
                distinct.push((shape, target));
                distinct.len() - 1
            })
        })
        .collect();
    let opts = TuneOptions::default();
    let found = iconv_par::par_map_jobs(jobs, &distinct, |(shape, target)| {
        tune(src, shape, *target, &opts)
    });
    slots.into_iter().map(|i| found[i]).collect()
}

/// The work value whose canonical key names this search in every cache:
/// the striped serve cache, the router's hash ring, and the on-disk
/// tune store all key the same bytes.
pub fn tune_work(shape: ConvShape, target: TuneTarget) -> Work {
    Work::Tune { shape, target }
}

/// Convenience: the canonical tune-cache key for `(shape, target)`.
pub fn tune_key(shape: &ConvShape, target: TuneTarget) -> String {
    canonical_key(&tune_work(*shape, target))
}

/// All tune targets, in reporting order.
pub const ALL_TARGETS: [TuneTarget; 3] = [
    TuneTarget::Tpu { chip: TpuChip::V2 },
    TuneTarget::Tpu { chip: TpuChip::V3 },
    TuneTarget::Gpu,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InProcessSource;

    fn shape() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    #[test]
    fn candidate_zero_is_the_default_for_every_target() {
        for target in ALL_TARGETS {
            assert_eq!(candidates(target)[0], default_config(target));
        }
    }

    #[test]
    fn tuned_never_beats_nothing_and_never_loses_to_default() {
        let src = InProcessSource::new();
        for target in ALL_TARGETS {
            let est = tune(&src, &shape(), target, &TuneOptions::default());
            assert!(
                est.tuned_cycles <= est.default_cycles,
                "{target:?}: tuned {} > default {}",
                est.tuned_cycles,
                est.default_cycles
            );
            assert!(est.candidates > 1);
            assert_eq!(est.best.target(), target);
        }
    }

    #[test]
    fn gpu_grid_prunes_the_infeasible_tile_and_tpu_grid_dedups_groups() {
        let src = InProcessSource::new();
        // The bare 128x128x64 tile fails shared-memory validation for all
        // four algos.
        let gpu = tune(&src, &shape(), TuneTarget::Gpu, &TuneOptions::default());
        assert!(gpu.pruned >= 4, "gpu pruned {}", gpu.pruned);
        // ci=64 on 128 rows: auto group 2, so ChannelFirstGrouped(2)
        // aliases ChannelFirst and dedup must catch it.
        let tpu = tune(
            &src,
            &shape(),
            TuneTarget::Tpu { chip: TpuChip::V2 },
            &TuneOptions::default(),
        );
        assert!(tpu.pruned >= 1, "tpu pruned {}", tpu.pruned);
    }

    #[test]
    fn search_is_invariant_to_chunking() {
        let src = InProcessSource::new();
        let v3 = TuneTarget::Tpu { chip: TpuChip::V3 };
        let reference = tune(&src, &shape(), v3, &TuneOptions { batch_chunk: 1 });
        for batch_chunk in [3, 7, 64] {
            let got = tune(&src, &shape(), v3, &TuneOptions { batch_chunk });
            assert_eq!(got, reference, "chunk={batch_chunk}");
        }
    }

    #[test]
    fn tune_key_matches_the_canonical_work_key() {
        let target = TuneTarget::Gpu;
        assert_eq!(
            tune_key(&shape(), target),
            canonical_key(&Work::Tune {
                shape: shape(),
                target
            })
        );
    }
}
