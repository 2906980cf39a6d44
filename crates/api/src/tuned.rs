//! The tune vocabulary: what a `tune` request searches over, and what it
//! returns.
//!
//! A [`crate::Work::Tune`] asks "what is the best design-space configuration
//! for this layer on this target?". The answer is a [`TunedConfig`]: a
//! complete (mode/algorithm, hardware-override) pair that
//! [`TunedConfig::to_work`] turns back into an ordinary estimate — that is
//! how `"hw":"tuned"` conv requests and the tuned-vs-default bench table
//! re-measure a search winner through the exact same path as any other
//! request.

use iconv_gpusim::GpuAlgo;
use iconv_tensor::ConvShape;
use iconv_tpusim::SimMode;

use crate::gpuspec::GpuHwSpec;
use crate::spec::{TpuChip, TpuHwSpec};
use crate::work::Work;

/// Which simulator a tune searches, plus the constraints held fixed during
/// the search (the chip generation is a constraint, not an axis: asking
/// "best config for v3" must not answer with v2 hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuneTarget {
    /// Search the TPU design space (mode × array × layout × schedule).
    Tpu {
        /// Chip generation held fixed during the search.
        chip: TpuChip,
    },
    /// Search the GPU design space (algorithm × block tile × residency).
    Gpu,
}

impl TuneTarget {
    /// Canonical-key component naming this target (injective: chip
    /// generations render differently).
    pub fn key_component(&self) -> &'static str {
        match self {
            TuneTarget::Tpu { chip: TpuChip::V2 } => "tpu:v2",
            TuneTarget::Tpu { chip: TpuChip::V3 } => "tpu:v3",
            TuneTarget::Gpu => "gpu",
        }
    }
}

/// A complete design-space point: everything an estimate needs besides the
/// layer shape. The tuner returns one of these; [`TunedConfig::to_work`]
/// re-materializes it as ordinary estimate work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TunedConfig {
    /// A TPU configuration (lowering mode + hardware overrides).
    Tpu {
        /// Lowering mode.
        mode: SimMode,
        /// Hardware overrides (chip included).
        hw: TpuHwSpec,
    },
    /// A GPU configuration (kernel algorithm + hardware overrides).
    Gpu {
        /// Kernel algorithm.
        algo: GpuAlgo,
        /// Hardware overrides.
        hw: GpuHwSpec,
    },
}

impl TunedConfig {
    /// The ordinary estimate work this config denotes for `shape`.
    pub fn to_work(&self, shape: ConvShape) -> Work {
        match *self {
            TunedConfig::Tpu { mode, hw } => Work::TpuConv { shape, mode, hw },
            TunedConfig::Gpu { algo, hw } => Work::GpuConv { shape, algo, hw },
        }
    }

    /// The target this config belongs to.
    pub fn target(&self) -> TuneTarget {
        match self {
            TunedConfig::Tpu { hw, .. } => TuneTarget::Tpu { chip: hw.chip },
            TunedConfig::Gpu { .. } => TuneTarget::Gpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_keys_are_distinct() {
        let keys = [
            TuneTarget::Tpu { chip: TpuChip::V2 }.key_component(),
            TuneTarget::Tpu { chip: TpuChip::V3 }.key_component(),
            TuneTarget::Gpu.key_component(),
        ];
        let set: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn to_work_round_trips_the_config() {
        let shape = ConvShape::square(1, 64, 14, 64, 3, 1, 1).unwrap();
        let cfg = TunedConfig::Tpu {
            mode: SimMode::Explicit,
            hw: TpuHwSpec {
                chip: TpuChip::V3,
                array: Some(256),
                ..TpuHwSpec::default()
            },
        };
        match cfg.to_work(shape) {
            Work::TpuConv { mode, hw, .. } => {
                assert_eq!(mode, SimMode::Explicit);
                assert_eq!(hw.array, Some(256));
                assert_eq!(cfg.target(), TuneTarget::Tpu { chip: TpuChip::V3 });
            }
            other => panic!("{other:?}"),
        }
    }
}
