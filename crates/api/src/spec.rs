//! Hardware selection: chip presets plus optional overrides.

use iconv_core::PipelineSchedule;
use iconv_tensor::Layout;
use iconv_tpusim::{TpuConfig, TpuConfigError};

/// Which TPU generation a request targets; resolved to a full
/// [`TpuConfig`] (plus the optional overrides in [`TpuHwSpec`]) before
/// simulation and cache-key derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TpuChip {
    /// TPU-v2 (paper Table II) — the default.
    #[default]
    V2,
    /// TPU-v3: two MXUs, faster clock, more HBM bandwidth.
    V3,
}

impl TpuChip {
    /// The preset configuration this chip denotes.
    pub fn base_config(self) -> TpuConfig {
        match self {
            TpuChip::V2 => TpuConfig::tpu_v2(),
            TpuChip::V3 => TpuConfig::tpu_v3(),
        }
    }
}

/// Hardware overrides for TPU-targeted requests. Every field is optional;
/// the spec resolves against the chip's defaults *before* the cache key is
/// derived, so `{}` and `{"chip":"v2","array":128}` address the same cache
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TpuHwSpec {
    /// Base chip generation.
    pub chip: TpuChip,
    /// Systolic-array size override (`with_array_size`, Fig. 16a sweep).
    pub array: Option<usize>,
    /// Vector-memory word-size override (`with_word_elems`, Fig. 16b).
    pub word_elems: Option<usize>,
    /// MXU-count override.
    pub mxus: Option<usize>,
    /// DRAM IFMap layout override (default: the chip's, i.e. `HWCN`).
    pub layout: Option<Layout>,
    /// DMA pipeline schedule override (default: the chip's single-buffered
    /// per-chunk barrier; `DoubleBuffered` models a tuned prefetch that
    /// hides fill cycles behind steady-state compute).
    pub schedule: Option<PipelineSchedule>,
}

impl TpuHwSpec {
    /// Resolve to the full TPU configuration this spec denotes, validating
    /// every override through the typed config builder.
    ///
    /// # Errors
    ///
    /// Returns the builder's [`TpuConfigError`] when an override is out of
    /// domain (e.g. an array size so large the per-row SRAM budget
    /// underflows to zero). Request validators surface this as a
    /// `bad-request` instead of letting a nonsense config reach the
    /// simulator.
    pub fn resolve(&self) -> Result<TpuConfig, TpuConfigError> {
        let mut b = TpuConfig::builder_from(self.chip.base_config());
        if let Some(a) = self.array {
            b = b.array_size(a);
        }
        if let Some(w) = self.word_elems {
            b = b.word_elems(w);
        }
        if let Some(m) = self.mxus {
            b = b.mxus(m);
        }
        if let Some(l) = self.layout {
            b = b.ifmap_layout(l);
        }
        if let Some(s) = self.schedule {
            b = b.schedule(s);
        }
        b.build()
    }
}

/// Resolve a hardware spec that is already known to be valid (anything that
/// passed request validation, or was built from in-tree presets).
///
/// # Panics
///
/// Panics if the spec fails validation — constructing a [`super::Work`]
/// from unvalidated external input without going through
/// [`TpuHwSpec::resolve`] first is a programming error.
pub fn resolve_tpu(hw: &TpuHwSpec) -> TpuConfig {
    hw.resolve().expect("hardware spec failed validation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_applies_every_override() {
        let cfg = resolve_tpu(&TpuHwSpec {
            chip: TpuChip::V3,
            array: Some(256),
            word_elems: Some(16),
            mxus: Some(4),
            layout: Some(Layout::Nchw),
            schedule: Some(PipelineSchedule::DoubleBuffered),
        });
        assert_eq!(cfg.array.rows, 256);
        assert_eq!(cfg.vector_mem.word_elems, 16);
        assert_eq!(cfg.mxus, 4);
        assert_eq!(cfg.ifmap_layout, Layout::Nchw);
        assert_eq!(cfg.schedule, PipelineSchedule::DoubleBuffered);
        assert_eq!(resolve_tpu(&TpuHwSpec::default()), TpuConfig::tpu_v2());
    }

    #[test]
    fn resolve_keeps_v3_deltas() {
        let cfg = resolve_tpu(&TpuHwSpec {
            chip: TpuChip::V3,
            ..TpuHwSpec::default()
        });
        assert_eq!(cfg, TpuConfig::tpu_v3());
    }

    #[test]
    fn out_of_domain_overrides_are_typed_errors() {
        let spec = TpuHwSpec {
            array: Some(1 << 30), // drives per-row SRAM capacity to zero
            ..TpuHwSpec::default()
        };
        assert!(spec.resolve().is_err());
        let spec = TpuHwSpec {
            mxus: Some(0),
            ..TpuHwSpec::default()
        };
        assert_eq!(spec.resolve(), Err(TpuConfigError::ZeroMxus));
    }
}
