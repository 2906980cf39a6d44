//! Content-addressed cache keys.
//!
//! A work's identity is a value, [`Canonical`]: the fully-resolved
//! hardware configuration, the pass, the lowering mode after the engine's
//! own normalization, and the shape. Requests that denote the same
//! simulation — default vs. explicit padding, `dilation:1` spelled or
//! omitted, an `hw` override equal to the chip default, an auto
//! channel-first group vs. the same group requested explicitly — resolve
//! to equal values. The cache key is that value's `Display`
//! ([`canonical_key`]); requests that differ in any observable way never
//! collide, because every component renders injectively
//! ([`iconv_tpusim::TpuConfig::canonical_key`] and friends), so two works
//! share a key exactly when they share a value.

use std::fmt::{self, Write as _};

use iconv_core::ConvPass;
use iconv_gpusim::{GpuAlgo, GpuConfig, GpuConfigError};
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, TpuConfig, TpuConfigError};

use crate::tuned::TuneTarget;
use crate::work::Work;

/// Why a work's hardware overrides do not resolve: the typed config
/// builder's own error.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// A TPU spec failed validation.
    Tpu(TpuConfigError),
    /// A GPU spec failed validation.
    Gpu(GpuConfigError),
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::Tpu(e) => e.fmt(f),
            HwError::Gpu(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for HwError {}

/// The identity of a unit of work: what will be simulated, as a value.
/// Two works denote the same simulation exactly when their `Canonical`s
/// are equal, and exactly when their [`canonical_key`]s are equal — the
/// key is this value's `Display`. (The config builders admit only finite
/// positive floats, on which `==` and the shortest-round-trip rendering
/// agree.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Canonical(Kind);

// Fields are ordered so that equality rejects early on the axes a tune
// search varies (lowering, then hardware); the shape, shared by every
// candidate of a search, comes last.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    TpuConv {
        lowering: Lowering,
        pass: ConvPass,
        cfg: TpuConfig,
        shape: ConvShape,
    },
    TpuGemm {
        m: usize,
        n: usize,
        k: usize,
        cfg: TpuConfig,
    },
    GpuConv {
        algo: GpuAlgo,
        pass: ConvPass,
        cfg: GpuConfig,
        shape: ConvShape,
    },
    Tune {
        target: TuneTarget,
        shape: ConvShape,
    },
}

/// A TPU lowering after the engine's normalization: every channel-first
/// spelling (automatic or an explicit group) is its effective group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lowering {
    Group(usize),
    Explicit,
    Indirect,
}

impl Canonical {
    /// Resolve `work` to its identity: hardware overrides against the chip
    /// defaults (validated by the typed builder) and the TPU lowering
    /// through [`SimMode::effective_group`], exactly as the engine runs it.
    pub fn new(work: &Work) -> Result<Self, HwError> {
        let kind = match *work {
            // A plain conv is its forward pass, so both spellings share one
            // identity.
            Work::TpuConv { shape, mode, hw } => {
                return Self::new(&Work::TpuPass {
                    shape,
                    pass: ConvPass::Forward,
                    mode,
                    hw,
                });
            }
            Work::GpuConv { shape, algo, hw } => {
                return Self::new(&Work::GpuPass {
                    shape,
                    pass: ConvPass::Forward,
                    algo,
                    hw,
                });
            }
            Work::TpuPass {
                shape,
                pass,
                mode,
                hw,
            } => {
                let cfg = hw.resolve().map_err(HwError::Tpu)?;
                let lowering = match (mode, mode.effective_group(cfg.array.rows, &shape, pass)) {
                    (SimMode::Indirect, _) => Lowering::Indirect,
                    (_, Some(group)) => Lowering::Group(group),
                    (_, None) => Lowering::Explicit,
                };
                Kind::TpuConv {
                    lowering,
                    pass,
                    cfg,
                    shape,
                }
            }
            Work::TpuGemm { m, n, k, hw } => Kind::TpuGemm {
                m,
                n,
                k,
                cfg: hw.resolve().map_err(HwError::Tpu)?,
            },
            Work::GpuPass {
                shape,
                pass,
                algo,
                hw,
            } => Kind::GpuConv {
                algo,
                pass,
                cfg: hw.resolve().map_err(HwError::Gpu)?,
                shape,
            },
            Work::Tune { shape, target } => Kind::Tune { target, shape },
        };
        Ok(Canonical(kind))
    }
}

/// Every shape field, fixed order. Symmetric shapes render exactly as they
/// always have; an asymmetric trailing pad appends a `phe`/`pwe` suffix,
/// which keeps the rendering injective (a symmetric key never contains the
/// suffix, and two asymmetric shapes differing only in trailing pad render
/// differently).
fn write_shape(f: &mut fmt::Formatter<'_>, s: &ConvShape) -> fmt::Result {
    write!(
        f,
        "n{},ci{},hi{},wi{},co{},hf{},wf{},sh{},sw{},ph{},pw{},dh{},dw{}",
        s.n,
        s.ci,
        s.hi,
        s.wi,
        s.co,
        s.hf,
        s.wf,
        s.stride_h,
        s.stride_w,
        s.pad_h,
        s.pad_w,
        s.dil_h,
        s.dil_w
    )?;
    if s.has_asymmetric_pad() {
        write!(f, ",phe{},pwe{}", s.pad_h_end, s.pad_w_end)?;
    }
    Ok(())
}

/// A forward pass keeps the plain conv's four-segment key, so both
/// spellings share one cache identity. Other passes insert a pass
/// segment, which keeps them injective against every plain key by segment
/// count alone.
fn write_pass(f: &mut fmt::Formatter<'_>, pass: ConvPass) -> fmt::Result {
    if pass == ConvPass::Forward {
        Ok(())
    } else {
        write!(f, "{};", pass.wire())
    }
}

impl fmt::Display for Canonical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Kind::TpuConv {
                lowering,
                pass,
                cfg,
                shape,
            } => {
                write!(f, "{};conv;", cfg.canonical_key())?;
                write_pass(f, *pass)?;
                match lowering {
                    Lowering::Group(g) => write!(f, "cf:g{g};")?,
                    Lowering::Explicit => f.write_str("explicit;")?,
                    Lowering::Indirect => f.write_str("indirect;")?,
                }
                write_shape(f, shape)
            }
            Kind::TpuGemm { m, n, k, cfg } => {
                write!(f, "{};gemm;m{m},n{n},k{k}", cfg.canonical_key())
            }
            Kind::GpuConv {
                algo,
                pass,
                cfg,
                shape,
            } => {
                // The default spec resolves to exactly the V100 preset, so
                // pre-existing GPU requests keep their historical keys.
                write!(f, "{};conv;", cfg.canonical_key())?;
                write_pass(f, *pass)?;
                write!(f, "{algo};")?;
                write_shape(f, shape)
            }
            Kind::Tune { target, shape } => {
                write!(f, "tune;{};", target.key_component())?;
                write_shape(f, shape)
            }
        }
    }
}

/// Derive the cache key for a unit of work whose hardware is already
/// known to be valid (anything that passed request validation, or was
/// built from in-tree presets): its [`Canonical`] identity, rendered.
///
/// # Panics
///
/// Panics if the work's hardware spec fails validation.
pub fn canonical_key(work: &Work) -> String {
    let id = Canonical::new(work).expect("hardware spec failed validation");
    // Keys run to ~250 bytes; one allocation up front beats regrowing.
    let mut key = String::with_capacity(256);
    write!(key, "{id}").expect("writing to a String cannot fail");
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpuspec::GpuHwSpec;
    use crate::spec::{TpuChip, TpuHwSpec};
    use crate::tuned::TuneTarget;
    use iconv_gpusim::GpuAlgo;

    fn shape() -> ConvShape {
        ConvShape::square(8, 64, 56, 64, 3, 1, 1).unwrap()
    }

    #[test]
    fn default_hw_spellings_share_a_key() {
        let explicit_defaults = TpuHwSpec {
            chip: TpuChip::V2,
            array: Some(128),
            word_elems: Some(8),
            mxus: Some(1),
            layout: Some(iconv_tensor::Layout::Hwcn),
            schedule: Some(iconv_core::PipelineSchedule::SingleBuffered),
        };
        let a = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec::default(),
        });
        let b = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: explicit_defaults,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn auto_group_aliases_its_resolved_spelling() {
        // ci=64 on a 128-row array: auto group = ceil(128/64).min(3) = 2.
        let auto = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirst,
            hw: TpuHwSpec::default(),
        });
        let explicit2 = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirstGrouped(2),
            hw: TpuHwSpec::default(),
        });
        // An over-asked group clamps to the same schedule as well.
        let clamped = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirstGrouped(99),
            hw: TpuHwSpec::default(),
        });
        assert_eq!(auto, explicit2);
        assert_eq!(explicit2, clamped);
        // ...but a genuinely different group is a different key.
        let g1 = canonical_key(&Work::TpuConv {
            shape: shape(),
            mode: SimMode::ChannelFirstGrouped(1),
            hw: TpuHwSpec::default(),
        });
        assert_ne!(auto, g1);
    }

    #[test]
    fn distinct_work_never_collides() {
        let mut keys = std::collections::BTreeSet::new();
        let mut n = 0;
        for ci in [3, 64, 128] {
            for stride in [1, 2] {
                let s = ConvShape::square(4, ci, 28, 32, 3, stride, 1).unwrap();
                for mode in [SimMode::ChannelFirstGrouped(1), SimMode::Explicit] {
                    for hw in [
                        TpuHwSpec::default(),
                        TpuHwSpec {
                            chip: TpuChip::V3,
                            ..TpuHwSpec::default()
                        },
                        TpuHwSpec {
                            array: Some(256),
                            ..TpuHwSpec::default()
                        },
                        TpuHwSpec {
                            schedule: Some(iconv_core::PipelineSchedule::DoubleBuffered),
                            ..TpuHwSpec::default()
                        },
                    ] {
                        keys.insert(canonical_key(&Work::TpuConv { shape: s, mode, hw }));
                        n += 1;
                    }
                }
                for algo in [GpuAlgo::CudnnImplicit, GpuAlgo::ExplicitIm2col] {
                    for hw in [
                        GpuHwSpec::default(),
                        GpuHwSpec {
                            sms: Some(108),
                            ..GpuHwSpec::default()
                        },
                    ] {
                        keys.insert(canonical_key(&Work::GpuConv { shape: s, algo, hw }));
                        n += 1;
                    }
                }
                for target in [
                    TuneTarget::Tpu { chip: TpuChip::V2 },
                    TuneTarget::Tpu { chip: TpuChip::V3 },
                    TuneTarget::Gpu,
                ] {
                    keys.insert(canonical_key(&Work::Tune { shape: s, target }));
                    n += 1;
                }
            }
        }
        keys.insert(canonical_key(&Work::TpuGemm {
            m: 64,
            n: 64,
            k: 64,
            hw: TpuHwSpec::default(),
        }));
        n += 1;
        assert_eq!(keys.len(), n, "cache-key collision in sweep");
    }

    #[test]
    fn default_gpu_hw_keeps_the_historical_v100_key() {
        let work = Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec::default(),
        };
        let key = canonical_key(&work);
        assert!(
            key.starts_with(&iconv_gpusim::GpuConfig::v100().canonical_key()),
            "{key}"
        );
        // Explicitly-spelled defaults alias the preset key too.
        let explicit = Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec {
                sms: Some(80),
                clock_mhz: Some(1530.0),
                ..GpuHwSpec::default()
            },
        };
        assert_eq!(key, canonical_key(&explicit));
    }

    #[test]
    fn tune_keys_name_target_and_shape() {
        let key = canonical_key(&Work::Tune {
            shape: shape(),
            target: TuneTarget::Tpu { chip: TpuChip::V2 },
        });
        assert!(key.starts_with("tune;tpu:v2;n8,"), "{key}");
    }

    #[test]
    fn forward_pass_aliases_the_plain_conv_key() {
        for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
            let plain = canonical_key(&Work::TpuConv {
                shape: shape(),
                mode,
                hw: TpuHwSpec::default(),
            });
            let spelled = canonical_key(&Work::TpuPass {
                shape: shape(),
                pass: ConvPass::Forward,
                mode,
                hw: TpuHwSpec::default(),
            });
            assert_eq!(plain, spelled);
        }
        let plain = canonical_key(&Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec::default(),
        });
        let spelled = canonical_key(&Work::GpuPass {
            shape: shape(),
            pass: ConvPass::Forward,
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec::default(),
        });
        assert_eq!(plain, spelled);
    }

    #[test]
    fn pass_keys_never_collide_with_forward_or_each_other() {
        let mut keys = std::collections::BTreeSet::new();
        let mut n = 0;
        for pass in [ConvPass::Wgrad, ConvPass::Dgrad, ConvPass::Transpose] {
            for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
                keys.insert(canonical_key(&Work::TpuPass {
                    shape: shape(),
                    pass,
                    mode,
                    hw: TpuHwSpec::default(),
                }));
                n += 1;
            }
            keys.insert(canonical_key(&Work::GpuPass {
                shape: shape(),
                pass,
                algo: GpuAlgo::CudnnImplicit,
                hw: GpuHwSpec::default(),
            }));
            n += 1;
        }
        // dgrad and transpose share a cost model but are distinct
        // vocabulary, so their keys must stay distinct too.
        assert_eq!(keys.len(), n, "pass-key collision");
        // ...and none of them collide with the forward key space.
        for mode in [SimMode::ChannelFirst, SimMode::Explicit] {
            assert!(!keys.contains(&canonical_key(&Work::TpuConv {
                shape: shape(),
                mode,
                hw: TpuHwSpec::default(),
            })));
        }
    }

    #[test]
    fn wgrad_group_spellings_collapse_to_one_key() {
        // wgrad streams a plain GEMM — no duplication axis — so every
        // channel-first group spelling keys (and runs) identically.
        let spell = |mode| {
            canonical_key(&Work::TpuPass {
                shape: shape(),
                pass: ConvPass::Wgrad,
                mode,
                hw: TpuHwSpec::default(),
            })
        };
        let auto = spell(SimMode::ChannelFirst);
        assert_eq!(auto, spell(SimMode::ChannelFirstGrouped(1)));
        assert_eq!(auto, spell(SimMode::ChannelFirstGrouped(4)));
        assert!(auto.contains(";wgrad;cf:g1;"), "{auto}");
    }

    #[test]
    fn dgrad_groups_clamp_against_co_not_ci() {
        // ci=8, co=64 on a 128-row array: the forward clamp allows groups
        // up to 16, but dgrad duplicates over co, so its ceiling is 2.
        let s = ConvShape::square(4, 8, 28, 64, 3, 1, 1).unwrap();
        let spell = |mode| {
            canonical_key(&Work::TpuPass {
                shape: s,
                pass: ConvPass::Dgrad,
                mode,
                hw: TpuHwSpec::default(),
            })
        };
        assert_eq!(
            spell(SimMode::ChannelFirstGrouped(2)),
            spell(SimMode::ChannelFirstGrouped(99))
        );
        assert_ne!(
            spell(SimMode::ChannelFirstGrouped(1)),
            spell(SimMode::ChannelFirstGrouped(2))
        );
    }

    #[test]
    fn invalid_hardware_is_an_error_not_a_panic() {
        let tpu = Work::TpuConv {
            shape: shape(),
            mode: SimMode::Explicit,
            hw: TpuHwSpec {
                mxus: Some(0),
                ..TpuHwSpec::default()
            },
        };
        assert_eq!(
            Canonical::new(&tpu),
            Err(HwError::Tpu(TpuConfigError::ZeroMxus))
        );
        let gpu = Work::GpuConv {
            shape: shape(),
            algo: GpuAlgo::CudnnImplicit,
            hw: GpuHwSpec {
                sms: Some(0),
                ..GpuHwSpec::default()
            },
        };
        assert_eq!(
            Canonical::new(&gpu),
            Err(HwError::Gpu(GpuConfigError::ZeroSms))
        );
    }

    #[test]
    fn asymmetric_pad_extends_the_key_injectively() {
        let sym = ConvShape::new(1, 4, 14, 14, 4, 4, 4)
            .same_pad_symmetric()
            .build()
            .unwrap();
        let asym = ConvShape::new(1, 4, 14, 14, 4, 4, 4)
            .same_pad()
            .build()
            .unwrap();
        let key = |shape| {
            canonical_key(&Work::TpuConv {
                shape,
                mode: SimMode::Explicit,
                hw: TpuHwSpec::default(),
            })
        };
        // Symmetric keys carry no suffix (byte-stable with history);
        // asymmetric keys do, and the two never collide.
        assert!(!key(sym).contains("phe"));
        assert!(key(asym).contains(",phe2,pwe2"));
        assert_ne!(key(sym), key(asym));
    }
}
