//! Differential invariants of implicit vs explicit im2col on the TPU model
//! — the paper's headline claims, checked layer-by-layer over the full
//! workload table, every IFMap layout, and a dedicated stride sweep.
//!
//! Two claims ride here:
//!
//! 1. **Zero memory overhead** (§IV-B): channel-first implicit convolution
//!    moves exactly the tensor footprint — `(ifmap + filter + ofmap) ×
//!    elem_bytes` — for *every* layer and *every* layout, while explicit
//!    im2col additionally writes the lowered matrix out and streams it back
//!    in, so its DRAM traffic exceeds implicit by at least `2 ×
//!    lowered_bytes`.
//! 2. **No slower, usually faster** (§V): implicit total cycles ≤ explicit
//!    total cycles. This one is *conditional* in the model, matching the
//!    paper's own caveats: it holds for channel-rich layers (`ci ≥ 16`)
//!    under the channel-packed layouts (HWCN, NHWC). First layers (`ci =
//!    3`) under-fill the PE rows so the explicit GEMM's dense lowered
//!    matrix can win despite its transform cost, and the channel-major
//!    layouts (NCHW, CHWN) shred the implicit path's DRAM run lengths on
//!    strided layers. The cycles assertion is therefore scoped to `ci ≥ 16`
//!    × {HWCN, NHWC}; the memory assertion is unconditional.

use iconv_core::{ConvPass, PipelineSchedule};
use iconv_tensor::{ConvShape, Layout};
use iconv_tpusim::{SimMode, Simulator, TpuConfig};

const LAYOUTS: [Layout; 4] = [Layout::Hwcn, Layout::Nhwc, Layout::Nchw, Layout::Chwn];

fn sim_for(layout: Layout) -> Simulator {
    let cfg = TpuConfig::builder_from(TpuConfig::tpu_v2())
        .ifmap_layout(layout)
        .build()
        .expect("layout config");
    Simulator::new(cfg)
}

/// Run both lowerings and check the differential invariants for one shape.
/// `check_cycles` scopes claim 2 (see module docs); claim 1 always runs.
fn check_pair(sim: &Simulator, layout: Layout, name: &str, shape: &ConvShape, check_cycles: bool) {
    let implicit = sim.simulate_conv(name, shape, SimMode::ChannelFirst);
    let explicit = sim.simulate_conv(name, shape, SimMode::Explicit);

    let eb = TpuConfig::tpu_v2().vector_mem.elem_bytes as u64;
    let footprint = (shape.ifmap_elems() + shape.filter_elems() + shape.ofmap_elems()) as u64 * eb;
    let lowered = shape.lowered_elems() as u64 * eb;

    assert_eq!(
        implicit.dram_bytes, footprint,
        "{name} [{layout}]: implicit must move exactly the tensor footprint"
    );
    assert!(
        explicit.dram_bytes >= implicit.dram_bytes + 2 * lowered,
        "{name} [{layout}]: explicit traffic {} < implicit {} + 2x lowered {}",
        explicit.dram_bytes,
        implicit.dram_bytes,
        lowered
    );
    if check_cycles {
        assert!(
            implicit.cycles <= explicit.cycles,
            "{name} [{layout}]: implicit {} cycles > explicit {} cycles",
            implicit.cycles,
            explicit.cycles
        );
    }
}

/// Sweep every layer of every workload model under every IFMap layout.
/// Memory invariants are unconditional; the cycle invariant is scoped to
/// `ci >= 16` under HWCN/NHWC (see module docs for why that carve-out is
/// the model behaving like the paper says, not a bug).
#[test]
fn implicit_beats_explicit_across_workloads_and_layouts() {
    let mut pairs = 0usize;
    let mut cycle_checked = 0usize;
    for layout in LAYOUTS {
        let sim = sim_for(layout);
        for model in iconv_workloads::all_models(8) {
            for layer in &model.layers {
                let check_cycles =
                    layer.shape.ci >= 16 && matches!(layout, Layout::Hwcn | Layout::Nhwc);
                let name = format!("{}/{}", model.name, layer.name);
                check_pair(&sim, layout, &name, &layer.shape, check_cycles);
                pairs += 1;
                cycle_checked += usize::from(check_cycles);
            }
        }
    }
    // Guard the sweep itself: a workload-table edit must not silently
    // shrink the covered surface to nothing.
    assert!(
        pairs >= 400,
        "sweep shrank: only {pairs} layer x layout pairs"
    );
    assert!(
        cycle_checked >= 150,
        "cycle invariant barely exercised: {cycle_checked} pairs"
    );
}

/// The tuned double-buffered schedule may hide fill cycles behind compute
/// but may never *add* cycles or change DRAM traffic: for every layer of
/// every workload model, `cycles(double) <= cycles(single)`, both reports
/// stay conserved (always-on, not just `debug_assert`), and the exposed
/// memory shrinks monotonically with the hidden fill.
#[test]
fn double_buffered_never_slower_across_workload_table() {
    let single = Simulator::new(TpuConfig::tpu_v2());
    let double = Simulator::new(
        TpuConfig::builder()
            .schedule(PipelineSchedule::DoubleBuffered)
            .build()
            .expect("schedule config"),
    );
    let mut layers = 0usize;
    let mut strictly_faster = 0usize;
    for model in iconv_workloads::all_models(8) {
        for layer in &model.layers {
            for mode in [SimMode::ChannelFirst, SimMode::Explicit] {
                let name = format!("{}/{}", model.name, layer.name);
                let sb = single.simulate_conv(&name, &layer.shape, mode);
                let db = double.simulate_conv(&name, &layer.shape, mode);
                assert!(sb.assert_conserved() && db.assert_conserved());
                assert!(
                    db.cycles <= sb.cycles,
                    "{name} [{mode:?}]: double-buffered {} > single-buffered {}",
                    db.cycles,
                    sb.cycles
                );
                assert_eq!(
                    db.dram_bytes, sb.dram_bytes,
                    "{name} [{mode:?}]: schedule must not change traffic"
                );
                assert!(db.exposed_memory_cycles <= sb.exposed_memory_cycles);
                assert_eq!(db.compute_cycles, sb.compute_cycles);
                layers += 1;
                strictly_faster += usize::from(db.cycles < sb.cycles);
            }
        }
    }
    assert!(layers >= 300, "sweep shrank: only {layers} layer runs");
    // The knob must actually matter somewhere, or the wiring is dead. Most
    // paper layers are compute-bound on TPU-v2 (single-buffered steady
    // already equals compute, so overlap has nothing to hide); only the
    // memory-bound tail separates the schedules.
    assert!(
        strictly_faster >= 1,
        "double buffering never engaged: {strictly_faster}/{layers}"
    );
}

/// Every layer the pass battery sweeps: the seven forward workload models
/// plus the transposed-conv-heavy tables (DCGAN generator, U-Net), batch 8.
fn pass_sweep_layers() -> Vec<(String, ConvShape)> {
    let mut models = iconv_workloads::all_models(8);
    models.extend(iconv_workloads::transpose_models(8));
    let mut out = Vec::new();
    for model in &models {
        for layer in &model.layers {
            out.push((format!("{}/{}", model.name, layer.name), layer.shape));
        }
    }
    out
}

/// Claim 1 extended to the backward direction (BP-Im2col): every training
/// pass is itself an implicit GEMM, so the channel-first implicit schedule
/// moves exactly the tensor footprint — the *same* three tensors as the
/// forward pass, with read/write roles permuted — while the explicit
/// lowering of that pass's GEMM view additionally writes its lowered
/// matrix out and streams it back. Phase identities stay conserved
/// (`dispatch + first_fill + steady == cycles`) per pass and mode.
fn pass_dram_is_tensor_footprint(pass: ConvPass) {
    let sim = Simulator::new(TpuConfig::tpu_v2());
    let eb = TpuConfig::tpu_v2().vector_mem.elem_bytes as u64;
    let mut layers = 0usize;
    for (name, shape) in pass_sweep_layers() {
        let implicit = sim.simulate_pass(&name, &shape, pass, SimMode::ChannelFirst);
        let explicit = sim.simulate_pass(&name, &shape, pass, SimMode::Explicit);
        assert!(implicit.assert_conserved(), "{name} [{pass} implicit]");
        assert!(explicit.assert_conserved(), "{name} [{pass} explicit]");

        let footprint =
            (shape.ifmap_elems() + shape.filter_elems() + shape.ofmap_elems()) as u64 * eb;
        assert_eq!(
            implicit.dram_bytes, footprint,
            "{name} [{pass}]: implicit must move exactly the tensor footprint"
        );
        let lowered = pass.lowered_view_elems(&shape) as u64 * eb;
        assert!(
            explicit.dram_bytes >= implicit.dram_bytes + 2 * lowered,
            "{name} [{pass}]: explicit traffic {} < implicit {} + 2x lowered view {}",
            explicit.dram_bytes,
            implicit.dram_bytes,
            lowered
        );
        layers += 1;
    }
    assert!(layers >= 100, "pass sweep shrank: {layers} layers");
}

#[test]
fn invariants_wgrad_implicit_dram_is_tensor_footprint() {
    pass_dram_is_tensor_footprint(ConvPass::Wgrad);
}

#[test]
fn invariants_dgrad_implicit_dram_is_tensor_footprint() {
    pass_dram_is_tensor_footprint(ConvPass::Dgrad);
}

#[test]
fn invariants_transpose_implicit_dram_is_tensor_footprint() {
    pass_dram_is_tensor_footprint(ConvPass::Transpose);
}

/// Claim 2 in the backward direction: implicit dgrad never loses to the
/// explicit lowering of the dgrad view for channel-rich layers. Carve-outs
/// mirror the forward scoping, adapted to what dgrad's GEMM view actually
/// streams: dgrad gathers on the *output* side, so the PE-row fill (and
/// the duplication channel) is `co`, and its GEMM N-dimension is `ci` —
/// both must be ≥ 16 for the implicit schedule to fill the array the way
/// §V assumes. First layers (`ci = 3`) and the DCGAN image head
/// (`ci = 3`) are excluded exactly like forward conv1 is. Full-filter
/// layers (1×1 output, e.g. the DCGAN z-projection) are also excluded:
/// with a single output position the explicit lowering duplicates
/// *nothing* — it is a plain dense GEMM with no transform duplication to
/// pay for — so im2col's usual memory tax vanishes and the implicit
/// gather's dispatch overhead can lose by a few percent.
#[test]
fn invariants_dgrad_implicit_no_slower_on_channel_rich_layers() {
    let sim = Simulator::new(TpuConfig::tpu_v2());
    let mut checked = 0usize;
    for (name, shape) in pass_sweep_layers() {
        if shape.ci < 16 || shape.co < 16 || shape.out_h() * shape.out_w() == 1 {
            continue;
        }
        let imp = sim.simulate_pass(&name, &shape, ConvPass::Dgrad, SimMode::ChannelFirst);
        let exp = sim.simulate_pass(&name, &shape, ConvPass::Dgrad, SimMode::Explicit);
        assert!(
            imp.cycles <= exp.cycles,
            "{name}: implicit dgrad {} cycles > explicit {} cycles",
            imp.cycles,
            exp.cycles
        );
        checked += 1;
    }
    assert!(checked >= 100, "dgrad cycle sweep shrank: {checked} layers");
}

/// Transposed convolution is dgrad with a learned filter: identical cost
/// reports under every mode, layer by layer.
#[test]
fn invariants_transpose_costs_exactly_like_dgrad() {
    let sim = Simulator::new(TpuConfig::tpu_v2());
    for (name, shape) in pass_sweep_layers() {
        for mode in [SimMode::ChannelFirst, SimMode::Explicit, SimMode::Indirect] {
            let d = sim.simulate_pass(&name, &shape, ConvPass::Dgrad, mode);
            let t = sim.simulate_pass(&name, &shape, ConvPass::Transpose, mode);
            assert_eq!(d, t, "{name} [{mode:?}]");
        }
    }
}

/// The indirect-buffer baseline (Dukhan): its pointer table costs real
/// DRAM bytes, so it sits *strictly* between implicit (exact footprint)
/// and the explicit lowering (footprint + 2x lowered copy) on every layer
/// — the pointer table has one entry per output position x tap, batch- and
/// channel-free, so it can never approach the lowered matrix. Reports stay
/// conserved with the dispatch-side gather overhead folded in.
#[test]
fn invariants_indirect_dram_strictly_between_implicit_and_explicit() {
    let sim = Simulator::new(TpuConfig::tpu_v2());
    for (name, shape) in pass_sweep_layers() {
        let imp = sim.simulate_conv(&name, &shape, SimMode::ChannelFirst);
        let ind = sim.simulate_conv(&name, &shape, SimMode::Indirect);
        let exp = sim.simulate_conv(&name, &shape, SimMode::Explicit);
        assert!(ind.assert_conserved(), "{name} [indirect]");
        assert!(
            imp.dram_bytes < ind.dram_bytes,
            "{name}: indirect {} must pay for its pointer table over implicit {}",
            ind.dram_bytes,
            imp.dram_bytes
        );
        assert!(
            ind.dram_bytes < exp.dram_bytes,
            "{name}: indirect {} must stay below explicit-lowered {}",
            ind.dram_bytes,
            exp.dram_bytes
        );
        // Dispatch-side dereference cost is visible but bounded: indirect
        // never costs more cycles than materializing the lowered matrix.
        assert!(
            ind.cycles >= imp.cycles,
            "{name}: indirect {} cycles below implicit {}",
            ind.cycles,
            imp.cycles
        );
    }
}

/// Explicit stride sweep: the cycle and memory advantages must survive
/// stride 1..=3 (strided layers are where explicit im2col's duplication
/// shrinks but the transform's gather runs also shorten).
#[test]
fn invariants_hold_across_strides() {
    for layout in [Layout::Hwcn, Layout::Nhwc] {
        let sim = sim_for(layout);
        for (ci, hw, co, f) in [(64, 56, 64, 3), (128, 28, 256, 3), (32, 112, 64, 5)] {
            for stride in 1..=3 {
                let shape =
                    ConvShape::square(8, ci, hw, co, f, stride, f / 2).expect("valid sweep shape");
                let name = format!("ci{ci}-hw{hw}-co{co}-f{f}-s{stride}");
                check_pair(&sim, layout, &name, &shape, true);
            }
        }
    }
}

/// The GPU channel-first footprint is counted in closed form; it must equal
/// the block-by-block enumeration it replaced, exactly, on every layer of
/// the workload tables, for every block tile the GPU tune grid asks for
/// (the default first), with and without inter-tile reuse. The enumeration
/// costs milliseconds per layer, so this runs in release builds only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "enumerates every block of every layer; run with --release"
)]
fn gpu_channel_first_traffic_matches_the_enumeration() {
    use iconv_api::{TuneTarget, TunedConfig};
    use iconv_core::{reference, BlockDecomposition, FetchOrder};
    use iconv_gpusim::{traffic, GpuConfig};

    let mut configs: Vec<GpuConfig> = Vec::new();
    for cand in iconv_tune::candidates(TuneTarget::Gpu) {
        let TunedConfig::Gpu { hw, .. } = cand else {
            continue;
        };
        let Ok(cfg) = hw.resolve() else { continue };
        if !configs.iter().any(|c| c.block == cfg.block) {
            configs.push(cfg);
        }
    }
    assert!(configs.len() >= 3, "tune grid lost its block tiles");
    assert_eq!(configs[0], GpuConfig::v100(), "default first");

    // One layer per job: each check is independent and the enumeration is
    // the slow side.
    let layers = pass_sweep_layers();
    assert!(layers.len() >= 100, "sweep shrank: {} layers", layers.len());
    let mismatches: Vec<String> = iconv_par::par_map(&layers, |(name, shape)| {
        let mut bad = Vec::new();
        for cfg in &configs {
            for reuse in [false, true] {
                let order = if reuse {
                    FetchOrder::Reordered
                } else {
                    FetchOrder::Naive
                };
                let decomp = BlockDecomposition::new(*shape, cfg.block, order);
                let (cold, warm) = reference::layer_fetch_elems(&decomp);
                let want = if reuse { warm } else { cold } * cfg.elem_bytes;
                let got = traffic::channel_first(cfg, shape, reuse).a_bytes;
                if got != want {
                    bad.push(format!(
                        "{name} {:?} reuse {reuse}: {got} != {want}",
                        cfg.block
                    ));
                }
            }
        }
        bad
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
