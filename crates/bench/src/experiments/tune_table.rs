//! **Tune table** — per-layer design-space search versus the Table-II
//! defaults, across the full CNN workload suite.
//!
//! For every layer of every model, the search enumerates the candidate
//! grid (TPU: mode x array x layout x schedule; GPU: algo x
//! block/residency/schedule) and reports the strict-minimum winner next to
//! the paper's fixed configuration. Candidate 0 *is* the default, so tuned
//! cycles can never exceed default cycles — the report shows how much the
//! fixed design points of Table II leave on the table per network, and the
//! AlexNet detail shows *which* design-space moves win per layer. The whole
//! sweep is one [`iconv_tune::tune_all`] call: each distinct
//! `(shape, target)` search runs once, on one worker, with the searches
//! fanned over the ambient worker count. The machine-readable form of the
//! same sweep is `tunebench` -> `BENCH_tune.json`.

use iconv_api::proto::tpu_mode_wire;
use iconv_api::{TpuChip, TuneTarget, TunedConfig};
use iconv_tensor::ConvShape;
use iconv_tune::{tune_all, InProcessSource, TuneEstimate, ALL_TARGETS};
use iconv_workloads::Model;

use crate::fmt::{banner, header};

/// Reporting label for a target (the Table-II column it replaces).
pub fn target_label(target: TuneTarget) -> &'static str {
    match target {
        TuneTarget::Tpu { chip: TpuChip::V2 } => "tpu-v2",
        TuneTarget::Tpu { chip: TpuChip::V3 } => "tpu-v3",
        TuneTarget::Gpu => "gpu-v100",
    }
}

/// Compact human spelling of a winning configuration.
pub fn describe(cfg: &TunedConfig) -> String {
    match cfg {
        TunedConfig::Tpu { mode, hw } => {
            let mut s = tpu_mode_wire(*mode);
            if let Some(a) = hw.array {
                s.push_str(&format!(" array={a}"));
            }
            if let Some(l) = hw.layout {
                s.push_str(&format!(" layout={l:?}"));
            }
            if let Some(p) = hw.schedule {
                s.push_str(&format!(" sched={p}"));
            }
            s
        }
        TunedConfig::Gpu { algo, hw } => {
            let mut s = algo.to_string();
            if let Some((bm, bn, bk)) = hw.block {
                s.push_str(&format!(" block={bm}x{bn}x{bk}"));
            }
            if let Some(b) = hw.blocks_per_sm {
                s.push_str(&format!(" resident={b}"));
            }
            if let Some(p) = hw.schedule {
                s.push_str(&format!(" sched={p}"));
            }
            s
        }
    }
}

/// Every layer of every model for every target, in (target, model, layer)
/// order, searched with [`tune_all`] on `jobs` workers. Returns one
/// estimate table per target, indexed `[model][layer]`.
pub fn sweep(models: &[Model], jobs: usize) -> Vec<Vec<Vec<TuneEstimate>>> {
    let pairs: Vec<(ConvShape, TuneTarget)> = ALL_TARGETS
        .iter()
        .flat_map(|&target| {
            models
                .iter()
                .flat_map(move |m| m.layers.iter().map(move |l| (l.shape, target)))
        })
        .collect();
    let mut flat = tune_all(&InProcessSource::new(), jobs, &pairs).into_iter();
    ALL_TARGETS
        .iter()
        .map(|_| {
            models
                .iter()
                .map(|m| flat.by_ref().take(m.layers.len()).collect())
                .collect()
        })
        .collect()
}

/// Render the experiment's full report.
pub fn report() -> String {
    let mut out = String::new();
    let models = iconv_workloads::all_models(8);
    let results = sweep(&models, iconv_par::default_jobs());

    for (target, per_model) in ALL_TARGETS.iter().zip(&results) {
        banner(
            &mut out,
            &format!(
                "Tuned vs Table-II default cycles, target {} (batch 8)",
                target_label(*target)
            ),
        );
        header(
            &mut out,
            &[
                "model",
                "layers",
                "improved",
                "default Mcyc",
                "tuned Mcyc",
                "speedup",
            ],
            &[12, 6, 8, 12, 12, 7],
        );
        for (m, ests) in models.iter().zip(per_model) {
            let mut default = 0.0f64;
            let mut tuned = 0.0f64;
            let mut improved = 0usize;
            for (l, est) in m.layers.iter().zip(ests) {
                default += est.default_cycles * l.count as f64;
                tuned += est.tuned_cycles * l.count as f64;
                if est.tuned_cycles < est.default_cycles {
                    improved += 1;
                }
            }
            crate::outln!(
                out,
                "{:>12}  {:>6}  {:>8}  {:>12.2}  {:>12.2}  {:>7.3}",
                m.name,
                m.layers.len(),
                improved,
                default / 1e6,
                tuned / 1e6,
                default / tuned
            );
        }
    }

    // Per-layer detail for one network: which design-space move wins where
    // (the tpu-v2 results of the sweep above).
    let alexnet = &models[0];
    banner(
        &mut out,
        &format!("{} per-layer winners, target tpu-v2", alexnet.name),
    );
    header(
        &mut out,
        &["layer", "default", "tuned", "speedup", "best config"],
        &[8, 10, 10, 7, 30],
    );
    let v2 = ALL_TARGETS
        .iter()
        .position(|&t| t == TuneTarget::Tpu { chip: TpuChip::V2 })
        .expect("tpu-v2 is a tune target");
    for (l, est) in alexnet.layers.iter().zip(&results[v2][0]) {
        crate::outln!(
            out,
            "{:>8}  {:>10.0}  {:>10.0}  {:>7.3}  {}",
            l.name,
            est.default_cycles,
            est.tuned_cycles,
            est.default_cycles / est.tuned_cycles,
            describe(&est.best)
        );
    }
    out
}

/// Run the experiment, printing the report.
pub fn run() {
    print!("{}", report());
}
