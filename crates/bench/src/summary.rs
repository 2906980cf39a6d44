//! Machine-readable summary of the headline reproduction metrics, written
//! by `expall` to `results/summary.json` so CI or downstream tooling can
//! track regressions without parsing table output.

use iconv_api::{GpuHwSpec, TpuHwSpec, Work};
use iconv_gpusim::{GpuAlgo, GpuConfig};
use iconv_models::{mean_abs_pct_error, TpuMeasuredProxy};
use iconv_tpusim::SimMode;
use iconv_tune::{CycleSource, InProcessSource};

/// One reproduced artifact: our headline number next to the paper's.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Artifact id (`fig13a`, `fig17`, …).
    pub id: &'static str,
    /// What the number is.
    pub description: &'static str,
    /// Our measured value.
    pub measured: f64,
    /// The paper's reported value (same unit).
    pub paper: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The full summary document.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Reproduction metrics, one per headline number.
    pub metrics: Vec<Metric>,
}

/// Compute the headline metrics (a fast subset of the full runners) on the
/// default worker count.
pub fn compute() -> Summary {
    compute_jobs(iconv_par::default_jobs())
}

/// [`compute`] with an explicit worker count. The per-item sweeps fan out
/// via [`iconv_par::par_map_jobs`], which preserves input order — the
/// resulting metrics (and their JSON) are identical for every `jobs` value.
pub fn compute_jobs(jobs: usize) -> Summary {
    compute_jobs_with(jobs, &InProcessSource::new())
}

/// [`compute_jobs`] against an arbitrary estimate source. With
/// [`InProcessSource`] this is the classic path; with the `--via-serve`
/// source in the `expall` binary every estimate is fetched over the wire.
/// The floating-point reductions below are ordered identically either way,
/// and the sources are bit-deterministic, so the resulting JSON is
/// byte-identical across sources, worker counts, and cache states.
pub fn compute_jobs_with(jobs: usize, src: &dyn CycleSource) -> Summary {
    let proxy = TpuMeasuredProxy::tpu_v2();
    let gpu_cfg = GpuConfig::v100();
    let hw = TpuHwSpec::default();

    // Each figure assembles its whole work table and estimates it in one
    // `estimate_many` call (one batched request on a networked source),
    // then replays its floating-point reduction in the *original* input
    // order — the order is what keeps the JSON byte-identical to the
    // historical per-call path.

    // Fig. 13a: GEMM validation error.
    let gemm_sweep = crate::experiments::fig13::gemm_sweep();
    let gemm_works: Vec<Work> = gemm_sweep
        .iter()
        .map(|&(m, n, k)| Work::TpuGemm { m, n, k, hw })
        .collect();
    let gemm_pairs: Vec<(f64, f64)> = src
        .estimate_many(jobs, &gemm_works)
        .iter()
        .zip(&gemm_sweep)
        .map(|(c, &(m, n, k))| (c.tpu() as f64, proxy.gemm_cycles(m, n, k)))
        .collect();

    // Fig. 13b: conv validation error.
    let conv_sweep = crate::experiments::fig13::conv_sweep(8);
    let conv_works: Vec<Work> = conv_sweep
        .iter()
        .map(|s| Work::TpuConv {
            shape: *s,
            mode: SimMode::ChannelFirst,
            hw,
        })
        .collect();
    let conv_pairs: Vec<(f64, f64)> = src
        .estimate_many(jobs, &conv_works)
        .iter()
        .zip(&conv_sweep)
        .map(|(c, s)| (c.tpu() as f64, proxy.conv_cycles(s)))
        .collect();

    // Fig. 15: layer-wise MAE over all models.
    let models = iconv_workloads::all_models(8);
    let all_layers: Vec<_> = models.iter().flat_map(|m| m.layers.iter()).collect();
    let layer_works: Vec<Work> = all_layers
        .iter()
        .map(|l| Work::TpuConv {
            shape: l.shape,
            mode: SimMode::ChannelFirst,
            hw,
        })
        .collect();
    let layer_pairs: Vec<(f64, f64)> = src
        .estimate_many(jobs, &layer_works)
        .iter()
        .zip(&all_layers)
        .map(|(c, l)| (c.tpu() as f64, proxy.conv_cycles(&l.shape)))
        .collect();

    // Fig. 17: GPU parity. The reduction replays `GpuSim::model_seconds`
    // operation for operation (cycles-to-seconds conversion, then scale by
    // occurrence count, summed in layer order; ours before cuDNN per
    // model), so the ratio is bit-identical to the direct call.
    const FIG17_ALGOS: [GpuAlgo; 2] = [
        GpuAlgo::ChannelFirst { reuse: true },
        GpuAlgo::CudnnImplicit,
    ];
    let fig17_works: Vec<Work> = models
        .iter()
        .flat_map(|m| {
            FIG17_ALGOS.iter().flat_map(|&algo| {
                m.layers.iter().map(move |l| Work::GpuConv {
                    shape: l.shape,
                    algo,
                    hw: GpuHwSpec::default(),
                })
            })
        })
        .collect();
    let fig17_cycles = src.estimate_many(jobs, &fig17_works);
    let mut fig17_iter = fig17_cycles.iter();
    let fig17: f64 = models
        .iter()
        .map(|m| {
            let mut seconds = [0.0f64; 2];
            for s in &mut seconds {
                for l in &m.layers {
                    let c = fig17_iter.next().expect("fig17 table length").gpu();
                    *s += gpu_cfg.cycles_to_seconds(c) * l.count as f64;
                }
            }
            seconds[0] / seconds[1]
        })
        .sum::<f64>()
        / models.len() as f64;

    // Fig. 18a: strided speedup (cuDNN then ours per layer).
    let strided: Vec<_> = models
        .iter()
        .flat_map(|m| m.strided_layers())
        .filter(|l| l.shape.ci >= 16)
        .collect();
    let strided_works: Vec<Work> = strided
        .iter()
        .flat_map(|l| {
            [
                Work::GpuConv {
                    shape: l.shape,
                    algo: GpuAlgo::CudnnImplicit,
                    hw: GpuHwSpec::default(),
                },
                Work::GpuConv {
                    shape: l.shape,
                    algo: GpuAlgo::ChannelFirst { reuse: true },
                    hw: GpuHwSpec::default(),
                },
            ]
        })
        .collect();
    let speedups: Vec<f64> = src
        .estimate_many(jobs, &strided_works)
        .chunks(2)
        .map(|pair| pair[0].gpu() / pair[1].gpu())
        .collect();
    let fig18a = speedups.iter().sum::<f64>() / speedups.len() as f64;

    Summary {
        metrics: vec![
            Metric {
                id: "fig13a",
                description: "TPUSim vs measured, GEMM sweep, mean abs error",
                measured: 100.0 * mean_abs_pct_error(&gemm_pairs),
                paper: 4.42,
                unit: "%",
            },
            Metric {
                id: "fig13b",
                description: "TPUSim vs measured, CONV sweep, mean abs error",
                measured: 100.0 * mean_abs_pct_error(&conv_pairs),
                paper: 4.87,
                unit: "%",
            },
            Metric {
                id: "fig15b",
                description: "layer-wise MAE over all 7 CNNs",
                measured: 100.0 * mean_abs_pct_error(&layer_pairs),
                paper: 5.8,
                unit: "%",
            },
            Metric {
                id: "fig17",
                description: "GPU ours/cuDNN time ratio, 7-model average",
                measured: fig17,
                paper: 1.01,
                unit: "ratio",
            },
            Metric {
                id: "fig18a",
                description: "strided-layer speedup over cuDNN, average",
                measured: fig18a,
                paper: 1.20,
                unit: "ratio",
            },
        ],
    }
}

/// Serialize to pretty JSON (hand-rolled: the offline dep set has no
/// serde_json, and the document is small and flat).
///
/// This metrics-only document is the **determinism surface**: it is
/// byte-identical for every worker count (see `tests/determinism.rs`).
/// Wall-clock timings, which necessarily vary run to run, are added
/// separately by [`to_json_with_timings`].
pub fn to_json(summary: &Summary) -> String {
    let mut out = String::from("{\n");
    push_metrics(&mut out, summary);
    out.push_str("\n}\n");
    out
}

/// [`to_json`] plus a `timings` object of per-experiment wall-clock seconds
/// — what `expall` writes to `results/summary.json`.
pub fn to_json_with_timings(summary: &Summary, timings: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n");
    push_metrics(&mut out, summary);
    out.push_str(",\n  \"timings\": {\n");
    for (i, (name, secs)) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {:.3}{}\n",
            name,
            secs,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// [`to_json_with_timings`] plus a `counters` object of rolled-up trace
/// counters (`"<experiment>.<counter>": value` — see [`crate::traces`]).
/// The metrics body is embedded byte-for-byte, so the determinism surface
/// is unchanged; the counters themselves are also deterministic across
/// worker counts (see `tests/determinism.rs`).
pub fn to_json_full(
    summary: &Summary,
    counters: &[(String, u64)],
    timings: &[(&str, f64)],
) -> String {
    let mut out = String::from("{\n");
    push_metrics(&mut out, summary);
    out.push_str(",\n  \"counters\": {\n");
    for (i, (name, value)) in counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            name,
            value,
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"timings\": {\n");
    for (i, (name, secs)) in timings.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {:.3}{}\n",
            name,
            secs,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// The shared `"metrics": [...]` body (no trailing newline or comma).
fn push_metrics(out: &mut String, summary: &Summary) {
    out.push_str("  \"metrics\": [\n");
    for (i, m) in summary.metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"description\": \"{}\", \"measured\": {:.4}, \"paper\": {:.4}, \"unit\": \"{}\"}}{}\n",
            m.id,
            m.description,
            m.measured,
            m.paper,
            m.unit,
            if i + 1 < summary.metrics.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_metrics_within_reproduction_bands() {
        let s = compute();
        assert_eq!(s.metrics.len(), 5);
        for m in &s.metrics {
            match m.unit {
                "%" => assert!(m.measured < 8.0, "{}: {}%", m.id, m.measured),
                "ratio" => assert!((0.9..1.6).contains(&m.measured), "{}: {}", m.id, m.measured),
                other => panic!("unknown unit {other}"),
            }
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = compute();
        let j = to_json(&s);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert_eq!(j.matches("\"id\"").count(), s.metrics.len());
    }
}
