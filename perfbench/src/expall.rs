//! The `expall` workload: every paper experiment through
//! `iconv_bench::par::run_experiments`, the experiment traces and the
//! summary metrics, in-process at the program's default worker count —
//! what the `expall` binary does to regenerate the paper, minus writing
//! files.
//!
//! Each regeneration is checked: every report against the golden text this
//! benchmark holds (`golden/expall/<experiment>.txt`), the summary metrics
//! and trace counters against `results/summary.json`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use iconv_api::json::{self, Json};
use iconv_bench::par::{self, Experiment, ExperimentRun};
use iconv_bench::{summary, traces};

use crate::stats::median;
use crate::trace;
use crate::{host, Cfg, Metric, Outcome};

/// Set-ups per run; `setup_s` is the median of their CPU seconds.
const SETUPS: usize = 5;

/// The experiments run during set-up as a checked warm-up: every one but the
/// two that take seconds (the tuner and the GPU channel-first study), so
/// code, tables and allocator are warm without repeating the bulk of the
/// timed work. At about 0.3 s of CPU on one thread the set-up is long
/// enough to time steadily.
const WARM: &[&str] = &[
    "table1", "fig02", "fig04", "fig13", "fig14", "fig15", "fig16", "fig18", "passes",
];

/// The span every experiment of a traced regeneration is recorded under:
/// the three that take seconds get their own, the others share
/// `bench.rest`.
const EXPERIMENT_SPANS: [&str; 4] = ["bench.tune", "bench.fig17", "bench.fig18", "bench.rest"];

/// What a regeneration must reproduce.
pub struct Golden {
    reports: BTreeMap<String, String>,
    metrics: Json,
    counters: Json,
}

fn golden_dir() -> std::path::PathBuf {
    host::bench_dir().join("golden").join("expall")
}

/// Load the golden reports and the reference `results/summary.json`.
pub fn load_golden() -> Result<Golden, String> {
    let mut reports = BTreeMap::new();
    for (name, _) in par::EXPERIMENTS {
        let path = golden_dir().join(format!("{name}.txt"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read golden {}: {e}", path.display()))?;
        reports.insert((*name).to_owned(), text);
    }
    let path = host::repo_root().join("results").join("summary.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))?;
    let field = |k: &str| {
        doc.as_obj()
            .and_then(|o| o.get(k))
            .cloned()
            .ok_or_else(|| format!("{} has no `{k}`", path.display()))
    };
    Ok(Golden {
        reports,
        metrics: field("metrics")?,
        counters: field("counters")?,
    })
}

/// Rewrite the golden reports from the program as it is now. Used only
/// when a model change is deliberate (`--write-golden`).
pub fn write_golden() -> Result<(), String> {
    std::fs::create_dir_all(golden_dir()).map_err(|e| e.to_string())?;
    for run in par::run_experiments(iconv_par::default_jobs()) {
        let path = golden_dir().join(format!("{}.txt", run.name));
        std::fs::write(&path, &run.report).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Count report mismatches against the golden, naming each on stderr.
fn check_reports(runs: &[ExperimentRun], golden: &Golden) -> u64 {
    let mut bad = 0;
    for r in runs {
        if golden.reports.get(r.name) != Some(&r.report) {
            eprintln!("perfbench: report `{}` differs from its golden", r.name);
            bad += 1;
        }
    }
    bad
}

// Traced regenerations wrap each experiment in a span. `run_set` takes
// plain function pointers, so each slot of the experiment table gets its
// own monomorphized wrapper that reads the enclosing span id from here.
static RUN_SET_SPAN: AtomicU64 = AtomicU64::new(0);

fn slot<const I: usize>() -> String {
    let (name, f) = par::EXPERIMENTS[I];
    let span_name = span_name(name);
    trace::span(span_name, RUN_SET_SPAN.load(Ordering::SeqCst), |_| f()).0
}

fn span_name(experiment: &str) -> &'static str {
    match experiment {
        "tune" => "bench.tune",
        "fig17" => "bench.fig17",
        "fig18" => "bench.fig18",
        _ => "bench.rest",
    }
}

const SLOTS: [fn() -> String; 16] = [
    slot::<0>, slot::<1>, slot::<2>, slot::<3>, slot::<4>, slot::<5>, slot::<6>, slot::<7>,
    slot::<8>, slot::<9>, slot::<10>, slot::<11>, slot::<12>, slot::<13>, slot::<14>, slot::<15>,
];

fn traced_set() -> Vec<Experiment> {
    assert!(
        par::EXPERIMENTS.len() <= SLOTS.len(),
        "more experiments than traced slots"
    );
    par::EXPERIMENTS
        .iter()
        .zip(SLOTS)
        .map(|(&(name, _), f)| (name, f))
        .collect()
}

/// One checked regeneration; returns (wall seconds, checks, mismatches).
fn regenerate(jobs: usize, golden: &Golden, parent: u64) -> (f64, u64, u64) {
    let set: Vec<Experiment> = if trace::enabled() {
        traced_set()
    } else {
        par::EXPERIMENTS.to_vec()
    };
    let ((runs, counters, summary), wall) = trace::span("expall.regenerate", parent, |id| {
        let (runs, _) = trace::span("par.run_set", id, |rs| {
            RUN_SET_SPAN.store(rs, Ordering::SeqCst);
            par::run_set(jobs, &set)
        });
        let (counters, _) = trace::span("bench.traces", id, |_| {
            traces::rollup(&traces::build_traces(jobs))
        });
        let (summary, _) = trace::span("bench.summary", id, |_| summary::compute_jobs(jobs));
        (runs, counters, summary)
    });
    let mut bad = check_reports(&runs, golden);
    let metrics = json::parse(&summary::to_json(&summary))
        .ok()
        .and_then(|d| d.as_obj().and_then(|o| o.get("metrics")).cloned());
    if metrics.as_ref() != Some(&golden.metrics) {
        eprintln!("perfbench: summary metrics differ from results/summary.json");
        bad += 1;
    }
    let want: Option<BTreeMap<String, u64>> = golden.counters.as_obj().map(|o| {
        o.iter()
            .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
            .collect()
    });
    let got: BTreeMap<String, u64> = counters.into_iter().collect();
    if want.as_ref() != Some(&got) {
        eprintln!("perfbench: trace counters differ from results/summary.json");
        bad += 1;
    }
    (wall, runs.len() as u64 + 2, bad)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let jobs = iconv_par::default_jobs();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: load what the checks compare against, then a checked warm-up
    // pass over every experiment but the two that take seconds.
    let warm_set: Vec<Experiment> = par::EXPERIMENTS
        .iter()
        .copied()
        .filter(|(n, _)| WARM.contains(n))
        .collect();
    let mut setup_cpu = Vec::new();
    let mut setup_wall = Vec::new();
    let mut golden = None;
    for _ in 0..SETUPS {
        let cpu0 = host::cpu_seconds();
        let (got, secs) = trace::span("expall.setup", 0, |_| {
            load_golden().map(|g| {
                // One worker: the warm-up is CPU work on this thread, so its
                // time does not hinge on how fast the host wakes new ones.
                let runs = par::run_set(1, &warm_set);
                let bad = check_reports(&runs, &g);
                (g, runs.len() as u64, bad)
            })
        });
        match got {
            Ok((g, n, bad)) => {
                attempted += n;
                failed += bad;
                golden = Some(g);
                setup_cpu.push(host::cpu_seconds() - cpu0);
                setup_wall.push(secs);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return Outcome::broken(e);
            }
        }
    }
    let golden = golden.expect("set-up ran");

    // Timed window: whole regenerations back to back. Another starts only
    // if it is expected to end within the window, so the count of
    // regenerations is stable run to run.
    let window = std::time::Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    loop {
        let cpu0 = host::cpu_seconds();
        let (wall, checks, bad) = regenerate(jobs, &golden, 0);
        cpus.push(host::cpu_seconds() - cpu0);
        walls.push(wall);
        attempted += checks;
        failed += bad;
        if window.elapsed().as_secs_f64() + median(&walls) > cfg.seconds {
            break;
        }
    }
    eprintln!(
        "[expall: {} regeneration(s) on {jobs} worker(s), median {:.3}s]",
        walls.len(),
        median(&walls)
    );

    let mut o = Outcome::new(attempted, failed, failed == 0);
    o.note("jobs", jobs as f64);
    let cpu_ms: Vec<f64> = cpus.iter().map(|c| c * 1e3).collect();
    o.push(Metric::with_samples("setup_s", "s", &setup_cpu));
    o.push(Metric::new("peak_rss_mb", "MiB", host::peak_rss_mb()));
    o.push(Metric::with_samples("cpu_ms", "ms", &cpu_ms));
    // Recorded, not gated: regeneration wall time fits a bound here, but
    // the end-to-end set is shared with the serve workloads, whose
    // wall-clock figures do not (README).
    o.push(Metric::with_samples("wall_s", "s", &walls));
    o.push(Metric::with_samples("setup_wall_s", "s", &setup_wall));
    o.push(Metric::counted(
        "max_ok_rps",
        "1/s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        walls.len(),
    ));

    if trace::enabled() {
        layer_times(&mut o, jobs);
    }
    o
}

/// Per-layer numbers of the traced regenerations, from their spans:
/// per-experiment seconds per regeneration, traces and summary seconds,
/// and the fan-out's efficiency Σ experiment seconds ÷ (jobs × wall).
fn layer_times(o: &mut Outcome, jobs: usize) {
    let spans = trace::snapshot();
    let regens = spans
        .iter()
        .filter(|s| s.name == "expall.regenerate")
        .count()
        .max(1) as f64;
    let total = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>()
    };
    for span in EXPERIMENT_SPANS
        .iter()
        .chain(&["bench.traces", "bench.summary"])
    {
        o.layer(&format!("{span}_s"), total(span) / regens);
    }
    let busy: f64 = EXPERIMENT_SPANS.iter().map(|s| total(s)).sum();
    let set_wall = total("par.run_set");
    if set_wall > 0.0 {
        o.layer("par.efficiency", busy / (jobs as f64 * set_wall));
    }
}
