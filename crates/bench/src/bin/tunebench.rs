//! `tunebench` — the machine-readable tune sweep behind `BENCH_tune.json`.
//!
//! Runs the design-space search for every layer of every CNN workload and
//! every tune target, gates the construction invariant (tuned cycles <=
//! Table-II default cycles, per layer), cross-checks a slice of the sweep
//! through a live `iconv-serve` instance (serve answers must equal the
//! in-process search value for value, and the `serve.tune.*` ledger must
//! conserve), and writes the whole table as JSON. Exit status is the CI
//! gate: nonzero when any layer regresses past its default or the serve
//! cross-check fails.

use iconv_api::proto::tuned_config_json;
use iconv_bench::experiments::tune_table::{sweep, target_label};
use iconv_tune::{TuneEstimate, TuneOptions, ALL_TARGETS};
use iconv_workloads::Model;

const USAGE: &str = "usage: tunebench [--out PATH] [--skip-serve-check]";
const BATCH: usize = 8;

fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(std::path::PathBuf, bool), String> {
    let mut out = std::path::PathBuf::from("BENCH_tune.json");
    let mut serve_check = true;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out = args
                    .next()
                    .map(std::path::PathBuf::from)
                    .ok_or_else(|| format!("--out requires a value; {USAGE}"))?;
            }
            "--skip-serve-check" => serve_check = false,
            other => return Err(format!("unknown argument {other:?}; {USAGE}")),
        }
    }
    Ok((out, serve_check))
}

/// JSON number rendering for cycle totals (integral TPU totals print as
/// integers; GPU totals keep their shortest round-trip decimal form).
fn cycles(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.007e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Replay a slice of the sweep through a live server and check that serve
/// answers match the in-process search and the tune ledger conserves.
/// Returns the JSON fragment for the `serve` key, plus pass/fail.
fn serve_cross_check(models: &[Model], reference: &[Vec<Vec<TuneEstimate>>]) -> (String, bool) {
    let handle = match iconv_serve::spawn(iconv_serve::ServerConfig::default()) {
        Ok(h) => h,
        Err(err) => return (format!("{{\"error\":\"spawn: {err}\"}}"), false),
    };
    let addr = handle.local_addr().to_string();
    let mut client =
        match iconv_serve::Client::connect_retry(&addr, iconv_serve::DEFAULT_CONNECT_TIMEOUT) {
            Ok(c) => c,
            Err(err) => return (format!("{{\"error\":\"connect: {err}\"}}"), false),
        };

    // One model per target keeps the check fast while still exercising the
    // full serve path (search, cache, ledger) for every target kind.
    let mut matches = true;
    let mut asked = 0u64;
    for (ti, (target, per_model)) in ALL_TARGETS.iter().zip(reference).enumerate() {
        let mi = ti % models.len();
        for (li, l) in models[mi].layers.iter().enumerate() {
            // Twice: the repeat must come from the tune store, not a new
            // search.
            for _ in 0..2 {
                asked += 1;
                match client.tune(&l.shape, *target) {
                    Ok(est) if est == per_model[mi][li] => {}
                    Ok(est) => {
                        eprintln!(
                            "tunebench: serve mismatch {} {}/{}: {est:?}",
                            target_label(*target),
                            models[mi].name,
                            l.name
                        );
                        matches = false;
                    }
                    Err(err) => {
                        eprintln!("tunebench: serve tune failed: {err}");
                        matches = false;
                    }
                }
            }
        }
    }
    let stats = handle.shutdown();
    let conserved = stats.tunes == stats.tune_searches + stats.tune_cached;
    let all_answered = stats.tunes == asked;
    let json = format!(
        "{{\"requests\":{},\"tunes\":{},\"tune_searches\":{},\"tune_cached\":{},\
         \"ledger_conserved\":{},\"matches_inprocess\":{}}}",
        stats.requests, stats.tunes, stats.tune_searches, stats.tune_cached, conserved, matches
    );
    (json, matches && conserved && all_answered)
}

fn main() {
    let (out_path, serve_check) = match parse_args(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("tunebench: {err}");
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    let jobs = iconv_par::default_jobs();
    let models = iconv_workloads::all_models(BATCH);

    // The full sweep: every layer x every target, kept in (target, model,
    // layer) order for both the JSON and the serve cross-check. `jobs` is
    // the fan-out across searches; each search runs on one worker.
    let results = sweep(&models, jobs);
    let mut violations = 0u64;
    let mut out = String::with_capacity(1 << 16);
    out.push_str("{\n  \"bench\": \"tune\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"batch\": {BATCH}, \"jobs\": {jobs}, \"batch_chunk\": {}}},\n",
        TuneOptions::default().batch_chunk
    ));
    out.push_str("  \"targets\": [\n");
    for (ti, (&target, per_model)) in ALL_TARGETS.iter().zip(&results).enumerate() {
        out.push_str(&format!(
            "    {{\"target\": \"{}\", \"models\": [\n",
            target_label(target)
        ));
        for (mi, (m, ests)) in models.iter().zip(per_model).enumerate() {
            out.push_str(&format!(
                "      {{\"model\": \"{}\", \"layers\": [\n",
                m.name
            ));
            for (li, (l, est)) in m.layers.iter().zip(ests).enumerate() {
                if est.tuned_cycles > est.default_cycles {
                    eprintln!(
                        "tunebench: VIOLATION {} {}/{}: tuned {} > default {}",
                        target_label(target),
                        m.name,
                        l.name,
                        est.tuned_cycles,
                        est.default_cycles
                    );
                    violations += 1;
                }
                out.push_str(&format!(
                    "        {{\"layer\": \"{}\", \"count\": {}, \"default_cycles\": {}, \
                     \"tuned_cycles\": {}, \"speedup\": {:.4}, \"candidates\": {}, \
                     \"pruned\": {}, \"best\": {}}}{}\n",
                    l.name,
                    l.count,
                    cycles(est.default_cycles),
                    cycles(est.tuned_cycles),
                    est.default_cycles / est.tuned_cycles,
                    est.candidates,
                    est.pruned,
                    tuned_config_json(&est.best),
                    if li + 1 < m.layers.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "      ]}}{}\n",
                if mi + 1 < models.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if ti + 1 < ALL_TARGETS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"violations\": {violations},\n"));

    let serve_ok = if serve_check {
        let (json, ok) = serve_cross_check(&models, &results);
        out.push_str(&format!("  \"serve\": {json},\n"));
        ok
    } else {
        out.push_str("  \"serve\": null,\n");
        true
    };
    out.push_str(&format!(
        "  \"wall_seconds\": {:.3}\n}}\n",
        t0.elapsed().as_secs_f64()
    ));

    if let Err(err) = std::fs::write(&out_path, &out) {
        eprintln!("tunebench: cannot write {}: {err}", out_path.display());
        std::process::exit(1);
    }
    let layers: usize = models.iter().map(|m| m.layers.len()).sum();
    eprintln!(
        "tunebench: {} targets x {layers} layers, {violations} violation(s), serve check {} \
         [wrote {} in {:.1}s]",
        ALL_TARGETS.len(),
        if serve_check {
            if serve_ok {
                "passed"
            } else {
                "FAILED"
            }
        } else {
            "skipped"
        },
        out_path.display(),
        t0.elapsed().as_secs_f64()
    );
    if violations > 0 || !serve_ok {
        std::process::exit(1);
    }
}
