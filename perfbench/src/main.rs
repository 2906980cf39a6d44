//! `perfbench`: one benchmark for both end-to-end paths of the
//! reproduction — `expall` regeneration of every paper table, and the
//! serve path in its warm (`serve_hot`) and churning (`serve_churn`) forms,
//! with the router hop measured in `serve_hot`'s traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Each run also appends a
//! self-describing record to `history/<workload>.jsonl`; a traced run
//! writes its spans to `out/`. See `README.md` for what each workload and
//! metric means.

mod expall;
mod host;
mod layers;
mod serve;
mod stats;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use iconv_api::json::write_str;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["expall", "serve_hot", "serve_churn"];

/// End-to-end metrics (printed with `--trace 0`, and gated) and their
/// units. Each workload also records latency and throughput in its
/// history; those are not gated (see `README.md`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("cpu_ms", "ms")];

/// Per-layer metrics (printed with `--trace 1`) and their units. A layer
/// the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("bench.tune_s", "s"),
    ("bench.fig17_s", "s"),
    ("bench.fig18_s", "s"),
    ("bench.summary_s", "s"),
    ("bench.traces_s", "s"),
    ("bench.rest_s", "s"),
    ("par.efficiency", "ratio"),
    ("gpusim.cudnn_us", "us"),
    ("gpusim.explicit_us", "us"),
    ("gpusim.cf_us", "us"),
    ("gpusim.cf_reuse_us", "us"),
    ("gpusim.indirect_us", "us"),
    ("gpusim.dgrad_us", "us"),
    ("tune.tpu_v2_ms", "ms"),
    ("tune.tpu_v3_ms", "ms"),
    ("tune.gpu_ms", "ms"),
    ("tune.measured_ratio", "ratio"),
    ("tpusim.cf_us", "us"),
    ("tpusim.explicit_us", "us"),
    ("tpusim.indirect_us", "us"),
    ("tpusim.wgrad_us", "us"),
    ("tpusim.dgrad_us", "us"),
    ("api.encode_us", "us"),
    ("api.parse_us", "us"),
    ("api.key_us", "us"),
    ("cache.hit_ns.1t", "ns"),
    ("cache.hit_ns.nt", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.evictions", "count"),
    ("server.service_p50_us", "us"),
    ("server.service_p99_us", "us"),
    ("server.gap_p99_ms", "ms"),
    ("server.busy", "count"),
    ("server.tune_searches", "count"),
    ("router.hop_p50_ms", "ms"),
    ("router.hop_p99_ms", "ms"),
    ("router.failovers", "count"),
    ("gen.late_p99_ms", "ms"),
    ("client.wait_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Run settings from the command line.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One end-to-end metric with the samples behind it.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    summary: Option<stats::Summary>,
    n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            summary: None,
            n: None,
        }
    }

    /// The median of `samples`, keeping their quartiles.
    pub fn with_samples(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let s = stats::summarize(samples);
        Self {
            summary: Some(s),
            n: Some(s.n),
            ..Self::new(name, unit, s.median)
        }
    }

    /// A percentile read from `n` samples.
    pub fn counted(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Self {
        Self {
            n: Some(n),
            ..Self::new(name, unit, value)
        }
    }
}

/// What one run measured and checked.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
    layers: BTreeMap<String, f64>,
    notes: Vec<(String, String)>,
    /// Ladder rungs in visit order: rate, p99 (ms), passed.
    rungs: Vec<(f64, f64, bool)>,
    broken: Option<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, checks_ok: bool) -> Self {
        Self {
            attempted,
            failed,
            correct: checks_ok && failed == 0 && attempted > 0,
            metrics: Vec::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
            rungs: Vec::new(),
            broken: None,
        }
    }

    /// A run that could not finish (the program would not start, or a
    /// connection broke): it prints no result.
    pub fn broken(why: String) -> Self {
        Self {
            broken: Some(why),
            ..Self::new(0, 0, false)
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_owned(), num(value)));
    }

    pub fn flag(&mut self, name: &str, value: bool) {
        self.notes.push((name.to_owned(), value.to_string()));
    }

    pub fn rung(&mut self, rate: f64, p99_ms: f64, ok: bool) {
        self.rungs.push((rate, p99_ms, ok));
    }
}

/// A JSON number (non-finite values, which JSON cannot hold, become -1).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --write-golden",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Cfg {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--write-golden"] {
        match expall::write_golden() {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(v) = it.next() else { usage() };
        if map.insert(k.as_str(), v.as_str()).is_some() {
            usage();
        }
    }
    let get = |k: &str| map.get(k).copied().unwrap_or_else(|| usage());
    if map.len() != 4 {
        usage();
    }
    let workload = get("--workload");
    if !WORKLOADS.contains(&workload) {
        usage();
    }
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage());
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    Cfg {
        workload: workload.to_owned(),
        seed: get("--seed").parse().unwrap_or_else(|_| usage()),
        seconds,
        trace: match get("--trace") {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    }
}

/// The printed result line.
fn result_line(o: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = if trace {
            o.layers.get(*name).copied().unwrap_or(0.0)
        } else {
            o.metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("workload did not report `{name}`"))
                .value
        };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            num(value)
        );
    }
    out.push_str("}}");
    out
}

/// The history record: host facts, settings, every metric with its samples.
fn history_line(cfg: &Cfg, o: &Outcome) -> String {
    let mut out = String::from("{");
    let mut field = |k: &str, v: String| {
        if out.len() > 1 {
            out.push(',');
        }
        write_str(&mut out, k);
        out.push(':');
        out.push_str(&v);
    };
    let s = |v: &str| {
        let mut q = String::new();
        write_str(&mut q, v);
        q
    };
    field("date", s(&host::utc_now()));
    field("commit", s(&host::commit()));
    field("rustc", s(&host::rustc_version()));
    field("nproc", host::nproc().to_string());
    field("workload", s(&cfg.workload));
    field("seed", cfg.seed.to_string());
    field("seconds", num(cfg.seconds));
    field("trace", cfg.trace.to_string());
    field("correct", o.correct.to_string());
    field("attempted", o.attempted.to_string());
    field("failed", o.failed.to_string());
    let mut m = String::from("{");
    for (i, x) in o.metrics.iter().enumerate() {
        let _ = write!(
            m,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            if i == 0 { "" } else { "," },
            x.name,
            num(x.value),
            x.unit
        );
        if let Some(n) = x.n {
            let _ = write!(m, ",\"samples\":{n}");
        }
        if let Some(q) = x.summary {
            let _ = write!(
                m,
                ",\"q1\":{},\"median\":{},\"q3\":{}",
                num(q.q1),
                num(q.median),
                num(q.q3)
            );
        }
        m.push('}');
    }
    m.push('}');
    field("metrics", m);
    let mut l = String::from("{");
    for (i, (k, v)) in o.layers.iter().enumerate() {
        let _ = write!(l, "{}\"{k}\":{}", if i == 0 { "" } else { "," }, num(*v));
    }
    l.push('}');
    field("layers", l);
    let mut n = String::from("{");
    for (i, (k, v)) in o.notes.iter().enumerate() {
        let _ = write!(n, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
    }
    n.push('}');
    field("notes", n);
    let mut r = String::from("[");
    for (i, (rate, p99, ok)) in o.rungs.iter().enumerate() {
        let _ = write!(
            r,
            "{}{{\"rate\":{},\"p99_ms\":{},\"ok\":{ok}}}",
            if i == 0 { "" } else { "," },
            num(*rate),
            num(*p99)
        );
    }
    r.push(']');
    field("rungs", r);
    out.push('}');
    out
}

fn main() {
    let cfg = parse_args();
    if cfg.trace {
        trace::enable();
    }
    let t0 = std::time::Instant::now();
    let mut o = match cfg.workload.as_str() {
        "expall" => expall::run(&cfg),
        "serve_hot" => serve::run(traffic::Mix::Hot, &cfg),
        "serve_churn" => serve::run(traffic::Mix::Churn, &cfg),
        _ => usage(),
    };
    if let Some(why) = &o.broken {
        eprintln!("perfbench: run did not complete: {why}");
        std::process::exit(1);
    }
    if cfg.trace {
        let traced_s = t0.elapsed().as_secs_f64();
        layers::measure(&mut o);
        let spans = trace::drain();
        let overhead = spans.len() as f64 * trace::per_span_cost() / traced_s * 100.0;
        o.layer("trace.overhead_pct", overhead);
        eprintln!("[self time by span, {} spans]", spans.len());
        for (name, secs) in trace::self_times(&spans) {
            eprintln!("  {name:<28} {secs:>10.4}s");
        }
        let file = format!("spans-{}-{}.json", cfg.workload, cfg.seed);
        if let Some(p) = host::write_out(&file, &trace::chrome_json(&spans)) {
            eprintln!("[wrote {}]", p.display());
        }
    }
    host::append_history(&cfg.workload, &history_line(&cfg, &o));
    println!("{}", result_line(&o, cfg.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the checkout root lists exactly the workloads and
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = host::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = iconv_api::json::parse(&text).expect("valid JSON");
        let obj = doc.as_obj().expect("object");
        let names = |key: &str| -> Vec<(String, String)> {
            obj[key]
                .as_arr()
                .expect("array")
                .iter()
                .map(|m| {
                    let m = m.as_obj().expect("object");
                    let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
                    (
                        m["name"].as_str().expect("name").to_owned(),
                        unit.to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
