//! Per-layer timings taken from outside each layer, by timing calls into
//! its public functions over the paper's layer table. Each measurement is
//! one span (`layer.<metric>`), so the trace shows where the traced run's
//! time went.

use std::sync::Arc;
use std::time::Instant;

use iconv_api::proto::{encode_estimate, parse_request, EstimateRequest};
use iconv_api::{canonical_key, TpuChip, TuneTarget, Work};
use iconv_core::ConvPass;
use iconv_gpusim::{GpuAlgo, GpuConfig, GpuSim};
use iconv_serve::{ServerConfig, StripedCache};
use iconv_tensor::ConvShape;
use iconv_tpusim::{SimMode, Simulator, TpuConfig};
use iconv_tune::{tune, InProcessSource, TuneOptions};

use crate::stats::{below, draw};
use crate::trace;
use crate::traffic::{churn_population, layer_shapes, table_works};
use crate::Outcome;

/// GPU paths that cost milliseconds per estimate run on every
/// `SLOW_STRIDE`-th layer of the table; every other path runs on all of it.
const SLOW_STRIDE: usize = 4;
/// Tune searches run on every `TUNE_STRIDE`-th layer.
const TUNE_STRIDE: usize = 23;
/// Passes over the table for the µs-scale codec timings.
const API_PASSES: usize = 20;
/// Cache operations per thread per timing.
const CACHE_OPS: usize = 400_000;

/// Time `f` over `items` inside a span; seconds per item.
fn per_item<T>(name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let ((), secs) = trace::span(name, 0, |_| {
        for it in items {
            f(it);
        }
    });
    secs / items.len().max(1) as f64
}

pub fn measure(o: &mut Outcome) {
    let shapes = layer_shapes();
    let slow: Vec<ConvShape> = shapes.iter().copied().step_by(SLOW_STRIDE).collect();

    let gpu = &GpuSim::new(GpuConfig::v100());
    let g = |algo: GpuAlgo| {
        move |s: &ConvShape| {
            std::hint::black_box(gpu.simulate_conv("bench", s, algo));
        }
    };
    let us = 1e6;
    o.layer(
        "gpusim.cudnn_us",
        us * per_item("layer.gpusim.cudnn", &shapes, g(GpuAlgo::CudnnImplicit)),
    );
    o.layer(
        "gpusim.explicit_us",
        us * per_item("layer.gpusim.explicit", &shapes, g(GpuAlgo::ExplicitIm2col)),
    );
    o.layer(
        "gpusim.cf_us",
        us * per_item(
            "layer.gpusim.cf",
            &slow,
            g(GpuAlgo::ChannelFirst { reuse: false }),
        ),
    );
    o.layer(
        "gpusim.cf_reuse_us",
        us * per_item(
            "layer.gpusim.cf_reuse",
            &slow,
            g(GpuAlgo::ChannelFirst { reuse: true }),
        ),
    );
    o.layer(
        "gpusim.indirect_us",
        us * per_item("layer.gpusim.indirect", &slow, g(GpuAlgo::Indirect)),
    );
    o.layer(
        "gpusim.dgrad_us",
        us * per_item("layer.gpusim.dgrad", &shapes, |s| {
            std::hint::black_box(gpu.simulate_pass(
                "bench",
                s,
                ConvPass::Dgrad,
                GpuAlgo::ChannelFirst { reuse: true },
            ));
        }),
    );

    let tpu = &Simulator::new(TpuConfig::default());
    let t = |mode: SimMode| {
        move |s: &ConvShape| {
            std::hint::black_box(tpu.simulate_conv("bench", s, mode));
        }
    };
    let tp = |pass: ConvPass| {
        move |s: &ConvShape| {
            std::hint::black_box(tpu.simulate_pass("bench", s, pass, SimMode::ChannelFirst));
        }
    };
    o.layer(
        "tpusim.cf_us",
        us * per_item("layer.tpusim.cf", &shapes, t(SimMode::ChannelFirst)),
    );
    o.layer(
        "tpusim.explicit_us",
        us * per_item("layer.tpusim.explicit", &shapes, t(SimMode::Explicit)),
    );
    o.layer(
        "tpusim.indirect_us",
        us * per_item("layer.tpusim.indirect", &shapes, t(SimMode::Indirect)),
    );
    o.layer(
        "tpusim.wgrad_us",
        us * per_item("layer.tpusim.wgrad", &shapes, tp(ConvPass::Wgrad)),
    );
    o.layer(
        "tpusim.dgrad_us",
        us * per_item("layer.tpusim.dgrad", &shapes, tp(ConvPass::Dgrad)),
    );

    let tuned: Vec<ConvShape> = shapes.iter().copied().step_by(TUNE_STRIDE).collect();
    let (mut measured, mut enumerated) = (0u64, 0u64);
    for (metric, span, target) in [
        (
            "tune.tpu_v2_ms",
            "layer.tune.tpu_v2",
            TuneTarget::Tpu { chip: TpuChip::V2 },
        ),
        (
            "tune.tpu_v3_ms",
            "layer.tune.tpu_v3",
            TuneTarget::Tpu { chip: TpuChip::V3 },
        ),
        ("tune.gpu_ms", "layer.tune.gpu", TuneTarget::Gpu),
    ] {
        let secs = per_item(span, &tuned, |s| {
            let est = tune(&InProcessSource::new(), s, target, &TuneOptions::default());
            measured += est.candidates;
            enumerated += est.candidates + est.pruned;
        });
        o.layer(metric, 1e3 * secs);
    }
    o.layer(
        "tune.measured_ratio",
        measured as f64 / enumerated.max(1) as f64,
    );

    let works = table_works(&shapes);
    let lines: Vec<String> = works.iter().map(|&w| encode(w)).collect();
    let reps: Vec<usize> = (0..API_PASSES * works.len()).collect();
    let n = works.len();
    o.layer(
        "api.encode_us",
        us * per_item("layer.api.encode", &reps, |&i| {
            std::hint::black_box(encode(works[i % n]));
        }),
    );
    o.layer(
        "api.parse_us",
        us * per_item("layer.api.parse", &reps, |&i| {
            std::hint::black_box(parse_request(&lines[i % n]).expect("the encoder's lines parse"));
        }),
    );
    o.layer(
        "api.key_us",
        us * per_item("layer.api.key", &reps, |&i| {
            std::hint::black_box(canonical_key(&works[i % n]));
        }),
    );

    cache(o, &works);
}

fn encode(work: Work) -> String {
    encode_estimate(&EstimateRequest {
        id: None,
        work,
        deadline_ms: None,
    })
}

/// `StripedCache` at the server's default capacity and shard count. Every
/// key has its own body allocation. Hits: gets of resident table keys in a
/// seeded order, on 1 and on `nproc` threads (ns per get per thread).
/// Insert-at-capacity: a full cache takes keys it has not seen, each
/// insert evicting one entry.
fn cache(o: &mut Outcome, table: &[Work]) {
    let capacity = ServerConfig::default().cache_capacity;
    let body = |k: &str| -> Arc<str> { Arc::from(format!("\"ok\":true,\"key\":\"{k}\"")) };
    let cache = StripedCache::new(capacity, StripedCache::DEFAULT_SHARDS);
    let keys: Vec<String> = table.iter().map(canonical_key).collect();
    for k in &keys {
        cache.insert(k.clone(), body(k));
    }
    let order: Vec<usize> = (0..CACHE_OPS as u64)
        .map(|i| below(draw(0x6361_6368, 1, i), keys.len()))
        .collect();
    let hits = |threads: usize| -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let (cache, keys, order) = (&cache, &keys, &order);
                s.spawn(move || {
                    for (j, &i) in order.iter().enumerate() {
                        let k = &keys[(i + t * 7919 + j) % keys.len()];
                        std::hint::black_box(cache.get(k).expect("resident key"));
                    }
                });
            }
        });
        start.elapsed().as_secs_f64() * 1e9 / CACHE_OPS as f64
    };
    let (one, _) = trace::span("layer.cache.hit_1t", 0, |_| hits(1));
    let (all, _) = trace::span("layer.cache.hit_nt", 0, |_| hits(crate::host::nproc()));
    o.layer("cache.hit_ns.1t", one);
    o.layer("cache.hit_ns.nt", all);

    let fresh: Vec<String> = churn_population(&layer_shapes())
        .iter()
        .map(canonical_key)
        .collect();
    let cache = StripedCache::new(capacity, StripedCache::DEFAULT_SHARDS);
    let (fill, rest) = fresh.split_at(capacity.min(fresh.len()));
    for k in fill {
        cache.insert(k.clone(), body(k));
    }
    let bodies: Vec<(String, Arc<str>)> = rest.iter().map(|k| (k.clone(), body(k))).collect();
    let (n, before) = (bodies.len().max(1), cache.evictions());
    let ((), secs) = trace::span("layer.cache.insert_evict", 0, |_| {
        for (k, b) in bodies {
            cache.insert(k, b);
        }
    });
    assert!(cache.evictions() > before, "inserts at capacity must evict");
    o.layer("cache.insert_evict_ns", secs * 1e9 / n as f64);
}
