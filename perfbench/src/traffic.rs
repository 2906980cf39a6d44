//! The serve workloads' traffic: key populations, request framing and the
//! expected reply of every request.
//!
//! Everything here is a pure function of the seed and the entry index, built
//! with the benchmark's own draw streams ([`crate::stats`]) and the public
//! wire encoders of `iconv-api` — never the program's own schedule builder
//! or sampler — so a change to the server cannot change the traffic it is
//! measured on.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use iconv_api::proto::{
    batch_summary_body, encode_batch, encode_estimate, encode_sweep, finish_item_response,
    finish_response, EstimateRequest,
};
use iconv_api::{
    canonical_key, GpuHwSpec, SweepSpec, SweepTarget, TpuChip, TpuHwSpec, TuneTarget, Work,
};
use iconv_core::{ConvPass, PipelineSchedule, ALL_PASSES};
use iconv_gpusim::GpuAlgo;
use iconv_tensor::ConvShape;
use iconv_tpusim::SimMode;

use crate::stats::{below, draw, permutation, Zipf};

/// Zipf exponent of the hot mix.
pub const ZIPF_S: f64 = 1.1;
/// Seed of the workloads' fixed shape: the hot mix's popularity order and
/// the churn cache's fill set are drawn from it, the same for every run, so
/// the run's seed changes which keys are drawn but not which are hot or
/// cached at the start. Drawn from the run's seed, the few head keys swung
/// hot CPU per request by ±20 % between seeds, and the fill set swung
/// churn set-up by as much, as costs per work vary a hundredfold.
const SHAPE_SEED: u64 = 0x686f_7421;

const SALT_FRAME: u64 = 0x6672_616d_6500_0001;
const SALT_KEY: u64 = 0x6b65_7973_0000_0002;
const SALT_PERM: u64 = 0x7065_726d_0000_0004;
const SALT_TUNE: u64 = 0x7475_6e65_0000_0005;
const SALT_FILL: u64 = 0x6669_6c6c_0000_0006;

/// Which key population and framing a schedule uses — one per serve
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zipf over the canonical layer table, with batch, sweep and tune
    /// framing.
    Hot,
    /// Uniform over a population of cheap works several times the cache.
    Churn,
}

/// Every layer of the paper's seven CNNs at batch 8, in table order.
pub fn layer_shapes() -> Vec<ConvShape> {
    iconv_workloads::all_models(8)
        .iter()
        .flat_map(|m| m.layers.iter().map(|l| l.shape))
        .collect()
}

/// One estimator of a population: a TPU lowering mode or a GPU algorithm,
/// with its hardware overrides.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Tpu(SimMode, TpuHwSpec),
    Gpu(GpuAlgo, GpuHwSpec),
}

/// A key population packed as codes over (layer, pass, variant), so a
/// population of 10⁵ works costs four bytes a work rather than a whole
/// [`Work`] each.
struct Population {
    shapes: Vec<ConvShape>,
    variants: Vec<Variant>,
    codes: Vec<u32>,
}

impl Population {
    fn code(&self, layer: usize, pass: usize, variant: usize) -> u32 {
        ((layer * ALL_PASSES.len() + pass) * self.variants.len() + variant) as u32
    }

    fn work(&self, i: usize) -> Work {
        let code = self.codes[i] as usize;
        let variant = self.variants[code % self.variants.len()];
        let rest = code / self.variants.len();
        let (shape, pass) = (
            self.shapes[rest / ALL_PASSES.len()],
            ALL_PASSES[rest % ALL_PASSES.len()],
        );
        match variant {
            Variant::Tpu(mode, hw) => tpu_pass(shape, pass, mode, hw),
            Variant::Gpu(algo, hw) => gpu_pass(shape, pass, algo, hw),
        }
    }

    fn len(&self) -> usize {
        self.codes.len()
    }

    fn all(&self) -> Vec<Work> {
        (0..self.len()).map(|i| self.work(i)).collect()
    }

    /// The canonical table: every layer forward under TPU channel-first,
    /// TPU explicit, GPU cuDNN-implicit and GPU channel-first+reuse.
    fn table(shapes: &[ConvShape]) -> Self {
        let (tpu, gpu) = (TpuHwSpec::default(), GpuHwSpec::default());
        let mut p = Population {
            shapes: shapes.to_vec(),
            variants: vec![
                Variant::Tpu(SimMode::ChannelFirst, tpu),
                Variant::Tpu(SimMode::Explicit, tpu),
                Variant::Gpu(GpuAlgo::CudnnImplicit, gpu),
                Variant::Gpu(GpuAlgo::ChannelFirst { reuse: true }, gpu),
            ],
            codes: Vec::new(),
        };
        p.codes = (0..shapes.len())
            .flat_map(|l| (0..4).map(move |v| (l, v)))
            .map(|(l, v)| p.code(l, 0, v))
            .collect();
        p
    }

    /// The churn population: TPU every mode × pass × array override (both
    /// chips, both pipeline schedules) and GPU cuDNN-implicit / explicit ×
    /// pass × block override, deduplicated by canonical key. GPU
    /// channel-first and GPU indirect cost milliseconds per estimate, so
    /// they stay out of a mix meant to run µs-scale misses.
    fn churn(shapes: &[ConvShape]) -> Self {
        const MODES: [SimMode; 6] = [
            SimMode::ChannelFirst,
            SimMode::ChannelFirstGrouped(1),
            SimMode::ChannelFirstGrouped(2),
            SimMode::ChannelFirstGrouped(4),
            SimMode::Explicit,
            SimMode::Indirect,
        ];
        const ARRAYS: [Option<usize>; 10] = [
            None,
            Some(16),
            Some(32),
            Some(48),
            Some(64),
            Some(96),
            Some(128),
            Some(192),
            Some(256),
            Some(512),
        ];
        const SCHEDULES: [Option<PipelineSchedule>; 2] = [
            Some(PipelineSchedule::SingleBuffered),
            Some(PipelineSchedule::DoubleBuffered),
        ];
        const BLOCKS: [Option<(usize, usize, usize)>; 13] = [
            None,
            Some((32, 32, 32)),
            Some((32, 64, 32)),
            Some((32, 128, 32)),
            Some((64, 32, 32)),
            Some((64, 64, 32)),
            Some((64, 64, 64)),
            Some((64, 128, 32)),
            Some((64, 256, 32)),
            Some((128, 32, 32)),
            Some((128, 64, 32)),
            Some((128, 128, 32)),
            Some((256, 64, 32)),
        ];
        let mut variants = Vec::new();
        for mode in MODES {
            for array in ARRAYS {
                for chip in [TpuChip::V2, TpuChip::V3] {
                    for schedule in SCHEDULES {
                        let hw = TpuHwSpec {
                            chip,
                            array,
                            schedule,
                            ..TpuHwSpec::default()
                        };
                        if hw.resolve().is_ok() {
                            variants.push(Variant::Tpu(mode, hw));
                        }
                    }
                }
            }
        }
        for algo in [GpuAlgo::CudnnImplicit, GpuAlgo::ExplicitIm2col] {
            for block in BLOCKS {
                let hw = GpuHwSpec {
                    block,
                    ..GpuHwSpec::default()
                };
                if hw.resolve().is_ok() {
                    variants.push(Variant::Gpu(algo, hw));
                }
            }
        }
        let mut p = Population {
            shapes: shapes.to_vec(),
            variants,
            codes: Vec::new(),
        };
        let mut seen = HashSet::new();
        for l in 0..shapes.len() {
            for pass in 0..ALL_PASSES.len() {
                for v in 0..p.variants.len() {
                    p.codes.push(p.code(l, pass, v));
                    let w = p.work(p.codes.len() - 1);
                    if !seen.insert(hash_str(&canonical_key(&w))) {
                        p.codes.pop();
                    }
                }
            }
        }
        p
    }
}

/// The canonical table as works (see [`Population::table`]).
pub fn table_works(shapes: &[ConvShape]) -> Vec<Work> {
    Population::table(shapes).all()
}

/// The churn population as works (see [`Population::churn`]).
pub fn churn_population(shapes: &[ConvShape]) -> Vec<Work> {
    Population::churn(shapes).all()
}

fn tpu_pass(shape: ConvShape, pass: ConvPass, mode: SimMode, hw: TpuHwSpec) -> Work {
    if pass == ConvPass::Forward {
        Work::TpuConv { shape, mode, hw }
    } else {
        Work::TpuPass {
            shape,
            pass,
            mode,
            hw,
        }
    }
}

fn gpu_pass(shape: ConvShape, pass: ConvPass, algo: GpuAlgo, hw: GpuHwSpec) -> Work {
    if pass == ConvPass::Forward {
        Work::GpuConv { shape, algo, hw }
    } else {
        Work::GpuPass {
            shape,
            pass,
            algo,
            hw,
        }
    }
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

// The framing mix is the repository's open-loop capacity mix
// (`crates/serve/src/capacity.rs`: 78 % single, 12 % batch of 8 items, 5 %
// sweep, 5 % tune), re-implemented here on the benchmark's own streams.
// Hot keeps all four bands, with TPU tune targets only. Churn keeps the
// single and batch bands in their 78:12 proportion (87/13): its sweep
// would be one fixed set of four works that always hits, and it runs no
// tunes by definition.

/// Percent of hot entries sent as one `conv`; then batch, then sweep; the
/// rest are `tune` requests (cumulative bands).
const HOT_SINGLE_PCT: usize = 78;
const HOT_BATCH_PCT: usize = 90;
const HOT_SWEEP_PCT: usize = 95;
/// Percent of churn entries sent as one `conv`; the rest are batches.
const CHURN_SINGLE_PCT: usize = 87;
/// Items per batch entry, as in the capacity mix.
pub const BATCH: usize = 8;

/// How an entry is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    Single,
    Batch,
    Sweep,
    Tune,
}

/// One scheduled request: its framing and the works it asks for, as ids
/// into [`Traffic::work`]. Entries are regenerated from their index
/// whenever needed, so a schedule costs no memory.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    pub frame: Frame,
    ids: [u32; BATCH],
    n: u8,
}

impl Entry {
    fn new(frame: Frame, items: &[u32]) -> Self {
        let mut ids = [0; BATCH];
        ids[..items.len()].copy_from_slice(items);
        Entry {
            frame,
            ids,
            n: items.len() as u8,
        }
    }

    pub fn items(&self) -> &[u32] {
        &self.ids[..self.n as usize]
    }

    /// Whether the reply is an item line per work plus a summary line.
    pub fn framed(&self) -> bool {
        matches!(self.frame, Frame::Batch | Frame::Sweep)
    }

    /// Reply lines the entry produces.
    pub fn reply_lines(&self) -> usize {
        if self.framed() {
            self.items().len() + 1
        } else {
            1
        }
    }
}

/// The sweep of the capacity mix: GPU cuDNN-implicit over a small layer
/// with four input-channel counts.
fn sweep_spec() -> SweepSpec {
    let base = ConvShape::square(1, 3, 8, 16, 3, 1, 1).expect("sweep base shape");
    let mut spec = SweepSpec::new(
        base,
        SweepTarget::Gpu {
            algo: GpuAlgo::CudnnImplicit,
        },
    );
    spec.cis = vec![4, 8, 16, 32];
    spec
}

/// The schedule of one serve workload: a pure function of the seed and the
/// entry index. Work ids index the key population, then the tune targets,
/// then the sweep's expansion.
pub struct Traffic {
    mix: Mix,
    seed: u64,
    population: Population,
    tunes: Vec<Work>,
    sweep: Vec<Work>,
    sweep_line: String,
    perm: Vec<usize>,
    tune_perm: Vec<usize>,
    zipf: Zipf,
    tune_zipf: Zipf,
}

impl Traffic {
    /// Hot: keys follow Zipf(1.1) over the table in a fixed shuffled rank
    /// order; tune requests pick a layer by the same skew and
    /// a TPU chip uniformly. Churn: keys are uniform over the churn
    /// population.
    pub fn new(mix: Mix, seed: u64) -> Self {
        let shapes = layer_shapes();
        let (population, tunes, sweep) = match mix {
            Mix::Hot => {
                let tunes: Vec<Work> = shapes
                    .iter()
                    .flat_map(|&shape| {
                        [TpuChip::V2, TpuChip::V3].map(|chip| Work::Tune {
                            shape,
                            target: TuneTarget::Tpu { chip },
                        })
                    })
                    .collect();
                let sweep = sweep_spec().expand().expect("sweep expands");
                (Population::table(&shapes), tunes, sweep)
            }
            Mix::Churn => (Population::churn(&shapes), Vec::new(), Vec::new()),
        };
        Traffic {
            mix,
            seed,
            perm: permutation(population.len(), SHAPE_SEED, SALT_PERM),
            tune_perm: permutation(tunes.len().max(1), SHAPE_SEED, SALT_TUNE),
            zipf: Zipf::new(population.len(), ZIPF_S),
            tune_zipf: Zipf::new(tunes.len().max(1), ZIPF_S),
            sweep_line: encode_sweep(None, &sweep_spec(), None),
            population,
            tunes,
            sweep,
        }
    }

    fn key_at(&self, draw_index: u64) -> u32 {
        let x = draw(self.seed, SALT_KEY, draw_index);
        (match self.mix {
            Mix::Hot => self.perm[self.zipf.rank(x)],
            Mix::Churn => below(x, self.population.len()),
        }) as u32
    }

    /// Schedule entry `i`. Each entry owns key draws `i*BATCH ..
    /// (i+1)*BATCH`.
    pub fn entry(&self, i: u64) -> Entry {
        let pct = below(draw(self.seed, SALT_FRAME, i), 100);
        let base = i * BATCH as u64;
        let batch = || {
            let ids: Vec<u32> = (0..BATCH as u64).map(|k| self.key_at(base + k)).collect();
            Entry::new(Frame::Batch, &ids)
        };
        match self.mix {
            Mix::Hot if pct < HOT_SINGLE_PCT => Entry::new(Frame::Single, &[self.key_at(base)]),
            Mix::Hot if pct < HOT_BATCH_PCT => batch(),
            Mix::Hot if pct < HOT_SWEEP_PCT => {
                let first = (self.population.len() + self.tunes.len()) as u32;
                let ids: Vec<u32> = (first..first + self.sweep.len() as u32).collect();
                Entry::new(Frame::Sweep, &ids)
            }
            Mix::Hot => {
                let t = self.tune_perm[self.tune_zipf.rank(draw(self.seed, SALT_TUNE, i))];
                Entry::new(Frame::Tune, &[(self.population.len() + t) as u32])
            }
            Mix::Churn if pct < CHURN_SINGLE_PCT => Entry::new(Frame::Single, &[self.key_at(base)]),
            Mix::Churn => batch(),
        }
    }

    /// The work an id names.
    pub fn work(&self, id: u32) -> Work {
        let id = id as usize;
        let (p, t) = (self.population.len(), self.tunes.len());
        if id < p {
            self.population.work(id)
        } else if id < p + t {
            self.tunes[id - p]
        } else {
            self.sweep[id - p - t]
        }
    }

    /// Number of work ids.
    pub fn ids(&self) -> usize {
        self.population.len() + self.tunes.len() + self.sweep.len()
    }

    /// Append entry `e`'s request line and its terminator to `out`.
    pub fn encode(&self, e: &Entry, out: &mut Vec<u8>) {
        let single = |id: u32| {
            encode_estimate(&EstimateRequest {
                id: None,
                work: self.work(id),
                deadline_ms: None,
            })
        };
        match e.frame {
            Frame::Single | Frame::Tune => out.extend_from_slice(single(e.ids[0]).as_bytes()),
            Frame::Sweep => out.extend_from_slice(self.sweep_line.as_bytes()),
            Frame::Batch => {
                let works: Vec<Work> = e.items().iter().map(|&id| self.work(id)).collect();
                out.extend_from_slice(encode_batch(None, &works, None).as_bytes());
            }
        }
        out.push(b'\n');
    }

    /// The ids of the distinct works entries `0..n` ask for, in first-seen
    /// order.
    pub fn touched(&self, n: usize) -> Vec<u32> {
        let mut seen = vec![false; self.ids()];
        let mut out = Vec::new();
        for i in 0..n as u64 {
            for &id in self.entry(i).items() {
                if !std::mem::replace(&mut seen[id as usize], true) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// `n` distinct works of the population (churn's cache fill).
    pub fn fill(&self, n: usize) -> Vec<Work> {
        permutation(self.population.len(), SHAPE_SEED, SALT_FILL)
            .into_iter()
            .take(n)
            .map(|i| self.population.work(i))
            .collect()
    }
}

/// Running hash of one entry's reply lines (each line hashed with its
/// terminator), shared by the generator and the oracle.
#[derive(Default)]
pub struct ReplyHash(DefaultHasher);

impl ReplyHash {
    pub fn line(&mut self, line: &[u8]) {
        self.0.write(line);
        self.0.write_u8(b'\n');
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The hash of the reply the server must send for `entry`, given each
/// work id's expected body (from `iconv_serve::engine::evaluate`).
pub fn expected_hash<'a>(entry: &Entry, body: impl Fn(u32) -> &'a str) -> u64 {
    let mut h = ReplyHash::default();
    if entry.framed() {
        for (i, &id) in entry.items().iter().enumerate() {
            h.line(finish_item_response(None, i, body(id)).as_bytes());
        }
        h.line(
            finish_response(None, &batch_summary_body(entry.items().len() as u64, 0)).as_bytes(),
        );
    } else {
        h.line(finish_response(None, body(entry.items()[0])).as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(t: &Traffic, n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            t.encode(&t.entry(i), &mut out);
        }
        out
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_seeds() {
        let a = Traffic::new(Mix::Hot, 11);
        let b = Traffic::new(Mix::Hot, 11);
        let c = Traffic::new(Mix::Hot, 12);
        assert_eq!(lines(&a, 500), lines(&b, 500));
        assert_ne!(lines(&a, 500), lines(&c, 500));
        let frames: Vec<Frame> = (0..500).map(|i| a.entry(i).frame).collect();
        for f in [Frame::Single, Frame::Batch, Frame::Sweep, Frame::Tune] {
            assert!(frames.contains(&f), "no {f:?} entry in 500");
        }
    }

    #[test]
    fn framing_follows_the_capacity_mix() {
        let t = Traffic::new(Mix::Hot, 5);
        let n = 20_000;
        let share = |f: Frame| (0..n).filter(|&i| t.entry(i).frame == f).count() as f64 / n as f64;
        assert!((share(Frame::Single) - 0.78).abs() < 0.02);
        assert!((share(Frame::Batch) - 0.12).abs() < 0.02);
        assert!((share(Frame::Sweep) - 0.05).abs() < 0.01);
        assert!((share(Frame::Tune) - 0.05).abs() < 0.01);
        let c = Traffic::new(Mix::Churn, 5);
        let batches = (0..n).filter(|&i| c.entry(i).frame == Frame::Batch).count();
        assert!((batches as f64 / n as f64 - 0.13).abs() < 0.02);
        assert!((0..n).all(|i| c.entry(i).frame != Frame::Tune));
    }

    #[test]
    fn churn_population_is_at_least_four_caches() {
        let pop = churn_population(&layer_shapes());
        let cap = iconv_serve::ServerConfig::default().cache_capacity;
        assert!(pop.len() >= 4 * cap, "{} < 4 x {cap}", pop.len());
        assert!(!pop.iter().any(|w| matches!(
            w,
            Work::GpuConv {
                algo: GpuAlgo::ChannelFirst { .. } | GpuAlgo::Indirect,
                ..
            } | Work::GpuPass {
                algo: GpuAlgo::ChannelFirst { .. } | GpuAlgo::Indirect,
                ..
            }
        )));
    }
}
