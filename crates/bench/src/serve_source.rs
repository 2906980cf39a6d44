//! A [`CycleSource`] backed by a running
//! `iconv-serve` instance — the `expall --via-serve` path.
//!
//! One client connection is shared behind a mutex: the summary's
//! fan-out serializes on it, which is fine because the server is where
//! the real concurrency (and the report cache) lives. `estimate_many` is
//! overridden to ship each figure's whole work table as a single `batch`
//! request — one round trip instead of one per item. GPU cycles come back
//! as IEEE-754 bit strings, so every number this source returns is
//! bit-identical to the in-process simulation and the summary JSON built
//! on top is byte-identical to the in-process one.
//!
//! Estimate failures panic with the server's typed error: `expall` has no
//! way to make progress on a half-answered summary, and a panic keeps the
//! failure loud in CI.

use std::sync::Mutex;

use iconv_api::Work;
use iconv_serve::protocol::encode_estimate;
use iconv_serve::{Client, Estimate, EstimateRequest, Response, MAX_SWEEP_ITEMS};
use iconv_tune::{CycleCount, CycleSource};

/// Estimate source speaking the serve protocol.
pub struct ServeSource {
    client: Mutex<Client>,
}

impl ServeSource {
    /// Connect to a serve endpoint, retrying for up to five seconds (the
    /// server may still be binding when `expall` starts).
    ///
    /// # Errors
    ///
    /// Returns the final connect error once the retry window closes.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let client = Client::connect_retry(addr, iconv_serve::DEFAULT_CONNECT_TIMEOUT)?;
        Ok(Self {
            client: Mutex::new(client),
        })
    }

    /// Fetch the server's counter snapshot (for the hit-rate report
    /// `expall` prints after a `--via-serve` summary).
    ///
    /// # Panics
    ///
    /// Panics when the stats RPC fails.
    pub fn stats(&self) -> iconv_serve::StatsSnapshot {
        self.client
            .lock()
            .expect("serve client poisoned")
            .stats()
            .expect("serve stats RPC failed")
    }
}

impl CycleSource for ServeSource {
    fn estimate(&self, work: &Work) -> CycleCount {
        let mut client = self.client.lock().expect("serve client poisoned");
        // Ship the `Work` itself rather than going through the per-variant
        // client helpers: that keeps hardware overrides and `tune` on the
        // same wire bytes as the serve-side cache key.
        let line = encode_estimate(&EstimateRequest {
            id: None,
            work: *work,
            deadline_ms: None,
        });
        match client.call(&line).expect("serve estimate failed") {
            Response::Tpu { est, .. } => CycleCount::Tpu(est.cycles),
            Response::Gpu { est, .. } => CycleCount::Gpu(est.cycles),
            Response::Tune { est, .. } => CycleCount::Tuned(est.tuned_cycles),
            other => panic!("unexpected serve response: {other:?}"),
        }
    }

    /// Ship the whole table as `batch` requests (one per `MAX_SWEEP_ITEMS`
    /// chunk — in practice a single round trip) instead of one request per
    /// item. The server streams replies in item order, so the results line
    /// up with `works` positionally.
    fn estimate_many(&self, _jobs: usize, works: &[Work]) -> Vec<CycleCount> {
        let mut client = self.client.lock().expect("serve client poisoned");
        let mut out = Vec::with_capacity(works.len());
        for chunk in works.chunks(MAX_SWEEP_ITEMS) {
            let replies = client
                .batch(chunk, None)
                .expect("serve batch estimate failed");
            for reply in replies {
                match reply.expect("serve batch item failed") {
                    Estimate::Tpu(est) => out.push(CycleCount::Tpu(est.cycles)),
                    Estimate::Gpu(est) => out.push(CycleCount::Gpu(est.cycles)),
                    Estimate::Tune(est) => out.push(CycleCount::Tuned(est.tuned_cycles)),
                }
            }
        }
        out
    }
}
