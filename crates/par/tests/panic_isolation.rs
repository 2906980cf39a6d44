//! Pins the pool's panic-isolation contract: a panicking job is absorbed
//! (counted, not fatal), the worker returns to the queue, and the pool
//! keeps its full capacity for subsequent work.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use iconv_par::WorkerPool;

/// A panicking task is contained: the pool reports it, and N subsequent
/// tasks on the *same* pool all complete.
#[test]
fn panicking_job_is_absorbed_and_pool_keeps_working() {
    let pool = WorkerPool::new(2, 64);
    let (tx, rx) = mpsc::channel::<&'static str>();

    let panic_tx = tx.clone();
    pool.try_submit(move || {
        panic_tx.send("about to panic").unwrap();
        panic!("injected job panic");
    })
    .unwrap();
    rx.recv_timeout(Duration::from_secs(5))
        .expect("panicking job never started");

    // The submitter sees the crash as an absent result, typed by whatever
    // layer owns the response channel; here the channel simply closes
    // without a completion message — never a hang, never a poisoned pool.
    let done = Arc::new(AtomicU32::new(0));
    for _ in 0..32 {
        let done = Arc::clone(&done);
        let tx = tx.clone();
        pool.try_submit(move || {
            done.fetch_add(1, Ordering::Relaxed);
            tx.send("ok").unwrap();
        })
        .unwrap();
    }
    for _ in 0..32 {
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok("ok"),
            "a worker died instead of respawning"
        );
    }
    assert_eq!(done.load(Ordering::Relaxed), 32);
    // The worker counts the panic only once `catch_unwind` returns, which
    // is after the panic hook has printed (and, under RUST_BACKTRACE,
    // symbolized) its report — the other worker can drain all 32 jobs in
    // that time. Joining the workers makes the count final.
    pool.shutdown();
    assert_eq!(pool.panics_caught(), 1);
}

/// A single-worker pool survives a panic: with only one thread, a lost
/// worker would deadlock everything after it, so this is the sharpest
/// respawn check.
#[test]
fn single_worker_pool_survives_a_panic() {
    let pool = WorkerPool::new(1, 8);
    pool.try_submit(|| panic!("boom")).unwrap();
    let (tx, rx) = mpsc::channel::<u32>();
    pool.try_submit(move || tx.send(7).unwrap()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
    pool.shutdown();
    assert_eq!(pool.panics_caught(), 1);
}

/// Many interleaved panics: the panic count is exact and every healthy job
/// still runs.
#[test]
fn interleaved_panics_are_all_counted() {
    let pool = WorkerPool::new(4, 256);
    let ok = Arc::new(AtomicU32::new(0));
    for i in 0..100 {
        if i % 3 == 0 {
            pool.try_submit(move || panic!("injected panic {i}"))
                .unwrap();
        } else {
            let ok = Arc::clone(&ok);
            pool.try_submit(move || {
                ok.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
    }
    pool.shutdown();
    assert_eq!(ok.load(Ordering::Relaxed), 66);
    assert_eq!(pool.panics_caught(), 34);
    assert_eq!(pool.in_flight(), 0);
}
