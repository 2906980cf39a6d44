//! A long-lived worker pool with a bounded job queue.
//!
//! [`par_map_jobs`](crate::par_map_jobs) fans a *batch* out over scoped
//! threads and joins them before returning — the right shape for the
//! experiment sweeps, and the wrong one for a server that must accept jobs
//! for its whole lifetime. [`WorkerPool`] keeps `workers` threads alive,
//! feeds them from a bounded FIFO, and makes overload explicit:
//! [`WorkerPool::try_submit`] returns [`PoolBusy`] instead of blocking when
//! the queue is full, so a caller under backpressure can shed load (the
//! `iconv-serve` server turns this into a `busy` protocol error rather than
//! a hang).
//!
//! Shutdown is graceful by default: [`WorkerPool::shutdown`] (also run on
//! drop) stops accepting new jobs, lets the queue drain, and joins the
//! workers.
//!
//! # Panic isolation
//!
//! A panicking job must not cost the pool a worker: each job runs under
//! [`std::panic::catch_unwind`], so the worker absorbs the unwind, counts
//! it ([`WorkerPool::panics_caught`]), and returns to its fetch loop — an
//! in-place respawn with no thread churn and no shrinking capacity. The
//! *submitter's* obligation is to turn a vanished result into a typed
//! error (the `iconv-serve` dispatch path answers `worker-crashed`); the
//! pool's obligation is that the crash stays contained to the one job.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job the pool can run (the element type of
/// [`WorkerPool::try_submit_batch`]).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Error returned by [`WorkerPool::try_submit`] when the pool cannot take
/// the job: the bounded queue is full, or the pool is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolBusy {
    /// The job queue is at capacity.
    QueueFull,
    /// [`WorkerPool::shutdown`] has begun; no new jobs are accepted.
    ShuttingDown,
}

impl fmt::Display for PoolBusy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolBusy::QueueFull => write!(f, "worker pool queue is full"),
            PoolBusy::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::error::Error for PoolBusy {}

struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is pushed or shutdown begins.
    job_ready: Condvar,
    capacity: usize,
    /// Jobs currently executing (not counting queued ones).
    in_flight: AtomicUsize,
    /// Job panics absorbed by workers (see the module-level *Panic
    /// isolation* notes).
    panics: AtomicUsize,
}

/// A fixed-size pool of worker threads fed from a bounded FIFO queue.
///
/// Every method takes `&self` — including [`shutdown`](WorkerPool::shutdown),
/// whose join handles live behind their own mutex — so the pool can be
/// shared across threads without an outer lock. That matters for batch
/// runners: a job executing *on* the pool may resubmit its own continuation
/// via `try_submit` while another thread drives `shutdown`, and neither can
/// deadlock the other.
pub struct WorkerPool {
    shared: Arc<Shared>,
    worker_count: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads sharing a queue of at most `queue_capacity`
    /// pending jobs.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `queue_capacity == 0`.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        assert!(workers > 0, "workers must be >= 1");
        assert!(queue_capacity > 0, "queue capacity must be >= 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::with_capacity(queue_capacity),
                shutting_down: false,
            }),
            job_ready: Condvar::new(),
            capacity: queue_capacity,
            in_flight: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("iconv-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            worker_count: workers,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueue `job`, or refuse immediately if the queue is full or the
    /// pool is shutting down. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns [`PoolBusy`] when the job was *not* accepted.
    pub fn try_submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolBusy> {
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        if state.shutting_down {
            return Err(PoolBusy::ShuttingDown);
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(PoolBusy::QueueFull);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Enqueue a whole batch as a single admission unit: either every job
    /// is accepted, or none is. Never blocks, never splits a batch.
    ///
    /// # Errors
    ///
    /// Returns [`PoolBusy::QueueFull`] when the queue cannot take the whole
    /// batch, [`PoolBusy::ShuttingDown`] when the pool is draining. In both
    /// cases zero jobs were enqueued.
    pub fn try_submit_batch(&self, jobs: Vec<Job>) -> Result<(), PoolBusy> {
        if jobs.is_empty() {
            return Ok(());
        }
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        if state.shutting_down {
            return Err(PoolBusy::ShuttingDown);
        }
        if state.queue.len() + jobs.len() > self.shared.capacity {
            return Err(PoolBusy::QueueFull);
        }
        for job in jobs {
            state.queue.push_back(job);
        }
        drop(state);
        self.shared.job_ready.notify_all();
        Ok(())
    }

    /// Number of worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs waiting in the queue (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool state poisoned")
            .queue
            .len()
    }

    /// Jobs currently executing on workers.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Job panics absorbed so far. Every count here is a job that died
    /// without killing its worker: the thread caught the unwind and went
    /// back to the queue.
    ///
    /// A panic is counted once its unwind is caught, which is after the
    /// panic hook has run — other workers may finish later jobs first. The
    /// count is final for every submitted job once
    /// [`shutdown`](WorkerPool::shutdown) has joined the workers.
    pub fn panics_caught(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Stop accepting new jobs, let queued and in-flight jobs finish, and
    /// join the workers. Idempotent; also runs on drop. Takes `&self` so a
    /// shared pool needs no outer lock that in-flight jobs resubmitting
    /// continuations could deadlock against.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutting_down = true;
        }
        self.shared.job_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().expect("pool workers poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count)
            .field("capacity", &self.shared.capacity)
            .field("queue_depth", &self.queue_depth())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return; // queue drained and no more will arrive
                }
                state = shared.job_ready.wait(state).expect("pool state poisoned");
            }
        };
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        // Absorb job panics so one poisoned task cannot cost the pool a
        // worker: the catch is the respawn (the thread never dies, so
        // there is no window with reduced capacity).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_every_submitted_job() {
        let counter = Arc::new(AtomicU32::new(0));
        let pool = WorkerPool::new(4, 64);
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.try_submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn full_queue_refuses_instead_of_blocking() {
        // One worker blocked on a gate; capacity-1 queue: the first job
        // occupies the worker, the second fills the queue, the third must
        // be refused immediately.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let pool = WorkerPool::new(1, 1);
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker never started");
        pool.try_submit(|| {}).unwrap(); // sits in the queue
        assert_eq!(pool.try_submit(|| {}), Err(PoolBusy::QueueFull));
        assert_eq!(pool.queue_depth(), 1);
        assert_eq!(pool.in_flight(), 1);
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_refuses_new_ones() {
        let counter = Arc::new(AtomicU32::new(0));
        let pool = WorkerPool::new(2, 128);
        for _ in 0..40 {
            let counter = Arc::clone(&counter);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_micros(100));
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 40, "queue must drain");
        assert_eq!(pool.try_submit(|| {}), Err(PoolBusy::ShuttingDown));
    }

    #[test]
    #[should_panic(expected = "workers must be >= 1")]
    fn zero_workers_panics() {
        let _ = WorkerPool::new(0, 1);
    }

    #[test]
    fn batch_admission_is_all_or_nothing() {
        // One worker parked on a gate, capacity 4. A 3-job batch fits next
        // to the gate job's successor slotting; a further 3-job batch would
        // overflow and must leave the queue untouched.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let pool = WorkerPool::new(1, 4);
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker never started");
        let counter = Arc::new(AtomicU32::new(0));
        let jobs: Vec<Job> = (0..3)
            .map(|_| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.try_submit_batch(jobs).unwrap();
        assert_eq!(pool.queue_depth(), 3);
        let refused: Vec<Job> = (0..3).map(|_| Box::new(|| {}) as Job).collect();
        assert_eq!(pool.try_submit_batch(refused), Err(PoolBusy::QueueFull));
        assert_eq!(pool.queue_depth(), 3, "refused batch must not enqueue");
        // A batch exactly filling the remaining slot is accepted.
        pool.try_submit_batch(vec![Box::new(|| {}) as Job]).unwrap();
        gate_tx.send(()).unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 3);
        assert_eq!(
            pool.try_submit_batch(vec![Box::new(|| {}) as Job]),
            Err(PoolBusy::ShuttingDown)
        );
    }

    #[test]
    fn shutdown_by_shared_ref_while_jobs_resubmit() {
        // A job resubmitting its continuation while another thread drives
        // shutdown must not deadlock: the resubmit either lands (and is
        // drained) or is refused with ShuttingDown.
        let pool = Arc::new(WorkerPool::new(2, 64));
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let pool2 = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            pool.try_submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let counter2 = Arc::clone(&counter);
                let _ = pool2.try_submit(move || {
                    counter2.fetch_add(1, Ordering::Relaxed);
                });
            })
            .unwrap();
        }
        pool.shutdown();
        let n = counter.load(Ordering::Relaxed);
        assert!((8..=16).contains(&n), "ran {n} jobs");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(1, 1);
        pool.try_submit_batch(Vec::new()).unwrap();
        assert_eq!(pool.queue_depth(), 0);
        pool.shutdown();
    }
}
