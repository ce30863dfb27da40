//! Execution modes and the persistent sharded executor behind parallel
//! replica stepping.
//!
//! A [`crate::ReplicaPool`] (inside `cluster::Cluster`, or the decode
//! side of `disagg::DisaggCluster`) advances many independent replicas
//! between two synchronization points (the next arrival, scaling event, KV-transfer
//! landing or prefill iteration). [`ExecMode`] selects *how* that batch of
//! per-replica work runs; [`ShardedExecutor`] is the long-lived worker
//! pool that runs it when real parallelism is requested.
//!
//! # Determinism guarantee
//!
//! Replicas interact only at the synchronization points the session
//! injects **between** batches — routing, scaling, KV handoff — never
//! inside one. Each task in a batch therefore owns its replica
//! exclusively, and the pool merges per-replica results in
//! replica-index order after the batch completes. Output is
//! **record-for-record identical** across every `ExecMode` (and every
//! worker count): same completion records, same end time, same iteration
//! count. Only the interleaving of surfaced lifecycle events differs.
//! This is pinned by `tests/output_equivalence.rs` and the cluster/disagg
//! proptests.
//!
//! # Shard ownership
//!
//! [`ShardedExecutor::run`] splits the batch's task indices into
//! contiguous shards, one per worker. Each worker claims the tasks of its
//! own shard first (good locality: a worker keeps revisiting the same
//! replicas batch after batch), then *steals* unclaimed tasks from other
//! shards so a straggler shard — one replica with far more due iterations
//! than the rest — cannot idle the remaining workers. Claims are atomic
//! swaps, so every task runs exactly once no matter how workers race.
//!
//! The pool is created once per deployment and reused across every batch
//! and every `serve()` call; workers park on a condvar between batches
//! instead of being respawned (the `std::thread::scope`-per-batch design
//! this replaces lost to sequential stepping at 4 replicas — see
//! `BENCH_perf.json`).

// The executor hands lifetime-erased task-closure pointers to its
// persistent workers; `run` blocks until every worker is done touching
// the closure, which the `unsafe` blocks below document individually.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How a multi-replica driver executes a batch of independent per-replica
/// stepping tasks between two synchronization points.
///
/// The default is [`ExecMode::Sharded`] with an auto-detected worker
/// count. Every mode produces **identical completion records** (see the
/// [module docs](self) for the determinism guarantee); the choice only
/// affects wall-clock cost and the interleaving of surfaced lifecycle
/// events:
///
/// * [`ExecMode::Sequential`] — one engine iteration at a time, globally
///   ordered by replica clock. Strictly sequential event ordering; pays
///   an O(replicas) scheduling scan per iteration.
/// * [`ExecMode::Sharded`] — batch every due replica to the horizon via
///   the persistent [`ShardedExecutor`]. With `workers > 1` replicas
///   advance on parallel worker threads; with one effective worker the
///   batch runs inline on the caller thread (no pool, no handoff), which
///   still amortizes the per-iteration scheduling scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Step one iteration of the earliest-clock replica at a time.
    Sequential,
    /// Batch-step due replicas to the horizon on a persistent worker
    /// pool; each worker owns a contiguous shard of the batch and steals
    /// stragglers' tasks.
    Sharded {
        /// Worker threads to use; `None` auto-detects
        /// [`std::thread::available_parallelism`]. Clamped to at least 1;
        /// counts above the replica count are harmless (extra workers
        /// find their shards empty and steal).
        workers: Option<usize>,
    },
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Sharded { workers: None }
    }
}

impl ExecMode {
    /// Display label: `"sequential"`, `"sharded"` or `"sharded:N"`.
    pub fn label(&self) -> String {
        match self {
            ExecMode::Sequential => "sequential".into(),
            ExecMode::Sharded { workers: None } => "sharded".into(),
            ExecMode::Sharded { workers: Some(n) } => format!("sharded:{n}"),
        }
    }

    /// Parses a mode label: `"sequential"`, `"sharded"` or `"sharded:N"`
    /// (the [`ExecMode::label`] forms). Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "sequential" => Some(ExecMode::Sequential),
            "sharded" => Some(ExecMode::Sharded { workers: None }),
            other => {
                let n = other.strip_prefix("sharded:")?.parse().ok()?;
                Some(ExecMode::Sharded { workers: Some(n) })
            }
        }
    }

    /// Reads a mode from environment variable `var` ([`ExecMode::parse`]
    /// syntax). Returns `None` when the variable is unset.
    ///
    /// # Panics
    ///
    /// Panics on a malformed value — a typo'd CI override should fail the
    /// job, not silently fall back.
    pub fn from_env(var: &str) -> Option<Self> {
        let raw = std::env::var(var).ok()?;
        Some(Self::parse(&raw).unwrap_or_else(|| {
            panic!("{var}={raw:?} is not a valid exec mode (sequential | sharded | sharded:N)")
        }))
    }

    /// The worker count this mode resolves to on this host: 1 for
    /// [`ExecMode::Sequential`], the explicit or auto-detected count
    /// (clamped to ≥ 1) for [`ExecMode::Sharded`].
    pub fn effective_workers(&self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Sharded { workers: Some(n) } => (*n).max(1),
            ExecMode::Sharded { workers: None } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Live worker threads spawned by all [`ShardedExecutor`]s in this
/// process. Tests use this to assert drivers reuse one pool across
/// repeated `serve()` calls instead of leaking threads.
pub fn live_worker_threads() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// One published batch: a lifetime-erased task closure plus the claim /
/// completion state its workers share.
struct JobState {
    /// The caller's `Fn(usize)` with its lifetime erased. Valid for the
    /// whole job: [`ShardedExecutor::run`] does not return until every
    /// worker has decremented [`JobState::active`], which each does only
    /// after its last use of this pointer.
    task: ErasedTaskFn,
    /// Number of tasks (`f` is invoked with each index in `0..tasks`).
    tasks: usize,
    /// Worker count the shard split is computed against.
    workers: usize,
    /// Per-task claim flags: an atomic swap decides the unique runner.
    claimed: Vec<AtomicBool>,
    /// Workers still touching this job; the last one out clears the
    /// pool's published job and wakes the caller.
    active: AtomicUsize,
    /// First panic payload raised by a task, re-raised on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct ErasedTaskFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer is only dereferenced while the originating
// `ShardedExecutor::run` frame is alive (see `JobState::task`).
unsafe impl Send for ErasedTaskFn {}
unsafe impl Sync for ErasedTaskFn {}

impl JobState {
    /// One worker's share of the job: claim-and-run the contiguous own
    /// shard, then sweep the rest of the index space for unclaimed
    /// (straggler) tasks.
    fn run_worker(&self, worker: usize) {
        // SAFETY: `run` keeps the closure alive until `active` drains;
        // this thread decrements `active` only after returning from here.
        let f = unsafe { &*self.task.0 };
        let per = self.tasks.div_ceil(self.workers);
        let start = (worker * per).min(self.tasks);
        let end = ((worker + 1) * per).min(self.tasks);
        let own = start..end;
        let steal = (end..self.tasks).chain(0..start);
        for i in own.chain(steal) {
            if self.claimed[i].swap(true, Ordering::AcqRel) {
                continue;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut slot = self.panic.lock().expect("panic slot");
                slot.get_or_insert(payload);
            }
        }
    }
}

struct PoolState {
    /// Bumped once per published batch; workers run each epoch once.
    epoch: u64,
    /// The in-flight batch, cleared by the last worker to finish it.
    job: Option<Arc<JobState>>,
    /// Set by `Drop` to retire the workers.
    exiting: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between batches.
    work_cv: Condvar,
    /// The caller parks here until the batch completes.
    done_cv: Condvar,
}

/// A persistent worker pool executing batches of index-addressed tasks
/// with shard ownership and work stealing (see the [module docs](self)).
///
/// Created once per deployment and reused for every batch; dropping it
/// joins the workers. With fewer than two workers no threads are spawned
/// at all and [`ShardedExecutor::run`] executes inline on the caller.
pub struct ShardedExecutor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ShardedExecutor {
    /// Builds a pool of `workers` persistent threads (none for
    /// `workers <= 1`; `run` then executes inline).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                exiting: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = if workers > 1 {
            (0..workers)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
                    std::thread::Builder::new()
                        .name(format!("shard-worker-{w}"))
                        .spawn(move || worker_main(&shared, w))
                        .expect("spawn shard worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            shared,
            handles,
            workers,
        }
    }

    /// The pool's worker count (as requested at construction).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(i)` exactly once for every `i in 0..tasks`, returning when
    /// all tasks have completed.
    ///
    /// Tasks are distributed by contiguous shard with work stealing;
    /// distinct indices may run concurrently, so `f` must serialize any
    /// shared mutation itself (drivers give each index exclusive state).
    /// With `tasks <= 1` or a pool of fewer than two workers, everything
    /// runs inline on the caller thread.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any task raised (the rest of the batch
    /// still runs to completion first).
    pub fn run<F: Fn(usize) + Sync>(&mut self, tasks: usize, f: F) {
        if tasks <= 1 || self.handles.is_empty() {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erasing the closure's lifetime to hand it to the
        // persistent workers. The pointee outlives every dereference: we
        // block below until the last worker clears `state.job`, and
        // workers decrement `active` (the gate for that clear) only after
        // their final use of the pointer.
        let task = ErasedTaskFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f_ref)
        });
        let job = Arc::new(JobState {
            task,
            tasks,
            workers: self.handles.len(),
            claimed: (0..tasks).map(|_| AtomicBool::new(false)).collect(),
            active: AtomicUsize::new(self.handles.len()),
            panic: Mutex::new(None),
        });
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.epoch += 1;
            state.job = Some(Arc::clone(&job));
            self.shared.work_cv.notify_all();
            while state.job.is_some() {
                state = self.shared.done_cv.wait(state).expect("pool state");
            }
        }
        let payload = job.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.exiting = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            h.join().expect("shard worker exits cleanly");
        }
    }
}

fn worker_main(shared: &Shared, worker: usize) {
    // Balance the `fetch_add` at spawn even if a task panic unwinds past
    // `catch_unwind` somehow; `Drop` then still observes a sane count.
    struct LiveGuard;
    impl Drop for LiveGuard {
        fn drop(&mut self) {
            LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _live = LiveGuard;
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state");
            loop {
                if state.exiting {
                    return;
                }
                if state.epoch != seen_epoch {
                    if let Some(job) = &state.job {
                        seen_epoch = state.epoch;
                        break Arc::clone(job);
                    }
                }
                state = shared.work_cv.wait(state).expect("pool state");
            }
        };
        job.run_worker(worker);
        if job.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last worker out: retire the batch and wake the caller.
            let mut state = shared.state.lock().expect("pool state");
            state.job = None;
            drop(state);
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_mode_is_auto_sharded() {
        assert_eq!(ExecMode::default(), ExecMode::Sharded { workers: None });
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for mode in [
            ExecMode::Sequential,
            ExecMode::Sharded { workers: None },
            ExecMode::Sharded { workers: Some(7) },
        ] {
            assert_eq!(ExecMode::parse(&mode.label()), Some(mode));
        }
        assert_eq!(
            ExecMode::parse("  sharded:3 "),
            Some(ExecMode::Sharded { workers: Some(3) })
        );
        assert_eq!(ExecMode::parse("parallel"), None);
        assert_eq!(ExecMode::parse("sharded:x"), None);
    }

    #[test]
    fn effective_workers_clamps_to_one() {
        assert_eq!(ExecMode::Sequential.effective_workers(), 1);
        assert_eq!(
            ExecMode::Sharded { workers: Some(0) }.effective_workers(),
            1
        );
        assert_eq!(
            ExecMode::Sharded { workers: Some(5) }.effective_workers(),
            5
        );
        assert!(ExecMode::Sharded { workers: None }.effective_workers() >= 1);
    }

    /// Every index runs exactly once, whatever the worker/task ratio —
    /// including workers > tasks (empty shards steal) and tasks that
    /// don't divide evenly into shards.
    #[test]
    fn run_executes_each_task_exactly_once() {
        for workers in [1, 2, 3, 8] {
            let mut pool = ShardedExecutor::new(workers);
            for tasks in [0usize, 1, 2, 5, 17] {
                let hits: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
                pool.run(tasks, |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::SeqCst),
                        1,
                        "task {i} of {tasks} with {workers} workers"
                    );
                }
            }
        }
    }

    /// The pool survives many batches (the persistence the design is
    /// about) and a straggler task cannot lose its batch-mates' work.
    #[test]
    fn pool_is_reusable_across_batches() {
        let mut pool = ShardedExecutor::new(3);
        let total = AtomicU64::new(0);
        for round in 1..=50u64 {
            pool.run(4, |i| {
                if i == 0 {
                    // Straggler shard: others must steal nothing here but
                    // still complete their own shards.
                    std::thread::yield_now();
                }
                total.fetch_add(round, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), (1..=50u64).sum::<u64>() * 4);
    }

    #[test]
    fn task_panics_propagate_to_the_caller() {
        let mut pool = ShardedExecutor::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                assert!(i != 2, "task 2 exploded");
            });
        }));
        assert!(caught.is_err(), "panic crossed the pool boundary");
        // The pool is still usable afterwards.
        let ran = AtomicU64::new(0);
        pool.run(3, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn single_worker_pool_runs_inline_without_threads() {
        let before = live_worker_threads();
        let mut pool = ShardedExecutor::new(1);
        assert_eq!(live_worker_threads(), before, "no threads for 1 worker");
        let ran = AtomicU64::new(0);
        pool.run(5, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 5);
    }
}
