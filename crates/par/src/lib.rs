//! A std-only worker pool for the `congest-hardness` workspace.
//!
//! The build environment is offline (no rayon), but the workspace's hot
//! loops — `verify_family`'s `2^{2K}` build-and-decide sweeps, the
//! robustness sweeps' fault plans, the sharded simulator's rounds — are
//! embarrassingly parallel. This crate has one pool for all of them:
//!
//! * [`with_shards`] — a round-barrier pool: long-lived mutable shard
//!   states, a driver on the caller thread, and [`ShardHandle::step`]
//!   running one fixed body over every shard in parallel per barrier.
//!   The caller thread and the helper threads claim shards from a shared
//!   atomic cursor, so load-balancing is dynamic and a step does not
//!   wait for a helper to wake up before work starts. The sharded
//!   CONGEST simulator is built on it.
//! * [`par_map`] / [`par_try_map_stats`] — order-preserving parallel maps
//!   over a slice. A map is one step of [`with_shards`] with one shard
//!   per item, and its output `Vec` is always in input order.
//! * **Deterministic failure reporting.** [`par_try_map_stats`] returns
//!   the *lowest-index* error regardless of thread scheduling, so a
//!   parallel run reports the same failure as the serial sweep, run after
//!   run. A panic in the mapped closure is caught on its item and
//!   re-raised on the caller thread — again for the lowest failing index
//!   — instead of aborting the pool or hanging siblings.
//! * [`PoolStats`] — per-worker item counters plus busy/idle wall time
//!   (how well did the load balance?), exportable as `congest-obs`
//!   records for trace inspection.
//!
//! Shards are claimed in increasing index order, so once a map sees a
//! failure at index `i` every index `< i` has already been claimed; the
//! map skips every item above the lowest failure seen so far and still
//! evaluates every earlier one. That is what makes the lowest-index
//! guarantee cheap: no retry, just the pool's monotone cursor plus an
//! atomic failure floor.
//!
//! # Example
//!
//! ```
//! let squares = congest_par::par_map(4, &[1u64, 2, 3, 4], |_, &v| v * v);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let (r, _stats) = congest_par::par_try_map_stats(4, &[1u64, 0, 0, 7], |i, &v| {
//!     if v == 0 { Err(format!("zero at {i}")) } else { Ok(v) }
//! });
//! assert_eq!(r.unwrap_err(), (1, "zero at 1".to_string()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use congest_obs::{Histogram, Record};

/// The number of workers to use when the caller does not care: the
/// machine's available parallelism, or `1` when it cannot be determined.
pub fn max_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Normalizes a `--jobs`-style request: `0` means [`max_jobs`].
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        max_jobs()
    } else {
        jobs
    }
}

/// Per-worker counters from one pool invocation.
///
/// Worker-to-item assignment is scheduling-dependent, so these counters
/// are observability data (how well did the load balance?), never part of
/// a deterministic result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of workers the pool ran with.
    pub workers: usize,
    /// Body calls each worker made (`len() == workers`): one per shard
    /// per step, so for a map one per item, skipped items included.
    pub items_per_worker: Vec<u64>,
    /// Microseconds each worker spent inside the body.
    pub busy_micros_per_worker: Vec<u64>,
    /// Microseconds each worker spent *not* inside the body — claim
    /// contention, barrier waits and the tail wait after its last item
    /// while siblings finished, and for worker 0, the caller thread,
    /// spawning the helpers and the driver's own work between steps. High
    /// idle on some workers with low idle on others means the items were
    /// too coarse to balance.
    pub idle_micros_per_worker: Vec<u64>,
}

impl PoolStats {
    /// Total body calls across all workers.
    pub fn total_items(&self) -> u64 {
        self.items_per_worker.iter().sum()
    }

    /// Total microseconds spent inside the body.
    pub fn busy_micros(&self) -> u64 {
        self.busy_micros_per_worker.iter().sum()
    }

    /// Total microseconds of worker idle time.
    pub fn idle_micros(&self) -> u64 {
        self.idle_micros_per_worker.iter().sum()
    }

    /// Busy fraction of total worker wall time, in `[0, 1]` (`None` when
    /// nothing was measured).
    pub fn utilization(&self) -> Option<f64> {
        let busy = self.busy_micros();
        let wall = busy + self.idle_micros();
        (wall > 0).then(|| busy as f64 / wall as f64)
    }

    /// Folds another invocation's counters into this one (for
    /// accumulating utilization across a sweep of pool calls). Workers
    /// are matched by index; the wider invocation decides the width.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.workers = self.workers.max(other.workers);
        grow_add(&mut self.items_per_worker, &other.items_per_worker);
        grow_add(
            &mut self.busy_micros_per_worker,
            &other.busy_micros_per_worker,
        );
        grow_add(
            &mut self.idle_micros_per_worker,
            &other.idle_micros_per_worker,
        );
    }

    /// Exports the counters as `congest-obs` records: one `pool` summary
    /// (worker count, total items, min/max/mean per-worker load via a
    /// log₂ histogram, busy/idle totals and utilization) plus one
    /// `worker` record per worker.
    pub fn to_records(&self, target: &'static str) -> Vec<Record> {
        let mut load = Histogram::new();
        for &n in &self.items_per_worker {
            load.observe(n);
        }
        let mut out = vec![load
            .to_record(target, "items_per_worker")
            .with("workers", self.workers)
            .with("items", self.total_items())
            .with("busy_micros", self.busy_micros())
            .with("idle_micros", self.idle_micros())
            .with("utilization", self.utilization().unwrap_or(0.0))];
        for (w, &n) in self.items_per_worker.iter().enumerate() {
            out.push(
                Record::new(target, "worker")
                    .with("worker", w)
                    .with("items", n)
                    .with(
                        "busy_micros",
                        self.busy_micros_per_worker.get(w).copied().unwrap_or(0),
                    )
                    .with(
                        "idle_micros",
                        self.idle_micros_per_worker.get(w).copied().unwrap_or(0),
                    ),
            );
        }
        out
    }
}

/// Element-wise add, growing `into` to `from`'s length as needed.
fn grow_add(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// A caught panic payload.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// How one map item failed: a recoverable error or a caught panic.
enum Failure<E> {
    Err(E),
    Panic(PanicPayload),
}

/// One map item's shard: its value or failure, `None` if it never ran.
type Cell<U, E> = Option<Result<U, Failure<E>>>;

/// The values in index order, or the first failure in index order: an
/// `Err` is returned, a panic re-raised on the caller thread.
fn settle<U, E>(cells: Vec<Cell<U, E>>) -> Result<Vec<U>, (usize, E)> {
    let mut out = Vec::with_capacity(cells.len());
    for (i, cell) in cells.into_iter().enumerate() {
        match cell.expect("every index below the first failure is evaluated") {
            Ok(v) => out.push(v),
            Err(Failure::Err(e)) => return Err((i, e)),
            Err(Failure::Panic(payload)) => resume_unwind(payload),
        }
    }
    Ok(out)
}

/// Maps `f` over `items` on `jobs` workers (`0` = all cores), preserving
/// input order.
///
/// # Panics
///
/// If `f` panics for some items, the panic of the *lowest* index is
/// re-raised on the caller thread after all workers have drained — never
/// a hang, and deterministic across runs.
pub fn par_map<'s, T, U, F>(jobs: usize, items: &'s [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &'s T) -> U + Sync,
{
    let infallible = |i, item| Ok::<U, std::convert::Infallible>(f(i, item));
    match par_try_map_stats(jobs, items, infallible).0 {
        Ok(v) => v,
        Err((_, e)) => match e {},
    }
}

/// Fallible [`par_map`] that also returns the pool's [`PoolStats`]. On
/// failure the result is `Err((index, error))` for the *lowest* failing
/// index, independent of thread scheduling.
///
/// The map is one [`ShardHandle::step`] of [`with_shards`] with one shard
/// per item. An item above the lowest failure seen so far is skipped, but
/// every item below it is evaluated, so the reported failure is exactly
/// the one the serial sweep would have hit first. At `jobs = 1` nothing
/// past the first failure runs.
///
/// # Panics
///
/// A panic in `f` counts as its item's failure. If the lowest-index
/// failure is a panic, it is re-raised on the caller thread after all
/// workers have drained; an `Err` below a panic is returned.
pub fn par_try_map_stats<'s, T, U, E, F>(
    jobs: usize,
    items: &'s [T],
    f: F,
) -> (Result<Vec<U>, (usize, E)>, PoolStats)
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &'s T) -> Result<U, E> + Sync,
{
    // `Relaxed`: the floor publishes no data (the cells are read after
    // the step's barrier), and it never drops below the lowest failure.
    let floor = AtomicUsize::new(usize::MAX);
    let cells = (0..items.len()).map(|_| None).collect();
    let ((), cells, stats) = with_shards(
        jobs,
        cells,
        |i, cell: &mut Cell<U, E>| {
            if i > floor.load(Ordering::Relaxed) {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                .map_err(Failure::Panic)
                .and_then(|r| r.map_err(Failure::Err));
            if outcome.is_err() {
                floor.fetch_min(i, Ordering::Relaxed);
            }
            *cell = Some(outcome);
        },
        |handle| handle.step(),
    );
    (settle(cells), stats)
}

/// What the caller thread and the helper workers of a [`with_shards`]
/// pool share. Steps are announced by bumping a generation counter (so a
/// helper that was still parked when two steps were requested cannot miss
/// one), and completion is a count of *shards* processed, not workers —
/// a worker that claims nothing still participates correctly.
struct Pool<'a, S> {
    shards: &'a [Mutex<S>],
    body: &'a (dyn Fn(usize, &mut S) + Sync),
    /// The caught panic of each shard in the current step.
    panics: Mutex<Vec<Option<PanicPayload>>>,
    generation: Mutex<u64>,
    gen_cv: Condvar,
    done: Mutex<usize>,
    done_cv: Condvar,
    cursor: AtomicUsize,
    shutdown: AtomicBool,
}

impl<S> Pool<'_, S> {
    /// Runs the body on shards claimed from the cursor until none is left.
    /// A panic is caught into its shard's slot, so the caller can re-raise
    /// the lowest one deterministically. Returns the shards run and the
    /// nanoseconds spent in the body.
    fn drain(&self) -> (u64, u64) {
        let (mut items, mut busy_nanos) = (0, 0);
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.shards.len() {
                return (items, busy_nanos);
            }
            {
                let shard = &mut *lock_ignore_poison(&self.shards[i]);
                let t0 = Instant::now();
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(i, shard))) {
                    lock_ignore_poison(&self.panics)[i] = Some(payload);
                }
                busy_nanos += t0.elapsed().as_nanos() as u64;
            }
            items += 1;
            let mut done = lock_ignore_poison(&self.done);
            *done += 1;
            if *done == self.shards.len() {
                self.done_cv.notify_all();
            }
        }
    }

    /// A helper worker: drains every step until shutdown. Returns its
    /// shards run, busy nanoseconds and wall nanoseconds.
    fn help(&self) -> (u64, u64, u64) {
        let wall_t0 = Instant::now();
        let (mut seen_gen, mut items, mut busy_nanos) = (0, 0, 0);
        loop {
            {
                let mut g = lock_ignore_poison(&self.generation);
                while *g == seen_gen {
                    g = self.gen_cv.wait(g).unwrap_or_else(|p| p.into_inner());
                }
                seen_gen = *g;
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return (items, busy_nanos, wall_t0.elapsed().as_nanos() as u64);
            }
            let (n, busy) = self.drain();
            items += n;
            busy_nanos += busy;
        }
    }

    /// Wakes every parked helper for the next step, or for shutdown.
    fn announce(&self) {
        *lock_ignore_poison(&self.generation) += 1;
        self.gen_cv.notify_all();
    }
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker panics are caught per shard and re-raised deterministically
    // by the caller thread; a poisoned mutex carries no extra information.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Caller-side handle to a [`with_shards`] pool: requests barrier steps
/// and accesses shard state between steps.
pub struct ShardHandle<'a, S> {
    pool: &'a Pool<'a, S>,
    steps: u64,
    items: u64,
    busy_nanos: u64,
}

impl<S> ShardHandle<'_, S> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.pool.shards.len()
    }

    /// Barrier steps completed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs the pool's body once over every shard and returns when all
    /// shards are done — one barrier step. The caller thread claims shards
    /// alongside the helper workers. With one worker the shards run in
    /// index order on the caller thread; with more, claim order is
    /// dynamic, which is why the body must not couple shards to each
    /// other.
    ///
    /// # Panics
    ///
    /// If the body panicked on some shards, the payload of the *lowest*
    /// shard index is re-raised here, after every shard of the step has
    /// settled — deterministic, and never a hang.
    pub fn step(&mut self) {
        let pool = self.pool;
        self.steps += 1;
        *lock_ignore_poison(&pool.done) = 0;
        pool.cursor.store(0, Ordering::Relaxed);
        pool.announce();
        let (items, busy_nanos) = pool.drain();
        self.items += items;
        self.busy_nanos += busy_nanos;
        let mut done = lock_ignore_poison(&pool.done);
        while *done < pool.shards.len() {
            done = pool.done_cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
        drop(done);
        let lowest = lock_ignore_poison(&pool.panics)
            .iter_mut()
            .find_map(Option::take);
        if let Some(payload) = lowest {
            resume_unwind(payload);
        }
    }

    /// Locks shard `i` for caller access between steps. Never call while
    /// a guard for the same shard is alive (self-deadlock); a step cannot
    /// be requested while any guard is held, because [`step`] takes
    /// `&mut self`.
    ///
    /// [`step`]: ShardHandle::step
    pub fn lock(&self, i: usize) -> MutexGuard<'_, S> {
        lock_ignore_poison(&self.pool.shards[i])
    }
}

/// Runs `driver` on the caller thread against a pool of `jobs` workers
/// (`0` = all cores, clamped to the shard count) holding the given
/// mutable shard states. The caller thread is worker 0 and `jobs - 1`
/// helper threads are the rest. Each [`ShardHandle::step`] call runs
/// `body` once over every shard — concurrently where workers allow — and
/// returns only when all shards are done, giving the driver a
/// deterministic barrier between rounds of an iterative computation. A
/// parallel map ([`par_try_map_stats`]) is one step with one shard per
/// item.
///
/// Between steps the driver owns the world: it can inspect and mutate any
/// shard through [`ShardHandle::lock`] with no worker racing it, which is
/// where cross-shard merge work (deterministic, in shard order) belongs.
///
/// Returns the driver's result, the final shard states, and the pool's
/// [`PoolStats`] (busy = time inside `body`; idle = everything else a
/// worker spent, including barrier waits and, for worker 0, spawning the
/// helpers and the driver's own work — the number that shows shard
/// imbalance).
///
/// # Panics
///
/// Body panics are re-raised on the caller thread for the lowest shard
/// index of the step (see [`ShardHandle::step`]); driver panics propagate
/// after the helpers have been shut down and joined. Neither hangs the
/// pool.
pub fn with_shards<S, T>(
    jobs: usize,
    shards: Vec<S>,
    body: impl Fn(usize, &mut S) + Sync,
    driver: impl FnOnce(&mut ShardHandle<'_, S>) -> T,
) -> (T, Vec<S>, PoolStats)
where
    S: Send,
{
    let num_shards = shards.len();
    let jobs = resolve_jobs(jobs).min(num_shards.max(1));
    let cells: Vec<Mutex<S>> = shards.into_iter().map(Mutex::new).collect();
    let pool = Pool {
        shards: &cells,
        body: &body,
        panics: Mutex::new((0..num_shards).map(|_| None).collect()),
        generation: Mutex::new(0),
        gen_cv: Condvar::new(),
        done: Mutex::new(0),
        done_cv: Condvar::new(),
        cursor: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
    };

    let (outcome, workers) = std::thread::scope(|scope| {
        let wall_t0 = Instant::now();
        let helpers: Vec<_> = (1..jobs).map(|_| scope.spawn(|| pool.help())).collect();
        let mut handle = ShardHandle {
            pool: &pool,
            steps: 0,
            items: 0,
            busy_nanos: 0,
        };
        // The driver (and step()'s panic re-raise) must not unwind past
        // the shutdown handshake, or the parked helpers would hang the
        // scope forever.
        let outcome = catch_unwind(AssertUnwindSafe(|| driver(&mut handle)));
        let caller = (
            handle.items,
            handle.busy_nanos,
            wall_t0.elapsed().as_nanos() as u64,
        );
        pool.shutdown.store(true, Ordering::Relaxed);
        pool.announce();
        let helpers = helpers
            .into_iter()
            .map(|h| h.join().expect("helpers catch the body's panics"));
        let workers: Vec<(u64, u64, u64)> = std::iter::once(caller).chain(helpers).collect();
        (outcome, workers)
    });

    let stats = PoolStats {
        workers: jobs,
        items_per_worker: workers.iter().map(|w| w.0).collect(),
        busy_micros_per_worker: workers.iter().map(|w| w.1 / 1_000).collect(),
        idle_micros_per_worker: workers
            .iter()
            .map(|w| w.2.saturating_sub(w.1) / 1_000)
            .collect(),
    };
    match outcome {
        Ok(out) => (out, unwrap_cells(cells), stats),
        Err(payload) => resume_unwind(payload),
    }
}

fn unwrap_cells<S>(cells: Vec<Mutex<S>>) -> Vec<S> {
    cells
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map(4, &[][..], |_, &v: &u64| v);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_zero_means_all_cores() {
        assert_eq!(resolve_jobs(0), max_jobs());
        assert_eq!(resolve_jobs(3), 3);
        let out = par_map(0, &[1u64, 2, 3], |_, &v| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn stats_account_for_every_item() {
        let items: Vec<u64> = (0..97).collect();
        let (out, stats) = par_try_map_stats(5, &items, |i, &v| {
            assert_eq!(i as u64, v);
            Ok::<u64, ()>(v)
        });
        assert_eq!(out.unwrap(), items);
        assert_eq!(stats.workers, 5);
        assert_eq!(stats.total_items(), 97);
        let recs = stats.to_records("par.pool");
        assert_eq!(recs.len(), 1 + 5);
        assert_eq!(recs[0].u64_field("items"), Some(97));
    }

    #[test]
    fn busy_and_idle_time_are_recorded_per_worker() {
        let items: Vec<u64> = (0..24).collect();
        for jobs in [1usize, 4] {
            let (_, stats) = par_try_map_stats(jobs, &items, |_, &v| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok::<u64, ()>(v)
            });
            assert_eq!(stats.busy_micros_per_worker.len(), stats.workers);
            assert_eq!(stats.idle_micros_per_worker.len(), stats.workers);
            // 24 sleeps of ≥1ms split across the workers.
            assert!(
                stats.busy_micros() >= 24_000,
                "jobs={jobs}: busy {}µs",
                stats.busy_micros()
            );
            let util = stats.utilization().expect("time was measured");
            assert!(util > 0.0 && util <= 1.0, "jobs={jobs}: utilization {util}");
            let rec = &stats.to_records("par.pool")[0];
            assert!(rec.u64_field("busy_micros").is_some());
            assert!(rec.u64_field("idle_micros").is_some());
        }
    }

    #[test]
    fn absorb_accumulates_across_invocations() {
        let items: Vec<u64> = (0..10).collect();
        let (_, mut acc) = par_try_map_stats(2, &items, |_, &v| Ok::<u64, ()>(v));
        let (_, more) = par_try_map_stats(4, &items, |_, &v| Ok::<u64, ()>(v));
        acc.absorb(&more);
        assert_eq!(acc.workers, 4);
        assert_eq!(acc.total_items(), 20);
        assert_eq!(acc.items_per_worker.len(), 4);
    }

    #[test]
    fn lowest_index_error_beats_scheduling() {
        // Errors at several indices; later ones are allowed to finish
        // first, the reported one must still be the lowest.
        let items: Vec<u64> = (0..64).collect();
        for jobs in [1usize, 2, 3, 8] {
            for _ in 0..8 {
                let (r, _) = par_try_map_stats(jobs, &items, |i, &v| {
                    if v % 13 == 5 {
                        // Make high-index failures *fast* and the lowest
                        // one slow, to tempt a racy implementation.
                        if v == 5 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Err(format!("bad {i}"))
                    } else {
                        Ok(v)
                    }
                });
                assert_eq!(r.unwrap_err(), (5, "bad 5".to_string()), "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn worker_panic_surfaces_cleanly_not_a_hang() {
        let items: Vec<u64> = (0..32).collect();
        for jobs in [2usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(jobs, &items, |_, &v| {
                    if v == 7 || v == 20 {
                        panic!("predicate exploded on item {v}");
                    }
                    v
                })
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic message preserved");
            // Lowest panicking index wins deterministically.
            assert_eq!(msg, "predicate exploded on item 7");
        }
    }

    #[test]
    fn with_shards_serial_equals_parallel() {
        // Ten rounds of "add the step number" over eight shard counters,
        // with a cross-shard reduction between steps.
        let run = |jobs: usize| -> (Vec<u64>, Vec<u64>) {
            let shards: Vec<u64> = (0..8).collect();
            let (sums, final_shards, stats) = with_shards(
                jobs,
                shards,
                |i, s: &mut u64| *s += i as u64 + 1,
                |handle| {
                    let mut sums = Vec::new();
                    for _ in 0..10 {
                        handle.step();
                        let total: u64 = (0..handle.num_shards()).map(|i| *handle.lock(i)).sum();
                        sums.push(total);
                    }
                    sums
                },
            );
            assert_eq!(stats.total_items(), 80, "jobs = {jobs}");
            (sums, final_shards)
        };
        let serial = run(1);
        for jobs in [2usize, 4, 8, 16] {
            assert_eq!(run(jobs), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn with_shards_driver_sees_barrier_completed_state() {
        // Every step() return must observe ALL shards' step applied:
        // the driver checks after each barrier. The caller's shard waits
        // until the helper is inside the other shard, which then takes
        // 20 ms, so a step that returned without waiting for its helpers
        // would see the helper's shard unfinished.
        let caller = std::thread::current().id();
        let helper_in: Vec<Latch> = (0..5).map(|_| Latch::default()).collect();
        let finished = AtomicUsize::new(0);
        let (steps, _, _) = with_shards(
            2,
            vec![0u64; 2],
            |_, s: &mut u64| {
                let latch = &helper_in[*s as usize];
                if std::thread::current().id() == caller {
                    latch.wait();
                } else {
                    latch.open();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                *s += 1;
                finished.fetch_add(1, Ordering::Relaxed);
            },
            |handle| {
                for step in 1..=5u64 {
                    handle.step();
                    let ran = finished.load(Ordering::Relaxed) as u64;
                    assert_eq!(ran, 2 * step, "step {step} returned early");
                    for i in 0..handle.num_shards() {
                        assert_eq!(*handle.lock(i), step, "shard {i} lagged");
                    }
                }
                handle.steps()
            },
        );
        assert_eq!(steps, 5);
    }

    #[test]
    fn with_shards_jobs_clamp_and_stats() {
        let (_, shards, stats) =
            with_shards(16, vec![1u64; 3], |_, s: &mut u64| *s *= 2, |h| h.step());
        assert_eq!(shards, vec![2, 2, 2]);
        assert_eq!(stats.workers, 3, "jobs clamps to the shard count");
        assert_eq!(stats.total_items(), 3);
        assert!(stats.utilization().is_some());
    }

    #[test]
    fn with_shards_body_panic_is_lowest_shard_and_no_hang() {
        for jobs in [1usize, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_shards(
                    jobs,
                    (0..6u64).collect::<Vec<_>>(),
                    |i, _s: &mut u64| {
                        if i == 2 || i == 5 {
                            panic!("shard {i} exploded");
                        }
                    },
                    |handle| handle.step(),
                )
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic message preserved");
            assert_eq!(msg, "shard 2 exploded", "jobs = {jobs}");
        }
    }

    #[test]
    fn with_shards_driver_panic_shuts_workers_down() {
        let caught = std::panic::catch_unwind(|| {
            with_shards(
                4,
                vec![0u64; 4],
                |_, s: &mut u64| *s += 1,
                |handle| {
                    handle.step();
                    panic!("driver bailed");
                },
            )
        });
        // Reaching here at all proves the workers were joined, not hung.
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"driver bailed"));
    }

    #[test]
    fn with_shards_empty_shard_set() {
        let ((), shards, stats) = with_shards(
            4,
            Vec::<u64>::new(),
            |_, _s: &mut u64| unreachable!("no shards to run"),
            |handle| {
                handle.step();
                handle.step();
            },
        );
        assert!(shards.is_empty());
        assert_eq!(stats.total_items(), 0);
    }

    /// A one-way latch: one shard or map item opens it, another waits
    /// for it.
    #[derive(Default)]
    struct Latch(std::sync::Mutex<bool>, std::sync::Condvar);

    impl Latch {
        fn open(&self) {
            *self.0.lock().expect("no latch user panics") = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let open = self.0.lock().expect("no latch user panics");
            let wait = std::time::Duration::from_secs(10);
            let (_open, timeout) = self
                .1
                .wait_timeout_while(open, wait, |open| !*open)
                .expect("no latch user panics");
            assert!(!timeout.timed_out(), "the later item never ran");
        }
    }

    /// A map over 16 items where items 3 and 5 fail, one with a panic
    /// (`panic_at`) and the other with an `Err`. With more than one
    /// worker, item 3 waits until item 5 has run, so the higher failure
    /// lands first, as a racy pool would wrongly report.
    fn race_3_against_5(
        jobs: usize,
        panic_at: usize,
    ) -> std::thread::Result<Result<Vec<usize>, (usize, String)>> {
        let items: Vec<usize> = (0..16).collect();
        let five_ran = Latch::default();
        std::panic::catch_unwind(|| {
            par_try_map_stats(jobs, &items, |i, &v| {
                match i {
                    3 if jobs > 1 => five_ran.wait(),
                    5 => five_ran.open(),
                    _ => {}
                }
                match i {
                    3 | 5 if i == panic_at => panic!("item {i} exploded"),
                    3 | 5 => Err(format!("bad {i}")),
                    _ => Ok(v),
                }
            })
            .0
        })
    }

    #[test]
    fn an_err_below_a_panic_is_returned() {
        for jobs in [1usize, 2, 4, 8] {
            for _ in 0..8 {
                let r = race_3_against_5(jobs, 5).expect("the Err at 3 wins");
                assert_eq!(r.unwrap_err(), (3, "bad 3".to_string()), "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn a_panic_below_an_err_is_reraised() {
        for jobs in [1usize, 2, 4, 8] {
            for _ in 0..8 {
                let payload = race_3_against_5(jobs, 3).expect_err("the panic at 3 wins");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some("item 3 exploded"),
                    "jobs = {jobs}"
                );
            }
        }
    }

    #[test]
    fn every_index_below_the_first_failure_runs_exactly_once() {
        // Items 17, 23 and 30 fail; with more than one worker, item 17
        // waits until item 23 has run, so the floor drops to 23 first.
        let items: Vec<usize> = (0..40).collect();
        for panics in [false, true] {
            for jobs in [1usize, 2, 4, 8] {
                for _ in 0..8 {
                    let calls: Vec<AtomicUsize> =
                        items.iter().map(|_| AtomicUsize::new(0)).collect();
                    let later_ran = Latch::default();
                    let outcome = std::panic::catch_unwind(|| {
                        par_try_map_stats(jobs, &items, |i, &v| {
                            calls[i].fetch_add(1, Ordering::Relaxed);
                            match i {
                                17 if jobs > 1 => later_ran.wait(),
                                23 => later_ran.open(),
                                17 | 30 => {}
                                _ => return Ok(v),
                            }
                            if panics {
                                panic!("item {i} exploded");
                            }
                            Err(i)
                        })
                        .0
                    });
                    match outcome {
                        Ok(r) => assert_eq!(r.unwrap_err(), (17, 17)),
                        Err(payload) => assert_eq!(
                            payload.downcast_ref::<String>().map(String::as_str),
                            Some("item 17 exploded")
                        ),
                    }
                    let calls: Vec<usize> =
                        calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                    let ctx = format!("jobs = {jobs}, panics = {panics}: {calls:?}");
                    assert!(calls[..=17].iter().all(|&c| c == 1), "{ctx}");
                    assert!(calls.iter().all(|&c| c <= 1), "{ctx}");
                    if jobs == 1 {
                        assert!(calls[18..].iter().all(|&c| c == 0), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_successful_map_counts_every_item() {
        for len in [0u64, 1, 7, 100] {
            let items: Vec<u64> = (0..len).collect();
            for jobs in [1usize, 2, 4, 8] {
                let (r, stats) = par_try_map_stats(jobs, &items, |_, &v| Ok::<u64, ()>(v));
                assert_eq!(r.unwrap(), items, "jobs = {jobs}");
                assert_eq!(stats.total_items(), len, "jobs = {jobs}, len = {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Output order equals input order for arbitrary sizes/job counts.
        #[test]
        fn par_map_preserves_order(len in 0usize..200, jobs in 1usize..9) {
            let items: Vec<u64> = (0..len as u64).map(|v| v.wrapping_mul(0x9E3779B9)).collect();
            let out = par_map(jobs, &items, |_, &v| v ^ 0xABCD);
            let want: Vec<u64> = items.iter().map(|&v| v ^ 0xABCD).collect();
            prop_assert_eq!(out, want);
        }

        /// The reported error index is the minimum failing index, for any
        /// failure set and any worker count.
        #[test]
        fn par_try_map_reports_min_failing_index(
            len in 1usize..120,
            jobs in 1usize..9,
            seed in any::<u64>(),
        ) {
            let fail = |i: usize| (i as u64).wrapping_mul(seed | 1).is_multiple_of(7);
            let items: Vec<usize> = (0..len).collect();
            let expected = items.iter().position(|&i| fail(i));
            let (r, _) = par_try_map_stats(jobs, &items, |i, &v| if fail(i) { Err(i) } else { Ok(v) });
            match expected {
                None => prop_assert_eq!(r.unwrap(), items),
                Some(first) => prop_assert_eq!(r.unwrap_err(), (first, first)),
            }
        }
    }
}
