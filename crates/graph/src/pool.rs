//! A persistent worker pool: threads spawned once, parked between calls.
//!
//! The workspace builds without a registry, so instead of rayon this
//! module is the one threading substrate of the summarization stack.
//! [`WorkerPool`] keeps its workers alive across calls and offers two
//! fork–join shapes over borrowed caller state:
//!
//! * [`WorkerPool::map_with`] — an indexed map with work stealing and
//!   one mutable state per worker (engine batches);
//! * [`WorkerPool::zip_map`] — a statically paired map, state *i* with
//!   item *i* on worker *i* (the sharded front-end's scatter, and each
//!   wave of the metric closure's per-source Dijkstras).
//!
//! Each call wakes the parked threads with one condvar broadcast and
//! parks them again, so steady-state dispatch never spawns a thread.
//!
//! The pool's dispatch/teardown handshake (seq bump, shutdown flag,
//! job-slot clear, broadcasts) is documented in `CONCURRENCY.md` at
//! the repo root and model-checked by `tests/model_concurrency.rs`
//! (`pool_shutdown_protocol`).
//!
//! # Implementation notes
//!
//! Jobs borrow caller data (`&Graph`, `&[SummaryInput]`, `&mut` worker
//! states), so they cannot be boxed as `'static` closures. Instead the
//! dispatching call erases the job to a raw `*const dyn Fn(usize)`
//! pointer and blocks until every worker has finished it; the pointee
//! outlives the dispatch because no dispatching call returns before the
//! completion count reaches zero. Worker panics are caught, counted
//! down like completions (so the caller never deadlocks), and resumed
//! on the calling thread.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Number of worker threads parallel regions use: `XSUM_THREADS` if set
/// (clamped to ≥ 1), else available hardware parallelism.
pub fn num_threads() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        if let Ok(v) = std::env::var("XSUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Lock `m`, recovering the guard from a poisoned mutex instead of
/// panicking. The pool's shared state stays structurally valid across a
/// worker panic (the panicking job is caught *outside* the lock, and
/// the counter bookkeeping below cannot unwind mid-update), so poison
/// here only means "some worker panicked earlier" — which the dispatch
/// protocol already surfaces through `PoolState::panic`. Unwrapping
/// instead would convert one worker panic into a cascade of secondary
/// front-end panics (and park-forever workers) on every later lock.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased job pointer. Only ever dereferenced while the
/// dispatching `map_with` call is blocked waiting for completion, which
/// keeps the borrowed closure alive.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (asserted at the only construction site
// in `dispatch`) and outlives every dereference (the dispatcher blocks
// until all workers are done with it).
unsafe impl Send for Job {}

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new job (or shutdown).
    work_cv: Condvar,
    /// The dispatcher waits here for `remaining == 0`.
    done_cv: Condvar,
}

struct PoolState {
    /// Monotone job sequence number; a bump is the wake signal.
    seq: u64,
    /// The current job, if one is in flight.
    job: Option<Job>,
    /// How many workers (indices `0..active`) the current job uses;
    /// higher-indexed workers observe the sequence bump but neither run
    /// the job nor touch `remaining`.
    active: usize,
    /// Active workers still running (or yet to observe) the current job.
    remaining: usize,
    /// First panic payload raised by a worker during the current job.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

/// A dispatch-time hook (fault injection, tracing): called once on the
/// dispatching thread at the start of every [`WorkerPool::map_with`],
/// including the sequential fallback. A panicking hook behaves exactly
/// like a worker panic — it unwinds into the caller, and the pool stays
/// serviceable. See [`WorkerPool::set_dispatch_hook`].
pub type DispatchHook = Arc<dyn Fn() + Send + Sync>;

/// A fixed-size pool of parked worker threads (see module docs).
pub struct WorkerPool {
    size: usize,
    shared: Arc<Shared>,
    /// Spawned lazily on the first multi-worker dispatch, so pools that
    /// only ever serve sequential fallbacks (single worker, single
    /// item, one-shot wrappers over tiny batches) never pay a thread
    /// spawn.
    handles: Vec<JoinHandle<()>>,
    /// Optional dispatch hook; `None` (the default) costs one
    /// always-not-taken branch per `map_with` call.
    hook: Option<DispatchHook>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.size)
            .field("spawned", &!self.handles.is_empty())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `workers` threads (clamped to ≥ 1). No threads are
    /// spawned until the first dispatch that actually fans out.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                seq: 0,
                job: None,
                active: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        WorkerPool {
            size: workers.max(1),
            shared,
            handles: Vec::new(),
            hook: None,
        }
    }

    /// Number of worker threads in the pool (spawned or not).
    pub fn workers(&self) -> usize {
        self.size
    }

    /// Install (or clear) the dispatch-time [`DispatchHook`]. The hook
    /// runs on the dispatching thread at the start of every
    /// [`WorkerPool::map_with`] call, before any work is fanned out, so
    /// a hook that panics aborts the whole dispatch like a worker panic
    /// would — nothing is half-dispatched and the pool keeps serving.
    pub fn set_dispatch_hook(&mut self, hook: Option<DispatchHook>) {
        self.hook = hook;
    }

    fn ensure_spawned(&mut self) {
        if !self.handles.is_empty() {
            return;
        }
        self.handles = (0..self.size)
            .map(|idx| {
                let shared = Arc::clone(&self.shared);
                crate::sync::thread::Builder::new()
                    .name(format!("xsum-pool-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
    }

    /// Run `job(worker_index)` once on every pool thread and wait for
    /// all of them. `job` may borrow caller data freely — this call does
    /// not return until no worker can still be touching it. `&mut self`
    /// statically rules out overlapping dispatches racing the shared
    /// job slot.
    fn dispatch(&mut self, active: usize, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the guard is consumed by `wait` on the very next
        // expression — it cannot be leaked.
        unsafe { self.try_dispatch(active, job) }.wait();
    }

    /// Begin `job(worker_index)` on `active` pool threads **without
    /// blocking**: the workers are woken and this call returns
    /// immediately with an [`InFlightJob`] guard. The caller overlaps
    /// its own work (e.g. an admission layer ingesting the next batch)
    /// with the in-flight job and then calls [`InFlightJob::wait`],
    /// which blocks until every worker is done and re-raises the first
    /// worker panic.
    ///
    /// The guard mutably borrows the pool, so a second dispatch cannot
    /// start while one is in flight; dropping the guard without calling
    /// `wait` still blocks until completion (the job borrows caller
    /// data that must outlive every worker dereference).
    ///
    /// # Safety
    ///
    /// The returned guard must be allowed to run its `wait`/drop glue
    /// before `'p` ends: the caller must **not leak it**
    /// (`std::mem::forget`, `Box::leak`, an `Rc` cycle, …). A leaked
    /// guard lets the workers keep dereferencing `job` after its frame
    /// is gone — use-after-free (the pre-1.0 `JoinGuard` hazard; Rust
    /// does not guarantee drops run, so this contract cannot be
    /// encoded in the types).
    pub unsafe fn try_dispatch<'p>(
        &'p mut self,
        active: usize,
        job: &'p (dyn Fn(usize) + Sync),
    ) -> InFlightJob<'p> {
        self.ensure_spawned();
        let active = active.min(self.size).max(1);
        // SAFETY: pure lifetime erasure on a fat pointer ('_ → 'static);
        // the pointee outlives every dereference because the returned
        // guard blocks (in `wait` or `drop`) until `remaining == 0` and
        // borrows both the pool and the job for 'p — upheld by this
        // function's safety contract: the caller must not leak the
        // guard.
        let erased = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job)
        });
        let mut st = lock_recovering(&self.shared.state);
        debug_assert_eq!(st.remaining, 0, "overlapping dispatch");
        st.job = Some(erased);
        st.active = active;
        st.remaining = active;
        st.seq += 1;
        drop(st);
        self.shared.work_cv.notify_all();
        InFlightJob {
            shared: &self.shared,
            joined: false,
        }
    }

    /// Queue-depth probe: how many workers are still running (or have
    /// yet to observe) the current job. `0` means the pool is idle and
    /// the next dispatch starts immediately. Non-blocking beyond the
    /// state mutex; safe to call from threads that do not own the pool
    /// (e.g. an admission front-end deciding whether to keep lingering
    /// while a batch is in flight).
    pub fn in_flight(&self) -> usize {
        lock_recovering(&self.shared.state).remaining
    }

    /// Whether no job is currently in flight (see
    /// [`WorkerPool::in_flight`]).
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0
    }

    /// Map `f` over `items` with work stealing and one mutable state per
    /// worker, preserving item order in the result. `f` receives
    /// `(worker_state, item_index, item)`.
    ///
    /// Uses `min(states.len(), items.len(), workers())` active workers;
    /// with a single active worker (or a single item) the map runs
    /// sequentially on the calling thread, so small calls never pay a
    /// wake-up.
    pub fn map_with<T, R, S>(
        &mut self,
        states: &mut [S],
        items: &[T],
        f: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: Send,
    {
        assert!(!states.is_empty(), "need at least one worker state");
        if items.is_empty() {
            return Vec::new();
        }
        if let Some(hook) = &self.hook {
            hook();
        }
        let active = states.len().min(items.len()).min(self.size);
        if active <= 1 || items.len() == 1 {
            let state = &mut states[0];
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(state, i, item))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        // Hand each active worker its own state slot by index. The slots
        // are disjoint (worker `idx` touches only `states[idx]`), which
        // the raw-pointer cell below makes explicit to the borrow
        // checker.
        let states_ptr = SendPtr(states.as_mut_ptr());
        let (f_ref, cursor_ref, results_ref) = (&f, &cursor, &results);
        let job = move |idx: usize| {
            debug_assert!(idx < active, "inactive workers never run the job");
            // SAFETY: idx < active <= states.len(), and each worker
            // index runs on exactly one pool thread per dispatch, so
            // this &mut aliases nothing.
            let state: &mut S = unsafe { &mut *states_ptr.get().add(idx) };
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                local.push((i, f_ref(state, i, &items[i])));
            }
            if !local.is_empty() {
                lock_recovering(results_ref).extend(local);
            }
        };
        self.dispatch(active, &job);
        let mut pairs = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        pairs.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(pairs.len(), items.len());
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// Run `f(&mut states[i], &items[i])` for every pair `i` on pool
    /// worker `i`, returning results in pair order.
    ///
    /// Where [`WorkerPool::map_with`] binds states to workers and lets
    /// workers steal arbitrary items, this binds state `i` to item `i`
    /// and nothing else — the scatter primitive of a sharded front-end,
    /// where replica `i` must serve exactly its own sub-batch. With zero
    /// or one pairs the call runs on the calling thread and wakes
    /// nobody. The dispatch hook does not fire here.
    ///
    /// # Panics
    /// Panics if `states` and `items` differ in length or outnumber the
    /// pool's workers, or if `f` panics on any pair. Every pair still
    /// runs to completion first, and the first panic's original payload
    /// is resumed on the calling thread.
    pub fn zip_map<S, T, R>(
        &mut self,
        states: &mut [S],
        items: &[T],
        f: impl Fn(&mut S, &T) -> R + Sync,
    ) -> Vec<R>
    where
        S: Send,
        T: Sync,
        R: Send,
    {
        assert_eq!(
            states.len(),
            items.len(),
            "zip map needs one state per item"
        );
        assert!(
            items.len() <= self.size,
            "zip map needs one worker per pair"
        );
        if items.len() <= 1 {
            return states.iter_mut().zip(items).map(|(s, t)| f(s, t)).collect();
        }
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let states_ptr = SendPtr(states.as_mut_ptr());
        let out_ptr = SendPtr(out.as_mut_ptr());
        let f_ref = &f;
        let job = move |idx: usize| {
            // SAFETY: the dispatch runs each idx < items.len() ==
            // states.len() == out.len() on exactly one pool thread, so
            // neither &mut aliases.
            let (state, slot) = unsafe {
                (
                    &mut *states_ptr.get().add(idx),
                    &mut *out_ptr.get().add(idx),
                )
            };
            *slot = Some(f_ref(state, &items[idx]));
        };
        self.dispatch(items.len(), &job);
        // Every slot is `Some`: the dispatch joined all workers and none
        // panicked (a panic resumes inside `dispatch`).
        out.into_iter().flatten().collect()
    }
}

/// A dispatched-but-not-yet-joined pool job (see
/// [`WorkerPool::try_dispatch`]). Holding one means workers may still
/// be running the borrowed job closure; both [`InFlightJob::wait`] and
/// the drop glue block until they are done, so the borrow can never
/// dangle.
#[must_use = "an in-flight job must be waited on (drop blocks too)"]
pub struct InFlightJob<'p> {
    shared: &'p Arc<Shared>,
    joined: bool,
}

impl InFlightJob<'_> {
    /// Block until every worker has finished the job, then re-raise the
    /// first worker panic (if any) on this thread.
    pub fn wait(mut self) {
        self.joined = true;
        if let Some(payload) = self.join_inner() {
            resume_unwind(payload);
        }
    }

    /// Queue-depth probe while the job is in flight (see
    /// [`WorkerPool::in_flight`]).
    pub fn in_flight(&self) -> usize {
        lock_recovering(&self.shared.state).remaining
    }

    /// Wait for `remaining == 0`, clear the job slot (the pointee is
    /// about to go out of scope — a stale pointer must not survive in
    /// shared state), and take any panic payload.
    fn join_inner(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut st = lock_recovering(&self.shared.state);
        while st.remaining > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        st.panic.take()
    }
}

impl Drop for InFlightJob<'_> {
    fn drop(&mut self) {
        if self.joined {
            return;
        }
        let payload = self.join_inner();
        // A dropped (never-waited) guard still surfaces worker panics —
        // unless we are already unwinding, where a second panic would
        // abort the process.
        if let Some(payload) = payload {
            if !crate::sync::thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}

/// A raw pointer that crosses the dispatch boundary. Disjoint-index
/// access is guaranteed by the `map_with` and `zip_map` job bodies.
struct SendPtr<S>(*mut S);

impl<S> SendPtr<S> {
    /// Accessor (rather than field access) so closures capture the
    /// `Send + Sync` wrapper, not the bare `*mut S` field.
    fn get(&self) -> *mut S {
        self.0
    }
}

// SAFETY: the pointer targets a caller-owned slice that outlives the
// dispatch (the dispatcher blocks until every worker is done), and the
// job body hands each worker a disjoint index, so sending the pointer
// (and sharing the wrapper) never aliases a `&mut S`.
unsafe impl<S: Send> Send for SendPtr<S> {}
// SAFETY: as above — disjoint-index access makes shared `&SendPtr<S>`
// usable from many workers without aliasing.
unsafe impl<S: Send> Sync for SendPtr<S> {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_recovering(&self.shared.state);
            st.shutdown = true;
            // Clear the job pointer eagerly: after the last dispatch
            // returned, it refers to a dead stack frame, and no worker
            // may dereference it during the shutdown wake-up below.
            st.job = None;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let joined = h.join();
            // Workers catch job panics inside the loop; a panicked
            // worker thread here means the pool protocol itself broke.
            debug_assert!(joined.is_ok(), "pool worker panicked outside a job");
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock_recovering(&shared.state);
            loop {
                // Shutdown takes precedence over any pending sequence
                // observation: once the pool handle started dropping,
                // `st.job` is cleared (the dispatcher's closure frame
                // may be gone) and must never be dereferenced again.
                if st.shutdown {
                    return;
                }
                if st.seq != seen {
                    seen = st.seq;
                    if idx >= st.active {
                        // Not part of this job: acknowledge the
                        // sequence and go straight back to sleep
                        // without touching the completion count.
                        continue;
                    }
                    match st.job {
                        Some(job) => break job,
                        // A seq bump whose job pointer is already gone
                        // can only be shutdown teardown racing this
                        // wake-up; re-check the flag instead of
                        // panicking (the old `expect` here turned the
                        // race into a worker-thread crash).
                        None => continue,
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher keeps the pointee alive until
        // `remaining` returns to zero, which happens strictly after this
        // call returns (or unwinds into the catch below).
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(idx) }));
        let mut st = lock_recovering(&shared.state);
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_with_work_stealing() {
        let mut pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..257).collect();
        let mut states = vec![0usize; 4];
        let out = pool.map_with(&mut states, &items, |hits, _, x| {
            *hits += 1;
            x * 2
        });
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
        assert_eq!(states.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let mut pool = WorkerPool::new(3);
        let mut states = vec![(); 3];
        for round in 0..50 {
            let items: Vec<usize> = (0..round + 2).collect();
            let out = pool.map_with(&mut states, &items, |_, _, x| x + round);
            assert_eq!(out.len(), items.len());
            assert_eq!(out[0], round);
        }
    }

    #[test]
    fn single_state_runs_on_caller_thread() {
        let mut pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let mut states = vec![Vec::<usize>::new()];
        let items = [10usize, 20, 30];
        let out = pool.map_with(&mut states, &items, |log, i, x| {
            assert_eq!(std::thread::current().id(), caller);
            log.push(i);
            *x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
        assert_eq!(states[0], vec![0, 1, 2], "in-order on the calling thread");
    }

    #[test]
    fn fewer_states_than_workers() {
        let mut pool = WorkerPool::new(8);
        let items: Vec<usize> = (0..100).collect();
        let mut states = vec![0usize; 2];
        let out = pool.map_with(&mut states, &items, |hits, _, x| {
            *hits += 1;
            *x
        });
        assert_eq!(out, items);
        assert_eq!(states.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn sequential_fallback_spawns_no_threads() {
        let mut pool = WorkerPool::new(4);
        assert!(pool.handles.is_empty(), "construction must not spawn");
        let items = [1usize];
        let mut states = vec![(); 4];
        let out = pool.map_with(&mut states, &items, |_, _, x| *x);
        assert_eq!(out, vec![1]);
        assert!(
            pool.handles.is_empty(),
            "single-item fallback must stay spawn-free"
        );
        // First real fan-out spawns exactly once.
        let many: Vec<usize> = (0..32).collect();
        pool.map_with(&mut states, &many, |_, _, x| *x);
        assert_eq!(pool.handles.len(), 4);
    }

    #[test]
    fn empty_items() {
        let mut pool = WorkerPool::new(2);
        let mut states = vec![(); 2];
        let out = pool.map_with(&mut states, &[0u8; 0], |_, _, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_caller_data() {
        let mut pool = WorkerPool::new(2);
        let data: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let items: Vec<usize> = (0..40).collect();
        let mut states = vec![(); 2];
        let out = pool.map_with(&mut states, &items, |_, _, &i| data[i].len());
        assert_eq!(out[0], 2);
        assert_eq!(out[39], 3);
    }

    #[test]
    fn try_dispatch_overlaps_caller_work_with_in_flight_job() {
        let mut pool = WorkerPool::new(3);
        assert!(pool.is_idle());
        assert_eq!(pool.in_flight(), 0);
        let gate = std::sync::atomic::AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        {
            let job = |_idx: usize| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ran.fetch_add(1, Ordering::SeqCst);
            };
            // SAFETY: the guard is waited below, never leaked.
            let guard = unsafe { pool.try_dispatch(3, &job) };
            // The dispatching thread is free while workers block on the
            // gate: this is the ingestion/dispatch overlap the admission
            // queue builds on.
            assert_eq!(guard.in_flight(), 3, "all workers still on the job");
            gate.store(true, Ordering::Release);
            guard.wait();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert!(pool.is_idle());
    }

    #[test]
    fn unwaited_guard_joins_on_drop() {
        let mut pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        {
            let job = |_idx: usize| {
                ran.fetch_add(1, Ordering::SeqCst);
            };
            // SAFETY: the guard drops at scope end, never leaked.
            let _guard = unsafe { pool.try_dispatch(2, &job) };
            // Dropped without wait(): drop glue must block until both
            // workers finished, keeping the borrow of `job`/`ran` sound.
        }
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        // And the pool stays serviceable.
        let items: Vec<usize> = (0..8).collect();
        let mut states = vec![(); 2];
        let out = pool.map_with(&mut states, &items, |_, _, &x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn shutdown_race_stress_spawn_dispatch_drop() {
        // Satellite regression: loop the shutdown/seq race window — a
        // worker that observes a seq bump concurrently with the handle
        // dropping must see `shutdown` (or a cleared job slot) and exit,
        // never hit a "seq bumped without a job" crash. Short dispatches
        // with `active < size` leave laggard workers asleep holding a
        // stale `seen`, and the immediate drop races their wake-up.
        for round in 0..200 {
            let size = 2 + round % 3;
            let mut pool = WorkerPool::new(size);
            // Fewer states than workers: the high-indexed workers only
            // ever observe seq bumps without running jobs.
            let mut states = vec![0usize; (round % size).max(1)];
            let items: Vec<usize> = (0..2 + round % 5).collect();
            let out = pool.map_with(&mut states, &items, |_, _, &x| x + 1);
            assert_eq!(out.len(), items.len());
            drop(pool); // join; debug_assert inside surfaces worker crashes
        }
    }

    #[test]
    fn dispatch_hook_runs_once_per_call_and_panics_like_a_worker() {
        let mut pool = WorkerPool::new(2);
        let calls = Arc::new(AtomicUsize::new(0));
        let hook_calls = Arc::clone(&calls);
        pool.set_dispatch_hook(Some(Arc::new(move || {
            if hook_calls.fetch_add(1, Ordering::SeqCst) == 1 {
                panic!("injected dispatch fault");
            }
        })));
        let items: Vec<usize> = (0..16).collect();
        let mut states = vec![(); 2];
        // First call: hook fires cleanly, results are unaffected.
        let out = pool.map_with(&mut states, &items, |_, _, &x| x);
        assert_eq!(out, items);
        // Second call: the hook panics; the dispatch unwinds like a
        // worker panic and nothing was fanned out.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map_with(&mut states, &items, |_, _, &x| x)
        }));
        assert!(caught.is_err(), "hook panic must reach the caller");
        // Cleared hook: the pool serves exactly as before.
        pool.set_dispatch_hook(None);
        let out = pool.map_with(&mut states, &items, |_, _, &x| x);
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn thread_count_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn zip_map_pairs_statically() {
        // Each state must see exactly its own item — no stealing.
        let mut pool = WorkerPool::new(5);
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); 5];
        let items: Vec<usize> = (0..5).map(|i| i * 10).collect();
        let out = pool.zip_map(&mut states, &items, |log, &x| {
            log.push(x);
            x + 1
        });
        assert_eq!(out, vec![1, 11, 21, 31, 41]);
        for (i, log) in states.iter().enumerate() {
            assert_eq!(log, &vec![i * 10], "state {i} served a foreign item");
        }
    }

    #[test]
    fn zip_map_small_inputs_run_on_caller() {
        let mut pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let mut states = vec![0usize];
        let out = pool.zip_map(&mut states, &[7usize], |s, &x| {
            assert_eq!(std::thread::current().id(), caller);
            *s = x;
            x
        });
        assert_eq!(out, vec![7]);
        assert_eq!(states[0], 7);
        let mut none: Vec<usize> = Vec::new();
        let empty: Vec<usize> = Vec::new();
        assert!(pool.zip_map(&mut none, &empty, |_, &x| x).is_empty());
        assert!(pool.handles.is_empty(), "small zips must stay spawn-free");
    }

    #[test]
    fn zip_map_panic_reaches_caller_with_its_payload() {
        let mut pool = WorkerPool::new(3);
        let ran = AtomicUsize::new(0);
        let mut states = vec![(); 3];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.zip_map(&mut states, &[0usize, 1, 2], |_, &x| {
                ran.fetch_add(1, Ordering::SeqCst);
                if x == 1 {
                    panic!("boom on pair {x}");
                }
                x
            })
        }));
        let payload = caught.expect_err("pair panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom on pair 1")
        );
        assert_eq!(ran.load(Ordering::SeqCst), 3, "every pair ran first");
        // The pool survives and serves the next zip.
        let out = pool.zip_map(&mut states, &[4usize, 5, 6], |_, &x| x);
        assert_eq!(out, vec![4, 5, 6]);
    }

    #[test]
    fn successive_zips_reuse_the_same_threads() {
        // Per-call scoped threads would show fresh ids on every call.
        let mut pool = WorkerPool::new(3);
        let mut states = vec![(); 3];
        let items = [0usize, 1, 2];
        let ids = |pool: &mut WorkerPool, states: &mut [()]| {
            pool.zip_map(states, &items, |_, _| std::thread::current().id())
        };
        let first = ids(&mut pool, &mut states);
        let second = ids(&mut pool, &mut states);
        assert_eq!(first, second, "pair i must run on pool worker i");
        assert!(!first.contains(&std::thread::current().id()));
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let mut pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..16).collect();
        let mut states = vec![(); 2];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map_with(&mut states, &items, |_, _, &x| {
                if x == 7 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        // The pool survives and serves the next call.
        let out = pool.map_with(&mut states, &items, |_, _, &x| x);
        assert_eq!(out, items);
    }
}
