//! A tiny persistent worker pool for data-parallel index batches.
//!
//! The CONGEST round engine dispatches one batch of per-node jobs per
//! simulated round — often millions of batches per run. A scoped-thread
//! stand-in (spawn + join per batch) pays thread-creation latency on
//! every round, which dwarfs the per-node work at realistic sizes. This
//! crate keeps `threads - 1` workers parked on a condvar for the
//! lifetime of the pool; a batch dispatch is one mutex lock plus a
//! `notify_all`, and the caller participates in the batch itself, so a
//! pool of one is exactly a sequential loop.
//!
//! The only entry point is [`WorkerPool::run_mut`]: apply `f(i, &mut
//! items[i])` to every element of a slice, each index claimed by
//! exactly one worker in chunks. There is no work output channel —
//! results live in the mutated elements, which is precisely the shape
//! of the engine's per-node effect scratch.
//!
//! Panics inside `f` are caught per chunk, the batch is drained to
//! completion (remaining indices still run), and the first payload is
//! re-thrown on the calling thread once every worker has left the
//! batch — so a panicking round cannot leave a worker holding a
//! dangling reference to the caller's stack frame.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A fixed-size pool of persistent worker threads.
///
/// `WorkerPool::new(t)` spawns `t - 1` background workers; the thread
/// calling [`run_mut`](Self::run_mut) always participates as the
/// `t`-th, so `new(1)` spawns nothing and runs batches inline.
/// Dropping the pool joins every worker.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

struct PoolState {
    /// Bumped once per dispatched batch; workers run a batch at most
    /// once by remembering the last epoch they served.
    epoch: u64,
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

/// Type-erased view of one `run_mut` call, shared with the workers.
struct Batch {
    /// Trampoline: `call(ctx, i)` runs `f(i, &mut items[i])`.
    call: unsafe fn(*const (), usize),
    ctx: ConstPtr,
    len: usize,
    chunk: usize,
    next: AtomicUsize,
    done: Mutex<DoneState>,
    done_cv: Condvar,
}

struct DoneState {
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Raw pointer to the caller's stack context. Sound to share because
/// `run_mut` does not return until every claimed chunk has completed
/// and no worker dereferences the pointer after claiming past `len`.
struct ConstPtr(*const ());
// SAFETY: the pointee is a `Ctx { items, f }` whose `f: Sync` and whose
// `items` elements are `Send` and accessed at disjoint indices only.
unsafe impl Send for ConstPtr {}
unsafe impl Sync for ConstPtr {}

struct Ctx<'f, T, F> {
    items: *mut T,
    f: &'f F,
}

/// Monomorphic trampoline stored in the type-erased [`Batch`].
///
/// # Safety
///
/// `ctx` must point to a live `Ctx<'_, T, F>` whose `items` is valid
/// for `idx`, and no other thread may touch `items[idx]` concurrently.
unsafe fn call_one<T, F: Fn(usize, &mut T)>(ctx: *const (), idx: usize) {
    // SAFETY: `run_mut` keeps the `Ctx` alive until every index has
    // completed, and the atomic chunk counter hands each index to
    // exactly one worker, so this `&mut` is unique.
    unsafe {
        let ctx = &*ctx.cast::<Ctx<'_, T, F>>();
        (ctx.f)(idx, &mut *ctx.items.add(idx));
    }
}

impl Batch {
    /// Claims and runs chunks until the index space is exhausted.
    fn run_chunks(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::SeqCst);
            if start >= self.len {
                break;
            }
            let end = (start + self.chunk).min(self.len);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for idx in start..end {
                    // SAFETY: `start..end` ranges from `fetch_add` are
                    // disjoint across workers and within `0..len`.
                    unsafe { (self.call)(self.ctx.0, idx) };
                }
            }));
            let mut done = self.done.lock().unwrap();
            // A panicked chunk still counts as completed: the closure
            // will not be re-entered for those indices, and the caller
            // only needs to know no worker is still inside them.
            done.completed += end - start;
            if let Err(payload) = result {
                if done.panic.is_none() {
                    done.panic = Some(payload);
                }
            }
            if done.completed == self.len {
                self.done_cv.notify_all();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(b) = st.batch.clone() {
                        break b;
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        batch.run_chunks();
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers (callers count as
    /// one; values below 1 are clamped to 1).
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    pub fn new(threads: usize) -> Self {
        let workers = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState { epoch: 0, batch: None, shutdown: false }),
            work_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dhc-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn dhc-pool worker")
            })
            .collect();
        WorkerPool { shared, handles, workers }
    }

    /// Total worker count, including the calling thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(i, &mut items[i])` for every `i`, splitting the index
    /// space across the pool. Blocks until every index has completed.
    /// With one worker — or at most one item — this is an inline loop
    /// with no synchronization at all.
    ///
    /// # Panics
    ///
    /// If any invocation of `f` panics, the first payload is re-thrown
    /// here after the whole batch has drained; the pool remains usable.
    pub fn run_mut<T: Send, F: Fn(usize, &mut T) + Sync>(&self, items: &mut [T], f: &F) {
        let len = items.len();
        if self.workers <= 1 || len <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        // ~8 chunks per worker amortizes the counter while keeping the
        // tail balanced when per-item cost is uneven.
        let chunk = (len / (self.workers * 8)).max(1);
        let ctx = Ctx { items: items.as_mut_ptr(), f };
        let batch = Arc::new(Batch {
            call: call_one::<T, F>,
            ctx: ConstPtr(std::ptr::addr_of!(ctx).cast()),
            len,
            chunk,
            next: AtomicUsize::new(0),
            done: Mutex::new(DoneState { completed: 0, panic: None }),
            done_cv: Condvar::new(),
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.epoch = st.epoch.wrapping_add(1);
            st.batch = Some(Arc::clone(&batch));
            self.shared.work_cv.notify_all();
        }
        batch.run_chunks();
        let payload = {
            let mut done = batch.done.lock().unwrap();
            while done.completed < len {
                done = batch.done_cv.wait(done).unwrap();
            }
            done.panic.take()
        };
        // `completed == len` proves no worker will dereference `ctx`
        // again (any further claim lands past `len` and bails), so the
        // borrow of `items` ends here. Clear the slot so late-waking
        // workers drop their interest immediately.
        self.shared.state.lock().unwrap().batch = None;
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Weak;

    #[test]
    fn every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u64> = vec![0; 10_000];
        pool.run_mut(&mut items, &|i, slot| *slot += i as u64 + 1);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 1, "index {i} visited {v} times the wrong amount");
        }
    }

    #[test]
    fn reuse_across_many_batches() {
        let pool = WorkerPool::new(3);
        let mut items: Vec<u64> = vec![0; 257];
        for round in 0..500 {
            pool.run_mut(&mut items, &|i, slot| *slot += i as u64);
            let _ = round;
        }
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, 500 * i as u64);
        }
    }

    #[test]
    fn single_worker_pool_spawns_no_threads_and_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty());
        assert_eq!(pool.workers(), 1);
        let mut items = vec![0usize; 17];
        pool.run_mut(&mut items, &|i, slot| *slot = i * 2);
        assert_eq!(items[16], 32);
    }

    #[test]
    fn fewer_items_than_workers() {
        let pool = WorkerPool::new(8);
        let mut items = vec![1u8, 2];
        pool.run_mut(&mut items, &|_, slot| *slot *= 10);
        assert_eq!(items, vec![10, 20]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u32> = Vec::new();
        pool.run_mut(&mut items, &|_, _| unreachable!());
    }

    #[test]
    fn panic_in_worker_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let mut items: Vec<u32> = (0..1000).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_mut(&mut items, &|i, _| {
                if i == 337 {
                    panic!("boom at 337");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom at 337");
        // The pool is still serviceable after a panicked batch.
        pool.run_mut(&mut items, &|i, slot| *slot = i as u32 + 7);
        assert_eq!(items[999], 1006);
    }

    #[test]
    fn shutdown_joins_workers_without_leaks() {
        let pool = WorkerPool::new(4);
        let weak: Weak<Shared> = Arc::downgrade(&pool.shared);
        let mut items = vec![0u8; 64];
        pool.run_mut(&mut items, &|_, slot| *slot = 1);
        drop(pool);
        // Every worker released its Arc on shutdown, so nothing keeps
        // the shared state alive.
        assert!(weak.upgrade().is_none(), "worker threads leaked the shared pool state");
    }

    #[test]
    fn workers_actually_participate() {
        // With enough items and workers, at least one index must run
        // off the calling thread; count distinct thread ids.
        let pool = WorkerPool::new(4);
        let seen = AtomicU64::new(0);
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 100_000];
        pool.run_mut(&mut items, &|_, _| {
            if std::thread::current().id() != caller {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            // A little spin so the caller cannot drain everything
            // before the workers wake.
            std::hint::black_box((0..50).sum::<u64>());
        });
        assert!(seen.load(Ordering::Relaxed) > 0, "no background worker claimed any chunk");
    }
}
