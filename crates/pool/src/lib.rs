//! One scoped fork-join over a slice.
//!
//! [`run_mut`] applies `f(i, &mut items[i])` to every element of a
//! slice on a few threads and returns once every index has run. Its
//! callers hand it a handful of coarse, uneven jobs: Phase 1's color
//! classes, one independent DRA simulation each, and the experiments'
//! independent trials. So the threads live for one call only, and they
//! claim items one at a time, which keeps the tail balanced when one
//! job runs far longer than the rest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs `f(i, &mut items[i])` for every `i` on `min(threads,
/// items.len())` threads, counting the calling thread as one of them,
/// and returns when every index has run. With one thread, or at most
/// one item, this is an inline loop on the caller's thread.
///
/// # Panics
///
/// If `f` panics, the other threads still run every remaining index.
/// The panic is then re-thrown here with its original payload (the
/// caller's own first, if several threads panicked).
pub fn run_mut<T: Send, F: Fn(usize, &mut T) + Sync>(threads: usize, items: &mut [T], f: &F) {
    let threads = threads.min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    // Each thread claims the next index under the lock and runs it
    // unlocked; it keeps the first panic it catches and goes on.
    let work = || {
        let mut panic: Option<Box<dyn Any + Send>> = None;
        loop {
            let Some((i, item)) = queue.lock().expect("no thread panics holding the queue").next()
            else {
                return panic;
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                panic.get_or_insert(payload);
            }
        }
    };
    let panic = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut panic = work();
        for helper in helpers {
            let other = helper.join().expect("every panic of `f` is caught");
            panic = panic.or(other);
        }
        panic
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn every_index_exactly_once() {
        let mut items: Vec<u64> = vec![0; 10_000];
        run_mut(4, &mut items, &|i, slot| *slot += i as u64 + 1);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 1, "index {i} ran the wrong number of times");
        }
    }

    #[test]
    fn single_worker_pool_spawns_no_threads_and_runs_inline() {
        let caller = thread::current().id();
        let mut items: Vec<Option<ThreadId>> = vec![None; 17];
        run_mut(1, &mut items, &|_, slot| *slot = Some(thread::current().id()));
        assert!(items.iter().all(|&id| id == Some(caller)), "a call ran off the caller");
    }

    #[test]
    fn fewer_items_than_workers() {
        let mut items = vec![1u8, 2];
        run_mut(8, &mut items, &|_, slot| *slot *= 10);
        assert_eq!(items, vec![10, 20]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut items: Vec<u32> = Vec::new();
        run_mut(4, &mut items, &|_, _| unreachable!());
    }

    #[test]
    fn panic_in_worker_propagates_and_pool_survives() {
        let mut items = vec![false; 1000];
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_mut(4, &mut items, &|i, ran| {
                if i == 337 {
                    panic!("boom at 337");
                }
                *ran = true;
            });
        }));
        let payload = result.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom at 337"));
        assert!(items.iter().enumerate().all(|(i, &ran)| ran == (i != 337)));
        // Nothing is left behind: the next call runs normally.
        run_mut(4, &mut items, &|_, ran| *ran = true);
        assert!(items.iter().all(|&ran| ran));
    }

    #[test]
    fn workers_actually_participate() {
        // Each item waits until both have started (or 10 s pass), so the
        // two can only run on one thread by timing out.
        let started = (Mutex::new(0), Condvar::new());
        let mut items: Vec<Option<ThreadId>> = vec![None; 2];
        run_mut(2, &mut items, &|_, slot| {
            let (count, cv) = &started;
            let mut count = count.lock().unwrap();
            *count += 1;
            cv.notify_all();
            drop(cv.wait_timeout_while(count, Duration::from_secs(10), |c| *c < 2).unwrap());
            *slot = Some(thread::current().id());
        });
        let caller = Some(thread::current().id());
        assert!(items.contains(&caller), "the caller ran no item");
        assert_ne!(items[0], items[1], "both items ran on one thread");
    }
}
