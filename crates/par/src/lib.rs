//! # amc-par — minimal scoped work-stealing thread pool
//!
//! The BlockAMC workloads this workspace parallelizes are
//! *embarrassingly parallel once each worker owns its own programmed
//! arrays*: independent right-hand-side shards of a batch solve, and
//! independent device-variation trials of a Monte-Carlo yield run. This
//! crate provides the one scheduling primitive both need — a scoped,
//! std-only work-stealing pool — without pulling a threadpool
//! dependency into the offline build.
//!
//! ## Design
//!
//! * **Scoped**: workers are [`std::thread::scope`] threads, so jobs
//!   may borrow from the caller's stack (matrices, configurations,
//!   reference solutions) without `'static` bounds or `Arc` plumbing.
//! * **Work-stealing**: jobs are dealt round-robin onto one deque per
//!   worker. A worker pops from the *front* of its own deque and, when
//!   empty, steals from the *back* of a victim's — the classic
//!   Chase–Lev discipline (here with a `Mutex<VecDeque>` per worker,
//!   which is plenty for the coarse, milliseconds-per-job granularity
//!   of analog solver shards).
//! * **Index-preserving**: every job carries its input index and the
//!   results are reassembled in input order, so callers observe a plain
//!   `map` regardless of which worker ran what when.
//!
//! ## Determinism contract
//!
//! The pool itself adds no nondeterminism: scheduling decides *where*
//! a job runs, never *what* it computes. A caller whose jobs are pure
//! functions of `(index, item)` — the per-shard RNG-stream pattern used
//! by `blockamc::montecarlo` — gets bit-identical output at any worker
//! count, including the inlined `workers == 1` path.
//!
//! ## Example
//!
//! ```
//! let squares = amc_par::map_indexed(4, (0..100u64).collect(), |_, x| x * x);
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::Mutex;

/// The number of workers worth spawning on this host (`1` when the
/// runtime cannot tell). Callers may always request more or fewer.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One deque of `(index, item)` jobs per worker, dealt round-robin.
struct JobQueues<T> {
    queues: Vec<Mutex<VecDeque<(usize, T)>>>,
}

impl<T> JobQueues<T> {
    fn deal(workers: usize, items: Vec<T>) -> Self {
        let mut queues: Vec<VecDeque<(usize, T)>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (idx, item) in items.into_iter().enumerate() {
            queues[idx % workers].push_back((idx, item));
        }
        JobQueues {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Pops the next job for worker `w`: front of its own deque first,
    /// then the back of each victim's, scanning round-robin from `w+1`.
    /// `None` means every deque was observed empty — and since jobs
    /// never enqueue new jobs, that worker is done.
    fn next_job(&self, w: usize) -> Option<(usize, T)> {
        let own = self.queues[w]
            .lock()
            .expect("job queue poisoned")
            .pop_front();
        if own.is_some() {
            return own;
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (w + offset) % n;
            let stolen = self.queues[victim]
                .lock()
                .expect("job queue poisoned")
                .pop_back();
            if stolen.is_some() {
                return stolen;
            }
        }
        None
    }
}

/// Reassembles `(index, result)` pairs into input order.
fn merge<R>(len: usize, collected: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (idx, r) in collected.into_iter().flatten() {
        debug_assert!(slots[idx].is_none(), "job {idx} executed twice");
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job executes exactly once"))
        .collect()
}

/// Parallel index-preserving map: applies `f(index, item)` to every
/// item across `workers` work-stealing threads and returns the results
/// in input order.
///
/// `workers` is clamped to at least 1 and at most `items.len()`; with
/// one worker (or zero/one items) everything runs inline on the calling
/// thread. A panicking job propagates its panic to the caller after the
/// scope unwinds the remaining workers.
pub fn map_indexed<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| f(idx, item))
            .collect();
    }
    let len = items.len();
    let queues = JobQueues::deal(workers, items);
    let f = &f;
    let queues = &queues;
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some((idx, item)) = queues.next_job(w) {
                        local.push((idx, f(idx, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect::<Vec<_>>()
    });
    merge(len, collected)
}

/// Parallel map over jobs that need **worker-owned mutable state** —
/// the sharded-solver pattern: worker *w* exclusively owns `states[w]`
/// (e.g. a replicated, independently-programmed solver instance) and
/// every job it executes, its own or stolen, runs against that state.
///
/// The calling thread works `states[0]` and one scoped thread is
/// spawned for each further state in use (at most `items.len()` states
/// are used); results come back in input order. With a single state
/// (or zero/one items) nothing is spawned and everything runs against
/// `states[0]`. A panicking job, on the calling thread or a spawned
/// one, propagates its panic to the caller after every spawned thread
/// has joined.
///
/// The states are borrowed mutably rather than consumed so callers can
/// inspect them afterwards (per-worker cost counters, RNG positions).
///
/// # Panics
///
/// Panics if `states` is empty, or — propagated — if a job panics.
pub fn map_with_states<S, T, R, F>(states: &mut [S], items: Vec<T>, f: F) -> Vec<R>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    assert!(
        !states.is_empty(),
        "map_with_states needs at least one state"
    );
    if states.len() == 1 || items.len() <= 1 {
        let state = &mut states[0];
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| f(state, idx, item))
            .collect();
    }
    let workers = states.len().min(items.len());
    let len = items.len();
    let queues = JobQueues::deal(workers, items);
    let f = &f;
    let queues = &queues;
    let drain = move |w: usize, state: &mut S| {
        let mut local = Vec::new();
        while let Some((idx, item)) = queues.next_job(w) {
            local.push((idx, f(state, idx, item)));
        }
        local
    };
    let (own, rest) = states[..workers]
        .split_first_mut()
        .expect("states is non-empty");
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(w, state)| scope.spawn(move || drain(w + 1, state)))
            .collect();
        // A panic here unwinds out of the scope, which joins the spawned
        // workers before it propagates.
        let mut collected = vec![drain(0, own)];
        for h in handles {
            match h.join() {
                Ok(local) => collected.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        collected
    });
    merge(len, collected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        for workers in [1, 2, 4, 7] {
            let out = map_indexed(workers, (0..53usize).collect(), |idx, x| {
                assert_eq!(idx, x);
                x * 3
            });
            assert_eq!(out, (0..53).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn output_is_identical_at_any_worker_count() {
        let reference = map_indexed(1, (0..40u64).collect(), |_, x| x.wrapping_mul(0x9E37));
        for workers in [2, 3, 4, 8] {
            let out = map_indexed(workers, (0..40u64).collect(), |_, x| x.wrapping_mul(0x9E37));
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn skewed_work_is_stolen() {
        // One pathological job; the other workers must drain the rest.
        let slow_hits = AtomicUsize::new(0);
        let out = map_indexed(4, (0..32u32).collect(), |_, x| {
            if x == 0 {
                slow_hits.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
        assert_eq!(slow_hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(map_indexed(16, vec![5u8, 6], |_, x| x), vec![5, 6]);
        assert_eq!(map_indexed(4, Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(map_indexed(0, vec![1u8], |_, x| x + 1), vec![2]);
    }

    #[test]
    fn states_are_worker_exclusive_and_all_jobs_run() {
        let mut states = vec![0usize; 4];
        let out = map_with_states(&mut states, (0..64usize).collect(), |count, _, x| {
            *count += 1;
            x
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        // Every job ran exactly once, wherever it was stolen to.
        assert_eq!(states.iter().sum::<usize>(), 64);
    }

    #[test]
    fn single_state_runs_inline() {
        let mut states = vec![String::new()];
        let out = map_with_states(&mut states, vec![1, 2, 3], |s, idx, x| {
            s.push('x');
            idx + x
        });
        assert_eq!(out, vec![1, 3, 5]);
        assert_eq!(states[0], "xxx");
    }

    #[test]
    fn state_zero_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut states: Vec<Vec<std::thread::ThreadId>> = vec![Vec::new(); 3];
        let out = map_with_states(&mut states, (0..24usize).collect(), |seen, _, x| {
            seen.push(std::thread::current().id());
            x
        });
        assert_eq!(out, (0..24).collect::<Vec<_>>());
        assert!(states[0].iter().all(|id| *id == caller));
        for seen in &states[1..] {
            assert!(
                seen.iter().all(|id| *id != caller),
                "spawned state ran on the caller"
            );
        }
    }

    /// Runs eight jobs on two states where the jobs on state `panicking`
    /// panic and the others take a while, returning the panic message and
    /// how many of the other jobs had finished when the caller saw it.
    fn panic_on_state(panicking: usize) -> (String, usize) {
        let finished = AtomicUsize::new(0);
        let mut states = vec![0usize, 1];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_with_states(&mut states, (0..8u32).collect(), |state, _, x| {
                assert!(*state != panicking, "boom on state {panicking}");
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        let payload = result.expect_err("the job panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        (message, finished.load(Ordering::SeqCst))
    }

    #[test]
    fn caller_run_job_panic_propagates_after_the_join() {
        // State 0 panics on its first job; the spawned worker then drains
        // every other job (its own and the stolen ones) before the scope
        // lets the panic out.
        let (message, finished) = panic_on_state(0);
        assert_eq!(message, "boom on state 0");
        assert_eq!(finished, 7);
    }

    #[test]
    fn spawned_job_panic_propagates_after_the_join() {
        let (message, finished) = panic_on_state(1);
        assert_eq!(message, "boom on state 1");
        assert_eq!(finished, 7);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_states_rejected() {
        let mut states: Vec<u8> = Vec::new();
        let _ = map_with_states(&mut states, vec![1], |_, _, x: i32| x);
    }

    #[test]
    fn job_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(2, (0..8u32).collect(), |_, x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn jobs_borrow_from_the_caller_stack() {
        // The scoped pool's point: no 'static, no Arc.
        let table: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let out = map_indexed(3, (0..10usize).collect(), |_, i| table[i] * 2.0);
        assert_eq!(out, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }
}
