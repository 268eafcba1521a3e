//! The one order-preserving fan-out every parallel layer runs on.
//!
//! Sweep points, fleet cells, lifecycle slices, planner candidates and
//! the Figure 7 deployments are independent jobs. [`fan_out`] runs them
//! on scoped worker threads that claim the highest unclaimed index first
//! from one shared queue, and hands the outputs back in item order, so a
//! result is bit-identical at any worker count. Claiming from the top
//! starts the heavy end of an ascending sweep (cost grows with offered
//! load) first and leaves the light points to fill the gaps at the end;
//! claiming one job at a time spreads jobs of unequal cost evenly.
//!
//! This is the only module that starts threads or reads the machine's
//! parallelism.

use std::num::NonZero;
use std::panic;
use std::sync::{Mutex, PoisonError};
use std::thread;

use crate::sim::SimError;

/// The worker count for a fan-out over `items` jobs: `parallelism` when
/// set, else the machine's available parallelism, capped by `items` and
/// never below one.
#[must_use]
pub fn workers(parallelism: Option<usize>, items: usize) -> usize {
    parallelism
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZero::get))
        .min(items)
        .max(1)
}

/// Runs `job(index, item)` for every item and returns the outputs in
/// item order.
///
/// With `workers <= 1`, or at most one item, every job runs on the
/// caller's thread in index order and nothing is spawned. Otherwise up
/// to `workers` scoped threads each claim the highest unclaimed index
/// from one shared queue until it is empty.
///
/// # Errors
///
/// [`SimError::WorkerLost`] if a job's output slot is left unfilled.
///
/// # Panics
///
/// A panicking job panics the caller with the job's own payload, once
/// every worker has stopped.
pub fn fan_out<I, T, F>(
    items: impl IntoIterator<Item = I>,
    workers: usize,
    job: F,
) -> Result<Vec<T>, SimError>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let queue: Vec<I> = items.into_iter().collect();
    let n = queue.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return Ok(queue
            .into_iter()
            .enumerate()
            .map(|(index, item)| job(index, item))
            .collect());
    }
    let queue = Mutex::new(queue);
    let claim = || {
        // Only `pop` runs under the lock, and it cannot panic, so a
        // poisoned queue still holds exactly the unclaimed items.
        let mut queue = queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.pop().map(|item| (queue.len(), item))
    };
    let finished: Vec<thread::Result<Vec<(usize, T)>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((index, item)) = claim() {
                        done.push((index, job(index, item)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for worker in finished {
        for (index, output) in worker.unwrap_or_else(|payload| panic::resume_unwind(payload)) {
            slots[index] = Some(output);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.ok_or(SimError::WorkerLost))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::hint::black_box;

    use super::*;

    /// A job whose cost varies with the index, so workers finish out of
    /// order.
    fn uneven(index: usize, item: u64) -> u64 {
        let spins = (index % 5) * 20_000;
        let mut acc = item;
        for _ in 0..spins {
            acc = black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        acc
    }

    #[test]
    fn outputs_come_back_in_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).map(|i| i * 7 + 3).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(index, &item)| uneven(index, item))
            .collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = fan_out(items.iter().copied(), workers, uneven).unwrap();
            assert_eq!(got, serial, "{workers} workers reordered the outputs");
        }
    }

    #[test]
    fn empty_input_runs_no_job() {
        let got: Vec<u64> = fan_out(Vec::<u64>::new(), 8, |_, _| -> u64 {
            panic!("no item, no job");
        })
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn serial_fan_outs_stay_on_the_callers_thread() {
        let caller = thread::current().id();
        // One worker, or one item however many workers are offered.
        for (items, workers) in [(vec![1u8, 2, 3], 1), (vec![9], 16)] {
            let ids = fan_out(items, workers, |_, _| thread::current().id()).unwrap();
            assert!(ids.iter().all(|&id| id == caller));
        }
    }

    #[test]
    fn more_workers_than_items_run_every_item_once() {
        let caller = thread::current().id();
        let ran = fan_out(0..3u64, 64, |index, item| {
            (index, item, thread::current().id() == caller)
        })
        .unwrap();
        assert_eq!(ran, vec![(0, 0, false), (1, 1, false), (2, 2, false)]);
    }

    #[test]
    fn items_are_moved_into_their_jobs() {
        let mut tallies = vec![0u64; 6];
        let got = fan_out(tallies.iter_mut(), 3, |index, tally| {
            *tally += index as u64;
            index * 2
        })
        .unwrap();
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(tallies, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_panics_the_caller() {
        let _ = fan_out(0..8u64, 3, |index, _| {
            if index == 5 {
                panic!("job {index} failed");
            }
            index
        });
    }

    #[test]
    fn workers_honour_the_cap_and_the_item_count() {
        assert_eq!(workers(Some(4), 10), 4);
        assert_eq!(workers(Some(4), 2), 2);
        assert_eq!(workers(Some(4), 0), 1);
        assert!(workers(None, usize::MAX) >= 1);
    }
}
