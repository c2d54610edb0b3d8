//! The workspace's one scoped-thread fan-out primitive.
//!
//! Everything in the repo that wants data parallelism — experiment
//! trial sweeps, the emission-table row build, the multi-session fleet
//! router — goes through [`parallel_map`] (pure fan-out producing new
//! values) or [`parallel_for_each_mut`] (in-place visits over long-lived
//! slots) so there is a single place where work claiming, buffering,
//! and order restoration are reasoned about. The primitives are
//! deliberately boring: scoped `std::thread` workers, an atomic claim
//! counter, and a merge that relies on one documented invariant
//! (below). No channels, no locks on the completion path, no unsafe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `jobs` through `f` on up to `threads` workers, preserving order.
///
/// Work is claimed job-by-job from a shared atomic counter (so one slow
/// job doesn't idle the other workers) and each worker appends its
/// results to a thread-local buffer, pre-sized to the fair share
/// `n / workers + 1` so steady-state claiming never reallocates.
///
/// # The claim-order invariant
///
/// `fetch_add` hands each worker a strictly increasing sequence of job
/// indices, so every worker's buffer is already sorted by index, and
/// the buffers jointly partition `0..n` (each index is claimed exactly
/// once). The merge therefore never needs an `O(n)` scatter table: for
/// each output position `e` in `0..n`, exactly one buffer's head holds
/// index `e` — a scan over at most `workers` heads finds it. Total
/// merge cost is `O(n · workers)` comparisons and zero extra `Option`
/// slots, versus the previous `O(n)` `Vec<Option<R>>` scatter that
/// allocated (and branch-checked) a slot per job.
///
/// A panicking job propagates: the scope joins all workers and the
/// panic is re-raised here, so callers never observe partial output.
pub fn parallel_map<T, R, F>(jobs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n);
    if workers == 1 {
        // Fast path: no scope, no claim counter, direct in-order map.
        return jobs.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Fair share + 1 covers the remainder when n is not
                    // divisible by `workers`; uneven claiming beyond
                    // that (a worker winning extra short jobs) grows
                    // the buffer organically, which is rare and cheap.
                    let mut local: Vec<(usize, R)> = Vec::with_capacity(n / workers + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&jobs[i])));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    // K-way head-scan merge, justified by the claim-order invariant.
    let mut heads: Vec<_> = buffers.into_iter().map(|b| b.into_iter().peekable()).collect();
    let mut out = Vec::with_capacity(n);
    for expect in 0..n {
        let slot = heads
            .iter_mut()
            .position(|it| it.peek().map(|(i, _)| *i) == Some(expect))
            .expect("claim-order invariant: exactly one worker holds the next index");
        let (_, r) = heads[slot].next().expect("peeked head exists");
        out.push(r);
    }
    out
}

/// The `i`-th of `chunks` contiguous ranges evenly partitioning `0..n`,
/// as a `[lo, hi)` pair: the first `n % chunks` ranges get one extra
/// element, so sizes differ by at most one and the ranges jointly cover
/// `0..n` in order, without gaps or overlap.
///
/// This is the fan-out geometry for work that must stay *ordered* while
/// split across workers — the emission-table row build cuts the grid's
/// rows into one contiguous band per worker with it, so every band
/// writes its own disjoint slice of one table in row order.
pub fn chunk_bounds(n: usize, chunks: usize, i: usize) -> (usize, usize) {
    let chunks = chunks.max(1);
    assert!(i < chunks, "chunk index {i} out of {chunks}");
    let base = n / chunks;
    let rem = n % chunks;
    let lo = i * base + i.min(rem);
    let hi = lo + base + usize::from(i < rem);
    (lo, hi)
}

/// Run `f` on every element of `slots` in place, on up to `threads`
/// workers, claiming slots from the same kind of shared atomic counter
/// as [`parallel_map`].
///
/// This is the substrate for stateful fan-out: each slot is a long-lived
/// session (or any `&mut` state) that must be visited exactly once per
/// round, and the visit order across slots must not matter. The fleet
/// router drains its sessions through this, which is what makes its
/// output trivially identical to a sequential drain: parallelism is
/// *across* slots, never within one, so each slot sees exactly the
/// mutation sequence it would see single-threaded.
///
/// Each slot is wrapped in a `Mutex` solely to hand the `&mut`
/// reference across the scope boundary without unsafe; the claim
/// counter guarantees every slot index is claimed exactly once, so
/// every lock is uncontended by construction (a worker only locks the
/// slot it just claimed). A panicking visit propagates after the scope
/// joins, so callers never observe a half-visited round silently.
pub fn parallel_for_each_mut<T, F>(slots: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let n = slots.len();
    if n == 0 {
        return;
    }
    let workers = threads.max(1).min(n);
    if workers == 1 {
        // Fast path: no scope, no wrapping, plain in-order visit.
        for slot in slots.iter_mut() {
            f(slot);
        }
        return;
    }
    let cells: Vec<Mutex<&mut T>> = slots.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let mut slot = cells[i].lock().expect("slot claimed exactly once");
                    f(&mut slot);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_thread_counts() {
        let jobs: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = parallel_map(jobs.clone(), threads, |&x| x * 3 + 1);
            assert_eq!(out, (0..257).map(|x| x * 3 + 1).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_single_and_more_threads_than_jobs() {
        assert!(parallel_map(Vec::<u8>::new(), 4, |&x| x).is_empty());
        assert_eq!(parallel_map(vec![7], 16, |&x| x + 1), vec![8]);
        assert_eq!(parallel_map(vec![1, 2, 3], 0, |&x| x), vec![1, 2, 3], "0 threads clamps to 1");
    }

    #[test]
    fn uneven_job_durations_still_merge_in_order() {
        // Long jobs early force later indices to finish first on other
        // workers, exercising the merge's head scan across buffers.
        let jobs: Vec<u64> = (0..64).collect();
        let out = parallel_map(jobs, 4, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x
        });
        assert_eq!(out, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_mut_visits_every_slot_once() {
        for threads in [1, 2, 3, 8, 64] {
            let mut slots: Vec<(u64, u32)> = (0..257).map(|i| (i, 0)).collect();
            parallel_for_each_mut(&mut slots, threads, |s| {
                s.0 = s.0 * 3 + 1;
                s.1 += 1;
            });
            for (i, (v, visits)) in slots.iter().enumerate() {
                assert_eq!(*v, (i as u64) * 3 + 1, "threads={threads}");
                assert_eq!(*visits, 1, "slot {i} visited once, threads={threads}");
            }
        }
    }

    #[test]
    fn for_each_mut_empty_and_more_threads_than_slots() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_for_each_mut(&mut empty, 4, |_| unreachable!("no slots"));
        let mut one = vec![41u8];
        parallel_for_each_mut(&mut one, 16, |s| *s += 1);
        assert_eq!(one, vec![42]);
        let mut zero_threads = vec![1u8, 2, 3];
        parallel_for_each_mut(&mut zero_threads, 0, |s| *s *= 2);
        assert_eq!(zero_threads, vec![2, 4, 6], "0 threads clamps to 1");
    }

    #[test]
    fn for_each_mut_stateful_slots_match_sequential() {
        // Each slot accumulates a per-slot sequence; parallelism across
        // slots must not change any slot's own history.
        let mut par: Vec<Vec<u64>> = (0..32).map(|i| vec![i]).collect();
        let mut seq = par.clone();
        let visit = |s: &mut Vec<u64>| {
            let last = *s.last().expect("seeded");
            s.push(last.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407));
        };
        for _ in 0..5 {
            parallel_for_each_mut(&mut par, 8, visit);
            for s in seq.iter_mut() {
                visit(s);
            }
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 64, 257, 2500] {
            for chunks in [1usize, 2, 3, 7, 8, 16] {
                let mut expect_lo = 0;
                let mut sizes = Vec::new();
                for i in 0..chunks {
                    let (lo, hi) = chunk_bounds(n, chunks, i);
                    assert_eq!(lo, expect_lo, "n={n} chunks={chunks} i={i}: contiguous");
                    assert!(hi >= lo, "n={n} chunks={chunks} i={i}: ordered");
                    sizes.push(hi - lo);
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, n, "n={n} chunks={chunks}: covers 0..n");
                let max = sizes.iter().copied().max().unwrap();
                let min = sizes.iter().copied().min().unwrap();
                assert!(max - min <= 1, "n={n} chunks={chunks}: even split, sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn chunk_bounds_degenerate_inputs() {
        // 0 chunks clamps to 1: one range holding everything.
        assert_eq!(chunk_bounds(5, 0, 0), (0, 5));
        // More chunks than elements: leading singletons, then empties.
        assert_eq!(chunk_bounds(2, 4, 0), (0, 1));
        assert_eq!(chunk_bounds(2, 4, 1), (1, 2));
        assert_eq!(chunk_bounds(2, 4, 2), (2, 2));
        assert_eq!(chunk_bounds(2, 4, 3), (2, 2));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn chunk_bounds_rejects_out_of_range_index() {
        chunk_bounds(10, 2, 2);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn for_each_mut_panic_propagates() {
        let mut slots = vec![0u32, 1, 2, 3];
        parallel_for_each_mut(&mut slots, 2, |s| {
            assert!(*s != 2, "boom");
        });
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn job_panic_propagates() {
        let _ = parallel_map(vec![0u32, 1, 2, 3], 2, |&x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
