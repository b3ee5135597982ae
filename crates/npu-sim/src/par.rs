//! Deterministic indexed fan-out: the one worker pool every parallel
//! loop of the workspace runs on.
//!
//! Profiling sweeps, calibration segments, fleet batches, fleet-serve
//! epochs and service sessions are all "run `n` independent jobs, give
//! me the results in index order". [`par_map`] is that shape once:
//! scoped workers pull indices off a shared atomic cursor, and the
//! results are reassembled by index, so the output cannot observe which
//! worker ran what. Worker counts change wall time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Resolves a requested worker count. An explicit `requested > 0` is
/// taken literally; `0` means "auto" — the `NPU_THREADS` environment
/// variable (a positive integer) pins the count, otherwise one worker
/// per available CPU.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    resolve_threads_with(requested, |name| std::env::var(name).ok())
}

/// [`resolve_threads`] with an injectable environment lookup, so the
/// resolution logic is testable without `std::env::set_var` — process
/// environment mutation is unsynchronized with respect to concurrent
/// readers (and outright UB on some platforms once threads exist), and
/// the default test harness runs tests in parallel.
///
/// `lookup` is called with the variable name (`"NPU_THREADS"`) and
/// returns its value, or `None` when unset.
#[must_use]
pub fn resolve_threads_with(requested: usize, lookup: impl Fn(&str) -> Option<String>) -> usize {
    if requested > 0 {
        return requested;
    }
    // `0` means "auto": the `NPU_THREADS` environment variable pins the
    // count (how benches and CI get deterministic parallelism without
    // touching configs); `0`, unset or unparsable falls through to
    // one worker per available CPU. Thread count never changes results,
    // only wall time.
    if let Some(n) = lookup("NPU_THREADS")
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(worker, i)` for every `i` in `0..n` on a pool of scoped
/// worker threads and returns the results in index order.
///
/// `requested_workers` resolves through [`resolve_threads`] (`0` =
/// auto), capped at `n` and at least one. Workers steal indices from a
/// shared cursor, so which `worker` (in `0..workers`) runs an index is
/// scheduling-dependent; the returned vector is not. A panic in `f` is
/// resumed on the caller once the pool has joined.
///
/// To fail on the lowest-indexed error, return a `Result` per index and
/// collect the vector into `Result<Vec<_>, _>`.
pub fn par_map<R, F>(requested_workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let workers = resolve_threads(requested_workers).min(n).max(1);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (next, f) = (&next, &f);
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(worker, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    // Every index ran exactly once, so sorting by index is the whole
    // reassembly.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_come_back_in_index_order() {
        for (workers, n) in [(1, 37), (2, 37), (8, 37), (16, 5), (3, 1)] {
            let got = par_map(workers, n, |_, i| i * i);
            let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
            assert_eq!(got, expect, "{workers} workers, {n} items");
        }
    }

    #[test]
    fn uneven_items_still_come_back_in_index_order() {
        // Slow even items make the workers' index runs interleave, so the
        // per-worker result lists only line up after reassembly.
        let got = par_map(2, 12, |_, i| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i
        });
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn worker_indices_stay_below_the_capped_pool() {
        let got = par_map(8, 3, |worker, _| worker);
        assert!(got.iter().all(|&w| w < 3), "{got:?}");
        assert_eq!(par_map(1, 10, |worker, _| worker), vec![0; 10]);
    }

    #[test]
    fn empty_input_returns_an_empty_vector() {
        let called = AtomicBool::new(false);
        let got: Vec<()> = par_map(4, 0, |_, _| called.store(true, Ordering::Relaxed));
        assert!(got.is_empty());
        assert!(!called.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_repanics_on_the_caller() {
        let _ = par_map(2, 10, |_, i| assert!(i != 5, "item {i} failed"));
    }

    #[test]
    fn collecting_results_yields_the_lowest_indexed_error() {
        for workers in [1, 2, 8] {
            let got: Result<Vec<usize>, usize> =
                par_map(workers, 50, |_, i| if i % 7 == 3 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(got, Err(3), "{workers} workers");
        }
    }

    #[test]
    fn npu_threads_env_pins_auto_detection() {
        // Explicit counts always beat the environment; NPU_THREADS only
        // steers the `0 = auto` path, and `0`/garbage stay auto. The
        // lookup is injected instead of mutating the process environment:
        // `set_var` is unsynchronized with concurrent readers under the
        // parallel test harness (see `resolve_threads_with`).
        let env = |val: &'static str| {
            move |name: &str| {
                assert_eq!(name, "NPU_THREADS");
                Some(val.to_string())
            }
        };
        assert_eq!(resolve_threads_with(5, env("3")), 5);
        assert_eq!(resolve_threads_with(0, env("3")), 3);
        assert_eq!(resolve_threads_with(0, env(" 12 ")), 12);
        assert!(resolve_threads_with(0, env("0")) >= 1);
        assert!(resolve_threads_with(0, env("not-a-number")) >= 1);
        assert!(resolve_threads_with(0, |_| None) >= 1);
        // The env-reading wrapper stays a thin pass-through: with an
        // explicit request it never consults the environment at all.
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }
}
