//! The parallel execution layer of the toolchain: a small, deterministic
//! fan-out built on `std::thread::scope`.
//!
//! The paper's pipeline is embarrassingly parallel at two granularities —
//! per configuration file (lex + parse) and per network (generate +
//! analyze across the 31-network roster) — and both run through
//! [`par_map`] here. There are **no external dependencies**: workers are
//! scoped threads pulling indices from a shared atomic counter (a
//! self-scheduling work queue, so a 1,750-router giant and a 4-router
//! stub can share the same pool without static partitioning skew).
//!
//! Determinism guarantee: [`par_map`] always returns results in **input
//! order**, whatever order workers finish in, and the function it applies
//! receives the item index so callers can implement order-sensitive
//! policies (e.g. "report the *first* parse error by file order"). With
//! one thread — `RD_THREADS=1` or a single-core machine — it takes the
//! exact sequential code path: a plain in-order loop, no threads spawned.
//!
//! Thread count resolution, in priority order:
//! 1. the `RD_THREADS` environment variable (a positive integer);
//! 2. [`std::thread::available_parallelism`];
//! 3. 1, if the platform will not say.
//!
//! Observability: [`par_map`] captures the caller's `rd_obs` span context
//! and runs each item under it (`rd_obs::span::Context::run`), then
//! replays the items in input order after the join: trace events flush in
//! input order, so trace output is as deterministic as the results
//! themselves; worker span time is credited back to the caller's open
//! span; and stage spans join the caller's stage record. Nested fan-outs
//! compose: an inner `par_map`'s replay lands in the outer item's buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "RD_THREADS";

/// The cost floor of [`par_map_cost`] / [`try_par_map_cost`]: fan-outs
/// whose estimated cost (by convention, roughly bytes of input to process)
/// falls below this run inline on the caller's thread. Spawning and
/// joining a scoped pool costs tens of microseconds; a fan-out below this
/// floor loses more to setup than it gains from parallelism.
pub const COST_FLOOR: u64 = 64 * 1024;

/// Resolves the worker-thread count: `RD_THREADS` if set to a positive
/// integer, else available parallelism, else 1. Read fresh on every call
/// so tests and harnesses can switch modes at runtime.
pub fn thread_count() -> usize {
    if let Ok(text) = std::env::var(THREADS_ENV) {
        if let Ok(n) = text.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on [`thread_count`] workers, returning results
/// in input order. `f` gets `(index, &item)`.
///
/// With an effective thread count of 1 (or ≤1 item) this is exactly the
/// sequential loop — same call order, same stack, no threads.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(thread_count(), items, f)
}

/// [`par_map`] with a caller-estimated work size: when `cost` (arbitrary
/// units; "about how many bytes of input will this chew through" is the
/// convention) is under [`COST_FLOOR`], the fan-out runs inline on the
/// caller's thread instead of spawning workers. Results are identical
/// either way — the threshold only decides who computes them.
pub fn par_map_cost<T, U, F>(cost: u64, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = if cost < COST_FLOOR { 1 } else { thread_count() };
    par_map_threads(threads, items, f)
}

/// [`try_par_map_threads`] with the [`par_map_cost`] inline-fallback threshold.
pub fn try_par_map_cost<T, U, F>(
    cost: u64,
    items: &[T],
    f: F,
) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = if cost < COST_FLOOR { 1 } else { thread_count() };
    try_par_map_threads(threads, items, f)
}

/// Like [`par_map_threads`], but catches a panic in `f` **per item**: the
/// caller gets `Err(panic message)` for the offending item instead of the
/// whole fan-out unwinding. This is the graceful-degradation entry point —
/// the parse pipeline turns each `Err` into a `worker-panic` diagnostic
/// tied to the work item, so one poisoned input cannot abort a study.
///
/// Determinism: results stay in input order and the panic payload text is
/// whatever the panic carried (`&str`/`String` payloads verbatim), so the
/// output is identical at any thread count.
pub fn try_par_map_threads<T, U, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<Result<U, String>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(threads, items, |i, item| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)))
            .map_err(|payload| panic_message(payload.as_ref()))
    })
}

/// Best-effort text of a caught panic payload (the `&str` and `String`
/// cases cover every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`par_map`] with an explicit thread count (the env-independent core,
/// used directly by tests and the bench harness).
///
/// Observability determinism: each item runs under the caller's captured
/// span context ([`rd_obs::span::Context::run`]) and is replayed in
/// **input order** after the workers join — so the emitted event stream,
/// folded stacks, and stage records match the sequential path's,
/// whatever order workers finish in.
pub fn par_map_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        // Sequential path: events stream to the caller's buffer/sink in
        // item order already, exactly the order the parallel path flushes.
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    // Self-scheduling work queue: each worker pulls the next unclaimed
    // index, computes it under the caller's span context, and keeps
    // `(index, result, replay)` locally; results are slotted back into
    // input order afterwards and replayed in that order.
    let context = rd_obs::span::context();
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, U, rd_obs::span::Item)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let (value, item) = context.run(|| f(i, &items[i]));
                        local.push((i, value, item));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                // A worker panicked: re-raise its payload on the caller's
                // thread so behavior matches the sequential path.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<(U, rd_obs::span::Item)>> =
        std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, value, item) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some((value, item));
    }
    slots
        .into_iter()
        .map(|slot| {
            let (value, item) = slot.expect("work queue visits every index exactly once");
            item.replay();
            value
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map_threads(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_still_orders_correctly() {
        // Early items sleep so later items finish first; order must hold.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map_threads(4, &items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_threads(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_threads(4, &items, |_, &x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn try_par_map_catches_panics_per_item() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            let out = try_par_map_threads(threads, &items, |_, &x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 32);
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    assert_eq!(r.as_ref().unwrap_err(), "boom at 13");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn cost_floor_fallback_keeps_results_identical() {
        // Below or above the floor, only *who* computes changes.
        let items: Vec<u64> = (0..100).collect();
        let below = par_map_cost(0, &items, |i, &x| x.wrapping_mul(i as u64 + 1));
        let above = par_map_cost(u64::MAX, &items, |i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(below, above);
        let t: Vec<Result<u64, String>> =
            try_par_map_cost(0, &items, |_, &x| x + 1);
        assert!(t.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn trace_events_flush_in_input_order_at_any_thread_count() {
        // One test function drives every thread count: the trace sink is
        // process-global state.
        let run = |threads: usize| -> Vec<String> {
            rd_obs::trace::install_memory_sink(true);
            let items: Vec<usize> = (0..64).collect();
            // Uneven work so completion order differs from input order.
            par_map_threads(threads, &items, |i, &x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                rd_obs::trace::event("item", &[("i", i.into())]);
                x
            });
            let lines = rd_obs::trace::take_memory();
            rd_obs::trace::clear_sink();
            lines
        };
        let seq = run(1);
        assert_eq!(seq.len(), 64);
        assert!(seq[0].contains("\"i\":0") && seq[63].contains("\"i\":63"));
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq, "trace differs at {threads} threads");
        }
    }

    #[test]
    fn profile_stacks_are_identical_across_thread_counts() {
        // One test function owns the global profile state (like the trace
        // test above owns the sink). Workers open spans under a stage span
        // inside an enclosing span; the zeroed folded output — the set of
        // stacks — and the stage record must be identical at any thread
        // count.
        let run = |threads: usize| -> String {
            rd_obs::profile::enable();
            rd_obs::profile::reset();
            let items: Vec<usize> = (0..48).collect();
            // Spans also emit trace events whenever a trace sink is
            // installed, and the trace test above installs one in
            // parallel. Capturing this thread's events (workers' events
            // are replayed into this buffer) keeps them out of it.
            let ((), _events) = rd_obs::trace::scoped(|| {
                let _study = rd_obs::span!("study");
                let ((), timings) = rd_obs::span::stages(|| {
                    let _work = rd_obs::span!("work");
                    par_map_threads(threads, &items, |i, &x| {
                        let _item = rd_obs::span!("bucket:{}", i % 4);
                        x
                    });
                });
                let names: Vec<&str> = timings.stages.iter().map(|(n, _)| n.as_ref()).collect();
                assert_eq!(names, ["work"], "the stage record holds the stage span only");
            });
            let folded = rd_obs::profile::render_folded(true);
            rd_obs::profile::disable();
            rd_obs::profile::reset();
            folded
        };
        let seq = run(1);
        let stacks: Vec<&str> = seq.lines().collect();
        assert_eq!(
            stacks,
            vec![
                "study 0",
                "study;work 0",
                "study;work;bucket:0 0",
                "study;work;bucket:1 0",
                "study;work;bucket:2 0",
                "study;work;bucket:3 0",
            ],
            "stage spans must nest under the enclosing span"
        );
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq, "folded stacks differ at {threads} threads");
        }
    }

    #[test]
    fn parallel_matches_sequential_for_pure_functions() {
        let items: Vec<u64> = (0..1000).map(|i| i * 17 % 255).collect();
        let seq = par_map_threads(1, &items, |i, &x| x.wrapping_mul(i as u64));
        let par = par_map_threads(6, &items, |i, &x| x.wrapping_mul(i as u64));
        assert_eq!(seq, par);
    }
}
