//! # boe-par
//!
//! A deterministic, zero-dependency data-parallel runtime built on
//! [`std::thread::scope`].
//!
//! The workspace's hot paths (similarity matrices, per-term pipeline
//! fan-out, linkage scoring) are embarrassingly parallel *per item*, but
//! research code must stay reproducible: the same input must yield the
//! same output regardless of the machine's core count. Every combinator
//! here therefore guarantees the **determinism contract**:
//!
//! * workers **claim** items from one shared cursor in index order, one
//!   item or one small block at a time (the block size depends only on
//!   the item and worker counts), so a worker that drew expensive items
//!   claims fewer of them and no worker idles while work is left;
//! * each worker keeps `(index, value)` pairs, ascending because claims
//!   are, and the lists are merged back **in input order** — the output
//!   `Vec` is identical to the serial `items.iter().map(f).collect()`
//!   for any pure `f`, whichever worker computed which item;
//! * callers that reduce fold the returned `Vec` serially in index
//!   order, so floating-point accumulation associates exactly as the
//!   serial loop would — results are bit-identical, not merely "close";
//! * a worker panic is re-raised on the calling thread: the one at the
//!   lowest item index, which the serial loop would have hit first,
//!   matching the serial behaviour under `catch_unwind`.
//!
//! The thread count comes from, in priority order: a process-wide
//! programmatic override ([`set_threads`]), the `BOE_THREADS` environment
//! variable, and finally [`std::thread::available_parallelism`]. A count
//! of 1 (or fewer items than [`MIN_PARALLEL_ITEMS`]) means one worker,
//! and worker 0 always runs on the calling thread — no threads are
//! spawned at all, so `BOE_THREADS=1` is a true serial baseline.
//!
//! ## Cooperative early exit
//!
//! [`try_par_map`] additionally polls a caller-supplied stop predicate:
//! every worker polls it **before each claim and before each item**.
//! When a poll fires, that worker stops and cuts the output right after
//! the last item *it* completed (or, for a poll before an item of a
//! claimed block, right before that item): the serial loop, which polls
//! before every item, would have stopped there. The call returns
//! [`ParOutcome::Interrupted`] holding the **deterministic completed
//! prefix**: the leading items below the lowest cut, all of which some
//! worker finished, so the prefix is bit-identical to the first
//! `prefix.len()` results of the serial loop. It is
//! [`ParOutcome::Complete`] iff that prefix covers all `n` items. A
//! worker that fires before completing any item cuts nothing; items no
//! worker claimed end the prefix. A worker panic still propagates (the
//! lowest-index one) and the scoped join guarantees no interrupted or
//! poisoned worker can leak or deadlock the scope.
//!
//! Every worker (the one on the calling thread included) hits the
//! `boe_chaos::sites::PAR_WORKER` injection site once, before its first
//! claim, keyed by its worker index — a no-op unless a chaos plan is
//! armed. Worker 0 keeps key 0 at every thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many items the combinators run serially even when more
/// threads are available: spawning scoped threads costs tens of
/// microseconds, which dwarfs tiny workloads. Callers with very cheap
/// per-item work should raise the bar further via [`par_map_min`].
pub const MIN_PARALLEL_ITEMS: usize = 2;

/// Process-wide thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the thread count for the whole process (benchmarks and
/// determinism tests switch between serial and parallel runs without
/// touching the environment). `None` restores the default resolution
/// ([`threads`]); `Some(0)` is treated as `Some(1)`.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::SeqCst);
}

/// The resolved worker-thread count: the [`set_threads`] override if set,
/// else `BOE_THREADS` (when it parses to ≥ 1), else
/// [`std::thread::available_parallelism`], else 1.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("BOE_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Outcome of a cancellable parallel map: either every item completed,
/// or the stop predicate fired and only a contiguous leading prefix of
/// results is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParOutcome<U> {
    /// All `n` results, in input order.
    Complete(Vec<U>),
    /// The stop predicate fired; `prefix` holds the results of items
    /// `0..prefix.len()`, bit-identical to the serial loop's first
    /// `prefix.len()` outputs. Items at or past the cut are discarded
    /// even if some worker had finished them.
    Interrupted {
        /// The deterministic completed prefix, in input order.
        prefix: Vec<U>,
    },
}

impl<U> ParOutcome<U> {
    /// The results regardless of outcome (full vector or prefix).
    pub fn into_results(self) -> Vec<U> {
        match self {
            ParOutcome::Complete(v) => v,
            ParOutcome::Interrupted { prefix } => prefix,
        }
    }
}

/// Map `f` over `0..n` in parallel, returning results in index order.
///
/// Bit-identical to `(0..n).map(f).collect()` for pure `f`.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_indexed_min(n, MIN_PARALLEL_ITEMS, f)
}

/// [`par_map_indexed`] with a custom serial threshold: runs serially
/// unless `n >= min_items`. Use a high threshold for cheap per-item work
/// (e.g. a single dot product) where thread-spawn overhead would win.
pub fn par_map_indexed_min<U, F>(n: usize, min_items: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    match cursor_run(n, min_items, None::<&fn() -> bool>, f) {
        ParOutcome::Complete(v) => v,
        // Without a stop predicate no worker ever stops early.
        ParOutcome::Interrupted { .. } => unreachable!("no stop predicate"),
    }
}

/// Claims per worker the item count is divided into: a block is
/// `n / (CLAIMS_PER_WORKER · workers)` items, at least one. Per-item
/// claims and blocks this fine balance equally; blocks four times
/// coarser lost most of the gain on the skewed per-term fan-out, while
/// blocks keep cheap per-item kernels (one dot product, one score) from
/// paying one contended claim per item.
const CLAIMS_PER_WORKER: usize = 32;

/// The shared executor behind both the plain and the cancellable maps:
/// `workers` workers claim blocks of items from one cursor in index
/// order (see the crate docs for the contract). `stop` is polled before
/// each claim and each item; `None` compiles down to the unconditional
/// loop.
fn cursor_run<U, F, S>(n: usize, min_items: usize, stop: Option<&S>, f: F) -> ParOutcome<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    S: Fn() -> bool + Sync,
{
    let workers = if n < min_items.max(MIN_PARALLEL_ITEMS) {
        1
    } else {
        threads().min(n)
    };
    let block = (n / (CLAIMS_PER_WORKER * workers)).max(1);
    // The cursor publishes no other data (results travel through the
    // joins), so relaxed claims suffice.
    let cursor = AtomicUsize::new(0);
    let work = |w: usize| claim_items(w, n, block, &cursor, stop, &f);
    // Worker 0 runs on the calling thread, so a serial run spawns nothing.
    let parts: Vec<Part<U>> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        let mut parts = vec![work(0)];
        parts.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught in claim_items")),
        );
        parts
    });

    // The serial loop would have hit the lowest-index panic first; ties
    // (the chaos site, hit before any item) go to the lowest worker.
    let mut panic: Option<(usize, Box<dyn Any + Send>)> = None;
    let mut cut = n;
    let mut lists = Vec::with_capacity(parts.len());
    for part in parts {
        if let Some((at, payload)) = part.panic {
            if panic.as_ref().is_none_or(|(lowest, _)| at < *lowest) {
                panic = Some((at, payload));
            }
        }
        cut = cut.min(part.cut.unwrap_or(n));
        lists.push(part.done.into_iter().peekable());
    }
    if let Some((_, payload)) = panic {
        resume_unwind(payload);
    }

    // Merge the ascending per-worker lists up to the cut. Each block is
    // contiguous in one list, so the owner of the next index is found
    // once per block; an index no worker computed ends the prefix.
    let mut out = Vec::with_capacity(cut);
    while out.len() < cut {
        let next = out.len();
        let Some(list) = lists
            .iter_mut()
            .find_map(|l| l.peek().is_some_and(|&(i, _)| i == next).then_some(l))
        else {
            break;
        };
        while out.len() < cut {
            let Some((_, v)) = list.next_if(|&(i, _)| i == out.len()) else {
                break;
            };
            out.push(v);
        }
    }
    if out.len() == n {
        ParOutcome::Complete(out)
    } else {
        ParOutcome::Interrupted { prefix: out }
    }
}

/// What one worker hands back.
struct Part<U> {
    /// `(index, value)` of every item it completed, ascending.
    done: Vec<(usize, U)>,
    /// Where its firing stop poll cuts the output, if one fired after
    /// it completed an item.
    cut: Option<usize>,
    /// The index of the item it panicked on (0 for a panic before its
    /// first claim) and the payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

/// Worker `w`'s loop: claim blocks of `block` items from `cursor` until
/// it passes `n`, polling `stop` before each claim and each item. A
/// panic ends the worker and is handed back with the item's index.
fn claim_items<U, F, S>(
    w: usize,
    n: usize,
    block: usize,
    cursor: &AtomicUsize,
    stop: Option<&S>,
    f: &F,
) -> Part<U>
where
    F: Fn(usize) -> U,
    S: Fn() -> bool,
{
    let mut done = Vec::new();
    let mut cut = None;
    let mut at = 0;
    let stopped = || stop.is_some_and(|s| s());
    let run = catch_unwind(AssertUnwindSafe(|| {
        boe_chaos::inject_keyed(boe_chaos::sites::PAR_WORKER, w as u64);
        // One past the last item this worker completed.
        let mut next = None;
        loop {
            if stopped() {
                cut = next;
                return;
            }
            let lo = cursor.fetch_add(block, Ordering::Relaxed);
            if lo >= n {
                return;
            }
            let hi = (lo + block).min(n);
            for i in lo..hi {
                if i > lo && stopped() {
                    cut = Some(i);
                    return;
                }
                at = i;
                done.push((i, f(i)));
            }
            next = Some(hi);
        }
    }));
    Part {
        done,
        cut,
        panic: run.err().map(|payload| (at, payload)),
    }
}

/// Map `f` over a slice in parallel, returning results in input order.
///
/// Bit-identical to `items.iter().map(f).collect()` for pure `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// [`par_map`] with a custom serial threshold (see
/// [`par_map_indexed_min`]).
pub fn par_map_min<T, U, F>(items: &[T], min_items: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_min(items.len(), min_items, |i| f(&items[i]))
}

/// [`par_map`] with cooperative cancellation: every worker polls
/// `should_stop` before each claim and each item; once it returns `true`
/// the workers wind down and the deterministic completed prefix, cut
/// where the serial loop would have stopped, is returned (see the crate
/// docs). The predicate must be
/// monotonic (once `true`, stay `true`) for the prefix guarantee to be
/// meaningful.
pub fn try_par_map<T, U, F, S>(items: &[T], should_stop: &S, f: F) -> ParOutcome<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    S: Fn() -> bool + Sync,
{
    cursor_run(items.len(), MIN_PARALLEL_ITEMS, Some(should_stop), |i| {
        f(&items[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_threads`/env are process-global; serialize the tests that
    /// touch them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(n));
        let out = f();
        set_threads(None);
        out
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for nt in [1, 2, 3, 8] {
            let par = with_threads(nt, || par_map(&items, |&x| x * 3));
            assert_eq!(par, serial, "threads = {nt}");
        }
    }

    #[test]
    fn par_map_indexed_matches_serial() {
        let serial: Vec<String> = (0..77).map(|i| format!("#{i}")).collect();
        let par = with_threads(4, || par_map_indexed(77, |i| format!("#{i}")));
        assert_eq!(par, serial);
    }

    #[test]
    fn float_reduction_is_bit_identical() {
        // A sum whose value depends on association order: different
        // magnitudes so (a+b)+c != a+(b+c) in general.
        let items: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 3 == 0 {
                    1e16
                } else {
                    1.0 + i as f64 * 1e-7
                }
            })
            .collect();
        let serial = items.iter().map(|&x| x * 1.5).fold(0.0f64, |a, x| a + x);
        for nt in [1, 2, 5, 16] {
            let par = with_threads(nt, || {
                par_map(&items, |&x| x * 1.5)
                    .into_iter()
                    .fold(0.0f64, |a, x| a + x)
            });
            assert_eq!(serial.to_bits(), par.to_bits(), "threads = {nt}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(with_threads(8, || par_map(&empty, |&x| x)).is_empty());
        assert_eq!(with_threads(8, || par_map(&[41u32], |&x| x + 1)), vec![42]);
    }

    #[test]
    fn min_items_threshold_forces_serial() {
        // Results are identical either way; this just exercises the path.
        let items: Vec<u64> = (0..100).collect();
        let out = with_threads(8, || par_map_min(&items, 1000, |&x| x + 1));
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                par_map(&items, |&x| {
                    if x == 40 {
                        panic!("boom at {x}");
                    }
                    x
                })
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn override_and_env_resolution() {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(Some(0)); // clamps to 1
        assert_eq!(threads(), 1);
        set_threads(None);
        std::env::set_var("BOE_THREADS", "5");
        assert_eq!(threads(), 5);
        std::env::set_var("BOE_THREADS", "not a number");
        assert!(threads() >= 1); // falls through to available_parallelism
        std::env::remove_var("BOE_THREADS");
        assert!(threads() >= 1);
    }

    #[test]
    fn chunks_cover_uneven_splits() {
        // n not divisible by worker count.
        for n in [2usize, 3, 7, 13, 97] {
            let out = with_threads(4, || par_map_indexed(n, |i| i));
            assert_eq!(out, (0..n).collect::<Vec<usize>>(), "n = {n}");
        }
    }

    #[test]
    fn claims_balance_a_skewed_fan_out() {
        // Item 0 waits until items 1..n/2 are done. Contiguous chunks
        // would give those items to item 0's own worker, which would wait
        // out the timeout; claimed in index order, the other workers take
        // them while item 0 waits.
        let n = 64;
        for nt in [2, 3, 8] {
            let done = AtomicUsize::new(0);
            let out = with_threads(nt, || {
                par_map_indexed(n, |i| {
                    if i == 0 {
                        let t0 = std::time::Instant::now();
                        while done.load(Ordering::SeqCst) < n / 2 - 1 {
                            if t0.elapsed() > std::time::Duration::from_secs(10) {
                                return false;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    } else if i < n / 2 {
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    true
                })
            });
            assert!(
                out[0],
                "threads = {nt}: item 0 timed out waiting for items 1..{}",
                n / 2
            );
            assert!(out.iter().all(|&ok| ok));
        }
    }

    #[test]
    fn the_lowest_index_panic_is_re_raised() {
        // Item 10 panics later in time than item 50, but the serial loop
        // would hit it first.
        let items: Vec<usize> = (0..64).collect();
        for nt in [2, 3, 8] {
            let caught = with_threads(nt, || {
                std::panic::catch_unwind(|| {
                    par_map(&items, |&x| {
                        if x == 10 {
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            panic!("boom at {x}");
                        }
                        if x == 50 {
                            panic!("boom at {x}");
                        }
                        x
                    })
                })
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "boom at 10", "threads = {nt}");
        }
    }

    #[test]
    fn try_map_without_stop_is_complete() {
        let items: Vec<usize> = (0..50).collect();
        let never = || false;
        for nt in [1, 4] {
            let out = with_threads(nt, || try_par_map(&items, &never, |&x| x * 2));
            assert_eq!(
                out,
                ParOutcome::Complete((0..50).map(|x| x * 2).collect()),
                "threads = {nt}"
            );
        }
    }

    #[test]
    fn try_map_stop_always_yields_empty_prefix() {
        let items: Vec<usize> = (0..64).collect();
        let always = || true;
        for nt in [1, 2, 8] {
            let out = with_threads(nt, || try_par_map(&items, &always, |&x| x));
            assert_eq!(
                out,
                ParOutcome::Interrupted { prefix: Vec::new() },
                "threads = {nt}"
            );
        }
    }

    #[test]
    fn interrupted_prefix_is_serial_prefix() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..96).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x + 7).collect();
        for nt in [1, 2, 3, 8] {
            // Trip after a fixed number of polls; the exact cut point
            // varies with scheduling but the prefix must always be a
            // leading slice of the serial output.
            let polls = AtomicUsize::new(0);
            let stop = || polls.fetch_add(1, Ordering::SeqCst) >= 10;
            let out = with_threads(nt, || try_par_map(&items, &stop, |&x| x + 7));
            let prefix = out.into_results();
            assert!(prefix.len() < items.len(), "threads = {nt}");
            assert_eq!(prefix, serial[..prefix.len()], "threads = {nt}");
        }
    }

    #[test]
    fn try_map_panic_beats_interruption() {
        let items: Vec<usize> = (0..64).collect();
        let always = || true;
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                try_par_map(&items, &always, |&x| {
                    if x == 0 {
                        panic!("poisoned worker");
                    }
                    x
                })
            })
        });
        // Stop-always means item 0 is never computed, so no panic fires
        // and we get a clean empty prefix — but a panic injected before
        // the poll must still propagate. Exercise both shapes.
        assert!(caught.is_ok());
        let caught2 = with_threads(4, || {
            std::panic::catch_unwind(|| {
                let hits = std::sync::atomic::AtomicUsize::new(0);
                let stop = || hits.fetch_add(1, Ordering::SeqCst) >= 30;
                try_par_map(&items, &stop, |&x| {
                    if x == 1 {
                        panic!("poisoned worker");
                    }
                    x
                })
            })
        });
        let payload = caught2.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("poisoned"), "{msg}");
    }
}
