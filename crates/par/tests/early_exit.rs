//! Property tests for the cooperative early-exit contract of
//! `try_par_map`:
//!
//! * an interrupted run always returns a contiguous *leading* prefix of
//!   the serial output, bit-identical item by item, at any thread count;
//! * a stop predicate that is already `true` yields an empty prefix at
//!   any thread count;
//! * a poisoned (panicking) worker propagates its panic to the caller
//!   without deadlocking the scope, interrupted or not.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use boe_par::{set_threads, try_par_map, ParOutcome};
use boe_rng::StdRng;

/// `set_threads` is process-global; serialize every test in this file.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(Some(n));
    let out = f();
    set_threads(None);
    out
}

/// A moderately expensive pure function so chunks take long enough for
/// stop predicates to actually land mid-run.
fn work(x: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(x);
    let mut acc = 0u64;
    for _ in 0..50 {
        acc = acc.wrapping_add(rng.next_u64());
    }
    acc
}

#[test]
fn interrupted_prefix_is_always_a_serial_prefix() {
    let mut seeds = StdRng::seed_from_u64(0xE4E7);
    for trial in 0..20 {
        let n = 16 + (seeds.next_u64() % 120) as usize;
        let items: Vec<u64> = (0..n as u64).map(|i| i ^ seeds.next_u64()).collect();
        let serial: Vec<u64> = items.iter().map(|&x| work(x)).collect();
        let trip_after = (seeds.next_u64() % (2 * n as u64)) as usize;
        for nt in [1usize, 2, 3, 8] {
            let polls = AtomicUsize::new(0);
            let stop = || polls.fetch_add(1, Ordering::SeqCst) >= trip_after;
            let out = with_threads(nt, || try_par_map(&items, &stop, |&x| work(x)));
            let prefix = out.into_results();
            assert!(
                prefix.len() <= items.len(),
                "trial {trial}, threads {nt}: prefix longer than input"
            );
            assert_eq!(
                prefix,
                serial[..prefix.len()],
                "trial {trial}, threads {nt}: prefix diverges from serial output"
            );
        }
    }
}

#[test]
fn stop_already_true_yields_empty_prefix_at_any_thread_count() {
    let items: Vec<u64> = (0..200).collect();
    let always = || true;
    for nt in [1usize, 2, 3, 5, 8, 16] {
        let out = with_threads(nt, || try_par_map(&items, &always, |&x| work(x)));
        assert_eq!(
            out,
            ParOutcome::Interrupted { prefix: Vec::new() },
            "threads = {nt}"
        );
    }
}

#[test]
fn poisoned_worker_propagates_without_deadlock() {
    let items: Vec<u64> = (0..96).collect();
    for nt in [1usize, 2, 8] {
        // A stop predicate that never fires before the poison index: the
        // panic must escape the scope (no hang) at every thread count.
        let never = || false;
        let caught = with_threads(nt, || {
            std::panic::catch_unwind(|| {
                try_par_map(&items, &never, |&x| {
                    if x == 50 {
                        panic!("poisoned at {x}");
                    }
                    work(x)
                })
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned"), "threads = {nt}: {msg}");
    }
}

#[test]
fn poisoned_worker_with_interruption_still_terminates() {
    // Both a mid-run stop *and* a poisoned worker: the call must
    // terminate (either outcome is acceptable depending on timing —
    // panic wins if the poisoned item ran) and never deadlock.
    let items: Vec<u64> = (0..96).collect();
    for nt in [2usize, 8] {
        let polls = AtomicUsize::new(0);
        let stop = || polls.fetch_add(1, Ordering::SeqCst) >= 8;
        let result = with_threads(nt, || {
            std::panic::catch_unwind(|| {
                try_par_map(&items, &stop, |&x| {
                    if x == 90 {
                        panic!("late poison");
                    }
                    work(x)
                })
            })
        });
        match result {
            Ok(outcome) => {
                let prefix = outcome.into_results();
                assert!(prefix.len() < items.len(), "threads = {nt}");
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(msg.contains("late poison"), "threads = {nt}: {msg}");
            }
        }
    }
}
