//! The interner across threads. This file is its own test binary, so the
//! process-wide intern table holds only what the test below puts in it.
//!
//! Four scoped threads intern overlapping slices of a fresh string set,
//! each in its own order and each string twice, all released at once by a
//! barrier. Equal strings must come back as equal `Sym`s on every thread,
//! the table must grow by exactly the distinct count, and the per-thread
//! counters must sum to one miss per distinct string and one hit or miss
//! per call.

use std::sync::Barrier;

use eclair_gui::{intern, intern::table_size, Sym};
use eclair_trace::perf;

const THREADS: usize = 4;
const DISTINCT: usize = 48;
const PER_THREAD: usize = 24;

/// Thread `t`'s slice of the string indices: a window starting at
/// `t * DISTINCT / THREADS` that overlaps the next thread's, visited
/// forwards, backwards, or strided so no two threads share an order.
fn order(t: usize) -> Vec<usize> {
    let start = t * DISTINCT / THREADS;
    let mut idx: Vec<usize> = (0..PER_THREAD).map(|k| (start + k) % DISTINCT).collect();
    match t % 4 {
        0 => {}
        1 => idx.reverse(),
        2 => idx.sort_by_key(|&i| (i % 3, i)),
        _ => idx.rotate_left(PER_THREAD / 2),
    }
    idx
}

#[test]
fn threads_agree_on_syms_and_counters_sum_exactly() {
    let strings: Vec<String> = (0..DISTINCT)
        .map(|i| format!("intern-threads-{i}"))
        .collect();
    let before = table_size();
    let barrier = Barrier::new(THREADS);

    let results: Vec<(Vec<(usize, Sym)>, perf::PerfCounters)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (strings, barrier) = (&strings, &barrier);
                s.spawn(move || {
                    perf::reset();
                    barrier.wait();
                    let mut seen = Vec::new();
                    for i in order(t) {
                        let a = intern(&strings[i]);
                        let b = intern(&strings[i]);
                        assert_eq!(a, b, "re-interning on one thread");
                        seen.push((i, a));
                    }
                    (seen, perf::snapshot())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut first: Vec<Option<Sym>> = vec![None; DISTINCT];
    let mut calls = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for (seen, counters) in &results {
        calls += 2 * seen.len() as u64;
        hits += counters.intern_hits;
        misses += counters.intern_misses;
        for &(i, sym) in seen {
            assert_eq!(sym.as_str(), strings[i]);
            match first[i] {
                Some(prev) => assert_eq!(prev, sym, "threads disagree on {:?}", strings[i]),
                None => first[i] = Some(sym),
            }
        }
    }
    let distinct = first.iter().filter(|s| s.is_some()).count();
    assert_eq!(distinct, DISTINCT, "the windows cover every string");
    for (i, a) in first.iter().enumerate() {
        for (j, b) in first.iter().enumerate() {
            assert_eq!(a == b, i == j, "distinct strings never alias");
        }
    }
    assert_eq!(table_size() - before, DISTINCT);
    assert_eq!(
        misses, DISTINCT as u64,
        "each string is a miss exactly once"
    );
    assert_eq!(hits + misses, calls, "every call is one hit or one miss");
}
