//! A run's layout and frame-cache work must not depend on what the
//! process ran before it: the same specs, run twice through a fresh
//! sequential fleet, walk the layout engine the same number of times and
//! see the same frame-cache traffic. (The string interner is
//! process-global by design, so its counters are not compared.)

use eclair_fleet::{Fleet, FleetConfig, RetryPolicy, RunSpec};
use eclair_fm::FmProfile;
use eclair_sites::all_tasks;
use eclair_trace::perf::{self, PerfCounters};

const FLEET_SEED: u64 = 77;

fn pass() -> PerfCounters {
    let specs: Vec<RunSpec> = all_tasks()
        .into_iter()
        .take(6)
        .enumerate()
        .map(|(i, t)| RunSpec::for_task(FLEET_SEED, i as u64, t, FmProfile::Gpt4V))
        .collect();
    perf::reset();
    Fleet::new(FleetConfig {
        workers: 1,
        retry: RetryPolicy::default(),
        fleet_seed: FLEET_SEED,
        ..FleetConfig::default()
    })
    .run_sequential(specs)
    .expect("sequential fleet run");
    perf::snapshot()
}

#[test]
fn second_pass_does_the_same_layout_and_frame_work_as_the_first() {
    let first = pass();
    let second = pass();
    assert!(first.relayouts_full > 0, "the first pass walked the layout");
    assert_eq!(
        first.relayouts_full, second.relayouts_full,
        "layout walks depend on process history"
    );
    assert_eq!(
        (
            first.frame_cache_hits,
            first.frame_cache_misses,
            first.frame_cache_invalidations
        ),
        (
            second.frame_cache_hits,
            second.frame_cache_misses,
            second.frame_cache_invalidations
        ),
        "frame-cache traffic depends on process history"
    );
}
