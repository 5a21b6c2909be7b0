//! Host speed, measured by a fixed reference kernel between blocks of
//! timed work, so that timings read as they would on a host running at
//! the reference speed.
//!
//! On a shared host, other tenants slow this process's cores by up to
//! about 1.8 times, in spells from milliseconds to many minutes, and CPU
//! time slows with wall time (contention for the core, not waiting to be
//! scheduled). A spell that covers a whole run moves every order
//! statistic taken within the run. The kernel slows with the program, so
//! each block of work is scaled by the reference kernel time over the
//! kernel time measured just before and just after the block. The kernel
//! is part of the benchmark and never changes, so a change to the
//! program moves the scaled times in proportion to the raw ones.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::cpu_seconds;

/// Workflows a sequential or agent pass runs between two speed samples
/// (2-10 ms of work), so the samples see the host as the block did.
pub const BLOCK_WORKFLOWS: usize = 8;
/// Kernel units in one speed sample (about 0.5 ms).
const SAMPLE_UNITS: u64 = 16;
/// Seconds one sample takes on a quiet reference host (Intel Xeon,
/// 2 vCPUs, release build): the speed scaled timings are expressed at.
const REFERENCE_S: f64 = 0.000_45;

/// One fixed unit of the reference kernel: string formatting, a sort, an
/// ordered map and hashing, the kinds of work the program does. Returns
/// a checksum of its result.
pub fn unit(salt: u64) -> u64 {
    let mut words: Vec<String> = (0..96u64)
        .map(|i| format!("w{}-{i}", (i.wrapping_mul(2_654_435_761) ^ salt) % 10_007))
        .collect();
    words.sort();
    let mut buckets: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, w) in words.iter().enumerate() {
        buckets.entry(fnv(w.as_bytes()) % 61).or_default().push(i);
    }
    let joined: Vec<String> = buckets.values().map(|v| format!("{v:?}")).collect();
    fnv(joined.join(",").as_bytes())
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Seconds one speed sample takes, on the calling thread.
fn sample() -> f64 {
    let start = Instant::now();
    let sum = (0..SAMPLE_UNITS).fold(0u64, |acc, k| {
        acc.wrapping_add(unit(std::hint::black_box(k % 8)))
    });
    std::hint::black_box(sum);
    start.elapsed().as_secs_f64()
}

/// The factor a block's times are scaled by: the reference time over the
/// mean of the samples taken before and after the block.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S * 2.0 / (before_s + after_s)
}

/// Wall and process CPU seconds of timed blocks, as measured and scaled
/// to the reference speed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    pub wall: f64,
    pub cpu: f64,
    pub scaled_wall: f64,
    pub scaled_cpu: f64,
}

/// The speed samples around a sequence of timed blocks, taken on the
/// calling thread (for a multi-threaded block, the speed of one core).
pub struct Speed {
    last: f64,
}

impl Speed {
    /// Takes the first sample.
    pub fn new() -> Self {
        Self { last: sample() }
    }

    /// Run `f` as one block: add its times to `timing` and return its
    /// output with the factor its times were scaled by. The sample after
    /// this block is the sample before the next one.
    pub fn block<T>(&mut self, timing: &mut Timing, f: impl FnOnce() -> T) -> (T, f64) {
        let (start, cpu0) = (Instant::now(), cpu_seconds());
        let out = f();
        let (wall, cpu) = (start.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
        let after = sample();
        let scale = factor(self.last, after);
        self.last = after;
        timing.wall += wall;
        timing.cpu += cpu;
        timing.scaled_wall += wall * scale;
        timing.scaled_cpu += cpu * scale;
        (out, scale)
    }

    /// [`Self::block`] for work that pushes one wall time per workflow
    /// onto `samples`; those are scaled too.
    pub fn block_with_samples(
        &mut self,
        timing: &mut Timing,
        samples: &mut Vec<f64>,
        f: impl FnOnce(&mut Vec<f64>),
    ) {
        let first = samples.len();
        let ((), scale) = self.block(timing, || f(samples));
        samples[first..].iter_mut().for_each(|s| *s *= scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed() {
        // The reference time holds only for this exact kernel.
        assert_eq!(unit(0), unit(0));
        assert_eq!(unit(3), 0x2344_9aa7_9b30_4505);
    }

    #[test]
    fn factor_known_answers() {
        assert_eq!(factor(REFERENCE_S, REFERENCE_S), 1.0);
        assert_eq!(factor(REFERENCE_S * 2.0, REFERENCE_S * 2.0), 0.5);
        assert_eq!(factor(REFERENCE_S * 0.5, REFERENCE_S * 1.5), 1.0);
    }

    #[test]
    fn blocks_add_measured_and_scaled_times() {
        let mut speed = Speed::new();
        let mut timing = Timing::default();
        let (out, scale) = speed.block(&mut timing, || sample() > 0.0);
        assert!(out && scale > 0.0);
        let mut samples = vec![-1.0];
        speed.block_with_samples(&mut timing, &mut samples, |s| s.push(2.0));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0], -1.0);
        assert!(samples[1] > 0.0);
        assert!(timing.wall > 0.0 && timing.cpu > 0.0);
        assert!(timing.scaled_wall > 0.0 && timing.scaled_cpu > 0.0);
    }
}
