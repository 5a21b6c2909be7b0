//! Order statistics, per-slot medians and output digests.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Each slot's times over repeated identical passes. A slot is a fixed
/// piece of every pass (one corpus copy or one workflow); `add` takes one
/// pass's times, slot by slot.
#[derive(Debug, Default)]
pub struct Slots(Vec<Vec<f64>>);

impl Slots {
    pub fn add(&mut self, times: &[f64]) {
        if self.0.is_empty() {
            self.0 = vec![Vec::new(); times.len()];
        }
        assert_eq!(self.0.len(), times.len(), "every pass has the same slots");
        for (slot, &t) in self.0.iter_mut().zip(times) {
            slot.push(t);
        }
    }

    /// Each slot's median time.
    pub fn medians(&self) -> Vec<f64> {
        self.0.iter().map(|slot| median(slot)).collect()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the parts in order, as 16 hex digits. Each part is
/// followed by a 0xFF byte so that moving bytes across a part boundary
/// changes the digest.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.iter().chain(&[0xFF]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_known_answers() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 5.0, 1.0, 9.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_known_answers() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        let ten: Vec<f64> = (1..=10).rev().map(|x| f64::from(x) * 10.0).collect();
        assert_eq!(percentile(&ten, 50.0), 50.0);
        assert_eq!(percentile(&ten, 95.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
    }

    #[test]
    fn slots_keep_each_slots_median() {
        let mut slots = Slots::default();
        assert!(slots.medians().is_empty());
        slots.add(&[3.0, 1.0, 4.0]);
        slots.add(&[2.0, 5.0, 4.5]);
        slots.add(&[2.5, 0.5, 6.0]);
        assert_eq!(slots.medians(), [2.5, 1.0, 4.5]);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn digest_is_stable_and_boundary_sensitive() {
        let a: [&[u8]; 2] = [b"ab", b"c"];
        let b: [&[u8]; 2] = [b"a", b"bc"];
        assert_eq!(digest(a), digest(a));
        assert_ne!(digest(a), digest(b));
        assert_eq!(digest([]), "cbf29ce484222325");
    }
}
