//! Sample arithmetic shared by every metric: medians, the tail-percentile
//! rule and failure accounting.

/// Percentiles a tail may be reported at, in per-mille, highest first.
const TAIL_CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile `p` (0–100) of `samples`; `None` when
/// empty. Sorts a copy, so callers pass samples in any order.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Number of the `n` samples that lie beyond the `per_mille` quantile by
/// rank.
fn beyond(n: usize, per_mille: usize) -> usize {
    n - (per_mille * n).div_ceil(1000)
}

/// The highest reportable percentile for `n` samples: the largest
/// candidate with at least [`MIN_BEYOND`] samples beyond it, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// A timing summary: sample count, median and the reportable tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` by [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let p50 = median(samples)?;
        let tail = tail_percentile(samples.len())
            .map(|p| (p, percentile(samples, p).expect("samples are non-empty")));
        Some(Summary {
            n: samples.len(),
            p50,
            tail,
        })
    }

    /// One human-readable line: median, tail and sample count.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((50.0, _)) => ", tail = p50".to_owned(),
            Some((p, v)) => format!(", p{p} {v:.3} {unit}"),
            None => format!(", no tail (< {} samples)", 2 * MIN_BEYOND),
        };
        format!("p50 {:.3} {unit}{tail} (n = {})", self.p50, self.n)
    }
}

/// Operations attempted against operations that failed. A failure is an
/// output mismatch, an error response or an expected output that never
/// arrived.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the run record.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok = false` records it as failed with `note`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// Failures over operations attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None, "median has only 9 beyond");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0), "p75 has only 9 beyond");
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0), "p90 has only 9 beyond");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..2_000 {
            if let Some(p) = tail_percentile(n) {
                let pm = (p * 10.0) as usize;
                assert!(beyond(n, pm) >= MIN_BEYOND, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn summary_reports_the_rule_tail() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!(s.n, 40);
        assert_eq!(s.p50, 20.5);
        assert_eq!(s.tail, Some((75.0, 30.25)));
        assert_eq!(Summary::of(&samples[..5]).expect("non-empty").tail, None);
    }

    #[test]
    fn failed_share_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.check(true, || unreachable!());
        t.check(false, || "cycle 3 hash".into());
        t.check(true, || unreachable!());
        t.check(false, || "batch 7 lost".into());
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failed_share(), 0.5);
        let mut other = Tally::default();
        other.check(true, || unreachable!());
        t.absorb(other);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.failed_share(), 0.4);
        assert_eq!(t.notes, vec!["cycle 3 hash", "batch 7 lost"]);
    }
}
