//! Sample summaries, slowdown ratios and the noise floor.
//!
//! Every timing is kept as all of its samples and printed as median,
//! quartiles, min and count. The *gated* value of a timing — the one that
//! becomes a metric — is its minimum. The 2-core host alternates, every few
//! seconds, between a fast regime and one about 1.6x slower (both vCPUs
//! busy); interference only ever adds time, and over ten 30 s sets the
//! minimum of the uninstrumented run spread 3.5 % where its lower quartile
//! spread 5 % and its median 8 %. A *slowdown* is not a ratio of two such
//! values but the median, over rounds, of the ratio of a configuration to the
//! uninstrumented runs right before and after it (see `measure`), which
//! cancels the regime instead of hoping to dodge it.

/// Order statistics of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive: the k-th quartile sits at position `k (n + 1) / 4`, clamped
/// to the sample range), so a reader can check them with three lines of
/// Python. `None` for an empty slice; a single sample is all its quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        // 1-based position k(n+1)/4, split into whole part j and remainder.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n.max(2) - 1);
        let frac = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        let (lo, hi) = (v[j - 1], v[j.min(n - 1)]);
        lo + (hi - lo) * frac
    };
    (n > 0).then(|| Summary {
        n,
        min: v[0],
        q1: at(1),
        median: at(2),
        q3: at(3),
    })
}

/// The value of a timing that becomes a metric: its minimum.
pub fn gated(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.min)
}

/// The median (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// A ratio printed with its base, as every ratio must be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// The ratio.
    pub x: f64,
    /// Gated time of the base it is relative to, ms.
    pub base_ms: f64,
}

/// The noise floor: the median of how far two consecutive uninstrumented
/// runs of one round are apart, as a share of the faster one. A difference of
/// two timings smaller than this share of the larger one is noise.
pub fn aa_floor(pairs: &[(f64, f64)]) -> f64 {
    let gaps: Vec<f64> = pairs
        .iter()
        .filter(|(a, b)| a.min(*b) > 0.0)
        .map(|(a, b)| (a - b).abs() / a.min(*b))
        .collect();
    median(&gaps)
}

/// Formats a slowdown: never a number that reads as a win when it is below
/// 1.0x.
pub fn fmt_slowdown(r: Ratio) -> String {
    let Ratio { x, base_ms } = r;
    if x < 1.0 {
        format!("inconclusive ({x:.3}x of {base_ms:.1} ms is below 1.0x)")
    } else {
        format!("{x:.3}x of {base_ms:.1} ms")
    }
}

/// True when a difference of two timings is smaller than the noise floor's
/// share of the larger of the two (two runs of *that* length disagree by as
/// much): the difference is noise.
pub fn inside_floor(delta: f64, larger: f64, floor: f64) -> bool {
    delta.abs() < floor * larger
}

/// Formats a difference of two timings (ms) against the noise floor:
/// `inconclusive` when it is smaller than the floor's share of the larger of
/// the two timings, `larger_ms` — two runs of *that* length disagree by as
/// much.
pub fn fmt_delta(delta_ms: f64, larger_ms: f64, floor: f64) -> String {
    if inside_floor(delta_ms, larger_ms, floor) {
        format!(
            "inconclusive ({delta_ms:+.2} ms is inside the {:.2} ms floor)",
            floor * larger_ms
        )
    } else {
        format!("{delta_ms:+.2} ms")
    }
}

/// Why a ladder rung of `delta` (the slowdown of a configuration minus that
/// of the one before it, any unit) says nothing, or `None` when it is
/// measurable: it is inside the noise floor of the larger of the two; or it
/// is negative, when a rung adds work; or `per_round`, the same difference
/// round by round, is not positive from its lower quartile up, so the rounds
/// disagree on its sign.
pub fn rung_noise(delta: f64, larger: f64, floor: f64, per_round: &[f64]) -> Option<&'static str> {
    if inside_floor(delta, larger, floor) {
        Some("inside the noise floor")
    } else if delta < 0.0 {
        Some("a rung adds work, a negative one is noise")
    } else if summarize(per_round).is_some_and(|s| s.q1 <= 0.0) {
        Some("the rounds disagree on its sign")
    } else {
        None
    }
}

/// One-line rendering of a summary.
pub fn fmt_summary(s: &Summary, unit: &str) -> String {
    format!(
        "median {:.2} q1 {:.2} q3 {:.2} min {:.2} {unit} (n={})",
        s.median, s.q1, s.q3, s.min, s.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min), (10, 1.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5], clamped
        // here to the sample range.
        let s = summarize(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 15.0, 20.0));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn gated_is_the_minimum_and_a_slowdown_keeps_its_base() {
        assert_eq!(gated(&[100.0, 90.0, 400.0]), 90.0);
        assert_eq!(gated(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let r = Ratio {
            x: 2.5,
            base_ms: 100.0,
        };
        assert_eq!(fmt_slowdown(r), "2.500x of 100.0 ms");
    }

    #[test]
    fn below_one_and_inside_the_floor_print_inconclusive() {
        let r = Ratio {
            x: 0.9,
            base_ms: 100.0,
        };
        assert!(fmt_slowdown(r).starts_with("inconclusive"));
        // floor 2 % of a 100 ms base = 2 ms
        assert!(fmt_delta(1.5, 100.0, 0.02).starts_with("inconclusive"));
        assert!(fmt_delta(-1.5, 100.0, 0.02).starts_with("inconclusive"));
        assert_eq!(fmt_delta(3.0, 100.0, 0.02), "+3.00 ms");
        assert_eq!(fmt_delta(-3.0, 100.0, 0.02), "-3.00 ms");
        let steady = [2.0, 3.0, 4.0, 3.0];
        assert_eq!(rung_noise(3.0, 100.0, 0.02, &steady), None);
        assert!(rung_noise(1.0, 100.0, 0.02, &steady).is_some());
        assert!(rung_noise(-3.0, 100.0, 0.02, &[-3.0, -2.0, -4.0]).is_some());
        // Large, but one round of four says the opposite.
        assert!(rung_noise(3.0, 100.0, 0.02, &[-5.0, 3.0, 3.0, 4.0]).is_some());
    }

    #[test]
    fn aa_floor_is_the_median_pair_gap() {
        let pairs = [(100.0, 101.0), (100.0, 110.0), (105.0, 100.0)];
        assert!((aa_floor(&pairs) - 0.05).abs() < 1e-12);
        assert_eq!(aa_floor(&[]), 0.0);
    }
}
