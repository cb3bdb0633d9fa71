//! Order statistics and the benchmark-owned FCT digest.
#![forbid(unsafe_code)]

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when there is nothing to divide by (an idle layer).
pub fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Smallest and largest of `xs`.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// A tail statistic with the percentile it was actually read at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile reported: the one asked for when the sample supports
    /// it, otherwise the highest with [`TAIL_SUPPORT`] samples beyond it
    /// (never below the median).
    pub percentile: f64,
    pub n: usize,
}

/// Nearest-rank percentile `p` (0..100) of ascending `sorted`, lowered until
/// at least [`TAIL_SUPPORT`] samples lie beyond it. An empty sample gives 0.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: p,
            n,
        };
    }
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let mut r = rank(p);
    if n - r < TAIL_SUPPORT {
        r = n.saturating_sub(TAIL_SUPPORT).max(rank(50.0)).min(r);
    }
    Tail {
        value: sorted[r - 1],
        percentile: if r == rank(p) {
            p
        } else {
            100.0 * r as f64 / n as f64
        },
        n,
    }
}

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One flow as the digest and the FCT statistics see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRec {
    pub id: u64,
    pub bytes: u64,
    pub start_ps: u64,
    /// `None` while the flow is unfinished at the horizon.
    pub end_ps: Option<u64>,
}

/// 64-bit digest of a run's flow outcomes: (id, bytes, start, finish) of
/// every flow, in id order. Two runs with the same digest gave every flow
/// the same completion time to the picosecond.
pub fn fct_digest(flows: &[FlowRec]) -> u64 {
    let mut sorted: Vec<&FlowRec> = flows.iter().collect();
    sorted.sort_by_key(|f| f.id);
    let mut h = mix64(sorted.len() as u64);
    for f in sorted {
        for x in [f.id, f.bytes, f.start_ps, f.end_ps.unwrap_or(u64::MAX)] {
            h = mix64(h ^ x);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn p99_is_reported_only_with_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // 1100 samples: rank 1089, 11 beyond -> a true p99.
        let t = tail_percentile(&xs(1100), 99.0);
        assert_eq!((t.value, t.percentile), (1089.0, 99.0));
        // 1000 samples: rank 990 leaves exactly 10 beyond -> still p99.
        assert_eq!(tail_percentile(&xs(1000), 99.0).percentile, 99.0);
        // 500 samples: p99 would leave 5 beyond; lowered to rank 490 = p98.
        let t = tail_percentile(&xs(500), 99.0);
        assert_eq!((t.value, t.percentile, t.n), (490.0, 98.0, 500));
        // 15 samples: ten beyond would be below the median; stops there.
        let t = tail_percentile(&xs(15), 99.0);
        assert_eq!(t.value, 8.0);
        assert_eq!(tail_percentile(&[], 99.0).value, 0.0);
    }

    #[test]
    fn digest_changes_when_one_fct_changes_and_ignores_order() {
        let mut flows: Vec<FlowRec> = (0..50)
            .map(|i| FlowRec {
                id: i,
                bytes: 1000 + i,
                start_ps: i * 10,
                end_ps: Some(i * 10 + 5000),
            })
            .collect();
        let base = fct_digest(&flows);
        flows.reverse();
        assert_eq!(fct_digest(&flows), base, "order of arrival is irrelevant");
        flows[17].end_ps = Some(flows[17].end_ps.unwrap() + 1);
        assert_ne!(fct_digest(&flows), base, "one picosecond must show");
        flows[17].end_ps = None;
        assert_ne!(fct_digest(&flows), base, "an unfinished flow must show");
    }
}
