//! Order statistics shared by every workload.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_BEYOND: usize = 10;

/// Median of `values` (the mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail latency: the value, the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`TAIL_BEYOND`]
/// samples beyond it (nearest-rank). With too few samples for any of them
/// the maximum is reported, at percentile 100.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut best = Tail {
        value: sorted.last().copied().unwrap_or(0.0),
        percentile: 100.0,
        samples: n,
    };
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || n - rank < TAIL_BEYOND {
            break;
        }
        best = Tail {
            value: sorted[rank - 1],
            percentile: p,
            samples: n,
        };
    }
    best
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's seedable generator for workload inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Taillard generator seed (`1..2^31-1`) drawn from `state`.
pub fn taillard_seed(state: &mut u64) -> i64 {
    1 + (splitmix64(state) % 2_147_483_646) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 100.0);
        assert_eq!(tail(&few).value, 12.0);
    }
}
