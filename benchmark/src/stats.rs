//! Statistics for the benchmark: exact order statistics over raw samples
//! (never histogram bucket ceilings), the "highest percentile the sample
//! supports" rule, and median / quartiles across runs.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it. Exact —
/// the result is always one of the samples.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Tail percentiles a latency report may name, highest first.
const TAILS: [(f64, &str); 5] = [
    (99.0, "p99"),
    (95.0, "p95"),
    (90.0, "p90"),
    (75.0, "p75"),
    (50.0, "p50"),
];

/// The highest percentile, not above `cap`, with at least ten samples
/// beyond it, with its name (`p99` needs 1000 samples, `p95` 200, `p90`
/// 100, `p75` 40, `p50` 20). `None` below 20 samples: not even a median is
/// supported.
pub fn supported_tail(n: usize, cap: f64) -> Option<(f64, &'static str)> {
    TAILS
        .into_iter()
        .find(|(p, _)| *p <= cap && (n as f64) * (100.0 - p) / 100.0 >= 10.0)
}

/// The tail percentile the end-to-end latency metric reports. Not p99:
/// with a writer thread beside the reader on two cores, `corpus-churn`'s
/// p99 is a few scheduler time slices and spread by 27–38 % between
/// identical runs, which no bound can hold; p95 holds 10 %. The p99 of the
/// whole phase is kept in every result's notes.
pub const GATED_TAIL: f64 = 95.0;

/// Median and supported tail of a latency sample, in the sample's unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// `(name, value)`, e.g. `("p99", 812.0)`; `None` below 20 samples.
    pub tail: Option<(&'static str, f64)>,
    /// The exact order statistic at the cap whatever the sample size; only
    /// to be reported beside a warning when `tail` fell short of the cap.
    pub at_cap: f64,
}

/// Summarises nanosecond samples as microseconds: the median and the
/// highest supported percentile up to `cap`. Sorts in place.
pub fn latency_us(samples_ns: &mut [u32], cap: f64) -> Option<Latency> {
    if samples_ns.is_empty() {
        return None;
    }
    samples_ns.sort_unstable();
    let us = |ns: u32| f64::from(ns) / 1e3;
    Some(Latency {
        n: samples_ns.len(),
        p50: us(percentile(samples_ns, 50.0)),
        tail: supported_tail(samples_ns.len(), cap)
            .map(|(p, name)| (name, us(percentile(samples_ns, p)))),
        at_cap: us(percentile(samples_ns, cap)),
    })
}

/// A timed phase summarised over consecutive windows: the phase's samples,
/// in completion order, are cut into up to 15 chunks of at least 200
/// samples (ten beyond a p95) and at least [`MIN_WINDOW_S`] seconds, each
/// chunk gets its own
/// throughput and percentiles, and the phase reports the **median chunk**.
/// The sandbox stalls for milliseconds now and then; a stall spoils the
/// chunk it falls in, not the run's figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    /// Median over the chunks of (requests ÷ chunk duration).
    pub throughput_qps: f64,
    /// Median over the chunks of each percentile; `n` is all samples.
    pub latency: Latency,
}

/// A window is at least this long, so that each holds a whole rotation of
/// `corpus-churn`'s writer (8 documents at 4 writes/s): windows that
/// alternate between holding the big document's replace and not would make
/// the median window flip between two kinds.
pub const MIN_WINDOW_S: f64 = 2.0;

/// Summarises `(completion time in µs from the phase's start, latency in
/// ns)` pairs. Sorts in place.
pub fn windowed(samples: &mut [(u32, u32)]) -> Option<Windowed> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let seconds = f64::from(samples[n - 1].0) / 1e6;
    let windows = (n / 200)
        .min((seconds / MIN_WINDOW_S) as usize)
        .clamp(1, 15);
    let (mut rates, mut p50s, mut tails, mut caps) = (vec![], vec![], vec![], vec![]);
    let mut tail_name = None;
    let mut from_us = 0u32;
    for w in 0..windows {
        let chunk = &samples[w * n / windows..(w + 1) * n / windows];
        let until_us = chunk[chunk.len() - 1].0;
        let seconds = f64::from(until_us.saturating_sub(from_us).max(1)) / 1e6;
        rates.push(chunk.len() as f64 / seconds);
        from_us = until_us;
        let mut ns: Vec<u32> = chunk.iter().map(|s| s.1).collect();
        let lat = latency_us(&mut ns, GATED_TAIL).expect("chunks are non-empty");
        p50s.push(lat.p50);
        caps.push(lat.at_cap);
        // Chunk sizes differ by at most one, so they support the same tail.
        if let Some((name, value)) = lat.tail {
            tail_name = Some(name);
            tails.push(value);
        }
    }
    Some(Windowed {
        windows,
        throughput_qps: median(&rates),
        latency: Latency {
            n,
            p50: median(&p50s),
            tail: tail_name.map(|name| (name, median(&tails))),
            at_cap: median(&caps),
        },
    })
}

/// Saturating nanoseconds-as-`u32` (4.29 s ceiling; every request here is
/// far below it, and a saturated sample still sorts last).
pub fn ns_u32(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Median across runs (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile across runs, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method:
/// positions `(len + 1) * k / 4`, linear interpolation). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median — the run-to-run spread the
/// bounds in `BENCHMARK.json` are checked against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        // Nearest rank rounds the rank up: 5 samples, p50 is the 3rd.
        assert_eq!(percentile(&[10u32, 20, 30, 40, 50], 50.0), 30);
        assert_eq!(percentile(&[10u32, 20, 30, 40], 50.0), 20);
    }

    /// The case `xwq bench` gets wrong today: 75 samples of 5–6 ms fall
    /// into one log2 bucket and report its ceiling, `p50_ns: 8388607`.
    #[test]
    fn seventy_five_samples_report_a_sample_not_a_bucket_ceiling() {
        let mut samples: Vec<u32> = (0..75)
            .map(|i| 5_000_000 + 13_337 * ((i * 31) % 75))
            .collect();
        let lat = latency_us(&mut samples, 99.0).expect("non-empty");
        assert_eq!(lat.n, 75);
        // Sorted, the samples are 5_000_000 + 13_337 * k for k in 0..75;
        // the median is the 38th (k = 37).
        assert_eq!(lat.p50, (5_000_000.0 + 13_337.0 * 37.0) / 1e3);
        assert_ne!(lat.p50, 8_388.607);
        // 75 samples support p75 (18 beyond), not p90 (7 beyond).
        let (name, value) = lat.tail.expect("75 samples support a tail");
        assert_eq!(name, "p75");
        assert_eq!(value, (5_000_000.0 + 13_337.0 * 56.0) / 1e3);
    }

    #[test]
    fn a_stall_spoils_its_window_not_the_phase() {
        // 15 000 requests of 100 µs, one every 1000 µs (15 s); 300
        // consecutive ones hit a 50 ms stall.
        let mut samples: Vec<(u32, u32)> = (0..15_000u32)
            .map(|i| {
                let stalled = (7_000..7_300).contains(&i);
                (1000 * (i + 1), if stalled { 50_000_000 } else { 100_000 })
            })
            .collect();
        let mut whole: Vec<u32> = samples.iter().map(|s| s.1).collect();
        assert_eq!(
            latency_us(&mut whole, 99.0).unwrap().tail,
            Some(("p99", 50_000.0))
        );
        let w = windowed(&mut samples).expect("non-empty");
        assert_eq!(w.windows, 7); // 15 s in windows of at least 2 s
        assert_eq!(w.latency.n, 15_000);
        assert_eq!(w.latency.p50, 100.0);
        assert_eq!(w.latency.tail, Some(("p95", 100.0)));
        assert!((w.throughput_qps - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn few_samples_make_one_window_and_an_honest_tail() {
        let mut samples: Vec<(u32, u32)> = (0..500u32)
            .map(|i| (2000 * (i + 1), 1000 * (i + 1)))
            .collect();
        let w = windowed(&mut samples).expect("non-empty");
        assert_eq!(w.windows, 1); // 1 s, 500 samples
        assert_eq!(w.latency.tail, Some(("p95", 475.0)));
        samples.truncate(150);
        assert_eq!(
            windowed(&mut samples).unwrap().latency.tail,
            Some(("p90", 135.0))
        );
        assert_eq!(w.latency.p50, 250.0);
        assert!((w.throughput_qps - 500.0).abs() < 1e-6);
        assert_eq!(windowed(&mut []), None);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        let name = |n: usize, cap: f64| supported_tail(n, cap).map(|t| t.1);
        assert_eq!(name(19, 99.0), None);
        assert_eq!(name(20, 99.0), Some("p50"));
        assert_eq!(name(39, 99.0), Some("p50"));
        assert_eq!(name(40, 99.0), Some("p75"));
        assert_eq!(name(100, 99.0), Some("p90"));
        assert_eq!(name(199, 99.0), Some("p90"));
        assert_eq!(name(200, 99.0), Some("p95"));
        assert_eq!(name(999, 99.0), Some("p95"));
        assert_eq!(name(1000, 99.0), Some("p99"));
        assert_eq!(name(100_000, GATED_TAIL), Some("p95"));
        assert_eq!(name(150, GATED_TAIL), Some("p90"));
    }

    #[test]
    fn median_across_runs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    /// Values checked against CPython 3.11:
    /// `statistics.quantiles([1..10], n=4)` = `[2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([10, 20, 30, 40, 50], n=4)` = `[15.0, 30.0, 45.0]`,
    /// `statistics.quantiles([1, 2], n=4)` = `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
