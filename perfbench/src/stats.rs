//! The benchmark's own statistics: percentiles, the "highest percentile the
//! sample supports" rule, the open-loop latency rule, the `max_rate_rps`
//! search and metric-name validation. Everything here is pure so the unit
//! tests at the bottom pin it without timing anything.

use std::time::{Duration, Instant};

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice: every caller measured at least one sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile (as a fraction) that still has at least
/// [`TAIL_SAMPLES`] samples strictly beyond it in a sample of `n`, or
/// `None` when the sample is too small to support any tail.
///
/// With nearest rank, percentile `q` picks sample `ceil(q n)`, leaving
/// `n - ceil(q n)` samples above it; the answer is therefore
/// `(n - TAIL_SAMPLES) / n`.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// A timing summary: the count, the median, and the highest percentile
/// with [`TAIL_SAMPLES`] samples beyond it when that lies above the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(q, value)` of the highest supported percentile, if above p50.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = highest_supported_percentile(sorted.len())
            .filter(|&q| q > 0.5)
            .map(|q| (q, percentile(&sorted, q)));
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail,
        }
    }

    /// `n=… p50=… p<q>=…` for the human-readable lines.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!("p{:.2}={v:.4}{unit}", q * 100.0),
            None => "too few samples for a tail".to_string(),
        };
        format!("n={} p50={:.4}{unit} {tail}", self.n, self.p50)
    }
}

/// One request of an open-loop run, timed from when it was **due**, not
/// from when the generator got round to sending it: a stall in the
/// generator or the service then shows as latency on every request it
/// delayed.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    /// When the schedule said the request should be sent.
    pub due: Instant,
    /// When it was actually submitted.
    pub sent: Instant,
    /// When its response arrived.
    pub done: Instant,
}

impl OpenLoopSample {
    /// Latency from due time to response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// The due time of request `i` at `rate` requests/second from `start`.
pub fn due_time(start: Instant, rate: f64, i: usize) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Requests of a step still unanswered `limit` after the step's last due
/// time: a queue that kept up has drained by then.
pub fn backlog_at_end(samples: &[OpenLoopSample], limit: Duration) -> usize {
    let Some(last_due) = samples.iter().map(|s| s.due).max() else {
        return 0;
    };
    let cutoff = last_due + limit;
    samples.iter().filter(|s| s.done > cutoff).count()
}

/// What one open-loop step at a fixed rate showed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepVerdict {
    /// p99 latency from due time, in milliseconds.
    pub p99_ms: f64,
    /// Requests still unanswered at the end of the step.
    pub backlog: usize,
}

impl StepVerdict {
    /// Whether the step met the latency limit with no backlog.
    pub fn sustained(&self, limit_ms: f64) -> bool {
        self.p99_ms <= limit_ms && self.backlog == 0
    }
}

/// Bisection for the highest offered rate the system sustains: `lo` is
/// the lower end of the search, `hi` the upper, and `probe` runs one step
/// at a rate. When `lo` itself fails the search walks down by halves, at
/// most `max_halvings` times (the last rate tried is returned if none
/// passes); when `hi` passes it is returned. Otherwise `iterations`
/// bisection steps follow and the highest rate seen to pass is returned.
pub fn max_sustained_rate<F>(
    mut lo: f64,
    mut hi: f64,
    limit_ms: f64,
    (max_halvings, iterations): (usize, usize),
    mut probe: F,
) -> f64
where
    F: FnMut(f64) -> StepVerdict,
{
    let mut halvings = 0;
    while !probe(lo).sustained(limit_ms) {
        if halvings == max_halvings {
            return lo;
        }
        hi = lo;
        lo /= 2.0;
        halvings += 1;
    }
    if probe(hi).sustained(limit_ms) {
        return hi;
    }
    for _ in 0..iterations {
        let mid = (lo + hi) / 2.0;
        if probe(mid).sustained(limit_ms) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether `name` is a valid metric name: non-empty `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        for n in [11, 52, 104, 1000, 2000, 6001] {
            let q = highest_supported_percentile(n).unwrap();
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let at = percentile(&v, q);
            let beyond = v.iter().filter(|&&x| x > at).count();
            assert_eq!(beyond, TAIL_SAMPLES, "n={n}");
        }
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        let s = Summary::of(&(1..=52).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.tail), (52, Some((42.0 / 52.0, 42.0))));
        // Fifteen samples support no percentile above the median.
        let s = Summary::of(&(1..=15).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p50, s.tail), (8.0, None));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // A generator stall of 30 ms delays request 1 and 2; their latency
        // includes the stall even though the service answered each within
        // 1 ms of receiving it.
        let t0 = Instant::now();
        let due: Vec<Instant> = (0..3).map(|i| due_time(t0, 100.0, i)).collect();
        assert_eq!(due[1] - due[0], ms(10));
        let sent = [due[0], due[0] + ms(30), due[0] + ms(30)];
        let samples: Vec<OpenLoopSample> = (0..3)
            .map(|i| OpenLoopSample {
                due: due[i],
                sent: sent[i],
                done: sent[i] + ms(1),
            })
            .collect();
        let lat: Vec<u128> = samples.iter().map(|s| s.latency().as_millis()).collect();
        assert_eq!(lat, vec![1, 21, 11]);
        assert_eq!(samples[1].lateness(), ms(20));
        // Done 31 ms after the first due time, 11 ms after the last due
        // time: two requests are past a 10 ms limit only if they finish
        // later than last due + 10 ms.
        assert_eq!(backlog_at_end(&samples, ms(10)), 2);
        assert_eq!(backlog_at_end(&samples, ms(12)), 0);
    }

    #[test]
    fn max_rate_search_brackets_the_capacity() {
        // A fake system that sustains anything up to 2600 req/s.
        let capacity = 2600.0;
        let probe = |rate: f64| StepVerdict {
            p99_ms: if rate <= capacity { 4.0 } else { 40.0 },
            backlog: usize::from(rate > capacity),
        };
        let found = max_sustained_rate(1000.0, 4000.0, 10.0, (2, 8), probe);
        assert!(found <= capacity && capacity - found < 3000.0 / 256.0 * 2.0);
        // The upper end passing is returned as is.
        assert_eq!(
            max_sustained_rate(1000.0, 2000.0, 10.0, (2, 8), probe),
            2000.0
        );
        // A lower end that fails walks down.
        let found = max_sustained_rate(8000.0, 9000.0, 10.0, (2, 8), probe);
        assert!(found <= capacity && found > capacity / 2.0);
        // A backlog fails a step even when p99 is within the limit, and the
        // walk down stops after the allowed halvings.
        let mut tried = Vec::new();
        let backlogged = |rate: f64| {
            tried.push(rate);
            StepVerdict {
                p99_ms: 1.0,
                backlog: 3,
            }
        };
        assert_eq!(
            max_sustained_rate(1000.0, 2000.0, 10.0, (2, 3), backlogged),
            250.0
        );
        assert_eq!(tried, vec![1000.0, 500.0, 250.0]);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "wall_s",
            "p99_ms",
            "tensor.conv2d_prepacked.gflop",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "p99 ms", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
