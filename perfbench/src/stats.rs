//! The benchmark's own statistics: nearest-rank percentiles, the "at least
//! ten samples beyond" tail, the serve rate ladder and its backlog rule, and
//! open-loop lag accounting. Everything here is a pure function of its
//! samples so the rules can be tested on synthetic data.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(p * n)`. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5).unwrap_or(0.0)
}

/// Median estimated as the mean of the central 10% of an ascending sample
/// (ranks from the 45th to the 55th percentile, at least one value). Where
/// the sample is a mix of well-separated groups, as attack times stratified
/// by key count are, a single middle order statistic jumps across the gap
/// between two groups from run to run; the central mean moves smoothly.
pub fn central_median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let lo = (n * 45 / 100).min(n - 1);
    let hi = (n * 55).div_ceil(100).clamp(lo + 1, n);
    let window = &sorted[lo..hi];
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

/// A tail latency and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in (0, 1).
    pub percentile: f64,
    /// Sample value at that percentile.
    pub value: f64,
}

/// The highest nearest-rank percentile with at least `beyond` samples above
/// its rank, and the value there. `None` when the sample has no more than
/// `beyond` values.
pub fn tail(sorted: &[f64], beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond;
    Some(Tail {
        percentile: rank as f64 / n as f64,
        value: sorted[rank - 1],
    })
}

/// One request of an open-loop schedule, in nanoseconds since the level's
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub scheduled_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
}

impl Timed {
    /// Latency counted from the scheduled send time, so a generator held up
    /// by a slow reply charges the delay to the system, not to the client.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.scheduled_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.scheduled_ns) as f64 / 1e6
    }
}

/// Latencies of `samples` in schedule order.
pub fn latencies_ms(samples: &[Timed]) -> Vec<f64> {
    let mut by_schedule = samples.to_vec();
    by_schedule.sort_by_key(|s| s.scheduled_ns);
    by_schedule.iter().map(Timed::latency_ms).collect()
}

/// Generator lag: nearest-rank median and maximum, in milliseconds.
pub fn lag_ms(samples: &[Timed]) -> (f64, f64) {
    let lags: Vec<f64> = samples.iter().map(Timed::lag_ms).collect();
    (median(&lags), lags.iter().copied().fold(0.0, f64::max))
}

/// True when latencies (in schedule order) show a queue that keeps
/// growing: the median of the last quarter exceeds twice the median of the
/// first quarter and by more than `slack_ms`.
pub fn backlog_growing(latencies_in_schedule_order: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_schedule_order.len();
    if n < 8 {
        return false;
    }
    let first = median(&latencies_in_schedule_order[..n / 4]);
    let last = median(&latencies_in_schedule_order[n - n / 4..]);
    last > 2.0 * first && last - first > slack_ms
}

/// Outcome of one rate level.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// Offered rate in requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered with anything but a prediction.
    pub failed: usize,
    /// Tail latency of the answered requests (`None`: too few samples).
    pub tail: Option<Tail>,
    /// Whether the level's queue kept growing.
    pub backlog: bool,
}

impl Level {
    /// A level meets the limit when nothing failed, the backlog did not
    /// grow, and the tail is within `limit_ms`.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && !self.backlog && self.tail.is_some_and(|t| t.value <= limit_ms)
    }
}

/// Search for the highest sustainable rate: geometric steps up from
/// `start` until a level fails (or `cap` is reached), then `refine`
/// geometric bisections between the best passing and the lowest failing
/// rate.
#[derive(Debug, Clone)]
pub struct Ladder {
    growth: f64,
    cap: f64,
    refine: usize,
    next: Option<f64>,
    /// Best passing and lowest failing rate, each with its tail.
    best_pass: Option<(f64, f64)>,
    lowest_fail: Option<(f64, f64)>,
    bisections: usize,
}

impl Ladder {
    /// A ladder whose first rung is `start`.
    pub fn new(start: f64, growth: f64, cap: f64, refine: usize) -> Self {
        assert!(growth > 1.0 && start > 0.0 && cap >= start);
        Ladder {
            growth,
            cap,
            refine,
            next: Some(start),
            best_pass: None,
            lowest_fail: None,
            bisections: 0,
        }
    }

    /// The next rate to offer, or `None` once the search is over.
    pub fn next_rate(&self) -> Option<f64> {
        self.next
    }

    /// Records the verdict and tail latency for the rate last returned by
    /// [`Ladder::next_rate`] and picks the next rung.
    pub fn record(&mut self, rate: f64, passed: bool, tail_ms: f64) {
        if passed {
            if self.best_pass.is_none_or(|(r, _)| rate > r) {
                self.best_pass = Some((rate, tail_ms));
            }
        } else if self.lowest_fail.is_none_or(|(r, _)| rate < r) {
            self.lowest_fail = Some((rate, tail_ms));
        }
        self.next = match (self.best_pass, self.lowest_fail) {
            (_, None) => Some(rate * self.growth).filter(|&r| r <= self.cap),
            (None, Some(_)) => None,
            (Some((lo, _)), Some((hi, _))) => {
                if self.bisections >= self.refine {
                    None
                } else {
                    self.bisections += 1;
                    Some((lo * hi).sqrt())
                }
            }
        };
    }

    /// The highest rate that passed.
    pub fn max_rate(&self) -> Option<f64> {
        self.best_pass.map(|(r, _)| r)
    }

    /// Where the tail crosses `limit_ms` between the highest passing and
    /// the lowest failing rate, interpolated geometrically in rate and
    /// linearly in tail: a continuous estimate of the highest sustainable
    /// rate, never below [`Ladder::max_rate`] and never at or above the
    /// failing rate's. `None` when nothing passed.
    pub fn crossing(&self, limit_ms: f64) -> Option<f64> {
        let (lo, tail_lo) = self.best_pass?;
        let Some((hi, tail_hi)) = self.lowest_fail else {
            return Some(lo);
        };
        let f = if tail_hi > limit_ms && tail_hi > tail_lo {
            ((limit_ms - tail_lo) / (tail_hi - tail_lo)).clamp(0.0, 1.0)
        } else {
            // Failed on errors or backlog with the tail still in bounds.
            0.0
        };
        Some(lo * (hi / lo).powf(f * 0.999))
    }
}

/// Whether a model's squared errors are no worse than a baseline's on the
/// same instances, allowing for sampling noise: the mean of the paired
/// differences `model - baseline` must not exceed two standard errors.
/// On a test set of a few dozen instances the point comparison alone flips
/// with the draw; a model that is worse everywhere still fails. Non-finite
/// errors fail.
pub fn no_worse_than(model_sq: &[f64], baseline_sq: &[f64]) -> bool {
    assert_eq!(model_sq.len(), baseline_sq.len());
    let n = model_sq.len() as f64;
    let d: Vec<f64> = model_sq
        .iter()
        .zip(baseline_sq)
        .map(|(m, b)| m - b)
        .collect();
    if n < 2.0 || d.iter().any(|x| !x.is_finite()) {
        return false;
    }
    let mean = d.iter().sum::<f64>() / n;
    let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    mean <= 2.0 * (var / n).sqrt()
}

/// SplitMix64 step: derives independent sub-seeds from one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.991), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.9), Some(7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.5), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn central_median_averages_the_middle_tenth() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 46..=55.
        assert_eq!(central_median(&v), Some(50.5));
        assert_eq!(central_median(&[4.0]), Some(4.0));
        assert_eq!(central_median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(central_median(&[]), None);
        // Two separated groups of equal size: the estimate sits between
        // them and barely moves when one value crosses the middle, where
        // the nearest-rank median jumps from one group to the other.
        let mut groups: Vec<f64> = (0..50).map(|i| 10.0 + i as f64 * 0.01).collect();
        groups.extend((0..50).map(|i| 20.0 + i as f64 * 0.01));
        let mut shifted = groups.clone();
        shifted[0] = 25.0;
        let shifted = sorted(&shifted);
        let (a, b) = (
            central_median(&groups).unwrap(),
            central_median(&shifted).unwrap(),
        );
        assert!((a - b).abs() < 1.1, "{a} vs {b}");
        let jump = nearest_rank(&shifted, 0.5).unwrap() - nearest_rank(&groups, 0.5).unwrap();
        assert!(jump > 9.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&v, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 390.0);
        assert!((t.percentile - 0.975).abs() < 1e-12);
        // Ten values lie strictly above the tail value.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // The nearest-rank percentile at that point gives the same value.
        assert_eq!(nearest_rank(&v, t.percentile), Some(t.value));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, TAIL_BEYOND).unwrap().percentile, 0.99);
        assert_eq!(tail(&v[..10], TAIL_BEYOND), None);
        assert_eq!(tail(&v[..11], TAIL_BEYOND).unwrap().value, 1.0);
    }

    #[test]
    fn backlog_rule_needs_growth_and_slack() {
        let flat = vec![2.0; 100];
        assert!(!backlog_growing(&flat, 5.0));
        let growing: Vec<f64> = (0..100).map(|i| 2.0 + i as f64).collect();
        assert!(backlog_growing(&growing, 5.0));
        // Doubling below the slack is jitter, not a backlog.
        let small: Vec<f64> = (0..100).map(|i| 0.5 + i as f64 * 0.03).collect();
        assert!(!backlog_growing(&small, 5.0));
        assert!(!backlog_growing(&[1.0, 100.0], 5.0));
    }

    fn level(rate: f64, failed: usize, tail_ms: f64, backlog: bool) -> Level {
        Level {
            rate,
            sent: 100,
            failed,
            tail: Some(Tail {
                percentile: 0.9,
                value: tail_ms,
            }),
            backlog,
        }
    }

    #[test]
    fn a_level_passes_only_clean_and_within_limit() {
        assert!(level(100.0, 0, 20.0, false).passes(20.0));
        assert!(!level(100.0, 0, 20.1, false).passes(20.0));
        assert!(!level(100.0, 1, 1.0, false).passes(20.0));
        assert!(!level(100.0, 0, 1.0, true).passes(20.0));
        let mut no_tail = level(100.0, 0, 1.0, false);
        no_tail.tail = None;
        assert!(!no_tail.passes(20.0));
    }

    /// Drives a ladder against a synthetic system that sustains `capacity`;
    /// its tail is 5 ms below capacity and grows with the excess above.
    fn search(capacity: f64, refine: usize) -> (Option<f64>, Vec<f64>) {
        let (ladder, offered) = drive(capacity, refine);
        (ladder.max_rate(), offered)
    }

    fn drive(capacity: f64, refine: usize) -> (Ladder, Vec<f64>) {
        let mut ladder = Ladder::new(100.0, 2.0, 10_000.0, refine);
        let mut offered = Vec::new();
        while let Some(rate) = ladder.next_rate() {
            offered.push(rate);
            let tail = 5.0 + (rate - capacity).max(0.0);
            ladder.record(rate, rate <= capacity, tail);
        }
        (ladder, offered)
    }

    #[test]
    fn ladder_climbs_then_bisects() {
        let (max, offered) = search(500.0, 0);
        assert_eq!(max, Some(400.0));
        assert_eq!(offered, vec![100.0, 200.0, 400.0, 800.0]);
        let (max, offered) = search(500.0, 2);
        // Bisections between 400 and 800: sqrt(400*800)=565.7 fails,
        // sqrt(400*565.7)=475.7 passes.
        assert_eq!(offered.len(), 6);
        assert!((max.unwrap() - (400.0f64 * (400.0f64 * 800.0).sqrt()).sqrt()).abs() < 1e-9);
        assert!(max.unwrap() <= 500.0);
    }

    #[test]
    fn crossing_interpolates_between_pass_and_fail() {
        // 400 passes (tail 5), 800 fails (tail 305): limit 20 is 5% of the
        // way up in tail, so 5% of the way up in log-rate.
        let (ladder, _) = drive(500.0, 0);
        let x = ladder.crossing(20.0).unwrap();
        let expect = 400.0 * 2.0f64.powf(0.05 * 0.999);
        assert!((x - expect).abs() < 1e-9, "{x} vs {expect}");
        assert!(x > 400.0 && x < 800.0);
        // A failing rung whose tail stayed in bounds contributes nothing.
        let mut l = Ladder::new(100.0, 2.0, 1000.0, 0);
        l.record(100.0, true, 3.0);
        l.record(200.0, false, 4.0);
        assert_eq!(l.crossing(20.0), Some(100.0));
        // Nothing passed; everything passed.
        let mut l = Ladder::new(100.0, 2.0, 1000.0, 0);
        l.record(100.0, false, 50.0);
        assert_eq!(l.crossing(20.0), None);
        let (l, _) = drive(1e9, 0);
        assert_eq!(l.crossing(20.0), Some(6400.0));
    }

    #[test]
    fn ladder_edges() {
        // Nothing passes: no rate.
        assert_eq!(search(50.0, 3).0, None);
        // Everything passes: stops at the cap with the last rung.
        let (max, offered) = search(1e9, 3);
        assert_eq!(max, Some(6400.0));
        assert_eq!(*offered.last().unwrap(), 6400.0);
    }

    #[test]
    fn open_loop_lag_counts_against_latency() {
        // Requests due every 10 ms; the system stalls 50 ms on the second,
        // so the third is sent late and its latency includes the wait.
        let samples = [
            Timed {
                scheduled_ns: 0,
                sent_ns: 0,
                done_ns: 1_000_000,
            },
            Timed {
                scheduled_ns: 10_000_000,
                sent_ns: 10_000_000,
                done_ns: 60_000_000,
            },
            Timed {
                scheduled_ns: 20_000_000,
                sent_ns: 60_000_000,
                done_ns: 61_000_000,
            },
        ];
        assert_eq!(latencies_ms(&samples), vec![1.0, 50.0, 41.0]);
        let (p50, max) = lag_ms(&samples);
        assert_eq!(p50, 0.0);
        assert_eq!(max, 40.0);
        // Out-of-order completion keeps schedule order.
        let mut reversed = samples;
        reversed.reverse();
        assert_eq!(latencies_ms(&reversed), vec![1.0, 50.0, 41.0]);
    }

    #[test]
    fn no_worse_than_allows_noise_but_not_a_worse_model() {
        let base = [1.0, 0.5, 2.0, 0.1, 1.5, 0.8];
        // Better everywhere, equal, and slightly worse with mixed signs pass.
        assert!(no_worse_than(&base.map(|b| b * 0.5), &base));
        assert!(no_worse_than(&base, &base));
        let mixed = [1.3, 0.2, 2.4, 0.0, 1.6, 0.7];
        assert!(no_worse_than(&mixed, &base));
        // Worse on every instance fails, as does a non-finite error.
        assert!(!no_worse_than(&base.map(|b| b + 0.3), &base));
        assert!(!no_worse_than(&base.map(|b| b * 3.0), &base));
        let mut nan = base;
        nan[2] = f64::NAN;
        assert!(!no_worse_than(&nan, &base));
        assert!(!no_worse_than(&[0.0], &[1.0]));
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
