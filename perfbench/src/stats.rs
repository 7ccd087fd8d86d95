//! Statistics used by every workload: medians, per-unit median rates,
//! each item's fastest repeat over a run's passes, a uniform sample of a
//! stream, and tail percentiles that are only reported where the sample
//! supports them.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The median over units of `work / secs`. One rate per unit, so a
/// co-tenant burst moves one sample, not the metric. `None` when there are
/// no units, a unit took no time, or a value is NaN.
pub fn median_rate(work: &[f64], secs: &[f64]) -> Option<f64> {
    if work.len() != secs.len() || secs.iter().any(|s| !(*s > 0.0)) {
        return None;
    }
    let rates: Vec<f64> = work.iter().zip(secs).map(|(w, s)| w / s).collect();
    median(&rates)
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A tail percentile that is backed by data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it (≥ [`TAIL_SAMPLES`]).
    pub beyond: usize,
}

/// The `pct`-th percentile of `xs` by nearest rank, lowered to the highest
/// percentile that still has at least [`TAIL_SAMPLES`] samples beyond it.
/// `None` when fewer than `TAIL_SAMPLES + 1` samples exist. `xs` is sorted
/// in place.
pub fn tail_percentile(xs: &mut [f64], pct: f64) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_SAMPLES || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = (rank - 1).min(n - 1 - TAIL_SAMPLES);
    Some(Tail {
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        value: xs[idx],
        beyond: n - 1 - idx,
    })
}

/// The fastest repeat of each item of a sequence that every pass of a run
/// replays in the same order: a window's or an epoch's time, or one
/// decision's latency. Co-tenant bursts only ever slow a repeat down, so an
/// item's fastest repeat is its least disturbed cost, and a run's figure no
/// longer depends on how much of it a burst happened to cover.
///
/// Items are stored in chunks of [`CHUNK`], so the memory it holds grows
/// in step with the number of items. One vector that doubled would make
/// `peak_rss_mb` jump by megabytes whenever a seed's decision count
/// crossed a power of two.
#[derive(Debug, Clone, Default)]
pub struct Fastest {
    chunks: Vec<Vec<f64>>,
    len: usize,
    next: usize,
}

/// Items per chunk of [`Fastest`].
pub const CHUNK: usize = 4096;

impl Fastest {
    /// Starts the next pass over the sequence.
    pub fn restart(&mut self) {
        self.next = 0;
    }

    /// Offers the time of the current pass's next item.
    pub fn push(&mut self, x: f64) {
        let (c, i) = (self.next / CHUNK, self.next % CHUNK);
        if self.next < self.len {
            let b = &mut self.chunks[c][i];
            *b = b.min(x);
        } else {
            if i == 0 {
                self.chunks.push(Vec::with_capacity(CHUNK));
            }
            self.chunks[c].push(x);
            self.len += 1;
        }
        self.next += 1;
    }

    /// Items seen so far.
    pub fn count(&self) -> usize {
        self.len
    }

    /// Each item's fastest time so far, in sequence order.
    pub fn values(&self) -> Vec<f64> {
        self.chunks.concat()
    }
}

/// A uniform sample of at most `cap` values from a stream of unknown
/// length (reservoir sampling), so a run's latency sample covers its whole
/// timed region instead of its first seconds. Deterministic.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    state: u64,
    pub samples: Vec<f64>,
}

impl Reservoir {
    /// Reserves room for all `cap` values up front, so the memory it holds
    /// does not depend on how many values a run offers.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            seen: 0,
            state: 0x853c_49e6_748f_ea9b,
            samples: Vec::with_capacity(cap),
        }
    }

    /// Offers one value; it is kept with probability `cap / seen`.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
            return;
        }
        // xorshift64*: cheap and good enough to pick a slot.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let j = r % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = x;
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// A run's decision latencies: each decision's fastest repeat over the
/// passes, whose median is `decision_us_p50`, and a uniform sample of
/// every timed decision, bursts included, whose tail is `decision_us_p99`.
/// The tail of the fastest repeats is no steadier: which decisions keep a
/// disturbed time in every repeat depends on how often bursts came.
#[derive(Debug, Clone)]
pub struct Latencies {
    pub fastest: Fastest,
    pub all: Reservoir,
}

impl Latencies {
    /// Keeps at most `cap` values in [`Latencies::all`].
    pub fn new(cap: usize) -> Self {
        Self {
            fastest: Fastest::default(),
            all: Reservoir::new(cap),
        }
    }

    /// Starts the next pass.
    pub fn restart(&mut self) {
        self.fastest.restart();
    }

    pub fn push(&mut self, x: f64) {
        self.fastest.push(x);
        self.all.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn median_rate_takes_the_median_of_unit_rates_not_the_total() {
        // Totals would give 300 / 4.5 = 66.7; the per-unit rates are 100,
        // 100 and 40, whose median is 100.
        let work = [100.0; 3];
        assert_eq!(median_rate(&work, &[1.0, 1.0, 2.5]), Some(100.0));
        // One unit slowed 100-fold does not move it.
        let mut secs = vec![1.0; 9];
        secs.push(100.0);
        assert_eq!(median_rate(&[100.0; 10], &secs), Some(100.0));
        // Zero-length units, mismatched lengths and NaN give no rate.
        assert_eq!(median_rate(&[5.0, 10.0], &[0.0, 2.0]), None);
        assert_eq!(median_rate(&[5.0], &[1.0, 2.0]), None);
        assert_eq!(median_rate(&[], &[]), None);
        assert_eq!(median_rate(&[f64::NAN], &[1.0]), None);
    }

    #[test]
    fn p99_is_reported_when_ten_samples_lie_beyond_it() {
        let mut xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail_percentile(&mut xs, 99.0).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
    }

    #[test]
    fn short_samples_fall_back_to_the_highest_supported_percentile() {
        // 100 samples: p99 would leave one sample beyond it, so the helper
        // reports p90 (rank 90), which leaves exactly ten.
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail_percentile(&mut xs, 99.0).unwrap();
        assert_eq!(t.beyond, TAIL_SAMPLES);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        // Exactly eleven samples: only the minimum has ten beyond it.
        let mut xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail_percentile(&mut xs, 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
        let mut few = vec![1.0; TAIL_SAMPLES];
        assert_eq!(tail_percentile(&mut few, 50.0), None);
    }

    #[test]
    fn fastest_keeps_each_items_best_repeat() {
        let mut f = Fastest::default();
        [3.0, 5.0, 7.0].into_iter().for_each(|x| f.push(x));
        f.restart();
        [4.0, 1.0, 9.0].into_iter().for_each(|x| f.push(x));
        f.restart();
        [2.0, 6.0].into_iter().for_each(|x| f.push(x));
        assert_eq!(f.values(), vec![2.0, 1.0, 7.0]);
        // A longer pass extends the sequence.
        f.restart();
        [9.0, 9.0, 9.0, 8.0].into_iter().for_each(|x| f.push(x));
        assert_eq!(f.values(), vec![2.0, 1.0, 7.0, 8.0]);
        assert!(Fastest::default().values().is_empty());
        // Across chunk boundaries.
        let mut long = Fastest::default();
        (0..2 * CHUNK + 3).for_each(|i| long.push((i + 1) as f64));
        long.restart();
        (0..2 * CHUNK + 3).for_each(|i| long.push(if i % 2 == 0 { 0.5 } else { 1e9 }));
        let v = long.values();
        assert_eq!((v.len(), long.count()), (2 * CHUNK + 3, 2 * CHUNK + 3));
        assert!(v
            .iter()
            .enumerate()
            .all(|(i, x)| *x == if i % 2 == 0 { 0.5 } else { (i + 1) as f64 }));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples.len(), 1000);
        assert_eq!(r.seen(), 100_000);
        // Uniform over the stream: the sample's median sits near the
        // stream's, not among the first values offered.
        let m = median(&r.samples).unwrap();
        assert!((35_000.0..65_000.0).contains(&m), "median {m}");
        let mut short = Reservoir::new(10);
        (0..5).for_each(|i| short.push(f64::from(i)));
        assert_eq!(short.samples, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn low_percentiles_are_unaffected_by_the_tail_rule() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&mut xs, 50.0).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 500.0));
    }
}
