//! Distributional trace analysis beyond Table 2's means: percentiles,
//! coefficients of variation, and histogram summaries of the quantities
//! that drive backfilling behaviour (runtimes, inter-arrivals, sizes,
//! overestimation factors).

use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Percentile summary of one quantity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Coefficient of variation (std/mean); > 1 indicates burstiness for
    /// inter-arrival gaps.
    pub cv: f64,
}

impl Quantiles {
    /// Computes the summary of a sample. Returns zeros for empty input.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
                p95: 0.0,
                max: 0.0,
                mean: 0.0,
                cv: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            let idx = (p * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self {
            min: sorted[0],
            p25: q(0.25),
            p50: q(0.50),
            p75: q(0.75),
            p95: q(0.95),
            max: *sorted.last().unwrap(),
            mean,
            cv: if mean.abs() > 1e-12 {
                var.sqrt() / mean
            } else {
                0.0
            },
        }
    }
}

/// Full distributional profile of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Actual runtimes, seconds.
    pub runtime: Quantiles,
    /// User-requested runtimes, seconds.
    pub request_time: Quantiles,
    /// Requested processors.
    pub procs: Quantiles,
    /// Inter-arrival gaps, seconds.
    pub interarrival: Quantiles,
    /// Per-job overestimation factor `request/actual` (1.0 when traces
    /// carry no user estimates).
    pub overestimation: Quantiles,
    /// Fraction of serial (1-processor) jobs.
    pub serial_fraction: f64,
    /// Fraction of power-of-two job sizes.
    pub pow2_fraction: f64,
}

impl TraceProfile {
    /// Profiles a trace.
    pub fn of(trace: &Trace) -> Self {
        let jobs = trace.jobs();
        let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime).collect();
        let requests: Vec<f64> = jobs.iter().map(|j| j.request_time).collect();
        let procs: Vec<f64> = jobs.iter().map(|j| j.procs as f64).collect();
        let gaps: Vec<f64> = jobs.windows(2).map(|w| w[1].submit - w[0].submit).collect();
        let over: Vec<f64> = jobs
            .iter()
            .map(|j| j.request_time / j.runtime.max(1e-9))
            .collect();
        let n = jobs.len().max(1) as f64;
        Self {
            runtime: Quantiles::of(&runtimes),
            request_time: Quantiles::of(&requests),
            procs: Quantiles::of(&procs),
            interarrival: Quantiles::of(&gaps),
            overestimation: Quantiles::of(&over),
            serial_fraction: jobs.iter().filter(|j| j.procs == 1).count() as f64 / n,
            pow2_fraction: jobs.iter().filter(|j| j.procs.is_power_of_two()).count() as f64 / n,
        }
    }
}

impl std::fmt::Display for TraceProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "quantity", "p25", "p50", "p75", "p95", "mean", "cv"
        )?;
        let mut row = |name: &str, q: &Quantiles| {
            writeln!(
                f,
                "{:<14} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.2}",
                name, q.p25, q.p50, q.p75, q.p95, q.mean, q.cv
            )
        };
        row("runtime", &self.runtime)?;
        row("request", &self.request_time)?;
        row("procs", &self.procs)?;
        row("interarrival", &self.interarrival)?;
        row("overestimate", &self.overestimation)?;
        writeln!(
            f,
            "serial jobs: {:.0}%   power-of-two sizes: {:.0}%",
            self.serial_fraction * 100.0,
            self.pow2_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::TracePreset;

    #[test]
    fn quantiles_of_known_sample() {
        let q = Quantiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.p50, 3.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.mean, 3.0);
        assert!(q.cv > 0.0);
    }

    #[test]
    fn quantiles_of_empty_sample_are_zero() {
        let q = Quantiles::of(&[]);
        assert_eq!(q.mean, 0.0);
        assert_eq!(q.cv, 0.0);
    }

    #[test]
    fn profile_of_empty_trace_is_all_zero_and_renders() {
        // Regression: the whole analysis path (quantiles, fractions, the
        // Display table) must survive a trace with no jobs rather than
        // panic on an empty sample.
        let trace = Trace::new("empty", 64, vec![]);
        let p = TraceProfile::of(&trace);
        assert_eq!(p.runtime, Quantiles::of(&[]));
        assert_eq!(p.interarrival, Quantiles::of(&[]));
        assert_eq!(p.serial_fraction, 0.0);
        assert_eq!(p.pow2_fraction, 0.0);
        assert!(p.to_string().contains("runtime"));
        // One job means no inter-arrival gaps — same guard, one level up.
        let one = Trace::new("one", 64, vec![crate::job::Job::new(0, 0.0, 4, 10.0, 10.0)]);
        assert_eq!(TraceProfile::of(&one).interarrival, Quantiles::of(&[]));
    }

    #[test]
    fn quantiles_are_monotone() {
        let trace = TracePreset::SdscSp2.generate(2000, 5);
        let p = TraceProfile::of(&trace);
        for q in [p.runtime, p.request_time, p.procs, p.interarrival] {
            assert!(q.min <= q.p25 && q.p25 <= q.p50);
            assert!(q.p50 <= q.p75 && q.p75 <= q.p95 && q.p95 <= q.max);
        }
    }

    #[test]
    fn real_trace_standins_show_overestimation_synthetics_dont() {
        let sdsc = TraceProfile::of(&TracePreset::SdscSp2.generate(2000, 6));
        assert!(
            sdsc.overestimation.p50 > 1.05,
            "median overestimation {}",
            sdsc.overestimation.p50
        );
        let lublin = TraceProfile::of(&TracePreset::Lublin1.generate(2000, 6));
        assert!((lublin.overestimation.p50 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_arrivals_have_high_cv() {
        // The real-trace stand-ins use a burstier arrival process than the
        // Lublin presets (`Table2Targets::arrival_shape`); that must
        // show up as a higher CV.
        let sdsc = TraceProfile::of(&TracePreset::SdscSp2.generate(4000, 7));
        let lublin = TraceProfile::of(&TracePreset::Lublin1.generate(4000, 7));
        assert!(
            sdsc.interarrival.cv > lublin.interarrival.cv,
            "sdsc cv {} vs lublin cv {}",
            sdsc.interarrival.cv,
            lublin.interarrival.cv
        );
        assert!(sdsc.interarrival.cv > 1.0, "real traces are bursty");
    }

    #[test]
    fn pow2_bias_is_visible() {
        let p = TraceProfile::of(&TracePreset::Lublin1.generate(3000, 8));
        assert!(
            p.pow2_fraction > 0.6,
            "Lublin model biases to powers of two, got {:.2}",
            p.pow2_fraction
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let p = TraceProfile::of(&TracePreset::Hpc2n.generate(500, 9));
        let s = p.to_string();
        for key in [
            "runtime",
            "request",
            "procs",
            "interarrival",
            "overestimate",
            "serial",
        ] {
            assert!(s.contains(key), "missing {key} in display");
        }
    }
}
