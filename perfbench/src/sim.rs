//! The two simulator workloads, driven from outside through the decision
//! point API exactly as `hpcsim::runner` drives a run: `advance` to the
//! next decision point, run the backfill pass there, repeat until done.
//!
//! * `sim_cons` — FCFS + conservative backfilling (request-time estimates)
//!   on the flat machine: planner repair, profile `earliest_fit` and the
//!   event heap, no routing.
//! * `sim_route` — FCFS + EASY on the 4-partition Lublin-1 machine with the
//!   `EarliestStart` router and decision-point migration (3 moves per job,
//!   60 s minimum gain): the only workload where `cluster::router` matters.
//!
//! Both schedule disjoint windows of many independently seeded traces, so
//! one trace's load level does not set a run's figures; a unit is one
//! window scheduled to completion. `sim_route`'s windows are 2,500 jobs
//! long because queue backlog builds over a window and the router's
//! `reroute` calls per job grow with it: about 15 per job in 1,000-job
//! windows, 55 in 10,000-job ones, 120 in a 40,000-job one. Longer windows
//! made a seed's figures follow the load of the few traces it drew.

use crate::deco::TimedRouter;
use crate::report::Report;
use crate::stats::{self, Fastest, Latencies};
use crate::{spans, Opts};
use hpcsim::conservative::conservative_pass;
use hpcsim::easy::easy_pass;
use hpcsim::prelude::*;
use hpcsim::state::{CompletedJob, ProbedSimulation};
use hpcsim::Probe;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use swf::{Trace, TracePreset, TraceSource};

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cons,
    Route,
}

/// Seeded traces, windows per trace and jobs per window of each workload.
/// `sim_route`'s cost per job grows with a trace's load level, which
/// differs from seed to seed, so it takes one window from each of many
/// traces.
pub const CONS_TRACES: usize = 4;
pub const CONS_WINDOWS: usize = 50;
pub const CONS_WINDOW_JOBS: usize = 2000;
pub const ROUTE_TRACES: usize = 80;
pub const ROUTE_WINDOWS: usize = 1;
pub const ROUTE_WINDOW_JOBS: usize = 2_500;
/// Extra jobs generated per `sim_route` trace: the partition width clamp
/// drops some, and windows are cut only whole.
const ROUTE_SLACK_JOBS: usize = 500;
const ROUTE_PARTS: usize = 4;

const ESTIMATOR: RuntimeEstimator = RuntimeEstimator::RequestTime;
const REROUTE: ReroutePolicy = ReroutePolicy::AtDecisionPoints {
    max_moves_per_job: 3,
    min_gain_secs: 60.0,
};

/// A workload's inputs, built from the seed.
pub struct Inputs {
    kind: Kind,
    pub windows: Vec<Trace>,
    spec: ClusterSpec,
    /// Seconds spent generating the traces.
    pub trace_gen_s: f64,
}

impl Inputs {
    pub fn build(kind: Kind, seed: u64) -> Self {
        let t = Instant::now();
        let (n_traces, n, len) = match kind {
            Kind::Cons => (CONS_TRACES, CONS_WINDOWS, CONS_WINDOW_JOBS),
            Kind::Route => (ROUTE_TRACES, ROUTE_WINDOWS, ROUTE_WINDOW_JOBS),
        };
        let sources: Vec<TraceSource> = (0..n_traces)
            .map(|i| {
                let seed = desim::replication_seed(seed, i as u64);
                match kind {
                    Kind::Cons => TraceSource::Preset {
                        preset: TracePreset::Lublin1,
                        jobs: n * len,
                        seed,
                    },
                    Kind::Route => TraceSource::PartitionedPreset {
                        preset: TracePreset::Lublin1,
                        parts: ROUTE_PARTS,
                        jobs: n * len + ROUTE_SLACK_JOBS,
                        seed,
                    },
                }
            })
            .collect();
        let traces: Vec<Trace> = sources
            .iter()
            .map(|s| s.materialize().expect("generator-backed source"))
            .collect();
        let trace_gen_s = t.elapsed().as_secs_f64();
        // The machine depends on the preset only, not on the seed.
        let spec = match sources[0].layout() {
            Some(layout) => ClusterSpec::from_layout(&layout),
            None => ClusterSpec::homogeneous(traces[0].cluster_procs()),
        };
        // The partition width clamp can shorten a trace; cut only whole
        // windows.
        let windows = traces
            .iter()
            .flat_map(|trace| {
                (0..n.min(trace.len() / len)).map(move |i| trace.window(i * len, len))
            })
            .collect();
        Self {
            kind,
            windows,
            spec,
            trace_gen_s,
        }
    }

    fn backfill(&self) -> Backfill {
        match self.kind {
            Kind::Cons => Backfill::Conservative(ESTIMATOR),
            Kind::Route => Backfill::Easy(ESTIMATOR),
        }
    }

    fn reroute(&self) -> ReroutePolicy {
        match self.kind {
            Kind::Cons => ReroutePolicy::AtSubmission,
            Kind::Route => REROUTE,
        }
    }

    fn router(&self, traced: bool) -> Arc<dyn Router> {
        match (self.kind, traced) {
            (Kind::Cons, false) => Arc::new(StaticAffinity),
            (Kind::Cons, true) => Arc::new(TimedRouter(StaticAffinity)),
            (Kind::Route, false) => Arc::new(EarliestStart::default()),
            (Kind::Route, true) => Arc::new(TimedRouter(EarliestStart::default())),
        }
    }

    /// The program's own one-call run of window `w` — the reference the
    /// outside-driven loop must reproduce.
    pub fn library_run(&self, w: &Trace) -> ScheduleResult {
        match self.kind {
            Kind::Cons => run_scheduler(w, Policy::Fcfs, self.backfill()),
            Kind::Route => run_scheduler_on_rerouted(
                w,
                Policy::Fcfs,
                self.backfill(),
                &self.spec,
                self.router(false),
                REROUTE,
            ),
        }
    }

    /// FCFS + EASY on the same window and machine, routed once at
    /// submission by the workload's router (no migration): the
    /// `bsld_vs_easy` denominator.
    pub fn easy_bsld(&self, w: &Trace) -> f64 {
        run_scheduler_on(
            w,
            Policy::Fcfs,
            Backfill::Easy(ESTIMATOR),
            &self.spec,
            self.router(false),
        )
        .metrics
        .mean_bounded_slowdown
    }
}

/// What one scheduled window must reproduce bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub bsld_bits: u64,
    pub completed: usize,
    pub dropped: usize,
    pub migrations: usize,
    /// FNV-1a over every completed job's id, start and end.
    pub schedule_hash: u64,
}

impl Outcome {
    pub fn of(completed: &[CompletedJob], bsld: f64, dropped: usize, migrations: usize) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c in completed {
            for word in [c.job.id as u64, c.start.to_bits(), c.end().to_bits()] {
                h ^= word;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        Self {
            bsld_bits: bsld.to_bits(),
            completed: completed.len(),
            dropped,
            migrations,
            schedule_hash: h,
        }
    }

    pub fn bsld(&self) -> f64 {
        f64::from_bits(self.bsld_bits)
    }

    pub fn of_result(r: &ScheduleResult) -> Self {
        Self::of(
            &r.completed,
            r.metrics.mean_bounded_slowdown,
            r.dropped_jobs,
            r.migrations,
        )
    }
}

/// Schedules window `w` through the decision-point API, timing each
/// decision (one `advance` plus the pass at the point it stops on) into
/// `latencies`. Spans fire only while the tracer is on.
fn drive<P: Probe>(
    inputs: &Inputs,
    w: &Trace,
    router: Arc<dyn Router>,
    probe: P,
    latencies: &mut Latencies,
) -> (Outcome, usize, P) {
    let mut sim = ProbedSimulation::with_cluster_rerouted_probed(
        w,
        Policy::Fcfs,
        inputs.spec.clone(),
        router,
        inputs.reroute(),
        probe,
    );
    let backfill = inputs.backfill();
    let mut decisions = 0;
    loop {
        let t = Instant::now();
        let event = {
            let _s = spans::span("hpcsim.advance");
            sim.advance()
        };
        if event == SimEvent::Done {
            break;
        }
        {
            let _s = spans::span("hpcsim.backfill_pass");
            match backfill {
                Backfill::Conservative(est) => conservative_pass(&mut sim, est),
                Backfill::Easy(est) => easy_pass(&mut sim, est),
                _ => unreachable!("simulator workloads use EASY or conservative"),
            };
        }
        decisions += 1;
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let metrics = {
        let _s = spans::span("hpcsim.metrics");
        Metrics::of(sim.completed(), inputs.spec.total_procs())
    };
    let outcome = Outcome::of(
        sim.completed(),
        metrics.mean_bounded_slowdown,
        sim.dropped_jobs(),
        sim.migrations(),
    );
    (outcome, decisions, sim.into_probe())
}

/// One untraced pass over every window, timing each into `windows`.
/// Returns each window's outcome and decision count (`None` for a window
/// that panicked) and the pass's wall time.
fn pass(
    inputs: &Inputs,
    windows: &mut Fastest,
    latencies: &mut Latencies,
) -> (Vec<Option<(Outcome, usize)>>, f64) {
    let t_pass = Instant::now();
    let mut outcomes = Vec::with_capacity(inputs.windows.len());
    for w in &inputs.windows {
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            drive(inputs, w, inputs.router(false), NoopProbe, latencies)
        }));
        windows.push(t.elapsed().as_secs_f64());
        outcomes.push(r.ok().map(|(o, d, _)| (o, d)));
    }
    (outcomes, t_pass.elapsed().as_secs_f64())
}

fn traced_pass(inputs: &Inputs) -> (Vec<Option<Outcome>>, BTreeMap<String, f64>, f64) {
    let mut telemetry = Telemetry::default();
    let (outcomes, mut m, wall) = crate::traced(|| {
        let mut untimed = Latencies::new(0);
        inputs
            .windows
            .iter()
            .map(|w| {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let router = inputs.router(true);
                    drive(inputs, w, router, Recorder::new(false), &mut untimed)
                }));
                r.ok().map(|(o, _, rec)| {
                    telemetry.merge(rec.telemetry());
                    o
                })
            })
            .collect::<Vec<_>>()
    });
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let t = &telemetry;
    let (repairs, entries) = t
        .plan_repairs
        .iter()
        .fold((0, 0), |(c, e), r| (c + r.count, e + r.entries));
    let migrations: usize = outcomes.iter().flatten().map(|o| o.migrations).sum();
    let reroutes = m.get("router.reroute_calls").copied().unwrap_or(0.0) as u64;
    for (name, value) in [
        (
            "hpcsim.backfill_hit_ratio",
            ratio(t.backfill_hits, t.backfill_attempts),
        ),
        ("hpcsim.events", t.events as f64),
        ("hpcsim.heap_depth_mean", t.heap_depth_mean()),
        ("hpcsim.plan_repair_len_mean", ratio(entries, repairs)),
        ("hpcsim.fit_calls", t.earliest_fit_calls as f64),
        (
            "hpcsim.fit_buckets_per_call",
            ratio(t.earliest_fit_buckets_scanned, t.earliest_fit_calls),
        ),
        (
            "router.plan_reuse_ratio",
            ratio(
                t.router_plan_reuses,
                t.router_plan_reuses + t.router_plan_rebuilds,
            ),
        ),
        (
            "router.migrations_per_reroute",
            ratio(migrations as u64, reroutes),
        ),
    ] {
        m.insert(name.into(), value);
    }
    (outcomes, m, wall)
}

/// Values checked against `expected.txt` at the default seed.
pub fn fingerprint(kind: Kind, bsld: f64, easy: f64, outcomes: &[Outcome]) -> Vec<(String, f64)> {
    let name = match kind {
        Kind::Cons => "sim_cons",
        Kind::Route => "sim_route",
    };
    let sum = |f: fn(&Outcome) -> usize| outcomes.iter().map(f).sum::<usize>() as f64;
    vec![
        (format!("{name}.bsld"), bsld),
        (format!("{name}.easy_bsld"), easy),
        (format!("{name}.completed"), sum(|o| o.completed)),
        (format!("{name}.dropped"), sum(|o| o.dropped)),
        (format!("{name}.migrations"), sum(|o| o.migrations)),
    ]
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, s) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    s / n.max(1) as f64
}

pub fn run(kind: Kind, opts: &Opts, report: &mut Report) {
    let mut gen_s = Vec::new();
    let inputs = crate::time_setup(report, || {
        let inputs = Inputs::build(kind, opts.seed);
        gen_s.push(inputs.trace_gen_s);
        inputs
    });

    // Outside the timed region: the program's own runs (the reference) and
    // the EASY denominator, on every window.
    let reference: Vec<Outcome> = inputs
        .windows
        .iter()
        .map(|w| Outcome::of_result(&inputs.library_run(w)))
        .collect();
    let easy = mean(inputs.windows.iter().map(|w| inputs.easy_bsld(w)));
    let bsld = mean(reference.iter().map(Outcome::bsld));
    report.check(
        reference
            .iter()
            .zip(&inputs.windows)
            .all(|(o, w)| o.completed + o.dropped == w.len()),
        || "library run lost jobs".into(),
    );

    let mut window_secs = Fastest::default();
    let mut latencies = Latencies::new(crate::LATENCY_SAMPLES);
    let mut decisions: Vec<f64> = Vec::new();
    let mut passes = 0;
    let mut layer_samples = Vec::new();
    let start = Instant::now();
    while passes < crate::MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        passes += 1;
        window_secs.restart();
        latencies.restart();
        let (outcomes, secs) = pass(&inputs, &mut window_secs, &mut latencies);
        for (o, r) in outcomes.iter().zip(&reference) {
            report.unit(o.is_some_and(|(o, _)| o == *r));
        }
        if decisions.is_empty() {
            decisions = outcomes
                .iter()
                .map(|o| o.map_or(0.0, |(_, d)| d as f64))
                .collect();
        }
        if opts.trace {
            let (traced, mut layers, wall) = traced_pass(&inputs);
            let same = traced.iter().zip(&reference).all(|(t, r)| *t == Some(*r));
            report.check(same, || {
                "traced schedule differs from the untraced one".into()
            });
            report.unit(same);
            layers.insert("trace.overhead_ratio".into(), wall / secs);
            layer_samples.push(layers);
        }
    }

    crate::set_peak_rss(report);
    let jobs: Vec<f64> = inputs.windows.iter().map(|w| w.len() as f64).collect();
    if let Some(v) = stats::median_rate(&jobs, &window_secs.values()) {
        report.set("jobs_per_s", v);
    }
    if let Some(v) = stats::median_rate(&decisions, &window_secs.values()) {
        report.set("decisions_per_s", v);
    }
    crate::set_latency(report, &mut latencies, passes);
    report.set("bsld_vs_easy", bsld / easy);
    for (k, v) in crate::median_layers(&layer_samples) {
        report.set(k, v);
    }
    if opts.trace {
        report.set("swf.trace_gen_s", stats::median(&gen_s).unwrap_or(0.0));
    }
    crate::check_expected(
        report,
        opts.seed,
        &fingerprint(kind, bsld, easy, &reference),
    );
    crate::note(format!(
        "{} windows x {} jobs, {} passes, bsld {bsld:.4}, easy bsld {easy:.4}",
        inputs.windows.len(),
        inputs.windows.first().map_or(0, Trace::len),
        passes
    ));
}
