//! Outside-in benchmark of the simulator and the RL backfiller.
//!
//! ```text
//! perfbench --workload <sim_cons|sim_route|rl_train|rl_deploy> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --make-agent        # retrain the committed rl_deploy agent
//! perfbench --record-expected   # rewrite expected.txt from the library paths
//! ```
//!
//! Every workload builds its inputs from the seed, measures for the given
//! seconds, checks its outputs, and prints one JSON line last on stdout:
//! end-to-end metrics untraced, per-layer metrics traced. A human summary
//! goes to stderr. A traced run also writes its last traced pass's spans
//! to `target/spans-<workload>.tsv` in this package. See README.md for the
//! workloads and metrics.

mod alloc;
mod deco;
mod host;
mod report;
mod rl;
mod sim;
mod spans;
mod stats;

use report::Report;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed `expected.txt` was recorded at.
pub const DEFAULT_SEED: u64 = 1;
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
/// Where a traced run writes its spans.
const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target");
/// Decision latencies sampled per run for `decision_us_p99`, uniformly
/// over the timed region.
pub const LATENCY_SAMPLES: usize = 200_000;
/// Passes every run makes at least, whatever `--seconds` says: the second
/// pass checks that the first repeats bitwise, and gives every unit a
/// second time to take the fastest of.
pub const MIN_PASSES: usize = 2;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 11;
const WORKLOADS: [&str; 4] = ["sim_cons", "sim_route", "rl_train", "rl_deploy"];

/// Options of one benchmark run.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Command {
    Run(Opts),
    MakeAgent,
    RecordExpected,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--make-agent" => return Ok(Command::MakeAgent),
            "--record-expected" => return Ok(Command::RecordExpected),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Command::Run(Opts {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// Builds a workload's inputs [`SETUP_REPS`] times, records the median
/// wall time as `setup_s`, and keeps the last build.
pub fn time_setup<T>(report: &mut Report, mut build: impl FnMut() -> T) -> T {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    if let Some(m) = stats::median(&secs) {
        report.set("setup_s", m);
    }
    last.expect("SETUP_REPS > 0")
}

/// Sets `decision_us_p50` (the median of each decision's fastest latency
/// over the run's passes) and `decision_us_p99` (nearest rank over a
/// uniform sample of every timed decision, with at least ten samples
/// beyond it).
pub fn set_latency(report: &mut Report, latencies: &mut stats::Latencies, passes: usize) {
    let decisions = latencies.fastest.count();
    if let Some(p50) = stats::median(&latencies.fastest.values()) {
        report.set("decision_us_p50", p50);
    }
    let seen = latencies.all.seen();
    let samples = &mut latencies.all.samples;
    let n = samples.len();
    note(format!(
        "decision latency: p50 over the fastest of {passes} passes for each of {decisions} decisions"
    ));
    match stats::tail_percentile(samples, 99.0) {
        Some(t) => {
            report.set("decision_us_p99", t.value);
            note(format!(
                "decision latency: {n} samples of {seen} timed decisions, p{:.2} = {:.3} us with {} beyond",
                t.pct, t.value, t.beyond
            ));
        }
        None => note(format!(
            "decision latency: only {n} samples, no tail reported"
        )),
    }
}

/// Sets `peak_rss_mb` from the process's peak so far. Every workload calls
/// it when its timed region ends, before the benchmark's own statistics
/// copy the recorded latencies: where those copies land depends on the
/// allocator's free lists, and measured that way the figure jumped by
/// 4 MB between runs of the same seed.
pub fn set_peak_rss(report: &mut Report) {
    if let Some(mb) = host::peak_rss_mb() {
        report.set("peak_rss_mb", mb);
    }
}

/// Runs one pass with the tracer and the allocation counter on, prints
/// its flat profile to stderr, and returns the pass's result, its
/// per-layer metrics and its wall time.
pub fn traced<T>(pass: impl FnOnce() -> T) -> (T, BTreeMap<String, f64>, f64) {
    alloc::set_counting(true);
    spans::start();
    let t = Instant::now();
    let out = pass();
    let wall = t.elapsed().as_secs_f64();
    spans::stop();
    alloc::set_counting(false);
    let rows = spans::recorded(spans::self_times);
    report::print_profile(&rows, wall);
    (out, report::layer_metrics(&rows, wall), wall)
}

/// The per-metric median over traced passes.
pub fn median_layers(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (k, v) in s {
            by_name.entry(k.clone()).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .filter_map(|(k, vs)| stats::median(&vs).map(|m| (k, m)))
        .collect()
}

fn read_expected() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next().map(str::parse::<f64>)) {
                (Some(k), Some(Ok(v))) => Ok((k.to_string(), v)),
                _ => Err(format!("{EXPECTED_PATH}: bad line {l:?}")),
            }
        })
        .collect()
}

/// At [`DEFAULT_SEED`], every value must equal the recorded one bitwise.
pub fn check_expected(report: &mut Report, seed: u64, values: &[(String, f64)]) {
    if seed != DEFAULT_SEED {
        return;
    }
    let expected = match read_expected() {
        Ok(e) => e,
        Err(e) => return report.check(false, || e),
    };
    for (k, v) in values {
        let want = expected.get(k).copied();
        report.check(want.map(f64::to_bits) == Some(v.to_bits()), || {
            format!("{k} = {v:?}, but expected.txt records {want:?}")
        });
    }
}

/// Writes the last traced pass's spans to `SPANS_DIR/spans-<workload>.tsv`.
fn write_spans(workload: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!("{SPANS_DIR}/spans-{workload}.tsv");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans::recorded(|s| spans::write_tsv(s, &mut f))?;
    std::io::Write::flush(&mut f)?;
    Ok(path)
}

pub fn note(line: String) {
    eprintln!("perfbench: {line}");
}

fn exit_with(code: i32, message: String) -> ! {
    note(message);
    std::process::exit(code)
}

/// Recomputes `expected.txt` at [`DEFAULT_SEED`] through the program's own
/// entry points: `run_scheduler*`, `rlbf::train` and `RlbfAgent::schedule`.
fn record_expected() -> Result<(), String> {
    let seed = DEFAULT_SEED;
    let mut values = Vec::new();
    for kind in [sim::Kind::Cons, sim::Kind::Route] {
        let inputs = sim::Inputs::build(kind, seed);
        let outcomes: Vec<sim::Outcome> = inputs
            .windows
            .iter()
            .map(|w| sim::Outcome::of_result(&inputs.library_run(w)))
            .collect();
        let n = outcomes.len() as f64;
        let bsld = outcomes.iter().map(sim::Outcome::bsld).sum::<f64>() / n;
        let easy = inputs
            .windows
            .iter()
            .map(|w| inputs.easy_bsld(w))
            .sum::<f64>()
            / n;
        values.extend(sim::fingerprint(kind, bsld, easy, &outcomes));
    }
    let trace = rl::lublin_trace(seed, 0, rl::TRAIN_TRACE_JOBS);
    let trained = rlbf::train(&trace, rl::train_config_for_run(seed, 0));
    let epoch_bsld: Vec<f64> = trained.history.iter().map(|e| e.mean_bsld).collect();
    values.extend(rl::train_fingerprint(&epoch_bsld));
    let deploy = rl::DeployInputs::build(seed)?;
    let n = deploy.windows.len() as f64;
    let bsld = deploy
        .windows
        .iter()
        .map(|w| {
            deploy
                .agent
                .schedule(w, hpcsim::Policy::Fcfs)
                .mean_bounded_slowdown
        })
        .sum::<f64>()
        / n;
    let easy = deploy.windows.iter().map(rl::easy_bsld).sum::<f64>() / n;
    values.extend(rl::deploy_fingerprint(bsld, easy));
    let mut text = format!(
        "# Values every workload must reproduce bitwise at --seed {seed}.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-expected\n"
    );
    for (k, v) in &values {
        text.push_str(&format!("{k} {v:?}\n"));
    }
    std::fs::write(EXPECTED_PATH, text).map_err(|e| format!("{EXPECTED_PATH}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse_args(&args).unwrap_or_else(|e| exit_with(2, e));
    match host::pin_to_current_cpu() {
        Some(cpu) => note(format!("pinned to cpu {cpu}")),
        None => note(
            "could not pin to one cpu; rl_train's traced identity check needs one worker".into(),
        ),
    }
    let opts = match command {
        Command::MakeAgent => match rl::make_agent() {
            Ok(()) => return note(format!("wrote {}", rl::AGENT_PATH)),
            Err(e) => exit_with(1, e),
        },
        Command::RecordExpected => match record_expected() {
            Ok(()) => return note(format!("wrote {EXPECTED_PATH}")),
            Err(e) => exit_with(1, e),
        },
        Command::Run(opts) => opts,
    };
    let mut report = Report::default();
    match opts.workload.as_str() {
        "sim_cons" => sim::run(sim::Kind::Cons, &opts, &mut report),
        "sim_route" => sim::run(sim::Kind::Route, &opts, &mut report),
        "rl_train" => rl::run_train(&opts, &mut report),
        "rl_deploy" => rl::run_deploy(&opts, &mut report),
        _ => unreachable!("parse_args validates the workload"),
    }
    if opts.trace {
        match write_spans(&opts.workload) {
            Ok(path) => note(format!("wrote spans to {path}")),
            Err(e) => note(format!("cannot write spans: {e}")),
        }
    }
    for p in &report.problems {
        note(format!("check failed: {p}"));
    }
    let line = report.result_line(opts.trace);
    println!("{line}");
}
