//! Workload and schedule analysis: distributional trace profiles and
//! schedule timelines — the diagnostics behind the Table 2 calibration and
//! the backfilling narratives.
//!
//! ```text
//! cargo run --release --example workload_analysis [trace-or-swf-path]
//! ```
//!
//! Pass a preset name (`sdsc-sp2`, `hpc2n`, `lublin-1`, `lublin-2`) or a
//! path to a real SWF file from the Parallel Workloads Archive.

use hpcsim::prelude::*;
use hpcsim::timeline::{gantt, mean_sampled_utilization, utilization_sparkline};
use swf::analysis::TraceProfile;
use swf::{Trace, TracePreset};

fn load(arg: Option<&str>) -> Trace {
    match arg {
        Some(path) if std::path::Path::new(path).exists() => {
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("swf")
                .to_string();
            swf::parse::parse_swf_file(path)
                .expect("failed to parse SWF file")
                .into_trace(name)
                .first_n(10_000)
        }
        Some(name) => name
            .parse::<TracePreset>()
            .expect("unknown preset and no such file")
            .generate(4000, 7),
        None => TracePreset::SdscSp2.generate(4000, 7),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace = load(args.get(1).map(String::as_str));

    println!("=== {} ===", trace.name());
    println!("{}", trace.stats());
    println!();
    println!("{}", TraceProfile::of(&trace));

    // Schedule the first 600 jobs three ways and draw the utilization
    // shape: backfilling fills the troughs in front of wide reserved jobs.
    let window = trace.window(0, 600);
    println!("utilization over the schedule (first 600 jobs):");
    for (label, backfill) in [
        ("no backfilling ", Backfill::None),
        (
            "EASY (request) ",
            Backfill::Easy(RuntimeEstimator::RequestTime),
        ),
        (
            "EASY-AR        ",
            Backfill::Easy(RuntimeEstimator::ActualRuntime),
        ),
    ] {
        let r = run_scheduler(&window, Policy::Fcfs, backfill);
        println!(
            "  {label} bsld {:>7.2}  util {:>5.1}%  |{}|",
            r.metrics.mean_bounded_slowdown,
            100.0 * mean_sampled_utilization(&r.completed, window.cluster_procs(), 400),
            utilization_sparkline(&r.completed, window.cluster_procs(), 64),
        );
    }

    // A small Gantt excerpt for the curious.
    let tiny = trace.window(0, 12);
    let r = run_scheduler(
        &tiny,
        Policy::Fcfs,
        Backfill::Easy(RuntimeEstimator::RequestTime),
    );
    println!("\nGantt of the first 12 jobs under FCFS+EASY:");
    print!("{}", gantt(&r.completed, 60, 12));
}
