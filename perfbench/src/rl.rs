//! The two RL workloads.
//!
//! * `rl_train` — PPO training from scratch (no imitation warm start) at
//!   the paper's 128-slot observations and 256-job trajectories, driven
//!   from outside exactly as `rlbf::train` runs an epoch: roll out each
//!   trajectory with the sampling policy, fold it into the GAE buffer, then
//!   run the PPO update. A pass trains several short, independently seeded
//!   agents from scratch, each on its own seeded trace, because the cost of
//!   a decision depends on how full the queue is; a unit is one epoch, and
//!   every pass repeats the same training runs bitwise.
//! * `rl_deploy` — the §4.3 protocol: the committed greedy agent schedules
//!   sampled 1024-job windows of several seeded Lublin-1 traces on the
//!   flat machine, one window after another. A unit is one window.

use crate::deco::TimedActorCritic;
use crate::report::Report;
use crate::stats::{self, Fastest, Latencies};
use crate::{spans, Opts};
use hpcsim::prelude::*;
use ppo::{PpoConfig, RolloutBuffer, Step, UpdateStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rlbf::obs::{encode_with_skip, Observation, JOB_FEATURES};
use rlbf::{BackfillActorCritic, BackfillEnv, EnvError, NetConfig, RlbfAgent, TrainConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use swf::{Trace, TracePreset};

/// Observation slots of both RL workloads (the paper's value).
pub const SLOTS: usize = 128;
/// Jobs in each training run's trace.
pub const TRAIN_TRACE_JOBS: usize = 5_000;
pub const TRAIN_EPOCHS: usize = 2;
pub const TRAIN_TRAJ_PER_EPOCH: usize = 1;
/// Training runs in a pass, each with its own seed and its own trace;
/// `bsld_vs_easy` is taken over their trajectories.
pub const TRAIN_RUNS: usize = 25;
pub const TRAIN_JOBS_PER_TRAJ: usize = 256;
/// π and V iterations per update (the KL early stop stays on).
pub const TRAIN_PPO_ITERS: usize = 2;

/// Traces `rl_deploy` samples its windows from, and the windows it samples
/// from each.
pub const DEPLOY_TRACES: usize = 8;
pub const DEPLOY_TRACE_JOBS: usize = 20_000;
pub const DEPLOY_WINDOWS_PER_TRACE: usize = 12;
pub const DEPLOY_WINDOW_JOBS: usize = 1024;

/// The committed deploy agent.
pub const AGENT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/agent_lublin1_128.json");
/// How the committed agent was trained (`--make-agent` reproduces it).
pub const AGENT_TRACE_JOBS: usize = 10_000;
pub const AGENT_TRACE_SEED: u64 = 2023;
pub const AGENT_EPOCHS: usize = 3;
pub const AGENT_TRAJ_PER_EPOCH: usize = 8;

/// The `rl_train` configuration for `seed`.
pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: TRAIN_EPOCHS,
        traj_per_epoch: TRAIN_TRAJ_PER_EPOCH,
        jobs_per_traj: TRAIN_JOBS_PER_TRAJ,
        ppo: PpoConfig {
            train_pi_iters: TRAIN_PPO_ITERS,
            train_v_iters: TRAIN_PPO_ITERS,
            ..PpoConfig::default()
        },
        pretrain_episodes: 0,
        seed,
        ..TrainConfig::default()
    }
}

/// `rlbf::train`'s per-trajectory seed stream, reproduced so the outside
/// loop samples the same windows and actions.
fn traj_seed(master: u64, epoch: usize, traj: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + epoch as u64))
        .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul(1 + traj as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

struct Trajectory {
    steps: Vec<Step<Observation>>,
    bsld: f64,
    decisions: usize,
    window: Trace,
}

/// One episode with the sampling policy, timing each decision (`act_sample`
/// plus `BackfillEnv::step`) into `latencies`.
fn rollout(
    trace: &Trace,
    ac: &BackfillActorCritic,
    cfg: &TrainConfig,
    seed: u64,
    latencies: &mut Latencies,
) -> Result<Trajectory, EnvError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = trace.sample_window(cfg.jobs_per_traj, &mut rng);
    let mut env = {
        let _s = spans::span("rlbf.env_new");
        BackfillEnv::on_platform(&window, cfg.base_policy, cfg.env, &cfg.platform)
    };
    let mut steps = Vec::new();
    while let Some(obs) = env.observation().cloned() {
        let t = Instant::now();
        let (action, log_prob, value) = {
            let _s = spans::span("rlbf.act_sample");
            ac.act_sample(&obs, &mut rng)
        };
        let (reward, _) = {
            let _s = spans::span("rlbf.env_step");
            env.step(action)?
        };
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        steps.push(Step {
            obs,
            action,
            reward,
            value,
            log_prob,
        });
    }
    let bsld = {
        let _s = spans::span("hpcsim.metrics");
        env.metrics().mean_bounded_slowdown
    };
    Ok(Trajectory {
        steps,
        bsld,
        decisions: env.decisions(),
        window,
    })
}

/// One epoch of a training run.
#[derive(Debug, Clone)]
pub struct Epoch {
    pub secs: f64,
    pub jobs: usize,
    pub decisions: usize,
    pub mean_bsld: f64,
    pub update: UpdateStats,
    /// The windows the epoch's trajectories ran on.
    pub windows: Vec<Trace>,
}

impl Epoch {
    /// Whether two epochs realized the same schedules and update bitwise.
    fn same_as(&self, other: &Epoch) -> bool {
        self.mean_bsld.to_bits() == other.mean_bsld.to_bits()
            && self.decisions == other.decisions
            && self.update.pi_iters_run == other.update.pi_iters_run
            && self.update.approx_kl.to_bits() == other.update.approx_kl.to_bits()
            && self.update.value_loss.to_bits() == other.update.value_loss.to_bits()
    }

    fn finite(&self) -> bool {
        self.mean_bsld.is_finite()
            && self.update.approx_kl.is_finite()
            && self.update.value_loss.is_finite()
    }
}

/// A whole training run from a fresh network, epoch by epoch. Untraced it
/// updates with `rlbf::parallel_ppo_update`, as `rlbf::train` does; traced
/// it runs the sequential `ppo::ppo_update` through the timing decorator
/// (bitwise the same on one worker thread).
pub fn train_run(
    trace: &Trace,
    cfg: &TrainConfig,
    traced: bool,
    latencies: &mut Latencies,
) -> Result<Vec<Epoch>, EnvError> {
    let mut ac = BackfillActorCritic::new(cfg.net.clone(), cfg.seed);
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let n_traj = cfg.traj_per_epoch as f64;
    for epoch in 0..cfg.epochs {
        let t = Instant::now();
        let mut buffer = RolloutBuffer::new(cfg.ppo.gamma, cfg.ppo.lambda);
        let (mut mean_bsld, mut jobs, mut decisions) = (0.0, 0, 0);
        let mut windows = Vec::with_capacity(cfg.traj_per_epoch);
        for traj in 0..cfg.traj_per_epoch {
            let tr = rollout(trace, &ac, cfg, traj_seed(cfg.seed, epoch, traj), latencies)?;
            mean_bsld += tr.bsld / n_traj;
            jobs += tr.window.len();
            windows.push(tr.window);
            decisions += tr.decisions;
            let _s = spans::span("ppo.gae");
            buffer.absorb_trajectory(tr.steps, 0.0);
        }
        let batch = {
            let _s = spans::span("ppo.gae");
            buffer.into_batch()
        };
        let update = if batch.is_empty() {
            UpdateStats {
                approx_kl: 0.0,
                pi_iters_run: 0,
                value_loss: 0.0,
                clip_frac: 0.0,
            }
        } else if traced {
            let _s = spans::span("ppo.update");
            ppo::ppo_update(&mut TimedActorCritic(&mut ac), &batch, &cfg.ppo)
        } else {
            rlbf::parallel_ppo_update(&mut ac, &batch, &cfg.ppo)
        };
        drop(batch);
        epochs.push(Epoch {
            secs: t.elapsed().as_secs_f64(),
            jobs,
            decisions,
            mean_bsld,
            update,
            windows,
        });
    }
    Ok(epochs)
}

/// A small real batch (two smoke-scale trajectories from a fresh network),
/// for tests of the update path.
#[cfg(test)]
pub fn smoke_batch(trace: &Trace, cfg: &TrainConfig) -> ppo::Batch<Observation> {
    let ac = BackfillActorCritic::new(cfg.net.clone(), 1);
    let mut buffer = RolloutBuffer::new(cfg.ppo.gamma, cfg.ppo.lambda);
    for t in 0..2 {
        let tr = rollout(trace, &ac, cfg, traj_seed(2, 0, t), &mut Latencies::new(0)).unwrap();
        buffer.absorb_trajectory(tr.steps, 0.0);
    }
    buffer.into_batch()
}

/// Floating-point operations of one forward pass of both networks over
/// one observation, computed from the layer widths (multiply and add per
/// weight, one add per bias).
pub fn flops_per_sample(net: &NetConfig) -> f64 {
    let mlp = |dims: &[usize]| -> f64 {
        dims.windows(2)
            .map(|d| (2 * d[0] * d[1] + d[1]) as f64)
            .sum()
    };
    let rows = (net.obs.max_obsv_size + 1) as f64;
    let mut policy = vec![JOB_FEATURES];
    policy.extend(&net.policy_hidden);
    policy.push(1);
    let mut value = vec![(net.obs.max_obsv_size + 1) * JOB_FEATURES];
    value.extend(&net.value_hidden);
    value.push(1);
    rows * mlp(&policy) + mlp(&value)
}

/// Mean bounded slowdown of FCFS + EASY (request-time estimates) on `w`.
pub fn easy_bsld(w: &Trace) -> f64 {
    run_scheduler(
        w,
        Policy::Fcfs,
        Backfill::Easy(RuntimeEstimator::RequestTime),
    )
    .metrics
    .mean_bounded_slowdown
}

/// `rl_train`'s values checked against `expected.txt` at the default seed.
pub fn train_fingerprint(epoch_bsld: &[f64]) -> Vec<(String, f64)> {
    epoch_bsld
        .iter()
        .enumerate()
        .map(|(i, b)| (format!("rl_train.epoch{i}_bsld"), *b))
        .collect()
}

/// The configuration of training run `k` of a run seeded `seed`.
pub fn train_config_for_run(seed: u64, k: usize) -> TrainConfig {
    train_config(desim::replication_seed(seed, k as u64))
}

/// The `i`-th Lublin-1 trace of a run seeded `seed`, `jobs` long.
pub fn lublin_trace(seed: u64, i: usize, jobs: usize) -> Trace {
    TracePreset::Lublin1.generate(jobs, desim::replication_seed(seed, i as u64))
}

pub fn run_train(opts: &Opts, report: &mut Report) {
    let traces: Vec<Trace> = crate::time_setup(report, || {
        (0..TRAIN_RUNS)
            .map(|i| lublin_trace(opts.seed, i, TRAIN_TRACE_JOBS))
            .collect()
    });
    let configs: Vec<TrainConfig> = (0..TRAIN_RUNS)
        .map(|k| train_config_for_run(opts.seed, k))
        .collect();
    let mut epoch_secs = Fastest::default();
    let mut latencies = Latencies::new(crate::LATENCY_SAMPLES);
    // The first pass's runs, which every later pass must repeat bitwise.
    let mut first: Vec<Option<Vec<Epoch>>> = Vec::new();
    let mut layer_samples = Vec::new();
    // Warm-up outside the timed region: the host's first seconds of work
    // run measurably slower.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        train_run(&traces[0], &configs[0], false, &mut Latencies::new(0))
    }));
    let mut passes = 0;
    let start = Instant::now();
    while passes < crate::MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        passes += 1;
        epoch_secs.restart();
        latencies.restart();
        for (k, (trace, cfg)) in traces.iter().zip(&configs).enumerate() {
            let run = catch_unwind(AssertUnwindSafe(|| {
                train_run(trace, cfg, false, &mut latencies)
            }))
            .ok()
            .and_then(Result::ok);
            if first.len() == k {
                first.push(run.clone());
            }
            for e in 0..cfg.epochs {
                let ok = match (&run, &first[k]) {
                    (Some(r), Some(f)) => r[e].finite() && r[e].same_as(&f[e]),
                    _ => false,
                };
                report.unit(ok);
                epoch_secs.push(run.as_ref().map_or(f64::INFINITY, |r| r[e].secs));
            }
            let Some(run) = run.filter(|_| opts.trace) else {
                continue;
            };
            let (traced, mut m, wall) = crate::traced(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    train_run(trace, cfg, true, &mut Latencies::new(0))
                }))
            });
            let same = matches!(&traced, Ok(Ok(t)) if same_run(t, &run));
            report.unit(same);
            report.check(same, || {
                "traced training differs from the untraced run".into()
            });
            let untraced_wall: f64 = run.iter().map(|e| e.secs).sum();
            m.insert("trace.overhead_ratio".into(), wall / untraced_wall);
            let iters: usize = run.iter().map(|e| e.update.pi_iters_run).sum();
            m.insert("ppo.pi_iters_run".into(), iters as f64 / run.len() as f64);
            m.insert("tinynn.flops_per_sample".into(), flops_per_sample(&cfg.net));
            layer_samples.push(m);
        }
    }
    crate::set_peak_rss(report);
    let runs: Vec<&Vec<Epoch>> = first.iter().flatten().collect();
    report.check(runs.len() == TRAIN_RUNS, || "a training run failed".into());
    let Some(run0) = first[0].as_ref() else {
        return;
    };
    // FCFS + EASY on the trajectories of the training runs.
    let scored: Vec<&Epoch> = runs.iter().copied().flatten().collect();
    let agent_bsld: f64 = scored.iter().map(|e| e.mean_bsld).sum();
    let easy_bsld_sum: f64 = scored
        .iter()
        .map(|e| e.windows.iter().map(easy_bsld).sum::<f64>() / e.windows.len() as f64)
        .sum();
    report.set("bsld_vs_easy", agent_bsld / easy_bsld_sum);

    let epochs: Vec<&Epoch> = first
        .iter()
        .zip(&configs)
        .flat_map(|(r, cfg)| (0..cfg.epochs).map(move |e| r.as_ref().map(|r| &r[e])))
        .flatten()
        .collect();
    if epochs.len() == epoch_secs.count() {
        let work = |f: fn(&Epoch) -> usize| epochs.iter().map(|e| f(e) as f64).collect::<Vec<_>>();
        if let Some(v) = stats::median_rate(&work(|e| e.jobs), &epoch_secs.values()) {
            report.set("jobs_per_s", v);
        }
        if let Some(v) = stats::median_rate(&work(|e| e.decisions), &epoch_secs.values()) {
            report.set("decisions_per_s", v);
        }
    }
    crate::set_latency(report, &mut latencies, passes);
    for (k, v) in crate::median_layers(&layer_samples) {
        report.set(k, v);
    }
    let epoch_bsld: Vec<f64> = run0.iter().map(|e| e.mean_bsld).collect();
    crate::check_expected(report, opts.seed, &train_fingerprint(&epoch_bsld));
    let cfg = &configs[0];
    crate::note(format!(
        "{TRAIN_RUNS} training runs x {} epochs x {} trajectories of {} jobs, {passes} passes; run 0 epoch bsld {epoch_bsld:?}; agent/easy mean bsld over {} trajectories {:.4}/{:.4}",
        cfg.epochs,
        cfg.traj_per_epoch,
        cfg.jobs_per_traj,
        scored.len(),
        agent_bsld / scored.len() as f64,
        easy_bsld_sum / scored.len() as f64,
    ));
}

fn same_run(a: &[Epoch], b: &[Epoch]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_as(y))
}

/// `rl_deploy`'s inputs.
pub struct DeployInputs {
    pub agent: RlbfAgent,
    pub windows: Vec<Trace>,
}

impl DeployInputs {
    pub fn build(seed: u64) -> Result<Self, String> {
        let agent =
            RlbfAgent::load(AGENT_PATH).map_err(|e| format!("cannot load {AGENT_PATH}: {e}"))?;
        let (env_slots, net_slots) = (
            agent.env.obs.max_obsv_size,
            agent.ac.config().obs.max_obsv_size,
        );
        if env_slots != SLOTS || net_slots != SLOTS {
            return Err(format!(
                "checkpoint observes {env_slots} (env) / {net_slots} (net) slots; rl_deploy needs {SLOTS}"
            ));
        }
        let windows = (0..DEPLOY_TRACES)
            .flat_map(|i| {
                let trace = lublin_trace(seed, i, DEPLOY_TRACE_JOBS);
                rlbf::sample_windows(&trace, DEPLOY_WINDOWS_PER_TRACE, DEPLOY_WINDOW_JOBS, seed)
            })
            .collect();
        Ok(Self { agent, windows })
    }
}

/// What one deployed window must reproduce bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowOutcome {
    bsld_bits: u64,
    completed: usize,
    decisions: usize,
}

/// Schedules one window greedily, as `RlbfAgent::schedule` does, timing
/// each decision (`act_greedy` plus `BackfillEnv::step`) into `latencies`.
/// Traced, it also encodes every decision's observation once more, for
/// `rlbf.obs_encode`.
fn deploy_window(
    agent: &RlbfAgent,
    w: &Trace,
    traced: bool,
    latencies: &mut Latencies,
) -> Result<WindowOutcome, EnvError> {
    let mut env = {
        let _s = spans::span("rlbf.env_new");
        BackfillEnv::on_platform(w, Policy::Fcfs, agent.env, &Platform::flat())
    };
    while let Some(obs) = env.observation().cloned() {
        if traced {
            let _s = spans::span("rlbf.obs_encode");
            std::hint::black_box(encode_with_skip(
                env.simulation(),
                &agent.env.obs,
                agent.env.allow_skip,
            ));
        }
        let t = Instant::now();
        let slot = {
            let _s = spans::span("rlbf.act_greedy");
            agent.ac.act_greedy(&obs)
        };
        {
            let _s = spans::span("rlbf.env_step");
            env.step(slot)?;
        }
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let metrics = {
        let _s = spans::span("hpcsim.metrics");
        env.metrics()
    };
    Ok(WindowOutcome {
        bsld_bits: metrics.mean_bounded_slowdown.to_bits(),
        completed: metrics.jobs,
        decisions: env.decisions(),
    })
}

/// `rl_deploy`'s values checked against `expected.txt` at the default seed.
pub fn deploy_fingerprint(bsld: f64, easy: f64) -> Vec<(String, f64)> {
    vec![
        ("rl_deploy.bsld".into(), bsld),
        ("rl_deploy.easy_bsld".into(), easy),
    ]
}

pub fn run_deploy(opts: &Opts, report: &mut Report) {
    let inputs = crate::time_setup(report, || DeployInputs::build(opts.seed));
    let inputs = match inputs {
        Ok(i) => i,
        Err(e) => {
            report.check(false, || e);
            return;
        }
    };
    let n = inputs.windows.len() as f64;
    let easy = inputs.windows.iter().map(easy_bsld).sum::<f64>() / n;

    let mut window_secs = Fastest::default();
    let mut latencies = Latencies::new(crate::LATENCY_SAMPLES);
    let mut first: Option<Vec<Option<WindowOutcome>>> = None;
    let mut layer_samples = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes < crate::MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        passes += 1;
        window_secs.restart();
        latencies.restart();
        let t_pass = Instant::now();
        let mut outcomes = Vec::with_capacity(inputs.windows.len());
        for w in &inputs.windows {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                deploy_window(&inputs.agent, w, false, &mut latencies)
            }));
            window_secs.push(t.elapsed().as_secs_f64());
            outcomes.push(match r {
                Ok(Ok(o)) if o.completed == w.len() => Some(o),
                _ => None,
            });
        }
        let pass_secs = t_pass.elapsed().as_secs_f64();
        let reference = first.get_or_insert_with(|| outcomes.clone());
        for (o, r) in outcomes.iter().zip(reference.iter()) {
            report.unit(o.is_some() && o == r);
        }
        if opts.trace {
            let (traced, mut m, wall) = crate::traced(|| {
                inputs
                    .windows
                    .iter()
                    .map(|w| {
                        catch_unwind(AssertUnwindSafe(|| {
                            deploy_window(&inputs.agent, w, true, &mut Latencies::new(0))
                        }))
                        .ok()
                        .and_then(Result::ok)
                    })
                    .collect::<Vec<_>>()
            });
            let same = traced == *reference;
            report.unit(same);
            report.check(same, || {
                "traced deploy differs from the untraced one".into()
            });
            m.insert("trace.overhead_ratio".into(), wall / pass_secs);
            m.insert(
                "tinynn.flops_per_sample".into(),
                flops_per_sample(inputs.agent.ac.config()),
            );
            layer_samples.push(m);
        }
    }
    crate::set_peak_rss(report);
    let reference = first.unwrap_or_default();
    let jobs: Vec<f64> = inputs.windows.iter().map(|w| w.len() as f64).collect();
    let decisions: Vec<f64> = reference
        .iter()
        .map(|o| o.map_or(0.0, |o| o.decisions as f64))
        .collect();
    if let Some(v) = stats::median_rate(&jobs, &window_secs.values()) {
        report.set("jobs_per_s", v);
    }
    if let Some(v) = stats::median_rate(&decisions, &window_secs.values()) {
        report.set("decisions_per_s", v);
    }
    crate::set_latency(report, &mut latencies, passes);
    let bslds: Vec<f64> = reference
        .iter()
        .flatten()
        .map(|o| f64::from_bits(o.bsld_bits))
        .collect();
    report.check(bslds.len() == inputs.windows.len(), || {
        "a deploy window failed".into()
    });
    let bsld = bslds.iter().sum::<f64>() / n;
    report.set("bsld_vs_easy", bsld / easy);
    for (k, v) in crate::median_layers(&layer_samples) {
        report.set(k, v);
    }
    crate::check_expected(report, opts.seed, &deploy_fingerprint(bsld, easy));
    crate::note(format!(
        "{} windows x {} jobs, {passes} passes, agent bsld {bsld:.4}, easy bsld {easy:.4}",
        inputs.windows.len(),
        DEPLOY_WINDOW_JOBS
    ));
}

/// Trains the committed deploy agent (`--make-agent`): a fixed-seed
/// `rlbf::train` at 128 slots with the default imitation warm start.
/// Greedy deployment reads only the policy network, so the saved file
/// keeps that and stores a zeroed value network with fresh optimizer
/// state, which keeps the fixture small.
pub fn make_agent() -> Result<(), String> {
    let trace = TracePreset::Lublin1.generate(AGENT_TRACE_JOBS, AGENT_TRACE_SEED);
    let cfg = TrainConfig {
        epochs: AGENT_EPOCHS,
        traj_per_epoch: AGENT_TRAJ_PER_EPOCH,
        seed: 0,
        ..TrainConfig::default()
    };
    assert_eq!(cfg.net.obs.max_obsv_size, SLOTS);
    let result = rlbf::train(&trace, cfg);
    let mut ac = BackfillActorCritic::new(result.config.net.clone(), 0);
    ac.policy = result.ac.policy.clone();
    ac.policy.zero_grad();
    for (p, g) in ac.value.params_and_grads_mut() {
        p.fill_zero();
        g.fill_zero();
    }
    let agent = RlbfAgent {
        ac,
        ..RlbfAgent::from_training(&result, trace.name())
    };
    agent
        .save(AGENT_PATH)
        .map_err(|e| format!("cannot write {AGENT_PATH}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_training_loop_matches_rlbf_train() {
        // One worker thread, as in a benchmark run: the parallel update is
        // then bitwise the sequential one the traced run decorates.
        assert!(crate::host::pin_to_current_cpu().is_some());
        let trace = TracePreset::Lublin2.generate(600, 41);
        let mut cfg = TrainConfig::smoke();
        cfg.pretrain_episodes = 0;
        cfg.epochs = 2;
        let lib = rlbf::train(&trace, cfg.clone());
        let ours = train_run(&trace, &cfg, false, &mut Latencies::new(0)).unwrap();
        let traced = train_run(&trace, &cfg, true, &mut Latencies::new(0)).unwrap();
        assert_eq!(lib.history.len(), ours.len());
        for ((l, o), t) in lib.history.iter().zip(&ours).zip(&traced) {
            assert_eq!(l.mean_bsld.to_bits(), o.mean_bsld.to_bits());
            assert_eq!(l.update, o.update);
            assert!(o.same_as(t));
        }
    }

    #[test]
    fn flops_count_both_networks() {
        let net = NetConfig {
            obs: rlbf::ObsConfig { max_obsv_size: 1 },
            policy_hidden: vec![2],
            value_hidden: vec![3],
            ..NetConfig::default()
        };
        // Policy over 2 rows: 12→2→1 = (48+2) + (4+1) = 55 per row.
        // Value: 24→3→1 = (144+3) + (6+1) = 154.
        assert_eq!(flops_per_sample(&net), 2.0 * 55.0 + 154.0);
    }
}
