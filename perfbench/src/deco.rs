//! Timing decorators over the program's public traits. Each forwards every
//! call unchanged to the wrapped implementation inside a span, so a traced
//! run sees the same decisions as an untraced one.

use crate::spans::span;
use hpcsim::cluster::ClusterView;
use hpcsim::{RerouteDecision, Router};
use ppo::ActorCritic;
use swf::Job;

/// Wraps an [`hpcsim::Router`]: `route` and `reroute` each run inside a
/// `router.route` / `router.reroute` span.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimedRouter<R>(pub R);

impl<R: Router> Router for TimedRouter<R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn route(&self, job: &Job, view: &ClusterView<'_>) -> usize {
        let _s = span("router.route");
        self.0.route(job, view)
    }

    fn reroute(&self, job: &Job, view: &ClusterView<'_>, from: usize) -> Option<RerouteDecision> {
        let _s = span("router.reroute");
        self.0.reroute(job, view, from)
    }
}

/// Wraps a [`ppo::ActorCritic`] for `ppo::ppo_update`: policy and value
/// forwards, the gradient accumulations (each includes the cached forward
/// it differentiates) and the optimizer steps each get a span.
pub struct TimedActorCritic<'a, A>(pub &'a mut A);

impl<O, A: ActorCritic<O>> ActorCritic<O> for TimedActorCritic<'_, A> {
    fn log_prob(&self, obs: &O, action: usize) -> f64 {
        let _s = span("tinynn.pi_forward");
        self.0.log_prob(obs, action)
    }

    fn value(&self, obs: &O) -> f64 {
        let _s = span("tinynn.v_forward");
        self.0.value(obs)
    }

    fn accumulate_policy_grad(&mut self, obs: &O, action: usize, coef: f64) {
        let _s = span("tinynn.pi_backward");
        self.0.accumulate_policy_grad(obs, action, coef)
    }

    fn accumulate_value_grad(&mut self, obs: &O, coef: f64) {
        let _s = span("tinynn.v_backward");
        self.0.accumulate_value_grad(obs, coef)
    }

    fn policy_opt_step(&mut self) {
        let _s = span("tinynn.adam");
        self.0.policy_opt_step()
    }

    fn value_opt_step(&mut self) {
        let _s = span("tinynn.adam");
        self.0.value_opt_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;
    use hpcsim::prelude::*;
    use rlbf::{BackfillActorCritic, TrainConfig};
    use std::sync::Arc;
    use swf::TracePreset;

    #[test]
    fn timed_router_realizes_the_same_schedule_and_counts_calls() {
        let src = swf::TraceSource::PartitionedPreset {
            preset: TracePreset::Lublin1,
            parts: 4,
            jobs: 600,
            seed: 3,
        };
        let trace = src.materialize().unwrap();
        let spec = ClusterSpec::from_layout(&src.layout().unwrap());
        let reroute = ReroutePolicy::AtDecisionPoints {
            max_moves_per_job: 3,
            min_gain_secs: 60.0,
        };
        let easy = Backfill::Easy(RuntimeEstimator::RequestTime);
        let plain = run_scheduler_on_rerouted(
            &trace,
            Policy::Fcfs,
            easy,
            &spec,
            Arc::new(EarliestStart::default()),
            reroute,
        );
        spans::start();
        let timed = run_scheduler_on_rerouted(
            &trace,
            Policy::Fcfs,
            easy,
            &spec,
            Arc::new(TimedRouter(EarliestStart::default())),
            reroute,
        );
        spans::stop();
        let rows = spans::recorded(spans::self_times);
        assert_eq!(plain.completed, timed.completed);
        assert_eq!(plain.migrations, timed.migrations);
        assert_eq!(rows["router.route"].calls as usize, trace.len());
        assert!(rows["router.reroute"].calls > 0);
    }

    #[test]
    fn timed_actor_critic_updates_bitwise_like_the_bare_one() {
        let trace = TracePreset::Lublin2.generate(400, 5);
        let cfg = TrainConfig::smoke();
        let batch = crate::rl::smoke_batch(&trace, &cfg);
        let mut bare = BackfillActorCritic::new(cfg.net.clone(), 9);
        let mut wrapped = bare.clone();
        let a = ppo::ppo_update(&mut bare, &batch, &cfg.ppo);
        spans::start();
        let b = ppo::ppo_update(&mut TimedActorCritic(&mut wrapped), &batch, &cfg.ppo);
        spans::stop();
        let rows = spans::recorded(spans::self_times);
        assert_eq!(a, b);
        assert_eq!(bare.to_json(), wrapped.to_json());
        let n = batch.len() as u64;
        let v_iters = cfg.ppo.train_v_iters as u64;
        assert_eq!(rows["tinynn.v_backward"].calls, n * v_iters);
        assert_eq!(rows["tinynn.adam"].calls, a.pi_iters_run as u64 + v_iters);
    }
}
