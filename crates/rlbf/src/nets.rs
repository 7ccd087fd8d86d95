//! The paper's actor-critic networks (§3.3).
//!
//! * **Policy network** (§3.3.1): a *kernel-based* 3-layer MLP applied to
//!   each job vector independently, producing one score per slot; a masked
//!   softmax over the scores gives the backfilling distribution. Because
//!   the same kernel reads one job at a time, the parameter count is tiny
//!   and the network is insensitive to job order.
//!
//!   Because the kernel scores each row on its own, and the masked softmax,
//!   sampling, argmax and logit gradient read only unmasked rows, the
//!   policy runs forward and backward on the unmasked rows alone (about 3
//!   of 129 at 128 slots). The scores it skips are never read, and the
//!   gradient rows it skips are exactly zero, so log-probs, actions and
//!   accumulated gradients are bitwise those of scoring every row (pinned
//!   by the tests below). [`BackfillActorCritic::logits`] reads 0 on the
//!   masked rows it skips.
//! * **Value network** (§3.3.2): a 3-layer MLP over the *flattened*
//!   observation ("the jobs are concat and flattened before being input"),
//!   estimating the expected episode reward.

use crate::obs::{ObsConfig, Observation, JOB_FEATURES};
use ppo::ActorCritic;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tinynn::{
    entropy_grad_wrt_logits, log_prob_grad_wrt_logits, Activation, Adam, AdamConfig,
    MaskedCategorical, Matrix, Mlp,
};

/// Network architecture and optimizer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Observation encoding (slot count).
    pub obs: ObsConfig,
    /// Hidden widths of the kernel policy MLP (3 layers in the paper).
    pub policy_hidden: Vec<usize>,
    /// Hidden widths of the value MLP.
    pub value_hidden: Vec<usize>,
    /// Policy learning rate (paper: 1e-3).
    pub pi_lr: f64,
    /// Value learning rate (paper: 1e-3).
    pub v_lr: f64,
    /// Entropy-bonus coefficient added to the policy gradient.
    pub entropy_coef: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            obs: ObsConfig::default(),
            policy_hidden: vec![32, 16],
            value_hidden: vec![32, 16],
            pi_lr: 1e-3,
            v_lr: 1e-3,
            entropy_coef: 0.0,
        }
    }
}

/// The RLBackfilling agent's networks and optimizers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackfillActorCritic {
    /// Kernel policy MLP: `JOB_FEATURES → hidden → 1`.
    pub policy: Mlp,
    /// Value MLP: `max_obsv_size · JOB_FEATURES → hidden → 1`.
    pub value: Mlp,
    cfg: NetConfig,
    policy_opt: Adam,
    value_opt: Adam,
}

impl BackfillActorCritic {
    /// Fresh Xavier-initialized networks.
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut policy_dims = vec![JOB_FEATURES];
        policy_dims.extend(&cfg.policy_hidden);
        policy_dims.push(1);
        // +1 row: the skip pseudo-job (see `rlbf::obs`).
        let mut value_dims = vec![(cfg.obs.max_obsv_size + 1) * JOB_FEATURES];
        value_dims.extend(&cfg.value_hidden);
        value_dims.push(1);
        Self {
            policy: Mlp::new(
                &policy_dims,
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            ),
            value: Mlp::new(
                &value_dims,
                Activation::Relu,
                Activation::Identity,
                &mut rng,
            ),
            policy_opt: Adam::new(AdamConfig::with_lr(cfg.pi_lr)),
            value_opt: Adam::new(AdamConfig::with_lr(cfg.v_lr)),
            cfg,
        }
    }

    /// The configuration the networks were built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Action logits, one per row of the observation including the skip
    /// pseudo-job (last row): the kernel's score on each unmasked row, 0 on
    /// masked rows, which the kernel does not score.
    pub fn logits(&self, obs: &Observation) -> Vec<f64> {
        let (rows, x) = policy_input(obs);
        scatter_scores(obs, &rows, &self.policy.forward(&x))
    }

    /// The masked action distribution at `obs` (job slots + skip).
    pub fn distribution(&self, obs: &Observation) -> MaskedCategorical {
        MaskedCategorical::new(&self.logits(obs), obs.action_mask())
    }

    /// Samples an action (training-time exploration). Returns
    /// `(slot, log_prob, value)`.
    pub fn act_sample<R: Rng + ?Sized>(&self, obs: &Observation, rng: &mut R) -> (usize, f64, f64) {
        let dist = self.distribution(obs);
        let a = dist.sample(rng);
        (a, dist.log_prob(a), self.value_of(obs))
    }

    /// Greedy argmax action (evaluation-time, paper §3.3.1).
    pub fn act_greedy(&self, obs: &Observation) -> usize {
        self.distribution(obs).argmax()
    }

    /// Critic estimate of the expected episode reward at `obs`.
    pub fn value_of(&self, obs: &Observation) -> f64 {
        self.value.forward(&obs.features.flatten()).get(0, 0)
    }

    /// Serializes the full agent (networks + optimizer state) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("actor-critic serializes")
    }

    /// Restores an agent saved with [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Replaces the policy optimizer with a fresh Adam at the given
    /// learning rate (used to switch between the imitation warm-start and
    /// PPO phases; Adam moments do not carry across objectives).
    pub fn reset_policy_optimizer(&mut self, lr: f64) {
        self.policy_opt = Adam::new(AdamConfig::with_lr(lr));
    }

    /// A copy of the networks for a worker that only accumulates gradients
    /// (parallel updates): its optimizers are fresh, so the Adam moments
    /// are not copied; Adam shapes them lazily if it ever steps.
    pub fn worker(&self) -> Self {
        Self {
            policy: self.policy.clone(),
            value: self.value.clone(),
            cfg: self.cfg.clone(),
            policy_opt: Adam::new(self.policy_opt.config()),
            value_opt: Adam::new(self.value_opt.config()),
        }
    }

    /// Merges gradient accumulators from a worker clone (parallel update).
    pub fn merge_grads_from(&mut self, other: &Self) {
        merge_mlp_grads(&mut self.policy, &other.policy);
        merge_mlp_grads(&mut self.value, &other.value);
    }
}

/// The kernel policy's input: the unmasked rows of `obs.features`,
/// gathered in order, with their row indices.
fn policy_input(obs: &Observation) -> (Vec<usize>, Matrix) {
    let rows: Vec<usize> = (0..obs.mask.len()).filter(|&r| obs.mask[r]).collect();
    let mut data = Vec::with_capacity(rows.len() * JOB_FEATURES);
    for &r in &rows {
        data.extend_from_slice(obs.features.row_slice(r));
    }
    let x = Matrix::from_vec(rows.len(), JOB_FEATURES, data);
    (rows, x)
}

/// Full-length logits from one score per gathered row; rows that were not
/// scored read 0 and are masked out of every downstream use.
fn scatter_scores(obs: &Observation, rows: &[usize], scores: &Matrix) -> Vec<f64> {
    let mut logits = vec![0.0; obs.mask.len()];
    for (k, &r) in rows.iter().enumerate() {
        logits[r] = scores.get(k, 0);
    }
    logits
}

fn merge_mlp_grads(into: &mut Mlp, from: &Mlp) {
    // Walk parameter/grad pairs in lock-step; architectures are identical.
    let mut into_pairs = into.params_and_grads_mut();
    let from_grads = from.grads();
    assert_eq!(into_pairs.len(), from_grads.len(), "architecture mismatch");
    for ((_, g), fg) in into_pairs.iter_mut().zip(from_grads) {
        g.add_scaled_assign(fg, 1.0);
    }
}

impl ActorCritic<Observation> for BackfillActorCritic {
    fn log_prob(&self, obs: &Observation, action: usize) -> f64 {
        self.distribution(obs).log_prob(action)
    }

    fn value(&self, obs: &Observation) -> f64 {
        self.value_of(obs)
    }

    fn accumulate_policy_grad(&mut self, obs: &Observation, action: usize, coef: f64) {
        let (rows, x) = policy_input(obs);
        let (out, cache) = self.policy.forward_cached(&x);
        let logits = scatter_scores(obs, &rows, &out);
        let mask = obs.action_mask();
        let mut dlogits = log_prob_grad_wrt_logits(&logits, mask, action, coef);
        if self.cfg.entropy_coef != 0.0 {
            let ent = entropy_grad_wrt_logits(&logits, mask);
            for (d, e) in dlogits.iter_mut().zip(ent) {
                *d += self.cfg.entropy_coef * e;
            }
        }
        let grad = Matrix::from_vec(rows.len(), 1, rows.iter().map(|&r| dlogits[r]).collect());
        self.policy.accumulate_grads(&cache, &grad);
    }

    fn accumulate_value_grad(&mut self, obs: &Observation, coef: f64) {
        let flat = obs.features.flatten();
        let (_, cache) = self.value.forward_cached(&flat);
        let grad = Matrix::from_vec(1, 1, vec![coef]);
        self.value.accumulate_grads(&cache, &grad);
    }

    fn policy_opt_step(&mut self) {
        // `accumulate_policy_grad` builds ascent gradients; Adam descends,
        // so flip the sign once here.
        for (_, g) in self.policy.params_and_grads_mut() {
            g.scale_assign(-1.0);
        }
        self.policy_opt.step(self.policy.params_and_grads_mut());
    }

    fn value_opt_step(&mut self) {
        for (_, g) in self.value.params_and_grads_mut() {
            g.scale_assign(-1.0);
        }
        self.value_opt.step(self.value.params_and_grads_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> NetConfig {
        NetConfig {
            obs: ObsConfig { max_obsv_size: 8 },
            policy_hidden: vec![8, 4],
            value_hidden: vec![8, 4],
            v_lr: 1e-2,
            ..NetConfig::default()
        }
    }

    /// Builds an observation with the given job-slot validity; the final
    /// `valid` entry is the skip action's availability.
    fn fake_obs(valid_jobs: &[bool]) -> Observation {
        fake_obs_with_skip(valid_jobs, true)
    }

    fn fake_obs_with_skip(valid_jobs: &[bool], skip: bool) -> Observation {
        let slots = valid_jobs.len();
        let mut features = Matrix::zeros(slots + 1, JOB_FEATURES);
        for s in 0..slots {
            for c in 0..JOB_FEATURES {
                features.set(s, c, ((s * 7 + c) as f64 * 0.37).sin() * 0.5 + 0.5);
            }
        }
        features.set(slots, 4, 0.5);
        let mut mask = valid_jobs.to_vec();
        mask.push(skip);
        let mut queue_index: Vec<Option<usize>> = (0..slots).map(Some).collect();
        queue_index.push(None);
        Observation {
            features,
            mask,
            queue_index,
        }
    }

    #[test]
    fn kernel_policy_is_order_equivariant() {
        // Swapping two job rows must swap their scores: the kernel reads
        // one job at a time (paper's order-insensitivity claim).
        let ac = BackfillActorCritic::new(tiny_cfg(), 3);
        let obs = fake_obs(&[true; 8]);
        let logits = ac.logits(&obs);

        let mut swapped = obs.clone();
        for c in 0..JOB_FEATURES {
            let a = swapped.features.get(2, c);
            let b = swapped.features.get(5, c);
            swapped.features.set(2, c, b);
            swapped.features.set(5, c, a);
        }
        let logits_swapped = ac.logits(&swapped);
        assert!((logits[2] - logits_swapped[5]).abs() < 1e-12);
        assert!((logits[5] - logits_swapped[2]).abs() < 1e-12);
        assert!((logits[0] - logits_swapped[0]).abs() < 1e-12);
    }

    #[test]
    fn greedy_action_is_always_valid() {
        let ac = BackfillActorCritic::new(tiny_cfg(), 4);
        for pattern in [
            vec![false, true, false, true, false, false, false, false],
            vec![true, false, false, false, false, false, false, false],
        ] {
            let obs = fake_obs(&pattern);
            let a = ac.act_greedy(&obs);
            assert!(
                a == obs.skip_action() || obs.mask[a],
                "greedy picked a masked slot"
            );
        }
        // With skip disallowed, greedy must land on a valid job slot.
        let obs = fake_obs_with_skip(
            &[false, true, false, false, false, false, false, false],
            false,
        );
        let a = ac.act_greedy(&obs);
        assert_eq!(a, 1);
    }

    #[test]
    fn sampled_actions_are_valid_and_logged() {
        let ac = BackfillActorCritic::new(tiny_cfg(), 5);
        let obs = fake_obs(&[false, true, true, false, true, false, false, false]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut skip_seen = false;
        for _ in 0..200 {
            let (a, logp, v) = ac.act_sample(&obs, &mut rng);
            if a == obs.skip_action() {
                skip_seen = true;
            } else {
                assert!(obs.mask[a]);
            }
            assert!(logp <= 0.0 && logp.is_finite());
            assert!(v.is_finite());
        }
        assert!(skip_seen, "skip action should be sampled occasionally");
    }

    #[test]
    fn policy_gradient_ascends_chosen_action_probability() {
        let mut ac = BackfillActorCritic::new(tiny_cfg(), 6);
        let obs = fake_obs(&[true; 8]);
        let action = 3;
        let before = ac.log_prob(&obs, action);
        for _ in 0..50 {
            ac.accumulate_policy_grad(&obs, action, 1.0);
            ac.policy_opt_step();
        }
        let after = ac.log_prob(&obs, action);
        assert!(
            after > before,
            "ascent did not increase log-prob: {before} -> {after}"
        );
    }

    #[test]
    fn value_gradient_moves_value_toward_target() {
        let mut ac = BackfillActorCritic::new(tiny_cfg(), 7);
        let obs = fake_obs(&[true; 8]);
        let target = 0.7;
        for _ in 0..300 {
            let v = ac.value_of(&obs);
            ac.accumulate_value_grad(&obs, -2.0 * (v - target));
            ac.value_opt_step();
        }
        let v = ac.value_of(&obs);
        assert!(
            (v - target).abs() < 0.05,
            "value {v} did not reach {target}"
        );
    }

    #[test]
    fn json_round_trip_preserves_behavior() {
        let ac = BackfillActorCritic::new(tiny_cfg(), 8);
        let obs = fake_obs(&[true; 8]);
        let back = BackfillActorCritic::from_json(&ac.to_json()).unwrap();
        let (a, b) = (ac.logits(&obs), back.logits(&obs));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        assert_eq!(ac.act_greedy(&obs), back.act_greedy(&obs));
    }

    #[test]
    fn merge_grads_sums_worker_gradients() {
        let cfg = tiny_cfg();
        let base = BackfillActorCritic::new(cfg, 10);
        let obs = fake_obs(&[true; 8]);

        // Worker A and B accumulate on clones; merging into a zero-grad
        // master must equal accumulating both on one instance.
        let mut reference = base.clone();
        reference.accumulate_policy_grad(&obs, 1, 0.5);
        reference.accumulate_policy_grad(&obs, 2, -0.25);

        let mut worker_a = base.clone();
        worker_a.accumulate_policy_grad(&obs, 1, 0.5);
        let mut worker_b = base.clone();
        worker_b.accumulate_policy_grad(&obs, 2, -0.25);
        let mut master = base.clone();
        master.merge_grads_from(&worker_a);
        master.merge_grads_from(&worker_b);

        let mg = master.policy.grads();
        let rg = reference.policy.grads();
        for (m, r) in mg.iter().zip(&rg) {
            for (a, b) in m.data().iter().zip(r.data()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    /// The formulation valid-row scoring replaced: the kernel scores every
    /// row of the observation.
    fn all_rows_logits(ac: &BackfillActorCritic, obs: &Observation) -> Vec<f64> {
        let out = ac.policy.forward(&obs.features);
        (0..out.rows()).map(|r| out.get(r, 0)).collect()
    }

    /// `accumulate_policy_grad` over every row (the backward pass itself is
    /// pinned against the transpose formulation in tinynn's tests).
    fn all_rows_policy_grad(ac: &mut BackfillActorCritic, obs: &Observation, a: usize, coef: f64) {
        let (out, cache) = ac.policy.forward_cached(&obs.features);
        let logits: Vec<f64> = (0..out.rows()).map(|r| out.get(r, 0)).collect();
        let mask = obs.action_mask();
        let mut dlogits = log_prob_grad_wrt_logits(&logits, mask, a, coef);
        if ac.cfg.entropy_coef != 0.0 {
            let ent = entropy_grad_wrt_logits(&logits, mask);
            for (d, e) in dlogits.iter_mut().zip(ent) {
                *d += ac.cfg.entropy_coef * e;
            }
        }
        let grad = Matrix::from_vec(dlogits.len(), 1, dlogits);
        ac.policy.backward(&cache, &grad);
    }

    #[test]
    fn valid_row_scoring_is_bitwise_all_row_scoring() {
        let mut few = vec![false; 8];
        for s in [1, 4, 6] {
            few[s] = true;
        }
        let mut one = vec![false; 8];
        one[5] = true;
        let mut wide = vec![false; 128];
        for s in [0, 3, 17, 90, 127] {
            wide[s] = true;
        }
        let cases: [(NetConfig, Vec<bool>); 5] = [
            (tiny_cfg(), one),
            (tiny_cfg(), few),
            (tiny_cfg(), vec![true; 8]),
            (tiny_cfg(), vec![false; 8]),
            (NetConfig::default(), wide),
        ];
        for entropy_coef in [0.0, 0.01] {
            for (net, jobs) in &cases {
                for skip in [true, false] {
                    if !skip && !jobs.contains(&true) {
                        continue;
                    }
                    let obs = fake_obs_with_skip(jobs, skip);
                    let cfg = NetConfig {
                        entropy_coef,
                        ..net.clone()
                    };
                    let mut ac = BackfillActorCritic::new(cfg, 21);
                    // Move off the initial weights so some ReLUs die.
                    let first = obs.mask.iter().position(|&m| m).unwrap();
                    for _ in 0..3 {
                        ac.accumulate_policy_grad(&obs, first, 1.0);
                        ac.policy_opt_step();
                    }
                    let what = format!("jobs {jobs:?} skip {skip} entropy {entropy_coef}");
                    let logits = all_rows_logits(&ac, &obs);
                    let oracle = MaskedCategorical::new(&logits, obs.action_mask());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let valid: Vec<usize> = (0..obs.mask.len()).filter(|&a| obs.mask[a]).collect();
                    let fast_logits = ac.logits(&obs);
                    for r in 0..obs.mask.len() {
                        let expected = if obs.mask[r] { logits[r] } else { 0.0 };
                        assert_eq!(
                            fast_logits[r].to_bits(),
                            expected.to_bits(),
                            "{what}: logits[{r}]"
                        );
                    }
                    for &a in &valid {
                        assert_eq!(
                            ac.log_prob(&obs, a).to_bits(),
                            oracle.log_prob(a).to_bits(),
                            "{what}: log_prob({a})"
                        );
                    }
                    assert_eq!(ac.act_greedy(&obs), oracle.argmax(), "{what}: greedy");
                    let mut rng = SmallRng::seed_from_u64(3);
                    let mut oracle_rng = rng.clone();
                    for _ in 0..20 {
                        let (a, logp, _) = ac.act_sample(&obs, &mut rng);
                        assert_eq!(a, oracle.sample(&mut oracle_rng), "{what}: sample");
                        assert_eq!(logp.to_bits(), oracle.log_prob(a).to_bits(), "{what}");
                    }
                    let mut fast = ac.clone();
                    let mut slow = ac.clone();
                    for (i, &a) in valid.iter().enumerate() {
                        let coef = 0.3 - 0.2 * i as f64;
                        fast.accumulate_policy_grad(&obs, a, coef);
                        all_rows_policy_grad(&mut slow, &obs, a, coef);
                    }
                    for (p, (f, s)) in fast
                        .policy
                        .grads()
                        .iter()
                        .zip(slow.policy.grads())
                        .enumerate()
                    {
                        assert_eq!(bits(f.data()), bits(s.data()), "{what}: grad {p}");
                    }
                }
            }
        }
    }
}
