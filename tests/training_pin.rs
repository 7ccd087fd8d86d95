//! Byte pin for one smoke-scale training run: `rlbf::train` at
//! `TrainConfig::smoke()` (imitation warm start, then three PPO epochs) on
//! the `rl_smoke` example's trace must reproduce
//! `results/training_smoke_pin.json` exactly — every epoch's `mean_bsld`,
//! `approx_kl`, `value_loss` and `pi_iters_run`, plus an FNV-1a hash over
//! the bit patterns of the final policy and value parameters. Any change
//! to the order of a floating-point sum in tinynn, ppo or rlbf moves it.
//!
//! The parallel update merges per-worker gradient sums, so its bits depend
//! on the worker count; the test fixes `RAYON_NUM_THREADS` so that the pin
//! holds on any machine. It is the only test in this binary, which keeps
//! the environment write free of concurrent readers.
//!
//! Run from the workspace root (paths are workspace-relative).

use rlbackfill::rlbf::{train, BackfillActorCritic, TrainConfig};
use rlbackfill::swf::TracePreset;
use std::fmt::Write;

const PIN_PATH: &str = "results/training_smoke_pin.json";
const THREADS: usize = 2;
const TRACE_JOBS: usize = 600;
const TRACE_SEED: u64 = 20240914;

fn fnv1a(hash: u64, bits: u64) -> u64 {
    bits.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over every parameter's bits, policy first, layer by layer.
fn params_hash(ac: &BackfillActorCritic) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for mut net in [ac.policy.clone(), ac.value.clone()] {
        for (param, _) in net.params_and_grads_mut() {
            hash = param.data().iter().fold(hash, |h, v| fnv1a(h, v.to_bits()));
        }
    }
    hash
}

/// `"name": value, "name_bits": "0x…"` for one f64.
fn pinned(name: &str, v: f64) -> String {
    format!(
        "\"{name}\": {v:?}, \"{name}_bits\": \"{:#018x}\"",
        v.to_bits()
    )
}

fn render() -> String {
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let trace = TracePreset::Lublin2.generate(TRACE_JOBS, TRACE_SEED);
    let result = train(&trace, TrainConfig::smoke());
    let mut out = String::from("{\n");
    writeln!(out, "  \"run\": \"rlbf::train(Lublin2 {TRACE_JOBS} jobs seed {TRACE_SEED}, TrainConfig::smoke())\",").unwrap();
    writeln!(out, "  \"rayon_threads\": {THREADS},").unwrap();
    out.push_str("  \"epochs\": [\n");
    for (i, e) in result.history.iter().enumerate() {
        let sep = if i + 1 == result.history.len() {
            ""
        } else {
            ","
        };
        writeln!(
            out,
            "    {{\"epoch\": {}, {}, {}, {}, \"pi_iters_run\": {}}}{sep}",
            e.epoch,
            pinned("mean_bsld", e.mean_bsld),
            pinned("approx_kl", e.update.approx_kl),
            pinned("value_loss", e.update.value_loss),
            e.update.pi_iters_run,
        )
        .unwrap();
    }
    out.push_str("  ],\n");
    writeln!(
        out,
        "  \"params_fnv1a64\": \"{:#018x}\"",
        params_hash(&result.ac)
    )
    .unwrap();
    out.push_str("}\n");
    out
}

#[test]
fn smoke_training_run_reproduces_bitwise() {
    let rendered = render();
    // An intentional change of the training numerics re-blesses with
    //   RLBF_BLESS=1 cargo test --test training_pin
    // (then review the diff like any other pin move).
    if std::env::var_os("RLBF_BLESS").is_some() {
        std::fs::write(PIN_PATH, &rendered).expect("can write the pin");
        return;
    }
    let committed = std::fs::read_to_string(PIN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {PIN_PATH} (run from the workspace root): {e}"));
    assert_eq!(
        rendered, committed,
        "the smoke training run no longer reproduces {PIN_PATH} bitwise"
    );
}
