//! # rlbackfilling
//!
//! A reproduction of *"A Reinforcement Learning Based Backfilling Strategy
//! for HPC Batch Jobs"* (Kolker-Hicks, Zhang & Dai — PMBS @ SC 2023,
//! arXiv:2404.09264), built as a workspace of focused crates. This facade
//! crate re-exports the public API of every subsystem:
//!
//! * [`swf`] — job traces: SWF parsing, the Lublin–Feitelson workload model
//!   and the four calibrated Table 2 trace presets.
//! * [`hpcsim`] — the event-driven cluster simulator with FCFS/SJF/WFP3/F1
//!   base policies and EASY / EASY-AR / conservative backfilling.
//! * [`tinynn`] — the small neural-network substrate (manual backprop).
//! * [`ppo`] — Proximal Policy Optimization on top of `tinynn`.
//! * [`rlbf`] — RLBackfilling itself: the backfilling environment, the
//!   kernel policy / value networks, training and evaluation.
//!
//! See `examples/quickstart.rs` for a five-minute tour, `ARCHITECTURE.md`
//! for the design, and `results/README.md` for the committed experiment
//! outputs and the commands that regenerate them.

pub use hpcsim;
pub use ppo;
pub use rlbf;
pub use swf;
pub use tinynn;
