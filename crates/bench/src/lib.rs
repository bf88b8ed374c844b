//! `ups-bench` — the experiment catalogue behind `sweep --grid NAME`,
//! plus the criterion harnesses under `benches/`.
//!
//! [`grids::find`] maps every `--grid` name to its runner:
//!
//! | Kind | Names | Reproduces |
//! |---|---|---|
//! | table | `table1` (default), `smoke`, `sched`, `topo` | Table 1 and slices of it |
//! | figure | `fig1`–`fig4` | Figures 1–4 ([`runners`]) |
//! | figure | `congestion-points` | §2.2 diagnostic — congestion points per packet |
//! | ablation | `ablation-preempt` | §2.3(5) — preemptive LSTF on SJF/LIFO replays |
//! | ablation | `ablation-candidates` | §2.3(7) — Priority(o) vs LSTF vs EDF vs omniscient |
//! | ablation | `ablation-lstf-key` | last-bit vs pure-deadline LSTF keys |
//! | scenario | see `sweep scenarios list` | the scenario registry in `ups-sweep` |
//!
//! Every grid honours the [`scale`] flags (`--full`, `--seed N`,
//! `--jobs N`, `--replicates N`, …) and writes JSON/CSV artifacts under
//! `--out DIR` (default `target/sweep/`; schema in `ups-sweep`'s crate
//! docs) that are byte-identical for every `--jobs` value. An ablation
//! writes one table artifact per replay mode, `<grid>_<mode>`.

#![forbid(unsafe_code)]

pub mod grids;
pub mod runners;
pub mod scale;

pub use runners::*;
pub use scale::Scale;
