//! The FPRaker processing element and tile — the primary contribution of
//! *"FPRaker: A Processing Element For Accelerating Neural Network
//! Training"* (MICRO 2021).
//!
//! FPRaker accelerates the multiply-accumulate work of DNN training by
//! processing one operand of every MAC as a short series of signed powers
//! of two ("terms"), skipping the work that cannot affect the result:
//!
//! * **zero terms** — significand digit positions that encode to zero under
//!   canonical signed-digit encoding (and whole MACs where either value is
//!   zero);
//! * **out-of-bounds terms** — terms whose aligned position falls below the
//!   precision window of the extended accumulator.
//!
//! This crate contains the cycle-level models:
//!
//! * [`Pe`] — the 8-lane term-serial processing element (Figs. 3–5), a
//!   single code path producing both exact values (RNE at every shifter)
//!   and the per-cycle issue schedule;
//! * [`BaselinePe`] — the optimized bit-parallel bfloat16 fused-MAC PE the
//!   paper compares against (Section V-A);
//! * [`Tile`] — the `rows × cols` PE grid with shared A streams per column,
//!   shared B streams per row, paired exponent blocks and bounded B
//!   run-ahead (Section IV-C);
//! * [`machine`] — the [`MachineModel`] trait abstracting block-level
//!   machines, with [`FpRakerMachine`] and [`BaselineMachine`]
//!   implementations the simulator engine drives generically;
//! * [`stats`] — the Fig. 13/15 bookkeeping (skipped-term and lane-cycle
//!   taxonomies).
//!
//! # Quick start
//!
//! ```
//! use fpraker_core::{Pe, PeConfig};
//! use fpraker_num::Bf16;
//!
//! let mut pe = Pe::new(PeConfig::paper());
//! let a: Vec<Bf16> = (1..=8).map(|i| Bf16::from_f32(i as f32)).collect();
//! let b: Vec<Bf16> = (1..=8).map(|i| Bf16::from_f32(0.5 * i as f32)).collect();
//! let (result, cycles) = pe.dot(&a, &b);
//! assert_eq!(result.to_f32(), 102.0);
//! assert!(cycles >= 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod baseline;
mod config;
pub mod machine;
mod pe;
pub mod stats;
mod tile;

pub use baseline::BaselinePe;
pub use config::{PeConfig, TileConfig};
pub use machine::{BaselineMachine, FpRakerMachine, MachineBlock, MachineEvents, MachineModel};
pub use pe::{Pe, PlannedB, PlannedSet, SetOutcome, MAX_LANES};
pub use stats::{ExecStats, LaneCycles, TermStats};
pub use tile::{BlockOutcome, BlockPlans, Tile};
