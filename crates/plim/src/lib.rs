//! # rlim-plim — the Programmable Logic-in-Memory architecture
//!
//! PLiM (Gaillardon et al., DATE 2016) wraps a standard RRAM crossbar with a
//! small controller. When computation is enabled, the controller streams
//! `RM3` instructions: `RM3(P, Q, Z)` reads operands `P` and `Q` (from
//! memory cells or constants) and performs the *resistive majority*
//! operation on destination cell `Z`:
//!
//! ```text
//! Z ← ⟨P, Q̄, Z⟩   (3-input majority; the second operand is inverted)
//! ```
//!
//! The write to `Z` is the only state change per instruction, so the
//! per-cell write distribution of a program is fully determined by its
//! destination sequence — the quantity the DATE 2017 endurance paper
//! balances.
//!
//! This crate provides the RM3 ISA ([`Instruction`], [`Operand`],
//! implementing [`rlim_isa::Isa`]), the [`Program`] container (the shared
//! [`rlim_isa::Program`] instantiated at RM3, produced by
//! `rlim-compiler`), the [`Machine`] — the one RM3 executor, running one
//! to 64 input vectors per instruction on an [`rlim_rram::Crossbar`] of
//! 64-lane words, with [`WideMachine`] as its fixed-lane facade — the
//! self-hosted [`Controller`] FSM, and the multi-crossbar [`Fleet`] with
//! endurance-aware dispatch ([`DispatchPolicy`]), whose one execute path
//! serves plain, SIMD-batched ([`Fleet::run_batch_simd`]) and recovering
//! batches ([`RecoveryConfig`], [`FaultRecorder`], [`patch_program`])
//! over injected device faults ([`rlim_rram::FaultModel`]).
//!
//! ## Example
//!
//! ```
//! use rlim_plim::{Instruction, Machine, Operand, Program, WideMachine};
//! use rlim_rram::CellId;
//!
//! // AND of two inputs, computed into a third (zeroed) cell.
//! let (a, b, z) = (CellId::new(0), CellId::new(1), CellId::new(2));
//! let program = Program {
//!     instructions: vec![
//!         // Q = 0, so Q̄ = 1: z ← ⟨b, 1, 0⟩ = b
//!         Instruction { p: Operand::Cell(b), q: Operand::Const(false), z },
//!         // Q = 1, so Q̄ = 0: z ← ⟨a, 0, b⟩ = a ∧ b
//!         Instruction { p: Operand::Cell(a), q: Operand::Const(true), z },
//!     ],
//!     num_cells: 3,
//!     input_cells: vec![a, b],
//!     output_cells: vec![z],
//! };
//! program.validate().unwrap();
//! let mut machine = Machine::for_program(&program);
//! assert_eq!(machine.run(&program, &[true, false]).unwrap(), vec![false]);
//! // All four input vectors as the lanes of one pass.
//! let lanes: [&[bool]; 4] = [&[false, false], &[false, true], &[true, false], &[true, true]];
//! let out = WideMachine::for_program(&program, 4).run(&program, &lanes).unwrap();
//! assert_eq!(out, vec![vec![false], vec![false], vec![false], vec![true]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod asm;
mod controller;
mod fleet;
mod isa;
mod machine;
mod recovery;
mod trace;
mod wide;

pub use controller::{Controller, State};
pub use fleet::{ArrayStats, DispatchPolicy, Fleet, FleetConfig, FleetError, FleetStats, Job};
pub use isa::{Instruction, Operand, Program, ProgramError};
pub use machine::{run_once, Machine};
pub use recovery::{
    patch_program, FaultEvent, FaultKind, FaultRecorder, RecoveryAction, RecoveryConfig,
};
pub use trace::{Trace, TraceRecord};
pub use wide::{run_once_wide, WideMachine};
