//! The word-level PLiM machine: RM3 programs over 64 lanes at once.
//!
//! A [`WideMachine`] is a [`Machine`] with a fixed number of active lanes
//! (lane `k` of every cell word serves input vector `k`). A word write is
//! charged one *logical* write per active lane, so `L` lanes leave every
//! cell's write count at `L ×` one run's, as `L` sequential runs would.
//!
//! ## Where lane-serial runs still differ
//!
//! Only in per-cell *switch* counts and in the failure point at an
//! endurance limit: a word write fails before any lane executes, where
//! lane-serial runs would perform the below-limit lanes first.

use rlim_rram::{Crossbar, EnduranceError, WriteFault};

use crate::isa::{Instruction, Program};
use crate::machine::Machine;

/// A PLiM machine executing RM3 programs bit-parallel over `1..=64` lanes.
///
/// # Examples
///
/// ```
/// use rlim_plim::{Instruction, Operand, Program, WideMachine};
/// use rlim_rram::CellId;
///
/// // set1 r0: every lane computes constant true.
/// let program = Program {
///     instructions: vec![Instruction {
///         p: Operand::Const(true),
///         q: Operand::Const(false),
///         z: CellId::new(0),
///     }],
///     num_cells: 1,
///     input_cells: vec![],
///     output_cells: vec![CellId::new(0)],
/// };
/// let mut machine = WideMachine::for_program(&program, 3);
/// let outputs = machine.run(&program, &[&[], &[], &[]]).unwrap();
/// assert_eq!(outputs, vec![vec![true]; 3]);
/// // One instruction × 3 active lanes = 3 logical writes on r0.
/// assert_eq!(machine.array().writes(CellId::new(0)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct WideMachine {
    machine: Machine,
}

impl WideMachine {
    /// A machine sized for `program`, running `lanes` active lanes, with
    /// no endurance limit. All cells start at logic 0 with zero wear.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`.
    pub fn for_program(program: &Program, lanes: usize) -> Self {
        let mut array = Crossbar::new();
        array.grow_to(program.num_cells);
        WideMachine::with_array(array, lanes)
    }

    /// A machine executing `lanes` active lanes on a caller-provided
    /// array, which may carry an endurance limit but no fault model.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=64`, or the array runs under a
    /// fault model (word-level writes have no per-lane readback).
    pub fn with_array(array: Crossbar, lanes: usize) -> Self {
        assert!(
            array.fault_model().is_none(),
            "word-level execution needs a fault-free array"
        );
        let mut machine = Machine::with_array(array);
        machine.set_lanes(lanes);
        WideMachine { machine }
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.machine.lanes()
    }

    /// The underlying array (logical wear, stored words).
    pub fn array(&self) -> &Crossbar {
        self.machine.array()
    }

    /// Grows the array to at least `num_cells` cells. Never shrinks.
    pub fn ensure_cells(&mut self, num_cells: usize) {
        self.machine.ensure_cells(num_cells);
    }

    /// Total RM3 instructions executed since construction (each advances
    /// all active lanes at once).
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Preloads the primary inputs of every lane (wear-free): lane `k`
    /// receives `lane_inputs[k]`, in the program's PI order.
    ///
    /// # Panics
    ///
    /// Panics if `lane_inputs.len()` differs from the active lane count,
    /// or any lane's vector does not match the program's input arity.
    pub fn load_inputs(&mut self, program: &Program, lane_inputs: &[&[bool]]) {
        (self.machine.load_lanes(program, lane_inputs)).expect("a fault-free array loads clean");
    }

    /// Executes a single RM3 instruction on all active lanes.
    ///
    /// # Errors
    ///
    /// Returns [`EnduranceError`] if the destination cell cannot absorb
    /// one logical write per active lane; the machine state is unchanged
    /// in that case.
    pub fn step(&mut self, inst: &Instruction) -> Result<(), EnduranceError> {
        self.machine.step(inst).map_err(worn)
    }

    /// Executes all instructions of `program` in order.
    ///
    /// # Errors
    ///
    /// Stops at the first endurance failure and returns it.
    pub fn execute(&mut self, program: &Program) -> Result<(), EnduranceError> {
        self.machine.execute(program).map_err(worn)
    }

    /// Reads the primary outputs of every active lane, in lane order.
    pub fn outputs(&self, program: &Program) -> Vec<Vec<bool>> {
        self.machine.lane_outputs(program)
    }

    /// Convenience: load every lane's inputs, execute, read every lane's
    /// outputs.
    ///
    /// # Errors
    ///
    /// Propagates the first endurance failure.
    pub fn run(
        &mut self,
        program: &Program,
        lane_inputs: &[&[bool]],
    ) -> Result<Vec<Vec<bool>>, EnduranceError> {
        self.load_inputs(program, lane_inputs);
        self.execute(program)?;
        Ok(self.outputs(program))
    }
}

/// The endurance failure behind a fault on a fault-free array.
fn worn(fault: WriteFault) -> EnduranceError {
    match fault {
        WriteFault::Worn(error) => error,
        WriteFault::Stuck(error) => unreachable!("a fault-free array cannot stick: {error}"),
    }
}

/// Executes `program` once per lane on a fresh array and returns
/// `(per-lane outputs, per-cell logical write counts)` — the bit-parallel
/// analogue of [`run_once`](crate::run_once), which it must agree with
/// lane by lane (the testkit's differential harness proves both the
/// outputs and the write counts).
///
/// # Panics
///
/// Panics if `lane_inputs` is empty or longer than 64 lanes.
pub fn run_once_wide(program: &Program, lane_inputs: &[&[bool]]) -> (Vec<Vec<bool>>, Vec<u64>) {
    let mut machine = WideMachine::for_program(program, lane_inputs.len());
    let outputs = machine
        .run(program, lane_inputs)
        .expect("no endurance limit configured");
    (outputs, machine.array().write_counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand;
    use crate::machine::run_once;
    use rlim_rram::CellId;

    fn cell(i: u32) -> CellId {
        CellId::new(i)
    }

    /// A complement gate: set1 z; z ← ⟨0, src, z⟩ = !src.
    fn not_gate() -> Program {
        Program {
            instructions: vec![
                Instruction {
                    p: Operand::Const(true),
                    q: Operand::Const(false),
                    z: cell(1),
                },
                Instruction {
                    p: Operand::Const(false),
                    q: Operand::Cell(cell(0)),
                    z: cell(1),
                },
            ],
            num_cells: 2,
            input_cells: vec![cell(0)],
            output_cells: vec![cell(1)],
        }
    }

    #[test]
    fn lanes_are_independent_copies_of_the_scalar_run() {
        let program = not_gate();
        let lane_inputs: Vec<Vec<bool>> = vec![vec![false], vec![true], vec![false], vec![true]];
        let lanes: Vec<&[bool]> = lane_inputs.iter().map(Vec::as_slice).collect();
        let (outputs, counts) = run_once_wide(&program, &lanes);
        for (k, inputs) in lanes.iter().enumerate() {
            let (scalar_out, scalar_counts) = run_once(&program, inputs);
            assert_eq!(outputs[k], scalar_out, "lane {k}");
            // Wear invariant: wide counts are the lane count times the
            // per-run scalar counts.
            let scaled: Vec<u64> = scalar_counts.iter().map(|&c| c * 4).collect();
            assert_eq!(counts, scaled, "lane {k}");
        }
    }

    #[test]
    fn word_majority_matches_scalar_truth_table() {
        // One instruction z ← ⟨p, q̄, z⟩ per (p, q) constant pair, with z
        // preloaded per lane: lanes 0..8 enumerate the z bit alongside the
        // constants, covering the full RM3 truth table word-wise.
        for bits in 0..4u32 {
            let (p, q) = (bits & 1 == 1, bits & 2 == 2);
            let program = Program {
                instructions: vec![Instruction {
                    p: Operand::Const(p),
                    q: Operand::Const(q),
                    z: cell(0),
                }],
                num_cells: 1,
                input_cells: vec![],
                output_cells: vec![cell(0)],
            };
            let mut array = Crossbar::new();
            array.grow_to(1);
            array.preload_word(cell(0), 0b10); // lane 0: z=0, lane 1: z=1
            let mut m = WideMachine::with_array(array, 2);
            m.execute(&program).unwrap();
            let expect = |z: bool| (p && !q) || (z && (p || !q));
            assert_eq!(
                m.outputs(&program),
                vec![vec![expect(false)], vec![expect(true)]],
                "p={p} q={q}"
            );
        }
    }

    #[test]
    fn cycles_count_instructions_not_lanes() {
        let program = not_gate();
        let mut m = WideMachine::for_program(&program, 64);
        let lanes: Vec<&[bool]> = vec![&[true]; 64];
        m.run(&program, &lanes).unwrap();
        assert_eq!(m.cycles(), 2);
        assert_eq!(m.lanes(), 64);
        // 2 instructions × 64 lanes of logical wear on the work cell.
        assert_eq!(m.array().writes(cell(1)), 128);
    }

    #[test]
    fn endurance_failure_is_atomic_per_word() {
        let program = not_gate(); // two writes on cell r1 per lane
        let mut array = Crossbar::with_endurance(5);
        array.grow_to(2);
        let mut m = WideMachine::with_array(array, 4);
        // First instruction: 4 logical writes fit (4 ≤ 5); second: 8 > 5.
        let lanes: Vec<&[bool]> = vec![&[false]; 4];
        let err = m.run(&program, &lanes).unwrap_err();
        assert_eq!(err.cell, cell(1));
        assert_eq!(err.limit, 5);
        assert_eq!(m.array().writes(cell(1)), 4);
        assert_eq!(m.cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "one input vector per active lane")]
    fn lane_count_mismatch_panics() {
        let program = not_gate();
        let mut m = WideMachine::for_program(&program, 2);
        let _ = m.run(&program, &[&[true]]);
    }

    #[test]
    #[should_panic(expected = "active lane count")]
    fn zero_lanes_rejected() {
        let program = not_gate();
        let _ = WideMachine::for_program(&program, 0);
    }
}
