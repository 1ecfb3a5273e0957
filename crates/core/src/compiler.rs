//! The MIG → PLiM compile entry point and its result type.
//!
//! [`compile`] drives the standard passes (rewrite → esat → schedule →
//! translate → peephole → finalize) under a wear-profile best-of; see
//! [`crate::pipeline`] for the pass manager and
//! [`crate::translate`] for the node-translation rules.

use rlim_mig::Mig;
use rlim_plim::Program;
use rlim_rram::WriteStats;

use crate::options::CompileOptions;
use crate::pipeline::{
    esat_candidates, esat_pick, Pass, PassManager, PipelineState, RewritePass, WearProfile,
};

/// Output of [`compile`]: the program plus the graph it was generated from.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The compiled PLiM program.
    pub program: Program,
    /// The (possibly rewritten) MIG the program computes.
    pub mig: Mig,
    /// The options used.
    pub options: CompileOptions,
}

impl CompileResult {
    /// Write-distribution statistics over **all** cells the program
    /// allocates — the paper's STDEV / min / max metrics.
    pub fn write_stats(&self) -> WriteStats {
        self.program.write_stats()
    }

    /// The paper's `#I` metric.
    pub fn num_instructions(&self) -> usize {
        self.program.num_instructions()
    }

    /// The paper's `#R` metric.
    pub fn num_rrams(&self) -> usize {
        self.program.num_rrams()
    }

    /// Total writes one execution inflicts on its array (= `#I`; every
    /// RM3 instruction is one destination write). This is the unit a
    /// fleet's per-array write budget is expressed in.
    pub fn total_writes(&self) -> u64 {
        self.program.num_instructions() as u64
    }

    /// The hottest cell's per-execution write count — with a device
    /// endurance `E`, one array survives `⌊E / peak⌋` executions of this
    /// program (see `rlim_rram::lifetime`).
    pub fn peak_writes(&self) -> u64 {
        self.write_stats().max
    }
}

/// Compiles an MIG into a PLiM program under the given options.
///
/// The configured rewriting runs once and the back end lowers its
/// result. [`CompileOptions::with_copy_reuse`] lowers each graph with
/// and without copy discovery; [`CompileOptions::with_esat`] saturates
/// once and lowers the best candidate per copy-reuse variant. Each
/// option keeps its result only when the wear profile (`#I`, peak
/// per-cell writes, write STDEV) is pointwise no worse than without it,
/// so enabling one never degrades the paper's endurance metrics.
///
/// # Examples
///
/// ```
/// use rlim_compiler::{compile, CompileOptions};
/// use rlim_mig::Mig;
///
/// let mut mig = Mig::new(3);
/// let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
/// let m = mig.add_maj(a, !b, c);
/// mig.add_output(m);
/// let result = compile(&mig, &CompileOptions::naive());
/// // One ideal node: a single RM3 instruction, no extra cells.
/// assert_eq!(result.num_instructions(), 1);
/// assert_eq!(result.num_rrams(), 3);
/// ```
pub fn compile(mig: &Mig, options: &CompileOptions) -> CompileResult {
    let mut front = PipelineState::new(mig, options);
    RewritePass.run(&mut front);
    let graph = front.graph();
    let plain = copy_select(options, |_| graph);
    let candidates;
    let (program, chosen) = if options.esat {
        // The extraction cost is a tree estimate, so the saturated pick
        // can lose to the greedy fixed point once real lowering runs.
        candidates = esat_candidates(graph, options);
        let saturated = copy_select(options, |o| esat_pick(graph, &candidates, o));
        keep_if_no_worse(saturated, plain)
    } else {
        plain
    };
    // Move, not copy, a winning front graph: on large graphs that copy sets peak memory.
    let mig = if std::ptr::eq(chosen, graph) {
        front.mig.unwrap_or_else(|| mig.clone())
    } else {
        chosen.clone()
    };
    CompileResult {
        program,
        mig,
        options: *options,
    }
}

/// Lowers each copy-reuse variant's graph, keeping copy discovery only
/// when no worse: the materialisations it elides double as implicit
/// wear leveling, so dropping them can worsen the write distribution.
fn copy_select<'g>(
    options: &CompileOptions,
    graph_for: impl Fn(&CompileOptions) -> &'g Mig,
) -> (Program, &'g Mig) {
    let lower = |o: &CompileOptions| {
        let graph = graph_for(o);
        (PassManager::lowering(o).execute(graph, o).0, graph)
    };
    let on = lower(options);
    if !options.copy_reuse {
        return on;
    }
    keep_if_no_worse(on, lower(&options.with_copy_reuse(false)))
}

fn keep_if_no_worse<G>(on: (Program, G), off: (Program, G)) -> (Program, G) {
    if WearProfile::of(&on.0).no_worse_than(&WearProfile::of(&off.0)) {
        on
    } else {
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_mig::Signal;
    use rlim_plim::Machine;

    /// Compile + execute on the machine must match MIG evaluation.
    fn assert_functional(mig: &Mig, options: &CompileOptions, seed: u64) {
        use rand::{Rng, SeedableRng};
        let result = compile(mig, options);
        result.program.validate().expect("program is well-formed");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..16 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let expect = mig.evaluate(&inputs);
            let mut machine = Machine::for_program(&result.program);
            let got = machine
                .run(&result.program, &inputs)
                .expect("no endurance limit");
            assert_eq!(got, expect, "inputs {inputs:?} options {options:?}");
        }
    }

    fn all_option_sets() -> Vec<CompileOptions> {
        vec![
            CompileOptions::naive(),
            CompileOptions::plim_compiler(),
            CompileOptions::min_write(),
            CompileOptions::endurance_rewriting(),
            CompileOptions::endurance_aware(),
            CompileOptions::endurance_aware().with_max_writes(10),
            CompileOptions::endurance_aware().with_max_writes(3),
            CompileOptions::endurance_aware().with_peephole(true),
            CompileOptions::naive().with_peephole(true),
            CompileOptions::endurance_aware().with_copy_reuse(true),
            CompileOptions::naive().with_copy_reuse(true),
            CompileOptions::endurance_aware()
                .with_copy_reuse(true)
                .with_peephole(true),
            CompileOptions::endurance_aware()
                .with_max_writes(10)
                .with_copy_reuse(true),
            CompileOptions::endurance_aware().with_esat(true),
            CompileOptions::naive().with_esat(true),
            CompileOptions::endurance_aware()
                .with_esat(true)
                .with_copy_reuse(true)
                .with_peephole(true),
        ]
    }

    #[test]
    fn ideal_node_is_one_instruction() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let m = mig.add_maj(a, !b, c);
        mig.add_output(m);
        let r = compile(&mig, &CompileOptions::naive());
        assert_eq!(r.num_instructions(), 1);
        assert_eq!(r.num_rrams(), 3, "three input cells, no extras");
        assert_functional(&mig, &CompileOptions::naive(), 1);
    }

    #[test]
    fn zero_complement_node_needs_materialisation() {
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let m = mig.add_maj(a, b, c);
        mig.add_output(m);
        let r = compile(&mig, &CompileOptions::naive());
        // Q must be an inverse: set + load + main = 3 instructions, 1 temp.
        assert_eq!(r.num_instructions(), 3);
        assert_eq!(r.num_rrams(), 4);
        assert_functional(&mig, &CompileOptions::naive(), 2);
    }

    #[test]
    fn and_gate_uses_constant_operands() {
        // ⟨a b 0⟩: Q can be the constant (free), Z consumes a or b in place.
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.and(a, b);
        mig.add_output(g);
        let r = compile(&mig, &CompileOptions::naive());
        assert_eq!(r.num_instructions(), 1);
        assert_eq!(r.num_rrams(), 2);
        assert_functional(&mig, &CompileOptions::naive(), 3);
    }

    #[test]
    fn multi_fanout_child_forces_copy() {
        // g1 = a∧b feeds two parents: the first parent cannot consume it.
        let mut mig = Mig::new(3);
        let [a, b, c] = [mig.input(0), mig.input(1), mig.input(2)];
        let g1 = mig.and(a, b);
        let g2 = mig.and(g1, c);
        let g3 = mig.or(g1, c);
        mig.add_output(g2);
        mig.add_output(g3);
        assert_functional(&mig, &CompileOptions::naive(), 4);
    }

    #[test]
    fn complemented_output_materialised() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.and(a, b);
        mig.add_output(!g);
        mig.add_output(!g); // shared: one materialisation
        let r = compile(&mig, &CompileOptions::naive());
        assert_eq!(r.program.output_cells[0], r.program.output_cells[1]);
        assert_functional(&mig, &CompileOptions::naive(), 5);
    }

    #[test]
    fn constant_output_supported() {
        let mut mig = Mig::new(1);
        mig.add_output(Signal::TRUE);
        mig.add_output(Signal::FALSE);
        let r = compile(&mig, &CompileOptions::naive());
        let mut machine = Machine::for_program(&r.program);
        let out = machine.run(&r.program, &[false]).unwrap();
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn input_passthrough_output() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        mig.add_output(a);
        mig.add_output(!a);
        for opts in all_option_sets() {
            assert_functional(&mig, &opts, 6);
        }
    }

    #[test]
    fn all_policies_functionally_correct_on_random_graphs() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 120,
            ..Default::default()
        };
        for seed in 0..3 {
            let mig = generate(&cfg, seed);
            for opts in all_option_sets() {
                assert_functional(&mig, &opts, seed ^ 77);
            }
        }
    }

    #[test]
    fn max_write_strategy_bounds_every_cell() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 200,
            ..Default::default()
        };
        let mig = generate(&cfg, 11);
        for limit in [3, 10, 20] {
            for peephole in [false, true] {
                for copy_reuse in [false, true] {
                    let opts = CompileOptions::endurance_aware()
                        .with_max_writes(limit)
                        .with_peephole(peephole)
                        .with_copy_reuse(copy_reuse);
                    let r = compile(&mig, &opts);
                    let counts = r.program.write_counts();
                    assert!(
                        counts.iter().all(|&c| c <= limit),
                        "limit {limit} violated (peephole {peephole}, \
                         copy_reuse {copy_reuse}): max {}",
                        counts.iter().max().unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn min_write_strategy_does_not_change_instruction_or_cell_counts() {
        // Paper: "the minimum write count strategy does not influence the
        // number of required instructions and RRAMs."
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 10,
            outputs: 8,
            gates: 300,
            ..Default::default()
        };
        for seed in 0..3 {
            let mig = generate(&cfg, seed);
            let lifo = compile(&mig, &CompileOptions::plim_compiler());
            let minw = compile(&mig, &CompileOptions::min_write());
            assert_eq!(lifo.num_instructions(), minw.num_instructions());
            assert_eq!(lifo.num_rrams(), minw.num_rrams());
        }
    }

    #[test]
    fn min_write_improves_balance_on_hot_cell_pattern() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 10,
            outputs: 8,
            gates: 400,
            ..Default::default()
        };
        let mut improved = 0;
        for seed in 0..5 {
            let mig = generate(&cfg, seed);
            let lifo = compile(&mig, &CompileOptions::plim_compiler()).write_stats();
            let minw = compile(&mig, &CompileOptions::min_write()).write_stats();
            if minw.stdev <= lifo.stdev {
                improved += 1;
            }
        }
        assert!(improved >= 4, "min-write should usually balance better");
    }

    #[test]
    fn compile_result_metrics_consistent() {
        let mut mig = Mig::new(2);
        let a = mig.input(0);
        let b = mig.input(1);
        let g = mig.xor(a, b);
        mig.add_output(g);
        let r = compile(&mig, &CompileOptions::endurance_aware());
        assert_eq!(r.num_instructions(), r.program.instructions.len());
        assert_eq!(r.num_rrams(), r.program.num_cells);
        let stats = r.write_stats();
        assert_eq!(stats.cells, r.num_rrams());
        assert_eq!(stats.total as usize, r.num_instructions());
    }

    #[test]
    fn copy_reuse_never_grows_instructions_on_random_graphs() {
        // Copy discovery only replaces materialisation chains with reads
        // of existing holders, so `#I` can only shrink; `#R` may move in
        // either direction (spilling adds cold cells, chain elision and
        // PO reuse remove them).
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 250,
            ..Default::default()
        };
        for seed in 0..4 {
            let mig = generate(&cfg, seed);
            for base in [
                CompileOptions::naive(),
                CompileOptions::plim_compiler(),
                CompileOptions::endurance_aware(),
            ] {
                let off = compile(&mig, &base);
                let on = compile(&mig, &base.with_copy_reuse(true));
                assert!(
                    on.num_instructions() <= off.num_instructions(),
                    "copy reuse grew #I on seed {seed}"
                );
                // Wear-aware selection: the reuse schedule is only kept
                // when pointwise no worse, so these hold on every input.
                let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
                assert!(
                    on_stats.max <= off_stats.max,
                    "copy reuse raised peak writes on seed {seed}"
                );
                assert!(
                    on_stats.stdev <= off_stats.stdev,
                    "copy reuse worsened balance on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn esat_never_degrades_the_paper_metrics_on_random_graphs() {
        // The best-of guard in `compile` makes this hold on every input,
        // not just in expectation.
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 120,
            ..Default::default()
        };
        for seed in 0..3 {
            let mig = generate(&cfg, seed);
            for base in [CompileOptions::naive(), CompileOptions::endurance_aware()] {
                let off = compile(&mig, &base);
                let esat = base
                    .with_esat(true)
                    .with_esat_nodes(2_000)
                    .with_esat_iters(2);
                let on = compile(&mig, &esat);
                assert!(
                    on.num_instructions() <= off.num_instructions(),
                    "esat grew #I on seed {seed}"
                );
                let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
                assert!(
                    on_stats.max <= off_stats.max,
                    "esat raised peak writes on seed {seed}"
                );
                assert!(
                    on_stats.stdev <= off_stats.stdev,
                    "esat worsened balance on seed {seed}"
                );
                assert_eq!(on.options, esat, "reported options keep the esat flag");
            }
        }
    }

    #[test]
    fn peephole_never_grows_programs_on_random_graphs() {
        use rlim_mig::random::{generate, RandomMigConfig};
        let cfg = RandomMigConfig {
            inputs: 8,
            outputs: 6,
            gates: 250,
            ..Default::default()
        };
        for seed in 0..4 {
            let mig = generate(&cfg, seed);
            for base in [
                CompileOptions::naive(),
                CompileOptions::plim_compiler(),
                CompileOptions::endurance_aware(),
            ] {
                let off = compile(&mig, &base);
                let on = compile(&mig, &base.with_peephole(true));
                assert!(on.num_instructions() <= off.num_instructions());
                assert!(on.write_stats().max <= off.write_stats().max);
                assert_eq!(on.num_rrams(), off.num_rrams(), "cells are not renumbered");
            }
        }
    }
}
