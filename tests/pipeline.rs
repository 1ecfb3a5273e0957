//! Pass-pipeline invariants: every pipeline stage is semantics-preserving
//! on arbitrary graphs (oracle-verified), and the peephole write-elision
//! pass never worsens any metric on the full 18-benchmark suite.

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::{
    compile, Backend, CompileOptions, CompileResult, HostedRm3Backend, ImpBackend, PassManager,
    Rm3Backend,
};
use rlim::mig::random::{generate, RandomMigConfig};
use rlim::mig::Mig;
use rlim_testkit::parallel::parallel_map;
use rlim_testkit::Oracle;

fn mig_strategy() -> impl Strategy<Value = Mig> {
    (
        2usize..9,    // inputs
        1usize..6,    // outputs
        0usize..120,  // gates
        0.0f64..0.6,  // complement probability
        any::<u64>(), // seed
    )
        .prop_map(|(inputs, outputs, gates, complement_prob, seed)| {
            let cfg = RandomMigConfig {
                inputs,
                outputs,
                gates,
                complement_prob,
                ..Default::default()
            };
            generate(&cfg, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every prefix of the standard pipeline is semantics-preserving:
    /// the baseline pipeline (schedule → translate), the rewriting
    /// pipeline, and the full pipeline with the peephole each produce a
    /// program the oracle confirms against direct MIG evaluation.
    #[test]
    fn every_pipeline_stage_preserves_semantics(mig in mig_strategy()) {
        let oracle = Oracle::new().with_sample_rounds(6).with_imp(false);
        let stage_options = [
            ("baseline", CompileOptions::naive()),
            ("rewrite", CompileOptions::endurance_aware()),
            ("peephole", CompileOptions::endurance_aware().with_peephole(true)),
        ];
        for (label, options) in stage_options {
            let result = PassManager::standard(&options).run(&mig, &options);
            prop_assert_eq!(result.program.validate(), Ok(()));
            oracle.verify_program(&mig, "pipeline", label, &result.program);
        }
    }

    /// The pipeline entry point and a hand-assembled pass manager agree
    /// instruction for instruction, and the peephole output is always a
    /// same-or-smaller program with same-or-smaller per-cell writes.
    #[test]
    fn peephole_is_monotone_on_random_graphs(mig in mig_strategy()) {
        let base = CompileOptions::endurance_aware();
        let off = compile(&mig, &base);
        let on = compile(&mig, &base.with_peephole(true));
        prop_assert!(on.num_instructions() <= off.num_instructions());
        let off_counts = off.program.write_counts();
        let on_counts = on.program.write_counts();
        prop_assert_eq!(off_counts.len(), on_counts.len());
        for (cell, (&a, &b)) in on_counts.iter().zip(&off_counts).enumerate() {
            prop_assert!(a <= b, "cell r{} gained writes: {} > {}", cell, a, b);
        }
    }

    /// Copy discovery is semantics-preserving under every canonical
    /// preset: the translator may read values already live in cells and
    /// spill still-useful cells to spares, but the compiled program must
    /// compute the MIG's function bit for bit (oracle-verified).
    #[test]
    fn copy_reuse_preserves_semantics_across_presets(mig in mig_strategy()) {
        let oracle = Oracle::new().with_sample_rounds(6).with_imp(false);
        for &name in CompileOptions::preset_names() {
            let options = CompileOptions::preset(name)
                .expect("canonical preset")
                .with_copy_reuse(true);
            let result = compile(&mig, &options);
            prop_assert_eq!(result.program.validate(), Ok(()));
            oracle.verify_program(&mig, "copy_reuse", name, &result.program);
        }
    }

    /// The wear-aware selection guarantee: turning copy-reuse on never
    /// worsens `#I`, the max per-cell write count or the write stdev —
    /// `compile` keeps the reuse schedule only when it is pointwise no
    /// worse, so the guarantee holds on *every* input, not just the
    /// benchmark suite.
    #[test]
    fn copy_reuse_is_monotone_on_random_graphs(mig in mig_strategy()) {
        let base = CompileOptions::endurance_aware();
        let off = compile(&mig, &base);
        let on = compile(&mig, &base.with_copy_reuse(true));
        prop_assert!(on.num_instructions() <= off.num_instructions());
        let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
        prop_assert!(on_stats.max <= off_stats.max);
        prop_assert!(on_stats.stdev <= off_stats.stdev);
    }

    /// Equality saturation is semantics-preserving under every canonical
    /// preset: whatever realization the extractor picks out of the
    /// saturated e-graph, the compiled program computes the MIG's
    /// function bit for bit (oracle-verified). Tight budgets keep the
    /// debug-mode e-graphs small without changing what is being proved.
    #[test]
    fn esat_preserves_semantics_across_presets(mig in mig_strategy()) {
        let oracle = Oracle::new().with_sample_rounds(6).with_imp(false);
        for &name in CompileOptions::preset_names() {
            let options = CompileOptions::preset(name)
                .expect("canonical preset")
                .with_esat(true)
                .with_esat_nodes(2_000)
                .with_esat_iters(2);
            let result = compile(&mig, &options);
            prop_assert_eq!(result.program.validate(), Ok(()));
            oracle.verify_program(&mig, "esat", name, &result.program);
        }
    }

    /// The esat guarantee: turning saturation on never worsens `#I`, the
    /// max per-cell write count or the write stdev — `compile` keeps the
    /// extracted graph only when it is pointwise no worse than the greedy
    /// fixed point, so the guarantee holds on *every* input.
    #[test]
    fn esat_is_monotone_on_random_graphs(mig in mig_strategy()) {
        let base = CompileOptions::endurance_aware();
        let off = compile(&mig, &base);
        let on = compile(
            &mig,
            &base.with_esat(true).with_esat_nodes(2_000).with_esat_iters(2),
        );
        prop_assert!(on.num_instructions() <= off.num_instructions());
        let (on_stats, off_stats) = (on.write_stats(), off.write_stats());
        prop_assert!(on_stats.max <= off_stats.max);
        prop_assert!(on_stats.stdev <= off_stats.stdev);
    }

    /// Saturation is deterministic: two compiles of the same graph with
    /// the same budgets produce instruction-identical programs (the
    /// e-graph iterates no hash-order-dependent state).
    #[test]
    fn esat_is_deterministic(mig in mig_strategy()) {
        let options = CompileOptions::endurance_aware()
            .with_esat(true)
            .with_esat_nodes(2_000)
            .with_esat_iters(2);
        let a = compile(&mig, &options);
        let b = compile(&mig, &options);
        prop_assert_eq!(a.program, b.program);
    }

    /// Fleet safety: copy discovery tracks only values the program itself
    /// materialised, so a program dropped onto a long-lived array full of
    /// a *prior job's* residue still computes the right outputs — no
    /// copy-discovery read is ever satisfied by leftover garbage.
    #[test]
    fn copy_reuse_programs_ignore_prior_job_residue(
        mig in mig_strategy(),
        residue_seed: u64,
        input_seed: u64,
    ) {
        use rand::{Rng, SeedableRng};
        use rlim::plim::Machine;
        use rlim::rram::{CellId, Crossbar};

        let options = CompileOptions::endurance_aware().with_copy_reuse(true);
        let program = compile(&mig, &options).program;

        // A dirty array: every cell holds a pseudorandom prior value.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(residue_seed);
        let mut array = Crossbar::new();
        array.grow_to(program.num_cells);
        for i in 0..program.num_cells {
            array.preload(CellId::new(i as u32), rng.gen());
        }
        let mut machine = Machine::with_array(array);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(input_seed);
        for _ in 0..3 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let expect = mig.evaluate(&inputs);
            let got = machine.run(&program, &inputs).expect("no endurance limit");
            prop_assert_eq!(&got, &expect, "residue leaked into the outputs");
        }
    }

    /// All three backends compute the MIG's function through the shared
    /// `Backend` API (MIG = RM3 = hosted-RM3 = IMPLY).
    #[test]
    fn backends_agree_through_the_api(mig in mig_strategy(), pattern_seed: u64) {
        use rand::{Rng, SeedableRng};
        let options = CompileOptions::naive();
        let rm3 = Rm3Backend.compile(&mig, &options);
        let imp = ImpBackend.compile(&mig, &options);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(pattern_seed);
        for _ in 0..3 {
            let inputs: Vec<bool> = (0..mig.num_inputs()).map(|_| rng.gen()).collect();
            let expect = mig.evaluate(&inputs);
            prop_assert_eq!(&Rm3Backend.execute(&rm3, &inputs).unwrap(), &expect);
            prop_assert_eq!(&HostedRm3Backend.execute(&rm3, &inputs).unwrap(), &expect);
            prop_assert_eq!(&ImpBackend.execute(&imp, &inputs).unwrap(), &expect);
        }
    }
}

/// The nested best-of selection `compile` is pinned against: the whole
/// standard pipeline once per copy-reuse variant, then once more per
/// variant with saturation off, each guard keeping the option-on result
/// only when its (`#I`, max per-cell writes, write stdev) profile is
/// pointwise no worse.
fn reference_compile(mig: &Mig, options: &CompileOptions) -> CompileResult {
    let result = reference_copy_selection(mig, options);
    if !options.esat {
        return result;
    }
    let base_options = options.with_esat(false);
    let mut baseline = reference_copy_selection(mig, &base_options);
    let (esat_stats, baseline_stats) = (result.write_stats(), baseline.write_stats());
    if result.num_instructions() <= baseline.num_instructions()
        && esat_stats.max <= baseline_stats.max
        && esat_stats.stdev <= baseline_stats.stdev
    {
        result
    } else {
        baseline.options = *options;
        baseline
    }
}

fn reference_copy_selection(mig: &Mig, options: &CompileOptions) -> CompileResult {
    let result = PassManager::standard(options).run(mig, options);
    if !options.copy_reuse {
        return result;
    }
    let baseline_options = options.with_copy_reuse(false);
    let mut baseline = PassManager::standard(&baseline_options).run(mig, &baseline_options);
    let (reused_stats, baseline_stats) = (result.write_stats(), baseline.write_stats());
    if result.num_instructions() <= baseline.num_instructions()
        && reused_stats.max <= baseline_stats.max
        && reused_stats.stdev <= baseline_stats.stdev
    {
        result
    } else {
        baseline.options = *options;
        baseline
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `compile` picks exactly what the nested reference selection picks
    /// — same program, same graph — under every canonical preset with
    /// saturation, copy-reuse and the peephole in each combination the
    /// selection distinguishes.
    #[test]
    fn compile_matches_the_nested_reference_selection(mig in mig_strategy()) {
        for &name in CompileOptions::preset_names() {
            let preset = CompileOptions::preset(name)
                .expect("canonical preset")
                .with_esat_nodes(2_000)
                .with_esat_iters(2);
            let esat = preset.with_esat(true);
            for options in [
                esat,
                esat.with_copy_reuse(true),
                esat.with_copy_reuse(true).with_peephole(true),
                preset.with_copy_reuse(true),
            ] {
                let got = compile(&mig, &options);
                let want = reference_compile(&mig, &options);
                prop_assert_eq!(&got.program, &want.program, "{} {:?}", name, options);
                prop_assert_eq!(got.mig.fingerprint(), want.mig.fingerprint());
                prop_assert_eq!(got.options, options);
            }
        }
    }
}

/// Golden acceptance check on the full 18-benchmark suite: the peephole
/// pass never increases `#I` or the maximum per-cell write count, never
/// changes `#R`, and strictly shrinks `#I` on at least 3 benchmarks.
#[test]
fn peephole_golden_on_benchmark_suite() {
    // `naive` keeps this debug-mode-fast (no rewriting cycles) while
    // still exercising every benchmark; the per-preset behaviour is
    // covered by the property tests above.
    let rows = parallel_map(Benchmark::all().to_vec(), 0, |b| {
        let mig = b.build();
        let base = CompileOptions::naive();
        let off = Rm3Backend.compile(&mig, &base);
        let on = Rm3Backend.compile(&mig, &base.with_peephole(true));
        (b, off, on)
    });
    let mut strictly_smaller = 0;
    for (b, off, on) in rows {
        assert!(
            on.num_instructions() <= off.num_instructions(),
            "{b}: peephole grew #I"
        );
        assert!(
            on.write_stats().max <= off.write_stats().max,
            "{b}: peephole grew the max per-cell write count"
        );
        assert_eq!(on.num_rrams(), off.num_rrams(), "{b}: cells renumbered");
        if on.num_instructions() < off.num_instructions() {
            strictly_smaller += 1;
        }
    }
    assert!(
        strictly_smaller >= 3,
        "peephole should strictly shrink #I on at least 3 of the 18 \
         benchmarks, got {strictly_smaller}"
    );
}
