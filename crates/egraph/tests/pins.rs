//! Exactness pins for `saturate`: the report and the extracted graph of
//! six benchmark circuits at the default esat budgets. A change to the
//! matcher or the round loop that reorders, drops or adds a rule
//! application moves at least one of these.

use rlim_benchmarks::Benchmark;
use rlim_egraph::{extract_around, saturate, Budget, CostWeights, EGraph};
use rlim_mig::rewrite::rules::omega_rules;
use rlim_mig::rewrite::{rewrite, Algorithm};

/// `CompileOptions::endurance_aware()`'s rewriting: Algorithm 2 at
/// effort 5.
const ALGORITHM: Algorithm = Algorithm::EnduranceAware;
const EFFORT: usize = 5;

const BUDGET: Budget = Budget {
    max_nodes: 50_000,
    max_iters: 4,
};

/// Most live e-nodes a run can end with: the node budget is checked
/// before each instantiation, and one instantiation adds at most three
/// e-nodes (Ω.D.lr's rhs holds three majorities).
const NODE_CEILING: usize = BUDGET.max_nodes + 3 - 1;

/// (circuit, `iterations/unions/enodes/saturated`, extracted fingerprint).
const PINS: [(Benchmark, &str, u128); 6] = [
    (
        Benchmark::Adder,
        "2/31875/50000/false",
        0xc246f7292975826a5e049a020acda09e,
    ),
    (
        Benchmark::Int2float,
        "4/35904/49997/false",
        0x082b29c6c35597abd6837c2bd3a49b51,
    ),
    (
        Benchmark::Router,
        "3/29696/50000/false",
        0x365fff45bd5d63ba9c5d9377b857fa1b,
    ),
    (
        Benchmark::Sqrt,
        "3/11126/50000/false",
        0xfcea0d14abe41b4b1b15eecec53c0b7c,
    ),
    (
        Benchmark::Priority,
        "2/32955/50000/false",
        0x50addf5fed56663afcbfa72163467ced,
    ),
    (
        Benchmark::Square,
        "1/6954/50001/false",
        0x5b6babb082e3dfa9e670ca13e9246028,
    ),
];

#[test]
fn saturation_and_extraction_are_pinned() {
    let rules = omega_rules();
    for (bench, want_report, want_fingerprint) in PINS {
        let mig = rewrite(&bench.build(), ALGORITHM, EFFORT);
        let (mut eg, outputs, classes) = EGraph::from_mig_with_classes(&mig);
        let report = saturate(&mut eg, &rules, &BUDGET);
        let got = format!(
            "{}/{}/{}/{}",
            report.iterations, report.unions, report.enodes, report.saturated
        );
        assert_eq!(got, want_report, "{} saturation report", bench.name());
        assert!(
            eg.num_enodes() <= NODE_CEILING,
            "{}: {} e-nodes overshoot the node budget",
            bench.name(),
            eg.num_enodes()
        );
        let extracted = extract_around(&eg, &outputs, &CostWeights::endurance(), &mig, &classes);
        assert_eq!(
            format!("{:032x}", extracted.fingerprint()),
            format!("{want_fingerprint:032x}"),
            "{} extracted fingerprint",
            bench.name()
        );
    }
}
