//! The `compile` and `esat` workloads: cold compile jobs through one
//! `Service::run_batch` per pass, every program checked on the PLiM
//! machine against the source graph.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim_benchmarks::Benchmark;
use rlim_compiler::{
    compile, Allocation, CompileOptions, EsatPass, FinalizePass, Pass, PassManager, PeepholePass,
    PipelineState, RewritePass, SchedulePass, TranslatePass,
};
use rlim_egraph::{extract_around, saturate, Budget, CostWeights, EGraph};
use rlim_mig::rewrite::{rewrite, rules::omega_rules};
use rlim_mig::Mig;
use rlim_plim::{asm, Machine, Program};
use rlim_rram::WriteStats;
use rlim_service::{JobSpec, Report, Service};

use crate::measure::{median, median_setup, passes, percentile, since, EndToEnd, Outcome, Quality};
use crate::pins::{self, Column};

/// Seeded input vectors each compiled program is executed on.
const VECTORS: usize = 4;

#[derive(Debug, Clone, Copy)]
pub enum Suite {
    /// All 18 circuits × {naive, plim21, endurance-aware,
    /// endurance-aware + copy-reuse + peephole}, `nproc` threads.
    Compile,
    /// Saturation-heavy jobs on a forced-serial service.
    Esat,
}

struct Job {
    benchmark: Benchmark,
    mig: Arc<Mig>,
    options: CompileOptions,
    pin: Option<Column>,
}

fn job_list(suite: Suite) -> Vec<(Benchmark, CompileOptions, Option<Column>)> {
    let ea = CompileOptions::endurance_aware();
    match suite {
        Suite::Compile => Benchmark::all()
            .iter()
            .flat_map(|&b| {
                [
                    (b, CompileOptions::naive(), None),
                    (b, CompileOptions::plim_compiler(), None),
                    (b, ea, Some(Column::EnduranceAware)),
                    (b, ea.with_copy_reuse(true).with_peephole(true), None),
                ]
            })
            .collect(),
        // Three of the four ESAT_table wins plus router (the costliest
        // round-1 saturation); int2float alone would take ~9 s. The
        // copy-reuse pair runs the esat pass twice per job.
        Suite::Esat => {
            let esat = ea.with_esat(true);
            let both = esat.with_copy_reuse(true).with_peephole(true);
            vec![
                (Benchmark::Adder, esat, Some(Column::Esat)),
                (Benchmark::Priority, esat, Some(Column::Esat)),
                (Benchmark::Router, esat, Some(Column::Esat)),
                (Benchmark::Square, esat, Some(Column::Esat)),
                (Benchmark::Adder, both, None),
                (Benchmark::Square, both, None),
            ]
        }
    }
}

/// Builds every source graph once and the specs over them, then warms
/// the service with one small job.
fn setup(suite: Suite) -> (Vec<Job>, Vec<JobSpec>) {
    let mut graphs: BTreeMap<Benchmark, Arc<Mig>> = BTreeMap::new();
    let jobs: Vec<Job> = job_list(suite)
        .into_iter()
        .map(|(benchmark, options, pin)| Job {
            benchmark,
            mig: Arc::clone(
                graphs
                    .entry(benchmark)
                    .or_insert_with(|| Arc::new(benchmark.build())),
            ),
            options,
            pin,
        })
        .collect();
    let specs = jobs
        .iter()
        .map(|job| {
            JobSpec::shared_mig(Arc::clone(&job.mig))
                .with_options(job.options)
                .with_program_text(true)
        })
        .collect();
    let warm = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    Service::new()
        .with_threads(1)
        .run(&warm)
        .expect("warm-up compile of ctrl");
    (jobs, specs)
}

pub fn run(suite: Suite, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (setup_s, (jobs, specs)) = median_setup(|| setup(suite));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let inputs: Vec<Vec<Vec<bool>>> = jobs
        .iter()
        .map(|job| {
            (0..VECTORS)
                .map(|_| (0..job.mig.num_inputs()).map(|_| rng.gen()).collect())
                .collect()
        })
        .collect();
    let mut outcome = Outcome::default();
    if trace {
        traced(&jobs, &specs, &inputs, seconds, &mut outcome);
        return outcome;
    }

    let service = match suite {
        Suite::Compile => Service::new(),
        Suite::Esat => Service::new().with_threads(1),
    };
    let mut first: Option<Vec<(usize, WriteStats)>> = None;
    let mut repeats: Vec<Vec<bool>> = Vec::new();
    let mut last: Option<Vec<Report>> = None;
    // Two passes at least, so the esat suite's peak memory and sample
    // count do not depend on whether a second ~7 s pass happens to fit.
    let times = passes(seconds, 2, || {
        let start = Instant::now();
        last = None;
        let result = service.run_batch(&specs);
        let spent = since(start);
        match result {
            Ok(reports) => {
                let sigs: Vec<(usize, WriteStats)> =
                    reports.iter().map(|r| (r.instructions, r.writes)).collect();
                let reference = first.get_or_insert_with(|| sigs.clone());
                repeats.push(
                    sigs.iter()
                        .zip(reference.iter())
                        .map(|(a, b)| a == b)
                        .collect(),
                );
                last = Some(reports);
            }
            Err(e) => {
                outcome.errors.push(format!("run_batch failed: {e}"));
                repeats.push(vec![false; specs.len()]);
            }
        }
        spent
    });

    let checks: Vec<Result<(), String>> = match &last {
        Some(reports) => jobs
            .iter()
            .zip(reports)
            .zip(&inputs)
            .map(|((job, report), vectors)| check_report(job, report, vectors))
            .collect(),
        None => vec![Err("no batch succeeded".to_string()); jobs.len()],
    };
    let final_pass = repeats.len() - 1;
    for (p, pass) in repeats.iter().enumerate() {
        for (j, &repeated) in pass.iter().enumerate() {
            let check = if p == final_pass {
                checks[j].clone()
            } else {
                Ok(())
            };
            outcome.check(repeated && check.is_ok(), || match check {
                Err(e) => e,
                Ok(()) => format!(
                    "{} {:?}: quality differs between passes",
                    jobs[j].benchmark.name(),
                    jobs[j].options.preset_name()
                ),
            });
        }
    }

    let mut quality = Quality::default();
    for (instructions, writes) in first.iter().flatten() {
        quality.add(*instructions, writes);
    }
    // Work over time rather than a median of per-pass rates: the host's
    // speed drifts within a run, and the mean follows the drift smoothly
    // where the median of a few passes jumps.
    let throughput = (times.len() * jobs.len()) as f64 / times.iter().sum::<f64>();
    outcome.note("jobs_per_s", throughput, "jobs/s");
    outcome.note("passes", times.len() as f64, "count");
    outcome.end_to_end(EndToEnd {
        setup_s,
        throughput,
        p50_ms: percentile(&times, 50.0) * 1e3,
        p99_ms: percentile(&times, 99.0) * 1e3,
        samples: times.len(),
        quality,
    });
    outcome
}

/// The report's program, executed on the machine, must compute the
/// source graph; pinned rows must match the committed table.
fn check_report(job: &Job, report: &Report, vectors: &[Vec<bool>]) -> Result<(), String> {
    let name = job.benchmark.name();
    let listing = report
        .program
        .as_deref()
        .ok_or_else(|| format!("{name}: report carries no program"))?;
    let program = asm::parse_text(listing).map_err(|e| format!("{name}: listing: {e}"))?;
    check_program(job, &program, vectors)?;
    match job.pin {
        Some(column) => pins::check(name, column, report),
        None => Ok(()),
    }
}

fn check_program(job: &Job, program: &Program, vectors: &[Vec<bool>]) -> Result<(), String> {
    for v in vectors {
        let got = Machine::for_program(program)
            .run(program, v)
            .map_err(|e| format!("{}: machine fault {e}", job.benchmark.name()))?;
        if got != job.mig.evaluate(v) {
            return Err(format!(
                "{} {:?}: machine output differs from Mig::evaluate",
                job.benchmark.name(),
                job.options.preset_name()
            ));
        }
    }
    Ok(())
}

/// A standard pass that adds its wall time to a shared accumulator.
struct Timed {
    pass: Box<dyn Pass>,
    spent: Rc<Cell<f64>>,
}

impl Pass for Timed {
    fn name(&self) -> &'static str {
        self.pass.name()
    }

    fn run(&self, state: &mut PipelineState<'_>) {
        let start = Instant::now();
        self.pass.run(state);
        self.spent.set(self.spent.get() + since(start));
    }
}

/// The passes `PassManager::standard` may hold, by name, with the
/// per-layer metric each one's time goes to.
const PASSES: [(&str, &str); 6] = [
    ("rewrite", "core.pass.rewrite.self_s"),
    ("esat", "core.pass.esat.self_s"),
    ("schedule", "core.pass.schedule.self_s"),
    ("translate", "core.pass.translate.self_s"),
    ("peephole", "core.pass.peephole.self_s"),
    ("finalize", "core.pass.finalize.self_s"),
];

fn standard_pass(name: &str) -> Box<dyn Pass> {
    match name {
        "rewrite" => Box::new(RewritePass),
        "esat" => Box::new(EsatPass),
        "schedule" => Box::new(SchedulePass),
        "translate" => Box::new(TranslatePass),
        "peephole" => Box::new(PeepholePass),
        "finalize" => Box::new(FinalizePass),
        other => panic!("standard pipeline has a pass `{other}` this benchmark does not time"),
    }
}

/// `PassManager::standard(options)` rebuilt from timed wrappers, in the
/// same order; `spent[i]` accumulates the time of pass `PASSES[i]`.
fn timed_pipeline(options: &CompileOptions, spent: &[Rc<Cell<f64>>]) -> PassManager {
    let mut manager = PassManager::new();
    for name in PassManager::standard(options).pass_names() {
        let slot = PASSES
            .iter()
            .position(|&(p, _)| p == name)
            .unwrap_or_else(|| panic!("untimed pass `{name}`"));
        manager.push(Box::new(Timed {
            pass: standard_pass(name),
            spent: Rc::clone(&spent[slot]),
        }));
    }
    manager
}

/// One traced round: a serial batch, then per job `compile()`, the
/// plain pipeline, the timed pipeline, a direct rewrite and (for esat
/// jobs) the round-1 e-graph probe. Returns the round's layer values.
fn traced_round(
    jobs: &[Job],
    specs: &[JobSpec],
    inputs: &[Vec<Vec<bool>>],
    outcome: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| *layer.entry(name).or_insert(0.0) += v;

    let start = Instant::now();
    let batch = Service::new().with_threads(1).run_batch(specs);
    let batch_s = since(start);
    let spent: Vec<Rc<Cell<f64>>> = PASSES.iter().map(|_| Rc::new(Cell::new(0.0))).collect();
    let (mut compile_s, mut pipeline_s, mut traced_s) = (0.0, 0.0, 0.0);
    for (j, job) in jobs.iter().enumerate() {
        let (mig, options) = (job.mig.as_ref(), &job.options);
        let start = Instant::now();
        let compiled = compile(mig, options);
        let one_compile = since(start);
        compile_s += one_compile;

        let start = Instant::now();
        let plain = PassManager::standard(options).run(mig, options);
        let one_pipeline = since(start);
        pipeline_s += one_pipeline;
        add("core.best_of.self_s", one_compile - one_pipeline);

        let manager = timed_pipeline(options, &spent);
        let start = Instant::now();
        let timed = manager.run(mig, options);
        traced_s += since(start);

        let mut check = check_program(job, &compiled.program, &inputs[j]);
        if check.is_ok() && asm::to_text(&timed.program) != asm::to_text(&plain.program) {
            check = Err(format!(
                "{}: timed pipeline emitted a different program than PassManager::standard",
                job.benchmark.name()
            ));
        }
        if check.is_ok() {
            check = match (&batch, job.pin) {
                (Ok(reports), Some(column)) => {
                    pins::check(job.benchmark.name(), column, &reports[j])
                }
                (Ok(_), None) => Ok(()),
                (Err(e), _) => Err(format!("run_batch failed: {e}")),
            };
        }
        outcome.check(check.is_ok(), || check.clone().unwrap_err());

        if let Some(algorithm) = options.rewriting {
            let start = Instant::now();
            let rewritten = rewrite(mig, algorithm, options.effort);
            add("mig.rewrite.self_s", since(start));
            add("mig.rewrite.gates_out", rewritten.num_gates() as f64);
            if options.esat {
                probe_egraph(&rewritten, options, &mut add);
            }
        }
    }
    for ((_, metric), slot) in PASSES.iter().zip(&spent) {
        add(metric, slot.get());
    }
    add("service.run_batch.self_s", batch_s - compile_s);
    add("trace.overhead", traced_s / pipeline_s);
    layer
}

/// Round 1 of `EsatPass` on a rewritten graph, at the job's budgets.
fn probe_egraph(
    rewritten: &Mig,
    options: &CompileOptions,
    add: &mut impl FnMut(&'static str, f64),
) {
    let budget = Budget {
        max_nodes: options.esat_nodes as usize,
        max_iters: options.esat_iters as usize,
    };
    let rules = omega_rules();
    let weights = match options.allocation {
        Allocation::MinWrite => CostWeights::endurance(),
        Allocation::Lifo => CostWeights::area(),
    };
    let start = Instant::now();
    let (mut eg, outputs, classes) = EGraph::from_mig_with_classes(rewritten);
    add("egraph.build.self_s", since(start));
    let start = Instant::now();
    let report = saturate(&mut eg, &rules, &budget);
    add("egraph.saturate.self_s", since(start));
    add("egraph.saturate.iterations", report.iterations as f64);
    add("egraph.saturate.enodes", report.enodes as f64);
    add(
        "egraph.saturate.budget_stops",
        f64::from(u8::from(!report.saturated)),
    );
    let start = Instant::now();
    std::hint::black_box(extract_around(&eg, &outputs, &weights, rewritten, &classes));
    add("egraph.extract.self_s", since(start));
}

fn traced(
    jobs: &[Job],
    specs: &[JobSpec],
    inputs: &[Vec<Vec<bool>>],
    seconds: f64,
    outcome: &mut Outcome,
) {
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let start = Instant::now();
    passes(seconds, 1, || {
        let round_start = Instant::now();
        rounds.push(traced_round(jobs, specs, inputs, outcome));
        since(round_start)
    });
    outcome.note("traced_rounds", rounds.len() as f64, "count");
    outcome.note("traced_wall_s", since(start), "s");
    for &name in rounds[0].keys() {
        let values: Vec<f64> = rounds.iter().map(|r| r[name]).collect();
        outcome.layer(name, median(&values));
    }
}
