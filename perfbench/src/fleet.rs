//! The fleet workloads: execution only, on programs compiled in
//! set-up, each batch on a fresh four-array least-worn fleet, serial.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim_benchmarks::Benchmark;
use rlim_compiler::{compile, CompileOptions};
use rlim_mig::Mig;
use rlim_plim::{
    DispatchPolicy, Fleet, FleetConfig, Job, Machine, Program, RecoveryConfig, WideMachine,
};
use rlim_rram::variability::EnduranceModel;
use rlim_rram::{CellId, Crossbar, FaultModel};
use rlim_service::ChaosSpec;

use crate::measure::{median, median_setup, passes, percentile, since, EndToEnd, Outcome, Quality};

const ARRAYS: usize = 4;
/// Distinct seeded input vectors; job `i` drives vector `i % VECTORS`.
const VECTORS: usize = 64;
/// Jobs per batch of the SIMD measurement in the traced scalar run.
const SIMD_JOBS: usize = 8192;
/// Seconds of SIMD batches in the traced scalar run.
const SIMD_SECONDS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Part {
    /// 256 jobs alternating naive/endurance-aware div, `Fleet::run_batch`.
    Scalar,
    /// 256 endurance-aware sqrt jobs on faulty devices with recovery.
    Chaos,
}

/// How a batch executes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Scalar,
    Simd,
    Recovering,
}

/// The device and recovery model of the chaos part: fault seed 7 with
/// the median endurance raised so the 256 jobs finish after recovery.
fn chaos_spec() -> ChaosSpec {
    ChaosSpec::new(7).with_endurance_median(65536.0)
}

fn fault_model(chaos: &ChaosSpec) -> FaultModel {
    FaultModel::new(
        EnduranceModel::new(chaos.endurance_median, chaos.endurance_sigma),
        chaos.stuck_probability,
        chaos.fault_seed,
    )
}

fn fleet(path: Path) -> Fleet {
    let config = FleetConfig::new(ARRAYS).with_policy(DispatchPolicy::LeastWorn);
    if path != Path::Recovering {
        return Fleet::new(config);
    }
    let chaos = chaos_spec();
    Fleet::new(
        config.with_faults(fault_model(&chaos)).with_recovery(
            RecoveryConfig::new()
                .with_spares(chaos.spares)
                .with_max_faults(chaos.max_faults),
        ),
    )
}

struct Setup {
    mig: Mig,
    /// Programs the jobs alternate between (one for chaos).
    programs: Vec<Program>,
}

fn setup(part: Part) -> Setup {
    let ea = CompileOptions::endurance_aware();
    let (mig, options) = match part {
        Part::Scalar => (Benchmark::Div.build(), vec![CompileOptions::naive(), ea]),
        Part::Chaos => (Benchmark::Sqrt.build(), vec![ea]),
    };
    let programs = options.iter().map(|o| compile(&mig, o).program).collect();
    Setup { mig, programs }
}

/// Job `i` runs program `i % programs.len()` on input vector `i % VECTORS`.
fn job_list<'a>(programs: &'a [Program], vectors: &'a [Vec<bool>], count: usize) -> Vec<Job<'a>> {
    (0..count)
        .map(|i| Job::new(&programs[i % programs.len()], &vectors[i % VECTORS]))
        .collect()
}

fn execute(path: Path, fleet: &mut Fleet, jobs: &[Job<'_>]) -> Result<Vec<Vec<bool>>, String> {
    let result = match path {
        Path::Simd => fleet.run_batch_simd(jobs, 1),
        Path::Scalar | Path::Recovering => fleet.run_batch(jobs, 1),
    };
    result.map_err(|e| format!("fleet batch failed: {e}"))
}

/// What the timed batches of one path produced.
struct Batches {
    times: Vec<f64>,
    /// Faults, remaps and retired arrays of the last batch.
    recovery: (u64, u64, u64),
}

impl Batches {
    /// RM3 instructions per second: work over time rather than a median
    /// of per-batch rates, because the host's speed drifts within a run
    /// and the mean follows the drift smoothly.
    fn rate(&self, jobs: &[Job<'_>]) -> f64 {
        let rm3: u64 = jobs.iter().map(Job::cost).sum();
        (self.times.len() as u64 * rm3) as f64 / self.times.iter().sum::<f64>()
    }
}

/// Times batches of `jobs` on fresh fleets for `seconds`, checking every
/// output against `expected` (by input vector) and, when given, against
/// a fault-free run's outputs.
fn batches(
    path: Path,
    jobs: &[Job<'_>],
    expected: &[Vec<bool>],
    fault_free: Option<&[Vec<bool>]>,
    seconds: f64,
    outcome: &mut Outcome,
) -> Batches {
    let mut recovery = (0, 0, 0);
    let times = passes(seconds, 2, || {
        let mut fleet = fleet(path);
        let start = Instant::now();
        let result = execute(path, &mut fleet, jobs);
        let spent = since(start);
        match result {
            Ok(outputs) => {
                for (i, out) in outputs.iter().enumerate() {
                    let ok =
                        *out == expected[i % VECTORS] && fault_free.is_none_or(|f| *out == f[i]);
                    outcome.check(ok, || {
                        format!("{path:?} job {i}: fleet output differs from reference")
                    });
                }
            }
            Err(e) => {
                outcome.attempted += jobs.len() as u64;
                outcome.failed += jobs.len() as u64;
                outcome.errors.push(e);
            }
        }
        if path == Path::Recovering {
            let log = fleet.fault_log();
            recovery = (
                log.total_faults(),
                log.remaps(),
                fleet.stats().retired as u64,
            );
            if recovery.0 == 0 {
                outcome.check(false, || "chaos batch recorded no fault".to_string());
            }
        }
        spent
    });
    Batches { times, recovery }
}

pub fn run(part: Part, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (setup_s, s) = median_setup(|| setup(part));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vectors: Vec<Vec<bool>> = (0..VECTORS)
        .map(|_| (0..s.mig.num_inputs()).map(|_| rng.gen()).collect())
        .collect();
    let expected: Vec<Vec<bool>> = vectors.iter().map(|v| s.mig.evaluate(v)).collect();
    let jobs = job_list(&s.programs, &vectors, 256);
    let mut outcome = Outcome::default();

    let measured = match part {
        Part::Scalar => batches(Path::Scalar, &jobs, &expected, None, seconds, &mut outcome),
        Part::Chaos => {
            // Chaos outputs must also equal a fault-free run's.
            let fault_free = match execute(Path::Scalar, &mut fleet(Path::Scalar), &jobs) {
                Ok(out) => out,
                Err(e) => {
                    outcome.check(false, || e);
                    return outcome;
                }
            };
            let (path, f) = (Path::Recovering, Some(fault_free.as_slice()));
            batches(path, &jobs, &expected, f, seconds, &mut outcome)
        }
    };
    let throughput = measured.rate(&jobs);
    let name = match part {
        Part::Scalar => "scalar_rm3_per_s",
        Part::Chaos => "chaos_rm3_per_s",
    };
    outcome.note(name, throughput, "RM3/s");
    outcome.note("batches", measured.times.len() as f64, "count");
    if !trace {
        let mut quality = Quality::default();
        for p in &s.programs {
            quality.add(p.num_instructions(), &p.write_stats());
        }
        outcome.end_to_end(EndToEnd {
            setup_s,
            throughput,
            p50_ms: percentile(&measured.times, 50.0) * 1e3,
            p99_ms: percentile(&measured.times, 99.0) * 1e3,
            samples: measured.times.len(),
            quality,
        });
        return outcome;
    }

    match part {
        Part::Scalar => {
            let (machine, scalar_efficiency) =
                efficiency(Path::Scalar, &jobs, || machine_sweep(&s.programs, &jobs));
            outcome.layer("plim.machine.rm3_per_s", machine);
            outcome.layer("plim.fleet.scalar_efficiency", scalar_efficiency);
            outcome.layer("rram.write_ns", write_ns(Crossbar::new(), false));
            // The SIMD path on the same alternation at 8192 jobs.
            let simd_jobs = job_list(&s.programs, &vectors, SIMD_JOBS);
            let simd = batches(
                Path::Simd,
                &simd_jobs,
                &expected,
                None,
                SIMD_SECONDS,
                &mut outcome,
            );
            let (wide, simd_efficiency) =
                efficiency(Path::Simd, &simd_jobs, || wide_sweep(&simd_jobs));
            outcome.layer("plim.fleet.simd_rm3_per_s", simd.rate(&simd_jobs));
            outcome.layer("plim.wide.rm3_per_s", wide);
            outcome.layer("plim.fleet.simd_efficiency", simd_efficiency);
        }
        Part::Chaos => {
            let faulty = Crossbar::with_faults(fault_model(&chaos_spec()).for_array(0));
            outcome.layer("rram.write_verified_ns", write_ns(faulty, true));
            outcome.layer("plim.recovery.faults", measured.recovery.0 as f64);
            outcome.layer("plim.recovery.remaps", measured.recovery.1 as f64);
            outcome.layer("plim.recovery.retired", measured.recovery.2 as f64);
        }
    }
    outcome
}

/// Execute-only seconds of one `Machine` sweep over the job list (one
/// machine per program, inputs loaded untimed). Job `i` runs
/// `programs[i % programs.len()]`, as the fleet's job list does.
fn machine_sweep(programs: &[Program], jobs: &[Job<'_>]) -> f64 {
    let mut machines: Vec<Machine> = programs.iter().map(Machine::for_program).collect();
    let mut spent = 0.0;
    for (i, job) in jobs.iter().enumerate() {
        let machine = &mut machines[i % programs.len()];
        machine
            .load_inputs(job.program, job.inputs)
            .expect("fault-free machine");
        let start = Instant::now();
        machine.execute(job.program).expect("fault-free machine");
        spent += since(start);
    }
    spent
}

/// Execute-only seconds of one `WideMachine` sweep over the job list in
/// 64-lane same-program groups (even jobs run one program, odd jobs the
/// other).
fn wide_sweep(jobs: &[Job<'_>]) -> f64 {
    const LANES: usize = 64;
    let mut spent = 0.0;
    for group in jobs.chunks(2 * LANES) {
        for parity in 0..2 {
            let lane_jobs: Vec<&Job<'_>> = group.iter().skip(parity).step_by(2).collect();
            let Some(first) = lane_jobs.first() else {
                continue;
            };
            let program = first.program;
            let lane_inputs: Vec<&[bool]> = lane_jobs.iter().map(|j| j.inputs).collect();
            let mut wide = WideMachine::for_program(program, lane_inputs.len());
            wide.load_inputs(program, &lane_inputs);
            let start = Instant::now();
            wide.execute(program).expect("fault-free wide machine");
            spent += since(start);
        }
    }
    spent
}

/// The bare machine's RM3/s and the fleet's efficiency against it
/// (fleet rate ÷ machine rate, one thread): five fleet batches and five
/// machine sweeps over the same jobs, alternated so host drift hits
/// both alike.
fn efficiency(path: Path, jobs: &[Job<'_>], sweep: impl Fn() -> f64) -> (f64, f64) {
    const ROUNDS: u32 = 5;
    let (mut fleet_s, mut machine_s) = (0.0, 0.0);
    for _ in 0..ROUNDS {
        let mut batch_fleet = fleet(path);
        let start = Instant::now();
        execute(path, &mut batch_fleet, jobs).expect("fault-free fleet");
        fleet_s += since(start);
        machine_s += sweep();
    }
    let rm3 = jobs.iter().map(Job::cost).sum::<u64>() * u64::from(ROUNDS);
    (rm3 as f64 / machine_s, machine_s / fleet_s)
}

/// Nanoseconds per `Crossbar::write` (or `write_verified`) cycling over
/// 4096 cells, median of five rounds of 2^20 writes. Faults a faulty
/// crossbar reports are part of the work and are not errors here.
fn write_ns(mut crossbar: Crossbar, verified: bool) -> f64 {
    const CELLS: u32 = 4096;
    const WRITES: u32 = 1 << 20;
    crossbar.grow_to(CELLS as usize);
    let mut per_write = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut faults = 0u32;
        for i in 0..WRITES {
            let cell = CellId::new(i % CELLS);
            let value = (i / CELLS) % 2 == 1;
            let failed = if verified {
                crossbar.write_verified(cell, value).is_err()
            } else {
                crossbar.write(cell, value).is_err()
            };
            faults += u32::from(failed);
        }
        std::hint::black_box(faults);
        per_write.push(since(start) * 1e9 / f64::from(WRITES));
    }
    median(&per_write)
}
