//! The rlim benchmark: end-to-end and per-layer metrics of the toolchain
//! on five workloads, driven only through the layer crates' public API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run prints one human-readable line per metric, then, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set (the same eight names on every
//! workload); with `--trace 1` they are the per-layer set, timed from
//! this package around calls into each layer crate. Layers a workload
//! bypasses read 0 in its traced run. `perfbench/README.md` lists the
//! workloads, the layers each one stresses and bypasses, and which
//! end-to-end metric each layer metric should move.
//!
//! Exit status: 0 when every output check passed, 1 when a check
//! failed (the result line then reads `"correct": false`), 2 on a
//! usage error.

mod compile;
mod daemon;
mod fleet;
mod measure;
mod pins;

use std::process::ExitCode;

use measure::{Metric, Outcome};

const USAGE: &str = "usage: rlim-perfbench --workload <compile|esat|fleet.scalar|fleet.chaos|\
daemon> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib = measure::calib_mops();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut outcome = match args.workload.as_str() {
        "compile" => compile::run(compile::Suite::Compile, seed, seconds, trace),
        "esat" => compile::run(compile::Suite::Esat, seed, seconds, trace),
        "fleet.scalar" => fleet::run(fleet::Part::Scalar, seed, seconds, trace),
        "fleet.chaos" => fleet::run(fleet::Part::Chaos, seed, seconds, trace),
        "daemon" => daemon::run(seed, seconds, trace),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Not gated: a fixed integer kernel that lets runs on different
    // hosts be compared.
    if trace {
        outcome.layer("host.calib_mops", calib);
        outcome.zero_unmeasured_layers();
    } else {
        outcome.note("host.calib_mops", calib, "Mops");
    }
    print(&outcome, trace);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print(outcome: &Outcome, trace: bool) {
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<34} {} failed/attempted", "error_rate", error_rate);
    for m in &outcome.notes {
        println!("{:<34} {} {}", m.name, m.value, m.unit);
    }
    let metrics: &[Metric] = if trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!(
            "{:<34} {} {}  [{}]",
            m.name,
            m.value,
            m.unit,
            if trace { "layer" } else { "end-to-end" }
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
}

/// Every digit as measured; a non-finite value (a broken measurement)
/// is written as `null` so the line stays valid JSON.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}
