//! Timing, statistics and result bookkeeping shared by the workloads.

use std::hint::black_box;
use std::time::Instant;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: counts of attempted and failed units
/// of work, the end-to-end metrics (untraced runs), the per-layer
/// metrics (traced runs) and human-readable notes printed on both.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Records one unit of work and whether its output check passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.end_to_end, name, value, unit);
    }

    /// Records a per-layer metric; its unit comes from [`LAYERS`], where
    /// every per-layer name must be declared.
    pub fn layer(&mut self, name: &str, value: f64) {
        let &(_, unit) = LAYERS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not in LAYERS"));
        push(&mut self.layers, name, value, unit);
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.notes, name, value, unit);
    }

    /// The end-to-end set every workload reports, in one place so the
    /// names cannot drift between workloads.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.metric("setup_s", e.setup_s, "s");
        self.metric("throughput", e.throughput, "1/s");
        self.metric("p50_ms", e.p50_ms, "ms");
        self.metric("p99_ms", e.p99_ms, "ms");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.metric(
            "program_instructions",
            e.quality.instructions as f64,
            "count",
        );
        self.metric("peak_cell_writes", e.quality.peak_writes as f64, "writes");
        self.metric("write_stdev", e.quality.stdev, "writes");
        self.note("latency_samples", e.samples as f64, "count");
    }

    /// Fills every per-layer metric this workload did not measure with
    /// 0, so each traced run prints the whole per-layer set.
    pub fn zero_unmeasured_layers(&mut self) {
        for &(name, unit) in LAYERS {
            if !self.layers.iter().any(|m| m.name == name) {
                push(&mut self.layers, name, 0.0, unit);
            }
        }
        self.layers
            .sort_by_key(|m| LAYERS.iter().position(|&(n, _)| n == m.name));
    }
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// The per-layer metric names and units, in output order.
pub const LAYERS: &[(&str, &str)] = &[
    ("mig.rewrite.self_s", "s"),
    ("mig.rewrite.gates_out", "gates"),
    ("egraph.build.self_s", "s"),
    ("egraph.saturate.self_s", "s"),
    ("egraph.saturate.iterations", "count"),
    ("egraph.saturate.enodes", "enodes"),
    ("egraph.saturate.budget_stops", "count"),
    ("egraph.extract.self_s", "s"),
    ("core.pass.rewrite.self_s", "s"),
    ("core.pass.esat.self_s", "s"),
    ("core.pass.schedule.self_s", "s"),
    ("core.pass.translate.self_s", "s"),
    ("core.pass.peephole.self_s", "s"),
    ("core.pass.finalize.self_s", "s"),
    ("core.best_of.self_s", "s"),
    ("service.run_batch.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("rram.write_ns", "ns"),
    ("rram.write_verified_ns", "ns"),
    ("plim.machine.rm3_per_s", "RM3/s"),
    ("plim.fleet.simd_rm3_per_s", "RM3/s"),
    ("plim.wide.rm3_per_s", "RM3/s"),
    ("plim.fleet.scalar_efficiency", "ratio"),
    ("plim.fleet.simd_efficiency", "ratio"),
    ("plim.recovery.faults", "count"),
    ("plim.recovery.remaps", "count"),
    ("plim.recovery.retired", "count"),
    ("daemon.wire.encode_us", "us"),
    ("daemon.wire.decode_us", "us"),
    ("daemon.cache_key_us", "us"),
    ("daemon.hit_p50_ms", "ms"),
    ("daemon.miss_p50_ms", "ms"),
    ("daemon.cache.hit_ratio", "ratio"),
    ("daemon.cache.evictions", "count"),
    ("daemon.jobs_rejected", "count"),
    ("daemon.jobs_failed", "count"),
    ("host.calib_mops", "Mops"),
];

/// The paper's program-quality metrics, summed over a workload's jobs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quality {
    pub instructions: u64,
    pub peak_writes: u64,
    pub stdev: f64,
}

impl Quality {
    pub fn add(&mut self, instructions: usize, writes: &rlim_rram::WriteStats) {
        self.instructions += instructions as u64;
        self.peak_writes += writes.max;
        self.stdev += writes.stdev;
    }
}

/// Inputs to [`Outcome::end_to_end`].
pub struct EndToEnd {
    pub setup_s: f64,
    /// Units of work per second: compile jobs, RM3 instructions or
    /// daemon requests, depending on the workload.
    pub throughput: f64,
    /// Round trip of one submission (a request, or a batch call).
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Submissions the percentiles were taken over.
    pub samples: usize,
    pub quality: Quality,
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `pass` (which returns its own measured seconds) at least `min`
/// times and then as long as another pass of median length still fits
/// in `seconds` of wall time. Returns each pass's measured seconds.
pub fn passes(seconds: f64, min: usize, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = vec![pass()];
    while times.len() < min || since(start) + median(&times) <= seconds {
        times.push(pass());
    }
    times
}

/// Set-ups per run; `setup_s` is their median, so one slow set-up on a
/// busy host does not move it.
pub const SETUPS: usize = 9;

/// Runs `setup` [`SETUPS`] times and returns the median wall time with
/// the last result.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut spent = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        last = Some(setup());
        spent.push(since(start));
    }
    (median(&spent), last.expect("at least one set-up"))
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolation percentile (the `inclusive` method of Python's
/// `statistics.quantiles`); NaN for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The process's peak resident set (VmHWM), in MB; NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Millions of iterations per second of a fixed integer kernel
/// (xorshift plus multiply-accumulate), best of five rounds.
pub fn calib_mops() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x.wrapping_mul(i | 1));
        }
        black_box(acc);
        best = best.min(since(start));
    }
    ITERS as f64 / best / 1e6
}
