//! The JSON-lines wire protocol: how a [`JobSpec`] travels to the
//! daemon and how every response travels back.
//!
//! One request is exactly one compact JSON line (see
//! [`Json::render_compact`]) terminated by `\n`; one response is exactly
//! one line back. A `job` request answers with a bare [`Report`]
//! document (recognizable by its `schema` key); every other response is
//! a single-key envelope — `rejected`, `error`, `metrics`, `healthz` or
//! `shutdown` — so a client can classify a line by its first key alone.
//!
//! The codec is a strict inverse pair: [`decode_spec`] accepts exactly
//! the documents [`encode_spec`] produces (any key order, but the exact
//! key set, exact value kinds, and the chaos floats only as the
//! fixed-place decimals the encoder writes), and re-encoding a decoded
//! spec reproduces the canonical line byte-for-byte. That property is
//! pinned by a proptest mirroring the CLI's argv ↔ `JobSpec` round-trip.
//! The one leniency is that enum names are read through each type's
//! `FromStr`, so `DispatchPolicy`'s short aliases (`rr`, `lw`) decode
//! and re-encode under their canonical names.
//!
//! Because the canonical line is exact, it doubles as the daemon's job
//! identity: [`crate::cache_key`] is the compact encoding of every spec
//! field below `source` and `backend`, so a field added to the wire is
//! part of the key by construction. A report's `policy` object decodes
//! through the same options reader as the spec's `options`, and every
//! decoder reads its objects through [`Fields`].

use rlim_compiler::CompileOptions;
use rlim_rram::WriteStats;
use rlim_service::json::{self, Fields, Json};
use rlim_service::{
    BackendKind, ChaosSpec, CircuitSummary, Error, FleetSpec, JobSpec, LifetimeProjection, Report,
    Source,
};

use crate::metrics::{Health, MetricsSnapshot};

/// Decimal places used for the chaos floats on the wire (matches the
/// report's `fault` section: median at 1, spreads at 4).
const MEDIAN_PRECISION: usize = 1;
const SIGMA_PRECISION: usize = 4;

/// Decimal places of the report's write statistics (`writes.mean`,
/// `writes.stdev`).
const STATS_PRECISION: usize = 4;

const SPEC_KEYS: [&str; 6] = [
    "source",
    "backend",
    "options",
    "fleet",
    "program",
    "projection_arrays",
];

const OPTION_KEYS: [&str; 10] = [
    "rewriting",
    "effort",
    "selection",
    "allocation",
    "max_writes",
    "peephole",
    "copy_reuse",
    "esat",
    "esat_nodes",
    "esat_iters",
];

const FLEET_KEYS: [&str; 7] = [
    "arrays",
    "jobs",
    "dispatch",
    "write_budget",
    "input_seed",
    "simd",
    "chaos",
];

const CHAOS_KEYS: [&str; 7] = [
    "fault_seed",
    "endurance_median",
    "endurance_sigma",
    "stuck_probability",
    "recovery",
    "spares",
    "max_faults",
];

/// One request line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"verb":"job","spec":…}` — compile (or hit the cache) and reply
    /// with one report line.
    Job(Box<JobSpec>),
    /// `{"verb":"metrics"}` — reply with a counters snapshot.
    Metrics,
    /// `{"verb":"healthz"}` — reply with a liveness probe.
    Healthz,
    /// `{"verb":"shutdown"}` — acknowledge, stop accepting, drain and
    /// exit.
    Shutdown,
}

/// One response line, classified and decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A bare report document (the answer to a `job` request).
    Report(ReportLine),
    /// The job was refused at admission: the queue is full (or the
    /// daemon is draining). In-flight jobs are unaffected.
    Rejected {
        /// Queued jobs at the moment of rejection.
        queue_depth: usize,
        /// The queue's admission limit.
        queue_capacity: usize,
        /// Why: `"job queue full"` or `"daemon is draining"`.
        message: String,
    },
    /// The request failed: malformed line, unknown benchmark, compile
    /// or fleet failure.
    Error {
        /// The failure text.
        message: String,
        /// Whether the request itself was wrong (the CLI's exit-code-2
        /// class) as opposed to an operational failure.
        usage: bool,
    },
    /// The counters snapshot answering a `metrics` request.
    Metrics(MetricsSnapshot),
    /// The liveness probe answering a `healthz` request.
    Healthz(Health),
    /// The acknowledgement of a `shutdown` request: the daemon has
    /// stopped accepting and is draining its queue.
    Shutdown,
}

/// A report as it came off the wire: the raw line plus its parsed tree.
///
/// Byte-level consumers (tests, `--json` passthrough) use
/// [`ReportLine::line`]; typed consumers call [`ReportLine::decode`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportLine {
    /// The exact response line (no trailing newline).
    pub line: String,
    /// The parsed document.
    pub json: Json,
}

fn invalid(message: impl Into<String>) -> Error {
    Error::InvalidRequest(message.into())
}

// ---- spec encoding ------------------------------------------------------

fn options_json(o: &CompileOptions) -> Json {
    Json::object([
        ("rewriting", Json::from(o.rewriting.map(|a| a.name()))),
        ("effort", Json::from(o.effort)),
        ("selection", Json::from(o.selection.name())),
        ("allocation", Json::from(o.allocation.name())),
        ("max_writes", Json::from(o.max_writes)),
        ("peephole", Json::from(o.peephole)),
        ("copy_reuse", Json::from(o.copy_reuse)),
        ("esat", Json::from(o.esat)),
        ("esat_nodes", Json::from(o.esat_nodes as u64)),
        ("esat_iters", Json::from(o.esat_iters as u64)),
    ])
}

fn chaos_json(c: &ChaosSpec) -> Json {
    Json::object([
        ("fault_seed", Json::from(c.fault_seed)),
        (
            "endurance_median",
            Json::float(c.endurance_median, MEDIAN_PRECISION),
        ),
        (
            "endurance_sigma",
            Json::float(c.endurance_sigma, SIGMA_PRECISION),
        ),
        (
            "stuck_probability",
            Json::float(c.stuck_probability, SIGMA_PRECISION),
        ),
        ("recovery", Json::from(c.recovery)),
        ("spares", Json::from(c.spares)),
        ("max_faults", Json::from(c.max_faults)),
    ])
}

fn fleet_json(f: &FleetSpec) -> Json {
    Json::object([
        ("arrays", Json::from(f.arrays)),
        ("jobs", Json::from(f.jobs)),
        ("dispatch", Json::from(f.dispatch.label())),
        ("write_budget", Json::from(f.write_budget)),
        ("input_seed", Json::from(f.input_seed)),
        ("simd", Json::from(f.simd)),
        ("chaos", f.chaos.as_ref().map_or(Json::Null, chaos_json)),
    ])
}

/// The spec's fields below its source and backend, in wire order.
fn job_fields(spec: &JobSpec) -> [(&'static str, Json); 4] {
    [
        ("options", options_json(spec.options())),
        ("fleet", spec.fleet().map_or(Json::Null, fleet_json)),
        ("program", Json::from(spec.includes_program())),
        ("projection_arrays", Json::from(spec.projection_arrays())),
    ]
}

/// The compact canonical encoding of everything in `spec` except its
/// source and backend — `{"options":…,"fleet":…,"program":…,
/// "projection_arrays":…}`, exactly as those fields appear in the
/// [`encode_spec`] line. Defined for every source, [`Source::Mig`]
/// included.
pub(crate) fn job_identity(spec: &JobSpec) -> String {
    Json::object(job_fields(spec)).render_compact()
}

/// Encodes a spec as the wire's canonical `spec` object.
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] for in-memory
/// [`Source::Mig`] sources — a graph has no wire representation; send a
/// benchmark name or a BLIF path instead.
pub fn encode_spec(spec: &JobSpec) -> Result<Json, Error> {
    let source = match spec.source() {
        Source::Benchmark(b) => Json::object([("benchmark", Json::from(b.name()))]),
        Source::BlifPath(p) => Json::object([("blif", Json::from(p.display().to_string()))]),
        Source::Mig(_) => {
            return Err(invalid(
                "in-memory MIG sources cannot travel over the wire; \
                 send a benchmark name or a BLIF path",
            ))
        }
    };
    let head = [
        ("source", source),
        ("backend", Json::from(spec.backend().name())),
    ];
    Ok(Json::object(head.into_iter().chain(job_fields(spec))))
}

/// Encodes a request as one compact wire line (no trailing newline).
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] when a job spec cannot be encoded
/// (see [`encode_spec`]).
pub fn encode_request(request: &Request) -> Result<String, Error> {
    let doc = match request {
        Request::Job(spec) => {
            Json::object([("verb", Json::from("job")), ("spec", encode_spec(spec)?)])
        }
        Request::Metrics => Json::object([("verb", Json::from("metrics"))]),
        Request::Healthz => Json::object([("verb", Json::from("healthz"))]),
        Request::Shutdown => Json::object([("verb", Json::from("shutdown"))]),
    };
    Ok(doc.render_compact())
}

// ---- spec decoding ------------------------------------------------------

/// Reads an options object: a wire spec's `options` (`read_only` empty)
/// or a report's `policy` (`read_only = ["preset"]`, a derived key that
/// is accepted and ignored).
fn read_options(o: &Fields<'_>, read_only: &[&str]) -> Result<CompileOptions, String> {
    o.exact_keys(OPTION_KEYS.iter().chain(read_only).copied())?;
    let max_writes = o.optional("max_writes", Fields::u64)?;
    if max_writes.is_some_and(|w| w < 3) {
        return Err(o.invalid("max_writes", "must be at least 3"));
    }
    let budget = |key: &str| match u32::try_from(o.u64(key)?) {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(o.invalid(key, "must be a positive 32-bit value")),
    };
    Ok(CompileOptions {
        rewriting: o.optional("rewriting", Fields::name)?,
        effort: o.usize("effort")?,
        selection: o.name("selection")?,
        allocation: o.name("allocation")?,
        max_writes,
        peephole: o.bool("peephole")?,
        copy_reuse: o.bool("copy_reuse")?,
        esat: o.bool("esat")?,
        esat_nodes: budget("esat_nodes")?,
        esat_iters: budget("esat_iters")?,
    })
}

fn read_chaos(c: &Fields<'_>) -> Result<ChaosSpec, String> {
    c.exact_keys(CHAOS_KEYS)?;
    Ok(ChaosSpec {
        fault_seed: c.u64("fault_seed")?,
        endurance_median: c.f64("endurance_median", MEDIAN_PRECISION)?,
        endurance_sigma: c.f64("endurance_sigma", SIGMA_PRECISION)?,
        stuck_probability: c.f64("stuck_probability", SIGMA_PRECISION)?,
        recovery: c.bool("recovery")?,
        spares: c.usize("spares")?,
        max_faults: c.u64("max_faults")?,
    })
}

fn read_fleet(f: &Fields<'_>) -> Result<FleetSpec, String> {
    f.exact_keys(FLEET_KEYS)?;
    let arrays = f.usize("arrays")?;
    if arrays == 0 {
        return Err(f.invalid("arrays", "must be at least 1"));
    }
    Ok(FleetSpec {
        arrays,
        jobs: f.usize("jobs")?,
        dispatch: f.name("dispatch")?,
        write_budget: f.optional("write_budget", Fields::u64)?,
        input_seed: f.optional("input_seed", Fields::u64)?,
        simd: f.bool("simd")?,
        chaos: f.optional("chaos", |f, key| read_chaos(&f.object(key)?))?,
    })
}

/// Everything in a spec object below its source, applied to `job`.
fn read_job(job: JobSpec, spec: &Fields<'_>) -> Result<JobSpec, String> {
    let projection_arrays = spec.usize("projection_arrays")?;
    if projection_arrays == 0 {
        return Err(spec.invalid("projection_arrays", "must be at least 1"));
    }
    let fleet = spec.optional("fleet", |s, key| read_fleet(&s.object(key)?))?;
    let job = job
        .with_backend(spec.name("backend")?)
        .with_options(read_options(&spec.object("options")?, &[])?)
        .with_program_text(spec.bool("program")?)
        .with_projection_arrays(projection_arrays);
    Ok(match fleet {
        Some(fleet) => job.with_fleet(fleet),
        None => job,
    })
}

/// Decodes the wire's `spec` object back into a [`JobSpec`] — the exact
/// inverse of [`encode_spec`].
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] on shape violations (wrong types,
/// missing or unknown keys, out-of-range values, chaos floats not
/// written at their wire precision) and [`Error::UnknownBenchmark`] for
/// benchmark names not in the suite.
pub fn decode_spec(json: &Json) -> Result<JobSpec, Error> {
    let spec = json.fields("spec").map_err(invalid)?;
    spec.exact_keys(SPEC_KEYS).map_err(invalid)?;
    let source = spec.object("source").map_err(invalid)?;
    let job = if source.exact_keys(["benchmark"]).is_ok() {
        JobSpec::named_benchmark(source.str("benchmark").map_err(invalid)?)?
    } else if source.exact_keys(["blif"]).is_ok() {
        JobSpec::blif_path(source.str("blif").map_err(invalid)?)
    } else {
        return Err(invalid(
            "spec.source must be exactly {\"benchmark\":NAME} or {\"blif\":PATH}",
        ));
    };
    read_job(job, &spec).map_err(invalid)
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns [`Error::InvalidRequest`] on anything that is not exactly one
/// well-formed request object — the daemon answers these with a
/// structured `error` line instead of dying or hanging.
pub fn decode_request(line: &str) -> Result<Request, Error> {
    let doc = json::parse(line).map_err(|e| invalid(format!("malformed request: {e}")))?;
    let request = doc.fields("request").map_err(invalid)?;
    let verb = request.str("verb").map_err(invalid)?;
    match verb {
        "job" => {
            request.exact_keys(["verb", "spec"]).map_err(invalid)?;
            let spec = decode_spec(request.get("spec").map_err(invalid)?)?;
            Ok(Request::Job(Box::new(spec)))
        }
        "metrics" | "healthz" | "shutdown" => {
            request
                .exact_keys(["verb"])
                .map_err(|_| invalid(format!("`{verb}` requests carry no other keys")))?;
            Ok(match verb {
                "metrics" => Request::Metrics,
                "healthz" => Request::Healthz,
                _ => Request::Shutdown,
            })
        }
        other => Err(invalid(format!(
            "unknown verb `{other}` (job | metrics | healthz | shutdown)"
        ))),
    }
}

// ---- response encoding --------------------------------------------------

/// The `rejected` envelope: admission control refused the job.
pub fn rejected_line(queue_depth: usize, queue_capacity: usize, message: &str) -> String {
    Json::object([(
        "rejected",
        Json::object([
            ("queue_depth", Json::from(queue_depth)),
            ("queue_capacity", Json::from(queue_capacity)),
            ("message", Json::from(message)),
        ]),
    )])
    .render_compact()
}

/// The `error` envelope for a failed request.
pub fn error_line(error: &Error) -> String {
    Json::object([(
        "error",
        Json::object([
            ("message", Json::from(error.to_string())),
            ("usage", Json::from(error.is_usage())),
        ]),
    )])
    .render_compact()
}

/// The `metrics` envelope.
pub fn metrics_line(snapshot: &MetricsSnapshot) -> String {
    Json::object([("metrics", snapshot.to_json())]).render_compact()
}

/// The `healthz` envelope.
pub fn healthz_line(health: &Health) -> String {
    Json::object([("healthz", health.to_json())]).render_compact()
}

/// The `shutdown` acknowledgement envelope.
pub fn shutdown_line() -> String {
    Json::object([("shutdown", Json::object([("draining", Json::Bool(true))]))]).render_compact()
}

// ---- response decoding --------------------------------------------------

/// Classifies and decodes one response line.
///
/// # Errors
///
/// Returns [`Error::Run`] when the line is not valid JSON or not one of
/// the protocol's response shapes — a daemon bug or a non-daemon peer.
pub fn decode_response(line: &str) -> Result<Response, Error> {
    let doc = json::parse(line).map_err(|e| Error::Run(format!("malformed response line: {e}")))?;
    let Json::Object(obj) = &doc else {
        return Err(Error::Run("response is not a JSON object".to_string()));
    };
    if obj.iter().any(|(k, _)| k == "schema") {
        return Ok(Response::Report(ReportLine {
            line: line.to_string(),
            json: doc,
        }));
    }
    let envelope = match obj.as_slice() {
        [(key, body)] => read_envelope(key, body)
            .map_err(|e| Error::Run(format!("malformed response envelope: {e}")))?,
        _ => None,
    };
    envelope.ok_or_else(|| {
        Error::Run(
            "unrecognized response envelope (expected a report or one of \
             rejected/error/metrics/healthz/shutdown)"
                .to_string(),
        )
    })
}

/// The response a single-key envelope carries; `None` for an unknown
/// key.
fn read_envelope(key: &str, body: &Json) -> Result<Option<Response>, String> {
    Ok(Some(match key {
        "rejected" => {
            let r = body.fields("rejected")?;
            Response::Rejected {
                queue_depth: r.usize("queue_depth")?,
                queue_capacity: r.usize("queue_capacity")?,
                message: r.str("message")?.to_string(),
            }
        }
        "error" => {
            let e = body.fields("error")?;
            Response::Error {
                message: e.str("message")?.to_string(),
                usage: e.bool("usage")?,
            }
        }
        "metrics" => Response::Metrics(MetricsSnapshot::from_json(body)?),
        "healthz" => Response::Healthz(Health::from_json(body)?),
        "shutdown" => Response::Shutdown,
        _ => return Ok(None),
    }))
}

// ---- report decoding ----------------------------------------------------

impl ReportLine {
    /// Decodes the compile-side report fields back into a typed
    /// [`Report`].
    ///
    /// The `fleet` section is **not** reconstructed (it stays `None`) —
    /// fleet riders are batch/CLI workloads whose consumers read the
    /// JSON tree directly via [`ReportLine::json`]. `seconds` is always
    /// `0.0`: wall-clock timings never travel over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Run`] when the document does not have the pinned
    /// report schema.
    pub fn decode(&self) -> Result<Report, Error> {
        let malformed = |e: String| Error::Run(format!("malformed report: {e}"));
        let report = self.json.fields("report").map_err(malformed)?;
        let schema = report.u64("schema").map_err(malformed)?;
        if schema != rlim_service::REPORT_SCHEMA_VERSION {
            return Err(Error::Run(format!(
                "report schema {schema} does not match this client (expected {})",
                rlim_service::REPORT_SCHEMA_VERSION
            )));
        }
        read_report(&report).map_err(malformed)
    }
}

fn read_report(r: &Fields<'_>) -> Result<Report, String> {
    let backend: BackendKind = r.name("backend")?;
    let circuit = r.object("circuit")?;
    let writes = r.object("writes")?;
    let lifetime = r.object("lifetime")?;
    let total_writes = r.u64("total_writes")?;
    Ok(Report {
        label: r.str("label")?.to_string(),
        backend: backend.name(),
        options: read_options(&r.object("policy")?, &["preset"])?,
        circuit: CircuitSummary {
            inputs: circuit.usize("inputs")?,
            outputs: circuit.usize("outputs")?,
            gates: circuit.usize("gates")?,
        },
        instructions: r.usize("instructions")?,
        rrams: r.usize("rrams")?,
        total_writes,
        writes: WriteStats {
            min: writes.u64("min")?,
            max: writes.u64("max")?,
            mean: writes.f64("mean", STATS_PRECISION)?,
            stdev: writes.f64("stdev", STATS_PRECISION)?,
            cells: writes.usize("cells")?,
            total: total_writes,
        },
        lifetime: LifetimeProjection {
            endurance: lifetime.u64("endurance")?,
            single_array_runs: lifetime.u64("single_array_runs")?,
            fleet_arrays: lifetime.usize("fleet_arrays")?,
            fleet_runs: lifetime.u64("fleet_runs")?,
        },
        program: r.optional("program", |r, key| r.str(key).map(str::to_string))?,
        fleet: None,
        cached: r.bool("cached")?,
        seconds: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_benchmarks::Benchmark;
    use rlim_plim::DispatchPolicy;
    use rlim_service::Service;

    /// A chaos job line with the given spellings of the two chaos floats.
    fn chaos_line(median: &str, sigma: &str) -> String {
        format!(
            "{{\"verb\":\"job\",\"spec\":{{\"source\":{{\"benchmark\":\"ctrl\"}},\"backend\":\"rm3\",\"options\":{{\"rewriting\":null,\"effort\":5,\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":null,\"peephole\":false,\"copy_reuse\":false,\"esat\":false,\"esat_nodes\":50000,\"esat_iters\":4}},\"fleet\":{{\"arrays\":2,\"jobs\":8,\"dispatch\":\"least-worn\",\"write_budget\":null,\"input_seed\":null,\"simd\":false,\"chaos\":{{\"fault_seed\":7,\"endurance_median\":{median},\"endurance_sigma\":{sigma},\"stuck_probability\":0.0100,\"recovery\":true,\"spares\":8,\"max_faults\":64}}}},\"program\":false,\"projection_arrays\":4}}}}"
        )
    }

    fn chaos_fleet_spec() -> JobSpec {
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_backend(BackendKind::HostedRm3)
            .with_options(CompileOptions::min_write().with_effort(2))
            .with_program_text(true)
            .with_projection_arrays(6)
            .with_fleet(
                FleetSpec::new(3)
                    .with_jobs(12)
                    .with_dispatch(DispatchPolicy::RoundRobin)
                    .with_write_budget(9000)
                    .with_input_seed(11)
                    .with_chaos(
                        ChaosSpec::new(7)
                            .with_endurance_median(512.0)
                            .with_endurance_sigma(0.375)
                            .with_stuck_probability(0.02),
                    ),
            )
    }

    #[test]
    fn spec_round_trip_is_exact() {
        for spec in [
            JobSpec::benchmark(Benchmark::Int2float),
            JobSpec::blif_path("/tmp/adder.blif").with_backend(BackendKind::Imp),
            chaos_fleet_spec(),
        ] {
            let line = encode_request(&Request::Job(Box::new(spec.clone()))).unwrap();
            let decoded = match decode_request(&line).unwrap() {
                Request::Job(decoded) => *decoded,
                other => panic!("expected a job request, got {other:?}"),
            };
            assert_eq!(decoded, spec);
            let again = encode_request(&Request::Job(Box::new(decoded))).unwrap();
            assert_eq!(again, line, "re-encoding is byte-identical");
        }
    }

    #[test]
    fn verbs_round_trip() {
        for (request, verb) in [
            (Request::Metrics, "{\"verb\":\"metrics\"}"),
            (Request::Healthz, "{\"verb\":\"healthz\"}"),
            (Request::Shutdown, "{\"verb\":\"shutdown\"}"),
        ] {
            let line = encode_request(&request).unwrap();
            assert_eq!(line, verb);
            assert_eq!(decode_request(&line).unwrap(), request);
        }
    }

    #[test]
    fn mig_specs_are_not_wire_expressible() {
        let spec = JobSpec::mig(rlim_mig::Mig::new(2));
        let err = encode_request(&Request::Job(Box::new(spec))).unwrap_err();
        assert!(err.is_usage(), "{err:?}");
    }

    #[test]
    fn malformed_requests_are_usage_errors() {
        for garbage in [
            "",
            "not json",
            "{\"verb\":\"job\"}",
            "{\"verb\":\"launch\"}",
            "{\"verb\":\"metrics\",\"spec\":{}}",
            "{\"spec\":{}}",
            "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"nonesuch\"}}}",
            "[1,2,3]",
            "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"ctrl\"},\"backend\":\"rm3\",\"options\":{\"rewriting\":null,\"effort\":5,\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":2,\"peephole\":false,\"copy_reuse\":false,\"esat\":false,\"esat_nodes\":50000,\"esat_iters\":4},\"fleet\":null,\"program\":false,\"projection_arrays\":4}}",
            "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"ctrl\"},\"backend\":\"rm3\",\"options\":{\"rewriting\":null,\"effort\":5,\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":null,\"peephole\":false,\"copy_reuse\":false,\"esat\":true,\"esat_nodes\":0,\"esat_iters\":4},\"fleet\":null,\"program\":false,\"projection_arrays\":4}}",
        ] {
            let err = decode_request(garbage).expect_err(garbage);
            assert!(err.is_usage(), "{garbage}: {err:?}");
        }
        // Chaos floats decode only from the fixed-place literal the
        // encoder writes, so equal values always share one spelling.
        let canonical = chaos_line("4096.0", "0.2500");
        let spec = match decode_request(&canonical).unwrap() {
            Request::Job(spec) => spec,
            other => panic!("expected a job request, got {other:?}"),
        };
        assert_eq!(encode_request(&Request::Job(spec)).unwrap(), canonical);
        for garbage in [
            chaos_line("4096", "0.2500"),
            chaos_line("4096.0", "0.12345"),
            chaos_line("4096.00", "0.2500"),
            chaos_line("4096.0", "0.25"),
        ] {
            let err = decode_request(&garbage).expect_err(&garbage);
            assert!(err.is_usage(), "{garbage}: {err:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_and_missing_keys() {
        let mut line = encode_request(&Request::Job(Box::new(chaos_fleet_spec()))).unwrap();
        line = line.replace("\"jobs\":12", "\"jobs\":12,\"surprise\":1");
        assert!(decode_request(&line).unwrap_err().is_usage());
        let line = encode_request(&Request::Job(Box::new(chaos_fleet_spec())))
            .unwrap()
            .replace("\"recovery\":true,", "");
        assert!(decode_request(&line).unwrap_err().is_usage());
    }

    #[test]
    fn report_lines_decode_back_to_typed_reports() {
        let spec = JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_program_text(true);
        let report = Service::new().run(&spec).unwrap();
        let line = report.to_json().render_compact();
        let response = decode_response(&line).unwrap();
        let report_line = match response {
            Response::Report(r) => r,
            other => panic!("expected a report, got {other:?}"),
        };
        assert_eq!(report_line.line, line);
        let decoded = report_line.decode().unwrap();
        // Write statistics travel at the report's rendered precision, so
        // typed equality is checked through a re-render: decoding and
        // re-encoding must reproduce the exact line.
        assert_eq!(decoded.to_json().render_compact(), line);
        assert_eq!(decoded.label, report.label);
        assert_eq!(decoded.backend, report.backend);
        assert_eq!(decoded.instructions, report.instructions);
        assert_eq!(decoded.rrams, report.rrams);
        assert_eq!(decoded.program, report.program);
        assert_eq!(decoded.lifetime, report.lifetime);
        assert!(!decoded.cached);
    }

    #[test]
    fn response_envelopes_decode() {
        match decode_response(&rejected_line(4, 4, "job queue full")).unwrap() {
            Response::Rejected {
                queue_depth,
                queue_capacity,
                message,
            } => {
                assert_eq!((queue_depth, queue_capacity), (4, 4));
                assert_eq!(message, "job queue full");
            }
            other => panic!("{other:?}"),
        }
        match decode_response(&error_line(&Error::UnknownBenchmark("x".into()))).unwrap() {
            Response::Error { message, usage } => {
                assert_eq!(message, "unknown benchmark `x`");
                assert!(usage);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            decode_response(&shutdown_line()).unwrap(),
            Response::Shutdown
        );
        assert!(decode_response("{\"weird\":1}").is_err());
        assert!(decode_response("garbage").is_err());
    }
}
