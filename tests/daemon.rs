//! Black-box protocol suite for `rlimd`, the compile-job daemon.
//!
//! Every test here talks to a real daemon over a real TCP socket — the
//! same path `rlim report --remote` takes — and checks the contract
//! from the outside:
//!
//! * concurrent clients receive responses byte-identical to a direct
//!   [`Service::run_batch`];
//! * a repeated spec is served from the compile cache with identical
//!   bytes (modulo the `cached` flag) and a frozen miss counter;
//! * a full queue answers structured rejections while in-flight jobs
//!   run to completion;
//! * `shutdown` drains in-flight work, then the socket refuses
//!   connections;
//! * random `JobSpec`s round-trip exactly through the wire encoding,
//!   and garbage lines get structured errors without killing workers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rlim::benchmarks::Benchmark;
use rlim::compiler::{Allocation, CompileOptions, Selection};
use rlim::daemon::{
    cache_key, decode_request, decode_response, encode_request, serve, Client, DaemonConfig,
    Request, Response,
};
use rlim::mig::rewrite::Algorithm;
use rlim::service::{ChaosSpec, FleetSpec, Source};
use rlim::{BackendKind, JobSpec, Service};

fn daemon(workers: usize, queue_depth: usize) -> rlim::daemon::DaemonHandle {
    serve(DaemonConfig {
        workers,
        queue_depth,
        ..Default::default()
    })
    .expect("daemon binds an ephemeral port")
}

/// Polls the daemon's metrics until `ready` holds (the black-box way to
/// wait for workers to pick up or queue jobs).
fn wait_for(
    addr: std::net::SocketAddr,
    what: &str,
    ready: impl Fn(&rlim::daemon::MetricsSnapshot) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut client = Client::connect(addr).unwrap();
    loop {
        let snapshot = client.metrics().unwrap();
        if ready(&snapshot) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A job slow enough (seconds of fleet simulation) to keep a worker
/// busy while other connections race against it.
fn slow_spec() -> JobSpec {
    JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::naive())
        .with_fleet(FleetSpec::new(1).with_jobs(64_000))
}

fn submit_on_thread(
    addr: std::net::SocketAddr,
    spec: JobSpec,
) -> std::thread::JoinHandle<Response> {
    std::thread::spawn(move || {
        Client::connect(addr)
            .unwrap()
            .submit(&spec)
            .expect("submission completes")
    })
}

// ---- (a) concurrency: daemon == direct service, byte for byte ----------

/// Eight concurrent clients with eight distinct specs receive exactly
/// the bytes a direct batch run would serialize — the daemon's worker
/// pool, queue and cache are invisible to correctness.
#[test]
fn concurrent_clients_match_run_batch_byte_identical() {
    let specs = vec![
        JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Int2float).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Dec)
            .with_options(CompileOptions::naive())
            .with_program_text(true),
        JobSpec::benchmark(Benchmark::Router).with_options(CompileOptions::naive()),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::endurance_aware().with_effort(1)),
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_backend(BackendKind::Imp),
        JobSpec::benchmark(Benchmark::Int2float)
            .with_options(CompileOptions::min_write().with_effort(1)),
        JobSpec::benchmark(Benchmark::Dec)
            .with_options(CompileOptions::naive())
            .with_projection_arrays(2),
    ];
    let direct: Vec<String> = Service::new()
        .with_threads(1)
        .run_batch(&specs)
        .unwrap()
        .iter()
        .map(|r| r.to_json().render_compact())
        .collect();

    let handle = daemon(4, 16);
    let addr = handle.addr();
    let threads: Vec<_> = specs
        .iter()
        .map(|spec| submit_on_thread(addr, spec.clone()))
        .collect();
    let remote: Vec<String> = threads
        .into_iter()
        .map(|t| match t.join().unwrap() {
            Response::Report(line) => line.line,
            other => panic!("expected a report, got {other:?}"),
        })
        .collect();

    assert_eq!(remote, direct);
    handle.shutdown();
    let last = handle.join();
    assert_eq!(last.jobs_served, 8);
    assert_eq!(last.jobs_failed, 0);
}

// ---- (b) the compile cache --------------------------------------------

/// A repeated spec flips `cached` to `true` with otherwise identical
/// report bytes, and the miss counter stays frozen — the second answer
/// never recompiled.
#[test]
fn repeat_jobs_hit_the_cache_with_identical_bytes() {
    let handle = daemon(2, 8);
    let addr = handle.addr();
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());

    let mut client = Client::connect(addr).unwrap();
    let first = match client.submit(&spec).unwrap() {
        Response::Report(line) => line.line,
        other => panic!("{other:?}"),
    };
    assert!(first.contains("\"cached\":false"), "{first}");
    let after_miss = client.metrics().unwrap();
    assert_eq!((after_miss.cache.misses, after_miss.cache.hits), (1, 0));

    let second = match client.submit(&spec).unwrap() {
        Response::Report(line) => line.line,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        second,
        first.replace("\"cached\":false", "\"cached\":true"),
        "a hit must be byte-identical modulo the cached flag"
    );
    let after_hit = client.metrics().unwrap();
    assert_eq!(
        (after_hit.cache.misses, after_hit.cache.hits),
        (1, 1),
        "the miss counter must freeze on repeats"
    );

    // Backend-class sharing: hosted-rm3 executes the same compiled
    // program, so it hits rm3's entry — with its own backend label.
    let hosted = match client
        .submit(&spec.clone().with_backend(BackendKind::HostedRm3))
        .unwrap()
    {
        Response::Report(line) => line.line,
        other => panic!("{other:?}"),
    };
    assert!(hosted.contains("\"cached\":true"), "{hosted}");
    assert!(hosted.contains("\"backend\":\"hosted-rm3\""), "{hosted}");
    assert_eq!(client.metrics().unwrap().cache.misses, 1);

    handle.shutdown();
    handle.join();
}

/// Correctness regression: the cache key includes the chaos rider. Two
/// specs differing only in `--fault-seed` must miss each other's
/// entries — a fault-injected fleet is never served a different seed's
/// report.
#[test]
fn fault_seeds_never_share_cache_entries() {
    let handle = daemon(2, 8);
    let addr = handle.addr();
    let chaos_spec = |seed: u64| {
        JobSpec::benchmark(Benchmark::Ctrl)
            .with_options(CompileOptions::naive())
            .with_fleet(
                FleetSpec::new(2)
                    .with_jobs(8)
                    .with_chaos(ChaosSpec::new(seed)),
            )
    };

    let mut client = Client::connect(addr).unwrap();
    for seed in [1, 2] {
        match client.submit(&chaos_spec(seed)).unwrap() {
            Response::Report(line) => {
                assert!(line.line.contains("\"cached\":false"), "{}", line.line);
                assert!(
                    line.line.contains(&format!("\"seed\":{seed}")),
                    "{}",
                    line.line
                );
            }
            other => panic!("{other:?}"),
        }
    }
    let stats = client.metrics().unwrap().cache;
    assert_eq!((stats.misses, stats.hits), (2, 0), "seeds must not collide");

    // The same seed does hit its own entry.
    match client.submit(&chaos_spec(1)).unwrap() {
        Response::Report(line) => assert!(line.line.contains("\"cached\":true")),
        other => panic!("{other:?}"),
    }
    let stats = client.metrics().unwrap().cache;
    assert_eq!((stats.misses, stats.hits), (2, 1));

    // A fault-free fleet never matches a chaos entry either.
    let fault_free = JobSpec::benchmark(Benchmark::Ctrl)
        .with_options(CompileOptions::naive())
        .with_fleet(FleetSpec::new(2).with_jobs(8));
    match client.submit(&fault_free).unwrap() {
        Response::Report(line) => assert!(line.line.contains("\"cached\":false")),
        other => panic!("{other:?}"),
    }

    handle.shutdown();
    handle.join();
}

// ---- (c) admission control ---------------------------------------------

/// With one worker and a depth-1 queue, a third job is refused with a
/// structured `rejected` response while both in-flight jobs complete
/// normally.
#[test]
fn full_queue_rejects_without_disturbing_in_flight_jobs() {
    let handle = daemon(1, 1);
    let addr = handle.addr();

    let running = submit_on_thread(addr, slow_spec());
    wait_for(addr, "the worker to go busy", |m| m.workers_busy == 1);

    let queued_spec =
        JobSpec::benchmark(Benchmark::Int2float).with_options(CompileOptions::naive());
    let queued = submit_on_thread(addr, queued_spec.clone());
    wait_for(addr, "the queue to fill", |m| m.queue_depth == 1);

    // The queue is full: an immediate structured rejection.
    let overflow = JobSpec::benchmark(Benchmark::Dec).with_options(CompileOptions::naive());
    match Client::connect(addr).unwrap().submit(&overflow).unwrap() {
        Response::Rejected {
            queue_depth,
            queue_capacity,
            message,
        } => {
            assert_eq!((queue_depth, queue_capacity), (1, 1));
            assert_eq!(message, "job queue full");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // Neither in-flight job noticed: both complete with real reports,
    // byte-identical to direct runs.
    let slow_direct = Service::new()
        .with_threads(1)
        .run(&slow_spec())
        .unwrap()
        .to_json()
        .render_compact();
    let queued_direct = Service::new()
        .with_threads(1)
        .run(&queued_spec)
        .unwrap()
        .to_json()
        .render_compact();
    match running.join().unwrap() {
        Response::Report(line) => assert_eq!(line.line, slow_direct),
        other => panic!("{other:?}"),
    }
    match queued.join().unwrap() {
        Response::Report(line) => assert_eq!(line.line, queued_direct),
        other => panic!("{other:?}"),
    }

    handle.shutdown();
    let last = handle.join();
    assert_eq!(last.jobs_rejected, 1);
    assert_eq!(last.jobs_served, 2);
    assert_eq!(last.jobs_failed, 0);
}

// ---- (d) graceful shutdown ---------------------------------------------

/// `shutdown` acknowledges, lets the in-flight job finish and deliver
/// its report, then the socket refuses new connections.
#[test]
fn shutdown_drains_in_flight_work_then_refuses_connections() {
    let handle = daemon(1, 4);
    let addr = handle.addr();

    let running = submit_on_thread(addr, slow_spec());
    wait_for(addr, "the worker to go busy", |m| m.workers_busy == 1);

    let mut control = Client::connect(addr).unwrap();
    control.shutdown().expect("shutdown acknowledged");
    // Once draining, health reports the daemon is no longer accepting
    // and fresh jobs on a live connection are refused.
    let health = control.healthz().unwrap();
    assert!(!health.accepting);
    match control
        .submit(&JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive()))
        .unwrap()
    {
        Response::Rejected { message, .. } => assert_eq!(message, "daemon is draining"),
        other => panic!("expected a drain rejection, got {other:?}"),
    }

    // The in-flight job still completes and delivers its bytes.
    match running.join().unwrap() {
        Response::Report(line) => {
            assert!(line.line.contains("\"fleet\":{"), "{}", line.line);
        }
        other => panic!("{other:?}"),
    }

    let last = handle.join();
    assert_eq!(last.jobs_served, 1);
    // The listener is gone: connections are refused.
    assert!(
        Client::connect(addr).is_err(),
        "socket must refuse connections after shutdown"
    );
}

// ---- wire round-trip and framing fuzz ----------------------------------

/// Every one of the ten option fields, drawn independently (including
/// technique triples no preset names, and `level-aware` rewriting).
fn options_strategy() -> impl Strategy<Value = CompileOptions> {
    (
        prop_oneof![
            Just(None),
            Just(Some(Algorithm::PlimCompiler)),
            Just(Some(Algorithm::EnduranceAware)),
            Just(Some(Algorithm::LevelAware)),
        ],
        0usize..10,
        prop_oneof![
            Just(Selection::Topological),
            Just(Selection::AreaAware),
            Just(Selection::EnduranceAware),
        ],
        prop_oneof![Just(Allocation::Lifo), Just(Allocation::MinWrite)],
        (any::<bool>(), 3u64..200).prop_map(|(some, w)| some.then_some(w)),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (1u32..100_000, 1u32..9),
    )
        .prop_map(
            |(
                rewriting,
                effort,
                selection,
                allocation,
                max_writes,
                (peephole, copy_reuse, esat),
                (esat_nodes, esat_iters),
            )| CompileOptions {
                rewriting,
                effort,
                selection,
                allocation,
                max_writes,
                peephole,
                copy_reuse,
                esat,
                esat_nodes,
                esat_iters,
            },
        )
}

fn chaos_strategy() -> impl Strategy<Value = ChaosSpec> {
    (
        any::<u64>(),
        0usize..3,
        0usize..3,
        0usize..3,
        any::<bool>(),
        0usize..16,
        1u64..100,
    )
        .prop_map(|(seed, m, s, p, recovery, spares, max_faults)| {
            // Grid floats chosen to be exact at the wire's precisions
            // (median: 1 decimal, sigma/stuck: 4 decimals).
            let medians = [512.0, 4096.0, 100.5];
            let sigmas = [0.25, 0.1234, 0.5];
            let stucks = [0.01, 0.0005, 0.375];
            ChaosSpec::new(seed)
                .with_endurance_median(medians[m])
                .with_endurance_sigma(sigmas[s])
                .with_stuck_probability(stucks[p])
                .with_recovery(recovery)
                .with_spares(spares)
                .with_max_faults(max_faults)
        })
}

fn fleet_strategy() -> impl Strategy<Value = FleetSpec> {
    (
        1usize..6,
        1usize..40,
        any::<bool>(),
        (any::<bool>(), 1u64..100_000),
        (any::<bool>(), any::<u64>()),
        any::<bool>(),
        (0u8..4, chaos_strategy()).prop_map(|(n, c)| (n > 0).then_some(c)),
    )
        .prop_map(
            |(arrays, jobs, round_robin, (some_b, budget), (some_s, seed), simd, chaos)| {
                let mut fleet = FleetSpec::new(arrays).with_jobs(jobs).with_simd(simd);
                if round_robin {
                    fleet = fleet.with_dispatch(rlim::plim::DispatchPolicy::RoundRobin);
                }
                if some_b {
                    fleet = fleet.with_write_budget(budget);
                }
                if some_s {
                    fleet = fleet.with_input_seed(seed);
                }
                if let Some(chaos) = chaos {
                    fleet = fleet.with_chaos(chaos);
                }
                fleet
            },
        )
}

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        0usize..18,
        any::<bool>(),
        prop_oneof![
            Just(BackendKind::Rm3),
            Just(BackendKind::HostedRm3),
            Just(BackendKind::WideRm3),
            Just(BackendKind::Imp),
        ],
        options_strategy(),
        (0u8..4, fleet_strategy()).prop_map(|(n, f)| (n > 0).then_some(f)),
        any::<bool>(),
        1usize..9,
    )
        .prop_map(|(bench, blif, backend, options, fleet, program, arrays)| {
            let benchmark = Benchmark::all()[bench];
            let mut spec = if blif {
                JobSpec::blif_path(format!("/tmp/{}.blif", benchmark.name()))
            } else {
                JobSpec::benchmark(benchmark)
            };
            spec = spec
                .with_backend(backend)
                .with_options(options)
                .with_program_text(program)
                .with_projection_arrays(arrays);
            if let Some(fleet) = fleet {
                spec = spec.with_fleet(fleet);
            }
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: `JobSpec → wire line → JobSpec → wire line` is exact —
    /// the wire encoding loses nothing, including fleet/chaos riders
    /// (the proptest mirror of the argv ↔ spec round-trip).
    #[test]
    fn wire_spec_roundtrip_is_exact(spec in spec_strategy()) {
        let line = encode_request(&Request::Job(Box::new(spec.clone())))
            .expect("benchmark/blif specs are wire-expressible");
        let decoded = match decode_request(&line).expect("own encoding decodes") {
            Request::Job(inner) => *inner,
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(&decoded, &spec);
        let again = encode_request(&Request::Job(Box::new(decoded))).unwrap();
        prop_assert_eq!(line, again);
    }
}

// ---- cache-key identity -------------------------------------------------

/// The spec's parts as plain values, so a test can swap one leaf.
struct Parts {
    source: Source,
    backend: BackendKind,
    options: CompileOptions,
    fleet: Option<FleetSpec>,
    program: bool,
    arrays: usize,
}

impl Parts {
    fn of(spec: &JobSpec) -> Parts {
        Parts {
            source: spec.source().clone(),
            backend: spec.backend(),
            options: *spec.options(),
            fleet: spec.fleet().copied(),
            program: spec.includes_program(),
            arrays: spec.projection_arrays(),
        }
    }

    fn build(self) -> JobSpec {
        let spec = match self.source {
            Source::Benchmark(b) => JobSpec::benchmark(b),
            Source::BlifPath(p) => JobSpec::blif_path(p),
            Source::Mig(m) => JobSpec::shared_mig(m),
        }
        .with_backend(self.backend)
        .with_options(self.options)
        .with_program_text(self.program)
        .with_projection_arrays(self.arrays);
        match self.fleet {
            Some(fleet) => spec.with_fleet(fleet),
            None => spec,
        }
    }
}

/// Leaves [`splice`] can swap: source, backend, program, projection,
/// the ten options, the fleet, its six scalars, its chaos rider and the
/// rider's seven fields.
const LEAVES: usize = 29;

/// `a` with leaf `leaf` taken from `donor`. Fleet and chaos fields are
/// swapped only when both specs carry that rider.
fn splice(a: &JobSpec, donor: &JobSpec, leaf: usize) -> JobSpec {
    let mut p = Parts::of(a);
    let d = Parts::of(donor);
    let (o, od) = (&mut p.options, d.options);
    match leaf {
        0 => p.source = d.source,
        1 => p.backend = d.backend,
        2 => p.program = d.program,
        3 => p.arrays = d.arrays,
        4 => o.rewriting = od.rewriting,
        5 => o.effort = od.effort,
        6 => o.selection = od.selection,
        7 => o.allocation = od.allocation,
        8 => o.max_writes = od.max_writes,
        9 => o.peephole = od.peephole,
        10 => o.copy_reuse = od.copy_reuse,
        11 => o.esat = od.esat,
        12 => o.esat_nodes = od.esat_nodes,
        13 => o.esat_iters = od.esat_iters,
        14 => p.fleet = d.fleet,
        _ => {
            if let (Some(f), Some(fd)) = (p.fleet.as_mut(), d.fleet) {
                match leaf {
                    15 => f.arrays = fd.arrays,
                    16 => f.jobs = fd.jobs,
                    17 => f.dispatch = fd.dispatch,
                    18 => f.write_budget = fd.write_budget,
                    19 => f.input_seed = fd.input_seed,
                    20 => f.simd = fd.simd,
                    21 => f.chaos = fd.chaos,
                    _ => {
                        if let (Some(c), Some(cd)) = (f.chaos.as_mut(), fd.chaos) {
                            match leaf {
                                22 => c.fault_seed = cd.fault_seed,
                                23 => c.endurance_median = cd.endurance_median,
                                24 => c.endurance_sigma = cd.endurance_sigma,
                                25 => c.stuck_probability = cd.stuck_probability,
                                26 => c.recovery = cd.recovery,
                                27 => c.spares = cd.spares,
                                28 => c.max_faults = cd.max_faults,
                                _ => unreachable!("leaf {leaf} out of range"),
                            }
                        }
                    }
                }
            }
        }
    }
    p.build()
}

/// What the cache may share on: the source is replaced by the
/// fingerprint, and the backend collapses to its compile class
/// (`rm3`, `hosted-rm3` and `rm3-wide` run one program; `imp` its own).
fn normalise(spec: &JobSpec) -> JobSpec {
    let mut p = Parts::of(spec);
    p.source = Source::Benchmark(Benchmark::Ctrl);
    p.backend = match p.backend {
        BackendKind::Rm3 | BackendKind::HostedRm3 | BackendKind::WideRm3 => BackendKind::Rm3,
        BackendKind::Imp => BackendKind::Imp,
    };
    p.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite: for one source fingerprint, two wire specs share a
    /// cache key exactly when they agree on everything but source
    /// spelling and backend-within-class. Every leaf of `a` is swapped
    /// in turn for `donor`'s, so each field is checked both when it
    /// differs (keys must differ) and when it happens to match.
    #[test]
    fn cache_keys_match_exactly_when_normalised_specs_do(
        a in spec_strategy(),
        donor in spec_strategy(),
    ) {
        let fp = 0x5eed_u128;
        let same = |x: &JobSpec, y: &JobSpec| {
            (cache_key(fp, x) == cache_key(fp, y), normalise(x) == normalise(y))
        };
        let (keys, specs) = same(&a, &donor);
        prop_assert_eq!(keys, specs, "{:?} vs {:?}", a, donor);
        for leaf in 0..LEAVES {
            let b = splice(&a, &donor, leaf);
            let (keys, specs) = same(&a, &b);
            prop_assert_eq!(keys, specs, "leaf {}: {:?} vs {:?}", leaf, a, b);
        }
    }
}

/// One long-lived daemon shared by the framing fuzz (ephemeral port,
/// lives for the test process).
fn fuzz_daemon_addr() -> std::net::SocketAddr {
    static ADDR: OnceLock<std::net::SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = serve(DaemonConfig {
            workers: 1,
            ..Default::default()
        })
        .expect("fuzz daemon starts");
        let addr = handle.addr();
        std::mem::forget(handle);
        addr
    })
}

fn garbage_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("{".to_string()),
        Just("[1,2".to_string()),
        Just("nullish".to_string()),
        Just("1e9".to_string()),
        Just("\"half".to_string()),
        Just("{\"verb\":\"warp\"}".to_string()),
        Just("{\"verb\":\"job\"}".to_string()),
        Just("{\"verb\":\"job\",\"spec\":{}}".to_string()),
        Just("{\"verb\":\"metrics\",\"extra\":1}".to_string()),
        Just("{\"verb\":\"job\",\"spec\":null,\"spec\":null}".to_string()),
        // Random printable-ASCII noise.  The leading `\x7f` keeps the line
        // non-blank (blank lines are protocol no-ops) and guarantees the
        // line is not accidentally valid JSON, without needing a filter.
        proptest::collection::vec(32u8..127u8, 0usize..40).prop_map(|bytes| {
            let mut s = String::from("\u{7f}");
            s.extend(bytes.into_iter().map(char::from));
            s
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: garbage lines never hang a connection or kill a
    /// worker — each gets a structured one-line error, and the daemon
    /// still serves real work on the same socket afterwards.
    #[test]
    fn garbage_lines_get_structured_errors_and_workers_survive(garbage in garbage_strategy()) {
        let addr = fuzz_daemon_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(garbage.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        prop_assert!(
            reply.starts_with("{\"error\":"),
            "garbage must get a structured error, got {reply:?}"
        );
        match decode_response(reply.trim_end()).unwrap() {
            Response::Error { usage, .. } => prop_assert!(usage),
            other => panic!("{other:?}"),
        }
        // The same connection still speaks the protocol…
        stream.write_all(b"{\"verb\":\"healthz\"}\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        prop_assert!(reply.starts_with("{\"healthz\":"), "{reply}");
    }
}

/// After the fuzz barrage, the worker pool still compiles — no thread
/// died swallowing garbage.
#[test]
fn workers_survive_malformed_specs_that_pass_framing() {
    let addr = fuzz_daemon_addr();
    let mut client = Client::connect(addr).unwrap();
    // A well-framed job whose spec fails validation…
    let line = "{\"verb\":\"job\",\"spec\":{\"source\":{\"benchmark\":\"nonesuch\"},\
\"backend\":\"rm3\",\"options\":{\"rewriting\":null,\"effort\":0,\
\"selection\":\"topological\",\"allocation\":\"lifo\",\"max_writes\":null,\
\"peephole\":false},\"fleet\":null,\"program\":false,\"projection_arrays\":4}}";
    let reply = client.request_line(line).unwrap();
    assert!(reply.starts_with("{\"error\":"), "{reply}");
    // …and a real job right after, on the same daemon, still compiles.
    let spec = JobSpec::benchmark(Benchmark::Ctrl).with_options(CompileOptions::naive());
    match client.submit(&spec).unwrap() {
        Response::Report(line) => assert!(line.line.contains("\"label\":\"ctrl\"")),
        other => panic!("{other:?}"),
    }
}
