//! The `daemon` workload: an in-process `rlimd` under a closed loop of
//! `nproc` client connections on loopback. 90% of requests repeat six
//! small circuits (cache hits); 10% are distinct `with_max_writes(W)`
//! jobs over the same circuits (misses that evict from the LRU cache).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rlim_benchmarks::Benchmark;
use rlim_compiler::CompileOptions;
use rlim_daemon::{
    cache_key, decode_response, encode_request, serve, Client, DaemonConfig, DaemonHandle,
    MetricsSnapshot, Request, Response,
};
use rlim_service::{JobSpec, Service};

use crate::measure::{median, percentile, since, EndToEnd, Outcome, Quality, SETUPS};

const CIRCUITS: [Benchmark; 6] = [
    Benchmark::Cavlc,
    Benchmark::Ctrl,
    Benchmark::Dec,
    Benchmark::Int2float,
    Benchmark::Priority,
    Benchmark::Router,
];
/// One request in `MISS_EVERY` is a distinct job.
const MISS_EVERY: u32 = 10;

fn hit_spec(circuit: Benchmark) -> JobSpec {
    JobSpec::benchmark(circuit).with_options(CompileOptions::endurance_aware())
}

fn miss_spec(circuit: Benchmark, max_writes: u64) -> JobSpec {
    JobSpec::benchmark(circuit)
        .with_options(CompileOptions::endurance_aware().with_max_writes(max_writes))
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Starts a daemon with the default queue and cache, connects the
/// clients and sends every hit spec once so later repeats are hits.
fn start(clients: usize) -> (DaemonHandle, Vec<Client>) {
    let handle = serve(DaemonConfig {
        workers: workers(),
        ..DaemonConfig::default()
    })
    .expect("daemon binds a loopback port");
    let mut conns: Vec<Client> = (0..clients)
        .map(|_| Client::connect(handle.addr()).expect("client connects"))
        .collect();
    for &circuit in &CIRCUITS {
        conns[0]
            .submit(&hit_spec(circuit))
            .expect("warm-up request");
    }
    (handle, conns)
}

fn stop(handle: DaemonHandle, clients: Vec<Client>) -> MetricsSnapshot {
    drop(clients);
    handle.shutdown();
    handle.join()
}

/// One miss: its job and a digest of the reply, which is checked after
/// the loop against a local batch. Only the digest is kept so memory
/// does not grow with the reply bytes of every request.
struct Miss {
    circuit: Benchmark,
    max_writes: u64,
    reply: u64,
}

fn digest(line: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    line.hash(&mut hasher);
    hasher.finish()
}

/// One request's round trip: when it completed (seconds into the loop)
/// and how long it took.
#[derive(Clone, Copy)]
struct Sample {
    at: f32,
    ms: f32,
    miss: bool,
}

/// What one client saw.
struct ClientLog {
    samples: Vec<Sample>,
    misses: Vec<Miss>,
    bad_hits: Vec<String>,
}

fn client_loop(
    client: &mut Client,
    index: usize,
    clients: usize,
    seed: u64,
    (start_at, deadline): (Instant, Instant),
    hit_lines: &[String],
) -> ClientLog {
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // Reserved up front: untouched capacity is not resident, so the
    // process's peak RSS grows with the request count instead of
    // jumping when a vector doubles.
    const RESERVE: usize = 1 << 21;
    let mut log = ClientLog {
        samples: Vec::with_capacity(RESERVE),
        misses: Vec::with_capacity(RESERVE / 8),
        bad_hits: Vec::new(),
    };
    let mut misses = 0u64;
    while Instant::now() < deadline {
        let circuit = rng.gen_range(0..CIRCUITS.len());
        let miss = rng.gen_range(0..MISS_EVERY) == 0;
        // Distinct across clients and requests: W ≡ 3 + index (mod clients).
        let max_writes = 3 + index as u64 + clients as u64 * misses;
        let spec = if miss {
            misses += 1;
            miss_spec(CIRCUITS[circuit], max_writes)
        } else {
            hit_spec(CIRCUITS[circuit])
        };
        let line =
            encode_request(&Request::Job(Box::new(spec.clone()))).expect("benchmark specs encode");
        let start = Instant::now();
        let reply = client.request_line(&line);
        log.samples.push(Sample {
            at: since(start_at) as f32,
            ms: (since(start) * 1e3) as f32,
            miss,
        });
        let reply = reply.unwrap_or_else(|e| format!("transport error: {e}"));
        if miss {
            log.misses.push(Miss {
                circuit: CIRCUITS[circuit],
                max_writes,
                reply: digest(&reply),
            });
        } else if reply != hit_lines[circuit] {
            log.bad_hits.push(format!(
                "{}: {}",
                CIRCUITS[circuit].name(),
                truncate(&reply)
            ));
        }
    }
    log
}

fn truncate(line: &str) -> String {
    line.chars().take(160).collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let clients = workers();
    // SETUPS set-ups; each earlier daemon is stopped untimed.
    let mut spent = Vec::new();
    let mut current: Option<(DaemonHandle, Vec<Client>)> = None;
    for _ in 0..SETUPS {
        if let Some((h, c)) = current.take() {
            stop(h, c);
        }
        let t = Instant::now();
        current = Some(start(clients));
        spent.push(since(t));
    }
    let setup_s = median(&spent);
    let (handle, mut conns) = current.expect("at least one set-up ran");

    let hit_specs: Vec<JobSpec> = CIRCUITS.iter().map(|&c| hit_spec(c)).collect();
    let local = Service::new()
        .run_batch(&hit_specs)
        .expect("local compile of the hit circuits");
    let mut quality = Quality::default();
    for r in &local {
        quality.add(r.instructions, &r.writes);
    }
    let hit_lines: Vec<String> = local
        .iter()
        .map(|r| {
            r.to_json()
                .render_compact()
                .replace("\"cached\":false", "\"cached\":true")
        })
        .collect();

    let before = handle.metrics();
    let barrier = Barrier::new(clients);
    let start_at = Instant::now();
    let deadline = start_at + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (barrier, hit_lines) = (&barrier, &hit_lines);
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(client, i, clients, seed, (start_at, deadline), hit_lines)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let elapsed = since(start_at);
    let after = handle.metrics();

    let mut outcome = Outcome::default();
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    outcome.attempted += samples.iter().filter(|s| !s.miss).count() as u64;
    for log in &logs {
        outcome.failed += log.bad_hits.len() as u64;
        for bad in log.bad_hits.iter().take(5) {
            outcome
                .errors
                .push(format!("hit reply differs from local report: {bad}"));
        }
    }
    let misses: Vec<&Miss> = logs.iter().flat_map(|l| &l.misses).collect();
    // Each miss reply must equal a local run_batch report byte for byte
    // (compared by digest); checked in chunks so the reference programs
    // do not pile up.
    let local = Service::new();
    for chunk in misses.chunks(256) {
        let specs: Vec<JobSpec> = chunk
            .iter()
            .map(|m| miss_spec(m.circuit, m.max_writes))
            .collect();
        match local.run_batch(&specs) {
            Ok(reports) => {
                for (report, miss) in reports.iter().zip(chunk) {
                    let ok = digest(&report.to_json().render_compact()) == miss.reply;
                    outcome.check(ok, || {
                        format!(
                            "{} with max_writes {}: daemon reply differs from local report",
                            miss.circuit.name(),
                            miss.max_writes
                        )
                    });
                }
            }
            Err(e) => {
                outcome.attempted += chunk.len() as u64;
                outcome.failed += chunk.len() as u64;
                outcome
                    .errors
                    .push(format!("local reference batch failed: {e}"));
            }
        }
    }

    let windows = Windows::of(&samples, seconds);
    outcome.note("req_per_s", windows.rate, "req/s");
    outcome.note("req_p50_ms", windows.p50_ms, "ms");
    outcome.note("req_p99_ms", windows.p99_ms, "ms");
    outcome.note(
        "req_per_s_whole_run",
        samples.len() as f64 / elapsed,
        "req/s",
    );
    outcome.note("windows", windows.count as f64, "count");
    outcome.note("misses", misses.len() as f64, "count");

    if trace {
        let ms = |miss: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.miss == miss)
                .map(|s| f64::from(s.ms))
                .collect()
        };
        outcome.layer("daemon.hit_p50_ms", median(&ms(false)));
        outcome.layer("daemon.miss_p50_ms", median(&ms(true)));
        let lookups =
            (after.cache.hits - before.cache.hits) + (after.cache.misses - before.cache.misses);
        // Base: cache lookups during the measured loop.
        outcome.layer(
            "daemon.cache.hit_ratio",
            (after.cache.hits - before.cache.hits) as f64 / lookups.max(1) as f64,
        );
        outcome.layer(
            "daemon.cache.evictions",
            (after.cache.evictions - before.cache.evictions) as f64,
        );
        outcome.layer(
            "daemon.jobs_rejected",
            (after.jobs_rejected - before.jobs_rejected) as f64,
        );
        outcome.layer(
            "daemon.jobs_failed",
            (after.jobs_failed - before.jobs_failed) as f64,
        );
        wire_layers(&hit_specs, &hit_lines, &mut outcome);
    } else {
        outcome.end_to_end(EndToEnd {
            setup_s,
            throughput: windows.rate,
            p50_ms: windows.p50_ms,
            p99_ms: windows.p99_ms,
            samples: samples.len(),
            quality,
        });
    }
    let last = stop(handle, conns);
    if last.jobs_failed + last.jobs_rejected > 0 {
        outcome.check(false, || {
            format!(
                "daemon reported {} failed and {} rejected jobs",
                last.jobs_failed, last.jobs_rejected
            )
        });
    }
    outcome
}

/// Request rate and latency percentiles of each whole one-second window
/// of the loop, reported as medians over the windows. A short stall of
/// the shared host then moves one window instead of the whole run;
/// every window holds thousands of requests, so well over ten lie
/// beyond its p99.
struct Windows {
    count: usize,
    rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Windows {
    fn of(samples: &[Sample], seconds: f64) -> Windows {
        let count = (seconds.floor() as usize).max(1);
        let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); count];
        for s in samples {
            if let Some(w) = by_window.get_mut(s.at as usize) {
                w.push(f64::from(s.ms));
            }
        }
        let per = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
            median(&by_window.iter().map(|w| f(w)).collect::<Vec<_>>())
        };
        Windows {
            count,
            rate: per(&|w| w.len() as f64),
            p50_ms: per(&|w| percentile(w, 50.0)),
            p99_ms: per(&|w| percentile(w, 99.0)),
        }
    }
}

/// Median microseconds per call over five rounds of `calls` calls.
fn micros(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        per_call.push(since(start) * 1e6 / calls as f64);
    }
    median(&per_call)
}

/// The client-side wire codec and the cache key, timed directly on
/// the hit specs and the daemon's hit replies.
fn wire_layers(specs: &[JobSpec], lines: &[String], outcome: &mut Outcome) {
    const CALLS: usize = 3000;
    let requests: Vec<Request> = specs
        .iter()
        .map(|s| Request::Job(Box::new(s.clone())))
        .collect();
    let encode = micros(CALLS, |i| {
        std::hint::black_box(encode_request(&requests[i % requests.len()]).expect("encodes"));
    });
    let decode = micros(CALLS, |i| {
        let Ok(Response::Report(line)) = decode_response(&lines[i % lines.len()]) else {
            panic!("hit reply decodes as a report");
        };
        std::hint::black_box(line.decode().expect("report decodes"));
    });
    let fingerprints: Vec<u128> = CIRCUITS.iter().map(|c| c.build().fingerprint()).collect();
    let key = micros(CALLS, |i| {
        let k = i % specs.len();
        std::hint::black_box(cache_key(fingerprints[k], &specs[k]));
    });
    outcome.layer("daemon.wire.encode_us", encode);
    outcome.layer("daemon.wire.decode_us", decode);
    outcome.layer("daemon.cache_key_us", key);
}
