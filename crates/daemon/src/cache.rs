//! The daemon's compile cache: finished [`Report`]s keyed by the full
//! semantic identity of a job.
//!
//! The key is derived, not hand-written: the Strash source fingerprint
//! and the backend's compile class, followed by the compact canonical
//! wire line of every other spec field — options, fleet/chaos rider,
//! program and projection riders (see [`cache_key`]). The consequences:
//!
//! * **No field can be left out.** The wire encoding is the one place
//!   a spec field is spelled, so a field the wire carries is part of
//!   the key by construction; there is no per-field list here to keep
//!   in step with [`rlim_compiler::CompileOptions`] or the riders.
//! * **Backend-class sharing.** `rm3`, `hosted-rm3` and `rm3-wide`
//!   execute the same compiled program, so they share one entry, exactly
//!   as [`rlim_service::Service::run_batch`]'s in-batch dedup shares one
//!   compile. The report's `label` and `backend` fields are overridden
//!   per request on a hit.
//! * **Source-identity, not source-spelling.** The fingerprint hashes
//!   the graph structure ([`rlim_mig::Mig::fingerprint`]), so a BLIF
//!   file that parses to the same graph as a named benchmark hits the
//!   benchmark's entry — and an in-memory graph, which has no wire
//!   form, still gets a key.
//! * **Riders are identity, floats exactly.** A chaos run is never
//!   served a fault-free cached fleet section, and two runs differing
//!   only in `--fault-seed` miss each other's entries. The chaos floats
//!   enter the key as the fixed-place decimals the wire writes; the
//!   wire decoder accepts no other spelling, so two distinct values
//!   that can arrive over the wire never share a key.
//!
//! Eviction is least-recently-used over a bounded entry count, with
//! hit/miss/eviction counters surfaced through the `metrics` verb.

use std::collections::HashMap;

use rlim_service::{JobSpec, Report};

use crate::wire;

/// Cache observability counters, serialized inside the `metrics` verb's
/// payload (deliberately *not* inside reports, so a cache hit stays
/// byte-identical to its original miss modulo `cached`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Maximum entries before LRU eviction.
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a compile.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// The derived cache key for a job: `fingerprint` is the source graph's
/// structural hash, and the rest is the compile class followed by the
/// compact canonical wire encoding of every spec field except `source`
/// and `backend` (`options`, `fleet`, `program`, `projection_arrays`).
///
/// Because the key *is* the wire encoding, a field the wire carries
/// cannot be missing from it, and the key separates exactly the specs
/// the wire separates. The wire decoder accepts each chaos float only
/// as the fixed-place decimal the encoder writes, so for every spec
/// that can arrive over the wire distinct values render distinctly.
pub fn cache_key(fingerprint: u128, spec: &JobSpec) -> String {
    format!(
        "src={fingerprint:032x};class={};{}",
        spec.backend().class().name(),
        wire::job_identity(spec)
    )
}

/// The bounded LRU report cache. Not internally synchronized — the
/// daemon wraps it in a `Mutex` and keeps compiles outside the lock.
#[derive(Debug)]
pub struct ReportCache {
    entries: HashMap<String, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry {
    report: Report,
    last_used: u64,
}

impl ReportCache {
    /// A cache holding at most `capacity` reports.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        ReportCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up, counting a hit (and refreshing recency) or a
    /// miss. The returned report is the entry as inserted — the caller
    /// overrides `label`/`backend`/`cached` for the requesting spec.
    pub fn lookup(&mut self, key: &str) -> Option<Report> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.report.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one when at capacity.
    pub fn insert(&mut self, key: String, report: Report) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("a full cache has a least-recently-used entry");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(
            key,
            Entry {
                report,
                last_used: self.tick,
            },
        );
    }

    /// The current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlim_benchmarks::Benchmark;
    use rlim_service::{BackendKind, ChaosSpec, FleetSpec, Service};

    fn report() -> Report {
        Service::new()
            .run(&JobSpec::benchmark(Benchmark::Ctrl))
            .unwrap()
    }

    #[test]
    fn backend_classes_share_keys_but_imp_does_not() {
        let fp = 7u128;
        let rm3 = cache_key(fp, &JobSpec::benchmark(Benchmark::Ctrl));
        let hosted = cache_key(
            fp,
            &JobSpec::benchmark(Benchmark::Ctrl).with_backend(BackendKind::HostedRm3),
        );
        let wide = cache_key(
            fp,
            &JobSpec::benchmark(Benchmark::Ctrl).with_backend(BackendKind::WideRm3),
        );
        let imp = cache_key(
            fp,
            &JobSpec::benchmark(Benchmark::Ctrl).with_backend(BackendKind::Imp),
        );
        assert_eq!(rm3, hosted);
        assert_eq!(rm3, wide);
        assert_ne!(rm3, imp);
        // The source label is *not* part of the key — identity comes
        // from the fingerprint alone.
        assert_eq!(rm3, cache_key(fp, &JobSpec::blif_path("/some/file.blif")));
        // An in-memory graph has no wire form but still gets a key.
        assert_eq!(rm3, cache_key(fp, &JobSpec::mig(rlim_mig::Mig::new(2))));
        assert_ne!(rm3, cache_key(8, &JobSpec::benchmark(Benchmark::Ctrl)));
    }

    #[test]
    fn riders_are_part_of_the_key() {
        let fp = 7u128;
        let base = JobSpec::benchmark(Benchmark::Ctrl);
        let fleet = base.clone().with_fleet(FleetSpec::new(2));
        let chaos_a = base
            .clone()
            .with_fleet(FleetSpec::new(2).with_chaos(ChaosSpec::new(1)));
        let chaos_b = base
            .clone()
            .with_fleet(FleetSpec::new(2).with_chaos(ChaosSpec::new(2)));
        assert_ne!(cache_key(fp, &base), cache_key(fp, &fleet));
        // A chaos run never matches a fault-free fleet entry…
        assert_ne!(cache_key(fp, &fleet), cache_key(fp, &chaos_a));
        // …and the fault seed alone separates chaos entries.
        assert_ne!(cache_key(fp, &chaos_a), cache_key(fp, &chaos_b));
        // Program and projection riders change the report, so the key.
        assert_ne!(
            cache_key(fp, &base),
            cache_key(fp, &base.clone().with_program_text(true))
        );
        assert_ne!(
            cache_key(fp, &base),
            cache_key(fp, &base.clone().with_projection_arrays(9))
        );
    }

    #[test]
    fn copy_options_never_share_cache_entries() {
        // Copy discovery changes the emitted program, so a reuse job must
        // never be served a baseline entry (or vice versa) — the option
        // is part of the key like every other policy knob.
        let fp = 7u128;
        let base = JobSpec::benchmark(Benchmark::Ctrl);
        let reuse = base
            .clone()
            .with_options(base.options().with_copy_reuse(true));
        assert_ne!(cache_key(fp, &base), cache_key(fp, &reuse));
        assert!(cache_key(fp, &base).contains("\"copy_reuse\":false,"));
        assert!(cache_key(fp, &reuse).contains("\"copy_reuse\":true,"));
    }

    #[test]
    fn esat_options_never_share_cache_entries() {
        // Equality saturation rewrites the graph the program is compiled
        // from, and its budgets change what the saturation explores — an
        // esat job must never be served a greedy-only entry, nor may two
        // runs with different budgets share one.
        let fp = 7u128;
        let base = JobSpec::benchmark(Benchmark::Ctrl);
        let esat = base.clone().with_options(base.options().with_esat(true));
        assert_ne!(cache_key(fp, &base), cache_key(fp, &esat));
        assert!(cache_key(fp, &base).contains("\"esat\":false,"));
        assert!(cache_key(fp, &esat).contains("\"esat\":true,"));
        let narrow = base
            .clone()
            .with_options(base.options().with_esat(true).with_esat_nodes(1_000));
        let short = base
            .clone()
            .with_options(base.options().with_esat(true).with_esat_iters(1));
        assert_ne!(cache_key(fp, &esat), cache_key(fp, &narrow));
        assert_ne!(cache_key(fp, &esat), cache_key(fp, &short));
        assert_ne!(cache_key(fp, &narrow), cache_key(fp, &short));
    }

    #[test]
    fn lru_eviction_and_counters() {
        let mut cache = ReportCache::new(2);
        let r = report();
        assert!(cache.lookup("a").is_none());
        cache.insert("a".into(), r.clone());
        cache.insert("b".into(), r.clone());
        assert!(cache.lookup("a").is_some(), "hit refreshes recency");
        cache.insert("c".into(), r.clone());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.lookup("b").is_none(), "b was least recently used");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 2));
        // Re-inserting an existing key refreshes without evicting.
        cache.insert("a".into(), r);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }
}
