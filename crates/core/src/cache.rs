//! A sharded, LRU-evicting cache of generated kernels.
//!
//! Model-driven search is deliberately exhaustive: for a CCSD(T)-like
//! contraction the generator checks and costs thousands of candidate
//! configurations before one kernel wins. The inputs that determine the
//! winner are few and hashable, so a process that generates kernels for
//! recurring (contraction, sizes, device, precision, options) tuples —
//! `KernelLibrary::build`, the `cogent batch` subcommand, a service
//! fronting many users — should pay the search once. [`KernelCache`]
//! stores the full [`GeneratedKernel`] (including its
//! [`SearchOutcome`](crate::select::SearchOutcome) summary) behind a key
//! that captures everything `Cogent::generate` consults; a warm hit is a
//! hash lookup instead of a search. Entries are stored as
//! `Arc<GeneratedKernel>`, so a hit shares the cached kernel instead of
//! copying it; callers that need an owned kernel clone it themselves.
//!
//! The map is split into shards, each behind its own mutex, so
//! `Cogent::generate_many`'s workers and `cogent serve`'s worker pool do
//! not serialize on one lock. Eviction is least-recently-used per shard,
//! bounded by [`KernelCache::capacity`] entries overall (the
//! `COGENT_CACHE_CAP` environment variable seeds
//! [`KernelCache::from_env`]). A capacity of 0
//! disables the cache entirely: lookups miss without recording
//! statistics and inserts are dropped.
//!
//! Hits, misses and evictions feed both the lock-free [`CacheStats`]
//! accessors and the `cache.hit` / `cache.miss` / `cache.evict`
//! observability counters (surfaced by `cogent explain`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_ir::{Contraction, SizeMap};

use crate::api::{Cogent, GeneratedKernel};
use crate::request::{contraction, size_list};

/// Environment variable seeding [`KernelCache::from_env`]'s capacity.
/// Unset, empty or unparsable values mean [`DEFAULT_CAPACITY`]; `0`
/// disables caching.
pub const CACHE_CAP_ENV_VAR: &str = "COGENT_CACHE_CAP";

/// Capacity used by [`KernelCache::from_env`] when `COGENT_CACHE_CAP` is
/// not set: generous next to the TCCG suite's 48 entries, small next to
/// the kernels themselves.
pub const DEFAULT_CAPACITY: usize = 64;

/// Reads `COGENT_CACHE_CAP` strictly: unset or empty means
/// [`DEFAULT_CAPACITY`], `0` disables caching, and anything that does not
/// parse as a non-negative integer is an error (one-line diagnostic,
/// without the `cogent: ` prefix). Front-ends turn the error into their
/// usage-error convention — exit 2 for the CLI, a refused startup for
/// `cogent serve`.
pub fn capacity_from_env() -> Result<usize, String> {
    parse_capacity(std::env::var(CACHE_CAP_ENV_VAR).ok().as_deref())
}

/// The parsing rule behind [`capacity_from_env`], split out so the
/// diagnostic is testable without touching the process environment.
pub fn parse_capacity(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_CAPACITY);
    };
    let value = raw.trim();
    if value.is_empty() {
        return Ok(DEFAULT_CAPACITY);
    }
    value.parse::<usize>().map_err(|_| {
        format!("{CACHE_CAP_ENV_VAR}: invalid value {value:?} (want a non-negative integer)")
    })
}

/// Everything that determines the output of `Cogent::generate`, flattened
/// to strings so equality is exact and the hash is stable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Normalized contraction spec (`abcd-aebf-dfce` style).
    contraction: String,
    /// Extents of the contraction's indices, in contraction order.
    sizes: String,
    /// Full device description (all modelled limits, not just the name).
    device: String,
    /// Arithmetic precision.
    precision: Precision,
    /// Fingerprint of the search/generation options
    /// ([`Cogent::options_fingerprint`](crate::Cogent::options_fingerprint)).
    options: String,
}

impl CacheKey {
    /// Builds the key for one generation request. `options` must capture
    /// every generator knob that can change the emitted kernel (see
    /// [`Cogent::options_fingerprint`](crate::Cogent::options_fingerprint)).
    pub fn new(
        tc: &Contraction,
        sizes: &SizeMap,
        device: &GpuDevice,
        precision: Precision,
        options: &str,
    ) -> Self {
        let norm = tc.normalized();
        let mut sig = String::new();
        for idx in norm.all_indices() {
            // Missing extents become `?`; `generate` rejects those before
            // consulting the cache, so such keys never collide with real ones.
            match sizes.extent(idx) {
                Some(extent) => sig.push_str(&format!("{idx}={extent},")),
                None => sig.push_str(&format!("{idx}=?,")),
            }
        }
        Self {
            contraction: norm.to_string(),
            sizes: sig,
            device: format!("{device:?}"),
            precision,
            options: options.to_string(),
        }
    }

    fn shard_index(&self, shards: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % shards
    }

    /// The inverse of [`CacheKey::new`]: the generator (no cache, no time
    /// budget), contraction and sizes this key describes. A key that does
    /// not rebuild to itself from them is an error, so `generate` on the
    /// result is exactly the generation the key names.
    ///
    /// # Errors
    ///
    /// A one-line reason naming the part that does not parse back.
    pub(crate) fn generator(&self) -> Result<(Cogent, Contraction, SizeMap), String> {
        let tc = contraction(&self.contraction).map_err(|e| format!("contraction: {e}"))?;
        let sizes = size_list(&tc, &self.sizes).map_err(|e| format!("sizes: {e}"))?;
        let gen = Cogent::from_options_fingerprint(&self.options)?
            .device(GpuDevice::from_debug_text(&self.device)?)
            .precision(self.precision);
        let options = gen.options_fingerprint();
        if CacheKey::new(&tc, &sizes, gen.target_device(), self.precision, &options) != *self {
            return Err("key does not rebuild to itself".to_string());
        }
        Ok((gen, tc, sizes))
    }

    /// Rebuilds a key from its flattened parts (the inverse of
    /// [`CacheKey::parts`]). Used by the on-disk persistence layer
    /// ([`crate::persist`]), which stores the flattened strings verbatim.
    pub fn from_parts(
        contraction: String,
        sizes: String,
        device: String,
        precision: Precision,
        options: String,
    ) -> Self {
        Self {
            contraction,
            sizes,
            device,
            precision,
            options,
        }
    }

    /// The key's flattened parts:
    /// `(contraction, sizes, device, precision, options)`.
    pub fn parts(&self) -> (&str, &str, &str, Precision, &str) {
        (
            &self.contraction,
            &self.sizes,
            &self.device,
            self.precision,
            &self.options,
        )
    }
}

struct Entry {
    kernel: Arc<GeneratedKernel>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    /// Bumped on every insert (and the eviction it may cause); the
    /// persistence layer compares it against the version it last wrote
    /// to find dirty shards. Pure lookups refresh the LRU order without
    /// bumping it — a crash between a `get` and the next insert loses at
    /// most that recency refresh, never an entry.
    version: u64,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a kernel.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Kernels currently stored.
    pub entries: usize,
    /// Maximum kernels stored across all shards.
    pub capacity: usize,
}

/// A thread-safe, sharded, LRU-evicting map from [`CacheKey`] to
/// [`GeneratedKernel`]. See the [module documentation](self).
pub struct KernelCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl KernelCache {
    /// A cache holding at most `capacity` kernels, sharded across up to 8
    /// locks (one shard per ~8 entries of capacity, so small caches are
    /// not split into shards too small to absorb hash skew).
    /// `capacity == 0` disables the cache.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, (capacity / 8).clamp(1, 8))
    }

    /// Like [`KernelCache::new`] with an explicit shard count (tests use a
    /// single shard so the LRU order is globally observable). The shard
    /// count is clamped to at least 1; each shard holds at most
    /// `capacity.div_ceil(shards)` entries, so the total never exceeds
    /// `capacity` rounded up to a multiple of the shard count.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity,
            per_shard: capacity.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache sized by the `COGENT_CACHE_CAP` environment variable
    /// ([`CACHE_CAP_ENV_VAR`]), defaulting to [`DEFAULT_CAPACITY`].
    /// Malformed values fall back to the default; front-ends that want to
    /// reject them instead (the CLI exits 2, `cogent serve` refuses to
    /// start) should call [`capacity_from_env`] first.
    pub fn from_env() -> Self {
        Self::new(capacity_from_env().unwrap_or(DEFAULT_CAPACITY))
    }

    /// The configured total capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn lock_shard(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        let shard = &self.shards[key.shard_index(self.shards.len())];
        // A poisoned shard only means another thread panicked mid-insert;
        // the map itself is still structurally sound.
        shard.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Looks up a kernel, refreshing its LRU position. Returns the shared
    /// entry; cached kernels are immutable. Counts a hit or miss (except
    /// when the cache is disabled, which counts nothing).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<GeneratedKernel>> {
        if !self.enabled() {
            return None;
        }
        let mut shard = self.lock_shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let kernel = Arc::clone(&entry.kernel);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                cogent_obs::counter("cache.hit", 1);
                Some(kernel)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                cogent_obs::counter("cache.miss", 1);
                None
            }
        }
    }

    /// Stores a kernel, evicting the shard's least-recently-used entry
    /// when the shard is full. A no-op when the cache is disabled.
    ///
    /// The kernel's trace is dropped: it describes the run that produced
    /// the kernel, not the kernel, and keeping it would pin every span
    /// buffer of that run in memory and deep-clone it on every hit.
    pub fn insert(&self, key: CacheKey, mut kernel: GeneratedKernel) {
        if !self.enabled() {
            return;
        }
        kernel.trace = None;
        let mut shard = self.lock_shard(&key);
        shard.tick += 1;
        shard.version += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            // Evict the least-recently-used entry. Ties on `last_used`
            // cannot happen (the tick is bumped on every touch).
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                cogent_obs::counter("cache.evict", 1);
            }
        }
        shard.map.insert(
            key,
            Entry {
                kernel: Arc::new(kernel),
                last_used: tick,
            },
        );
    }

    /// Current hit/miss/eviction/occupancy numbers.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .map
                    .len()
            })
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard's insert-version counter: bumped on every insert, so the
    /// persistence layer can skip shards that have not changed since it
    /// last wrote them. Out-of-range indices read as 0.
    pub fn shard_version(&self, index: usize) -> u64 {
        self.shards
            .get(index)
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .version
            })
            .unwrap_or(0)
    }

    /// [`KernelCache::snapshot_shard`] without cloning the kernels: each
    /// entry shares the cached one. Persistence reads only the keys and
    /// source hashes, so it saves from this view.
    pub(crate) fn shard_view(&self, index: usize) -> Vec<(CacheKey, Arc<GeneratedKernel>, u64)> {
        let Some(shard) = self.shards.get(index) else {
            return Vec::new();
        };
        let shard = shard.lock().unwrap_or_else(|poison| poison.into_inner());
        shard
            .map
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(&e.kernel), e.last_used))
            .collect()
    }

    /// Clones one shard's entries as `(key, kernel, last_used)` triples,
    /// in unspecified order (`last_used` orders them: smaller = colder).
    /// Out-of-range indices yield an empty vector.
    pub fn snapshot_shard(&self, index: usize) -> Vec<(CacheKey, GeneratedKernel, u64)> {
        self.shard_view(index)
            .into_iter()
            .map(|(k, kernel, last_used)| (k, GeneratedKernel::clone(&kernel), last_used))
            .collect()
    }

    /// Drops every entry (statistics are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .map
                .clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cogent;

    fn kernel_for(spec: &str, n: usize) -> (Contraction, SizeMap, GeneratedKernel) {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        let kernel = Cogent::new().generate(&tc, &sizes).unwrap();
        (tc, sizes, kernel)
    }

    fn key_for(tc: &Contraction, sizes: &SizeMap, options: &str) -> CacheKey {
        CacheKey::new(tc, sizes, &GpuDevice::v100(), Precision::F64, options)
    }

    #[test]
    fn hit_after_insert_returns_identical_kernel() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::new(4);
        let key = key_for(&tc, &sizes, "opts");
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), kernel.clone());
        let hit = cache.get(&key).expect("warm hit");
        assert_eq!(hit.cuda_source, kernel.cuda_source);
        assert_eq!(hit.config, kernel.config);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn hits_share_one_entry_and_snapshots_own_copies() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::with_shards(4, 1);
        let key = key_for(&tc, &sizes, "opts");
        cache.insert(key.clone(), kernel.clone());
        let (first, second) = (cache.get(&key).unwrap(), cache.get(&key).unwrap());
        assert!(Arc::ptr_eq(&first, &second), "a hit copies nothing");
        let snap = cache.snapshot_shard(0);
        let [(snap_key, owned, _)] = &snap[..] else {
            panic!("one entry, got {}", snap.len());
        };
        assert_eq!(*snap_key, key);
        assert_eq!(owned.cuda_source, kernel.cuda_source);
        assert_eq!(owned.opencl_source, kernel.opencl_source);
        assert_eq!(owned.config, kernel.config);
        assert_eq!(owned.search, kernel.search);
        assert_eq!(owned.provenance, kernel.provenance);
        assert_eq!(
            owned.report.gflops.to_bits(),
            kernel.report.gflops.to_bits()
        );
    }

    #[test]
    fn insert_drops_the_kernels_trace() {
        cogent_obs::set_enabled(true);
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 16);
        assert!(
            kernel.trace.is_some(),
            "a traced generation carries its trace"
        );
        let cache = KernelCache::new(4);
        let key = key_for(&tc, &sizes, "opts");
        cache.insert(key.clone(), kernel);
        assert!(cache.get(&key).expect("warm hit").trace.is_none());
    }

    #[test]
    fn distinct_sizes_do_not_collide() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::new(4);
        cache.insert(key_for(&tc, &sizes, "opts"), kernel);
        let other = SizeMap::uniform(&tc, 48);
        assert!(cache.get(&key_for(&tc, &other, "opts")).is_none());
    }

    #[test]
    fn options_fingerprint_isolates_entries() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::new(4);
        cache.insert(key_for(&tc, &sizes, "top_k=16"), kernel.clone());
        assert!(cache.get(&key_for(&tc, &sizes, "top_k=1")).is_none());
        assert!(cache.get(&key_for(&tc, &sizes, "top_k=16")).is_some());
    }

    #[test]
    fn lru_eviction_displaces_the_coldest_entry() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        // One shard so the LRU order is global.
        let cache = KernelCache::with_shards(2, 1);
        let k1 = key_for(&tc, &sizes, "one");
        let k2 = key_for(&tc, &sizes, "two");
        let k3 = key_for(&tc, &sizes, "three");
        cache.insert(k1.clone(), kernel.clone());
        cache.insert(k2.clone(), kernel.clone());
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), kernel);
        assert!(cache.get(&k2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::with_shards(2, 1);
        let k1 = key_for(&tc, &sizes, "one");
        let k2 = key_for(&tc, &sizes, "two");
        cache.insert(k1.clone(), kernel.clone());
        cache.insert(k2.clone(), kernel.clone());
        cache.insert(k1, kernel);
        assert_eq!(cache.stats().evictions, 0);
        assert!(cache.get(&k2).is_some());
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::new(0);
        assert!(!cache.enabled());
        let key = key_for(&tc, &sizes, "opts");
        cache.insert(key.clone(), kernel);
        assert!(cache.get(&key).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn key_normalizes_the_contraction() {
        let sizes = SizeMap::from_pairs([("i", 8), ("j", 8), ("k", 8)]);
        let a: Contraction = "ij-ik-kj".parse().unwrap();
        let key_a = key_for(&a, &sizes, "opts");
        let key_b = key_for(&a.normalized(), &sizes, "opts");
        assert_eq!(key_a, key_b);
    }

    #[test]
    fn capacity_parsing_is_strict_about_malformed_values() {
        assert_eq!(parse_capacity(None), Ok(DEFAULT_CAPACITY));
        assert_eq!(parse_capacity(Some("")), Ok(DEFAULT_CAPACITY));
        assert_eq!(parse_capacity(Some("  ")), Ok(DEFAULT_CAPACITY));
        assert_eq!(parse_capacity(Some("0")), Ok(0));
        assert_eq!(parse_capacity(Some(" 128 ")), Ok(128));
        let err = parse_capacity(Some("banana")).unwrap_err();
        assert_eq!(
            err,
            "COGENT_CACHE_CAP: invalid value \"banana\" (want a non-negative integer)"
        );
        assert!(parse_capacity(Some("-4")).is_err());
        assert!(parse_capacity(Some("1.5")).is_err());
    }

    #[test]
    fn snapshot_and_versions_track_inserts() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::with_shards(4, 1);
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.shard_version(0), 0);
        cache.insert(key_for(&tc, &sizes, "one"), kernel.clone());
        cache.insert(key_for(&tc, &sizes, "two"), kernel);
        assert_eq!(cache.shard_version(0), 2);
        // Lookups refresh LRU order but do not dirty the shard.
        assert!(cache.get(&key_for(&tc, &sizes, "one")).is_some());
        assert_eq!(cache.shard_version(0), 2);
        let mut snap = cache.snapshot_shard(0);
        snap.sort_by_key(|(_, _, used)| *used);
        assert_eq!(snap.len(), 2);
        // "two" was inserted second but "one" was touched after it.
        assert_eq!(snap[0].0.parts().4, "two");
        assert_eq!(snap[1].0.parts().4, "one");
        // Out-of-range indices are harmless.
        assert_eq!(cache.shard_version(7), 0);
        assert!(cache.snapshot_shard(7).is_empty());
    }

    #[test]
    fn cache_key_parts_round_trip() {
        let (tc, sizes, _) = kernel_for("ij-ik-kj", 32);
        let key = key_for(&tc, &sizes, "opts");
        let (c, s, d, p, o) = key.parts();
        let rebuilt = CacheKey::from_parts(
            c.to_string(),
            s.to_string(),
            d.to_string(),
            p,
            o.to_string(),
        );
        assert_eq!(key, rebuilt);
    }

    #[test]
    fn shared_across_threads() {
        let (tc, sizes, kernel) = kernel_for("ij-ik-kj", 32);
        let cache = KernelCache::new(8);
        let key = key_for(&tc, &sizes, "opts");
        cache.insert(key.clone(), kernel);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert!(cache.get(&key).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 32);
    }
}
