//! Crash-safe on-disk persistence for the [`KernelCache`].
//!
//! A long-lived generation service (`cogent serve`) pays the model-driven
//! search once per distinct request and answers the rest from the cache —
//! but only if the cache survives restarts. The kernel is a pure function
//! of its [`CacheKey`], so a shard file stores keys, not kernels: each
//! entry is the key's five parts plus the FNV-1a-64 of the CUDA and the
//! OpenCL source it produced. Loading rebuilds every entry by running the
//! generator again (`CacheKey::generator` and `Cogent::generate`) and
//! keeps it only when both sources hash to the recorded values. Nothing
//! read from disk reaches a response except a key that regenerates to the
//! recorded sources.
//!
//! Each cache shard saves to its own file under a directory (the
//! `COGENT_CACHE_DIR` environment variable), with three crash-safety
//! properties:
//!
//! * **Atomic writes.** A shard is serialized to `shard-N.json.tmp`,
//!   `fsync`ed, then renamed over `shard-N.json`. A crash mid-write
//!   leaves the previous complete file in place, never a torn one.
//! * **Corruption detection, not corruption trust.** Every file carries a
//!   FNV-1a-64 checksum of its payload and a schema header; on load, a
//!   file that fails the checksum, the JSON parse or the schema (an older
//!   format version included) is renamed to `*.quarantined` and skipped.
//!   An entry whose key does not parse back, or whose regenerated sources
//!   hash differently, is left out and reported in
//!   [`LoadReport::dropped`]. Startup never fails because of a bad shard
//!   file — the affected entries are simply regenerated on demand.
//! * **Byte-stable round trips.** Entries are written coldest-first (the
//!   shard's LRU order) and reinserted in that order, so save → load →
//!   save reproduces the file byte for byte and a reloaded cache serves
//!   byte-identical kernels in the same eviction order.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use cogent_obs::json::Json;

use crate::api::GeneratedKernel;
use crate::cache::{CacheKey, KernelCache};
use crate::request::precision_named;

/// Environment variable naming the cache persistence directory. Unset or
/// blank means persistence is off (see [`parse_cache_dir`]).
pub const CACHE_DIR_ENV_VAR: &str = "COGENT_CACHE_DIR";

/// First token of every shard file's header line.
const SHARD_MAGIC: &str = "cogent-cache-shard";
/// On-disk format version token (second header token).
const SHARD_FORMAT: &str = "v2";
/// Schema identifier embedded in the JSON payload.
const SHARD_SCHEMA: &str = "cogent.cache.shard.v2";

/// The `COGENT_CACHE_DIR` rule: unset or blank (empty or whitespace only)
/// means persistence is off; any other value names the directory as is.
pub fn parse_cache_dir(raw: Option<&str>) -> Option<PathBuf> {
    raw.filter(|dir| !dir.trim().is_empty()).map(PathBuf::from)
}

/// FNV-1a 64-bit hash — the shard files' checksum and the recorded hash
/// of each entry's sources. Not cryptographic; it detects truncation and
/// bit rot, which is the failure model for a local cache directory (an
/// attacker who can write the cache dir can already replace the binary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A filesystem failure while saving or loading. Corrupt shard *contents*
/// are never an error — they are quarantined and reported in the
/// [`LoadReport`] — so this only covers I/O the process cannot work
/// around (unreadable directory, full disk, permission denied).
#[derive(Debug)]
pub struct PersistError {
    /// The file or directory involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache persistence: {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// What [`CachePersister::load`] found on disk.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Shard files inspected (including quarantined ones).
    pub files_seen: usize,
    /// Entries regenerated and re-inserted into the cache.
    pub entries_loaded: usize,
    /// Files that failed the checksum, parse, or schema check, with the
    /// reason; each was renamed to `<name>.quarantined` (or removed when
    /// even the rename failed) so the next startup does not trip over it
    /// again.
    pub quarantined: Vec<(PathBuf, String)>,
    /// Entries of intact files that were not inserted: the key did not
    /// parse back, generation failed, or a regenerated source's hash
    /// differs from the recorded one. The next save drops them.
    pub dropped: Vec<(CacheKey, String)>,
}

/// What one [`CachePersister::save_dirty`] / [`save_all`](CachePersister::save_all) pass wrote.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Shards serialized and atomically renamed into place.
    pub shards_written: usize,
    /// Shards skipped because their version matched the last save.
    pub shards_clean: usize,
    /// Entries written across all saved shards.
    pub entries_written: usize,
}

/// One stored entry: the key and the hashes of the sources it produced.
struct StoredEntry {
    key: CacheKey,
    cuda: u64,
    opencl: u64,
}

/// Saves and restores a [`KernelCache`] to a directory of checksummed
/// per-shard files. See the [module documentation](self) for the
/// crash-safety contract.
#[derive(Debug)]
pub struct CachePersister {
    dir: PathBuf,
    /// Per-shard cache version at the time of the last successful save;
    /// [`CachePersister::save_dirty`] skips shards that have not moved.
    saved: Mutex<HashMap<usize, u64>>,
}

impl CachePersister {
    /// A persister rooted at `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        Ok(Self {
            dir,
            saved: Mutex::new(HashMap::new()),
        })
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index}.json"))
    }

    /// The directory's `shard-*.json` files, sorted by path.
    fn shard_files(&self) -> Result<Vec<PathBuf>, PersistError> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(io_err(&self.dir))? {
            let path = entry.map_err(io_err(&self.dir))?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("shard-") && name.ends_with(".json") {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(paths)
    }

    /// Loads every `shard-*.json` file in the directory into `cache`,
    /// quarantining corrupt files instead of failing. Each entry is
    /// regenerated, one after another, and re-inserted coldest-first, so
    /// the cache's LRU eviction order (and its behavior when the loaded
    /// set exceeds the capacity — hottest entries win) matches the saved
    /// cache.
    ///
    /// The shard index in a file name is advisory: entries are routed to
    /// shards by key hash on insert, so a cache with a different shard
    /// count (e.g. after a `COGENT_CACHE_CAP` change) still loads
    /// correctly.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] only for directory-level I/O failures;
    /// corrupt files are reported in [`LoadReport::quarantined`] and
    /// entries that do not regenerate in [`LoadReport::dropped`].
    pub fn load(&self, cache: &KernelCache) -> Result<LoadReport, PersistError> {
        let mut report = LoadReport::default();
        for path in self.shard_files()? {
            report.files_seen += 1;
            match read_shard_file(&path) {
                Ok(entries) => {
                    for stored in entries {
                        match regenerate(&stored) {
                            Ok(kernel) => {
                                cache.insert(stored.key, kernel);
                                report.entries_loaded += 1;
                            }
                            Err(why) => report.dropped.push((stored.key, why)),
                        }
                    }
                }
                Err(why) => {
                    let mut name = path.clone().into_os_string();
                    name.push(".quarantined");
                    if fs::rename(&path, PathBuf::from(name)).is_err() {
                        // Can't even rename it: remove so the next boot
                        // does not re-chew the same bad file. Best-effort.
                        let _ = fs::remove_file(&path);
                    }
                    report.quarantined.push((path, why));
                }
            }
        }
        Ok(report)
    }

    /// Saves only the shards whose insert-version changed since this
    /// persister last wrote them (cheap enough to call after every
    /// request batch). The version is read *before* the snapshot, so an
    /// insert racing the save is picked up by the next pass rather than
    /// lost.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on any filesystem failure.
    pub fn save_dirty(&self, cache: &KernelCache) -> Result<SaveReport, PersistError> {
        self.save(cache, false)
    }

    /// Saves every shard unconditionally and removes orphaned shard files
    /// left by a previous run with more shards.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on any filesystem failure.
    pub fn save_all(&self, cache: &KernelCache) -> Result<SaveReport, PersistError> {
        self.save(cache, true)
    }

    fn save(&self, cache: &KernelCache, force: bool) -> Result<SaveReport, PersistError> {
        // Held for the whole pass: concurrent saves would race on the
        // per-shard tmp files, and serializing them costs nothing (the
        // cache itself stays fully concurrent — only its snapshots are
        // taken under this persister's lock).
        let mut saved = self
            .saved
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let mut report = SaveReport::default();
        for index in 0..cache.shard_count() {
            let version = cache.shard_version(index);
            if !force && saved.get(&index).copied() == Some(version) {
                report.shards_clean += 1;
                continue;
            }
            let mut entries = cache.shard_view(index);
            entries.sort_by_key(|(_, _, last_used)| *last_used);
            self.write_shard(index, &shard_payload(index, &entries))?;
            report.shards_written += 1;
            report.entries_written += entries.len();
            saved.insert(index, version);
        }
        if force {
            self.prune_orphans(cache.shard_count())?;
        }
        Ok(report)
    }

    /// Removes `shard-N.json` files whose index is outside the current
    /// shard count (left behind when a capacity change shrank the cache);
    /// their entries were already re-routed by [`CachePersister::load`].
    fn prune_orphans(&self, shard_count: usize) -> Result<(), PersistError> {
        for path in self.shard_files()? {
            let index = path.file_name().and_then(|n| n.to_str()).and_then(|n| {
                n.strip_prefix("shard-")?
                    .strip_suffix(".json")?
                    .parse()
                    .ok()
            });
            if index.is_some_and(|index: usize| index >= shard_count) {
                fs::remove_file(&path).map_err(io_err(&path))?;
            }
        }
        Ok(())
    }

    fn write_shard(&self, index: usize, payload: &str) -> Result<(), PersistError> {
        let final_path = self.shard_path(index);
        let tmp_path = self.dir.join(format!("shard-{index}.json.tmp"));
        let checksum = fnv1a64(payload.as_bytes());
        {
            let mut file = fs::File::create(&tmp_path).map_err(io_err(&tmp_path))?;
            file.write_all(format!("{SHARD_MAGIC} {SHARD_FORMAT} {checksum:016x}\n").as_bytes())
                .map_err(io_err(&tmp_path))?;
            file.write_all(payload.as_bytes())
                .map_err(io_err(&tmp_path))?;
            file.write_all(b"\n").map_err(io_err(&tmp_path))?;
            // Flush to stable storage before the rename makes it visible:
            // rename-over-old is only atomic if the new bytes are durable.
            file.sync_all().map_err(io_err(&tmp_path))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(io_err(&final_path))?;
        Ok(())
    }
}

/// Wraps an I/O error with the path it concerns.
fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> PersistError {
    let path = path.to_path_buf();
    move |source| PersistError { path, source }
}

/// Parses and checksums one shard file.
fn read_shard_file(path: &Path) -> Result<Vec<StoredEntry>, String> {
    let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    let text = String::from_utf8(bytes).map_err(|_| "not valid UTF-8".to_string())?;
    let (header, rest) = text
        .split_once('\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(SHARD_MAGIC) {
        return Err(format!("bad magic in header {header:?}"));
    }
    let format = tokens.next().unwrap_or("");
    if format != SHARD_FORMAT {
        return Err(format!(
            "unsupported format {format:?} (want {SHARD_FORMAT})"
        ));
    }
    let want = tokens
        .next()
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| "missing or malformed checksum".to_string())?;
    let payload = rest.strip_suffix('\n').unwrap_or(rest);
    let got = fnv1a64(payload.as_bytes());
    if got != want {
        return Err(format!(
            "checksum mismatch: header says {want:016x}, payload hashes to {got:016x}"
        ));
    }
    if payload.len() == rest.len() {
        return Err("truncated: no final newline".to_string());
    }
    let json = Json::parse(payload).map_err(|e| format!("payload: {e}"))?;
    let schema = get_str(&json, "schema")?;
    if schema != SHARD_SCHEMA {
        return Err(format!("unknown schema {schema:?} (want {SHARD_SCHEMA})"));
    }
    json.get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| "member \"entries\" is not an array".to_string())?
        .iter()
        .enumerate()
        .map(|(i, entry)| decode_entry(entry).map_err(|why| format!("entry {i}: {why}")))
        .collect()
}

/// Serializes one shard's entries (already sorted coldest-first) to the
/// payload string.
fn shard_payload(index: usize, entries: &[(CacheKey, Arc<GeneratedKernel>, u64)]) -> String {
    let encoded = entries.iter().map(|(key, kernel, _)| {
        let (contraction, sizes, device, precision, options) = key.parts();
        Json::obj([
            ("contraction", Json::Str(contraction.to_string())),
            ("sizes", Json::Str(sizes.to_string())),
            ("device", Json::Str(device.to_string())),
            ("precision", Json::Str(precision.to_string())),
            ("options", Json::Str(options.to_string())),
            ("cuda_fnv1a64", hash_hex(&kernel.cuda_source)),
            ("opencl_fnv1a64", hash_hex(&kernel.opencl_source)),
        ])
    });
    let json = Json::obj([
        ("schema", Json::Str(SHARD_SCHEMA.to_string())),
        ("shard", Json::UInt(index as u128)),
        ("entries", Json::Array(encoded.collect())),
    ]);
    let mut out = String::new();
    json.write(&mut out);
    out
}

fn hash_hex(source: &str) -> Json {
    Json::Str(format!("{:016x}", fnv1a64(source.as_bytes())))
}

fn decode_entry(json: &Json) -> Result<StoredEntry, String> {
    let precision = precision_named(Some(get_str(json, "precision")?)).map_err(|e| e.message)?;
    let hash = |key: &str| {
        u64::from_str_radix(get_str(json, key)?, 16)
            .map_err(|_| format!("member {key:?} is not a 16-hex-digit hash"))
    };
    Ok(StoredEntry {
        key: CacheKey::from_parts(
            get_str(json, "contraction")?.to_string(),
            get_str(json, "sizes")?.to_string(),
            get_str(json, "device")?.to_string(),
            precision,
            get_str(json, "options")?.to_string(),
        ),
        cuda: hash("cuda_fnv1a64")?,
        opencl: hash("opencl_fnv1a64")?,
    })
}

fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("member {key:?} is missing or not a string"))
}

/// Rebuilds one stored entry: what `Cogent::generate` would have cached
/// for its key, provided both sources hash to the recorded values.
fn regenerate(stored: &StoredEntry) -> Result<GeneratedKernel, String> {
    let (gen, tc, sizes) = stored.key.generator()?;
    let mut kernel = gen
        .generate(&tc, &sizes)
        .map_err(|e| format!("generate: {e}"))?;
    if kernel.search.truncated {
        return Err("search truncated".to_string());
    }
    if fnv1a64(kernel.cuda_source.as_bytes()) != stored.cuda {
        return Err("regenerated CUDA source hash differs".to_string());
    }
    if fnv1a64(kernel.opencl_source.as_bytes()) != stored.opencl {
        return Err("regenerated OpenCL source hash differs".to_string());
    }
    // Cache entries never carry a trace: it describes one run.
    kernel.trace = None;
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::PassConfig;
    use crate::guard::PlanSource;
    use crate::{Cogent, EnumerationOptions, PruneRules, SearchOptions};
    use cogent_gpu_model::{GpuDevice, Precision};
    use cogent_gpu_sim::plan::StoreMode;
    use cogent_ir::{Contraction, SizeMap};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A unique, self-cleaning temp directory (no tempfile crate here).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "cogent-persist-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }

        fn persister(&self) -> CachePersister {
            CachePersister::new(&self.0).unwrap()
        }

        fn save_all(&self, cache: &KernelCache) -> SaveReport {
            self.persister().save_all(cache).unwrap()
        }

        fn load(&self, cache: &KernelCache) -> LoadReport {
            self.persister().load(cache).unwrap()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key_of(gen: &Cogent, tc: &Contraction, sizes: &SizeMap) -> CacheKey {
        let (device, precision) = (gen.target_device(), gen.target_precision());
        CacheKey::new(tc, sizes, device, precision, &gen.options_fingerprint())
    }

    fn generate_with(gen: &Cogent, spec: &str, n: usize) -> (CacheKey, GeneratedKernel) {
        let tc: Contraction = spec.parse().unwrap();
        let sizes = SizeMap::uniform(&tc, n);
        (key_of(gen, &tc, &sizes), gen.generate(&tc, &sizes).unwrap())
    }

    fn generate(spec: &str, n: usize) -> (CacheKey, GeneratedKernel) {
        generate_with(&Cogent::new(), spec, n)
    }

    /// A cache holding freshly generated kernels, inserted in order.
    fn filled(cap: usize, shards: usize, specs: &[(&str, usize)]) -> (KernelCache, Vec<CacheKey>) {
        let cache = KernelCache::with_shards(cap, shards);
        let keys = specs
            .iter()
            .map(|&(spec, n)| {
                let (key, kernel) = generate(spec, n);
                cache.insert(key.clone(), kernel);
                key
            })
            .collect();
        (cache, keys)
    }

    #[test]
    fn save_load_round_trip_is_byte_identical() {
        let dir = TempDir::new("roundtrip");
        let (cache, keys) = filled(8, 1, &[("ij-ik-kj", 24), ("abc-bda-dc", 12)]);
        assert_eq!(dir.save_all(&cache).entries_written, 2);
        let first = fs::read(dir.path().join("shard-0.json")).unwrap();

        // Load into a fresh cache; the warm hit must be byte-identical.
        let reloaded = KernelCache::with_shards(8, 1);
        let report = dir.load(&reloaded);
        assert_eq!(report.entries_loaded, 2);
        assert!(report.quarantined.is_empty() && report.dropped.is_empty());
        let (hit, cold) = (reloaded.get(&keys[0]).unwrap(), generate("ij-ik-kj", 24).1);
        assert_eq!(hit.cuda_source, cold.cuda_source);
        assert_eq!(hit.opencl_source, cold.opencl_source);
        assert_eq!(hit.search, cold.search);
        assert_eq!(hit.plan.bindings(), cold.plan.bindings());
        assert_eq!(hit.report.gflops.to_bits(), cold.report.gflops.to_bits());

        // Save the reloaded cache: byte-identical file. (The `get` above
        // refreshed the first key's recency — reload the original order.)
        let reloaded = KernelCache::with_shards(8, 1);
        dir.load(&reloaded);
        let dir2 = TempDir::new("roundtrip2");
        dir2.save_all(&reloaded);
        let second = fs::read(dir2.path().join("shard-0.json")).unwrap();
        assert_eq!(first, second, "save → load → save must be byte-stable");
    }

    #[test]
    fn eviction_order_survives_reload() {
        let dir = TempDir::new("lru");
        let (cache, keys) = filled(2, 1, &[("ij-ik-kj", 16), ("abc-bda-dc", 8)]);
        // Touch the first key: the second is now the eviction victim.
        assert!(cache.get(&keys[0]).is_some());
        dir.save_all(&cache);

        let reloaded = KernelCache::with_shards(2, 1);
        dir.load(&reloaded);
        let (k3, g3) = generate("ij-ik-kj", 32);
        reloaded.insert(k3, g3);
        assert!(reloaded.get(&keys[1]).is_none(), "coldest before save");
        assert!(reloaded.get(&keys[0]).is_some(), "hottest before save");
    }

    #[test]
    fn bit_flipped_shard_is_quarantined_not_fatal() {
        let dir = TempDir::new("bitflip");
        let (cache, keys) = filled(4, 1, &[("ij-ik-kj", 16)]);
        dir.save_all(&cache);
        let path = dir.path().join("shard-0.json");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, bytes).unwrap();

        let reloaded = KernelCache::with_shards(4, 1);
        let report = dir.load(&reloaded);
        assert_eq!((report.entries_loaded, report.quarantined.len()), (0, 1));
        assert!(reloaded.get(&keys[0]).is_none());
        assert!(!path.exists(), "bad file must be moved aside");
        assert!(dir.path().join("shard-0.json.quarantined").exists());
    }

    #[test]
    fn truncated_shard_is_quarantined() {
        let dir = TempDir::new("truncate");
        dir.save_all(&filled(4, 1, &[("ij-ik-kj", 16)]).0);
        let path = dir.path().join("shard-0.json");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let report = dir.load(&KernelCache::with_shards(4, 1));
        assert_eq!((report.entries_loaded, report.quarantined.len()), (0, 1));
        assert!(report.quarantined[0].1.contains("checksum"));
    }

    #[test]
    fn tampered_source_hash_drops_only_that_entry() {
        let dir = TempDir::new("tamper");
        let (cache, keys) = filled(4, 1, &[("ij-ik-kj", 16), ("abc-bda-dc", 8)]);
        dir.save_all(&cache);
        let path = dir.path().join("shard-0.json");
        let cuda = &generate("ij-ik-kj", 16).1.cuda_source;
        let recorded = format!("{:016x}", fnv1a64(cuda.as_bytes()));
        // Change that entry's recorded hash and recompute the checksum, so
        // only regeneration can catch it.
        let text = fs::read_to_string(&path).unwrap();
        let payload = text.split_once('\n').unwrap().1.trim_end_matches('\n');
        assert_eq!(payload.matches(&recorded).count(), 1);
        let payload = payload.replace(&recorded, &format!("{:016x}", fnv1a64(b"tampered")));
        let checksum = fnv1a64(payload.as_bytes());
        let header = format!("{SHARD_MAGIC} {SHARD_FORMAT} {checksum:016x}");
        fs::write(&path, format!("{header}\n{payload}\n")).unwrap();

        let reloaded = KernelCache::with_shards(4, 1);
        let report = dir.load(&reloaded);
        assert!(report.quarantined.is_empty(), "{report:?}");
        assert_eq!((report.entries_loaded, report.dropped.len()), (1, 1));
        assert_eq!(report.dropped[0].0, keys[0]);
        assert!(report.dropped[0].1.contains("CUDA"), "{report:?}");
        assert!(reloaded.get(&keys[0]).is_none());
        assert!(reloaded.get(&keys[1]).is_some());
        // The next save leaves the dropped entry off disk.
        assert_eq!(dir.save_all(&reloaded).entries_written, 1);
        assert!(!fs::read_to_string(&path).unwrap().contains(&recorded));
    }

    #[test]
    fn a_non_default_generator_key_round_trips() {
        let device = GpuDevice {
            name: "Lab \"GPU\", rev \\2 { x: 1 }".to_string(),
            sm_count: 7,
            peak_gflops_f64: 0.1 + 0.2,
            dram_bandwidth_gbs: 1e-7,
            ..GpuDevice::v100()
        };
        let options = SearchOptions {
            enumeration: EnumerationOptions {
                tb_sizes: vec![4, 8],
                reg_sizes: vec![3],
                tbk_sizes: vec![],
            },
            rules: PruneRules {
                min_threads: 64,
                min_blocks_per_sm: 1.5,
                min_occupancy: 1e-3,
                require_input_fvi_coalescing: false,
                min_fvi_tile: 2,
            },
            top_k: 5,
            max_configs: 1000,
            ..SearchOptions::default()
        };
        let passes = PassConfig::Custom(vec!["smem-pad".into(), "vectorize-loads".into()]);
        let gen = Cogent::new()
            .device(device)
            .precision(Precision::F32)
            .search_options(options)
            .refine_top(2)
            .store_mode(StoreMode::Accumulate)
            .verify_numeric(true)
            .divergence_tolerance(2.5e-9)
            .passes(passes);
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let key = key_of(&gen, &tc, &SizeMap::uniform(&tc, 12));
        let (back, back_tc, back_sizes) = key.generator().unwrap();
        assert_eq!(back.target_device(), gen.target_device());
        assert_eq!(back.options_fingerprint(), gen.options_fingerprint());
        assert_eq!(key_of(&back, &back_tc, &back_sizes), key);
    }

    #[test]
    fn preset_device_descriptions_are_their_debug_text() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        for device in [GpuDevice::v100(), GpuDevice::p100()] {
            let key = key_of(
                &Cogent::new().device(device.clone()),
                &tc,
                &SizeMap::uniform(&tc, 8),
            );
            assert_eq!(key.parts().2, format!("{device:?}"));
            assert_eq!(key.generator().unwrap().0.target_device(), &device);
        }
    }

    #[test]
    fn a_key_that_does_not_parse_back_is_an_error() {
        let (key, _) = generate("ij-ik-kj", 8);
        let (c, s, d, p, o) = key.parts();
        let broken = |c: &str, s: &str, d: &str, o: &str| {
            CacheKey::from_parts(c.into(), s.into(), d.into(), p, o.into()).generator()
        };
        assert!(broken("ij-ik", s, d, o).is_err());
        assert!(broken(c, "i=8,j=8,", d, o).is_err());
        assert!(broken(c, s, &d.replace("sm_count: 80", "sm_count: x"), o).is_err());
        assert!(broken(c, s, d, &o.replace("time_budget=None", "time_budget=1s")).is_err());
        // Parses, but rebuilds to a different key.
        assert!(broken(c, s, &d.replace("7000.0", "7000.00"), o).is_err());
        assert!(broken(c, s, d, o).is_ok());
    }

    #[test]
    fn blank_cache_dir_means_persistence_off() {
        for blank in [None, Some(""), Some(" \t\n")] {
            assert_eq!(parse_cache_dir(blank), None);
        }
        let dir = parse_cache_dir(Some("/var/cache/cogent"));
        assert_eq!(dir, Some(PathBuf::from("/var/cache/cogent")));
    }

    #[test]
    fn save_dirty_skips_clean_shards() {
        let dir = TempDir::new("dirty");
        let (cache, keys) = filled(8, 1, &[("ij-ik-kj", 16)]);
        let persister = dir.persister();
        assert_eq!(persister.save_dirty(&cache).unwrap().shards_written, 1);
        let second = persister.save_dirty(&cache).unwrap();
        assert_eq!((second.shards_written, second.shards_clean), (0, 1));
        // A lookup does not dirty anything; an insert does.
        assert!(cache.get(&keys[0]).is_some());
        assert_eq!(persister.save_dirty(&cache).unwrap().shards_written, 0);
        let (key, kernel) = generate("abc-bda-dc", 8);
        cache.insert(key, kernel);
        assert_eq!(persister.save_dirty(&cache).unwrap().shards_written, 1);
    }

    #[test]
    fn degraded_entries_are_persisted_and_regenerate_identically() {
        let dir = TempDir::new("degraded");
        let gen = Cogent::new()
            .verify_numeric(true)
            .divergence_tolerance(-1.0);
        let (key, kernel) = generate_with(&gen, "ij-ik-kj", 12);
        assert!(!kernel.provenance.rejected.is_empty());
        let cache = KernelCache::new(8);
        cache.insert(key.clone(), kernel.clone());
        assert_eq!(dir.save_all(&cache).entries_written, 1);

        let reloaded = KernelCache::new(8);
        assert_eq!(dir.load(&reloaded).entries_loaded, 1);
        let hit = reloaded.get(&key).unwrap();
        assert_eq!(hit.provenance.source, PlanSource::NaiveFallback);
        assert_eq!(
            hit.provenance.rejected.len(),
            kernel.provenance.rejected.len()
        );
        assert_eq!(hit.cuda_source, kernel.cuda_source);
    }

    #[test]
    fn load_routes_entries_across_different_shard_counts() {
        let dir = TempDir::new("reshard");
        let specs = [("ij-ik-kj", 8), ("abc-bda-dc", 8), ("abcd-aebf-dfce", 8)];
        let (cache, keys) = filled(16, 4, &specs);
        dir.save_all(&cache);
        // Reload into a single-shard cache: every entry must be found.
        let reloaded = KernelCache::with_shards(16, 1);
        assert_eq!(dir.load(&reloaded).entries_loaded, 3);
        for key in &keys {
            assert!(reloaded.get(key).is_some());
        }
        // save_all from the smaller cache prunes the now-orphaned files.
        dir.save_all(&reloaded);
        assert_eq!(dir.persister().shard_files().unwrap().len(), 1);
    }

    #[test]
    fn unknown_files_are_ignored() {
        let dir = TempDir::new("ignore");
        fs::write(dir.path().join("README.txt"), "not a shard").unwrap();
        fs::write(dir.path().join("shard-0.json.tmp"), "torn write").unwrap();
        let report = dir.load(&KernelCache::new(8));
        assert_eq!(report.files_seen, 0);
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn persister_is_shareable_across_threads() {
        let dir = TempDir::new("threads");
        let cache = Arc::new(filled(8, 1, &[("ij-ik-kj", 16)]).0);
        let persister = Arc::new(dir.persister());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let persister = Arc::clone(&persister);
                scope.spawn(move || {
                    persister.save_dirty(&cache).unwrap();
                });
            }
        });
        assert!(!persister.shard_files().unwrap().is_empty());
    }
}
