//! Seeded workload inputs. Everything a workload sends or generates comes
//! from here, so one seed always yields the same requests.

use std::collections::HashSet;

use cogent::generator::{CacheKey, Cogent};
use cogent::gpu::{GpuDevice, Precision};
use cogent::ir::{Contraction, SizeMap};
use cogent::obs::json::Json;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per workload by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generation input: a TCCG entry's contraction at some extents.
#[derive(Debug, Clone)]
pub struct Job {
    pub name: String,
    pub spec: String,
    pub tc: Contraction,
    pub sizes: SizeMap,
}

impl Job {
    /// The `POST /v1/generate` / `/v1/explain` body for this input.
    pub fn body(&self) -> String {
        let sizes = self
            .sizes
            .iter()
            .map(|(idx, n)| (idx.to_string(), Json::UInt(n as u128)));
        Json::obj([
            ("contraction", Json::Str(self.spec.clone())),
            ("sizes", Json::obj(sizes)),
        ])
        .to_string()
    }

    /// The cache key the server files this input under (V100, f64,
    /// default options — what a request without those members gets).
    pub fn key(&self) -> CacheKey {
        CacheKey::new(
            &self.tc,
            &self.sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &Cogent::new().options_fingerprint(),
        )
    }
}

/// The 48 TCCG entries in suite order, at their representative extents
/// divided by `scale_down` (1 keeps the suite sizes).
pub fn suite_jobs(scale_down: usize) -> Vec<Job> {
    cogent::tccg::suite()
        .into_iter()
        .map(|e| Job {
            tc: e.contraction(),
            sizes: e.sizes().scaled_down(scale_down),
            name: e.name,
            spec: e.spec,
        })
        .collect()
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Which read endpoint a warm request uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Generate,
    Explain,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Generate => "/v1/generate",
            Endpoint::Explain => "/v1/explain",
        }
    }
}

/// `n` warm-traffic draws over `keys` cached kernels: a Zipf(1) key
/// (suite order is rank order) and 80% `/v1/generate`, 20% `/v1/explain`.
pub fn warm_draws(seed: u64, n: usize, keys: usize) -> Vec<(usize, Endpoint)> {
    let mut rng = Rng::new(seed, 3);
    let zipf = Zipf::new(keys, 1.0);
    (0..n)
        .map(|_| {
            let key = zipf.sample(&mut rng);
            let endpoint = if rng.unit() < 0.8 {
                Endpoint::Generate
            } else {
                Endpoint::Explain
            };
            (key, endpoint)
        })
        .collect()
}

/// An endless stream of cold inputs: the fill entries in suite order,
/// cycling, each input renaming the entry's indices with fresh seeded
/// letters. Cache keys (and the enumeration menu cache) hold the index
/// names, so every input is a new key — unseen in the stream so far and
/// distinct from every fill key — and every request searches from cold.
/// Each entry's extents are scaled by factors in `[0.75, 1.25]` from one
/// fixed draw, the same for every seed: an entry then costs the same
/// search every time it comes round and in every run, and only the
/// names depend on the seed.
pub struct Churn {
    rng: Rng,
    base: Vec<Job>,
    seen: HashSet<CacheKey>,
    next: usize,
}

impl Churn {
    pub fn new(seed: u64, fill: &[Job]) -> Self {
        let mut extents = Rng::new(0, 5);
        let base = fill
            .iter()
            .map(|job| Job {
                sizes: SizeMap::from_pairs(job.sizes.iter().map(|(idx, n)| {
                    let factor = 0.75 + 0.5 * extents.unit();
                    (idx.clone(), ((n as f64 * factor).round() as usize).max(1))
                })),
                ..job.clone()
            })
            .collect();
        Churn {
            rng: Rng::new(seed, 4),
            base,
            seen: fill.iter().map(Job::key).collect(),
            next: 0,
        }
    }
}

impl Iterator for Churn {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let base = &self.base[self.next % self.base.len()];
        self.next += 1;
        // A redraw is needed only on a collision, which 26 letters make
        // rare; the bound turns a degenerate entry into a clear stop.
        for _ in 0..10_000 {
            let job = relabel(base, &mut self.rng);
            if self.seen.insert(job.key()) {
                return Some(job);
            }
        }
        panic!("no unused index names left for {}", base.name);
    }
}

/// `job` with its index letters replaced by distinct letters from a
/// seeded shuffle of `a..=z`.
fn relabel(job: &Job, rng: &mut Rng) -> Job {
    let mut alphabet: Vec<char> = ('a'..='z').collect();
    for i in (1..alphabet.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        alphabet.swap(i, j);
    }
    let mut old: Vec<char> = Vec::new();
    for c in job.spec.chars().filter(char::is_ascii_lowercase) {
        if !old.contains(&c) {
            old.push(c);
        }
    }
    let rename = |c: char| old.iter().position(|&o| o == c).map_or(c, |p| alphabet[p]);
    let spec: String = job.spec.chars().map(rename).collect();
    let sizes = SizeMap::from_pairs(job.sizes.iter().map(|(idx, n)| {
        let letter = idx.as_str().chars().next().map_or('?', rename);
        (letter, n)
    }));
    Job {
        tc: spec.parse().expect("a relabeled suite spec parses"),
        sizes,
        spec,
        name: job.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2, 0);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(7, 1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn suite_jobs_cover_the_48_entries() {
        let jobs = suite_jobs(1);
        assert_eq!(jobs.len(), 48);
        assert!(jobs.iter().all(|j| j.sizes.covers(&j.tc)));
        let small = suite_jobs(16);
        assert!(small.iter().zip(&jobs).all(|(s, j)| s
            .sizes
            .iter()
            .zip(j.sizes.iter())
            .all(|(a, b)| a.1 <= b.1)));
    }

    #[test]
    fn warm_draws_are_seeded_and_skewed() {
        assert_eq!(warm_draws(5, 500, 48), warm_draws(5, 500, 48));
        assert_ne!(warm_draws(5, 500, 48), warm_draws(6, 500, 48));
        let draws = warm_draws(5, 5000, 48);
        let count = |k: usize| draws.iter().filter(|d| d.0 == k).count();
        assert!(count(0) > count(10) && count(10) > 0);
        let explain = draws.iter().filter(|d| d.1 == Endpoint::Explain).count();
        assert!((800..1200).contains(&explain), "{explain} explain draws");
        assert!(draws.iter().all(|d| d.0 < 48));
    }

    #[test]
    fn churn_keys_are_unique_disjoint_from_the_fill_and_seeded() {
        let fill = suite_jobs(1);
        let fill_keys: HashSet<CacheKey> = fill.iter().map(Job::key).collect();
        let jobs: Vec<Job> = Churn::new(1, &fill).take(200).collect();
        let other_seed: Vec<Job> = Churn::new(2, &fill).take(200).collect();
        let keys: HashSet<CacheKey> = jobs.iter().map(Job::key).collect();
        assert_eq!(keys.len(), jobs.len(), "churn keys repeat");
        assert!(keys.is_disjoint(&fill_keys), "a churn key hits the fill");
        // Extent at each spec position, so renamed entries compare.
        let extents = |job: &Job| -> Vec<usize> {
            job.spec
                .chars()
                .filter(char::is_ascii_lowercase)
                .map(|c| job.sizes.extent(c.to_string()).unwrap())
                .collect()
        };
        for (i, job) in jobs.iter().enumerate() {
            let base = &fill[i % 48];
            assert_eq!(job.name, base.name);
            assert!(job.sizes.covers(&job.tc));
            for (n, b) in extents(job).into_iter().zip(extents(base)) {
                let (lo, hi) = ((b as f64 * 0.75).round(), (b as f64 * 1.25).round());
                assert!((lo..=hi).contains(&(n as f64)), "{n} outside [{lo}, {hi}]");
            }
            // The same entry repeats the same extents: the same work.
            assert_eq!(extents(job), extents(&jobs[i % 48]));
            assert_eq!(extents(job), extents(&other_seed[i]));
        }
        let again: Vec<String> = Churn::new(1, &fill).take(200).map(|j| j.body()).collect();
        let bodies: Vec<String> = jobs.iter().map(Job::body).collect();
        assert_eq!(bodies, again);
        let other: Vec<String> = other_seed.iter().map(Job::body).collect();
        assert_ne!(bodies, other);
    }

    #[test]
    fn request_body_names_every_extent() {
        let job = &suite_jobs(1)[0];
        let body = Json::parse(&job.body()).unwrap();
        assert_eq!(
            body.get("contraction").and_then(Json::as_str),
            Some(job.spec.as_str())
        );
        let sizes = body.get("sizes").and_then(Json::as_object).unwrap();
        assert_eq!(sizes.len(), job.sizes.len());
    }
}
