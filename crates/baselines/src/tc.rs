//! A Tensor-Comprehensions-like genetic autotuner.
//!
//! TC compiles a contraction through a polyhedral optimizer and searches
//! the mapping space with a genetic algorithm (population 100, 20
//! generations in the paper's experiments), evaluating every candidate by
//! actually running it. This engine reproduces that regime against the
//! virtual GPU: the genome encodes a raw mapping (no COGENT pruning, no
//! FVI rules, arbitrary power-of-two tiles), fitness is simulated kernel
//! time, and the per-evaluation best-so-far trace reproduces Fig. 8's
//! "GFLOPS vs number of code versions" curves.

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::{IndexBinding, KernelPlan, MapDim};
use cogent_gpu_sim::simulate;
use cogent_ir::{Contraction, ContractionAnalysis, IndexClass, SizeMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Measurement;

/// One point of the tuning trace: the best configuration found after
/// `evaluations` kernel evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Kernel evaluations (code versions) tried so far.
    pub evaluations: usize,
    /// Best simulated GFLOPS so far.
    pub gflops: f64,
}

/// Result of one autotuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TcResult {
    /// Performance of TC's untuned default mapping (the paper: "<1 GFLOP").
    pub untuned: Measurement,
    /// Performance of the best configuration found by the GA.
    pub tuned: Measurement,
    /// Best-so-far trace, one point per evaluation.
    pub trace: Vec<TracePoint>,
    /// Total kernel evaluations performed.
    pub evaluations: usize,
}

/// Search strategy for the autotuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Genetic algorithm (tournament selection + crossover + mutation),
    /// what Tensor Comprehensions uses.
    #[default]
    Genetic,
    /// Pure random sampling with the same evaluation budget — the ablation
    /// showing what the GA's structure buys.
    Random,
}

/// The genetic autotuner.
#[derive(Debug, Clone)]
pub struct TcAutotuner {
    /// Population size per generation (paper setting: 100).
    pub population: usize,
    /// Number of generations (paper setting: 20).
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// How candidates are proposed.
    pub strategy: SearchStrategy,
}

impl Default for TcAutotuner {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 20,
            mutation_rate: 0.25,
            seed: 0x7c0,
            strategy: SearchStrategy::Genetic,
        }
    }
}

/// Genome: per external index a dimension choice + tile exponent, per
/// internal index a tile exponent.
#[derive(Debug, Clone, PartialEq)]
struct Genome {
    /// For externals: 0..=2 → thread / register / grid.
    ext_dim: Vec<u8>,
    /// Tile exponents (tile = 2^e, clipped to the extent).
    ext_tile: Vec<u8>,
    int_tile: Vec<u8>,
}

const MAX_TILE_EXP: u8 = 5; // tiles up to 32

struct Problem {
    tc: Contraction,
    sizes: SizeMap,
    ext: Vec<(cogent_ir::IndexName, usize, IndexClass)>,
    ints: Vec<(cogent_ir::IndexName, usize)>,
}

impl Problem {
    fn new(tc: &Contraction, sizes: &SizeMap) -> Self {
        let tc = tc.normalized();
        let analysis = ContractionAnalysis::new(&tc);
        let ext = tc
            .external_indices()
            .iter()
            .map(|i| {
                (
                    i.clone(),
                    sizes.extent_of(i),
                    analysis.classify(i).expect("external"),
                )
            })
            .collect();
        let ints = tc
            .internal_indices()
            .iter()
            .map(|i| (i.clone(), sizes.extent_of(i)))
            .collect();
        Self {
            tc,
            sizes: sizes.clone(),
            ext,
            ints,
        }
    }

    fn random_genome(&self, rng: &mut StdRng) -> Genome {
        Genome {
            ext_dim: (0..self.ext.len()).map(|_| rng.gen_range(0..3)).collect(),
            ext_tile: (0..self.ext.len())
                .map(|_| rng.gen_range(0..=MAX_TILE_EXP))
                .collect(),
            int_tile: (0..self.ints.len())
                .map(|_| rng.gen_range(0..=MAX_TILE_EXP))
                .collect(),
        }
    }

    /// TC's untuned default: a trivially mapped kernel — the first index
    /// of each input on a thread dimension with tile 1, everything else
    /// serial/grid. Mirrors the paper's observation that unturned TC is
    /// essentially scalar (<1 GFLOP).
    fn untuned_genome(&self) -> Genome {
        Genome {
            ext_dim: vec![2; self.ext.len()], // everything grid-mapped
            ext_tile: vec![0; self.ext.len()],
            int_tile: vec![0; self.ints.len()],
        }
    }

    /// Decodes a genome into a plan. Returns `None` for structurally
    /// invalid mappings (they receive the worst fitness).
    fn decode(&self, g: &Genome) -> Option<KernelPlan> {
        let mut bindings = Vec::new();
        for (i, (name, extent, class)) in self.ext.iter().enumerate() {
            let tile = (1usize << g.ext_tile[i]).min(*extent);
            let dim = match (g.ext_dim[i], class) {
                (0, IndexClass::ExternalA) => MapDim::ThreadX,
                (1, IndexClass::ExternalA) => MapDim::RegX,
                (0, IndexClass::ExternalB) => MapDim::ThreadY,
                (1, IndexClass::ExternalB) => MapDim::RegY,
                (_, _) => MapDim::Grid,
            };
            let tile = if dim == MapDim::Grid { 1 } else { tile };
            bindings.push(IndexBinding::new(name.clone(), *extent, tile, dim));
        }
        for (i, (name, extent)) in self.ints.iter().enumerate() {
            let tile = (1usize << g.int_tile[i]).min(*extent);
            bindings.push(IndexBinding::new(
                name.clone(),
                *extent,
                tile,
                MapDim::SerialK,
            ));
        }
        for name in self.tc.batch_indices() {
            bindings.push(IndexBinding::new(
                name.clone(),
                self.sizes.extent_of(name),
                1,
                MapDim::Grid,
            ));
        }
        KernelPlan::new(&self.tc, bindings).ok()
    }
}

impl TcAutotuner {
    /// Creates a tuner with the paper's settings (population 100,
    /// 20 generations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the full autotuning loop for one contraction.
    ///
    /// # Examples
    ///
    /// ```
    /// use cogent_baselines::TcAutotuner;
    /// use cogent_gpu_model::{GpuDevice, Precision};
    /// use cogent_ir::{Contraction, SizeMap};
    ///
    /// let tc: Contraction = "abcd-aebf-dfce".parse()?;
    /// let sizes = SizeMap::uniform(&tc, 32);
    /// let mut tuner = TcAutotuner::new();
    /// tuner.population = 10;
    /// tuner.generations = 3;
    /// let result = tuner.tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
    /// assert!(result.tuned.gflops >= result.untuned.gflops);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn tune(
        &self,
        tc: &Contraction,
        sizes: &SizeMap,
        device: &GpuDevice,
        precision: Precision,
    ) -> TcResult {
        let problem = Problem::new(tc, sizes);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let flops = ContractionAnalysis::new(&problem.tc).flops(&problem.sizes) as f64;

        let evaluate = |g: &Genome| -> f64 {
            match problem.decode(g) {
                None => f64::INFINITY,
                Some(plan) => simulate(&plan, device, precision).time.total_s,
            }
        };

        let untuned_time = evaluate(&problem.untuned_genome());
        let untuned = Measurement {
            time_s: untuned_time,
            gflops: if untuned_time.is_finite() {
                flops / untuned_time / 1e9
            } else {
                0.0
            },
        };

        let mut population: Vec<(Genome, f64)> = (0..self.population)
            .map(|_| {
                let g = problem.random_genome(&mut rng);
                let t = evaluate(&g);
                (g, t)
            })
            .collect();

        let mut trace = Vec::new();
        let mut best_time = f64::INFINITY;
        let mut evaluations = 0usize;
        let record = |t: f64, trace: &mut Vec<TracePoint>, evals: &mut usize, best: &mut f64| {
            *evals += 1;
            if t < *best {
                *best = t;
            }
            trace.push(TracePoint {
                evaluations: *evals,
                gflops: if best.is_finite() {
                    flops / *best / 1e9
                } else {
                    0.0
                },
            });
        };
        for (_, t) in &population {
            record(*t, &mut trace, &mut evaluations, &mut best_time);
        }

        for _gen in 1..self.generations {
            let mut next: Vec<(Genome, f64)> = Vec::with_capacity(self.population);
            // Elitism: carry the best genome forward unchanged.
            if let Some(best) = population
                .iter()
                .min_by(|x, y| x.1.partial_cmp(&y.1).expect("times are not NaN"))
            {
                next.push(best.clone());
            }
            while next.len() < self.population {
                let child = match self.strategy {
                    SearchStrategy::Genetic => {
                        let parent_a = tournament(&population, &mut rng);
                        let parent_b = tournament(&population, &mut rng);
                        let mut child = crossover(parent_a, parent_b, &mut rng);
                        mutate(&mut child, self.mutation_rate, &mut rng);
                        child
                    }
                    SearchStrategy::Random => problem.random_genome(&mut rng),
                };
                let t = evaluate(&child);
                record(t, &mut trace, &mut evaluations, &mut best_time);
                next.push((child, t));
            }
            population = next;
        }

        let tuned = Measurement {
            time_s: best_time,
            gflops: if best_time.is_finite() {
                flops / best_time / 1e9
            } else {
                0.0
            },
        };
        TcResult {
            untuned,
            tuned,
            trace,
            evaluations,
        }
    }
}

fn tournament<'a>(population: &'a [(Genome, f64)], rng: &mut StdRng) -> &'a Genome {
    let a = &population[rng.gen_range(0..population.len())];
    let b = &population[rng.gen_range(0..population.len())];
    if a.1 <= b.1 {
        &a.0
    } else {
        &b.0
    }
}

fn crossover(a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
    let pick = |x: &[u8], y: &[u8], rng: &mut StdRng| -> Vec<u8> {
        x.iter()
            .zip(y)
            .map(|(&xa, &xb)| if rng.gen_bool(0.5) { xa } else { xb })
            .collect()
    };
    Genome {
        ext_dim: pick(&a.ext_dim, &b.ext_dim, rng),
        ext_tile: pick(&a.ext_tile, &b.ext_tile, rng),
        int_tile: pick(&a.int_tile, &b.int_tile, rng),
    }
}

fn mutate(g: &mut Genome, rate: f64, rng: &mut StdRng) {
    for v in g.ext_dim.iter_mut() {
        if rng.gen_bool(rate) {
            *v = rng.gen_range(0..3);
        }
    }
    for v in g.ext_tile.iter_mut().chain(g.int_tile.iter_mut()) {
        if rng.gen_bool(rate) {
            *v = rng.gen_range(0..=MAX_TILE_EXP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tuner() -> TcAutotuner {
        TcAutotuner {
            population: 12,
            generations: 4,
            mutation_rate: 0.3,
            seed: 42,
            strategy: SearchStrategy::Genetic,
        }
    }

    #[test]
    fn tuning_improves_over_untuned() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let r = small_tuner().tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        assert!(r.tuned.gflops > r.untuned.gflops);
        assert!(r.tuned.gflops > 0.0);
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let r = small_tuner().tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        assert_eq!(r.trace.len(), r.evaluations);
        for pair in r.trace.windows(2) {
            assert!(pair[1].gflops >= pair[0].gflops);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 128);
        let r1 = small_tuner().tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        let r2 = small_tuner().tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        assert_eq!(r1.tuned, r2.tuned);
        let mut other = small_tuner();
        other.seed = 43;
        let r3 = other.tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        // Different seed explores differently (traces differ in general).
        assert!(r1.trace != r3.trace || r1.tuned == r3.tuned);
    }

    #[test]
    fn evaluation_count_matches_settings() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 64);
        let t = small_tuner();
        let r = t.tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        // population + (generations-1) * (population - 1 elite).
        assert_eq!(r.evaluations, 12 + 3 * 11);
    }

    #[test]
    fn random_strategy_also_improves_but_is_valid() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let mut t = small_tuner();
        t.strategy = SearchStrategy::Random;
        let r = t.tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        assert!(r.tuned.gflops > r.untuned.gflops);
        assert_eq!(r.trace.len(), r.evaluations);
        // Same budget as the GA variant.
        let ga = small_tuner().tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        assert_eq!(r.evaluations, ga.evaluations);
    }

    #[test]
    fn untuned_is_far_from_peak() {
        let tc: Contraction = "abcdef-gdab-efgc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let r = small_tuner().tune(&tc, &sizes, &GpuDevice::v100(), Precision::F32);
        let peak = GpuDevice::v100().peak_gflops_f32;
        assert!(
            r.untuned.gflops < 0.05 * peak,
            "untuned {}",
            r.untuned.gflops
        );
    }
}
