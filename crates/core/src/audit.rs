//! Cost-model accuracy auditing: predicted vs. measured DRAM transactions.
//!
//! COGENT's bet (paper §5, Fig. 8) is that the analytical transaction
//! model of [`cost`](crate::cost) *ranks* kernel configurations well
//! enough that its top pick is near-optimal. This module measures that
//! claim: for a contraction it takes the model's top-K configurations,
//! replays each through the `cogent-gpu-sim` address-level tracer, and
//! reports three fidelity signals —
//!
//! * **relative error** of each prediction against its measurement
//!   (histogrammed in parts-per-million so traces stay integer-valued);
//! * **Spearman rank correlation** between the model's ordering and the
//!   simulated ordering (1.0 = the model sorts configurations exactly as
//!   the simulator does);
//! * **regret**: how many more measured transactions the model's #1 pick
//!   costs relative to the best configuration in the audited set
//!   (0.0 = the model picked the simulated optimum).
//!
//! [`AuditReport`] aggregates these over a suite (e.g. the 48-entry TCCG
//! benchmark) and serializes to the `cogent.audit.v1` JSON schema
//! (`cogent audit --json`). The workspace test `tests/audit_fidelity.rs`
//! pins every TCCG entry's Spearman correlation, regret and p99 relative
//! error against recorded values.
//!
//! Audits are spanned (`audit.contraction` with a nested `audit.measure`
//! per re-measured configuration), so `cogent profile` can attribute
//! audit wall time, and the `audit.*` counters/histograms/gauges recorded
//! here merge into the process-global metrics registry exposed by
//! `cogent stats` ([`cogent_obs::metrics_snapshot`]).

use std::time::Instant;

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::KernelPlan;
use cogent_gpu_sim::{trace_transactions, TraceOptions, TraceReport};
use cogent_ir::{Contraction, SizeMap};
use cogent_kir::{estimate_traffic, TrafficReport};
use cogent_obs::json::Json;
use cogent_obs::metrics::Histogram;

use crate::codegen::{lower_with_passes, PassConfig};
use crate::cost::CostBreakdown;
use crate::guard::CogentError;
use crate::select::{search, SearchOptions};

/// Schema identifier embedded in every serialized audit report.
pub const AUDIT_SCHEMA: &str = "cogent.audit.v1";

/// Controls for an audit run.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// How many of the model's top configurations to measure per
    /// contraction.
    pub top_k: usize,
    /// Search controls (its own `top_k` is raised to at least
    /// [`AuditOptions::top_k`]).
    pub search: SearchOptions,
    /// Tracer sampling; [`TraceOptions::exhaustive`] gives exact counts at
    /// a cost.
    pub trace: TraceOptions,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            top_k: 8,
            search: SearchOptions::default(),
            trace: TraceOptions::default(),
        }
    }
}

/// One configuration's predicted-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct ConfigAudit {
    /// Position in the model's ranking (0 = the model's pick).
    pub model_rank: usize,
    /// The model's transaction estimate.
    pub predicted: CostBreakdown,
    /// The tracer's measurement.
    pub measured: TraceReport,
}

impl ConfigAudit {
    /// `|predicted − measured| / measured` on launch totals.
    pub fn rel_error(&self) -> f64 {
        let p = self.predicted.total() as f64;
        let m = self.measured.total().max(1) as f64;
        (p - m).abs() / m
    }
}

/// Predicted memory-system effect of the default KIR pass pipeline on
/// the model's pick, from the [`cogent_kir::estimate_traffic`] warp-level
/// traffic model: the baseline lowering vs. the same plan after
/// `vectorize-loads`, `smem-pad`, `double-buffer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTraffic {
    /// Passes that actually applied to the pick, in order.
    pub passes: Vec<String>,
    /// Traffic of the baseline (passes-off) lowering.
    pub before: TrafficReport,
    /// Traffic after the default pipeline.
    pub after: TrafficReport,
}

impl PassTraffic {
    /// Did the pipeline strictly reduce global-memory warp requests?
    pub fn improved(&self) -> bool {
        self.after.global_requests < self.before.global_requests
    }

    /// Did the pipeline *increase* global-memory warp requests? (A
    /// correct pipeline never should; the audit surfaces it if one does.)
    pub fn regressed(&self) -> bool {
        self.after.global_requests > self.before.global_requests
    }
}

/// Runs the traffic estimator on the model pick's plan, baseline vs.
/// default pipeline. `None` when either lowering or estimate fails —
/// the audit's fidelity metrics are still valid without it.
fn pass_traffic(plan: &KernelPlan, precision: Precision) -> Option<PassTraffic> {
    let (baseline, _) = lower_with_passes(plan, precision, &PassConfig::None).ok()?;
    let before = estimate_traffic(&baseline).ok()?;
    let (optimized, passes) = lower_with_passes(plan, precision, &PassConfig::Default).ok()?;
    let after = estimate_traffic(&optimized).ok()?;
    Some(PassTraffic {
        passes,
        before,
        after,
    })
}

/// Audit results for one contraction.
#[derive(Debug, Clone)]
pub struct ContractionAudit {
    /// Suite entry name (or the spec itself for ad-hoc audits).
    pub name: String,
    /// The contraction spec, e.g. `"abcd-aebf-dfce"`.
    pub spec: String,
    /// Per-configuration comparisons, in model-rank order.
    pub configs: Vec<ConfigAudit>,
    /// Spearman rank correlation between model and simulated orderings.
    pub spearman: f64,
    /// Relative excess of the model pick's measured cost over the best
    /// measured cost in the audited set.
    pub regret: f64,
    /// Relative errors in parts-per-million.
    pub rel_error_ppm: Histogram,
    /// Wall-clock time of the configuration search.
    pub search_latency_ns: u64,
    /// Wall-clock time of the whole audit (search + tracing).
    pub audit_latency_ns: u64,
    /// Predicted effect of the default KIR pass pipeline on the model's
    /// pick (`None` when the estimator declined the plan).
    pub pass_traffic: Option<PassTraffic>,
}

/// Spearman rank correlation between two paired samples, with
/// average-rank tie handling (Pearson correlation on the rank vectors).
///
/// Degenerate cases: fewer than two pairs correlate perfectly (1.0); two
/// constant sides are also 1.0 (both orderings are equally
/// uninformative); exactly one constant side is 0.0 (the constant side
/// cannot discriminate values the other side distinguishes).
pub fn spearman(xs: &[u128], ys: &[u128]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired samples");
    let n = xs.len();
    if n < 2 {
        return 1.0;
    }
    let rx = average_ranks(xs);
    let ry = average_ranks(ys);
    let mean = (n as f64 + 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for i in 0..n {
        let dx = rx[i] - mean;
        let dy = ry[i] - mean;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    match (var_x == 0.0, var_y == 0.0) {
        (true, true) => 1.0,
        (true, false) | (false, true) => 0.0,
        (false, false) => cov / (var_x * var_y).sqrt(),
    }
}

/// 1-based ranks of `values`, ties resolved to the average of the ranks
/// they span.
fn average_ranks(values: &[u128]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by_key(|&i| values[i]);
    let mut ranks = vec![0.0; values.len()];
    let mut pos = 0;
    while pos < order.len() {
        let mut end = pos + 1;
        while end < order.len() && values[order[end]] == values[order[pos]] {
            end += 1;
        }
        // Positions pos..end hold equal values; ranks are 1-based.
        let avg = (pos + 1 + end) as f64 / 2.0;
        for &i in &order[pos..end] {
            ranks[i] = avg;
        }
        pos = end;
    }
    ranks
}

/// Audits one contraction: searches, measures the model's top
/// [`AuditOptions::top_k`] configurations with the transaction tracer,
/// and summarizes fidelity.
///
/// # Errors
///
/// [`CogentError::NoConfiguration`] when the search yields no ranked
/// configuration, or a [`CogentError::Plan`] when a ranked configuration
/// fails to lower (both indicate pipeline bugs rather than bad inputs).
pub fn audit_contraction(
    name: &str,
    tc: &Contraction,
    sizes: &SizeMap,
    device: &GpuDevice,
    precision: Precision,
    options: &AuditOptions,
) -> Result<ContractionAudit, CogentError> {
    let _span = cogent_obs::span("audit.contraction");
    let started = Instant::now();
    let mut search_options = options.search.clone();
    search_options.top_k = search_options.top_k.max(options.top_k);
    let search_started = Instant::now();
    let outcome = search(tc, sizes, device, precision, &search_options);
    let search_latency_ns = search_started.elapsed().as_nanos() as u64;
    if outcome.ranked.is_empty() {
        return Err(CogentError::NoConfiguration);
    }
    let mut configs = Vec::new();
    let mut rel_error_ppm = Histogram::new();
    let mut traffic = None;
    for (model_rank, ranked) in outcome.ranked.iter().take(options.top_k).enumerate() {
        let plan = ranked
            .config
            .lower(&outcome.contraction, sizes)
            .map_err(CogentError::Plan)?;
        if model_rank == 0 {
            traffic = pass_traffic(&plan, precision);
        }
        let measured = {
            // Separately spanned so `cogent profile` can split an audit's
            // wall time between the search and the simulator re-measure.
            let _measure = cogent_obs::span("audit.measure");
            trace_transactions(&plan, device, precision, options.trace)
        };
        let audit = ConfigAudit {
            model_rank,
            predicted: ranked.cost,
            measured,
        };
        let ppm = (audit.rel_error() * 1e6).round() as u128;
        rel_error_ppm.record(ppm);
        cogent_obs::histogram("audit.rel_error_ppm", ppm);
        cogent_obs::counter("audit.configs_measured", 1);
        configs.push(audit);
    }
    let predicted: Vec<u128> = configs.iter().map(|c| c.predicted.total()).collect();
    let measured: Vec<u128> = configs.iter().map(|c| c.measured.total()).collect();
    let spearman = spearman(&predicted, &measured);
    let best = measured.iter().copied().min().unwrap_or(1).max(1);
    let regret = (measured[0].saturating_sub(best)) as f64 / best as f64;
    cogent_obs::gauge("audit.spearman", spearman);
    cogent_obs::gauge("audit.regret", regret);
    cogent_obs::histogram("audit.search_latency_ns", u128::from(search_latency_ns));
    Ok(ContractionAudit {
        name: name.to_string(),
        spec: outcome.contraction.to_string(),
        configs,
        spearman,
        regret,
        rel_error_ppm,
        search_latency_ns,
        audit_latency_ns: started.elapsed().as_nanos() as u64,
        pass_traffic: traffic,
    })
}

/// Suite-level aggregation of [`ContractionAudit`]s.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// How many configurations each contraction audited (the requested K).
    pub top_k: usize,
    /// Per-contraction results, in suite order.
    pub contractions: Vec<ContractionAudit>,
    /// Mean Spearman correlation across contractions.
    pub mean_spearman: f64,
    /// Worst (lowest) Spearman correlation.
    pub min_spearman: f64,
    /// Mean regret across contractions.
    pub mean_regret: f64,
    /// Worst (highest) regret.
    pub max_regret: f64,
    /// All relative-error samples, merged, in parts-per-million.
    pub rel_error_ppm: Histogram,
    /// Sum of per-contraction search latencies.
    pub total_search_latency_ns: u64,
    /// Contractions where the default pass pipeline strictly reduced
    /// predicted global-memory requests on the model pick.
    pub traffic_improved: usize,
    /// Contractions where the pipeline *increased* predicted requests
    /// (should always be 0; surfaced so a bad pass is loud).
    pub traffic_regressed: usize,
}

impl AuditReport {
    /// Aggregates per-contraction audits into a suite report.
    ///
    /// # Panics
    ///
    /// Panics when `contractions` is empty — an empty audit has no
    /// meaningful aggregate and would otherwise serialize NaNs.
    pub fn from_contractions(top_k: usize, contractions: Vec<ContractionAudit>) -> Self {
        assert!(
            !contractions.is_empty(),
            "audit report needs ≥ 1 contraction"
        );
        let n = contractions.len() as f64;
        let mean_spearman = contractions.iter().map(|c| c.spearman).sum::<f64>() / n;
        let min_spearman = contractions
            .iter()
            .map(|c| c.spearman)
            .fold(f64::INFINITY, f64::min);
        let mean_regret = contractions.iter().map(|c| c.regret).sum::<f64>() / n;
        let max_regret = contractions
            .iter()
            .map(|c| c.regret)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut rel_error_ppm = Histogram::new();
        for c in &contractions {
            rel_error_ppm.merge(&c.rel_error_ppm);
        }
        let total_search_latency_ns = contractions.iter().map(|c| c.search_latency_ns).sum();
        let traffic_improved = contractions
            .iter()
            .filter(|c| c.pass_traffic.as_ref().is_some_and(PassTraffic::improved))
            .count();
        let traffic_regressed = contractions
            .iter()
            .filter(|c| c.pass_traffic.as_ref().is_some_and(PassTraffic::regressed))
            .count();
        Self {
            top_k,
            contractions,
            mean_spearman,
            min_spearman,
            mean_regret,
            max_regret,
            rel_error_ppm,
            total_search_latency_ns,
            traffic_improved,
            traffic_regressed,
        }
    }

    /// Serializes to the `cogent.audit.v1` schema.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(AUDIT_SCHEMA)),
            ("top_k", Json::from(self.top_k)),
            (
                "contractions",
                Json::Array(self.contractions.iter().map(contraction_json).collect()),
            ),
            (
                "aggregate",
                Json::obj([
                    ("contractions", Json::from(self.contractions.len())),
                    ("mean_spearman", Json::Float(self.mean_spearman)),
                    ("min_spearman", Json::Float(self.min_spearman)),
                    ("mean_regret", Json::Float(self.mean_regret)),
                    ("max_regret", Json::Float(self.max_regret)),
                    ("rel_error_ppm", histogram_json(&self.rel_error_ppm)),
                    (
                        "total_search_latency_ns",
                        Json::from(self.total_search_latency_ns),
                    ),
                    (
                        "pass_traffic",
                        Json::obj([
                            ("improved", Json::from(self.traffic_improved)),
                            ("regressed", Json::from(self.traffic_regressed)),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    /// Renders a fixed-width text table plus an aggregate footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>5} {:>9} {:>8} {:>12} {:>12} {:>12} {:>10} {:>8}\n",
            "contraction",
            "k",
            "spearman",
            "regret",
            "relerr p50",
            "relerr p90",
            "relerr p99",
            "search",
            "Δreq"
        ));
        for c in &self.contractions {
            out.push_str(&format!(
                "{:<24} {:>5} {:>9.4} {:>8.4} {:>12} {:>12} {:>12} {:>10} {:>8}\n",
                c.name,
                c.configs.len(),
                c.spearman,
                c.regret,
                fmt_ppm(c.rel_error_ppm.p50()),
                fmt_ppm(c.rel_error_ppm.p90()),
                fmt_ppm(c.rel_error_ppm.p99()),
                cogent_obs::render::fmt_ns(c.search_latency_ns),
                fmt_traffic_delta(c.pass_traffic.as_ref()),
            ));
        }
        out.push_str(&format!(
            "aggregate over {}: spearman mean {:.4} min {:.4} | regret mean {:.4} max {:.4} | rel err p50 {} p90 {} p99 {} | search {} | pass requests reduced {}/{}, regressed {}\n",
            self.contractions.len(),
            self.mean_spearman,
            self.min_spearman,
            self.mean_regret,
            self.max_regret,
            fmt_ppm(self.rel_error_ppm.p50()),
            fmt_ppm(self.rel_error_ppm.p90()),
            fmt_ppm(self.rel_error_ppm.p99()),
            cogent_obs::render::fmt_ns(self.total_search_latency_ns),
            self.traffic_improved,
            self.contractions.len(),
            self.traffic_regressed,
        ));
        out
    }
}

/// Formats a parts-per-million relative error as a percentage.
fn fmt_ppm(ppm: Option<u128>) -> String {
    match ppm {
        Some(v) => format!("{:.3}%", v as f64 / 10_000.0),
        None => "-".to_string(),
    }
}

/// Formats the pass pipeline's predicted request change as a signed
/// percentage (negative = fewer warp requests after the pipeline).
fn fmt_traffic_delta(traffic: Option<&PassTraffic>) -> String {
    match traffic {
        None => "-".to_string(),
        Some(t) => {
            let before = t.before.global_requests.max(1) as f64;
            let delta = t.after.global_requests as f64 - t.before.global_requests as f64;
            format!("{:+.1}%", delta / before * 100.0)
        }
    }
}

fn histogram_json(h: &Histogram) -> Json {
    Json::obj([
        ("count", Json::UInt(h.count())),
        ("mean", Json::Float(h.mean().unwrap_or(0.0))),
        ("min", Json::UInt(h.min().unwrap_or(0))),
        ("max", Json::UInt(h.max().unwrap_or(0))),
        ("p50", Json::UInt(h.p50().unwrap_or(0))),
        ("p90", Json::UInt(h.p90().unwrap_or(0))),
        ("p99", Json::UInt(h.p99().unwrap_or(0))),
    ])
}

fn pass_traffic_json(traffic: Option<&PassTraffic>) -> Json {
    match traffic {
        None => Json::Null,
        Some(t) => Json::obj([
            (
                "passes",
                Json::Array(t.passes.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("requests_before", Json::from(t.before.global_requests)),
            ("requests_after", Json::from(t.after.global_requests)),
            ("replays_before", Json::from(t.before.smem_replays)),
            ("replays_after", Json::from(t.after.smem_replays)),
            ("barriers_before", Json::from(t.before.barriers)),
            ("barriers_after", Json::from(t.after.barriers)),
        ]),
    }
}

fn contraction_json(c: &ContractionAudit) -> Json {
    Json::obj([
        ("name", Json::Str(c.name.clone())),
        ("spec", Json::Str(c.spec.clone())),
        ("spearman", Json::Float(c.spearman)),
        ("regret", Json::Float(c.regret)),
        ("rel_error_ppm", histogram_json(&c.rel_error_ppm)),
        ("search_latency_ns", Json::from(c.search_latency_ns)),
        ("audit_latency_ns", Json::from(c.audit_latency_ns)),
        ("pass_traffic", pass_traffic_json(c.pass_traffic.as_ref())),
        (
            "configs",
            Json::Array(
                c.configs
                    .iter()
                    .map(|cfg| {
                        Json::obj([
                            ("model_rank", Json::from(cfg.model_rank)),
                            ("predicted", Json::UInt(cfg.predicted.total())),
                            ("measured", Json::UInt(cfg.measured.total())),
                            ("rel_error", Json::Float(cfg.rel_error())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_perfect_and_reversed() {
        assert_eq!(spearman(&[1, 2, 3, 4], &[10, 20, 30, 40]), 1.0);
        assert_eq!(spearman(&[1, 2, 3, 4], &[40, 30, 20, 10]), -1.0);
    }

    #[test]
    fn spearman_handles_ties_and_degenerates() {
        // Ties on one side reduce (but don't destroy) the correlation.
        let r = spearman(&[1, 1, 2, 3], &[5, 6, 7, 8]);
        assert!(r > 0.9 && r < 1.0, "{r}");
        assert_eq!(spearman(&[7], &[9]), 1.0);
        assert_eq!(spearman(&[], &[]), 1.0);
        assert_eq!(spearman(&[5, 5, 5], &[5, 5, 5]), 1.0);
        assert_eq!(spearman(&[5, 5, 5], &[1, 2, 3]), 0.0);
    }

    #[test]
    fn average_ranks_split_ties() {
        assert_eq!(average_ranks(&[10, 20, 30]), vec![1.0, 2.0, 3.0]);
        assert_eq!(average_ranks(&[20, 10, 10]), vec![3.0, 1.5, 1.5]);
    }

    #[test]
    fn audits_a_small_contraction() {
        let tc: Contraction = "ab-ac-cb".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 32);
        let options = AuditOptions {
            top_k: 4,
            ..AuditOptions::default()
        };
        let audit = audit_contraction(
            "matmul-32",
            &tc,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &options,
        )
        .unwrap();
        assert_eq!(audit.name, "matmul-32");
        assert!(!audit.configs.is_empty() && audit.configs.len() <= 4);
        assert_eq!(audit.rel_error_ppm.count(), audit.configs.len() as u128);
        assert!((-1.0..=1.0).contains(&audit.spearman));
        assert!(audit.regret >= 0.0);
        // The model pick's measurement backs the regret arithmetic.
        let measured: Vec<u128> = audit.configs.iter().map(|c| c.measured.total()).collect();
        let best = *measured.iter().min().unwrap();
        let expect = (measured[0] - best) as f64 / best as f64;
        assert!((audit.regret - expect).abs() < 1e-12);
        // The traffic estimator accepted the pick and the default
        // pipeline never made it worse.
        let traffic = audit.pass_traffic.as_ref().unwrap();
        assert!(traffic.after.global_requests <= traffic.before.global_requests);
        assert!(traffic.after.smem_replays <= traffic.before.smem_replays);
        assert!(!traffic.regressed());
    }

    #[test]
    fn audit_is_deterministic() {
        let tc: Contraction = "abc-ad-bdc".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 16);
        let options = AuditOptions {
            top_k: 3,
            ..AuditOptions::default()
        };
        let run = || {
            audit_contraction(
                "t",
                &tc,
                &sizes,
                &GpuDevice::v100(),
                Precision::F32,
                &options,
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.spearman, b.spearman);
        assert_eq!(a.regret, b.regret);
        assert_eq!(a.rel_error_ppm, b.rel_error_ppm);
    }

    #[test]
    fn report_aggregates_and_serializes() {
        let tc: Contraction = "ab-ac-cb".parse().unwrap();
        let sizes = SizeMap::uniform(&tc, 24);
        let options = AuditOptions {
            top_k: 3,
            ..AuditOptions::default()
        };
        let one = audit_contraction(
            "m24",
            &tc,
            &sizes,
            &GpuDevice::v100(),
            Precision::F64,
            &options,
        )
        .unwrap();
        let report = AuditReport::from_contractions(3, vec![one.clone(), one]);
        assert_eq!(report.contractions.len(), 2);
        assert_eq!(report.mean_spearman, report.min_spearman);
        assert_eq!(
            report.rel_error_ppm.count(),
            2 * report.contractions[0].rel_error_ppm.count()
        );
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(AUDIT_SCHEMA));
        let agg = json.get("aggregate").unwrap();
        assert_eq!(agg.get("contractions").unwrap().as_u128(), Some(2));
        assert!(agg.get("mean_spearman").unwrap().as_f64().is_some());
        assert!(agg.get("rel_error_ppm").unwrap().get("p99").is_some());
        assert!(agg.get("pass_traffic").unwrap().get("regressed").is_some());
        let entry = match json.get("contractions").unwrap() {
            Json::Array(entries) => entries[0].clone(),
            other => panic!("contractions should be an array, got {other:?}"),
        };
        assert!(entry
            .get("pass_traffic")
            .unwrap()
            .get("requests_before")
            .is_some());
        // The document round-trips through the parser.
        assert!(Json::parse(&json.to_string()).is_ok());
        let text = report.render_text();
        assert!(text.contains("m24"));
        assert!(text.contains("aggregate over 2"));
    }
}
