//! Request parsing and endpoint logic for `cogent serve`.
//!
//! Connection threads do the cheap work — JSON parsing and validation —
//! so malformed requests are answered with a 400 without ever consuming
//! an admission-queue slot or a worker. Workers run only the expensive
//! part ([`execute`]) under the panic-isolation boundary in
//! [`super::Server`].

use std::time::{Duration, Instant};

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::StoreMode;
use cogent_ir::{Contraction, SizeMap};
use cogent_obs::flight::FlightTimeline;
use cogent_obs::json::Json;
use cogent_obs::{Capture, PipelineTrace};

use crate::audit::{audit_contraction, AuditOptions};
use crate::cache::CacheKey;
use crate::guard::CogentError;
use crate::select::SearchOptions;
use crate::{Cogent, GeneratedKernel};

use super::fault::ServeFault;
use super::http::Response;
use super::SharedState;

/// One fully validated generation request.
#[derive(Debug, Clone)]
pub struct GenerateSpec {
    /// The contraction to generate for.
    pub tc: Contraction,
    /// Representative extents.
    pub sizes: SizeMap,
    /// Target device.
    pub device: GpuDevice,
    /// Arithmetic precision.
    pub precision: Precision,
    /// Output semantics.
    pub store_mode: StoreMode,
    /// Chaos-test fault to apply in the worker (only ever `Some` when the
    /// server allows fault injection).
    pub fault: Option<ServeFault>,
}

/// What a worker should do for one admitted request.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// `POST /v1/generate`: full kernel (sources included).
    Generate(GenerateSpec),
    /// `POST /v1/explain`: search/provenance summary, no sources.
    Explain(GenerateSpec),
    /// `POST /v1/batch`: several generations in one request.
    Batch(Vec<GenerateSpec>),
    /// `POST /v1/audit`: model-accuracy audit for one contraction.
    Audit {
        /// The contraction + platform under audit.
        spec: GenerateSpec,
        /// How many top configurations to re-measure.
        top_k: usize,
    },
}

impl JobKind {
    /// The fault injected into this job, if any.
    pub fn fault(&self) -> Option<ServeFault> {
        match self {
            JobKind::Generate(spec) | JobKind::Explain(spec) => spec.fault,
            JobKind::Audit { spec, .. } => spec.fault,
            JobKind::Batch(jobs) => jobs.iter().find_map(|spec| spec.fault),
        }
    }

    /// Endpoint label for metrics.
    pub fn endpoint(&self) -> &'static str {
        match self {
            JobKind::Generate(_) => "generate",
            JobKind::Explain(_) => "explain",
            JobKind::Batch(_) => "batch",
            JobKind::Audit { .. } => "audit",
        }
    }
}

/// A 400 with a typed code, used by every parse failure.
fn bad_request(code: &str, detail: &str) -> Response {
    Response::error(400, "Bad Request", code, detail)
}

/// Parses the JSON body of a POST endpooint into a [`JobKind`] plus the
/// request deadline.
///
/// # Errors
///
/// A ready-to-send 4xx response describing the problem.
pub fn parse_job(
    path: &str,
    body: &[u8],
    state: &SharedState,
) -> Result<(JobKind, Instant), Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| bad_request("malformed_request", "body is not valid UTF-8"))?;
    let json = Json::parse(text)
        .map_err(|e| bad_request("malformed_request", &format!("body is not JSON: {e}")))?;
    let deadline = parse_deadline(&json, state)?;
    let kind = match path {
        "/v1/generate" => JobKind::Generate(parse_spec(&json, state)?),
        "/v1/explain" => JobKind::Explain(parse_spec(&json, state)?),
        "/v1/audit" => {
            let top_k = match json.get("top_k") {
                None => 8,
                Some(v) => v
                    .as_u128()
                    .and_then(|k| usize::try_from(k).ok())
                    .filter(|k| (1..=64).contains(k))
                    .ok_or_else(|| {
                        bad_request("invalid_argument", "top_k must be an integer in 1..=64")
                    })?,
            };
            JobKind::Audit {
                spec: parse_spec(&json, state)?,
                top_k,
            }
        }
        "/v1/batch" => {
            let jobs = json
                .get("jobs")
                .and_then(Json::as_array)
                .ok_or_else(|| bad_request("invalid_argument", "batch needs a jobs array"))?;
            if jobs.is_empty() {
                return Err(bad_request("invalid_argument", "jobs array is empty"));
            }
            if jobs.len() > 64 {
                return Err(bad_request(
                    "invalid_argument",
                    "at most 64 jobs per batch request",
                ));
            }
            let specs = jobs
                .iter()
                .map(|job| parse_spec(job, state))
                .collect::<Result<Vec<_>, _>>()?;
            JobKind::Batch(specs)
        }
        other => {
            return Err(Response::error(
                404,
                "Not Found",
                "not_found",
                &format!("unknown endpoint {other:?}"),
            ))
        }
    };
    Ok((kind, deadline))
}

/// Parses one generation spec object (the whole body for single-kernel
/// endpoints, one element of `jobs` for batches).
fn parse_spec(json: &Json, state: &SharedState) -> Result<GenerateSpec, Response> {
    let spec = json
        .get("contraction")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_request("invalid_contraction", "missing contraction member"))?;
    let tc: Contraction = spec
        .parse()
        .map_err(|e| bad_request("invalid_contraction", &format!("{e}")))?;
    let sizes = parse_sizes(json, &tc)?;
    if !sizes.covers(&tc) {
        let missing: Vec<String> = tc
            .all_indices()
            .filter(|i| sizes.extent(i).is_none())
            .map(|i| i.to_string())
            .collect();
        return Err(bad_request(
            "incomplete_sizes",
            &format!("missing extents for {}", missing.join(", ")),
        ));
    }
    let device = match json.get("device").and_then(Json::as_str) {
        None | Some("v100") => GpuDevice::v100(),
        Some("p100") => GpuDevice::p100(),
        Some(other) => {
            return Err(bad_request(
                "unknown_device",
                &format!("unknown device {other:?} (want v100 or p100)"),
            ))
        }
    };
    let precision = match json.get("precision").and_then(Json::as_str) {
        None | Some("f64") => Precision::F64,
        Some("f32") => Precision::F32,
        Some(other) => {
            return Err(bad_request(
                "unknown_precision",
                &format!("unknown precision {other:?} (want f32 or f64)"),
            ))
        }
    };
    let store_mode = match json.get("store_mode").and_then(Json::as_str) {
        None | Some("assign") => StoreMode::Assign,
        Some("accumulate") => StoreMode::Accumulate,
        Some(other) => {
            return Err(bad_request(
                "unknown_store_mode",
                &format!("unknown store mode {other:?} (want assign or accumulate)"),
            ))
        }
    };
    let fault = match ServeFault::from_request(json) {
        Ok(None) => None,
        Ok(Some(fault)) if state.allow_fault_injection => Some(fault),
        Ok(Some(_)) => {
            return Err(bad_request(
                "fault_injection_disabled",
                "this server does not accept fault injection",
            ))
        }
        Err(why) => return Err(bad_request("invalid_argument", &why)),
    };
    Ok(GenerateSpec {
        tc,
        sizes,
        device,
        precision,
        store_mode,
        fault,
    })
}

fn parse_sizes(json: &Json, tc: &Contraction) -> Result<SizeMap, Response> {
    if let Some(uniform) = json.get("uniform") {
        let extent = uniform
            .as_u128()
            .and_then(|v| usize::try_from(v).ok())
            .filter(|v| *v > 0)
            .ok_or_else(|| bad_request("invalid_sizes", "uniform must be a positive integer"))?;
        return Ok(SizeMap::uniform(tc, extent));
    }
    let Some(Json::Object(members)) = json.get("sizes") else {
        return Err(bad_request(
            "invalid_sizes",
            "need sizes (object of index: extent) or uniform (integer)",
        ));
    };
    let mut pairs: Vec<(String, usize)> = Vec::with_capacity(members.len());
    for (name, extent) in members {
        let extent = extent
            .as_u128()
            .and_then(|v| usize::try_from(v).ok())
            .filter(|v| *v > 0)
            .ok_or_else(|| {
                bad_request(
                    "invalid_sizes",
                    &format!("extent of {name:?} must be a positive integer"),
                )
            })?;
        pairs.push((name.clone(), extent));
    }
    Ok(SizeMap::from_pairs(
        pairs.iter().map(|(n, e)| (n.as_str(), *e)),
    ))
}

fn parse_deadline(json: &Json, state: &SharedState) -> Result<Instant, Response> {
    let timeout = match json.get("deadline_ms") {
        None => state.default_deadline,
        Some(v) => {
            let ms = v
                .as_u128()
                .and_then(|ms| u64::try_from(ms).ok())
                .filter(|ms| *ms > 0)
                .ok_or_else(|| {
                    bad_request("invalid_argument", "deadline_ms must be a positive integer")
                })?;
            Duration::from_millis(ms).min(state.max_deadline)
        }
    };
    Ok(Instant::now() + timeout)
}

/// The generator used for cache keys and actual searches. The
/// per-request deadline is applied only to the search itself, as its
/// `time_budget`; the cache key does not depend on it, because
/// [`Cogent::options_fingerprint`] leaves the budget out (a warm hit is a
/// warm hit however patient the client is).
fn base_generator(spec: &GenerateSpec) -> Cogent {
    Cogent::new()
        .device(spec.device.clone())
        .precision(spec.precision)
        .store_mode(spec.store_mode)
}

/// Runs one admitted job. Called from a worker inside the panic-isolation
/// boundary; `deadline` is the request deadline (already checked to be in
/// the future when the job was dequeued). The `timeline` accumulates the
/// request's flight-recorder facts (cache outcome, search time and phase
/// seams, truncation, provenance); pass
/// [`FlightTimeline::detached`] when nothing records the flight.
pub fn execute(
    kind: &JobKind,
    deadline: Instant,
    state: &SharedState,
    timeline: &mut FlightTimeline,
) -> Response {
    match kind {
        JobKind::Generate(spec) => generate_response(spec, deadline, state, true, timeline),
        JobKind::Explain(spec) => generate_response(spec, deadline, state, false, timeline),
        JobKind::Batch(specs) => {
            let results: Vec<Json> = specs
                .iter()
                .map(|spec| {
                    let response = generate_response(spec, deadline, state, true, timeline);
                    match Json::parse(&response.body) {
                        Ok(json) => Json::obj([
                            ("status", Json::UInt(u128::from(response.status))),
                            ("result", json),
                        ]),
                        Err(_) => Json::obj([("status", Json::UInt(500))]),
                    }
                })
                .collect();
            Response::json(200, "OK", &Json::obj([("results", Json::Array(results))]))
        }
        JobKind::Audit { spec, top_k } => audit_response(spec, *top_k, deadline, timeline),
    }
}

/// Splices the top-level phase seams of a search trace into the flight
/// timeline as `phase:<name>` events, rebased onto the request clock.
/// Two levels deep: the nested capture's children (the `generate` span)
/// plus their children (the actual pipeline phases).
fn absorb_search_phases(timeline: &mut FlightTimeline, trace: &PipelineTrace, base_ns: u64) {
    for child in &trace.root.children {
        timeline.mark_at(&format!("phase:{}", child.name), base_ns + child.start_ns);
        for grandchild in &child.children {
            timeline.mark_at(
                &format!("phase:{}", grandchild.name),
                base_ns + grandchild.start_ns,
            );
        }
    }
}

/// Generation with explicit cache handling.
fn generate_response(
    spec: &GenerateSpec,
    deadline: Instant,
    state: &SharedState,
    with_sources: bool,
    timeline: &mut FlightTimeline,
) -> Response {
    if let Some(fault) = spec.fault {
        fault.apply();
    }
    let base = base_generator(spec);
    let key = CacheKey::new(
        &spec.tc,
        &spec.sizes,
        &spec.device,
        spec.precision,
        &base.options_fingerprint(),
    );
    if let Some(hit) = state.cache.get(&key) {
        timeline.mark("cache.hit");
        timeline.set_cache("hit");
        timeline.set_provenance(&hit.provenance.to_string());
        return Response::json(200, "OK", &kernel_json(&hit, "hit", with_sources));
    }
    timeline.mark("cache.miss");
    timeline.set_cache("miss");
    let Some(budget) = deadline.checked_duration_since(Instant::now()) else {
        return deadline_response();
    };
    let options = SearchOptions {
        time_budget: Some(budget),
        ..SearchOptions::default()
    };
    let search_base_ns = timeline.elapsed_ns();
    let capture = Capture::start("serve.search");
    let result = base.search_options(options).generate(&spec.tc, &spec.sizes);
    timeline.add_search_ns(timeline.elapsed_ns().saturating_sub(search_base_ns));
    if let Some(trace) = capture.finish() {
        absorb_search_phases(timeline, &trace, search_base_ns);
    }
    match result {
        Ok(kernel) => {
            timeline.set_truncated(kernel.search.truncated);
            timeline.set_provenance(&kernel.provenance.to_string());
            // Only cache (and persist) complete searches: a
            // deadline-truncated search is not the canonical kernel for
            // this key, and caching it would break warm-path
            // byte-identity for later, more patient callers.
            if !kernel.search.truncated {
                state.cache.insert(key, kernel.clone());
                if let Some(persister) = &state.persister {
                    if persister.save_dirty(&state.cache).is_err() {
                        cogent_obs::counter("serve.persist.error", 1);
                    }
                }
            }
            Response::json(200, "OK", &kernel_json(&kernel, "miss", with_sources))
        }
        Err(CogentError::BudgetExhausted { .. }) => deadline_response(),
        Err(err @ CogentError::IncompleteSizes { .. }) => {
            Response::error(400, "Bad Request", "incomplete_sizes", &err.to_string())
        }
        Err(err @ (CogentError::NoConfiguration | CogentError::NoViablePlan { .. })) => {
            Response::error(
                422,
                "Unprocessable Entity",
                "no_viable_plan",
                &err.to_string(),
            )
        }
        Err(err) => Response::error(
            500,
            "Internal Server Error",
            "generation_failed",
            &err.to_string(),
        ),
    }
}

/// The 504 every deadline path produces.
pub fn deadline_response() -> Response {
    Response::error(
        504,
        "Gateway Timeout",
        "deadline_exceeded",
        "the request deadline expired before generation finished",
    )
}

fn audit_response(
    spec: &GenerateSpec,
    top_k: usize,
    deadline: Instant,
    timeline: &mut FlightTimeline,
) -> Response {
    if let Some(fault) = spec.fault {
        fault.apply();
    }
    let Some(budget) = deadline.checked_duration_since(Instant::now()) else {
        return deadline_response();
    };
    let options = AuditOptions {
        top_k,
        search: SearchOptions {
            time_budget: Some(budget),
            ..SearchOptions::default()
        },
        ..AuditOptions::default()
    };
    let name = spec
        .tc
        .to_tccg_string()
        .unwrap_or_else(|| spec.tc.to_string());
    let search_base_ns = timeline.elapsed_ns();
    let capture = Capture::start("serve.audit");
    let result = audit_contraction(
        &name,
        &spec.tc,
        &spec.sizes,
        &spec.device,
        spec.precision,
        &options,
    );
    timeline.add_search_ns(timeline.elapsed_ns().saturating_sub(search_base_ns));
    if let Some(trace) = capture.finish() {
        absorb_search_phases(timeline, &trace, search_base_ns);
    }
    match result {
        Ok(audit) => Response::json(200, "OK", &audit_json(&audit)),
        Err(CogentError::BudgetExhausted { .. }) => deadline_response(),
        Err(err) => Response::error(
            422,
            "Unprocessable Entity",
            "audit_failed",
            &err.to_string(),
        ),
    }
}

/// The response body for `/v1/audit`: the rank-quality summary plus the
/// per-configuration relative errors.
fn audit_json(audit: &crate::audit::ContractionAudit) -> Json {
    let configs: Vec<Json> = audit
        .configs
        .iter()
        .map(|config| {
            Json::obj([
                ("model_rank", Json::UInt(config.model_rank as u128)),
                ("predicted", Json::UInt(config.predicted.total())),
                ("measured", Json::UInt(config.measured.total())),
                ("rel_error", Json::Float(config.rel_error())),
            ])
        })
        .collect();
    Json::obj([
        ("name", Json::Str(audit.name.clone())),
        ("spec", Json::Str(audit.spec.clone())),
        ("spearman", Json::Float(audit.spearman)),
        ("regret", Json::Float(audit.regret)),
        ("configs", Json::Array(configs)),
    ])
}

/// The response body for generate/explain/batch results. Every member is
/// a pure function of the (persisted) kernel plus the `cache` marker, so
/// warm responses are byte-identical across a server restart.
fn kernel_json(kernel: &GeneratedKernel, cache: &str, with_sources: bool) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        (
            "contraction".to_string(),
            Json::Str(
                kernel
                    .contraction
                    .to_tccg_string()
                    .unwrap_or_else(|| kernel.contraction.to_string()),
            ),
        ),
        ("config".to_string(), Json::Str(kernel.config.to_string())),
        (
            "provenance".to_string(),
            Json::Str(kernel.provenance.to_string()),
        ),
        (
            "passes".to_string(),
            Json::Array(
                kernel
                    .provenance
                    .passes
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
        ("gflops".to_string(), Json::Float(kernel.report.gflops)),
        (
            "predicted_time_s".to_string(),
            Json::Float(kernel.report.time.total_s),
        ),
        (
            "blocks".to_string(),
            Json::UInt(kernel.report.blocks as u128),
        ),
        (
            "threads_per_block".to_string(),
            Json::UInt(kernel.report.threads_per_block as u128),
        ),
        (
            "smem_bytes".to_string(),
            Json::UInt(kernel.report.smem_bytes as u128),
        ),
        (
            "search".to_string(),
            Json::obj([
                ("enumerated", Json::UInt(kernel.search.enumerated as u128)),
                ("survivors", Json::UInt(kernel.search.survivors as u128)),
                ("truncated", Json::Bool(kernel.search.truncated)),
            ]),
        ),
        ("cache".to_string(), Json::Str(cache.to_string())),
    ];
    if with_sources {
        members.push((
            "cuda_source".to_string(),
            Json::Str(kernel.cuda_source.clone()),
        ));
        members.push((
            "opencl_source".to_string(),
            Json::Str(kernel.opencl_source.clone()),
        ));
    }
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KernelCache;
    use std::sync::Arc;

    fn test_state(allow_faults: bool) -> SharedState {
        SharedState::for_tests(Arc::new(KernelCache::new(8)), allow_faults)
    }

    fn parse(path: &str, body: &str, state: &SharedState) -> Result<(JobKind, Instant), Response> {
        parse_job(path, body.as_bytes(), state)
    }

    #[test]
    fn parses_a_minimal_generate_request() {
        let state = test_state(false);
        let (kind, deadline) = parse(
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":16}"#,
            &state,
        )
        .unwrap();
        assert!(deadline > Instant::now());
        let JobKind::Generate(spec) = kind else {
            panic!("wrong kind");
        };
        assert_eq!(spec.tc.to_tccg_string().unwrap(), "ij-ik-kj");
        assert_eq!(spec.sizes.extent("i"), Some(16));
        assert_eq!(spec.precision, Precision::F64);
        assert!(spec.fault.is_none());
    }

    #[test]
    fn explicit_sizes_devices_and_modes() {
        let state = test_state(false);
        let body = r#"{"contraction":"ij-ik-kj","sizes":{"i":8,"j":12,"k":16},
                       "device":"p100","precision":"f32","store_mode":"accumulate"}"#;
        let (kind, _) = parse("/v1/generate", body, &state).unwrap();
        let JobKind::Generate(spec) = kind else {
            panic!("wrong kind");
        };
        assert_eq!(spec.device.name, "Tesla P100");
        assert_eq!(spec.precision, Precision::F32);
        assert_eq!(spec.store_mode, StoreMode::Accumulate);
        assert_eq!(spec.sizes.extent("j"), Some(12));
    }

    #[test]
    fn rejects_malformed_bodies_with_typed_codes() {
        let state = test_state(false);
        for (body, code) in [
            ("not json", "malformed_request"),
            (r#"{"uniform":16}"#, "invalid_contraction"),
            (
                r#"{"contraction":"not-a-spec!!","uniform":16}"#,
                "invalid_contraction",
            ),
            (r#"{"contraction":"ij-ik-kj"}"#, "invalid_sizes"),
            (r#"{"contraction":"ij-ik-kj","uniform":0}"#, "invalid_sizes"),
            (
                r#"{"contraction":"ij-ik-kj","sizes":{"i":8}}"#,
                "incomplete_sizes",
            ),
            (
                r#"{"contraction":"ij-ik-kj","uniform":8,"device":"tpu"}"#,
                "unknown_device",
            ),
            (
                r#"{"contraction":"ij-ik-kj","uniform":8,"deadline_ms":0}"#,
                "invalid_argument",
            ),
        ] {
            let resp = parse("/v1/generate", body, &state).unwrap_err();
            assert_eq!(resp.status, 400, "{body}");
            assert!(resp.body.contains(code), "{body} → {}", resp.body);
        }
    }

    #[test]
    fn fault_injection_is_rejected_unless_allowed() {
        let body = r#"{"contraction":"ij-ik-kj","uniform":8,"inject":"panic"}"#;
        let resp = parse("/v1/generate", body, &test_state(false)).unwrap_err();
        assert!(resp.body.contains("fault_injection_disabled"));
        let (kind, _) = parse("/v1/generate", body, &test_state(true)).unwrap();
        assert_eq!(kind.fault(), Some(ServeFault::WorkerPanic));
    }

    #[test]
    fn batch_parses_each_job() {
        let state = test_state(false);
        let body = r#"{"jobs":[
            {"contraction":"ij-ik-kj","uniform":8},
            {"contraction":"abc-bda-dc","uniform":4}
        ]}"#;
        let (kind, _) = parse("/v1/batch", body, &state).unwrap();
        let JobKind::Batch(specs) = kind else {
            panic!("wrong kind")
        };
        assert_eq!(specs.len(), 2);
        assert!(parse("/v1/batch", r#"{"jobs":[]}"#, &state).is_err());
    }

    #[test]
    fn unknown_endpoint_is_404() {
        let resp = parse("/v1/transmogrify", "{}", &test_state(false)).unwrap_err();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn execute_generates_and_caches() {
        let state = test_state(false);
        let (kind, deadline) = parse(
            "/v1/generate",
            r#"{"contraction":"ij-ik-kj","uniform":16}"#,
            &state,
        )
        .unwrap();
        let mut cold_timeline = FlightTimeline::detached();
        let cold = execute(&kind, deadline, &state, &mut cold_timeline);
        assert_eq!(cold.status, 200);
        assert!(cold.body.contains("\"cache\":\"miss\""));
        assert!(cold.body.contains("__global__"));
        let mut warm_timeline = FlightTimeline::detached();
        let warm = execute(
            &kind,
            deadline + Duration::from_secs(5),
            &state,
            &mut warm_timeline,
        );
        assert_eq!(warm.status, 200);
        assert!(warm.body.contains("\"cache\":\"hit\""));
        // The timelines record the cache outcome and the search cost.
        let cold_record = cold_timeline.finish(200);
        assert_eq!(cold_record.cache, "miss");
        assert!(cold_record.search_ns > 0, "cold path searched");
        assert!(!cold_record.provenance.is_empty());
        assert!(cold_record.events.iter().any(|e| e.label == "cache.miss"));
        let warm_record = warm_timeline.finish(200);
        assert_eq!(warm_record.cache, "hit");
        assert_eq!(warm_record.search_ns, 0, "warm path never searches");
        assert!(warm_record.events.iter().any(|e| e.label == "cache.hit"));
        // Modulo the hit/miss marker, the payloads agree byte for byte.
        assert_eq!(
            warm.body.replace("\"cache\":\"hit\"", "\"cache\":\"miss\""),
            cold.body
        );
    }

    #[test]
    fn explain_omits_sources() {
        let state = test_state(false);
        let (kind, deadline) = parse(
            "/v1/explain",
            r#"{"contraction":"ij-ik-kj","uniform":16}"#,
            &state,
        )
        .unwrap();
        let resp = execute(&kind, deadline, &state, &mut FlightTimeline::detached());
        assert_eq!(resp.status, 200);
        assert!(!resp.body.contains("cuda_source"));
        assert!(resp.body.contains("\"search\""));
    }

    #[test]
    fn expired_deadline_is_504() {
        let state = test_state(false);
        let (kind, _) = parse(
            "/v1/generate",
            r#"{"contraction":"abcd-aebf-dfce","uniform":16}"#,
            &state,
        )
        .unwrap();
        let resp = execute(
            &kind,
            Instant::now() - Duration::from_millis(1),
            &state,
            &mut FlightTimeline::detached(),
        );
        assert_eq!(resp.status, 504);
        assert!(resp.body.contains("deadline_exceeded"));
    }
}
