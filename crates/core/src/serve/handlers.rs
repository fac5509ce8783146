//! Request parsing and endpoint logic for `cogent serve`.
//!
//! Connection threads do the cheap work — JSON parsing and validation —
//! so malformed requests are answered with a 400 without ever consuming
//! an admission-queue slot or a worker. Workers run only the expensive
//! part ([`execute`]) under the panic-isolation boundary in
//! [`super::Server`].

use std::time::{Duration, Instant};

use cogent_obs::json::Json;

use crate::audit::{audit_contraction, AuditOptions, AuditReport};
use crate::cache::CacheKey;
use crate::guard::{CogentError, PlanSource, Provenance};
use crate::request::Request;
use crate::select::SearchOptions;
use crate::GeneratedKernel;

use super::fault::ServeFault;
use super::http::{error_json, Response};
use super::SharedState;

/// Schema id of the kernel document `/v1/generate`, `/v1/explain` and
/// each `/v1/batch` result carry.
const KERNEL_SCHEMA: &str = "cogent.kernel.v1";

/// One request as served: the [`Request`] plus the fault its `inject`
/// member asks a chaos-test server for.
#[derive(Debug, Clone)]
pub struct Served {
    /// The generation request.
    pub request: Request,
    /// The fault the worker applies first, if any.
    pub fault: Option<ServeFault>,
}

/// What a worker should do for one admitted request.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// `POST /v1/generate`: the kernel document, sources included.
    Generate(Served),
    /// `POST /v1/explain`: the kernel document without the sources.
    Explain(Served),
    /// `POST /v1/batch`: several generations in one request.
    Batch(Vec<Served>),
    /// `POST /v1/audit`: model-accuracy audit of the `top_k` best
    /// configurations of one contraction.
    Audit(Served, usize),
}

/// A 400 with a typed code, used by every parse failure.
fn bad_request(code: &str, detail: &str) -> Response {
    Response::error(400, "Bad Request", code, detail)
}

/// Parses the JSON body of a POST endpoint into a [`JobKind`] plus the
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
        "/v1/generate" => JobKind::Generate(parse_request(&json, state)?),
        "/v1/explain" => JobKind::Explain(parse_request(&json, state)?),
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
            JobKind::Audit(parse_request(&json, state)?, top_k)
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
            let served = jobs.iter().map(|job| parse_request(job, state));
            JobKind::Batch(served.collect::<Result<_, _>>()?)
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

/// Parses one generation request (the whole body for single-kernel
/// endpoints, one element of `jobs` for batches) and its `inject` member.
fn parse_request(json: &Json, state: &SharedState) -> Result<Served, Response> {
    let request = Request::from_json(json).map_err(|e| bad_request(e.code, &e.message))?;
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
    Ok(Served { request, fault })
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

/// Runs one admitted job. Called from a worker inside the panic-isolation
/// boundary; `deadline` is the request deadline (already checked to be in
/// the future when the job was dequeued). The request's facts — cache
/// outcome (counted by the cache), truncation and provenance — are
/// counters on the innermost open span, and each search runs under a
/// `serve.search` (or `serve.audit`) span, so the worker's capture holds
/// the whole request.
pub fn execute(kind: &JobKind, deadline: Instant, state: &SharedState) -> Response {
    match kind {
        JobKind::Generate(served) => generate(served, deadline, state, true).into_response(),
        JobKind::Explain(served) => generate(served, deadline, state, false).into_response(),
        JobKind::Batch(batch) => {
            // Each result nests the document `/v1/generate` answers for
            // its job, rendered once with the whole batch.
            let results: Vec<Json> = batch
                .iter()
                .map(|served| {
                    let answer = generate(served, deadline, state, true);
                    Json::obj([
                        ("status", Json::UInt(u128::from(answer.status))),
                        ("result", answer.json),
                    ])
                })
                .collect();
            Response::json(200, "OK", &Json::obj([("results", Json::Array(results))]))
        }
        JobKind::Audit(served, top_k) => audit_response(served, *top_k, deadline),
    }
}

/// One generation's answer before it is rendered: the status line and
/// the JSON document (the kernel, or the typed error envelope).
struct Answer {
    status: u16,
    reason: &'static str,
    json: Json,
}

impl Answer {
    fn ok(json: Json) -> Self {
        Self {
            status: 200,
            reason: "OK",
            json,
        }
    }

    fn error(status: u16, reason: &'static str, code: &str, detail: &str) -> Self {
        Self {
            status,
            reason,
            json: error_json(code, detail),
        }
    }

    fn into_response(self) -> Response {
        Response::json(self.status, self.reason, &self.json)
    }
}

/// Counts one kernel's provenance on the open span: the model rank of
/// the search candidate it came from (`serve.provenance.model_rank.<rank>`),
/// or the naive fallback. One count per kernel, so a batch's record keeps
/// how many of its jobs came from each rank.
fn count_provenance(provenance: &Provenance) {
    let name = match provenance.source {
        PlanSource::Search { model_rank } => format!("serve.provenance.model_rank.{model_rank}"),
        PlanSource::NaiveFallback => "serve.provenance.naive_fallback".to_string(),
    };
    cogent_obs::counter(&name, 1);
}

/// Generation with explicit cache handling. A hit renders straight from
/// the cache's shared entry. A cold kernel is rendered before it moves
/// into the cache, and its search is recorded in the worker's capture
/// only, so neither is copied.
fn generate(
    Served { request, fault }: &Served,
    deadline: Instant,
    state: &SharedState,
    with_sources: bool,
) -> Answer {
    if let Some(fault) = fault {
        fault.apply();
    }
    let generator = request.generator();
    // The deadline only budgets the search: the cache key leaves the
    // budget out (see `Cogent::options_fingerprint`).
    let key = CacheKey::new(
        &request.contraction,
        &request.sizes,
        &request.device,
        request.precision,
        &generator.options_fingerprint(),
    );
    if let Some(hit) = state.cache.get(&key) {
        count_provenance(&hit.provenance);
        return Answer::ok(kernel_json(&hit, "hit", with_sources));
    }
    let Some(budget) = deadline.checked_duration_since(Instant::now()) else {
        return deadline_answer();
    };
    let options = SearchOptions {
        time_budget: Some(budget),
        ..SearchOptions::default()
    };
    let result = {
        let _search = cogent_obs::span("serve.search");
        generator.search_options(options).generate_keeping_trace(
            &request.contraction,
            &request.sizes,
            false,
        )
    };
    match result {
        Ok(kernel) => {
            if kernel.search.truncated {
                cogent_obs::counter("serve.truncated", 1);
            }
            count_provenance(&kernel.provenance);
            let answer = Answer::ok(kernel_json(&kernel, "miss", with_sources));
            // Only cache (and persist) complete searches: a
            // deadline-truncated search is not the canonical kernel for
            // this key, and caching it would break warm-path
            // byte-identity for later, more patient callers.
            if !kernel.search.truncated {
                state.cache.insert(key, kernel);
                if let Some(persister) = &state.persister {
                    if persister.save_dirty(&state.cache).is_err() {
                        cogent_obs::counter("serve.persist.error", 1);
                    }
                }
            }
            answer
        }
        Err(CogentError::BudgetExhausted { .. }) => deadline_answer(),
        Err(err @ (CogentError::NoConfiguration | CogentError::NoViablePlan { .. })) => {
            Answer::error(
                422,
                "Unprocessable Entity",
                "no_viable_plan",
                &err.to_string(),
            )
        }
        Err(err) => Answer::error(
            500,
            "Internal Server Error",
            "generation_failed",
            &err.to_string(),
        ),
    }
}

/// The 504 every deadline path produces.
pub fn deadline_response() -> Response {
    deadline_answer().into_response()
}

fn deadline_answer() -> Answer {
    Answer::error(
        504,
        "Gateway Timeout",
        "deadline_exceeded",
        "the request deadline expired before generation finished",
    )
}

/// `/v1/audit`: the `cogent.audit.v1` report of the one contraction,
/// the document `cogent audit <spec> --json` prints.
fn audit_response(Served { request, fault }: &Served, top_k: usize, deadline: Instant) -> Response {
    if let Some(fault) = fault {
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
    let result = {
        let _audit = cogent_obs::span("serve.audit");
        audit_contraction(
            &request.spec,
            &request.contraction,
            &request.sizes,
            &request.device,
            request.precision,
            &options,
        )
    };
    match result {
        Ok(audit) => {
            let report = AuditReport::from_contractions(top_k, vec![audit]);
            Response::json(200, "OK", &report.to_json())
        }
        Err(CogentError::BudgetExhausted { .. }) => deadline_response(),
        Err(err) => Response::error(
            422,
            "Unprocessable Entity",
            "audit_failed",
            &err.to_string(),
        ),
    }
}

/// The kernel document (`cogent.kernel.v1`), its only writer. Every
/// member is a pure function of the (persisted) kernel plus the `cache`
/// marker, so warm responses are byte-identical across a server restart.
fn kernel_json(kernel: &GeneratedKernel, cache: &str, with_sources: bool) -> Json {
    let (report, search) = (&kernel.report, &kernel.search);
    let contraction = kernel.contraction.to_tccg_string();
    let passes = kernel
        .provenance
        .passes
        .iter()
        .map(|p| Json::from(p.as_str()));
    let mut members = vec![
        ("schema", Json::from(KERNEL_SCHEMA)),
        (
            "contraction",
            Json::from(contraction.unwrap_or_else(|| kernel.contraction.to_string())),
        ),
        ("config", Json::from(kernel.config.to_string())),
        ("provenance", Json::from(kernel.provenance.to_string())),
        ("passes", Json::Array(passes.collect())),
        ("gflops", Json::from(report.gflops)),
        ("predicted_time_s", Json::from(report.time.total_s)),
        ("blocks", Json::from(report.blocks)),
        ("threads_per_block", Json::from(report.threads_per_block)),
        ("smem_bytes", Json::from(report.smem_bytes)),
        (
            "search",
            Json::obj([
                ("enumerated", Json::from(search.enumerated)),
                ("survivors", Json::from(search.survivors)),
                ("truncated", Json::from(search.truncated)),
            ]),
        ),
        ("cache", Json::from(cache)),
    ];
    if with_sources {
        members.push(("cuda_source", Json::from(kernel.cuda_source.as_str())));
        members.push(("opencl_source", Json::from(kernel.opencl_source.as_str())));
    }
    Json::obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KernelCache;
    use cogent_gpu_model::Precision;
    use cogent_gpu_sim::plan::StoreMode;
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
        let JobKind::Generate(Served { request, fault }) = kind else {
            panic!("wrong kind");
        };
        assert_eq!(request.contraction.to_tccg_string().unwrap(), "ij-ik-kj");
        assert_eq!(request.sizes.extent("i"), Some(16));
        assert_eq!(request.precision, Precision::F64);
        assert!(fault.is_none());
    }

    #[test]
    fn explicit_sizes_devices_and_modes() {
        let state = test_state(false);
        let body = r#"{"contraction":"ij-ik-kj","sizes":{"i":8,"j":12,"k":16},
                       "device":"p100","precision":"f32","store_mode":"accumulate"}"#;
        let (kind, _) = parse("/v1/generate", body, &state).unwrap();
        let JobKind::Generate(Served { request, .. }) = kind else {
            panic!("wrong kind");
        };
        assert_eq!(request.device.name, "Tesla P100");
        assert_eq!(request.precision, Precision::F32);
        assert_eq!(request.store_mode, StoreMode::Accumulate);
        assert_eq!(request.sizes.extent("j"), Some(12));
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
                r#"{"contraction":"ij-ik-kj","sizes":{"i":8,"1x":8,"k":8}}"#,
                "invalid_sizes",
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
        let fault = Some(ServeFault::WorkerPanic);
        assert!(matches!(kind, JobKind::Generate(Served { fault: f, .. }) if f == fault));
    }

    #[test]
    fn batch_parses_each_job() {
        // The second job has a batch index, which parses as from the CLI.
        let state = test_state(false);
        let body = r#"{"jobs":[
            {"contraction":"ij-ik-kj","uniform":8},
            {"contraction":"ijn-ikn-kjn","uniform":4}
        ]}"#;
        let (kind, _) = parse("/v1/batch", body, &state).unwrap();
        let JobKind::Batch(batch) = kind else {
            panic!("wrong kind")
        };
        assert_eq!(batch.len(), 2);
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
        cogent_obs::set_enabled(true);
        let capture = cogent_obs::Capture::start("serve.job");
        let cold = execute(&kind, deadline, &state);
        let cold_trace = capture.finish().expect("tracing is on");
        assert_eq!(cold.status, 200);
        assert!(cold.body.contains("\"cache\":\"miss\""));
        assert!(cold.body.contains("__global__"));
        let capture = cogent_obs::Capture::start("serve.job");
        let warm = execute(&kind, deadline + Duration::from_secs(5), &state);
        let warm_trace = capture.finish().expect("tracing is on");
        assert_eq!(warm.status, 200);
        assert!(warm.body.contains("\"cache\":\"hit\""));
        // The open capture records the cache outcome, one provenance
        // count per kernel, and the search under it.
        let facts = |trace: &cogent_obs::PipelineTrace| {
            let cache = ["cache.hit", "cache.miss"].map(|name| trace.root.counter(name));
            let counters = trace.root.counters.iter();
            let provenance = counters.filter(|(name, _)| name.starts_with("serve.provenance."));
            (cache, provenance.map(|(_, n)| *n).collect::<Vec<_>>())
        };
        assert_eq!(facts(&cold_trace), ([None, Some(1)], vec![1]));
        assert!(
            cold_trace.find("serve.search").is_some(),
            "cold path searched"
        );
        assert!(cold_trace.find("rank").is_some(), "the search nests whole");
        assert_eq!(facts(&warm_trace), ([Some(1), None], vec![1]));
        assert!(
            warm_trace.find("serve.search").is_none(),
            "warm path never searches"
        );
        // A batch's two hits count the same rank once each.
        let job = r#"{"contraction":"ij-ik-kj","uniform":16}"#;
        let (batch, _) =
            parse("/v1/batch", &format!(r#"{{"jobs":[{job},{job}]}}"#), &state).unwrap();
        let capture = cogent_obs::Capture::start("serve.job");
        assert_eq!(
            execute(&batch, deadline + Duration::from_secs(5), &state).status,
            200
        );
        let batch_trace = capture.finish().expect("tracing is on");
        assert_eq!(facts(&batch_trace), ([Some(2), None], vec![2]));
        // Modulo the hit/miss marker, the payloads agree byte for byte.
        assert_eq!(
            warm.body.replace("\"cache\":\"hit\"", "\"cache\":\"miss\""),
            cold.body
        );
    }

    #[test]
    fn batch_results_are_the_generate_documents() {
        let state = test_state(false);
        let specs = [
            r#"{"contraction":"ij-ik-kj","uniform":16}"#,
            r#"{"contraction":"abc-bda-dc","uniform":6}"#,
        ];
        let (warm, deadline) = parse("/v1/generate", specs[0], &state).unwrap();
        assert_eq!(execute(&warm, deadline, &state).status, 200);
        // Past the deadline the first job is a hit and the second, which
        // would need a search, is a 504: one result of each kind.
        let expired = Instant::now() - Duration::from_millis(1);
        let body = format!(r#"{{"jobs":[{},{}]}}"#, specs[0], specs[1]);
        let (batch, _) = parse("/v1/batch", &body, &state).unwrap();
        let JobKind::Batch(jobs) = &batch else {
            panic!("wrong kind");
        };
        let batch = execute(&batch, expired, &state);
        assert_eq!(batch.status, 200);
        let singles: Vec<Response> = jobs
            .iter()
            .map(|served| execute(&JobKind::Generate(served.clone()), expired, &state))
            .collect();
        assert_eq!(
            singles.iter().map(|r| r.status).collect::<Vec<_>>(),
            [200, 504]
        );
        // The form the batch body had when each result was rendered,
        // parsed back and nested.
        let reparsed = singles.iter().map(|single| {
            Json::obj([
                ("status", Json::UInt(u128::from(single.status))),
                ("result", Json::parse(&single.body).unwrap()),
            ])
        });
        let old_form = Json::obj([("results", Json::Array(reparsed.collect()))]);
        assert_eq!(batch.body, Response::json(200, "OK", &old_form).body);
        // Each result, written alone, is the `/v1/generate` body.
        let json = Json::parse(&batch.body).unwrap();
        let results = json.get("results").and_then(Json::as_array).unwrap();
        for (result, single) in results.iter().zip(&singles) {
            let mut text = String::new();
            result.get("result").unwrap().write(&mut text);
            text.push('\n');
            assert_eq!(text, single.body);
        }
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
        let resp = execute(&kind, deadline, &state);
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
        let resp = execute(&kind, Instant::now() - Duration::from_millis(1), &state);
        assert_eq!(resp.status, 504);
        assert!(resp.body.contains("deadline_exceeded"));
    }
}
