//! One generation request, read the same way by both front ends.
//!
//! A request is what the paper's interface takes in: a contraction, its
//! representative sizes, a device and a precision, plus the output store
//! mode and the KIR pass pipeline. The CLI builds one from its flags
//! ([`Request::from_args`]) and `cogent serve` from a JSON body
//! ([`Request::from_json`]). Every value — the contraction, each extent,
//! the size coverage, the device, precision and store-mode names — is
//! checked by one function here, so a bad value gets the same
//! [`RequestError`] from either front end: exit 2 with its message from
//! the CLI, a 400 with its code from the server.

use std::fmt;

use cogent_gpu_model::{GpuDevice, Precision};
use cogent_gpu_sim::plan::StoreMode;
use cogent_ir::parse::parse_allowing_batch;
use cogent_ir::{Contraction, IndexName, SizeMap};
use cogent_obs::json::Json;

use crate::codegen::PassConfig;
use crate::Cogent;

/// A rejected request value: a stable machine-readable `code` (the
/// server's 400 error code) and a one-line `message` (the CLI's exit-2
/// diagnostic and the server's error detail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// E.g. `invalid_sizes`, `incomplete_sizes`, `unknown_device`.
    pub code: &'static str,
    /// E.g. `unknown device "h100" (want v100 or p100)`.
    pub message: String,
}

impl RequestError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RequestError {}

/// One validated generation request: its sizes cover its contraction.
#[derive(Debug, Clone)]
pub struct Request {
    /// The contraction as the caller spelled it (an audit's name).
    pub spec: String,
    /// The parsed contraction; batch indices are allowed.
    pub contraction: Contraction,
    /// Representative extents, covering every index of `contraction`.
    pub sizes: SizeMap,
    /// Target device.
    pub device: GpuDevice,
    /// Arithmetic precision.
    pub precision: Precision,
    /// Output semantics (`C = A*B` or `C += A*B`).
    pub store_mode: StoreMode,
    /// KIR pass pipeline. Pass names are checked when generation builds
    /// the pipeline, so a typo is a generation error naming the pass.
    pub passes: PassConfig,
}

impl Request {
    /// The request for contraction `spec` under the CLI flags in `args`:
    /// `--size N` (uniform, default 32) or `--sizes i=N,j=M,...`,
    /// `--device v100|p100`, `--f32`, `--accumulate` and `--passes`.
    ///
    /// # Errors
    ///
    /// The first bad value, in that order.
    pub fn from_args(spec: &str, args: &[String]) -> Result<Self, RequestError> {
        let contraction = contraction(spec)?;
        let sizes = match flag_value(args, "--sizes") {
            Some(list) => size_list(&contraction, list)?,
            None => {
                let n = extent("--size", flag_value(args, "--size").unwrap_or("32"))?;
                SizeMap::uniform(&contraction, n)
            }
        };
        Ok(Self {
            spec: spec.to_string(),
            contraction,
            sizes,
            device: device_named(flag_value(args, "--device"))?,
            precision: if has_flag(args, "--f32") {
                Precision::F32
            } else {
                Precision::F64
            },
            store_mode: if has_flag(args, "--accumulate") {
                StoreMode::Accumulate
            } else {
                StoreMode::Assign
            },
            passes: flag_value(args, "--passes").map_or(PassConfig::None, PassConfig::parse),
        })
    }

    /// The request a JSON body describes: `contraction`, then `uniform`
    /// (an extent for every index) or `sizes` (an object of index:
    /// extent), and optionally `device`, `precision` and `store_mode`.
    /// Other members are the caller's; the passes are always none.
    ///
    /// # Errors
    ///
    /// The first bad value, in that order.
    pub fn from_json(json: &Json) -> Result<Self, RequestError> {
        let spec = json
            .get("contraction")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                RequestError::new("invalid_contraction", "missing contraction member")
            })?;
        let contraction = contraction(spec)?;
        let sizes = match (json.get("uniform"), json.get("sizes")) {
            (Some(n), _) => SizeMap::uniform(&contraction, extent("uniform", &n.to_string())?),
            (None, Some(Json::Object(members))) => size_map(
                &contraction,
                members
                    .iter()
                    .map(|(name, n)| Ok((name.as_str(), n.to_string()))),
            )?,
            _ => {
                return Err(invalid_sizes(
                    "need sizes (object of index: extent) or uniform (integer)",
                ))
            }
        };
        let name = |member: &str| json.get(member).and_then(Json::as_str);
        Ok(Self {
            spec: spec.to_string(),
            contraction,
            sizes,
            device: device_named(name("device"))?,
            precision: precision_named(name("precision"))?,
            store_mode: store_mode_named(name("store_mode"))?,
            passes: PassConfig::None,
        })
    }

    /// The generator this request configures (no cache, default search).
    pub fn generator(&self) -> Cogent {
        Cogent::new()
            .device(self.device.clone())
            .precision(self.precision)
            .store_mode(self.store_mode)
            .passes(self.passes.clone())
    }
}

/// The value following `flag` in `args`, if present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Whether `flag` appears in `args`.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses a contraction in TCCG or explicit notation, batch indices
/// allowed.
///
/// # Errors
///
/// `invalid_contraction` with the parser's message.
pub(crate) fn contraction(spec: &str) -> Result<Contraction, RequestError> {
    parse_allowing_batch(spec).map_err(|e| RequestError::new("invalid_contraction", e.to_string()))
}

/// The device `name` selects: `v100` (also the default) or `p100`.
///
/// # Errors
///
/// `unknown_device` for any other name.
pub fn device_named(name: Option<&str>) -> Result<GpuDevice, RequestError> {
    match name {
        None | Some("v100") => Ok(GpuDevice::v100()),
        Some("p100") => Ok(GpuDevice::p100()),
        Some(other) => Err(RequestError::new(
            "unknown_device",
            format!("unknown device {other:?} (want v100 or p100)"),
        )),
    }
}

/// The precision `name` selects: `f64` (also the default) or `f32`.
///
/// # Errors
///
/// `unknown_precision` for any other name.
pub(crate) fn precision_named(name: Option<&str>) -> Result<Precision, RequestError> {
    match name {
        None | Some("f64") => Ok(Precision::F64),
        Some("f32") => Ok(Precision::F32),
        Some(other) => Err(RequestError::new(
            "unknown_precision",
            format!("unknown precision {other:?} (want f32 or f64)"),
        )),
    }
}

/// The store mode `name` selects: `assign` (also the default) or
/// `accumulate`.
///
/// # Errors
///
/// `unknown_store_mode` for any other name.
fn store_mode_named(name: Option<&str>) -> Result<StoreMode, RequestError> {
    match name {
        None | Some("assign") => Ok(StoreMode::Assign),
        Some("accumulate") => Ok(StoreMode::Accumulate),
        Some(other) => Err(RequestError::new(
            "unknown_store_mode",
            format!("unknown store mode {other:?} (want assign or accumulate)"),
        )),
    }
}

fn invalid_sizes(message: impl Into<String>) -> RequestError {
    RequestError::new("invalid_sizes", message)
}

/// One extent, from its text: a positive integer. `what` names it in
/// the message (`index j`, `--size`, `uniform`).
fn extent(what: &str, raw: &str) -> Result<usize, RequestError> {
    match raw.parse::<usize>() {
        Ok(0) => Err(invalid_sizes(format!("extent for {what} must be positive"))),
        Ok(n) => Ok(n),
        Err(_) => Err(invalid_sizes(format!("bad extent {raw:?} for {what}"))),
    }
}

/// The size map of a comma-separated `index=extent` list (the CLI's
/// `--sizes` and a cache key's sizes), covering `tc`.
///
/// # Errors
///
/// The first malformed entry, bad index name or extent, or the coverage
/// failure.
pub(crate) fn size_list(tc: &Contraction, list: &str) -> Result<SizeMap, RequestError> {
    size_map(
        tc,
        list.split_terminator(',').map(|part| {
            let (name, n) = part.split_once('=').ok_or_else(|| {
                invalid_sizes(format!("bad size entry {part:?} (want index=extent)"))
            })?;
            Ok((name, n.to_string()))
        }),
    )
}

/// The size map of `(index name, extent text)` entries, checked to cover
/// every index of `tc`.
fn size_map<'a>(
    tc: &Contraction,
    entries: impl IntoIterator<Item = Result<(&'a str, String), RequestError>>,
) -> Result<SizeMap, RequestError> {
    let mut sizes = SizeMap::new();
    for entry in entries {
        let (name, raw) = entry?;
        let n = extent(&format!("index {name}"), &raw)?;
        let index = IndexName::try_new(name.trim())
            .ok_or_else(|| invalid_sizes(format!("bad index name {name:?}")))?;
        sizes.set(index, n);
    }
    if !sizes.covers(tc) {
        return Err(RequestError::new(
            "incomplete_sizes",
            "--sizes does not cover every contraction index",
        ));
    }
    Ok(sizes)
}
