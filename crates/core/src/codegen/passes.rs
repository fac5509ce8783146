//! Pass-pipeline plumbing between the plan lowering and the printers.
//!
//! The KIR optimization passes live in `cogent-kir`; this module owns the
//! *policy*: which pipeline a generator runs ([`PassConfig`]), which
//! vector width a precision gets (`double2` for f64, `float4` for f32 —
//! both 16-byte transactions), and how a transformed program is printed
//! in each backend dialect. The baseline (`PassConfig::None`) bypasses
//! the pipeline entirely, so default emission stays byte-identical to the
//! pre-pass generator.

use cogent_gpu_model::Precision;
use cogent_gpu_sim::plan::KernelPlan;
use cogent_kir::{
    lower_to_kir, pipeline_from_names, print_kernel, Dialect, KernelProgram, PassManager,
};

use crate::guard::CogentError;

use super::backend::Backend;
use super::opencl::opencl_dialect;

/// Which KIR optimization passes to run between lowering and printing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PassConfig {
    /// No passes: the baseline Algorithm-1 kernel, byte-stable against
    /// the golden emit corpus.
    #[default]
    None,
    /// The canonical pipeline (`vectorize-loads`, `smem-pad`,
    /// `double-buffer`), each pass skipping itself where inapplicable.
    Default,
    /// An explicit ordered list of pass names (the `--passes` surface).
    Custom(Vec<String>),
}

impl PassConfig {
    /// Parses a `--passes` value: `none`, `default`, or a comma-separated
    /// pass-name list. Names are validated later, at pipeline build time.
    pub fn parse(spec: &str) -> PassConfig {
        match spec.trim() {
            "" | "none" => PassConfig::None,
            "default" => PassConfig::Default,
            list => PassConfig::Custom(
                list.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
            ),
        }
    }

    /// Stable cache-key component.
    pub fn fingerprint(&self) -> String {
        match self {
            PassConfig::None => "none".to_string(),
            PassConfig::Default => "default".to_string(),
            PassConfig::Custom(names) => format!("custom:{}", names.join(",")),
        }
    }

    /// The inverse of [`PassConfig::fingerprint`].
    ///
    /// # Errors
    ///
    /// A one-line reason when `text` is not a pass-pipeline fingerprint.
    pub(crate) fn from_fingerprint(text: &str) -> Result<PassConfig, String> {
        match (text, text.strip_prefix("custom:")) {
            ("none", _) => Ok(PassConfig::None),
            ("default", _) => Ok(PassConfig::Default),
            (_, Some(list)) => Ok(PassConfig::Custom(
                list.split_terminator(',').map(str::to_string).collect(),
            )),
            (_, None) => Err(format!("passes: unknown pipeline {text:?}")),
        }
    }
}

/// The staging vector width for a precision: 16-byte global transactions
/// either way (`double2` / `float4`).
pub fn vector_width(precision: Precision) -> usize {
    match precision {
        Precision::F64 => 2,
        Precision::F32 => 4,
    }
}

/// Lowers `plan` and runs the configured pass pipeline over it. Returns
/// the (possibly transformed) program and the names of the passes that
/// actually applied, in order.
///
/// # Errors
///
/// [`CogentError::UnknownPass`] for an unrecognized custom pass name;
/// [`CogentError::PassFailed`] when a pass rejects the lowered tree.
pub fn lower_with_passes(
    plan: &KernelPlan,
    precision: Precision,
    passes: &PassConfig,
) -> Result<(KernelProgram, Vec<String>), CogentError> {
    // A validated KernelPlan always lowers; surfacing the impossible case
    // as a typed error keeps this path panic-free (zero unwrap budget).
    let prog = lower_to_kir(plan).map_err(|e| CogentError::PassFailed {
        detail: format!("lowering to KIR: {e}"),
    })?;
    let manager = match passes {
        PassConfig::None => return Ok((prog, Vec::new())),
        PassConfig::Default => PassManager::default_pipeline(vector_width(precision)),
        PassConfig::Custom(names) => {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            pipeline_from_names(&names, vector_width(precision))
                .map_err(|name| CogentError::UnknownPass { name })?
        }
    };
    let mut prog = prog;
    let report = manager
        .run(&mut prog)
        .map_err(|e| CogentError::PassFailed {
            detail: e.to_string(),
        })?;
    Ok((prog, report.applied()))
}

/// Prints an already-transformed program in the chosen backend dialect.
pub(crate) fn print_backend(
    prog: &KernelProgram,
    precision: Precision,
    backend: Backend,
) -> String {
    let dialect: Dialect = match backend {
        Backend::Cuda => cogent_kir::CUDA,
        Backend::OpenCl => opencl_dialect(precision),
        Backend::Hip => cogent_kir::HIP,
    };
    print_kernel(prog, precision, &dialect)
}

/// Emits the contraction kernel for `plan` in the chosen backend with the
/// configured pass pipeline applied. Returns the source and the applied
/// pass names.
///
/// # Errors
///
/// Same as [`lower_with_passes`].
pub fn emit_backend_kernel_with_passes(
    plan: &KernelPlan,
    precision: Precision,
    backend: Backend,
    passes: &PassConfig,
) -> Result<(String, Vec<String>), CogentError> {
    let (prog, applied) = lower_with_passes(plan, precision, passes)?;
    Ok((print_backend(&prog, precision, backend), applied))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::emit_backend_kernel;
    use crate::codegen::testutil::eq1_plan;

    #[test]
    fn parse_covers_the_three_forms() {
        assert_eq!(PassConfig::parse("none"), PassConfig::None);
        assert_eq!(PassConfig::parse(""), PassConfig::None);
        assert_eq!(PassConfig::parse("default"), PassConfig::Default);
        assert_eq!(
            PassConfig::parse("smem-pad, double-buffer"),
            PassConfig::Custom(vec!["smem-pad".into(), "double-buffer".into()])
        );
    }

    #[test]
    fn none_is_byte_identical_to_the_plain_emitters() {
        let plan = eq1_plan();
        for backend in Backend::ALL {
            let (with, applied) =
                emit_backend_kernel_with_passes(&plan, Precision::F64, backend, &PassConfig::None)
                    .unwrap();
            assert!(applied.is_empty());
            assert_eq!(with, emit_backend_kernel(&plan, Precision::F64, backend));
        }
    }

    #[test]
    fn default_pipeline_changes_the_kernel_and_reports_passes() {
        let plan = eq1_plan();
        let (src, applied) = emit_backend_kernel_with_passes(
            &plan,
            Precision::F64,
            Backend::Cuda,
            &PassConfig::Default,
        )
        .unwrap();
        assert!(!applied.is_empty(), "eq1 should take at least one pass");
        assert_ne!(
            src,
            emit_backend_kernel(&plan, Precision::F64, Backend::Cuda)
        );
    }

    #[test]
    fn unknown_custom_pass_is_a_typed_error() {
        let err = emit_backend_kernel_with_passes(
            &eq1_plan(),
            Precision::F64,
            Backend::Cuda,
            &PassConfig::Custom(vec!["bogus".into()]),
        )
        .unwrap_err();
        assert!(matches!(err, CogentError::UnknownPass { ref name } if name == "bogus"));
    }
}
