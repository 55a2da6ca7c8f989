//! What a compiled gate is stored as: the numeric mode, the sparse storage
//! format, and the format-dispatching [`GateMatrix`].

use rtm_compiler::StorageFormat;
use rtm_sparse::footprint::Footprint;
use rtm_sparse::io::DecodeError;
use rtm_sparse::{BspcMatrix, CsrMatrix, SparseKernel};

/// Numeric mode of the compiled runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimePrecision {
    /// Full f32 (CPU path).
    #[default]
    F32,
    /// Round weights and activations through binary16 (GPU path); the gate
    /// kernels then stream the 2-byte stored form and accumulate in f32.
    F16,
    /// Symmetric int8 storage: gate weights keep their f32 values but the
    /// kernels stream the per-stripe-block int8 sidecar, quantize the
    /// activation vector per call, and accumulate in i32 (one dequantize
    /// at store).
    Int8,
}

impl RuntimePrecision {
    /// The sparse storage precision this runtime mode streams.
    pub fn storage(self) -> rtm_sparse::Precision {
        match self {
            RuntimePrecision::F32 => rtm_sparse::Precision::F32,
            RuntimePrecision::F16 => rtm_sparse::Precision::F16,
            RuntimePrecision::Int8 => rtm_sparse::Precision::Int8,
        }
    }

    /// Short lowercase label ("f32" / "f16" / "int8").
    pub fn tag(self) -> &'static str {
        self.storage().tag()
    }

    /// The runtime mode that streams `storage`
    /// ([`RuntimePrecision::storage`] inverse).
    pub fn from_storage(storage: rtm_sparse::Precision) -> RuntimePrecision {
        match storage {
            rtm_sparse::Precision::F32 => RuntimePrecision::F32,
            rtm_sparse::Precision::F16 => RuntimePrecision::F16,
            rtm_sparse::Precision::Int8 => RuntimePrecision::Int8,
        }
    }

    /// Parses the lowercase label back ([`RuntimePrecision::tag`] inverse).
    pub fn parse(s: &str) -> Option<RuntimePrecision> {
        match s {
            "f32" => Some(RuntimePrecision::F32),
            "f16" => Some(RuntimePrecision::F16),
            "int8" => Some(RuntimePrecision::Int8),
            _ => None,
        }
    }
}

/// Sparse storage format the compiled runtime's gate kernels walk.
///
/// The paper's BSPC is the default; the ESE-style CSR baseline is the one
/// alternative, so the tuner can pick per layer (see
/// [`super::CompiledNetwork::compile_with_formats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimeFormat {
    /// Block-based structured pruning compact storage (the paper's format).
    #[default]
    Bspc,
    /// Compressed sparse row — the unstructured baseline with a per-nonzero
    /// index decode.
    Csr,
}

impl RuntimeFormat {
    /// The compiler-plan storage format this runtime mode executes.
    pub fn storage(self) -> StorageFormat {
        match self {
            RuntimeFormat::Bspc => StorageFormat::Bspc,
            RuntimeFormat::Csr => StorageFormat::Csr,
        }
    }

    /// Short lowercase label ("bspc" / "csr").
    pub fn tag(self) -> &'static str {
        match self {
            RuntimeFormat::Bspc => "bspc",
            RuntimeFormat::Csr => "csr",
        }
    }

    /// The runtime mode executing `storage`, if the runtime has kernels for
    /// it ([`RuntimeFormat::storage`] inverse; `Dense` has no sparse
    /// runtime and maps to `None`).
    pub fn from_storage(storage: StorageFormat) -> Option<RuntimeFormat> {
        match storage {
            StorageFormat::Bspc => Some(RuntimeFormat::Bspc),
            StorageFormat::Csr => Some(RuntimeFormat::Csr),
            StorageFormat::Dense => None,
        }
    }

    /// Parses the lowercase label back ([`RuntimeFormat::tag`] inverse).
    pub fn parse(s: &str) -> Option<RuntimeFormat> {
        match s {
            "bspc" => Some(RuntimeFormat::Bspc),
            "csr" => Some(RuntimeFormat::Csr),
            _ => None,
        }
    }
}

/// One compiled gate matrix in its selected storage format.
///
/// Every variant carries the same f32 values plus the f16/int8 sidecars;
/// the format decides the index structure the kernels walk. The serial
/// and pooled entries of every variant share the bit-exactness
/// contract the executor tests pin down, so swapping the format never
/// changes a computed number at f32/f16 (int8 codes differ per format
/// because the scale granularity differs — per stripe-block or row block).
#[derive(Debug, Clone)]
pub enum GateMatrix {
    /// BSPC storage (may carry the matrix-reorder permutation).
    Bspc(BspcMatrix),
    /// CSR storage.
    Csr(CsrMatrix),
}

impl GateMatrix {
    /// The storage format of this gate.
    pub fn format(&self) -> RuntimeFormat {
        match self {
            GateMatrix::Bspc(_) => RuntimeFormat::Bspc,
            GateMatrix::Csr(_) => RuntimeFormat::Csr,
        }
    }

    /// The gate as the one kernel contract both execution paths run: the
    /// reference step calls its [`SparseKernel`] entries, the production
    /// step hands it to [`rtm_exec::Executor::spmv_into`] (one lane) /
    /// [`spmm_into`](rtm_exec::Executor::spmm_into) — all bit-identical
    /// for every format, precision and thread count.
    pub fn kernel(&self) -> &dyn SparseKernel {
        match self {
            GateMatrix::Bspc(m) => m,
            GateMatrix::Csr(m) => m,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.kernel().rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.kernel().cols()
    }

    /// The stored f32 values (layout is format-specific; used for
    /// load-time finiteness scans, not for indexing).
    pub fn values(&self) -> &[f32] {
        match self {
            GateMatrix::Bspc(m) => m.values(),
            GateMatrix::Csr(m) => m.values(),
        }
    }

    /// Storage footprint at the given value precision.
    pub fn footprint(&self, prec: rtm_sparse::Precision) -> Footprint {
        match self {
            GateMatrix::Bspc(m) => Footprint::bspc(m, prec),
            GateMatrix::Csr(m) => Footprint::csr(m, prec),
        }
    }

    /// Serializes this gate in its format's wire codec (the format tag
    /// itself travels in the container, e.g. the `.rtm` layer header).
    pub fn write_to(&self, out: &mut Vec<u8>, prec: rtm_sparse::Precision) {
        match self {
            GateMatrix::Bspc(m) => m.write_to(out, prec),
            GateMatrix::Csr(m) => m.write_to(out, prec),
        }
    }

    /// Decodes one gate of the given format from the front of `bytes`,
    /// returning it with the number of bytes consumed. Each codec checks
    /// its own magic, so a format byte pointing at the wrong blob fails
    /// with [`DecodeError::BadMagic`] instead of misparsing.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on any structural problem.
    pub fn read_from(
        bytes: &[u8],
        format: RuntimeFormat,
    ) -> Result<(GateMatrix, usize), DecodeError> {
        Ok(match format {
            RuntimeFormat::Bspc => {
                let (m, used) = BspcMatrix::read_from(bytes)?;
                (GateMatrix::Bspc(m), used)
            }
            RuntimeFormat::Csr => {
                let (m, used) = CsrMatrix::read_from(bytes)?;
                (GateMatrix::Csr(m), used)
            }
        })
    }
}
