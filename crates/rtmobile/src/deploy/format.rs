//! What a compiled gate is stored as: the numeric mode and the sparse
//! storage format.

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

/// Sparse storage format of the compiled runtime's gates: always the
/// paper's BSPC. The type carries the wire tag and the label; CSR lives on
/// in `rtm_sparse` as the measured baseline, not as a runtime format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimeFormat {
    /// Block-based structured pruning compact storage (the paper's format).
    #[default]
    Bspc,
}

impl RuntimeFormat {
    /// Short lowercase label ("bspc").
    pub fn tag(self) -> &'static str {
        match self {
            RuntimeFormat::Bspc => "bspc",
        }
    }
}
