//! The `.rtm` model file: a deployable, self-contained serialization of a
//! compiled network.
//!
//! The paper's BSPC is a *storage* format; this module makes the full model
//! artifact concrete: every gate matrix in the binary BSPC encoding of
//! [`rtm_sparse::io`] (with f16 values on the GPU path), plus biases and
//! the dense classifier head. A phone ships exactly these bytes.
//!
//! Since version 5 the container is the **sectioned bundle** of
//! [`crate::bundle`]: the network body below becomes the `WGHT` section
//! payload, health metadata lands in `HLTH`, and every section carries a
//! CRC32 with a whole-file checksum in the trailer. This module keeps the
//! *body* codecs (shared with the bundle reader/writer).
//!
//! Network body layout (little-endian):
//!
//! ```text
//! precision u8, format u8 (network defaults), layer_count u32
//! per layer: hidden u32, precision u8, format u8,
//!            6 x BSPC gate blobs (w_z u_z w_r u_r w_n u_n) at the layer's
//!            storage precision (int8 layers ship native codes + scales),
//!            3 x bias runs (len u32 + f32s)
//! head: rows u32, cols u32, f32 weights, f32 bias
//! ```
//!
//! Format bytes: 0 = BSPC, the one runtime format. Tags 1, 2 and 3 named
//! the retired CSR, BBS and CSB formats and now fail with
//! [`DecodeError::BadFormat`], like any other nonzero tag. Version 5 (the
//! checksummed bundle container) is the only container that decodes; any
//! other version — including the flat, checksum-free versions 2–4 that
//! predate it — is rejected with [`DecodeError::BadVersion`].

use crate::deploy::{CompiledGruLayer, CompiledNetwork, RuntimePrecision};
use rtm_sparse::io::{precision_from_tag, precision_tag, DecodeError};
use rtm_sparse::BspcMatrix;
use rtm_tensor::wire::{BufMut, Reader};
use rtm_tensor::Matrix;

/// Magic bytes opening every `.rtm` model file.
pub const MAGIC: &[u8; 4] = b"RTMF";

/// Current model-file version (the sectioned bundle container).
pub const VERSION: u16 = 5;

/// Wire tag of BSPC, the one storage format.
const BSPC_TAG: u8 = 0;

/// The `[precision, format]` tag pair that opens the network body and
/// closes every layer header and health-table row.
pub(crate) fn mode_tags(precision: RuntimePrecision) -> [u8; 2] {
    [precision_tag(precision.storage()), BSPC_TAG]
}

/// Inverse of [`mode_tags`]. Takes the two bytes already read so that a
/// caller can pull the fixed-size fields around them off the wire first —
/// a short header is `Truncated` even when its tags are also bad.
pub(crate) fn mode_from_tags(
    [precision, format]: [u8; 2],
) -> Result<RuntimePrecision, DecodeError> {
    let precision = RuntimePrecision::from_storage(precision_from_tag(precision)?);
    if format != BSPC_TAG {
        return Err(DecodeError::BadFormat(format));
    }
    Ok(precision)
}

/// Serializes the network body (weights, biases, head — no container
/// framing) into `out`.
///
/// Each layer's gate blobs carry the one value store its gates hold, at
/// the layer's runtime precision: f16 halves the value bytes, int8 ships
/// the per-stripe-block codes and scales — the decoded network's kernels
/// stream the exact same store, so the functional roundtrip is bit-exact
/// for every precision.
pub(crate) fn write_network_body(out: &mut Vec<u8>, net: &CompiledNetwork) {
    out.put_slice(&mode_tags(net.precision));
    out.put_u32_le(net.layers.len() as u32);
    for layer in &net.layers {
        out.put_u32_le(layer.hidden as u32);
        out.put_slice(&mode_tags(layer.precision));
        for m in layer.gates() {
            m.write_to(out, layer.precision.storage());
        }
        for b in [&layer.b_z, &layer.b_r, &layer.b_n] {
            out.put_counted_f32s(b);
        }
    }
    let head_w = net.head_w();
    out.put_u32_le(head_w.rows() as u32);
    out.put_u32_le(head_w.cols() as u32);
    out.put_f32s(head_w.as_slice());
    out.put_counted_f32s(&net.head_b);
}

fn read_gate(r: &mut Reader<'_>) -> Result<BspcMatrix, DecodeError> {
    let (gate, used) = BspcMatrix::read_from(r.rest())?;
    r.take(used)?;
    Ok(gate)
}

/// Decodes the network body (the inverse of [`write_network_body`]) from
/// the front of `r`, advancing it.
pub(crate) fn read_network_body(r: &mut Reader<'_>) -> Result<CompiledNetwork, DecodeError> {
    let (tags, layer_count) = (r.array()?, r.u32()? as usize);
    let precision = mode_from_tags(tags)?;
    // Each layer needs at least its hidden-width word plus six gate blobs;
    // reject counts the buffer cannot possibly hold before looping.
    if layer_count > r.remaining() / 4 {
        return Err(DecodeError::Truncated);
    }
    let mut layers = Vec::new();
    for _ in 0..layer_count {
        let hidden = r.u32()? as usize;
        let precision = mode_from_tags(r.array()?)?;
        // Field initializers run in the order written, which is the wire
        // order: six gates, then three biases.
        layers.push(CompiledGruLayer {
            w_z: read_gate(r)?,
            u_z: read_gate(r)?,
            w_r: read_gate(r)?,
            u_r: read_gate(r)?,
            w_n: read_gate(r)?,
            u_n: read_gate(r)?,
            b_z: r.counted_f32s()?,
            b_r: r.counted_f32s()?,
            b_n: r.counted_f32s()?,
            hidden,
            precision,
        });
    }

    let (rows, cols) = (r.u32()? as usize, r.u32()? as usize);
    let head_len = rows.checked_mul(cols).ok_or(DecodeError::Truncated)?;
    let head_w = Matrix::from_vec(rows, cols, r.f32s(head_len)?);
    let head_w = head_w.map_err(|_| DecodeError::Truncated)?;
    let head_b = r.counted_f32s()?;
    Ok(CompiledNetwork::from_parts(
        layers, head_w, head_b, precision,
    ))
}

/// Whether every weight, bias and head value of `net` is finite (a gate's
/// weights as the exact decode of the one store it holds).
pub(crate) fn all_finite(net: &CompiledNetwork) -> bool {
    let finite = |vals: &[f32]| vals.iter().all(|v| v.is_finite());
    net.layers.iter().all(|l| {
        l.gates().iter().all(|m| finite(&m.row_major_values()))
            && [&l.b_z, &l.b_r, &l.b_n].iter().all(|b| finite(b))
    }) && finite(net.head_w().as_slice())
        && finite(&net.head_b)
}

/// Serializes a compiled network to the current `.rtm` byte format — a
/// version-5 [`crate::bundle`] with default (empty) health metadata and
/// generation 0. Use [`crate::bundle::to_bytes_with`] to stamp real
/// metadata.
pub fn to_bytes(net: &CompiledNetwork) -> Vec<u8> {
    crate::bundle::to_bytes(net)
}

/// [`from_bytes`] plus optional load-time weight validation.
///
/// With any scanning [`HealthPolicy`](crate::health::HealthPolicy)
/// (`Check` or `Quarantine`) the decoded weights and biases must all be
/// finite — a corrupted or adversarial model file carrying NaN/Inf weights
/// is rejected at the door instead of poisoning every stream it serves.
/// [`HealthPolicy::Off`](crate::health::HealthPolicy::Off) skips the scan
/// and behaves exactly like [`from_bytes`].
///
/// # Errors
///
/// Returns [`DecodeError::NonFinite`] when validation is on and any weight
/// is NaN or infinite, and every [`from_bytes`] error otherwise.
pub fn from_bytes_with(
    bytes: &[u8],
    policy: crate::health::HealthPolicy,
) -> Result<CompiledNetwork, DecodeError> {
    crate::bundle::from_bytes_with(bytes, policy).map(crate::bundle::CompiledBundle::into_network)
}

/// Deserializes a compiled network from `.rtm` bytes (the checksummed
/// version-5 bundle).
///
/// # Errors
///
/// Returns [`DecodeError`] on any structural problem (truncation, bad
/// magic/version, checksum mismatch, invalid embedded blobs).
pub fn from_bytes(bytes: &[u8]) -> Result<CompiledNetwork, DecodeError> {
    crate::bundle::from_bytes(bytes).map(crate::bundle::CompiledBundle::into_network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::RuntimeFormat;
    use rtm_rnn::model::{GruNetwork, NetworkConfig};

    fn compiled(precision: RuntimePrecision) -> CompiledNetwork {
        let net = GruNetwork::new(
            &NetworkConfig {
                input_dim: 5,
                hidden_dims: vec![8, 8],
                num_classes: 3,
            },
            31,
        );
        CompiledNetwork::compile(&net, 4, 2, precision).expect("partition fits")
    }

    fn frames() -> Vec<Vec<f32>> {
        (0..6)
            .map(|t| (0..5).map(|i| ((t * 5 + i) as f32 * 0.4).sin()).collect())
            .collect()
    }

    #[test]
    fn f32_model_roundtrips_bit_exact() {
        let net = compiled(RuntimePrecision::F32);
        let bytes = to_bytes(&net);
        let decoded = from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.precision(), RuntimePrecision::F32);
        let a = net.forward(&frames());
        let b = decoded.forward(&frames());
        assert_eq!(a, b, "f32 serialization must be lossless");
    }

    #[test]
    fn f16_model_roundtrips_functionally() {
        // The compiled f16 network's weights are already f16-quantized, so
        // storing them as f16 bit patterns is lossless for the values.
        let net = compiled(RuntimePrecision::F16);
        let bytes = to_bytes(&net);
        let decoded = from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.precision(), RuntimePrecision::F16);
        let a = net.forward(&frames());
        let b = decoded.forward(&frames());
        assert_eq!(a, b, "f16 model already quantized; file roundtrip is exact");
    }

    #[test]
    fn int8_model_roundtrips_bit_exact() {
        // The int8 blobs ship the codes and scales, and the int8 gates hold
        // exactly those — so the functional roundtrip is exact, not merely
        // close.
        let net = compiled(RuntimePrecision::Int8);
        let bytes = to_bytes(&net);
        let decoded = from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.precision(), RuntimePrecision::Int8);
        assert_eq!(decoded.layer_precisions(), net.layer_precisions());
        assert_eq!(net.forward(&frames()), decoded.forward(&frames()));
    }

    #[test]
    fn mixed_precision_layers_roundtrip_bit_exact() {
        let base = GruNetwork::new(
            &NetworkConfig {
                input_dim: 5,
                hidden_dims: vec![8, 8],
                num_classes: 3,
            },
            31,
        );
        // A compile has one precision; a bundle may still carry one per
        // layer. Splice layer 0 of an int8 and layer 1 of an f16 compile
        // into an f32 one.
        let uniform = |precision| CompiledNetwork::compile(&base, 4, 2, precision).expect("fits");
        let mut net = uniform(RuntimePrecision::F32);
        net.layers[0] = uniform(RuntimePrecision::Int8).layers.remove(0);
        net.layers[1] = uniform(RuntimePrecision::F16).layers.remove(1);
        let decoded = from_bytes(&to_bytes(&net)).expect("decodes");
        assert_eq!(
            decoded.layer_precisions(),
            vec![RuntimePrecision::Int8, RuntimePrecision::F16]
        );
        assert_eq!(decoded.precision(), RuntimePrecision::F32);
        assert_eq!(net.forward(&frames()), decoded.forward(&frames()));
    }

    #[test]
    fn every_format_roundtrips_functionally_every_precision() {
        let base = GruNetwork::new(
            &NetworkConfig {
                input_dim: 5,
                hidden_dims: vec![8, 8],
                num_classes: 3,
            },
            31,
        );
        for precision in [
            RuntimePrecision::F32,
            RuntimePrecision::F16,
            RuntimePrecision::Int8,
        ] {
            let net = CompiledNetwork::compile(&base, 4, 2, precision).expect("partition fits");
            let bytes = to_bytes(&net);
            let decoded = from_bytes(&bytes).expect("decodes");
            assert_eq!(decoded.format(), RuntimeFormat::Bspc);
            assert_eq!(
                net.forward(&frames()),
                decoded.forward(&frames()),
                "{precision:?} file roundtrip must be functionally exact"
            );
            // Re-encoding the decoded network is byte-identical: the codec
            // has one canonical form per model.
            assert_eq!(to_bytes(&decoded), bytes, "{precision:?} re-encode");
        }
    }

    #[test]
    fn rejects_unknown_format_byte() {
        let bytes = to_bytes(&compiled(RuntimePrecision::F32));
        let probe = crate::bundle::probe(&bytes).expect("probe");
        let wght = probe
            .sections
            .iter()
            .find(|s| &s.tag == b"WGHT")
            .expect("WGHT section");
        // Tags 1, 2 and 3 named the retired CSR, BBS and CSB formats: a
        // bundle that still carries one fails with the same typed error as
        // any unknown tag. Body offset 1 is the network format byte, offset 11 the
        // first layer's (after the layer count, hidden width and precision).
        for tag in [1u8, 2, 3, 9] {
            for offset in [1, 11] {
                // Without resealing, the corruption is caught by the file
                // checksum before any field decoder sees it.
                let mut corrupt = bytes.clone();
                corrupt[wght.payload_offset + offset] = tag;
                assert_eq!(from_bytes(&corrupt).unwrap_err(), DecodeError::FileChecksum);
                // Resealed (an adversarial edit, not rot), the typed field
                // error surfaces.
                assert!(crate::bundle::reseal(&mut corrupt));
                assert_eq!(
                    from_bytes(&corrupt).unwrap_err(),
                    DecodeError::BadFormat(tag),
                    "tag {tag} at body offset {offset}"
                );
            }
        }
    }

    #[test]
    fn lower_precision_files_are_smaller() {
        let f32_bytes = to_bytes(&compiled(RuntimePrecision::F32));
        let f16_bytes = to_bytes(&compiled(RuntimePrecision::F16));
        let int8_bytes = to_bytes(&compiled(RuntimePrecision::Int8));
        assert!(
            int8_bytes.len() < f16_bytes.len() && f16_bytes.len() < f32_bytes.len(),
            "{} vs {} vs {}",
            int8_bytes.len(),
            f16_bytes.len(),
            f32_bytes.len()
        );
    }

    #[test]
    fn rejects_corruption() {
        let mut bytes = to_bytes(&compiled(RuntimePrecision::F32));
        assert!(from_bytes(&bytes[..10]).is_err(), "truncated");
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::BadMagic);
        let mut bytes = to_bytes(&compiled(RuntimePrecision::F32));
        bytes[4] = 0xFF;
        assert!(matches!(
            from_bytes(&bytes).unwrap_err(),
            DecodeError::BadVersion(_)
        ));
    }

    #[test]
    fn every_other_container_version_is_refused() {
        // Only the checksummed v5 container decodes: the flat v2–v4
        // layouts that predate it are refused like any unknown version,
        // before a byte of the (unverifiable) body is parsed.
        let bytes = to_bytes(&compiled(RuntimePrecision::F16));
        for v in [0u16, 1, 2, 3, 4, 6] {
            let mut other = bytes.clone();
            other[4..6].copy_from_slice(&v.to_le_bytes());
            assert_eq!(
                from_bytes(&other).unwrap_err(),
                DecodeError::BadVersion(v),
                "version {v}"
            );
            assert_eq!(
                crate::bundle::probe(&other).unwrap_err(),
                DecodeError::BadVersion(v),
                "probe, version {v}"
            );
        }
    }

    #[test]
    fn load_time_validation_rejects_non_finite_weights() {
        use crate::health::HealthPolicy;
        let mut net = compiled(RuntimePrecision::F32);
        let good = to_bytes(&net);
        assert!(from_bytes_with(&good, HealthPolicy::Quarantine).is_ok());
        net.head_b[0] = f32::NAN;
        let bad = to_bytes(&net);
        // Off trusts the file; any scanning policy rejects it.
        assert!(from_bytes_with(&bad, HealthPolicy::Off).is_ok());
        assert_eq!(
            from_bytes_with(&bad, HealthPolicy::Check).unwrap_err(),
            DecodeError::NonFinite
        );
        assert_eq!(
            from_bytes_with(&bad, HealthPolicy::Quarantine).unwrap_err(),
            DecodeError::NonFinite
        );
    }

    /// A gate's weights are checked as its one store holds them: a NaN in
    /// an f32 plane, an infinity or a NaN among f16 bits, a non-finite int8
    /// scale. Each bundle is refused by every scanning policy and loads
    /// under `Off`.
    #[test]
    fn load_time_validation_rejects_non_finite_gate_weights() {
        use crate::health::HealthPolicy;
        use rtm_sparse::Payload;
        let poisoned = |precision: RuntimePrecision, poison: fn(&mut Payload)| {
            let mut net = compiled(precision);
            let gate = &mut net.layers[1].u_r;
            let mut payload = gate.payload(precision.storage());
            poison(&mut payload);
            *gate = gate.clone().with_payload(payload).expect("same counts");
            to_bytes(&net)
        };
        let bad = [
            poisoned(RuntimePrecision::F32, |p| match p {
                Payload::F32(v) => v[3] = f32::NAN,
                _ => unreachable!("an f32 payload"),
            }),
            poisoned(RuntimePrecision::F16, |p| match p {
                Payload::F16(h) => h[0] = 0x7C00,
                _ => unreachable!("an f16 payload"),
            }),
            poisoned(RuntimePrecision::F16, |p| match p {
                Payload::F16(h) => *h.last_mut().expect("kept values") = 0x7E00,
                _ => unreachable!("an f16 payload"),
            }),
            poisoned(RuntimePrecision::Int8, |p| match p {
                Payload::Int8 { scales, .. } => scales.fill(f32::INFINITY),
                _ => unreachable!("an int8 payload"),
            }),
            poisoned(RuntimePrecision::Int8, |p| match p {
                Payload::Int8 { scales, .. } => scales.fill(f32::NAN),
                _ => unreachable!("an int8 payload"),
            }),
        ];
        for (case, bad) in bad.iter().enumerate() {
            assert!(
                from_bytes_with(bad, HealthPolicy::Off).is_ok(),
                "case {case}"
            );
            for policy in [HealthPolicy::Check, HealthPolicy::Quarantine] {
                let got = from_bytes_with(bad, policy).unwrap_err();
                assert_eq!(got, DecodeError::NonFinite, "case {case} {policy:?}");
            }
        }
        // The clean twins of every store load under every policy.
        for precision in [
            RuntimePrecision::F32,
            RuntimePrecision::F16,
            RuntimePrecision::Int8,
        ] {
            let good = to_bytes(&compiled(precision));
            assert!(
                from_bytes_with(&good, HealthPolicy::Check).is_ok(),
                "{precision:?}"
            );
        }
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = to_bytes(&compiled(RuntimePrecision::F16));
        for n in (0..bytes.len()).step_by(7) {
            assert!(from_bytes(&bytes[..n]).is_err(), "prefix {n}");
        }
        assert!(from_bytes(&bytes).is_ok());
    }
}
