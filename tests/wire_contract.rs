//! Wire-format contract: the bytes of every serialized artifact are pinned,
//! and a hostile section length is a typed refusal, never a panic.
//!
//! The golden constants were recorded by running this file at the commit
//! before the codecs were rewritten onto `rtm_tensor::wire::Reader`; they
//! must never change without a container/blob version bump, because phones
//! in the field hold bundles written by older builds.

use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sparse::io::DecodeError;
use rtm_sparse::{BspcMatrix, Precision};
use rtm_tensor::rng::StdRng;
use rtm_tensor::Matrix;
use rtmobile::bundle::{self, crc32, BundleMeta};
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};
use rtmobile::serve::protocol::{put_client_msg, put_server_msg};
use rtmobile::serve::{ClientMsg, ServerMsg};

const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

/// A fixed-seed block-structured weight: whole columns pruned, the kept
/// values spread over both signs so f16 rounding and int8 codes differ.
fn bsp_weight() -> Matrix {
    let mut rng = StdRng::seed_from_u64(2020);
    let keep: Vec<bool> = (0..20).map(|_| rng.gen_f32() < 0.5).collect();
    Matrix::from_fn(24, 20, |r, c| {
        if keep[c] {
            ((r * 13 + c * 5) % 19) as f32 * 0.137 - 1.2
        } else {
            0.0
        }
    })
}

#[test]
fn golden_gate_blob_bytes_per_format_and_precision() {
    let w = bsp_weight();
    let bspc = BspcMatrix::from_dense(&w, 4, 2).unwrap();
    let reordered = bspc.clone().with_reorder((0..24).rev().collect()).unwrap();
    let got: Vec<(&str, [u32; 3])> = vec![
        ("bspc", PRECISIONS.map(|p| crc32(&bspc.to_bytes(p)))),
        (
            "bspc+reorder",
            PRECISIONS.map(|p| crc32(&reordered.to_bytes(p))),
        ),
    ];
    let want: Vec<(&str, [u32; 3])> = vec![
        ("bspc", [0x80f0_4aa8, 0xe662_3712, 0x68bb_5c61]),
        ("bspc+reorder", [0xcb3b_1a61, 0xdcca_83e7, 0x3a8c_d30c]),
    ];
    assert_eq!(got, want, "[f32, f16, int8] blob CRC32s: {got:#010x?}");
}

fn network(hidden_dims: Vec<usize>) -> GruNetwork {
    GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims,
            num_classes: 4,
        },
        23,
    )
}

fn bspc_int8() -> CompiledNetwork {
    CompiledNetwork::compile(&network(vec![12, 12, 12]), 4, 4, RuntimePrecision::Int8).unwrap()
}

#[test]
fn golden_bundle_bytes() {
    let meta = BundleMeta {
        generation: 7,
        compiled_per: 12.5,
    };
    let bspc_f16 =
        CompiledNetwork::compile(&network(vec![12, 12]), 4, 4, RuntimePrecision::F16).unwrap();
    // The CRC32 of a file that ends in its own CRC32 is a constant, so pin
    // the length and the checksum of everything before the stored one.
    let pin = |net: &CompiledNetwork| {
        let bytes = bundle::to_bytes_with(net, &meta);
        (bytes.len(), crc32(&bytes[..bytes.len() - 4]))
    };
    // Both pins were re-recorded when the compiler stopped attaching a
    // reorder permutation to its gates: each gate blob now ends in flag 0
    // with no `rows × u32` after it, 2 × 6 × 12 × 4 = 576 and
    // 3 × 6 × 12 × 4 = 864 bytes fewer than the (8570, _) / (11834, _)
    // written with them. `rtmobile::bundle`'s fixture test re-attaches the
    // permutations to a fresh compile and matches a whole older file.
    let got = [pin(&bspc_f16), pin(&bspc_int8())];
    assert_eq!(
        got,
        [(7994, 0x3948_d606), (10970, 0xa0c7_bbc8)],
        "[bspc f16, bspc int8] bundle (len, CRC32): {got:#010x?}"
    );
}

#[test]
fn golden_protocol_frames() {
    let mut out = Vec::new();
    put_client_msg(&mut out, &ClientMsg::Frame(vec![0.5, -1.25]));
    assert_eq!(
        out,
        [13, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0x3F, 0, 0, 0xA0, 0xBF]
    );

    out.clear();
    put_server_msg(
        &mut out,
        &ServerMsg::Hello {
            input_dim: 6,
            classes: 4,
            version: 2,
        },
    );
    assert_eq!(out, [13, 0, 0, 0, 16, 6, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0]);

    out.clear();
    put_server_msg(
        &mut out,
        &ServerMsg::Hypothesis {
            symbols: vec![3, 17],
            score: -4.5,
            endpoint: true,
            is_final: false,
        },
    );
    assert_eq!(
        out,
        [19, 0, 0, 0, 20, 2, 0, 0, 0, 3, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0x90, 0xC0, 1, 0]
    );
}

/// A first-section length near `u64::MAX` / `usize::MAX` used to overflow
/// the offset arithmetic of `probe` and `reseal` (a panic in debug, a
/// slice-range panic in release) on files `rtm inspect` only promises to
/// report as corrupt.
#[test]
fn hostile_section_length_is_a_typed_refusal_everywhere() {
    let pristine = bundle::to_bytes(&bspc_int8());
    let first_len_at = 4 + 2 + 4 + 4; // header, then the first section's tag
    let dir = std::env::temp_dir().join(format!("rtm-wire-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, len) in [
        ("u64max-8", u64::MAX - 8),
        ("usizemax-4", usize::MAX as u64 - 4),
    ] {
        let mut bytes = pristine.clone();
        bytes[first_len_at..first_len_at + 8].copy_from_slice(&len.to_le_bytes());
        assert_eq!(bundle::probe(&bytes), Err(DecodeError::Truncated), "{name}");
        let mut sealed = bytes.clone();
        assert!(!bundle::reseal(&mut sealed), "{name}");
        assert_eq!(sealed, bytes, "{name}: a refused reseal writes nothing");
        assert_eq!(
            bundle::from_bytes(&bytes).map(|_| ()),
            Err(DecodeError::FileChecksum),
            "{name}"
        );
        assert_eq!(bundle::peek_generation(&bytes), Some(0), "{name}");

        let path = dir.join(format!("{name}.rtm"));
        std::fs::write(&path, &bytes).expect("write hostile bundle");
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_rtm"))
            .arg("inspect")
            .arg(&path)
            .output()
            .expect("run rtm inspect");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("not a valid .rtm model"),
            "{name}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
