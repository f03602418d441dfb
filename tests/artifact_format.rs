//! The on-disk artifact container: byte-level stability of both formats,
//! and rejection of bytes smuggled inside a checksummed section.

use milo_core::serialize::{read_compressed_model, verify_compressed_stream, write_compressed_model};
use milo_core::{
    CompressedLayer, CompressedModel, Compensator, LayerKind, LayerMeta, LayerRecord,
    LowRankCompensator,
};
use milo_moe::serialize::{read_model, verify_model_stream, write_model};
use milo_moe::{MoeConfig, MoeModel};
use milo_quant::{rtn_quantize, QuantConfig};
use milo_tensor::io::{
    corrupt_section_info, read_section, read_u64, write_section, write_u64, SectionFault,
};
use milo_tensor::Matrix;
use std::io::Cursor;

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A weight built from integer arithmetic only, so it is the same on
/// every platform.
fn weight(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 13 + salt) % 17) as f32 / 17.0 - 0.5)
}

/// Three RTN-quantized layers: one with an FP32 compensator, one with a
/// quantized compensator, and one without.
fn fixed_milo_model() -> CompressedModel {
    let record = |i: usize, kind: LayerKind, compensator: Option<Compensator>| {
        let (rows, cols) = (16, 64);
        LayerRecord {
            name: format!("layer{i}.w1"),
            meta: LayerMeta { kind, rows, cols, kurtosis: 0.25 * i as f32, frequency: 0.5 },
            rank: compensator.as_ref().map_or(0, Compensator::rank),
            layer: CompressedLayer {
                qweight: rtn_quantize(&weight(rows, cols, i), &QuantConfig::int3_asym()).unwrap(),
                compensator,
                convergence: vec![1.0, 0.5 / (i + 1) as f32],
            },
        }
    };
    let fp32 = LowRankCompensator::from_factors(weight(16, 2, 3), weight(2, 64, 4)).unwrap();
    let quantized = fp32.quantize(&QuantConfig::int3_sym()).unwrap();
    CompressedModel {
        layers: vec![
            record(0, LayerKind::Attention, Some(Compensator::Fp16(fp32))),
            record(1, LayerKind::Expert { index: 2 }, Some(Compensator::Quantized(quantized))),
            record(2, LayerKind::SharedExpert, None),
        ],
    }
}

#[test]
fn artifact_bytes_are_pinned() {
    let milo = fixed_milo_model();
    let moem = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 11);
    let digest = |write: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let mut buf = Vec::new();
        write(&mut buf).unwrap();
        format!("{:016x}", fnv1a(&buf))
    };
    let got = [
        digest(&|w| write_compressed_model(w, &milo)),
        digest(&|w| write_model(w, &moem)),
    ];
    let pinned = ["6a3727046207226f", "401f1cb00db9cf60"];
    assert_eq!(got, pinned, "MILO, MOEM");
}

/// Re-frames a v2 stream with `junk` appended inside the header section
/// (when there is one) and the last record's section, under fresh CRCs.
fn smuggle(clean: &[u8], header: bool, junk: &[u8]) -> Vec<u8> {
    let mut r = Cursor::new(clean);
    let mut out = clean[..8].to_vec();
    r.set_position(8);
    let reframe = |r: &mut Cursor<&[u8]>, out: &mut Vec<u8>, last: bool| {
        let mut payload = read_section(r, "").unwrap();
        if last {
            payload.extend_from_slice(junk);
        }
        write_section(out, &payload).unwrap();
    };
    if header {
        reframe(&mut r, &mut out, true);
    }
    let n = read_u64(&mut r).unwrap();
    write_u64(&mut out, n).unwrap();
    for i in 0..n {
        reframe(&mut r, &mut out, i + 1 == n);
    }
    assert_eq!(r.position(), clean.len() as u64);
    out
}

#[test]
fn junk_inside_a_checksummed_section_is_rejected() {
    let junk = [0xA5, 0x5A, 0x00, 0xFF];

    let mut moem = Vec::new();
    write_model(&mut moem, &MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 3)).unwrap();
    let bad = smuggle(&moem, true, &junk);
    let err = read_model(&mut Cursor::new(&bad[..])).err().expect("junk in the MOEM header");
    assert_eq!(corrupt_section_info(&err).expect("typed").section, "model header");
    let report = verify_model_stream(&mut Cursor::new(&bad[..])).unwrap();
    assert!(!report.is_ok());
    assert_eq!(report.n_corrupt(), 2, "{report:?}");

    let mut milo = Vec::new();
    write_compressed_model(&mut milo, &fixed_milo_model()).unwrap();
    let bad = smuggle(&milo, false, &junk);
    let err =
        read_compressed_model(&mut Cursor::new(&bad[..])).err().expect("junk in a MILO record");
    assert!(err.to_string().contains("layer 2 (layer2.w1)"), "{err}");
    let report = verify_compressed_stream(&mut Cursor::new(&bad[..])).unwrap();
    assert!(!report.is_ok());
    assert_eq!(report.n_corrupt(), 1, "{report:?}");
    assert_eq!(report.sections[2].name, "layer 2 (layer2.w1)");
}

#[test]
fn a_record_count_cut_short_is_a_truncated_layer_table() {
    let mut moem = Vec::new();
    write_model(&mut moem, &MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 3)).unwrap();
    let header_len = read_u64(&mut &moem[8..]).unwrap() as usize;
    let mut milo = Vec::new();
    write_compressed_model(&mut milo, &fixed_milo_model()).unwrap();

    let moem_cut = &moem[..8 + 12 + header_len + 4];
    let milo_cut = &milo[..12];
    for report in [
        verify_model_stream(&mut Cursor::new(moem_cut)).unwrap(),
        verify_compressed_stream(&mut Cursor::new(milo_cut)).unwrap(),
    ] {
        let last = report.sections.last().expect("a section");
        assert_eq!(last.name, "layer table");
        assert_eq!(last.fault, Some(SectionFault::Truncated));
        assert_eq!(report.n_corrupt(), 1);
    }
    assert!(read_model(&mut Cursor::new(moem_cut)).is_err());
    assert!(read_compressed_model(&mut Cursor::new(milo_cut)).is_err());
}
