//! The on-disk artifact container: byte-level stability of both formats,
//! and rejection of bytes smuggled inside a checksummed section or of
//! lengths no section could hold.

use milo_core::serialize::{read_compressed_model, verify_compressed_stream, write_compressed_model};
use milo_core::{
    CompressedLayer, CompressedModel, Compensator, LayerKind, LayerMeta, LayerRecord,
    LowRankCompensator,
};
use milo_moe::serialize::{read_model, verify_model_stream, write_model};
use milo_moe::{MoeConfig, MoeModel};
use milo_quant::serialize::write_quantized;
use milo_quant::{rtn_quantize, QuantConfig};
use milo_tensor::io::{
    corrupt_section_info, read_section, read_u64, write_f32, write_section, write_string,
    write_u32, write_u64, IntegrityReport, SectionFault, VERSION,
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

/// A v2 stream of `magic`: the version, an optional header section, the
/// record count and one section per record, every section under a valid
/// CRC-32.
fn framed(magic: &[u8; 4], header: Option<&[u8]>, records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = magic.to_vec();
    write_u32(&mut out, VERSION).unwrap();
    if let Some(header) = header {
        write_section(&mut out, header).unwrap();
    }
    write_u64(&mut out, records.len() as u64).unwrap();
    for record in records {
        write_section(&mut out, record).unwrap();
    }
    out
}

/// `head` followed by little-endian `u64`s.
fn with_u64s(head: &[u8], values: &[u64]) -> Vec<u8> {
    let mut out = head.to_vec();
    for &v in values {
        write_u64(&mut out, v).unwrap();
    }
    out
}

/// Asserts that reading failed on a malformed section and that the
/// verifier reports that section as malformed.
fn assert_malformed(read: std::io::Result<()>, report: IntegrityReport, section: &str) {
    let err = read.expect_err("a crafted length must not load");
    let info = corrupt_section_info(&err).unwrap_or_else(|| panic!("untyped error: {err}"));
    assert_eq!(info.section, section, "{err}");
    assert!(matches!(info.fault, SectionFault::Malformed(_)), "{err}");
    assert!(!report.is_ok(), "{report:?}");
    let fault = report.sections.iter().find(|s| s.name == section).map(|s| &s.fault);
    assert!(matches!(fault, Some(Some(SectionFault::Malformed(_)))), "{report:?}");
}

#[test]
fn lengths_past_the_section_end_are_malformed_not_allocated() {
    const HUGE: u64 = 1 << 34;
    const SIDE: u64 = 1 << 17; // SIDE × SIDE = HUGE elements

    // MOEM: the config name in the header, then the first matrix of a
    // layer behind a valid header.
    let mut clean = Vec::new();
    write_model(&mut clean, &MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 3)).unwrap();
    let header = read_section(&mut &clean[8..], "").unwrap();
    for (bytes, section) in [
        (framed(b"MOEM", Some(&with_u64s(&[], &[HUGE])), &[]), "model header"),
        (framed(b"MOEM", Some(&header), &[with_u64s(&[], &[SIDE, SIDE])]), "layer 0"),
    ] {
        let read = read_model(&mut Cursor::new(&bytes[..])).map(drop);
        let report = verify_model_stream(&mut Cursor::new(&bytes[..])).unwrap();
        assert_malformed(read, report, section);
    }

    // MILO: one 1×64 attention record, cut at the layer name, the code
    // bytes, the scales and the FP32 compensator's first factor.
    let mut q = Vec::new();
    write_quantized(&mut q, &rtn_quantize(&weight(1, 64, 0), &QuantConfig::int3_asym()).unwrap())
        .unwrap();
    assert_eq!(read_u64(&mut &q[36..]).unwrap(), 64, "code byte count");
    assert_eq!(read_u64(&mut &q[108..]).unwrap(), 1, "scale count");
    let mut meta = Vec::new();
    write_string(&mut meta, "x").unwrap();
    write_u32(&mut meta, 0).unwrap(); // attention
    write_u64(&mut meta, 1).unwrap();
    write_u64(&mut meta, 64).unwrap();
    write_f32(&mut meta, 0.0).unwrap();
    write_f32(&mut meta, 0.0).unwrap();
    write_u64(&mut meta, 0).unwrap(); // rank
    let mut fp32_compensator = [meta.as_slice(), &q].concat();
    write_u32(&mut fp32_compensator, 1).unwrap(); // present
    write_u32(&mut fp32_compensator, 0).unwrap(); // FP32 factors
    for record in [
        with_u64s(&[], &[HUGE]),
        with_u64s(&[meta.as_slice(), &q[..36]].concat(), &[HUGE]),
        with_u64s(&[meta.as_slice(), &q[..108]].concat(), &[HUGE]),
        with_u64s(&fp32_compensator, &[SIDE, SIDE]),
    ] {
        let bytes = framed(b"MILO", None, &[record]);
        let read = read_compressed_model(&mut Cursor::new(&bytes[..])).map(drop);
        let report = verify_compressed_stream(&mut Cursor::new(&bytes[..])).unwrap();
        let section = report.sections[0].name.clone();
        assert!(section.starts_with("layer 0"), "{section}");
        assert_malformed(read, report, &section);
    }
}
