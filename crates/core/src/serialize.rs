//! Binary serialization of compressed models — the "save the quantized
//! model to `<YOUR_DIR>`" workflow of the paper's artifact (Appendix F).
//!
//! A `MILO` artifact is an [`ArtifactFormat`] container (magic, version,
//! layer count, then one record per layer; see [`milo_tensor::io`]) with
//! no header. Each record carries its name, policy metadata, rank, the
//! quantized weight (via `milo-quant`'s format), an optional compensator
//! (FP32 factors or quantized factors), and the convergence history.
//!
//! Every record is a checksummed section: a flipped bit or a truncated
//! file is reported as a typed
//! [`CorruptSection`](milo_tensor::io::CorruptSection) error naming the
//! offending layer, never as silently-garbage weights.

use crate::compensator::{Compensator, LowRankCompensator, QuantizedCompensator};
use crate::model::{CompressedModel, LayerRecord};
use crate::optimizer::CompressedLayer;
use crate::policy::{LayerKind, LayerMeta};
use milo_quant::serialize::{read_quantized, write_quantized};
use milo_tensor::io::{
    invalid, read_f32, read_f32_vec, read_matrix, read_string, read_u32, read_u64, write_f32,
    write_f32_slice, write_matrix, write_string, write_u32, write_u64, ArtifactFormat,
    IntegrityReport,
};
use std::io::{self, Read, Write};

/// The `MILO` container: no header, one record per compressed layer,
/// labelled with the layer's name.
const FORMAT: ArtifactFormat =
    ArtifactFormat { magic: b"MILO", header: false, max_records: 1 << 24, label };

fn write_kind(w: &mut impl Write, kind: LayerKind) -> io::Result<()> {
    match kind {
        LayerKind::Attention => write_u32(w, 0),
        LayerKind::DenseFfn => write_u32(w, 1),
        LayerKind::SharedExpert => write_u32(w, 2),
        LayerKind::Expert { index } => {
            write_u32(w, 3)?;
            write_u64(w, index as u64)
        }
    }
}

fn read_kind(r: &mut impl Read) -> io::Result<LayerKind> {
    Ok(match read_u32(r)? {
        0 => LayerKind::Attention,
        1 => LayerKind::DenseFfn,
        2 => LayerKind::SharedExpert,
        3 => LayerKind::Expert { index: read_u64(r)? as usize },
        other => return Err(invalid(format!("unknown layer kind tag {other}"))),
    })
}

fn write_compensator(w: &mut impl Write, c: &Compensator) -> io::Result<()> {
    match c {
        Compensator::Fp16(lr) => {
            write_u32(w, 0)?;
            write_matrix(w, lr.u())?;
            write_matrix(w, lr.v())
        }
        Compensator::Quantized(q) => {
            write_u32(w, 1)?;
            write_quantized(w, q.u())?;
            write_quantized(w, q.v())
        }
    }
}

fn read_compensator(r: &mut impl Read) -> io::Result<Compensator> {
    Ok(match read_u32(r)? {
        0 => {
            let u = read_matrix(r)?;
            let v = read_matrix(r)?;
            Compensator::Fp16(
                LowRankCompensator::from_factors(u, v)
                    .map_err(|e| invalid(e.to_string()))?,
            )
        }
        1 => {
            let u = read_quantized(r)?;
            let v = read_quantized(r)?;
            Compensator::Quantized(
                QuantizedCompensator::from_factors(u, v)
                    .map_err(|e| invalid(e.to_string()))?,
            )
        }
        other => return Err(invalid(format!("unknown compensator tag {other}"))),
    })
}

/// Writes one layer record's payload (the container frames it in a
/// checksummed section).
fn write_layer_record(w: &mut impl Write, rec: &LayerRecord) -> io::Result<()> {
    write_string(w, &rec.name)?;
    write_kind(w, rec.meta.kind)?;
    write_u64(w, rec.meta.rows as u64)?;
    write_u64(w, rec.meta.cols as u64)?;
    write_f32(w, rec.meta.kurtosis)?;
    write_f32(w, rec.meta.frequency)?;
    write_u64(w, rec.rank as u64)?;
    write_quantized(w, &rec.layer.qweight)?;
    match &rec.layer.compensator {
        Some(c) => {
            write_u32(w, 1)?;
            write_compensator(w, c)?;
        }
        None => write_u32(w, 0)?,
    }
    write_f32_slice(w, &rec.layer.convergence)
}

/// Reads one layer record's payload.
fn read_layer_record(r: &mut impl Read) -> io::Result<LayerRecord> {
    let name = read_string(r)?;
    let kind = read_kind(r)?;
    let rows = read_u64(r)? as usize;
    let cols = read_u64(r)? as usize;
    let kurtosis = read_f32(r)?;
    let frequency = read_f32(r)?;
    let rank = read_u64(r)? as usize;
    let qweight = read_quantized(r)?;
    if qweight.shape() != (rows, cols) {
        return Err(invalid(format!(
            "layer {name}: metadata says {rows}x{cols}, weight is {:?}",
            qweight.shape()
        )));
    }
    let compensator = match read_u32(r)? {
        0 => None,
        1 => Some(read_compensator(r)?),
        other => return Err(invalid(format!("bad compensator presence tag {other}"))),
    };
    let convergence = read_f32_vec(r)?;
    Ok(LayerRecord {
        name,
        meta: LayerMeta { kind, rows, cols, kurtosis, frequency },
        rank,
        layer: CompressedLayer { qweight, compensator, convergence },
    })
}

/// The layer name at the front of a record payload, when a plausible one
/// is there (the payload may be damaged).
fn label(payload: &[u8]) -> Option<String> {
    let mut r = payload;
    let len = read_u64(&mut r).ok()?;
    if !(1..=256).contains(&len) {
        return None;
    }
    let name = std::str::from_utf8(r.get(..len as usize)?).ok()?;
    (!name.chars().any(char::is_control)).then(|| name.to_string())
}

/// Writes a compressed model to a binary stream, one checksummed section
/// per layer.
///
/// # Errors
///
/// Propagates IO failures.
pub fn write_compressed_model(w: &mut impl Write, model: &CompressedModel) -> io::Result<()> {
    FORMAT.write(w, &[], &model.layers, write_layer_record)
}

/// Reads a compressed model from a binary stream.
///
/// # Errors
///
/// Returns `InvalidData` for malformed input or unsupported versions. A
/// checksum failure, truncation or malformed record surfaces as a typed
/// [`CorruptSection`](milo_tensor::io::CorruptSection) (recoverable from
/// the error via [`milo_tensor::io::corrupt_section_info`]) naming the
/// offending layer.
pub fn read_compressed_model(r: &mut impl Read) -> io::Result<CompressedModel> {
    let ((), layers) = FORMAT.read(r, &mut |_| Ok(()), &mut |mut r| read_layer_record(&mut r))?;
    Ok(CompressedModel { layers })
}

/// Walks a compressed-model stream verifying every section, decoding one
/// layer at a time, and reports per-layer integrity (see
/// [`ArtifactFormat::verify`]). The report is ok exactly when
/// [`read_compressed_model`] succeeds.
///
/// # Errors
///
/// Returns `InvalidData` only if the stream is not a `MILO` artifact at
/// all (bad magic / unknown version / implausible layer count).
pub fn verify_compressed_stream(r: &mut impl Read) -> io::Result<IntegrityReport> {
    FORMAT.verify(r, &mut |_| Ok(()), &mut |mut r| read_layer_record(&mut r))
}

/// Saves a compressed model to a file.
///
/// # Errors
///
/// Propagates filesystem and serialization failures.
pub fn save_compressed_model(path: &std::path::Path, model: &CompressedModel) -> io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_compressed_model(&mut file, model)
}

/// Loads a compressed model from a file.
///
/// # Errors
///
/// Propagates filesystem and deserialization failures.
pub fn load_compressed_model(path: &std::path::Path) -> io::Result<CompressedModel> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    read_compressed_model(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{compress_model, LayerTensor};
    use crate::optimizer::MiloOptions;
    use crate::policy::RankPolicy;
    use milo_tensor::io::corrupt_section_info;
    use milo_tensor::rng::SeedableRng;
    use milo_tensor::rng::WeightDist;
    use std::io::Cursor;

    fn sample_model(compensator_cfg: Option<milo_quant::QuantConfig>) -> CompressedModel {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(5);
        let layers: Vec<LayerTensor> = (0..3)
            .map(|i| {
                let w =
                    WeightDist::Gaussian { std: 0.08 }.sample_matrix(48, 64, &mut rng);
                LayerTensor {
                    name: format!("layer0.expert{i}.w1"),
                    meta: LayerMeta {
                        kind: LayerKind::Expert { index: i },
                        rows: 48,
                        cols: 64,
                        kurtosis: 0.1 * i as f32,
                        frequency: 0.3,
                    },
                    weight: w,
                }
            })
            .collect();
        let opts = MiloOptions { max_iters: 1, compensator_cfg, ..MiloOptions::default() };
        compress_model(&layers, &RankPolicy::uniform(4), &opts, 1).unwrap()
    }

    #[test]
    fn round_trip_with_quantized_compensators() {
        let model = sample_model(Some(milo_quant::QuantConfig::int3_sym()));
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();
        let out = read_compressed_model(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out.layers.len(), model.layers.len());
        for (a, b) in out.layers.iter().zip(&model.layers) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.layer, b.layer);
            assert_eq!(a.meta, b.meta);
        }
    }

    #[test]
    fn round_trip_with_fp32_compensators() {
        let model = sample_model(None);
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();
        let out = read_compressed_model(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out.layers[0].layer, model.layers[0].layer);
    }

    #[test]
    fn effective_weights_survive_serialization() {
        let model = sample_model(Some(milo_quant::QuantConfig::int3_sym()));
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();
        let out = read_compressed_model(&mut Cursor::new(buf)).unwrap();
        for (a, b) in out.layers.iter().zip(&model.layers) {
            assert_eq!(a.layer.effective_weight(), b.layer.effective_weight());
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let model = sample_model(None);
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(read_compressed_model(&mut Cursor::new(bad_magic)).is_err());
        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(read_compressed_model(&mut Cursor::new(bad_version)).is_err());
    }

    #[test]
    fn version_1_streams_are_refused() {
        // The pre-checksum layout: magic, version 1, count, unframed records.
        let model = sample_model(Some(milo_quant::QuantConfig::int3_sym()));
        let mut v1 = b"MILO".to_vec();
        write_u32(&mut v1, 1).unwrap();
        write_u64(&mut v1, model.layers.len() as u64).unwrap();
        for rec in &model.layers {
            write_layer_record(&mut v1, rec).unwrap();
        }
        let err = read_compressed_model(&mut Cursor::new(&v1[..])).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(verify_compressed_stream(&mut Cursor::new(&v1[..])).is_err());
    }

    #[test]
    fn corrupted_section_error_names_the_layer() {
        let model = sample_model(None);
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();
        // Flip a byte deep inside the last layer's payload.
        let off = buf.len() - 10;
        buf[off] ^= 0x40;
        let err = read_compressed_model(&mut Cursor::new(buf)).unwrap_err();
        let info = corrupt_section_info(&err).expect("typed CorruptSection");
        assert!(
            info.section.contains("layer 2") && info.section.contains("layer0.expert2.w1"),
            "section = {}",
            info.section
        );
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_cut() {
        let model = sample_model(None);
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();
        // Spot-check cuts across headers, section frames, and payloads
        // (the exhaustive sweep lives in tests/fault_injection.rs).
        for cut in [0, 3, 4, 7, 12, 13, 21, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_compressed_model(&mut Cursor::new(&buf[..cut])).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn verify_reports_every_layer_and_pinpoints_damage() {
        let model = sample_model(Some(milo_quant::QuantConfig::int3_sym()));
        let mut buf = Vec::new();
        write_compressed_model(&mut buf, &model).unwrap();

        let clean = verify_compressed_stream(&mut Cursor::new(&buf[..])).unwrap();
        assert!(clean.is_ok());
        assert_eq!(clean.sections.len(), 3);
        assert!(clean.sections[1].name.contains("layer0.expert1.w1"));

        // Damage the middle layer: the report flags exactly that one and
        // still verifies its neighbours.
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x08;
        let report = verify_compressed_stream(&mut Cursor::new(&bad[..])).unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.n_corrupt(), 1);
        assert_eq!(report.sections.len(), 3);
    }

    #[test]
    fn file_round_trip() {
        let model = sample_model(Some(milo_quant::QuantConfig::int3_sym()));
        let dir = std::env::temp_dir().join("milo_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.milo");
        save_compressed_model(&path, &model).unwrap();
        let out = load_compressed_model(&path).unwrap();
        assert_eq!(out.layers.len(), model.layers.len());
        std::fs::remove_file(&path).ok();
    }
}
