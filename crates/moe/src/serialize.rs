//! Binary serialization of the synthetic MoE models, so a reference model
//! can be shared between the quantization run and later evaluation runs
//! (the role the HuggingFace checkpoint directory plays in the paper's
//! artifact).
//!
//! A `MOEM` artifact is an [`ArtifactFormat`] container (see
//! [`milo_tensor::io`]): a model header (config + embeddings + output
//! head), the layer count, then one record per transformer layer. The
//! header and every layer are checksummed sections, so corruption or
//! truncation surfaces as a typed
//! [`CorruptSection`](milo_tensor::io::CorruptSection) error naming the
//! damaged section.

use crate::attention::Attention;
use crate::config::MoeConfig;
use crate::mlp::Mlp;
use crate::model::{FfnBlock, MoeBlock, MoeModel, TransformerLayer};
use crate::router::Router;
use milo_tensor::io::{
    invalid, read_f32, read_f32_vec, read_matrix, read_string, read_u32, read_u64, write_f32,
    write_f32_slice, write_matrix, write_string, write_u32, write_u64, ArtifactFormat,
    IntegrityReport,
};
use std::io::{self, Read, Write};

/// The `MOEM` container: a model header, then one record per layer.
const FORMAT: ArtifactFormat =
    ArtifactFormat { magic: b"MOEM", header: true, max_records: 1 << 16, label: |_| None };

fn write_config(w: &mut impl Write, c: &MoeConfig) -> io::Result<()> {
    write_string(w, &c.name)?;
    for v in [
        c.n_layers,
        c.d_model,
        c.n_heads,
        c.vocab,
        c.n_experts,
        c.top_k,
        c.expert_ffn,
        c.n_shared_experts,
        c.shared_ffn,
    ] {
        write_u64(w, v as u64)?;
    }
    write_u32(w, c.first_layer_dense as u32)?;
    for v in [c.router_imbalance, c.attn_dof, c.expert_channel_spread, c.head_gain] {
        write_f32(w, v)?;
    }
    Ok(())
}

fn read_config(r: &mut impl Read) -> io::Result<MoeConfig> {
    let name = read_string(r)?;
    let mut us = [0usize; 9];
    for v in &mut us {
        *v = read_u64(r)? as usize;
    }
    let first_layer_dense = read_u32(r)? != 0;
    let mut fs = [0f32; 4];
    for v in &mut fs {
        *v = read_f32(r)?;
    }
    Ok(MoeConfig {
        name,
        n_layers: us[0],
        d_model: us[1],
        n_heads: us[2],
        vocab: us[3],
        n_experts: us[4],
        top_k: us[5],
        expert_ffn: us[6],
        n_shared_experts: us[7],
        shared_ffn: us[8],
        first_layer_dense,
        router_imbalance: fs[0],
        attn_dof: fs[1],
        expert_channel_spread: fs[2],
        head_gain: fs[3],
    })
}

fn write_mlp(w: &mut impl Write, m: &Mlp) -> io::Result<()> {
    write_matrix(w, &m.w1)?;
    write_matrix(w, &m.w2)?;
    write_matrix(w, &m.w3)
}

fn read_mlp(r: &mut impl Read) -> io::Result<Mlp> {
    let w1 = read_matrix(r)?;
    let w2 = read_matrix(r)?;
    let w3 = read_matrix(r)?;
    if w1.shape() != w3.shape() || w2.shape() != (w1.cols(), w1.rows()) {
        return Err(invalid("inconsistent MLP projection shapes"));
    }
    Ok(Mlp::new(w1, w2, w3))
}

/// Writes the model-header payload: config, embeddings, output head.
fn write_header(w: &mut impl Write, model: &MoeModel) -> io::Result<()> {
    write_config(w, &model.config)?;
    write_matrix(w, &model.embed)?;
    write_matrix(w, &model.head)
}

fn read_header(r: &mut impl Read) -> io::Result<(MoeConfig, milo_tensor::Matrix, milo_tensor::Matrix)> {
    let config = read_config(r)?;
    let embed = read_matrix(r)?;
    let head = read_matrix(r)?;
    Ok((config, embed, head))
}

/// Writes one transformer layer's payload (the container frames it in a
/// checksummed section).
fn write_layer(w: &mut impl Write, layer: &TransformerLayer) -> io::Result<()> {
    for m in [&layer.attn.wq, &layer.attn.wk, &layer.attn.wv, &layer.attn.wo] {
        write_matrix(w, m)?;
    }
    write_u64(w, layer.attn.n_heads() as u64)?;
    match &layer.ffn {
        FfnBlock::Dense(mlp) => {
            write_u32(w, 0)?;
            write_mlp(w, mlp)?;
        }
        FfnBlock::Moe(moe) => {
            write_u32(w, 1)?;
            write_matrix(w, &moe.router.weight)?;
            write_f32_slice(w, &moe.router.bias)?;
            write_u64(w, moe.router.top_k() as u64)?;
            write_u64(w, moe.experts.len() as u64)?;
            for e in &moe.experts {
                write_mlp(w, e)?;
            }
            write_u64(w, moe.shared.len() as u64)?;
            for s in &moe.shared {
                write_mlp(w, s)?;
            }
        }
    }
    Ok(())
}

/// Reads one transformer layer's payload.
fn read_layer(r: &mut impl Read) -> io::Result<TransformerLayer> {
    let wq = read_matrix(r)?;
    let wk = read_matrix(r)?;
    let wv = read_matrix(r)?;
    let wo = read_matrix(r)?;
    let n_heads = read_u64(r)? as usize;
    let d = wq.rows();
    if wq.shape() != (d, d) || n_heads == 0 || d % n_heads != 0 {
        return Err(invalid("inconsistent attention shapes"));
    }
    let attn = Attention::new(wq, wk, wv, wo, n_heads);
    let ffn = match read_u32(r)? {
        0 => FfnBlock::Dense(read_mlp(r)?),
        1 => {
            let router_w = read_matrix(r)?;
            let bias = read_f32_vec(r)?;
            let top_k = read_u64(r)? as usize;
            if bias.len() != router_w.rows() || top_k == 0 || top_k > router_w.rows() {
                return Err(invalid("inconsistent router"));
            }
            let router = Router::new(router_w, bias, top_k);
            let n_experts = read_u64(r)? as usize;
            let mut experts = Vec::with_capacity(n_experts.min(1 << 16));
            for _ in 0..n_experts {
                experts.push(read_mlp(r)?);
            }
            let n_shared = read_u64(r)? as usize;
            let mut shared = Vec::with_capacity(n_shared.min(1 << 16));
            for _ in 0..n_shared {
                shared.push(read_mlp(r)?);
            }
            if experts.len() != router.n_experts() {
                return Err(invalid("router/expert count mismatch"));
            }
            FfnBlock::Moe(MoeBlock { router, experts, shared })
        }
        other => return Err(invalid(format!("unknown FFN tag {other}"))),
    };
    Ok(TransformerLayer { attn, ffn })
}

/// Writes an [`MoeModel`] to a binary stream: the header and every layer
/// in its own checksummed section.
///
/// # Errors
///
/// Propagates IO failures.
pub fn write_model(w: &mut impl Write, model: &MoeModel) -> io::Result<()> {
    let mut header = Vec::new();
    write_header(&mut header, model)?;
    FORMAT.write(w, &header, &model.layers, write_layer)
}

/// Reads an [`MoeModel`] from a binary stream.
///
/// # Errors
///
/// Returns `InvalidData` for malformed input or unsupported versions. A
/// checksum failure, truncation or malformed section surfaces as a typed
/// [`CorruptSection`](milo_tensor::io::CorruptSection) naming the damaged
/// section.
pub fn read_model(r: &mut impl Read) -> io::Result<MoeModel> {
    let ((config, embed, head), layers) =
        FORMAT.read(r, &mut |mut r| read_header(&mut r), &mut |mut r| read_layer(&mut r))?;
    Ok(MoeModel { config, embed, head, layers })
}

/// Walks a model stream verifying every section, decoding one at a time,
/// and reports per-section integrity (see [`ArtifactFormat::verify`]).
/// The report is ok exactly when [`read_model`] succeeds.
///
/// # Errors
///
/// Returns `InvalidData` only if the stream is not a `MOEM` artifact at
/// all (bad magic / unknown version / implausible layer count).
pub fn verify_model_stream(r: &mut impl Read) -> io::Result<IntegrityReport> {
    FORMAT.verify(r, &mut |mut r| read_header(&mut r), &mut |mut r| read_layer(&mut r))
}

/// Saves a model to a file.
///
/// # Errors
///
/// Propagates filesystem and serialization failures.
pub fn save_model(path: &std::path::Path, model: &MoeModel) -> io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_model(&mut file, model)
}

/// Loads a model from a file.
///
/// # Errors
///
/// Propagates filesystem and deserialization failures.
pub fn load_model(path: &std::path::Path) -> io::Result<MoeModel> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    read_model(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_tensor::io::corrupt_section_info;
    use std::io::Cursor;

    #[test]
    fn mixtral_like_round_trips_exactly() {
        let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 3);
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        let out = read_model(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out, model);
    }

    #[test]
    fn deepseek_like_round_trips_exactly() {
        let model = MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 4);
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        let out = read_model(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out, model);
        // Loaded model computes identically.
        let tokens = [1u32, 2, 3];
        assert_eq!(out.forward(&tokens).unwrap(), model.forward(&tokens).unwrap());
    }

    #[test]
    fn version_1_streams_are_refused() {
        // The pre-checksum layout: magic, version 1, unframed header,
        // count, unframed layers.
        let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 9);
        let mut v1 = b"MOEM".to_vec();
        write_u32(&mut v1, 1).unwrap();
        write_header(&mut v1, &model).unwrap();
        write_u64(&mut v1, model.layers.len() as u64).unwrap();
        for layer in &model.layers {
            write_layer(&mut v1, layer).unwrap();
        }
        let err = read_model(&mut Cursor::new(&v1[..])).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(verify_model_stream(&mut Cursor::new(&v1[..])).is_err());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 5);
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        buf[1] = b'X';
        assert!(read_model(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn corrupt_layer_section_is_a_typed_error() {
        let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 6);
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        let off = buf.len() - 20;
        buf[off] ^= 0x01;
        let err = read_model(&mut Cursor::new(buf)).unwrap_err();
        let info = corrupt_section_info(&err).expect("typed CorruptSection");
        assert!(info.section.starts_with("layer "), "section = {}", info.section);
    }

    #[test]
    fn verify_reports_sections_and_damage() {
        let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 7);
        let mut buf = Vec::new();
        write_model(&mut buf, &model).unwrap();
        let clean = verify_model_stream(&mut Cursor::new(&buf[..])).unwrap();
        assert!(clean.is_ok());
        assert_eq!(clean.sections.len(), 1 + model.layers.len());
        assert_eq!(clean.sections[0].name, "model header");

        let mut bad = buf.clone();
        let last = bad.len() - 30;
        bad[last] ^= 0x80;
        let report = verify_model_stream(&mut Cursor::new(&bad[..])).unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.n_corrupt(), 1);
    }

    #[test]
    fn file_round_trip() {
        let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 6);
        let dir = std::env::temp_dir().join("milo_moe_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.moem");
        save_model(&path, &model).unwrap();
        assert_eq!(load_model(&path).unwrap(), model);
        std::fs::remove_file(&path).ok();
    }
}
