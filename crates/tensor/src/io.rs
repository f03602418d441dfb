//! Minimal little-endian binary serialization primitives, CRC-framed
//! sections, and the one artifact container, [`ArtifactFormat`], whose
//! payloads all sit in such sections.
//!
//! The compressed-model formats in `milo-quant`/`milo-core`/`milo-moe`
//! are built from these; keeping them here avoids a serde dependency for
//! what is a handful of fixed-layout records.

use crate::crc32::crc32;
use crate::Matrix;
use std::io::{self, Read, Write};

/// Upper bound on a framed section's payload length; corrupt length
/// headers must not trigger multi-gigabyte allocations.
pub const MAX_SECTION_BYTES: u64 = 1 << 32;

/// How a framed section failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionFault {
    /// The stored CRC-32 does not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the stream.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// The stream ended before the declared payload length.
    Truncated,
    /// The declared payload length exceeds [`MAX_SECTION_BYTES`].
    OversizedLength(u64),
    /// The checksum verified but the payload does not decode, or leaves
    /// bytes unread.
    Malformed(String),
}

/// Typed error for a damaged artifact section, naming the section (for
/// model artifacts: the offending layer) so callers and operators know
/// *what* is corrupt, not just that something is.
///
/// Readers surface this wrapped in an [`io::Error`] of kind
/// `InvalidData`; use [`corrupt_section_info`] to recover the structured
/// form from a propagated error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSection {
    /// Human-readable section name (e.g. `layer 3 (layer0.expert1.w1)`).
    pub section: String,
    /// What exactly failed.
    pub fault: SectionFault,
}

impl std::fmt::Display for SectionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SectionFault::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SectionFault::Truncated => write!(f, "truncated"),
            SectionFault::OversizedLength(n) => {
                write!(f, "implausible length ({n} bytes)")
            }
            SectionFault::Malformed(msg) => write!(f, "malformed ({msg})"),
        }
    }
}

impl std::fmt::Display for CorruptSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.fault {
            SectionFault::ChecksumMismatch { stored, computed } => write!(
                f,
                "section `{}` is corrupt: checksum mismatch (stored {stored:#010x}, computed {computed:#010x})",
                self.section
            ),
            SectionFault::Truncated => {
                write!(f, "section `{}` is truncated", self.section)
            }
            SectionFault::OversizedLength(n) => write!(
                f,
                "section `{}` declares an implausible length of {n} bytes",
                self.section
            ),
            SectionFault::Malformed(msg) => {
                write!(f, "section `{}` is malformed: {msg}", self.section)
            }
        }
    }
}

impl std::error::Error for CorruptSection {}

impl From<CorruptSection> for io::Error {
    fn from(c: CorruptSection) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, c)
    }
}

/// Recovers the structured [`CorruptSection`] from an [`io::Error`]
/// produced by a section reader, if that is what it carries.
pub fn corrupt_section_info(e: &io::Error) -> Option<&CorruptSection> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<CorruptSection>())
}

/// Writes a framed section: `u64` payload length, `u32` CRC-32 of the
/// payload, then the payload bytes.
pub fn write_section(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_u64(w, payload.len() as u64)?;
    write_u32(w, crc32(payload))?;
    w.write_all(payload)
}

/// Reads a framed section written by [`write_section`], validating the
/// checksum. `section` names the section in any [`CorruptSection`] error.
///
/// # Errors
///
/// Returns an `InvalidData` error carrying a [`CorruptSection`] when the
/// declared length is implausible, the stream ends early, or the
/// checksum does not match; propagates other IO failures.
pub fn read_section(r: &mut impl Read, section: &str) -> io::Result<Vec<u8>> {
    match read_section_lenient(r, section)? {
        (payload, None) => Ok(payload),
        (_, Some(fault)) => Err(fault.into()),
    }
}

/// Like [`read_section`], but a checksum mismatch is returned as data —
/// `(payload, Some(fault))` — instead of an error, so integrity scanners
/// can report the damage *and keep walking the stream* (the framing is
/// still intact when only payload bytes are wrong). Truncation and
/// oversized lengths still error: past those the stream cannot be
/// followed.
///
/// # Errors
///
/// Returns `CorruptSection` (wrapped in `InvalidData`) for truncation or
/// an implausible length; propagates other IO failures.
pub fn read_section_lenient(
    r: &mut impl Read,
    section: &str,
) -> io::Result<(Vec<u8>, Option<CorruptSection>)> {
    let eof = |e| truncated_as(e, section);
    let len = read_u64(r).map_err(eof)?;
    if len > MAX_SECTION_BYTES {
        let fault = SectionFault::OversizedLength(len);
        return Err(CorruptSection { section: section.to_string(), fault }.into());
    }
    let stored = read_u32(r).map_err(eof)?;
    let payload = read_vec(r, len as usize).map_err(eof)?;
    let computed = crc32(&payload);
    if computed != stored {
        let c = CorruptSection {
            section: section.to_string(),
            fault: SectionFault::ChecksumMismatch { stored, computed },
        };
        return Ok((payload, Some(c)));
    }
    Ok((payload, None))
}

/// Maps an unexpected end of stream to a typed truncation of `section`;
/// other IO failures pass through.
fn truncated_as(e: io::Error, section: &str) -> io::Error {
    if e.kind() != io::ErrorKind::UnexpectedEof {
        return e;
    }
    CorruptSection { section: section.to_string(), fault: SectionFault::Truncated }.into()
}

/// Integrity status of one framed section, as reported by an artifact
/// verifier (`milo-cli check`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionReport {
    /// Section name (for model artifacts, the layer it holds).
    pub name: String,
    /// Payload length in bytes.
    pub bytes: u64,
    /// `None` when the checksum verified; the fault otherwise.
    pub fault: Option<SectionFault>,
}

/// Whole-artifact integrity report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Per-section status, in stream order. Scanning stops early only on
    /// faults that make the framing unfollowable (truncation).
    pub sections: Vec<SectionReport>,
    /// Bytes found after the final section (corrupt layer count or
    /// appended garbage).
    pub trailing_data: bool,
}

impl IntegrityReport {
    /// Whether every section verified and no trailing bytes were found:
    /// exactly when [`ArtifactFormat::read`] accepts the stream.
    pub fn is_ok(&self) -> bool {
        !self.trailing_data && self.sections.iter().all(|s| s.fault.is_none())
    }

    /// Number of damaged sections.
    pub fn n_corrupt(&self) -> usize {
        self.sections.iter().filter(|s| s.fault.is_some()).count()
    }
}

/// The artifact format version, the only one written or read:
/// CRC-framed sections.
pub const VERSION: u32 = 2;

/// The container shared by the model artifacts (`MILO` compressed
/// models, `MOEM` reference models); each format supplies only its
/// payload codec. The stream is
///
/// ```text
/// magic[4]  version:u32  [header]  count:u64  record × count
/// ```
///
/// The header (for a format that has one) and every record are sections
/// framed by [`write_section`]; each payload must decode to its last
/// byte, and the stream must end after the last record. The version is
/// always [`VERSION`].
///
/// Sections are named `model header` and `layer i`, or `layer i (label)`
/// when [`label`](Self::label) finds one in the payload.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactFormat {
    /// The tag that opens the stream.
    pub magic: &'static [u8; 4],
    /// Whether a header payload precedes the record count.
    pub header: bool,
    /// Sanity limit on the record count read from a (possibly corrupt)
    /// stream.
    pub max_records: u64,
    /// Labels a record from its payload bytes, which may be damaged.
    pub label: fn(&[u8]) -> Option<String>,
}

/// A payload decoder, reading from one section's verified bytes.
pub type Decode<'a, T> = &'a mut dyn FnMut(&mut dyn Read) -> io::Result<T>;

impl ArtifactFormat {
    /// Writes `records`, each encoded by `encode` into its own section,
    /// after the `header` section (omitted by a format without a header).
    ///
    /// # Errors
    ///
    /// Propagates IO and encoding failures.
    pub fn write<W: Write, T>(
        &self,
        w: &mut W,
        header: &[u8],
        records: &[T],
        mut encode: impl FnMut(&mut Vec<u8>, &T) -> io::Result<()>,
    ) -> io::Result<()> {
        write_tag(w, self.magic)?;
        write_u32(w, VERSION)?;
        if self.header {
            write_section(w, header)?;
        }
        write_u64(w, records.len() as u64)?;
        let mut payload = Vec::new();
        for rec in records {
            payload.clear();
            encode(&mut payload, rec)?;
            write_section(w, &payload)?;
        }
        Ok(())
    }

    /// Reads an artifact: the header decoded by `header` (from no bytes,
    /// for a format without one), then every record decoded by `record`.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a foreign magic, any version but [`VERSION`], an
    /// implausible record count or trailing bytes. A damaged, truncated
    /// or malformed section is a typed [`CorruptSection`] naming it.
    pub fn read<H, T>(
        &self,
        r: &mut impl Read,
        header: Decode<'_, H>,
        record: Decode<'_, T>,
    ) -> io::Result<(H, Vec<T>)> {
        self.read_version(r)?;
        let head =
            if self.header { self.checked(r, None, header)? } else { header(&mut io::empty())? };
        let n = self.read_count(r)?;
        let mut records = Vec::with_capacity(n.min(1 << 12));
        for i in 0..n {
            records.push(self.checked(r, Some(i), record)?);
        }
        if !at_eof(r)? {
            return Err(invalid("trailing data after the final record (corrupt count?)"));
        }
        Ok((head, records))
    }

    /// Walks an artifact verifying every section, decoding one payload at
    /// a time with the same decoders as [`read`](Self::read). Keeps going
    /// past damaged payloads (the framing still holds) and stops only
    /// where the stream can no longer be followed (truncation). The
    /// report [`is_ok`](IntegrityReport::is_ok) exactly when `read`
    /// accepts the stream.
    ///
    /// # Errors
    ///
    /// `InvalidData` only for a stream that is not this artifact at all:
    /// foreign magic, any version but [`VERSION`] or implausible record
    /// count.
    pub fn verify<H, T>(
        &self,
        r: &mut impl Read,
        header: Decode<'_, H>,
        record: Decode<'_, T>,
    ) -> io::Result<IntegrityReport> {
        self.read_version(r)?;
        let mut report = IntegrityReport { sections: Vec::new(), trailing_data: false };
        match self.scan(r, header, record, &mut report.sections) {
            Ok(eof) => report.trailing_data = !eof,
            Err(e) => match corrupt_section_info(&e) {
                Some(c) => report.sections.push(SectionReport {
                    name: c.section.clone(),
                    bytes: 0,
                    fault: Some(c.fault.clone()),
                }),
                None => return Err(e),
            },
        }
        Ok(report)
    }

    /// Reports every section of a stream (past the version) into
    /// `sections`, then whether the stream ends there. Errors where the
    /// stream can no longer be followed.
    fn scan<H, T>(
        &self,
        r: &mut impl Read,
        header: Decode<'_, H>,
        record: Decode<'_, T>,
        sections: &mut Vec<SectionReport>,
    ) -> io::Result<bool> {
        type Section<V> = (String, u64, Result<V, SectionFault>);
        fn report<V>((name, bytes, value): Section<V>) -> SectionReport {
            SectionReport { name, bytes, fault: value.err() }
        }
        if self.header {
            sections.push(report(self.section(r, None, header)?));
        }
        for i in 0..self.read_count(r)? {
            sections.push(report(self.section(r, Some(i), record)?));
        }
        at_eof(r)
    }

    fn read_version(&self, r: &mut impl Read) -> io::Result<()> {
        expect_tag(r, self.magic)?;
        match read_u32(r)? {
            VERSION => Ok(()),
            v => {
                let magic = String::from_utf8_lossy(self.magic);
                Err(invalid(format!("unsupported {magic} format version {v}")))
            }
        }
    }

    /// Reads the record count; a stream cut short there is a truncated
    /// `layer table` section.
    fn read_count(&self, r: &mut impl Read) -> io::Result<usize> {
        let n = read_u64(r).map_err(|e| truncated_as(e, "layer table"))?;
        if n > self.max_records {
            return Err(invalid(format!("layer count {n} exceeds sanity limit")));
        }
        Ok(n as usize)
    }

    fn name(&self, record: Option<usize>, payload: &[u8]) -> String {
        let Some(i) = record else { return "model header".to_string() };
        match (self.label)(payload) {
            Some(label) => format!("layer {i} ({label})"),
            None => format!("layer {i}"),
        }
    }

    /// Reads one framed section and decodes its payload into its name,
    /// its length and the value, or the fault that kept it from decoding.
    fn section<T>(
        &self,
        r: &mut impl Read,
        record: Option<usize>,
        decode: Decode<'_, T>,
    ) -> io::Result<(String, u64, Result<T, SectionFault>)> {
        let (payload, fault) = read_section_lenient(r, &self.name(record, &[]))?;
        let mut rest = payload.as_slice();
        let value = match fault {
            Some(c) => Err(c.fault),
            None => match decode(&mut rest) {
                Ok(_) if !rest.is_empty() => Err("record shorter than its section".to_string()),
                Ok(v) => Ok(v),
                Err(e) => Err(e.to_string()),
            }
            .map_err(SectionFault::Malformed),
        };
        Ok((self.name(record, &payload), payload.len() as u64, value))
    }

    /// [`section`](Self::section), with a fault as a typed error.
    fn checked<T>(
        &self,
        r: &mut impl Read,
        record: Option<usize>,
        decode: Decode<'_, T>,
    ) -> io::Result<T> {
        let (section, _, value) = self.section(r, record, decode)?;
        value.map_err(|fault| CorruptSection { section, fault }.into())
    }
}

/// An `InvalidData` error carrying `msg`, the kind every reader here
/// returns for malformed input.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Whether the stream holds no more bytes.
fn at_eof(r: &mut impl Read) -> io::Result<bool> {
    Ok(r.read(&mut [0u8; 1])? == 0)
}

/// Writes a 4-byte section tag.
pub fn write_tag(w: &mut impl Write, tag: &[u8; 4]) -> io::Result<()> {
    w.write_all(tag)
}

/// Reads and validates a 4-byte section tag.
pub fn expect_tag(r: &mut impl Read, tag: &[u8; 4]) -> io::Result<()> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    if &buf != tag {
        let (tag, buf) = (String::from_utf8_lossy(tag), String::from_utf8_lossy(&buf));
        return Err(invalid(format!("expected tag {tag:?}, found {buf:?}")));
    }
    Ok(())
}

/// Writes a `u32` (little endian).
pub fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u32` (little endian).
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes a `u64` (little endian).
pub fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64` (little endian).
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes an `f32` (little endian).
pub fn write_f32(w: &mut impl Write, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads an `f32` (little endian).
pub fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Bytes a reader reserves up front for a buffer whose length came from
/// the stream; anything longer grows as its bytes actually arrive.
const RESERVE_BYTES: usize = 1 << 20;

/// Reads exactly `n` bytes, growing the buffer only as data arrives: a
/// corrupt length header fails on the short read instead of allocating
/// its length up front.
fn read_vec(r: &mut impl Read, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(n.min(RESERVE_BYTES));
    r.take(n as u64).read_to_end(&mut buf)?;
    if buf.len() != n {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(buf)
}

/// Reads `n` little-endian `f32`s, with the same capped reservation as
/// [`read_vec`].
fn read_f32s(r: &mut impl Read, n: usize) -> io::Result<Vec<f32>> {
    let mut out = Vec::with_capacity(n.min(RESERVE_BYTES / 4));
    for _ in 0..n {
        out.push(read_f32(r)?);
    }
    Ok(out)
}

/// Reads a length header, rejecting one no model here could need.
fn read_len(r: &mut impl Read, what: &str) -> io::Result<usize> {
    let n = read_u64(r)?;
    const LIMIT: u64 = 1 << 34; // 16 Gi elements: far beyond any model here
    if n > LIMIT {
        return Err(invalid(format!("{what} length {n} exceeds sanity limit")));
    }
    Ok(n as usize)
}

/// Writes a UTF-8 string with a length header.
pub fn write_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Reads a UTF-8 string.
pub fn read_string(r: &mut impl Read) -> io::Result<String> {
    let n = read_len(r, "string")?;
    String::from_utf8(read_vec(r, n)?).map_err(|e| invalid(format!("bad utf-8: {e}")))
}

/// Writes a `Vec<f32>` with a length header.
pub fn write_f32_slice(w: &mut impl Write, xs: &[f32]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    for &x in xs {
        write_f32(w, x)?;
    }
    Ok(())
}

/// Reads a `Vec<f32>`.
pub fn read_f32_vec(r: &mut impl Read) -> io::Result<Vec<f32>> {
    let n = read_len(r, "f32 vector")?;
    read_f32s(r, n)
}

/// Writes a byte slice with a length header.
pub fn write_bytes(w: &mut impl Write, xs: &[u8]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    w.write_all(xs)
}

/// Reads a byte vector.
pub fn read_bytes(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let n = read_len(r, "byte vector")?;
    read_vec(r, n)
}

/// Writes a matrix (shape header + row-major f32 data).
pub fn write_matrix(w: &mut impl Write, m: &Matrix) -> io::Result<()> {
    write_u64(w, m.rows() as u64)?;
    write_u64(w, m.cols() as u64)?;
    for &v in m.as_slice() {
        write_f32(w, v)?;
    }
    Ok(())
}

/// Reads a matrix.
pub fn read_matrix(r: &mut impl Read) -> io::Result<Matrix> {
    let rows = read_len(r, "matrix rows")?;
    let cols = read_len(r, "matrix cols")?;
    let n = rows.checked_mul(cols).ok_or_else(|| invalid("matrix shape overflows"))?;
    Ok(Matrix::from_vec(rows, cols, read_f32s(r, n)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 7).unwrap();
        write_f32(&mut buf, -1.5e-4).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 7);
        assert_eq!(read_f32(&mut r).unwrap(), -1.5e-4);
    }

    #[test]
    fn string_and_vectors_round_trip() {
        let mut buf = Vec::new();
        write_string(&mut buf, "layer3.expert5.w1").unwrap();
        write_f32_slice(&mut buf, &[1.0, -2.0, 0.5]).unwrap();
        write_bytes(&mut buf, &[7, 0, 255]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_string(&mut r).unwrap(), "layer3.expert5.w1");
        assert_eq!(read_f32_vec(&mut r).unwrap(), vec![1.0, -2.0, 0.5]);
        assert_eq!(read_bytes(&mut r).unwrap(), vec![7, 0, 255]);
    }

    #[test]
    fn matrix_round_trips() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 - 7.0);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        let out = read_matrix(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut buf = Vec::new();
        write_tag(&mut buf, b"MILO").unwrap();
        assert!(expect_tag(&mut Cursor::new(&buf), b"MILQ").is_err());
        assert!(expect_tag(&mut Cursor::new(&buf), b"MILO").is_ok());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::filled(4, 4, 1.0)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_matrix(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn absurd_length_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert!(read_string(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn section_round_trips() {
        let payload = b"some layer record bytes".to_vec();
        let mut buf = Vec::new();
        write_section(&mut buf, &payload).unwrap();
        let out = read_section(&mut Cursor::new(buf), "layer 0").unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn corrupt_section_is_a_typed_checksum_error() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"payload-payload-payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        let err = read_section(&mut Cursor::new(buf), "layer 7 (w1)").unwrap_err();
        let info = corrupt_section_info(&err).expect("typed CorruptSection");
        assert_eq!(info.section, "layer 7 (w1)");
        assert!(matches!(info.fault, SectionFault::ChecksumMismatch { .. }));
        assert!(err.to_string().contains("layer 7 (w1)"));
    }

    #[test]
    fn truncated_section_is_a_typed_truncation_error() {
        let mut buf = Vec::new();
        write_section(&mut buf, &[7u8; 100]).unwrap();
        for cut in 0..buf.len() {
            let err = read_section(&mut Cursor::new(&buf[..cut]), "s").unwrap_err();
            let info = corrupt_section_info(&err)
                .unwrap_or_else(|| panic!("cut {cut}: untyped error {err}"));
            assert!(
                matches!(
                    info.fault,
                    SectionFault::Truncated | SectionFault::ChecksumMismatch { .. }
                ),
                "cut {cut}: {info:?}"
            );
        }
    }

    #[test]
    fn oversized_section_length_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, MAX_SECTION_BYTES + 1).unwrap();
        write_u32(&mut buf, 0).unwrap();
        let err = read_section(&mut Cursor::new(buf), "s").unwrap_err();
        let info = corrupt_section_info(&err).unwrap();
        assert!(matches!(info.fault, SectionFault::OversizedLength(_)));
    }

    #[test]
    fn verify_is_ok_exactly_when_read_succeeds() {
        let format =
            ArtifactFormat { magic: b"TEST", header: true, max_records: 16, label: |_| None };
        let records = [b"first".to_vec(), b"second record".to_vec()];
        let mut header = Vec::new();
        write_bytes(&mut header, b"head").unwrap();
        let mut clean = Vec::new();
        format.write(&mut clean, &header, &records, |w, r| write_bytes(w, r)).unwrap();
        let verdicts = |bytes: &[u8]| {
            let mut decode = |mut r: &mut dyn Read| read_bytes(&mut r);
            let read = format.read(&mut Cursor::new(bytes), &mut decode.clone(), &mut decode);
            let report = format.verify(&mut Cursor::new(bytes), &mut decode.clone(), &mut decode);
            (read.is_ok(), report.is_ok_and(|report| report.is_ok()))
        };
        assert_eq!(verdicts(&clean), (true, true));
        let mut trailing = clean.clone();
        trailing.push(0);
        let mut flipped = clean.clone();
        *flipped.last_mut().unwrap() ^= 1;
        for (what, bad) in [
            ("trailing byte", &trailing[..]),
            ("flipped byte", &flipped[..]),
            ("cut", &clean[..20]),
        ] {
            assert_eq!(verdicts(bad), (false, false), "{what}");
        }
    }
}
