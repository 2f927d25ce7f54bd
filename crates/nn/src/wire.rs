//! Little-endian wire helpers for the binary model format.
//!
//! The paper's deployment pipeline (Fig. 4) reads "a file that contains
//! trained weights and biases"; this module defines the primitive
//! encoding shared by the model writer, the parameters parser and layer
//! config blobs.

use crate::error::NnError;
use ffdl_tensor::Tensor;
use std::io::{Read, Write};

/// FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest of `bytes` — the workspace's in-house integrity
/// checksum (zero dependencies, byte-order independent, and cheap enough
/// to run on every model load).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV1A_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV1A_PRIME);
    }
    h
}

/// A [`Write`] adapter that folds every byte it forwards into a running
/// FNV-1a digest. `save_network` streams the model through one of these
/// so the checksum trailer never needs a second pass over the payload.
pub struct Fnv1aWriter<W> {
    inner: W,
    digest: u64,
}

impl<W: Write> Fnv1aWriter<W> {
    /// Wraps `inner` with a fresh digest.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            digest: FNV1A_OFFSET,
        }
    }

    /// The digest over everything written so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Unwraps, returning the underlying writer (digest bytes written to
    /// it afterwards are *not* hashed — that is the point: the trailer
    /// covers the payload, not itself).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for Fnv1aWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        for &b in &buf[..n] {
            self.digest = (self.digest ^ b as u64).wrapping_mul(FNV1A_PRIME);
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The [`Read`] counterpart of [`Fnv1aWriter`]: hashes every byte it
/// hands out, so `load_network` can verify the trailer after parsing
/// without buffering the whole file.
pub struct Fnv1aReader<R> {
    inner: R,
    digest: u64,
}

impl<R: Read> Fnv1aReader<R> {
    /// Wraps `inner` with a fresh digest.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            digest: FNV1A_OFFSET,
        }
    }

    /// The digest over everything read so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Unwraps, returning the underlying reader (trailer bytes read from
    /// it afterwards are not hashed).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for Fnv1aReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        for &b in &buf[..n] {
            self.digest = (self.digest ^ b as u64).wrapping_mul(FNV1A_PRIME);
        }
        Ok(n)
    }
}

/// Scheme tag for [`QuantPayload`]: symmetric fixed point, one scale
/// per output block, `value = level · scale`.
pub const QUANT_SCHEME_SYMMETRIC: u32 = 1;

/// Quantization sidecar for one layer in a version-3 model file: the
/// fixed-point weight levels and their block scales, kept out of the
/// generic f32 tensor path so the stored bytes stay narrow (2 bytes per
/// level for int16, 1 byte for int8, instead of 4 for `f32`).
///
/// Layers opt in via [`Layer::quant_payload`](crate::Layer::quant_payload)
/// / [`Layer::load_quant_payload`](crate::Layer::load_quant_payload);
/// the writer emits one header entry per opted-in layer and bumps the
/// file version to 3.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantPayload {
    /// Quantization scheme ([`QUANT_SCHEME_SYMMETRIC`]).
    pub scheme: u32,
    /// Effective bits per level (8, 12 or 16).
    pub bits: u32,
    /// Per-output-block scales.
    pub scales: Vec<f32>,
    /// Interleaved re/im fixed-point levels for every stored spectrum.
    pub levels: Vec<i16>,
}

/// Maps a truncated read inside the v3 quantization header to a *typed*
/// [`NnError::ModelFormat`] naming the missing section — a cut-off
/// header should read as "this file is malformed here", not as a
/// generic EOF.
pub fn quant_section<T>(res: Result<T, NnError>, section: &str) -> Result<T, NnError> {
    match res {
        Err(NnError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(NnError::ModelFormat(format!(
                "truncated v3 quantization header: missing {section}"
            )))
        }
        other => other,
    }
}

/// Writes one v3 quantization-header entry:
/// `layer_index, scheme, bits, n_scales, scales…, n_levels, levels…`.
/// Levels are 1 byte each for 8-bit payloads, little-endian `i16`
/// otherwise.
pub fn write_quant_entry<W: Write>(
    w: &mut W,
    layer_index: u32,
    p: &QuantPayload,
) -> Result<(), NnError> {
    write_u32(w, layer_index)?;
    write_u32(w, p.scheme)?;
    write_u32(w, p.bits)?;
    write_u32(w, p.scales.len() as u32)?;
    for &s in &p.scales {
        write_f32(w, s)?;
    }
    write_u32(w, p.levels.len() as u32)?;
    if p.bits <= 8 {
        for &l in &p.levels {
            w.write_all(&[(l as i8) as u8])?;
        }
    } else {
        for &l in &p.levels {
            w.write_all(&l.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads one entry written by [`write_quant_entry`], returning the layer
/// index it applies to. Truncation anywhere inside the entry yields a
/// typed [`NnError::ModelFormat`] naming the missing section.
pub fn read_quant_entry<R: Read>(r: &mut R) -> Result<(u32, QuantPayload), NnError> {
    let layer_index = quant_section(read_u32(r), "layer index")?;
    let scheme = quant_section(read_u32(r), "scheme")?;
    if scheme != QUANT_SCHEME_SYMMETRIC {
        return Err(NnError::ModelFormat(format!(
            "unknown quantization scheme {scheme}"
        )));
    }
    let bits = quant_section(read_u32(r), "bits")?;
    if !(2..=16).contains(&bits) {
        return Err(NnError::ModelFormat(format!(
            "quantization width {bits} bits outside the supported 2..=16"
        )));
    }
    let n_scales = quant_section(read_u32(r), "scale count")? as usize;
    if n_scales > 1 << 20 {
        return Err(NnError::ModelFormat(format!(
            "scale count {n_scales} exceeds sanity bound"
        )));
    }
    let mut scales = Vec::with_capacity(n_scales);
    for _ in 0..n_scales {
        scales.push(quant_section(read_f32(r), "scales")?);
    }
    let n_levels = quant_section(read_u32(r), "level count")? as usize;
    if n_levels > 1 << 28 {
        return Err(NnError::ModelFormat(format!(
            "level count {n_levels} exceeds sanity bound"
        )));
    }
    let mut levels = Vec::with_capacity(n_levels);
    if bits <= 8 {
        let mut buf = [0u8; 1];
        for _ in 0..n_levels {
            quant_section(r.read_exact(&mut buf).map_err(NnError::Io), "levels")?;
            levels.push(buf[0] as i8 as i16);
        }
    } else {
        let mut buf = [0u8; 2];
        for _ in 0..n_levels {
            quant_section(r.read_exact(&mut buf).map_err(NnError::Io), "levels")?;
            levels.push(i16::from_le_bytes(buf));
        }
    }
    Ok((
        layer_index,
        QuantPayload {
            scheme,
            bits,
            scales,
            levels,
        },
    ))
}

/// Writes a `u32` in little-endian order.
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), NnError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Reads a little-endian `u32`.
pub fn read_u32<R: Read>(r: &mut R) -> Result<u32, NnError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Writes an `f32` in little-endian order.
pub fn write_f32<W: Write>(w: &mut W, v: f32) -> Result<(), NnError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// Reads a little-endian `f32`.
pub fn read_f32<R: Read>(r: &mut R) -> Result<f32, NnError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_string<W: Write>(w: &mut W, s: &str) -> Result<(), NnError> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Reads a length-prefixed UTF-8 string (capped at 1 MiB to bound memory
/// on corrupt files).
pub fn read_string<R: Read>(r: &mut R) -> Result<String, NnError> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(NnError::ModelFormat(format!(
            "string length {len} exceeds sanity bound"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| NnError::ModelFormat("string is not UTF-8".into()))
}

/// Writes a tensor as `ndim, dims…, f32 data`.
pub fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> Result<(), NnError> {
    write_u32(w, t.ndim() as u32)?;
    for &d in t.shape() {
        write_u32(w, d as u32)?;
    }
    for &v in t.as_slice() {
        write_f32(w, v)?;
    }
    Ok(())
}

/// Reads a tensor written by [`write_tensor`] (element count capped at
/// 2²⁸ to bound memory on corrupt files).
pub fn read_tensor<R: Read>(r: &mut R) -> Result<Tensor, NnError> {
    let ndim = read_u32(r)? as usize;
    if ndim > 8 {
        return Err(NnError::ModelFormat(format!(
            "tensor rank {ndim} exceeds sanity bound"
        )));
    }
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(read_u32(r)? as usize);
    }
    let n: usize = shape.iter().product();
    if n > 1 << 28 {
        return Err(NnError::ModelFormat(format!(
            "tensor with {n} elements exceeds sanity bound"
        )));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(read_f32(r)?);
    }
    Tensor::from_vec(data, &shape).map_err(|e| NnError::ModelFormat(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        assert_eq!(read_u32(&mut Cursor::new(buf)).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn f32_roundtrip() {
        let mut buf = Vec::new();
        write_f32(&mut buf, -1.25e-3).unwrap();
        assert_eq!(read_f32(&mut Cursor::new(buf)).unwrap(), -1.25e-3);
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        write_string(&mut buf, "block-circulant ◉").unwrap();
        assert_eq!(
            read_string(&mut Cursor::new(buf)).unwrap(),
            "block-circulant ◉"
        );
    }

    #[test]
    fn string_rejects_giant_length() {
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX).unwrap();
        assert!(matches!(
            read_string(&mut Cursor::new(buf)),
            Err(NnError::ModelFormat(_))
        ));
    }

    #[test]
    fn tensor_roundtrip() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f32 * 0.5);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(&mut Cursor::new(buf)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn tensor_rejects_absurd_rank() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 99).unwrap();
        assert!(matches!(
            read_tensor(&mut Cursor::new(buf)),
            Err(NnError::ModelFormat(_))
        ));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hashing_writer_and_reader_agree_with_oneshot() {
        let payload = b"block-circulant weights".to_vec();
        let mut w = Fnv1aWriter::new(Vec::new());
        w.write_all(&payload).unwrap();
        assert_eq!(w.digest(), fnv1a(&payload));
        let buf = w.into_inner();
        assert_eq!(buf, payload);

        let mut r = Fnv1aReader::new(Cursor::new(buf));
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(r.digest(), fnv1a(&payload));
        assert_eq!(back, payload);
    }

    fn payload(bits: u32) -> QuantPayload {
        QuantPayload {
            scheme: QUANT_SCHEME_SYMMETRIC,
            bits,
            scales: vec![0.25, 0.5, 0.125],
            levels: (-6..6).map(|l| l * 10).collect(),
        }
    }

    #[test]
    fn quant_entry_roundtrip_all_widths() {
        for bits in [8u32, 12, 16] {
            let p = payload(bits);
            let mut buf = Vec::new();
            write_quant_entry(&mut buf, 7, &p).unwrap();
            let (idx, back) = read_quant_entry(&mut Cursor::new(buf)).unwrap();
            assert_eq!(idx, 7);
            assert_eq!(back, p, "width {bits}");
        }
    }

    #[test]
    fn quant_entry_int8_levels_are_single_bytes() {
        let mut wide = Vec::new();
        write_quant_entry(&mut wide, 0, &payload(16)).unwrap();
        let mut narrow = Vec::new();
        write_quant_entry(&mut narrow, 0, &payload(8)).unwrap();
        assert_eq!(wide.len() - narrow.len(), payload(8).levels.len());
    }

    #[test]
    fn truncated_quant_entry_names_missing_section() {
        let p = payload(16);
        let mut full = Vec::new();
        write_quant_entry(&mut full, 3, &p).unwrap();
        // Cut points inside each section of the entry, with the section
        // name the error must carry.
        for (keep, section) in [
            (2, "layer index"),
            (6, "scheme"),
            (10, "bits"),
            (14, "scale count"),
            (18, "scales"),
            (16 + 12 + 2, "level count"),
            (16 + 12 + 4 + 3, "levels"),
        ] {
            let cut = full[..keep].to_vec();
            match read_quant_entry(&mut Cursor::new(cut)) {
                Err(NnError::ModelFormat(msg)) => {
                    assert!(
                        msg.contains("truncated v3 quantization header")
                            && msg.contains(section),
                        "cut at {keep}: {msg}"
                    );
                }
                other => panic!("cut at {keep}: expected ModelFormat, got {other:?}"),
            }
        }
    }

    #[test]
    fn quant_entry_rejects_unknown_scheme_and_width() {
        let mut p = payload(16);
        p.scheme = 9;
        let mut buf = Vec::new();
        write_quant_entry(&mut buf, 0, &p).unwrap();
        assert!(matches!(
            read_quant_entry(&mut Cursor::new(buf)),
            Err(NnError::ModelFormat(msg)) if msg.contains("scheme")
        ));

        let mut p = payload(16);
        p.bits = 64;
        let mut buf = Vec::new();
        write_quant_entry(&mut buf, 0, &p).unwrap();
        assert!(matches!(
            read_quant_entry(&mut Cursor::new(buf)),
            Err(NnError::ModelFormat(msg)) if msg.contains("64 bits")
        ));
    }

    #[test]
    fn truncated_input_is_io_error() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 2).unwrap(); // claims rank 2 then stops
        assert!(matches!(
            read_tensor(&mut Cursor::new(buf)),
            Err(NnError::Io(_))
        ));
    }
}
