//! Little-endian byte codec for snapshot segments.
//!
//! A *segment* is one contiguous byte stream of the snapshot file, checked
//! by one CRC-32C. [`ByteWriter`] builds the stream in memory at save
//! time. At open time segments are read whole
//! ([`crate::file::FileManager::read_segment`]) and decoded from memory
//! with [`SliceReader`].
//!
//! All integers are little-endian; `f64` travels as its raw bit pattern
//! (`to_bits`/`from_bits`), which keeps NaN payloads and signed zeros
//! bit-identical across a save/open roundtrip.
//!
//! ## Packed integer runs
//!
//! Raw 4-byte columns waste most of their bits on the values snapshots
//! actually store (sorted `Pre` lists, CSR offsets, small levels/kinds).
//! [`ByteWriter::put_packed_u32s`] encodes a run with the cheapest of two
//! codecs and tags the choice in the stream:
//!
//! * [`RunCodec::DeltaVarint`] — the first value as a LEB128 varint, then
//!   every successive difference as a zigzag varint. Sorted runs with
//!   small gaps (postings, offsets) and near-sequential columns
//!   (`parent`) cost ~1 byte per value.
//! * [`RunCodec::BitPacked`] — a fixed bit width (that of the largest
//!   value, floored at 1) and all values packed LSB-first. The fallback
//!   for non-monotone, large-delta runs (e.g. value-symbol columns).
//!
//! The choice is a pure function of the values — smaller encoding wins,
//! ties go to delta+varint — so re-encoding a decoded run reproduces the
//! original bytes and `save → open → save` stays a byte fixed point.
//! [`RunCodec::Raw`] is accepted on decode for completeness but never
//! chosen by the encoder.

use crate::error::{Result, StorageError};

/// Codec of one packed `u32` run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RunCodec {
    /// Plain little-endian 4-byte values.
    Raw = 0,
    /// First value varint, then zigzag-varint deltas.
    DeltaVarint = 1,
    /// Fixed-width LSB-first bit packing (width of the largest value).
    BitPacked = 2,
}

impl RunCodec {
    /// The codec for tag byte `b`.
    pub fn from_u8(b: u8) -> Result<RunCodec> {
        Ok(match b {
            0 => RunCodec::Raw,
            1 => RunCodec::DeltaVarint,
            2 => RunCodec::BitPacked,
            _ => return Err(StorageError::Format(format!("invalid run codec tag {b}"))),
        })
    }
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read one varint from `payload` starting at `*at`, bounding it to 64
/// bits. Corrupt streams (running off the payload, over-long varints) are
/// clean errors.
fn read_varint(payload: &[u8], at: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = payload
            .get(*at)
            .ok_or_else(|| StorageError::Format("packed run truncated mid-varint".to_string()))?;
        *at += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(StorageError::Format(
                "varint exceeds 64 bits in packed run".to_string(),
            ));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn delta_varint_bytes(vals: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vals.len() + 4);
    let mut prev = 0i64;
    for (i, &v) in vals.iter().enumerate() {
        if i == 0 {
            push_varint(&mut buf, u64::from(v));
        } else {
            push_varint(&mut buf, zigzag(i64::from(v) - prev));
        }
        prev = i64::from(v);
    }
    buf
}

fn bitpacked_bytes(vals: &[u32]) -> Vec<u8> {
    // Width of the largest value, floored at 1 so every value occupies at
    // least one bit — that floor is what lets decoders bound a claimed
    // count by `payload_len * 8` before allocating.
    let width = vals
        .iter()
        .map(|&v| 32 - v.leading_zeros())
        .max()
        .unwrap_or(1)
        .max(1);
    let mut buf = Vec::with_capacity(1 + (vals.len() * width as usize).div_ceil(8));
    buf.push(width as u8);
    let mut acc = 0u64;
    let mut bits = 0u32;
    for &v in vals {
        acc |= u64::from(v) << bits;
        bits += width;
        while bits >= 8 {
            buf.push((acc & 0xFF) as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        buf.push((acc & 0xFF) as u8);
    }
    buf
}

/// Encode `vals` with the cheapest codec (see the module docs): the
/// returned payload excludes the codec tag and any length framing.
pub fn pack_u32s(vals: &[u32]) -> (RunCodec, Vec<u8>) {
    let dv = delta_varint_bytes(vals);
    if vals.is_empty() {
        return (RunCodec::DeltaVarint, dv);
    }
    let width = vals
        .iter()
        .map(|&v| 32 - v.leading_zeros())
        .max()
        .unwrap_or(1)
        .max(1) as usize;
    let bp_len = 1 + (vals.len() * width).div_ceil(8);
    if dv.len() <= bp_len {
        (RunCodec::DeltaVarint, dv)
    } else {
        (RunCodec::BitPacked, bitpacked_bytes(vals))
    }
}

/// Decode a packed payload of exactly `n` values. Any mismatch between
/// `payload`, `codec` and `n` — truncation, trailing garbage, deltas
/// escaping the `u32` range — is a clean [`StorageError::Format`].
pub fn unpack_u32s(codec: RunCodec, payload: &[u8], n: usize) -> Result<Vec<u32>> {
    let bad = |reason: &str| StorageError::Format(format!("packed run: {reason}"));
    // Every codec spends at least one bit per value (bitpack width is
    // floored at 1), so an absurd claimed count is rejected before any
    // allocation is sized from it.
    if n > payload.len().saturating_mul(8) && n > 0 {
        return Err(bad("claimed count exceeds payload capacity"));
    }
    match codec {
        RunCodec::Raw => {
            if payload.len() != n * 4 {
                return Err(bad("raw payload length mismatch"));
            }
            Ok(payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
        RunCodec::DeltaVarint => {
            let mut out = Vec::with_capacity(n);
            let mut at = 0usize;
            let mut prev = 0i64;
            for i in 0..n {
                // One-byte varints dominate real columns (small sorted
                // gaps, near-sequential parents): decode them inline and
                // take the general loop only for longer encodings.
                let raw = match payload.get(at) {
                    Some(&b) if b < 0x80 => {
                        at += 1;
                        u64::from(b)
                    }
                    _ => read_varint(payload, &mut at)?,
                };
                let v = if i == 0 {
                    i64::try_from(raw).map_err(|_| bad("first value exceeds u32"))?
                } else {
                    prev + unzigzag(raw)
                };
                let v32 = u32::try_from(v).map_err(|_| bad("delta escapes u32 range"))?;
                out.push(v32);
                prev = v;
            }
            if at != payload.len() {
                return Err(bad("trailing bytes after delta-varint run"));
            }
            Ok(out)
        }
        RunCodec::BitPacked => {
            if n == 0 {
                return if payload.is_empty() {
                    Ok(Vec::new())
                } else {
                    Err(bad("trailing bytes after empty bitpacked run"))
                };
            }
            let Some((&width, packed)) = payload.split_first() else {
                return Err(bad("bitpacked run missing width byte"));
            };
            let width = u32::from(width);
            if width == 0 || width > 32 {
                return Err(bad("bitpacked width out of range"));
            }
            let expect = (n * width as usize).div_ceil(8);
            if packed.len() != expect {
                return Err(bad("bitpacked payload length mismatch"));
            }
            let mask = if width == 32 {
                u64::from(u32::MAX)
            } else {
                (1u64 << width) - 1
            };
            // Word-at-a-time extraction: an unaligned 8-byte load always
            // covers one value (bit offset within the byte ≤ 7, width
            // ≤ 32 → 39 bits), so the hot loop is a load, shift and mask.
            let mut out = Vec::with_capacity(n);
            let mut bit = 0usize;
            let whole_words = packed.len().saturating_sub(7);
            for _ in 0..n {
                let byte = bit >> 3;
                let word = if byte < whole_words {
                    u64::from_le_bytes(packed[byte..byte + 8].try_into().unwrap())
                } else {
                    let mut tail = [0u8; 8];
                    tail[..packed.len() - byte].copy_from_slice(&packed[byte..]);
                    u64::from_le_bytes(tail)
                };
                out.push(((word >> (bit & 7)) & mask) as u32);
                bit += width as usize;
            }
            // The final partial byte may carry padding bits; they must be
            // zero or the encoding is not canonical (and corrupt bits
            // would otherwise pass unnoticed).
            if bit & 7 != 0 && packed[bit >> 3] >> (bit & 7) != 0 {
                return Err(bad("nonzero padding bits in bitpacked run"));
            }
            Ok(out)
        }
    }
}

/// An in-memory little-endian byte stream builder.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    packed_raw_delta: u64,
}

impl ByteWriter {
    /// An empty stream.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// What this stream would occupy had every packed run been stored as
    /// raw 4-byte values (the pre-compression format) — `len()` plus the
    /// bytes compression saved. Feeds the bench's compressed-vs-raw
    /// report.
    pub fn raw_len(&self) -> u64 {
        self.buf.len() as u64 + self.packed_raw_delta
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string too long for snapshot"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed raw byte blob (an embedded sub-stream —
    /// the WAL frames whole document segments this way).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("blob too long for stream"));
        self.buf.extend_from_slice(bytes);
    }

    /// Append a packed run whose count the reader knows from elsewhere:
    /// `u8 codec | u32 payload_len | payload`. Returns the chosen codec.
    pub fn put_packed_u32s(&mut self, vs: &[u32]) -> RunCodec {
        let (codec, payload) = pack_u32s(vs);
        self.put_u8(codec as u8);
        self.put_u32(u32::try_from(payload.len()).expect("packed run too long for snapshot"));
        self.buf.extend_from_slice(&payload);
        let raw = vs.len() as u64 * 4;
        self.packed_raw_delta += raw.saturating_sub(5 + payload.len() as u64);
        codec
    }

    /// Append a self-describing packed run: `u32 n` then the
    /// [`put_packed_u32s`](Self::put_packed_u32s) framing.
    pub fn put_packed_u32_vec(&mut self, vs: &[u32]) -> RunCodec {
        self.put_u32(u32::try_from(vs.len()).expect("slice too long for snapshot"));
        self.put_packed_u32s(vs)
    }

    /// The finished stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential decoding of a byte stream already in memory: a segment
/// read whole by [`crate::file::FileManager::read_segment`], or a WAL
/// record payload.
pub struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    /// A reader over all of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    /// Borrow the next `n` bytes in place, erroring when the stream runs
    /// short. Every `get_*` goes through this one bounds check.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                StorageError::Format(format!(
                    "segment truncated: wanted {n} more bytes at offset {}",
                    self.pos
                ))
            })?;
        let run = &self.buf[self.pos..end];
        self.pos = end;
        Ok(run)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes)
            .map_err(|e| StorageError::Format(format!("invalid UTF-8 in snapshot string: {e}")))
    }

    /// Read a length-prefixed raw byte blob (see [`ByteWriter::put_bytes`]).
    /// The length is checked against the remaining stream before anything
    /// is allocated for it.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a packed run of exactly `n` values
    /// (see [`ByteWriter::put_packed_u32s`]).
    pub fn get_packed_u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let codec = RunCodec::from_u8(self.get_u8()?)?;
        let payload_len = self.get_u32()? as usize;
        unpack_u32s(codec, self.take(payload_len)?, n)
    }

    /// Read a self-describing packed run
    /// (see [`ByteWriter::put_packed_u32_vec`]).
    pub fn get_packed_u32_vec(&mut self) -> Result<Vec<u32>> {
        let n = self.get_u32()? as usize;
        self.get_packed_u32s(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("staircase");
        w.put_bytes(&[1, 2, 3, 0xFF]);
        let stream = w.into_bytes();
        let mut r = SliceReader::new(&stream);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        // `f64` travels as raw bits: signed zero and NaN survive.
        assert_eq!(r.get_u64().unwrap(), (-0.0f64).to_bits());
        assert!(f64::from_bits(r.get_u64().unwrap()).is_nan());
        assert_eq!(r.get_str().unwrap(), "staircase");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3, 0xFF]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let mut w = ByteWriter::new();
        w.put_u32(42);
        let stream = w.into_bytes();
        let mut r = SliceReader::new(&stream);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert!(r.get_u8().is_err());
        assert!(SliceReader::new(&stream[..3]).get_u32().is_err());
    }

    #[test]
    fn packed_runs_roundtrip_and_choose_by_size() {
        // Sorted small-gap run: delta+varint wins.
        let sorted: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let (c, payload) = pack_u32s(&sorted);
        assert_eq!(c, RunCodec::DeltaVarint);
        assert!(payload.len() < sorted.len() * 4);
        assert_eq!(unpack_u32s(c, &payload, sorted.len()).unwrap(), sorted);

        // Non-monotone large-delta run: bitpacking wins.
        let wild: Vec<u32> = (0..500)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) >> 8)
            .collect();
        let (c, payload) = pack_u32s(&wild);
        assert_eq!(c, RunCodec::BitPacked);
        assert_eq!(unpack_u32s(c, &payload, wild.len()).unwrap(), wild);

        // Re-encoding a decoded run is a fixed point (canonical choice).
        let again = pack_u32s(&unpack_u32s(c, &payload, wild.len()).unwrap());
        assert_eq!(again, (c, payload));

        // Edge runs.
        for vals in [vec![], vec![0], vec![u32::MAX], vec![7; 100]] {
            let (c, payload) = pack_u32s(&vals);
            assert_eq!(unpack_u32s(c, &payload, vals.len()).unwrap(), vals);
        }
    }

    #[test]
    fn packed_runs_reject_corruption() {
        let vals: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let (c, payload) = pack_u32s(&vals);
        // Truncation, wrong counts, absurd counts: clean errors.
        assert!(unpack_u32s(c, &payload[..payload.len() - 1], vals.len()).is_err());
        assert!(unpack_u32s(c, &payload, vals.len() - 1).is_err());
        assert!(unpack_u32s(c, &payload, vals.len() + 1).is_err());
        assert!(unpack_u32s(c, &payload, usize::MAX).is_err());
        assert!(unpack_u32s(c, &[], 3).is_err());
        // Unknown codec tags are rejected at the tag layer.
        assert!(RunCodec::from_u8(9).is_err());
        // An over-long varint cannot smuggle a value past the u32 check.
        let evil = vec![0xFFu8; 11];
        assert!(unpack_u32s(RunCodec::DeltaVarint, &evil, 1).is_err());
        // Bitpacked: zero width and dirty padding bits are rejected.
        assert!(unpack_u32s(RunCodec::BitPacked, &[0, 0xFF], 3).is_err());
        assert!(unpack_u32s(RunCodec::BitPacked, &[3, 0xFF], 2).is_err());
    }

    #[test]
    fn packed_stream_roundtrips_and_tracks_raw_len() {
        let sorted: Vec<u32> = (10..400).collect();
        let wild: Vec<u32> = (0..300)
            .map(|i| (i as u32).wrapping_mul(0x9E3779B9) >> 8)
            .collect();
        let mut w = ByteWriter::new();
        assert_eq!(w.put_packed_u32s(&sorted), RunCodec::DeltaVarint);
        assert_eq!(w.put_packed_u32_vec(&wild), RunCodec::BitPacked);
        assert!(w.raw_len() > w.len() as u64);
        // Raw equivalent: 4 bytes per value plus the vec's count prefix.
        assert_eq!(w.raw_len(), (sorted.len() + wild.len()) as u64 * 4 + 4);
        let stream = w.into_bytes();
        let mut r = SliceReader::new(&stream);
        assert_eq!(r.get_packed_u32s(sorted.len()).unwrap(), sorted);
        assert_eq!(r.get_packed_u32_vec().unwrap(), wild);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn absurd_length_prefixes_are_rejected() {
        // Length prefixes pointing far past the stream: rejected by the
        // bounds check, before anything is allocated for them.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u8(RunCodec::DeltaVarint as u8);
        w.put_u32(u32::MAX);
        let stream = w.into_bytes();
        assert!(SliceReader::new(&stream).get_str().is_err());
        assert!(SliceReader::new(&stream).get_bytes().is_err());
        assert!(SliceReader::new(&stream).get_packed_u32_vec().is_err());
        assert!(SliceReader::new(&stream[4..]).get_packed_u32s(3).is_err());
    }
}
