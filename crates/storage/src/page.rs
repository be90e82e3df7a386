//! The on-disk page format.
//!
//! A snapshot file is an array of fixed-size pages. Every page carries a
//! 16-byte little-endian header followed by its payload (zero-padded to
//! the page size):
//!
//! | offset | size | field                                   |
//! |--------|------|-----------------------------------------|
//! | 0      | 4    | magic `"RXPG"` (`0x47505852` LE)        |
//! | 4      | 4    | page id (must match the fetch position) |
//! | 8      | 4    | payload length in bytes                 |
//! | 12     | 4    | CRC-32C (Castagnoli) of the payload     |
//!
//! The checksum makes corruption a *detected* error ([`StorageError::Corrupt`])
//! instead of undefined decoding: a flipped bit anywhere in the payload, a
//! page written at the wrong offset, or a torn short write all fail
//! validation before any snapshot bytes are interpreted.

use crate::error::{Result, StorageError};

/// Bytes of the fixed page header preceding every payload.
pub const PAGE_HEADER: usize = 16;

/// Default page size used by [`crate::Snapshot::save`]; any power-of-two
/// size ≥ 64 works, the file records the size it was written with.
///
/// The classic 4 KiB. Page size does not change the syscall count — a
/// segment is one positioned read whatever its page count
/// ([`crate::file::FileManager::read_segment`]) — while each segment
/// wastes half a page of padding on average, which, with packed columns,
/// can dominate a small corpus.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Smallest accepted page size (header + a useful payload).
pub const MIN_PAGE_SIZE: usize = 64;

/// Page magic: `"RXPG"` in little-endian byte order.
pub const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"RXPG");

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][b] = CRC of byte b followed by t zero bytes, so sixteen
    // lookups fold sixteen input bytes per iteration below.
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

/// CRC-32C (Castagnoli polynomial, the iSCSI/ext4/RocksDB variant) of
/// `bytes`.
///
/// Every page read checksums its whole payload, so this sits on the
/// cold-start critical path. On x86-64 with SSE 4.2 the dedicated `crc32`
/// instruction folds eight bytes per cycle; elsewhere a slicing-by-16
/// table walk processes sixteen bytes per loop iteration. Both compute
/// the same function, so files are portable across the two paths.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static HAS_SSE42: AtomicU8 = AtomicU8::new(0); // 0 unknown, 1 yes, 2 no
        let state = HAS_SSE42.load(Ordering::Relaxed);
        let has = match state {
            0 => {
                let has = std::arch::is_x86_feature_detected!("sse4.2");
                HAS_SSE42.store(if has { 1 } else { 2 }, Ordering::Relaxed);
                has
            }
            1 => true,
            _ => false,
        };
        if has {
            // SAFETY: SSE 4.2 availability was just verified.
            return unsafe { crc32c_sse42(bytes) };
        }
    }
    crc32c_sw(bytes)
}

/// Hardware CRC-32C: eight bytes per `crc32q`, then a byte-wise tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().unwrap()));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Software CRC-32C, slicing-by-16.
fn crc32c_sw(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for ch in &mut chunks {
        let w0 = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
        let w1 = u32::from_le_bytes(ch[4..8].try_into().unwrap());
        let w2 = u32::from_le_bytes(ch[8..12].try_into().unwrap());
        let w3 = u32::from_le_bytes(ch[12..16].try_into().unwrap());
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Frame `payload` into a full on-disk page for `page_id`, zero-padded to
/// `page_size`.
///
/// # Panics
/// Panics when the payload does not fit the page — callers split segments
/// into page-sized chunks first.
pub fn encode_page(page_id: u32, payload: &[u8], page_size: usize) -> Vec<u8> {
    assert!(
        payload.len() <= page_size - PAGE_HEADER,
        "payload of {} bytes exceeds page capacity {}",
        payload.len(),
        page_size - PAGE_HEADER
    );
    let mut page = Vec::with_capacity(page_size);
    page.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
    page.extend_from_slice(&page_id.to_le_bytes());
    page.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    page.extend_from_slice(&crc32c(payload).to_le_bytes());
    page.extend_from_slice(payload);
    page.resize(page_size, 0);
    page
}

/// Validate the raw bytes of page `expected_id` and return its payload.
///
/// Checks, in order: page length, magic, stored page id against the fetch
/// position, payload length bound, and the payload CRC. Any mismatch is a
/// [`StorageError::Corrupt`] naming the page.
pub fn decode_page(expected_id: u32, raw: &[u8]) -> Result<&[u8]> {
    let corrupt = |reason: String| StorageError::Corrupt {
        page: expected_id,
        reason,
    };
    if raw.len() < PAGE_HEADER {
        return Err(corrupt(format!("short page: {} bytes", raw.len())));
    }
    let word = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
    if word(0) != PAGE_MAGIC {
        return Err(corrupt(format!("bad magic {:#010x}", word(0))));
    }
    if word(4) != expected_id {
        return Err(corrupt(format!(
            "stored id {} at position {expected_id}",
            word(4)
        )));
    }
    let len = word(8) as usize;
    if len > raw.len() - PAGE_HEADER {
        return Err(corrupt(format!("payload length {len} exceeds page")));
    }
    let payload = &raw[PAGE_HEADER..PAGE_HEADER + len];
    let actual = crc32c(payload);
    if actual != word(12) {
        return Err(corrupt(format!(
            "checksum mismatch: stored {:#010x}, computed {actual:#010x}",
            word(12)
        )));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_known_vectors() {
        // Standard CRC-32C (Castagnoli) check values.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn hardware_and_software_paths_agree() {
        // Lengths straddling every chunking boundary of both paths.
        let data: Vec<u8> = (0..4099u32).map(|i| (i * 31 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 255, 4096, 4099] {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn page_roundtrip() {
        let page = encode_page(7, b"hello pages", 128);
        assert_eq!(page.len(), 128);
        assert_eq!(decode_page(7, &page).unwrap(), b"hello pages");
    }

    #[test]
    fn bitflip_is_detected() {
        let mut page = encode_page(3, b"payload bytes", 128);
        page[PAGE_HEADER + 4] ^= 0x01;
        let err = decode_page(3, &page).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { page: 3, .. }));
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn wrong_position_is_detected() {
        let page = encode_page(3, b"x", 128);
        assert!(matches!(
            decode_page(4, &page),
            Err(StorageError::Corrupt { page: 4, .. })
        ));
    }

    #[test]
    fn truncated_page_is_detected() {
        let page = encode_page(0, b"abc", 128);
        assert!(decode_page(0, &page[..8]).is_err());
        // Header claims more payload than the buffer holds.
        let mut short = page.clone();
        short.truncate(PAGE_HEADER + 1);
        assert!(decode_page(0, &short).is_err());
    }
}
