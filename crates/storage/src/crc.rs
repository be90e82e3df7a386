//! CRC-32C (Castagnoli), the one checksum of the storage layer: every
//! snapshot segment and the snapshot header carry one, as does every WAL
//! frame. A flipped bit, a torn write or a segment read at the wrong
//! offset fails its checksum before any byte of it is decoded.

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
/// Every segment read checksums the whole segment, so this sits on the
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
}
