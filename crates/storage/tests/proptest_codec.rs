//! Property tests for the packed integer-run codecs: random monotone and
//! adversarial sequences must round-trip bit-identically and re-encode
//! canonically (the save→open→save fixed point depends on it), and any
//! truncation or corruption of a packed payload must surface as a clean
//! [`rox_storage::StorageError`] or a well-formed decode — never a panic.
//! End-to-end, a corrupted byte anywhere in a segment holding a packed run
//! is always caught by the segment checksum before the codec even sees
//! the bytes.

use proptest::prelude::*;
use rox_storage::bytes::{pack_u32s, unpack_u32s, ByteWriter, RunCodec, SliceReader};
use rox_storage::file::FileManager;
use rox_storage::{crc32c, StorageError};

fn monotone() -> impl Strategy<Value = Vec<u32>> {
    // Sorted gaps: the delta+varint sweet spot (postings, CSR offsets).
    prop::collection::vec(0u32..5_000, 0..300).prop_map(|gaps| {
        gaps.into_iter()
            .scan(0u32, |acc, g| {
                *acc = acc.saturating_add(g);
                Some(*acc)
            })
            .collect()
    })
}

fn adversarial() -> impl Strategy<Value = Vec<u32>> {
    // Full-range, non-monotone values: worst case for deltas.
    prop::collection::vec(any::<u32>(), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monotone_runs_roundtrip_canonically(vals in monotone()) {
        let (codec, payload) = pack_u32s(&vals);
        let decoded = unpack_u32s(codec, &payload, vals.len()).unwrap();
        prop_assert_eq!(&decoded, &vals);
        // Re-encoding the decode reproduces codec and bytes exactly: the
        // choice is a pure function of the values.
        prop_assert_eq!(pack_u32s(&decoded), (codec, payload));
    }

    #[test]
    fn adversarial_runs_roundtrip_canonically(vals in adversarial()) {
        let (codec, payload) = pack_u32s(&vals);
        let decoded = unpack_u32s(codec, &payload, vals.len()).unwrap();
        prop_assert_eq!(&decoded, &vals);
        prop_assert_eq!(pack_u32s(&decoded), (codec, payload));
    }

    /// Any strict prefix of a packed payload fails to decode: every codec
    /// pins its exact byte length for a given count.
    #[test]
    fn truncated_payloads_error_cleanly(
        vals in prop::collection::vec(any::<u32>(), 1..300),
        cut_seed in any::<u64>(),
    ) {
        let (codec, payload) = pack_u32s(&vals);
        // A non-empty run always has a non-empty payload.
        let cut = (cut_seed % payload.len() as u64) as usize;
        prop_assert!(unpack_u32s(codec, &payload[..cut], vals.len()).is_err());
    }

    /// Flip one byte of the payload, or lie about codec or count: decode
    /// must never panic and never fabricate a run of the wrong length.
    /// (Silent *value* corruption at this layer is caught one level down
    /// by the segment checksum — see `corrupted_segments_are_caught`.)
    #[test]
    fn corrupted_payloads_never_panic(
        vals in adversarial(),
        pos_seed in any::<u64>(),
        xor in 1u8..=255,
        codec_lie in 0u8..3,
        count_delta in -2i64..=2,
    ) {
        let (codec, mut payload) = pack_u32s(&vals);
        if !payload.is_empty() {
            let pos = (pos_seed % payload.len() as u64) as usize;
            payload[pos] ^= xor;
        }
        let codec = RunCodec::from_u8(codec_lie).unwrap_or(codec);
        let n = (vals.len() as i64 + count_delta).max(0) as usize;
        if let Ok(decoded) = unpack_u32s(codec, &payload, n) {
            prop_assert_eq!(decoded.len(), n);
        }
    }

    /// End to end: corrupt any byte of a segment holding a packed run
    /// and the segment read fails with a checksum error naming it, before
    /// the codec can decode wrong bits.
    #[test]
    fn corrupted_segments_are_caught(
        vals in prop::collection::vec(any::<u32>(), 1..200),
        pos_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut w = ByteWriter::new();
        w.put_packed_u32s(&vals);
        let mut bytes = w.into_bytes();
        let crc = crc32c(&bytes);
        let path = std::env::temp_dir().join(format!(
            "rox-prop-codec-{}-{}.seg",
            std::process::id(),
            vals.len()
        ));
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).unwrap();
        let fm = FileManager::new(std::fs::File::open(&path).unwrap(), bytes.len() as u64);
        let decoded = fm
            .read_segment(0, bytes.len() as u64, crc)
            .and_then(|bytes| SliceReader::new(&bytes).get_packed_u32s(vals.len()));
        prop_assert!(
            matches!(decoded, Err(StorageError::Corrupt { offset: 0, .. })),
            "flip at {} not caught: {:?}", pos, decoded
        );
        std::fs::remove_file(&path).ok();
    }
}
