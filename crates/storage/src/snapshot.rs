//! Snapshot save/open: persisting a shredded catalog and its indices as
//! one file of checksummed segments, and faulting them back in one whole
//! segment at a time.
//!
//! A segment is the unit of format, of I/O and of checksumming, and the
//! decoded document is the unit of caching: each first touch reads its
//! segment straight from the file ([`FileManager::read_segment`]), checks
//! its CRC-32C, decodes it from memory, and the result stays resident in
//! the catalog/[`IndexedStore`]. Nothing is cached here; the OS page cache
//! does readahead and replacement.
//!
//! ## File layout (format version 3)
//!
//! A fixed header, then the segments back to back — no padding, no
//! framing between them:
//!
//! | field        | type                    | meaning                      |
//! |--------------|-------------------------|------------------------------|
//! | magic        | 8 B                     | `"ROXSNAP1"`                 |
//! | version      | `u32`                   | format version (3)           |
//! | file length  | `u64`                   | bytes in the whole file      |
//! | symbols seg  | `u64`+`u64`+`u32`       | offset, length, CRC-32C      |
//! | directory seg| `u64`+`u64`+`u32`       | offset, length, CRC-32C      |
//! | header CRC   | `u32`                   | CRC-32C of the fields above  |
//!
//! The segments are, per document in id order, one **document segment**
//! (the six Pre-columnar node-table columns) and one **index segment**
//! (element index groups, CSR value tables, numeric runs), then the
//! **symbol heap** (the interner dump) and the **directory** (per URI the
//! `{offset, length, CRC-32C}` of both its segments). Every byte of the
//! file is covered by exactly one checksum, and a file whose length on
//! disk differs from its header's is rejected at open. Atomicity is the
//! writer's: tmp-write → read-back verify → rename → dir-fsync.
//!
//! Every integer column travels as a *packed run*
//! ([`crate::bytes::RunCodec`]): sorted `Pre` postings, CSR offsets, and
//! near-sequential node columns as delta + varint, high-entropy symbol
//! columns bitpacked to the width of their largest value — whichever is
//! smaller per run, the choice tagged in the stream. Only `f64` payloads
//! and the symbol heap's string blob stay raw.
//!
//! ## Determinism
//!
//! The encoder is fully deterministic for a given catalog state: documents
//! are written in id order, element-index groups sorted by symbol, `f64`
//! as raw bits. Saving the same catalog twice yields byte-identical files,
//! which is what the committed golden fixture in CI leans on to detect
//! accidental format changes.

use crate::bytes::{ByteWriter, SliceReader};
use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::file::{read_at, FileManager};
use crate::recovery::publish;
use crate::wal::StdWalIo;
use parking_lot::RwLock;
use rox_index::{DocIndexes, DocSource, ElementIndex, IndexedStore, SymbolTable, ValueIndex};
use rox_xmldb::{Catalog, DocId, Document, Interner, NodeKind, Pre, Symbol};
use std::collections::HashSet;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic at the start of a snapshot header.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ROXSNAP1";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Bytes of the header: magic 8 · version 4 · file length 8 · symbols
/// and directory locations 20 each · header CRC 4.
const HEADER_LEN: usize = 64;

/// What one [`Snapshot::save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Documents persisted.
    pub docs: usize,
    /// Segments written: the symbol heap, the directory, and two per
    /// document.
    pub pages: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Segment bytes written (compressed), the header excluded.
    pub payload_bytes: u64,
    /// What the segments would have occupied with raw 4-byte columns
    /// (the v1 format) — `payload_bytes / raw_payload_bytes` is the
    /// compression ratio.
    pub raw_payload_bytes: u64,
    /// Fsyncs issued to make the save durable: the file itself plus its
    /// parent directory (a file fsync alone does not persist the new
    /// directory entry across power failure).
    pub fsyncs: u32,
}

/// Where one segment lives and what it must checksum to.
#[derive(Debug, Clone, Copy)]
struct SegmentLoc {
    offset: u64,
    len: u64,
    crc: u32,
}

impl SegmentLoc {
    fn put(self, w: &mut ByteWriter) {
        w.put_u64(self.offset);
        w.put_u64(self.len);
        w.put_u32(self.crc);
    }

    fn get(r: &mut SliceReader) -> Result<SegmentLoc> {
        Ok(SegmentLoc {
            offset: r.get_u64()?,
            len: r.get_u64()?,
            crc: r.get_u32()?,
        })
    }
}

/// Read segment `loc` whole and count it in `segments_read`.
fn read_segment(file: &FileManager, segments_read: &AtomicU64, loc: SegmentLoc) -> Result<Vec<u8>> {
    let bytes = file.read_segment(loc.offset, loc.len, loc.crc)?;
    segments_read.fetch_add(1, Ordering::Relaxed);
    Ok(bytes)
}

/// One directory entry: where a document and its indices live.
struct DocEntry {
    uri: String,
    doc_seg: SegmentLoc,
    index_seg: SegmentLoc,
}

/// Namespace for snapshot save/open.
pub struct Snapshot;

impl Snapshot {
    /// Persist every document of `store`'s catalog (plus its element and
    /// value indices, building any that are missing) to `path`, through
    /// the same tmp-write → verify → rename → dir-fsync sequence a
    /// checkpoint uses.
    pub fn save(path: &Path, store: &IndexedStore) -> Result<SaveReport> {
        let (image, mut report) = Self::encode_image(store);
        let dir = path
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        publish(dir, path, &image, &StdWalIo)?;
        report.fsyncs = 2;
        Ok(report)
    }

    /// Encode the whole snapshot of `store` as one contiguous file image,
    /// in deterministic id order; the report's `fsyncs` is the writer's
    /// to fill.
    pub fn encode_image(store: &IndexedStore) -> (Vec<u8>, SaveReport) {
        let catalog = store.catalog();
        let mut image = vec![0u8; HEADER_LEN];
        let mut raw_payload_bytes = 0u64;
        let mut place = |w: ByteWriter| -> SegmentLoc {
            raw_payload_bytes += w.raw_len();
            let bytes = w.into_bytes();
            let loc = SegmentLoc {
                offset: image.len() as u64,
                len: bytes.len() as u64,
                crc: crc32c(&bytes),
            };
            image.extend_from_slice(&bytes);
            loc
        };
        let mut entries = Vec::new();
        for id in catalog.doc_ids() {
            let doc = store.doc(id);
            let indexes = store.indexes(id);
            entries.push(DocEntry {
                uri: doc.uri().to_string(),
                doc_seg: place(encode_document(&doc)),
                index_seg: place(encode_indexes(&indexes)),
            });
        }
        // Symbol heap after all documents/indices are encoded, so every
        // symbol they reference is present.
        let symbols_seg = place(encode_symbols(catalog.interner()));
        let dir_seg = place(encode_directory(&entries));

        let mut h = ByteWriter::new();
        for b in SNAPSHOT_MAGIC {
            h.put_u8(b);
        }
        h.put_u32(SNAPSHOT_VERSION);
        h.put_u64(image.len() as u64);
        symbols_seg.put(&mut h);
        dir_seg.put(&mut h);
        let mut header = h.into_bytes();
        header.extend_from_slice(&crc32c(&header).to_le_bytes());
        image[..HEADER_LEN].copy_from_slice(&header);

        let report = SaveReport {
            docs: entries.len(),
            pages: 2 + 2 * entries.len() as u32,
            file_bytes: image.len() as u64,
            payload_bytes: (image.len() - HEADER_LEN) as u64,
            raw_payload_bytes,
            fsyncs: 0,
        };
        (image, report)
    }

    /// Open the snapshot at `path`: validate the header, restore the
    /// symbol heap and directory eagerly, and return a catalog with every
    /// stored URI *reserved but not resident* plus the [`SnapshotSource`]
    /// that faults content in on first touch.
    ///
    /// `_frames` is ignored; kept for the frozen benchmark.
    pub fn open(
        path: &Path,
        _frames: Option<usize>,
    ) -> Result<(Arc<Catalog>, Arc<SnapshotSource>)> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = vec![0u8; file_len.min(HEADER_LEN as u64) as usize];
        read_at(&file, &mut head, 0)?;
        let (symbols_seg, dir_seg) = decode_header(&head, file_len)?;
        let file = FileManager::new(file, file_len);
        let segments_read = AtomicU64::new(0);

        let interner = {
            let bytes = read_segment(&file, &segments_read, symbols_seg)?;
            Arc::new(decode_symbols(&mut SliceReader::new(&bytes))?)
        };
        let dir = {
            let bytes = read_segment(&file, &segments_read, dir_seg)?;
            decode_directory(&mut SliceReader::new(&bytes))?
        };
        let catalog = Arc::new(Catalog::with_interner(Arc::clone(&interner)));
        for (i, entry) in dir.iter().enumerate() {
            let id = catalog.reserve(&entry.uri);
            if id.index() != i {
                return Err(StorageError::Format(format!(
                    "duplicate URI {:?} in snapshot directory",
                    entry.uri
                )));
            }
        }
        let source = Arc::new(SnapshotSource {
            file,
            segments_read,
            dir,
            interner,
            stale: RwLock::new(HashSet::new()),
        });
        Ok((catalog, source))
    }
}

/// Validate the first `HEADER_LEN` bytes (fewer if the file is shorter)
/// of a `file_len`-byte file and return the symbol-heap and directory
/// locations.
fn decode_header(head: &[u8], file_len: u64) -> Result<(SegmentLoc, SegmentLoc)> {
    let bad = |reason: String| Err(StorageError::Format(reason));
    let unsupported = |version: u32| {
        bad(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        ))
    };
    // v1 and v2 files are page files: a 16-byte `RXPG` page header, then
    // the header payload, whose version field follows its 8-byte magic.
    if head.starts_with(b"RXPG") && head.len() >= 28 {
        return unsupported(SliceReader::new(&head[24..]).get_u32()?);
    }
    if head.len() < HEADER_LEN {
        return bad(format!(
            "{file_len}-byte file is shorter than the {HEADER_LEN}-byte header"
        ));
    }
    let (fields, stored) = head.split_at(HEADER_LEN - 4);
    let mut r = SliceReader::new(fields);
    if r.take(8)? != SNAPSHOT_MAGIC {
        return bad("not a ROX snapshot (bad magic)".to_string());
    }
    if crc32c(fields) != SliceReader::new(stored).get_u32()? {
        return Err(StorageError::Corrupt {
            offset: 0,
            reason: "header checksum mismatch".to_string(),
        });
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return unsupported(version);
    }
    let recorded = r.get_u64()?;
    if recorded != file_len {
        return bad(format!(
            "header records a {recorded}-byte file, {file_len} bytes on disk"
        ));
    }
    Ok((SegmentLoc::get(&mut r)?, SegmentLoc::get(&mut r)?))
}

/// Segment-read counters of one open snapshot.
///
/// A vestige of the deleted buffer pool, retained only because the frozen
/// `benchmark/` reads it: `misses` counts segments read from the file and
/// every other field is constantly 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Always 0.
    pub capacity: u64,
    /// Always 0.
    pub resident: u64,
    /// Always 0.
    pub hits: u64,
    /// Segments read from the file.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
    /// Always 0.
    pub probation_hits: u64,
    /// Always 0.
    pub protected_hits: u64,
    /// Always 0.
    pub promotions: u64,
    /// Always 0.
    pub ghost_promotions: u64,
    /// Always 0.
    pub prefetched: u64,
    /// Always 0.
    pub prefetch_hits: u64,
}

/// The open side of a snapshot: reads and decodes one document's or one
/// index set's segment per call. Implements [`DocSource`], so an
/// [`IndexedStore::with_source`] store resolves first touches here.
pub struct SnapshotSource {
    file: FileManager,
    /// Segments read from the file so far, the open included.
    segments_read: AtomicU64,
    dir: Vec<DocEntry>,
    interner: Arc<Interner>,
    /// Documents whose live copy diverged from the stored one: their
    /// stored *index* segments must never be served again.
    stale: RwLock<HashSet<DocId>>,
}

impl SnapshotSource {
    /// Documents stored in this snapshot.
    pub fn doc_count(&self) -> usize {
        self.dir.len()
    }

    /// Segments in the snapshot file: the symbol heap, the directory, and
    /// two per document.
    pub fn segment_count(&self) -> u64 {
        2 + 2 * self.dir.len() as u64
    }

    /// Segments read from the file so far, as [`PoolStats::misses`].
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            misses: self.segments_read.load(Ordering::Relaxed),
            ..PoolStats::default()
        }
    }

    /// Decode the stored document `id`, or `Ok(None)` when the snapshot
    /// has no entry for it. Corruption surfaces as an error.
    pub fn try_document(&self, id: DocId) -> Result<Option<Arc<Document>>> {
        let Some(entry) = self.dir.get(id.index()) else {
            return Ok(None);
        };
        let bytes = read_segment(&self.file, &self.segments_read, entry.doc_seg)?;
        let mut r = SliceReader::new(&bytes);
        let doc = decode_document(&mut r, id, &entry.uri, &self.interner)?;
        Ok(Some(Arc::new(doc)))
    }

    /// Decode the stored indices for `id`; `Ok(None)` for unknown ids and
    /// for documents marked stale.
    pub fn try_indexes(&self, id: DocId) -> Result<Option<Arc<DocIndexes>>> {
        if self.stale.read().contains(&id) {
            return Ok(None);
        }
        let Some(entry) = self.dir.get(id.index()) else {
            return Ok(None);
        };
        let bytes = read_segment(&self.file, &self.segments_read, entry.index_seg)?;
        let indexes = decode_indexes(&mut SliceReader::new(&bytes))?;
        // Re-check staleness after the decode: an invalidation that raced
        // the decode must win, never the stale indices.
        if self.stale.read().contains(&id) {
            return Ok(None);
        }
        Ok(Some(Arc::new(indexes)))
    }

    /// Documents currently marked stale.
    pub fn stale_count(&self) -> usize {
        self.stale.read().len()
    }
}

impl DocSource for SnapshotSource {
    fn document(&self, id: DocId) -> Option<Arc<Document>> {
        self.try_document(id)
            .unwrap_or_else(|e| panic!("snapshot document fault for {id:?} failed: {e}"))
    }

    fn indexes(&self, id: DocId) -> Option<Arc<DocIndexes>> {
        self.try_indexes(id)
            .unwrap_or_else(|e| panic!("snapshot index fault for {id:?} failed: {e}"))
    }

    fn mark_stale(&self, id: DocId) {
        self.stale.write().insert(id);
    }
}

/// Encode one document's columns as a standalone byte stream — the unit
/// the WAL logs for a document-carrying record (see [`crate::wal`]).
pub(crate) fn encode_document_bytes(doc: &Document) -> Vec<u8> {
    encode_document(doc).into_bytes()
}

fn encode_document(doc: &Document) -> ByteWriter {
    let cols = doc.columns();
    let n = cols.size.len();
    let mut w = ByteWriter::new();
    w.put_u32(u32::try_from(n).expect("node count overflow"));
    w.put_packed_u32s(cols.size);
    let level: Vec<u32> = cols.level.iter().map(|&v| u32::from(v)).collect();
    w.put_packed_u32s(&level);
    w.put_packed_u32s(cols.parent);
    let kind: Vec<u32> = cols.kind.iter().map(|&k| k as u32).collect();
    w.put_packed_u32s(&kind);
    let name: Vec<u32> = cols.name.iter().map(|&s| s.0).collect();
    w.put_packed_u32s(&name);
    let value: Vec<u32> = cols.value.iter().map(|&s| s.0).collect();
    w.put_packed_u32s(&value);
    w
}

pub(crate) fn decode_document(
    r: &mut SliceReader,
    id: DocId,
    uri: &str,
    interner: &Arc<Interner>,
) -> Result<Document> {
    let n = r.get_u32()? as usize;
    if n == 0 {
        return Err(StorageError::Format(
            "document segment with zero nodes".to_string(),
        ));
    }
    let size = r.get_packed_u32s(n)?;
    // Validate whole columns up front, then convert in tight cast loops:
    // per-element `try_from` with a `Result` collect defeats
    // vectorization, which shows at hundreds of thousands of nodes.
    let level_raw = r.get_packed_u32s(n)?;
    if let Some(&bad) = level_raw.iter().find(|&&v| v > u32::from(u16::MAX)) {
        return Err(StorageError::Format(format!(
            "level {bad} exceeds u16 range"
        )));
    }
    let level: Vec<u16> = level_raw.iter().map(|&v| v as u16).collect();
    let parent = r.get_packed_u32s(n)?;
    let kind_raw = r.get_packed_u32s(n)?;
    if let Some(&bad) = kind_raw.iter().find(|&&v| v > 5) {
        return Err(StorageError::Format(format!("invalid node kind tag {bad}")));
    }
    // Tags are ≤ 5 after the check above; padding the table to 8 and
    // masking keeps the lookup branch- and bounds-check-free.
    const KINDS: [NodeKind; 8] = [
        NodeKind::Document,
        NodeKind::Element,
        NodeKind::Text,
        NodeKind::Attribute,
        NodeKind::Comment,
        NodeKind::ProcessingInstruction,
        NodeKind::Document,
        NodeKind::Document,
    ];
    let kind: Vec<NodeKind> = kind_raw.iter().map(|&v| KINDS[(v & 7) as usize]).collect();
    let symbol_bound = interner.len() as u32;
    let get_symbols = |r: &mut SliceReader| -> Result<Vec<Symbol>> {
        let raw = r.get_packed_u32s(n)?;
        if let Some(&bad) = raw.iter().find(|&&s| s >= symbol_bound) {
            return Err(StorageError::Format(format!(
                "symbol {bad} beyond heap of {symbol_bound}"
            )));
        }
        Ok(raw.into_iter().map(Symbol).collect())
    };
    let name = get_symbols(r)?;
    let value = get_symbols(r)?;
    Ok(Document::from_columns(
        id,
        uri.to_string(),
        size,
        level,
        parent,
        kind,
        name,
        value,
        Arc::clone(interner),
    ))
}

fn encode_groups(w: &mut ByteWriter, groups: &[(Symbol, &[Pre])]) {
    w.put_u32(groups.len() as u32);
    for (sym, pres) in groups {
        w.put_u32(sym.0);
        w.put_packed_u32_vec(pres);
    }
}

fn decode_groups(r: &mut SliceReader) -> Result<Vec<(Symbol, Vec<Pre>)>> {
    let count = r.get_u32()? as usize;
    let mut groups = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let sym = Symbol(r.get_u32()?);
        groups.push((sym, r.get_packed_u32_vec()?));
    }
    Ok(groups)
}

/// Numeric runs split their columns: the `f64` values stay raw bits (any
/// bit pattern must survive), the sorted `Pre` column packs.
fn encode_numeric_run(w: &mut ByteWriter, run: &[(f64, Pre)]) {
    w.put_u32(run.len() as u32);
    for &(v, _) in run {
        w.put_f64(v);
    }
    let pres: Vec<u32> = run.iter().map(|&(_, p)| p).collect();
    w.put_packed_u32s(&pres);
}

fn decode_numeric_run(r: &mut SliceReader) -> Result<Vec<(f64, Pre)>> {
    let count = r.get_u32()? as u64;
    if count * 8 > r.remaining() {
        return Err(StorageError::Format(format!(
            "numeric run of {count} entries exceeds remaining segment"
        )));
    }
    let values: Vec<f64> = r
        .take(count as usize * 8)?
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
        .collect();
    let pres = r.get_packed_u32s(count as usize)?;
    Ok(values.into_iter().zip(pres).collect())
}

fn encode_indexes(indexes: &DocIndexes) -> ByteWriter {
    let mut w = ByteWriter::new();
    encode_groups(&mut w, &indexes.element.name_groups());
    encode_groups(&mut w, &indexes.element.attr_name_groups());
    w.put_packed_u32_vec(indexes.element.elements());
    w.put_packed_u32_vec(indexes.element.text_nodes());
    w.put_packed_u32_vec(indexes.element.attributes());
    for table in [indexes.value.text_table(), indexes.value.attr_table()] {
        w.put_packed_u32_vec(table.offsets());
        w.put_packed_u32_vec(table.values());
    }
    encode_numeric_run(&mut w, indexes.value.numeric_text_run());
    encode_numeric_run(&mut w, indexes.value.numeric_attr_run());
    w
}

fn decode_indexes(r: &mut SliceReader) -> Result<DocIndexes> {
    let by_name = decode_groups(r)?;
    let attr_by_name = decode_groups(r)?;
    let all_elements = r.get_packed_u32_vec()?;
    let all_text = r.get_packed_u32_vec()?;
    let all_attributes = r.get_packed_u32_vec()?;
    let element = ElementIndex::from_parts(
        by_name,
        attr_by_name,
        all_elements,
        all_text,
        all_attributes,
    );
    let table = |r: &mut SliceReader| -> Result<SymbolTable> {
        let offsets = r.get_packed_u32_vec()?;
        let values = r.get_packed_u32_vec()?;
        SymbolTable::from_raw(offsets, values)
            .ok_or_else(|| StorageError::Format("malformed CSR value table".to_string()))
    };
    let text_by_value = table(r)?;
    let attr_by_value = table(r)?;
    let numeric_text = decode_numeric_run(r)?;
    let numeric_attr = decode_numeric_run(r)?;
    let value = ValueIndex::from_parts(text_by_value, attr_by_value, numeric_text, numeric_attr);
    Ok(DocIndexes { element, value })
}

fn encode_symbols(interner: &Interner) -> ByteWriter {
    let strings = interner.dump();
    let mut w = ByteWriter::new();
    w.put_u32(strings.len() as u32);
    for s in &strings {
        w.put_str(s);
    }
    w
}

fn decode_symbols(r: &mut SliceReader) -> Result<Interner> {
    let count = r.get_u32()? as usize;
    if count == 0 {
        return Err(StorageError::Format(
            "symbol heap must contain at least the empty string".to_string(),
        ));
    }
    // Slice the strings out of the heap in place: intermediate `String`s
    // would dominate cold starts on catalogs with tens of thousands of
    // symbols.
    let mut strings = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let len = r.get_u32()? as usize;
        let s = std::str::from_utf8(r.take(len)?)
            .map_err(|e| StorageError::Format(format!("invalid UTF-8 in symbol heap: {e}")))?;
        strings.push(s);
    }
    if !strings[0].is_empty() {
        return Err(StorageError::Format(
            "symbol 0 of the heap is not the empty string".to_string(),
        ));
    }
    Interner::try_from_strings(&strings).map_err(StorageError::Format)
}

fn encode_directory(entries: &[DocEntry]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_str(&e.uri);
        e.doc_seg.put(&mut w);
        e.index_seg.put(&mut w);
    }
    w
}

fn decode_directory(r: &mut SliceReader) -> Result<Vec<DocEntry>> {
    let count = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        entries.push(DocEntry {
            uri: r.get_str()?,
            doc_seg: SegmentLoc::get(r)?,
            index_seg: SegmentLoc::get(r)?,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_snapshot(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rox-storage-snap-{}-{name}.rox",
            std::process::id()
        ));
        p
    }

    fn sample_store() -> IndexedStore {
        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "auctions.xml",
            r#"<site><item id="7"><name>chair</name><price>150</price></item><item id="9"><name>desk</name><price>12.5</price></item></site>"#,
        )
        .unwrap();
        cat.load_str("tiny.xml", "<a/>").unwrap();
        IndexedStore::new(cat)
    }

    /// The bytes of segment `loc` inside `image`.
    fn seg(image: &[u8], loc: SegmentLoc) -> &[u8] {
        &image[loc.offset as usize..(loc.offset + loc.len) as usize]
    }

    #[test]
    fn save_open_roundtrips_documents_and_indexes() {
        let path = temp_snapshot("roundtrip");
        let store = sample_store();
        let report = Snapshot::save(&path, &store).unwrap();
        assert_eq!(report.docs, 2);
        assert_eq!(report.pages, 6, "symbols, directory, two per document");
        assert_eq!(report.file_bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(report.file_bytes, HEADER_LEN as u64 + report.payload_bytes);

        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        assert_eq!(source.doc_count(), 2);
        assert_eq!(source.segment_count(), u64::from(report.pages));
        assert_eq!(
            source.pool_stats().misses,
            2,
            "open reads symbols + directory"
        );
        assert_eq!(catalog.len(), 2);
        // Nothing resident yet: open is lazy.
        let id = catalog.resolve("auctions.xml").unwrap();
        assert!(catalog.get(id).is_none());

        let restored = IndexedStore::with_source(Arc::clone(&catalog), source);
        let original = store.doc(id);
        let faulted = restored.doc(id);
        // Bit-identical columns.
        let (a, b) = (original.columns(), faulted.columns());
        assert_eq!(a.size, b.size);
        assert_eq!(a.level, b.level);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.name, b.name);
        assert_eq!(a.value, b.value);
        faulted.check_invariants().unwrap();
        // Index decode, not a rebuild.
        let idx = restored.indexes(id);
        assert_eq!(restored.build_count(), 0);
        let price = catalog.interner().get("price").unwrap();
        assert_eq!(idx.element.count(price), 2);
        let chair = catalog.interner().get("chair").unwrap();
        assert_eq!(idx.value.text_eq(chair).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn packed_columns_shrink_and_decode_to_the_originals() {
        let path = temp_snapshot("packed");
        let store = sample_store();
        let report = Snapshot::save(&path, &store).unwrap();
        assert!(
            report.payload_bytes < report.raw_payload_bytes,
            "packed segments must beat raw columns: {report:?}"
        );

        // Both segments of every document decode to what was saved.
        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        assert_eq!(source.doc_count(), 2);
        for id in catalog.doc_ids() {
            let orig = store.doc(id);
            let doc = source.try_document(id).unwrap().expect("stored");
            assert_eq!(doc.columns().name, orig.columns().name);
            let idx = source.try_indexes(id).unwrap().expect("nothing stale");
            assert_eq!(idx.element.elements(), store.indexes(id).element.elements());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_twice_is_byte_identical() {
        let p1 = temp_snapshot("det1");
        let p2 = temp_snapshot("det2");
        let store = sample_store();
        Snapshot::save(&p1, &store).unwrap();
        Snapshot::save(&p2, &store).unwrap();
        let bytes = std::fs::read(&p1).unwrap();
        assert_eq!(bytes, std::fs::read(&p2).unwrap());
        assert_eq!(bytes, Snapshot::encode_image(&store).0, "one encoder");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn short_headers_are_clean_errors() {
        let path = temp_snapshot("shortheader");
        let (image, _) = Snapshot::encode_image(&sample_store());
        // Every strict prefix of the checksummed header fields, and the
        // whole header alone, each followed by its recomputed CRC: the
        // length guards alone must reject them.
        for len in 0..=HEADER_LEN - 4 {
            let mut cut = image[..len].to_vec();
            cut.extend_from_slice(&crc32c(&cut).to_le_bytes());
            std::fs::write(&path, &cut).unwrap();
            assert!(
                matches!(Snapshot::open(&path, None), Err(StorageError::Format(_))),
                "header of {len} bytes must be rejected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// ROADMAP 3(b): every decoder sits behind `SliceReader::take`, so a
    /// segment cut short anywhere is an error, never a panic or a
    /// plausible half-decode.
    #[test]
    fn every_prefix_of_every_segment_kind_is_a_clean_error() {
        let (image, _) = Snapshot::encode_image(&sample_store());
        let (symbols, dir) = decode_header(&image[..HEADER_LEN], image.len() as u64).unwrap();
        let (symbols, dir) = (seg(&image, symbols), seg(&image, dir));
        let interner = Arc::new(decode_symbols(&mut SliceReader::new(symbols)).unwrap());
        let entries = decode_directory(&mut SliceReader::new(dir)).unwrap();
        for len in 0..symbols.len() {
            assert!(decode_symbols(&mut SliceReader::new(&symbols[..len])).is_err());
        }
        for len in 0..dir.len() {
            assert!(decode_directory(&mut SliceReader::new(&dir[..len])).is_err());
        }
        for (i, e) in entries.iter().enumerate() {
            let (doc, index) = (seg(&image, e.doc_seg), seg(&image, e.index_seg));
            let id = DocId(i as u32);
            for len in 0..doc.len() {
                let mut r = SliceReader::new(&doc[..len]);
                assert!(decode_document(&mut r, id, &e.uri, &interner).is_err());
            }
            for len in 0..index.len() {
                assert!(decode_indexes(&mut SliceReader::new(&index[..len])).is_err());
            }
        }
    }

    /// Every byte of the file is covered by exactly one checksum: flip
    /// any one of them and either the open fails (header, symbol heap,
    /// directory) or exactly the segment holding that byte fails with
    /// `Corrupt` naming it, while every other segment decodes
    /// bit-identically.
    #[test]
    fn corruption_is_caught_or_harmless() {
        let path = temp_snapshot("flip");
        let store = sample_store();
        let (image, _) = Snapshot::encode_image(&store);
        std::fs::write(&path, &image).unwrap();
        let (catalog, clean) = Snapshot::open(&path, None).unwrap();
        let doc_bytes = |d: &Document| encode_document(d).into_bytes();
        let index_bytes = |i: &DocIndexes| encode_indexes(i).into_bytes();
        for pos in 0..image.len() {
            let mut bytes = image.clone();
            bytes[pos] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            let holds =
                |loc: SegmentLoc| (loc.offset..loc.offset + loc.len).contains(&(pos as u64));
            let lazy = clean
                .dir
                .iter()
                .any(|e| holds(e.doc_seg) || holds(e.index_seg));
            let Ok((_, source)) = Snapshot::open(&path, None) else {
                assert!(!lazy, "flip at {pos} in a lazy segment failed the open");
                continue;
            };
            assert!(
                lazy,
                "flip at {pos} outside any lazy segment went unnoticed"
            );
            for id in catalog.doc_ids() {
                let e = &clean.dir[id.index()];
                match source.try_document(id) {
                    Err(StorageError::Corrupt { offset, .. }) if holds(e.doc_seg) => {
                        assert_eq!(offset, e.doc_seg.offset)
                    }
                    Ok(Some(d)) if !holds(e.doc_seg) => {
                        assert_eq!(doc_bytes(&d), doc_bytes(&store.doc(id)))
                    }
                    other => panic!("flip at {pos}, document {id:?}: {:?}", other.err()),
                }
                match source.try_indexes(id) {
                    Err(StorageError::Corrupt { offset, .. }) if holds(e.index_seg) => {
                        assert_eq!(offset, e.index_seg.offset)
                    }
                    Ok(Some(i)) if !holds(e.index_seg) => {
                        assert_eq!(index_bytes(&i), index_bytes(&store.indexes(id)))
                    }
                    other => panic!("flip at {pos}, indexes {id:?}: {:?}", other.err()),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_segment_is_a_clean_error() {
        let path = temp_snapshot("corrupt");
        let store = sample_store();
        Snapshot::save(&path, &store).unwrap();
        // The first segment after the header is the first document's.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        let id = catalog.resolve("auctions.xml").unwrap();
        let err = source.try_document(id).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { offset, .. } if offset == HEADER_LEN as u64),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_clean_error() {
        let path = temp_snapshot("truncated");
        let store = sample_store();
        Snapshot::save(&path, &store).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // One byte short: the length recorded in the header no longer
        // matches, before any segment is read.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            Snapshot::open(&path, None),
            Err(StorageError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn not_a_snapshot_is_a_clean_error() {
        let path = temp_snapshot("garbage");
        std::fs::write(&path, b"<site>this is xml, not a snapshot</site>").unwrap();
        assert!(Snapshot::open(&path, None).is_err());
        std::fs::write(&path, [b'x'; HEADER_LEN * 2]).unwrap();
        assert!(Snapshot::open(&path, None).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_documents_never_serve_stored_indexes() {
        let path = temp_snapshot("stale");
        let store = sample_store();
        Snapshot::save(&path, &store).unwrap();
        let (catalog, source) = Snapshot::open(&path, None).unwrap();
        let id = catalog.resolve("tiny.xml").unwrap();
        source.mark_stale(id);
        assert!(source.try_indexes(id).unwrap().is_none());
        // The document segment itself stays decodable (it is only used
        // when no newer resident copy exists).
        assert!(source.try_document(id).unwrap().is_some());
        assert_eq!(source.stale_count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
