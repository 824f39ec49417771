//! Append-only segment log: the content-addressed cache's persistence
//! tier.
//!
//! A shard that restarts cold re-pays every compile it had already done.
//! The segment log makes restarts warm: every *clean* cache fill is
//! appended as one checksummed `(key, canonical result bytes)` record
//! behind the single-flight fill path, and on startup the log is replayed
//! into the in-memory cache, so the first identical request after a
//! restart is a warm-identical hit.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! header:  MAGIC (8 bytes) | format_version u32 | disableable_passes u32
//! record:  payload_len u32 | checksum u64 (FNV-1a-128 low half) | payload
//! payload: key u128
//!          | circuit_len u64 | canonical circuit bytes
//!          | final_map_len u64 | final_map entries u64…
//!          | compile_nanos u64
//!          | disabled-pass flags, one byte per DISABLEABLE_PASSES label
//! ```
//!
//! Robustness contract:
//!
//! * **Corrupt tail truncates, never crashes.** A torn append (crash or
//!   `kill -9` mid-write) leaves a record whose length or checksum does
//!   not verify; replay stops at the last good record and truncates the
//!   file there, so the good prefix keeps serving and the next append goes
//!   to a clean offset.
//! * **Version-stamped header.** The header carries both the format
//!   version and the `DISABLEABLE_PASSES` count (the one piece of schema
//!   the payload depends on); a mismatch invalidates the whole file —
//!   truncate and start cold — rather than misinterpreting old bytes.
//! * **Appends are atomic per record across process death**: each append
//!   is written and flushed to the kernel as one contiguous byte block,
//!   so after a crash or `kill -9` a record is either fully present or
//!   detectably torn. Records are *not* fsynced, so a power loss or
//!   kernel crash can lose recently appended records wholesale — an
//!   acceptable trade for a cache whose entries are recomputable.
//!
//! Compaction keeps replay O(live entries) instead of O(appends-ever):
//! [`SegmentLog::compact`] writes the log header plus one framed record
//! per live cache entry to `<log>.tmp`, flushes it, renames it over
//! `<log>` and keeps appending through the handle that wrote it. The
//! rename is the only commit point, so every crash leaves either the
//! complete old log or the complete new one under `<log>`; the three
//! `persist:compact:*` fire points cover each side of it:
//!
//! * `begin` — before writing: the old log is untouched.
//! * `written` — after the flush, before the rename: the old log is
//!   untouched and a complete `<log>.tmp` sits beside it, which
//!   [`SegmentLog::open`] deletes.
//! * `committed` — after the rename and the handle swap: the new log,
//!   already taking appends.
//!
//! Garbage after the compacted records is a torn tail like any other and
//! truncates on replay.

use crate::cache::CompiledEntry;
use crate::fault_point;
use qc_circuit::qasm::to_qasm;
use qc_circuit::{canonical_bytes, decode_circuit, fnv1a_128, RpoError};
use qc_transpile::{DegradationReport, PassSet, DISABLEABLE_PASSES};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Identifies a qc-serve cache segment file.
pub const MAGIC: &[u8; 8] = b"QCSEGLOG";
/// Bumped whenever the record payload layout changes; a mismatch
/// invalidates the file cleanly.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: u64 = 8 + 4 + 4;
/// Defensive ceiling for one record: a corrupt length prefix must not
/// drive a huge allocation. Far above any real compiled circuit.
const MAX_PAYLOAD: u32 = 64 << 20;

/// What a replay recovered, and how.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Distinct keys recovered: records replayed, with every record of
    /// an already-seen key dropped (the first one wins).
    pub restored: usize,
    /// Bytes truncated off a corrupt or torn tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// Whether the whole file was discarded (bad header / version skew).
    pub invalidated: bool,
}

/// The append-only segment log behind one shard's cache.
pub struct SegmentLog {
    file: File,
    path: PathBuf,
    /// Records replayed at open or appended since, reset by each
    /// compaction — the entry-count half of the compaction trigger.
    tail_records: u64,
    /// The bytes of those records — the size half.
    tail_bytes: u64,
}

/// `<log>.tmp`: a compaction in progress; never read at recovery.
fn tmp_path(base: &Path) -> PathBuf {
    let mut s = base.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn checksum(payload: &[u8]) -> u64 {
    fnv1a_128(payload, 0) as u64
}

/// Encodes one cache fill as a record payload.
fn encode_payload(key: u128, entry: &CompiledEntry) -> Vec<u8> {
    let circuit = canonical_bytes(&entry.circuit);
    let mut out = Vec::with_capacity(16 + 8 + circuit.len() + 8 * entry.final_map.len() + 24);
    out.extend_from_slice(&key.to_le_bytes());
    put_u64(&mut out, circuit.len() as u64);
    out.extend_from_slice(&circuit);
    put_u64(&mut out, entry.final_map.len() as u64);
    for &q in &entry.final_map {
        put_u64(&mut out, q as u64);
    }
    put_u64(&mut out, entry.compile_nanos);
    for label in DISABLEABLE_PASSES {
        out.push(entry.disabled.contains(label) as u8);
    }
    out
}

/// Decodes one record payload back into `(key, entry)`. Any structural
/// defect is a typed error — the caller treats it like a checksum failure.
fn decode_payload(payload: &[u8]) -> Result<(u128, CompiledEntry), RpoError> {
    let bad = |msg: &str| RpoError::InvalidInput(format!("segment record: {msg}"));
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], RpoError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| bad("truncated payload"))?;
        let out = &payload[*pos..end];
        *pos = end;
        Ok(out)
    };
    let key = u128::from_le_bytes(take(&mut pos, 16)?.try_into().unwrap());
    let read_u64 = |pos: &mut usize| -> Result<u64, RpoError> {
        Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
    };
    let circuit_len = read_u64(&mut pos)? as usize;
    if circuit_len > payload.len() {
        return Err(bad("circuit length exceeds payload"));
    }
    let circuit = decode_circuit(take(&mut pos, circuit_len)?)?;
    let map_len = read_u64(&mut pos)? as usize;
    if map_len > payload.len() / 8 {
        return Err(bad("final map length exceeds payload"));
    }
    let mut final_map = Vec::with_capacity(map_len);
    for _ in 0..map_len {
        final_map.push(read_u64(&mut pos)? as usize);
    }
    let compile_nanos = read_u64(&mut pos)?;
    let flags = take(&mut pos, DISABLEABLE_PASSES.len())?;
    let mut disabled = PassSet::empty();
    for (label, &flag) in DISABLEABLE_PASSES.iter().zip(flags) {
        if flag != 0 {
            disabled.insert(label);
        }
    }
    if pos != payload.len() {
        return Err(bad("trailing bytes in payload"));
    }
    let qasm = to_qasm(&circuit)
        .map_err(|e| bad(&format!("restored circuit does not serialize: {e:?}")))?;
    Ok((
        key,
        CompiledEntry {
            circuit,
            qasm,
            final_map,
            // Only clean results are persisted, so a restored entry's
            // degradation story is empty by construction; the disabled set
            // is carried because it is part of the entry's cache key.
            degradation: DegradationReport::default(),
            compile_nanos,
            retries: 0,
            retried_after: Vec::new(),
            disabled,
        },
    ))
}

/// Frames a payload exactly as the log stores it on disk:
/// `payload_len u32 | checksum u64 | payload`.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(12 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&checksum(payload).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Encodes one cache entry as a self-verifying framed record — byte-for-
/// byte what the log appends on disk. This is the unit the fleet ships
/// to replica shards: the receiver re-verifies the checksum before
/// admitting the entry, so a corrupted hop is rejected, not cached.
pub fn encode_record(key: u128, entry: &CompiledEntry) -> Vec<u8> {
    frame_record(&encode_payload(key, entry))
}

/// Splits the first framed record (`payload_len u32 | checksum u64 |
/// payload`) off `buf`: its verified payload and the bytes after it, or
/// the defect of a torn, oversized or mis-summed frame.
fn split_frame(buf: &[u8]) -> Result<(&[u8], &[u8]), &'static str> {
    if buf.len() < 12 {
        return Err("shorter than the framing");
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("a 4-byte slice"));
    let sum = u64::from_le_bytes(buf[4..12].try_into().expect("an 8-byte slice"));
    if len > MAX_PAYLOAD || len as usize > buf.len() - 12 {
        return Err("length prefix does not match");
    }
    let (payload, rest) = buf[12..].split_at(len as usize);
    if checksum(payload) != sum {
        return Err("checksum mismatch");
    }
    Ok((payload, rest))
}

/// Decodes and verifies one framed record produced by [`encode_record`],
/// which must fill `bytes`. Framing, checksum, or structural defects are
/// typed errors.
pub fn decode_record(bytes: &[u8]) -> Result<(u128, CompiledEntry), RpoError> {
    let bad = |msg: &str| RpoError::InvalidInput(format!("replicated record: {msg}"));
    let (payload, rest) = split_frame(bytes).map_err(bad)?;
    if !rest.is_empty() {
        return Err(bad("length prefix does not match"));
    }
    decode_payload(payload)
}

/// Replays framed records from `buf` until EOF or the first torn,
/// oversized, mis-summed or undecodable frame. Returns `(bytes consumed
/// cleanly, records restored)`; a defect shows up as
/// `consumed < buf.len()`.
fn replay_records(buf: &[u8], entries: &mut Vec<(u128, Arc<CompiledEntry>)>) -> (usize, usize) {
    let mut rest = buf;
    let mut restored = 0usize;
    while let Ok((payload, tail)) = split_frame(rest) {
        let Ok((key, entry)) = decode_payload(payload) else {
            break; // checksummed but structurally bad
        };
        entries.push((key, Arc::new(entry)));
        restored += 1;
        rest = tail;
    }
    (buf.len() - rest.len(), restored)
}

/// What `SegmentLog::open` recovers: the log positioned for appending,
/// the restored `(key, entry)` pairs in file order, and the replay report.
pub type Replayed = (SegmentLog, Vec<(u128, Arc<CompiledEntry>)>, ReplayReport);

fn log_header() -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(DISABLEABLE_PASSES.len() as u32).to_le_bytes());
    header
}

impl SegmentLog {
    /// Opens (or creates) the segment log at `path` and replays it:
    /// returns the log positioned for appending, the recovered
    /// `(key, entry)` pairs in file order, and a report of what recovery
    /// did. Never fails on *content* — a bad header invalidates the file,
    /// a corrupt tail truncates — only on real I/O errors.
    pub fn open(path: &Path) -> std::io::Result<Replayed> {
        fault_point("persist:replay");
        // A leftover `.tmp` is a compaction that never reached its
        // rename; the log still holds everything it would have.
        let _ = std::fs::remove_file(tmp_path(path));
        let mut report = ReplayReport::default();
        let mut entries: Vec<(u128, Arc<CompiledEntry>)> = Vec::new();

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();

        let header_ok = if file_len >= HEADER_LEN {
            let mut header = [0u8; HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            &header[..8] == MAGIC
                && u32::from_le_bytes(header[8..12].try_into().unwrap()) == FORMAT_VERSION
                && u32::from_le_bytes(header[12..16].try_into().unwrap())
                    == DISABLEABLE_PASSES.len() as u32
        } else {
            file_len == 0
        };

        if !header_ok {
            // Foreign or stale format: invalidate wholesale rather than
            // misread old bytes as current-format records.
            report.invalidated = true;
            report.truncated_bytes = file_len;
            file.set_len(0)?;
        }

        let mut good_end = HEADER_LEN;
        let mut tail_records = 0u64;
        if file_len == 0 || report.invalidated {
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&log_header())?;
            file.flush()?;
        } else {
            // Replay records until EOF or the first defect.
            let mut buf = Vec::new();
            file.seek(SeekFrom::Start(HEADER_LEN))?;
            file.read_to_end(&mut buf)?;
            let (consumed, restored) = replay_records(&buf, &mut entries);
            tail_records = restored as u64;
            good_end = HEADER_LEN + consumed as u64;
            let tail = file_len - good_end;
            if tail > 0 {
                report.truncated_bytes = tail;
                file.set_len(good_end)?;
            }
        }
        file.seek(SeekFrom::Start(good_end.min(file.metadata()?.len())))?;
        // A key re-filled after an eviction appears twice; records are
        // content-addressed, so its first record wins.
        let mut seen = std::collections::HashSet::new();
        entries.retain(|(key, _)| seen.insert(*key));
        report.restored = entries.len();
        Ok((
            SegmentLog {
                file,
                path: path.to_path_buf(),
                tail_records,
                tail_bytes: good_end - HEADER_LEN,
            },
            entries,
            report,
        ))
    }

    /// Appends one cache fill. The record is written and flushed to the
    /// kernel as one contiguous block: after a process crash it is either
    /// fully present or detectably torn (and then truncated on the next
    /// replay). No fsync — power/OS failure may drop recent records.
    pub fn append(&mut self, key: u128, entry: &CompiledEntry) -> std::io::Result<()> {
        let record = encode_record(key, entry);
        self.file.write_all(&record)?;
        self.file.flush()?;
        self.tail_records += 1;
        self.tail_bytes += record.len() as u64;
        Ok(())
    }

    /// Records replayed at open or appended since, reset by each
    /// compaction.
    pub fn tail_records(&self) -> u64 {
        self.tail_records
    }

    /// Bytes of the records [`SegmentLog::tail_records`] counts.
    pub fn tail_bytes(&self) -> u64 {
        self.tail_bytes
    }

    /// Rewrites the log as one record per `live` entry, so restart replay
    /// is O(live entries), not O(appends-ever). The new log is staged in
    /// `<log>.tmp` and renamed over `<log>`, and appends continue through
    /// the handle that wrote it: a crash at any step leaves one complete
    /// log, old or new (see the module docs).
    pub fn compact(&mut self, live: &[(u128, Arc<CompiledEntry>)]) -> std::io::Result<()> {
        fault_point("persist:compact:begin");
        let tmp = tmp_path(&self.path);
        let mut out = log_header();
        for (key, entry) in live {
            out.extend_from_slice(&encode_record(*key, entry));
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&out)?;
        file.flush()?;
        fault_point("persist:compact:written");
        std::fs::rename(&tmp, &self.path)?;
        // Swap handles before anything that can unwind: the old handle
        // now writes to an unlinked file, so an append through it would
        // be lost.
        self.file = file;
        self.tail_records = 0;
        self.tail_bytes = 0;
        fault_point("persist:compact:committed");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::Circuit;

    fn entry(tag: f64) -> CompiledEntry {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(tag, 0).measure_all();
        let qasm = to_qasm(&c).unwrap();
        CompiledEntry {
            circuit: c,
            qasm,
            final_map: vec![1, 0],
            degradation: DegradationReport::default(),
            compile_nanos: 12345,
            retries: 0,
            retried_after: Vec::new(),
            disabled: PassSet::empty(),
        }
    }

    #[test]
    fn payload_round_trips() {
        let e = entry(0.25);
        let payload = encode_payload(42, &e);
        let (key, back) = decode_payload(&payload).unwrap();
        assert_eq!(key, 42);
        assert_eq!(canonical_bytes(&back.circuit), canonical_bytes(&e.circuit));
        assert_eq!(back.qasm, e.qasm);
        assert_eq!(back.final_map, e.final_map);
        assert_eq!(back.compile_nanos, e.compile_nanos);
    }

    #[test]
    fn disabled_passes_survive_the_round_trip() {
        let mut e = entry(0.5);
        e.disabled.insert(DISABLEABLE_PASSES[0]);
        e.disabled.insert(DISABLEABLE_PASSES[3]);
        let (_, back) = decode_payload(&encode_payload(7, &e)).unwrap();
        for label in DISABLEABLE_PASSES {
            assert_eq!(back.disabled.contains(label), e.disabled.contains(label));
        }
    }

    #[test]
    fn framed_records_round_trip_and_verify() {
        let e = entry(0.75);
        let record = encode_record(99, &e);
        let (key, back) = decode_record(&record).unwrap();
        assert_eq!(key, 99);
        assert_eq!(back.qasm, e.qasm);
        // Any single flipped byte must fail verification, not decode.
        for i in 0..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x40;
            assert!(decode_record(&bad).is_err(), "flip at {i} went undetected");
        }
        assert!(decode_record(&record[..record.len() - 1]).is_err());
        assert!(decode_record(b"").is_err());
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let payload = encode_payload(9, &entry(0.1));
        for cut in 0..payload.len().min(64) {
            assert!(decode_payload(&payload[..cut]).is_err());
        }
        let mut grown = payload.clone();
        grown.push(0);
        assert!(decode_payload(&grown).is_err());
    }
}
