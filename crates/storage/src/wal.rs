//! A page-accounted write-ahead log with checksummed frames.
//!
//! The streaming-ingest write path (DESIGN.md §2.20) appends every fact
//! mutation here *before* it is applied, fsyncs at the group-commit
//! boundary, and replays the committed prefix after a crash. The log is
//! built on [`RecordFile`] over a [`FilePager`], so WAL traffic charges
//! the same exact I/O meter ([`IoStats`]) as every other pass in the
//! system — a recovery replay's page reads are visible in the same
//! counters the paper's cost model uses.
//!
//! ## Frame format
//!
//! Frames are fixed-width records ([`FRAME_BYTES`] bytes, so
//! `PAGE_SIZE / FRAME_BYTES` per page) and self-describing — the record
//! count of a `RecordFile` is session metadata, so recovery rediscovers
//! the log's end by scanning frames until the first all-zero slot:
//!
//! ```text
//! offset  size  field
//!      0     1  kind      1 = data, 2 = commit (0 marks an empty slot)
//!      1     1  len       payload bytes used (data ≤ 64, commit = 8)
//!      2     6  reserved  zero
//!      8     8  seq       frame ordinal == record index (LE)
//!     16     8  batch     batch ordinal this frame belongs to (LE)
//!     24    64  payload   opaque bytes (commit: LE count of data frames)
//!     88     8  crc       FNV-1a 64 over bytes [0, 88)
//! ```
//!
//! A *batch* is `n` data frames followed by one commit frame carrying
//! `n`; [`Wal::sync`] is the durability point (group commit can seal
//! several batches and pay one fsync). Replay yields exactly the batches
//! whose commit frame checks out, in order.
//!
//! ## Torn tails vs. corruption
//!
//! Recovery distinguishes the two the standard way: a frame that fails
//! validation *with no valid frame after it* is a torn write from the
//! crash — the tail is discarded (and truncated, so the next append
//! starts clean). A frame that fails validation *followed by valid
//! frames* cannot be a torn tail; recovery refuses the log with
//! [`StorageError::Corrupt`] rather than silently skipping data.

use crate::buffer::{BufferPool, FileId};
use crate::codec::Codec;
use crate::error::{Result, StorageError};
use crate::file::RecordFile;
use crate::fnv::Fnv1a64Legacy;
use crate::pager::{FilePager, MemPager, Pager, PAGE_SIZE};
use crate::stats::IoStats;
use std::path::Path;

/// Size of one WAL frame on disk.
pub const FRAME_BYTES: usize = 96;
/// Largest payload a data frame can carry.
pub const MAX_PAYLOAD: usize = 64;
/// Frames per 4 KiB page.
pub const FRAMES_PER_PAGE: usize = PAGE_SIZE / FRAME_BYTES;

const KIND_DATA: u8 = 1;
const KIND_COMMIT: u8 = 2;
/// Pages of dedicated buffer-pool cache in front of the log file.
const WAL_POOL_PAGES: usize = 64;

/// Raw frame codec: the WAL validates frames itself, so the codec is a
/// plain fixed-width byte copy.
#[derive(Clone)]
struct FrameCodec;

impl Codec<[u8; FRAME_BYTES]> for FrameCodec {
    fn size(&self) -> usize {
        FRAME_BYTES
    }

    fn encode(&self, v: &[u8; FRAME_BYTES], out: &mut [u8]) {
        out.copy_from_slice(v);
    }

    fn decode(&self, bytes: &[u8]) -> [u8; FRAME_BYTES] {
        let mut v = [0u8; FRAME_BYTES];
        v.copy_from_slice(bytes);
        v
    }
}

fn encode_frame(kind: u8, len: u8, seq: u64, batch: u64, payload: &[u8]) -> [u8; FRAME_BYTES] {
    let mut f = [0u8; FRAME_BYTES];
    f[0] = kind;
    f[1] = len;
    f[8..16].copy_from_slice(&seq.to_le_bytes());
    f[16..24].copy_from_slice(&batch.to_le_bytes());
    f[24..24 + payload.len()].copy_from_slice(payload);
    let crc = Fnv1a64Legacy::hash(&f[..88]);
    f[88..96].copy_from_slice(&crc.to_le_bytes());
    f
}

/// A frame that passed checksum + structural validation.
struct ParsedFrame {
    kind: u8,
    seq: u64,
    batch: u64,
    payload: Vec<u8>,
}

/// Validate one raw frame slot. `None` means the slot is not a valid
/// frame (empty, torn, or corrupt — the caller decides which).
fn parse_frame(raw: &[u8; FRAME_BYTES]) -> Option<ParsedFrame> {
    let kind = raw[0];
    let len = raw[1] as usize;
    let ok_shape = match kind {
        KIND_DATA => len <= MAX_PAYLOAD,
        KIND_COMMIT => len == 8,
        _ => false,
    };
    if !ok_shape {
        return None;
    }
    let crc = u64::from_le_bytes(raw[88..96].try_into().expect("8 bytes"));
    if crc != Fnv1a64Legacy::hash(&raw[..88]) {
        return None;
    }
    Some(ParsedFrame {
        kind,
        seq: u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")),
        batch: u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes")),
        payload: raw[24..24 + len].to_vec(),
    })
}

/// What [`Wal::open`] found in an existing log.
pub struct WalRecovery {
    /// Every committed batch, oldest first: the payloads of its data
    /// frames in append order.
    pub batches: Vec<Vec<Vec<u8>>>,
    /// Frames discarded as a torn tail (valid-but-uncommitted data
    /// frames plus the torn slot itself, if any).
    pub torn_frames: u64,
}

/// The write-ahead log. See the module docs for format and semantics.
pub struct Wal {
    file: RecordFile<[u8; FRAME_BYTES], FrameCodec>,
    file_id: FileId,
    durable: bool,
    next_batch: u64,
    /// Data frames appended since the last commit frame.
    open_frames: u64,
    /// Payload bytes appended over the log's lifetime (metrics feed).
    appended_bytes: u64,
}

impl Wal {
    fn from_pager(pager: Box<dyn Pager>, durable: bool) -> Self {
        let pool = BufferPool::new(WAL_POOL_PAGES);
        let id = pool.register(pager);
        let file = RecordFile::new(pool, id, FrameCodec);
        Wal { file, file_id: id, durable, next_batch: 0, open_frames: 0, appended_bytes: 0 }
    }

    /// Create a fresh log at `path` (truncating any existing file),
    /// charging page I/O to `stats`.
    pub fn create(path: impl AsRef<Path>, stats: IoStats) -> Result<Wal> {
        Ok(Wal::from_pager(Box::new(FilePager::create(path, stats)?), true))
    }

    /// An in-memory log (tests): same framing, no durability.
    pub fn in_memory(stats: IoStats) -> Wal {
        Wal::from_pager(Box::new(MemPager::new(stats)), false)
    }

    /// Open `path` if it exists (recovering its committed batches),
    /// otherwise create it empty.
    pub fn open_or_create(path: impl AsRef<Path>, stats: IoStats) -> Result<(Wal, WalRecovery)> {
        if path.as_ref().exists() {
            Wal::open(path, stats)
        } else {
            Ok((Wal::create(path, stats)?, WalRecovery { batches: Vec::new(), torn_frames: 0 }))
        }
    }

    /// Open an existing log and recover it: scan frames from the start,
    /// collect committed batches, discard a torn tail (truncating it),
    /// and refuse mid-log corruption with [`StorageError::Corrupt`].
    pub fn open(path: impl AsRef<Path>, stats: IoStats) -> Result<(Wal, WalRecovery)> {
        let mut wal = Wal::from_pager(Box::new(FilePager::open(path, stats)?), true);
        let capacity = wal.file.pool().file_pages(wal.file_id) * FRAMES_PER_PAGE as u64;
        wal.file.set_recovered_len(capacity);

        let mut batches: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut cur: Vec<Vec<u8>> = Vec::new();
        // Frame index just past the last committed batch: recovery's cut.
        let mut committed_len = 0u64;
        let mut end = capacity;
        // 1 when the scan stopped on a nonzero (torn) slot rather than the
        // all-zero end marker.
        let mut torn_slot = 0u64;
        for i in 0..capacity {
            let raw = wal.file.get(i)?;
            let parsed = parse_frame(&raw);
            let valid = match &parsed {
                Some(f) => f.seq == i && f.batch == batches.len() as u64,
                None => false,
            };
            if !valid {
                // A later valid frame proves this is damage, not a torn
                // tail from the crash.
                for j in i + 1..capacity {
                    if parse_frame(&wal.file.get(j)?).is_some() {
                        return Err(StorageError::Corrupt(format!(
                            "WAL frame {i} failed validation but frame {j} is intact \
                             (mid-log corruption, refusing to replay)"
                        )));
                    }
                }
                end = i;
                torn_slot = u64::from(raw.iter().any(|&b| b != 0));
                break;
            }
            let f = parsed.expect("valid implies parsed");
            match f.kind {
                KIND_DATA => cur.push(f.payload),
                _ => {
                    let count =
                        u64::from_le_bytes(f.payload[..8].try_into().expect("commit count"));
                    if count != cur.len() as u64 {
                        return Err(StorageError::Corrupt(format!(
                            "WAL batch {} commit frame claims {count} data frames, found {}",
                            f.batch,
                            cur.len()
                        )));
                    }
                    batches.push(std::mem::take(&mut cur));
                    committed_len = i + 1;
                }
            }
        }
        let torn_frames = end - committed_len + torn_slot;

        // Truncate to the committed prefix so the next append starts on a
        // clean tail, and zero the final page's unused slots so stale
        // bytes can never resurface as frames on a later reopen.
        wal.file.set_recovered_len(committed_len);
        wal.file
            .pool()
            .truncate_file(wal.file_id, committed_len.div_ceil(FRAMES_PER_PAGE as u64))?;
        wal.file.zero_tail()?;
        wal.file.sync()?;
        wal.next_batch = batches.len() as u64;
        Ok((wal, WalRecovery { batches, torn_frames }))
    }

    /// Append one data frame to the batch being built. The payload is
    /// opaque to the log and must fit [`MAX_PAYLOAD`].
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::InvalidConfig(format!(
                "WAL payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame capacity",
                payload.len()
            )));
        }
        let seq = self.file.len();
        let frame = encode_frame(KIND_DATA, payload.len() as u8, seq, self.next_batch, payload);
        self.file.push(&frame)?;
        self.open_frames += 1;
        self.appended_bytes += FRAME_BYTES as u64;
        Ok(())
    }

    /// Close the batch being built with a commit frame and return its
    /// batch id. **Not** yet durable — call [`Wal::sync`] (once, after
    /// sealing every batch in the group) to hit disk.
    pub fn seal_batch(&mut self) -> Result<u64> {
        if self.open_frames == 0 {
            return Err(StorageError::InvalidConfig("sealing an empty WAL batch".into()));
        }
        let seq = self.file.len();
        let count = self.open_frames.to_le_bytes();
        let frame = encode_frame(KIND_COMMIT, 8, seq, self.next_batch, &count);
        self.file.push(&frame)?;
        self.appended_bytes += FRAME_BYTES as u64;
        let id = self.next_batch;
        self.next_batch += 1;
        self.open_frames = 0;
        Ok(id)
    }

    /// The group-commit durability point: write dirty log pages back and
    /// fsync. Every batch sealed before this call survives a crash.
    pub fn sync(&mut self) -> Result<()> {
        if self.durable {
            self.file.sync()
        } else {
            Ok(())
        }
    }

    /// Discard the whole log (truncate to empty) and sync the truncation.
    pub fn truncate(&mut self) -> Result<()> {
        self.file.clear()?;
        self.next_batch = 0;
        self.open_frames = 0;
        self.sync()
    }

    /// Committed batches written (or recovered) so far.
    pub fn batches(&self) -> u64 {
        self.next_batch
    }

    /// Total frames in the log, committed or not.
    pub fn frames(&self) -> u64 {
        self.file.len()
    }

    /// Bytes appended to the log over its lifetime (frame-sized; the
    /// metrics feed behind `ingest.wal_bytes`).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn payloads(b: &[&[u8]]) -> Vec<Vec<u8>> {
        b.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn frame_checksum_is_a_pinned_format_constant() {
        // Logs written by earlier builds must keep replaying: a checksum
        // that drifts turns every committed frame into a "torn tail".
        let f = encode_frame(KIND_DATA, 3, 7, 2, b"abc");
        assert_eq!(u64::from_le_bytes(f[88..96].try_into().unwrap()), 0x7e8a_daef_5c7e_0ed0);
    }

    #[test]
    fn append_seal_reopen_replays_committed_batches() {
        let dir = TempDir::new("wal-roundtrip").unwrap();
        let path = dir.path().join("t.wal");
        let stats = IoStats::new();
        {
            let mut w = Wal::create(&path, stats.clone()).unwrap();
            w.append(b"alpha").unwrap();
            w.append(b"beta").unwrap();
            assert_eq!(w.seal_batch().unwrap(), 0);
            w.append(b"gamma").unwrap();
            assert_eq!(w.seal_batch().unwrap(), 1);
            w.sync().unwrap();
        }
        let (w, rec) = Wal::open(&path, IoStats::new()).unwrap();
        assert_eq!(rec.torn_frames, 0);
        assert_eq!(rec.batches, vec![payloads(&[b"alpha", b"beta"]), payloads(&[b"gamma"])]);
        assert_eq!(w.batches(), 2);
        assert_eq!(w.frames(), 5);
        assert!(stats.writes() > 0, "WAL writes must charge the I/O meter");
    }

    #[test]
    fn append_after_recovery_continues_the_log() {
        let dir = TempDir::new("wal-continue").unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut w = Wal::create(&path, IoStats::new()).unwrap();
            w.append(b"one").unwrap();
            w.seal_batch().unwrap();
            w.sync().unwrap();
        }
        {
            let (mut w, _) = Wal::open(&path, IoStats::new()).unwrap();
            w.append(b"two").unwrap();
            w.seal_batch().unwrap();
            w.sync().unwrap();
        }
        let (_, rec) = Wal::open(&path, IoStats::new()).unwrap();
        assert_eq!(rec.batches, vec![payloads(&[b"one"]), payloads(&[b"two"])]);
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_truncated() {
        let dir = TempDir::new("wal-torn").unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut w = Wal::create(&path, IoStats::new()).unwrap();
            w.append(b"keep").unwrap();
            w.seal_batch().unwrap();
            // A batch that never reached its commit frame: torn.
            w.append(b"lost-1").unwrap();
            w.append(b"lost-2").unwrap();
            w.sync().unwrap();
        }
        let (mut w, rec) = Wal::open(&path, IoStats::new()).unwrap();
        assert_eq!(rec.batches, vec![payloads(&[b"keep"])]);
        assert_eq!(rec.torn_frames, 2);
        // The tail really is gone: the next batch lands where it was.
        w.append(b"next").unwrap();
        w.seal_batch().unwrap();
        w.sync().unwrap();
        let (_, rec) = Wal::open(&path, IoStats::new()).unwrap();
        assert_eq!(rec.batches, vec![payloads(&[b"keep"]), payloads(&[b"next"])]);
        assert_eq!(rec.torn_frames, 0);
    }

    #[test]
    fn torn_final_frame_is_discarded() {
        let dir = TempDir::new("wal-torn-frame").unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut w = Wal::create(&path, IoStats::new()).unwrap();
            w.append(b"keep").unwrap();
            w.seal_batch().unwrap();
            w.append(b"half-written").unwrap();
            w.sync().unwrap();
        }
        // Corrupt the torn (uncommitted) frame itself: still a clean tail.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(2 * FRAME_BYTES as u64 + 30)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        let (_, rec) = Wal::open(&path, IoStats::new()).unwrap();
        assert_eq!(rec.batches, vec![payloads(&[b"keep"])]);
        assert_eq!(rec.torn_frames, 1);
    }

    #[test]
    fn midlog_bitflip_is_corruption_not_a_silent_skip() {
        let dir = TempDir::new("wal-corrupt").unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut w = Wal::create(&path, IoStats::new()).unwrap();
            w.append(b"first").unwrap();
            w.seal_batch().unwrap();
            w.append(b"second").unwrap();
            w.seal_batch().unwrap();
            w.sync().unwrap();
        }
        // Flip one payload bit in frame 0; frames after it stay intact.
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
            let mut b = [0u8; 1];
            f.seek(SeekFrom::Start(24)).unwrap();
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(24)).unwrap();
            f.write_all(&[b[0] ^ 0x01]).unwrap();
        }
        match Wal::open(&path, IoStats::new()) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.contains("frame 0"), "unexpected message: {msg}");
            }
            Err(e) => panic!("wanted Corrupt, got {e}"),
            Ok(_) => panic!("corrupt WAL must not open"),
        }
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut w = Wal::in_memory(IoStats::new());
        assert!(w.append(&[0u8; MAX_PAYLOAD + 1]).is_err());
        assert!(w.seal_batch().is_err(), "empty batch must not seal");
    }

    #[test]
    fn truncate_resets_the_log() {
        let dir = TempDir::new("wal-reset").unwrap();
        let path = dir.path().join("t.wal");
        let mut w = Wal::create(&path, IoStats::new()).unwrap();
        w.append(b"x").unwrap();
        w.seal_batch().unwrap();
        w.sync().unwrap();
        w.truncate().unwrap();
        assert_eq!(w.frames(), 0);
        w.append(b"y").unwrap();
        w.seal_batch().unwrap();
        w.sync().unwrap();
        drop(w);
        let (_, rec) = Wal::open(&path, IoStats::new()).unwrap();
        assert_eq!(rec.batches, vec![payloads(&[b"y"])]);
    }
}
