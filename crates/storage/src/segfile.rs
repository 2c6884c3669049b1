//! Page-aligned segment files: records plus an opaque footer blob.
//!
//! A segment file is the at-rest form of an immutable EDB segment:
//!
//! ```text
//! page 0            header: magic "IOSG" | version u16 | record width u32
//!                   | record count u64 | footer length u64 | zero padding
//! pages 1 ..= P     records, PAGE_SIZE / width per page, zero padded —
//!                   the SAME pagination as a live RecordFile, so the
//!                   footer's per-page fence pointers index both forms
//! pages P+1 ..      the footer blob (encoded by the caller; for EDB
//!                   segments that is iolap-model's SegmentFooter), zero
//!                   padded to a page boundary
//! ```
//!
//! Persistence sits outside the paper's cost model (experiments regenerate
//! their inputs; what is measured is buffer-pool page traffic), so these
//! helpers use `std::fs` directly — exactly like the EDB dump format —
//! and never touch accounted I/O.

use crate::codec::Codec;
use crate::error::{Result, StorageError};
use crate::pager::PAGE_SIZE;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Segment file magic.
pub const SEGFILE_MAGIC: [u8; 4] = *b"IOSG";

/// Segment file format version for fixed-width row pages.
pub const SEGFILE_VERSION: u16 = 1;

/// Segment file format version for variable-density encoded pages: each
/// data page holds one opaque encoded blob (`u32` length, payload, zero
/// padding to [`PAGE_SIZE`]). The record-width header field is 0 and the
/// count field is the number of *pages*, not records.
pub const SEGFILE_VERSION_V2: u16 = 2;

fn header(version: u16, width: usize, count: u64, footer_len: u64) -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    page[..4].copy_from_slice(&SEGFILE_MAGIC);
    page[4..6].copy_from_slice(&version.to_le_bytes());
    page[6..10].copy_from_slice(&(width as u32).to_le_bytes());
    page[10..18].copy_from_slice(&count.to_le_bytes());
    page[18..26].copy_from_slice(&footer_len.to_le_bytes());
    page
}

/// Check a header's counts against the file length: `data_pages` data
/// pages plus a `footer_len`-byte footer (each padded to a page) must fit
/// after the header page. A flipped bit in a count then surfaces as
/// [`StorageError::Corrupt`] instead of an absurd allocation.
fn check_counts(path: &Path, file_len: u64, data_pages: u64, footer_len: u64) -> Result<()> {
    let page = PAGE_SIZE as u64;
    let need = footer_len
        .div_ceil(page)
        .checked_add(data_pages)
        .and_then(|p| p.checked_add(1))
        .and_then(|p| p.checked_mul(page));
    match need {
        Some(n) if n <= file_len => Ok(()),
        _ => Err(StorageError::Corrupt(format!(
            "{}: header claims {data_pages} data pages and a {footer_len}-byte footer, \
             file is {file_len} bytes",
            path.display()
        ))),
    }
}

/// Read just the format version of a segment file (validating the magic),
/// so callers can dispatch between the row and encoded-page readers.
pub fn probe_segment_version(path: &Path) -> Result<u16> {
    let ctx = || format!("probing segment file {}", path.display());
    let mut inp = File::open(path).map_err(|e| StorageError::io(ctx(), e))?;
    let mut head = [0u8; 6];
    inp.read_exact(&mut head).map_err(|e| StorageError::io(ctx(), e))?;
    if head[..4] != SEGFILE_MAGIC {
        return Err(StorageError::InvalidConfig(format!(
            "{}: bad segment magic {:?}",
            path.display(),
            &head[..4]
        )));
    }
    Ok(u16::from_le_bytes([head[4], head[5]]))
}

/// Write `records` and `footer` to `path` in the page-aligned segment
/// format. Overwrites any existing file.
pub fn write_segment<T, C: Codec<T>>(
    path: &Path,
    codec: &C,
    records: &[T],
    footer: &[u8],
) -> Result<()> {
    let ctx = || format!("writing segment file {}", path.display());
    let width = codec.size();
    let recs_per_page = PAGE_SIZE / width;
    let mut out = BufWriter::new(File::create(path).map_err(|e| StorageError::io(ctx(), e))?);
    out.write_all(&header(SEGFILE_VERSION, width, records.len() as u64, footer.len() as u64))
        .map_err(|e| StorageError::io(ctx(), e))?;
    let mut page = vec![0u8; PAGE_SIZE];
    for chunk in records.chunks(recs_per_page) {
        page.fill(0);
        for (i, rec) in chunk.iter().enumerate() {
            codec.encode(rec, &mut page[i * width..(i + 1) * width]);
        }
        out.write_all(&page).map_err(|e| StorageError::io(ctx(), e))?;
    }
    for chunk in footer.chunks(PAGE_SIZE) {
        page.fill(0);
        page[..chunk.len()].copy_from_slice(chunk);
        out.write_all(&page).map_err(|e| StorageError::io(ctx(), e))?;
    }
    out.flush().map_err(|e| StorageError::io(ctx(), e))
}

/// Read a segment file back: `(records, footer bytes)`. Validates the
/// magic, version, record width, and the header's counts against the file
/// length; never panics on a malformed file.
pub fn read_segment<T, C: Codec<T>>(path: &Path, codec: &C) -> Result<(Vec<T>, Vec<u8>)> {
    let ctx = || format!("reading segment file {}", path.display());
    let width = codec.size();
    let recs_per_page = PAGE_SIZE / width;
    let file = File::open(path).map_err(|e| StorageError::io(ctx(), e))?;
    let file_len = file.metadata().map_err(|e| StorageError::io(ctx(), e))?.len();
    let mut inp = BufReader::new(file);
    let mut page = vec![0u8; PAGE_SIZE];
    inp.read_exact(&mut page).map_err(|e| StorageError::io(ctx(), e))?;
    if page[..4] != SEGFILE_MAGIC {
        return Err(StorageError::InvalidConfig(format!(
            "{}: bad segment magic {:?}",
            path.display(),
            &page[..4]
        )));
    }
    let version = u16::from_le_bytes([page[4], page[5]]);
    if version != SEGFILE_VERSION {
        return Err(StorageError::InvalidConfig(format!(
            "{}: unsupported segment version {version}",
            path.display()
        )));
    }
    let file_width = u32::from_le_bytes(page[6..10].try_into().unwrap()) as usize;
    if file_width != width {
        return Err(StorageError::CodecSize { expected: width, got: file_width });
    }
    let count = u64::from_le_bytes(page[10..18].try_into().unwrap());
    let footer_len = u64::from_le_bytes(page[18..26].try_into().unwrap());
    check_counts(path, file_len, count.div_ceil(recs_per_page as u64), footer_len)?;
    let footer_len = footer_len as usize;
    let mut records = Vec::with_capacity(count as usize);
    let mut remaining = count as usize;
    while remaining > 0 {
        inp.read_exact(&mut page).map_err(|e| StorageError::io(ctx(), e))?;
        let in_page = remaining.min(recs_per_page);
        for i in 0..in_page {
            records.push(codec.decode(&page[i * width..(i + 1) * width]));
        }
        remaining -= in_page;
    }
    let mut footer = vec![0u8; footer_len];
    let mut off = 0;
    while off < footer_len {
        inp.read_exact(&mut page).map_err(|e| StorageError::io(ctx(), e))?;
        let take = (footer_len - off).min(PAGE_SIZE);
        footer[off..off + take].copy_from_slice(&page[..take]);
        off += take;
    }
    Ok((records, footer))
}

/// Write pre-encoded variable-density pages and `footer` to `path` in
/// segment format v2. Each page payload must fit in `PAGE_SIZE - 4` bytes
/// (four bytes hold the length prefix); overwrites any existing file.
pub fn write_segment_v2(path: &Path, pages: &[Box<[u8]>], footer: &[u8]) -> Result<()> {
    let ctx = || format!("writing segment file {}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(|e| StorageError::io(ctx(), e))?);
    out.write_all(&header(SEGFILE_VERSION_V2, 0, pages.len() as u64, footer.len() as u64))
        .map_err(|e| StorageError::io(ctx(), e))?;
    let mut page = vec![0u8; PAGE_SIZE];
    for (idx, payload) in pages.iter().enumerate() {
        if payload.is_empty() || payload.len() > PAGE_SIZE - 4 {
            return Err(StorageError::InvalidConfig(format!(
                "{}: page {idx} payload of {} bytes does not fit a {PAGE_SIZE}-byte page",
                path.display(),
                payload.len()
            )));
        }
        page.fill(0);
        page[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        page[4..4 + payload.len()].copy_from_slice(payload);
        out.write_all(&page).map_err(|e| StorageError::io(ctx(), e))?;
    }
    for chunk in footer.chunks(PAGE_SIZE) {
        page.fill(0);
        page[..chunk.len()].copy_from_slice(chunk);
        out.write_all(&page).map_err(|e| StorageError::io(ctx(), e))?;
    }
    out.flush().map_err(|e| StorageError::io(ctx(), e))
}

/// Still-encoded contents of a v2 segment file: `(encoded pages, footer
/// bytes)`.
pub type EncodedSegmentFile = (Vec<Box<[u8]>>, Vec<u8>);

/// Read a v2 segment file back: `(encoded pages, footer bytes)`. The page
/// payloads are returned still encoded — decoding (and checksum
/// verification) is the caller's job, so corruption inside a payload
/// surfaces lazily at scan time while structural damage (bad magic,
/// impossible length prefix or header count, truncation) is caught here.
pub fn read_segment_v2(path: &Path) -> Result<EncodedSegmentFile> {
    let ctx = || format!("reading segment file {}", path.display());
    let file = File::open(path).map_err(|e| StorageError::io(ctx(), e))?;
    let file_len = file.metadata().map_err(|e| StorageError::io(ctx(), e))?.len();
    let mut inp = BufReader::new(file);
    let mut page = vec![0u8; PAGE_SIZE];
    inp.read_exact(&mut page).map_err(|e| StorageError::io(ctx(), e))?;
    if page[..4] != SEGFILE_MAGIC {
        return Err(StorageError::InvalidConfig(format!(
            "{}: bad segment magic {:?}",
            path.display(),
            &page[..4]
        )));
    }
    let version = u16::from_le_bytes([page[4], page[5]]);
    if version != SEGFILE_VERSION_V2 {
        return Err(StorageError::InvalidConfig(format!(
            "{}: expected segment version {SEGFILE_VERSION_V2}, got {version}",
            path.display()
        )));
    }
    let num_pages = u64::from_le_bytes(page[10..18].try_into().unwrap());
    let footer_len = u64::from_le_bytes(page[18..26].try_into().unwrap());
    check_counts(path, file_len, num_pages, footer_len)?;
    let footer_len = footer_len as usize;
    let mut pages = Vec::with_capacity(num_pages as usize);
    for idx in 0..num_pages {
        inp.read_exact(&mut page).map_err(|e| StorageError::io(ctx(), e))?;
        let len = u32::from_le_bytes(page[..4].try_into().unwrap()) as usize;
        if len == 0 || len > PAGE_SIZE - 4 {
            return Err(StorageError::Corrupt(format!(
                "{}: page {idx} has impossible payload length {len}",
                path.display()
            )));
        }
        pages.push(page[4..4 + len].to_vec().into_boxed_slice());
    }
    let mut footer = vec![0u8; footer_len];
    let mut off = 0;
    while off < footer_len {
        inp.read_exact(&mut page).map_err(|e| StorageError::io(ctx(), e))?;
        let take = (footer_len - off).min(PAGE_SIZE);
        footer[off..off + take].copy_from_slice(&page[..take]);
        off += take;
    }
    Ok((pages, footer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::U64Codec;
    use crate::tempdir::TempDir;

    #[test]
    fn segment_round_trips_records_and_footer() {
        let dir = TempDir::new("segfile-roundtrip").unwrap();
        let path = dir.path().join("seg0");
        let records: Vec<u64> = (0..2000).map(|i| i * 3).collect();
        let footer = vec![7u8; 5000]; // spans multiple footer pages
        write_segment(&path, &U64Codec, &records, &footer).unwrap();
        let (back, foot) = read_segment::<u64, _>(&path, &U64Codec).unwrap();
        assert_eq!(back, records);
        assert_eq!(foot, footer);
        // Everything is page-aligned: header + data pages + footer pages.
        let expect_pages =
            1 + 2000u64.div_ceil((PAGE_SIZE / 8) as u64) + 5000u64.div_ceil(PAGE_SIZE as u64);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, expect_pages * PAGE_SIZE as u64);
    }

    #[test]
    fn empty_segment_round_trips() {
        let dir = TempDir::new("segfile-empty").unwrap();
        let path = dir.path().join("seg-empty");
        write_segment::<u64, _>(&path, &U64Codec, &[], &[]).unwrap();
        let (back, foot) = read_segment::<u64, _>(&path, &U64Codec).unwrap();
        assert!(back.is_empty());
        assert!(foot.is_empty());
    }

    #[test]
    fn v2_segment_round_trips_encoded_pages() {
        let dir = TempDir::new("segfile-v2").unwrap();
        let path = dir.path().join("seg-v2");
        // Variable-density payloads, including a max-size one.
        let pages: Vec<Box<[u8]>> = vec![
            vec![1u8, 2, 3].into_boxed_slice(),
            vec![9u8; PAGE_SIZE - 4].into_boxed_slice(),
            vec![42u8].into_boxed_slice(),
        ];
        let footer = vec![5u8; PAGE_SIZE + 17];
        write_segment_v2(&path, &pages, &footer).unwrap();
        assert_eq!(probe_segment_version(&path).unwrap(), SEGFILE_VERSION_V2);
        let (back, foot) = read_segment_v2(&path).unwrap();
        assert_eq!(back, pages);
        assert_eq!(foot, footer);
        // Page-aligned: header + one block per page + footer pages.
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, (1 + 3 + 2) * PAGE_SIZE as u64);
        // The row reader refuses v2 files rather than misreading them.
        assert!(read_segment::<u64, _>(&path, &U64Codec).is_err());
    }

    #[test]
    fn v2_rejects_oversized_payloads_and_corrupt_lengths() {
        let dir = TempDir::new("segfile-v2-bad").unwrap();
        let path = dir.path().join("seg-v2-bad");
        let too_big = vec![vec![0u8; PAGE_SIZE - 3].into_boxed_slice()];
        assert!(write_segment_v2(&path, &too_big, &[]).is_err());

        let pages = vec![vec![1u8, 2, 3].into_boxed_slice()];
        write_segment_v2(&path, &pages, &[]).unwrap();
        // Zero out the length prefix of page 0 → Corrupt, not a panic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE..PAGE_SIZE + 4].fill(0);
        std::fs::write(&path, &bytes).unwrap();
        match read_segment_v2(&path) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Truncated data region → an error.
        std::fs::write(&path, &bytes[..PAGE_SIZE]).unwrap();
        assert!(read_segment_v2(&path).is_err());
        // The version probe still works on the truncated file.
        assert_eq!(probe_segment_version(&path).unwrap(), SEGFILE_VERSION_V2);
    }

    #[test]
    fn malformed_segment_files_are_rejected() {
        let dir = TempDir::new("segfile-bad").unwrap();
        let path = dir.path().join("seg-bad");
        // Too short for a header.
        std::fs::write(&path, b"IOSG").unwrap();
        assert!(read_segment::<u64, _>(&path, &U64Codec).is_err());
        // Bad magic.
        let mut page = vec![0u8; PAGE_SIZE];
        page[..4].copy_from_slice(b"NOPE");
        std::fs::write(&path, &page).unwrap();
        assert!(read_segment::<u64, _>(&path, &U64Codec).is_err());
        // Wrong record width.
        write_segment::<u64, _>(&path, &U64Codec, &[1, 2, 3], &[9]).unwrap();
        let pair = crate::codec::U64PairCodec;
        assert!(read_segment::<(u64, u64), _>(&path, &pair).is_err());
        // Truncated data region.
        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..PAGE_SIZE]).unwrap();
        assert!(read_segment::<u64, _>(&path, &U64Codec).is_err());
    }

    /// A segment file at `path` whose header count (bytes 10..18) or
    /// footer length (bytes 18..26) reads `u64::MAX`.
    fn with_header_field_maxed(path: &Path, v2: bool, field: std::ops::Range<usize>) {
        if v2 {
            write_segment_v2(path, &[vec![1u8, 2, 3].into_boxed_slice()], &[9]).unwrap();
        } else {
            write_segment::<u64, _>(path, &U64Codec, &[1, 2, 3], &[9]).unwrap();
        }
        let mut bytes = std::fs::read(path).unwrap();
        bytes[field].fill(0xff);
        std::fs::write(path, &bytes).unwrap();
    }

    fn assert_corrupt<T: std::fmt::Debug>(r: Result<T>, what: &str) {
        match r {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_maxed_record_count_is_corrupt_not_a_panic() {
        let dir = TempDir::new("segfile-max-count").unwrap();
        let path = dir.path().join("seg");
        with_header_field_maxed(&path, false, 10..18);
        assert_corrupt(read_segment::<u64, _>(&path, &U64Codec), "record count");
    }

    #[test]
    fn a_maxed_page_count_is_corrupt_not_a_panic() {
        let dir = TempDir::new("segfile-max-pages").unwrap();
        let path = dir.path().join("seg");
        with_header_field_maxed(&path, true, 10..18);
        assert_corrupt(read_segment_v2(&path), "page count");
    }

    #[test]
    fn a_maxed_footer_length_is_corrupt_not_a_panic() {
        let dir = TempDir::new("segfile-max-footer").unwrap();
        for v2 in [false, true] {
            let path = dir.path().join(format!("seg-{v2}"));
            with_header_field_maxed(&path, v2, 18..26);
            if v2 {
                assert_corrupt(read_segment_v2(&path), "v2 footer length");
            } else {
                assert_corrupt(read_segment::<u64, _>(&path, &U64Codec), "v1 footer length");
            }
        }
    }
}
