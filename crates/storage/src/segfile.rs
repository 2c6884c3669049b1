//! Page-aligned segment files: encoded pages plus an opaque footer blob.
//!
//! A segment file is the at-rest form of an immutable EDB segment:
//!
//! ```text
//! page 0            header: magic "IOSG" | version u16 | zero u32
//!                   | page count u64 | footer length u64 | zero padding
//! pages 1 ..= P     one encoded page per block: payload length u32,
//!                   payload (opaque here; for EDB segments a columnar
//!                   page of iolap-model's segment_page), zero padding
//! pages P+1 ..      the footer blob (encoded by the caller; for EDB
//!                   segments that is iolap-model's SegmentFooter), zero
//!                   padded to a page boundary
//! ```
//!
//! Persistence sits outside the paper's cost model (experiments regenerate
//! their inputs; what is measured is buffer-pool page traffic), so these
//! helpers use `std::fs` directly — exactly like the EDB dump format —
//! and never touch accounted I/O.

use crate::error::{Result, StorageError};
use crate::pager::PAGE_SIZE;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Segment file magic.
pub const SEGFILE_MAGIC: [u8; 4] = *b"IOSG";

/// Segment file format version. (Version 1, fixed-width row pages, is
/// retired.)
pub const SEGFILE_VERSION: u16 = 2;

fn header(num_pages: u64, footer_len: u64) -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    page[..4].copy_from_slice(&SEGFILE_MAGIC);
    page[4..6].copy_from_slice(&SEGFILE_VERSION.to_le_bytes());
    page[10..18].copy_from_slice(&num_pages.to_le_bytes());
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

/// Write pre-encoded pages and `footer` to `path`. Each page payload must
/// fit in `PAGE_SIZE - 4` bytes (four bytes hold the length prefix);
/// overwrites any existing file.
pub fn write_segment(path: &Path, pages: &[Box<[u8]>], footer: &[u8]) -> Result<()> {
    let ctx = || format!("writing segment file {}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(|e| StorageError::io(ctx(), e))?);
    out.write_all(&header(pages.len() as u64, footer.len() as u64))
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

/// Still-encoded contents of a segment file: `(encoded pages, footer
/// bytes)`.
pub type EncodedSegmentFile = (Vec<Box<[u8]>>, Vec<u8>);

/// Read a segment file back: `(encoded pages, footer bytes)`. The page
/// payloads are returned still encoded — decoding (and checksum
/// verification) is the caller's job, so corruption inside a payload
/// surfaces lazily at scan time while structural damage (bad magic,
/// impossible length prefix or header count, truncation) is caught here.
pub fn read_segment(path: &Path) -> Result<EncodedSegmentFile> {
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
    if version != SEGFILE_VERSION {
        return Err(StorageError::InvalidConfig(format!(
            "{}: expected segment version {SEGFILE_VERSION}, got {version}",
            path.display()
        )));
    }
    if page[6..10] != [0; 4] {
        return Err(StorageError::Corrupt(format!(
            "{}: reserved header bytes are not zero",
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
    use crate::tempdir::TempDir;

    #[test]
    fn segment_round_trips_encoded_pages() {
        let dir = TempDir::new("segfile-roundtrip").unwrap();
        let path = dir.path().join("seg");
        // Variable-density payloads, including a max-size one.
        let pages: Vec<Box<[u8]>> = vec![
            vec![1u8, 2, 3].into_boxed_slice(),
            vec![9u8; PAGE_SIZE - 4].into_boxed_slice(),
            vec![42u8].into_boxed_slice(),
        ];
        let footer = vec![5u8; PAGE_SIZE + 17];
        write_segment(&path, &pages, &footer).unwrap();
        let (back, foot) = read_segment(&path).unwrap();
        assert_eq!(back, pages);
        assert_eq!(foot, footer);
        // Page-aligned: header + one block per page + footer pages.
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, (1 + 3 + 2) * PAGE_SIZE as u64);
    }

    #[test]
    fn empty_segment_round_trips() {
        let dir = TempDir::new("segfile-empty").unwrap();
        let path = dir.path().join("seg-empty");
        write_segment(&path, &[], &[]).unwrap();
        let (back, foot) = read_segment(&path).unwrap();
        assert!(back.is_empty());
        assert!(foot.is_empty());
    }

    fn assert_corrupt<T: std::fmt::Debug>(r: Result<T>, what: &str) {
        match r {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_payloads_and_corrupt_lengths_are_rejected() {
        let dir = TempDir::new("segfile-bad-lengths").unwrap();
        let path = dir.path().join("seg");
        let too_big = vec![vec![0u8; PAGE_SIZE - 3].into_boxed_slice()];
        assert!(write_segment(&path, &too_big, &[]).is_err());

        let pages = vec![vec![1u8, 2, 3].into_boxed_slice()];
        write_segment(&path, &pages, &[]).unwrap();
        // Zero out the length prefix of page 0 → Corrupt, not a panic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE..PAGE_SIZE + 4].fill(0);
        std::fs::write(&path, &bytes).unwrap();
        assert_corrupt(read_segment(&path), "zero length prefix");
        // Truncated data region → an error.
        std::fs::write(&path, &bytes[..PAGE_SIZE]).unwrap();
        assert!(read_segment(&path).is_err());
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let dir = TempDir::new("segfile-bad").unwrap();
        let path = dir.path().join("seg-bad");
        // Too short for a header.
        std::fs::write(&path, b"IOSG").unwrap();
        assert!(read_segment(&path).is_err());
        // Bad magic, a retired version, a non-zero reserved field.
        write_segment(&path, &[vec![1u8, 2, 3].into_boxed_slice()], &[9]).unwrap();
        let good = std::fs::read(&path).unwrap();
        for at in [0, 4, 7] {
            let mut bad = good.clone();
            bad[at] ^= 1;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_segment(&path).is_err(), "byte {at}");
        }
    }

    /// A segment file at `path` whose header page count (bytes 10..18) or
    /// footer length (bytes 18..26) reads `u64::MAX`.
    fn with_header_field_maxed(path: &Path, field: std::ops::Range<usize>) {
        write_segment(path, &[vec![1u8, 2, 3].into_boxed_slice()], &[9]).unwrap();
        let mut bytes = std::fs::read(path).unwrap();
        bytes[field].fill(0xff);
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn a_maxed_page_count_is_corrupt_not_a_panic() {
        let dir = TempDir::new("segfile-max-pages").unwrap();
        let path = dir.path().join("seg");
        with_header_field_maxed(&path, 10..18);
        assert_corrupt(read_segment(&path), "page count");
    }

    #[test]
    fn a_maxed_footer_length_is_corrupt_not_a_panic() {
        let dir = TempDir::new("segfile-max-footer").unwrap();
        let path = dir.path().join("seg");
        with_header_field_maxed(&path, 18..26);
        assert_corrupt(read_segment(&path), "footer length");
    }
}
