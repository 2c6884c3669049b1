//! Columnar compressed segment pages: the one page format of an EDB
//! segment.
//!
//! A page stores its entries *columnar* and *delta-compressed*, several
//! times denser than fixed-width [`EdbRecord`] rows (`4k + 24` bytes each),
//! and packed to fit one `PAGE_SIZE` block — so the exact-I/O meter, which
//! charges per page, reads proportionally fewer pages:
//!
//! ```text
//! varint n                          entry count
//! fact-id stream                    varint id[0], then n-1 × varint
//!                                   zigzag64(id[i] - id[i-1])
//! k × coordinate streams            per dimension d: varint cell[0][d],
//!                                   then n-1 × varint zigzag32(delta)
//! weight bitmap  ⌈n/8⌉ bytes        bit i set ⇔ weight[i] ≠ weight[i-1]
//! weight values  8 bytes per set bit (f64 LE, bit 0 always set)
//! measure bitmap + values           same scheme as weights
//! checksum u64 LE                   FNV-1a 64 over everything above
//! ```
//!
//! Deltas use wrapping two's-complement arithmetic, so every value —
//! including `u32::MAX` coordinates and `u64::MAX` fact ids — round-trips
//! exactly. Weights and measures stay raw little-endian f64, never
//! re-quantized: decoding reproduces the source records bit for bit, which
//! is what keeps aggregates through the decompressing cursor bit-identical
//! to an uncompressed scan in the same order. The trailing checksum turns
//! any torn, truncated or bit-flipped page into a decode *error* instead
//! of a silent short read.

use crate::records::EdbRecord;
use crate::region::RegionBox;
use crate::segment_meta::PageFence;
use crate::MAX_DIMS;
pub use iolap_storage::fnv1a64;
use iolap_storage::PAGE_SIZE;

/// Byte budget for one encoded page: a payload must fit in one
/// `PAGE_SIZE` disk block alongside the segment file's per-page length
/// prefix.
pub const MAX_V2_PAGE_BYTES: usize = PAGE_SIZE - 8;

// ---------------------------------------------------------------------------
// varint / zigzag / checksum primitives
// ---------------------------------------------------------------------------

#[inline]
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag64(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Concatenate the low seven bits of each byte of `w`, lowest byte first:
/// the value of a varint whose bytes are `w`'s (unused high bytes zero).
#[inline]
fn squeeze7(w: u64) -> u64 {
    let x = w & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// Bounds-checked reader over an encoded page body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.buf.get(self.pos) else {
                return Err("page truncated inside a varint".into());
            };
            self.pos += 1;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err("varint overflows 64 bits".into());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Fill `out` with the next `out.len()` varints of one stream, a word
    /// at a time: one `u64` load covers the next eight bytes. When none of
    /// them has its continuation bit set they are eight single-byte
    /// varints; otherwise, when the first varint ends inside the word (it
    /// is then at most 56 bits and cannot overflow), it is cut out of the
    /// word with no per-byte branch. A wider varint, and the last seven
    /// bytes of the body, go through the checked scalar [`Reader::varint`],
    /// so this accepts and rejects exactly the byte strings that would.
    fn stream(&mut self, out: &mut [u64]) -> Result<(), String> {
        const CONTINUATION: u64 = 0x8080_8080_8080_8080;
        let mut i = 0;
        while i < out.len() {
            if let Some(next8) = self.buf.get(self.pos..self.pos + 8) {
                let word = u64::from_le_bytes(next8.try_into().expect("8 bytes"));
                // The high bit of each byte that ends a varint.
                let ends = !word & CONTINUATION;
                if ends == CONTINUATION && out.len() - i >= 8 {
                    for (j, v) in out[i..i + 8].iter_mut().enumerate() {
                        *v = (word >> (8 * j)) & 0xff;
                    }
                    self.pos += 8;
                    i += 8;
                    continue;
                }
                if ends != 0 {
                    let len = ends.trailing_zeros() / 8 + 1;
                    out[i] = squeeze7(word & (u64::MAX >> (64 - 8 * len)));
                    self.pos += len as usize;
                    i += 1;
                    continue;
                }
            }
            out[i] = self.varint()?;
            i += 1;
        }
        Ok(())
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!("page truncated: want {n} more bytes"));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// page encode / decode
// ---------------------------------------------------------------------------

/// Encode `recs` (one page's worth, in segment order) into the columnar
/// v2 layout, appending to `out`.
///
/// Panics if `recs` is empty — pages are never empty by construction.
pub fn encode_page(k: usize, recs: &[EdbRecord], out: &mut Vec<u8>) {
    assert!(!recs.is_empty(), "pages are never empty");
    let start = out.len();
    put_varint(out, recs.len() as u64);
    // Fact-id stream: absolute head, wrapping zigzag deltas after.
    put_varint(out, recs[0].fact_id);
    for w in recs.windows(2) {
        put_varint(out, zigzag64(w[1].fact_id.wrapping_sub(w[0].fact_id) as i64));
    }
    // One delta stream per dimension.
    for d in 0..k {
        put_varint(out, u64::from(recs[0].cell[d]));
        for w in recs.windows(2) {
            let delta = w[1].cell[d].wrapping_sub(w[0].cell[d]) as i32;
            put_varint(out, zigzag64(i64::from(delta)));
        }
    }
    // Weight / measure streams: change bitmap + raw f64 per change.
    for select in [|r: &EdbRecord| r.weight, |r: &EdbRecord| r.measure] {
        let bitmap_at = out.len();
        out.resize(bitmap_at + recs.len().div_ceil(8), 0);
        let mut values: Vec<u8> = Vec::new();
        let mut prev = None;
        for (i, r) in recs.iter().enumerate() {
            let v = select(r);
            if prev != Some(v.to_bits()) {
                out[bitmap_at + i / 8] |= 1 << (i % 8);
                values.extend_from_slice(&v.to_le_bytes());
                prev = Some(v.to_bits());
            }
        }
        out.extend_from_slice(&values);
    }
    let sum = fnv1a64(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Decode one page into `out` (cleared first), validating the checksum
/// and every stream length. Never panics on malformed input.
///
/// This is the scan kernel's "all rows, all columns" case: the same
/// [`PageScratch::decode`] a selective scan runs, with the checksum on.
pub fn decode_page(k: usize, bytes: &[u8], out: &mut Vec<EdbRecord>) -> Result<(), String> {
    out.clear();
    let mut scratch = PageScratch::default();
    scratch.decode(k, bytes, true, &PageSelect::all())?;
    out.extend(scratch.rows());
    Ok(())
}

// ---------------------------------------------------------------------------
// the page-scan kernel
// ---------------------------------------------------------------------------

/// Which rows of a page a scan keeps: per dimension either every
/// coordinate, or only `lo <= c < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSelect {
    bounds: [Option<(u32, u32)>; MAX_DIMS],
}

impl PageSelect {
    /// Keep every row.
    pub fn all() -> Self {
        PageSelect { bounds: [None; MAX_DIMS] }
    }

    /// Keep the rows whose cell lies in `region`
    /// ([`RegionBox::contains_cell`]), comparing every dimension.
    pub fn region(region: &RegionBox) -> Self {
        let mut bounds = [None; MAX_DIMS];
        for (d, b) in bounds.iter_mut().enumerate().take(region.k()) {
            *b = Some((region.lo[d], region.hi[d]));
        }
        PageSelect { bounds }
    }

    /// [`PageSelect::region`] for a page whose cells all lie inside
    /// `fence`: a dimension where the fence already lies inside the region
    /// cannot reject a row, so it is not compared.
    pub fn within(region: &RegionBox, fence: &PageFence) -> Self {
        let mut select = Self::region(region);
        for (d, b) in select.bounds.iter_mut().enumerate().take(region.k()) {
            if region.lo[d] <= fence.lo[d] && fence.hi[d] < region.hi[d] {
                *b = None;
            }
        }
        select
    }
}

/// Reusable column scratch of the page-scan kernel: one decoded page as
/// columns, plus the keep-mask of the rows the [`PageSelect`] kept.
///
/// A scan owns one and decodes page after page through it, so a warm scan
/// allocates nothing; [`EdbRecord`]s are built only for the rows asked
/// for, by [`PageScratch::kept`] or [`PageScratch::rows`].
#[derive(Debug, Default)]
pub struct PageScratch {
    k: usize,
    rows: usize,
    /// `k + 3` columns of `rows` values each: fact ids, the `k`
    /// coordinates (widened), weight bits, measure bits. Only ever grows;
    /// a decode overwrites every slot it later reads.
    cols: Vec<u64>,
    /// One byte per row, non-zero ⇔ kept.
    keep: Vec<u8>,
}

impl PageScratch {
    /// Decode one page into the column scratch and mark the rows
    /// `select` keeps; returns the page's row count. Never panics on
    /// malformed input.
    ///
    /// Every structural check — truncation, varints wider than 64 bits,
    /// coordinates and deltas outside 32 bits, the first-bit rule, trailing
    /// bytes — runs on every call and before any row is handed out.
    /// `verify_checksum` may be false only for bytes that have not changed
    /// since a call on them with it true returned `Ok`.
    pub fn decode(
        &mut self,
        k: usize,
        bytes: &[u8],
        verify_checksum: bool,
        select: &PageSelect,
    ) -> Result<usize, String> {
        self.rows = 0;
        if bytes.len() < 9 {
            return Err(format!("page too short: {} bytes", bytes.len()));
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if verify_checksum {
            let want = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
            let got = fnv1a64(body);
            if got != want {
                return Err(format!(
                    "page checksum mismatch: computed {got:#018x}, stored {want:#018x}"
                ));
            }
        }
        let mut r = Reader { buf: body, pos: 0 };
        let n = r.varint()?;
        if n == 0 || n as usize > body.len() {
            return Err(format!("implausible page entry count {n}"));
        }
        let n = n as usize;
        if self.cols.len() < (k + 3) * n {
            self.cols.resize((k + 3) * n, 0);
        }
        self.keep.clear();
        self.keep.resize(n, 1);
        let mut cols = self.cols.chunks_exact_mut(n);
        let mut col = || cols.next().expect("k + 3 columns");

        // Fact ids: absolute head, then wrapping zigzag deltas.
        let ids = col();
        r.stream(ids)?;
        let mut id = ids[0];
        for v in &mut ids[1..] {
            id = id.wrapping_add(unzigzag64(*v) as u64);
            *v = id;
        }

        // Coordinates, one stream per dimension, rebuilt in place with the
        // dimension's bounds folded into the keep-mask.
        for d in 0..k {
            let cells = col();
            r.stream(cells)?;
            // The head is a u32 and a delta an i32 exactly when the stored
            // (zigzagged) varint fits 32 bits.
            let head = cells[0];
            let mut widest = head;
            let mut c = head as u32;
            for v in &mut cells[1..] {
                widest |= *v;
                c = c.wrapping_add(unzigzag64(*v) as u32);
                *v = u64::from(c);
            }
            if widest > u64::from(u32::MAX) {
                return Err(format!("dimension {d}: a head coordinate or delta overflows 32 bits"));
            }
            if let Some((lo, hi)) = select.bounds.get(d).copied().flatten() {
                let (lo, hi) = (u64::from(lo), u64::from(hi));
                for (keep, &c) in self.keep.iter_mut().zip(cells.iter()) {
                    *keep &= u8::from((lo <= c) & (c < hi));
                }
            }
        }

        read_values(&mut r, col())?;
        read_values(&mut r, col())?;
        if !r.done() {
            return Err(format!("page has {} trailing bytes", body.len() - r.pos));
        }
        self.k = k;
        self.rows = n;
        Ok(n)
    }

    /// Every row of the last successfully decoded page, kept or not, in
    /// page order. Coordinates beyond `k` are zero.
    pub fn rows(&self) -> impl Iterator<Item = EdbRecord> + '_ {
        (0..self.rows).map(self.record_at())
    }

    /// The rows of the last successfully decoded page that its
    /// [`PageSelect`] kept, in page order.
    pub fn kept(&self) -> impl Iterator<Item = EdbRecord> + '_ {
        (0..self.rows).filter(|&i| self.keep[i] != 0).map(self.record_at())
    }

    /// Row `i` of the decoded columns as a record.
    fn record_at(&self) -> impl Fn(usize) -> EdbRecord + '_ {
        let (k, n) = (self.k, self.rows);
        let (ids, rest) = self.cols[..(k + 3) * n].split_at(n);
        let (coords, values) = rest.split_at(k * n);
        let (weights, measures) = values.split_at(n);
        move |i| {
            let mut cell = [0u32; MAX_DIMS];
            for (c, col) in cell.iter_mut().zip(coords.chunks_exact(n)) {
                *c = col[i] as u32;
            }
            EdbRecord {
                fact_id: ids[i],
                cell,
                weight: f64::from_bits(weights[i]),
                measure: f64::from_bits(measures[i]),
            }
        }
    }
}

/// One weight / measure stream into `out` (as f64 bits, one per row): a
/// change bitmap, read in place, and one raw f64 per set bit, repeated
/// over the run of rows it starts.
fn read_values(r: &mut Reader, out: &mut [u64]) -> Result<(), String> {
    let bitmap = r.bytes(out.len().div_ceil(8))?;
    if bitmap[0] & 1 == 0 {
        return Err("first entry of a value stream must be marked changed".into());
    }
    let values = &r.buf[r.pos..];
    let value = |rank: usize| match values.get(8 * rank..8 * rank + 8) {
        Some(v) => Ok(u64::from_le_bytes(v.try_into().expect("8 bytes"))),
        None => Err("page truncated inside a value stream".to_string()),
    };
    // Row i takes value `rank - 1`, its rank being the set bits up to it.
    // Padding bits past the last row are never looked at.
    let mut rank = 0;
    for (rows, &bits) in out.chunks_mut(8).zip(bitmap) {
        if bits == 0xff && rows.len() == 8 {
            // All eight changed (an all-distinct stream): a straight copy.
            for (j, v) in rows.iter_mut().enumerate() {
                *v = value(rank + j)?;
            }
            rank += 8;
        } else {
            for (j, v) in rows.iter_mut().enumerate() {
                rank += usize::from(bits >> j & 1);
                *v = value(rank - 1)?;
            }
        }
    }
    r.pos += 8 * rank;
    Ok(())
}

// ---------------------------------------------------------------------------
// incremental page builder
// ---------------------------------------------------------------------------

/// Accumulates records for one page while tracking the *exact* encoded
/// size, so segment builds can close a page just before it would overflow
/// [`MAX_V2_PAGE_BYTES`] without trial-encoding.
pub struct PageBuilder {
    k: usize,
    recs: Vec<EdbRecord>,
    stream_bytes: usize,
    weight_values: usize,
    measure_values: usize,
}

impl PageBuilder {
    /// An empty builder for dimensionality `k`.
    pub fn new(k: usize) -> Self {
        PageBuilder { k, recs: Vec::new(), stream_bytes: 0, weight_values: 0, measure_values: 0 }
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Incremental varint cost of appending `r` to the id + coordinate
    /// streams, plus any new raw f64 values.
    fn append_cost(&self, r: &EdbRecord) -> (usize, usize, usize) {
        let mut stream = 0;
        match self.recs.last() {
            None => {
                stream += varint_len(r.fact_id);
                for d in 0..self.k {
                    stream += varint_len(u64::from(r.cell[d]));
                }
            }
            Some(p) => {
                stream += varint_len(zigzag64(r.fact_id.wrapping_sub(p.fact_id) as i64));
                for d in 0..self.k {
                    let delta = r.cell[d].wrapping_sub(p.cell[d]) as i32;
                    stream += varint_len(zigzag64(i64::from(delta)));
                }
            }
        }
        let prev = self.recs.last();
        let w = if prev.map(|p| p.weight.to_bits()) == Some(r.weight.to_bits()) { 0 } else { 8 };
        let m = if prev.map(|p| p.measure.to_bits()) == Some(r.measure.to_bits()) { 0 } else { 8 };
        (stream, w, m)
    }

    /// Exact encoded length if `r` were appended now.
    pub fn len_with(&self, r: &EdbRecord) -> usize {
        let (stream, w, m) = self.append_cost(r);
        let n = self.recs.len() + 1;
        varint_len(n as u64)
            + self.stream_bytes
            + stream
            + 2 * n.div_ceil(8)
            + self.weight_values
            + w
            + self.measure_values
            + m
            + 8
    }

    /// Append `r`, updating the running size.
    pub fn push(&mut self, r: EdbRecord) {
        let (stream, w, m) = self.append_cost(&r);
        self.stream_bytes += stream;
        self.weight_values += w;
        self.measure_values += m;
        self.recs.push(r);
    }

    /// Exact encoded length of the buffered (non-empty) page.
    pub fn encoded_len(&self) -> usize {
        varint_len(self.recs.len() as u64)
            + self.stream_bytes
            + 2 * self.recs.len().div_ceil(8)
            + self.weight_values
            + self.measure_values
            + 8
    }

    /// Encode the buffered page and reset the builder. Returns the records
    /// (in order) and the encoded payload.
    pub fn finish(&mut self) -> (Vec<EdbRecord>, Vec<u8>) {
        let expected = self.encoded_len();
        let recs = std::mem::take(&mut self.recs);
        let mut out = Vec::with_capacity(expected);
        encode_page(self.k, &recs, &mut out);
        debug_assert_eq!(
            out.len(),
            expected,
            "PageBuilder size accounting must match encode_page exactly"
        );
        self.stream_bytes = 0;
        self.weight_values = 0;
        self.measure_values = 0;
        (recs, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fact_id: u64, c: &[u32], weight: f64, measure: f64) -> EdbRecord {
        let mut cell = [0u32; MAX_DIMS];
        cell[..c.len()].copy_from_slice(c);
        EdbRecord { fact_id, cell, weight, measure }
    }

    #[test]
    fn single_record_round_trips() {
        let recs = vec![rec(u64::MAX, &[u32::MAX, 0, 7], 0.125, -3.5)];
        let mut out = Vec::new();
        encode_page(3, &recs, &mut out);
        let mut back = Vec::new();
        decode_page(3, &out, &mut back).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn max_delta_swings_round_trip() {
        // Wrapping deltas must survive full-range jumps in both directions.
        let recs = vec![
            rec(0, &[0, u32::MAX], 1.0, 1.0),
            rec(u64::MAX, &[u32::MAX, 0], 1.0, 2.0),
            rec(1, &[0, u32::MAX], 0.5, 2.0),
        ];
        let mut out = Vec::new();
        encode_page(2, &recs, &mut out);
        let mut back = Vec::new();
        decode_page(2, &out, &mut back).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn repeated_weights_cost_one_value() {
        let a: Vec<EdbRecord> = (0..64).map(|i| rec(i, &[i as u32], 1.0, 2.0)).collect();
        let b: Vec<EdbRecord> = (0..64).map(|i| rec(i, &[i as u32], 1.0, i as f64)).collect();
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        encode_page(1, &a, &mut ea);
        encode_page(1, &b, &mut eb);
        assert!(ea.len() + 8 * 62 <= eb.len(), "constant streams must stay one value");
        // Either way, well under the fixed-width 28 bytes/record.
        assert!(ea.len() < 64 * 28 / 4, "{}", ea.len());
    }

    #[test]
    fn corruption_is_detected_never_panics() {
        let recs: Vec<EdbRecord> =
            (0..40).map(|i| rec(i, &[i as u32, 2 * i as u32], 0.5, i as f64)).collect();
        let mut good = Vec::new();
        encode_page(2, &recs, &mut good);
        let mut buf = Vec::new();
        // Flip every single bit: the checksum must catch each one.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 1;
            assert!(decode_page(2, &bad, &mut buf).is_err(), "flip at byte {byte}");
        }
        // Truncations at every length.
        for len in 0..good.len() {
            assert!(decode_page(2, &good[..len], &mut buf).is_err(), "truncated to {len}");
        }
        assert!(decode_page(2, &[], &mut buf).is_err());
    }

    /// A k = 1, two-row page from raw stream varints, so a test can store
    /// what `encode_page` never would. The checksum is valid.
    fn raw_page(varints: &[u64], bitmaps: [u8; 2]) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in varints {
            put_varint(&mut out, v);
        }
        for bitmap in bitmaps {
            out.push(bitmap);
            out.extend_from_slice(&1.5f64.to_le_bytes());
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// The kernel on a page whose checksum was verified earlier: the
    /// checksum pass is skipped, the structural checks are not. Damage the
    /// checksum would have caught first is an error (or decodes as some
    /// other page) — never a panic, never a read past the body.
    #[test]
    fn structural_checks_hold_without_the_checksum() {
        let recs: Vec<EdbRecord> =
            (0..40).map(|i| rec(i, &[i as u32, 2 * i as u32], 0.5, i as f64)).collect();
        let mut good = Vec::new();
        encode_page(2, &recs, &mut good);
        let mut scratch = PageScratch::default();
        let all = PageSelect::all();
        assert_eq!(scratch.decode(2, &good, false, &all), Ok(40));
        assert_eq!(scratch.kept().collect::<Vec<_>>(), recs);
        for len in 0..good.len() {
            assert!(scratch.decode(2, &good[..len], false, &all).is_err(), "truncated to {len}");
            assert_eq!(scratch.kept().count(), 0, "a failed decode hands out no rows");
        }
        for bit in 0..8 * good.len() {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(rows) = scratch.decode(2, &bad, false, &all) {
                assert_eq!(scratch.kept().count(), rows);
            }
        }

        let zz = |v: i64| zigzag64(v);
        let i32_min = i64::from(i32::MIN);
        let i32_max = i64::from(i32::MAX);
        let u32_max = u64::from(u32::MAX);
        // (stream varints: n, id head, id delta, cell head, cell delta;
        //  bitmaps; the error, or None for a page that must decode)
        let cases: [(&[u64], [u8; 2], Option<&str>); 9] = [
            (&[2, 7, zz(-3), 9, zz(1)], [1, 1], None),
            (&[2, u64::MAX, zz(1), u32_max, zz(i32_min)], [1, 1], None),
            (&[2, 7, zz(i64::MIN), 9, zz(i32_max)], [1, 1], None),
            (&[2, 7, 0, 9, zz(i32_max + 1)], [1, 1], Some("overflows 32 bits")),
            (&[2, 7, 0, 9, zz(i32_min - 1)], [1, 1], Some("overflows 32 bits")),
            (&[2, 7, 0, u32_max + 1, 0], [1, 1], Some("overflows 32 bits")),
            (&[2, 7, 0, 9, 0], [2, 1], Some("marked changed")),
            (&[2, 7, 0, 9, 0], [1, 0], Some("marked changed")),
            (&[0, 7, 0, 9, 0], [1, 1], Some("implausible")),
        ];
        for (varints, bitmaps, want) in cases {
            let page = raw_page(varints, bitmaps);
            for verify in [true, false] {
                let got = scratch.decode(1, &page, verify, &all);
                match want {
                    None => assert_eq!(got, Ok(2), "{varints:?}"),
                    Some(msg) => {
                        assert!(
                            got.as_ref().is_err_and(|e| e.contains(msg)),
                            "{varints:?}: {got:?}"
                        )
                    }
                }
            }
        }
        // One byte between the last value and the checksum.
        let mut page = raw_page(&[2, 7, 0, 9, 0], [1, 1]);
        page.truncate(page.len() - 8);
        page.push(0);
        let sum = fnv1a64(&page);
        page.extend_from_slice(&sum.to_le_bytes());
        for verify in [true, false] {
            let got = scratch.decode(1, &page, verify, &all);
            assert!(got.as_ref().is_err_and(|e| e.contains("trailing")), "{got:?}");
        }
        // An eleven-byte varint, and a ten-byte one with bits past the 64th.
        for overlong in
            [[0x80u8; 11].as_slice(), &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2]]
        {
            let mut page = vec![2];
            page.extend_from_slice(overlong);
            page.extend_from_slice(&[0; 40]);
            let got = scratch.decode(1, &page, false, &all);
            assert!(got.as_ref().is_err_and(|e| e.contains("overflows 64 bits")), "{got:?}");
        }
    }

    /// `Reader::stream` against a loop over the scalar `Reader::varint`:
    /// same values, same end position, same error — on directed layouts
    /// and on arbitrary bytes.
    #[test]
    fn word_at_a_time_stream_equals_the_scalar_reader() {
        fn check(bytes: &[u8], n: usize) {
            let mut scalar = Reader { buf: bytes, pos: 0 };
            let want: Result<Vec<u64>, String> = (0..n).map(|_| scalar.varint()).collect();
            let mut fast = Reader { buf: bytes, pos: 0 };
            let mut got = vec![0; n];
            match (want, fast.stream(&mut got)) {
                (Ok(want), Ok(())) => {
                    assert_eq!(got, want, "{bytes:x?}");
                    assert_eq!(fast.pos, scalar.pos, "{bytes:x?}");
                }
                (Err(want), Err(got)) => assert_eq!(got, want, "{bytes:x?}"),
                (want, got) => panic!("scalar {want:?}, word {got:?} on {bytes:x?}"),
            }
        }
        // A `lead`-byte varint puts what follows at every offset mod 8;
        // then a run of single bytes of every length mod 8 (and past one
        // word), a three-byte varint that straddles a word boundary for
        // some of them, and 0..8 single bytes before the end of the body.
        for lead in 0..=10usize {
            for run in 0..=17usize {
                for tail in 0..8usize {
                    let mut bytes = Vec::new();
                    let mut n = run + 1 + tail;
                    if lead > 0 {
                        put_varint(
                            &mut bytes,
                            if lead == 10 { u64::MAX } else { 1 << (7 * (lead - 1)) },
                        );
                        assert_eq!(bytes.len(), lead);
                        n += 1;
                    }
                    bytes.extend((0..run).map(|i| (i * 37 % 128) as u8));
                    put_varint(&mut bytes, 0x1f_ffff);
                    bytes.extend((0..tail).map(|i| (i * 11 % 128) as u8));
                    // Every prefix count, the exact count, and one too many.
                    for count in 1..=n + 1 {
                        check(&bytes, count);
                    }
                }
            }
        }
        // Arbitrary bytes: mostly single-byte, some continuation bits, so
        // long and overflowing varints and truncated tails all occur.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let len = (next() % 48) as usize;
            let dense = next() % 4;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    let b = next() as u8;
                    if next() % 4 < dense {
                        b | 0x80
                    } else {
                        b & 0x7f
                    }
                })
                .collect();
            check(&bytes, (next() % 40) as usize);
        }
    }

    #[test]
    fn builder_size_accounting_is_exact() {
        let recs: Vec<EdbRecord> = (0..1000)
            .map(|i| {
                rec(
                    (i * 37) % 911,
                    &[(i % 97) as u32, (i / 97) as u32],
                    if i % 3 == 0 { 1.0 } else { 0.25 },
                    i as f64,
                )
            })
            .collect();
        let mut b = PageBuilder::new(2);
        let mut pages = 0;
        for r in &recs {
            if !b.is_empty() && b.len_with(r) > MAX_V2_PAGE_BYTES {
                let (page_recs, bytes) = b.finish();
                assert!(!page_recs.is_empty());
                assert!(bytes.len() <= MAX_V2_PAGE_BYTES);
                pages += 1;
            }
            let predicted = b.len_with(r);
            b.push(r.clone());
            let mut direct = Vec::new();
            encode_page(2, current(&b), &mut direct);
            assert_eq!(direct.len(), predicted, "after pushing record");
        }
        if !b.is_empty() {
            let (_, bytes) = b.finish();
            assert!(bytes.len() <= MAX_V2_PAGE_BYTES);
            pages += 1;
        }
        assert!(pages >= 1);
    }

    /// Test-only peek at the builder's buffered records.
    fn current(b: &PageBuilder) -> &[EdbRecord] {
        &b.recs
    }
}
