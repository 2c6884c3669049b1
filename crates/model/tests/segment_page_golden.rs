//! Golden-file tests pinning the columnar page encoding and the segment
//! footer framing.
//!
//! Both are persisted formats: pages and footers written by one build must
//! decode under every later build. Each test encodes a fixed value and
//! compares it byte-for-byte against the committed golden file, so any
//! accidental drift (stream reorder, varint change, checksum change)
//! fails CI instead of corrupting segments silently.
//!
//! To regenerate after an *intentional* format change (which must also
//! bump the relevant version constant): `BLESS=1 cargo test -p iolap-model
//! --test segment_page_golden`.

use iolap_model::{decode_page, encode_page, EdbRecord, SegmentFooter, MAX_DIMS};
use std::path::PathBuf;

fn rec(fact_id: u64, c: &[u32], weight: f64, measure: f64) -> EdbRecord {
    let mut cell = [0u32; MAX_DIMS];
    cell[..c.len()].copy_from_slice(c);
    EdbRecord { fact_id, cell, weight, measure }
}

/// A fixed page exercising every stream feature: out-of-order fact ids
/// (signed deltas), repeated weights (bitmap run), repeated measures,
/// negative coordinate deltas, and a max-range coordinate.
fn reference_page() -> Vec<EdbRecord> {
    vec![
        rec(7, &[0, 5, 2], 1.0, 10.0),
        rec(3, &[0, 5, 3], 1.0, 10.0),
        rec(9, &[1, 4, 3], 0.25, -2.5),
        rec(9, &[1, 6, 0], 0.25, 605.125),
        rec(200, &[u32::MAX, 0, 0], 0.5, 605.125),
    ]
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check(encoded: &[u8], name: &str) {
    let path = golden(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded).unwrap();
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with BLESS=1", path.display())
    });
    assert_eq!(
        encoded,
        &want[..],
        "encoding drifted from {} — if intentional, bump the format version and re-bless",
        path.display()
    );
}

#[test]
fn page_encoding_matches_the_golden_file() {
    let mut encoded = Vec::new();
    encode_page(3, &reference_page(), &mut encoded);
    check(&encoded, "segment_page_v2.bin");
}

#[test]
fn golden_page_still_decodes_to_the_reference_records() {
    let bytes = std::fs::read(golden("segment_page_v2.bin"))
        .expect("golden file (run with BLESS=1 to create)");
    let mut back = Vec::new();
    decode_page(3, &bytes, &mut back).expect("golden page decodes");
    assert_eq!(back, reference_page());
}

/// A fixed footer over the reference records in three pages (the last
/// partial), with explicit encoded lengths.
fn reference_footer() -> SegmentFooter {
    // Bounding boxes use exclusive upper bounds, so footer cells must stay
    // below u32::MAX; clamp the codec-only max-range coordinate.
    let recs: Vec<EdbRecord> = reference_page()
        .into_iter()
        .map(|mut r| {
            for d in r.cell.iter_mut() {
                *d = (*d).min(u32::MAX - 1);
            }
            r
        })
        .collect();
    let mut f = SegmentFooter::new(3);
    for (page, bytes) in recs.chunks(2).zip([61, 58, 44]) {
        f.push_page(page, bytes);
    }
    f
}

#[test]
fn footer_encoding_matches_the_golden_file() {
    check(&reference_footer().encode(), "segment_footer_v2.bin");
}

#[test]
fn golden_footer_still_decodes() {
    let bytes = std::fs::read(golden("segment_footer_v2.bin"))
        .expect("golden file (run with BLESS=1 to create)");
    assert_eq!(SegmentFooter::decode(&bytes).expect("decodes"), reference_footer());
}
