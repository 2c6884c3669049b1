//! Property tests for the columnar page codec: decode(encode(recs)) must
//! equal the source record slice — bit for bit, including f64 payloads —
//! for arbitrary pages, the incremental [`PageBuilder`] accounting must
//! agree with the real encoder at every step, and the selective scan
//! kernel must keep exactly the rows a decode-then-filter keeps.

use iolap_model::{
    decode_page, encode_page, EdbRecord, PageBuilder, PageFence, PageScratch, PageSelect,
    RegionBox, MAX_DIMS,
};
use proptest::prelude::*;

/// Arbitrary record: full-range ids and coordinates (max-delta cases via
/// the explicit `MAX` arms), weights mixing repeats (the way allocation
/// output repeats them) with arbitrary bit patterns. All `MAX_DIMS`
/// coordinates are filled; the codec only reads the first `k`.
fn arb_record() -> impl Strategy<Value = EdbRecord> {
    (
        prop_oneof![any::<u64>(), Just(0u64), Just(u64::MAX)],
        proptest::collection::vec(prop_oneof![0u32..1000, any::<u32>(), Just(u32::MAX)], MAX_DIMS),
        prop_oneof![Just(1.0f64), 0.0f64..1.0, any::<f64>()],
        prop_oneof![-1e6f64..1e6, any::<f64>()],
    )
        .prop_map(|(fact_id, dims, weight, measure)| {
            let mut cell = [0u32; MAX_DIMS];
            cell.copy_from_slice(&dims);
            EdbRecord { fact_id, cell, weight, measure }
        })
}

/// Bit-exact record equality over the first `k` coordinates (the codec
/// stores no others and decodes them as zero), NaN payloads included.
fn same_bits(k: usize, a: &EdbRecord, b: &EdbRecord) -> bool {
    a.fact_id == b.fact_id
        && a.cell[..k] == b.cell[..k]
        && a.weight.to_bits() == b.weight.to_bits()
        && a.measure.to_bits() == b.measure.to_bits()
}

/// The tight fence of a page's records.
fn fence_of(k: usize, recs: &[EdbRecord]) -> PageFence {
    let mut fence = PageFence::point(&recs[0].cell);
    for r in recs {
        fence.grow(&r.cell, k);
    }
    fence
}

/// A query box of one of the shapes a scan meets, placed by `pick` among
/// the page's own coordinates so that it cuts through them.
fn query_box(
    k: usize,
    recs: &[EdbRecord],
    fence: &PageFence,
    shape: u8,
    pick: &[u32],
) -> RegionBox {
    let mut region = RegionBox { lo: [0; MAX_DIMS], hi: [u32::MAX; MAX_DIMS], k: k as u8 };
    let coord = |d: usize, j: usize| recs[pick[j] as usize % recs.len()].cell[d];
    match shape {
        // Empty: lo == hi in one dimension.
        0 => region.hi[pick[0] as usize % k] = region.lo[pick[0] as usize % k],
        // The all-region of `SegmentCursor::all_region`.
        1 => {}
        // The fence lies inside the box in every dimension it can.
        2 => {
            for d in 0..k {
                region.lo[d] = fence.lo[d];
                region.hi[d] = fence.hi[d].saturating_add(1);
            }
        }
        // A slab: one dimension cut between two of the page's coordinates.
        3 => {
            let d = pick[0] as usize % k;
            let (a, b) = (coord(d, 1), coord(d, 2));
            region.lo[d] = a.min(b);
            region.hi[d] = a.max(b);
        }
        // Every dimension cut.
        _ => {
            for (d, widen) in pick.iter().enumerate().take(k) {
                let (a, b) = (coord(d, 2 * d), coord(d, 2 * d + 1));
                region.lo[d] = a.min(b);
                region.hi[d] = a.max(b).saturating_add(widen % 2);
            }
        }
    }
    region
}

/// Pages whose id and coordinate streams are single-byte deltas with one
/// wide jump at row `jump`: every row count mod 8, the jump at every
/// position — a multi-byte varint at every offset of a word, straddling
/// word boundaries, first and last in its stream.
#[test]
fn single_byte_runs_around_a_wide_varint_round_trip() {
    let mut scratch = PageScratch::default();
    for n in 1usize..=34 {
        for jump in 0..n {
            let recs: Vec<EdbRecord> = (0..n)
                .map(|i| {
                    let far = if i >= jump { 1 } else { 0 };
                    let mut cell = [0u32; MAX_DIMS];
                    cell[0] = 7;
                    cell[1] = i as u32 + far * 3_000_000;
                    cell[2] = (i as u32 * 5) ^ (far * 0x7fff_ffff);
                    EdbRecord {
                        fact_id: i as u64 * 3 + far as u64 * (1 << 40),
                        cell,
                        weight: 1.0,
                        measure: 2.0,
                    }
                })
                .collect();
            let mut encoded = Vec::new();
            encode_page(3, &recs, &mut encoded);
            let mut back = Vec::new();
            decode_page(3, &encoded, &mut back).expect("well-formed page decodes");
            assert_eq!(back.len(), n, "n {n} jump {jump}");
            assert!(recs.iter().zip(&back).all(|(a, b)| same_bits(3, a, b)), "n {n} jump {jump}");
            // The selective kernel over the rows from the jump on.
            let mut region = RegionBox { lo: [0; MAX_DIMS], hi: [u32::MAX; MAX_DIMS], k: 3 };
            region.lo[1] = 3_000_000;
            for verify in [true, false] {
                let rows = scratch.decode(3, &encoded, verify, &PageSelect::region(&region));
                assert_eq!(rows, Ok(n));
                let kept: Vec<EdbRecord> = scratch.kept().collect();
                assert_eq!(kept.len(), n - jump, "n {n} jump {jump}");
                assert!(recs[jump..].iter().zip(&kept).all(|(a, b)| same_bits(3, a, b)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The scan kernel's survivors are `decode_page` + `contains_cell`,
    /// record for record, bit for bit, in order — whether every dimension
    /// is compared or only those the page fence does not settle, and
    /// whether or not the checksum pass runs.
    #[test]
    fn kernel_survivors_equal_decode_then_filter(
        k in 1usize..=MAX_DIMS,
        recs in proptest::collection::vec(arb_record(), 1..120),
        shape in 0u8..5,
        pick in proptest::collection::vec(any::<u32>(), 2 * MAX_DIMS),
    ) {
        let mut encoded = Vec::new();
        encode_page(k, &recs, &mut encoded);
        let mut decoded = Vec::new();
        decode_page(k, &encoded, &mut decoded).expect("well-formed page decodes");
        let fence = fence_of(k, &recs);
        let region = query_box(k, &recs, &fence, shape, &pick);
        let want: Vec<&EdbRecord> =
            decoded.iter().filter(|r| region.contains_cell(&r.cell)).collect();
        let mut scratch = PageScratch::default();
        for select in [PageSelect::region(&region), PageSelect::within(&region, &fence)] {
            for verify in [true, false] {
                let rows = scratch.decode(k, &encoded, verify, &select);
                prop_assert_eq!(rows, Ok(recs.len()));
                let kept: Vec<EdbRecord> = scratch.kept().collect();
                prop_assert_eq!(kept.len(), want.len());
                for (a, b) in want.iter().zip(&kept) {
                    prop_assert!(same_bits(k, a, b));
                    prop_assert_eq!(&b.cell[k..], &[0u32; MAX_DIMS][k..]);
                }
                // Whatever was kept, `rows` is the whole page.
                prop_assert_eq!(scratch.rows().count(), decoded.len());
                prop_assert!(scratch.rows().zip(&decoded).all(|(a, b)| same_bits(k, &a, b)));
            }
        }
        // Keeping everything is `decode_page` itself.
        prop_assert_eq!(scratch.decode(k, &encoded, true, &PageSelect::all()), Ok(recs.len()));
        prop_assert_eq!(scratch.kept().count(), decoded.len());
        prop_assert!(scratch.kept().zip(&decoded).all(|(a, b)| same_bits(k, &a, b)));
    }

    /// Round trip: single-record pages up to large ones, any k.
    #[test]
    fn encode_decode_round_trips(
        k in 1usize..=MAX_DIMS,
        recs in proptest::collection::vec(arb_record(), 1..200),
    ) {
        let mut encoded = Vec::new();
        encode_page(k, &recs, &mut encoded);
        let mut back = Vec::new();
        decode_page(k, &encoded, &mut back).expect("well-formed page decodes");
        // Bit-exact equality, including NaN payloads the PartialEq on f64
        // would miss. Coordinates beyond k are not stored.
        prop_assert_eq!(recs.len(), back.len());
        for (a, b) in recs.iter().zip(&back) {
            prop_assert_eq!(a.fact_id, b.fact_id);
            prop_assert_eq!(&a.cell[..k], &b.cell[..k]);
            prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            prop_assert_eq!(a.measure.to_bits(), b.measure.to_bits());
        }
    }

    /// The builder's incremental size prediction equals the encoder's
    /// output length after every push.
    #[test]
    fn builder_accounting_matches_encoder(
        k in 1usize..=4,
        recs in proptest::collection::vec(arb_record(), 1..60),
    ) {
        let mut b = PageBuilder::new(k);
        let mut so_far: Vec<EdbRecord> = Vec::new();
        for r in recs {
            let predicted = b.len_with(&r);
            b.push(r.clone());
            so_far.push(r);
            let mut direct = Vec::new();
            encode_page(k, &so_far, &mut direct);
            prop_assert_eq!(direct.len(), predicted);
            prop_assert_eq!(b.encoded_len(), predicted);
        }
        let (recs_out, bytes) = b.finish();
        prop_assert_eq!(recs_out.len(), so_far.len());
        let mut back = Vec::new();
        decode_page(k, &bytes, &mut back).expect("builder output decodes");
        prop_assert_eq!(back.len(), so_far.len());
    }
}
