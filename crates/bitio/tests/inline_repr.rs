//! Inline-representation coverage: `BitString` stores payloads of at most
//! 23 bytes (184 bits) on the stack and spills longer ones to the heap.
//! The split must be *invisible* — every public operation, the on-wire
//! serde format, and the reader/writer pipeline behave identically on
//! both sides of the boundary and across the spill itself.
//!
//! Strategies deliberately concentrate lengths around the 184-bit
//! boundary, the region ordinary length-uniform generation rarely hits.

use proptest::prelude::*;
use ringleader_bitio::{BitReader, BitString, BitWriter};

/// The inline capacity in bits; must match `bitstring::INLINE_BITS`.
/// (Asserted against observed spill behavior in `spill_length_is_exact`,
/// so a drift in the crate constant fails loudly here.)
const INLINE_BITS: usize = 184;

/// Bit-vector lengths clustered on the inline↔heap boundary.
fn boundary_bits() -> impl Strategy<Value = Vec<bool>> {
    (INLINE_BITS.saturating_sub(24)..INLINE_BITS + 24)
        .prop_flat_map(|len| proptest::collection::vec(any::<bool>(), len..=len))
}

/// One step of a copy chain. Appended fragments are drawn from `seed`,
/// so a failing case prints a few numbers rather than thousands of bits.
#[derive(Debug, Clone)]
enum Step {
    Push(bool),
    /// Append `len` bits that start `offset` bits into a seeded string,
    /// so the source is itself a shifted slice.
    Extend {
        len: usize,
        offset: usize,
        seed: u64,
    },
    /// Replace the string by `start..start + len`, clamped to its length.
    Slice {
        start: usize,
        len: usize,
    },
}

/// Fragment lengths: a few bits, the inline boundary, or up to 3000.
fn fragment_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..16, INLINE_BITS - 16..INLINE_BITS + 16, 0usize..3001]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<bool>().prop_map(Step::Push),
        (fragment_len(), 0usize..8, any::<u64>()).prop_map(|(len, offset, seed)| Step::Extend {
            len,
            offset,
            seed
        }),
        (0usize..3001, fragment_len()).prop_map(|(start, len)| Step::Slice { start, len }),
    ]
}

/// `len` pseudo-random bits from a splitmix64 stream.
fn seeded_bits(seed: u64, len: usize) -> Vec<bool> {
    let mut state = seed;
    let mut word = 0u64;
    (0..len)
        .map(|i| {
            if i % 64 == 0 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                word = z ^ (z >> 31);
            }
            (word >> (i % 64)) & 1 == 1
        })
        .collect()
}

/// `bits` packed eight to a byte, least-significant bit first, with the
/// unused high bits of the last byte zero.
fn packed(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|chunk| chunk.iter().enumerate().fold(0u8, |byte, (i, &b)| byte | (u8::from(b) << i)))
        .collect()
}

/// Reference JSON for the historical `{bytes: Vec<u8>, len: usize}`
/// struct — the wire format both representations must produce.
fn reference_json(s: &BitString) -> String {
    let bytes: Vec<String> = s.as_bytes().iter().map(u8::to_string).collect();
    format!("{{\"bytes\":[{}],\"len\":{}}}", bytes.join(","), s.len())
}

proptest! {
    #[test]
    fn spill_length_is_exact(extra in 0usize..40) {
        // Exactly INLINE_BITS bits fit inline; bit INLINE_BITS + 1 spills.
        let mut s = BitString::new();
        for i in 0..INLINE_BITS + extra {
            s.push(i % 5 == 0);
            prop_assert_eq!(
                s.is_inline(),
                s.len() <= INLINE_BITS,
                "wrong storage at len {}", s.len()
            );
        }
        // Contents survive the spill bit for bit.
        for i in 0..s.len() {
            prop_assert_eq!(s.get(i), Some(i % 5 == 0));
        }
    }

    #[test]
    fn push_get_parse_display_across_boundary(bits in boundary_bits()) {
        let s = BitString::from_bits(bits.iter().copied());
        prop_assert_eq!(s.len(), bits.len());
        prop_assert_eq!(s.is_inline(), bits.len() <= INLINE_BITS);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(s.get(i), Some(b));
        }
        prop_assert_eq!(s.get(bits.len()), None);
        let text = s.to_string();
        prop_assert_eq!(text.len(), bits.len());
        let parsed = BitString::parse(&text).expect("display output parses");
        prop_assert_eq!(&parsed, &s);
    }

    #[test]
    fn equality_and_count_ones_ignore_storage(bits in boundary_bits()) {
        // Same value built two ways: bit pushes (inline until spill) and
        // a pre-spilled heap string via an oversized capacity request.
        let pushed = BitString::from_bits(bits.iter().copied());
        let mut heaped = BitString::with_capacity(INLINE_BITS * 4);
        heaped.extend(bits.iter().copied());
        prop_assert!(!heaped.is_inline());
        prop_assert_eq!(&pushed, &heaped);
        let expected_ones = bits.iter().filter(|&&b| b).count();
        prop_assert_eq!(pushed.count_ones(), expected_ones);
        prop_assert_eq!(heaped.count_ones(), expected_ones);
    }

    #[test]
    fn serde_wire_format_is_storage_independent(bits in boundary_bits()) {
        let pushed = BitString::from_bits(bits.iter().copied());
        let mut heaped = BitString::with_capacity(INLINE_BITS * 4);
        heaped.extend(bits.iter().copied());
        let expected = reference_json(&pushed);
        prop_assert_eq!(
            serde_json::to_string(&pushed).expect("serializes"),
            expected.clone()
        );
        prop_assert_eq!(
            serde_json::to_string(&heaped).expect("serializes"),
            expected.clone()
        );
        let back: BitString = serde_json::from_str(&expected).expect("deserializes");
        prop_assert_eq!(&back, &pushed);
    }

    #[test]
    fn slice_matches_bitwise_reference(
        bits in proptest::collection::vec(any::<bool>(), 0..420),
        start in 0usize..420,
        len in 0usize..420,
    ) {
        // Exercises the byte-shifted fast path against first principles,
        // with sources and outputs on both sides of the inline boundary.
        let s = BitString::from_bits(bits.iter().copied());
        let start = start % (s.len() + 1);
        let end = (start + len).min(s.len());
        let sliced = s.slice(start..end);
        prop_assert_eq!(sliced.len(), end - start);
        for i in 0..sliced.len() {
            prop_assert_eq!(sliced.get(i), Some(bits[start + i]), "slice bit {}", i);
        }
    }

    #[test]
    fn extend_from_matches_push_loop(
        head in proptest::collection::vec(any::<bool>(), 0..250),
        tail in proptest::collection::vec(any::<bool>(), 0..250),
    ) {
        // Byte-aligned and unaligned appends, inline and spilled, must
        // agree with the bit-at-a-time reference.
        let mut fast = BitString::from_bits(head.iter().copied());
        fast.extend_from(&BitString::from_bits(tail.iter().copied()));
        let reference =
            BitString::from_bits(head.iter().chain(tail.iter()).copied());
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(fast.len(), head.len() + tail.len());
    }

    #[test]
    fn copy_chains_match_a_bool_vector(
        align in 0usize..8,
        steps in proptest::collection::vec(step(), 1..12),
    ) {
        // Chains of appends and slices at every destination alignment, on
        // both sides of the inline boundary. After every step the packed
        // bytes must equal the reference's, zero tail included; a bit left
        // stray past the end would surface at a later push.
        let mut s = BitString::new();
        let mut reference = Vec::new();
        for i in 0..align {
            s.push(i % 3 == 0);
            reference.push(i % 3 == 0);
        }
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Push(bit) => {
                    s.push(bit);
                    reference.push(bit);
                }
                Step::Extend { len, offset, seed } => {
                    let bits = seeded_bits(seed, offset + len);
                    let source = BitString::from_bits(bits.iter().copied());
                    s.extend_from(&source.slice(offset..offset + len));
                    reference.extend_from_slice(&bits[offset..]);
                }
                Step::Slice { start, len } => {
                    let start = start % (reference.len() + 1);
                    let end = (start + len).min(reference.len());
                    s = s.slice(start..end);
                    reference = reference[start..end].to_vec();
                }
            }
            prop_assert_eq!(s.len(), reference.len(), "length after step {}", i);
            prop_assert_eq!(s.as_bytes().to_vec(), packed(&reference), "bits after step {}", i);
        }
    }

    #[test]
    fn writer_reader_roundtrip_across_spill(
        prefix_bits in 150usize..200,
        values in proptest::collection::vec(1u64..1_000_000, 1..8),
    ) {
        // Position the write head near the boundary, then keep encoding:
        // the writer's internal BitString spills mid-message and every
        // field must still read back exactly.
        let mut w = BitWriter::new();
        for i in 0..prefix_bits {
            w.write_bit(i % 2 == 1);
        }
        for &v in &values {
            w.write_elias_delta(v);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for i in 0..prefix_bits {
            prop_assert_eq!(r.read_bit().unwrap(), i % 2 == 1);
        }
        for &v in &values {
            prop_assert_eq!(r.read_elias_delta().unwrap(), v);
        }
        prop_assert!(r.is_at_end());
    }

    #[test]
    fn read_bitstring_crossing_the_boundary(
        bits in proptest::collection::vec(any::<bool>(), 200..400),
        cut in 1usize..199,
    ) {
        // Splitting a heap string yields (possibly) inline pieces whose
        // concatenation is the original.
        let s = BitString::from_bits(bits.iter().copied());
        let mut r = BitReader::new(&s);
        let first = r.read_bitstring(cut).unwrap();
        let rest = r.read_rest();
        prop_assert_eq!(first.len() + rest.len(), s.len());
        let mut rebuilt = first;
        rebuilt.extend_from(&rest);
        prop_assert_eq!(rebuilt, s);
    }
}
