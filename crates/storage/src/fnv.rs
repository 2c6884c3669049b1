//! FNV-1a 64: the one checksum loop behind segment pages and WAL frames.
//! Fast, table-free corruption detection — not a cryptographic MAC.
//!
//! Two multipliers are in use, and both are format constants: segment
//! pages use the FNV prime; WAL frames were first written with that prime
//! two hex digits short, and those values sit in logs on disk, so
//! [`Fnv1a64Legacy`] keeps them.

/// Streaming FNV-1a 64 state over the multiplier `PRIME`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a<const PRIME: u64>(u64);

/// The hash of WAL frames: FNV-1a 64 with the multiplier `0x1_0000_01b3`.
/// New formats use [`fnv1a64`].
pub type Fnv1a64Legacy = Fnv1a<0x1_0000_01b3>;

impl<const PRIME: u64> Fnv1a<PRIME> {
    /// The offset-basis state (the hash of no bytes).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }
}

impl<const PRIME: u64> Default for Fnv1a<PRIME> {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv1a::<0x0000_0100_0000_01b3>::hash(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut parts = Fnv1a64Legacy::new();
        parts.write(b"foo");
        parts.write(b"");
        parts.write(b"bar");
        assert_eq!(parts.finish(), Fnv1a64Legacy::hash(b"foobar"));
        assert_ne!(parts.finish(), fnv1a64(b"foobar"), "the two multipliers are distinct formats");
    }
}
