use rand::Rng;
use std::fmt;

/// An ordered vector of key bits for a locked circuit.
///
/// Bit `i` corresponds to key input `keyinput{i}` of the locked netlist.
///
/// ```
/// use obfuscate::Key;
///
/// let key = Key::from_bits([true, false, true, true]);
/// assert_eq!(key.len(), 4);
/// assert_eq!(key.to_hex(), "d");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Key {
    bits: Vec<bool>,
}

impl Key {
    /// Builds a key from explicit bits.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        Key {
            bits: bits.into_iter().collect(),
        }
    }

    /// Samples a uniformly random key of `len` bits.
    pub fn random(len: usize, rng: &mut impl Rng) -> Self {
        Key {
            bits: (0..len).map(|_| rng.gen()).collect(),
        }
    }

    /// Number of key bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the key has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// All bits in order.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Lowercase hex encoding, little-endian nibbles (bit 0 = lsb of the
    /// first hex digit's group).
    pub fn to_hex(&self) -> String {
        if self.bits.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for chunk in self.bits.chunks(4) {
            let mut nibble = 0u8;
            for (j, &b) in chunk.iter().enumerate() {
                if b {
                    nibble |= 1 << j;
                }
            }
            out.push(char::from_digit(nibble as u32, 16).expect("nibble < 16"));
        }
        out
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key[{}]=0x{}", self.len(), self.to_hex())
    }
}

impl FromIterator<bool> for Key {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        Key::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Key::random(32, &mut StdRng::seed_from_u64(7));
        let b = Key::random(32, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn collect_from_iterator() {
        let key: Key = [true, true, false].into_iter().collect();
        assert_eq!(key.len(), 3);
        assert!(key.bit(0));
        assert!(!key.bit(2));
    }
}
