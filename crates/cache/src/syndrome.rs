//! SECDED (single-error-correct, double-error-detect) codewords over a
//! 64-bit data word.
//!
//! The simulator models cached data as a 64-bit oracle version stamp, so
//! data-array protection is modeled as a Hamming(72,64) code over that
//! word: 64 data bits, 7 Hamming check bits at the power-of-two codeword
//! positions, and one overall parity bit at position 0 (the classic
//! extended-Hamming construction used for SRAM/DRAM arrays). A single
//! flipped bit yields a non-zero syndrome *and* an overall parity
//! mismatch — the syndrome names the faulted position, which is flipped
//! back. Two flipped bits yield a non-zero syndrome with overall parity
//! intact: detected, not correctable.
//!
//! The fault model ([`FaultKind::VDataBit`] / [`FaultKind::RDataBit`])
//! encodes the stored word at injection time, flips one data bit of the
//! codeword, and attaches the corrupted codeword to the parity syndrome
//! record; the hierarchy's scrub decodes it and, under
//! `DataProtection::Secded`, restores the corrected word in place.
//!
//! [`FaultKind::VDataBit`]: https://docs.rs/vrcache
//! [`FaultKind::RDataBit`]: https://docs.rs/vrcache

/// Number of data bits protected by one codeword.
pub const DATA_BITS: u32 = 64;

/// Total codeword width: 64 data bits, 7 Hamming check bits (positions
/// 1, 2, 4, …, 64) and the overall parity bit at position 0.
pub const CODE_BITS: u32 = 72;

/// Whether codeword position `p` (1-based Hamming numbering) holds a
/// check bit (powers of two) rather than a data bit.
const fn is_check_position(p: u32) -> bool {
    p & (p.wrapping_sub(1)) == 0
}

/// The codeword position of data bit `i` (the `i`-th non-power-of-two
/// position at or above 3). `i` must be below [`DATA_BITS`].
fn data_position(i: u32) -> u32 {
    debug_assert!(i < DATA_BITS);
    let mut seen = 0;
    let mut p = 1;
    while p < CODE_BITS {
        if !is_check_position(p) {
            if seen == i {
                return p;
            }
            seen += 1;
        }
        p += 1;
    }
    CODE_BITS - 1
}

/// The data-bit index stored at codeword position `p`, or `None` for
/// check/parity positions (and out-of-range syndromes).
fn data_index(p: u32) -> Option<u32> {
    if p == 0 || p >= CODE_BITS || is_check_position(p) {
        return None;
    }
    let mut seen = 0;
    let mut q = 1;
    while q < p {
        if !is_check_position(q) {
            seen += 1;
        }
        q += 1;
    }
    Some(seen)
}

/// A 72-bit extended-Hamming codeword as stored in a protected data
/// array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword {
    bits: u128,
}

/// What decoding a stored codeword found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Zero syndrome, overall parity consistent: the word is intact.
    Clean,
    /// Exactly one bit faulted and was located. `data_bit` is
    /// `Some(i)` when the fault hit data bit `i` (the stored data view
    /// differs from the corrected word by that one bit), `None` when a
    /// check or parity bit faulted (the data view is already correct).
    Corrected {
        /// Index of the corrected data bit, if the fault hit one.
        data_bit: Option<u32>,
    },
    /// Two bits faulted: detected, not correctable.
    DoubleError,
}

impl Codeword {
    /// Encodes `data` into a clean codeword (check bits and overall
    /// parity computed so the syndrome is zero).
    pub fn encode(data: u64) -> Codeword {
        let mut bits: u128 = 0;
        for i in 0..DATA_BITS {
            if (data >> i) & 1 == 1 {
                bits |= 1u128 << data_position(i);
            }
        }
        let mut syndrome = 0u32;
        for p in 1..CODE_BITS {
            if (bits >> p) & 1 == 1 {
                syndrome ^= p;
            }
        }
        for k in 0..7 {
            if (syndrome >> k) & 1 == 1 {
                bits |= 1u128 << (1u32 << k);
            }
        }
        if bits.count_ones() % 2 == 1 {
            bits |= 1;
        }
        Codeword { bits }
    }

    /// The stored data view (possibly corrupted), read straight out of
    /// the data positions without any correction.
    pub fn data(&self) -> u64 {
        let mut out = 0u64;
        for i in 0..DATA_BITS {
            if (self.bits >> data_position(i)) & 1 == 1 {
                out |= 1u64 << i;
            }
        }
        out
    }

    /// Flips data bit `i % 64` — the modeled effect of an upset in the
    /// data portion of the array entry.
    pub fn flip_data_bit(&mut self, i: u32) {
        self.bits ^= 1u128 << data_position(i % DATA_BITS);
    }

    /// Flips raw codeword position `p % 72` (check and parity bits
    /// included) — used to exercise the non-data error paths.
    pub fn flip_position(&mut self, p: u32) {
        self.bits ^= 1u128 << (p % CODE_BITS);
    }

    /// Decodes the stored word: locates and classifies up to two bit
    /// errors against the check bits and the overall parity.
    pub fn syndrome_decode(&self) -> Decode {
        let mut syndrome = 0u32;
        for p in 1..CODE_BITS {
            if (self.bits >> p) & 1 == 1 {
                syndrome ^= p;
            }
        }
        let parity_even = self.bits.count_ones().is_multiple_of(2);
        match (syndrome, parity_even) {
            (0, true) => Decode::Clean,
            // The overall parity bit itself faulted: data intact.
            (0, false) => Decode::Corrected { data_bit: None },
            (s, false) => Decode::Corrected {
                data_bit: data_index(s),
            },
            (_, true) => Decode::DoubleError,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATTERNS: [u64; 6] = [
        0,
        u64::MAX,
        0xDEAD_BEEF_CAFE_F00D,
        1,
        1 << 63,
        0x5555_5555_5555_5555,
    ];

    #[test]
    fn positions_partition_the_codeword() {
        let data: Vec<u32> = (0..DATA_BITS).map(data_position).collect();
        assert_eq!(data.len(), 64);
        for (i, &p) in data.iter().enumerate() {
            assert!(!is_check_position(p), "position {p} is a check bit");
            assert!(p < CODE_BITS);
            assert_eq!(data_index(p), Some(i as u32));
        }
        for k in 0..7 {
            assert_eq!(data_index(1 << k), None);
        }
        assert_eq!(data_index(0), None);
    }

    #[test]
    fn clean_roundtrip() {
        for data in PATTERNS {
            let cw = Codeword::encode(data);
            assert_eq!(cw.data(), data);
            assert_eq!(cw.syndrome_decode(), Decode::Clean);
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        for data in PATTERNS {
            for bit in 0..DATA_BITS {
                let mut cw = Codeword::encode(data);
                cw.flip_data_bit(bit);
                assert_eq!(cw.data(), data ^ (1 << bit));
                assert_eq!(
                    cw.syndrome_decode(),
                    Decode::Corrected {
                        data_bit: Some(bit)
                    }
                );
            }
        }
    }

    #[test]
    fn check_and_parity_bit_flips_leave_data_intact() {
        let data = 0x0123_4567_89AB_CDEF;
        for p in [0u32, 1, 2, 4, 8, 16, 32, 64] {
            let mut cw = Codeword::encode(data);
            cw.flip_position(p);
            assert_eq!(cw.data(), data);
            assert_eq!(cw.syndrome_decode(), Decode::Corrected { data_bit: None });
        }
    }

    #[test]
    fn double_flips_are_detected_not_corrected() {
        let data = 0xFACE_0FF0_1234_5678;
        for (a, b) in [(0u32, 1u32), (5, 40), (63, 62), (17, 3)] {
            let mut cw = Codeword::encode(data);
            cw.flip_data_bit(a);
            cw.flip_data_bit(b);
            assert_eq!(cw.syndrome_decode(), Decode::DoubleError);
        }
        // A data bit plus a check bit is still a double error.
        let mut cw = Codeword::encode(data);
        cw.flip_data_bit(7);
        cw.flip_position(4);
        assert_eq!(cw.syndrome_decode(), Decode::DoubleError);
    }
}
