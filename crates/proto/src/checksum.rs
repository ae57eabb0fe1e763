//! The one checksum both wire codecs carry: the TCP segment header
//! (`tcp.rs`) and the INIC packet header (`inic_wire.rs`).
//!
//! It hashes a header prefix and then the payload, a 4-byte
//! little-endian word at a time, in [`LANES`] independent lanes so the
//! multiplies of neighbouring words overlap in the pipeline. Each lane
//! runs over every [`LANES`]-th word of the payload's whole
//! `4 × LANES`-byte blocks; the lanes are then folded into the running
//! hash one after another, and the bytes after the last whole block are
//! absorbed one at a time.
//!
//! Every step is `h = rotl((h ^ w) · M, R)` with `M` odd: for a fixed
//! word it is a bijection in `h` (xor, multiplication by an odd number
//! mod 2³² and rotation are all invertible), and for a fixed `h` a
//! bijection in `w`. A single-byte mutation therefore always changes the
//! checksum: it changes exactly one word (or one tail byte), which
//! changes the value after that step; every later step, within the lane
//! and in the fold, is a bijection in its running value, so the
//! difference survives to the end. The rotation carries differences
//! that a multiply leaves in the high bits back down to the low bits,
//! so a flip in a word's top byte reaches all 32 bits before the next
//! word arrives; without it, two top-byte flips could cancel within 2⁸.

/// Independent accumulators over interleaved words.
const LANES: usize = 4;

/// Bytes one round of the lanes consumes.
const BLOCK: usize = 4 * LANES;

/// Initial value of the running hash (the FNV-1a offset basis).
const SEED: u32 = 0x811C_9DC5;

/// Initial value of each lane: distinct, so equal words in different
/// lanes do not leave equal lane values.
const LANE_SEEDS: [u32; LANES] = [0x2545_F491, 0x9E37_79B9, 0x7F4A_7C15, 0x85EB_CA6B];

/// Odd multiplier (2³² / φ rounded to odd).
const MUL: u32 = 0x9E37_79B1;

/// Rotation after each multiply.
const ROT: u32 = 15;

/// One absorbing step; a bijection in `h` and in `w`.
#[inline(always)]
fn step(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(MUL).rotate_left(ROT)
}

/// Absorb `bytes` into the running hash `h`.
fn absorb(mut h: u32, bytes: &[u8]) -> u32 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            let w = u32::from_le_bytes(word.try_into().expect("checksum word is 4 bytes"));
            *lane = step(*lane, w);
        }
    }
    for lane in lanes {
        h = step(h, lane);
    }
    for &b in blocks.remainder() {
        h = step(h, u32::from(b));
    }
    h
}

/// Checksum of `header` followed by `data`. Both codecs pass their
/// populated header bytes (the checksum field itself excluded) and the
/// payload.
pub(crate) fn wire_checksum(header: &[u8], data: &[u8]) -> u32 {
    absorb(absorb(SEED, header), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers. They pin the function both codecs share: a change
    /// here is a wire-format change.
    #[test]
    fn known_answers() {
        let ramp: Vec<u8> = (0..=255u8).collect();
        let cases: [(&[u8], &[u8], u32); 6] = [
            (b"", b"", KAT[0]),
            (b"", b"a", KAT[1]),
            (b"abc", b"", KAT[2]),
            (&ramp[..12], &ramp[12..100], KAT[3]),
            (&ramp[..23], &ramp[23..], KAT[4]),
            (b"", &[0u8; 1024], KAT[5]),
        ];
        for (i, (header, data, want)) in cases.iter().enumerate() {
            assert_eq!(
                wire_checksum(header, data),
                *want,
                "known-answer vector {i} changed"
            );
        }
    }

    /// Computed by an independent model of the function (a few lines
    /// of Python over the same constants), not by this code.
    const KAT: [u32; 6] = [
        0x4151_105C,
        0x0796_CE6A,
        0xE817_763C,
        0xED4A_A639,
        0xAD50_2883,
        0xFE43_6237,
    ];

    #[test]
    fn every_single_byte_change_is_detected() {
        // Every position of a buffer long enough to have whole blocks
        // and a tail, in both the header and the data, with every
        // non-zero xor mask.
        let header: Vec<u8> = (0..23u8).map(|i| i.wrapping_mul(37)).collect();
        let data: Vec<u8> = (0..45u8).map(|i| i.wrapping_mul(91) ^ 0x5A).collect();
        let clean = wire_checksum(&header, &data);
        for mask in 1..=255u8 {
            for i in 0..header.len() {
                let mut h = header.clone();
                h[i] ^= mask;
                assert_ne!(
                    wire_checksum(&h, &data),
                    clean,
                    "header byte {i} ^ {mask:#x}"
                );
            }
            for i in 0..data.len() {
                let mut d = data.clone();
                d[i] ^= mask;
                assert_ne!(
                    wire_checksum(&header, &d),
                    clean,
                    "data byte {i} ^ {mask:#x}"
                );
            }
        }
    }
}
