//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! The durability layer checksums checkpoint payloads before they go
//! to a blob store and verifies them on the way back; a mismatch means
//! the bytes were corrupted at rest (bit rot, truncation, a torn
//! write) and restore must walk back to an older generation. CRC-32 is
//! the right tool here: it is cheap, detects all single-bit errors and
//! all burst errors up to 32 bits, and needs no dependencies — the
//! tables are built in a `const` context from the reflected polynomial.
//!
//! Checkpoints run to a few hundred kilobytes, so [`crc32`] consumes
//! sixteen bytes per step ("slicing-by-16"): table `k` holds the CRC
//! contribution of a byte followed by `k` zero bytes, and one step
//! XORs sixteen lookups. The value is the bytewise algorithm's exactly.

/// Reflected IEEE 802.3 polynomial (the one used by zlib, PNG, …).
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0]` is the classic one-byte-per-step table;
/// `TABLES[k][i]` advances `TABLES[k - 1][i]` by one more zero byte.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, reflected, init/xorout `0xFFFF_FFFF`).
///
/// Matches the classic zlib `crc32(0, …)` value, so externally
/// produced checksums over the same bytes agree.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        // The running CRC folds into the first four bytes; byte `i` of
        // the chunk is followed by `15 - i` more, so it looks up table
        // `15 - i`.
        let mut word = [0u8; 16];
        word.copy_from_slice(c);
        let head = (crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]])).to_le_bytes();
        word[..4].copy_from_slice(&head);
        crc = 0;
        for (i, &b) in word.iter().enumerate() {
            crc ^= t[15 - i][b as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic one-byte-per-step CRC-32, table built at run time:
    /// the reference the sliced [`crc32`] must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        // Deterministic pseudo-random bytes (a 64-bit LCG's top byte).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..144)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=128 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Canonical zlib/PNG test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let base = b"polardraw.online.checkpoint.v2 payload bytes".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let base = b"generation 17 of session 3".to_vec();
        let reference = crc32(&base);
        for cut in 0..base.len() {
            assert_ne!(crc32(&base[..cut]), reference, "truncation to {cut} undetected");
        }
    }
}
