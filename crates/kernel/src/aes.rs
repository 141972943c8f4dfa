//! Software AES-128, standing in for the Linux crypto subsystem's AES
//! engine (§3.2.1 of the paper).
//!
//! The paper's proof of concept applies RegVault to the kernel AES engine
//! so that AES keys are never in memory as plaintext: the keyring stores
//! them encrypted under a RegVault key with the storage address as tweak,
//! and the engine decrypts them into registers right after loading. This
//! module provides the AES computation itself; [`crate::keyring`] provides
//! the protected storage.
//!
//! The implementation is the straightforward byte-oriented FIPS-197
//! construction (table-free S-box lookups, xtime MixColumns), validated
//! against the FIPS-197 Appendix C vector.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key schedule (11 round keys).
///
/// # Examples
///
/// ```
/// use regvault_kernel::aes::Aes128;
///
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(&[0u8; 16]);
/// assert_eq!(aes.decrypt_block(&ct), [0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn mul(a: u8, mut b: u8) -> u8 {
    let mut result = 0u8;
    let mut a = a;
    while b != 0 {
        if b & 1 != 0 {
            result ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    result
}

impl Aes128 {
    /// Expands a 128-bit key into the round-key schedule.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut words = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            words[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, round_key) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                round_key[4 * c..4 * c + 4].copy_from_slice(&words[4 * r + c]);
            }
        }
        Self { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for byte in state.iter_mut() {
            *byte = SBOX[*byte as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for byte in state.iter_mut() {
            *byte = SBOX
                .iter()
                .position(|&s| s == *byte)
                .expect("S-box is a permutation") as u8;
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // state[4c + r]: column-major as in FIPS-197.
        let copy = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = copy[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let copy = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = copy[4 * c + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("4 bytes");
            state[4 * c] = mul(col[0], 2) ^ mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ mul(col[1], 2) ^ mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ mul(col[2], 2) ^ mul(col[3], 3);
            state[4 * c + 3] = mul(col[0], 3) ^ col[1] ^ col[2] ^ mul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("4 bytes");
            state[4 * c] = mul(col[0], 14) ^ mul(col[1], 11) ^ mul(col[2], 13) ^ mul(col[3], 9);
            state[4 * c + 1] = mul(col[0], 9) ^ mul(col[1], 14) ^ mul(col[2], 11) ^ mul(col[3], 13);
            state[4 * c + 2] = mul(col[0], 13) ^ mul(col[1], 9) ^ mul(col[2], 14) ^ mul(col[3], 11);
            state[4 * c + 3] = mul(col[0], 11) ^ mul(col[1], 13) ^ mul(col[2], 9) ^ mul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, plaintext: &[u8; 16]) -> [u8; 16] {
        let mut state = *plaintext;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[10]);
        state
    }

    /// Decrypts one 16-byte block.
    #[must_use]
    pub fn decrypt_block(&self, ciphertext: &[u8; 16]) -> [u8; 16] {
        let mut state = *ciphertext;
        Self::add_round_key(&mut state, &self.round_keys[10]);
        for round in (1..10).rev() {
            Self::inv_shift_rows(&mut state);
            Self::inv_sub_bytes(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::inv_mix_columns(&mut state);
        }
        Self::inv_shift_rows(&mut state);
        Self::inv_sub_bytes(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1.
    #[test]
    fn fips197_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&plaintext), expected);
        assert_eq!(aes.decrypt_block(&expected), plaintext);
    }

    #[test]
    fn round_trip_random_blocks() {
        let aes = Aes128::new(b"regvault-aes-key");
        let mut block = [0x5Au8; 16];
        for _ in 0..16 {
            let ct = aes.encrypt_block(&block);
            assert_ne!(ct, block);
            assert_eq!(aes.decrypt_block(&ct), block);
            block = ct;
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[0u8; 16]).encrypt_block(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]).encrypt_block(&[0u8; 16]);
        assert_ne!(a, b);
    }
}
