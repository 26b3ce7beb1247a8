//! Store addresses for sweep rows (DESIGN.md §17).
//!
//! A stored row is identified by three strings: the sweep's name, the
//! point key, and the code version. Its address is the SHA-256 of the
//! three, each prefixed by its byte length, so two different triples
//! never encode to the same bytes. Everything else a row depends on —
//! grids, constants, runners — is source code, which the code version
//! already hashes.
//!
//! The SHA-256 (FIPS 180-4) is vendored here, dependency-free: the store
//! needs a collision-resistant digest and the build environment has no
//! registry access. Known-answer tests pin it.

/// The store address of one sweep point's row:
/// `sha256(len‖sweep, len‖key, len‖code_version)`, each length a
/// big-endian `u64` byte count.
pub(crate) fn point_cache_key(sweep: &str, key: &str, code_version: &str) -> String {
    let mut bytes = Vec::with_capacity(24 + sweep.len() + key.len() + code_version.len());
    for field in [sweep, key, code_version] {
        bytes.extend_from_slice(&(field.len() as u64).to_be_bytes());
        bytes.extend_from_slice(field.as_bytes());
    }
    sha256_hex(&bytes)
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), dependency-free
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Hex-encoded SHA-256 digest of `data`.
pub(crate) fn sha256_hex(data: &[u8]) -> String {
    let digest = sha256(data);
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Padded message: data || 0x80 || zeros || 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 known-answer vectors: a wrong digest here means every
    /// cache key in every store is wrong.
    #[test]
    fn sha256_known_answers() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block: padding must spill into a second 64-byte block.
        assert_eq!(
            sha256_hex(&[b'a'; 64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    /// Pinned address: if this moves, every existing store on disk
    /// silently invalidates — move it only with a `CasStore::SCHEMA` bump.
    /// The hex is the SHA-256 of the encoding spelled out below, taken
    /// with an independent implementation.
    #[test]
    fn point_cache_key_is_pinned() {
        let key = point_cache_key("demo", "x1", "0.10.0");
        let encoded = b"\0\0\0\0\0\0\0\x04demo\0\0\0\0\0\0\0\x02x1\0\0\0\0\0\0\0\x060.10.0";
        assert_eq!(key, sha256_hex(encoded));
        assert_eq!(
            key,
            "e975cb31215c106dee65000f73d38723509f07ff3583d27f7bb4ede3b986532c"
        );
    }

    /// Each of the three fields is part of the address.
    #[test]
    fn key_moves_with_each_field() {
        let base = point_cache_key("sweep", "p1", "v1");
        assert_ne!(base, point_cache_key("sweep2", "p1", "v1"));
        assert_ne!(base, point_cache_key("sweep", "p2", "v1"));
        assert_ne!(base, point_cache_key("sweep", "p1", "v2"));
    }

    /// Length prefixes keep field boundaries: moving a byte from one
    /// field to its neighbour gives a different address.
    #[test]
    fn field_boundaries_are_part_of_the_key() {
        assert_ne!(
            point_cache_key("ab", "c", "v"),
            point_cache_key("a", "bc", "v")
        );
        assert_ne!(
            point_cache_key("s", "ab", "c"),
            point_cache_key("s", "a", "bc")
        );
        assert_ne!(point_cache_key("", "", "x"), point_cache_key("x", "", ""));
    }
}
