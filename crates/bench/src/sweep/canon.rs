//! Canonical JSON and content hashing for the artifact store (DESIGN.md §17).
//!
//! A cache key must be the same however the inputs were assembled: the
//! same parameters serialised from a struct, read back from the store, or
//! parsed back out of an artifact must hash identically, and any single
//! changed parameter must hash differently. Two rules buy that:
//!
//! * **Sorted keys** — object fields are emitted in bytewise-sorted key
//!   order, recursively, so field declaration order (which `Serialize`
//!   derives preserve) never leaks into the hash.
//! * **Fixed number formatting** — integers print as decimal `i128`;
//!   floats print with Rust's `{:?}` shortest-round-trip formatting,
//!   the exact formatting the JSON writer and parser already round-trip
//!   byte-identically (the same property the merge layer's byte-identity
//!   guarantee rests on). Non-finite floats canonicalise to `null`,
//!   matching the writer.
//!
//! On top sits a small, dependency-free SHA-256 (FIPS 180-4) — the store
//! needs a collision-resistant digest and the build environment has no
//! registry access, so it is vendored here and pinned by known-answer
//! tests.

use serde_json::Value;

/// Render `v` in canonical form: object keys bytewise-sorted at every
/// nesting level, compact separators, fixed number formatting.
///
/// Canonicalisation is *hash input*, not wire output: artifacts and
/// stored rows keep their field order; only key derivation routes through
/// here.
pub fn canonical_json(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(&mut out, v);
    out
}

fn write_canonical(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is shortest-round-trip: parse(print(f)) == f
                // bit-for-bit, and integral floats keep their ".0" so
                // 1.0 and 1 stay distinct values.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            let mut order: Vec<usize> = (0..fields.len()).collect();
            order.sort_by(|&a, &b| fields[a].0.cmp(&fields[b].0));
            out.push('{');
            for (i, &idx) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (k, val) = &fields[idx];
                write_string(out, k);
                out.push(':');
                write_canonical(out, val);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Hex SHA-256 of `v`'s canonical form — the store's object address.
pub fn content_hash(v: &Value) -> String {
    sha256_hex(canonical_json(v).as_bytes())
}

/// The cache key of one sweep point: the hash of an envelope binding the
/// sweep's name, its full spec (so a grid change invalidates every
/// point), the point's own parameters, and the code version. Field names
/// exist only inside the envelope; canonicalisation sorts them, so the
/// construction order here is immaterial.
pub fn point_cache_key(sweep: &str, spec: &Value, point: &Value, code_version: &str) -> String {
    content_hash(&Value::Object(vec![
        ("sweep".to_string(), Value::Str(sweep.to_string())),
        ("spec".to_string(), spec.clone()),
        ("point".to_string(), point.clone()),
        (
            "code_version".to_string(),
            Value::Str(code_version.to_string()),
        ),
    ]))
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
pub fn sha256_hex(data: &[u8]) -> String {
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

    #[test]
    fn canonical_sorts_keys_recursively() {
        let v =
            serde_json::from_str::<Value>(r#"{"b":{"z":1,"a":2},"a":[{"y":1,"x":2}]}"#).unwrap();
        assert_eq!(
            canonical_json(&v),
            r#"{"a":[{"x":2,"y":1}],"b":{"a":2,"z":1}}"#
        );
    }

    #[test]
    fn canonical_number_formatting_is_fixed() {
        let v = serde_json::from_str::<Value>(r#"[1, 1.0, 0.1, -0.0, 1e3]"#).unwrap();
        // Ints stay ints, integral floats keep ".0", floats print
        // shortest-round-trip — the writer's own formatting.
        assert_eq!(canonical_json(&v), "[1,1.0,0.1,-0.0,1000.0]");
        let nonfinite = Value::Array(vec![Value::Float(f64::NAN), Value::Float(f64::INFINITY)]);
        assert_eq!(canonical_json(&nonfinite), "[null,null]");
    }

    #[test]
    fn canonical_escapes_strings() {
        let v = Value::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(canonical_json(&v), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    /// The canonical form is invariant under a JSON round-trip: what the
    /// writer prints, the parser reads back to the same canonical bytes.
    #[test]
    fn canonical_survives_round_trip() {
        let v =
            serde_json::from_str::<Value>(r#"{"f":0.30000000000000004,"g":[1.5,-2.25,3],"s":"x"}"#)
                .unwrap();
        let reparsed = serde_json::from_str::<Value>(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(canonical_json(&v), canonical_json(&reparsed));
        assert_eq!(content_hash(&v), content_hash(&reparsed));
    }

    /// Pinned cache-key hash: if this moves, every existing store on
    /// disk silently invalidates — bump deliberately, never by accident.
    #[test]
    fn point_cache_key_is_pinned() {
        let spec = serde_json::from_str::<Value>(r#"{"grid":[1,2]}"#).unwrap();
        let point = serde_json::from_str::<Value>(r#"{"x":1}"#).unwrap();
        let key = point_cache_key("demo", &spec, &point, "0.10.0");
        assert_eq!(
            key,
            sha256_hex(
                br#"{"code_version":"0.10.0","point":{"x":1},"spec":{"grid":[1,2]},"sweep":"demo"}"#
            )
        );
    }
}
