//! The workspace's one stable string hash.
//!
//! FNV-1a over the key bytes, 64-bit. Two contracts hang off this
//! exact function: sweep shard ownership (`rsp-bench`, `key hash mod N`
//! decides which shard computes a point) and serve-fleet tenant
//! affinity (`rsp-serve`, `tenant hash mod shards` decides placement).
//! Both crates used to carry their own copy; this is the single shared
//! one. Never replace it with `std::hash` — the standard hasher's
//! algorithm is unspecified across releases, and a silent change here
//! splits one sweep's shards differently across hosts and reshuffles
//! every tenant.

/// FNV-1a (64-bit) over `key`'s bytes.
///
/// Offset basis `0xcbf29ce484222325`, prime `0x100000001b3` — the
/// reference constants, pinned by test so they can never drift.
pub fn stable_key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cross-host contract: these exact values decide every sweep
    /// shard's points and every fleet's tenant placement. They must
    /// never change.
    #[test]
    fn fnv1a_constants_are_pinned() {
        assert_eq!(stable_key_hash(""), 0xcbf29ce484222325);
        assert_eq!(stable_key_hash("a"), 0xaf63dc4c8601ec8c);
        // Multi-byte reference vector (fnv test suite).
        assert_eq!(stable_key_hash("foobar"), 0x85944171f73967e8);
    }
}
