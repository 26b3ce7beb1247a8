//! Bakes the cache-key code version into the crate: `RSP_CODE_VERSION`
//! is the crate version plus an FNV-1a 64 hash of every workspace source
//! file (`crates/*/src` and `vendor/*/src`), so a store row computed by
//! other code never answers a lookup from this code (DESIGN.md §17).

use std::fs;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Every regular file under `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("../..");
    let mut files = Vec::new();
    for group in ["crates", "vendor"] {
        let Ok(members) = fs::read_dir(root.join(group)) else {
            continue;
        };
        for member in members.flatten() {
            let src = member.path().join("src");
            if src.is_dir() {
                println!("cargo:rerun-if-changed={}", src.display());
                files_under(&src, &mut files);
            }
        }
    }
    // Sorted relative paths with `/` separators: the hash depends on the
    // tree's contents, not on where it is checked out or the host's
    // directory order.
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the workspace root");
            let name: Vec<String> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect();
            (name.join("/"), path)
        })
        .collect();
    named.sort();
    let mut hash = FNV_OFFSET;
    for (name, path) in &named {
        let contents =
            fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, b"\0");
        hash = fnv1a(hash, &contents);
    }
    let version = std::env::var("CARGO_PKG_VERSION").expect("set by cargo");
    println!("cargo:rustc-env=RSP_CODE_VERSION={version}+{hash:016x}");
}
