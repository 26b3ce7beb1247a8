//! The library surface is what something calls.
//!
//! Every line-start `pub fn NAME` (or `pub const fn NAME`) in a library
//! crate under `crates/*/src` must be named, as a whole word, somewhere
//! outside that crate's library sources: in another crate's sources, in
//! the facade crate (`src/`), in `perf/src`, in `tests/` or `examples/`,
//! in any crate's own `tests/` directory, or in a bin. A function that
//! only its own crate calls should be `pub(crate)` (or private), and one
//! that nothing calls should go.
//!
//! The match is by name, not by path, so a name that something outside
//! the crate uses for any item keeps every `pub fn` of that name. It
//! needs no parser, and it catches a free function that nothing calls.
//! It cannot catch a method whose name is a common word: `len`,
//! `is_empty`, `new`, `get` or `clear` on one type passes because some
//! other type's method of that name is called. Only the compiler can
//! judge those; the verify skill's "narrowing pass" is the procedure
//! (make each indented library `pub fn` `pub(crate)`, restore every one
//! that a workspace or benchmark build rejects, then read `dead_code`).
//!
//! [`ALLOWED`] lists the few functions kept public with no caller
//! outside their crate, each with its reason.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `pub fn`s kept public although nothing outside their crate names
/// them, with the reason.
const ALLOWED: &[(&str, &str)] = &[];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively; with `skip_bin`, files
/// under a `bin/` directory are left out.
fn rs_files(dir: &Path, skip_bin: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if skip_bin && path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            rs_files(&path, skip_bin, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Adds every identifier-shaped word of `text` to `words`.
fn add_words(text: &str, words: &mut HashSet<String>) {
    for w in text.split(|c: char| !is_ident(c)) {
        if !w.is_empty() {
            words.insert(w.to_owned());
        }
    }
}

/// The name of a line-start `pub fn` / `pub const fn`, if `line` is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start();
    let rest = rest
        .strip_prefix("pub fn ")
        .or_else(|| rest.strip_prefix("pub const fn "))?;
    let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// A library crate: its name and the `pub fn`s its library sources
/// declare, each with the file that declares it.
struct Crate {
    name: String,
    words: HashSet<String>,
    pub_fns: Vec<(String, PathBuf)>,
}

#[test]
fn every_pub_fn_is_named_outside_its_crate() {
    let root = root();
    let mut crates = Vec::new();
    // Words that count as callers of every crate: bins, tests,
    // examples, the facade crate and the benchmark.
    let mut shared = HashSet::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let mut lib = Vec::new();
        rs_files(&dir.join("src"), true, &mut lib);
        let mut words = HashSet::new();
        let mut pub_fns = Vec::new();
        for file in &lib {
            let text = read(file);
            add_words(&text, &mut words);
            for line in text.lines() {
                if let Some(name) = pub_fn_name(line) {
                    pub_fns.push((name.to_owned(), file.clone()));
                }
            }
        }
        crates.push(Crate {
            name: dir.file_name().unwrap().to_string_lossy().into_owned(),
            words,
            pub_fns,
        });
        let mut outside = Vec::new();
        rs_files(&dir.join("src/bin"), false, &mut outside);
        for sub in ["tests", "examples", "benches"] {
            rs_files(&dir.join(sub), false, &mut outside);
        }
        for file in outside {
            add_words(&read(&file), &mut shared);
        }
    }
    let mut outside = Vec::new();
    for dir in ["src", "perf/src", "tests", "examples"] {
        rs_files(&root.join(dir), false, &mut outside);
    }
    for file in outside {
        add_words(&read(&file), &mut shared);
    }
    assert!(
        crates.len() >= 9 && shared.contains("Machine"),
        "the scan found no library crates or no callers; is it run from the workspace root?"
    );

    let allowed: BTreeMap<&str, &str> = ALLOWED.iter().copied().collect();
    let mut uncalled = BTreeSet::new();
    let mut allow_used = BTreeSet::new();
    for (i, krate) in crates.iter().enumerate() {
        for (name, file) in &krate.pub_fns {
            let called = shared.contains(name)
                || crates
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.words.contains(name));
            if called {
                continue;
            }
            if allowed.contains_key(name.as_str()) {
                allow_used.insert(name.as_str());
                continue;
            }
            let file = file.strip_prefix(&root).unwrap_or(file);
            uncalled.insert(format!("{} ({}: {})", name, krate.name, file.display()));
        }
    }
    assert!(
        uncalled.is_empty(),
        "{} pub fn(s) are named nowhere outside their crate; make them \
         pub(crate), delete them, or allow-list them with a reason:\n  {}",
        uncalled.len(),
        uncalled.into_iter().collect::<Vec<_>>().join("\n  ")
    );
    let stale: Vec<&str> = allowed
        .keys()
        .copied()
        .filter(|n| !allow_used.contains(n))
        .collect();
    assert!(
        stale.is_empty(),
        "allow-listed names that now have an outside caller or no longer \
         exist; drop them from ALLOWED: {stale:?}"
    );
}
