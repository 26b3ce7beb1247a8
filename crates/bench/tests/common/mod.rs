//! Test-only helpers shared by the integration tests.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh, empty `rsp-{tag}-{pid}` directory under the temp dir for one
/// test; dropping the guard removes it and everything in it.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("rsp-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Deref for ScratchDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
