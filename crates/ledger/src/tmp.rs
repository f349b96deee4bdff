//! Where the ledger writes: everything goes under
//! `<target dir>/bench-results/ledger/`, found from the running executable
//! (`<target dir>/<profile>/ledger`), so a run never touches a path outside
//! the checkout it was built in. Temp files live in a per-process directory
//! under `tmp/` that is removed when the guard drops — on a normal return
//! and while a panic unwinds.

use std::path::{Path, PathBuf};

/// `<target dir>/bench-results/ledger`, created on demand.
pub fn results_dir() -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(Path::parent).map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"));
    let dir = target.join("bench-results").join("ledger");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// A per-process scratch directory, removed on drop.
pub struct TmpDir {
    path: PathBuf,
}

impl TmpDir {
    /// Create `tmp/<pid>-<label>` under [`results_dir`].
    pub fn new(label: &str) -> std::io::Result<Self> {
        let path = results_dir()
            .join("tmp")
            .join(format!("{}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
