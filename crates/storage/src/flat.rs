//! Directory-backed flat-file store.
//!
//! The VCG "encodes \[videos\] using the H264 codec and stores \[them\] as
//! flat files" (§3.1). This is the thinnest possible wrapper over a
//! directory, with name sanitation so benchmark-generated identifiers
//! can never escape the store root.

use std::path::{Path, PathBuf};
use vr_base::fault::{self, FaultInjector, IoOp, RecoveryCounters};
use vr_base::{Error, Result, SharedBuf};

/// A flat-file store rooted at a directory.
#[derive(Debug, Clone)]
pub struct FlatStore {
    root: PathBuf,
}

impl FlatStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// A store under the system temp directory, namespaced by `tag`
    /// and the process id (tests and examples).
    pub fn temp(tag: &str) -> Result<Self> {
        let dir = std::env::temp_dir()
            .join("visual-road")
            .join(format!("{tag}-{}", std::process::id()));
        Self::open(dir)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, name: &str) -> Result<PathBuf> {
        if name.is_empty()
            || name.contains("..")
            || name.starts_with('/')
            || name.contains('\\')
        {
            return Err(Error::InvalidConfig(format!("illegal store name: {name:?}")));
        }
        Ok(self.root.join(name))
    }

    /// Write (create or replace) a file outside any run: nothing
    /// injects or counts its retries ([`Self::put_in_run`]).
    pub fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        self.put_in_run(name, data, None, &RecoveryCounters::default())
    }

    /// Write (create or replace) a file. Transient I/O failures are
    /// retried with bounded, seeded backoff: `faults`, the writing
    /// run's plan, may fail an attempt, and every retry (injected or
    /// real) is counted in `recovered`, the run's counters.
    pub fn put_in_run(
        &self,
        name: &str,
        data: &[u8],
        faults: Option<&FaultInjector>,
        recovered: &RecoveryCounters,
    ) -> Result<()> {
        let _span = vr_base::obs::trace::span("storage", "flat.put");
        let path = self.path_of(name)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        fault::with_retry_io(faults, recovered, "flat.put", IoOp::Write, name, || {
            std::fs::write(&path, data)?;
            Ok(())
        })
    }

    /// Read a whole file into a [`SharedBuf`] that downstream
    /// consumers (container parse, pipeline, pipes) share without
    /// copying. The buffer is preallocated from the file length so the
    /// read is a single allocation with no growth reallocations.
    /// Transient I/O failures are retried with bounded, seeded backoff
    /// (no run reads through here, so nothing injects or counts them);
    /// a missing file is [`Error::NotFound`] immediately (retrying
    /// cannot help).
    pub fn get(&self, name: &str) -> Result<SharedBuf> {
        let _span = vr_base::obs::trace::span("storage", "flat.get");
        let path = self.path_of(name)?;
        let uncounted = RecoveryCounters::default();
        fault::with_retry_io(None, &uncounted, "flat.get", IoOp::Read, name, || {
            let map_err = |e: std::io::Error| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    Error::NotFound(format!("{name} in {}", self.root.display()))
                } else {
                    Error::Io(e)
                }
            };
            let mut file = std::fs::File::open(&path).map_err(map_err)?;
            let len = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
            let mut buf = Vec::with_capacity(len);
            std::io::Read::read_to_end(&mut file, &mut buf).map_err(map_err)?;
            Ok(SharedBuf::from_vec(buf))
        })
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.path_of(name).map(|p| p.exists()).unwrap_or(false)
    }

    /// Names of all regular files directly under the root (sorted).
    pub fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Remove the entire store from disk.
    pub fn destroy(self) -> Result<()> {
        if self.root.exists() {
            std::fs::remove_dir_all(&self.root)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let store = FlatStore::temp("flat-rt").unwrap();
        store.put("vid-0.vrmf", b"hello").unwrap();
        assert_eq!(store.get("vid-0.vrmf").unwrap(), b"hello");
        assert!(store.exists("vid-0.vrmf"));
        assert!(!store.exists("vid-1.vrmf"));
        store.destroy().unwrap();
    }

    #[test]
    fn nested_names_work() {
        let store = FlatStore::temp("flat-nest").unwrap();
        store.put("tile-0/cam-2.vrmf", b"x").unwrap();
        assert_eq!(store.get("tile-0/cam-2.vrmf").unwrap(), b"x");
        store.destroy().unwrap();
    }

    #[test]
    fn path_traversal_is_rejected() {
        let store = FlatStore::temp("flat-sec").unwrap();
        assert!(store.put("../evil", b"x").is_err());
        assert!(store.put("/abs", b"x").is_err());
        assert!(store.put("", b"x").is_err());
        assert!(store.get("..").is_err());
        store.destroy().unwrap();
    }

    #[test]
    fn missing_file_is_not_found() {
        let store = FlatStore::temp("flat-miss").unwrap();
        match store.get("nope") {
            Err(Error::NotFound(_)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
        store.destroy().unwrap();
    }

    #[test]
    fn list_is_sorted() {
        let store = FlatStore::temp("flat-list").unwrap();
        store.put("b", b"1").unwrap();
        store.put("a", b"2").unwrap();
        store.put("c", b"3").unwrap();
        assert_eq!(store.list().unwrap(), vec!["a", "b", "c"]);
        store.destroy().unwrap();
    }
}
