//! Storage abstraction for AGD chunk objects.
//!
//! The paper stresses that AGD "requires only a way to store keyed
//! chunks of data" (§7) — this trait is that requirement. Persona layers
//! it over local disks, RAID arrays and a Ceph-like object store (see
//! `persona-store`); this module ships the two trivial implementations
//! (filesystem directory, in-memory map) that the format crate itself
//! needs.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A keyed blob store for chunk objects and manifests.
///
/// Implementations must be safe for concurrent use: Persona reader and
/// writer dataflow nodes run in parallel.
pub trait ChunkStore: Send + Sync {
    /// Reads the entire object `name`.
    fn get(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Creates or replaces object `name`.
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Deletes object `name` (idempotent).
    fn delete(&self, name: &str) -> io::Result<()>;
    /// Lists object names (unordered).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Whether the object exists.
    fn exists(&self, name: &str) -> bool {
        self.get(name).is_ok()
    }
}

/// An in-memory [`ChunkStore`], for tests and benchmarks.
#[derive(Debug, Default)]
pub struct MemStore {
    objects: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes across all objects.
    pub fn total_bytes(&self) -> usize {
        self.objects.lock().unwrap().values().map(|v| v.len()).sum()
    }
}

impl ChunkStore for MemStore {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.objects
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no object {name}")))
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.objects.lock().unwrap().insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.objects.lock().unwrap().remove(name);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.objects.lock().unwrap().keys().cloned().collect())
    }

    fn exists(&self, name: &str) -> bool {
        self.objects.lock().unwrap().contains_key(name)
    }
}

/// A [`ChunkStore`] over a filesystem directory (one file per object).
///
/// A put writes a hidden temporary sibling under a name no other put
/// uses and renames it over the object's name, so a concurrent `get`
/// reads the old object or the new one, never a partly written one.
/// Nothing is fsynced: a put survives a process crash, not a power
/// loss.
#[derive(Debug)]
pub struct DirStore {
    root: PathBuf,
}

/// The name prefix of a put's temporary file; [`ChunkStore::list`]
/// skips such files.
const TEMP_PREFIX: &str = ".put-";

impl DirStore {
    /// Opens (creating if needed) a directory-backed store.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The backing directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }
}

impl ChunkStore for DirStore {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        static PUTS: AtomicU64 = AtomicU64::new(0);
        let seq = PUTS.fetch_add(1, Ordering::Relaxed);
        let temp = self.path(&format!("{TEMP_PREFIX}{}-{seq}-{name}", std::process::id()));
        let written =
            std::fs::write(&temp, data).and_then(|()| std::fs::rename(&temp, self.path(name)));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
        }
        written
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                match entry.file_name().to_str() {
                    Some(name) if !name.starts_with(TEMP_PREFIX) => names.push(name.to_string()),
                    _ => {}
                }
            }
        }
        Ok(names)
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ChunkStore) {
        assert!(!store.exists("a"));
        assert!(store.get("a").is_err());
        store.put("a", b"hello").unwrap();
        store.put("b.bases", b"world").unwrap();
        assert!(store.exists("a"));
        assert_eq!(store.get("a").unwrap(), b"hello");
        store.put("a", b"replaced").unwrap();
        assert_eq!(store.get("a").unwrap(), b"replaced");
        let mut names = store.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a".to_string(), "b.bases".to_string()]);
        store.delete("a").unwrap();
        store.delete("a").unwrap(); // Idempotent.
        assert!(!store.exists("a"));
    }

    #[test]
    fn mem_store() {
        let store = MemStore::new();
        exercise(&store);
        assert_eq!(store.total_bytes(), 5);
    }

    #[test]
    fn dir_store() {
        let dir = std::env::temp_dir().join(format!("agd-dirstore-{}", std::process::id()));
        let store = DirStore::open(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `get` racing puts of the same name reads one whole object or
    /// the other, never a torn one.
    #[test]
    fn dir_store_gets_never_see_a_partial_put() {
        let dir = std::env::temp_dir().join(format!("agd-dirstore-torn-{}", std::process::id()));
        let store = DirStore::open(&dir).unwrap();
        let objects = [vec![1u8; 1 << 20], vec![2u8; 1 << 20]];
        store.put("obj", &objects[0]).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(800);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let reads = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reads = 0;
                while !stop.load(Ordering::Relaxed) {
                    let got = store.get("obj").unwrap();
                    assert!(objects.contains(&got), "read a torn object of {} bytes", got.len());
                    reads += 1;
                }
                reads
            });
            for k in 0.. {
                if std::time::Instant::now() >= deadline {
                    break;
                }
                store.put("obj", &objects[k % 2]).unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        assert!(reads > 0);
        assert_eq!(store.list().unwrap(), vec!["obj".to_string()], "temporary files are unlisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_puts() {
        let store = std::sync::Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    s.put(&format!("obj-{t}-{i}"), &[t as u8; 100]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.list().unwrap().len(), 400);
    }
}
