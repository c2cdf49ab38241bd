//! Storage abstraction for AGD chunk objects.
//!
//! The paper stresses that AGD "requires only a way to store keyed
//! chunks of data" (§7) — this trait is that requirement. Persona layers
//! it over throttled single-disk and RAID models (see `persona-store`);
//! this module ships the two trivial implementations (filesystem
//! directory, in-memory map) that the format crate itself needs.

use std::collections::HashMap;
use std::io;
use std::path::{Component, Path, PathBuf};
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

/// Fails with [`io::ErrorKind::InvalidInput`] unless `name` is one
/// normal path component and no put's temporary: object names come from
/// clients, and none may reach outside a [`DirStore`]'s root.
pub fn check_object_name(name: &str) -> io::Result<()> {
    let part = Path::new(name).components().next();
    if matches!(part, Some(Component::Normal(p)) if p == name) && !name.starts_with(TEMP_PREFIX) {
        return Ok(());
    }
    Err(io::Error::new(io::ErrorKind::InvalidInput, format!("invalid object name {name:?}")))
}

impl DirStore {
    /// Opens (creating if needed) a directory-backed store.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DirStore { root })
    }

    fn path(&self, name: &str) -> io::Result<PathBuf> {
        check_object_name(name)?;
        Ok(self.root.join(name))
    }
}

impl ChunkStore for DirStore {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name)?)
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        static PUTS: AtomicU64 = AtomicU64::new(0);
        let path = self.path(name)?;
        let seq = PUTS.fetch_add(1, Ordering::Relaxed);
        let temp = self.root.join(format!("{TEMP_PREFIX}{}-{seq}-{name}", std::process::id()));
        let written = std::fs::write(&temp, data).and_then(|()| std::fs::rename(&temp, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
        }
        written
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)?) {
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
        self.path(name).is_ok_and(|path| path.exists())
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

    /// A name that is not one normal path component, or that is a put's
    /// temporary, is refused by every operation, and nothing outside
    /// the root is created, read or deleted through it.
    #[test]
    fn dir_store_names_stay_inside_the_root() {
        let base = std::env::temp_dir().join(format!("agd-dirstore-names-{}", std::process::id()));
        let (root, outside) = (base.join("root"), base.join("outside"));
        let store = DirStore::open(&root).unwrap();
        std::fs::create_dir_all(root.join("a")).unwrap();
        std::fs::create_dir_all(&outside).unwrap();
        std::fs::write(outside.join("x"), b"secret").unwrap();
        let absolute = outside.join("x").to_str().unwrap().to_string();
        for name in ["../outside/x", "../x", absolute.as_str(), "a/b", ".put-1-2-x", "", ".", ".."]
        {
            let refused = |r: io::Result<()>| r.unwrap_err().kind() == io::ErrorKind::InvalidInput;
            assert!(refused(store.get(name).map(drop)), "get {name:?}");
            assert!(refused(store.put(name, b"escaped")), "put {name:?}");
            assert!(refused(store.delete(name)), "delete {name:?}");
            assert!(!store.exists(name), "exists {name:?}");
        }
        assert_eq!(std::fs::read(outside.join("x")).unwrap(), b"secret");
        assert_eq!(std::fs::read_dir(&outside).unwrap().count(), 1, "nothing created outside");
        assert!(!root.join("a").join("b").exists() && !base.join("x").exists());
        assert!(store.list().unwrap().is_empty());
        std::fs::remove_dir_all(&base).unwrap();
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
