//! A counting wrapper on the `Fs` seam that `ServeCore::with_fs` takes.
//!
//! Every write and rename is forwarded unchanged to the wrapped
//! filesystem and recorded as a `store.write` span nested under whatever
//! span is open (a fleet checkpoint). Writes and bytes are counted.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use logdiver_types::fsio::Fs;

use crate::trace::Tracer;

#[derive(Debug)]
pub struct CountingFs<F> {
    inner: F,
    tracer: Arc<Tracer>,
    writes: AtomicU64,
    bytes: AtomicU64,
}

impl<F: Fs> CountingFs<F> {
    pub fn new(inner: F, tracer: Arc<Tracer>) -> Self {
        CountingFs {
            inner,
            tracer,
            writes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Files written so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl<F: Fs> Fs for CountingFs<F> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.tracer
            .span("store.write", || self.inner.write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tracer
            .span("store.write", || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::Mutex;

    /// A map-backed filesystem, so the test touches no disk.
    #[derive(Debug, Default)]
    struct MemFs(Mutex<BTreeMap<PathBuf, Vec<u8>>>);

    impl Fs for MemFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.0
                .lock()
                .unwrap()
                .get(path)
                .cloned()
                .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.0
                .lock()
                .unwrap()
                .insert(path.to_path_buf(), bytes.to_vec());
            Ok(())
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut files = self.0.lock().unwrap();
            let bytes = files
                .remove(from)
                .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
            files.insert(to.to_path_buf(), bytes);
            Ok(())
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.0.lock().unwrap().remove(path);
            Ok(())
        }
        fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
            Ok(())
        }
        fn list(&self, _dir: &Path) -> io::Result<Vec<String>> {
            Ok(Vec::new())
        }
        fn exists(&self, path: &Path) -> bool {
            self.0.lock().unwrap().contains_key(path)
        }
    }

    #[test]
    fn counts_writes_and_bytes_and_forwards() {
        let tracer = Arc::new(Tracer::new(true));
        let fs = CountingFs::new(MemFs::default(), Arc::clone(&tracer));
        fs.write(Path::new("a.tmp"), b"hello").unwrap();
        fs.rename(Path::new("a.tmp"), Path::new("a")).unwrap();
        fs.write(Path::new("b"), b"xyz").unwrap();
        assert_eq!(fs.writes(), 2);
        assert_eq!(fs.bytes(), 8);
        assert_eq!(fs.read(Path::new("a")).unwrap(), b"hello");
        assert!(!fs.exists(Path::new("a.tmp")));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.name == "store.write"));
    }

    #[test]
    fn store_spans_nest_under_the_open_span() {
        let tracer = Arc::new(Tracer::new(true));
        let fs = CountingFs::new(MemFs::default(), Arc::clone(&tracer));
        tracer.span("serve.ckpt", || {
            fs.write(Path::new("t.ckpt"), b"1").unwrap()
        });
        let spans = tracer.spans();
        assert_eq!(spans[1].name, "store.write");
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn a_failed_rename_is_returned_and_counts_nothing() {
        let tracer = Arc::new(Tracer::new(false));
        let fs = CountingFs::new(MemFs::default(), tracer);
        assert!(fs.rename(Path::new("missing"), Path::new("x")).is_err());
        assert_eq!(fs.writes(), 0);
        assert_eq!(fs.bytes(), 0);
    }
}
