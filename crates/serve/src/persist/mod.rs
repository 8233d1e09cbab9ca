//! Versioned on-disk persistence of [`FittedModel`] bundles.
//!
//! A bundle is one binary file, written by [`save`] and read back and
//! verified by [`load`] ([`to_bytes`] / [`from_bytes`] in memory). Every
//! `f64` is stored as its little-endian bit pattern, so save → load is
//! bit-exact and a load is bounds checks plus copies (tens of µs per
//! model in `BENCH_gateway.json`). [`save`] replaces a file atomically:
//! a reader sees the old model or the new one, never a partial file.
//!
//! # Layout
//!
//! All integers little-endian. The header is 32 bytes; every section
//! payload starts at an 8-byte aligned offset.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"MTRLFMv2"
//! 8       4     container version (2)
//! 12      4     model schema version (rhchme::export::SCHEMA_VERSION)
//! 16      8     model content digest (FittedModel::content_digest)
//! 24      4     section count
//! 28      4     reserved (0)
//! 32      …     sections, each:
//!                 tag u32 | reserved u32 | payload_len u64 |
//!                 payload (payload_len bytes) | zero-pad to 8
//! end-8   8     file digest: FNV-1a over the preceding bytes taken as
//!               little-endian u64 words
//! ```
//!
//! Section tags (1–6 required, any order, duplicates rejected; 7 optional):
//!
//! | tag | content                                                        |
//! |-----|----------------------------------------------------------------|
//! | 1   | config: UTF-8 JSON of `RhchmeConfig`                           |
//! | 2   | shapes: `k`, then `sizes`, `cluster_counts`, `feature_dims`    |
//! | 3   | G blocks: count u64, then per block rows u64, cols u64, data   |
//! | 4   | S: rows u64, cols u64, data                                    |
//! | 5   | centroids: same encoding as tag 3                              |
//! | 6   | centroid norms: count u64, then per type len u64, data         |
//! | 7   | method provenance: UTF-8 key of the producing method           |
//!
//! A load checks the magic (anything else, a JSON file included, is
//! [`ServeError::Corrupt`]), the file digest (any byte flip or
//! truncation), the container and schema versions (another schema is
//! [`ServeError::SchemaVersion`], never migrated silently), that every
//! required section is present and nothing follows the declared ones
//! (also [`ServeError::Corrupt`]), and the model's own validation. The
//! header's model content digest is metadata: the file digest already
//! covers every byte it would.

use crate::error::ServeError;
use rhchme::export::FittedModel;
use std::path::Path;

mod binary;

pub use binary::{from_bytes, to_bytes};

/// Save a model bundle to a file (see the module docs for the format).
///
/// # Errors
/// Propagates validation failures and I/O errors.
pub fn save(model: &FittedModel, path: impl AsRef<Path>) -> Result<(), ServeError> {
    Ok(write_durably(path.as_ref(), &to_bytes(model)?)?)
}

/// Replace the file at `path` with `bytes` so that no reader ever sees a
/// partial file and a crash leaves either the old file or the new one:
/// write a sibling temporary file, `sync_all` it, `rename` it over
/// `path` (atomic within one file system), then sync the parent
/// directory so the rename itself is durable. The temporary file is
/// removed if any step before the rename fails.
fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}-{}",
        name.to_string_lossy(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // A directory opens as a file on Unix only; elsewhere the rename
    // stands without the directory sync.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Load and verify a model bundle from a file.
///
/// # Errors
/// Propagates I/O errors and every verification failure of
/// [`from_bytes`].
pub fn load(path: impl AsRef<Path>) -> Result<FittedModel, ServeError> {
    from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_fitted_model;

    /// A fresh directory for one test's files.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mtrl_serve_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip() {
        let model = tiny_fitted_model(32);
        let dir = scratch_dir("persist");
        let path = dir.join("model.mtrl");
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.content_digest(), model.content_digest());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readers_never_see_a_partial_model_while_it_is_rewritten() {
        // A reader loads the file in a loop while a writer saves over it
        // 100 times; every load must parse and verify as one of the two
        // models being written.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        let models = [tiny_fitted_model(35), tiny_fitted_model(36)];
        let digests = [models[0].content_digest(), models[1].content_digest()];
        assert_ne!(digests[0], digests[1]);
        let dir = scratch_dir("durable");
        let path = dir.join("model.mtrl");
        save(&models[0], &path).unwrap();
        let start = Arc::new(Barrier::new(2));
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (path, start, done) = (path.clone(), Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                start.wait();
                let mut loads = 0usize;
                while !done.load(Ordering::Acquire) || loads == 0 {
                    let model = load(&path).expect("a whole model on every load");
                    assert!(digests.contains(&model.content_digest()));
                    loads += 1;
                }
                loads
            })
        };
        start.wait();
        for i in 0..100 {
            save(&models[i % 2], &path).unwrap();
        }
        done.store(true, Ordering::Release);
        assert!(reader.join().expect("reader saw a partial model") > 0);
        // No temporary file is left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_torn_prefix_is_corrupt() {
        // A bundle cut short at any length — in memory, or as a file a
        // copy or a write that bypasses `save` left when killed — is a
        // typed `Corrupt`, never a panic: short of the magic, off the
        // word grid, or (the digest moves with the tail) a digest
        // mismatch.
        let bytes = to_bytes(&tiny_fitted_model(39)).unwrap();
        let dir = scratch_dir("torn");
        let path = dir.join("model.mtrl");
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).unwrap();
            for got in [from_bytes(&bytes[..len]), load(&path)] {
                match got {
                    Err(ServeError::Corrupt(_)) => {}
                    other => panic!("prefix of {len} bytes: expected Corrupt, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_write_killed_before_its_rename_leaves_the_old_model() {
        // `save` writes a `.name.tmp-*` sibling and renames it over the
        // target; a writer killed before the rename leaves that sibling
        // behind, possibly half written. The target still loads as the
        // old model, and the next save replaces it as usual.
        let (old, new) = (tiny_fitted_model(40), tiny_fitted_model(41));
        let dir = scratch_dir("stale_tmp");
        let path = dir.join("model.mtrl");
        save(&old, &path).unwrap();
        let new_bytes = to_bytes(&new).unwrap();
        let stale = dir.join(".model.mtrl.tmp-4294967295-0");
        std::fs::write(&stale, &new_bytes[..new_bytes.len() / 2]).unwrap();
        assert_eq!(load(&path).unwrap().content_digest(), old.content_digest());
        save(&new, &path).unwrap();
        assert_eq!(load(&path).unwrap().content_digest(), new.content_digest());
        assert!(stale.exists(), "save leaves other writers' files alone");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fold-in posteriors of a few fixed documents of every type.
    fn posteriors(model: &FittedModel) -> Vec<Vec<u64>> {
        let assigner = crate::assign::Assigner::new(model.clone()).unwrap();
        let mut out = Vec::new();
        for (t, &d) in model.feature_dims.iter().enumerate() {
            for i in 0..3 {
                let dense: Vec<f64> = (0..d).map(|j| ((i * 7 + j) % 5) as f64).collect();
                let x = crate::assign::SparseVec::from_dense(&dense);
                let post = assigner.assign(t, &x).unwrap();
                out.push(post.iter().map(|v| v.to_bits()).collect());
            }
        }
        out
    }

    #[test]
    fn f64_precision_config_loads_and_assigns_bit_identically() {
        // Every bundle written with the default config records
        // `"precision": "F64"`; it loads and serves the same posteriors,
        // bit for bit, as the in-memory model.
        let model = tiny_fitted_model(37);
        let expected = posteriors(&model);
        let bytes = to_bytes(&model).unwrap();
        assert!(bytes.windows(17).any(|w| w == b"\"precision\":\"F64\""));
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.content_digest(), model.content_digest());
        assert_eq!(posteriors(&back), expected);
    }
}
