//! Versioned on-disk persistence of [`FittedModel`] bundles.
//!
//! Two formats share this module:
//!
//! * **v1 (JSON)** — the human-readable envelope below, written by
//!   [`save`] and read by [`load`]. Kept as the migration path and for
//!   debugging; parsing costs ~2 ms per model.
//! * **v2 (binary)** — [`save_binary`] / [`load_binary`]: a length-prefixed little-endian
//!   section layout with an FNV integrity digest, built for fleet
//!   restarts where hundreds of models must load in milliseconds
//!   (≥10× faster than the JSON path on the same model, gated in
//!   `BENCH_gateway.json`). Written by [`save_binary`], read by
//!   [`load_binary`].
//!
//! [`load_any`] sniffs the leading bytes and accepts either, which is
//! how a fleet migrates: `load_any` old JSON bundles, `save_binary`
//! them back out, delete the originals at leisure.
//!
//! # v1 JSON format
//!
//! A bundle is a single JSON document — an *envelope* around the model:
//!
//! ```json
//! {
//!   "format": "mtrl-serve/fitted-model",
//!   "schema_version": 1,
//!   "content_digest": "0x1f3a…",
//!   "model": { …the FittedModel fields… }
//! }
//! ```
//!
//! * `format` — fixed marker so unrelated JSON files fail fast;
//! * `schema_version` — copied from
//!   [`rhchme::export::SCHEMA_VERSION`] at save time; [`load`] refuses a
//!   bundle whose version differs from the version this build supports
//!   (no silent migration);
//! * `content_digest` — FNV-1a over the model's full content (schema
//!   version, configuration, shapes, matrix data; hex-encoded, since
//!   JSON numbers cannot carry 64 bits exactly); recomputed on load to
//!   catch silent corruption;
//! * `model` — the [`FittedModel`] itself; `f64` entries are written in
//!   shortest-round-trip form, so save → load is bit-exact.

use crate::error::ServeError;
use rhchme::export::{FittedModel, SCHEMA_VERSION};
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

mod binary;

pub(crate) use binary::BINARY_MAGIC;
pub use binary::{from_bytes, load_binary, save_binary, to_bytes};

/// Fixed format marker of a fitted-model bundle.
const FORMAT_MARKER: &str = "mtrl-serve/fitted-model";

/// Serialize a model into its JSON envelope.
///
/// # Errors
/// Returns [`ServeError::Corrupt`] when the model fails its own
/// structural validation (never serialize garbage).
pub fn to_json(model: &FittedModel) -> Result<String, ServeError> {
    model
        .validate()
        .map_err(|e| ServeError::Corrupt(format!("refusing to save an invalid model: {e}")))?;
    let envelope = Value::Object(vec![
        (
            "format".to_string(),
            Value::String(FORMAT_MARKER.to_string()),
        ),
        (
            "schema_version".to_string(),
            model.schema_version.to_value(),
        ),
        (
            "content_digest".to_string(),
            Value::String(format!("{:#018x}", model.content_digest())),
        ),
        ("model".to_string(), model.to_value()),
    ]);
    Ok(serde_json::to_string_pretty(&envelope)?)
}

/// Parse and fully verify a JSON envelope: format marker, schema
/// version, structural validation, and content digest.
///
/// # Errors
/// * [`ServeError::Corrupt`] — malformed JSON, wrong marker, shape
///   violations, or a digest mismatch;
/// * [`ServeError::SchemaVersion`] — a well-formed bundle written by an
///   incompatible schema version.
pub fn from_json(text: &str) -> Result<FittedModel, ServeError> {
    let envelope: Value = serde_json::from_str(text)?;
    let marker = envelope
        .get("format")
        .and_then(Value::as_str)
        .unwrap_or_default();
    if marker != FORMAT_MARKER {
        return Err(ServeError::Corrupt(format!(
            "not a fitted-model bundle (format marker `{marker}`)"
        )));
    }
    let found = u32::from_value(envelope.get_field("schema_version")?)?;
    if found != SCHEMA_VERSION {
        return Err(ServeError::SchemaVersion {
            found,
            supported: SCHEMA_VERSION,
        });
    }
    let model = FittedModel::from_value(envelope.get_field("model")?)?;
    model
        .validate()
        .map_err(|e| ServeError::Corrupt(e.to_string()))?;
    let stored = envelope
        .get_field("content_digest")?
        .as_str()
        .ok_or_else(|| ServeError::Corrupt("content_digest is not a string".into()))?
        .to_string();
    let recomputed = format!("{:#018x}", model.content_digest());
    if stored != recomputed {
        return Err(ServeError::Corrupt(format!(
            "content digest mismatch: bundle says {stored}, data hashes to {recomputed}"
        )));
    }
    Ok(model)
}

/// Save a model bundle to a file (see the module docs for the format).
///
/// # Errors
/// Propagates validation failures and I/O errors.
pub fn save(model: &FittedModel, path: impl AsRef<Path>) -> Result<(), ServeError> {
    let json = to_json(model)?;
    write_durably(path.as_ref(), json.as_bytes())?;
    Ok(())
}

/// Replace the file at `path` with `bytes` so that no reader ever sees a
/// partial file and a crash leaves either the old file or the new one:
/// write a sibling temporary file, `sync_all` it, `rename` it over
/// `path` (atomic within one file system), then sync the parent
/// directory so the rename itself is durable. The temporary file is
/// removed if any step before the rename fails.
pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
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
/// Propagates I/O errors and every verification failure of [`from_json`].
pub fn load(path: impl AsRef<Path>) -> Result<FittedModel, ServeError> {
    let text = std::fs::read_to_string(path)?;
    from_json(&text)
}

/// Load a bundle in either format, sniffing the leading bytes: the v2
/// binary magic routes to the binary parser, anything else is treated
/// as a v1 JSON envelope. This is the fleet-restart entry point — a
/// model directory can hold a mix of generations and every file still
/// loads.
///
/// # Errors
/// Propagates I/O errors and the chosen format's verification failures.
pub fn load_any(path: impl AsRef<Path>) -> Result<FittedModel, ServeError> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(BINARY_MAGIC) {
        from_bytes(&bytes)
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| ServeError::Corrupt(format!("bundle is neither binary nor UTF-8: {e}")))?;
        from_json(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_fitted_model;

    #[test]
    fn json_round_trip_is_bit_exact() {
        let model = tiny_fitted_model(31);
        let json = to_json(&model).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.schema_version, model.schema_version);
        assert_eq!(back.sizes, model.sizes);
        assert_eq!(back.cluster_counts, model.cluster_counts);
        assert_eq!(back.s, model.s);
        for t in 0..model.num_types() {
            assert_eq!(back.g_blocks[t], model.g_blocks[t]);
            assert_eq!(back.centroids[t], model.centroids[t]);
            // Bit-exactness, not approximate equality.
            for (a, b) in model.centroid_norms[t].iter().zip(&back.centroid_norms[t]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(back.content_digest(), model.content_digest());
    }

    #[test]
    fn file_round_trip() {
        let model = tiny_fitted_model(32);
        let dir = std::env::temp_dir().join("mtrl_serve_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.content_digest(), model.content_digest());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn readers_never_see_a_partial_model_while_it_is_rewritten() {
        // A reader loads the file in a loop while a writer saves over it
        // 100 times, in each format; every load must parse and verify as
        // one of the two models being written.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        let models = [tiny_fitted_model(35), tiny_fitted_model(36)];
        let digests = [models[0].content_digest(), models[1].content_digest()];
        assert_ne!(digests[0], digests[1]);
        let dir = std::env::temp_dir().join(format!("mtrl_serve_durable_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        type SaveFn = fn(&FittedModel, &Path) -> Result<(), ServeError>;
        let formats: [(&str, SaveFn); 2] = [
            ("model.json", |m, p| save(m, p)),
            ("model.bin", |m, p| save_binary(m, p)),
        ];
        for (file, save_fn) in formats {
            let path = dir.join(file);
            save_fn(&models[0], &path).unwrap();
            let start = Arc::new(Barrier::new(2));
            let done = Arc::new(AtomicBool::new(false));
            let reader = {
                let (path, start, done) = (path.clone(), Arc::clone(&start), Arc::clone(&done));
                std::thread::spawn(move || {
                    start.wait();
                    let mut loads = 0usize;
                    while !done.load(Ordering::Acquire) || loads == 0 {
                        let model = load_any(&path).expect("a whole model on every load");
                        assert!(digests.contains(&model.content_digest()));
                        loads += 1;
                    }
                    loads
                })
            };
            start.wait();
            for i in 0..100 {
                save_fn(&models[i % 2], &path).unwrap();
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
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_marker_rejected() {
        assert!(matches!(
            from_json("{\"format\": \"something-else\"}"),
            Err(ServeError::Corrupt(_))
        ));
        assert!(from_json("not json at all").is_err());
    }

    #[test]
    fn wrong_schema_version_rejected() {
        let model = tiny_fitted_model(33);
        let json = to_json(&model).unwrap();
        let bumped = json.replacen("\"schema_version\": 1", "\"schema_version\": 999", 1);
        match from_json(&bumped) {
            Err(ServeError::SchemaVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, 1);
            }
            other => panic!("expected SchemaVersion error, got {other:?}"),
        }
    }

    #[test]
    fn tampered_data_fails_digest() {
        let model = tiny_fitted_model(34);
        let json = to_json(&model).unwrap();
        // Flip one matrix entry in the serialized text: find the S data
        // and inject a different leading digit.
        let needle = "\"data\": [";
        let at = json.rfind(needle).unwrap() + needle.len();
        let mut tampered = json.clone();
        tampered.insert_str(at, "4242.0, ");
        // Either the digest or shape validation must notice.
        assert!(from_json(&tampered).is_err());
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
        // `"precision": "F64"`; both formats load it and serve the same
        // posteriors, bit for bit, as the in-memory model.
        let model = tiny_fitted_model(37);
        let expected = posteriors(&model);
        let json = to_json(&model).unwrap();
        assert_eq!(json.matches("\"precision\": \"F64\"").count(), 1);
        let bytes = to_bytes(&model).unwrap();
        assert!(bytes.windows(17).any(|w| w == b"\"precision\":\"F64\""));
        for back in [from_json(&json).unwrap(), from_bytes(&bytes).unwrap()] {
            assert_eq!(back.content_digest(), model.content_digest());
            assert_eq!(posteriors(&back), expected);
        }
    }

    #[test]
    fn f32_precision_config_is_a_typed_error() {
        // F32 mode no longer exists: a bundle whose config asks for it
        // is refused with a typed error, never a panic.
        let json = to_json(&tiny_fitted_model(38)).unwrap();
        let f32_json = json.replacen("\"precision\": \"F64\"", "\"precision\": \"F32\"", 1);
        assert_ne!(f32_json, json);
        match from_json(&f32_json) {
            Err(ServeError::Corrupt(msg)) => assert!(!msg.contains("digest"), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(from_json(&format!(
            "{{\"format\": \"{FORMAT_MARKER}\", \"schema_version\": 1}}"
        ))
        .is_err());
    }
}
