//! Versioned on-disk persistence of [`FittedModel`] bundles.
//!
//! Two formats share this module:
//!
//! * **v1 (JSON)** — the human-readable envelope below, written by
//!   [`save`] and read by [`load`]. Kept as the migration path and for
//!   debugging; parsing costs ~2 ms per model.
//! * **v2 (binary)** — [`binary`]: a length-prefixed little-endian
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

pub mod binary;

pub use binary::{from_bytes, load_binary, save_binary, to_bytes, BINARY_MAGIC, CONTAINER_VERSION};

/// Fixed format marker of a fitted-model bundle.
pub const FORMAT_MARKER: &str = "mtrl-serve/fitted-model";

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
    std::fs::write(path, json)?;
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

    #[test]
    fn missing_fields_rejected() {
        assert!(from_json(&format!(
            "{{\"format\": \"{FORMAT_MARKER}\", \"schema_version\": 1}}"
        ))
        .is_err());
    }
}
