//! The v2 binary bundle: length-prefixed little-endian sections with an
//! FNV integrity digest — fleet-restart-fast model loads.
//!
//! # Why a second format
//!
//! The v1 JSON envelope costs ~2 ms to parse per model, which is fine
//! for one model and hopeless for a gateway restart that must reload
//! hundreds. The binary layout below loads by slicing: every `f64`
//! payload is stored as raw little-endian bit patterns at an 8-byte
//! aligned offset, so reconstruction is bounds-checking plus `memcpy`
//! — no text parsing anywhere. Round-trips are bit-exact by
//! construction (the bytes *are* the bit patterns).
//!
//! # Layout
//!
//! All integers little-endian. The header is 32 bytes; every section
//! payload starts at an 8-byte aligned offset, so a reader may view
//! `f64` sections in place on LE hardware.
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
//!               little-endian u64 words (the layout guarantees the
//!               digested region is a whole number of words)
//! ```
//!
//! Section tags (1–6 required, any order, duplicates rejected; tag 7 is
//! optional — bundles written before method provenance existed simply
//! omit it, and a reader never requires it):
//!
//! | tag | content                                                        |
//! |-----|----------------------------------------------------------------|
//! | 1   | config: UTF-8 JSON of `RhchmeConfig`                           |
//! | 2   | shapes: `k` then `sizes[k]`, `cluster_counts[k]`,              |
//! |     | `feature_dims[k]`, all u64                                     |
//! | 3   | G blocks: count u64, then per block rows u64, cols u64, data   |
//! | 4   | S: rows u64, cols u64, data                                    |
//! | 5   | centroids: same encoding as tag 3                              |
//! | 6   | centroid norms: count u64, then per type len u64, data         |
//! | 7   | method provenance: UTF-8 key of the producing method           |
//!       | (optional; present only when the model carries one)            |
//!
//! Integrity: the trailing file digest catches any byte flip in header
//! or payload (word-wise FNV-1a — 8× fewer multiplies than the
//! byte-wise variant, so verification cannot eat the speedup the format
//! exists for). After reconstruction the model is structurally
//! validated like every other load path. The header's model content
//! digest lets fleet tooling identify a bundle without loading it and
//! ties a migrated binary bundle back to its JSON v1 original.

use crate::error::ServeError;
use rhchme::export::{FittedModel, SCHEMA_VERSION};
use rhchme::rhchme::RhchmeConfig;
use serde::Deserialize;
use std::path::Path;

use mtrl_linalg::Mat;

/// Leading magic of a v2 binary bundle (deliberately not valid JSON).
pub const BINARY_MAGIC: &[u8; 8] = b"MTRLFMv2";

/// Version of the binary container layout itself.
pub const CONTAINER_VERSION: u32 = 2;

const TAG_CONFIG: u32 = 1;
const TAG_SHAPES: u32 = 2;
const TAG_G_BLOCKS: u32 = 3;
const TAG_S: u32 = 4;
const TAG_CENTROIDS: u32 = 5;
const TAG_CENTROID_NORMS: u32 = 6;
const TAG_METHOD: u32 = 7;

fn corrupt(msg: impl Into<String>) -> ServeError {
    ServeError::Corrupt(msg.into())
}

/// FNV-1a over the buffer taken as little-endian u64 words. The caller
/// guarantees `bytes.len()` is a multiple of 8 (the layout pads every
/// section to word boundaries).
fn word_fnv(bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in bytes.chunks_exact(8) {
        h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---- writer ----------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64s(&mut self, vals: &[f64]) {
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn section(&mut self, tag: u32, payload: impl FnOnce(&mut Writer)) {
        self.u32(tag);
        self.u32(0);
        let len_at = self.buf.len();
        self.u64(0); // patched below
        let start = self.buf.len();
        payload(self);
        let len = (self.buf.len() - start) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }
}

fn mat_list(w: &mut Writer, mats: &[Mat]) {
    w.u64(mats.len() as u64);
    for m in mats {
        w.u64(m.rows() as u64);
        w.u64(m.cols() as u64);
        w.f64s(m.as_slice());
    }
}

/// Serialize a model into the v2 binary layout.
///
/// # Errors
/// Returns [`ServeError::Corrupt`] when the model fails its own
/// structural validation (never serialize garbage).
pub fn to_bytes(model: &FittedModel) -> Result<Vec<u8>, ServeError> {
    model
        .validate()
        .map_err(|e| corrupt(format!("refusing to save an invalid model: {e}")))?;
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(BINARY_MAGIC);
    w.u32(CONTAINER_VERSION);
    w.u32(model.schema_version);
    w.u64(model.content_digest());
    let section_count = 6 + u32::from(model.method.is_some());
    w.u32(section_count);
    w.u32(0); // reserved
    let config_json = serde_json::to_string(&model.config)?;
    w.section(TAG_CONFIG, |w| {
        w.buf.extend_from_slice(config_json.as_bytes());
    });
    w.section(TAG_SHAPES, |w| {
        w.u64(model.num_types() as u64);
        for list in [&model.sizes, &model.cluster_counts, &model.feature_dims] {
            for &n in list.iter() {
                w.u64(n as u64);
            }
        }
    });
    w.section(TAG_G_BLOCKS, |w| mat_list(w, &model.g_blocks));
    w.section(TAG_S, |w| {
        w.u64(model.s.rows() as u64);
        w.u64(model.s.cols() as u64);
        w.f64s(model.s.as_slice());
    });
    w.section(TAG_CENTROIDS, |w| mat_list(w, &model.centroids));
    w.section(TAG_CENTROID_NORMS, |w| {
        w.u64(model.centroid_norms.len() as u64);
        for norms in &model.centroid_norms {
            w.u64(norms.len() as u64);
            w.f64s(norms);
        }
    });
    if let Some(method) = &model.method {
        w.section(TAG_METHOD, |w| {
            w.buf.extend_from_slice(method.as_bytes());
        });
    }
    let digest = word_fnv(&w.buf);
    w.u64(digest);
    Ok(w.buf)
}

// ---- reader ----------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(format!("truncated bundle: need {n} bytes at {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn len_as_usize(&mut self, what: &str) -> Result<usize, ServeError> {
        let v = self.u64()?;
        // A length can never legitimately exceed the bytes that remain;
        // checking here keeps later `take`/allocation sizes sane even on
        // adversarial input.
        if v > (self.buf.len() - self.pos) as u64 {
            return Err(corrupt(format!("{what} length {v} exceeds bundle size")));
        }
        Ok(v as usize)
    }

    fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>, ServeError> {
        let bytes = self.take(
            count
                .checked_mul(8)
                .ok_or_else(|| corrupt(format!("{what}: element count {count} overflows")))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect())
    }
}

fn read_mat(c: &mut Cursor<'_>, what: &str) -> Result<Mat, ServeError> {
    let rows = c.len_as_usize(what)?;
    let cols = c.len_as_usize(what)?;
    let elems = rows
        .checked_mul(cols)
        .ok_or_else(|| corrupt(format!("{what}: {rows}x{cols} overflows")))?;
    let data = c.f64s(elems, what)?;
    Mat::from_vec(rows, cols, data).map_err(|e| corrupt(format!("{what}: {e}")))
}

fn read_mat_list(c: &mut Cursor<'_>, what: &str) -> Result<Vec<Mat>, ServeError> {
    let count = c.len_as_usize(what)?;
    (0..count).map(|_| read_mat(c, what)).collect()
}

/// Parse and verify a v2 binary bundle: magic, versions, file digest,
/// section completeness, and structural model validation.
///
/// # Errors
/// * [`ServeError::Corrupt`] — wrong magic, truncation, digest
///   mismatch, malformed sections, or shape violations;
/// * [`ServeError::SchemaVersion`] — a well-formed bundle written by an
///   incompatible model schema version.
pub fn from_bytes(bytes: &[u8]) -> Result<FittedModel, ServeError> {
    if !bytes.starts_with(BINARY_MAGIC) {
        return Err(corrupt("not a v2 binary bundle (bad magic)"));
    }
    // Header (32) + trailer (8) is the smallest well-formed bundle.
    if bytes.len() < 40 || !bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "bundle size {} is not a valid v2 layout",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = word_fnv(body);
    if stored != computed {
        return Err(corrupt(format!(
            "file digest mismatch: bundle says {stored:#018x}, bytes hash to {computed:#018x}"
        )));
    }
    let mut c = Cursor { buf: body, pos: 8 };
    let container = c.u32()?;
    if container != CONTAINER_VERSION {
        return Err(corrupt(format!(
            "unsupported binary container version {container} (this build supports {CONTAINER_VERSION})"
        )));
    }
    let schema = c.u32()?;
    if schema != SCHEMA_VERSION {
        return Err(ServeError::SchemaVersion {
            found: schema,
            supported: SCHEMA_VERSION,
        });
    }
    let _model_digest = c.u64()?; // metadata; integrity is the file digest
    let section_count = c.u32()?;
    let _reserved = c.u32()?;

    let mut config: Option<RhchmeConfig> = None;
    let mut shapes: Option<(Vec<usize>, Vec<usize>, Vec<usize>)> = None;
    let mut g_blocks: Option<Vec<Mat>> = None;
    let mut s: Option<Mat> = None;
    let mut centroids: Option<Vec<Mat>> = None;
    let mut centroid_norms: Option<Vec<Vec<f64>>> = None;
    let mut method: Option<String> = None;

    for _ in 0..section_count {
        let tag = c.u32()?;
        let _reserved = c.u32()?;
        let len = c.len_as_usize("section")?;
        let payload = c.take(len)?;
        let mut sc = Cursor {
            buf: payload,
            pos: 0,
        };
        let slot_taken = match tag {
            TAG_CONFIG => {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| corrupt(format!("config section is not UTF-8: {e}")))?;
                config
                    .replace(RhchmeConfig::from_value(&serde_json::from_str(text)?)?)
                    .is_some()
            }
            TAG_SHAPES => {
                let k = sc.len_as_usize("shapes")?;
                let mut lists = Vec::with_capacity(3);
                for _ in 0..3 {
                    let list: Vec<usize> = (0..k)
                        .map(|_| sc.u64().map(|v| v as usize))
                        .collect::<Result<_, _>>()?;
                    lists.push(list);
                }
                let fd = lists.pop().expect("three lists");
                let cc = lists.pop().expect("two lists");
                let sz = lists.pop().expect("one list");
                shapes.replace((sz, cc, fd)).is_some()
            }
            TAG_G_BLOCKS => g_blocks
                .replace(read_mat_list(&mut sc, "G block")?)
                .is_some(),
            TAG_S => s.replace(read_mat(&mut sc, "S")?).is_some(),
            TAG_CENTROIDS => centroids
                .replace(read_mat_list(&mut sc, "centroid block")?)
                .is_some(),
            TAG_CENTROID_NORMS => {
                let count = sc.len_as_usize("centroid norms")?;
                let norms: Vec<Vec<f64>> = (0..count)
                    .map(|_| {
                        let len = sc.len_as_usize("centroid norms")?;
                        sc.f64s(len, "centroid norms")
                    })
                    .collect::<Result<_, _>>()?;
                centroid_norms.replace(norms).is_some()
            }
            TAG_METHOD => {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| corrupt(format!("method section is not UTF-8: {e}")))?;
                method.replace(text.to_string()).is_some()
            }
            other => return Err(corrupt(format!("unknown section tag {other}"))),
        };
        if slot_taken {
            return Err(corrupt(format!("duplicate section tag {tag}")));
        }
        // Skip the zero padding to the next 8-byte boundary.
        let pad = (8 - len % 8) % 8;
        c.take(pad)?;
    }

    let (sizes, cluster_counts, feature_dims) =
        shapes.ok_or_else(|| corrupt("missing shapes section"))?;
    let model = FittedModel {
        schema_version: schema,
        method,
        config: config.ok_or_else(|| corrupt("missing config section"))?,
        sizes,
        cluster_counts,
        feature_dims,
        g_blocks: g_blocks.ok_or_else(|| corrupt("missing G blocks section"))?,
        s: s.ok_or_else(|| corrupt("missing S section"))?,
        centroids: centroids.ok_or_else(|| corrupt("missing centroids section"))?,
        centroid_norms: centroid_norms.ok_or_else(|| corrupt("missing centroid norms section"))?,
    };
    model.validate().map_err(|e| corrupt(e.to_string()))?;
    Ok(model)
}

/// Save a model as a v2 binary bundle.
///
/// # Errors
/// Propagates validation failures and I/O errors.
pub fn save_binary(model: &FittedModel, path: impl AsRef<Path>) -> Result<(), ServeError> {
    let bytes = to_bytes(model)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Load and verify a v2 binary bundle from a file.
///
/// # Errors
/// Propagates I/O errors and every verification failure of
/// [`from_bytes`].
pub fn load_binary(path: impl AsRef<Path>) -> Result<FittedModel, ServeError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_fitted_model;

    fn assert_bit_identical(a: &FittedModel, b: &FittedModel) {
        assert_eq!(a.schema_version, b.schema_version);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.cluster_counts, b.cluster_counts);
        assert_eq!(a.feature_dims, b.feature_dims);
        assert_eq!(a.s, b.s);
        for t in 0..a.num_types() {
            assert_eq!(a.g_blocks[t], b.g_blocks[t]);
            assert_eq!(a.centroids[t], b.centroids[t]);
            for (x, y) in a.centroid_norms[t].iter().zip(&b.centroid_norms[t]) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let model = tiny_fitted_model(71);
        let bytes = to_bytes(&model).unwrap();
        assert!(bytes.starts_with(BINARY_MAGIC));
        assert_eq!(bytes.len() % 8, 0, "layout must stay word-aligned");
        let back = from_bytes(&bytes).unwrap();
        assert_bit_identical(&model, &back);
    }

    #[test]
    fn file_round_trip() {
        let model = tiny_fitted_model(72);
        let dir = std::env::temp_dir().join("mtrl_serve_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mtrl");
        save_binary(&model, &path).unwrap();
        let back = load_binary(&path).unwrap();
        assert_eq!(back.content_digest(), model.content_digest());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_flip_in_the_header_is_caught() {
        let model = tiny_fitted_model(73);
        let bytes = to_bytes(&model).unwrap();
        for at in 0..32 {
            let mut tampered = bytes.clone();
            tampered[at] ^= 0x40;
            assert!(
                from_bytes(&tampered).is_err(),
                "header byte {at} flipped silently"
            );
        }
    }

    #[test]
    fn payload_tampering_fails_the_digest() {
        let model = tiny_fitted_model(74);
        let bytes = to_bytes(&model).unwrap();
        // Flip one bit somewhere in the middle of the matrix payloads.
        let mut tampered = bytes.clone();
        let at = bytes.len() / 2;
        tampered[at] ^= 1;
        match from_bytes(&tampered) {
            Err(ServeError::Corrupt(msg)) => assert!(msg.contains("digest"), "{msg}"),
            other => panic!("expected digest failure, got {other:?}"),
        }
        // Truncation is caught too (the digest moves with the tail).
        assert!(from_bytes(&bytes[..bytes.len() - 16]).is_err());
        assert!(from_bytes(&bytes[..7]).is_err());
        assert!(from_bytes(b"MTRLFMv2").is_err());
    }

    #[test]
    fn wrong_schema_version_is_typed() {
        let model = tiny_fitted_model(75);
        let mut bytes = to_bytes(&model).unwrap();
        bytes[12..16].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal so the digest check passes and the version check is
        // what fires.
        let digest_at = bytes.len() - 8;
        let reseal = word_fnv(&bytes[..digest_at]);
        bytes[digest_at..].copy_from_slice(&reseal.to_le_bytes());
        match from_bytes(&bytes) {
            Err(ServeError::SchemaVersion { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected SchemaVersion, got {other:?}"),
        }
    }

    #[test]
    fn method_provenance_round_trips_and_stays_optional() {
        // Without provenance the bundle keeps the pre-provenance layout:
        // six sections, no tag 7 — an old reader's contract.
        let mut plain = tiny_fitted_model(77);
        plain.method = None;
        let plain_bytes = to_bytes(&plain).unwrap();
        assert_eq!(
            u32::from_le_bytes(plain_bytes[24..28].try_into().unwrap()),
            6
        );
        assert!(from_bytes(&plain_bytes).unwrap().method.is_none());

        // With provenance: one extra optional section, round-tripped.
        let tagged = tiny_fitted_model(77).with_method("ensemble");
        let tagged_bytes = to_bytes(&tagged).unwrap();
        assert_eq!(
            u32::from_le_bytes(tagged_bytes[24..28].try_into().unwrap()),
            7
        );
        let back = from_bytes(&tagged_bytes).unwrap();
        assert_eq!(back.method.as_deref(), Some("ensemble"));
        assert_eq!(back.content_digest(), tagged.content_digest());
    }

    #[test]
    fn json_and_binary_agree() {
        // The migration path: a model saved as JSON v1 and reloaded
        // must produce byte-identical binary output to the original.
        let model = tiny_fitted_model(76);
        let via_json =
            crate::persist::from_json(&crate::persist::to_json(&model).unwrap()).unwrap();
        assert_eq!(to_bytes(&model).unwrap(), to_bytes(&via_json).unwrap());
    }
}
