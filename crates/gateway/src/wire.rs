//! JSON codec between HTTP bodies and the serve crate's request /
//! response / error types.
//!
//! The wire schema is deliberately a transliteration of
//! [`AssignRequest`] — the gateway adds no request vocabulary of its
//! own, so in-process callers and network callers exercise the same
//! API surface:
//!
//! ```json
//! {
//!   "type_index": 0,
//!   "docs": [{"indices": [3, 17], "values": [1.0, 0.5]}],
//!   "batch_hint": 64,
//!   "deadline_ms": 25
//! }
//! ```
//!
//! Every decode failure is a [`ServeError::BadRequest`] naming the
//! offending field, which the server maps to `400` — malformed JSON can
//! reject a request but never kill a connection thread.

use mtrl_serve::{AssignRequest, AssignResponse, ServeError, SparseVec};
use serde::Value;
use std::time::Duration;

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

/// Largest integer exactly representable in the shim's f64 numbers.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

fn as_usize(v: &Value, field: &str) -> Result<usize, ServeError> {
    let n = v
        .as_f64()
        .ok_or_else(|| bad(format!("`{field}` must be a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > MAX_SAFE_INT {
        return Err(bad(format!("`{field}` must be a non-negative integer")));
    }
    Ok(n as usize)
}

fn usize_array(v: &Value, field: &str) -> Result<Vec<usize>, ServeError> {
    v.as_array()
        .ok_or_else(|| bad(format!("`{field}` must be an array")))?
        .iter()
        .map(|x| as_usize(x, field))
        .collect()
}

fn f64_array(v: &Value, field: &str) -> Result<Vec<f64>, ServeError> {
    v.as_array()
        .ok_or_else(|| bad(format!("`{field}` must be an array")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| bad(format!("`{field}` must hold numbers")))
        })
        .collect()
}

/// Decode a `POST .../assign` body into an [`AssignRequest`] for
/// `model` (taken from the URL path, not the body).
pub(crate) fn parse_assign(model: &str, body: &[u8]) -> Result<AssignRequest, ServeError> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let value: Value = serde_json::from_str(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if !matches!(value, Value::Object(_)) {
        return Err(bad("body must be a JSON object"));
    }

    let docs_value = value
        .get("docs")
        .ok_or_else(|| bad("missing field `docs`"))?;
    let raw_docs = docs_value
        .as_array()
        .ok_or_else(|| bad("`docs` must be an array"))?;
    if raw_docs.is_empty() {
        return Err(bad("`docs` must not be empty"));
    }
    let mut docs = Vec::with_capacity(raw_docs.len());
    for (i, d) in raw_docs.iter().enumerate() {
        let indices = usize_array(
            d.get("indices")
                .ok_or_else(|| bad(format!("doc {i}: missing `indices`")))?,
            "indices",
        )?;
        let values = f64_array(
            d.get("values")
                .ok_or_else(|| bad(format!("doc {i}: missing `values`")))?,
            "values",
        )?;
        docs.push(SparseVec::new(indices, values).map_err(|e| bad(format!("doc {i}: {e}")))?);
    }

    let mut request = AssignRequest::new(model).docs(docs);
    if let Some(t) = value.get("type_index") {
        request = request.type_index(as_usize(t, "type_index")?);
    }
    if let Some(h) = value.get("batch_hint") {
        request = request.batch_hint(as_usize(h, "batch_hint")?);
    }
    if let Some(d) = value.get("deadline_ms") {
        request = request.deadline_in(Duration::from_millis(as_usize(d, "deadline_ms")? as u64));
    }
    Ok(request)
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

/// Encode a successful assignment for the wire.
pub(crate) fn assign_response_json(model: &str, response: &AssignResponse) -> String {
    let labels = Value::Array(response.labels.iter().map(|&l| num(l as f64)).collect());
    let posteriors = Value::Array(
        response
            .posteriors
            .iter()
            .map(|row| Value::Array(row.iter().map(|&p| num(p)).collect()))
            .collect(),
    );
    let value = Value::Object(vec![
        ("model".into(), Value::String(model.to_string())),
        ("count".into(), num(response.labels.len() as f64)),
        ("labels".into(), labels),
        ("posteriors".into(), posteriors),
        (
            "latency_us".into(),
            num(response.latency.as_micros() as f64),
        ),
    ]);
    serde_json::to_string(&value).expect("value tree serialises")
}

fn error_kind(err: &ServeError) -> &'static str {
    match err {
        ServeError::Io(_) => "io",
        ServeError::Corrupt(_) => "corrupt",
        ServeError::SchemaVersion { .. } => "schema_version",
        ServeError::NotFound(_) => "not_found",
        ServeError::BadRequest(_) => "bad_request",
        ServeError::Overloaded { .. } => "overloaded",
        ServeError::Deadline { .. } => "deadline",
        ServeError::Shutdown => "shutdown",
    }
}

/// Encode a [`ServeError`] as the gateway's error body. The HTTP
/// status is `err.http_status()`; this is the JSON payload beside it.
pub(crate) fn error_json(err: &ServeError) -> String {
    let mut fields = vec![
        ("error".into(), Value::String(error_kind(err).to_string())),
        ("status".into(), num(err.http_status() as f64)),
        ("message".into(), Value::String(err.to_string())),
    ];
    if let Some(retry) = err.retry_after() {
        fields.push(("retry_after_ms".into(), num(retry.as_millis() as f64)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("value tree serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_full_request() {
        let body = br#"{"type_index":1,"docs":[{"indices":[3,7],"values":[1.0,0.5]},
            {"indices":[0],"values":[2.0]}],"batch_hint":16,"deadline_ms":25}"#;
        let req = parse_assign("demo", body).unwrap();
        assert_eq!(req.model, "demo");
        assert_eq!(req.type_index, 1);
        assert_eq!(req.num_docs(), 2);
        assert_eq!(req.batch_hint, Some(16));
        assert!(req.deadline.is_some());
    }

    #[test]
    fn defaults_apply_when_fields_absent() {
        let req = parse_assign("m", br#"{"docs":[{"indices":[0],"values":[1.0]}]}"#).unwrap();
        assert_eq!(req.type_index, 0);
        assert_eq!(req.batch_hint, None);
        assert!(req.deadline.is_none());
    }

    #[test]
    fn rejects_shape_errors_as_bad_request() {
        for body in [
            &b"not json"[..],
            b"[]",
            b"{}",
            br#"{"docs":"nope"}"#,
            br#"{"docs":[]}"#,
            br#"{"docs":[{"values":[1.0]}]}"#,
            br#"{"docs":[{"indices":[0]}]}"#,
            br#"{"docs":[{"indices":[0,1],"values":[1.0]}]}"#,
            br#"{"docs":[{"indices":[-1],"values":[1.0]}]}"#,
            br#"{"docs":[{"indices":[0.5],"values":[1.0]}]}"#,
            br#"{"docs":[{"indices":[0],"values":[1.0]}],"type_index":"x"}"#,
            br#"{"docs":[{"indices":[0],"values":[1.0]}],"deadline_ms":-2}"#,
        ] {
            let err = parse_assign("m", body).unwrap_err();
            assert!(
                matches!(err, ServeError::BadRequest(_)),
                "{:?} for {:?}",
                err,
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn response_json_carries_labels_and_posteriors() {
        let resp = AssignResponse {
            posteriors: vec![vec![0.75, 0.25]],
            labels: vec![0],
            latency: Duration::from_micros(42),
        };
        let json = assign_response_json("demo", &resp);
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("demo"));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("latency_us").unwrap().as_f64(), Some(42.0));
        let rows = v.get("posteriors").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_f64(), Some(0.75));
    }

    #[test]
    fn error_json_includes_retry_hint_only_when_overloaded() {
        let shed = ServeError::Overloaded {
            retry_after: Duration::from_millis(50),
        };
        let v: Value = serde_json::from_str(&error_json(&shed)).unwrap();
        assert_eq!(v.get("status").unwrap().as_f64(), Some(429.0));
        assert_eq!(v.get("retry_after_ms").unwrap().as_f64(), Some(50.0));

        let missing = ServeError::NotFound("m".into());
        let v: Value = serde_json::from_str(&error_json(&missing)).unwrap();
        assert_eq!(v.get("status").unwrap().as_f64(), Some(404.0));
        assert!(v.get("retry_after_ms").is_none());
    }
}
