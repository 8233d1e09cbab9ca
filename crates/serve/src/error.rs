//! Error taxonomy for the serving subsystem — the API contract shared
//! by in-process callers and the network gateway.
//!
//! # Status-code contract
//!
//! Every variant maps onto exactly one HTTP status code, and
//! `mtrl-gateway` performs that mapping with [`ServeError::http_status`]
//! — in-process callers and wire callers see the *same* failure
//! taxonomy:
//!
//! | variant                      | status | meaning                                    |
//! |------------------------------|--------|--------------------------------------------|
//! | [`ServeError::BadRequest`]   | 400    | request is malformed or inconsistent       |
//! | [`ServeError::NotFound`]     | 404    | no model registered under that name        |
//! | [`ServeError::Overloaded`]   | 429    | admission control shed the request         |
//! | [`ServeError::Deadline`]     | 504    | the request's deadline expired in queue    |
//! | [`ServeError::Shutdown`]     | 503    | the engine is draining and accepts no work |
//! | [`ServeError::Io`]           | 500    | persistence I/O failure (not a request)    |
//! | [`ServeError::Corrupt`]      | 500    | model bundle failed verification           |
//! | [`ServeError::SchemaVersion`]| 500    | model bundle from an incompatible schema   |
//! | [`ServeError::Internal`]     | 500    | the job panicked inside a serve worker     |
//!
//! The `Overloaded` variant carries a retry hint that the gateway
//! surfaces as a `Retry-After` header; in-process callers can use it to
//! back off the same way.

use std::fmt;
use std::time::Duration;

/// Errors surfaced by persistence, fold-in, the serve engine, and the
/// gateway request path. See the module docs for the HTTP mapping
/// contract.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O failure while saving or loading a model bundle.
    Io(std::io::Error),
    /// The bundle failed to parse or did not match the expected schema.
    Corrupt(String),
    /// The bundle parsed but its schema version is not supported.
    SchemaVersion {
        /// Version found in the bundle.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A request referenced a model name that is not registered.
    NotFound(String),
    /// A request is malformed or inconsistent with the model (type
    /// index, feature dimension, non-finite values…).
    BadRequest(String),
    /// Admission control shed the request: the queue was at capacity.
    Overloaded {
        /// Suggested back-off before retrying.
        retry_after: Duration,
    },
    /// The request's deadline expired before a worker picked it up.
    Deadline {
        /// How long past the deadline the request was when it was
        /// abandoned.
        exceeded_by: Duration,
    },
    /// The engine is shutting down and can no longer accept work.
    Shutdown,
    /// Serving the request panicked inside a worker (the message is the
    /// panic's). The worker survives and serves the next request.
    Internal(String),
}

impl ServeError {
    /// The HTTP status code this error maps onto — the 1:1 contract the
    /// gateway implements (see the module docs).
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Overloaded { .. } => 429,
            ServeError::Shutdown => 503,
            ServeError::Deadline { .. } => 504,
            ServeError::Io(_)
            | ServeError::Corrupt(_)
            | ServeError::SchemaVersion { .. }
            | ServeError::Internal(_) => 500,
        }
    }

    /// Retry hint for shed requests (`Retry-After` on the wire), `None`
    /// for errors that retrying cannot fix.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ServeError::Overloaded { retry_after } => Some(*retry_after),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "model bundle I/O error: {e}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt model bundle: {msg}"),
            ServeError::SchemaVersion { found, supported } => write!(
                f,
                "unsupported model schema version {found} (this build supports {supported})"
            ),
            ServeError::NotFound(name) => write!(f, "no model registered as `{name}`"),
            ServeError::BadRequest(msg) => write!(f, "bad assign request: {msg}"),
            ServeError::Overloaded { retry_after } => write!(
                f,
                "overloaded: request shed by admission control (retry after {retry_after:?})"
            ),
            ServeError::Deadline { exceeded_by } => write!(
                f,
                "deadline expired {exceeded_by:?} before the request was served"
            ),
            ServeError::Shutdown => write!(f, "serve engine is shut down"),
            ServeError::Internal(msg) => write!(f, "internal error while serving: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<serde::Error> for ServeError {
    fn from(e: serde::Error) -> Self {
        ServeError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ServeError::NotFound("m".into()).to_string().contains("`m`"));
        assert!(ServeError::SchemaVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        let io: ServeError = std::io::Error::other("x").into();
        assert!(matches!(io, ServeError::Io(_)));
    }

    #[test]
    fn http_status_mapping_is_total_and_stable() {
        assert_eq!(ServeError::BadRequest("x".into()).http_status(), 400);
        assert_eq!(ServeError::NotFound("m".into()).http_status(), 404);
        assert_eq!(
            ServeError::Overloaded {
                retry_after: Duration::from_millis(50)
            }
            .http_status(),
            429
        );
        assert_eq!(ServeError::Shutdown.http_status(), 503);
        assert_eq!(
            ServeError::Deadline {
                exceeded_by: Duration::from_millis(1)
            }
            .http_status(),
            504
        );
        assert_eq!(ServeError::Corrupt("x".into()).http_status(), 500);
        assert_eq!(
            ServeError::SchemaVersion {
                found: 2,
                supported: 1
            }
            .http_status(),
            500
        );
        assert_eq!(
            ServeError::from(std::io::Error::other("x")).http_status(),
            500
        );
        assert_eq!(ServeError::Internal("x".into()).http_status(), 500);
    }

    #[test]
    fn retry_hint_only_on_overload() {
        let shed = ServeError::Overloaded {
            retry_after: Duration::from_millis(25),
        };
        assert_eq!(shed.retry_after(), Some(Duration::from_millis(25)));
        assert_eq!(ServeError::Shutdown.retry_after(), None);
        assert_eq!(ServeError::NotFound("m".into()).retry_after(), None);
    }
}
