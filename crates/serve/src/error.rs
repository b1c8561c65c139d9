//! [`ServeError`] — the one error surface of the server and the load
//! generator — and the backend-name resolution both validate with.

use std::collections::HashSet;
use std::sync::Arc;

use laab_backend::{registry, Registration};

use crate::proto::FrameError;

/// Why a server or a load generator failed.
///
/// One error surface for the whole stack: configuration rejections
/// (`laab serve` turns them into an `error:` line and a usage exit code
/// instead of letting an invalid combination panic deep inside plan
/// dispatch) **and** the transport failures of the network layers —
/// bind/connect/accept, socket I/O, and frame decoding — as structured
/// variants whose [`source()`](std::error::Error::source) chain
/// preserves the underlying `io::Error`/[`FrameError`]. `laab loadgen`
/// and `laab serve` share this type, so both subcommands print failures
/// through the same display path.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// `--backends` named a backend the registry does not know.
    UnknownBackend {
        /// The name as requested.
        requested: String,
        /// Every name the registry currently resolves.
        available: Vec<String>,
    },
    /// The same backend was listed more than once.
    DuplicateBackend(String),
    /// The backend list was empty.
    NoBackends,
    /// A `--listen`/`--addr` spec that names neither a unix socket path
    /// nor a TCP address.
    BadListen(String),
    /// An `--arrival` spec that names no known arrival process.
    BadArrival(String),
    /// Binding the listener failed.
    Bind {
        /// The address as requested.
        addr: String,
        /// The underlying I/O failure.
        source: Arc<std::io::Error>,
    },
    /// Connecting to the server failed.
    Connect {
        /// The address as requested.
        addr: String,
        /// The underlying I/O failure.
        source: Arc<std::io::Error>,
    },
    /// Accepting a connection failed.
    Accept(Arc<std::io::Error>),
    /// Reading or writing an established socket failed.
    Socket(Arc<std::io::Error>),
    /// A frame could not be encoded or decoded.
    Frame(FrameError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownBackend { requested, available } => {
                write!(f, "unknown backend `{requested}` (available: {})", available.join(", "))
            }
            ServeError::DuplicateBackend(name) => {
                write!(f, "backend `{name}` is listed more than once in --backends")
            }
            ServeError::NoBackends => write!(f, "--backends must name at least one backend"),
            ServeError::BadListen(spec) => write!(
                f,
                "unintelligible listen address `{spec}` \
                 (use unix:<path>, tcp:<host:port>, a socket path, or host:port)"
            ),
            ServeError::BadArrival(spec) => write!(
                f,
                "unintelligible arrival process `{spec}` \
                 (use closed, poisson:<rate>, or bursty:<rate>x<burst>)"
            ),
            ServeError::Bind { addr, source } => write!(f, "failed to bind {addr}: {source}"),
            ServeError::Connect { addr, source } => {
                write!(f, "failed to connect to {addr}: {source}")
            }
            ServeError::Accept(e) => write!(f, "failed to accept a connection: {e}"),
            ServeError::Socket(e) => write!(f, "socket I/O failed: {e}"),
            ServeError::Frame(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } | ServeError::Connect { source, .. } => {
                Some(source.as_ref())
            }
            ServeError::Accept(e) | ServeError::Socket(e) => Some(e.as_ref()),
            ServeError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl PartialEq for ServeError {
    /// Structural equality; wrapped I/O errors compare by
    /// [`std::io::ErrorKind`] (the payload is not comparable).
    fn eq(&self, other: &Self) -> bool {
        use ServeError::*;
        match (self, other) {
            (
                UnknownBackend { requested: a, available: b },
                UnknownBackend { requested: c, available: d },
            ) => (a, b) == (c, d),
            (DuplicateBackend(a), DuplicateBackend(b)) => a == b,
            (NoBackends, NoBackends) => true,
            (BadListen(a), BadListen(b)) | (BadArrival(a), BadArrival(b)) => a == b,
            (Bind { addr: a, source: s1 }, Bind { addr: b, source: s2 })
            | (Connect { addr: a, source: s1 }, Connect { addr: b, source: s2 }) => {
                a == b && s1.kind() == s2.kind()
            }
            (Accept(a), Accept(b)) | (Socket(a), Socket(b)) => a.kind() == b.kind(),
            (Frame(a), Frame(b)) => a == b,
            _ => false,
        }
    }
}

/// Resolve the configured backend names against the registry, rejecting
/// unknowns and duplicates with a CLI-grade error.
pub(crate) fn resolve_backends(names: &[String]) -> Result<Vec<&'static Registration>, ServeError> {
    // The deferred backend lives above laab-backend in the crate graph,
    // so the registry only knows it once its crate has been touched;
    // make `--backends deferred` (and the error message's "available"
    // list) work without the caller knowing that.
    laab_deferred::ensure_registered();
    if names.is_empty() {
        return Err(ServeError::NoBackends);
    }
    let mut regs = Vec::with_capacity(names.len());
    let mut seen = HashSet::new();
    for name in names {
        if !seen.insert(name.as_str()) {
            return Err(ServeError::DuplicateBackend(name.clone()));
        }
        let reg = registry::find(name).ok_or_else(|| ServeError::UnknownBackend {
            requested: name.clone(),
            available: registry::names().iter().map(|n| n.to_string()).collect(),
        })?;
        regs.push(reg);
    }
    Ok(regs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_backend_is_a_named_error() {
        for name in ["cuda", "seed"] {
            let err =
                resolve_backends(&names(&[name])).expect_err("unknown backend must not serve");
            match &err {
                ServeError::UnknownBackend { requested, available } => {
                    assert_eq!(requested, name);
                    // Tests in this binary may register `serve-test-*`
                    // backends concurrently; the rest is the fixed list,
                    // `deferred` registered on demand.
                    let fixed: Vec<&str> = available
                        .iter()
                        .map(String::as_str)
                        .filter(|n| !n.starts_with("serve-test-"))
                        .collect();
                    assert_eq!(fixed, ["engine", "reference", "deferred"]);
                }
                other => panic!("wrong error: {other:?}"),
            }
            let text = err.to_string();
            assert!(text.contains(name) && text.contains("engine"), "{text}");
        }
    }

    #[test]
    fn duplicate_and_empty_backend_lists_are_errors() {
        assert_eq!(
            resolve_backends(&names(&["engine", "engine"])).err(),
            Some(ServeError::DuplicateBackend("engine".into()))
        );
        assert_eq!(resolve_backends(&[]).err(), Some(ServeError::NoBackends));
    }

    #[test]
    fn transport_errors_chain_their_sources() {
        let io = Arc::new(std::io::Error::new(std::io::ErrorKind::AddrInUse, "taken"));
        let err = ServeError::Bind { addr: "tcp:127.0.0.1:1".into(), source: io };
        assert!(err.to_string().contains("failed to bind"), "{err}");
        let src = std::error::Error::source(&err).expect("bind error chains its io source");
        assert!(src.to_string().contains("taken"), "{src}");
        // Wrapped io errors compare by kind, keeping assert_eq usable.
        let io2 = Arc::new(std::io::Error::new(std::io::ErrorKind::AddrInUse, "different text"));
        assert_eq!(err, ServeError::Bind { addr: "tcp:127.0.0.1:1".into(), source: io2 });

        let frame = ServeError::Frame(FrameError::UnknownVersion(9));
        let src = std::error::Error::source(&frame).expect("frame error chains");
        assert!(src.to_string().contains("version"), "{src}");
        assert_ne!(frame, ServeError::Frame(FrameError::UnknownVersion(8)));
    }
}
