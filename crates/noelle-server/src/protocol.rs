//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message on a TCP connection is one **frame**: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON holding exactly
//! one value (the hardened [`Json::parse`] rejects trailing garbage). In
//! `--stdio` mode the daemon speaks newline-delimited JSON instead — one
//! request or reply per line — so shell pipelines and CI smoke tests can
//! drive it without binary framing.
//!
//! Requests are objects `{"id": <int>, "method": <str>, "params": <obj>}`
//! with an optional `"deadline_ms"` and an optional protocol version `"v"`.
//! A request carrying a `"v"` other than [`PROTOCOL_VERSION`] is rejected
//! with a structured `version_mismatch` error (not a parse failure), so old
//! clients get a debuggable reply instead of a dropped connection; requests
//! without `"v"` are accepted for compatibility with version-1 clients.
//! Replies echo the id, carry `"v"`, and hold either `"ok"` (the result
//! value) or `"error"` (`{"code", "message"}`).

use noelle_core::json::Json;
use std::io::{self, Read, Write};

/// Current protocol version. Version 1 is the original unversioned wire
/// format; version 2 added the `"v"` field itself, per-function cache
/// counters in `stats`, and registry-parsed `run-tool` params.
pub const PROTOCOL_VERSION: i64 = 2;

/// Upper bound on a frame payload; anything larger is a protocol error
/// rather than an allocation request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// What a frame reader reserves ahead of a payload that has not arrived
/// yet: a header may claim up to [`MAX_FRAME_BYTES`], and a peer that sends
/// four bytes must not make the daemon reserve them all.
const READ_STEP: usize = 1 << 20;

/// Write one length-prefixed frame.
///
/// # Errors
/// Propagates IO failures; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, v: &Json) -> io::Result<()> {
    write_frame_text(w, &v.to_string_compact())
}

/// Write one length-prefixed frame from already-serialized compact JSON.
/// The hot path for cached replies: no value tree is rebuilt or re-printed
/// per request.
///
/// # Errors
/// Propagates IO failures; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame_text(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    // One assembled buffer -> one write syscall -> one TCP segment under
    // nodelay; a split header/payload write costs a second packet per frame.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF before any
/// prefix byte.
///
/// # Errors
/// IO failures, oversized frames, invalid UTF-8, and JSON syntax errors
/// (including trailing garbage) all surface as `InvalidData`; a syntax
/// error's message names the line, column and byte where the frame stops
/// being JSON.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    match read_frame_text(r)? {
        None => Ok(None),
        Some(text) => Json::try_parse(&text).map(Some).map_err(|e| {
            let message = format!("frame is not valid JSON: {e}");
            io::Error::new(io::ErrorKind::InvalidData, message)
        }),
    }
}

/// Read one length-prefixed frame as raw text, skipping the JSON parse.
/// The throughput-sensitive twin of [`read_frame`] for callers that only
/// inspect the envelope. `Ok(None)` on clean EOF before any prefix byte.
///
/// The buffer grows as the payload arrives: it never reserves more than
/// 1 MiB or twice the bytes received, whichever is more. A frame under
/// 1 MiB is one allocation of exactly its length, and a header that claims
/// 64 MiB ahead of 16 bytes costs 1 MiB.
///
/// # Errors
/// Oversized frames and invalid UTF-8 surface as `InvalidData`, a payload
/// cut short as `UnexpectedEof`, other IO failures as they are.
pub fn read_frame_text(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        // Room for as many bytes again as have arrived, at least a step,
        // never past the claim.
        let step = filled.max(READ_STEP).min(len - filled);
        payload.reserve_exact(step);
        payload.resize(filled + step, 0);
        r.read_exact(&mut payload[filled..])?;
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// A decoded request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen id echoed in the reply.
    pub id: i64,
    /// Method name (`load`, `pdg`, `stats`, ...).
    pub method: String,
    /// Method parameters (an object; `{}` when omitted).
    pub params: Json,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Protocol version the client speaks (`None` for version-1 clients,
    /// which predate the field).
    pub v: Option<i64>,
}

impl Request {
    /// Decode a request frame.
    ///
    /// # Errors
    /// Returns a human-readable message when the frame is not a request
    /// object.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let obj = v.as_object().ok_or("request must be an object")?;
        let id = obj
            .get("id")
            .and_then(Json::as_i64)
            .ok_or("request needs an integer 'id'")?;
        let method = obj
            .get("method")
            .and_then(Json::as_str)
            .ok_or("request needs a string 'method'")?
            .to_string();
        // An object: cloning it counts a reference.
        let params = match obj.get("params") {
            None => Json::object([]),
            Some(p @ Json::Object(_)) => p.clone(),
            Some(_) => return Err("'params' must be an object".into()),
        };
        let deadline_ms = obj.get("deadline_ms").and_then(Json::as_u64);
        let v = obj.get("v").and_then(Json::as_i64);
        Ok(Request {
            id,
            method,
            params,
            deadline_ms,
            v,
        })
    }

    /// Encode a request (the client side of [`Request::from_json`]).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Int(self.id)),
            ("method".to_string(), Json::Str(self.method.clone())),
            ("params".to_string(), self.params.clone()),
        ];
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::Int(d as i64)));
        }
        if let Some(v) = self.v {
            fields.push(("v".to_string(), Json::Int(v)));
        }
        Json::object(fields)
    }
}

/// Error codes a reply can carry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// Malformed request or unknown method/params.
    BadRequest,
    /// Named session does not exist (or was evicted).
    NoSession,
    /// The request missed its deadline.
    Timeout,
    /// The daemon is shutting down.
    Shutdown,
    /// Analysis or tool failure.
    Internal,
    /// The client speaks a different protocol version.
    VersionMismatch,
    /// The target shard's request queue is full; the request was shed
    /// before any work ran. Retrying after a backoff is safe.
    Overloaded,
    /// The method name is not part of the protocol. Distinct from
    /// [`ErrorCode::BadRequest`] so clients can feature-probe: a newer
    /// client talking to an older daemon sees `unknown_method` and can
    /// degrade gracefully instead of treating the request as malformed.
    UnknownMethod,
}

impl ErrorCode {
    /// Wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NoSession => "no_session",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
            ErrorCode::VersionMismatch => "version_mismatch",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::UnknownMethod => "unknown_method",
        }
    }
}

/// A successful reply.
pub fn response_ok(id: i64, result: Json) -> Json {
    Json::object([
        ("id".to_string(), Json::Int(id)),
        ("ok".to_string(), result),
        ("v".to_string(), Json::Int(PROTOCOL_VERSION)),
    ])
}

/// A successful reply spliced around an already-compact `ok` payload.
/// Byte-identical to `response_ok(id, v).to_string_compact()` when
/// `ok_compact == v.to_string_compact()` — objects serialize their keys in
/// sorted order, and `"id" < "ok" < "v"`.
pub fn response_ok_text(id: i64, ok_compact: &str) -> String {
    format!("{{\"id\":{id},\"ok\":{ok_compact},\"v\":{PROTOCOL_VERSION}}}")
}

/// An error reply.
pub fn response_err(id: i64, code: ErrorCode, message: &str) -> Json {
    Json::object([
        ("id".to_string(), Json::Int(id)),
        (
            "error".to_string(),
            Json::object([
                ("code".to_string(), Json::Str(code.name().into())),
                ("message".to_string(), Json::Str(message.into())),
            ]),
        ),
        ("v".to_string(), Json::Int(PROTOCOL_VERSION)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = Json::object([
            ("id".to_string(), Json::Int(7)),
            ("method".to_string(), Json::Str("pdg".into())),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        assert_eq!(&buf[..4], &(buf.len() as u32 - 4).to_be_bytes());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(v));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_and_garbage_frames_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(&5u32.to_be_bytes());
        bad.extend_from_slice(b"{} {}"); // trailing garbage inside the frame
        assert!(read_frame(&mut &bad[..]).is_err());
    }

    #[test]
    fn spliced_ok_reply_matches_tree_serialization() {
        let ok = Json::object([
            ("num_edges".to_string(), Json::Int(41)),
            (
                "nodes".to_string(),
                Json::Array(vec![Json::Str("a".into())]),
            ),
        ]);
        let spliced = response_ok_text(7, &ok.to_string_compact());
        assert_eq!(spliced, response_ok(7, ok).to_string_compact());
    }

    #[test]
    fn request_decoding() {
        let v = Json::parse(r#"{"id":1,"method":"load","params":{"path":"x"},"deadline_ms":50}"#)
            .unwrap();
        let r = Request::from_json(&v).unwrap();
        assert_eq!(r.id, 1);
        assert_eq!(r.method, "load");
        assert_eq!(r.deadline_ms, Some(50));
        assert_eq!(Request::from_json(&r.to_json()).unwrap().method, "load");
        assert!(Request::from_json(&Json::Int(3)).is_err());
        assert!(Request::from_json(&Json::parse(r#"{"id":1}"#).unwrap()).is_err());
    }
}
