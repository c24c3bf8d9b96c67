//! `noelle-ide`: drive IDE document sessions from an edit script.
//!
//! ```text
//! noelle-ide [--script FILE] [--addr HOST:PORT] [--compact]
//! ```
//!
//! Reads a stream of JSON command objects — from `--script` or stdin — and
//! replays them as `ide/*` requests, printing one reply per line:
//!
//! ```text
//! {"cmd":"open","doc":"d","path":"workload:blackscholes"}
//! {"cmd":"change","doc":"d","version":2,"start_line":5,"end_line":6,"lines":["  ret %x"]}
//! {"cmd":"diagnostics","doc":"d"}
//! {"cmd":"close","doc":"d"}
//! ```
//!
//! Without `--addr` the daemon runs **in-process** (no socket, no daemon to
//! start): the replay is then a self-contained smoke test of the whole IDE
//! subsystem, which is how CI uses it. With `--addr` the commands go to a
//! running `noelle-served` over the framed protocol, pipelined: every
//! request is written before any reply is read, and replies pair up by
//! order.
//!
//! The command stream is *not* line-delimited: commands are peeled off the
//! input with [`Json::parse_prefix`], so several objects on one line, one
//! object across several lines, and partial trailing input (stdin still
//! being typed) all parse incrementally.

use noelle_core::json::Json;
use noelle_server::protocol::Request;
use noelle_server::server::{run_request_text, Server, ServerConfig};
use noelle_server::Client;
use noelle_tools::{die, Args};
use std::io::Read;
use std::str::Utf8Error;

/// Peel every complete JSON value off `buf`, returning the commands and
/// leaving the unconsumed tail (a partial value mid-arrival) in place.
fn drain_commands(buf: &mut String) -> Vec<Json> {
    let mut out = Vec::new();
    loop {
        let rest = buf.trim_start();
        let skipped = buf.len() - rest.len();
        match Json::parse_prefix(rest) {
            None => {
                buf.drain(..skipped);
                return out;
            }
            Some((v, used)) => {
                out.push(v);
                buf.drain(..skipped + used);
            }
        }
    }
}

/// Move the whole characters at the front of `pending` into `buf`, keeping
/// the bytes of one a read cut short for the next read; errs on bytes that
/// are not UTF-8 however the input goes on.
fn decode_utf8(pending: &mut Vec<u8>, buf: &mut String) -> Result<(), Utf8Error> {
    let whole = match std::str::from_utf8(pending) {
        Ok(_) => pending.len(),
        Err(e) if e.error_len().is_none() => e.valid_up_to(),
        Err(e) => return Err(e),
    };
    buf.push_str(std::str::from_utf8(&pending[..whole])?);
    pending.drain(..whole);
    Ok(())
}

/// Turn one script command into a request (`cmd` becomes the `ide/` method
/// suffix; every other key passes through as a param).
fn request_of(id: i64, cmd: &Json) -> Result<Request, String> {
    let obj = cmd.as_object().ok_or("command must be an object")?;
    let name = obj
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("command needs a string 'cmd'")?;
    if !matches!(name, "open" | "change" | "diagnostics" | "close") {
        return Err(format!("unknown cmd '{name}'"));
    }
    let params = obj.iter().filter(|(k, _)| k.as_str() != "cmd");
    Ok(Request {
        id,
        method: format!("ide/{name}"),
        params: Json::object(params.map(|(k, v)| (k.clone(), v.clone()))),
        deadline_ms: None,
        v: None,
    })
}

fn emit(reply: &str, compact: bool) {
    use std::io::Write;
    let text = if compact {
        reply.to_string()
    } else {
        Json::parse(reply).map_or_else(|| reply.to_string(), |v| v.to_string_pretty())
    };
    // A broken pipe (`noelle-ide | head`) is the reader saying "enough".
    let _ = writeln!(std::io::stdout(), "{text}");
}

fn main() {
    let args = Args::parse();
    let compact = args.flag("compact").is_some();
    let remote = args.flag("addr").map(str::to_string);

    let mut client = remote.as_deref().map(|addr| {
        Client::connect(addr).unwrap_or_else(|e| die(&format!("connect to {addr}: {e}")))
    });
    let embedded = if client.is_none() {
        Some(Server::new(ServerConfig::default()).embedded())
    } else {
        None
    };

    let mut run = |cmds: Vec<Json>, next_id: &mut i64| {
        // Remote mode pipelines: write every frame of this batch, then
        // read the replies back in order.
        let mut sent = 0usize;
        for cmd in &cmds {
            *next_id += 1;
            let req = match request_of(*next_id, cmd) {
                Ok(r) => r,
                Err(e) => {
                    emit(
                        &format!("{{\"error\":{}}}", Json::Str(e).to_string_compact()),
                        true,
                    );
                    continue;
                }
            };
            match (&mut client, &embedded) {
                (Some(c), _) => {
                    c.send(&req.method, req.params.clone())
                        .unwrap_or_else(|e| die(&format!("send failed: {e}")));
                    sent += 1;
                }
                (None, Some(state)) => emit(&run_request_text(state, &req), compact),
                (None, None) => unreachable!("one transport is always configured"),
            }
        }
        if let Some(c) = &mut client {
            for _ in 0..sent {
                let reply = c
                    .recv_text()
                    .unwrap_or_else(|e| die(&format!("recv failed: {e}")));
                emit(&reply, compact);
            }
        }
    };

    let mut next_id = 0i64;
    match args.flag("script") {
        Some(path) => {
            let mut buf =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let cmds = drain_commands(&mut buf);
            if !buf.trim().is_empty() {
                die(&format!("script has trailing partial input: {buf:?}"));
            }
            run(cmds, &mut next_id);
        }
        None => {
            // Interactive stdio loop: peel commands as bytes arrive, so a
            // human (or a pipe) can feed edits incrementally.
            let mut stdin = std::io::stdin().lock();
            let mut buf = String::new();
            let mut chunk = [0u8; 4096];
            // Bytes read but not yet decoded: a character split by a read.
            let mut pending: Vec<u8> = Vec::new();
            loop {
                let n = stdin
                    .read(&mut chunk)
                    .unwrap_or_else(|e| die(&format!("stdin: {e}")));
                if n == 0 {
                    if !pending.is_empty() {
                        die("stdin is not UTF-8");
                    }
                    if !buf.trim().is_empty() {
                        die(&format!("stdin ended with partial input: {buf:?}"));
                    }
                    break;
                }
                pending.extend_from_slice(&chunk[..n]);
                if decode_utf8(&mut pending, &mut buf).is_err() {
                    die("stdin is not UTF-8");
                }
                run(drain_commands(&mut buf), &mut next_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A character split across two reads decodes whole once its second
    /// half arrives, and the command around it parses.
    #[test]
    fn a_character_split_across_reads_is_decoded_whole() -> Result<(), Utf8Error> {
        let text = r#"{"cmd":"open","doc":"é","path":"workload:crc32"}"#.as_bytes();
        let cut = text.iter().position(|&b| b == 0xC3).map_or(0, |at| at + 1);
        let (mut pending, mut buf) = (Vec::new(), String::new());
        pending.extend_from_slice(&text[..cut]);
        decode_utf8(&mut pending, &mut buf)?;
        assert_eq!(pending, [0xC3], "the first half waits for the next read");
        assert!(drain_commands(&mut buf).is_empty());
        pending.extend_from_slice(&text[cut..]);
        decode_utf8(&mut pending, &mut buf)?;
        assert!(pending.is_empty());
        let cmds = drain_commands(&mut buf);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].get("doc").and_then(Json::as_str), Some("é"));
        Ok(())
    }

    /// A byte no continuation can make UTF-8 is refused at once.
    #[test]
    fn invalid_bytes_are_refused() {
        let (mut pending, mut buf) = (b"{\"cmd\":\xFF".to_vec(), String::new());
        assert!(decode_utf8(&mut pending, &mut buf).is_err());
    }
}
