//! A blocking client for the daemon's framed TCP protocol, shared by
//! `noelle-query`, the protocol tests, and the throughput benchmark.

use crate::protocol::{read_frame, read_frame_text, write_frame, Request, PROTOCOL_VERSION};
use noelle_core::json::Json;
use std::io::{self, BufReader};
use std::net::TcpStream;

/// One connection to a running daemon.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i64,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            next_id: 0,
        })
    }

    /// Send one request and wait for its reply (the full reply object,
    /// `ok` or `error`).
    ///
    /// # Errors
    /// IO/framing failures and premature connection close surface as
    /// `io::Error`.
    pub fn request(&mut self, method: &str, params: Json) -> io::Result<Json> {
        self.request_with_deadline(method, params, None)
    }

    /// [`Client::request`] with a per-request deadline override.
    ///
    /// # Errors
    /// Same as [`Client::request`].
    pub fn request_with_deadline(
        &mut self,
        method: &str,
        params: Json,
        deadline_ms: Option<u64>,
    ) -> io::Result<Json> {
        self.next_id += 1;
        let req = Request {
            id: self.next_id,
            method: method.to_string(),
            params,
            deadline_ms,
            v: Some(PROTOCOL_VERSION),
        };
        write_frame(&mut self.stream, &req.to_json())?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            )
        })
    }

    /// Write one request frame without reading the reply: the pipelined
    /// half of [`Client::request`]. The daemon answers pipelined requests
    /// strictly in send order, so `N` `send`s followed by `N`
    /// [`Client::recv`]s pair up by position (the ids — returned here —
    /// confirm it). Keeping many requests in flight on one connection
    /// overlaps their server-side work and amortizes the per-frame
    /// round-trip.
    ///
    /// # Errors
    /// Propagates IO/framing failures.
    pub fn send(&mut self, method: &str, params: Json) -> io::Result<i64> {
        self.next_id += 1;
        let req = Request {
            id: self.next_id,
            method: method.to_string(),
            params,
            deadline_ms: None,
            v: Some(PROTOCOL_VERSION),
        };
        write_frame(&mut self.stream, &req.to_json())?;
        Ok(self.next_id)
    }

    /// Read the next reply frame as raw text (pairs with [`Client::send`]).
    ///
    /// # Errors
    /// IO/framing failures and premature close surface as `io::Error`.
    pub fn recv_text(&mut self) -> io::Result<String> {
        read_frame_text(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            )
        })
    }

    /// Read the next reply frame as a value (pairs with [`Client::send`]).
    ///
    /// # Errors
    /// Same as [`Client::recv_text`], plus JSON parse failures.
    pub fn recv(&mut self) -> io::Result<Json> {
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            )
        })
    }

    /// Send a request and return just the `ok` payload, turning protocol
    /// errors into `io::Error`.
    ///
    /// # Errors
    /// Error replies map to `io::ErrorKind::Other` with the wire message.
    pub fn call(&mut self, method: &str, params: Json) -> io::Result<Json> {
        let reply = self.request(method, params)?;
        if let Some(ok) = reply.get("ok") {
            return Ok(ok.clone());
        }
        let msg = reply
            .get("error")
            .map(Json::to_string_compact)
            .unwrap_or_else(|| "malformed reply".to_string());
        Err(io::Error::other(msg))
    }
}
