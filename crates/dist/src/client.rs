//! A minimal HTTP/1.1 client over plain [`TcpStream`]: exactly the
//! surface the coordinator (and the repo's own test suites) need to
//! talk to `cqla serve` workers — request writing, status/header
//! parsing, `Content-Length` bodies, and chunked transfer decoding,
//! including a streaming mode that hands each chunk to a callback as
//! it arrives.
//!
//! This is the promotion of the socket-level test client that used to
//! be duplicated between `crates/serve/tests/http_api.rs` and
//! `tests/end_to_end.rs`; both suites now ride this implementation,
//! so the de-chunking logic that pins the streamed-document framing
//! contract is written once.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One fully read HTTP response: parsed status code, the raw header
/// block (status line included, terminating blank line excluded), and
/// the body with any transfer framing stripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The three-digit status code from the status line.
    pub status: u16,
    /// The raw header block, `\r\n` line endings preserved.
    pub head: String,
    /// The body: `Content-Length`-framed bytes or the de-chunked
    /// concatenation of a chunked transfer, as UTF-8 text.
    pub body: String,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn head_is_chunked(head: &str) -> bool {
    head.to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
}

/// Reads the status line and header block of one response.
///
/// Returns the parsed status code and the raw head. The terminating
/// blank line is consumed but not included.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] if the peer closes before a full
/// head arrives; [`io::ErrorKind::InvalidData`] if the status line is
/// not `HTTP/1.1 <code>`.
pub fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, String)> {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("unparseable status line: {head:?}")))?;
    Ok((status, head))
}

/// Reads one chunk of a chunked transfer: the size line, the payload,
/// and the trailing CRLF. Returns `None` for the terminating
/// zero-length chunk (its trailer CRLF is consumed too).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on an unparseable size line or
/// non-UTF-8 payload; whatever the reader returns on short reads.
pub fn read_chunk(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut size = String::new();
    if reader.read_line(&mut size)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-chunk-stream",
        ));
    }
    let len = u64::from_str_radix(size.trim(), 16)
        .map_err(|_| invalid(format!("unparseable chunk size: {size:?}")))?;
    let payload = read_exactly(reader, len)?;
    // The payload's trailing CRLF.
    reader.read_exact(&mut [0u8; 2])?;
    if len == 0 {
        return Ok(None);
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| invalid("chunk payload is not UTF-8".to_owned()))
}

/// Reads one framed HTTP response off `reader`: status code, raw
/// header block, and the body — `Content-Length`-framed or
/// de-chunked, so callers can compare streamed and full documents
/// byte for byte. Leaves the reader positioned at the next response,
/// which is what keep-alive clients need.
///
/// # Errors
///
/// Propagates socket errors; [`io::ErrorKind::InvalidData`] on
/// malformed framing.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let (status, head) = read_head(reader)?;
    let body = read_response_body(reader, &head)?;
    Ok(HttpResponse { status, head, body })
}

/// Reads exactly `len` bytes. The read goes through [`Read::take`], so
/// memory grows with the bytes that arrive, never with the length a
/// peer declares, and it stops at `len` so a keep-alive reader stays
/// positioned at the next response.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] if the peer sends fewer bytes.
fn read_exactly(reader: &mut impl Read, len: u64) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    reader.take(len).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }
    Ok(bytes)
}

/// A tiny HTTP/1.1 client for `cqla serve` workers: every request
/// rides a fresh connection with `Connection: close`, a connect
/// timeout, and a read timeout. Zero dependencies — the transport is
/// [`TcpStream`] and the framing is the ~100 lines above.
#[derive(Debug, Clone)]
pub struct Client {
    /// How long to wait for a TCP connect before declaring the worker
    /// unreachable.
    pub connect_timeout: Duration,
    /// Per-read socket timeout while a response (or stream) is in
    /// flight.
    pub read_timeout: Duration,
}

impl Default for Client {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(3),
            read_timeout: Duration::from_secs(60),
        }
    }
}

impl Client {
    /// A client with the given connect timeout and the default read
    /// timeout.
    #[must_use]
    pub fn new(connect_timeout: Duration) -> Self {
        Self {
            connect_timeout,
            ..Self::default()
        }
    }

    fn connect(&self, addr: &str) -> io::Result<TcpStream> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address resolves to nothing: {addr}"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        Ok(stream)
    }

    /// Sends raw request bytes on a fresh connection and reads one
    /// response.
    ///
    /// # Errors
    ///
    /// Connect, write, and read failures; malformed response framing.
    pub fn raw(&self, addr: &str, request: &str) -> io::Result<HttpResponse> {
        let mut stream = self.connect(addr)?;
        stream.write_all(request.as_bytes())?;
        read_response(&mut BufReader::new(stream))
    }

    /// Performs `GET target` with `Connection: close`.
    ///
    /// # Errors
    ///
    /// See [`Client::raw`].
    pub fn get(&self, addr: &str, target: &str) -> io::Result<HttpResponse> {
        self.raw(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\r\n"),
        )
    }

    /// Performs `POST target` with the given body and
    /// `Connection: close`.
    ///
    /// # Errors
    ///
    /// See [`Client::raw`].
    pub fn post(&self, addr: &str, target: &str, body: &str) -> io::Result<HttpResponse> {
        self.raw(
            addr,
            &format!(
                "POST {target} HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// Performs `GET target` and hands each chunk of a chunked
    /// response to `on_chunk` as it arrives, without buffering the
    /// document. Returns the head on success.
    ///
    /// Non-200 responses are read in full (they are small error
    /// bodies) and returned without invoking the callback, so the
    /// caller can map status codes to its own retry policy.
    ///
    /// # Errors
    ///
    /// Socket and framing errors, including a peer that hangs up
    /// mid-stream — the caller sees exactly how many chunks arrived
    /// via its own callback state and can resume from there.
    pub fn stream(
        &self,
        addr: &str,
        target: &str,
        mut on_chunk: impl FnMut(&str),
    ) -> io::Result<HttpResponse> {
        let mut stream = self.connect(addr)?;
        stream.write_all(
            format!("GET {target} HTTP/1.1\r\nHost: cqla\r\nConnection: close\r\n\r\n").as_bytes(),
        )?;
        let mut reader = BufReader::new(stream);
        let (status, head) = read_head(&mut reader)?;
        if status != 200 || !head_is_chunked(&head) {
            // Small framed body: error document or a non-streamed 200.
            let body = read_response_body(&mut reader, &head)?;
            return Ok(HttpResponse { status, head, body });
        }
        while let Some(chunk) = read_chunk(&mut reader)? {
            on_chunk(&chunk);
        }
        Ok(HttpResponse {
            status,
            head,
            body: String::new(),
        })
    }
}

/// Reads a response body whose head has already been consumed —
/// shared by [`read_response`] and the streaming fallback.
fn read_response_body(reader: &mut impl BufRead, head: &str) -> io::Result<String> {
    if head_is_chunked(head) {
        let mut out = String::new();
        while let Some(chunk) = read_chunk(reader)? {
            out.push_str(&chunk);
        }
        return Ok(out);
    }
    let len: u64 = head
        .to_ascii_lowercase()
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let body = read_exactly(reader, len)?;
    String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn content_length_bodies_read_exactly() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let response = read_response(&mut Cursor::new(raw)).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "hello");
        assert!(!head_is_chunked(&response.head));
    }

    #[test]
    fn chunked_bodies_dechunk_to_the_concatenation() {
        let raw = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                   5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n";
        let response = read_response(&mut Cursor::new(raw)).unwrap();
        assert_eq!(response.body, "hello, world");
        assert!(head_is_chunked(&response.head));
    }

    #[test]
    fn keep_alive_readers_see_successive_responses() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na\
                   HTTP/1.1 404 Not Found\r\nContent-Length: 1\r\n\r\nb";
        let mut reader = Cursor::new(raw);
        assert_eq!(read_response(&mut reader).unwrap().body, "a");
        let second = read_response(&mut reader).unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, "b");
    }

    #[test]
    fn truncated_responses_are_io_errors_not_panics() {
        let torn = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        let err = read_response(&mut Cursor::new(torn)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let torn = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel";
        assert!(read_response(&mut Cursor::new(torn)).is_err());
        let garbled = "HTTP/2 200\r\n\r\n";
        let err = read_response(&mut Cursor::new(garbled)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn lying_lengths_are_errors_not_allocations() {
        // Each declares about 20 GB and sends five bytes: the read must
        // fail on the missing bytes, not abort allocating the claim.
        let lying = [
            "HTTP/1.1 200 OK\r\nContent-Length: 20000000000\r\n\r\nshort",
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4a817c800\r\nshort",
        ];
        for raw in lying {
            let err = read_response(&mut Cursor::new(raw)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{raw:?}");
        }
    }

    #[test]
    fn connecting_to_a_dead_port_fails_fast() {
        // Bind then drop: the port is (momentarily) refusing.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let client = Client::new(Duration::from_millis(500));
        assert!(client.get(&dead, "/healthz").is_err());
    }
}
