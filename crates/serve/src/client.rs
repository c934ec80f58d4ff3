//! A tiny blocking HTTP/1.1 client for talking to `ecl-serve`: one
//! persistent keep-alive connection per [`HttpClient`], or a one-shot
//! `Connection: close` exchange via [`http_call`]. Tests, the CLI docs
//! and the benchmark's open-loop generator all speak to the server
//! through it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One blocking HTTP/1.1 exchange on a fresh connection with
/// `Connection: close`. Returns `(status, body)`.
pub fn http_call(
    target: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    HttpClient::new(target, false).call(method, path, body)
}

/// Persistent HTTP/1.1 client: one connection reused across calls
/// (keep-alive), responses delimited by `Content-Length` rather than
/// EOF. A call on a connection the server has since closed reconnects
/// and retries once, so keep-alive stays transparent to callers.
pub struct HttpClient {
    target: String,
    keep_alive: bool,
    stream: Option<TcpStream>,
    /// Bytes read past the previous response (pipelining slack).
    buf: Vec<u8>,
    /// `x-ecl-req` header of the last response (0 = none seen).
    last_req: u64,
}

impl HttpClient {
    /// A client for `host:port`. With `keep_alive` false every call
    /// sends `Connection: close` and reconnects, matching [`http_call`].
    pub fn new(target: &str, keep_alive: bool) -> HttpClient {
        HttpClient {
            target: target.to_string(),
            keep_alive,
            stream: None,
            buf: Vec::new(),
            last_req: 0,
        }
    }

    /// The server-assigned correlation id (`x-ecl-req` header) of the
    /// most recent response, or 0 if the last exchange carried none.
    pub fn last_req_id(&self) -> u64 {
        self.last_req
    }

    /// One request/response exchange. Returns `(status, body)`.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let reused = self.stream.is_some();
        match self.call_once(method, path, body) {
            // A reused connection may have been closed server-side
            // (read timeout, drain) between calls; retry exactly once
            // on a fresh connection.
            Err(_) if reused => {
                self.reset();
                self.call_once(method, path, body)
            }
            other => other,
        }
    }

    fn reset(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    fn call_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        // Cleared up front so a transport failure never leaves a stale
        // id from the previous exchange.
        self.last_req = 0;
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.target)
                .map_err(|e| format!("connect {}: {e}", self.target))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(150)))
                .map_err(|e| format!("set timeout: {e}"))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err("no connection".to_string());
        };
        let connection = if self.keep_alive { "keep-alive" } else { "close" };
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            self.target,
            body.len()
        );
        stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;

        // Head: read until the blank line.
        let head_end = loop {
            if let Some(i) = find_terminator(&self.buf) {
                break i;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed before response head".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unparseable status line: {:?}", head.lines().next()))?;
        let mut content_length: Option<usize> = None;
        let mut server_closes = !self.keep_alive;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                server_closes = true;
            } else if name.eq_ignore_ascii_case("x-ecl-req") {
                self.last_req = value.parse().unwrap_or(0);
            }
        }
        let body_start = head_end + 4;

        let text = match content_length {
            Some(len) => {
                while self.buf.len() < body_start + len {
                    let mut chunk = [0u8; 4096];
                    match stream.read(&mut chunk) {
                        Ok(0) => return Err("connection closed mid-body".to_string()),
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("read body: {e}")),
                    }
                }
                let text =
                    String::from_utf8_lossy(&self.buf[body_start..body_start + len]).to_string();
                // Keep anything past this response for the next call.
                self.buf.drain(..body_start + len);
                text
            }
            None => {
                // No length: body runs to EOF (forces a reconnect).
                let mut rest = Vec::new();
                stream.read_to_end(&mut rest).map_err(|e| format!("read to eof: {e}"))?;
                self.buf.extend_from_slice(&rest);
                let text = String::from_utf8_lossy(&self.buf[body_start..]).to_string();
                self.buf.clear();
                server_closes = true;
                text
            }
        };
        if server_closes {
            self.reset();
        }
        Ok((status, text))
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap().to_string();
        let served = std::thread::spawn(move || {
            // Accept exactly once; serve two responses on it. A client
            // that reconnects per call would hang on the second call.
            let (mut s, _) = listener.accept().unwrap();
            for body in ["{\"n\": 1}", "{\"n\": 2}"] {
                let mut seen = Vec::new();
                let mut chunk = [0u8; 1024];
                while find_terminator(&seen).is_none() {
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "client hung up early");
                    seen.extend_from_slice(&chunk[..n]);
                }
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut client = HttpClient::new(&target, true);
        let (status, body) = client.call("GET", "/one", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"n\": 1}"));
        let (status, body) = client.call("GET", "/two", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"n\": 2}"));
        served.join().unwrap();
    }

    #[test]
    fn client_retries_once_when_a_reused_connection_died() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap().to_string();
        let served = std::thread::spawn(move || {
            // First connection: one response, then hang up (as the
            // server's idle read-timeout reaper would).
            for body in ["{\"first\": true}", "{\"second\": true}"] {
                let (mut s, _) = listener.accept().unwrap();
                let mut seen = Vec::new();
                let mut chunk = [0u8; 1024];
                while find_terminator(&seen).is_none() {
                    let n = s.read(&mut chunk).unwrap();
                    if n == 0 {
                        break;
                    }
                    seen.extend_from_slice(&chunk[..n]);
                }
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                    body.len()
                );
                s.write_all(reply.as_bytes()).unwrap();
                drop(s);
            }
        });
        let mut client = HttpClient::new(&target, true);
        let (_, body) = client.call("GET", "/a", None).unwrap();
        assert!(body.contains("first"));
        // The server closed the connection; the retry path must make
        // this call succeed on a fresh one.
        let (_, body) = client.call("GET", "/b", None).unwrap();
        assert!(body.contains("second"), "{body}");
        served.join().unwrap();
    }
}
