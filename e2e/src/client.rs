//! The lean closed-loop HTTP client: pre-built request bytes, one
//! `write` per request, `TCP_NODELAY`, one reused read buffer. The
//! client's own cost is part of every latency it reports, so it is kept
//! small and measured (`client.overhead_us`, `client.echo_p50_us`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request as the server will see it on the socket.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: iolap\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One answered request: status, where the body sits in the connection's
/// buffer, and how long the client was blocked in `read` (the rest of
/// the round trip is the client's own work).
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes inside [`Conn::bytes`].
    pub body: Range<usize>,
    /// Nanoseconds spent inside `read` calls.
    pub wait_ns: u64,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a 10 s read timeout (a timeout is
    /// a failed operation, never a hang).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn { stream, buf: vec![0; 1 << 16] })
    }

    /// Send `request` and read exactly one `Content-Length` response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        let mut filled = 0usize;
        let mut wait_ns = 0u64;
        // (header end, content length, status) once the head is in.
        let mut head: Option<(usize, usize, u16)> = None;
        loop {
            if let Some((end, len, status)) = head {
                if filled >= end + len {
                    return Ok(Reply { status, body: end..end + len, wait_ns });
                }
                if self.buf.len() < end + len {
                    self.buf.resize(end + len, 0);
                }
            } else if filled == self.buf.len() {
                self.buf.resize(filled * 2, 0);
            }
            let t0 = Instant::now();
            let n = self.stream.read(&mut self.buf[filled..])?;
            wait_ns += t0.elapsed().as_nanos() as u64;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            filled += n;
            if head.is_none() {
                head = parse_head(&self.buf[..filled])?;
            }
        }
    }

    /// The connection's buffer; index it with [`Reply::body`].
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Parse a response head once `\r\n\r\n` has arrived.
fn parse_head(buf: &[u8]) -> io::Result<Option<(usize, usize, u16)>> {
    let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..pos]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    Ok(Some((pos + 4, len, status)))
}

/// A trivial in-process responder: reads one request head plus body and
/// answers a fixed 200. What a round trip to it costs is the floor the
/// client and the loopback socket put under every latency.
pub struct Echo {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    /// Bind on loopback and serve exactly one connection until it closes.
    pub fn start() -> io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else { return };
            let _ = s.set_nodelay(true);
            let reply = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                          Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
            let mut buf = vec![0u8; 1 << 16];
            let mut filled = 0usize;
            loop {
                match s.read(&mut buf[filled..]) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => filled += n,
                }
                // Requests are small and strictly one at a time, so a
                // complete head means a complete request once the body
                // length is in.
                let Some(pos) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") else {
                    continue;
                };
                let len = std::str::from_utf8(&buf[..pos])
                    .ok()
                    .and_then(|h| {
                        h.split("\r\n").find_map(|l| {
                            let (n, v) = l.split_once(':')?;
                            n.eq_ignore_ascii_case("content-length")
                                .then(|| v.trim().parse().ok())?
                        })
                    })
                    .unwrap_or(0usize);
                if filled < pos + 4 + len {
                    continue;
                }
                filled = 0;
                if s.write_all(reply).is_err() {
                    return;
                }
            }
        });
        Ok(Echo { addr, thread: Some(thread) })
    }

    /// Round-trip `request` `n` times; returns the p50 in microseconds.
    pub fn calibrate(self, request: &[u8], n: usize) -> io::Result<f64> {
        let mut conn = Conn::connect(self.addr)?;
        let mut total = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            conn.roundtrip(request)?;
            total.push(t0.elapsed().as_nanos() as u64);
        }
        drop(conn);
        total.sort_unstable();
        Ok(crate::stats::percentile(&total, 0.5) / 1000.0)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            // The responder exits when its one connection closes; if no
            // client ever connected, poke it so `accept` returns.
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bytes_match_the_repo_client_framing() {
        let r = http_request("POST", "/query", "{}");
        assert_eq!(r, b"POST /query HTTP/1.1\r\nHost: iolap\r\nContent-Length: 2\r\n\r\n{}");
    }

    #[test]
    fn roundtrip_against_the_echo_responder() {
        let echo = Echo::start().unwrap();
        let p50 = echo.calibrate(&http_request("POST", "/query", "{\"agg\":\"sum\"}"), 50);
        assert!(p50.unwrap() > 0.0);
    }

    #[test]
    fn head_parser_waits_for_the_blank_line() {
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap().is_none());
        let head = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 7\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), Some((head.len(), 7, 503)));
    }
}
