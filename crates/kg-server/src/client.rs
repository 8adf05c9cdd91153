//! Minimal blocking clients for both wire formats — used by the test
//! suites and the load generator, and a reference for what a real
//! client must implement.

use crate::protocol::{
    decode_rank_response, encode_rank_request, encode_vote_request, read_frame, write_frame,
    BinRankRequest, BinRankResponse, BinVoteRequest, Limits, RecvBuf, WireError, BIN_MAGIC,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, send, or receive).
    Io(String),
    /// The server answered with an error: HTTP status code, or the
    /// binary status byte, plus its descriptive message.
    Server { code: u16, message: String },
    /// The response violated the wire format.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "io: {msg}"),
            ClientError::Server { code, message } => write!(f, "server {code}: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

fn io_err(e: std::io::Error) -> ClientError {
    ClientError::Io(e.to_string())
}

fn wire_err(e: WireError) -> ClientError {
    match e {
        WireError::Closed => ClientError::Io("connection closed by server".to_string()),
        WireError::Timeout => ClientError::Io("read timed out".to_string()),
        WireError::Bad(m) | WireError::TooLarge(m) => ClientError::Protocol(m),
        WireError::Io(m) => ClientError::Io(m),
    }
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    pub code: u16,
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Result<serde::Value, ClientError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| ClientError::Protocol("response body is not UTF-8".to_string()))?;
        serde_json::from_str(text)
            .map_err(|e| ClientError::Protocol(format!("response is not JSON: {e}")))
    }
}

struct HttpConn {
    stream: TcpStream,
    recv: RecvBuf<TcpStream>,
}

/// A keep-alive HTTP/1.1 client. When a reused keep-alive connection
/// turns out dead (the server closed it while idle), a read — `GET`,
/// `POST /rank`, `POST /rank_batch` — is re-sent once on a fresh
/// connection; `reconnects` counts how often. Any other request returns
/// the error: the server may have acted on it before the connection died
/// (a vote fsynced, its ack lost), so re-sending could apply it twice.
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<HttpConn>,
    /// Transparent reconnects performed so far.
    pub reconnects: u64,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let mut client = HttpClient {
            addr,
            timeout,
            conn: None,
            reconnects: 0,
        };
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    fn dial(&self) -> Result<HttpConn, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(io_err)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(io_err)?;
        let reader = stream.try_clone().map_err(io_err)?;
        Ok(HttpConn {
            stream,
            recv: RecvBuf::new(reader),
        })
    }

    /// Sends one request and reads the response. A read is re-sent once
    /// if the reused keep-alive connection turned out dead; see the type
    /// docs for why nothing else is.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        let is_read =
            method == "GET" || (method == "POST" && matches!(path, "/rank" | "/rank_batch"));
        let may_resend = is_read && self.conn.is_some();
        match self.try_request(method, path, body) {
            Ok(resp) => Ok(resp),
            Err(ClientError::Io(_)) if may_resend => {
                // The server may have dropped the idle connection
                // (timeout or drain); retry exactly once on a fresh one.
                self.conn = None;
                self.reconnects += 1;
                self.try_request(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        let conn = self.conn.as_mut().expect("connection established above");
        let body_bytes = body.unwrap_or("").as_bytes();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: votekg\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body_bytes.len()
        );
        let send = conn
            .stream
            .write_all(head.as_bytes())
            .and_then(|()| conn.stream.write_all(body_bytes))
            .and_then(|()| conn.stream.flush());
        if let Err(e) = send {
            self.conn = None;
            return Err(io_err(e));
        }
        match read_http_response(&mut conn.recv) {
            Ok(resp) => {
                if !resp.keep_alive {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// `request` + non-2xx as [`ClientError::Server`].
    pub fn expect_ok(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, ClientError> {
        let resp = self.request(method, path, body)?;
        if resp.code / 100 != 2 {
            return Err(ClientError::Server {
                code: resp.code,
                message: resp.text(),
            });
        }
        Ok(resp)
    }

    pub fn get(&mut self, path: &str) -> Result<HttpResponse, ClientError> {
        self.expect_ok("GET", path, None)
    }

    pub fn post_json(&mut self, path: &str, body: &str) -> Result<HttpResponse, ClientError> {
        self.expect_ok("POST", path, Some(body))
    }
}

/// Reads one HTTP/1.1 response (status line, headers, Content-Length
/// body). A connection closed before the reply's first byte — the server
/// dropped an idle keep-alive connection, or died after reading the
/// request — is a [`ClientError::Io`] error; a reply cut short is a
/// protocol error.
fn read_http_response(recv: &mut RecvBuf<TcpStream>) -> Result<HttpResponse, ClientError> {
    let limits = Limits::default();
    let status_line = recv.read_line(limits.max_line, true).map_err(wire_err)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ClientError::Protocol(format!(
            "malformed status line {status_line:?}"
        )));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("unparseable status in {status_line:?}")))?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        let line = recv.read_line(limits.max_line, false).map_err(wire_err)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| ClientError::Protocol(format!("bad Content-Length {value:?}")))?;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let mut body = Vec::with_capacity(content_length);
    recv.consume_exact(content_length, &mut body)
        .map_err(wire_err)?;
    Ok(HttpResponse {
        code,
        keep_alive,
        body,
    })
}

/// A binary-mode client: sends the `VKB1` preamble once, then
/// length-prefixed frames. Scores come back as `f64::to_bits`, so
/// rankings can be verified bit-exactly.
pub struct BinClient {
    stream: TcpStream,
    recv: RecvBuf<TcpStream>,
    limits: Limits,
}

/// A binary vote acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinVoteAck {
    /// 0 = positive, 1 = negative.
    pub kind: u8,
    /// The vote was fsynced to the WAL before this ack.
    pub durable: bool,
}

impl BinClient {
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream.set_read_timeout(Some(timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(timeout)).map_err(io_err)?;
        stream.write_all(&BIN_MAGIC).map_err(io_err)?;
        let reader = stream.try_clone().map_err(io_err)?;
        Ok(BinClient {
            stream,
            recv: RecvBuf::new(reader),
            limits: Limits::default(),
        })
    }

    /// Sends a raw frame and reads the raw `(status, payload)` reply.
    pub fn exchange(&mut self, op: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), ClientError> {
        write_frame(&mut self.stream, op, payload).map_err(io_err)?;
        read_frame(&mut self.recv, &self.limits, false).map_err(wire_err)
    }

    fn expect_ok(&mut self, op: u8, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        let (status, body) = self.exchange(op, payload)?;
        if status != crate::protocol::status::OK {
            return Err(ClientError::Server {
                code: status as u16,
                message: String::from_utf8_lossy(&body).into_owned(),
            });
        }
        Ok(body)
    }

    pub fn rank(
        &mut self,
        query: u32,
        answers: &[u32],
        k: u16,
    ) -> Result<BinRankResponse, ClientError> {
        let payload = encode_rank_request(&BinRankRequest {
            query,
            k,
            answers: answers.to_vec(),
        });
        let body = self.expect_ok(crate::protocol::op::RANK, &payload)?;
        decode_rank_response(&body).map_err(ClientError::Protocol)
    }

    pub fn vote(
        &mut self,
        query: u32,
        best: u32,
        answers: &[u32],
    ) -> Result<BinVoteAck, ClientError> {
        let payload = encode_vote_request(&BinVoteRequest {
            query,
            best,
            answers: answers.to_vec(),
        });
        let body = self.expect_ok(crate::protocol::op::VOTE, &payload)?;
        if body.len() != 2 {
            return Err(ClientError::Protocol(format!(
                "vote ack is {} bytes, expected 2",
                body.len()
            )));
        }
        Ok(BinVoteAck {
            kind: body[0],
            durable: body[1] != 0,
        })
    }

    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_ok(crate::protocol::op::PING, &[]).map(|_| ())
    }

    /// The server's `/stats` document as JSON text.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let body = self.expect_ok(crate::protocol::op::STATS, &[])?;
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("stats body is not UTF-8".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A fake server that reads one request per connection and closes it
    /// without replying: the server acted, the reply was lost. Returns the
    /// request lines it read, once a connection closes without sending
    /// anything.
    fn mute_server() -> (SocketAddr, JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for stream in listener.incoming() {
                let mut reader = BufReader::new(stream.unwrap());
                let mut request_line = String::new();
                if reader.read_line(&mut request_line).unwrap() == 0 {
                    break;
                }
                let mut len = 0;
                loop {
                    let mut header = String::new();
                    reader.read_line(&mut header).unwrap();
                    let header = header.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = header.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            len = value.trim().parse().unwrap();
                        }
                    }
                }
                reader.read_exact(&mut vec![0; len]).unwrap();
                seen.push(request_line.trim_end().to_string());
            }
            seen
        });
        (addr, fake)
    }

    fn stop(addr: SocketAddr, fake: JoinHandle<Vec<String>>) -> Vec<String> {
        drop(TcpStream::connect(addr).unwrap());
        fake.join().unwrap()
    }

    #[test]
    fn a_vote_whose_reply_is_lost_is_sent_once() {
        let (addr, fake) = mute_server();
        let mut client = HttpClient::connect(addr).unwrap();
        let sent = client.post_json("/vote", "{\"query\":0,\"answers\":[1,2],\"best\":2}");
        assert!(matches!(sent, Err(ClientError::Io(_))), "{sent:?}");
        assert_eq!(client.reconnects, 0);
        assert_eq!(stop(addr, fake), ["POST /vote HTTP/1.1"]);
    }

    #[test]
    fn a_read_whose_reply_is_lost_is_sent_again_once() {
        let (addr, fake) = mute_server();
        let mut client = HttpClient::connect(addr).unwrap();
        let sent = client.get("/stats");
        assert!(matches!(sent, Err(ClientError::Io(_))), "{sent:?}");
        assert_eq!(client.reconnects, 1);
        assert_eq!(stop(addr, fake), ["GET /stats HTTP/1.1"; 2]);
    }
}
