//! The benchmark's own wire clients: HTTP/1.1 keep-alive and VKB1.
//!
//! One connection each, never reconnected and never retried: a request
//! that fails is a failed operation, so a lost `/vote` ack cannot turn
//! into a silent success plus a durable duplicate. Binary payloads use
//! `kg_server::protocol`'s pure encoders, so the frame layout is the
//! server's own.

use kg_server::protocol::{
    decode_rank_response, encode_vote_request, op, status, BinVoteRequest, BIN_MAGIC,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A ranking as it came off the wire: `(node, score bits)`, best first.
pub type WireRanking = Vec<(u32, u64)>;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn open(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

fn join_ids(out: &mut String, ids: &[u32]) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
}

pub fn rank_body(query: u32, answers: &[u32], k: usize) -> String {
    let mut body = format!("{{\"query\":{query},\"k\":{k},\"answers\":[");
    join_ids(&mut body, answers);
    body.push_str("]}");
    body
}

/// A keep-alive HTTP/1.1 connection.
pub struct Http {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: String,
}

impl Http {
    pub fn connect(addr: SocketAddr) -> Result<Http, String> {
        let (stream, reader) = open(addr)?;
        Ok(Http {
            stream,
            reader,
            out: Vec::with_capacity(1024),
            line: String::new(),
        })
    }

    /// `POST path` with a JSON body; the response body on 200.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Vec<u8>, String> {
        self.out.clear();
        write!(
            self.out,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("writing to a Vec cannot fail");
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send {path}: {e}"))?;
        self.read_response(path)
    }

    fn read_response(&mut self, path: &str) -> Result<Vec<u8>, String> {
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("{path} status line: {e}"))?;
        let code: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| format!("{path}: bad status line {:?}", self.line))?;
        let mut length = None;
        let mut close = false;
        loop {
            self.line.clear();
            self.reader
                .read_line(&mut self.line)
                .map_err(|e| format!("{path} header: {e}"))?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(format!("{path}: bad header {header:?}"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| format!("{path}: response without Content-Length"))?;
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("{path} body: {e}"))?;
        if code != 200 {
            return Err(format!(
                "{path}: HTTP {code}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        if close {
            return Err(format!("{path}: server closed the keep-alive connection"));
        }
        Ok(body)
    }
}

/// A VKB1 binary connection.
pub struct Bin {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Bin {
    pub fn connect(addr: SocketAddr) -> Result<Bin, String> {
        let (mut stream, reader) = open(addr)?;
        stream
            .write_all(&BIN_MAGIC)
            .map_err(|e| format!("send preamble: {e}"))?;
        Ok(Bin {
            stream,
            reader,
            out: Vec::with_capacity(256),
        })
    }

    /// One request frame out, one response frame back; the payload on OK.
    fn call(&mut self, opcode: u8, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.out.clear();
        self.out
            .extend_from_slice(&(payload.len() as u32 + 1).to_be_bytes());
        self.out.push(opcode);
        self.out.extend_from_slice(payload);
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("send op {opcode}: {e}"))?;
        let mut head = [0u8; 5];
        self.reader
            .read_exact(&mut head)
            .map_err(|e| format!("op {opcode} response header: {e}"))?;
        let len = u32::from_be_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len == 0 {
            return Err(format!("op {opcode}: empty response frame"));
        }
        let mut body = vec![0u8; len - 1];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("op {opcode} response body: {e}"))?;
        if head[4] != status::OK {
            return Err(format!(
                "op {opcode}: status {}: {}",
                head[4],
                String::from_utf8_lossy(&body)
            ));
        }
        Ok(body)
    }

    /// A rank request pre-encoded with `encode_rank_request`.
    pub fn rank_raw(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.call(op::RANK, payload)
    }

    /// Sends a vote; returns whether the server acknowledged it durably.
    pub fn vote(&mut self, query: u32, answers: &[u32], best: u32) -> Result<bool, String> {
        let req = BinVoteRequest {
            query,
            best,
            answers: answers.to_vec(),
        };
        let ack = self.call(op::VOTE, &encode_vote_request(&req))?;
        match ack.as_slice() {
            [_kind, durable] => Ok(*durable == 1),
            other => Err(format!("vote ack of {} bytes", other.len())),
        }
    }
}

/// Decodes a binary rank response into `(epoch, ranking)`.
pub fn parse_bin_rank(payload: &[u8]) -> Result<(u64, WireRanking), String> {
    let resp = decode_rank_response(payload)?;
    Ok((
        resp.epoch,
        resp.ranking
            .iter()
            .map(|a| (a.node, a.score_bits))
            .collect(),
    ))
}

/// Finds the integer after `"key":` at or past `from`; returns it and the
/// position after it.
fn scan_int(text: &str, key: &str, from: usize) -> Option<(i128, usize)> {
    let pat = format!("\"{key}\":");
    let at = text[from..].find(&pat)? + from + pat.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    Some((rest[..end].parse().ok()?, at + end))
}

/// Reads a top-level integer field of a JSON response.
pub fn json_int(body: &[u8], key: &str) -> Result<i128, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    scan_int(text, key, 0)
        .map(|(v, _)| v)
        .ok_or_else(|| format!("response lacks integer field {key:?}: {text}"))
}

/// Decodes an HTTP `/rank` response into `(epoch, ranking)`.
pub fn parse_http_rank(body: &[u8]) -> Result<(u64, WireRanking), String> {
    let text = std::str::from_utf8(body).map_err(|_| "rank response is not UTF-8".to_string())?;
    let (epoch, mut at) = scan_int(text, "epoch", 0).ok_or("rank response lacks epoch")?;
    let mut ranking = Vec::new();
    while let Some((node, after_node)) = scan_int(text, "node", at) {
        let (bits, after_bits) =
            scan_int(text, "score_bits", after_node).ok_or("ranked answer lacks score_bits")?;
        ranking.push((node as u32, bits as u64));
        at = after_bits;
    }
    Ok((epoch as u64, ranking))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_rank_body_parses_back() {
        let body = br#"{"epoch":12,"query":3,"ranking":[{"node":7,"rank":1,"score":0.5,"score_bits":4602678819172646912},{"node":9,"rank":2,"score":0.25,"score_bits":4598175219545276416}]}"#;
        let (epoch, ranking) = parse_http_rank(body).unwrap();
        assert_eq!(epoch, 12);
        assert_eq!(ranking, vec![(7, 0.5f64.to_bits()), (9, 0.25f64.to_bits())]);
        assert_eq!(json_int(br#"{"omega":-3,"rounds":1}"#, "omega"), Ok(-3));
    }
}
