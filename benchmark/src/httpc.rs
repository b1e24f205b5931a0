//! The benchmark's own HTTP/1.1 keep-alive client: one `TcpStream`, one
//! request in flight, `Content-Length` and chunked bodies read in full.
//! Responses are parsed back (see [`parse_response`]) rather than trusted
//! by status code.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::inputs::{Class, Mode};
use crate::json::{self, Json};
use crate::oracle::Answer;
use crate::run::Got;

pub struct Conn {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let write = TcpStream::connect(addr)?;
        write.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        write.set_read_timeout(Some(Duration::from_secs(20)))?;
        write.set_write_timeout(Some(Duration::from_secs(20)))?;
        let read = BufReader::new(write.try_clone()?);
        Ok(Self { write, read })
    }

    /// Sends pre-rendered request bytes and reads one whole response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.write.write_all(request)?;
        let mut line = String::new();
        self.read.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        let mut chunked = false;
        loop {
            line.clear();
            if self.read.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                self.read.read_line(&mut line)?;
                let size = usize::from_str_radix(line.trim_end(), 16)
                    .map_err(|_| bad("bad chunk size"))?;
                let start = body.len();
                body.resize(start + size, 0);
                self.read.read_exact(&mut body[start..])?;
                line.clear();
                self.read.read_line(&mut line)?; // the chunk's trailing CRLF
                if size == 0 {
                    break;
                }
            }
        } else {
            body.resize(content_length.ok_or_else(|| bad("no body framing"))?, 0);
            self.read.read_exact(&mut body)?;
        }
        Ok(Response { status, body })
    }
}

/// The bytes of `POST /query` for a request class (documents named
/// `d<index>`, as [`crate::inputs::Workload::documents`] names them).
pub fn render_request(class: &Class, n_docs: usize) -> Vec<u8> {
    let mut body = format!("{{\"query\":{}", Json::Str(class.query.clone()).render());
    body.push_str(&format!(",\"strategy\":\"{}\"", class.strategy.token()));
    if class.docs.len() < n_docs {
        let names: Vec<String> = class.docs.iter().map(|d| format!("\"d{d}\"")).collect();
        body.push_str(&format!(",\"docs\":[{}]", names.join(",")));
    }
    match class.mode {
        Mode::HttpCount => body.push_str(",\"count\":true"),
        Mode::HttpStream => body.push_str(",\"stream\":true"),
        Mode::HttpNodes | Mode::Direct => {}
    }
    body.push('}');
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One result row (`{"doc":…,"count":…[,"nodes":[…]]}`) as what the oracle
/// compares.
fn row(v: &Json) -> Result<Got, String> {
    if let Some(e) = v.get("error") {
        return Err(format!("document error: {}", e.render()));
    }
    let count = v
        .get("count")
        .and_then(Json::as_f64)
        .ok_or("row without count")? as u64;
    match v.get("nodes").and_then(Json::as_arr) {
        None => Ok(Got::Count(count)),
        Some(nodes) => {
            let ids: Vec<u32> = nodes
                .iter()
                .map(|n| n.as_f64().map(|f| f as u32).ok_or("non-numeric node id"))
                .collect::<Result<_, _>>()?;
            if ids.len() as u64 != count {
                return Err(format!("count {count} but {} node ids", ids.len()));
            }
            Ok(Got::Nodes(Answer::of(&ids)))
        }
    }
}

/// Parses a `/query` response back into per-document results, in the
/// order the server returned them (document-name order).
pub fn parse_response(mode: Mode, resp: &Response) -> Result<Vec<Got>, String> {
    if resp.status != 200 {
        return Err(format!("status {}", resp.status));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "body is not UTF-8")?;
    if mode == Mode::HttpStream {
        let mut rows = Vec::new();
        let mut saw_tail = false;
        for line in text.lines() {
            let v = json::parse(line)?;
            if v.get("stats").is_some() {
                saw_tail = true;
            } else {
                rows.push(row(&v)?);
            }
        }
        if !saw_tail {
            return Err("stream ended without its stats row".to_string());
        }
        Ok(rows)
    } else {
        let v = json::parse(text)?;
        if v.get("failures").and_then(Json::as_f64) != Some(0.0) {
            return Err("response reports failures".to_string());
        }
        v.get("results")
            .and_then(Json::as_arr)
            .ok_or("response without results")?
            .iter()
            .map(row)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xwq_core::Strategy;

    fn class(mode: Mode, docs: Vec<usize>) -> Class {
        Class {
            query: "//a[ b ]".to_string(),
            strategy: Strategy::Auto,
            docs,
            mode,
            expect: Vec::new(),
        }
    }

    #[test]
    fn request_bytes_are_what_the_server_reads() {
        let bytes = render_request(&class(Mode::HttpCount, vec![3]), 8);
        let mut cursor = io::Cursor::new(bytes);
        let req = xwq_serve::http::read_request(&mut cursor, 8192, 1 << 20).expect("parses");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/query"));
        let body = json::parse(std::str::from_utf8(&req.body).unwrap()).expect("JSON body");
        assert_eq!(body.get("query").and_then(Json::as_str), Some("//a[ b ]"));
        assert_eq!(body.get("count"), Some(&Json::Bool(true)));
        assert_eq!(
            body.get("docs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        let whole = render_request(&class(Mode::HttpStream, (0..8).collect()), 8);
        let text = String::from_utf8(whole).unwrap();
        assert!(text.contains("\"stream\":true") && !text.contains("\"docs\""));
    }

    #[test]
    fn responses_are_parsed_back_not_trusted() {
        let ok = Response {
            status: 200,
            body: br#"{"query":"q","results":[{"doc":"d0","shard":0,"count":2,"cache_hit":true,"nodes":[4,9],"paths":["/a","/b"]}],"failures":0}"#.to_vec(),
        };
        let got = parse_response(Mode::HttpNodes, &ok).expect("valid");
        assert!(matches!(got[..], [Got::Nodes(a)] if a == Answer::of(&[4, 9])));
        let short = Response {
            status: 200,
            body: br#"{"results":[{"doc":"d0","count":3,"nodes":[4,9]}],"failures":0}"#.to_vec(),
        };
        assert!(parse_response(Mode::HttpNodes, &short).is_err());
        let shed = Response {
            status: 503,
            body: b"{}".to_vec(),
        };
        assert!(parse_response(Mode::HttpCount, &shed).is_err());
        let stream = Response {
            status: 200,
            body: b"{\"doc\":\"d0\",\"count\":1,\"nodes\":[7]}\n{\"stats\":{},\"failures\":0}\n"
                .to_vec(),
        };
        assert_eq!(
            parse_response(Mode::HttpStream, &stream).map(|g| g.len()),
            Ok(1)
        );
        let cut = Response {
            status: 200,
            body: b"{\"doc\":\"d0\",\"count\":1,\"nodes\":[7]}\n".to_vec(),
        };
        assert!(parse_response(Mode::HttpStream, &cut).is_err());
    }
}
