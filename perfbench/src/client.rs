//! A minimal HTTP/1.1 client: one connection per request, as the server
//! closes each connection after its response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A raw response: status code, total bytes received and the body offset.
pub struct Response {
    pub status: u16,
    pub bytes: Vec<u8>,
    body_start: usize,
}

impl Response {
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body_start..]
    }
}

/// Sends `query` as a raw `application/sparql-query` POST and reads the
/// response until the server closes the connection.
pub fn post_query(addr: SocketAddr, query: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/sparql-query\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{query}",
        query.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut bytes = Vec::with_capacity(4096);
    stream.read_to_end(&mut bytes)?;
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
    let status = std::str::from_utf8(&bytes[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok(Response {
        status,
        bytes,
        body_start: head_end + 4,
    })
}
