//! A benchmark-owned client for the filter-net wire protocol, written
//! from the byte layout in `crates/filter-net/README.md`: every frame is
//! a little-endian `u32` body length, then the body.
//!
//! Request body: version u8, op u8, id u64, count u32, keys u64 × count.
//! Response body: version u8, status u8, id u64, count u32, one outcome
//! byte per key.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The protocol version this client speaks.
pub const VERSION: u8 = 1;
const HEADER: usize = 1 + 1 + 8 + 4;

/// Request operations. The wire workload sends inserts and queries; the
/// tests speak the rest of the vocabulary.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert = 0,
    Query = 1,
    Delete = 2,
    Ping = 3,
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Shed,
    Error,
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub id: u64,
    pub status: Status,
    /// Per-key outcomes: inserted / possibly present / removed.
    pub outcomes: Vec<bool>,
}

/// Append one request frame to `out`.
pub fn encode_request(op: Op, id: u64, keys: &[u64], out: &mut Vec<u8>) {
    out.extend_from_slice(&((HEADER + 8 * keys.len()) as u32).to_le_bytes());
    out.push(VERSION);
    out.push(op as u8);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for k in keys {
        out.extend_from_slice(&k.to_le_bytes());
    }
}

/// Decode one response from the front of `buf`: `Ok(None)` when the
/// frame is not complete yet, otherwise the response and its length.
pub fn decode_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if !(HEADER..=HEADER + (1 << 16)).contains(&len) {
        return Err(bad("response length out of range"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = &buf[4..4 + len];
    if body[0] != VERSION {
        return Err(bad("response version"));
    }
    let status = match body[1] {
        0 => Status::Ok,
        1 => Status::Shed,
        2 => Status::Error,
        _ => return Err(bad("response status")),
    };
    let id = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(body[10..14].try_into().expect("4 bytes")) as usize;
    if len != HEADER + count {
        return Err(bad("response count does not match its length"));
    }
    let outcomes = body[HEADER..]
        .iter()
        .map(|&b| match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("outcome byte")),
        })
        .collect::<io::Result<Vec<bool>>>()?;
    Ok(Some((Response { id, status, outcomes }, 4 + len)))
}

/// One connection: blocking writes, non-blocking reads.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    frame: Vec<u8>,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client { stream, buf: vec![0; 1 << 16], filled: 0, frame: Vec::new() })
    }

    /// Send one request.
    pub fn send(&mut self, op: Op, id: u64, keys: &[u64]) -> io::Result<()> {
        self.frame.clear();
        encode_request(op, id, keys, &mut self.frame);
        let mut sent = 0;
        while sent < self.frame.len() {
            match self.stream.write(&self.frame[sent..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "server closed")),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Every complete response received so far, without waiting.
    pub fn try_recv(&mut self) -> io::Result<Vec<Response>> {
        loop {
            if self.filled == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut out = Vec::new();
        let mut start = 0;
        while let Some((resp, used)) = decode_response(&self.buf[start..self.filled])? {
            out.push(resp);
            start += used;
        }
        self.buf.copy_within(start..self.filled, 0);
        self.filled -= start;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_service::ShardedFilterBuilder;
    use tcf::BulkTcf;

    /// Send one request and wait up to five seconds for one response.
    fn call(c: &mut Client, op: Op, id: u64, keys: &[u64]) -> io::Result<Response> {
        c.send(op, id, keys)?;
        let until = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < until {
            if let Some(r) = c.try_recv()?.into_iter().next() {
                return Ok(r);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "no response"))
    }

    #[test]
    fn client_round_trips_against_serve_on_loopback() {
        let svc = ShardedFilterBuilder::new()
            .shards(2)
            .build_deletable(|_| BulkTcf::new(1 << 14))
            .unwrap();
        let server = filter_net::serve(
            "127.0.0.1:0",
            svc.handle(),
            svc.control(),
            filter_net::ServerConfig::default(),
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let keys: Vec<u64> = (1..=100u64).map(crate::gen::mix64).collect();
        let r = call(&mut c, Op::Insert, 7, &keys).unwrap();
        assert_eq!((r.id, r.status, r.outcomes.len()), (7, Status::Ok, 100));
        assert!(r.outcomes.iter().all(|&ok| ok));
        let r = call(&mut c, Op::Query, 8, &keys).unwrap();
        assert_eq!(r.id, 8);
        assert!(r.outcomes.iter().all(|&hit| hit));
        let r = call(&mut c, Op::Delete, 9, &keys[..10]).unwrap();
        assert_eq!((r.id, r.outcomes), (9, vec![true; 10]));
        let r = call(&mut c, Op::Ping, 10, &[]).unwrap();
        assert_eq!((r.id, r.status), (10, Status::Ok));
        // Pipelined: two requests out before any answer is read.
        c.send(Op::Query, 11, &keys[10..20]).unwrap();
        c.send(Op::Query, 12, &keys[..10]).unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(c.try_recv().unwrap());
        }
        got.sort_by_key(|r| r.id);
        assert!(got[0].outcomes.iter().all(|&hit| hit));
        assert_eq!(got[1].outcomes.len(), 10);
        drop(c);
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.resp_ok, 6);
    }

    #[test]
    fn decoder_waits_for_whole_frames_and_rejects_garbage() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(HEADER as u32 + 2).to_le_bytes());
        frame.extend_from_slice(&[VERSION, 0]);
        frame.extend_from_slice(&5u64.to_le_bytes());
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&[1, 0]);
        for cut in 0..frame.len() {
            assert!(decode_response(&frame[..cut]).unwrap().is_none());
        }
        let (r, used) = decode_response(&frame).unwrap().unwrap();
        assert_eq!((r.id, r.status, r.outcomes, used), (5, Status::Ok, vec![true, false], 20));
        let mut bad = frame.clone();
        bad[4] = 9;
        assert!(decode_response(&bad).is_err());
        let mut bad = frame;
        bad[4 + HEADER] = 2;
        assert!(decode_response(&bad).is_err());
    }
}
