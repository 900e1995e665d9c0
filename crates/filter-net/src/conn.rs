//! A nonblocking TCP stream with frame-aware buffered I/O.
//!
//! [`FramedConn`] owns the read and write buffers for one connection and
//! speaks the [`codec`] framing on both directions. It does
//! no readiness management itself — the reactor (or the fleet's pacing
//! loop) decides *when* to call [`fill`](FramedConn::fill) and
//! [`flush`](FramedConn::flush); this type only guarantees that partial
//! reads and short writes are invisible to the frame layer.

use crate::codec::{self, decode_request, decode_response, FrameError, Request, Response};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};

/// Read chunk size; also the threshold past which consumed input is
/// compacted out of the buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Write-buffer capacity retained across a full drain. A burst of large
/// responses can balloon `outbuf`; trimming back to this bound on drain
/// keeps a slow connection from pinning the burst's high-water mark for
/// its whole lifetime, while steady-state traffic never reallocates.
const OUT_RETAIN: usize = 4 * READ_CHUNK;

/// One framed, nonblocking connection.
pub struct FramedConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already consumed by the decoder.
    inpos: usize,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    outpos: usize,
}

impl FramedConn {
    /// Wrap a stream, switching it to nonblocking + nodelay.
    pub fn new(stream: TcpStream) -> io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(FramedConn { stream, inbuf: Vec::new(), inpos: 0, outbuf: Vec::new(), outpos: 0 })
    }

    /// The underlying descriptor, for poller registration.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Pull whatever the socket has into the read buffer. Returns
    /// `Ok(false)` on orderly EOF, `Ok(true)` otherwise (including "no
    /// data right now").
    pub fn fill(&mut self) -> io::Result<bool> {
        loop {
            let start = self.inbuf.len();
            self.inbuf.resize(start + READ_CHUNK, 0);
            match self.stream.read(&mut self.inbuf[start..]) {
                Ok(0) => {
                    self.inbuf.truncate(start);
                    return Ok(false);
                }
                Ok(n) => {
                    self.inbuf.truncate(start + n);
                    // Keep draining until WouldBlock so level-triggered
                    // and report-all pollers both see every byte.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.inbuf.truncate(start);
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.inbuf.truncate(start);
                    continue;
                }
                Err(e) => {
                    self.inbuf.truncate(start);
                    return Err(e);
                }
            }
        }
    }

    fn advance(&mut self, used: usize) {
        self.inpos += used;
        // Compact once the dead prefix dominates or everything is consumed.
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        } else if self.inpos > READ_CHUNK {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
    }

    /// Decode the next buffered request, if a complete one is present.
    pub fn next_request(&mut self) -> Result<Option<Request>, FrameError> {
        match decode_request(&self.inbuf[self.inpos..])? {
            Some((req, used)) => {
                self.advance(used);
                Ok(Some(req))
            }
            None => Ok(None),
        }
    }

    /// Decode the next buffered response, if a complete one is present.
    pub fn next_response(&mut self) -> Result<Option<Response>, FrameError> {
        match decode_response(&self.inbuf[self.inpos..])? {
            Some((resp, used)) => {
                self.advance(used);
                Ok(Some(resp))
            }
            None => Ok(None),
        }
    }

    /// Queue an encoded request for transmission.
    pub fn queue_request(&mut self, req: &Request) {
        codec::encode_request(req, &mut self.outbuf);
    }

    /// Queue pre-encoded frame bytes for transmission.
    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    /// Push queued bytes to the socket. Returns `Ok(true)` when the
    /// write buffer drained completely, `Ok(false)` when the socket
    /// stopped accepting (re-arm write interest and retry later).
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        if self.outbuf.capacity() > OUT_RETAIN {
            self.outbuf.shrink_to(OUT_RETAIN);
        }
        Ok(true)
    }

    /// Whether queued output is still waiting on the socket.
    pub fn wants_write(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Bytes currently buffered in each direction (read, write) — for
    /// accounting only.
    pub fn buffered(&self) -> (usize, usize) {
        (self.inbuf.len() - self.inpos, self.outbuf.len() - self.outpos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::wire::{OpKind, RespStatus};
    use std::net::TcpListener;

    fn pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (FramedConn::new(a).unwrap(), FramedConn::new(b).unwrap())
    }

    fn pump(tx: &mut FramedConn, rx: &mut FramedConn) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while tx.wants_write() || {
            rx.fill().unwrap();
            false
        } {
            tx.flush().unwrap();
            assert!(std::time::Instant::now() < deadline, "pump stalled");
        }
        // One more fill after the final flush.
        while std::time::Instant::now() < deadline {
            rx.fill().unwrap();
            let (pending, _) = rx.buffered();
            if pending > 0 {
                return;
            }
        }
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut client, mut server) = pair();
        let req = Request { id: 31, op: OpKind::Query, keys: vec![9, 8, 7] };
        client.queue_request(&req);
        pump(&mut client, &mut server);
        let got = server.next_request().unwrap().expect("one whole frame");
        assert_eq!(got, req);
        assert!(server.next_request().unwrap().is_none(), "exactly one frame");

        let resp = Response { id: 31, status: RespStatus::Ok, results: vec![true, false, true] };
        let mut bytes = Vec::new();
        codec::encode_response(&resp, &mut bytes);
        server.queue_bytes(&bytes);
        pump(&mut server, &mut client);
        assert_eq!(client.next_response().unwrap().unwrap(), resp);
    }

    #[test]
    fn write_buffer_sheds_burst_capacity_after_a_full_drain() {
        let (mut client, mut server) = pair();
        // Queue a burst well past the retention bound...
        let burst = vec![0xa5u8; 3 * OUT_RETAIN];
        client.queue_bytes(&burst);
        pump(&mut client, &mut server);
        // ...and once it fully drains, the high-water capacity is shed.
        assert!(!client.wants_write(), "burst should drain over loopback");
        assert!(
            client.outbuf.capacity() <= OUT_RETAIN,
            "outbuf capacity {} should shrink to <= {}",
            client.outbuf.capacity(),
            OUT_RETAIN
        );
    }

    #[test]
    fn eof_is_reported_once_the_peer_closes() {
        let (client, mut server) = pair();
        drop(client);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if !server.fill().unwrap() {
                return; // saw EOF
            }
            assert!(std::time::Instant::now() < deadline, "EOF never surfaced");
        }
    }
}
