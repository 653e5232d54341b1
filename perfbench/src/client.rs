//! One benchmark client connection: nonblocking socket, incremental frame
//! decode, and spans around every call into `wire` and the socket.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use vod_svc::wire::FrameBuffer;
use vod_svc::{Frame, PROTOCOL_VERSION};

use crate::trace::span;
use crate::util::{wait_ready, POLLIN, POLLOUT};

const READ_BUF: usize = 256 * 1024;
/// How long a handshake or a drain may wait for the server.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Client {
    stream: TcpStream,
    buf: FrameBuffer,
    rbuf: Vec<u8>,
    /// Socket reads that returned bytes, and payloads they closed.
    pub reads: u64,
    pub frames: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = span("net", "connect", || TcpStream::connect(addr))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            buf: FrameBuffer::new(),
            rbuf: vec![0; READ_BUF],
            reads: 0,
            frames: 0,
        })
    }

    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = span("wire", "encode", || frame.encode());
        self.write_all(&bytes)
    }

    pub fn write_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match span("net", "write", || self.stream.write(bytes)) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !wait_ready(&self.stream, POLLOUT, Some(REPLY_TIMEOUT))? {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what has arrived, waiting up to `timeout` (`None`: forever)
    /// for the first byte. Returns the arrival instant when bytes came.
    pub fn read_some(&mut self, timeout: Option<Duration>) -> io::Result<Option<Instant>> {
        for attempt in 0..2 {
            match span("net", "read", || self.stream.read(&mut self.rbuf)) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    let now = Instant::now();
                    self.reads += 1;
                    self.buf.extend(&self.rbuf[..n]);
                    return Ok(Some(now));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && attempt == 0 => {
                    if !wait_ready(&self.stream, POLLIN, timeout)? {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// The next complete frame payload already read, if any.
    pub fn next_payload(&mut self) -> io::Result<Option<Vec<u8>>> {
        let payload = self
            .buf
            .next_payload()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if payload.is_some() {
            self.frames += 1;
        }
        Ok(payload)
    }

    /// Blocks until one whole frame is decoded (handshakes and set-up).
    pub fn recv_frame(&mut self) -> io::Result<Frame> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(payload) = self.next_payload()? {
                return decode(&payload);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.read_some(Some(left))?;
        }
    }

    /// `Hello` → `Welcome`.
    pub fn handshake(&mut self) -> io::Result<()> {
        span("svc", "handshake", || {
            self.send(&Frame::Hello {
                version: PROTOCOL_VERSION,
            })?;
            match self.recv_frame()? {
                Frame::Welcome { .. } => Ok(()),
                other => Err(unexpected("Welcome", &other)),
            }
        })
    }

    /// `Subscribe` → `SubscribeOk`; returns `(payload_len, slot_ns, next_seq)`.
    pub fn subscribe(&mut self, video: u32) -> io::Result<(u64, u64, u64)> {
        self.send(&Frame::Subscribe { video })?;
        match self.recv_frame()? {
            Frame::SubscribeOk {
                video: v,
                payload_len,
                slot_ns,
                next_seq,
            } if v == video => Ok((payload_len, slot_ns, next_seq)),
            other => Err(unexpected("SubscribeOk", &other)),
        }
    }
}

pub fn decode(payload: &[u8]) -> io::Result<Frame> {
    span("wire", "decode", || Frame::decode_payload(payload))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

pub fn unexpected(wanted: &str, got: &Frame) -> io::Error {
    let kind = format!("{got:?}");
    let kind: String = kind.chars().take(80).collect();
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {wanted}, got {kind}"),
    )
}
