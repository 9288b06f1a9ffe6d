//! Incremental frame assembly and write coalescing.
//!
//! The blocking transport ([`crate::transport::read_frame`]) can park a
//! thread until a whole frame arrives; a reactor cannot. This module
//! factors the codec into resumable halves:
//!
//! * [`FrameAssembler`] — feed it arbitrary byte chunks as the socket
//!   yields them; it surfaces complete frames in order. Decoding
//!   delegates to [`Frame::decode_with_limit`], the same streaming
//!   entry point the blocking path uses, so the two decoders share
//!   the `WireError` taxonomy *by construction*: bad magic, bad
//!   version, unknown type, and oversized lengths are all rejected
//!   from the fixed 16-byte header before any payload allocation.
//! * [`WriteBuffer`] — encodes replies in place, back to back, and
//!   flushes as much as a nonblocking socket accepts, tracking
//!   cumulative pushed / flushed offsets so the caller can tell exactly
//!   when each frame has fully left the buffer (the reactor's
//!   frames-out and latency metrics hang off that edge).
//!
//! Both types are transport-agnostic plain state machines, which is
//! what makes them easy to fuzz differentially against the blocking
//! decoder (see `conformance net-fuzz` and `tests/assembler.rs`).

use std::io::{self, Write};

use cs_serve::InferResponse;

use crate::wire::{Frame, WireError, HEADER_LEN};

/// Compact the internal buffer once this many consumed bytes accumulate
/// at the front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// A resumable frame decoder: push bytes in, pull frames out.
///
/// Errors latch: once a stream is malformed every subsequent
/// [`FrameAssembler::next_frame`] returns the same error, mirroring the
/// blocking path where a decode error closes the connection.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes before `start` are already consumed, awaiting compaction.
    start: usize,
    max_payload: u32,
    failed: Option<WireError>,
}

impl FrameAssembler {
    /// A fresh assembler enforcing `max_payload` (see
    /// [`crate::wire::DEFAULT_MAX_PAYLOAD`]).
    pub fn new(max_payload: u32) -> FrameAssembler {
        FrameAssembler {
            buf: Vec::new(),
            start: 0,
            max_payload,
            failed: None,
        }
    }

    /// Appends a chunk read from the socket. Chunks may split frames —
    /// and even the 16-byte header — at any byte boundary.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.failed.is_some() {
            // The connection is already condemned; buffering more of a
            // malformed stream would be pure waste.
            return;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// The same [`WireError`] taxonomy as the blocking decoder; the
    /// error latches and repeats on every later call.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        match Frame::decode_with_limit(&self.buf[self.start..], self.max_payload) {
            Ok(Some((frame, used))) => {
                self.start += used;
                self.compact();
                Ok(Some(frame))
            }
            Ok(None) => {
                self.compact();
                Ok(None)
            }
            Err(e) => {
                self.failed = Some(e.clone());
                // Drop the poisoned bytes; nothing further will decode.
                self.buf = Vec::new();
                self.start = 0;
                Err(e)
            }
        }
    }

    /// Bytes currently buffered awaiting a complete frame. After
    /// draining via [`FrameAssembler::next_frame`] this is bounded by
    /// `HEADER_LEN + max_payload - 1` (one incomplete frame), since a
    /// complete in-bounds frame always decodes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The latched decode error, if the stream is condemned.
    pub fn failure(&self) -> Option<&WireError> {
        self.failed.as_ref()
    }

    /// The hard ceiling on [`FrameAssembler::buffered`] once frames are
    /// drained after every push: one maximal in-flight frame.
    pub fn buffered_bound(&self) -> usize {
        HEADER_LEN + self.max_payload as usize
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// A coalescing outbound buffer for a nonblocking socket.
///
/// Frames are encoded into it whole; [`WriteBuffer::flush_to`] writes
/// as much as the socket accepts. The cumulative `total_pushed` /
/// `total_flushed` offsets let the owner map flush progress back to
/// frame boundaries.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    start: usize,
    total_pushed: u64,
    total_flushed: u64,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Appends one frame, encoded straight into the buffer.
    pub fn push_frame(&mut self, frame: &Frame) {
        self.append(|buf| frame.encode_into(buf));
    }

    /// Appends the response frame for a completed inference, encoded
    /// straight from `resp`: the bytes of
    /// `Frame::from_response(id, resp).encode()`, without building the
    /// [`Frame`].
    pub fn push_response(&mut self, id: u64, resp: &InferResponse) {
        self.append(|buf| Frame::encode_response_into(id, resp, buf));
    }

    fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let before = self.buf.len();
        encode(&mut self.buf);
        self.total_pushed += (self.buf.len() - before) as u64;
    }

    /// Unflushed bytes still held.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when everything pushed has been flushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative bytes ever pushed (monotonic stream offset).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Cumulative bytes ever flushed to the socket.
    pub fn total_flushed(&self) -> u64 {
        self.total_flushed
    }

    /// Writes as much as `w` accepts without blocking. Returns `true`
    /// if any bytes were written (write-progress tracking for the
    /// slow-consumer deadline). `WouldBlock` is progress-neutral, not
    /// an error; real I/O errors surface.
    ///
    /// # Errors
    ///
    /// Any I/O error other than `WouldBlock` / `Interrupted`.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        let mut wrote = false;
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.start += n;
                    self.total_flushed += n as u64;
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(wrote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ErrorCode, DEFAULT_MAX_PAYLOAD};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Ping { id: 1 },
            Frame::Request {
                id: 2,
                model: "mlp".to_string(),
                tenant: "acme".to_string(),
                input: vec![1.0, f32::NAN, -0.0, 3.5],
            },
            Frame::Error {
                id: 3,
                code: ErrorCode::Overloaded,
                tenant: "acme".to_string(),
                detail: "queue full".to_string(),
            },
        ]
    }

    #[test]
    fn whole_stream_in_one_push_yields_all_frames() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.push(&bytes);
        let mut out = Vec::new();
        while let Some(f) = asm.next_frame().unwrap() {
            out.push(f);
        }
        assert_eq!(out.len(), frames.len());
        for (a, b) in out.iter().zip(&frames) {
            assert_eq!(a.encode(), b.encode());
        }
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn error_latches_and_clears_buffer() {
        let mut asm = FrameAssembler::new(DEFAULT_MAX_PAYLOAD);
        asm.push(&[0xde, 0xad, 0xbe, 0xef]);
        let first = asm.next_frame().unwrap_err();
        let again = asm.next_frame().unwrap_err();
        assert_eq!(first.to_string(), again.to_string());
        assert_eq!(asm.buffered(), 0);
        asm.push(&Frame::Ping { id: 9 }.encode());
        assert!(asm.next_frame().is_err(), "latched error must persist");
        assert_eq!(asm.buffered(), 0, "pushes after failure are discarded");
    }

    #[test]
    fn write_buffer_tracks_pushed_and_flushed_offsets() {
        let mut wb = WriteBuffer::new();
        let a = Frame::Ping { id: 1 }.encode();
        let b = Frame::Pong { id: 2 }.encode();
        wb.push_frame(&Frame::Ping { id: 1 });
        wb.push_frame(&Frame::Pong { id: 2 });
        assert_eq!(wb.total_pushed(), (a.len() + b.len()) as u64);
        let mut sink = Vec::new();
        let wrote = wb.flush_to(&mut sink).unwrap();
        assert!(wrote);
        assert!(wb.is_empty());
        assert_eq!(wb.total_flushed(), wb.total_pushed());
        let mut expect = a;
        expect.extend_from_slice(&b);
        assert_eq!(sink, expect);
    }

    #[test]
    fn write_buffer_encodes_a_response_as_its_frame_would() {
        let resp = InferResponse {
            model: "mlp".to_string(),
            outputs: vec![1.0, f32::NAN, -0.0, 3.5e-40],
            cycles: 484,
            energy_pj: 12.25,
            batch_size: 8,
            worker: 3,
            latency_us: 41,
            node: "node-b".to_string(),
        };
        let mut wb = WriteBuffer::new();
        wb.push_frame(&Frame::Pong { id: 16 });
        wb.push_response(17, &resp);
        let mut want = Frame::Pong { id: 16 }.encode();
        want.extend_from_slice(&Frame::from_response(17, &resp).encode());
        assert_eq!(wb.total_pushed(), want.len() as u64);
        let mut sink = Vec::new();
        wb.flush_to(&mut sink).unwrap();
        assert_eq!(sink, want);
    }

    /// A writer that accepts a fixed number of bytes per call, then
    /// `WouldBlock`s — models a congested nonblocking socket.
    struct Trickle {
        accepted: Vec<u8>,
        per_call: usize,
        calls_before_block: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_before_block == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_before_block -= 1;
            let n = buf.len().min(self.per_call);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buffer_resumes_after_would_block() {
        let request = Frame::Request {
            id: 7,
            model: "m".to_string(),
            tenant: String::new(),
            input: vec![0.25; 64],
        };
        let frame = request.encode();
        let mut wb = WriteBuffer::new();
        wb.push_frame(&request);
        let mut sink = Trickle {
            accepted: Vec::new(),
            per_call: 10,
            calls_before_block: 3,
        };
        wb.flush_to(&mut sink).unwrap();
        assert_eq!(wb.total_flushed(), 30);
        assert_eq!(wb.len(), frame.len() - 30);
        sink.calls_before_block = usize::MAX;
        sink.per_call = usize::MAX;
        let wrote = wb.flush_to(&mut sink).unwrap();
        assert!(wrote);
        assert!(wb.is_empty());
        assert_eq!(sink.accepted, frame);
    }
}
