//! Blocking frame transport over any `Read`/`Write` pair.
//!
//! [`read_frame`] and [`write_frame`] are the blocking side of the
//! codec: the client, the worker agent and the cluster orchestrator
//! speak through them, the incremental [`crate::FrameAssembler`] is
//! fuzzed against [`read_frame`], and tests drive both with in-memory
//! cursors. The reader distinguishes a peer that closed *at* a frame
//! boundary (`Ok(None)`, a clean goodbye) from one that died mid-frame
//! ([`WireError::Truncated`] wrapped in [`NetError::Wire`]).

use std::io::{ErrorKind, Read, Write};

use crate::error::NetError;
use crate::wire::{decode_payload, parse_header, Frame, WireError, HEADER_LEN};

/// Writes one frame and flushes.
///
/// # Errors
///
/// [`NetError::Io`] / [`NetError::Timeout`] from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), NetError> {
    let bytes = frame.encode();
    w.write_all(&bytes)
        .map_err(|e| NetError::from_io("write frame", &e))?;
    w.flush().map_err(|e| NetError::from_io("flush frame", &e))
}

/// Reads one whole frame. `Ok(None)` means the peer closed the stream
/// cleanly at a frame boundary.
///
/// The header is read and validated first, so a hostile length prefix
/// is rejected while only 16 bytes have been buffered; the payload
/// allocation is bounded by `max_payload`.
///
/// # Errors
///
/// [`NetError::Wire`] for malformed bytes (including a mid-frame EOF,
/// reported as [`WireError::Truncated`]), [`NetError::Timeout`] when a
/// read deadline elapses, [`NetError::Io`] otherwise.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Option<Frame>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(NetError::Wire(WireError::Truncated {
                    have: filled,
                    need: HEADER_LEN,
                }));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io("read frame header", &e)),
        }
    }
    let h = parse_header(&header, max_payload)?;
    let need = h.payload_len as usize;
    let mut payload = vec![0u8; need];
    let mut got = 0usize;
    while got < need {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(NetError::Wire(WireError::Truncated {
                    have: HEADER_LEN + got,
                    need: HEADER_LEN + need,
                }))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::from_io("read frame payload", &e)),
        }
    }
    Ok(Some(decode_payload(&h, &payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DEFAULT_MAX_PAYLOAD;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = vec![
            Frame::Ping { id: 1 },
            Frame::Request {
                id: 2,
                model: "mlp".to_string(),
                tenant: "t0".to_string(),
                input: vec![0.5, -0.5],
            },
            Frame::Shutdown { id: 3 },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("write");
        }
        let mut r = Cursor::new(buf);
        for f in &frames {
            let got = read_frame(&mut r, DEFAULT_MAX_PAYLOAD)
                .expect("read")
                .expect("frame");
            assert_eq!(&got, f);
        }
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_PAYLOAD).expect("eof"), None);
    }

    #[test]
    fn eof_mid_header_and_mid_payload_are_truncations() {
        let bytes = Frame::Request {
            id: 2,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: vec![0.5, -0.5],
        }
        .encode();
        let mut r = Cursor::new(bytes[..7].to_vec());
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            NetError::Wire(WireError::Truncated { have: 7, .. })
        ));
        let mut r = Cursor::new(bytes[..bytes.len() - 2].to_vec());
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            NetError::Wire(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_stops_at_the_header() {
        let mut bytes = Frame::Ping { id: 1 }.encode();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        // Plenty of garbage after the header: the reader must error on
        // the header alone, never attempting the 4 GiB payload.
        bytes.extend_from_slice(&[0u8; 64]);
        let mut r = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            NetError::Wire(WireError::Oversized { .. })
        ));
    }
}
