//! Wire framing: length-prefixed binary frames over a byte stream.
//!
//! A frame is `[u32 BE payload length | payload]`, the payload one
//! message in its [`Wire`] encoding. The in-process transports move
//! typed messages directly; this codec is what the TCP transport puts on
//! each connection (one frame per protocol message, preserving per-path
//! FIFO exactly like an SP2 switch connection).

use bytes::{Buf, BufMut, BytesMut};
use pscc_common::wire::{self, Wire, WireError};
use std::fmt;

/// Maximum frame payload accepted, and written (1 GiB guard against
/// corrupt prefixes).
const MAX_FRAME: u32 = 1 << 30;

/// Errors from the frame codec.
#[derive(Debug)]
pub enum CodecError {
    /// The payload is not one message.
    Malformed(WireError),
    /// A payload length over [`MAX_FRAME`]: read from a prefix, or of a
    /// message to be written.
    Oversized(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed(e) => write!(f, "malformed frame: {e}"),
            CodecError::Oversized(n) => write!(f, "frame of {n} bytes exceeds the limit"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes one message as a length-prefixed frame, appending to `out`.
///
/// # Errors
///
/// [`CodecError::Oversized`] if the message encodes to more than
/// [`MAX_FRAME`] bytes, which [`decode_frame`] would refuse; `out` is
/// then unchanged.
pub fn encode_frame<M: Wire>(msg: &M, out: &mut BytesMut) -> Result<(), CodecError> {
    let mut payload = Vec::with_capacity(128);
    msg.put(&mut payload);
    let len = frame_len(payload.len())?;
    out.reserve(4 + payload.len());
    out.put_u32(len);
    out.put_slice(&payload);
    Ok(())
}

/// The length prefix of a payload of `n` bytes.
fn frame_len(n: usize) -> Result<u32, CodecError> {
    u32::try_from(n)
        .ok()
        .filter(|len| *len <= MAX_FRAME)
        .ok_or(CodecError::Oversized(n))
}

/// Attempts to decode one frame from the front of `buf`. Returns
/// `Ok(None)` when more bytes are needed (the buffer is untouched then);
/// otherwise the frame is consumed, whether or not it decodes.
///
/// # Errors
///
/// [`CodecError::Oversized`] on an absurd length prefix;
/// [`CodecError::Malformed`] on a payload that is not one message.
pub fn decode_frame<M: Wire>(buf: &mut BytesMut) -> Result<Option<M>, CodecError> {
    let Some(&[a, b, c, d]) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes([a, b, c, d]);
    if len > MAX_FRAME {
        return Err(CodecError::Oversized(len as usize));
    }
    let end = 4 + len as usize;
    let Some(payload) = buf.get(4..end) else {
        return Ok(None);
    };
    let msg = wire::decode(payload);
    buf.advance(end);
    msg.map(Some).map_err(CodecError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Probe {
        a: u64,
        b: Vec<u8>,
        c: String,
    }
    pscc_common::impl_wire!(struct Probe { a, b, c });

    fn probe(n: u64) -> Probe {
        Probe {
            a: n,
            b: vec![n as u8; (n % 17) as usize],
            c: format!("msg-{n}"),
        }
    }

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = BytesMut::new();
        encode_frame(&probe(7), &mut buf).unwrap();
        let got: Probe = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(got, probe(7));
        assert!(buf.is_empty());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut full = BytesMut::new();
        encode_frame(&probe(3), &mut full).unwrap();
        let mut buf = BytesMut::new();
        for (i, b) in full.iter().enumerate() {
            buf.put_u8(*b);
            let r: Option<Probe> = decode_frame(&mut buf).unwrap();
            if i + 1 < full.len() {
                assert!(r.is_none(), "frame decoded early at byte {i}");
            } else {
                assert_eq!(r, Some(probe(3)));
            }
        }
    }

    #[test]
    fn many_frames_stream_in_order() {
        let mut buf = BytesMut::new();
        for n in 0..20 {
            encode_frame(&probe(n), &mut buf).unwrap();
        }
        for n in 0..20 {
            let got: Probe = decode_frame(&mut buf).unwrap().unwrap();
            assert_eq!(got, probe(n), "frame {n} out of order");
        }
        assert!(decode_frame::<Probe>(&mut buf).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_slice(b"junk");
        assert!(matches!(
            decode_frame::<Probe>(&mut buf),
            Err(CodecError::Oversized(_))
        ));
    }

    #[test]
    fn encoder_refuses_what_the_decoder_would() {
        let max = MAX_FRAME as usize;
        assert_eq!(frame_len(max).ok(), Some(MAX_FRAME));
        for n in [max + 1, u32::MAX as usize + 1] {
            assert!(matches!(frame_len(n), Err(CodecError::Oversized(got)) if got == n));
        }
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(4);
        buf.put_slice(b"!!!!");
        assert!(matches!(
            decode_frame::<Probe>(&mut buf),
            Err(CodecError::Malformed(_))
        ));
        assert!(buf.is_empty(), "the bad frame is consumed");
    }

    #[test]
    fn huge_inner_length_is_refused_without_allocating() {
        // A 20-byte frame whose byte vector claims u32::MAX elements.
        let mut buf = BytesMut::new();
        buf.put_u32(16);
        buf.put_slice(&7u64.to_le_bytes());
        buf.put_slice(&u32::MAX.to_le_bytes());
        buf.put_slice(b"abcd");
        assert_eq!(buf.len(), 20);
        assert!(matches!(
            decode_frame::<Probe>(&mut buf),
            Err(CodecError::Malformed(WireError::Truncated))
        ));
    }
}
