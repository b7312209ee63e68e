//! The wire codec: versioned length-delimited binary frames plus the
//! payload primitives the RPC layer is built from.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [ version: u8 ][ type: u8 ][ len: u32 ][ seq: u32 ][ payload ][ crc: u32 ]
//! ```
//!
//! * `version` — [`PROTO_VERSION`]; a mismatch is a hard decode error, not
//!   a negotiation (both ends ship from the same tree).
//! * `type` — the message discriminant (see `proto::Msg`).
//! * `len` — payload length, capped at [`MAX_PAYLOAD`] so a corrupt or
//!   hostile length prefix cannot drive an unbounded allocation.
//! * `seq` — per-connection sequence number. Worker requests carry a
//!   monotonically increasing counter that survives reconnects; replies
//!   echo the request's seq, which is what lets the session layer discard
//!   duplicated replies and resend cached ones idempotently.
//! * `crc` — CRC-32 (IEEE) over `type, len, seq, payload`. A mismatch is
//!   [`CodecError::BadCrc`]: the frame was damaged in flight and the
//!   connection must be torn down and resumed, never trusted.
//!
//! Floats cross the wire via `to_le_bytes`/`from_le_bytes`, so parameter
//! payloads are bit-exact round trips — the cross-path conformance pins
//! (`logical.bytes` equality with the sim and threaded paths) depend on
//! that.
//!
//! Every decode failure is an [`Err`], never a panic: the coordinator must
//! treat a garbled peer as a dead peer, not die with it.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use dtrain_nn::ParamSet;
use dtrain_tensor::Tensor;

/// Wire protocol version; bumped on any frame or payload layout change.
/// v2 added the `seq` field and the CRC-32 trailer.
pub const PROTO_VERSION: u8 = 2;

/// Hard cap on a single frame's payload (64 MiB). Large enough for any
/// model this repo trains; small enough that a corrupt length prefix
/// cannot OOM the coordinator.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Why a frame or payload failed to decode.
#[derive(Debug)]
pub enum CodecError {
    /// Transport-level failure (includes clean EOF mid-frame).
    Io(io::Error),
    /// First byte was not [`PROTO_VERSION`].
    BadVersion(u8),
    /// Length prefix exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload structure didn't match the declared message type.
    Malformed(&'static str),
    /// Unknown message discriminant.
    BadType(u8),
    /// Frame checksum mismatch: the bytes were damaged in flight.
    BadCrc { expected: u32, found: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io: {e}"),
            CodecError::BadVersion(v) => {
                write!(f, "bad protocol version {v} (expected {PROTO_VERSION})")
            }
            CodecError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
            CodecError::BadType(t) => write!(f, "unknown message type {t}"),
            CodecError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Slicing-by-16 lookup tables for IEEE CRC-32 (polynomial `0xEDB88320`,
/// reflected). `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen lookups fold a 16-byte block into the running state at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 over the concatenation of `chunks` (slicing-by-16, no
/// external crates; the values are those of the plain bytewise table
/// loop). Chunked so frame headers and payloads can be summed without
/// copying them into one buffer: the running state carries across chunk
/// boundaries, whatever their lengths.
pub fn crc32(chunks: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for chunk in chunks {
        let (blocks, tail) = chunk.as_chunks::<16>();
        for b in blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in tail {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Write one frame — header, payload and CRC trailer in one vectored
/// write, so a large frame leaves as one send rather than three — then
/// flush.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg_type: u8,
    seq: u32,
    payload: &[u8],
) -> Result<(), CodecError> {
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
    let mut header = [0u8; 10];
    header[0] = PROTO_VERSION;
    header[1] = msg_type;
    header[2..6].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[6..10].copy_from_slice(&seq.to_le_bytes());
    let crc = crc32(&[&header[1..10], payload]).to_le_bytes();
    let mut slices = [
        IoSlice::new(&header),
        IoSlice::new(payload),
        IoSlice::new(&crc),
    ];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one frame; returns `(type, seq, payload)`. The length cap is
/// checked before the payload (or even the seq) is read, so a hostile
/// length prefix can neither allocate nor stall.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, u32, Vec<u8>), CodecError> {
    let mut header = [0u8; 6];
    r.read_exact(&mut header)?;
    if header[0] != PROTO_VERSION {
        return Err(CodecError::BadVersion(header[0]));
    }
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_PAYLOAD {
        return Err(CodecError::Oversized(len));
    }
    let mut seq_bytes = [0u8; 4];
    r.read_exact(&mut seq_bytes)?;
    let seq = u32::from_le_bytes(seq_bytes);
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let found = u32::from_le_bytes(crc_bytes);
    let expected = crc32(&[&header[1..6], &seq_bytes, &payload]);
    if found != expected {
        return Err(CodecError::BadCrc { expected, found });
    }
    Ok((header[1], seq, payload))
}

/// Payload writer: appends primitives to a byte buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Parameter/gradient set: `u32 ntensors`, then per tensor
    /// `u8 rank, rank x u32 dims, product x f32 data`. The exact encoded
    /// size is reserved up front and each tensor's floats are written in
    /// one pass, so a large set never regrows the buffer.
    pub fn params(&mut self, p: &ParamSet) -> &mut Self {
        let size: usize =
            p.0.iter()
                .map(|t| 1 + 4 * t.shape().len() + 4 * t.data().len())
                .sum();
        self.buf.reserve(4 + size);
        self.u32(p.0.len() as u32);
        for t in &p.0 {
            let shape = t.shape();
            self.u8(shape.len() as u8);
            for &d in shape {
                self.u32(d as u32);
            }
            let start = self.buf.len();
            self.buf.resize(start + 4 * t.data().len(), 0);
            for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(t.data()) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
        self
    }

    /// Optional parameter set: `u8` presence flag then the set.
    pub fn opt_params(&mut self, p: Option<&ParamSet>) -> &mut Self {
        match p {
            Some(p) => {
                self.u8(1);
                self.params(p)
            }
            None => self.u8(0),
        }
    }
}

/// Payload reader: consumes primitives from a byte slice; any overrun or
/// inconsistency is a [`CodecError::Malformed`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Payload fully consumed? Call after the last field to reject
    /// trailing garbage.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::Malformed("payload truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn f32(&mut self) -> Result<f32, CodecError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn params(&mut self) -> Result<ParamSet, CodecError> {
        let ntensors = self.u32()? as usize;
        // A tensor costs at least 1 byte of rank on the wire; reject counts
        // the remaining payload cannot possibly hold.
        if ntensors > self.buf.len().saturating_sub(self.pos) {
            return Err(CodecError::Malformed("tensor count exceeds payload"));
        }
        let mut tensors = Vec::with_capacity(ntensors);
        for _ in 0..ntensors {
            let rank = self.u8()? as usize;
            let mut shape = Vec::with_capacity(rank);
            let mut len = 1usize;
            for _ in 0..rank {
                let d = self.u32()? as usize;
                len = len
                    .checked_mul(d)
                    .ok_or(CodecError::Malformed("dim overflow"))?;
                shape.push(d);
            }
            // One bounds-checked take for the whole tensor: a length the
            // payload cannot hold errors before anything is allocated.
            // `checked_mul`, because release builds do not trap overflow.
            let nbytes = len
                .checked_mul(4)
                .ok_or(CodecError::Malformed("tensor data exceeds payload"))?;
            let data: Vec<f32> = self
                .take(nbytes)?
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            tensors.push(Tensor::from_vec(&shape, data));
        }
        Ok(ParamSet(tensors))
    }

    pub fn opt_params(&mut self) -> Result<Option<ParamSet>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.params()?)),
            _ => Err(CodecError::Malformed("bad presence flag")),
        }
    }
}
