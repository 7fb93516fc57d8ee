//! Length-prefixed, CRC-checksummed binary frames plus little-endian
//! scalar/buffer primitives — the shared codec layer under the binary CSR
//! format and `gee-serve`'s durability subsystem (write-ahead log and
//! checkpoint files).
//!
//! A *frame* on disk is
//!
//! ```text
//! len     : u32 LE   payload byte count
//! crc32   : u32 LE   CRC-32 (IEEE 802.3) of the payload
//! payload : len bytes
//! ```
//!
//! [`read_frame`] distinguishes the failure modes a durable log cares
//! about: a clean end of stream ([`FrameError::Eof`]), a stream that ends
//! *inside* a frame ([`FrameError::TornTail`] — the signature of a torn
//! write, recoverable by truncation), and a complete frame whose checksum
//! does not match ([`FrameError::BadCrc`] — the signature of corruption,
//! not recoverable). Payloads are built and parsed with the [`put_*`]
//! helpers and [`Cursor`], which never panic on malformed input: every
//! shape violation is a typed [`FrameError::Malformed`].
//!
//! [`put_*`]: put_u32

use std::io::{Read, Write};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven and
/// sliced by 8: eight independent lookups per 8 input bytes instead of a
/// chain of eight dependent ones, several times faster on the
/// hundred-megabyte checkpoint payloads recovery verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[j][i]` is the
/// CRC of byte `i` followed by `j` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// How reading a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream: zero bytes where the next frame would start.
    Eof,
    /// The stream ended mid-frame (header or payload incomplete) — a torn
    /// write. `got` of `expected` bytes were present.
    TornTail { expected: usize, got: usize },
    /// A complete frame whose payload checksum mismatched — corruption.
    BadCrc { stored: u32, computed: u32 },
    /// The length prefix exceeds the caller's cap.
    TooLong { len: usize, max: usize },
    /// A payload that decoded to an impossible shape (bad tag, count
    /// overrunning the buffer, invalid UTF-8, trailing bytes, …).
    Malformed { detail: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::TornTail { expected, got } => {
                write!(
                    f,
                    "torn frame: stream ended after {got} of {expected} bytes"
                )
            }
            FrameError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::TooLong { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            FrameError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Shorthand for a [`FrameError::Malformed`].
    pub fn malformed(detail: impl Into<String>) -> FrameError {
        FrameError::Malformed {
            detail: detail.into(),
        }
    }
}

/// Write one `[len][crc32][payload]` frame. Streams the payload slice
/// directly (no intermediate copy — a multi-GB checkpoint payload would
/// double peak memory through [`encode_frame`]).
pub fn write_frame<W: Write>(mut w: W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// The exact bytes [`write_frame`] emits, as one buffer — so callers that
/// need all-or-nothing appends (or fault injection at byte granularity)
/// can manage the write themselves.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Read one frame, returning its verified payload. `max_len` bounds the
/// allocation a hostile/corrupt length prefix could demand.
pub fn read_frame<R: Read>(mut r: R, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut head = [0u8; 8];
    let got = read_up_to(&mut r, &mut head)?;
    if got == 0 {
        return Err(FrameError::Eof);
    }
    if got < head.len() {
        return Err(FrameError::TornTail {
            expected: head.len(),
            got,
        });
    }
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(FrameError::TooLong { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    let got = read_up_to(&mut r, &mut payload)?;
    if got < len {
        return Err(FrameError::TornTail { expected: len, got });
    }
    let computed = crc32(&payload);
    if computed != stored {
        return Err(FrameError::BadCrc { stored, computed });
    }
    Ok(payload)
}

/// Fill `buf` as far as the stream allows; returns bytes read (< len only
/// at end of stream). Retries `Interrupted`. Public so readers of other
/// framed formats (e.g. WAL segment headers) share the same torn-tail
/// detection loop.
pub fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read one little-endian `u64` (shared with the binary CSR reader).
pub fn read_u64<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

// ---- payload building -------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, x: u8) {
    buf.push(x);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `i32`.
pub fn put_i32(buf: &mut Vec<u8>, x: i32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern (bit-exact, NaN and
/// all).
pub fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Append a UTF-8 string as `u32` length + bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---- payload parsing ---------------------------------------------------

/// A bounds-checked, panic-free reader over a frame payload.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start parsing `buf` at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read `n` raw bytes — for decoding a run of fixed-size items at
    /// once instead of one bounds check per field.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::malformed(format!(
                "{what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn take_u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self, what: &str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self, what: &str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian `i32`.
    pub fn take_i32(&mut self, what: &str) -> Result<i32, FrameError> {
        Ok(i32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read an `f64` from its little-endian bit pattern.
    pub fn take_f64(&mut self, what: &str) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Read a `u32`-length-prefixed UTF-8 string, rejecting lengths
    /// beyond `max_len`.
    pub fn take_str(&mut self, max_len: usize, what: &str) -> Result<String, FrameError> {
        let len = self.take_u32(what)? as usize;
        if len > max_len {
            return Err(FrameError::malformed(format!(
                "{what}: string length {len} exceeds cap {max_len}"
            )));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::malformed(format!("{what}: invalid UTF-8")))
    }

    /// Read a count that claims `count` items of at least `min_item_size`
    /// bytes each, rejecting counts the remaining buffer cannot hold (so a
    /// corrupt count can never drive a huge allocation).
    pub fn take_count(&mut self, min_item_size: usize, what: &str) -> Result<usize, FrameError> {
        let count = self.take_u32(what)? as usize;
        if count.saturating_mul(min_item_size) > self.remaining() {
            return Err(FrameError::malformed(format!(
                "{what}: count {count} overruns remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Assert every byte was consumed (trailing garbage is corruption).
    pub fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Reference values of the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The sliced loop agrees with the one-byte-at-a-time definition at
    /// every length and alignment, so every checksum already on disk
    /// still verifies.
    #[test]
    fn sliced_crc32_matches_bytewise() {
        let bytewise = |bytes: &[u8]| {
            let mut c = !0u32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bytewise(&data[start..end]));
            }
        }
    }

    #[test]
    fn frame_round_trip() {
        for payload in [&b""[..], b"x", b"hello frame", &[0u8; 1000][..]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            let back = read_frame(buf.as_slice(), 1 << 20).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn multiple_frames_then_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"one");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"two");
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Eof)));
    }

    #[test]
    fn every_truncation_is_a_torn_tail() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&buf[..cut], 64).unwrap_err();
            assert!(
                matches!(err, FrameError::TornTail { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_bad_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        for i in 8..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    read_frame(bad.as_slice(), 64),
                    Err(FrameError::BadCrc { .. })
                ),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn flipped_crc_byte_is_bad_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[5] ^= 0xFF;
        assert!(matches!(
            read_frame(buf.as_slice(), 64),
            Err(FrameError::BadCrc { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u32(&mut buf, 0);
        assert!(matches!(
            read_frame(buf.as_slice(), 1 << 20),
            Err(FrameError::TooLong { .. })
        ));
    }

    #[test]
    fn cursor_round_trips_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX);
        put_i32(&mut buf, -5);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "héllo 🦀");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.take_u8("a").unwrap(), 7);
        assert_eq!(c.take_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.take_u64("c").unwrap(), u64::MAX);
        assert_eq!(c.take_i32("d").unwrap(), -5);
        assert!(c.take_f64("e").unwrap().is_nan());
        assert_eq!(c.take_str(64, "f").unwrap(), "héllo 🦀");
        c.finish("test").unwrap();
    }

    #[test]
    fn cursor_rejects_overrun_count_and_trailing_bytes() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000); // claims a million 8-byte items
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.take_count(8, "items"),
            Err(FrameError::Malformed { .. })
        ));
        let buf = [0u8; 3];
        let c = Cursor::new(&buf);
        assert!(matches!(c.finish("t"), Err(FrameError::Malformed { .. })));
    }

    #[test]
    fn cursor_rejects_bad_utf8() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.take_str(64, "s"),
            Err(FrameError::Malformed { .. })
        ));
    }
}
