//! Little-endian binary codec shared by the WAL and segment formats, plus
//! the CRC-32 used to frame every block.
//!
//! The vendored serde stack is JSON-only and Value-tree based; persisting
//! columnar blocks through it would bloat the files. A ~100-line
//! hand-rolled codec with explicit bounds checks is smaller than the
//! workaround would be.

/// Marker for data that failed structural validation (bounds, CRC, magic,
/// or version). Corruption is never an error the caller propagates — the
/// store quarantines the evidence and recomputes — so the type carries no
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corrupt;

/// Result alias for decode paths.
pub type DecResult<T> = Result<T, Corrupt>;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).expect("blocks stay under 4 GiB"));
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(Corrupt)?;
        if end > self.data.len() {
            return Err(Corrupt);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> DecResult<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> DecResult<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> DecResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| Corrupt)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Succeeds only when every byte was consumed — trailing garbage is
    /// corruption, not padding.
    pub fn done(&self) -> DecResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Corrupt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_every_primitive() {
        let mut enc = Enc::new();
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.i64(-42);
        enc.bytes(b"raw");
        enc.str("cc-urand");
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.i64().unwrap(), -42);
        assert_eq!(dec.bytes().unwrap(), b"raw");
        assert_eq!(dec.str().unwrap(), "cc-urand");
        assert!(dec.done().is_ok());
    }

    #[test]
    fn truncated_and_trailing_inputs_are_corrupt() {
        let mut enc = Enc::new();
        enc.str("key");
        let bytes = enc.finish();
        assert_eq!(Dec::new(&bytes[..bytes.len() - 1]).str(), Err(Corrupt));
        let mut dec = Dec::new(&bytes);
        dec.u32().unwrap(); // consumed the length only
        assert_eq!(dec.done(), Err(Corrupt));
        // A length prefix pointing past the end must not panic.
        let mut huge = Enc::new();
        huge.u32(u32::MAX);
        assert_eq!(Dec::new(&huge.finish()).bytes(), Err(Corrupt));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut enc = Enc::new();
        enc.bytes(&[0xFF, 0xFE]);
        assert_eq!(Dec::new(&enc.finish()).str(), Err(Corrupt));
    }
}
