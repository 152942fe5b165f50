//! Little-endian binary codec shared by the WAL and segment formats, plus
//! the CRC-32 frame (`[len u32][crc u32][payload]`) both of them use.
//!
//! The vendored serde stack is JSON-only and Value-tree based; persisting
//! binary rows through it would bloat the files. A ~100-line hand-rolled
//! codec with explicit bounds checks is smaller than the workaround would
//! be.

/// Marker for data that failed structural validation (bounds, CRC, magic,
/// or version). Corruption is never an error the caller propagates — the
/// store quarantines the evidence and recomputes — so the type carries no
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corrupt;

/// Result alias for decode paths.
pub type DecResult<T> = Result<T, Corrupt>;

/// The slice-by-16 tables of the reflected IEEE 802.3 polynomial. Row 0
/// is the bytewise table; row `k` is row `k - 1` advanced by one zero
/// byte, so `CRC_TABLES[k][b]` is the CRC contribution of byte `b` with
/// `k` bytes still to follow it.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) over `data`.
///
/// Slice-by-16 (Kounavis & Berry, ISCC 2005): each 16-byte chunk is 16
/// independent table lookups instead of a chain of 16 dependent ones, and
/// the value is the bytewise loop's, bit for bit.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut bytes: [u8; 16] = chunk.try_into().expect("16-byte chunk");
        for (b, s) in bytes.iter_mut().zip(c.to_le_bytes()) {
            *b ^= s;
        }
        c = bytes
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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

    /// Appends `payload` as a CRC frame: `[len u32][crc u32][payload]`.
    pub fn framed(&mut self, payload: &[u8]) {
        self.u32(u32::try_from(payload.len()).expect("blocks stay under 4 GiB"));
        self.u32(crc32(payload));
        self.buf.extend_from_slice(payload);
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

    /// Reads a CRC frame written by [`Enc::framed`] and returns its
    /// payload; a length past the end or a CRC mismatch is corrupt.
    pub fn framed(&mut self) -> DecResult<&'a [u8]> {
        let len = self.u32()? as usize;
        let crc = self.u32()?;
        let payload = self.take(len)?;
        if crc32(payload) == crc {
            Ok(payload)
        } else {
            Err(Corrupt)
        }
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

    /// The bytewise loop over row 0: one dependent lookup per byte. The
    /// oracle the slice-by-16 kernel must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` bytes of a seeded xorshift64 stream.
    fn random_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // 43 bytes: two 16-byte chunks and an 11-byte tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle() {
        // Every length through 1 KiB at every start offset mod 16: the
        // 16-byte loop, each tail length, and unaligned slices.
        let buf = random_bytes(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        let big = random_bytes(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
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
    fn frames_roundtrip_and_reject_a_bad_crc() {
        let mut enc = Enc::new();
        enc.framed(b"payload");
        let mut bytes = enc.finish();
        assert_eq!(Dec::new(&bytes).framed(), Ok(&b"payload"[..]));
        bytes[9] ^= 1;
        assert_eq!(Dec::new(&bytes).framed(), Err(Corrupt));
        assert_eq!(Dec::new(&bytes[..10]).framed(), Err(Corrupt));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut enc = Enc::new();
        enc.bytes(&[0xFF, 0xFE]);
        assert_eq!(Dec::new(&enc.finish()).str(), Err(Corrupt));
    }
}
