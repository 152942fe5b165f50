//! Sealed segment files.
//!
//! A segment is immutable once written (tmp + fsync + rename). Layout
//! (format v5):
//!
//! ```text
//! [magic u32][version u32][row_count u32]
//! [len u32][crc u32][rows]
//! ```
//!
//! The one CRC-framed block holds the rows back to back, each encoded by
//! [`Row::encode`] exactly as a WAL frame's payload. Any failure — a
//! version other than v5 included — makes the whole file [`Corrupt`] and
//! the store quarantines it (records are recomputable by construction, so
//! quarantine granularity is the file).

use crate::codec::{Corrupt, Dec, DecResult, Enc};
use crate::wal::Row;

/// File magic (`"ASEG"` little-endian).
const SEG_MAGIC: u32 = 0x4745_5341;
/// The one format version read and written: one block of WAL-payload rows.
const SEG_VERSION: u32 = 5;

/// Encodes a segment image holding `rows` in order.
pub(crate) fn encode_segment(rows: &[Row]) -> Vec<u8> {
    let mut out = Enc::new();
    out.u32(SEG_MAGIC);
    out.u32(SEG_VERSION);
    out.u32(u32::try_from(rows.len()).expect("row count fits u32"));
    let mut block = Enc::new();
    rows.iter().for_each(|row| row.encode(&mut block));
    out.framed(&block.finish());
    out.finish()
}

/// Decodes and fully validates a segment image.
pub(crate) fn decode_segment(data: &[u8]) -> DecResult<Vec<Row>> {
    let mut dec = Dec::new(data);
    if dec.u32()? != SEG_MAGIC || dec.u32()? != SEG_VERSION {
        return Err(Corrupt);
    }
    let count = dec.u32()?;
    let mut block = Dec::new(dec.framed()?);
    dec.done()?;
    let rows = (0..count)
        .map(|_| Row::decode(&mut block))
        .collect::<DecResult<Vec<Row>>>()?;
    block.done()?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{value_fp, HotRow};
    use crate::regress::x_fp;
    use crate::wal::encode_frame;

    fn rows(n: u64) -> Vec<Row> {
        (0..n)
            .map(|i| Row {
                key: format!("{i:016x}"),
                hot: HotRow {
                    workload: if i % 2 == 0 { "cc-urand" } else { "bfs-urand" }.to_string(),
                    footprint_mb: 16 << (i % 3),
                    page_size: ["4K", "2M", "1G"][i as usize % 3].to_string(),
                    arch: if i % 3 == 0 { "baseline" } else { "victima" }.to_string(),
                    wcpi_fp: value_fp(0.1 * (i + 1) as f64),
                    x_fp: x_fp(4.0 + i as f64 * 0.3),
                },
                raw_lz: crate::lz::compress(format!(r#"{{"seed":{i}}}"#).as_bytes()),
            })
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rows = rows(7);
        let image = encode_segment(&rows);
        assert_eq!(decode_segment(&image).unwrap(), rows);
        // Each row is a WAL frame's payload: the image is the 12-byte
        // header, one 8-byte block header, and the frames minus theirs.
        let frames: usize = rows.iter().map(|r| encode_frame(r).len() - 12).sum();
        assert_eq!(image.len(), 12 + 8 + frames);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let image = encode_segment(&[]);
        assert!(decode_segment(&image).unwrap().is_empty());
    }

    #[test]
    fn a_v3_header_is_corrupt() {
        let mut image = encode_segment(&rows(3));
        for older in [3u32, 4] {
            image[4..8].copy_from_slice(&older.to_le_bytes());
            assert_eq!(decode_segment(&image), Err(Corrupt), "v{older}");
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let image = encode_segment(&rows(3));
        // Exhaustive over bytes, one bit each — magic, lengths, CRCs,
        // payloads: every flip must be caught, none may panic.
        for byte in 0..image.len() {
            let mut damaged = image.clone();
            damaged[byte] ^= 1 << (byte % 8);
            assert_eq!(
                decode_segment(&damaged),
                Err(Corrupt),
                "flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn sampled_bit_flips_in_a_large_block_are_detected() {
        // A block long enough that the CRC's 16-byte loop does nearly all
        // the work: the first and last 64 bytes in full (header, lengths,
        // CRC, the tail), and every 4093rd byte, a prime stride that walks
        // every position within a 16-byte chunk.
        let image = encode_segment(&rows(1024));
        assert!(image.len() >= 64 << 10, "{} bytes", image.len());
        let bytes = (0..64)
            .chain((0..image.len()).step_by(4093))
            .chain(image.len() - 64..image.len());
        for byte in bytes {
            let mut damaged = image.clone();
            damaged[byte] ^= 1 << (byte % 8);
            assert_eq!(
                decode_segment(&damaged),
                Err(Corrupt),
                "flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let image = encode_segment(&rows(2));
        for cut in 0..image.len() {
            assert_eq!(decode_segment(&image[..cut]), Err(Corrupt), "cut {cut}");
        }
        // Trailing garbage is corruption too.
        let mut padded = image;
        padded.push(0);
        assert_eq!(decode_segment(&padded), Err(Corrupt));
    }
}
