//! The active write-ahead log, and the one row codec the log and the
//! sealed segments share.
//!
//! Appends go here first (write + fsync) and join the store's in-memory
//! row table; once the log holds a segment's worth of rows they are
//! written out as a sealed segment and the log is truncated. On open the
//! log is scanned front to back; the first frame that fails its magic,
//! bounds, or CRC check marks a torn tail — everything from there on is
//! quarantined to a `.corrupt` sidecar and the file is truncated back to
//! the last intact frame: the rows it held are misses, recomputed on
//! demand.

use crate::aggregate::HotRow;
use crate::codec::{Corrupt, Dec, DecResult, Enc};

/// Frame magic (`"AWL3"` little-endian): frames carrying the six hot
/// columns. A frame under any other magic — the `"AWAL"` (v1) and
/// `"AWL2"` (v2) frames of older stores included — fails the scan like a
/// torn frame, so an older log is quarantined whole and its rows are
/// recomputed.
const WAL_MAGIC: u32 = 0x334C_5741;

/// One committed row: the dedup key, the hot columns, and the
/// LZ-compressed raw record JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Row {
    pub key: String,
    pub hot: HotRow,
    pub raw_lz: Vec<u8>,
}

impl Row {
    /// The row's bytes: a WAL frame's payload, and one row of a segment.
    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.str(&self.key);
        self.hot.encode(enc);
        enc.bytes(&self.raw_lz);
    }

    pub(crate) fn decode(dec: &mut Dec<'_>) -> DecResult<Row> {
        Ok(Row {
            key: dec.str()?,
            hot: HotRow::decode(dec)?,
            raw_lz: dec.bytes()?,
        })
    }
}

/// Encodes one row as a self-delimiting frame:
/// `[magic u32][len u32][crc u32][payload]`.
pub(crate) fn encode_frame(row: &Row) -> Vec<u8> {
    let mut payload = Enc::new();
    row.encode(&mut payload);
    let mut frame = Enc::new();
    frame.u32(WAL_MAGIC);
    frame.framed(&payload.finish());
    frame.finish()
}

/// The result of scanning a WAL image.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Intact rows, in append order.
    pub rows: Vec<Row>,
    /// Byte length of the intact prefix (truncate the file to this).
    pub good_bytes: u64,
    /// The torn tail past the intact prefix, if any (quarantine this).
    pub torn_tail: Option<Vec<u8>>,
}

/// Scans a WAL image front to back, stopping at the first damaged frame.
pub(crate) fn scan(data: &[u8]) -> WalScan {
    let mut rows = Vec::new();
    let mut dec = Dec::new(data);
    while dec.remaining() > 0 {
        let pos = data.len() - dec.remaining();
        match next_row(&mut dec) {
            Ok(row) => rows.push(row),
            Err(Corrupt) => {
                return WalScan {
                    rows,
                    good_bytes: pos as u64,
                    torn_tail: Some(data[pos..].to_vec()),
                }
            }
        }
    }
    WalScan {
        rows,
        good_bytes: data.len() as u64,
        torn_tail: None,
    }
}

/// The frame at the decoder's position, which must hold exactly one row.
fn next_row(dec: &mut Dec<'_>) -> DecResult<Row> {
    if dec.u32()? != WAL_MAGIC {
        return Err(Corrupt);
    }
    let mut payload = Dec::new(dec.framed()?);
    let row = Row::decode(&mut payload)?;
    payload.done()?;
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::value_fp;
    use crate::regress::x_fp;

    fn row(key: &str, seed: u64) -> Row {
        Row {
            key: key.to_string(),
            hot: HotRow {
                workload: "cc-urand".to_string(),
                footprint_mb: 16,
                page_size: "4K".to_string(),
                arch: "baseline".to_string(),
                wcpi_fp: value_fp(0.125 * seed as f64),
                x_fp: x_fp(4.2),
            },
            raw_lz: crate::lz::compress(br#"{"spec":{"seed":1}}"#),
        }
    }

    fn image(rows: &[Row]) -> Vec<u8> {
        rows.iter().flat_map(encode_frame).collect()
    }

    #[test]
    fn scan_roundtrips_intact_logs() {
        let rows = vec![row("a", 1), row("b", 2), row("a", 3)];
        let data = image(&rows);
        let scan = scan(&data);
        assert_eq!(scan.rows, rows);
        assert_eq!(scan.good_bytes, data.len() as u64);
        assert!(scan.torn_tail.is_none());
        assert!(super::scan(&[]).rows.is_empty());
    }

    #[test]
    fn truncation_at_every_offset_keeps_the_intact_prefix() {
        let rows = vec![row("a", 1), row("b", 2)];
        let data = image(&rows);
        let first_len = encode_frame(&rows[0]).len();
        for cut in 0..data.len() {
            let scan = scan(&data[..cut]);
            let expect_full = cut / first_len; // frames are equal-sized here
            assert_eq!(scan.rows.len(), expect_full.min(2), "cut at {cut}");
            if cut % first_len != 0 {
                assert!(scan.torn_tail.is_some(), "cut at {cut} leaves a tail");
            }
            assert!(scan.good_bytes <= cut as u64);
        }
    }

    #[test]
    fn a_v2_frame_is_corrupt() {
        // An `"AWL2"` frame: intact length and CRC, the previous magic.
        let mut frame = encode_frame(&row("a", 1));
        frame[0..4].copy_from_slice(&0x324C_5741u32.to_le_bytes());
        let scan = scan(&frame);
        assert!(scan.rows.is_empty());
        assert_eq!(scan.good_bytes, 0);
        assert_eq!(scan.torn_tail, Some(frame));
    }

    #[test]
    fn bit_flips_quarantine_the_tail_not_the_prefix() {
        let rows = vec![row("a", 1), row("b", 2), row("c", 3)];
        let data = image(&rows);
        let frame = encode_frame(&rows[0]).len();
        // Flip a bit inside the second frame: first survives, rest is tail.
        let mut damaged = data.clone();
        damaged[frame + frame / 2] ^= 0x10;
        let scan = scan(&damaged);
        assert_eq!(scan.rows, rows[..1]);
        assert_eq!(scan.good_bytes, frame as u64);
        let tail = scan.torn_tail.expect("damage leaves a tail");
        assert_eq!(tail.len(), damaged.len() - frame);
    }
}
