//! The active write-ahead log: one CRC-framed row per committed record.
//!
//! Appends go here first (write + fsync) and are folded into the in-memory
//! index and live aggregate; once the log accumulates a segment's worth of
//! rows it is sealed into a columnar segment file and truncated. On open
//! the log is scanned front to back; the first frame that fails its magic,
//! bounds, or CRC check marks a torn tail — everything from there on is
//! quarantined to a `.corrupt` sidecar and the file is truncated back to
//! the last intact frame: the rows it held are misses, recomputed on
//! demand.

use crate::aggregate::HotRow;
use crate::codec::{crc32, Corrupt, Dec, DecResult, Enc};

/// Frame magic (`"AWL3"` little-endian): frames carrying the six hot
/// columns. A frame under any other magic — the `"AWAL"` (v1) and
/// `"AWL2"` (v2) frames of older stores included — fails the scan like a
/// torn frame, so an older log is quarantined whole and its rows are
/// recomputed.
const WAL_MAGIC: u32 = 0x334C_5741;

/// One committed row: the dedup key, the hot columns, and the
/// LZ-compressed raw record JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalEntry {
    pub key: String,
    pub hot: HotRow,
    pub raw_lz: Vec<u8>,
}

/// Encodes one entry as a self-delimiting frame:
/// `[magic u32][len u32][crc u32][payload]`.
pub(crate) fn encode_entry(entry: &WalEntry) -> Vec<u8> {
    let mut payload = Enc::new();
    payload.str(&entry.key);
    entry.hot.encode(&mut payload);
    payload.bytes(&entry.raw_lz);
    let payload = payload.finish();
    let mut frame = Enc::new();
    frame.u32(WAL_MAGIC);
    frame.u32(u32::try_from(payload.len()).expect("rows stay under 4 GiB"));
    frame.u32(crc32(&payload));
    let mut out = frame.finish();
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8]) -> DecResult<WalEntry> {
    let mut dec = Dec::new(payload);
    let entry = WalEntry {
        key: dec.str()?,
        hot: HotRow::decode(&mut dec)?,
        raw_lz: dec.bytes()?,
    };
    dec.done()?;
    Ok(entry)
}

/// The result of scanning a WAL image.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Intact entries, in append order.
    pub entries: Vec<WalEntry>,
    /// Byte length of the intact prefix (truncate the file to this).
    pub good_bytes: u64,
    /// The torn tail past the intact prefix, if any (quarantine this).
    pub torn_tail: Option<Vec<u8>>,
}

/// Scans a WAL image front to back, stopping at the first damaged frame.
pub(crate) fn scan(data: &[u8]) -> WalScan {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    loop {
        match next_entry(data, pos) {
            Ok(Some((entry, end))) => {
                entries.push(entry);
                pos = end;
            }
            Ok(None) => {
                return WalScan {
                    entries,
                    good_bytes: pos as u64,
                    torn_tail: None,
                }
            }
            Err(Corrupt) => {
                return WalScan {
                    entries,
                    good_bytes: pos as u64,
                    torn_tail: Some(data[pos..].to_vec()),
                }
            }
        }
    }
}

/// One frame at `pos`: `Ok(Some((entry, next_pos)))`, `Ok(None)` at a
/// clean end, `Err` on a torn or corrupt frame.
fn next_entry(data: &[u8], pos: usize) -> DecResult<Option<(WalEntry, usize)>> {
    if pos == data.len() {
        return Ok(None);
    }
    let mut dec = Dec::new(&data[pos..]);
    if dec.u32()? != WAL_MAGIC {
        return Err(Corrupt);
    }
    let len = dec.u32()? as usize;
    let crc = dec.u32()?;
    let header = 12usize;
    let end = pos.checked_add(header + len).ok_or(Corrupt)?;
    if end > data.len() {
        return Err(Corrupt);
    }
    let payload = &data[pos + header..end];
    if crc32(payload) != crc {
        return Err(Corrupt);
    }
    Ok(Some((decode_payload(payload)?, end)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::x_fp;
    use crate::sketch::value_fp;

    fn entry(key: &str, seed: u64) -> WalEntry {
        WalEntry {
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

    fn image(entries: &[WalEntry]) -> Vec<u8> {
        entries.iter().flat_map(encode_entry).collect()
    }

    #[test]
    fn scan_roundtrips_intact_logs() {
        let entries = vec![entry("a", 1), entry("b", 2), entry("a", 3)];
        let data = image(&entries);
        let scan = scan(&data);
        assert_eq!(scan.entries, entries);
        assert_eq!(scan.good_bytes, data.len() as u64);
        assert!(scan.torn_tail.is_none());
        assert!(super::scan(&[]).entries.is_empty());
    }

    #[test]
    fn truncation_at_every_offset_keeps_the_intact_prefix() {
        let entries = vec![entry("a", 1), entry("b", 2)];
        let data = image(&entries);
        let first_len = encode_entry(&entries[0]).len();
        for cut in 0..data.len() {
            let scan = scan(&data[..cut]);
            let expect_full = cut / first_len; // frames are equal-sized here
            assert_eq!(scan.entries.len(), expect_full.min(2), "cut at {cut}");
            if cut % first_len != 0 {
                assert!(scan.torn_tail.is_some(), "cut at {cut} leaves a tail");
            }
            assert!(scan.good_bytes <= cut as u64);
        }
    }

    #[test]
    fn a_v2_frame_is_corrupt() {
        // An `"AWL2"` frame: intact length and CRC, the previous magic.
        let mut frame = encode_entry(&entry("a", 1));
        frame[0..4].copy_from_slice(&0x324C_5741u32.to_le_bytes());
        let scan = scan(&frame);
        assert!(scan.entries.is_empty());
        assert_eq!(scan.good_bytes, 0);
        assert_eq!(scan.torn_tail, Some(frame));
    }

    #[test]
    fn bit_flips_quarantine_the_tail_not_the_prefix() {
        let entries = vec![entry("a", 1), entry("b", 2), entry("c", 3)];
        let data = image(&entries);
        let frame = encode_entry(&entries[0]).len();
        // Flip a bit inside the second frame: first survives, rest is tail.
        let mut damaged = data.clone();
        damaged[frame + frame / 2] ^= 0x10;
        let scan = scan(&damaged);
        assert_eq!(scan.entries, entries[..1]);
        assert_eq!(scan.good_bytes, frame as u64);
        let tail = scan.torn_tail.expect("damage leaves a tail");
        assert_eq!(tail.len(), damaged.len() - frame);
    }
}
