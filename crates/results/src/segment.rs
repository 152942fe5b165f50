//! Sealed columnar segment files.
//!
//! A segment is immutable once written (tmp + fsync + rename). Layout
//! (format v4):
//!
//! ```text
//! [magic u32][version u32][row_count u32]
//! 1 key block
//! 6 hot column blocks (fixed schema order: workload, footprint_mb,
//!   page_size, arch, wcpi_fp, x_fp)
//! 1 raw-sidecar block (per-row LZ-compressed raw record JSON)
//! ```
//!
//! Every block is framed `[len u32][crc u32][payload]` and validated on
//! read; any failure — a version other than v4 included — makes the whole
//! file [`Corrupt`] and the store quarantines it (records are recomputable
//! by construction, so quarantine granularity is the file).

use crate::aggregate::HotRow;
use crate::codec::{crc32, Corrupt, Dec, DecResult, Enc};

/// File magic (`"ASEG"` little-endian).
const SEG_MAGIC: u32 = 0x4745_5341;
/// The one format version read and written: key, six hot columns, raw
/// sidecar.
const SEG_VERSION: u32 = 4;

/// A decoded segment: parallel row vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentData {
    pub keys: Vec<String>,
    pub hots: Vec<HotRow>,
    /// Per-row LZ-compressed raw record JSON.
    pub raws: Vec<Vec<u8>>,
}

impl SegmentData {
    pub(crate) fn rows(&self) -> usize {
        self.keys.len()
    }
}

fn push_block(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(
        &(u32::try_from(payload.len()).expect("blocks stay under 4 GiB")).to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn column<F: Fn(&mut Enc, usize)>(rows: usize, write: F) -> Vec<u8> {
    let mut enc = Enc::new();
    for i in 0..rows {
        write(&mut enc, i);
    }
    enc.finish()
}

/// Encodes a segment image from parallel row vectors.
pub(crate) fn encode_segment(keys: &[String], hots: &[HotRow], raws: &[Vec<u8>]) -> Vec<u8> {
    assert_eq!(keys.len(), hots.len());
    assert_eq!(keys.len(), raws.len());
    let rows = keys.len();
    let mut out = Vec::new();
    out.extend_from_slice(&SEG_MAGIC.to_le_bytes());
    out.extend_from_slice(&SEG_VERSION.to_le_bytes());
    out.extend_from_slice(&(u32::try_from(rows).expect("row count fits u32")).to_le_bytes());
    // The key and the six hot column blocks, column-major.
    push_block(&mut out, &column(rows, |e, i| e.str(&keys[i])));
    push_block(&mut out, &column(rows, |e, i| e.str(&hots[i].workload)));
    push_block(&mut out, &column(rows, |e, i| e.u64(hots[i].footprint_mb)));
    push_block(&mut out, &column(rows, |e, i| e.str(&hots[i].page_size)));
    push_block(&mut out, &column(rows, |e, i| e.str(&hots[i].arch)));
    push_block(&mut out, &column(rows, |e, i| e.i64(hots[i].wcpi_fp)));
    push_block(&mut out, &column(rows, |e, i| e.i64(hots[i].x_fp)));
    // Raw sidecar block.
    push_block(&mut out, &column(rows, |e, i| e.bytes(&raws[i])));
    out
}

struct Blocks<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Blocks<'a> {
    fn next(&mut self) -> DecResult<&'a [u8]> {
        if self.pos + 8 > self.data.len() {
            return Err(Corrupt);
        }
        let len = u32::from_le_bytes(
            self.data[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        let crc = u32::from_le_bytes(
            self.data[self.pos + 4..self.pos + 8]
                .try_into()
                .expect("4 bytes"),
        );
        let start = self.pos + 8;
        let end = start.checked_add(len).ok_or(Corrupt)?;
        if end > self.data.len() {
            return Err(Corrupt);
        }
        let payload = &self.data[start..end];
        if crc32(payload) != crc {
            return Err(Corrupt);
        }
        self.pos = end;
        Ok(payload)
    }
}

fn decode_column<'a, T, F: Fn(&mut Dec<'a>) -> DecResult<T>>(
    payload: &'a [u8],
    rows: usize,
    read: F,
) -> DecResult<Vec<T>> {
    let mut dec = Dec::new(payload);
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(read(&mut dec)?);
    }
    dec.done()?;
    Ok(out)
}

/// Decodes and fully validates a segment image.
pub(crate) fn decode_segment(data: &[u8]) -> DecResult<SegmentData> {
    if data.len() < 12 {
        return Err(Corrupt);
    }
    if u32::from_le_bytes(data[0..4].try_into().expect("4 bytes")) != SEG_MAGIC {
        return Err(Corrupt);
    }
    if u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) != SEG_VERSION {
        return Err(Corrupt);
    }
    let rows = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes")) as usize;
    let mut blocks = Blocks { data, pos: 12 };
    let keys = decode_column(blocks.next()?, rows, Dec::str)?;
    let workload = decode_column(blocks.next()?, rows, Dec::str)?;
    let footprint_mb = decode_column(blocks.next()?, rows, Dec::u64)?;
    let page_size = decode_column(blocks.next()?, rows, Dec::str)?;
    let arch = decode_column(blocks.next()?, rows, Dec::str)?;
    let wcpi_fp = decode_column(blocks.next()?, rows, Dec::i64)?;
    let x_fp = decode_column(blocks.next()?, rows, Dec::i64)?;
    let raws = decode_column(blocks.next()?, rows, Dec::bytes)?;
    if blocks.pos != data.len() {
        return Err(Corrupt);
    }
    let hots = workload
        .into_iter()
        .zip(page_size)
        .zip(arch)
        .enumerate()
        .map(|(i, ((workload, page_size), arch))| HotRow {
            workload,
            footprint_mb: footprint_mb[i],
            page_size,
            arch,
            wcpi_fp: wcpi_fp[i],
            x_fp: x_fp[i],
        })
        .collect();
    Ok(SegmentData { keys, hots, raws })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::x_fp;
    use crate::sketch::value_fp;

    fn rows(n: u64) -> (Vec<String>, Vec<HotRow>, Vec<Vec<u8>>) {
        let mut keys = Vec::new();
        let mut hots = Vec::new();
        let mut raws = Vec::new();
        for i in 0..n {
            keys.push(format!("{i:016x}"));
            hots.push(HotRow {
                workload: if i % 2 == 0 { "cc-urand" } else { "bfs-urand" }.to_string(),
                footprint_mb: 16 << (i % 3),
                page_size: ["4K", "2M", "1G"][i as usize % 3].to_string(),
                arch: if i % 3 == 0 { "baseline" } else { "victima" }.to_string(),
                wcpi_fp: value_fp(0.1 * (i + 1) as f64),
                x_fp: x_fp(4.0 + i as f64 * 0.3),
            });
            raws.push(crate::lz::compress(format!(r#"{{"seed":{i}}}"#).as_bytes()));
        }
        (keys, hots, raws)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (keys, hots, raws) = rows(7);
        let image = encode_segment(&keys, &hots, &raws);
        let seg = decode_segment(&image).unwrap();
        assert_eq!(seg.keys, keys);
        assert_eq!(seg.hots, hots);
        assert_eq!(seg.raws, raws);
        assert_eq!(seg.rows(), 7);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let image = encode_segment(&[], &[], &[]);
        let seg = decode_segment(&image).unwrap();
        assert_eq!(seg.rows(), 0);
    }

    #[test]
    fn a_v3_header_is_corrupt() {
        let (keys, hots, raws) = rows(3);
        let mut image = encode_segment(&keys, &hots, &raws);
        image[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_segment(&image), Err(Corrupt));
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let (keys, hots, raws) = rows(3);
        let image = encode_segment(&keys, &hots, &raws);
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
    fn truncation_is_detected() {
        let (keys, hots, raws) = rows(2);
        let image = encode_segment(&keys, &hots, &raws);
        for cut in 0..image.len() {
            assert_eq!(decode_segment(&image[..cut]), Err(Corrupt), "cut {cut}");
        }
        // Trailing garbage is corruption too.
        let mut padded = image;
        padded.push(0);
        assert_eq!(decode_segment(&padded), Err(Corrupt));
    }
}
