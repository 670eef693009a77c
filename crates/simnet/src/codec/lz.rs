//! Hand-rolled block compression for residual full-block sends:
//! run-length and LZ77-style back-references, no dependencies.
//!
//! A compressed block is a self-describing frame (DESIGN.md §15):
//!
//! ```text
//! [scheme: u8][payload_len: u32 LE][payload]
//! ```
//!
//! The encoder keeps the smallest of three schemes, so a frame is never
//! larger than `raw + HEADER` bytes (`SCHEME_RAW` carries the block
//! verbatim). The decoder needs nothing but the frame: `RLE` payloads
//! are `[run: u32 LE][byte]` pairs, `LZ` payloads are LZ4-like sequences
//! (token of literal/match nibbles with 255-chain extensions, literals,
//! 2-byte little-endian back-reference offset).
//!
//! The hot loops are word-wide and allocation-free, and the frames they
//! emit are pinned byte for byte to a byte-at-a-time reference twin kept
//! under `#[cfg(test)]`:
//!
//! * **Word-wide match extension.** A match grows eight bytes per step:
//!   XOR two `u64` loads, and on a difference `trailing_zeros / 8` is the
//!   number of bytes that still agree.
//! * **Epoch-stamped hash table.** The 2^13-entry position table lives in
//!   a reusable `Encoder` (one per thread behind [`compress_into`]).
//!   Each block stores `base + pos + 1` and accepts only entries above
//!   its own `base`, which then advances by the block length, so a stale
//!   entry from an earlier block is never a candidate. The table is
//!   zeroed only when `base` would overflow `u32`, not once per block.
//! * **RLE bounded by LZ.** LZ runs first; RLE is then sized by counting
//!   runs without building output, and the count stops as soon as it can
//!   no longer win (RLE is kept only when it is no larger than LZ, as
//!   before). Blocks with many short runs give up after a few runs.
//! * **Append-only decode.** [`decompress_into`] appends to the caller's
//!   buffer and checks every bound against the start of *this* frame, so
//!   a back-reference can never reach into an earlier frame. Overlapping
//!   matches copy in doubling chunks with `extend_from_within`.
//!
//! The run scanner and the all-zero fast path also compare eight bytes
//! per step, so compressing a pristine (zeroed) block costs about one
//! read pass — the `codec_lz_roundtrip` bench gates the round-trip
//! against a memcpy budget.
//!
//! This module sits on the transport receive path (lintkit
//! `no-panic-transport` zone): malformed frames surface as
//! [`CorruptFrame`], never as a panic.

use std::cell::RefCell;
use std::fmt;

/// Bytes of frame header in front of every compressed payload.
pub const HEADER: usize = 5;

/// Scheme byte: payload is the raw block.
pub const SCHEME_RAW: u8 = 0;
/// Scheme byte: payload is `[run: u32 LE][byte]` pairs.
pub const SCHEME_RLE: u8 = 1;
/// Scheme byte: payload is LZ77 sequences.
pub const SCHEME_LZ: u8 = 2;

const MIN_MATCH: usize = 4;
const HASH_LOG: u32 = 13;
/// Bytes of one RLE `[run: u32 LE][byte]` pair.
const RLE_PAIR: usize = 5;

/// A compressed frame failed validation during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptFrame;

impl fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt compressed block frame")
    }
}

impl std::error::Error for CorruptFrame {}

/// Compress one block, choosing the smallest of raw/RLE/LZ. The result
/// always includes the [`HEADER`] and is never longer than
/// `raw.len() + HEADER`.
pub fn compress_block(raw: &[u8]) -> Vec<u8> {
    // Grown on demand: reserving `raw + HEADER` up front would commit a
    // page per ~100-byte frame.
    let mut out = Vec::new();
    compress_into(raw, &mut out);
    out
}

/// Append the frame for one block to `out`: the same bytes
/// [`compress_block`] returns, with no allocation beyond `out`'s growth.
/// Uses this thread's reusable `Encoder`.
pub fn compress_into(raw: &[u8], out: &mut Vec<u8>) {
    thread_local! {
        static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::new());
    }
    let reused = ENCODER
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut enc) => {
                enc.compress_into(raw, out);
                true
            }
            Err(_) => false,
        })
        .unwrap_or(false);
    if !reused {
        // Thread-local storage torn down (or re-entered): a fresh table
        // emits the same frame.
        Encoder::new().compress_into(raw, out);
    }
}

/// Decode one frame produced by [`compress_block`]. `max_out` bounds
/// the decompressed size (callers pass the negotiated block size), so a
/// corrupt frame cannot balloon memory.
///
/// Returns the decompressed bytes and the total frame length consumed.
pub fn decompress_block(frame: &[u8], max_out: usize) -> Result<(Vec<u8>, usize), CorruptFrame> {
    let mut out = Vec::new();
    let used = decompress_into(frame, max_out, &mut out)?;
    Ok((out, used))
}

/// Decode the frame at the start of `frame`, appending at most `max_out`
/// bytes to `out`; returns the frame length consumed. Accepts and
/// rejects exactly what [`decompress_block`] does: every bound is
/// checked against this frame's own output, never against bytes already
/// in `out`. On error `out` is left as it was.
pub fn decompress_into(
    frame: &[u8],
    max_out: usize,
    out: &mut Vec<u8>,
) -> Result<usize, CorruptFrame> {
    let start = out.len();
    let res = decode_frame(frame, max_out, out, start);
    if res.is_err() {
        out.truncate(start);
    }
    res
}

fn decode_frame(
    frame: &[u8],
    max_out: usize,
    out: &mut Vec<u8>,
    start: usize,
) -> Result<usize, CorruptFrame> {
    let (&scheme, rest) = frame.split_first().ok_or(CorruptFrame)?;
    let plen = rest
        .get(..4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map(u32::from_le_bytes)
        .ok_or(CorruptFrame)? as usize;
    let payload = rest
        .get(4..)
        .and_then(|p| p.get(..plen))
        .ok_or(CorruptFrame)?;
    match scheme {
        SCHEME_RAW => {
            if payload.len() > max_out {
                return Err(CorruptFrame);
            }
            out.extend_from_slice(payload);
        }
        SCHEME_RLE => rle_decode(payload, max_out, out, start)?,
        SCHEME_LZ => lz_decode(payload, max_out, out, start)?,
        _ => return Err(CorruptFrame),
    }
    Ok(HEADER + plen)
}

/// Reusable encoder state: the LZ hash table and its epoch base.
///
/// Table entries hold `base + pos + 1` for the block that wrote them;
/// a block accepts only entries above its own `base`, and `base` then
/// advances by the block length, so nothing from an earlier block is
/// ever a candidate. That makes a reused table emit exactly what a
/// freshly zeroed one would.
struct Encoder {
    table: Vec<u32>,
    base: u32,
}

impl Encoder {
    fn new() -> Self {
        Self {
            table: vec![0; 1 << HASH_LOG],
            base: 0,
        }
    }

    /// Append one frame for `raw` to `out`.
    fn compress_into(&mut self, raw: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[SCHEME_LZ; HEADER]);
        let lz = self.lz_into(raw, out);
        // RLE is kept when it is no larger than LZ, and otherwise only
        // when it beats raw: that is its whole budget.
        let budget = lz.unwrap_or(raw.len().saturating_sub(1));
        let (scheme, plen) = if let Some(r) = rle_len(raw, budget) {
            out.truncate(start + HEADER);
            rle_into(raw, out);
            (SCHEME_RLE, r)
        } else if let Some(l) = lz {
            (SCHEME_LZ, l)
        } else {
            out.truncate(start + HEADER);
            out.extend_from_slice(raw);
            (SCHEME_RAW, raw.len())
        };
        if let Some(h) = out.get_mut(start..start + HEADER) {
            h[0] = scheme;
            h[1..].copy_from_slice(&(plen as u32).to_le_bytes());
        }
    }

    /// Open a new epoch for an `n`-byte block and return its base.
    fn epoch(&mut self, n: usize) -> u32 {
        let span = u32::try_from(n).unwrap_or(u32::MAX);
        if self.base.checked_add(span).is_none() {
            self.table.fill(0);
            self.base = 0;
        }
        let base = self.base;
        self.base = base.saturating_add(span);
        base
    }

    /// Greedy LZ77 with a 4-byte hash table and 16-bit offsets, appended
    /// to `out`; returns the payload length, or `None` (with `out` holding
    /// a partial payload) when the input is tiny or the result would not
    /// beat raw.
    fn lz_into(&mut self, src: &[u8], out: &mut Vec<u8>) -> Option<usize> {
        let n = src.len();
        if n < MIN_MATCH + 4 {
            return None;
        }
        // Hash into the first 2^hash_log slots: small inputs keep the
        // small table (and hence the exact frames) they always had.
        let hash_log = HASH_LOG.min(usize::BITS - n.leading_zeros());
        let base = self.epoch(n);
        let payload = out.len();
        let mut anchor = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= n {
            let seq = load32(src, i);
            let h = (seq.wrapping_mul(0x9E37_79B1) >> (32 - hash_log)) as usize;
            let slot = self.table.get_mut(h)?;
            let stamp = *slot;
            *slot = base.wrapping_add(i as u32).wrapping_add(1);
            if stamp > base {
                let c = (stamp - base - 1) as usize;
                let off = i.wrapping_sub(c);
                if off > 0 && off <= usize::from(u16::MAX) && load32(src, c) == seq {
                    let mlen = MIN_MATCH + common_len(src, c + MIN_MATCH, i + MIN_MATCH);
                    let lits = src.get(anchor..i).unwrap_or_default();
                    let mext = mlen - MIN_MATCH;
                    out.push(((lits.len().min(15) as u8) << 4) | mext.min(15) as u8);
                    if lits.len() >= 15 {
                        push_len(out, lits.len() - 15);
                    }
                    out.extend_from_slice(lits);
                    out.extend_from_slice(&(off as u16).to_le_bytes());
                    if mext >= 15 {
                        push_len(out, mext - 15);
                    }
                    if out.len() - payload + 1 >= n {
                        return None;
                    }
                    i += mlen;
                    anchor = i;
                    continue;
                }
            }
            i += 1;
        }
        // Final literal-only sequence (possibly empty), sized before it
        // is copied: a block with no matches gives up here for free.
        let lits = src.get(anchor..).unwrap_or_default();
        let ext = if lits.len() >= 15 {
            (lits.len() - 15) / 255 + 1
        } else {
            0
        };
        let len = out.len() - payload + 1 + ext + lits.len();
        if len >= n {
            return None;
        }
        out.push((lits.len().min(15) as u8) << 4);
        if lits.len() >= 15 {
            push_len(out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
        Some(len)
    }
}

/// Little-endian `u32` at `p`; callers keep `p + 4` in bounds.
#[inline(always)]
fn load32(s: &[u8], p: usize) -> u32 {
    s.get(p..p + 4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map_or(0, u32::from_le_bytes)
}

/// Little-endian `u64` at `p`; callers keep `p + 8` in bounds.
#[inline(always)]
fn load64(s: &[u8], p: usize) -> u64 {
    s.get(p..p + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map_or(0, u64::from_le_bytes)
}

/// Bytes that agree between `src[a..]` and `src[b..]` (`a < b`), up to
/// the end of `src`: eight per step, then the tail byte by byte.
#[inline(always)]
fn common_len(src: &[u8], mut a: usize, mut b: usize) -> usize {
    let from = b;
    while b + 8 <= src.len() {
        let x = load64(src, a) ^ load64(src, b);
        if x != 0 {
            return b - from + (x.trailing_zeros() / 8) as usize;
        }
        a += 8;
        b += 8;
    }
    while let (Some(x), Some(y)) = (src.get(a), src.get(b)) {
        if x != y {
            break;
        }
        a += 1;
        b += 1;
    }
    b - from
}

/// End of the run of equal bytes starting at `i` (`i < src.len()`).
#[inline(always)]
fn run_end(src: &[u8], i: usize) -> usize {
    let Some(&byte) = src.get(i) else {
        return i;
    };
    let pat = u64::from(byte) * 0x0101_0101_0101_0101;
    let mut j = i + 1;
    while j + 8 <= src.len() {
        let x = load64(src, j) ^ pat;
        if x != 0 {
            return j + (x.trailing_zeros() / 8) as usize;
        }
        j += 8;
    }
    while src.get(j) == Some(&byte) {
        j += 1;
    }
    j
}

/// RLE payload length of `src`, or `None` once it exceeds `budget`.
fn rle_len(src: &[u8], budget: usize) -> Option<usize> {
    let (mut len, mut i) = (0usize, 0usize);
    while i < src.len() {
        len += RLE_PAIR;
        if len > budget {
            return None;
        }
        i = run_end(src, i);
    }
    Some(len)
}

/// Append the RLE payload of `src` to `out`.
fn rle_into(src: &[u8], out: &mut Vec<u8>) {
    let mut i = 0usize;
    while let Some(&byte) = src.get(i) {
        let j = run_end(src, i);
        out.extend_from_slice(&((j - i) as u32).to_le_bytes());
        out.push(byte);
        i = j;
    }
}

fn rle_decode(
    src: &[u8],
    max_out: usize,
    out: &mut Vec<u8>,
    start: usize,
) -> Result<(), CorruptFrame> {
    for pair in src.chunks(RLE_PAIR) {
        let &[a, b, c, d, byte] = pair else {
            return Err(CorruptFrame);
        };
        let run = u32::from_le_bytes([a, b, c, d]) as usize;
        if run == 0 || out.len() - start + run > max_out {
            return Err(CorruptFrame);
        }
        out.resize(out.len() + run, byte);
    }
    Ok(())
}

/// 255-chain length extension (LZ4 style).
fn push_len(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn read_len(src: &[u8], pos: &mut usize) -> Result<usize, CorruptFrame> {
    let mut total = 0usize;
    loop {
        let &b = src.get(*pos).ok_or(CorruptFrame)?;
        *pos += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
    }
}

fn lz_decode(
    src: &[u8],
    max_out: usize,
    out: &mut Vec<u8>,
    start: usize,
) -> Result<(), CorruptFrame> {
    let mut pos = 0usize;
    while let Some(&token) = src.get(pos) {
        pos += 1;
        let mut lits = (token >> 4) as usize;
        if lits == 15 {
            lits += read_len(src, &mut pos)?;
        }
        let lit_bytes = src.get(pos..pos + lits).ok_or(CorruptFrame)?;
        if out.len() - start + lits > max_out {
            return Err(CorruptFrame);
        }
        out.extend_from_slice(lit_bytes);
        pos += lits;
        if pos == src.len() {
            break;
        }
        let off_bytes = src.get(pos..pos + 2).ok_or(CorruptFrame)?;
        let off = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        pos += 2;
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen += read_len(src, &mut pos)?;
        }
        mlen += MIN_MATCH;
        let produced = out.len() - start;
        if off == 0 || off > produced || produced + mlen > max_out {
            return Err(CorruptFrame);
        }
        copy_match(out, off, mlen);
    }
    Ok(())
}

/// Append `mlen` bytes repeating the last `off` bytes of `out`
/// (`0 < off <= out.len()`). Each chunk copies from the fixed match
/// start, so its source is always complete and the copy distance stays
/// a multiple of `off`: chunks of `off`, `off`, `2·off`, `4·off`, …
fn copy_match(out: &mut Vec<u8>, off: usize, mlen: usize) {
    let from = out.len() - off;
    let mut left = mlen;
    while left > 0 {
        let n = left.min(out.len() - from);
        out.extend_from_within(from..from + n);
        left -= n;
    }
}

/// The byte-at-a-time encoder and decoder the word-wide kernel replaced,
/// kept as the reference twin the equivalence tests pin it to.
#[cfg(test)]
mod reference {
    use super::{
        push_len, read_len, CorruptFrame, HASH_LOG, HEADER, MIN_MATCH, SCHEME_LZ, SCHEME_RAW,
        SCHEME_RLE,
    };

    pub fn compress_block(raw: &[u8]) -> Vec<u8> {
        let rle = rle_compress(raw);
        let lz = lz_compress(raw);
        let (scheme, payload) = match (rle, lz) {
            (Some(r), Some(l)) if l.len() < r.len() => (SCHEME_LZ, l),
            (Some(r), _) => (SCHEME_RLE, r),
            (None, Some(l)) => (SCHEME_LZ, l),
            (None, None) => (SCHEME_RAW, Vec::new()),
        };
        let body: &[u8] = if scheme == SCHEME_RAW { raw } else { &payload };
        let mut out = Vec::with_capacity(HEADER + body.len());
        out.push(scheme);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    pub fn decompress_block(
        frame: &[u8],
        max_out: usize,
    ) -> Result<(Vec<u8>, usize), CorruptFrame> {
        let (&scheme, rest) = frame.split_first().ok_or(CorruptFrame)?;
        let len_bytes = rest.get(..4).ok_or(CorruptFrame)?;
        let plen =
            u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        let payload = rest.get(4..4 + plen).ok_or(CorruptFrame)?;
        let out = match scheme {
            SCHEME_RAW => {
                if payload.len() > max_out {
                    return Err(CorruptFrame);
                }
                payload.to_vec()
            }
            SCHEME_RLE => rle_decompress(payload, max_out)?,
            SCHEME_LZ => lz_decompress(payload, max_out)?,
            _ => return Err(CorruptFrame),
        };
        Ok((out, HEADER + plen))
    }

    fn rle_compress(src: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < src.len() {
            let b = src[i];
            let pat = [b; 8];
            let mut j = i + 1;
            while j + 8 <= src.len() && src[j..j + 8] == pat {
                j += 8;
            }
            while j < src.len() && src[j] == b {
                j += 1;
            }
            out.extend_from_slice(&((j - i) as u32).to_le_bytes());
            out.push(b);
            if out.len() >= src.len() {
                return None;
            }
            i = j;
        }
        Some(out)
    }

    fn rle_decompress(src: &[u8], max_out: usize) -> Result<Vec<u8>, CorruptFrame> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < src.len() {
            let pair = src.get(pos..pos + 5).ok_or(CorruptFrame)?;
            let run = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
            if run == 0 || out.len() + run > max_out {
                return Err(CorruptFrame);
            }
            out.resize(out.len() + run, pair[4]);
            pos += 5;
        }
        Ok(out)
    }

    fn lz_compress(src: &[u8]) -> Option<Vec<u8>> {
        if src.len() < MIN_MATCH + 4 {
            return None;
        }
        let hash_log = HASH_LOG.min(usize::BITS - src.len().leading_zeros());
        let mut table = vec![0u32; 1usize << hash_log];
        let mut out = Vec::with_capacity(src.len() / 2);
        let mut anchor = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= src.len() {
            let seq = u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]);
            let h = (seq.wrapping_mul(0x9E37_79B1) >> (32 - hash_log)) as usize;
            let cand = table[h] as usize;
            table[h] = (i + 1) as u32;
            if cand > 0 {
                let c = cand - 1;
                let off = i - c;
                if off > 0
                    && off <= usize::from(u16::MAX)
                    && src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH]
                {
                    let mut mlen = MIN_MATCH;
                    while i + mlen < src.len() && src[c + mlen] == src[i + mlen] {
                        mlen += 1;
                    }
                    let lits = &src[anchor..i];
                    let mext = mlen - MIN_MATCH;
                    out.push(((lits.len().min(15) as u8) << 4) | mext.min(15) as u8);
                    if lits.len() >= 15 {
                        push_len(&mut out, lits.len() - 15);
                    }
                    out.extend_from_slice(lits);
                    out.extend_from_slice(&(off as u16).to_le_bytes());
                    if mext >= 15 {
                        push_len(&mut out, mext - 15);
                    }
                    if out.len() + 1 >= src.len() {
                        return None;
                    }
                    i += mlen;
                    anchor = i;
                    continue;
                }
            }
            i += 1;
        }
        let lits = &src[anchor..];
        out.push((lits.len().min(15) as u8) << 4);
        if lits.len() >= 15 {
            push_len(&mut out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
        if out.len() >= src.len() {
            None
        } else {
            Some(out)
        }
    }

    fn lz_decompress(src: &[u8], max_out: usize) -> Result<Vec<u8>, CorruptFrame> {
        let mut out: Vec<u8> = Vec::new();
        let mut pos = 0usize;
        while pos < src.len() {
            let &token = src.get(pos).ok_or(CorruptFrame)?;
            pos += 1;
            let mut lits = (token >> 4) as usize;
            if lits == 15 {
                lits += read_len(src, &mut pos)?;
            }
            let lit_bytes = src.get(pos..pos + lits).ok_or(CorruptFrame)?;
            if out.len() + lits > max_out {
                return Err(CorruptFrame);
            }
            out.extend_from_slice(lit_bytes);
            pos += lits;
            if pos == src.len() {
                break;
            }
            let off_bytes = src.get(pos..pos + 2).ok_or(CorruptFrame)?;
            let off = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
            pos += 2;
            let mut mlen = (token & 0x0F) as usize;
            if mlen == 15 {
                mlen += read_len(src, &mut pos)?;
            }
            mlen += MIN_MATCH;
            if off == 0 || off > out.len() || out.len() + mlen > max_out {
                return Err(CorruptFrame);
            }
            let start = out.len() - off;
            for k in 0..mlen {
                let Some(&b) = out.get(start + k) else {
                    return Err(CorruptFrame);
                };
                out.push(b);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }
    }

    fn roundtrip(data: &[u8], bs: usize) {
        let frame = compress_block(data);
        assert!(
            frame.len() <= data.len() + HEADER,
            "bound violated: {}",
            frame.len()
        );
        let (back, used) = decompress_block(&frame, bs).expect("frame decodes");
        assert_eq!(used, frame.len());
        assert_eq!(back, data);
    }

    /// The live guest's block image: a 64-byte-periodic pattern seeded
    /// by block index and stamp, with both embedded verbatim up front.
    fn stamp_block(idx: u64, stamp: u64, len: usize) -> Vec<u8> {
        let seed = idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stamp;
        let mut out: Vec<u8> = (0..len)
            .map(|i| (seed.rotate_left((i % 64) as u32) >> (i % 8)) as u8)
            .collect();
        if len >= 16 {
            out[..8].copy_from_slice(&idx.to_le_bytes());
            out[8..16].copy_from_slice(&stamp.to_le_bytes());
        }
        out
    }

    /// One block of the shape class `case % 5`, `len` bytes long.
    fn sample(rng: &mut Rng, case: usize, len: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(len);
        match case % 5 {
            0 => data = stamp_block(rng.next() % 65_536, rng.next() % 8, len),
            1 => data.resize(len, 0),
            2 => data.extend((0..len).map(|_| rng.next() as u8)),
            3 => {
                while data.len() < len {
                    let run = 1 + rng.below(300);
                    let byte = rng.next() as u8;
                    let n = run.min(len - data.len());
                    data.extend(std::iter::repeat_n(byte, n));
                }
            }
            _ => {
                let motif: Vec<u8> = (0..1 + rng.below(23)).map(|_| rng.next() as u8).collect();
                while data.len() < len {
                    let n = motif.len().min(len - data.len());
                    data.extend_from_slice(&motif[..n]);
                }
            }
        }
        data
    }

    #[test]
    fn zero_block_collapses() {
        let data = vec![0u8; 4096];
        let frame = compress_block(&data);
        assert_eq!(frame[0], SCHEME_RLE);
        assert!(
            frame.len() <= 16,
            "zero block frame was {} bytes",
            frame.len()
        );
        roundtrip(&data, 4096);
    }

    #[test]
    fn repetitive_data_uses_lz_or_rle() {
        let mut data = Vec::new();
        while data.len() < 4096 {
            data.extend_from_slice(b"the same sixteen!");
        }
        data.truncate(4096);
        let frame = compress_block(&data);
        assert!(
            frame.len() < data.len() / 4,
            "compressible data stayed {} bytes",
            frame.len()
        );
        roundtrip(&data, 4096);
    }

    #[test]
    fn incompressible_data_stays_raw_within_bound() {
        let mut rng = Rng(0x243F_6A88_85A3_08D3);
        let data: Vec<u8> = (0..4096).map(|_| rng.next() as u8).collect();
        let frame = compress_block(&data);
        assert_eq!(frame[0], SCHEME_RAW);
        assert_eq!(frame.len(), data.len() + HEADER);
        roundtrip(&data, 4096);
    }

    #[test]
    fn tiny_and_empty_blocks() {
        roundtrip(&[], 4096);
        roundtrip(&[7], 4096);
        roundtrip(&[1, 2, 3, 4, 5, 6, 7], 4096);
    }

    #[test]
    fn property_roundtrip_arbitrary_bytes_within_bound() {
        // Hand-rolled property test (no proptest dep): 300 xorshift-
        // driven blocks mixing stamp images, zeros, pure noise
        // (incompressible — must stay within raw + HEADER), byte runs,
        // and repeated motifs. The `roundtrip` helper asserts both the
        // size bound and bit-exact recovery.
        let mut rng = Rng(0x853C_49E6_748F_EA9B);
        for case in 0..300 {
            let len = rng.below(4500);
            roundtrip(&sample(&mut rng, case, len), 4500);
        }
    }

    #[test]
    fn frames_are_byte_identical_to_the_reference_encoder() {
        // One encoder state reused across thousands of blocks of every
        // shape and length 0..=4500, appending each frame behind the
        // previous ones exactly as a batch payload does: every frame must
        // equal what the reference twin emits from scratch.
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut enc = Encoder::new();
        let mut batch = Vec::new();
        for case in 0..5000 {
            let len = match case % 7 {
                0 => 4096,
                1 => rng.below(16),
                _ => rng.below(4501),
            };
            let data = sample(&mut rng, case, len);
            let at = batch.len();
            enc.compress_into(&data, &mut batch);
            let want = reference::compress_block(&data);
            assert_eq!(&batch[at..], &want[..], "case {case}, {len} bytes");
            assert_eq!(compress_block(&data), want, "case {case}, one-block form");
        }
    }

    #[test]
    fn table_reset_at_epoch_overflow_keeps_frames_identical() {
        let mut rng = Rng(0x0123_4567_89AB_CDEF);
        let mut enc = Encoder::new();
        // Park the epoch just short of u32 overflow with live-looking
        // entries, so the next blocks must zero the table first.
        enc.base = u32::MAX - 6000;
        enc.table.fill(enc.base);
        for case in 0..50 {
            let data = sample(&mut rng, case, 4096);
            let mut out = Vec::new();
            enc.compress_into(&data, &mut out);
            assert_eq!(out, reference::compress_block(&data), "case {case}");
        }
        assert!(enc.base < 50 * 4096, "the epoch wrapped back to zero");
    }

    #[test]
    fn decoder_matches_the_reference_on_mutated_frames() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for case in 0..3000 {
            let len = rng.below(4500);
            let mut frame = compress_block(&sample(&mut rng, case, len));
            match case % 4 {
                0 => {
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(frame.len() as u64);
                        frame[at] ^= 1 << rng.below(8);
                    }
                }
                1 => frame.truncate(rng.below(frame.len() as u64 + 1)),
                2 => {
                    let at = 1 + rng.below(4);
                    if at < frame.len() {
                        frame[at] = rng.next() as u8;
                    }
                }
                _ => frame.extend((0..rng.below(8)).map(|_| rng.next() as u8)),
            }
            let max_out = [len, 4096, 4500][case % 3];
            let want = reference::decompress_block(&frame, max_out);
            assert_eq!(decompress_block(&frame, max_out), want, "case {case}");
            // Appending behind earlier output changes nothing: bounds are
            // this frame's own.
            let mut out = vec![0xEE; 1 + rng.below(5000)];
            let prior = out.clone();
            match (decompress_into(&frame, max_out, &mut out), want) {
                (Ok(used), Ok((bytes, want_used))) => {
                    assert_eq!(used, want_used, "case {case}");
                    assert_eq!(&out[..prior.len()], &prior[..]);
                    assert_eq!(&out[prior.len()..], &bytes[..], "case {case}");
                }
                (Err(CorruptFrame), Err(CorruptFrame)) => assert_eq!(out, prior),
                (got, want) => panic!("case {case}: {got:?} vs {want:?}"),
            }
        }
    }

    /// An LZ frame: `lits` as literals, then one match of `mlen` bytes at
    /// offset `off`.
    fn match_frame(lits: &[u8], off: usize, mlen: usize) -> Vec<u8> {
        let mut payload = Vec::new();
        let mext = mlen - MIN_MATCH;
        payload.push(((lits.len().min(15) as u8) << 4) | mext.min(15) as u8);
        if lits.len() >= 15 {
            push_len(&mut payload, lits.len() - 15);
        }
        payload.extend_from_slice(lits);
        payload.extend_from_slice(&(off as u16).to_le_bytes());
        if mext >= 15 {
            push_len(&mut payload, mext - 15);
        }
        let mut frame = vec![SCHEME_LZ];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn overlapping_matches_copy_in_doubling_chunks() {
        let lits: Vec<u8> = (1..=40u8).collect();
        for off in (1..=8usize).chain([13, 31, 40]) {
            let mut lens: Vec<usize> = vec![MIN_MATCH, 15, 19, 255 + 19, 4000];
            // Either side of every chunk-doubling boundary.
            for k in 0..8 {
                let edge = off << k;
                lens.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
            for mlen in lens.into_iter().filter(|&m| m >= MIN_MATCH) {
                let frame = match_frame(&lits[..off], off, mlen);
                let expect: Vec<u8> = (0..off + mlen).map(|k| lits[k % off]).collect();
                let (got, used) = decompress_block(&frame, 8192).expect("match decodes");
                assert_eq!(used, frame.len());
                assert_eq!(got, expect, "off {off}, mlen {mlen}");
                assert_eq!(
                    reference::decompress_block(&frame, 8192),
                    Ok((expect, used))
                );
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_stay_bounded() {
        let mut rng = Rng(0xA076_1D64_78BD_642F);
        for case in 0..20_000 {
            let len = rng.below(64);
            let mut frame: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            // Half the cases get a plausible header: a known scheme and a
            // length that fits, so the payload decoders see the bytes.
            if case % 2 == 0 && frame.len() >= HEADER {
                frame[0] = (case / 2 % 3) as u8;
                let plen = (frame.len() - HEADER) as u32;
                frame[1..HEADER].copy_from_slice(&plen.to_le_bytes());
            }
            let max_out = rng.below(300);
            if let Ok((out, used)) = decompress_block(&frame, max_out) {
                assert!(out.len() <= max_out, "case {case}");
                assert!(used <= frame.len(), "case {case}");
            }
        }
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        assert_eq!(decompress_block(&[], 4096), Err(CorruptFrame));
        assert_eq!(decompress_block(&[9, 0, 0, 0, 0], 4096), Err(CorruptFrame));
        // Truncated payload length.
        assert_eq!(
            decompress_block(&[SCHEME_LZ, 10, 0, 0, 0, 1], 4096),
            Err(CorruptFrame)
        );
        // RLE run overflowing the block size.
        let mut f = vec![SCHEME_RLE, 5, 0, 0, 0];
        f.extend_from_slice(&9000u32.to_le_bytes());
        f.push(0);
        assert_eq!(decompress_block(&f, 4096), Err(CorruptFrame));
        // A frame the compressor produced, bit-flipped scheme.
        let mut frame = compress_block(&vec![3u8; 4096]);
        frame[0] = 7;
        assert_eq!(decompress_block(&frame, 4096), Err(CorruptFrame));
        // A back-reference may not reach into an earlier frame's output.
        let mut out = vec![1u8; 64];
        let frame = match_frame(&[], 8, MIN_MATCH);
        assert_eq!(decompress_into(&frame, 4096, &mut out), Err(CorruptFrame));
        assert_eq!(out, vec![1u8; 64]);
    }
}
