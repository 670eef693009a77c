//! Replays of a traced run's own inputs through single layers.
//!
//! The live engine hashes, compresses and frames inside its protocol
//! threads, out of reach of the trait wrappers. The traced run keeps
//! the messages one migration sent and replays them here, one layer at
//! a time, so each layer's cost is measured on exactly the data the run
//! produced. The simulator's bitmap scans and workload generation are
//! replayed the same way at the run's own pass counts and modelled span.

use std::hint::black_box;
use std::time::Instant;

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng};
use simnet::codec::{self, lz};
use simnet::proto::MigMessage;
use workloads::WorkloadKind;

use crate::metrics::Values;

/// Which layers the replayed run actually exercised.
#[derive(Debug, Clone, Copy)]
pub struct LiveLayers {
    /// Messages crossed the frame codec (a socket transport).
    pub codec: bool,
    /// The session negotiated content-addressed dedup, so shipped blocks
    /// were hashed.
    pub hash: bool,
    /// Block size of the migrated disk.
    pub block_size: usize,
}

/// Replay one migration's sent messages (`src` from the source, `dst`
/// from the destination) through the layers in `layers`, recording
/// `codec.*`, `lz.*` and `content.*` metrics. A layer the run did not
/// exercise records zero work.
pub fn live(src: &[MigMessage], dst: &[MigMessage], layers: LiveLayers, v: &mut Values) {
    let (mut frames, mut enc_s, mut dec_s) = (0usize, 0.0, 0.0);
    if layers.codec {
        for msg in src.iter().chain(dst) {
            let t = Instant::now();
            let frame = codec::encode_framed(black_box(msg));
            enc_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let back = codec::decode(black_box(&frame[4..])).expect("replayed frame decodes");
            dec_s += t.elapsed().as_secs_f64();
            assert_eq!(&back, msg, "codec replay must round-trip");
            frames += 1;
        }
    }
    v.set("codec.frames", frames as f64, 1);
    if frames > 0 {
        v.set("codec.encode_s", enc_s, frames);
        v.set("codec.decode_s", dec_s, frames);
    }

    // Raw contents of the blocks the source shipped compressed (LZ ran on
    // exactly these) and of those it shipped in full without LZ.
    let bs = layers.block_size;
    let (mut lz_raw, mut plain_raw) = (Vec::new(), Vec::new());
    for msg in src {
        match msg {
            MigMessage::CompressedBlocks {
                blocks, payload, ..
            } => lz_raw.extend(
                codec::decompress_blocks(payload, blocks.len(), bs)
                    .expect("the run's own compressed frames decode"),
            ),
            MigMessage::DiskBlocks {
                payload: Some(p), ..
            }
            | MigMessage::PostCopyBlock {
                payload: Some(p), ..
            } if layers.hash => plain_raw.extend_from_slice(p),
            _ => {}
        }
    }
    let lz_blocks = lz_raw.len() / bs;
    v.set("lz.blocks", lz_blocks as f64, 1);
    if lz_blocks > 0 {
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = lz_raw.chunks(bs).map(lz::compress_block).collect();
        v.set("lz.compress_s", t.elapsed().as_secs_f64(), lz_blocks);
        let t = Instant::now();
        for f in &frames {
            black_box(lz::decompress_block(f, bs).expect("replayed frame inflates"));
        }
        v.set("lz.decompress_s", t.elapsed().as_secs_f64(), lz_blocks);
        let out: usize = frames.iter().map(Vec::len).sum();
        v.set("lz.ratio", lz_raw.len() as f64 / out as f64, lz_blocks);
    }

    // One content hash per block shipped in full, when dedup ran.
    let hashed = if layers.hash {
        (lz_raw.len() + plain_raw.len()) / bs
    } else {
        0
    };
    v.set("content.blocks", hashed as f64, 1);
    if hashed > 0 {
        let t = Instant::now();
        for b in lz_raw.chunks(bs).chain(plain_raw.chunks(bs)) {
            black_box(vdisk::hash_block(black_box(b)));
        }
        v.set("content.hash_s", t.elapsed().as_secs_f64(), hashed);
    }
}

/// Replay the simulator's pre-copy bitmap work at paper scale: one
/// `nbits`-bit bitmap per disk pass holding that pass's block count
/// (uniformly placed, from `seed`), each scanned with `iter_set` and
/// counted with `count_ones`.
pub fn bitmap(nbits: usize, pass_blocks: &[u64], seed: u64, v: &mut Values) {
    let mut rng = SimRng::new(seed);
    let (mut bits, mut scan_s, mut count_s) = (0u64, 0.0, 0.0);
    for &k in pass_blocks {
        let bm = if k as usize >= nbits {
            FlatBitmap::all_set(nbits)
        } else {
            let mut bm = FlatBitmap::new(nbits);
            for _ in 0..k {
                bm.set(rng.below_usize(nbits));
            }
            bm
        };
        let t = Instant::now();
        let sum = bm.iter_set().fold(0usize, |a, b| a.wrapping_add(b));
        scan_s += t.elapsed().as_secs_f64();
        black_box(sum);
        let t = Instant::now();
        bits += black_box(&bm).count_ones() as u64;
        count_s += t.elapsed().as_secs_f64();
    }
    v.set("bitmap.bits", bits as f64, pass_blocks.len());
    v.set("bitmap.scan_s", scan_s, pass_blocks.len());
    v.set("bitmap.count_s", count_s, pass_blocks.len());
}

/// Replay the guest's op generation over the run's modelled span: `kind`
/// on a `num_blocks` disk, `Workload::ops_for` once per engine step at
/// the workload's solo disk share, as the engine drives it.
pub fn workload_ops(
    kind: WorkloadKind,
    num_blocks: u64,
    disk_capacity: f64,
    step: SimDuration,
    span_secs: f64,
    seed: u64,
    v: &mut Values,
) {
    let mut w = kind.build(num_blocks);
    let mut rng = SimRng::new(seed);
    let share = w.disk_demand().min(disk_capacity);
    let steps = (span_secs / step.as_secs_f64()).ceil() as u64;
    let t = Instant::now();
    let ops: usize = (0..steps)
        .map(|_| black_box(w.ops_for(step, share, &mut rng)).len())
        .sum();
    v.set("workloads.ops", ops as f64, 1);
    v.set("workloads.gen_s", t.elapsed().as_secs_f64(), 1);
}
