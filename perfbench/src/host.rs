//! The machine a result came from: host facts, a calibration kernel and
//! the process's peak resident memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::metrics::median;

/// Host facts and calibration timings printed with every result.
#[derive(Debug, Clone)]
pub struct HostBlock {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Calibration: 64 MiB `copy_from_slice`, GB/s (median of 5).
    pub memcpy_gbps: f64,
    /// Calibration: one step of a dependent scalar loop, ns (median of 5).
    pub scalar_ns: f64,
}

impl HostBlock {
    /// Gather host facts and run the calibration kernel (~0.2 s).
    pub fn measure() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
        Self {
            nproc,
            cpu,
            rustc,
            memcpy_gbps: memcpy_gbps(),
            scalar_ns: scalar_ns(),
        }
    }

    /// One-line JSON rendering.
    pub fn json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"memcpy_gbps\": {:?}, \"scalar_ns\": {:?}}}",
            self.nproc,
            esc(&self.cpu),
            esc(&self.rustc),
            self.memcpy_gbps,
            self.scalar_ns
        )
    }
}

fn memcpy_gbps() -> f64 {
    const LEN: usize = 64 << 20;
    let src = vec![1u8; LEN];
    let mut dst = vec![0u8; LEN];
    dst.copy_from_slice(&src);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            LEN as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

fn scalar_ns() -> f64 {
    const STEPS: u64 = 10_000_000;
    let per_step: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e9 / STEPS as f64
        })
        .collect();
    median(&per_step)
}

/// What [`reference_s`] takes on an uncontended 2-vCPU Intel Xeon KVM
/// guest. Host times are scaled by `REFERENCE_S / reference_s()`
/// measured around them, so they read as seconds on such a host.
pub const REFERENCE_S: f64 = 0.010;

/// Wall seconds of a fixed reference kernel (~10 ms): 40,000
/// pseudo-random inserts into a fresh `BTreeMap` and 40,000 lookups.
///
/// A neighbour on a shared host slows cache- and allocation-heavy code
/// by up to 2x for minutes at a time. Ordered maps with allocation are
/// what the simulator, the fleet executor and the live engine's
/// bookkeeping do, and of the kernels tried (dependent scalar loop,
/// random read-modify-write over 16 MiB, pointer chase over 4 MiB,
/// 32 MiB sequential sum, ordered map, and map plus random writes) the
/// ordered map alone tracked the workloads' slowdowns best. The kernel
/// uses no code of the repository, so a change to the program never
/// changes it.
pub fn reference_s() -> f64 {
    const N: u64 = 40_000;
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = black_box(777u64);
    for i in 0..N {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
    }
    let mut hits = 0u64;
    for i in 0..N {
        if let Some(v) = map.get(&(i.wrapping_mul(2_654_435_761) >> 8 & 0xFF_FFFF)) {
            hits = hits.wrapping_add(*v);
        }
    }
    black_box((hits, map));
    t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
