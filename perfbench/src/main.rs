//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]`
//!
//! Runs one workload closed loop for `S` seconds and prints, in order:
//! any failed check with its seed, a table of the mode's metrics with
//! sample counts, the per-layer time table and tracing overhead (trace
//! mode), the host block, and as its last line the JSON result.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host::{peak_rss_mib, HostBlock};
use perfbench::metrics::{RunResult, Values};
use perfbench::runs::{self, Opts, Workload};

const USAGE: &str = "usage: perfbench --workload live-duplex|live-tcp|sim-diabolical|fleet-e15 \
                     --seed N --seconds S --trace 0|1 [--spans-out PATH]";

fn parse_args() -> Result<(Opts, Option<PathBuf>), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--spans-out" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((opts, spans))
}

/// Per-layer time and count per migration unit, with the unattributed
/// rest of the traced wall time as its own row. Rows marked "waiting" or
/// "in send/recv" are not added again when the rest is computed.
fn layer_table(v: &Values) -> String {
    const ROWS: &[(&str, &[&str], &[&str])] = &[
        (
            "vdisk src store",
            &["vdisk.src.reads", "vdisk.src.writes"],
            &["vdisk.src.read_s", "vdisk.src.write_s"],
        ),
        (
            "vdisk dst store",
            &["vdisk.dst.reads", "vdisk.dst.writes"],
            &["vdisk.dst.read_s", "vdisk.dst.write_s"],
        ),
        (
            "simnet src send",
            &["simnet.src.sends"],
            &["simnet.src.send_s"],
        ),
        (
            "simnet dst send",
            &["simnet.dst.sends"],
            &["simnet.dst.send_s"],
        ),
        (
            "simnet recv (waiting)",
            &["simnet.src.recvs", "simnet.dst.recvs"],
            &["simnet.src.recv_wait_s", "simnet.dst.recv_wait_s"],
        ),
        (
            "codec (in send/recv)",
            &["codec.frames"],
            &["codec.encode_s", "codec.decode_s"],
        ),
        (
            "lz (replay)",
            &["lz.blocks"],
            &["lz.compress_s", "lz.decompress_s"],
        ),
        (
            "content hash (replay)",
            &["content.blocks"],
            &["content.hash_s"],
        ),
        (
            "bitmap (replay)",
            &["bitmap.bits"],
            &["bitmap.scan_s", "bitmap.count_s"],
        ),
        (
            "workloads (replay)",
            &["workloads.ops"],
            &["workloads.gen_s"],
        ),
        (
            "scenario advance",
            &["orchestrator.ticks"],
            &["scenario.advance_s"],
        ),
        (
            "scenario queries",
            &["scenario.queries"],
            &["scenario.query_s"],
        ),
    ];
    let g = |n: &str| v.get(n).unwrap_or(0.0);
    let wall = g("trace.wall_s");
    let share = |t: f64| if wall > 0.0 { 100.0 * t / wall } else { 0.0 };
    let mut out = format!(
        "{:<24} {:>14} {:>12} {:>8}\n",
        "layer (per migration)", "count", "time (s)", "% wall"
    );
    for (label, counts, times) in ROWS {
        let count: f64 = counts.iter().map(|n| g(n)).sum();
        if count == 0.0 {
            continue;
        }
        let t: f64 = times.iter().map(|n| g(n)).sum();
        let _ = writeln!(out, "{label:<24} {count:>14.0} {t:>12.6} {:>8.1}", share(t));
    }
    let rest = g("trace.unattributed_s");
    let _ = writeln!(
        out,
        "{:<24} {:>14} {rest:>12.6} {:>8.1}",
        "unattributed rest",
        "-",
        share(rest)
    );
    let _ = writeln!(
        out,
        "(threads overlap, so busy rows may exceed the wall time and the rest may be negative)\n\
         tracing overhead: traced median {:.6} s vs untraced median {:.6} s per migration = x{:.4}",
        wall,
        g("trace.untraced_wall_s"),
        g("trace.overhead")
    );
    out
}

fn main() -> ExitCode {
    let (opts, spans_out) = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let (mut r, tracer): (RunResult, _) = runs::run(&opts);
    // Read before the calibration kernel allocates its buffers.
    r.values.set("peak_rss_mib", peak_rss_mib(), 1);
    let ok = (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64;
    r.values.set("ok_frac", ok, r.attempted as usize);
    let host = HostBlock::measure();
    r.values.set("host.memcpy_gbps", host.memcpy_gbps, 5);
    r.values.set("host.scalar_ns", host.scalar_ns, 5);

    for note in &r.notes {
        println!("{note}");
    }
    print!("{}", r.table(opts.trace));
    if !opts.trace {
        println!("modelled figures (virtual time; deterministic for a seed):");
        for (n, v, u, s) in r.metrics(true) {
            if n.starts_with("model.") && s > 0 {
                println!("  {n:<20} {v:>14.1} {u}");
            }
        }
    }
    if opts.trace {
        print!("{}", layer_table(&r.values));
        if let Some(path) = spans_out {
            match tracer.write_jsonl(&path) {
                Ok(()) => println!(
                    "spans: {} written to {}, {} dropped",
                    tracer.spans().len(),
                    path.display(),
                    tracer.dropped()
                ),
                Err(e) => {
                    eprintln!("perfbench: writing spans to {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("host {}", host.json());
    println!("{}", r.json_line(opts.trace));
    ExitCode::SUCCESS
}
