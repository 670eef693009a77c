//! The four workloads, each a closed loop with one migration in flight.
//!
//! Every iteration prepares fresh inputs (untimed set-up), runs one
//! migration unit, and checks its output before the next starts. With
//! tracing on, iterations alternate untraced and traced, so the run
//! measures its own tracing overhead; per-layer figures come from the
//! traced iterations only.

use std::sync::Arc;
use std::time::Instant;

use bench_suite::experiments::chaos;
use migrate::live::{
    duplex_connector_pair, run_live_migration_connected, Connector, LiveConfig, LiveOutcome,
    MigrationError, TcpDestConnector, TcpSourceConnector,
};
use migrate::sim::TpmEngine;
use migrate::MigrationConfig;
use orchestrator::{Orchestrator, Policy, Scenario};
use scenario::ScenarioDynamics;
use simnet::fault::FaultPlan;
use telemetry::{Recorder, Side};
use vdisk::{stamp_bytes, DenseStorage, Storage, TrackedDisk, VirtualDisk};
use workloads::WorkloadKind;

use crate::host;
use crate::metrics::{median, quantile, RunResult, Samples, Values};
use crate::replay;
use crate::trace::Tracer;
use crate::wrap::{DiskStats, LinkStats, TimedConnector, TimedDynamics, TimedStorage, MSG_KINDS};

const MIB: f64 = 1024.0 * 1024.0;

/// Spans kept per run; later ones are counted as dropped.
const SPAN_CAP: usize = 1 << 20;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Live engine over the in-process duplex link, dedup and LZ on.
    LiveDuplex,
    /// Live engine over loopback TCP, dedup and LZ off.
    LiveTcp,
    /// Paper-scale simulated TPM of the diabolical guest.
    SimDiabolical,
    /// E15 rolling maintenance through the fleet executor.
    FleetE15,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::LiveDuplex,
        Workload::LiveTcp,
        Workload::SimDiabolical,
        Workload::FleetE15,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveDuplex => "live-duplex",
            Workload::LiveTcp => "live-tcp",
            Workload::SimDiabolical => "sim-diabolical",
            Workload::FleetE15 => "fleet-e15",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// The loop starts no new iteration after this many seconds.
    pub seconds: f64,
    /// Alternate untraced and traced iterations and report per-layer
    /// metrics.
    pub trace: bool,
}

/// Run `opts`: returns the result and the spans the traced iterations
/// recorded.
pub fn run(opts: &Opts) -> (RunResult, Arc<Tracer>) {
    let tracer = Arc::new(Tracer::new(SPAN_CAP));
    let mut r = RunResult::default();
    match opts.workload {
        Workload::LiveDuplex => live(opts, Link::Duplex, &tracer, &mut r),
        Workload::LiveTcp => live(opts, Link::Tcp, &tracer, &mut r),
        Workload::SimDiabolical => sim(opts, &tracer, &mut r),
        Workload::FleetE15 => fleet(opts, &tracer, &mut r),
    }
    r.values.set("trace.spans", tracer.spans().len() as f64, 1);
    (r, tracer)
}

/// Closed loop: iteration `i` starts only after `i - 1` returned, and no
/// iteration starts once `seconds` have passed. With tracing on, odd
/// iterations are traced and at least one of each kind runs. Returns the
/// reference kernel's time before every iteration and after the last, so
/// iteration `i` is bracketed by entries `i` and `i + 1`.
fn closed_loop(opts: &Opts, mut body: impl FnMut(usize, bool)) -> Vec<f64> {
    let start = Instant::now();
    let min = if opts.trace { 2 } else { 1 };
    let mut refs = vec![host::reference_s()];
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < opts.seconds {
        body(i, opts.trace && i % 2 == 1);
        refs.push(host::reference_s());
        i += 1;
    }
    refs
}

/// Quantile of a run's untraced per-iteration wall times that `wall_s`
/// reports on the simulator and fleet workloads (`raw_mbps` reports the
/// mirror quantile of the rates). Their iterations are deterministic and
/// single-threaded, so every one does the same work and what spread is
/// left after scaling to the reference kernel is the host's; the lower
/// decile follows the program's own cost and still ignores the single
/// fastest iteration once a run has eleven or more.
pub const DETERMINISTIC_Q: f64 = 0.1;

/// The same quantile on the live workloads: the engine races its guest,
/// source and destination threads, so iterations differ in the work they
/// do (pre-copy passes, resent blocks) and the median is the typical
/// migration.
pub const LIVE_Q: f64 = 0.5;

/// End-to-end and overhead figures shared by every workload: every
/// iteration's index and set-up seconds, untraced iterations' index, wall
/// seconds and bytes moved, and traced wall seconds.
#[derive(Debug, Default)]
struct Clock {
    setup: Vec<(usize, f64)>,
    untraced: Vec<(usize, f64, f64)>,
    traced_wall: Vec<f64>,
}

impl Clock {
    fn add(&mut self, i: usize, traced: bool, wall: f64, bytes: f64) {
        if traced {
            self.traced_wall.push(wall);
        } else {
            self.untraced.push((i, wall, bytes));
        }
    }

    /// Report the end-to-end host times scaled to the reference host:
    /// every iteration's set-up and wall seconds are multiplied by
    /// `REFERENCE_S` over the mean of the two reference times `refs`
    /// bracketing it. `setup_s` is the median, `wall_s` the `wall_q`
    /// quantile of the untraced iterations and `raw_mbps` the `1 - wall_q`
    /// quantile of their rates. The tracing figures stay unscaled, as the
    /// layer times they are compared with are.
    fn report(&self, wall_q: f64, refs: &[f64], r: &mut RunResult) {
        let scale = |i: usize| host::REFERENCE_S * 2.0 / (refs[i] + refs[i + 1]);
        let setup: Vec<f64> = self.setup.iter().map(|&(i, s)| s * scale(i)).collect();
        let wall: Vec<f64> = self
            .untraced
            .iter()
            .map(|&(i, w, _)| w * scale(i))
            .collect();
        let mbps: Vec<f64> = (self.untraced.iter().zip(&wall))
            .map(|(&(_, _, bytes), w)| bytes / 1e6 / w)
            .collect();
        let raw: Vec<f64> = self.untraced.iter().map(|&(_, w, _)| w).collect();
        let fmt = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        r.notes.push(format!(
            "wall_s per untraced iteration, measured: {} (median {:.3})",
            fmt(&raw),
            median(&raw)
        ));
        r.notes.push(format!(
            "wall_s per untraced iteration, scaled to the reference host: {} (median {:.3}, lower decile {:.3}); reference kernel median {:.4} s",
            fmt(&wall),
            median(&wall),
            quantile(&wall, DETERMINISTIC_Q),
            median(refs)
        ));
        let v = &mut r.values;
        v.median("setup_s", &setup);
        v.set("wall_s", quantile(&wall, wall_q), wall.len());
        v.set("raw_mbps", quantile(&mbps, 1.0 - wall_q), mbps.len());
        v.median("host.reference_s", refs);
        v.median("trace.untraced_wall_s", &raw);
        if !self.traced_wall.is_empty() {
            v.median("trace.wall_s", &self.traced_wall);
            v.set(
                "trace.overhead",
                median(&self.traced_wall) / median(&raw),
                self.traced_wall.len(),
            );
        }
    }
}

// ---------------------------------------------------------------- live

/// Transport a live workload migrates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// In-process duplex channels; messages pass by value.
    Duplex,
    /// One loopback TCP connection framed by `simnet::codec`.
    Tcp,
}

/// Live-workload disk geometry: 65,536 blocks of 4 KiB (256 MiB).
pub const LIVE_BLOCK_SIZE: usize = 4096;
/// Blocks of the live workloads' disk.
pub const LIVE_BLOCKS: usize = 65_536;

/// The live workloads' configuration: web guest, the engine's test
/// defaults otherwise, content-aware dedup and LZ on or off.
pub fn live_config(seed: u64, num_blocks: usize, content_aware: bool) -> LiveConfig {
    LiveConfig {
        block_size: LIVE_BLOCK_SIZE,
        num_blocks,
        workload: WorkloadKind::Web,
        seed,
        dedup: content_aware,
        compress: content_aware,
        ..LiveConfig::test_default()
    }
}

/// Counters of one traced live migration.
#[derive(Debug)]
pub struct LiveProbe {
    /// Source disk store.
    pub src_disk: Arc<DiskStats>,
    /// Destination disk store.
    pub dst_disk: Arc<DiskStats>,
    /// Source transport.
    pub src_link: Arc<LinkStats>,
    /// Destination transport.
    pub dst_link: Arc<LinkStats>,
}

impl LiveProbe {
    /// Fresh counters; with `retain`, both links keep their sent
    /// messages for replay.
    pub fn new(retain: bool) -> Self {
        Self {
            src_disk: Arc::default(),
            dst_disk: Arc::default(),
            src_link: Arc::new(LinkStats::new(Side::Source, retain)),
            dst_link: Arc::new(LinkStats::new(Side::Destination, retain)),
        }
    }
}

/// A stamp-0 source disk and a blank destination, as the engine's own
/// entry points create them; behind [`TimedStorage`] when probed.
pub fn live_disks(
    cfg: &LiveConfig,
    probe: Option<&LiveProbe>,
) -> (Arc<TrackedDisk>, Arc<TrackedDisk>) {
    let mut src = DenseStorage::new(cfg.block_size, cfg.num_blocks);
    for b in 0..cfg.num_blocks {
        src.write_block(b, &stamp_bytes(b, 0, cfg.block_size));
    }
    let dst = DenseStorage::new(cfg.block_size, cfg.num_blocks);
    let (src, dst): (Box<dyn Storage>, Box<dyn Storage>) = match probe {
        Some(p) => (
            Box::new(TimedStorage::new(src, Arc::clone(&p.src_disk))),
            Box::new(TimedStorage::new(dst, Arc::clone(&p.dst_disk))),
        ),
        None => (Box::new(src), Box::new(dst)),
    };
    let tracked = |s| Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::new(s))));
    (tracked(src), tracked(dst))
}

/// One live migration between `src` and `dst` over `link`, through the
/// timing wrappers when probed.
pub fn live_migration(
    cfg: &LiveConfig,
    link: Link,
    src: Arc<TrackedDisk>,
    dst: Arc<TrackedDisk>,
    probe: Option<&LiveProbe>,
    tracer: Option<Arc<Tracer>>,
) -> Result<LiveOutcome, MigrationError> {
    fn go<CS: Connector + 'static, CD: Connector + 'static>(
        cfg: &LiveConfig,
        src: Arc<TrackedDisk>,
        dst: Arc<TrackedDisk>,
        (s, d): (CS, CD),
        probe: Option<&LiveProbe>,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<LiveOutcome, MigrationError> {
        match probe {
            Some(p) => run_live_migration_connected(
                cfg,
                src,
                dst,
                None,
                TimedConnector::new(s, Arc::clone(&p.src_link), tracer.clone()),
                TimedConnector::new(d, Arc::clone(&p.dst_link), tracer),
            ),
            None => run_live_migration_connected(cfg, src, dst, None, s, d),
        }
    }
    match link {
        Link::Duplex => go(
            cfg,
            src,
            dst,
            duplex_connector_pair(FaultPlan::none(), None),
            probe,
            tracer,
        ),
        Link::Tcp => {
            let d = TcpDestConnector::bind("127.0.0.1:0", cfg.retry.clone())?;
            let s = TcpSourceConnector::new(
                d.local_addr()?.to_string(),
                FaultPlan::none(),
                cfg.retry.clone(),
            );
            go(cfg, src, dst, (s, d), probe, tracer)
        }
    }
}

/// Check a live outcome block-exact: every destination block and RAM
/// page holds the guest's last write, and no guest read saw stale data.
pub fn live_verdict(out: &LiveOutcome) -> Result<(), String> {
    let blocks = out.inconsistent_blocks();
    let pages = out.inconsistent_pages();
    if blocks.is_empty() && pages.is_empty() && out.read_violations == 0 {
        return Ok(());
    }
    Err(format!(
        "{} inconsistent blocks {:?}, {} inconsistent pages {:?}, {} read violations",
        blocks.len(),
        &blocks[..blocks.len().min(8)],
        pages.len(),
        &pages[..pages.len().min(8)],
        out.read_violations
    ))
}

fn live(opts: &Opts, link: Link, tracer: &Arc<Tracer>, r: &mut RunResult) {
    let cfg = live_config(opts.seed, LIVE_BLOCKS, link == Link::Duplex);
    let mut clock = Clock::default();
    let mut layer = Samples::default();
    let mut downtimes = Vec::new();
    let mut replayed = false;
    let refs = closed_loop(opts, |i, traced| {
        let probe = traced.then(|| LiveProbe::new(!replayed));
        let t = Instant::now();
        let (src, dst) = live_disks(&cfg, probe.as_ref());
        clock.setup.push((i, t.elapsed().as_secs_f64()));
        tracer.begin_migration(i as u32);
        let t = Instant::now();
        let res = live_migration(
            &cfg,
            link,
            src,
            dst,
            probe.as_ref(),
            traced.then(|| Arc::clone(tracer)),
        );
        if traced {
            tracer.span("live.migration", t, Instant::now());
        }
        let out = match res {
            Ok(out) => out,
            Err(e) => return r.check(false, opts.seed, || format!("migration {i}: {e}")),
        };
        let verdict = live_verdict(&out);
        r.check(verdict.is_ok(), opts.seed, || {
            format!("migration {i}: {}", verdict.unwrap_err())
        });
        let wall = out.total.as_secs_f64();
        clock.add(i, traced, wall, out.wire.bytes_raw as f64);
        if let Some(p) = probe {
            downtimes.push(out.downtime.as_secs_f64() * 1e3);
            live_layers(&out, &p, &mut layer);
            if !replayed {
                drop(out);
                let layers = replay::LiveLayers {
                    codec: link == Link::Tcp,
                    hash: cfg.dedup,
                    block_size: cfg.block_size,
                };
                let (s, d) = (p.src_link.take_retained(), p.dst_link.take_retained());
                replay::live(&s, &d, layers, &mut r.values);
                replayed = true;
            }
        }
    });
    clock.report(LIVE_Q, &refs, r);
    layer.means_into(&mut r.values);
    if !downtimes.is_empty() {
        r.values.median("live.downtime_ms.p50", &downtimes);
        let max = downtimes.iter().copied().fold(0.0, f64::max);
        r.values.set("live.downtime_ms.max", max, downtimes.len());
    }
    let v = &mut r.values;
    let g = |v: &Values, n: &str| v.get(n).unwrap_or(0.0);
    v.set(
        "vdisk.src.reads_per_block",
        g(v, "vdisk.src.reads") / cfg.num_blocks as f64,
        1,
    );
    // Frame encoding and decoding happen inside send and receive, so the
    // codec replay is not added again.
    let busy = [
        "vdisk.src.read_s",
        "vdisk.src.write_s",
        "vdisk.dst.read_s",
        "vdisk.dst.write_s",
        "simnet.src.send_s",
        "simnet.dst.send_s",
        "lz.compress_s",
        "lz.decompress_s",
        "content.hash_s",
    ]
    .iter()
    .map(|n| g(v, n))
    .sum::<f64>();
    v.set("trace.unattributed_s", g(v, "trace.wall_s") - busy, 1);
}

/// Add one traced migration's wrapper counters and outcome counters.
fn live_layers(out: &LiveOutcome, p: &LiveProbe, s: &mut Samples) {
    for (side, disk) in [("src", &p.src_disk), ("dst", &p.dst_disk)] {
        s.push(format!("vdisk.{side}.reads"), disk.reads.count() as f64);
        s.push(format!("vdisk.{side}.writes"), disk.writes.count() as f64);
        s.push(format!("vdisk.{side}.read_s"), disk.reads.secs());
        s.push(format!("vdisk.{side}.write_s"), disk.writes.secs());
    }
    for (side, link) in [("src", &p.src_link), ("dst", &p.dst_link)] {
        s.push(format!("simnet.{side}.sends"), link.sends.count() as f64);
        s.push(format!("simnet.{side}.recvs"), link.recvs.count() as f64);
        s.push(format!("simnet.{side}.send_s"), link.sends.secs());
        s.push(format!("simnet.{side}.recv_wait_s"), link.recvs.secs());
        s.push(
            format!("simnet.{side}.send_mib"),
            link.sent_bytes() as f64 / MIB,
        );
    }
    let (src_msgs, dst_msgs) = (p.src_link.msgs(), p.dst_link.msgs());
    for (k, name) in MSG_KINDS.iter().enumerate() {
        s.push(
            format!("simnet.msgs.{name}"),
            (src_msgs[k] + dst_msgs[k]) as f64,
        );
    }
    let first = out.iterations.first().copied().unwrap_or(0);
    let sent: u64 = out.iterations.iter().sum();
    s.push(
        "live.wire_mib",
        (out.src_ledger.total() + out.dst_ledger.total()) as f64 / MIB,
    );
    s.push("live.precopy_passes", out.iterations.len() as f64);
    s.push("live.blocks_resent", sent.saturating_sub(first) as f64);
    s.push("live.frozen_dirty", out.frozen_dirty as f64);
    s.push("live.pushed", out.pushed as f64);
    s.push("live.pulled", out.pulled as f64);
    s.push("live.dropped", out.dropped as f64);
    s.push("live.stalled_reads", out.stalled_reads as f64);
    s.push("live.blocks_deduped", out.wire.blocks_deduped as f64);
    s.push("live.blocks_compressed", out.wire.blocks_compressed as f64);
    s.push("live.reconnects", f64::from(out.reconnects));
}

// ----------------------------------------------------------------- sim

/// The simulated workload's configuration: the paper testbed (40 GB
/// disk, 512 MiB guest, Gigabit link) with the classic data plane —
/// dedup, LZ and multi-source fetch off, as in the paper.
pub fn sim_config(seed: u64) -> MigrationConfig {
    MigrationConfig {
        seed,
        dedup: false,
        compress: false,
        multisource: false,
        ..MigrationConfig::paper_testbed()
    }
}

fn sim(opts: &Opts, tracer: &Tracer, r: &mut RunResult) {
    let cfg = sim_config(opts.seed);
    let mut clock = Clock::default();
    let mut first: Option<(migrate::MigrationReport, String)> = None;
    let refs = closed_loop(opts, |i, traced| {
        tracer.begin_migration(i as u32);
        let t0 = Instant::now();
        let engine = TpmEngine::new(cfg.clone(), WorkloadKind::Diabolical);
        let t1 = Instant::now();
        let report = engine.run().report;
        let t2 = Instant::now();
        if traced {
            tracer.span("sim.engine_new", t0, t1);
            tracer.span("sim.run", t1, t2);
        }
        clock.setup.push((i, (t1 - t0).as_secs_f64()));
        let json = serde_json::to_string(&report).expect("report serialises");
        let same = first.as_ref().is_none_or(|(_, j)| *j == json);
        r.check(report.consistent && same, opts.seed, || {
            format!(
                "migration {i}: consistent={} identical-to-first={same}",
                report.consistent
            )
        });
        clock.add(
            i,
            traced,
            (t2 - t1).as_secs_f64(),
            report.ledger.total() as f64,
        );
        first.get_or_insert((report, json));
    });
    clock.report(DETERMINISTIC_Q, &refs, r);
    let v = &mut r.values;
    let engine_new: Vec<f64> = clock.setup.iter().map(|&(_, s)| s).collect();
    v.median("sim.engine_new_s", &engine_new);
    let runs: Vec<f64> = (clock.untraced.iter().map(|&(_, w, _)| w))
        .chain(clock.traced_wall.iter().copied())
        .collect();
    v.median("sim.run_s", &runs);
    let Some((rep, _)) = first else { return };
    let passes: Vec<u64> = rep.disk_iterations.iter().map(|it| it.units_sent).collect();
    v.set("sim.disk_passes", passes.len() as f64, 1);
    v.set("sim.blocks_sent", passes.iter().sum::<u64>() as f64, 1);
    let pages: u64 = rep.mem_iterations.iter().map(|it| it.units_sent).sum();
    v.set("sim.pages_sent", pages as f64, 1);
    v.set("sim.postcopy.pushed", rep.postcopy.pushed as f64, 1);
    v.set("sim.postcopy.pulled", rep.postcopy.pulled as f64, 1);
    v.set("sim.postcopy.dropped", rep.postcopy.dropped as f64, 1);
    v.set(
        "sim.postcopy.pending_high_water",
        rep.postcopy.pending_high_water as f64,
        1,
    );
    v.set("sim.io_blocked_s", rep.io_blocked_secs, 1);
    v.set("model.total_s", rep.total_time_secs, 1);
    v.set("model.downtime_ms", rep.downtime_ms, 1);
    v.set("model.disruption_s", rep.disruption_secs, 1);
    v.set("model.wire_mib", rep.ledger.total() as f64 / MIB, 1);
    if opts.trace {
        replay::bitmap(cfg.disk_blocks, &passes, opts.seed, v);
        replay::workload_ops(
            WorkloadKind::Diabolical,
            cfg.disk_blocks as u64,
            cfg.disk_capacity,
            cfg.step,
            rep.total_time_secs,
            opts.seed,
            v,
        );
        let g = |v: &Values, n: &str| v.get(n).unwrap_or(0.0);
        let busy = g(v, "bitmap.scan_s") + g(v, "bitmap.count_s") + g(v, "workloads.gen_s");
        v.set("trace.unattributed_s", g(v, "trace.wall_s") - busy, 1);
    }
}

// --------------------------------------------------------------- fleet

fn fleet(opts: &Opts, tracer: &Tracer, r: &mut RunResult) {
    let spec = chaos::spec(bench_suite::Scale::Paper, opts.seed);
    if let Err(e) = spec.validate() {
        return r.check(false, opts.seed, || format!("E15 spec: {e}"));
    }
    let cfg = scenario::config_for(&spec);
    let mut clock = Clock::default();
    let mut layer = Samples::default();
    let mut first: Option<(orchestrator::ClusterReport, String)> = None;
    let refs = closed_loop(opts, |i, traced| {
        tracer.begin_migration(i as u32);
        let t0 = Instant::now();
        let mut orch = match Orchestrator::new(cfg.clone(), Policy::CycleAware, Recorder::off()) {
            Ok(o) => o,
            Err(e) => return r.check(false, opts.seed, || format!("run {i}: {e}")),
        };
        let mut dynamics = ScenarioDynamics::new(&spec, &cfg);
        let scen = Scenario {
            requests: spec.requests.clone(),
        };
        clock.setup.push((i, t0.elapsed().as_secs_f64()));
        let t = Instant::now();
        let report = if traced {
            let mut timed = TimedDynamics::new(dynamics, Some(tracer));
            let report = orch.run_with_dynamics(&scen, &mut timed);
            let wall = t.elapsed().as_secs_f64();
            tracer.span("fleet.run", t, Instant::now());
            let ticks = timed.advance.count() as f64;
            let dyn_s = timed.advance.secs() + timed.queries.secs();
            layer.push("orchestrator.ticks", ticks);
            layer.push("scenario.advance_s", timed.advance.secs());
            layer.push("scenario.queries", timed.queries.count() as f64);
            layer.push("scenario.query_s", timed.queries.secs());
            layer.push("orchestrator.tick_self_us", (wall - dyn_s) / ticks * 1e6);
            report
        } else {
            orch.run_with_dynamics(&scen, &mut dynamics)
        };
        let wall = t.elapsed().as_secs_f64();
        let json = serde_json::to_string(&report).expect("report serialises");
        let same = first.as_ref().is_none_or(|(_, j)| *j == json);
        for rec in &report.records {
            r.check(rec.completed && rec.consistent && same, opts.seed, || {
                format!(
                    "run {i} migration {}: completed={} consistent={} identical-to-first={same}",
                    rec.migration, rec.completed, rec.consistent
                )
            });
        }
        if report.records.is_empty() {
            r.check(false, opts.seed, || format!("run {i}: no migrations"));
        }
        clock.add(i, traced, wall, report.total_bytes() as f64);
        first.get_or_insert((report, json));
    });
    clock.report(DETERMINISTIC_Q, &refs, r);
    layer.means_into(&mut r.values);
    let v = &mut r.values;
    if opts.trace {
        let g = |v: &Values, n: &str| v.get(n).unwrap_or(0.0);
        let dyn_s = g(v, "scenario.advance_s") + g(v, "scenario.query_s");
        v.set("trace.unattributed_s", g(v, "trace.wall_s") - dyn_s, 1);
    }
    let Some((rep, _)) = first else { return };
    v.set("orchestrator.migrations", rep.records.len() as f64, 1);
    v.set("orchestrator.incremental", rep.incremental() as f64, 1);
    v.set(
        "orchestrator.peer_served_blocks",
        rep.total_peer_served() as f64,
        1,
    );
    v.set("model.makespan_s", rep.makespan_secs(), 1);
    v.set("model.downtime_ms", rep.aggregate_downtime_ms(), 1);
    v.set("model.wire_mib", rep.total_bytes() as f64 / MIB, 1);
}
