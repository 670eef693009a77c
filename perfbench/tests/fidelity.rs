//! The benchmark measures the program it claims to: every wrapper
//! delegates every trait method, traced runs produce the same reports
//! as untraced ones, and `BENCHMARK.json` names exactly the metrics the
//! benchmark prints.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use des::{SimDuration, SimTime};
use migrate::live::{Connector, MigrationError};
use orchestrator::{Cluster, ClusterConfig, FleetDynamics, HostId, MigrationRequest, VmId};
use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::runs::{self, Link, LiveProbe, Opts, Workload};
use perfbench::wrap::{DiskStats, LinkStats, TimedConnector, TimedDynamics, TimedStorage};
use simnet::proto::{Category, MigMessage, TransferLedger};
use simnet::transport::{Transport, TransportError};
use telemetry::{Recorder, Side};
use vdisk::{DenseStorage, Storage};

type Log = Arc<Mutex<Vec<String>>>;

fn log(l: &Log, call: impl Into<String>) {
    l.lock().expect("log lock").push(call.into());
}

fn calls(l: &Log) -> Vec<String> {
    l.lock().expect("log lock").clone()
}

#[test]
fn storage_wrapper_delegates_every_method() {
    let stats = Arc::new(DiskStats::default());
    let mut plain = DenseStorage::new(512, 8);
    let mut timed = TimedStorage::new(DenseStorage::new(512, 8), Arc::clone(&stats));
    let data = [7u8; 512];
    plain.write_block(3, &data);
    timed.write_block(3, &data);
    let (mut a, mut b) = ([0u8; 512], [0u8; 512]);
    plain.read_block(3, &mut a);
    timed.read_block(3, &mut b);
    assert_eq!(a, b);
    assert_eq!(b, data);
    assert_eq!(timed.block_size(), plain.block_size());
    assert_eq!(timed.num_blocks(), plain.num_blocks());
    assert_eq!(timed.resident_bytes(), plain.resident_bytes());
    assert_eq!((stats.reads.count(), stats.writes.count()), (1, 1));
}

/// A transport that logs each call and answers with a distinct value.
struct MockLink(Log);

impl Transport for MockLink {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        log(&self.0, format!("send {msg:?}"));
        Err(TransportError::Reset("mock".into()))
    }

    fn recv(&self) -> Result<MigMessage, TransportError> {
        log(&self.0, "recv");
        Ok(MigMessage::PrepareAck)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        log(&self.0, format!("recv_timeout {timeout:?}"));
        Ok(MigMessage::Resumed)
    }

    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        log(&self.0, "try_recv");
        Err(TransportError::Empty)
    }

    fn sent_ledger(&self) -> TransferLedger {
        log(&self.0, "sent_ledger");
        let mut l = TransferLedger::new();
        l.add(Category::Control, 42);
        l
    }

    fn shutdown(&self) {
        log(&self.0, "shutdown");
    }

    fn set_telemetry(&self, _recorder: &Arc<Recorder>, side: Side) {
        log(&self.0, format!("set_telemetry {side:?}"));
    }
}

struct MockConnector(Log);

impl Connector for MockConnector {
    type Link = MockLink;

    fn connect(&mut self, attempt: u32) -> Result<MockLink, MigrationError> {
        log(&self.0, format!("connect {attempt}"));
        Ok(MockLink(Arc::clone(&self.0)))
    }

    fn abort(&self) {
        log(&self.0, "abort");
    }
}

#[test]
fn connector_and_transport_wrappers_delegate_every_method() {
    let l: Log = Arc::default();
    let stats = Arc::new(LinkStats::new(Side::Source, true));
    let mut conn = TimedConnector::new(MockConnector(Arc::clone(&l)), Arc::clone(&stats), None);
    let link = conn.connect(3).expect("mock connects");
    assert_eq!(
        link.send(MigMessage::Suspended),
        Err(TransportError::Reset("mock".into()))
    );
    assert_eq!(link.recv(), Ok(MigMessage::PrepareAck));
    assert_eq!(
        link.recv_timeout(Duration::from_millis(7)),
        Ok(MigMessage::Resumed)
    );
    assert_eq!(link.try_recv(), Err(TransportError::Empty));
    assert_eq!(link.sent_ledger().total(), 42);
    link.shutdown();
    link.set_telemetry(&Recorder::off(), Side::Destination);
    conn.abort();
    assert_eq!(
        calls(&l),
        [
            "connect 3",
            "send Suspended",
            "recv",
            "recv_timeout 7ms",
            "try_recv",
            "sent_ledger",
            "shutdown",
            "set_telemetry Destination",
            "abort",
        ]
    );
    assert_eq!(stats.sends.count(), 1);
    assert_eq!(stats.recvs.count(), 2, "only messages are counted");
    assert_eq!(stats.take_retained(), [MigMessage::Suspended]);
}

/// Fleet dynamics that log each query and answer with distinct values.
struct MockDynamics(Log);

impl FleetDynamics for MockDynamics {
    fn advance(
        &mut self,
        now: SimTime,
        _cluster: &Cluster,
        streams: &[(usize, usize)],
        _recorder: &Recorder,
    ) -> Vec<MigrationRequest> {
        log(&self.0, format!("advance {now:?} {streams:?}"));
        vec![MigrationRequest {
            vm: VmId(1),
            dest: Some(HostId(2)),
            at: now,
        }]
    }
    fn host_up(&self, host: usize) -> bool {
        log(&self.0, format!("host_up {host}"));
        false
    }
    fn cordoned(&self, host: usize) -> bool {
        log(&self.0, format!("cordoned {host}"));
        true
    }
    fn connected(&self, a: usize, b: usize) -> bool {
        log(&self.0, format!("connected {a} {b}"));
        false
    }
    fn nic_capacity(&self, host: usize) -> f64 {
        log(&self.0, format!("nic_capacity {host}"));
        11.0
    }
    fn disk_capacity(&self, host: usize) -> f64 {
        log(&self.0, format!("disk_capacity {host}"));
        12.0
    }
    fn link_bandwidth(&self, a: usize, b: usize) -> f64 {
        log(&self.0, format!("link_bandwidth {a} {b}"));
        13.0
    }
    fn link_quality(&self, a: usize, b: usize) -> f64 {
        log(&self.0, format!("link_quality {a} {b}"));
        0.5
    }
    fn link_latency(&self, a: usize, b: usize) -> SimDuration {
        log(&self.0, format!("link_latency {a} {b}"));
        SimDuration::from_millis(9)
    }
    fn workload_scale(&self, vm: usize, _now: SimTime) -> f64 {
        log(&self.0, format!("workload_scale {vm}"));
        0.25
    }
    fn op_keep(&self, vm: usize, _now: SimTime) -> (u64, u64) {
        log(&self.0, format!("op_keep {vm}"));
        (3, 8)
    }
    fn high_activity(&self, vm: usize, _now: SimTime) -> bool {
        log(&self.0, format!("high_activity {vm}"));
        true
    }
    fn exhausted(&self, _now: SimTime) -> bool {
        log(&self.0, "exhausted");
        false
    }
}

#[test]
fn dynamics_wrapper_delegates_every_method() {
    let l: Log = Arc::default();
    let mut d = TimedDynamics::new(MockDynamics(Arc::clone(&l)), None);
    let cluster = Cluster::new(&ClusterConfig::new(3, 3)).expect("valid config");
    let t = SimTime::ZERO;
    let reqs = d.advance(t, &cluster, &[(0, 1)], &Recorder::off());
    assert_eq!(reqs.len(), 1);
    assert_eq!((reqs[0].vm, reqs[0].dest), (VmId(1), Some(HostId(2))));
    assert!(!d.host_up(1));
    assert!(d.cordoned(2));
    assert!(!d.connected(0, 1));
    assert_eq!(d.nic_capacity(1), 11.0);
    assert_eq!(d.disk_capacity(2), 12.0);
    assert_eq!(d.link_bandwidth(0, 2), 13.0);
    assert_eq!(d.link_quality(1, 2), 0.5);
    assert_eq!(d.link_latency(2, 0), SimDuration::from_millis(9));
    assert_eq!(d.workload_scale(4, t), 0.25);
    assert_eq!(d.op_keep(5, t), (3, 8));
    assert!(d.high_activity(6, t));
    assert!(!d.exhausted(t));
    assert_eq!(
        calls(&l),
        [
            format!("advance {t:?} [(0, 1)]"),
            "host_up 1".into(),
            "cordoned 2".into(),
            "connected 0 1".into(),
            "nic_capacity 1".into(),
            "disk_capacity 2".into(),
            "link_bandwidth 0 2".into(),
            "link_quality 1 2".into(),
            "link_latency 2 0".into(),
            "workload_scale 4".into(),
            "op_keep 5".into(),
            "high_activity 6".into(),
            "exhausted".into(),
        ]
    );
    assert_eq!(d.advance.count(), 1);
    assert_eq!(d.queries.count(), 12);
}

#[test]
fn fleet_report_is_identical_through_the_dynamics_wrapper() {
    let spec = bench_suite::experiments::chaos::spec(bench_suite::Scale::Paper, 2008);
    let cfg = scenario::config_for(&spec);
    let scen = orchestrator::Scenario {
        requests: spec.requests.clone(),
    };
    let run = |timed: bool| {
        let mut orch = orchestrator::Orchestrator::new(
            cfg.clone(),
            orchestrator::Policy::CycleAware,
            Recorder::off(),
        )
        .expect("valid E15 config");
        let dynamics = scenario::ScenarioDynamics::new(&spec, &cfg);
        let report = if timed {
            orch.run_with_dynamics(&scen, &mut TimedDynamics::new(dynamics, None))
        } else {
            let mut dynamics = dynamics;
            orch.run_with_dynamics(&scen, &mut dynamics)
        };
        serde_json::to_string(&report).expect("report serialises")
    };
    assert_eq!(run(false), run(true));
}

fn model_figures(workload: Workload, trace: bool) -> Vec<(String, f64)> {
    let opts = Opts {
        workload,
        seed: 2008,
        seconds: 0.001,
        trace,
    };
    let (r, _) = runs::run(&opts);
    assert_eq!(r.failed, 0, "{:?}", r.notes);
    per_layer()
        .into_iter()
        .filter(|(n, _)| n.starts_with("model."))
        .map(|(n, _)| {
            let v = r.values.get(&n).unwrap_or(0.0);
            (n, v)
        })
        .collect()
}

#[test]
fn sim_diabolical_reproduces_table_one_traced_and_untraced() {
    let off = model_figures(Workload::SimDiabolical, false);
    assert_eq!(off, model_figures(Workload::SimDiabolical, true));
    let get = |n: &str| off.iter().find(|(k, _)| k == n).expect("metric").1;
    assert_eq!(format!("{:.1}", get("model.total_s")), "930.7");
    assert_eq!(format!("{:.1}", get("model.downtime_ms")), "108.1");
}

#[test]
fn fleet_e15_figures_are_identical_traced_and_untraced() {
    let off = model_figures(Workload::FleetE15, false);
    assert_eq!(off, model_figures(Workload::FleetE15, true));
    let get = |n: &str| off.iter().find(|(k, _)| k == n).expect("metric").1;
    assert_eq!(format!("{:.1}", get("model.makespan_s")), "391.8");
    assert_eq!(format!("{:.0}", get("model.wire_mib")), "4119");
    assert_eq!(format!("{:.1}", get("model.downtime_ms")), "6815.4");
}

#[test]
fn traced_live_runs_verify_block_exact() {
    for (link, content_aware) in [(Link::Duplex, true), (Link::Tcp, false)] {
        let cfg = runs::live_config(5, 8192, content_aware);
        let probe = LiveProbe::new(true);
        let (src, dst) = runs::live_disks(&cfg, Some(&probe));
        let out = runs::live_migration(&cfg, link, src, dst, Some(&probe), None)
            .expect("migration completes");
        runs::live_verdict(&out).expect("block-exact through the wrappers");
        assert!(probe.src_disk.reads.count() >= 8192);
        assert!(probe.dst_disk.writes.count() >= 8192);
        assert!(probe.src_link.sends.count() > 0 && probe.dst_link.recvs.count() > 0);
        let mut v = perfbench::metrics::Values::default();
        let layers = perfbench::replay::LiveLayers {
            codec: link == Link::Tcp,
            hash: content_aware,
            block_size: cfg.block_size,
        };
        perfbench::replay::live(
            &probe.src_link.take_retained(),
            &probe.dst_link.take_retained(),
            layers,
            &mut v,
        );
        let lz = v.get("lz.blocks").expect("lz replayed");
        assert_eq!(lz > 0.0, content_aware);
        assert_eq!(
            v.get("codec.frames").expect("codec replayed") > 0.0,
            !content_aware
        );
    }
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
