//! Timing wrappers around the program's public layer traits.
//!
//! Each wrapper delegates every trait method to the value it wraps and
//! only counts and times the call, so a traced run executes the same
//! program as an untraced one.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use des::{SimDuration, SimTime};
use migrate::live::{Connector, MigrationError};
use orchestrator::{Cluster, FleetDynamics, MigrationRequest};
use simnet::proto::{MigMessage, TransferLedger};
use simnet::transport::{Transport, TransportError};
use telemetry::{Recorder, Side};
use vdisk::Storage;

use crate::trace::{Op, Tracer};

/// Time `f` into `op`.
fn timed<R>(op: &Op, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    op.record(start.elapsed());
    r
}

/// Reads and writes reaching one disk's backing store.
#[derive(Debug, Default)]
pub struct DiskStats {
    /// `Storage::read_block` calls.
    pub reads: Op,
    /// `Storage::write_block` calls.
    pub writes: Op,
}

/// A [`Storage`] that times every block read and write of the store it
/// wraps.
pub struct TimedStorage<S> {
    inner: S,
    stats: Arc<DiskStats>,
}

impl<S: Storage> TimedStorage<S> {
    /// Wrap `inner`, counting into `stats`.
    pub fn new(inner: S, stats: Arc<DiskStats>) -> Self {
        Self { inner, stats }
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn read_block(&self, idx: usize, out: &mut [u8]) {
        timed(&self.stats.reads, || self.inner.read_block(idx, out));
    }

    fn write_block(&mut self, idx: usize, data: &[u8]) {
        let inner = &mut self.inner;
        timed(&self.stats.writes, || inner.write_block(idx, data));
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
}

/// Names of the [`MigMessage`] variants, indexed by [`msg_kind`].
pub const MSG_KINDS: [&str; 23] = [
    "PrepareVbd",
    "PrepareAck",
    "DiskBlocks",
    "BlockRef",
    "BlockRefMiss",
    "ContentSummary",
    "CompressedBlocks",
    "MemPages",
    "CpuState",
    "Bitmap",
    "Suspended",
    "Resumed",
    "PullRequest",
    "PostCopyBlock",
    "PushComplete",
    "MigrationComplete",
    "CompleteAck",
    "SessionHello",
    "BlockRequest",
    "BlockData",
    "BlockMiss",
    "BlockManifest",
    "ResumeFrom",
];

/// Index of `msg`'s variant in [`MSG_KINDS`].
pub fn msg_kind(msg: &MigMessage) -> usize {
    match msg {
        MigMessage::PrepareVbd { .. } => 0,
        MigMessage::PrepareAck => 1,
        MigMessage::DiskBlocks { .. } => 2,
        MigMessage::BlockRef { .. } => 3,
        MigMessage::BlockRefMiss { .. } => 4,
        MigMessage::ContentSummary { .. } => 5,
        MigMessage::CompressedBlocks { .. } => 6,
        MigMessage::MemPages { .. } => 7,
        MigMessage::CpuState { .. } => 8,
        MigMessage::Bitmap { .. } => 9,
        MigMessage::Suspended => 10,
        MigMessage::Resumed => 11,
        MigMessage::PullRequest { .. } => 12,
        MigMessage::PostCopyBlock { .. } => 13,
        MigMessage::PushComplete => 14,
        MigMessage::MigrationComplete => 15,
        MigMessage::CompleteAck => 16,
        MigMessage::SessionHello { .. } => 17,
        MigMessage::BlockRequest { .. } => 18,
        MigMessage::BlockData { .. } => 19,
        MigMessage::BlockMiss { .. } => 20,
        MigMessage::BlockManifest { .. } => 21,
        MigMessage::ResumeFrom { .. } => 22,
    }
}

/// Traffic through one side's transport, across every connection the
/// side's connector makes.
#[derive(Debug)]
pub struct LinkStats {
    send_span: &'static str,
    recv_span: &'static str,
    /// `Transport::send` calls and the time they took.
    pub sends: Op,
    /// Messages received, and the time spent in every receive call,
    /// including polls that returned nothing.
    pub recvs: Op,
    sent_bytes: AtomicU64,
    msgs: [AtomicU64; MSG_KINDS.len()],
    retained: Option<Mutex<Vec<MigMessage>>>,
}

impl LinkStats {
    /// Stats for the source (`Side::Source`) or destination side. With
    /// `retain`, every sent message is also kept for replay.
    pub fn new(side: Side, retain: bool) -> Self {
        let (send_span, recv_span) = match side {
            Side::Source => ("simnet.src.send", "simnet.src.recv"),
            Side::Destination => ("simnet.dst.send", "simnet.dst.recv"),
        };
        Self {
            send_span,
            recv_span,
            sends: Op::default(),
            recvs: Op::default(),
            sent_bytes: Default::default(),
            msgs: Default::default(),
            retained: retain.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Wire bytes sent (`MigMessage::wire_size`).
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes.load(Relaxed)
    }

    /// Messages sent per variant, indexed like [`MSG_KINDS`].
    pub fn msgs(&self) -> [u64; MSG_KINDS.len()] {
        std::array::from_fn(|i| self.msgs[i].load(Relaxed))
    }

    /// The sent messages kept for replay (empty unless retaining).
    pub fn take_retained(&self) -> Vec<MigMessage> {
        self.retained
            .as_ref()
            .map(|m| std::mem::take(&mut *m.lock().expect("retained lock poisoned")))
            .unwrap_or_default()
    }

    fn on_send(&self, msg: &MigMessage) {
        // Statistics only: no other data is published through these.
        self.sent_bytes.fetch_add(msg.wire_size(), Relaxed);
        self.msgs[msg_kind(msg)].fetch_add(1, Relaxed);
        if let Some(r) = &self.retained {
            // Payloads are reference-counted `Bytes`: the clone copies no
            // block data.
            r.lock().expect("retained lock poisoned").push(msg.clone());
        }
    }
}

/// A [`Transport`] that counts and times the link it wraps.
pub struct TimedTransport<T> {
    inner: T,
    stats: Arc<LinkStats>,
    tracer: Option<Arc<Tracer>>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wrap `inner`, counting into `stats` and, when given, recording a
    /// span per send and receive into `tracer`.
    pub fn new(inner: T, stats: Arc<LinkStats>, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            inner,
            stats,
            tracer,
        }
    }

    fn recv_with(
        &self,
        f: impl FnOnce(&T) -> Result<MigMessage, TransportError>,
    ) -> Result<MigMessage, TransportError> {
        let start = Instant::now();
        let r = f(&self.inner);
        let end = Instant::now();
        self.stats.recvs.add(u64::from(r.is_ok()), end - start);
        if let (Ok(_), Some(t)) = (&r, &self.tracer) {
            t.span(self.stats.recv_span, start, end);
        }
        r
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        self.stats.on_send(&msg);
        let start = Instant::now();
        let r = self.inner.send(msg);
        let end = Instant::now();
        self.stats.sends.record(end - start);
        if let Some(t) = &self.tracer {
            t.span(self.stats.send_span, start, end);
        }
        r
    }

    fn recv(&self) -> Result<MigMessage, TransportError> {
        self.recv_with(|t| t.recv())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        self.recv_with(|t| t.recv_timeout(timeout))
    }

    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        self.recv_with(|t| t.try_recv())
    }

    fn sent_ledger(&self) -> TransferLedger {
        self.inner.sent_ledger()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn set_telemetry(&self, recorder: &Arc<Recorder>, side: Side) {
        self.inner.set_telemetry(recorder, side);
    }
}

/// A [`Connector`] whose every link is a [`TimedTransport`] sharing one
/// [`LinkStats`].
pub struct TimedConnector<C> {
    inner: C,
    stats: Arc<LinkStats>,
    tracer: Option<Arc<Tracer>>,
}

impl<C: Connector> TimedConnector<C> {
    /// Wrap `inner`.
    pub fn new(inner: C, stats: Arc<LinkStats>, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            inner,
            stats,
            tracer,
        }
    }
}

impl<C: Connector> Connector for TimedConnector<C> {
    type Link = TimedTransport<C::Link>;

    fn connect(&mut self, attempt: u32) -> Result<Self::Link, MigrationError> {
        let link = self.inner.connect(attempt)?;
        Ok(TimedTransport::new(
            link,
            Arc::clone(&self.stats),
            self.tracer.clone(),
        ))
    }

    fn abort(&self) {
        self.inner.abort();
    }
}

/// [`FleetDynamics`] wrapper timing `advance` (timeline interpretation,
/// once per executor tick) apart from every other query.
pub struct TimedDynamics<'a, D> {
    inner: D,
    /// `advance` calls: one per executor tick.
    pub advance: Op,
    /// Every other oracle query.
    pub queries: Op,
    tracer: Option<&'a Tracer>,
}

impl<'a, D: FleetDynamics> TimedDynamics<'a, D> {
    /// Wrap `inner`; with a tracer, each `advance` call is a span.
    pub fn new(inner: D, tracer: Option<&'a Tracer>) -> Self {
        Self {
            inner,
            advance: Op::default(),
            queries: Op::default(),
            tracer,
        }
    }

    fn q<R>(&self, f: impl FnOnce(&D) -> R) -> R {
        timed(&self.queries, || f(&self.inner))
    }
}

impl<D: FleetDynamics> FleetDynamics for TimedDynamics<'_, D> {
    fn advance(
        &mut self,
        now: SimTime,
        cluster: &Cluster,
        streams: &[(usize, usize)],
        recorder: &Recorder,
    ) -> Vec<MigrationRequest> {
        let start = Instant::now();
        let r = self.inner.advance(now, cluster, streams, recorder);
        let end = Instant::now();
        self.advance.record(end - start);
        if let Some(t) = self.tracer {
            t.span("scenario.advance", start, end);
        }
        r
    }

    fn host_up(&self, host: usize) -> bool {
        self.q(|d| d.host_up(host))
    }

    fn cordoned(&self, host: usize) -> bool {
        self.q(|d| d.cordoned(host))
    }

    fn connected(&self, a: usize, b: usize) -> bool {
        self.q(|d| d.connected(a, b))
    }

    fn nic_capacity(&self, host: usize) -> f64 {
        self.q(|d| d.nic_capacity(host))
    }

    fn disk_capacity(&self, host: usize) -> f64 {
        self.q(|d| d.disk_capacity(host))
    }

    fn link_bandwidth(&self, a: usize, b: usize) -> f64 {
        self.q(|d| d.link_bandwidth(a, b))
    }

    fn link_quality(&self, a: usize, b: usize) -> f64 {
        self.q(|d| d.link_quality(a, b))
    }

    fn link_latency(&self, a: usize, b: usize) -> SimDuration {
        self.q(|d| d.link_latency(a, b))
    }

    fn workload_scale(&self, vm: usize, now: SimTime) -> f64 {
        self.q(|d| d.workload_scale(vm, now))
    }

    fn op_keep(&self, vm: usize, now: SimTime) -> (u64, u64) {
        self.q(|d| d.op_keep(vm, now))
    }

    fn high_activity(&self, vm: usize, now: SimTime) -> bool {
        self.q(|d| d.high_activity(vm, now))
    }

    fn exhausted(&self, now: SimTime) -> bool {
        self.q(|d| d.exhausted(now))
    }
}
