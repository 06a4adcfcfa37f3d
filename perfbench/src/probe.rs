//! Outside-in instrumentation for the traced run.
//!
//! Every layer is timed only around calls into its public surface:
//!
//! * [`Probed`] wraps the paper protocol as a [`Protocol`] whose nodes
//!   ([`ProbedPeer`]) time each `Node` callback per message kind, count
//!   duplicate pushes, and sample delivered messages into a bounded
//!   codec corpus.
//! * [`RoundClock`] wraps a [`Churn`]: the driver and the sharded
//!   conductor call it once at the start of every round (after round
//!   0), so it is both the round clock and the churn-layer timer.
//! * [`TimedTracer`] wraps a [`Tracer`] and times a sample of its
//!   `record` calls.
//!
//! Node callbacks run on the caller's thread (one thread on the driver
//! path, the shard workers on the cluster path, the replication workers
//! on the Monte Carlo path), so their counters live in per-thread
//! accumulators: each thread writes only its own cache-line-aligned
//! slots, and readers sum the registered threads. No counter is shared
//! between writers.

use rand_chacha::ChaCha8Rng;
use rumor_churn::{Churn, OnlineSet};
use rumor_core::{Message, ReplicaPeer, ReplicaStore};
use rumor_net::{EffectSink, Node};
use rumor_obs::{EventKind, Tracer};
use rumor_sim::{MsgKinder, MsgTamper, PaperProtocol, Protocol, UpdateEvent, WireSizer};
use rumor_types::{PeerId, Round, UpdateId};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The benchmark's one wall-clock read.
#[inline]
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // rumor-lint: allow(determinism) -- wall-clock is the measurand here, never a protocol input
    Instant::now()
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Message kinds in the order the per-kind metrics are reported.
pub const KINDS: [&str; 6] = [
    "push",
    "pull_request",
    "pull_response",
    "ack",
    "pull_since",
    "delta_response",
];

/// Index of `msg`'s kind in [`KINDS`].
pub fn kind_index(msg: &Message) -> usize {
    match msg {
        Message::Push(_) => 0,
        Message::PullRequest { .. } => 1,
        Message::PullResponse { .. } => 2,
        Message::Ack { .. } => 3,
        Message::PullSince { .. } => 4,
        Message::DeltaResponse { .. } => 5,
    }
}

/// Non-message callbacks, in report order (after the message kinds).
pub const CALLBACKS: [&str; 3] = ["on_round_start", "on_status_change", "on_timer"];

/// Accumulator slots. Callback `i` (message kinds first, then
/// [`CALLBACKS`]) owns `calls` at `2i` and `ns` at `2i + 1`.
pub mod slot {
    /// Callback kinds timed per thread.
    pub const CALLBACK_KINDS: usize = 9;
    /// Sum of every callback's nanoseconds (the per-round busy clock).
    pub const BUSY_NS: usize = 2 * CALLBACK_KINDS;
    /// Push deliveries whose update the receiver had already processed.
    pub const DUPLICATE_PUSHES: usize = BUSY_NS + 1;
    /// Awareness probes (`Protocol::is_aware`) answered.
    pub const AWARE_PROBES: usize = BUSY_NS + 2;
    /// Slot count.
    pub const COUNT: usize = BUSY_NS + 3;
}

#[repr(align(128))]
struct Acc([AtomicU64; slot::COUNT]);

static REGISTRY: Mutex<Vec<Arc<Acc>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Acc> = {
        let acc = Arc::new(Acc(std::array::from_fn(|_| AtomicU64::new(0))));
        REGISTRY.lock().expect("probe registry").push(Arc::clone(&acc));
        acc
    };
}

#[inline]
fn bump(slot: usize, by: u64) {
    LOCAL.with(|acc| {
        // Single writer per slot: a plain load/store pair, no locked RMW.
        let s = &acc.0[slot];
        s.store(s.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    });
}

#[inline]
fn bump_callback(kind: usize, ns: u64) {
    bump(2 * kind, 1);
    bump(2 * kind + 1, ns);
    bump(slot::BUSY_NS, ns);
}

/// Every slot summed over all threads that have ever reported.
pub fn totals() -> [u64; slot::COUNT] {
    let mut out = [0u64; slot::COUNT];
    for acc in REGISTRY.lock().expect("probe registry").iter() {
        for (o, s) in out.iter_mut().zip(&acc.0) {
            *o += s.load(Ordering::Relaxed);
        }
    }
    out
}

/// `slot` per registered thread, in registration order (threads that
/// register later append, so earlier indices stay stable).
pub fn per_thread(slot: usize) -> Vec<u64> {
    REGISTRY
        .lock()
        .expect("probe registry")
        .iter()
        .map(|acc| acc.0[slot].load(Ordering::Relaxed))
        .collect()
}

/// Element-wise `after - before` of two [`totals`] snapshots.
pub fn delta(after: &[u64; slot::COUNT], before: &[u64; slot::COUNT]) -> [u64; slot::COUNT] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Delivered messages kept per kind for the codec timing.
const CORPUS_PER_KIND: usize = 512;
/// One delivery in `CORPUS_STRIDE` (per thread and kind) is sampled.
const CORPUS_STRIDE: u64 = 13;

static CORPUS: Mutex<Vec<Message>> = Mutex::new(Vec::new());
static CORPUS_SIZES: [AtomicUsize; 6] = [
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
    AtomicUsize::new(0),
];

/// Takes the sampled message corpus, leaving it empty.
pub fn take_corpus() -> Vec<Message> {
    for size in &CORPUS_SIZES {
        size.store(0, Ordering::Relaxed);
    }
    std::mem::take(&mut *CORPUS.lock().expect("corpus"))
}

fn sample(kind: usize, calls_so_far: u64, msg: &Message) {
    if !calls_so_far.is_multiple_of(CORPUS_STRIDE)
        || CORPUS_SIZES[kind].load(Ordering::Relaxed) >= CORPUS_PER_KIND
    {
        return;
    }
    CORPUS_SIZES[kind].fetch_add(1, Ordering::Relaxed);
    CORPUS.lock().expect("corpus").push(msg.clone());
}

/// Read access to the replica a (possibly wrapped) node hosts.
pub trait AsPeer: Sized {
    /// The hosted paper peer.
    fn peer(&self) -> &ReplicaPeer;

    /// Fraction of the `online` replicas among `nodes` that hold
    /// `update`.
    fn awareness(nodes: &[Self], online: &OnlineSet, update: UpdateId) -> f64;
}

impl AsPeer for ReplicaPeer {
    fn peer(&self) -> &ReplicaPeer {
        self
    }

    fn awareness(nodes: &[Self], online: &OnlineSet, update: UpdateId) -> f64 {
        rumor_sim::awareness(nodes, Some(online), update)
    }
}

/// A paper peer whose callbacks are timed per kind.
#[derive(Debug)]
pub struct ProbedPeer {
    inner: ReplicaPeer,
    /// Deliveries seen per kind, for corpus sampling.
    seen: [u64; 6],
}

impl AsPeer for ProbedPeer {
    fn peer(&self) -> &ReplicaPeer {
        &self.inner
    }

    fn awareness(nodes: &[Self], online: &OnlineSet, update: UpdateId) -> f64 {
        let up: Vec<PeerId> = online.iter_online().collect();
        let held = up
            .iter()
            .filter(|p| nodes[p.index()].inner.has_processed(update))
            .count();
        held as f64 / up.len().max(1) as f64
    }
}

impl Node for ProbedPeer {
    type Msg = Message;

    fn id(&self) -> PeerId {
        self.inner.id()
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: Message,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        let kind = kind_index(&msg);
        if let Message::Push(push) = &msg {
            if self.inner.has_processed(push.update.id()) {
                bump(slot::DUPLICATE_PUSHES, 1);
            }
        }
        sample(kind, self.seen[kind], &msg);
        self.seen[kind] += 1;
        let t = now();
        self.inner.on_message(from, msg, round, rng, out);
        bump_callback(kind, nanos(t.elapsed()));
    }

    fn on_round_start(
        &mut self,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        let t = now();
        self.inner.on_round_start(round, rng, out);
        bump_callback(6, nanos(t.elapsed()));
    }

    fn on_status_change(
        &mut self,
        online: bool,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        let t = now();
        self.inner.on_status_change(online, round, rng, out);
        bump_callback(7, nanos(t.elapsed()));
    }

    fn on_timer(
        &mut self,
        tag: u64,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) {
        let t = now();
        self.inner.on_timer(tag, round, rng, out);
        bump_callback(8, nanos(t.elapsed()));
    }
}

/// The paper protocol with every node wrapped in a [`ProbedPeer`].
///
/// Delegates every `Protocol` hook unchanged, so a probed run consumes
/// the same randomness and sends the same messages as the plain one.
///
/// Clones share the store-capture slot, so the handle kept by the
/// caller sees what the copy mounted into a cluster captured.
#[derive(Debug, Clone)]
pub struct Probed {
    inner: PaperProtocol,
    capture: Arc<Capture>,
}

#[derive(Debug)]
struct Capture {
    peer: AtomicU32,
    store: Mutex<Option<ReplicaStore>>,
}

impl Probed {
    /// Wraps `inner`.
    pub fn new(inner: PaperProtocol) -> Self {
        Self {
            inner,
            capture: Arc::new(Capture {
                peer: AtomicU32::new(u32::MAX),
                store: Mutex::new(None),
            }),
        }
    }

    /// Asks for a copy of `peer`'s store the next time an awareness
    /// probe reads that node — the only way to see a replica's state
    /// inside a live cluster before `finish` consumes it.
    pub fn capture_store_of(&self, peer: PeerId) {
        self.capture.peer.store(peer.as_u32(), Ordering::Relaxed);
    }

    /// The store captured by [`Probed::capture_store_of`], if any.
    pub fn take_captured(&self) -> Option<ReplicaStore> {
        self.capture.store.lock().expect("captured store").take()
    }
}

impl Protocol for Probed {
    type Node = ProbedPeer;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, online_at_start: bool) -> ProbedPeer {
        ProbedPeer {
            inner: self.inner.spawn(id, known, online_at_start),
            seen: [0; 6],
        }
    }

    fn initiate(
        &self,
        node: &mut ProbedPeer,
        event: &UpdateEvent,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) -> UpdateId {
        self.inner.initiate(&mut node.inner, event, round, rng, out)
    }

    fn is_aware(&self, node: &ProbedPeer, update: UpdateId) -> bool {
        bump(slot::AWARE_PROBES, 1);
        if node.inner.id().as_u32() == self.capture.peer.load(Ordering::Relaxed) {
            self.capture.peer.store(u32::MAX, Ordering::Relaxed);
            *self.capture.store.lock().expect("captured store") = Some(node.inner.store().clone());
        }
        self.inner.is_aware(&node.inner, update)
    }

    fn protocol_messages(&self, node: &ProbedPeer) -> u64 {
        self.inner.protocol_messages(&node.inner)
    }

    fn wire_sizer(&self) -> Option<WireSizer<Message>> {
        self.inner.wire_sizer()
    }

    fn byzantine_liar(&self) -> Option<MsgTamper<Message>> {
        self.inner.byzantine_liar()
    }

    fn trace_msg_kind(&self) -> Option<MsgKinder<Message>> {
        self.inner.trace_msg_kind()
    }
}

/// What a [`RoundClock`] saw.
#[derive(Debug, Default)]
pub struct ClockLog {
    /// Wall-clock stamp at the start of every round after round 0.
    pub stamps: Vec<Instant>,
    /// Per-thread busy nanoseconds at each stamp (detailed clocks only).
    pub busy: Vec<Vec<u64>>,
    /// Nanoseconds spent inside the wrapped churn model.
    pub churn_ns: u64,
}

/// A [`Churn`] wrapper that stamps the start of every round and, when
/// detailed, times the wrapped model and snapshots per-thread callback
/// time at each round boundary.
pub struct RoundClock {
    inner: Box<dyn Churn>,
    log: Arc<Mutex<ClockLog>>,
    detailed: bool,
}

impl RoundClock {
    /// Wraps `inner`, appending to `log`.
    pub fn new(inner: Box<dyn Churn>, log: &Arc<Mutex<ClockLog>>, detailed: bool) -> Self {
        Self {
            inner,
            log: Arc::clone(log),
            detailed,
        }
    }
}

impl Churn for RoundClock {
    fn step(&mut self, round: u32, online: &mut OnlineSet, rng: &mut ChaCha8Rng) {
        let start = now();
        let mut log = self.log.lock().expect("clock log");
        log.stamps.push(start);
        if self.detailed {
            log.busy.push(per_thread(slot::BUSY_NS));
            let t = now();
            self.inner.step(round, online, rng);
            log.churn_ns += nanos(t.elapsed());
        } else {
            self.inner.step(round, online, rng);
        }
    }

    fn stationary_online_fraction(&self) -> Option<f64> {
        self.inner.stationary_online_fraction()
    }
}

/// One `record` call in `TRACER_STRIDE` is timed.
const TRACER_STRIDE: u64 = 16;

/// A [`Tracer`] wrapper counting events and timing a sample of
/// `record` calls.
#[derive(Debug)]
pub struct TimedTracer<T> {
    inner: T,
    /// Events recorded.
    pub events: u64,
    /// Timed calls.
    pub sampled: u64,
    /// Nanoseconds over the timed calls (clock cost not removed).
    pub sampled_ns: u64,
}

impl<T> TimedTracer<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            events: 0,
            sampled: 0,
            sampled_ns: 0,
        }
    }
}

impl<T: Tracer> Tracer for TimedTracer<T> {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    fn record(&mut self, round: u32, node: u32, kind: EventKind) {
        self.events += 1;
        if self.events.is_multiple_of(TRACER_STRIDE) {
            let t = now();
            self.inner.record(round, node, kind);
            self.sampled_ns += nanos(t.elapsed());
            self.sampled += 1;
        } else {
            self.inner.record(round, node, kind);
        }
    }
}

/// Median cost of an empty `now()`…`elapsed()` pair, subtracted from
/// sampled sub-microsecond timings.
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = now();
            nanos(t.elapsed())
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}
