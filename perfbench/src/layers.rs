//! The per-layer metric set every traced run reports.
//!
//! Each workload fills the layers it exercises; a layer a workload does
//! not touch (the cluster on the driver path, the replication harness
//! outside `paper-mc`) reads 0, which is itself the prediction "an
//! optimisation of this layer does not move this workload".

use crate::probe::{slot, CALLBACKS, KINDS};
use crate::report::Outcome;

/// Per-layer figures of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `Scenario::adjacency` wall, median over the run's set-ups.
    pub adjacency_ms: f64,
    /// Mount wall (`drive`/`sharded`) minus adjacency, median.
    pub mount_ms: f64,
    /// Driver wall per round of the timed window.
    pub driver_round_us: f64,
    /// Driver awareness probing (`Protocol::is_aware` calls) per round.
    pub driver_probe_us_per_round: f64,
    /// Replication-body time over run wall × threads.
    pub worker_busy_share: f64,
    /// Per-replication set-up share of replication-body time.
    pub setup_share: f64,
    /// Callback calls per round and mean ns per call, message kinds
    /// first, then [`CALLBACKS`].
    pub callbacks: [(f64, f64); slot::CALLBACK_KINDS],
    /// All node callbacks, µs per round (summed over threads).
    pub callbacks_us_per_round: f64,
    /// Duplicate push deliveries over all push deliveries.
    pub duplicate_share: f64,
    /// `SyncEngine` self time per round: driver round wall minus node
    /// callbacks, churn, tracer capture and awareness probing.
    pub engine_self_us_per_round: f64,
    /// Messages that reached nobody over messages sent.
    pub wasted_share: f64,
    /// Messages per wall second on the driver path.
    pub net_msgs_per_s: f64,
    /// Wrapped churn model per round.
    pub churn_step_us: f64,
    /// `ShardedCluster::step` wall per round.
    pub cluster_round_us: f64,
    /// Node callback time over round wall × workers.
    pub node_busy_share: f64,
    /// Round wall minus the busiest worker's callback time: codec,
    /// routing, barrier and idle.
    pub cluster_residual_us_per_round: f64,
    /// Logical messages per wire frame.
    pub msgs_per_frame: f64,
    /// Logical messages per wall second on the cluster path.
    pub cluster_msgs_per_s: f64,
    /// `MemTracer::record` cost per event (clock cost removed).
    pub record_ns: f64,
    /// Trace events per round.
    pub events_per_round: f64,
    /// `1 - traced / untraced` throughput.
    pub overhead_share: f64,
}

impl Layers {
    /// Fills the callback figures from a [`crate::probe::totals`] delta
    /// over `rounds` rounds.
    pub fn set_callbacks(&mut self, delta: &[u64; slot::COUNT], rounds: f64) {
        let rounds = rounds.max(1.0);
        for (i, c) in self.callbacks.iter_mut().enumerate() {
            let calls = delta[2 * i] as f64;
            let ns = delta[2 * i + 1] as f64;
            *c = (calls / rounds, if calls > 0.0 { ns / calls } else { 0.0 });
        }
        self.callbacks_us_per_round = delta[slot::BUSY_NS] as f64 / 1e3 / rounds;
        let pushes = delta[0] as f64;
        self.duplicate_share = if pushes > 0.0 {
            delta[slot::DUPLICATE_PUSHES] as f64 / pushes
        } else {
            0.0
        };
    }

    /// Fills the tracer, probe and engine-self figures of a driver-path
    /// run over `rounds` rounds: `events` traced, of which `sampled`
    /// timed `record` calls took `sampled_ns` (clock cost `clock_ns`
    /// each), and `probes` awareness probes at `probe_ns` each. Call
    /// after `driver_round_us`, `churn_step_us` and the callbacks.
    #[allow(clippy::too_many_arguments)]
    pub fn set_driver_residual(
        &mut self,
        rounds: f64,
        events: f64,
        sampled: f64,
        sampled_ns: f64,
        clock_ns: f64,
        probes: f64,
        probe_ns: f64,
    ) {
        let rounds = rounds.max(1.0);
        self.record_ns = (sampled_ns / sampled.max(1.0) - clock_ns).max(0.0);
        self.events_per_round = events / rounds;
        self.driver_probe_us_per_round = probes * probe_ns / 1e3 / rounds;
        self.engine_self_us_per_round = self.driver_round_us
            - self.callbacks_us_per_round
            - self.churn_step_us
            - self.events_per_round * self.record_ns / 1e3
            - self.driver_probe_us_per_round;
    }

    /// Records every per-layer metric except the codec and store ones
    /// (see [`crate::codec`] and [`crate::micro`]).
    pub fn emit(&self, out: &mut Outcome) {
        out.metric("sim.scenario.adjacency_ms", self.adjacency_ms, "ms");
        out.metric("sim.scenario.mount_ms", self.mount_ms, "ms");
        out.metric("sim.driver.round_us", self.driver_round_us, "us");
        out.metric(
            "sim.driver.probe_us_per_round",
            self.driver_probe_us_per_round,
            "us",
        );
        out.metric(
            "sim.experiment.worker_busy_share",
            self.worker_busy_share,
            "share",
        );
        out.metric("sim.experiment.setup_share", self.setup_share, "share");
        let names = KINDS
            .iter()
            .map(|k| format!("core.on_message.{k}"))
            .chain(CALLBACKS.iter().map(|c| format!("core.{c}")));
        for (name, (calls, ns)) in names.zip(self.callbacks) {
            out.metric(format!("{name}.calls"), calls, "1/round");
            out.metric(format!("{name}.ns"), ns, "ns");
        }
        out.metric(
            "core.callbacks_us_per_round",
            self.callbacks_us_per_round,
            "us",
        );
        out.metric("core.duplicate_share", self.duplicate_share, "share");
        out.metric(
            "net.engine_self_us_per_round",
            self.engine_self_us_per_round,
            "us",
        );
        out.metric("net.wasted_share", self.wasted_share, "share");
        out.metric("net.msgs_per_s", self.net_msgs_per_s, "1/s");
        out.metric("churn.step_us", self.churn_step_us, "us");
        out.metric("cluster.round_us", self.cluster_round_us, "us");
        out.metric("cluster.node_busy_share", self.node_busy_share, "share");
        out.metric(
            "cluster.residual_us_per_round",
            self.cluster_residual_us_per_round,
            "us",
        );
        out.metric("cluster.msgs_per_frame", self.msgs_per_frame, "count");
        out.metric("cluster.msgs_per_s", self.cluster_msgs_per_s, "1/s");
        out.metric("obs.record_ns", self.record_ns, "ns");
        out.metric("obs.events_per_round", self.events_per_round, "count");
        out.metric("trace.overhead_share", self.overhead_share, "share");
    }
}
