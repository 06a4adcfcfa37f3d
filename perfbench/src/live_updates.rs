//! `live-updates`: a closed loop of single updates through the sharded
//! live cluster on wire v2 with delta pulls.
//!
//! Every message crosses `rumor-wire` v2 batch frames, cross-shard
//! routing and the per-round barrier. One client initiates an update at
//! a random online replica, waits until every online replica holds it
//! (or the cap passes, which counts as a failure), then initiates the
//! next. Updates rewrite the burst's keys, so stores keep a fixed key
//! count and every update is a sample of the same steady state.

use crate::layers::Layers;
use crate::micro::{select_probe, store_probe};
use crate::probe::{self, now, ClockLog, Probed, RoundClock};
use crate::report::{emit_end_to_end, median, peak_rss_mib, percentile, tail_percentile, Outcome};
use rumor_bench::cluster_bench::bench_paper_config_v2;
use rumor_churn::{Churn, MarkovChurn};
use rumor_cluster::{ClusterBuilder, ClusterReport, ShardedCluster, WireVersion};
use rumor_net::Node;
use rumor_sim::{PaperProtocol, Protocol, Scenario, TopologySpec, UpdateEvent};
use rumor_types::{derive_seed, DataKey};
use rumor_wire::{Decode, Encode};
use std::sync::{Arc, Mutex};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Replicas `N`.
    pub population: usize,
    /// Updates seeded at round 0 (one key each).
    pub burst: u32,
    /// Rounds between the burst and the loop.
    pub warmup: u32,
    /// Updates in the closed loop.
    pub updates: u32,
    /// Rounds an update may take before it counts as failed.
    pub cap: u32,
    /// Scenario builds plus mounts timed for `setup_s`.
    pub setups: usize,
}

/// The benchmark's size.
pub const BENCH: Size = Size {
    population: 1_024,
    burst: 16,
    warmup: 40,
    updates: 48,
    cap: 150,
    setups: 9,
};

/// `rumor_bench::cluster_bench::bench_scenario`'s environment, built
/// here so the churn model can be wrapped in a [`RoundClock`] (the
/// cluster takes its churn from the scenario).
fn scenario(population: usize, seed: u64, log: &Arc<Mutex<ClockLog>>, detailed: bool) -> Scenario {
    let log = Arc::clone(log);
    Scenario::builder(population, seed)
        .online_fraction(0.7)
        .topology(TopologySpec::RandomSubset {
            k: 32.min(population - 1),
        })
        .churn_with(move || {
            let markov: Box<dyn Churn> =
                Box::new(MarkovChurn::new(0.97, 0.2).expect("valid churn"));
            Box::new(RoundClock::new(markov, &log, detailed))
        })
        .loss(0.03)
        .build()
        .expect("valid live scenario")
}

fn event(key: u32, sequence: u32) -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name(&format!("live-{key}")),
        delete: false,
        sequence,
    }
}

/// What one pass produced.
struct Pass {
    report: ClusterReport,
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Per update: rounds to convergence (`None` = failed) and wall ms.
    updates: Vec<(Option<u32>, f64)>,
    rounds: u32,
    frames: u64,
    messages: u64,
    bytes: u64,
    initial_online: usize,
    workers: usize,
    log: Arc<Mutex<ClockLog>>,
    /// Stamp index of the first timed round.
    first_stamp: usize,
}

fn run_pass<P>(
    size: Size,
    seed: u64,
    protocol: &P,
    workers: usize,
    detailed: bool,
    before_finish: impl FnOnce(&ShardedCluster<P>),
) -> Pass
where
    P: Protocol + Clone + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    let log = Arc::new(Mutex::new(ClockLog::default()));
    let mut setup_s = Vec::new();
    let mut mounted: Option<ShardedCluster<P>> = None;
    let mut initial_online = 0;
    for _ in 0..size.setups.max(1) {
        drop(mounted.take());
        let t = now();
        let scenario = scenario(size.population, seed, &log, detailed);
        let cluster = ClusterBuilder::new(&scenario)
            .wire(WireVersion::V2)
            .workers(workers)
            .sharded(protocol.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        initial_online = scenario.online_count();
        mounted = Some(cluster);
    }
    let mut cluster = mounted.expect("at least one set-up");
    for i in 0..size.burst {
        cluster.initiate(&event(i, i));
    }
    cluster.run_rounds(size.warmup);
    let first_stamp = log.lock().expect("clock log").stamps.len();
    let (f0, m0, b0, r0) = (
        cluster.frames_sent(),
        cluster.messages_sent(),
        cluster.bytes_sent(),
        cluster.rounds_run(),
    );
    let mut updates = Vec::new();
    let mut last = None;
    let t = now();
    for i in 0..size.updates {
        let started = now();
        let outcome = cluster
            .initiate(&event(i % size.burst, size.burst + i))
            .and_then(|u| {
                last = Some(u);
                let start = cluster.rounds_run();
                cluster
                    .run_until_all_online_aware(u, size.cap)
                    .map(|round| round + 1 - start)
            });
        updates.push((outcome, started.elapsed().as_secs_f64() * 1e3));
    }
    let wall_s = t.elapsed().as_secs_f64();
    let (frames, messages, bytes, rounds) = (
        cluster.frames_sent() - f0,
        cluster.messages_sent() - m0,
        cluster.bytes_sent() - b0,
        cluster.rounds_run() - r0,
    );
    let workers = cluster.workers();
    before_finish(&cluster);
    let report = cluster.finish(last.expect("an update was initiated"));
    Pass {
        report,
        setup_s,
        wall_s,
        updates,
        rounds,
        frames,
        messages,
        bytes,
        initial_online,
        workers,
        log,
        first_stamp,
    }
}

/// Wall µs of every timed round but the last, from the round clock.
/// The conductor's rounds are exposed to thread scheduling, so
/// throughput is read from their median rather than the mean.
fn round_us(pass: &Pass) -> Vec<f64> {
    let log = pass.log.lock().expect("clock log");
    log.stamps[pass.first_stamp..]
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect()
}

fn check_report(report: &ClusterReport, out: &mut Outcome) {
    out.check(report.decode_errors == 0, "live-updates: decode errors");
    out.check(
        report.version_mismatches == 0,
        "live-updates: version mismatches",
    );
    out.check(report.frames_tampered == 0, "live-updates: tampered frames");
    out.check(
        report.messages_sent >= report.frames_sent,
        "live-updates: fewer messages than frames",
    );
}

/// Runs the untraced benchmark: one closed loop of `size.updates`.
pub fn run(size: Size, seed: u64, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let protocol = PaperProtocol::new(bench_paper_config_v2(size.population));
    let seed = derive_seed(seed, "perfbench/live-updates");
    let pass = run_pass(size, seed, &protocol, workers, false, |_| ());
    check_report(&pass.report, &mut out);
    let converged: Vec<(f64, f64)> = pass
        .updates
        .iter()
        .filter_map(|(r, ms)| r.map(|r| (f64::from(r), *ms)))
        .collect();
    let rounds: Vec<f64> = converged.iter().map(|c| c.0).collect();
    let ms: Vec<f64> = converged.iter().map(|c| c.1).collect();
    let attempted = pass.updates.len();
    out.attempted = attempted as u64;
    out.failed = (attempted - converged.len()) as u64;
    let n = attempted.max(1) as f64;
    let tail = tail_percentile(attempted);
    emit_end_to_end(
        &mut out,
        [
            median(&pass.setup_s),
            peak_rss_mib(),
            1e6 / median(&round_us(&pass)),
            n / pass.wall_s,
            median(&rounds),
            percentile(&rounds, tail),
            median(&ms),
            percentile(&ms, tail),
            converged.len() as f64 / n,
            pass.messages as f64 / n,
            pass.bytes as f64 / n,
            pass.messages as f64 / n / pass.initial_online as f64,
            pass.report.aware_online_fraction(),
        ],
    );
    out
}

/// Runs the traced benchmark: an untraced loop for the baseline, then
/// the same loop with probed nodes and a detailed round clock.
pub fn run_traced(size: Size, seed: u64, workers: usize) -> Outcome {
    let mut out = Outcome::default();
    let seed = derive_seed(seed, "perfbench/live-updates");
    let plain = PaperProtocol::new(bench_paper_config_v2(size.population));
    let base = run_pass(size, seed, &plain, workers, false, |_| ());
    check_report(&base.report, &mut out);
    let base_rps = f64::from(base.rounds) / base.wall_s;
    drop(base);

    let probed = Probed::new(plain);
    probe::take_corpus();
    let before = probe::totals();
    // `finish` probes every reclaimed cell: capture an online replica's
    // store there.
    let pass = run_pass(size, seed, &probed, workers, true, |cluster| {
        if let Some(&peer) = cluster.online_peers().first() {
            probed.capture_store_of(peer);
        }
    });
    check_report(&pass.report, &mut out);
    let delta = probe::delta(&probe::totals(), &before);
    let rounds = f64::from(pass.rounds);
    let log = pass.log.lock().expect("clock log");
    let mut layers = Layers {
        cluster_round_us: pass.wall_s * 1e6 / rounds,
        msgs_per_frame: pass.messages as f64 / pass.frames.max(1) as f64,
        cluster_msgs_per_s: pass.messages as f64 / pass.wall_s,
        churn_step_us: log.churn_ns as f64 / 1e3 / log.stamps.len().max(1) as f64,
        overhead_share: 1.0 - (rounds / pass.wall_s) / base_rps,
        node_busy_share: delta[probe::slot::BUSY_NS] as f64
            / (pass.wall_s * 1e9 * pass.workers as f64),
        wasted_share: (pass.report.lost_offline + pass.report.lost_fault) as f64
            / pass.report.frames_sent.max(1) as f64,
        ..Layers::default()
    };
    layers.set_callbacks(&delta, rounds);
    // Residual per timed round: wall between consecutive round starts
    // minus the busiest thread's callback time in that round.
    let mut residual = Vec::new();
    for j in pass.first_stamp..log.stamps.len().saturating_sub(1) {
        let wall = (log.stamps[j + 1] - log.stamps[j]).as_secs_f64() * 1e6;
        let (a, b) = (&log.busy[j], &log.busy[j + 1]);
        let busiest = b
            .iter()
            .enumerate()
            .map(|(t, after)| after - a.get(t).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        residual.push(wall - busiest as f64 / 1e3);
    }
    layers.cluster_residual_us_per_round = crate::report::mean(&residual);
    drop(log);
    layers.emit(&mut out);
    let store = probed.take_captured();
    out.check(
        store.is_some(),
        "live-updates: no end-of-run store captured",
    );
    store_probe(store.as_ref(), &mut out);
    select_probe(32.min(size.population - 1), 4, &mut out);
    crate::codec::time_corpus(&probe::take_corpus(), &mut out);
    out.attempted = pass.updates.len() as u64;
    out.failed = pass.updates.iter().filter(|u| u.0.is_none()).count() as u64;
    out
}
