//! `engine-stream`: an open-loop write stream through `Driver` and
//! `SyncEngine` on one thread.
//!
//! A burst seeds `keys` keys at round 0; after a warm-up,
//! `Driver::run_workload` initiates one update every `gap` rounds at a
//! random online replica, rewriting those keys in turn, then runs
//! settle rounds. Every full-digest pull is O(store), and the store
//! keeps a fixed key count, so every update samples the same steady
//! state. No codec, no threads: the round loop, the peers and their
//! stores do all the work.

use crate::layers::Layers;
use crate::micro::{aware_probe_ns, select_probe, store_probe};
use crate::probe::{self, now, AsPeer, ClockLog, Probed, RoundClock, TimedTracer};
use crate::report::{emit_end_to_end, median, peak_rss_mib, percentile, tail_percentile, Outcome};
use rumor_bench::engine_bench::{bench_paper_config, bench_scenario};
use rumor_churn::StaticChurn;
use rumor_net::Node;
use rumor_obs::{MemTracer, NopTracer, Tracer};
use rumor_sim::{Driver, PaperProtocol, Protocol, UpdateEvent, WorkloadReport};
use rumor_types::{derive_seed, DataKey};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Replicas `N`.
    pub population: usize,
    /// Keys seeded by the round-0 burst and rewritten by the stream.
    /// `keys * gap` must exceed convergence time: a rewrite that
    /// overtakes an unconverged update of the same key supersedes it,
    /// and replicas that see only the newer version never process it.
    pub keys: u32,
    /// Updates in the stream.
    pub updates: u32,
    /// Rounds between consecutive initiations.
    pub gap: u32,
    /// Rounds before the stream starts.
    pub warmup: u32,
    /// Rounds after the last initiation.
    pub settle: u32,
    /// Churn-free rounds after the stream, before the holdings check.
    pub quiet: u32,
    /// Scenario builds plus mounts timed for `setup_s`.
    pub setups: usize,
}

/// The benchmark's size.
pub const BENCH: Size = Size {
    population: 1_000,
    keys: 32,
    updates: 160,
    gap: 4,
    warmup: 20,
    settle: 60,
    quiet: 24,
    setups: 9,
};

/// What one pass produced.
struct Pass<N: Node, T> {
    driver: Driver<N, T>,
    report: WorkloadReport,
    wall_s: f64,
    setup_s: Vec<f64>,
    adjacency_s: Vec<f64>,
    log: Arc<Mutex<ClockLog>>,
    end: Instant,
    messages: u64,
    bytes: u64,
    wasted: u64,
    push_messages: u64,
    churn_ns: u64,
}

fn event(size: Size, round: u32, sequence: u32) -> UpdateEvent {
    UpdateEvent {
        round,
        key: DataKey::from_name(&format!("stream-{}", sequence % size.keys)),
        delete: false,
        sequence,
    }
}

/// The stream: one rewrite every `gap` rounds, after the burst.
fn events(size: Size) -> Vec<UpdateEvent> {
    (0..size.updates)
        .map(|i| event(size, i * size.gap, size.keys + i))
        .collect()
}

fn push_total<N: AsPeer>(nodes: &[N]) -> u64 {
    nodes
        .iter()
        .map(|n| n.peer().stats().push_messages_sent)
        .sum()
}

fn run_pass<P, T>(
    size: Size,
    seed: u64,
    protocol: &P,
    make_tracer: impl Fn() -> T,
    detailed: bool,
) -> Pass<P::Node, T>
where
    P: Protocol,
    P::Node: AsPeer,
    T: Tracer,
{
    let mut setup_s = Vec::new();
    let mut adjacency_s = Vec::new();
    let mut mounted = None;
    for _ in 0..size.setups.max(1) {
        drop(mounted.take());
        let t = now();
        let scenario = bench_scenario(size.population, seed);
        let log = Arc::new(Mutex::new(ClockLog::default()));
        let clock = RoundClock::new(scenario.make_churn(), &log, detailed);
        let driver = scenario.drive_traced_with_churn(protocol, Box::new(clock), make_tracer());
        setup_s.push(t.elapsed().as_secs_f64());
        if detailed {
            let t = now();
            std::hint::black_box(scenario.adjacency());
            adjacency_s.push(t.elapsed().as_secs_f64());
        }
        mounted = Some((driver, log));
    }
    let (mut driver, log) = mounted.expect("at least one set-up");
    for i in 0..size.keys {
        driver.initiate(protocol, None, &event(size, 0, i));
    }
    driver.run_rounds(size.warmup);
    let events = events(size);
    let (m0, b0, w0) = (
        driver.messages(),
        driver.bytes_sent(),
        driver.stats().wasted(),
    );
    let p0 = push_total(driver.nodes());
    let c0 = log.lock().expect("clock log").churn_ns;
    let t = now();
    let report = driver.run_workload(protocol, &events, size.settle);
    let end = now();
    let wall_s = (end - t).as_secs_f64();
    let churn_ns = log.lock().expect("clock log").churn_ns - c0;
    Pass {
        messages: driver.messages() - m0,
        bytes: driver.bytes_sent() - b0,
        wasted: driver.stats().wasted() - w0,
        push_messages: push_total(driver.nodes()) - p0,
        churn_ns,
        driver,
        report,
        wall_s,
        setup_s,
        adjacency_s,
        log,
        end,
    }
}

/// Wall milliseconds from the start of each converged update's
/// initiation round to the end of its converging round.
fn update_ms(report: &WorkloadReport, stamps: &[Instant], end: Instant) -> Vec<f64> {
    // Round r > 0 starts at stamps[r - 1] (churn runs from round 1 on).
    let start = |r: u32| stamps[r as usize - 1];
    let finish = |r: u32| stamps.get(r as usize).copied().unwrap_or(end);
    report
        .updates
        .iter()
        .filter_map(|u| {
            let c = u.converged_round?;
            Some((finish(c) - start(u.initiated_round)).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Stops churn, runs the quiet rounds and checks that every key's last
/// update, if it converged, is held by every online replica. (An
/// earlier update of a rewritten key may legitimately never reach a
/// replica that pulls only the newer version superseding it.)
fn check_holdings<N: AsPeer + Node, T: Tracer>(
    driver: &mut Driver<N, T>,
    report: &WorkloadReport,
    quiet: u32,
    out: &mut Outcome,
) {
    driver.set_churn(Box::new(StaticChurn::new()));
    driver.run_rounds(quiet);
    let online = driver.online().clone();
    let mut last = std::collections::BTreeMap::new();
    for u in &report.updates {
        last.insert(u.key, u);
    }
    for u in last.values().filter(|u| u.converged_round.is_some()) {
        let held = N::awareness(driver.nodes(), &online, u.update);
        out.check(
            held == 1.0,
            format!(
                "engine-stream: converged update #{} held by only {:.4} of online replicas",
                u.sequence, held
            ),
        );
    }
}

fn sign_pass<N: Node, T>(pass: &Pass<N, T>, out: &mut Outcome) {
    let r = &pass.report;
    out.sign("rounds", r.rounds);
    out.sign("messages", pass.messages);
    out.sign("bytes", pass.bytes);
    out.sign("push_messages", pass.push_messages);
    out.sign("dropped", r.dropped_events);
    let lat: Vec<String> = r
        .updates
        .iter()
        .map(|u| {
            u.rounds_to_converge()
                .map_or("-".to_owned(), |x| x.to_string())
        })
        .collect();
    out.sign("update_rounds", lat.join(","));
    let aware: Vec<String> = r
        .updates
        .iter()
        .map(|u| format!("{:?}", u.final_aware_online))
        .collect();
    out.sign("final_aware", aware.join(","));
}

/// The figures the end-to-end metrics need from the first pass.
struct Summary {
    signature: Vec<(String, String)>,
    update_ms: Vec<f64>,
    update_rounds: Vec<f64>,
    attempted: usize,
    rounds: u32,
    updates: f64,
    messages: u64,
    bytes: u64,
    push_messages: u64,
    initial_online: usize,
    aware: f64,
    peak_rss_mib: f64,
}

/// Runs the untraced benchmark: passes repeat while `seconds` allow;
/// every pass must replay the first bit for bit.
pub fn run(size: Size, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let scenario_seed = derive_seed(seed, "perfbench/engine-stream");
    let protocol = PaperProtocol::new(bench_paper_config(size.population));
    let started = now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<Summary> = None;
    loop {
        let mut pass = run_pass(size, scenario_seed, &protocol, || NopTracer, false);
        walls.push(pass.wall_s);
        setups.extend(pass.setup_s.iter().copied());
        let mut sig = Outcome::default();
        sign_pass(&pass, &mut sig);
        match &first {
            Some(f) => out.check(
                f.signature == sig.signature,
                "engine-stream: a repeated pass diverged from the first",
            ),
            None => {
                let r = &pass.report;
                let update_ms = update_ms(r, &pass.log.lock().expect("clock log").stamps, pass.end);
                first = Some(Summary {
                    signature: sig.signature,
                    update_ms,
                    update_rounds: r
                        .updates
                        .iter()
                        .filter_map(|u| u.rounds_to_converge().map(|x| f64::from(x + 1)))
                        .collect(),
                    attempted: r.updates.len() + r.dropped_events,
                    rounds: r.rounds,
                    updates: r.updates.len().max(1) as f64,
                    messages: pass.messages,
                    bytes: pass.bytes,
                    push_messages: pass.push_messages,
                    initial_online: pass.driver.initial_online(),
                    aware: r.updates.iter().map(|u| u.final_aware_online).sum::<f64>()
                        / r.updates.len().max(1) as f64,
                    // Read before later passes, whose count depends on
                    // the host's speed, can touch the allocator.
                    peak_rss_mib: peak_rss_mib(),
                });
                check_holdings(&mut pass.driver, &pass.report, size.quiet, &mut out);
            }
        }
        drop(pass);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed * (walls.len() + 1) as f64 / walls.len() as f64 > seconds {
            break;
        }
    }
    let f = first.expect("one pass ran");
    let converged = f.update_rounds.len();
    out.attempted = f.attempted as u64;
    out.failed = (f.attempted - converged) as u64;
    let wall = median(&walls);
    let tail = tail_percentile(f.attempted);
    emit_end_to_end(
        &mut out,
        [
            median(&setups),
            f.peak_rss_mib,
            f64::from(f.rounds) / wall,
            f.updates / wall,
            median(&f.update_rounds),
            percentile(&f.update_rounds, tail),
            median(&f.update_ms),
            percentile(&f.update_ms, tail),
            converged as f64 / f.attempted.max(1) as f64,
            f.messages as f64 / f.updates,
            f.bytes as f64 / f.updates,
            f.push_messages as f64 / f.updates / f.initial_online as f64,
            f.aware,
        ],
    );
    out.signature = f.signature;
    out
}

/// Runs the traced benchmark: one untraced pass for the baseline, then
/// one pass with every layer wrapped. The traced pass must reproduce
/// the untraced one's counts exactly.
pub fn run_traced(size: Size, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let scenario_seed = derive_seed(seed, "perfbench/engine-stream");
    let plain = PaperProtocol::new(bench_paper_config(size.population));
    let base = run_pass(size, scenario_seed, &plain, || NopTracer, false);
    let mut base_sig = Outcome::default();
    sign_pass(&base, &mut base_sig);
    let base_rps = f64::from(base.report.rounds) / base.wall_s;
    drop(base);

    let probed = Probed::new(plain.clone());
    probe::take_corpus();
    let before = probe::totals();
    let mut pass = run_pass(
        size,
        scenario_seed,
        &probed,
        || TimedTracer::new(MemTracer::with_capacity(1 << 18)),
        true,
    );
    let delta = probe::delta(&probe::totals(), &before);
    let mut sig = Outcome::default();
    sign_pass(&pass, &mut sig);
    out.check(
        sig.signature == base_sig.signature,
        "engine-stream: the traced pass diverged from the untraced one",
    );
    out.signature = sig.signature;
    let rounds = f64::from(pass.report.rounds);
    let mut layers = Layers {
        adjacency_ms: median(&pass.adjacency_s) * 1e3,
        mount_ms: (median(&pass.setup_s) - median(&pass.adjacency_s)) * 1e3,
        driver_round_us: pass.wall_s * 1e6 / rounds,
        wasted_share: pass.wasted as f64 / pass.messages.max(1) as f64,
        net_msgs_per_s: pass.messages as f64 / pass.wall_s,
        churn_step_us: pass.churn_ns as f64 / 1e3 / rounds,
        overhead_share: 1.0 - (rounds / pass.wall_s) / base_rps,
        ..Layers::default()
    };
    layers.set_callbacks(&delta, rounds);
    let tracer = pass.driver.tracer();
    layers.set_driver_residual(
        rounds,
        tracer.events as f64,
        tracer.sampled as f64,
        tracer.sampled_ns as f64,
        probe::clock_overhead_ns(),
        delta[probe::slot::AWARE_PROBES] as f64,
        aware_probe_ns(pass.driver.nodes(), pass.report.updates[0].update),
    );
    layers.emit(&mut out);

    check_holdings(&mut pass.driver, &pass.report, size.quiet, &mut out);
    let online: Vec<_> = pass.driver.online().iter_online().collect();
    let store = online.first().map(|p| pass.driver.node(*p).peer().store());
    store_probe(store, &mut out);
    select_probe(32.min(size.population - 1), 4, &mut out);
    crate::codec::time_corpus(&probe::take_corpus(), &mut out);
    let r = &pass.report;
    out.attempted = (r.updates.len() + r.dropped_events) as u64;
    out.failed = out.attempted
        - r.updates
            .iter()
            .filter(|u| u.converged_round.is_some())
            .count() as u64;
    out
}
