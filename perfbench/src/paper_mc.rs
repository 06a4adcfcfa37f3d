//! `paper-mc`: the Fig. 1 Monte Carlo setting through
//! `rumor_sim::Experiment`.
//!
//! R = 2000, R_on(0) = 600, σ = 0.95, f_r = 0.01, PF = 1, full
//! knowledge, on-demand pulls (a pure push phase). Each replication is
//! a fresh `Scenario` plus `Simulation::propagate`, so most of the time
//! goes into per-replication set-up (the O(N²) full topology) and
//! almost none into stores, pulls, the codec or the cluster.

use crate::layers::Layers;
use crate::micro::{aware_probe_ns, select_probe, store_probe};
use crate::probe::{self, nanos, now, AsPeer, ClockLog, Probed, RoundClock, TimedTracer};
use crate::report::{
    emit_end_to_end, mean, median, peak_rss_mib, percentile, tail_percentile, Outcome,
};
use rumor_analysis::{PushModel, PushParams};
use rumor_churn::MarkovChurn;
use rumor_core::{ForwardPolicy, ProtocolConfig, PullStrategy};
use rumor_obs::MemTracer;
use rumor_sim::{Experiment, PaperProtocol, Scenario, TopologySpec, UpdateEvent};
use rumor_types::{derive_seed, DataKey};
use std::sync::{Arc, Mutex};

/// Population `R`.
pub const TOTAL: usize = 2_000;
/// Initially online `R_on(0)`.
pub const ONLINE: usize = 600;
/// Stay-online probability `σ`.
pub const SIGMA: f64 = 0.95;
/// Fanout fraction `f_r`.
pub const F_R: f64 = 0.01;
/// The §4.2 model's cost tolerance (as in the model-vs-simulation suite).
pub const COST_TOLERANCE: f64 = 0.30;
/// The model's awareness tolerance.
pub const AWARENESS_TOLERANCE: f64 = 0.12;
/// Online awareness below which a replication counts as a dying rumor.
pub const DIED_BELOW: f64 = 0.9;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Replications per pass.
    pub replications: u32,
    /// Round cap per propagation.
    pub cap: u32,
    /// Scenario builds plus mounts timed for `setup_s`.
    pub setups: usize,
}

/// The benchmark's size.
pub const BENCH: Size = Size {
    replications: 40,
    cap: 100,
    setups: 5,
};

fn config() -> ProtocolConfig {
    ProtocolConfig::builder(TOTAL)
        .fanout_fraction(F_R)
        .forward(ForwardPolicy::Always)
        .pull_strategy(PullStrategy::OnDemand)
        .build()
        .expect("valid Fig. 1 config")
}

fn scenario(seed: u64) -> Scenario {
    Scenario::builder(TOTAL, seed)
        .online_count(ONLINE)
        .topology(TopologySpec::Full)
        .churn(MarkovChurn::new(SIGMA, 0.0).expect("valid sigma"))
        .build()
        .expect("valid Fig. 1 scenario")
}

/// The update every replication propagates (`Simulation::propagate`
/// writes the same key and the payload `UpdateEvent::payload` gives).
fn event() -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name("paper-mc"),
        delete: false,
        sequence: 0,
    }
}

/// One replication's deterministic counts and timings.
#[derive(Debug, Clone)]
struct Rep {
    rounds: u32,
    push_messages: u64,
    messages: u64,
    bytes: u64,
    wasted: u64,
    aware: f64,
    initial_online: usize,
    setup_ns: u64,
    propagate_ns: u64,
    /// Traced only: churn ns, tracer events and sampled record cost.
    churn_ns: u64,
    events: u64,
    sampled: (u64, u64),
}

impl Rep {
    fn signature(&self) -> String {
        format!(
            "{}/{}/{}/{}/{:?}",
            self.rounds, self.push_messages, self.messages, self.bytes, self.aware
        )
    }
}

fn untraced(seed: u64, cap: u32) -> Rep {
    let t = now();
    let mut sim = scenario(seed).simulation(config());
    let t1 = now();
    let report = sim.propagate(event().key, &event().payload(), cap);
    let setup_ns = nanos(t1 - t);
    Rep {
        rounds: report.rounds,
        push_messages: report.push_messages,
        messages: report.total_messages,
        bytes: sim.driver().bytes_sent(),
        wasted: report.wasted,
        aware: report.aware_online_fraction,
        initial_online: report.initial_online,
        setup_ns,
        propagate_ns: nanos(t1.elapsed()),
        churn_ns: 0,
        events: 0,
        sampled: (0, 0),
    }
}

fn traced(seed: u64, cap: u32, protocol: &Probed) -> Rep {
    let t = now();
    let scenario = scenario(seed);
    let log = Arc::new(Mutex::new(ClockLog::default()));
    let clock = RoundClock::new(scenario.make_churn(), &log, true);
    let tracer = TimedTracer::new(MemTracer::with_capacity(1 << 16));
    let mut driver = scenario.drive_traced_with_churn(protocol, Box::new(clock), tracer);
    let t1 = now();
    let update = driver
        .initiate(protocol, None, &event())
        .expect("someone is online at round 0");
    let run = driver.track_update(protocol, update, cap);
    let propagate_ns = nanos(t1.elapsed());
    let tracer = driver.tracer();
    let churn_ns = log.lock().expect("clock log").churn_ns;
    Rep {
        rounds: run.rounds,
        push_messages: run.protocol_messages,
        messages: run.total_messages,
        bytes: run.total_bytes,
        wasted: run.total_wasted,
        aware: run.aware_online_fraction,
        initial_online: run.initial_online,
        setup_ns: nanos(t1 - t),
        propagate_ns,
        churn_ns,
        events: tracer.events,
        sampled: (tracer.sampled, tracer.sampled_ns),
    }
}

/// The §4.2 model's cost and awareness at the benchmark's setting.
fn model() -> (f64, f64) {
    let out = PushModel::new(PushParams::new(TOTAL as f64, ONLINE as f64, SIGMA, F_R)).run();
    (out.messages_per_initial_online(), out.final_awareness)
}

/// Checks the simulated means against the model (tolerances of the
/// model-vs-simulation suite).
fn check_model(reps: &[Rep], out: &mut Outcome) {
    let (cost, aware) = model();
    let sim_cost = mean(
        &reps
            .iter()
            .map(|r| r.push_messages as f64 / r.initial_online as f64)
            .collect::<Vec<_>>(),
    );
    let sim_aware = mean(&reps.iter().map(|r| r.aware).collect::<Vec<_>>());
    let cost_error = (cost - sim_cost).abs() / sim_cost;
    out.check(
        cost_error < COST_TOLERANCE,
        format!("paper-mc: model cost {cost:.3} vs simulated {sim_cost:.3} msgs/peer"),
    );
    out.check(
        (aware - sim_aware).abs() < AWARENESS_TOLERANCE,
        format!("paper-mc: model awareness {aware:.4} vs simulated {sim_aware:.4}"),
    );
}

fn sign(reps: &[Rep], out: &mut Outcome) {
    let all: Vec<String> = reps.iter().map(Rep::signature).collect();
    out.sign("replications", all.join(","));
}

/// Runs the untraced benchmark: identical passes of
/// `size.replications` repeat while `seconds` allow.
pub fn run(size: Size, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let master = derive_seed(seed, "perfbench/paper-mc");
    let setups: Vec<f64> = (0..size.setups.max(1))
        .map(|i| {
            let t = now();
            std::hint::black_box(
                scenario(derive_seed(master, &format!("setup-{i}"))).simulation(config()),
            );
            t.elapsed().as_secs_f64()
        })
        .collect();
    let experiment = Experiment::new(master, size.replications).threads(threads);
    let started = now();
    let mut walls = Vec::new();
    let mut first: Option<Vec<Rep>> = None;
    let mut propagate_ms = Vec::new();
    let mut rss = 0.0;
    loop {
        let t = now();
        let reps = experiment.run(|rep| untraced(rep.seed, size.cap));
        walls.push(t.elapsed().as_secs_f64());
        propagate_ms.extend(reps.iter().map(|r| r.propagate_ns as f64 / 1e6));
        match &first {
            None => {
                // Read before later passes, whose count depends on the
                // host's speed, can touch the allocator.
                rss = peak_rss_mib();
                first = Some(reps);
            }
            Some(f) => out.check(
                f.iter()
                    .map(Rep::signature)
                    .eq(reps.iter().map(Rep::signature)),
                "paper-mc: a repeated pass diverged from the first",
            ),
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed * (walls.len() + 1) as f64 / walls.len() as f64 > seconds {
            break;
        }
    }
    let reps = first.expect("one pass ran");
    check_model(&reps, &mut out);
    sign(&reps, &mut out);
    let n = reps.len() as f64;
    let rounds: Vec<f64> = reps.iter().map(|r| f64::from(r.rounds)).collect();
    let total_rounds: f64 = rounds.iter().sum();
    let alive = reps.iter().filter(|r| r.aware >= DIED_BELOW).count();
    out.attempted = reps.len() as u64;
    out.failed = reps.iter().filter(|r| r.rounds >= size.cap).count() as u64;
    let wall = median(&walls);
    let tail = tail_percentile(reps.len());
    emit_end_to_end(
        &mut out,
        [
            median(&setups),
            rss,
            total_rounds / wall,
            n / wall,
            median(&rounds),
            percentile(&rounds, tail),
            median(&propagate_ms),
            percentile(&propagate_ms, tail),
            alive as f64 / n,
            mean(&reps.iter().map(|r| r.messages as f64).collect::<Vec<_>>()),
            mean(&reps.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
            mean(
                &reps
                    .iter()
                    .map(|r| r.push_messages as f64 / r.initial_online as f64)
                    .collect::<Vec<_>>(),
            ),
            mean(&reps.iter().map(|r| r.aware).collect::<Vec<_>>()),
        ],
    );
    out
}

/// Runs the traced benchmark: one untraced pass for the baseline, then
/// one pass with probed nodes, a timed churn model and a timed tracer.
/// The traced pass must reproduce the untraced counts exactly.
pub fn run_traced(size: Size, seed: u64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let master = derive_seed(seed, "perfbench/paper-mc");
    let experiment = Experiment::new(master, size.replications).threads(threads);
    let t = now();
    let base = experiment.run(|rep| untraced(rep.seed, size.cap));
    let base_wall = t.elapsed().as_secs_f64();

    let protocol = Probed::new(PaperProtocol::new(config()));
    probe::take_corpus();
    let before = probe::totals();
    let t = now();
    let reps = experiment.run(|rep| traced(rep.seed, size.cap, &protocol));
    let wall = t.elapsed().as_secs_f64();
    let delta = probe::delta(&probe::totals(), &before);
    out.check(
        base.iter()
            .map(Rep::signature)
            .eq(reps.iter().map(Rep::signature)),
        "paper-mc: the traced pass diverged from the untraced one",
    );
    check_model(&reps, &mut out);
    sign(&reps, &mut out);

    let sum = |f: fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let rounds = sum(|r| u64::from(r.rounds));
    let (setup_ns, propagate_ns) = (sum(|r| r.setup_ns), sum(|r| r.propagate_ns));
    let messages = sum(|r| r.messages);
    let mut layers = Layers {
        driver_round_us: propagate_ns / 1e3 / rounds,
        worker_busy_share: (setup_ns + propagate_ns) / (wall * 1e9 * threads as f64),
        setup_share: setup_ns / (setup_ns + propagate_ns),
        wasted_share: sum(|r| r.wasted) / messages,
        net_msgs_per_s: messages / wall,
        churn_step_us: sum(|r| r.churn_ns) / 1e3 / rounds,
        overhead_share: 1.0 - base_wall / wall,
        ..Layers::default()
    };
    layers.set_callbacks(&delta, rounds);
    // One more replication on this thread, for the set-up split, the
    // probe cost and a real end-of-run store.
    let seed0 = Experiment::replication_seed(master, 0);
    let scenario = scenario(seed0);
    let adjacency: Vec<f64> = (0..size.setups.max(1))
        .map(|_| {
            let t = now();
            std::hint::black_box(scenario.adjacency());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mounts: Vec<f64> = (0..size.setups.max(1))
        .map(|_| {
            let t = now();
            std::hint::black_box(scenario.drive(&protocol));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.adjacency_ms = median(&adjacency);
    layers.mount_ms = median(&mounts) - layers.adjacency_ms;
    let mut driver = scenario.drive(&protocol);
    let update = driver
        .initiate(&protocol, None, &event())
        .expect("someone is online at round 0");
    driver.track_update(&protocol, update, size.cap);
    layers.set_driver_residual(
        rounds,
        sum(|r| r.events),
        sum(|r| r.sampled.0),
        sum(|r| r.sampled.1),
        probe::clock_overhead_ns(),
        delta[probe::slot::AWARE_PROBES] as f64,
        aware_probe_ns(driver.nodes(), update),
    );
    layers.emit(&mut out);
    let online: Vec<_> = driver.online().iter_online().collect();
    store_probe(
        online.first().map(|p| driver.node(*p).peer().store()),
        &mut out,
    );
    let fanout = config().fanout.targets(TOTAL);
    select_probe(TOTAL - 1, fanout, &mut out);
    crate::codec::time_corpus(&probe::take_corpus(), &mut out);
    out.attempted = reps.len() as u64;
    out.failed = reps.iter().filter(|r| r.rounds >= size.cap).count() as u64;
    out
}
