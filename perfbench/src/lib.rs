//! One repeatable benchmark of the rumor workspace: three workloads,
//! end-to-end metrics from untraced runs and a per-layer split from a
//! traced run. `run.py` builds this crate and drives the binary; see
//! `README.md` for the workloads and metric definitions.

#![forbid(unsafe_code)]

pub mod codec;
pub mod engine_stream;
pub mod layers;
pub mod live_updates;
pub mod micro;
pub mod paper_mc;
pub mod probe;
pub mod report;

use report::Outcome;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["engine-stream", "live-updates", "paper-mc"];

/// Threads a workload may use: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `workload` at its benchmark size; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    let threads = nproc();
    Some(match (workload, traced) {
        ("engine-stream", false) => engine_stream::run(engine_stream::BENCH, seed, seconds),
        ("engine-stream", true) => engine_stream::run_traced(engine_stream::BENCH, seed),
        ("live-updates", false) => live_updates::run(live_updates::BENCH, seed, threads),
        ("live-updates", true) => live_updates::run_traced(live_updates::BENCH, seed, threads),
        ("paper-mc", false) => paper_mc::run(paper_mc::BENCH, seed, seconds, threads),
        ("paper-mc", true) => paper_mc::run_traced(paper_mc::BENCH, seed, threads),
        _ => return None,
    })
}
