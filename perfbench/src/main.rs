//! `rumor-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit (and, for end-to-end metrics, its
//! direction), the deterministic-count signature, the correctness
//! verdict and, as the last line, the result object. Exits 1 when a
//! correctness check fails and 2 on bad arguments.

use rumor_perfbench::report::{json_number, Better, END_TO_END};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rumor-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        rumor_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds").and_then(|s| s.parse::<f64>().ok()),
        get("--trace"),
    ) else {
        return usage();
    };
    let traced = match trace.as_str() {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };
    let Some(outcome) = rumor_perfbench::run(&workload, seed, seconds, traced) else {
        return usage();
    };
    for m in &outcome.metrics {
        let direction = END_TO_END
            .iter()
            .find(|(name, _, _)| *name == m.name)
            .map_or("", |(_, _, better)| match better {
                Better::Higher => "  (higher is better)",
                Better::Lower => "  (lower is better)",
            });
        println!(
            "{:<40} {:>16} {}{direction}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!("{}", outcome.signature_line());
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    println!(
        "checks: {}",
        if outcome.violations.is_empty() {
            "all passed"
        } else {
            "FAILED"
        }
    );
    println!("{}", outcome.result_line());
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
