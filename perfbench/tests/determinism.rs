//! Reproducibility of the benchmark's deterministic workloads: one seed
//! gives identical counts on every run (traced or not), another seed
//! gives different counts, and every correctness check passes on both.

use rumor_perfbench::report::Outcome;
use rumor_perfbench::{engine_stream, live_updates, paper_mc};

const ENGINE: engine_stream::Size = engine_stream::Size {
    population: 300,
    keys: 8,
    updates: 8,
    gap: 4,
    warmup: 10,
    settle: 80,
    quiet: 24,
    setups: 1,
};

const MC: paper_mc::Size = paper_mc::Size {
    replications: 6,
    cap: 100,
    setups: 1,
};

fn assert_clean(outcome: &Outcome) {
    assert!(
        outcome.violations.is_empty(),
        "checks failed: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.failed, 0, "an operation failed");
    assert!(
        !outcome.signature.is_empty(),
        "no deterministic counts recorded"
    );
}

#[test]
fn engine_stream_counts_repeat_per_seed_and_differ_across_seeds() {
    let a = engine_stream::run(ENGINE, 1, 0.0);
    let b = engine_stream::run(ENGINE, 1, 0.0);
    let c = engine_stream::run(ENGINE, 2, 0.0);
    for o in [&a, &b, &c] {
        assert_clean(o);
    }
    assert_eq!(a.signature, b.signature);
    assert_ne!(a.signature, c.signature);
    assert_eq!(a.get("msgs_per_update"), b.get("msgs_per_update"));
}

#[test]
fn engine_stream_traced_run_replays_the_untraced_one() {
    let plain = engine_stream::run(ENGINE, 3, 0.0);
    let traced = engine_stream::run_traced(ENGINE, 3);
    assert_clean(&traced);
    assert_eq!(plain.signature, traced.signature);
    assert!(traced.get("core.on_message.push.calls").unwrap() > 0.0);
    assert!(traced.get("wire.bytes.pull_request").unwrap() > 0.0);
}

#[test]
fn paper_mc_counts_repeat_per_seed_and_differ_across_seeds() {
    let a = paper_mc::run(MC, 1, 0.0, 2);
    let b = paper_mc::run(MC, 1, 0.0, 1);
    let c = paper_mc::run(MC, 2, 0.0, 2);
    for o in [&a, &b, &c] {
        assert_clean(o);
    }
    assert_eq!(a.signature, b.signature, "thread count must not matter");
    assert_ne!(a.signature, c.signature);
    let traced = paper_mc::run_traced(MC, 1, 2);
    assert_clean(&traced);
    assert_eq!(a.signature, traced.signature);
}

#[test]
fn live_updates_smoke_passes_its_checks() {
    let size = live_updates::Size {
        population: 96,
        burst: 4,
        warmup: 10,
        updates: 4,
        cap: 150,
        setups: 1,
    };
    let outcome = live_updates::run(size, 1, 2);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    assert_eq!(outcome.attempted, 4);
    assert!(outcome.get("bytes_per_update").unwrap() > 0.0);
}
