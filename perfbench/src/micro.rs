//! Layer probes run outside the round loop: store operations on a real
//! end-of-run replica store, and target selection at a workload's
//! fanout and known-list size.

use crate::codec::ns_per_item;
use crate::probe::AsPeer;
use crate::report::Outcome;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_core::{select_targets_into, ReplicaStore, SelectScratch};
use rumor_types::{PeerId, UpdateId};
use std::hint::black_box;

/// Times the pull-path store operations on `store` and records
/// `core.store.*`. The requester digest is the store's own — the
/// steady-state anti-entropy case, a full scan that finds nothing
/// missing — and the delta quotes the last journal entry.
pub fn store_probe(store: Option<&ReplicaStore>, out: &mut Outcome) {
    let (mut len, mut journal, mut digest_ns, mut missing_ns, mut delta_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(store) = store {
        len = store.len() as f64;
        journal = store.journal_len() as f64;
        let digest = store.digest();
        out.check(
            store.missing_updates_for(&digest).is_empty(),
            "a store is missing nothing against its own digest",
        );
        digest_ns = ns_per_item(1, || {
            black_box(store.digest());
        });
        missing_ns = ns_per_item(1, || {
            black_box(store.missing_updates_for(&digest));
        });
        let mark = store.journal_len().saturating_sub(1);
        delta_ns = ns_per_item(1, || {
            black_box(store.delta_since(mark));
        });
    }
    out.metric("core.store.len", len, "keys");
    out.metric("core.store.journal_len", journal, "count");
    out.metric("core.store.digest_ns", digest_ns, "ns");
    out.metric("core.store.missing_updates_for_ns", missing_ns, "ns");
    out.metric("core.store.delta_since_ns", delta_ns, "ns");
}

/// Times `select_targets_into` choosing `fanout` of `known` candidates
/// and records `core.select_targets_ns`.
pub fn select_probe(known: usize, fanout: usize, out: &mut Outcome) {
    let candidates: Vec<PeerId> = (0..known as u32).map(PeerId::new).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut scratch = SelectScratch::default();
    let mut picked = Vec::with_capacity(fanout);
    let ns = ns_per_item(1, || {
        select_targets_into(
            &candidates,
            fanout,
            &[],
            &[],
            &mut rng,
            &mut scratch,
            &mut picked,
        );
        black_box(&picked);
    });
    out.metric("core.select_targets_ns", ns, "ns");
}

/// Mean cost of one awareness probe (`has_processed`, what the driver's
/// `Protocol::is_aware` calls) over `nodes`.
pub fn aware_probe_ns<N: AsPeer>(nodes: &[N], update: UpdateId) -> f64 {
    ns_per_item(nodes.len(), || {
        for n in nodes {
            black_box(n.peer().has_processed(update));
        }
    })
}
