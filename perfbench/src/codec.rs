//! Codec timing on a corpus of real messages.
//!
//! The corpus is a bounded sample of the messages delivered during a
//! traced run ([`crate::probe::take_corpus`]). Each kind is encoded and
//! decoded outside the run, so the numbers are per-kind costs of the
//! `rumor-wire` entry points on real payloads, not synthetic ones.

use crate::probe::{kind_index, nanos, now, KINDS};
use crate::report::{median, Outcome};
use rumor_core::Message;
use rumor_wire::{
    decode_frame, decode_frame_v2, encode_frame, frame_len, BatchEncoder, Bytes, Encode,
    WireVersion,
};
use std::hint::black_box;

/// Messages per v2 batch frame in the mixed-batch timing.
pub const BATCH: usize = 8;

/// Median nanoseconds per item of `pass` (which handles `items` items),
/// over 7 samples of enough repetitions to last about a millisecond.
pub fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    let t = now();
    pass();
    let once = nanos(t.elapsed()).max(1);
    let reps = (1_000_000 / once).clamp(1, 1_000);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = now();
            for _ in 0..reps {
                pass();
            }
            nanos(t.elapsed()) as f64 / (reps as f64 * items.max(1) as f64)
        })
        .collect();
    median(&samples)
}

fn encode_batch(msgs: &[&Message]) -> Bytes {
    let mut batch = BatchEncoder::new();
    for m in msgs {
        batch.push(*m);
    }
    batch.finish()
}

fn decode_batch(frame: &Bytes, out: &mut Vec<Message>) {
    out.clear();
    decode_frame_v2::<Message>(frame, out).expect("corpus batch decodes");
}

/// Times every kind present in `corpus` and records the `wire.*`
/// metrics (0 for kinds the run never delivered). Records a violation
/// if any corpus message fails to round-trip.
pub fn time_corpus(corpus: &[Message], out: &mut Outcome) {
    let mut by_kind: Vec<Vec<&Message>> = vec![Vec::new(); KINDS.len()];
    for m in corpus {
        by_kind[kind_index(m)].push(m);
    }
    let mut scratch = Vec::new();
    for (k, msgs) in by_kind.iter().enumerate() {
        let name = KINDS[k];
        let v1_kind = msgs
            .first()
            .is_some_and(|m| Encode::wire_version(*m) == WireVersion::V1);
        let (mut bytes, mut v1_enc, mut v1_dec, mut v2_enc, mut v2_dec) = (0.0, 0.0, 0.0, 0.0, 0.0);
        if !msgs.is_empty() {
            bytes = msgs.iter().map(|m| frame_len(*m) as f64).sum::<f64>() / msgs.len() as f64;
            let frames: Vec<Bytes> = msgs.iter().map(|m| encode_frame(*m)).collect();
            if v1_kind {
                for (m, f) in msgs.iter().zip(&frames) {
                    let back: Message = decode_frame(f).expect("corpus frame decodes");
                    out.check(
                        back == **m,
                        format!("wire v1 round-trip of a {name} message"),
                    );
                }
                v1_enc = ns_per_item(msgs.len(), || {
                    for m in msgs {
                        black_box(encode_frame(*m));
                    }
                });
                v1_dec = ns_per_item(frames.len(), || {
                    for f in &frames {
                        black_box(decode_frame::<Message>(f).expect("decodes"));
                    }
                });
            }
            let batch = encode_batch(msgs);
            decode_batch(&batch, &mut scratch);
            out.check(
                scratch.iter().eq(msgs.iter().copied()),
                format!("wire v2 batch round-trip of {name} messages"),
            );
            v2_enc = ns_per_item(msgs.len(), || {
                black_box(encode_batch(msgs));
            });
            v2_dec = ns_per_item(msgs.len(), || decode_batch(&batch, &mut scratch));
        }
        out.metric(format!("wire.bytes.{name}"), bytes, "B");
        out.metric(format!("wire.v1.encode_ns.{name}"), v1_enc, "ns");
        out.metric(format!("wire.v1.decode_ns.{name}"), v1_dec, "ns");
        out.metric(format!("wire.v2.encode_ns.{name}"), v2_enc, "ns");
        out.metric(format!("wire.v2.decode_ns.{name}"), v2_dec, "ns");
    }

    // Mixed batches in corpus order, as a v2 cell groups a round's
    // traffic to one peer.
    let all: Vec<&Message> = corpus.iter().collect();
    let (mut batch_enc, mut frame_dec) = (0.0, 0.0);
    if !all.is_empty() {
        let frames: Vec<Bytes> = all.chunks(BATCH).map(encode_batch).collect();
        batch_enc = ns_per_item(all.len(), || {
            for chunk in all.chunks(BATCH) {
                black_box(encode_batch(chunk));
            }
        });
        frame_dec = ns_per_item(all.len(), || {
            for f in &frames {
                decode_batch(f, &mut scratch);
            }
        });
    }
    out.metric("wire.v2.batch_encode_ns", batch_enc, "ns");
    out.metric("wire.v2.decode_frame_ns", frame_dec, "ns");
}
