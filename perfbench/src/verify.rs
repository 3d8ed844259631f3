//! Offline answers for everything the fleet served.
//!
//! A fleet session is an ordered list of ingest batches plus the reads
//! sent beside them. Each read carries the window of batch prefixes it may
//! have observed; a served line is correct when it is byte-equal to the
//! offline answer at some prefix in that window. Offline answers come from
//! the reloaded model through a `StreamEngine` replayed batch by batch,
//! which for an empty log is exactly `model.score`. Every ingest reply's
//! per-shard state digest must equal the replay digest at its prefix.

use std::sync::Arc;

use dd_graph::NodeId;
use dd_serve::ScoreResponse;
use dd_stream::{StreamEngine, TieEvent};
use deepdirect::DirectionalityModel;

/// A read the fleet answered.
pub struct ReadRecord {
    pub pairs: Vec<(u32, u32)>,
    pub batch: bool,
    pub lo: usize,
    pub hi: usize,
    pub status: u16,
    pub body: String,
}

/// Digests one ingest reply reported, per shard.
pub struct IngestRecord {
    pub batch: usize,
    pub digests: Vec<String>,
}

/// Verification outcome of one session.
#[derive(Default)]
pub struct Verdict {
    /// Served lines checked.
    pub lines: usize,
    /// Reads with at least one wrong line.
    pub bad_reads: usize,
    /// Ingest replies whose digest differs from the replay.
    pub bad_ingests: usize,
    /// Offline replay digest after the whole log.
    pub final_digest: u64,
    /// The first few mismatches, for the log.
    pub examples: Vec<String>,
}

/// The body line `dd serve` writes for `(src, dst)` in `engine`'s state.
fn expected_line(
    engine: &StreamEngine,
    fingerprint: &str,
    (src, dst): (u32, u32),
    batch: bool,
    scratch: &mut Vec<f32>,
) -> (u16, String) {
    let score = engine.score(NodeId(src), NodeId(dst), scratch);
    let error = score.is_none().then(|| {
        if batch { "unknown tie" } else { "unknown tie: pair was not in the training universe" }
            .to_string()
    });
    let status = if score.is_some() { 200 } else { 404 };
    let resp = ScoreResponse { src, dst, score, error, fingerprint: Some(fingerprint.to_string()) };
    (status, serde_json::to_string(&resp).expect("ScoreResponse serializes"))
}

/// Checks every read and ingest digest of a session against the replay.
pub fn session(
    model: &Arc<DirectionalityModel>,
    batches: &[Vec<TieEvent>],
    ingests: &[IngestRecord],
    reads: &[ReadRecord],
) -> Verdict {
    let fp = format!("{:016x}", model.fingerprint());
    let mut verdict = Verdict::default();
    // One item per served line: (read, line index), checked at each prefix
    // of its read's window until one matches.
    let mut items: Vec<(usize, usize)> = Vec::new();
    for (r, read) in reads.iter().enumerate() {
        if read.batch && (read.status != 200 || read.body.lines().count() != read.pairs.len()) {
            verdict.bad_reads += 1;
            note(
                &mut verdict,
                format!(
                    "batch of {} answered {}: {}",
                    read.pairs.len(),
                    read.status,
                    head(&read.body)
                ),
            );
            continue;
        }
        items.extend((0..read.pairs.len()).map(|l| (r, l)));
    }
    items.sort_by_key(|&(r, _)| reads[r].lo);
    verdict.lines = items.len();
    let mut bad = vec![false; reads.len()];
    let mut engine = StreamEngine::new(Arc::clone(model));
    let mut scratch = Vec::new();
    let mut active: Vec<(usize, usize)> = Vec::new();
    let mut next = 0;
    for b in 0..=batches.len() {
        while next < items.len() && reads[items[next].0].lo <= b {
            active.push(items[next]);
            next += 1;
        }
        active.retain(|&(r, l)| {
            let read = &reads[r];
            let (status, want) = expected_line(&engine, &fp, read.pairs[l], read.batch, &mut scratch);
            let got = if read.batch { read.body.lines().nth(l).unwrap_or("") } else { read.body.as_str() };
            if got == want && (read.batch || status == read.status) {
                return false;
            }
            if read.hi <= b {
                if !bad[r] {
                    bad[r] = true;
                    note(&mut verdict, format!("read {:?} (prefixes {}..={}) served {} {:?}, replay says {status} {want:?}", read.pairs[l], read.lo, read.hi, read.status, head(got)));
                }
                return false;
            }
            true
        });
        if b < batches.len() {
            engine.apply_all(&batches[b]);
            let digest = format!("{:016x}", engine.state_digest());
            for rec in ingests.iter().filter(|i| i.batch == b) {
                if rec.digests.len() != crate::fleet::SHARDS
                    || rec.digests.iter().any(|d| *d != digest)
                {
                    verdict.bad_ingests += 1;
                    note(
                        &mut verdict,
                        format!("ingest {b}: shard digests {:?}, replay {digest}", rec.digests),
                    );
                }
            }
        }
    }
    for &(r, l) in active.iter().chain(&items[next..]) {
        if !bad[r] {
            bad[r] = true;
            note(&mut verdict, format!("read {:?} never matched the replay", reads[r].pairs[l]));
        }
    }
    verdict.bad_reads += bad.iter().filter(|&&b| b).count();
    verdict.final_digest = engine.state_digest();
    verdict
}

fn note(v: &mut Verdict, msg: String) {
    if v.examples.len() < 5 {
        v.examples.push(msg);
    }
}

fn head(s: &str) -> &str {
    s.get(..160).unwrap_or(s)
}
