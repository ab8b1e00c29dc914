//! The verify pass: every distinct search of the workload, sent once more
//! on one connection and compared rank by rank with a direct
//! `engine.request(..)` call, and — for the committed seed and corpus —
//! with the golden digests under `benchmark/golden/`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ipm_core::{QueryEngine, SearchResponse};
use ipm_server::{Client, SearchRequest};
use serde_json::Value;

use crate::setup::FANOUT;
use crate::workload::{Workload, BATCH};

/// One hit as the golden files hold it: the text a user reads and the
/// exact bits of its score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub text: String,
    pub score_bits: String,
}

#[derive(Debug, Default)]
pub struct VerifyOutcome {
    /// Searches checked.
    pub checked: u64,
    /// Searches whose wire answer was missing, not `exact`, or differed
    /// from the reference or the golden digest.
    pub wrong: u64,
    /// The first few differences, for the log.
    pub notes: Vec<String>,
    /// The paper's §5.5 cost summed over the checked answers:
    /// 1 ms × sequential fetches + 10 ms × random fetches.
    pub sim_io_ms: f64,
    pub seq_fetches: u64,
    pub random_fetches: u64,
    pub pool_hits: u64,
    /// Request line → digests of the wire answer, in workload order.
    pub digests: Vec<(String, Vec<Digest>)>,
}

fn bits(score: f64) -> String {
    format!("{:016x}", score.to_bits())
}

/// The direct call a wire answer must equal.
fn reference(engine: &QueryEngine, req: &SearchRequest, routed: bool) -> Option<SearchResponse> {
    let mut direct = engine
        .request(req.query.clone())
        .k(req.k)
        .algorithm(req.algorithm)
        .backend(req.backend);
    if routed {
        direct = direct.shards(FANOUT);
    }
    direct.run().ok()
}

fn wire_digests(result: &Value) -> Option<Vec<(u64, Digest)>> {
    result["hits"]
        .as_array()?
        .iter()
        .map(|h| {
            Some((
                h["phrase"].as_u64()?,
                Digest {
                    text: h["text"].as_str()?.to_owned(),
                    score_bits: bits(h["score"].as_f64()?),
                },
            ))
        })
        .collect()
}

impl VerifyOutcome {
    fn note(&mut self, text: String) {
        self.wrong += 1;
        if self.notes.len() < 5 {
            self.notes.push(text);
        }
    }

    /// Checks one `{ok, result}` wire object against the direct call.
    fn check(&mut self, engine: &QueryEngine, req: &SearchRequest, routed: bool, answer: &Value) {
        self.checked += 1;
        let line = req.to_line().trim_end().to_owned();
        let result = &answer["result"];
        let Some(got) = wire_digests(result) else {
            self.digests.push((line.clone(), Vec::new()));
            return self.note(format!("{line}: no hits in {answer:?}"));
        };
        self.digests
            .push((line.clone(), got.iter().map(|(_, d)| d.clone()).collect()));
        if result["completeness"]["kind"] != "exact" {
            return self.note(format!("{line}: completeness {:?}", result["completeness"]));
        }
        let io = &result["io"];
        if !io.is_null() {
            let seq = io["sequential_fetches"].as_u64().unwrap_or(0);
            let random = io["random_fetches"].as_u64().unwrap_or(0);
            self.seq_fetches += seq;
            self.random_fetches += random;
            self.pool_hits += io["cache_hits"].as_u64().unwrap_or(0);
            self.sim_io_ms += seq as f64 + 10.0 * random as f64;
        }
        let Some(want) = reference(engine, req, routed) else {
            return self.note(format!("{line}: the direct call failed"));
        };
        let same = want.hits.len() == got.len()
            && want.hits.iter().zip(&got).all(|(w, (phrase, d))| {
                u64::from(w.hit.phrase.raw()) == *phrase
                    && bits(w.hit.score) == d.score_bits
                    && w.text == d.text
            });
        if !same {
            let want: Vec<_> = want
                .hits
                .iter()
                .map(|h| (h.hit.phrase.raw(), h.hit.score))
                .collect();
            self.note(format!("{line}: wire {got:?} != direct {want:?}"));
        }
    }
}

/// Sends every distinct search of `workload` on one connection — as
/// batches where the workload batches — and checks each answer.
pub fn verify(
    addr: &str,
    engine: &QueryEngine,
    workload: &Workload,
) -> std::io::Result<VerifyOutcome> {
    let mut out = VerifyOutcome::default();
    let mut client = Client::connect(addr)?;
    let routed = workload.spec.routed;
    if workload.ops.iter().any(|op| op.searches > 1) {
        for chunk in workload.distinct.chunks(BATCH) {
            let response = client.search_batch(chunk)?;
            let empty = Vec::new();
            let items = response["batch"].as_array().unwrap_or(&empty);
            for (i, req) in chunk.iter().enumerate() {
                out.check(engine, req, routed, items.get(i).unwrap_or(&Value::Null));
            }
        }
    } else {
        for req in &workload.distinct {
            let response = client.search(req)?;
            out.check(engine, req, routed, &response);
        }
    }
    Ok(out)
}

fn golden_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.jsonl"))
}

/// The golden file's lines: a header naming corpus and seed, then one
/// compact object per search, in workload order.
fn golden_lines(corpus: &str, seed: u64, digests: &[(String, Vec<Digest>)]) -> Vec<String> {
    let header = Value::Object(BTreeMap::from([
        ("corpus".to_owned(), Value::from(corpus)),
        ("seed".to_owned(), Value::from(seed)),
    ]));
    let queries = digests.iter().map(|(line, hits)| {
        let hits: Vec<Value> = hits
            .iter()
            .map(|d| {
                Value::Object(BTreeMap::from([
                    ("text".to_owned(), Value::from(d.text.clone())),
                    ("score_bits".to_owned(), Value::from(d.score_bits.clone())),
                ]))
            })
            .collect();
        Value::Object(BTreeMap::from([
            ("request".to_owned(), Value::from(line.clone())),
            ("hits".to_owned(), Value::Array(hits)),
        ]))
    });
    std::iter::once(header)
        .chain(queries)
        .map(|v| serde_json::to_string(&v).expect("infallible"))
        .collect()
}

/// Writes the golden file for `workload` from a verify pass's answers.
pub fn write_golden(
    workload: &str,
    corpus: &str,
    seed: u64,
    outcome: &VerifyOutcome,
) -> std::io::Result<()> {
    let path = golden_path(workload);
    std::fs::create_dir_all(path.parent().expect("golden file has a parent"))?;
    std::fs::write(
        path,
        golden_lines(corpus, seed, &outcome.digests).join("\n") + "\n",
    )
}

/// Compares a verify pass's answers with the committed golden file, when
/// one exists for this corpus and seed. Each differing search counts as
/// wrong; a golden file for another corpus or seed does not apply.
pub fn check_golden(workload: &str, corpus: &str, seed: u64, outcome: &mut VerifyOutcome) -> bool {
    let Ok(text) = std::fs::read_to_string(golden_path(workload)) else {
        return false;
    };
    let committed: Vec<&str> = text.lines().collect();
    let got = golden_lines(corpus, seed, &outcome.digests);
    if committed.first().copied() != got.first().map(String::as_str) {
        return false;
    }
    if committed.len() != got.len() {
        outcome.note(format!(
            "golden holds {} searches, the workload has {}",
            committed.len() - 1,
            got.len() - 1
        ));
    }
    for (c, g) in committed.iter().zip(&got) {
        if c != g {
            outcome.note(format!("golden {c} != wire {g}"));
        }
    }
    true
}
