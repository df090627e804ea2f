//! Pieces shared by the three workloads: the operation stream, normalised
//! answers, a seeded generator, order statistics and a small JSON writer.

use certa::data::{Const, Database, NullId, Tuple};
use certa::{Label, LabeledAnswers, Scheme, Verdict};
use std::fmt::Write as _;

/// One request of a workload's closed loop: a read through
/// `Pipeline::execute` or one public mutation call on the database.
#[derive(Debug, Clone)]
pub enum Op {
    Read {
        /// The template the text was drawn from, for per-template reports.
        template: &'static str,
        sql: String,
        scheme: Scheme,
    },
    Insert {
        relation: &'static str,
        tuple: Tuple,
    },
    Resolve {
        null: NullId,
        value: Const,
    },
    Delete {
        relation: &'static str,
        tuple: Tuple,
    },
    Snapshot,
}

/// Apply one write to a database, reporting any call that fails or
/// changes nothing.
pub fn apply_write(db: &mut Database, op: &Op) -> Result<(), String> {
    match op {
        Op::Insert { relation, tuple } => db
            .insert(relation, tuple.clone())
            .map_err(|e| format!("insert failed: {e}")),
        Op::Resolve { null, value } => match db.resolve_null(*null, value.clone()) {
            0 => Err(format!("resolve of ⊥{null} rewrote nothing")),
            _ => Ok(()),
        },
        Op::Delete { relation, tuple } => match db.delete(relation, tuple) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("delete found no row in {relation}")),
            Err(e) => Err(format!("delete failed: {e}")),
        },
        Op::Read { .. } | Op::Snapshot => Ok(()),
    }
}

/// The verdict class of an answer (the diagnosis text is not compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    Exact,
    Degraded,
    Refused,
}

/// Labeled answers in a canonical order, for equality checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub verdict: VerdictKind,
    pub columns: Vec<String>,
    pub rows: Vec<(Tuple, u8)>,
}

pub fn label_code(label: Label) -> u8 {
    match label {
        Label::Certain => 0,
        Label::Possible => 1,
        Label::CertainlyFalse => 2,
    }
}

impl Answer {
    pub fn of(answers: &LabeledAnswers) -> Answer {
        let verdict = match answers.verdict {
            Verdict::Exact => VerdictKind::Exact,
            Verdict::Degraded(_) => VerdictKind::Degraded,
            Verdict::Refused(_) => VerdictKind::Refused,
        };
        let mut rows: Vec<(Tuple, u8)> = answers
            .rows
            .iter()
            .map(|(t, l)| (t.clone(), label_code(*l)))
            .collect();
        rows.sort();
        Answer {
            verdict,
            columns: answers.columns.clone(),
            rows,
        }
    }

    /// The tuples carrying a label.
    pub fn with_label(&self, code: u8) -> impl Iterator<Item = &Tuple> {
        self.rows
            .iter()
            .filter(move |(_, l)| *l == code)
            .map(|(t, _)| t)
    }
}

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on the seed alone and not on any library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// A minimal JSON value, written without a serialisation library.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(i128),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn int(n: impl Into<i128>) -> Json {
        Json::Int(n.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
