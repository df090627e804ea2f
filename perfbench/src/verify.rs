//! The untimed verification pass: replays one episode on a scratch copy of
//! the instance and computes every read's expected answers on a fresh
//! `Pipeline` (no plan or answer cache), plus the workload's independent
//! cross-checks.

use crate::common::{apply_write, label_code, Answer, Op, VerdictKind};
use crate::workloads::Kind;
use certa::algebra::{naive_eval, optimize, PreparedQuery};
use certa::certain::cert::{classify_candidates, classify_candidates_lineage, CandidateStatus};
use certa::certain::worlds::exact_pool;
use certa::certain::CertainError;
use certa::data::{Database, Tuple};
use certa::{Pipeline, PipelineError, Scheme};
use std::collections::{BTreeSet, HashMap};

/// Degraded `lineage_reads` answers also checked for soundness against the
/// ungoverned exact answer (each check compiles a full join's lineage).
const SOUNDNESS_SAMPLE: usize = 3;
/// Every `ENUMERATION_EVERY`-th distinct `mask_updates` read is also
/// checked against world enumeration.
const ENUMERATION_EVERY: usize = 30;

/// One planned episode with everything needed to check a timed replay.
pub struct Plan {
    pub ops: Vec<Op>,
    /// Expected answers, for read positions.
    pub expected: Vec<Option<Answer>>,
    /// The instance after the whole episode.
    pub final_db: Database,
    /// How many independent cross-checks ran, by kind.
    pub checks: Vec<(&'static str, usize)>,
}

pub fn fresh_pipeline(kind: Kind) -> Pipeline {
    let mut p = Pipeline::new();
    p.set_budget(kind.budget());
    p
}

/// Plan and verify one episode of `kind` over `base`.
pub fn plan(kind: Kind, seed: u64, base: &Database) -> Result<Plan, String> {
    let ops = kind.episode(seed, base);
    let mut sim = base.clone();
    let mut memo: HashMap<(String, u64), Answer> = HashMap::new();
    let mut expected = Vec::with_capacity(ops.len());
    let mut soundness = 0usize;
    let mut lineage_checks = 0usize;
    let mut enumeration_checks = 0usize;
    let mut distinct = 0usize;
    for op in &ops {
        let Op::Read { sql, scheme, .. } = op else {
            apply_write(&mut sim, op)?;
            expected.push(None);
            continue;
        };
        let key = (sql.clone(), sim.epoch());
        if let Some(answer) = memo.get(&key) {
            expected.push(Some(answer.clone()));
            continue;
        }
        let answer = fresh_answer(kind, sql, &sim, *scheme)?;
        distinct += 1;
        match kind {
            Kind::LineageReads => {
                if answer.verdict == VerdictKind::Degraded && soundness < SOUNDNESS_SAMPLE {
                    check_sound(sql, &sim, &answer)?;
                    soundness += 1;
                }
            }
            Kind::MaskUpdates => {
                if cross_check(sql, &sim, &answer, false)? {
                    lineage_checks += 1;
                }
                if distinct.is_multiple_of(ENUMERATION_EVERY) {
                    cross_check(sql, &sim, &answer, true)?;
                    enumeration_checks += 1;
                }
            }
            Kind::DurableIngest => {}
        }
        memo.insert(key, answer.clone());
        expected.push(Some(answer));
    }
    let checks = match kind {
        Kind::LineageReads => vec![("degraded_soundness_vs_exact", soundness)],
        Kind::MaskUpdates => vec![
            ("mask_vs_lineage", lineage_checks),
            ("mask_vs_enumeration", enumeration_checks),
        ],
        Kind::DurableIngest => Vec::new(),
    };
    Ok(Plan {
        ops,
        expected,
        final_db: sim,
        checks,
    })
}

fn fresh_answer(kind: Kind, sql: &str, db: &Database, scheme: Scheme) -> Result<Answer, String> {
    let answers = fresh_pipeline(kind)
        .execute(sql, db, scheme)
        .map_err(|e| format!("verification read failed: {e}: {sql}"))?;
    let answer = Answer::of(&answers);
    if answer.verdict == VerdictKind::Refused {
        return Err(format!("verification read refused: {sql}"));
    }
    Ok(answer)
}

fn rows_of(answer: &Answer, codes: &[u8]) -> BTreeSet<Tuple> {
    codes
        .iter()
        .flat_map(|c| answer.with_label(*c).cloned())
        .collect()
}

/// A degraded answer is sound: its certain rows are certain in the exact
/// answer, and every exactly-possible row is at least possible in it.
fn check_sound(sql: &str, db: &Database, degraded: &Answer) -> Result<(), String> {
    let exact = Pipeline::new()
        .execute(sql, db, Scheme::Exact)
        .map_err(|e| format!("ungoverned exact read failed: {e}"))?;
    let exact = Answer::of(&exact);
    let exact_certain = rows_of(&exact, &[0]);
    let exact_possible = rows_of(&exact, &[0, 1]);
    let degraded_certain = rows_of(degraded, &[0]);
    let degraded_possible = rows_of(degraded, &[0, 1]);
    if !degraded_certain.is_subset(&exact_certain) {
        return Err(format!("degraded answer claims a non-certain row: {sql}"));
    }
    if !exact_possible.is_subset(&degraded_possible) {
        return Err(format!("degraded answer misses a possible row: {sql}"));
    }
    Ok(())
}

/// Recompute a mask-backend answer independently — by lineage, or by
/// enumerating worlds — over the same exact pool and compare the labels.
/// Returns `false` when lineage does not cover the query.
fn cross_check(sql: &str, db: &Database, answer: &Answer, enumerate: bool) -> Result<bool, String> {
    let stmt = certa::sql::parse(sql).map_err(|e| e.to_string())?;
    let lowered = certa::sql::lower_to_algebra(&stmt, db.schema()).map_err(|e| e.to_string())?;
    let optimized = optimize(&lowered.expr, db.schema()).map_err(|e| e.to_string())?;
    let candidates = naive_eval(&lowered.expr, db).map_err(|e| e.to_string())?;
    let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
    let spec = exact_pool(&lowered.expr, db);
    let statuses: Vec<CandidateStatus> = if enumerate {
        let plain = PreparedQuery::prepare(&optimized, db.schema()).map_err(|e| e.to_string())?;
        classify_candidates(&plain, db, &spec, &tuples).map_err(|e| e.to_string())?
    } else {
        match classify_candidates_lineage(&optimized, db, &spec, &tuples) {
            Ok(s) => s,
            Err(CertainError::Lineage(e)) if e.is_unsupported() => return Ok(false),
            Err(e) => return Err(PipelineError::from(e).to_string()),
        }
    };
    let mut rows: Vec<(Tuple, u8)> = tuples
        .into_iter()
        .zip(&statuses)
        .map(|(t, s)| {
            let label = if s.certain {
                certa::Label::Certain
            } else if s.possible {
                certa::Label::Possible
            } else {
                certa::Label::CertainlyFalse
            };
            (t, label_code(label))
        })
        .collect();
    rows.sort();
    if rows != answer.rows {
        let how = if enumerate { "enumeration" } else { "lineage" };
        return Err(format!("mask answer disagrees with {how}: {sql}"));
    }
    Ok(true)
}
