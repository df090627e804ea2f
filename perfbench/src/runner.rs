//! The closed loop: one client thread replays planned episodes against a
//! fresh pipeline (and, on `durable_ingest`, a fresh durable store), timing
//! each public call and checking each answer outside the timer.

use crate::common::{Answer, Op, VerdictKind};
use crate::verify::{fresh_pipeline, Plan};
use crate::workloads::Kind;
use certa::data::Database;
use certa::obs::{self, MetricId};
use certa::{LabeledAnswers, Pipeline, PipelineError};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one episode did, counted so that every complete episode of a seed
/// must report the same values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Shape {
    pub reads: u64,
    pub writes: u64,
    pub snapshots: u64,
    pub served: u64,
    pub refined: u64,
    pub recomputed: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub dispatch_mask: u64,
    pub dispatch_lineage: u64,
    pub dispatch_enum: u64,
    /// Op positions of the reads that came back `Degraded`.
    pub degraded: Vec<usize>,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub recover_frames: u64,
}

/// Timings and failure counts of the closed loop.
#[derive(Debug, Default)]
pub struct RunStats {
    pub read_ms: Vec<f64>,
    /// The template of each `read_ms` sample.
    pub read_template: Vec<&'static str>,
    pub write_ms: Vec<f64>,
    pub recovery_s: Vec<f64>,
    /// Sum of timed call durations: reads, writes and snapshots.
    pub busy_s: f64,
    /// Reads + writes + snapshots completed.
    pub completed: u64,
    /// Operations attempted, recoveries included.
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    pub mismatches: u64,
    pub failed_recoveries: u64,
    pub reads: u64,
    pub degraded: u64,
    /// Shapes of the episodes that ran to the end.
    pub shapes: Vec<Shape>,
    /// Per op position of the episode, its fastest timed duration so far.
    pub fastest_s: Vec<f64>,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl RunStats {
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.mismatches + self.failed_recoveries
    }

    fn record(&mut self, position: usize, elapsed: Duration) {
        let s = elapsed.as_secs_f64();
        self.busy_s += s;
        self.fastest_s[position] = self.fastest_s[position].min(s);
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Hooks the traced run uses to take counter deltas and replay stages
/// around each call; both run outside the call's timer.
pub trait Observer {
    fn before(&mut self, op: &Op, db: &Database, pipeline: &Pipeline);
    fn after(
        &mut self,
        op: &Op,
        elapsed: Duration,
        db: &Database,
        pipeline: &Pipeline,
        read: Option<&Result<LabeledAnswers, PipelineError>>,
    );
    fn recovered(&mut self, elapsed: Duration, frames: u64);
}

/// Everything fixed for a run: the workload, its set-up instance and the
/// verified episode plan.
pub struct Env {
    pub kind: Kind,
    pub base: Database,
    pub plan: Plan,
    pub work_dir: PathBuf,
}

/// A fresh target for one episode: a clone of the base instance and a
/// fresh pipeline, opened durable in `dir` when the workload is.
pub fn open_target(
    kind: Kind,
    base: &Database,
    dir: &Path,
) -> Result<(Database, Pipeline), String> {
    let mut db = base.clone();
    if kind.durable() {
        let _ = std::fs::remove_dir_all(dir);
        let pipeline =
            Pipeline::open(&mut db, dir).map_err(|e| format!("durable open failed: {e}"))?;
        Ok((db, pipeline))
    } else {
        Ok((db, fresh_pipeline(kind)))
    }
}

fn same_relations(a: &Database, b: &Database) -> bool {
    a.iter().count() == b.iter().count()
        && a.iter()
            .all(|(name, rel)| b.relation(name).is_ok_and(|r| r == rel))
}

/// Replay episodes until `budget` of timed call time has been spent or
/// `max_ops` calls were made; returns the number of calls made.
pub fn run(
    env: &Env,
    budget: Duration,
    max_ops: Option<u64>,
    stats: &mut RunStats,
    mut observer: Option<&mut dyn Observer>,
) -> Result<u64, String> {
    let budget_s = budget.as_secs_f64();
    stats.fastest_s.resize(env.plan.ops.len(), f64::INFINITY);
    let mut calls = 0u64;
    let mut episode = 0usize;
    loop {
        if stats.busy_s >= budget_s || max_ops.is_some_and(|m| calls >= m) {
            return Ok(calls);
        }
        let dir = env.work_dir.join(format!("episode-{episode}"));
        let (mut db, mut pipeline) = open_target(env.kind, &env.base, &dir)?;
        let registry_before = obs::metrics().snapshot();
        let (hits0, misses0) = pipeline.cache_stats();
        let mut shape = Shape::default();
        let mut complete = true;
        for (i, op) in env.plan.ops.iter().enumerate() {
            if stats.busy_s >= budget_s || max_ops.is_some_and(|m| calls >= m) {
                complete = false;
                break;
            }
            calls += 1;
            stats.attempted += 1;
            if let Some(o) = observer.as_deref_mut() {
                o.before(op, &db, &pipeline);
            }
            match op {
                Op::Read {
                    template,
                    sql,
                    scheme,
                } => {
                    let (out, elapsed) =
                        timed("bench:execute", || pipeline.execute(sql, &db, *scheme));
                    stats.record(i, elapsed);
                    stats.reads += 1;
                    shape.reads += 1;
                    match &out {
                        Ok(answers) => {
                            stats.read_ms.push(elapsed.as_secs_f64() * 1e3);
                            stats.read_template.push(template);
                            stats.completed += 1;
                            let got = Answer::of(answers);
                            match got.verdict {
                                VerdictKind::Refused => {
                                    stats.refused += 1;
                                    stats.problem(format!("refused at op {i}: {sql}"));
                                }
                                VerdictKind::Degraded => {
                                    stats.degraded += 1;
                                    shape.degraded.push(i);
                                }
                                VerdictKind::Exact => {}
                            }
                            if env.plan.expected[i].as_ref() != Some(&got) {
                                stats.mismatches += 1;
                                stats.problem(format!("wrong answer at op {i}: {sql}"));
                            }
                        }
                        Err(e) => {
                            stats.errors += 1;
                            stats.problem(format!("error at op {i}: {e}"));
                        }
                    }
                    if let Some(o) = observer.as_deref_mut() {
                        o.after(op, elapsed, &db, &pipeline, Some(&out));
                    }
                }
                Op::Snapshot => {
                    let (out, elapsed) = timed("bench:snapshot", || db.snapshot_durable());
                    stats.record(i, elapsed);
                    shape.snapshots += 1;
                    match out {
                        Ok(()) => stats.completed += 1,
                        Err(e) => {
                            stats.errors += 1;
                            stats.problem(format!("snapshot failed at op {i}: {e}"));
                        }
                    }
                    if let Some(o) = observer.as_deref_mut() {
                        o.after(op, elapsed, &db, &pipeline, None);
                    }
                }
                write => {
                    let (elapsed, ok) = timed_write(&mut db, write);
                    stats.record(i, elapsed);
                    shape.writes += 1;
                    let ok = ok && db.durability_crashed().is_none();
                    if ok {
                        stats.write_ms.push(elapsed.as_secs_f64() * 1e3);
                        stats.completed += 1;
                    } else {
                        stats.errors += 1;
                        stats.problem(format!("write failed at op {i}"));
                    }
                    if let Some(o) = observer.as_deref_mut() {
                        o.after(op, elapsed, &db, &pipeline, None);
                    }
                }
            }
        }
        if complete {
            let delta = obs::metrics().snapshot().delta(&registry_before);
            let totals = pipeline.maintenance_totals();
            let (hits, misses) = pipeline.cache_stats();
            shape.served = totals.served;
            shape.refined = totals.refined;
            shape.recomputed = totals.recomputed;
            shape.plan_hits = (hits - hits0) as u64;
            shape.plan_misses = (misses - misses0) as u64;
            shape.dispatch_mask = delta.get(MetricId::DispatchMask);
            shape.dispatch_lineage = delta.get(MetricId::DispatchLineage);
            shape.dispatch_enum = delta.get(MetricId::DispatchEnum);
            shape.snapshot_bytes = delta.get(MetricId::SnapshotBytes);
            shape.wal_bytes = db.durability().map_or(0, |d| d.append_bytes);
            if !same_relations(&db, &env.plan.final_db) {
                stats.mismatches += 1;
                stats.problem(format!("episode {episode} ended in a different state"));
            }
        }
        drop(pipeline);
        if env.kind.durable() {
            // The writer goes away as a killed process would: no sync, no
            // detach. Recovery must rebuild exactly the writer's relations.
            let writer = db;
            if complete {
                stats.attempted += 1;
                let (recovered, elapsed) = timed("bench:recover", || Pipeline::recover(&dir));
                match recovered {
                    Ok((rdb, _, report)) if same_relations(&rdb, &writer) => {
                        stats.recovery_s.push(elapsed.as_secs_f64());
                        shape.recover_frames = report.frames_replayed as u64;
                        if let Some(o) = observer.as_deref_mut() {
                            o.recovered(elapsed, report.frames_replayed as u64);
                        }
                    }
                    Ok(_) => {
                        stats.failed_recoveries += 1;
                        stats.problem(format!("episode {episode}: recovered state differs"));
                    }
                    Err(e) => {
                        stats.failed_recoveries += 1;
                        stats.problem(format!("episode {episode}: recovery failed: {e}"));
                    }
                }
            }
            drop(writer);
            let _ = std::fs::remove_dir_all(&dir);
        }
        if complete {
            stats.shapes.push(shape);
        } else {
            return Ok(calls);
        }
        episode += 1;
    }
}

/// Run one public call inside its benchmark span and time it.
fn timed<T>(span: &'static str, call: impl FnOnce() -> T) -> (T, Duration) {
    let _span = obs::span(span);
    let started = Instant::now();
    let out = call();
    (out, started.elapsed())
}

/// Time one mutation call; the input is cloned before the timer starts.
fn timed_write(db: &mut Database, op: &Op) -> (Duration, bool) {
    match op {
        Op::Insert { relation, tuple } => {
            let tuple = tuple.clone();
            let (out, elapsed) = timed("bench:insert", || db.insert(relation, tuple));
            (elapsed, out.is_ok())
        }
        Op::Resolve { null, value } => {
            let value = value.clone();
            let (out, elapsed) = timed("bench:resolve", || db.resolve_null(*null, value));
            (elapsed, out > 0)
        }
        Op::Delete { relation, tuple } => {
            let (out, elapsed) = timed("bench:delete", || db.delete(relation, tuple));
            (elapsed, matches!(out, Ok(true)))
        }
        Op::Read { .. } | Op::Snapshot => (Duration::ZERO, false),
    }
}
