//! The traced run: per-layer metrics for one workload.
//!
//! The run alternates untraced and traced episodes until the untraced ones
//! have spent half the time budget. In the traced episodes an `obs::Trace`
//! is installed, every public call sits in its own benchmark span,
//! registry and pipeline counters are differenced around it, and every
//! read the pipeline recomputed or refined is replayed stage by stage
//! through the layers' public functions, outside the call's timer. Stage
//! times are attributed to the layers; what the stages do not cover of the
//! measured `execute` time is `certa.unattributed_us`.

use crate::common::{mean, Op};
use crate::runner::{self, Env, Observer, RunStats};
use crate::workloads::Kind;
use certa::algebra::governor::{self, Governor};
use certa::algebra::{delta_profile, naive_eval, optimize, DeltaProfile, PreparedQuery, Stats};
use certa::certain::approx37::{self, PreparedApproxPair};
use certa::certain::cert::classify_candidates_lineage;
use certa::certain::worlds::exact_pool;
use certa::certain::MaskBatch;
use certa::data::{Database, Delta, Tuple};
use certa::obs::{self, EventKind, MetricId, Snapshot};
use certa::{
    ExecBudget, LabeledAnswers, MaintenanceTotals, Pipeline, PipelineError, Scheme, Verdict,
};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct LayerReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub trace_file: String,
}

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 37] = [
    ("lineage.classify_us", "us"),
    ("lineage.nodes", "count"),
    ("lineage.apply_hit_ratio", "ratio"),
    ("certain.mask_build_us", "us"),
    ("certain.mask_classify_us", "us"),
    ("algebra.mask_arena_words", "count"),
    ("algebra.morsel_claimed", "count"),
    ("algebra.morsel_idle_polls", "count"),
    ("certain.mask_restrict_us", "us"),
    ("certain.mask_insert_delta_us", "us"),
    ("certa.refine_us", "us"),
    ("certa.serve_us", "us"),
    ("certa.answer_reuse_ratio", "ratio"),
    ("certa.plan_hit_ratio", "ratio"),
    ("certa.recompute_us", "us"),
    ("certa.unattributed_us", "us"),
    ("certa.dispatch_mask", "count"),
    ("certa.dispatch_lineage", "count"),
    ("sql.parse_us", "us"),
    ("sql.lower_us", "us"),
    ("algebra.optimize_us", "us"),
    ("algebra.stats_us", "us"),
    ("algebra.prepare_us", "us"),
    ("algebra.candidates_us", "us"),
    ("certain.pool_us", "us"),
    ("certain.approx37_us", "us"),
    ("certa.degraded", "count"),
    ("data.insert_us", "us"),
    ("data.resolve_us", "us"),
    ("data.delete_us", "us"),
    ("data.wal_bytes_per_mutation", "B"),
    ("data.snapshot_ms", "ms"),
    ("data.snapshot_bytes", "B"),
    ("data.recover_frames", "count"),
    ("data.recover_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_per_op", "count"),
];

pub fn traced_run(
    env: &Env,
    budget: Duration,
    stats: &mut RunStats,
) -> Result<LayerReport, String> {
    // Untraced and traced episodes alternate, so drift in the host's speed
    // reaches both sides of the overhead comparison alike.
    let mut untraced = RunStats::default();
    let trace = obs::Trace::new();
    let mut tracer = Tracer::new(env.kind);
    let episode = Some(env.plan.ops.len() as u64);
    let unlimited = Duration::from_secs(u32::MAX.into());
    while untraced.busy_s < budget.as_secs_f64() / 2.0 {
        runner::run(env, unlimited, episode, &mut untraced, None)?;
        let _installed = obs::install(Some(trace.clone()));
        runner::run(env, unlimited, episode, stats, Some(&mut tracer))?;
    }
    let calls = stats.attempted;
    if untraced
        .shapes
        .iter()
        .any(|s| Some(s) != stats.shapes.first())
    {
        stats
            .problems
            .push("traced and untraced episodes differ in shape".to_string());
    }
    stats.attempted += untraced.attempted;
    stats.errors += untraced.errors;
    stats.refused += untraced.refused;
    stats.mismatches += untraced.mismatches;
    stats.failed_recoveries += untraced.failed_recoveries;
    stats.problems.extend(untraced.problems);
    stats
        .problems
        .extend(tracer.replay_errors.iter().take(4).cloned());

    let untraced_exec: f64 = untraced.read_ms.iter().sum();
    let traced_exec: f64 = stats.read_ms.iter().sum();
    let overhead_pct = (traced_exec - untraced_exec) / untraced_exec.max(f64::MIN_POSITIVE) * 100.0;

    let events = trace.events();
    let bad = nesting_violations(&events);
    if bad > 0 {
        stats
            .problems
            .push(format!("{bad} trace span(s) escape their parent"));
    }
    let spans = events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .count();
    let out_dir = PathBuf::from(".bench_out");
    let trace_file = out_dir.join(format!("trace-{}.json", env.kind.name()));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&trace_file, trace.to_chrome_json()))
        .map_err(|e| format!("writing the Chrome trace: {e}"))?;

    let shape = stats.shapes.first().cloned().unwrap_or_default();
    let mut values = tracer.values();
    values.insert("certa.dispatch_mask", shape.dispatch_mask as f64);
    values.insert("certa.dispatch_lineage", shape.dispatch_lineage as f64);
    values.insert("certa.degraded", shape.degraded.len() as f64);
    values.insert("obs.trace_overhead_pct", overhead_pct);
    values.insert("obs.spans_per_op", spans as f64 / calls.max(1) as f64);
    let metrics = METRICS
        .iter()
        .map(|(name, unit)| (*name, values.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    Ok(LayerReport {
        metrics,
        trace_file: trace_file.display().to_string(),
    })
}

/// Spans whose interval is not inside their parent's. Start and duration
/// are each truncated to whole microseconds, hence a microsecond of slack
/// at the start and two at the end.
fn nesting_violations(events: &[obs::Event]) -> usize {
    let spans: HashMap<u64, &obs::Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .map(|e| (e.id, e))
        .collect();
    events
        .iter()
        .filter(|e| e.parent != 0)
        .filter(|e| match spans.get(&e.parent) {
            None => true,
            Some(p) => e.ts_us + 1 < p.ts_us || e.ts_us + e.dur_us > p.ts_us + p.dur_us + 2,
        })
        .count()
}

/// What the counters around one read showed the pipeline did.
struct Seen {
    /// The plan cache missed: the pipeline parsed, lowered and compiled.
    plan_miss: bool,
    /// The answer cache refined cached masks instead of recomputing.
    refined: bool,
    /// The recompute dispatched to the mask backend (else to lineage).
    mask: bool,
    /// The answer came back `Degraded`.
    degraded: bool,
}

/// The benchmark's copy of a mask-backend answer cache entry, rebuilt by
/// the replay so refinements can be replayed on it.
struct Mirror {
    prepared: PreparedQuery,
    profile: DeltaProfile,
    batch: MaskBatch,
    epoch: u64,
}

#[derive(Default)]
struct Acc {
    total: f64,
    count: u64,
}

struct Tracer {
    budget: Option<ExecBudget>,
    registry: Option<Snapshot>,
    totals: MaintenanceTotals,
    cache: (usize, usize),
    /// Mean-per-call accumulators, by metric name.
    acc: BTreeMap<&'static str, Acc>,
    mirrors: HashMap<String, Mirror>,
    approx: HashMap<String, PreparedApproxPair>,
    exact_reads: u64,
    reused: u64,
    plan_hits: u64,
    plan_lookups: u64,
    apply_hits: u64,
    apply_lookups: u64,
    /// Replays that could not follow the pipeline (reported as problems).
    replay_errors: Vec<String>,
}

/// Times replayed stages: each runs in a span of its own name and its
/// duration is added to the layer's accumulator and to the request's
/// staged total.
struct Stages<'a> {
    acc: &'a mut BTreeMap<&'static str, Acc>,
    total_us: f64,
}

impl Stages<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = obs::span(name);
        let started = Instant::now();
        let out = f();
        let us = started.elapsed().as_secs_f64() * 1e6;
        drop(span);
        let a = self.acc.entry(name).or_default();
        a.total += us;
        a.count += 1;
        self.total_us += us;
        out
    }

    /// A stage the pipeline skipped on this request (its product is
    /// cached) but the replay needs: run untimed.
    fn run_if<T>(&mut self, timed: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        if timed {
            self.run(name, f)
        } else {
            f()
        }
    }
}

impl Tracer {
    fn new(kind: Kind) -> Tracer {
        Tracer {
            budget: kind.budget(),
            registry: None,
            totals: MaintenanceTotals::default(),
            cache: (0, 0),
            acc: BTreeMap::new(),
            mirrors: HashMap::new(),
            approx: HashMap::new(),
            exact_reads: 0,
            reused: 0,
            plan_hits: 0,
            plan_lookups: 0,
            apply_hits: 0,
            apply_lookups: 0,
            replay_errors: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let a = self.acc.entry(name).or_default();
        a.total += value;
        a.count += 1;
    }

    fn values(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = self
            .acc
            .iter()
            .map(|(k, a)| (*k, mean(a.total, a.count)))
            .collect();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        out.insert(
            "certa.answer_reuse_ratio",
            ratio(self.reused, self.exact_reads),
        );
        out.insert(
            "certa.plan_hit_ratio",
            ratio(self.plan_hits, self.plan_lookups),
        );
        out.insert(
            "lineage.apply_hit_ratio",
            ratio(self.apply_hits, self.apply_lookups),
        );
        out
    }

    /// Replay the stages of one read the pipeline recomputed or refined, or
    /// evaluated under `Approx37`, through the layers' public functions.
    /// Returns the summed stage time in microseconds.
    fn replay(
        &mut self,
        sql: &str,
        scheme: Scheme,
        db: &Database,
        seen: Seen,
    ) -> Result<f64, String> {
        let Seen {
            plan_miss,
            refined,
            mask,
            degraded,
        } = seen;
        let _span = obs::span("bench:replay");
        let schema = db.schema();
        let mut st = Stages {
            acc: &mut self.acc,
            total_us: 0.0,
        };
        let text = |e: &dyn std::fmt::Display| format!("{e}: {sql}");
        let stmt = st
            .run_if(plan_miss, "sql.parse_us", || certa::sql::parse(sql))
            .map_err(|e| text(&e))?;
        let lowered = st
            .run_if(plan_miss, "sql.lower_us", || {
                certa::sql::lower_to_algebra(&stmt, schema)
            })
            .map_err(|e| text(&e))?;
        let optimized = st
            .run_if(plan_miss, "algebra.optimize_us", || {
                optimize(&lowered.expr, schema)
            })
            .map_err(|e| text(&e))?;
        st.run_if(plan_miss, "algebra.prepare_us", || {
            PreparedQuery::prepare(&optimized, schema)
        })
        .map_err(|e| text(&e))?;

        if scheme == Scheme::Approx37 {
            // The pipeline translates once per cached plan, then evaluates.
            if plan_miss {
                self.approx.remove(sql);
            }
            let approx = &mut self.approx;
            st.run("certain.approx37_us", || {
                if !approx.contains_key(sql) {
                    let pair = approx37::translate(&lowered.expr, schema)?.prepare(schema)?;
                    approx.insert(sql.to_string(), pair);
                }
                approx[sql].eval(db)
            })
            .map_err(|e| text(&e))?;
            return Ok(st.total_us);
        }

        if refined {
            let Some(mirror) = self.mirrors.get_mut(sql) else {
                return Err(text(&"refined without a mirrored mask batch"));
            };
            let deltas: Vec<Delta> = db
                .deltas_since(mirror.epoch)
                .map(|d| d.cloned().collect())
                .unwrap_or_default();
            let Mirror {
                prepared,
                profile,
                batch,
                epoch,
            } = mirror;
            for delta in &deltas {
                match delta {
                    Delta::Resolve { null, value } => {
                        st.run("certain.mask_restrict_us", || batch.restrict(*null, value));
                    }
                    Delta::Insert { relation, tuples } if !profile.ignores(relation) => {
                        st.run("certain.mask_insert_delta_us", || {
                            batch.apply_insert_delta(prepared, db, relation, tuples)
                        })
                        .map_err(|e| text(&e))?;
                    }
                    _ => {}
                }
            }
            let candidates = st
                .run("algebra.candidates_us", || naive_eval(&lowered.expr, db))
                .map_err(|e| text(&e))?;
            let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
            st.run("certain.mask_classify_us", || batch.classify(&tuples))
                .map_err(|e| text(&e))?;
            *epoch = db.epoch();
            return Ok(st.total_us);
        }

        let spec = st.run("certain.pool_us", || exact_pool(&lowered.expr, db));
        let candidates = st
            .run("algebra.candidates_us", || naive_eval(&lowered.expr, db))
            .map_err(|e| text(&e))?;
        let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
        if mask {
            let stats = st.run("algebra.stats_us", || Stats::from_database(db));
            let prepared = st
                .run("algebra.prepare_us", || {
                    PreparedQuery::prepare_optimized_with(&lowered.expr, schema, &stats)
                })
                .map_err(|e| text(&e))?;
            let batch = st
                .run("certain.mask_build_us", || {
                    MaskBatch::from_prepared(&prepared, db, &spec)
                })
                .map_err(|e| text(&e))?;
            st.run("certain.mask_classify_us", || batch.classify(&tuples))
                .map_err(|e| text(&e))?;
            let total = st.total_us;
            let profile = delta_profile(prepared.plan());
            self.mirrors.insert(
                sql.to_string(),
                Mirror {
                    prepared,
                    profile,
                    batch,
                    epoch: db.epoch(),
                },
            );
            return Ok(total);
        }
        // Lineage, under the request's budget when the workload has one; a
        // trip falls to the (Q+, Q?) approximation, as in the pipeline.
        let governed = self.budget.as_ref().map(Governor::arm);
        let lineage = {
            let _armed = governor::install(governed);
            st.run("lineage.classify_us", || {
                classify_candidates_lineage(&optimized, db, &spec, &tuples)
            })
        };
        match lineage {
            Ok(_) if !degraded => {}
            Err(e) if degraded && PipelineError::from(e.clone()).governor_trip().is_some() => {
                st.run("certain.approx37_us", || {
                    approx37::translate(&lowered.expr, schema)?
                        .prepare(schema)?
                        .eval(db)
                })
                .map_err(|e| text(&e))?;
            }
            Ok(_) => return Err(text(&"the replay finished where the pipeline degraded")),
            Err(e) => return Err(text(&e)),
        }
        Ok(st.total_us)
    }
}

impl Observer for Tracer {
    fn before(&mut self, _op: &Op, _db: &Database, pipeline: &Pipeline) {
        self.registry = Some(obs::metrics().snapshot());
        self.totals = pipeline.maintenance_totals();
        self.cache = pipeline.cache_stats();
    }

    fn after(
        &mut self,
        op: &Op,
        elapsed: Duration,
        db: &Database,
        pipeline: &Pipeline,
        read: Option<&Result<LabeledAnswers, PipelineError>>,
    ) {
        let delta = match &self.registry {
            Some(before) => obs::metrics().snapshot().delta(before),
            None => return,
        };
        let us = elapsed.as_secs_f64() * 1e6;
        match (op, read) {
            (Op::Read { sql, scheme, .. }, Some(out)) => {
                let totals = pipeline.maintenance_totals();
                let (hits, misses) = pipeline.cache_stats();
                let plan_miss = misses > self.cache.1;
                self.plan_hits += (hits - self.cache.0) as u64;
                self.plan_lookups += (hits + misses - self.cache.0 - self.cache.1) as u64;
                let served = totals.served > self.totals.served;
                let refined = totals.refined > self.totals.refined;
                let recomputed = totals.recomputed > self.totals.recomputed;
                let degraded = matches!(out, Ok(a) if matches!(a.verdict, Verdict::Degraded(_)));
                if *scheme == Scheme::Exact {
                    self.exact_reads += 1;
                    if served || refined {
                        self.reused += 1;
                    }
                }
                if served {
                    self.add("certa.serve_us", us);
                }
                if refined {
                    self.add("certa.refine_us", us);
                }
                if recomputed {
                    self.add("certa.recompute_us", us);
                }
                let hits = delta.get(MetricId::LineageApplyHits);
                self.apply_hits += hits;
                self.apply_lookups += hits + delta.get(MetricId::LineageApplyMisses);
                if delta.get(MetricId::DispatchLineage) > 0 {
                    self.add("lineage.nodes", delta.get(MetricId::LineageNodes) as f64);
                }
                if delta.get(MetricId::DispatchMask) > 0 || refined {
                    self.add(
                        "algebra.mask_arena_words",
                        delta.get(MetricId::MaskArenaWords) as f64,
                    );
                    self.add(
                        "algebra.morsel_claimed",
                        delta.get(MetricId::MorselClaimed) as f64,
                    );
                    self.add(
                        "algebra.morsel_idle_polls",
                        delta.get(MetricId::MorselIdlePolls) as f64,
                    );
                }
                if served {
                    if let Some(m) = self.mirrors.get_mut(sql) {
                        m.epoch = db.epoch();
                    }
                }
                if recomputed || refined || *scheme == Scheme::Approx37 {
                    let seen = Seen {
                        plan_miss,
                        refined,
                        mask: delta.get(MetricId::DispatchMask) > 0,
                        degraded,
                    };
                    match self.replay(sql, *scheme, db, seen) {
                        Ok(staged) => self.add("certa.unattributed_us", us - staged),
                        Err(e) => self.replay_errors.push(e),
                    }
                }
            }
            (Op::Insert { .. }, _) => self.mutation("data.insert_us", us, &delta),
            (Op::Resolve { .. }, _) => self.mutation("data.resolve_us", us, &delta),
            (Op::Delete { .. }, _) => self.mutation("data.delete_us", us, &delta),
            (Op::Snapshot, _) => {
                self.add("data.snapshot_ms", us / 1e3);
                self.add(
                    "data.snapshot_bytes",
                    delta.get(MetricId::SnapshotBytes) as f64,
                );
            }
            _ => {}
        }
    }

    fn recovered(&mut self, elapsed: Duration, frames: u64) {
        self.add("data.recover_ms", elapsed.as_secs_f64() * 1e3);
        self.add("data.recover_frames", frames as f64);
    }
}

impl Tracer {
    fn mutation(&mut self, name: &'static str, us: f64, delta: &Snapshot) {
        self.add(name, us);
        self.add(
            "data.wal_bytes_per_mutation",
            delta.get(MetricId::WalAppendBytes) as f64,
        );
    }
}
