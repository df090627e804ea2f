//! The three workloads: how each builds its instance from the seed and
//! plans one deterministic episode of requests over it.
//!
//! An episode is a fixed-length request stream that starts from the set-up
//! instance. The closed loop replays episodes back to back, each on a
//! fresh clone of the instance and a fresh pipeline, so every episode of a
//! seed has the same shape (cache decisions, dispatch mix, degraded
//! positions, WAL bytes) and its expected answers are computed once.

use crate::common::{apply_write, Op, Rng};
use certa::data::{Const, Database, NullId, Relation, RelationSchema, Schema, Tuple, Value};
use certa::workload::{TpchConfig, TpchGenerator};
use certa::{ExecBudget, Scheme};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LineageReads,
    MaskUpdates,
    DurableIngest,
}

pub const ALL: [Kind; 3] = [Kind::LineageReads, Kind::MaskUpdates, Kind::DurableIngest];

/// Diagram-node budget of `lineage_reads`: every customer⋈orders request
/// compiles well over a thousand nodes and trips it; the other templates
/// stay under a hundred.
pub const LINEAGE_NODE_BUDGET: u64 = 300;

/// Reads in one `lineage_reads` episode: two rotations of new texts, with
/// a repeat after every four of them. Short episodes give each read many
/// repetitions in a run (see `quiet_profile` in `main.rs`).
const LINEAGE_EPISODE_READS: usize = 62;
/// Every `LINEAGE_REPEAT_EVERY`-th read repeats one of the last eight texts.
const LINEAGE_REPEAT_EVERY: usize = 5;

/// Write/read rounds in one `mask_updates` episode.
const MASK_EPISODE_ROUNDS: usize = 48;
/// Values a survey answer can take (`1..=SURVEY_DOMAIN`).
const SURVEY_DOMAIN: i64 = 6;
const SURVEY_ROWS: usize = 2000;
/// Survey rows carrying a null at set-up; the stream keeps at most this
/// many nulls live, so every recompute stays within the mask threshold.
const SURVEY_NULLS: usize = 3;

/// Writes in one `durable_ingest` episode (cut mid-way between two
/// snapshots, so recovery replays a WAL tail).
const INGEST_EPISODE_WRITES: usize = 3500;
/// One `Approx37` read after every `INGEST_READ_EVERY` writes.
const INGEST_READ_EVERY: usize = 40;
/// One `snapshot_durable` after every `INGEST_SNAPSHOT_EVERY` writes.
const INGEST_SNAPSHOT_EVERY: usize = 1000;
/// Stream-inserted orders kept live before the oldest is deleted.
const INGEST_WINDOW: usize = 40;

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::LineageReads => "lineage_reads",
            Kind::MaskUpdates => "mask_updates",
            Kind::DurableIngest => "durable_ingest",
        }
    }

    /// The budget every pipeline of this workload runs under.
    pub fn budget(self) -> Option<ExecBudget> {
        match self {
            Kind::LineageReads => Some(ExecBudget::new().with_node_budget(LINEAGE_NODE_BUDGET)),
            _ => None,
        }
    }

    pub fn durable(self) -> bool {
        self == Kind::DurableIngest
    }

    /// Build the seeded base instance.
    pub fn setup(self, seed: u64) -> Database {
        match self {
            Kind::LineageReads => tpch(2000, seed),
            Kind::MaskUpdates => survey(seed),
            Kind::DurableIngest => tpch(5000, seed),
        }
    }

    /// The read templates with one fixed parameter each: warm-up requests
    /// and the texts whose world counts `Pipeline::explain` reports.
    pub fn template_samples(self) -> Vec<(&'static str, String)> {
        match self {
            Kind::LineageReads => (0..LINEAGE_TEMPLATES.len())
                .map(|t| (LINEAGE_TEMPLATES[t], lineage_text(t, 500, 3)))
                .collect(),
            Kind::MaskUpdates => MASK_TEMPLATES
                .iter()
                .map(|(name, sql)| (*name, sql.to_string()))
                .collect(),
            Kind::DurableIngest => (0..INGEST_TEMPLATES.len())
                .map(|t| (INGEST_TEMPLATES[t], ingest_text(t, 3)))
                .collect(),
        }
    }

    /// The scheme the workload's reads request.
    pub fn scheme(self) -> Scheme {
        match self {
            Kind::DurableIngest => Scheme::Approx37,
            _ => Scheme::Exact,
        }
    }

    /// Plan one episode over `base`.
    pub fn episode(self, seed: u64, base: &Database) -> Vec<Op> {
        match self {
            Kind::LineageReads => lineage_episode(seed),
            Kind::MaskUpdates => mask_episode(seed, base),
            Kind::DurableIngest => ingest_episode(seed, base),
        }
    }
}

/// Template label of a read that repeats an earlier text.
pub const REPEAT: &str = "repeat";

// ------------------------------------------------------------------ tpch

/// Share of each nullable TPC-H column that is null.
const TPCH_NULL_RATE: f64 = 0.01;

/// The columns `TpchGenerator` makes nullable: (relation, column).
const TPCH_NULLABLE: [(&str, usize); 5] = [
    ("Customer", 2),
    ("Supplier", 2),
    ("Orders", 1),
    ("Orders", 2),
    ("Lineitem", 2),
];

/// `TpchConfig::scaled_to(target, 0.01, seed)` with the nulls stratified:
/// the generator's complete instance, then exactly 1% of the cells of each
/// nullable column (rounded) replaced by fresh nulls at seeded rows, no row
/// with two nulls. Fixing the count per column, rather than drawing it, and
/// keeping nulls on distinct rows keep the lineage cost of a template —
/// which depends on where nulls fall — the same across seeds: an order with
/// both its customer and its price unknown sits in every `NOT IN`
/// subquery's answer for every customer and pushes that template past the
/// node budget on the seeds that draw one.
fn tpch(target: usize, seed: u64) -> Database {
    let complete = TpchGenerator::new(TpchConfig::scaled_to(target, 0.0, seed)).generate();
    let mut rng = Rng::new(seed, 5);
    let mut next_null: NullId = 0;
    let mut db = Database::new(complete.schema().clone());
    for (name, rel) in complete.iter() {
        let mut rows: Vec<Vec<Value>> = rel.iter().map(|t| t.iter().cloned().collect()).collect();
        let mut taken = std::collections::BTreeSet::new();
        for (_, column) in TPCH_NULLABLE.iter().filter(|(r, _)| *r == name) {
            let nulls = (rows.len() as f64 * TPCH_NULL_RATE).round() as usize;
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < nulls {
                let row = rng.range(0, rows.len() as u64) as usize;
                if taken.insert(row) {
                    chosen.insert(row);
                }
            }
            for row in chosen {
                rows[row][*column] = Value::Null(next_null);
                next_null += 1;
            }
        }
        db.insert_all(name, rows.into_iter().map(Tuple::new))
            .expect("tpch arity");
    }
    db
}

// ---------------------------------------------------------------- lineage

const LINEAGE_TEMPLATES: [&str; 5] = [
    "customer_orders_neq",
    "not_in",
    "tautology",
    "nation_filter",
    "lineitem_supplier",
];

fn lineage_text(template: usize, k: u64, n: u64) -> String {
    match template {
        0 => format!(
            "SELECT c.name, o.orderkey FROM Customer c, Orders o \
             WHERE c.custkey = o.custkey AND o.totalprice <> {k}"
        ),
        1 => format!(
            "SELECT c.custkey FROM Customer c WHERE c.custkey NOT IN \
             (SELECT o.custkey FROM Orders o WHERE o.totalprice = {k})"
        ),
        2 => format!(
            "SELECT o.orderkey FROM Orders o WHERE o.totalprice = {k} OR o.totalprice <> {k}"
        ),
        3 => format!(
            "SELECT c.name FROM Customer c, Nation n WHERE c.nationkey = n.nationkey \
             AND n.name = 'nation{n}' AND c.custkey <> {k}"
        ),
        _ => format!(
            "SELECT l.orderkey, s.name FROM Lineitem l, Supplier s \
             WHERE l.suppkey = s.suppkey AND l.quantity = {} AND s.nationkey <> {n}",
            1 + k % 49
        ),
    }
}

/// New-text template slots, in rotation: six each of the four exact
/// templates, one customer⋈orders (which the node budget degrades). The
/// weights put the median read inside the `lineitem_supplier` class, the
/// 95th percentile inside the tautology class and the 99th inside the
/// degraded class.
const LINEAGE_ROTATION: [usize; 25] = [
    3, 4, 1, 2, 3, 4, 1, 2, 0, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2,
];

/// Each read draws a fresh parameter for the next template of the rotation
/// (a new text: plan and answer cache miss), except every
/// `LINEAGE_REPEAT_EVERY`-th, which repeats one of the last eight texts
/// (plan hit; the answer is served unless the earlier one degraded). Where
/// the repeats fall and how far back they reach are fixed, so every seed
/// repeats the same templates and only the parameters vary.
fn lineage_episode(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    let mut recent: Vec<String> = Vec::new();
    let mut slot = 0usize;
    (0..LINEAGE_EPISODE_READS)
        .map(|i| {
            let (template, sql) = if i % LINEAGE_REPEAT_EVERY == LINEAGE_REPEAT_EVERY - 1 {
                let back = (i / LINEAGE_REPEAT_EVERY) % recent.len().min(8);
                (REPEAT, recent[recent.len() - 1 - back].clone())
            } else {
                let template = LINEAGE_ROTATION[slot % LINEAGE_ROTATION.len()];
                slot += 1;
                let text = lineage_text(template, rng.range(10, 1000), rng.range(0, 5));
                recent.push(text.clone());
                (LINEAGE_TEMPLATES[template], text)
            };
            Op::Read {
                template,
                sql,
                scheme: Scheme::Exact,
            }
        })
        .collect()
}

// ------------------------------------------------------------------- mask

const MASK_TEMPLATES: [(&str, &str); 3] = [
    (
        "selection",
        "SELECT s.q1, s.q2 FROM Survey s WHERE s.q3 = 2 AND s.q4 <> 5",
    ),
    (
        "join_target",
        "SELECT s.q5 FROM Survey s, Target t WHERE s.q1 = t.q1 AND s.q2 = t.q2",
    ),
    (
        "not_in",
        "SELECT t.q1 FROM Target t WHERE t.q2 NOT IN (SELECT s.q1 FROM Survey s WHERE s.q2 = 3)",
    ),
];

fn survey_schema() -> Schema {
    Schema::from_relations([
        RelationSchema::new("Survey", ["q1", "q2", "q3", "q4", "q5"]),
        RelationSchema::new("Target", ["q1", "q2"]),
    ])
    .expect("survey schema is well-formed")
}

fn answer(rng: &mut Rng) -> Value {
    Value::int(rng.range(1, SURVEY_DOMAIN as u64 + 1) as i64)
}

fn complete_row(rng: &mut Rng, width: usize) -> Tuple {
    Tuple::new((0..width).map(|_| answer(rng)).collect::<Vec<_>>())
}

/// A categorical survey without an id column: `SURVEY_ROWS` distinct
/// answer rows over a domain of `SURVEY_DOMAIN` values, `SURVEY_NULLS` of
/// them with one unanswered question, and a small `Target` table.
fn survey(seed: u64) -> Database {
    let mut rng = Rng::new(seed, 2);
    let mut db = Database::new(survey_schema());
    let mut rows = Relation::with_arity(5, std::iter::empty());
    while rows.len() < SURVEY_ROWS {
        rows.insert(complete_row(&mut rng, 5));
    }
    db.insert_all("Survey", rows.iter().cloned())
        .expect("survey arity");
    for i in 0..SURVEY_NULLS {
        let null = db.fresh_null();
        db.insert("Survey", row_with_null(&mut rng, null, i % 5))
            .expect("survey arity");
    }
    let mut target = Relation::with_arity(2, std::iter::empty());
    while target.len() < 6 {
        target.insert(complete_row(&mut rng, 2));
    }
    db.insert_all("Target", target.iter().cloned())
        .expect("target arity");
    db
}

fn row_with_null(rng: &mut Rng, null: NullId, column: usize) -> Tuple {
    let mut values: Vec<Value> = (0..5).map(|_| answer(rng)).collect();
    values[column] = Value::Null(null);
    Tuple::new(values)
}

#[derive(Clone, Copy)]
enum MaskWrite {
    /// Impute the oldest live null: refines every template (restriction).
    Resolve,
    /// Refines the templates monotone in `Survey`, recomputes `not_in`.
    InsertComplete,
    /// A fresh null is outside the cached world space: recomputes all.
    InsertNull,
    /// Deletes recompute all.
    Delete,
}

/// One write per round. Per cycle the three templates are refined 9 times
/// and recomputed 9 times and the repeat is served 6 times, which puts
/// the median read inside the refine class. Live nulls stay at two or
/// three; the survey grows by three rows per cycle.
const MASK_WRITE_CYCLE: [MaskWrite; 6] = [
    MaskWrite::Resolve,
    MaskWrite::InsertComplete,
    MaskWrite::InsertComplete,
    MaskWrite::InsertNull,
    MaskWrite::InsertComplete,
    MaskWrite::Delete,
];

/// Rounds of one write followed by the three templates and one repeat.
fn mask_episode(seed: u64, base: &Database) -> Vec<Op> {
    let mut rng = Rng::new(seed, 3);
    let mut sim = base.clone();
    let mut ops = Vec::new();
    for round in 0..MASK_EPISODE_ROUNDS {
        let write = match MASK_WRITE_CYCLE[round % MASK_WRITE_CYCLE.len()] {
            MaskWrite::Resolve => {
                let null = *sim.nulls().iter().next().expect("a live null to resolve");
                let value = Const::Int(rng.range(1, SURVEY_DOMAIN as u64 + 1) as i64);
                Op::Resolve { null, value }
            }
            MaskWrite::InsertComplete => Op::Insert {
                relation: "Survey",
                tuple: fresh_complete(&mut rng, &sim),
            },
            MaskWrite::InsertNull => {
                let null = sim.fresh_null();
                let column = rng.range(0, 5) as usize;
                Op::Insert {
                    relation: "Survey",
                    tuple: row_with_null(&mut rng, null, column),
                }
            }
            MaskWrite::Delete => {
                let rel = sim.relation("Survey").expect("survey exists");
                let complete: Vec<&Tuple> = rel
                    .iter()
                    .filter(|t| t.iter().all(|v| matches!(v, Value::Const(_))))
                    .collect();
                let victim = complete[rng.range(0, complete.len() as u64) as usize].clone();
                Op::Delete {
                    relation: "Survey",
                    tuple: victim,
                }
            }
        };
        planned(&mut sim, &write);
        ops.push(write);
        for (template, sql) in MASK_TEMPLATES {
            ops.push(Op::Read {
                template,
                sql: sql.to_string(),
                scheme: Scheme::Exact,
            });
        }
        ops.push(Op::Read {
            template: REPEAT,
            sql: MASK_TEMPLATES[round % MASK_TEMPLATES.len()].1.to_string(),
            scheme: Scheme::Exact,
        });
    }
    ops
}

fn fresh_complete(rng: &mut Rng, db: &Database) -> Tuple {
    let rel = db.relation("Survey").expect("survey exists");
    loop {
        let t = complete_row(rng, 5);
        if !rel.contains(&t) {
            return t;
        }
    }
}

// ---------------------------------------------------------------- durable

const INGEST_TEMPLATES: [&str; 3] = [
    "orders_at_price",
    "customers_without_orders",
    "lineitem_supplier",
];

/// Read templates in rotation: per 25 reads, ten price lookups, fourteen
/// `NOT IN`s and one join — the median read falls inside the `NOT IN`
/// class, the 95th percentile at its top and the 99th inside the join
/// class.
const INGEST_ROTATION: [usize; 25] = [
    0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 2, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1,
];

fn ingest_text(template: usize, k: u64) -> String {
    match template {
        0 => format!(
            "SELECT o.orderkey FROM Orders o WHERE o.totalprice = {}",
            100 + 50 * (k % 18)
        ),
        1 => "SELECT c.custkey FROM Customer c WHERE c.custkey NOT IN \
              (SELECT o.custkey FROM Orders o)"
            .to_string(),
        _ => format!(
            "SELECT l.orderkey, s.name FROM Lineitem l, Supplier s \
             WHERE l.suppkey = s.suppkey AND l.quantity = {}",
            1 + k % 49
        ),
    }
}

/// Cycles of single mutations — an order and two line items inserted (with
/// nulls at fixed positions of the cycle), the oldest live null resolved,
/// and once the window is full the oldest stream order and its items
/// deleted — with an `Approx37` read every `INGEST_READ_EVERY` writes and a
/// snapshot every `INGEST_SNAPSHOT_EVERY` writes.
fn ingest_episode(seed: u64, base: &Database) -> Vec<Op> {
    let mut rng = Rng::new(seed, 4);
    let mut sim = base.clone();
    let customers = base.relation("Customer").expect("customers exist").len() as u64;
    let parts = base.relation("Part").expect("parts exist").len() as u64;
    let suppliers = base.relation("Supplier").expect("suppliers exist").len() as u64;
    let mut next_key = base.relation("Orders").expect("orders exist").len() as i64;
    let mut live: std::collections::VecDeque<i64> = std::collections::VecDeque::new();
    let mut ops = Vec::new();
    let mut writes = 0usize;
    let mut reads = 0u64;
    let mut cycle = 0u64;
    let mut push = |op: Op, sim: &mut Database, ops: &mut Vec<Op>| -> bool {
        planned(sim, &op);
        ops.push(op);
        writes += 1;
        if writes.is_multiple_of(INGEST_READ_EVERY) {
            let template = INGEST_ROTATION[reads as usize % INGEST_ROTATION.len()];
            ops.push(Op::Read {
                template: INGEST_TEMPLATES[template],
                sql: ingest_text(template, reads),
                scheme: Scheme::Approx37,
            });
            reads += 1;
        }
        if writes.is_multiple_of(INGEST_SNAPSHOT_EVERY) {
            ops.push(Op::Snapshot);
        }
        writes < INGEST_EPISODE_WRITES
    };
    'stream: loop {
        let key = next_key;
        next_key += 1;
        let null_or = |sim: &mut Database, cond: bool, v: Value| {
            if cond {
                Value::Null(sim.fresh_null())
            } else {
                v
            }
        };
        let cust = null_or(
            &mut sim,
            cycle.is_multiple_of(3),
            Value::int(rng.range(0, customers) as i64),
        );
        let price = null_or(
            &mut sim,
            cycle.is_multiple_of(2),
            Value::int(rng.range(10, 1000) as i64),
        );
        let order = Tuple::new(vec![Value::int(key), cust, price]);
        if !push(
            Op::Insert {
                relation: "Orders",
                tuple: order,
            },
            &mut sim,
            &mut ops,
        ) {
            break;
        }
        for item in 0..2 {
            let supp = null_or(
                &mut sim,
                item == 0 && cycle.is_multiple_of(4),
                Value::int(rng.range(0, suppliers) as i64),
            );
            let li = Tuple::new(vec![
                Value::int(key),
                Value::int(rng.range(0, parts) as i64),
                supp,
                Value::int(rng.range(1, 50) as i64),
            ]);
            if !push(
                Op::Insert {
                    relation: "Lineitem",
                    tuple: li,
                },
                &mut sim,
                &mut ops,
            ) {
                break 'stream;
            }
        }
        live.push_back(key);
        // Resolve the oldest live null (stream nulls are the newest ids,
        // so this drains base nulls first, then the stream's backlog).
        if let Some(&null) = sim.nulls().iter().next() {
            let value = Const::Int(rng.range(10, 1000) as i64);
            if !push(Op::Resolve { null, value }, &mut sim, &mut ops) {
                break;
            }
        }
        if live.len() > INGEST_WINDOW {
            let key = Value::int(live.pop_front().expect("window is non-empty"));
            for relation in ["Lineitem", "Orders"] {
                let victims: Vec<Tuple> = sim
                    .relation(relation)
                    .expect("relation exists")
                    .iter()
                    .filter(|t| t[0] == key)
                    .cloned()
                    .collect();
                for tuple in victims {
                    if !push(Op::Delete { relation, tuple }, &mut sim, &mut ops) {
                        break 'stream;
                    }
                }
            }
        }
        cycle += 1;
    }
    ops
}

/// Apply a planned write; planning only chooses writes that succeed.
fn planned(db: &mut Database, op: &Op) {
    if let Err(e) = apply_write(db, op) {
        panic!("a planned write failed: {e}");
    }
}
