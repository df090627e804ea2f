//! Property tests for the symbolic lineage backend.
//!
//! The lineage subsystem (`certa-lineage`) decides certainty, certain
//! falsity and the µ_k measure by compiling c-table conditions into
//! decision diagrams instead of enumerating possible worlds. On hundreds
//! of seeded random instances across three workloads — the Figure 1 shop
//! database, random null-heavy instances with random full-RA queries, and
//! random SQL lowered to algebra — every lineage verdict must agree
//! **exactly** with the prepared/parallel world engines *and* with the
//! seed's replan-per-world oracles, for all three result kinds:
//!
//! * the certain-answer set (`cert⊥`),
//! * the per-candidate classification (certain / possible / certainly
//!   false),
//! * the exact µ_k fractions (numerator *and* denominator),
//!
//! plus the bag multiplicity ranges on the monus-free fragment. Queries
//! outside the symbolic fragment (e.g. `IS NULL` predicates from the SQL
//! generator) must be *rejected* by the lineage backend — never silently
//! mis-answered — and are counted as skips.
//!
//! Workload sizing: 200 random-RA + 180 random-SQL + 60 bag instances +
//! the shop queries ≈ 440 seeded instances, of which well over 300 take
//! the lineage path (every skip is an explicit `Unsupported` rejection,
//! asserted bounded below). On top, 60 set and 24 bag instances aim at the
//! candidate index (7 and 5 queries each, with stacked resolutions on the
//! set side), and check the diagram store against an all-rows fold.

use certa::certain::cert::{classify_candidates, classify_candidates_lineage};
use certa::certain::worlds::exact_pool;
use certa::certain::{bag_bounds, cert, prob, reference, CertainError, WorldSpec};
use certa::ctables::Cond;
use certa::lineage::{var_order, Encoding, Forest, NodeId, FALSE, TRUE};
use certa::prelude::*;
use rand::prelude::*;

const RA_CASES: u64 = 200;
const SQL_CASES: u64 = 180;
const BAG_CASES: u64 = 60;

/// The same join-friendly, repeated-null instance shape the prepared-world
/// suite uses: small enough that exact_pool enumeration stays in the
/// hundreds, null-heavy enough that certainty is non-trivial.
fn gen_database(rng: &mut StdRng) -> Database {
    let mut r: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1usize..5) {
        r.push(Tuple::new((0..2).map(|_| gen_value(rng))));
    }
    let mut s: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        s.push(Tuple::new([gen_value(rng)]));
    }
    let mut t: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        t.push(Tuple::new([
            Value::int(rng.gen_range(0i64..3)),
            Value::int(rng.gen_range(0i64..3)),
        ]));
    }
    database_from_literal([
        ("R", vec!["a", "b"], r),
        ("S", vec!["c"], s),
        ("T", vec!["d", "e"], t),
    ])
}

fn gen_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.3) {
        Value::null(rng.gen_range(0u32..2))
    } else {
        Value::int(rng.gen_range(0i64..3))
    }
}

fn gen_query(rng: &mut StdRng, schema: &Schema) -> RaExpr {
    random_query(
        schema,
        &RandomQueryConfig {
            max_depth: 2,
            allow_difference: true,
            allow_disequality: true,
            seed: rng.gen_range(0u64..1_000_000),
        },
    )
}

/// Candidate tuples for a query: a few naïve answers (may carry nulls)
/// plus a constant tuple that typically is an answer nowhere.
fn candidates_for(query: &RaExpr, db: &Database) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = naive_eval(query, db)
        .unwrap()
        .iter()
        .take(3)
        .cloned()
        .collect();
    let arity = query.arity(db.schema()).unwrap();
    out.push(Tuple::new((0..arity).map(|_| Value::int(99))));
    out
}

/// Assert the three backends agree on one instance: lineage vs the world
/// engines vs the seed oracles, on classification, the certain set, and
/// µ_k. Returns `false` (skip) when the query is outside the symbolic
/// fragment — in which case the lineage backend must have *said so*.
fn assert_instance_agreement(label: &str, query: &RaExpr, db: &Database) -> bool {
    let spec = exact_pool(query, db);
    let tuples = candidates_for(query, db);
    let symbolic = match classify_candidates_lineage(query, db, &spec, &tuples) {
        Ok(statuses) => statuses,
        Err(CertainError::Lineage(e)) if e.is_unsupported() => return false,
        Err(e) => panic!("{label}: lineage failed on {query}: {e}"),
    };

    // Classification: engine (prepared enumeration) and seed predicates.
    let prepared = PreparedQuery::prepare(query, db.schema()).unwrap();
    let engine = classify_candidates(&prepared, db, &spec, &tuples).unwrap();
    for ((t, sym), eng) in tuples.iter().zip(&symbolic).zip(&engine) {
        assert_eq!(
            (sym.certain, sym.possible),
            (eng.certain, eng.possible),
            "{label}: lineage vs engine classification of {t} for {query} on {db}"
        );
        assert_eq!(
            sym.certain,
            reference::is_certain_answer_seed(query, db, t).unwrap(),
            "{label}: lineage vs seed certainty of {t} for {query} on {db}"
        );
        assert_eq!(
            !sym.possible,
            reference::is_certainly_false_seed(query, db, t).unwrap(),
            "{label}: lineage vs seed certain-falsity of {t} for {query} on {db}"
        );
    }

    // The certain-answer set.
    let by_lineage = cert::cert_with_nulls_lineage_with(query, db, &spec).unwrap();
    let by_engine = cert::cert_with_nulls_with(query, db, &spec).unwrap();
    let by_seed = reference::cert_with_nulls_seed(query, db, &spec).unwrap();
    assert_eq!(
        by_lineage, by_engine,
        "{label}: lineage vs engine cert⊥ of {query} on {db}"
    );
    assert_eq!(
        by_lineage, by_seed,
        "{label}: lineage vs seed cert⊥ of {query} on {db}"
    );

    // Exact µ_k fractions, numerator and denominator.
    for k in [2usize, 4] {
        let mu_spec = WorldSpec::new(prob::canonical_pool(query, db, k));
        for t in tuples.iter().take(2) {
            let by_lineage = prob::mu_k_lineage(query, db, t, k).unwrap();
            let by_engine = prob::mu_k(query, db, t, k).unwrap();
            let (num, den) =
                reference::mu_k_conditional_seed(query, db, t, &mu_spec, |_| true).unwrap();
            assert_eq!(
                by_lineage, by_engine,
                "{label}, k = {k}: lineage vs engine µ_k of {t} for {query} on {db}"
            );
            assert_eq!(
                (by_lineage.numerator, by_lineage.denominator),
                (num as u128, den as u128),
                "{label}, k = {k}: lineage vs seed µ_k of {t} for {query} on {db}"
            );
        }
    }
    true
}

#[test]
fn random_ra_workload_agrees_on_all_three_result_kinds() {
    let mut supported = 0usize;
    for seed in 0..RA_CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + 7);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        if assert_instance_agreement(&format!("ra seed {seed}"), &query, &db) {
            supported += 1;
        }
    }
    // The random-RA generator stays inside σ/π/×/∪/− with =/≠ conditions,
    // all of which the symbolic fragment covers.
    assert_eq!(
        supported, RA_CASES as usize,
        "every random-RA case must take the lineage path"
    );
}

#[test]
fn sqlgen_workload_agrees_on_all_three_result_kinds() {
    let schema_db = gen_database(&mut StdRng::seed_from_u64(1));
    let schema = schema_db.schema().clone();
    let mut supported = 0usize;
    let mut skipped = 0usize;
    for seed in 0..SQL_CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131) + 17);
        let db = gen_database(&mut rng);
        let sql = certa::workload::random_sql(
            &schema,
            &certa::workload::RandomSqlConfig {
                max_tables: 2,
                max_cond_depth: 2,
                domain_size: 3,
                allow_membership: seed % 3 == 0,
                seed: rng.gen_range(0u64..1_000_000),
            },
        );
        let stmt = sql_parse(&sql).unwrap();
        // Some generated statements (e.g. `… = NULL` under NOT) have no
        // plain-algebra lowering at all; they never reach any backend.
        let Ok(lowered) = lower_to_algebra(&stmt, db.schema()) else {
            skipped += 1;
            continue;
        };
        if assert_instance_agreement(&format!("sql seed {seed} ({sql})"), &lowered.expr, &db) {
            supported += 1;
        } else {
            skipped += 1;
        }
    }
    // IS NULL predicates, membership lowerings that use syntactic
    // const(·) tests, and unlowerable statements legitimately skip; a
    // solid share must still exercise the lineage path.
    assert!(
        supported >= SQL_CASES as usize / 3,
        "too few sqlgen cases took the lineage path: {supported} supported, {skipped} skipped"
    );
}

#[test]
fn shop_workload_agrees_on_all_three_result_kinds() {
    let db = shop_database(true);
    let queries = [
        ShopQueries::unpaid_orders(),
        ShopQueries::or_tautology(),
        RaExpr::rel("Payments").project(vec![0]),
        RaExpr::rel("Customers")
            .project(vec![0])
            .difference(RaExpr::rel("Payments").project(vec![0])),
    ];
    let mut supported = 0usize;
    for (i, query) in queries.iter().enumerate() {
        if assert_instance_agreement(&format!("shop query {i}"), query, &db) {
            supported += 1;
        }
    }
    assert_eq!(supported, queries.len());
}

#[test]
fn intersection_queries_agree_across_backends() {
    // Neither random generator emits ∩ (random_query has no intersect arm
    // and the SQL lowerings never produce one), so the conditional
    // intersection reading — all-pairs symbolic matching under `t̄ = s̄`
    // conditions — gets its own differential sweep.
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(53) + 11);
        let db = gen_database(&mut rng);
        let queries = [
            RaExpr::rel("R")
                .project(vec![0])
                .intersect(RaExpr::rel("S")),
            RaExpr::rel("S").intersect(RaExpr::rel("R").project(vec![1])),
            RaExpr::rel("R")
                .project(vec![0])
                .intersect(RaExpr::rel("R").project(vec![1])),
            RaExpr::rel("R").intersect(RaExpr::rel("T")),
            RaExpr::rel("S")
                .intersect(RaExpr::rel("R").project(vec![0]))
                .difference(RaExpr::rel("T").project(vec![0])),
        ];
        for (i, q) in queries.iter().enumerate() {
            assert!(
                assert_instance_agreement(&format!("intersect seed {seed} q{i}"), q, &db),
                "intersection must lie inside the symbolic fragment"
            );
        }
    }
}

#[test]
fn bag_workload_multiplicity_ranges_agree() {
    for seed in 0..BAG_CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(257) + 3);
        let db = gen_database(&mut rng).to_bags();
        // Monus-free queries only: difference/intersection have no
        // row-wise bag reading and must stay on enumeration.
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 2,
                allow_difference: false,
                allow_disequality: true,
                seed: rng.gen_range(0u64..1_000_000),
            },
        );
        let set_view = db.to_sets();
        let spec = exact_pool(&query, &set_view);
        let mut candidates: Vec<Tuple> = naive_eval(&query, &set_view)
            .unwrap()
            .iter()
            .take(2)
            .cloned()
            .collect();
        let arity = query.arity(db.schema()).unwrap();
        candidates.push(Tuple::new((0..arity).map(|_| Value::int(99))));
        for t in &candidates {
            let by_lineage =
                bag_bounds::multiplicity_range_lineage_with(&query, &db, t, &spec).unwrap();
            let by_engine = bag_bounds::multiplicity_range_with(&query, &db, t, &spec).unwrap();
            let by_seed = reference::multiplicity_range_seed(&query, &db, t, &spec).unwrap();
            assert_eq!(
                by_lineage, by_engine,
                "bag seed {seed}: lineage vs engine range of {t} for {query}"
            );
            assert_eq!(
                by_lineage, by_seed,
                "bag seed {seed}: lineage vs seed range of {t} for {query}"
            );
        }
    }
}

#[test]
fn lineage_reaches_configurations_enumeration_cannot() {
    // 34 independent nulls over the exact pool: the valuation space
    // saturates usize, so the engines refuse outright — the lineage
    // backend answers exactly, including a 2^80-plus model count.
    let rows: Vec<Tuple> = (0..34u32).map(|i| tup![Value::null(i)]).collect();
    let db = database_from_literal([("R", vec!["a"], rows), ("S", vec!["a"], vec![tup![1]])]);
    let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
    let spec = exact_pool(&q, &db);
    assert!(matches!(
        cert::cert_with_nulls_with(&q, &db, &spec),
        Err(CertainError::TooManyWorlds { .. })
    ));
    let certain = cert::cert_with_nulls_lineage_with(&q, &db, &spec).unwrap();
    // No null candidate survives −S for certain (⊥ᵢ could be 1).
    assert!(certain.is_empty());
    let statuses =
        classify_candidates_lineage(&q, &db, &spec, &[tup![Value::null(0)], tup![1]]).unwrap();
    assert!(!statuses[0].certain && statuses[0].possible);
    // (1) is in no world's answer: 1 ∉ R.
    assert!(!statuses[1].certain && !statuses[1].possible);
    // µ over the canonical 4-pool: ⊥0 is an answer unless v(⊥0) = 1, so
    // the support is exactly 3 · 4^33 of 4^34 — counted, not sampled.
    let frac = prob::mu_k_lineage(&q, &db, &tup![Value::null(0)], 4).unwrap();
    assert_eq!(frac.denominator, 1u128 << 68);
    assert_eq!(frac.numerator, 3 * (1u128 << 66));
    assert!(matches!(
        prob::mu_k(&q, &db, &tup![Value::null(0)], 4),
        Err(CertainError::TooManyWorlds { .. })
    ));
}

// ------------------------------------------------------- candidate index
//
// `LineageBatch::lineage_of` and `BagLineageBatch::multiplicity_range`
// visit only the rows a candidate can unify with. The instances below aim
// at that index: candidates that carry nulls, a null repeated across
// positions (`(⊥0, ⊥0)` against `(1, 2)`), rows equal to the candidate
// next to null-bearing rows, and stacked `restrict_null` calls. Every
// verdict must match enumeration, and the diagram store must end up the
// size an all-rows fold leaves it.

const INDEX_CASES: u64 = 60;
const INDEX_BAG_CASES: u64 = 24;

/// `R(a, b)` with ground rows (candidates hit them exactly) plus
/// null-bearing rows: a null repeated across both positions, or a null
/// next to a constant. `S(c)` is ground but may carry one null.
fn gen_index_database(rng: &mut StdRng) -> Database {
    let int = |rng: &mut StdRng| Value::int(rng.gen_range(0i64..3));
    let mut r: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(2usize..6) {
        r.push(Tuple::new([int(rng), int(rng)]));
    }
    for _ in 0..rng.gen_range(1usize..4) {
        let null = Value::null(rng.gen_range(0u32..2));
        let c = int(rng);
        r.push(match rng.gen_range(0..3) {
            0 => Tuple::new([null.clone(), null]),
            1 => Tuple::new([null, c]),
            _ => Tuple::new([c, null]),
        });
    }
    let mut s: Vec<Tuple> = (0..rng.gen_range(1usize..4))
        .map(|_| Tuple::new([int(rng)]))
        .collect();
    if rng.gen_bool(0.5) {
        s.push(tup![Value::null(rng.gen_range(0u32..3))]);
    }
    database_from_literal([("R", vec!["a", "b"], r), ("S", vec!["c"], s)])
}

/// Binary queries over [`gen_index_database`]; `monus_free` keeps the
/// fragment the bag lineage accepts.
fn index_queries(monus_free: bool) -> Vec<RaExpr> {
    let mut out = vec![
        RaExpr::rel("R"),
        RaExpr::rel("R").union(RaExpr::rel("S").product(RaExpr::rel("S"))),
        RaExpr::rel("R")
            .join_on(RaExpr::rel("R"), &[(1, 0)], 2)
            .project(vec![0, 3]),
        RaExpr::rel("R").project(vec![0, 0]),
        RaExpr::rel("R").select(Condition::neq_attr(0, 1)),
    ];
    if !monus_free {
        out.push(RaExpr::rel("R").difference(RaExpr::rel("S").product(RaExpr::rel("S"))));
        out.push(
            RaExpr::rel("S")
                .product(RaExpr::rel("S"))
                .intersect(RaExpr::rel("R")),
        );
    }
    out
}

/// Binary candidates: some naïve answers, every ground row of `R` (exact
/// index hits), candidates carrying nulls (one repeated), and ground
/// tuples that only null-bearing rows can reach.
fn index_candidates(query: &RaExpr, db: &Database) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = naive_eval(query, db)
        .unwrap()
        .iter()
        .take(4)
        .cloned()
        .collect();
    out.extend(
        db.relation("R")
            .unwrap()
            .iter()
            .filter(|t| !t.has_null())
            .cloned(),
    );
    out.extend([
        tup![Value::null(0), Value::null(0)],
        tup![Value::null(1), Value::null(0)],
        tup![Value::null(0), 1],
        tup![1, 2],
        tup![2, 2],
        tup![99, 99],
    ]);
    out
}

/// The batch pipeline rebuilt in the test, folding every row into each
/// candidate's lineage — no index. Its store must grow exactly as the
/// batch's does.
struct AllRowsFold {
    forest: Forest,
    encoding: Encoding,
    rows: Vec<(Tuple, NodeId)>,
    db_nulls: std::collections::BTreeSet<u32>,
    pins: Vec<(u32, usize)>,
}

impl AllRowsFold {
    fn compile(query: &RaExpr, db: &Database, pool: &[Const]) -> AllRowsFold {
        let stats = Stats::from_database(db);
        let optimized = optimize_with(query, db.schema(), &stats).unwrap();
        let result = eval_conditional(&optimized, db, Strategy::Aware).unwrap();
        let db_nulls = db.nulls();
        let conds = result.table().iter().map(|ct| &ct.cond);
        let order = var_order(&db_nulls, conds, Some((&stats, db)));
        let encoding = Encoding::new(pool.to_vec(), order);
        let mut forest = Forest::new(encoding.domains());
        let rows = result
            .table()
            .iter()
            .map(|ct| {
                let node = encoding.compile(&mut forest, &ct.cond).unwrap();
                (ct.tuple.clone(), node)
            })
            .collect();
        AllRowsFold {
            forest,
            encoding,
            rows,
            db_nulls,
            pins: Vec::new(),
        }
    }

    fn restrict(&mut self, null: u32, value: &Const) {
        let level = self.encoding.level(null).unwrap();
        let idx = self
            .encoding
            .pool()
            .iter()
            .position(|c| c == value)
            .unwrap();
        for row in &mut self.rows {
            row.1 = self.forest.restrict(row.1, level, idx).unwrap();
        }
        self.pins.push((level, idx));
    }

    fn lineage_of(&mut self, tuple: &Tuple) -> NodeId {
        if !tuple.nulls().is_subset(&self.db_nulls) {
            return FALSE;
        }
        let candidate_nulls = tuple.nulls();
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by_cached_key(|&i| {
            let s = &self.rows[i].0;
            if s == tuple {
                0u8
            } else if !s.nulls().is_disjoint(&candidate_nulls) {
                1
            } else {
                2
            }
        });
        let mut out = FALSE;
        for i in order {
            let (row, row_node) = (&self.rows[i].0, self.rows[i].1);
            if row_node == FALSE {
                continue;
            }
            let matching = Cond::tuple_eq(row, tuple);
            let mut eq_node = self.encoding.compile(&mut self.forest, &matching).unwrap();
            for &(level, value) in &self.pins {
                eq_node = self.forest.restrict(eq_node, level, value).unwrap();
            }
            let conjoined = self.forest.and(row_node, eq_node).unwrap();
            out = self.forest.or(out, conjoined).unwrap();
            if out == TRUE {
                break;
            }
        }
        out
    }
}

/// One query over one instance, with its exact pool and candidates.
struct IndexCase<'a> {
    label: String,
    query: &'a RaExpr,
    db: &'a Database,
    spec: WorldSpec,
    tuples: Vec<Tuple>,
}

impl IndexCase<'_> {
    /// Status and store size of `batch` against enumeration over the
    /// database with the resolutions in `resolved` applied, and against
    /// the all-rows fold.
    fn assert_agreement(
        &self,
        batch: &mut LineageBatch,
        fold: &mut AllRowsFold,
        resolved: &Valuation,
    ) {
        let (label, query) = (&self.label, self.query);
        let db = resolved.apply_database(self.db);
        let prepared = PreparedQuery::prepare(query, db.schema()).unwrap();
        let probes: Vec<Tuple> = self
            .tuples
            .iter()
            .map(|t| resolved.apply_tuple(t))
            .collect();
        let engine = classify_candidates(&prepared, &db, &self.spec, &probes).unwrap();
        let pins = batch.restriction_count();
        for (t, eng) in self.tuples.iter().zip(&engine) {
            assert_eq!(
                batch.status(t).unwrap(),
                (eng.certain, eng.possible),
                "{label}, {pins} resolution(s): lineage vs enumeration status of {t} for {query} on {db}"
            );
            fold.lineage_of(t);
        }
        assert_eq!(
            batch.diagram_size(),
            fold.forest.node_count(),
            "{label}, {pins} resolution(s): indexed vs all-rows store size for {query}"
        );
    }
}

#[test]
fn candidate_index_agrees_with_enumeration() {
    let mut restricted = 0usize;
    for seed in 0..INDEX_CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(389) + 5);
        let db = gen_index_database(&mut rng);
        for (qi, query) in index_queries(false).iter().enumerate() {
            let case = IndexCase {
                label: format!("index seed {seed} q{qi}"),
                query,
                db: &db,
                spec: exact_pool(query, &db),
                tuples: index_candidates(query, &db),
            };
            let pool = case.spec.pool();
            let mut batch = LineageBatch::compile(query, &db, pool).unwrap();
            let mut fold = AllRowsFold::compile(query, &db, pool);
            let mut resolved = Valuation::new();
            case.assert_agreement(&mut batch, &mut fold, &resolved);

            // µ_k counts over the canonical pools, numerator and denominator.
            for k in [2usize, 3] {
                let pool = prob::canonical_pool(query, &db, k);
                let mut mu_batch = LineageBatch::compile(query, &db, &pool).unwrap();
                for t in &case.tuples {
                    let engine = prob::mu_k(query, &db, t, k).unwrap();
                    assert_eq!(
                        mu_batch.mu_counts(t).unwrap(),
                        (engine.numerator, engine.denominator),
                        "{}, k = {k}: lineage vs enumeration µ_k of {t}",
                        case.label
                    );
                }
            }

            // Stacked resolutions: pin each null in turn, re-checking the
            // restricted batch against enumeration of the resolved database.
            for null in db.nulls() {
                let value = pool[rng.gen_range(0..pool.len())].clone();
                assert!(batch.restrict_null(null, &value).unwrap());
                fold.restrict(null, &value);
                resolved.assign(null, value);
                restricted += 1;
                case.assert_agreement(&mut batch, &mut fold, &resolved);
            }
        }
    }
    assert!(
        restricted >= INDEX_CASES as usize,
        "too few resolutions: {restricted}"
    );
}

#[test]
fn candidate_index_bag_ranges_agree_with_enumeration() {
    for seed in 0..INDEX_BAG_CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(613) + 9);
        let sets = gen_index_database(&mut rng);
        let mut db = sets.to_bags();
        for t in sets.relation("R").unwrap().iter() {
            db.insert_n("R", t.clone(), rng.gen_range(0usize..3))
                .unwrap();
        }
        for (qi, query) in index_queries(true).iter().enumerate() {
            let spec = exact_pool(query, &sets);
            for t in index_candidates(query, &sets) {
                let by_lineage =
                    bag_bounds::multiplicity_range_lineage_with(query, &db, &t, &spec).unwrap();
                let by_engine = bag_bounds::multiplicity_range_with(query, &db, &t, &spec).unwrap();
                assert_eq!(
                    by_lineage, by_engine,
                    "bag index seed {seed} q{qi}: lineage vs enumeration range of {t} for {query}"
                );
            }
        }
    }
}

#[test]
fn clamped_weights_overflow_only_for_candidates_they_can_match() {
    // R × R over R = {(1): usize::MAX / 2, (⊥0): 1}: every row pairing (1)
    // with (1) clamps its weight at usize::MAX. A candidate such a row can
    // match in some world has no exact range; a candidate it can never
    // match is unaffected by it.
    let sets = database_from_literal([("R", vec!["a"], vec![])]);
    let mut db = sets.to_bags();
    db.insert_n("R", tup![1], usize::MAX / 2).unwrap();
    db.insert_n("R", tup![Value::null(0)], 1).unwrap();
    let q = RaExpr::rel("R").product(RaExpr::rel("R"));
    let pool: Vec<Const> = (0..3).map(Const::Int).collect();
    let mut batch = BagLineageBatch::compile(&q, &db, &pool).unwrap();
    for t in [tup![1, 1], tup![Value::null(0), Value::null(0)]] {
        assert_eq!(
            batch.multiplicity_range(&t),
            Err(certa::lineage::LineageError::CountOverflow),
            "{t}"
        );
    }
    // (2, 2): only (⊥0, ⊥0) can match, when ⊥0 = 2.
    assert_eq!(batch.multiplicity_range(&tup![2, 2]), Ok((0, 1)));
    // (⊥0, 2): (1, ⊥0) and (⊥0, 1) never match it; (⊥0, ⊥0) does when
    // ⊥0 = 2.
    assert_eq!(
        batch.multiplicity_range(&tup![Value::null(0), 2]),
        Ok((0, 1))
    );
}
