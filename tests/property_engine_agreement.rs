//! Property tests for the annotation-generic physical engine: on randomly
//! generated expressions and databases with marked nulls, the engine's
//! three instantiations must agree with the seed's recursive interpreters,
//! which are kept in `certa::algebra::reference` (set/bag) and
//! `certa::ctables::eval::eval_conditional_reference` (conditional) as
//! oracles.
//!
//! Sets and bags are compared for exact equality of results; conditional
//! evaluation is compared on the certain (`Eval_t`) and possible (`Eval_p`)
//! answer sets for **all four** grounding strategies — the engine prunes
//! rows whose condition is unsatisfiable-by-syntax earlier than the oracle,
//! so raw c-tables may differ while the semantics may not.

use certa::algebra::reference::{eval_bag_reference, eval_set_reference};
use certa::ctables::eval::eval_conditional_reference;
use certa::prelude::*;
use rand::prelude::*;

const CASES: u64 = 120;

/// A database over a schema with join-friendly shapes and repeated nulls.
fn gen_database(rng: &mut StdRng) -> Database {
    let mut r: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(0usize..6) {
        r.push(Tuple::new((0..2).map(|_| gen_value(rng))));
    }
    let mut s: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(0usize..5) {
        s.push(Tuple::new([gen_value(rng)]));
    }
    database_from_literal([("R", vec!["a", "b"], r), ("S", vec!["c"], s)])
}

fn gen_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.3) {
        Value::null(rng.gen_range(0u32..3))
    } else {
        Value::int(rng.gen_range(0i64..4))
    }
}

fn gen_query(rng: &mut StdRng, schema: &Schema, allow_difference: bool) -> RaExpr {
    random_query(
        schema,
        &RandomQueryConfig {
            max_depth: 3,
            allow_difference,
            allow_disequality: true,
            seed: rng.gen_range(0u64..1_000_000),
        },
    )
}

/// Set evaluation through the engine equals the seed interpreter exactly.
#[test]
fn set_engine_agrees_with_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema(), true);
        let fast = eval(&query, &db).unwrap();
        let slow = eval_set_reference(&query, &db).unwrap();
        assert_eq!(fast, slow, "seed {seed}: query {query} on db {db}");
    }
}

/// Bag evaluation through the engine equals the seed interpreter exactly
/// (same distinct tuples *and* the same multiplicities).
#[test]
fn bag_engine_agrees_with_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema(), true);
        let bags = db.to_bags();
        let fast = certa::algebra::bag_eval::eval_bag(&query, &bags).unwrap();
        let slow = eval_bag_reference(&query, &bags).unwrap();
        assert_eq!(fast, slow, "seed {seed}: query {query} on db {db}");
    }
}

/// Conditional evaluation through the engine produces the same certain and
/// possible answers as the seed interpreter, for every strategy.
#[test]
fn conditional_engine_agrees_with_reference_on_all_strategies() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema(), true);
        for strategy in Strategy::ALL {
            let fast = eval_conditional(&query, &db, strategy).unwrap();
            let slow = eval_conditional_reference(&query, &db, strategy).unwrap();
            assert_eq!(
                fast.certain(),
                slow.certain(),
                "seed {seed} {strategy:?}: certain answers of {query} on db {db}"
            );
            assert_eq!(
                fast.possible(),
                slow.possible(),
                "seed {seed} {strategy:?}: possible answers of {query} on db {db}"
            );
        }
    }
}

/// Join-heavy shapes (the hash-join fast path) against the oracles, with
/// join keys that mix constants and repeated nulls on both sides.
#[test]
fn hash_join_path_agrees_on_null_heavy_keys() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        // R ⋈ S on b = c, optionally with a residual filter and projection.
        let mut query = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2);
        if rng.gen_bool(0.5) {
            query = query.select(Condition::neq_const(0, rng.gen_range(0i64..4)));
        }
        if rng.gen_bool(0.5) {
            query = query.project(vec![0, 2]);
        }
        let fast = eval(&query, &db).unwrap();
        let slow = eval_set_reference(&query, &db).unwrap();
        assert_eq!(fast, slow, "seed {seed}: set join on db {db}");
        for strategy in Strategy::ALL {
            let fast = eval_conditional(&query, &db, strategy).unwrap();
            let slow = eval_conditional_reference(&query, &db, strategy).unwrap();
            assert_eq!(
                fast.certain(),
                slow.certain(),
                "seed {seed} {strategy:?}: certain join answers on db {db}"
            );
            assert_eq!(
                fast.possible(),
                slow.possible(),
                "seed {seed} {strategy:?}: possible join answers on db {db}"
            );
        }
    }
}

/// Intersection is absent from `random_query`'s operator repertoire, so it
/// gets a dedicated sweep: random same-arity operands combined with `∩`,
/// plus the fixed repro that once exposed a divergence — a repeated-null
/// tuple intersected with a non-unifiable constant tuple, whose matching
/// condition (`⊥₀ = 1 ∧ ⊥₀ = 2`) is unsatisfiable but grounds eagerly to
/// `u`, so the oracle keeps the row in `Eval_p`.
#[test]
fn intersect_agrees_with_reference() {
    let repro = database_from_literal([
        (
            "R",
            vec!["a", "b"],
            vec![Tuple::new([Value::null(0), Value::null(0)])],
        ),
        (
            "T",
            vec!["a", "b"],
            vec![Tuple::new([Value::int(1), Value::int(2)])],
        ),
    ]);
    let q = RaExpr::rel("R").intersect(RaExpr::rel("T"));
    for strategy in Strategy::ALL {
        let fast = eval_conditional(&q, &repro, strategy).unwrap();
        let slow = eval_conditional_reference(&q, &repro, strategy).unwrap();
        assert_eq!(
            fast.certain(),
            slow.certain(),
            "{strategy:?}: repro certain"
        );
        assert_eq!(
            fast.possible(),
            slow.possible(),
            "{strategy:?}: repro possible"
        );
    }
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        // Same-arity operands: project both sides onto one column.
        let left = gen_query(&mut rng, db.schema(), false).project(vec![0]);
        let right = if rng.gen_bool(0.5) {
            RaExpr::rel("S")
        } else {
            gen_query(&mut rng, db.schema(), false).project(vec![0])
        };
        let query = left.intersect(right);
        let fast_set = eval(&query, &db).unwrap();
        let slow_set = eval_set_reference(&query, &db).unwrap();
        assert_eq!(fast_set, slow_set, "seed {seed}: set ∩ on db {db}");
        let bags = db.to_bags();
        assert_eq!(
            certa::algebra::bag_eval::eval_bag(&query, &bags).unwrap(),
            eval_bag_reference(&query, &bags).unwrap(),
            "seed {seed}: bag ∩ on db {db}"
        );
        for strategy in Strategy::ALL {
            let fast = eval_conditional(&query, &db, strategy).unwrap();
            let slow = eval_conditional_reference(&query, &db, strategy).unwrap();
            assert_eq!(
                fast.certain(),
                slow.certain(),
                "seed {seed} {strategy:?}: certain ∩ answers on db {db}"
            );
            assert_eq!(
                fast.possible(),
                slow.possible(),
                "seed {seed} {strategy:?}: possible ∩ answers on db {db}"
            );
        }
    }
}

/// The three instantiations are mutually consistent where the paper says
/// they must be: on duplicate-free databases, set evaluation equals bag
/// evaluation + DISTINCT, and for positive queries the eager strategy's
/// certain answers are contained in the set answer.
#[test]
fn cross_semantics_consistency() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema(), false);
        let set_out = eval(&query, &db).unwrap();
        let bag_out = certa::algebra::bag_eval::eval_bag(&query, &db.to_bags()).unwrap();
        assert_eq!(bag_out.to_set(), set_out, "seed {seed}: query {query}");
        let eager = eval_conditional(&query, &db, Strategy::Eager).unwrap();
        assert!(
            eager.certain().is_subset_of(&set_out),
            "seed {seed}: Eval_t ⊆ naive-set evaluation for positive {query}"
        );
    }
}

/// θ* join conditions over `R(a, b) × S(c)` (positions 0–2) and
/// `R × R` (positions 0–3): the `(Q+, Q?)` shape `a = b ∨ null(a) ∨
/// null(b)` in its generated form and in other disjunct orders, alone,
/// with a residual, doubled, and next to a plain key.
fn theta_star_joins() -> Vec<RaExpr> {
    use certa::certain::approx37::possible_condition;
    let rs = || RaExpr::rel("R").product(RaExpr::rel("S"));
    let rr = || RaExpr::rel("R").product(RaExpr::rel("R"));
    vec![
        rs().select(possible_condition(&Condition::eq_attr(1, 2))),
        rs().select(possible_condition(&Condition::eq_attr(2, 0)).and(Condition::neq_const(1, 1))),
        rs().select(
            Condition::IsNull(2)
                .or(Condition::eq_attr(2, 1))
                .or(Condition::IsNull(1)),
        ),
        rs().select(Condition::eq_attr(0, 2).or(Condition::IsNull(0))),
        rr().select(
            possible_condition(&Condition::eq_attr(0, 2))
                .and(possible_condition(&Condition::eq_attr(1, 3))),
        ),
        rr().select(Condition::eq_attr(0, 2).and(possible_condition(&Condition::eq_attr(1, 3)))),
    ]
}

/// World sets of a columnar mask result, keyed by tuple.
fn mask_world_sets(
    rel: &certa::algebra::mask::ColumnarRel,
    worlds: usize,
) -> std::collections::BTreeMap<Tuple, Vec<usize>> {
    use certa::algebra::mask::MaskRef;
    let mut out = std::collections::BTreeMap::new();
    for (t, rm) in rel.rows() {
        let set: Vec<usize> = match rel.mask(*rm) {
            MaskRef::Full => (0..worlds).collect(),
            MaskRef::Words(w) => (0..worlds)
                .filter(|i| w[i / 64] >> (i % 64) & 1 == 1)
                .collect(),
        };
        if !set.is_empty() {
            out.entry(t.clone()).or_insert_with(Vec::new).extend(set);
        }
    }
    for set in out.values_mut() {
        set.sort_unstable();
        set.dedup();
    }
    out
}

/// The planner fuses every θ* join into a null-tolerant hash join, and
/// that join gives exactly the unfused `Select(Product)` result under set,
/// bag and conditional evaluation and in the columnar mask executor — on
/// random instances with null keys on either side and nulls shared across
/// relations.
#[test]
fn null_tolerant_hash_join_equals_select_over_product() {
    use certa::algebra::mask::{ColumnarContext, ColumnarExec};
    use certa::algebra::physical::{
        execute, identity_hook, plan, BagAnn, BagSource, PhysOp, SetSource,
    };
    use certa::algebra::MorselPool;
    use std::collections::BTreeMap;

    let queries = theta_star_joins();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97) + 13);
        let db = gen_database(&mut rng);
        let bags = db.to_bags();
        let pool: Vec<Const> = (0..4).chain([9]).map(Const::Int).collect();
        let ctx = ColumnarContext::new(db.nulls(), pool).unwrap();
        for (qi, query) in queries.iter().enumerate() {
            let label = format!("seed {seed} q{qi}: {query} on {db}");
            let RaExpr::Select(input, cond) = query else {
                unreachable!()
            };
            let RaExpr::Product(l, r) = input.as_ref() else {
                unreachable!()
            };
            let fused = plan(query, db.schema()).unwrap();
            assert!(
                matches!(
                    fused,
                    PhysOp::HashJoin {
                        null_tolerant: true,
                        ..
                    }
                ),
                "{label}: expected a null-tolerant hash join, got\n{fused}"
            );
            let unfused = PhysOp::Select(
                Box::new(PhysOp::Product(
                    Box::new(plan(l, db.schema()).unwrap()),
                    Box::new(plan(r, db.schema()).unwrap()),
                )),
                cond.clone(),
            );

            let set = |op: &PhysOp| execute(op, &SetSource(&db), &mut identity_hook).unwrap();
            assert_eq!(
                set(&fused).support(),
                set(&unfused).support(),
                "{label}: set"
            );
            assert_eq!(
                PreparedQuery::prepare(query, db.schema())
                    .unwrap()
                    .eval_set(&db)
                    .unwrap(),
                eval_set_reference(query, &db).unwrap(),
                "{label}: eval_set"
            );

            let bag = |op: &PhysOp| {
                let mut counts: BTreeMap<Tuple, usize> = BTreeMap::new();
                for (t, BagAnn(n)) in execute(op, &BagSource(&bags), &mut identity_hook)
                    .unwrap()
                    .into_rows()
                {
                    *counts.entry(t).or_insert(0) += n;
                }
                counts
            };
            assert_eq!(bag(&fused), bag(&unfused), "{label}: bag");

            for strategy in Strategy::ALL {
                let fast = eval_conditional(query, &db, strategy).unwrap();
                let slow = eval_conditional_reference(query, &db, strategy).unwrap();
                assert_eq!(
                    fast.certain(),
                    slow.certain(),
                    "{label}: {strategy:?} certain"
                );
                assert_eq!(
                    fast.possible(),
                    slow.possible(),
                    "{label}: {strategy:?} possible"
                );
            }

            let exec = ColumnarExec::new(&db, &ctx, MorselPool::new(1));
            assert_eq!(
                mask_world_sets(&exec.execute(&fused).unwrap(), ctx.worlds()),
                mask_world_sets(&exec.execute(&unfused).unwrap(), ctx.worlds()),
                "{label}: mask"
            );
        }
    }
}
