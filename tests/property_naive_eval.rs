//! Property test for zero-copy naïve evaluation: `naive_eval` renames nulls
//! during each scan instead of materialising `v(D)`, and must return
//! exactly what the textbook definition `v⁻¹(Q(v(D)))` returns — kept as
//! the oracle `certa::algebra::reference::naive_eval_reference`, which
//! collects `Const(D)`, builds the renamed instance and evaluates it with
//! the seed interpreter.
//!
//! Queries are random and reach every operator whose result the renaming
//! can change: `null(·)`/`const(·)` tests, `Domᵏ`, division, the
//! unification anti-semijoin, and literal relations carrying nulls (the
//! renaming applies to the database, never to the query). Instances are
//! null-heavy, include the reserved fresh-constant spelling `§fresh0` so
//! the fresh valuation must step around it, and carry a relation (`T`) no
//! query reads.

use certa::algebra::reference::naive_eval_reference;
use certa::prelude::*;
use rand::prelude::*;

const CASES: u64 = 400;

fn gen_value(rng: &mut StdRng, null_share: f64) -> Value {
    if rng.gen_bool(null_share) {
        Value::null(rng.gen_range(0u32..3))
    } else if rng.gen_bool(0.1) {
        Value::str("§fresh0")
    } else {
        Value::int(rng.gen_range(0i64..3))
    }
}

fn gen_tuples(rng: &mut StdRng, arity: usize, max: usize, null_share: f64) -> Vec<Tuple> {
    (0..rng.gen_range(0..max + 1))
        .map(|_| Tuple::new((0..arity).map(|_| gen_value(rng, null_share))))
        .collect()
}

/// R(a, b), S(c) and T(d, e); one case in eight is complete.
fn gen_database(rng: &mut StdRng) -> Database {
    let share = if rng.gen_bool(0.125) { 0.0 } else { 0.45 };
    database_from_literal([
        ("R", vec!["a", "b"], gen_tuples(rng, 2, 4, share)),
        ("S", vec!["c"], gen_tuples(rng, 1, 3, share)),
        ("T", vec!["d", "e"], gen_tuples(rng, 2, 3, share)),
    ])
}

/// Which operators a generated query contains.
#[derive(Default)]
struct Coverage {
    null_tests: usize,
    dom_power: usize,
    division: usize,
    anti_semijoin: usize,
    null_literals: usize,
}

struct Gen<'a> {
    rng: &'a mut StdRng,
    seen: Coverage,
}

/// Widest intermediate result: keeps `Domᵏ` products and the quadratic
/// reference operators small.
const MAX_ARITY: usize = 3;

impl Gen<'_> {
    fn leaf(&mut self) -> (RaExpr, usize) {
        match self.rng.gen_range(0u32..6) {
            0 | 1 => (RaExpr::rel("R"), 2),
            2 => (RaExpr::rel("S"), 1),
            3 => {
                let k = self.rng.gen_range(0usize..3);
                self.seen.dom_power += 1;
                (RaExpr::DomPower(k), k)
            }
            _ => {
                // Literals may share nulls with the database (⊥0..⊥2) or
                // mention one the database lacks (⊥7).
                let arity = self.rng.gen_range(1usize..3);
                let mut tuples = gen_tuples(self.rng, arity, 3, 0.4);
                if self.rng.gen_bool(0.3) {
                    tuples.push(Tuple::new((0..arity).map(|_| Value::null(7))));
                }
                let rel = Relation::with_arity(arity, tuples);
                if !rel.is_complete() {
                    self.seen.null_literals += 1;
                }
                (RaExpr::Literal(rel), arity)
            }
        }
    }

    fn condition(&mut self, arity: usize, depth: u32) -> Condition {
        let pos = self.rng.gen_range(0..arity);
        let c = match self.rng.gen_range(0u32..8) {
            0 => {
                self.seen.null_tests += 1;
                Condition::IsNull(pos)
            }
            1 => {
                self.seen.null_tests += 1;
                Condition::IsConst(pos)
            }
            2 => Condition::eq_const(pos, self.rng.gen_range(0i64..3)),
            3 => Condition::neq_const(pos, self.rng.gen_range(0i64..3)),
            4 => Condition::eq_attr(pos, self.rng.gen_range(0..arity)),
            5 => Condition::neq_attr(pos, self.rng.gen_range(0..arity)),
            6 if depth > 0 => self
                .condition(arity, depth - 1)
                .and(self.condition(arity, depth - 1)),
            _ if depth > 0 => self
                .condition(arity, depth - 1)
                .or(self.condition(arity, depth - 1)),
            _ => Condition::eq_const(pos, 0),
        };
        if self.rng.gen_bool(0.15) {
            c.star()
        } else {
            c
        }
    }

    /// Reshape `e` to exactly `arity` columns (projection or padding by a
    /// product with `S`).
    fn fit(&mut self, (mut e, mut a): (RaExpr, usize), arity: usize) -> RaExpr {
        while a < arity {
            e = e.product(RaExpr::rel("S"));
            a += 1;
        }
        if a > arity {
            let positions: Vec<usize> = (0..arity).map(|_| self.rng.gen_range(0..a)).collect();
            e = e.project(positions);
        }
        e
    }

    fn expr(&mut self, depth: u32) -> (RaExpr, usize) {
        if depth == 0 {
            return self.leaf();
        }
        let (e, a) = self.expr(depth - 1);
        match self.rng.gen_range(0u32..9) {
            0 | 1 if a > 0 => {
                let cond = self.condition(a, 1);
                (e.select(cond), a)
            }
            2 if a > 0 => {
                let width = self.rng.gen_range(0..a + 1);
                let positions: Vec<usize> = (0..width).map(|_| self.rng.gen_range(0..a)).collect();
                (e.project(positions), width)
            }
            3 => {
                let (r, b) = self.expr(depth - 1);
                if a + b <= MAX_ARITY {
                    (e.product(r), a + b)
                } else {
                    (e, a)
                }
            }
            4 => {
                let other = self.expr(depth - 1);
                let r = self.fit(other, a);
                match self.rng.gen_range(0u32..3) {
                    0 => (e.union(r), a),
                    1 => (e.intersect(r), a),
                    _ => (e.difference(r), a),
                }
            }
            5 => {
                let other = self.expr(depth - 1);
                let r = self.fit(other, a);
                self.seen.anti_semijoin += 1;
                (e.anti_semijoin_unify(r), a)
            }
            6 if a >= 2 => {
                let width = self.rng.gen_range(1..a);
                let other = self.expr(depth - 1);
                let r = self.fit(other, width);
                self.seen.division += 1;
                (e.divide(r), a - width)
            }
            _ => (e, a),
        }
    }
}

/// Zero disagreements between zero-copy naïve evaluation and the
/// materialising textbook definition.
#[test]
fn zero_copy_naive_eval_equals_the_textbook_definition() {
    let mut seen = Coverage::default();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37) + 5);
        let db = gen_database(&mut rng);
        let mut generator = Gen {
            rng: &mut rng,
            seen: std::mem::take(&mut seen),
        };
        let depth = generator.rng.gen_range(1u32..4);
        let (query, _) = generator.expr(depth);
        seen = generator.seen;
        let fast = naive_eval(&query, &db).unwrap();
        let oracle = naive_eval_reference(&query, &db).unwrap();
        assert_eq!(fast, oracle, "seed {seed}: query {query} on db {db}");
    }
    // The generator must actually reach every operator it is meant to.
    assert!(
        seen.null_tests >= 30,
        "null/const tests: {}",
        seen.null_tests
    );
    assert!(seen.dom_power >= 30, "Dom^k: {}", seen.dom_power);
    assert!(seen.division >= 10, "division: {}", seen.division);
    assert!(
        seen.anti_semijoin >= 20,
        "anti-semijoin: {}",
        seen.anti_semijoin
    );
    assert!(
        seen.null_literals >= 30,
        "null literals: {}",
        seen.null_literals
    );
}
