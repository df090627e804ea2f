//! The approximation scheme of Guagliardo & Libkin (2016): `Q ↦ (Q+, Q?)`
//! (Figure 2(b) of the survey).
//!
//! `Q+` returns only certain answers (no false positives) and `Q?`
//! over-approximates the possible answers; together they satisfy
//! `v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D))` for every valuation `v` (Theorem 4.7).
//! Unlike the `(Qt, Qf)` scheme, no power of the active domain is ever
//! built: the only new operator is the unification anti-semijoin `⋉⇑` used
//! for difference, which is what makes the scheme implementable on real
//! databases with a measured overhead of a few percent (experiment E3).

use crate::approx51::{desugar_intersect, negate_star};
use crate::{CertainError, Result};
use certa_algebra::{Condition, PreparedQuery, RaExpr};
use certa_data::{Database, Relation, Schema};

/// The pair of translations of Figure 2(b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxPair {
    /// The certain-answer under-approximation `Q+`.
    pub q_plus: RaExpr,
    /// The possible-answer over-approximation `Q?`.
    pub q_question: RaExpr,
}

impl ApproxPair {
    /// Compile both translations once for repeated evaluation (the
    /// `certa::Pipeline` caches the result per query/schema). The logical
    /// optimizer runs over both translations first — the `⋉⇑` introduced
    /// for differences acts as a rewrite barrier, but the join clusters
    /// around it still reorder and prune.
    ///
    /// # Errors
    ///
    /// Returns an error if either translation is ill-formed for the schema
    /// (cannot happen for pairs produced by [`translate`] against the same
    /// schema).
    pub fn prepare(&self, schema: &Schema) -> Result<PreparedApproxPair> {
        Ok(PreparedApproxPair {
            q_plus: PreparedQuery::prepare_optimized(&self.q_plus, schema)?,
            q_question: PreparedQuery::prepare_optimized(&self.q_question, schema)?,
        })
    }
}

/// A compiled `(Q+, Q?)` pair: both translations planned once, executable
/// many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedApproxPair {
    /// The compiled certain-answer under-approximation.
    pub q_plus: PreparedQuery,
    /// The compiled possible-answer over-approximation.
    pub q_question: PreparedQuery,
}

impl PreparedApproxPair {
    /// Evaluate both translations on a database, returning
    /// `(Q+(D), Q?(D))`.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown relations.
    pub fn eval(&self, db: &Database) -> Result<(Relation, Relation)> {
        Ok((self.q_plus.eval_set(db)?, self.q_question.eval_set(db)?))
    }
}

/// Compute both translations at once.
///
/// # Errors
///
/// Returns an error if the query is ill-formed for the schema or uses an
/// operator outside the scheme's fragment (division, `Domᵏ`, `⋉⇑`).
pub fn translate(query: &RaExpr, schema: &Schema) -> Result<ApproxPair> {
    let desugared = desugar_intersect(query);
    desugared.validate(schema)?;
    translate_rec(&desugared)
}

/// The certain-answer translation `Q+`.
///
/// # Errors
///
/// As [`translate`].
pub fn q_plus(query: &RaExpr, schema: &Schema) -> Result<RaExpr> {
    Ok(translate(query, schema)?.q_plus)
}

/// The possible-answer translation `Q?`.
///
/// # Errors
///
/// As [`translate`].
pub fn q_question(query: &RaExpr, schema: &Schema) -> Result<RaExpr> {
    Ok(translate(query, schema)?.q_question)
}

fn translate_rec(query: &RaExpr) -> Result<ApproxPair> {
    match query {
        RaExpr::Relation(_) | RaExpr::Literal(_) => Ok(ApproxPair {
            q_plus: query.clone(),
            q_question: query.clone(),
        }),
        RaExpr::Union(l, r) => {
            let (l, r) = (translate_rec(l)?, translate_rec(r)?);
            Ok(ApproxPair {
                q_plus: l.q_plus.union(r.q_plus),
                q_question: l.q_question.union(r.q_question),
            })
        }
        RaExpr::Difference(l, r) => {
            let (l, r) = (translate_rec(l)?, translate_rec(r)?);
            Ok(ApproxPair {
                q_plus: l.q_plus.anti_semijoin_unify(r.q_question),
                q_question: l.q_question.difference(r.q_plus),
            })
        }
        RaExpr::Select(e, cond) => {
            let inner = translate_rec(e)?;
            Ok(ApproxPair {
                q_plus: inner.q_plus.select(cond.star()),
                q_question: inner.q_question.select(possible_condition(cond)),
            })
        }
        RaExpr::Product(l, r) => {
            let (l, r) = (translate_rec(l)?, translate_rec(r)?);
            Ok(ApproxPair {
                q_plus: l.q_plus.product(r.q_plus),
                q_question: l.q_question.product(r.q_question),
            })
        }
        RaExpr::Project(e, positions) => {
            let inner = translate_rec(e)?;
            Ok(ApproxPair {
                q_plus: inner.q_plus.project(positions.clone()),
                q_question: inner.q_question.project(positions.clone()),
            })
        }
        RaExpr::Intersect(..) => unreachable!("intersections are desugared before translation"),
        RaExpr::Divide(..) => Err(CertainError::UnsupportedOperator("division")),
        RaExpr::DomPower(_) => Err(CertainError::UnsupportedOperator("Dom^k")),
        RaExpr::AntiSemiJoinUnify(..) => {
            Err(CertainError::UnsupportedOperator("anti-semijoin (⋉⇑)"))
        }
    }
}

/// The condition `¬(¬θ)*` of Figure 2(b): a tuple *possibly* satisfies `θ`
/// unless it certainly satisfies `¬θ`.
pub fn possible_condition(cond: &Condition) -> Condition {
    negate_star(cond).negate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::cert_with_nulls;
    use crate::worlds::{enumerate_worlds, exact_pool};
    use certa_algebra::eval;
    use certa_data::{database_from_literal, tup, Database, Relation, Value};

    fn db() -> Database {
        database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![Value::null(0)], tup![2]]),
            (
                "T",
                vec!["a", "b"],
                vec![tup![1, Value::null(1)], tup![2, 3], tup![Value::null(0), 4]],
            ),
        ])
    }

    /// Check Theorem 4.7: Q+(D) ⊆ cert⊥(Q,D) and, for every valuation,
    /// v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D)).
    fn check_sandwich(q: &RaExpr, d: &Database) {
        let pair = translate(q, d.schema()).unwrap();
        let plus = eval(&pair.q_plus, d).unwrap();
        let question = eval(&pair.q_question, d).unwrap();
        let cert = cert_with_nulls(q, d).unwrap();
        assert!(plus.is_subset_of(&cert), "Q+ ⊄ cert⊥ for {q}");
        let spec = exact_pool(q, d);
        for (v, world) in enumerate_worlds(d, &spec).unwrap() {
            let answer = eval(q, &world).unwrap();
            let v_plus = v.apply_relation(&plus);
            let v_question = v.apply_relation(&question);
            assert!(v_plus.is_subset_of(&answer), "v(Q+) ⊄ Q(v(D)) for {q}");
            assert!(answer.is_subset_of(&v_question), "Q(v(D)) ⊄ v(Q?) for {q}");
        }
    }

    #[test]
    fn base_and_union_and_product() {
        let d = db();
        check_sandwich(&RaExpr::rel("S"), &d);
        check_sandwich(&RaExpr::rel("R").union(RaExpr::rel("S")), &d);
        check_sandwich(&RaExpr::rel("R").product(RaExpr::rel("S")), &d);
        check_sandwich(&RaExpr::rel("T").project(vec![1]), &d);
    }

    #[test]
    fn difference_uses_antisemijoin() {
        let d = db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        let pair = translate(&q, d.schema()).unwrap();
        assert!(pair.q_plus.to_string().contains("⋉⇑"));
        // Nothing is certain: ⊥0 could be 1 or 2.
        assert!(eval(&pair.q_plus, &d).unwrap().is_empty());
        // Possible answers keep 1 (it survives when ⊥0 ≠ 1).
        assert!(eval(&pair.q_question, &d).unwrap().contains(&tup![1]));
        check_sandwich(&q, &d);
    }

    #[test]
    fn selection_certain_and_possible() {
        let d = db();
        // σ(a ≠ 2)(S): the null tuple is possible but not certain; nothing
        // is certain.
        let q = RaExpr::rel("S").select(Condition::neq_const(0, 2));
        let pair = translate(&q, d.schema()).unwrap();
        assert!(eval(&pair.q_plus, &d).unwrap().is_empty());
        assert_eq!(
            eval(&pair.q_question, &d).unwrap(),
            Relation::from_tuples(vec![tup![Value::null(0)]])
        );
        check_sandwich(&q, &d);
        // The OR-tautology of §1: a = 2 ∨ a ≠ 2 — certain for both tuples
        // once the ?-condition keeps the null and the +-condition uses θ*.
        let q = RaExpr::rel("S").select(Condition::eq_const(0, 2).or(Condition::neq_const(0, 2)));
        check_sandwich(&q, &d);
    }

    #[test]
    fn nested_difference_sandwich() {
        let d = db();
        // R − (S − R): a nested pattern exercising both rules.
        let q = RaExpr::rel("R").difference(RaExpr::rel("S").difference(RaExpr::rel("R")));
        check_sandwich(&q, &d);
        // (R × S) minus (R × R), projected.
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .difference(RaExpr::rel("R").product(RaExpr::rel("R")))
            .project(vec![0]);
        check_sandwich(&q, &d);
    }

    #[test]
    fn q_plus_equals_query_on_complete_databases() {
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![2]]),
        ]);
        let queries = [
            RaExpr::rel("R").difference(RaExpr::rel("S")),
            RaExpr::rel("R").select(Condition::neq_const(0, 2)),
            RaExpr::rel("R").intersect(RaExpr::rel("S")),
        ];
        for q in queries {
            let pair = translate(&q, d.schema()).unwrap();
            assert_eq!(
                eval(&pair.q_plus, &d).unwrap(),
                eval(&q, &d).unwrap(),
                "{q}"
            );
            assert_eq!(
                eval(&pair.q_question, &d).unwrap(),
                eval(&q, &d).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn possible_condition_keeps_unknowns() {
        // ¬(¬θ)* for θ = (a = 1): a null possibly equals 1.
        let cond = possible_condition(&Condition::eq_const(0, 1));
        assert!(cond.eval(&tup![Value::null(0)]));
        assert!(cond.eval(&tup![1]));
        assert!(!cond.eval(&tup![2]));
        // For θ = (a ≠ 1): a null possibly differs from 1, and 1 does not.
        let cond = possible_condition(&Condition::neq_const(0, 1));
        assert!(cond.eval(&tup![Value::null(0)]));
        assert!(!cond.eval(&tup![1]));
        assert!(cond.eval(&tup![2]));
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let d = db();
        assert!(matches!(
            translate(&RaExpr::rel("T").divide(RaExpr::rel("R")), d.schema()),
            Err(CertainError::UnsupportedOperator(_))
        ));
        assert!(matches!(
            translate(&RaExpr::DomPower(2), d.schema()),
            Err(CertainError::UnsupportedOperator(_))
        ));
    }

    #[test]
    fn q_plus_no_dom_powers() {
        // The whole point of the scheme: no Dom^k anywhere in either
        // translation.
        let d = db();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .project(vec![0])
            .difference(RaExpr::rel("R").difference(RaExpr::rel("S")));
        let pair = translate(&q, d.schema()).unwrap();
        assert!(!pair.q_plus.to_string().contains("Dom^"));
        assert!(!pair.q_question.to_string().contains("Dom^"));
    }

    #[test]
    fn q_question_of_a_join_plans_a_null_tolerant_hash_join() {
        // T ⋈_{a = a} R: Q+ keeps the equality, Q? relaxes it to θ*'s
        // `a = a' ∨ null(a) ∨ null(a')`. Both still plan hash joins; only
        // Q?'s lets null keys pair with every row.
        use certa_algebra::physical::PhysOp;
        fn join_flags(op: &PhysOp, out: &mut Vec<bool>) {
            match op {
                PhysOp::HashJoin {
                    left,
                    right,
                    null_tolerant,
                    ..
                } => {
                    out.push(*null_tolerant);
                    join_flags(left, out);
                    join_flags(right, out);
                }
                PhysOp::Select(e, _) | PhysOp::Project(e, _) => join_flags(e, out),
                PhysOp::Product(l, r) => {
                    join_flags(l, out);
                    join_flags(r, out);
                }
                _ => {}
            }
        }
        let d = db();
        let q = RaExpr::rel("T")
            .join_on(RaExpr::rel("R"), &[(0, 0)], 2)
            .project(vec![1, 2]);
        let prepared = translate(&q, d.schema())
            .unwrap()
            .prepare(d.schema())
            .unwrap();
        let (mut plus, mut question) = (Vec::new(), Vec::new());
        join_flags(prepared.q_plus.plan(), &mut plus);
        join_flags(prepared.q_question.plan(), &mut question);
        assert_eq!(plus, vec![false], "Q+ plan:\n{}", prepared.q_plus.plan());
        assert_eq!(
            question,
            vec![true],
            "Q? plan:\n{}",
            prepared.q_question.plan()
        );
        assert!(prepared
            .q_question
            .plan()
            .to_string()
            .contains("HashJoin (null-tolerant) on"));
        check_sandwich(&q, &d);
    }
}
