//! Naïve evaluation (§4.1).
//!
//! Naïve evaluation treats nulls as if they were fresh constants: pick a
//! bijective valuation `v` sending the nulls of `D` to constants outside
//! `dom(D)` and outside the constants of the query, evaluate the query on
//! `v(D)` with the usual (complete-database) semantics, and map the fresh
//! constants back:
//!
//! ```text
//! Qⁿᵃⁱᵛᵉ(D) = v⁻¹( Q(v(D)) )
//! ```
//!
//! For generic queries the choice of `v` does not matter. Theorem 4.4 of the
//! survey: naïve evaluation computes certain answers with nulls for UCQs
//! under owa and for Pos∀G queries under cwa; Theorem 4.10: it computes
//! exactly the *almost certainly true* answers for every generic query.
//!
//! The renaming is real — the `const(·)`/`null(·)` predicates are not
//! generic and must see `v(D)`, not `D` — but `v(D)` is never built. The
//! query is planned once and executed over a
//! [`ValuationSource`](crate::physical::ValuationSource), which renames
//! nulls during each scan: relations the query never reads are never
//! touched, and `Domᵏ` enumerates `v(dom D)` read off the database's domain
//! summary. Literal relations in the query are not renamed, exactly as in
//! the textbook construction (the renaming applies to `D`). The
//! materialising definition survives as the oracle
//! [`crate::reference::naive_eval_reference`].

use crate::expr::RaExpr;
use crate::physical::{self, ValuationSource};
use crate::Result;
use certa_data::{Database, Relation, Valuation, Value};

/// Evaluate `Q` naïvely on `D`, zero-copy.
///
/// # Errors
///
/// Returns an error if the expression is ill-formed for the schema.
pub fn naive_eval(expr: &RaExpr, db: &Database) -> Result<Relation> {
    expr.validate(db.schema())?;
    if db.null_count() == 0 {
        return physical::eval_set(expr, db);
    }
    // Fresh constants must avoid both the database constants and the query
    // constants (§4.1's definition of a bijective valuation).
    let query_consts = expr.consts(); // sorted, deduplicated
    let v = Valuation::bijective_fresh(db.iter_nulls(), |c| {
        db.has_const(c) || query_consts.binary_search(c).is_ok()
    });
    let plan = physical::plan(expr, db.schema())?;
    let output = physical::execute(
        &plan,
        &ValuationSource::new(db, &v),
        &mut physical::identity_hook,
    )?;
    // Rename back row by row, so the output set is built once.
    let inverse = v.inverse();
    let arity = output.arity();
    Ok(Relation::with_arity(
        arity,
        output.into_rows().into_iter().map(|(t, _)| {
            t.map(|value| match value {
                Value::Const(c) => inverse
                    .get(c)
                    .map_or_else(|| value.clone(), |null| Value::Null(*null)),
                Value::Null(_) => value.clone(),
            })
        }),
    ))
}

/// Naïve evaluation restricted to null-free answer tuples,
/// `Qⁿᵃⁱᵛᵉ(D) ∩ Constᵐ` — the object that Theorem 4.1 relates to
/// intersection-based certain answers for UCQs.
///
/// # Errors
///
/// As [`naive_eval`].
pub fn naive_eval_const(expr: &RaExpr, db: &Database) -> Result<Relation> {
    Ok(naive_eval(expr, db)?.const_tuples())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::expr::Condition;
    use certa_data::{database_from_literal, tup};

    #[test]
    fn naive_eval_on_complete_database_is_plain_eval() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![1], tup![2]])]);
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 1));
        assert_eq!(naive_eval(&q, &d).unwrap(), eval(&q, &d).unwrap());
    }

    #[test]
    fn nulls_survive_projection_round_trip() {
        let d = database_from_literal([("R", vec!["a", "b"], vec![tup![1, Value::null(0)]])]);
        let q = RaExpr::rel("R").project(vec![1]);
        let out = naive_eval(&q, &d).unwrap();
        assert_eq!(out, Relation::from_tuples(vec![tup![Value::null(0)]]));
    }

    #[test]
    fn paper_path_example() {
        // Graph {(1,⊥1), (⊥1,2)}: is there a path 1 → 2 of length two?
        let d = database_from_literal([(
            "E",
            vec!["from", "to"],
            vec![tup![1, Value::null(1)], tup![Value::null(1), 2]],
        )]);
        // Q() :– E(1, x), E(x, 2) as σ and join.
        let q = RaExpr::rel("E")
            .join_on(RaExpr::rel("E"), &[(1, 0)], 2)
            .select(Condition::eq_const(0, 1).and(Condition::eq_const(3, 2)))
            .project(Vec::new());
        assert!(naive_eval(&q, &d).unwrap().as_bool());
    }

    #[test]
    fn difference_example_not_certain_but_naive_true() {
        // R = {1}, S = {⊥}: naive evaluation of R − S returns {1}
        // (the certain answer is empty — that is the point of §4.2).
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        assert_eq!(
            naive_eval(&q, &d).unwrap(),
            Relation::from_tuples(vec![tup![1]])
        );
    }

    #[test]
    fn null_predicates_see_fresh_constants() {
        // Under naïve evaluation nulls become constants, so `null(a)` selects
        // nothing — queries with const/null predicates are not generic and
        // naive evaluation treats the renamed database at face value.
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)], tup![1]])]);
        let q = RaExpr::rel("R").select(Condition::IsNull(0));
        assert!(naive_eval(&q, &d).unwrap().is_empty());
        // Direct evaluation, by contrast, sees the null.
        assert_eq!(eval(&q, &d).unwrap().len(), 1);
    }

    #[test]
    fn query_constants_are_avoided_by_renaming() {
        // The query mentions constant 5; the fresh renaming must not
        // accidentally make ⊥0 equal to 5.
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)]])]);
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 5));
        assert!(naive_eval(&q, &d).unwrap().is_empty());
    }

    #[test]
    fn join_on_repeated_null_succeeds() {
        // Nulls act as values: ⊥0 joins with ⊥0 but not with ⊥1.
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![Value::null(0)]]),
            (
                "S",
                vec!["a"],
                vec![tup![Value::null(0)], tup![Value::null(1)]],
            ),
        ]);
        let q = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(0, 0)], 1);
        let out = naive_eval(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tup![Value::null(0), Value::null(0)]));
    }

    #[test]
    fn const_tuples_variant_strips_null_answers() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)], tup![1]])]);
        let q = RaExpr::rel("R");
        assert_eq!(naive_eval(&q, &d).unwrap().len(), 2);
        assert_eq!(
            naive_eval_const(&q, &d).unwrap(),
            Relation::from_tuples(vec![tup![1]])
        );
    }
}
