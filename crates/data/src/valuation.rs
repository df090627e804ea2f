//! Valuations: maps from nulls to constants, and the possible-world
//! semantics of incompleteness.
//!
//! A valuation `v : Null(D) → Const` replaces every null of a database by a
//! constant; `v(D)` is a *possible world* of `D`. The closed-world semantics
//! is `⟦D⟧ = { v(D) | v valuation }`; the open-world semantics additionally
//! allows adding facts: `⟦D⟧owa = { D' complete | v(D) ⊆ D' }` (§2).

use crate::database::Database;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::{Const, NullId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A (total or partial) valuation of nulls.
///
/// Applying a valuation to a value, tuple, relation or database replaces
/// every null in its domain by the assigned constant; nulls outside the
/// domain are left untouched (this makes partial valuations usable for the
/// incremental constructions in the probabilistic module).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    map: BTreeMap<NullId, Const>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Build a valuation from `(null, constant)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NullId, Const)>) -> Self {
        Valuation {
            map: pairs.into_iter().collect(),
        }
    }

    /// Assign a constant to a null, returning the previous assignment if any.
    pub fn assign(&mut self, null: NullId, constant: Const) -> Option<Const> {
        self.map.insert(null, constant)
    }

    /// The constant assigned to a null, if any.
    pub fn get(&self, null: NullId) -> Option<&Const> {
        self.map.get(&null)
    }

    /// `true` iff the valuation assigns no nulls.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of nulls assigned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The set of nulls this valuation assigns.
    pub fn domain(&self) -> BTreeSet<NullId> {
        self.map.keys().copied().collect()
    }

    /// The multiset of constants in the valuation's range, as a set.
    pub fn range(&self) -> BTreeSet<Const> {
        self.map.values().cloned().collect()
    }

    /// `true` iff the valuation assigns every null of `nulls`.
    pub fn is_total_on(&self, nulls: &BTreeSet<NullId>) -> bool {
        nulls.iter().all(|n| self.map.contains_key(n))
    }

    /// `true` iff the valuation is injective (distinct nulls map to distinct
    /// constants) — needed by bijective valuations for naïve evaluation.
    pub fn is_injective(&self) -> bool {
        self.range().len() == self.map.len()
    }

    /// Apply the valuation to a value.
    pub fn apply_value(&self, v: &Value) -> Value {
        match v {
            Value::Null(n) => self
                .map
                .get(n)
                .map_or_else(|| v.clone(), |c| Value::Const(c.clone())),
            Value::Const(_) => v.clone(),
        }
    }

    /// Apply the valuation to a tuple, `v(t̄)`.
    pub fn apply_tuple(&self, t: &Tuple) -> Tuple {
        t.map(|v| self.apply_value(v))
    }

    /// Apply the valuation to a relation.
    pub fn apply_relation(&self, r: &Relation) -> Relation {
        r.map(|t| self.apply_tuple(t))
    }

    /// Apply the valuation to a database, `v(D)`.
    pub fn apply_database(&self, d: &Database) -> Database {
        d.map_values(|v| self.apply_value(v))
    }

    /// Compose: apply `self` first, then `other` to any nulls still present.
    pub fn then(&self, other: &Valuation) -> Valuation {
        let mut map = BTreeMap::new();
        for (n, c) in &self.map {
            map.insert(*n, c.clone());
        }
        for (n, c) in &other.map {
            map.entry(*n).or_insert_with(|| c.clone());
        }
        Valuation { map }
    }

    /// Build a *bijective* valuation on the given (distinct) nulls: every
    /// null is mapped to a fresh constant for which `avoid` is false and
    /// that is not used for another null.
    ///
    /// This is the `v` of naïve evaluation (§4.1): a bijection whose range is
    /// disjoint from the active domain and the constants of the query.
    /// `avoid` is a membership test, so callers can answer it from the
    /// database's domain summary without collecting `Const(D)`.
    pub fn bijective_fresh(
        nulls: impl ExactSizeIterator<Item = NullId>,
        avoid: impl Fn(&Const) -> bool,
    ) -> Valuation {
        // Fresh constants are taken from a reserved string namespace so they
        // can never collide with user integers or ordinary strings, and so
        // the inverse map is recoverable.
        let stride = nulls.len();
        let mut map = BTreeMap::new();
        for (i, n) in nulls.enumerate() {
            let mut k = i;
            loop {
                let candidate = Const::str(format!("§fresh{k}"));
                if !avoid(&candidate) {
                    map.insert(n, candidate);
                    break;
                }
                k += stride;
            }
        }
        Valuation { map }
    }

    /// Invert a bijective valuation, producing the map from fresh constants
    /// back to the nulls (used to undo the renaming after naïve evaluation).
    ///
    /// # Panics
    ///
    /// Panics if the valuation is not injective.
    pub fn inverse(&self) -> BTreeMap<Const, NullId> {
        assert!(self.is_injective(), "Valuation::inverse: not injective");
        self.map.iter().map(|(n, c)| (c.clone(), *n)).collect()
    }

    /// Iterate over the `(null, constant)` assignments.
    pub fn iter(&self) -> impl Iterator<Item = (NullId, &Const)> {
        self.map.iter().map(|(n, c)| (*n, c))
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (n, c)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⊥{n}↦{c}")?;
        }
        write!(f, "]")
    }
}

/// Enumerate **all** total valuations of `nulls` whose range is contained in
/// `pool`, in lexicographic order.
///
/// This is the finite set `V_k(D)` of §4.3 when `pool` is the first `k`
/// constants of an enumeration of `Const`. The number of valuations is
/// `|pool|^|nulls|`, so callers must keep both small; the iterator is lazy.
/// The count saturates at `usize::MAX` instead of panicking — callers are
/// expected to bound-check with [`count_valuations`] *before* iterating (the
/// `certa-certain` crate surfaces the saturated count as its
/// `TooManyWorlds` error), since a saturated enumeration would be
/// astronomically long and, past `usize::MAX`, incomplete.
pub fn all_valuations<'a>(
    nulls: &'a BTreeSet<NullId>,
    pool: &'a [Const],
) -> impl Iterator<Item = Valuation> + 'a {
    let nulls: Vec<NullId> = nulls.iter().copied().collect();
    let total: usize = count_valuations(nulls.len(), pool.len());
    (0..total).map(move |idx| valuation_at(&nulls, pool, idx))
}

/// The valuation at position `idx` of the lexicographic enumeration of all
/// total valuations of `nulls` (in slice order, least-significant first)
/// into `pool`.
///
/// This is the **single** definition of the enumeration order: the lazy
/// iterator above and the world engines of `certa-certain` (sequential and
/// chunked-parallel alike) all decode indices through it, so they can never
/// drift apart.
pub fn valuation_at(nulls: &[NullId], pool: &[Const], mut idx: usize) -> Valuation {
    let k = pool.len().max(1);
    let mut val = Valuation::new();
    for null in nulls {
        val.assign(*null, pool[idx % k].clone());
        idx /= k;
    }
    val
}

/// Number of total valuations of `nulls` into `pool` (i.e. `|pool|^|nulls|`),
/// saturating at `usize::MAX` — callers use this to decide whether an
/// enumeration is feasible at all, so saturation is the right behaviour for
/// counts that would overflow.
pub fn count_valuations(num_nulls: usize, pool_size: usize) -> usize {
    if num_nulls == 0 {
        return 1;
    }
    let mut total: usize = 1;
    for _ in 0..num_nulls {
        total = match total.checked_mul(pool_size) {
            Some(t) => t,
            None => return usize::MAX,
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::database_from_literal;
    use crate::tup;

    #[test]
    fn apply_to_value_tuple_relation() {
        let v = Valuation::from_pairs([(0, Const::Int(7))]);
        assert_eq!(v.apply_value(&Value::null(0)), Value::int(7));
        assert_eq!(v.apply_value(&Value::null(1)), Value::null(1));
        assert_eq!(v.apply_value(&Value::int(3)), Value::int(3));
        assert_eq!(v.apply_tuple(&tup![1, Value::null(0)]), tup![1, 7]);
        let r = Relation::from_tuples(vec![tup![Value::null(0)], tup![8]]);
        assert_eq!(
            v.apply_relation(&r),
            Relation::from_tuples(vec![tup![7], tup![8]])
        );
    }

    #[test]
    fn apply_to_database_gives_possible_world() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)], tup![1]])]);
        let v = Valuation::from_pairs([(0, Const::Int(1))]);
        let world = v.apply_database(&d);
        assert!(world.is_complete());
        // ⊥0 ↦ 1 collapses the two tuples into one.
        assert_eq!(world.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn domain_range_and_injectivity() {
        let v = Valuation::from_pairs([(0, Const::Int(1)), (1, Const::Int(1))]);
        assert_eq!(v.domain().len(), 2);
        assert_eq!(v.range().len(), 1);
        assert!(!v.is_injective());
        let w = Valuation::from_pairs([(0, Const::Int(1)), (1, Const::Int(2))]);
        assert!(w.is_injective());
        assert!(w.is_total_on(&[0, 1].into_iter().collect()));
        assert!(!w.is_total_on(&[0, 2].into_iter().collect()));
    }

    #[test]
    fn bijective_fresh_avoids_collisions() {
        let nulls: BTreeSet<NullId> = [0, 1, 2].into_iter().collect();
        let avoid: BTreeSet<Const> = [Const::str("§fresh0"), Const::Int(5)].into_iter().collect();
        let v = Valuation::bijective_fresh(nulls.iter().copied(), |c| avoid.contains(c));
        assert!(v.is_injective());
        assert!(v.is_total_on(&nulls));
        for c in v.range() {
            assert!(!avoid.contains(&c));
        }
    }

    #[test]
    fn inverse_round_trips() {
        let nulls: BTreeSet<NullId> = [3, 9].into_iter().collect();
        let v = Valuation::bijective_fresh(nulls.iter().copied(), |_| false);
        let inv = v.inverse();
        for (n, c) in v.iter() {
            assert_eq!(inv[c], n);
        }
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn inverse_requires_injectivity() {
        let v = Valuation::from_pairs([(0, Const::Int(1)), (1, Const::Int(1))]);
        let _ = v.inverse();
    }

    #[test]
    fn composition_prefers_first() {
        let a = Valuation::from_pairs([(0, Const::Int(1))]);
        let b = Valuation::from_pairs([(0, Const::Int(2)), (1, Const::Int(3))]);
        let c = a.then(&b);
        assert_eq!(c.get(0), Some(&Const::Int(1)));
        assert_eq!(c.get(1), Some(&Const::Int(3)));
    }

    #[test]
    fn all_valuations_enumerates_pool_power() {
        let nulls: BTreeSet<NullId> = [0, 1].into_iter().collect();
        let pool = vec![Const::Int(1), Const::Int(2), Const::Int(3)];
        let vals: Vec<Valuation> = all_valuations(&nulls, &pool).collect();
        assert_eq!(vals.len(), 9);
        assert_eq!(count_valuations(2, 3), 9);
        // All distinct and all total.
        let distinct: BTreeSet<String> = vals.iter().map(Valuation::to_string).collect();
        assert_eq!(distinct.len(), 9);
        assert!(vals.iter().all(|v| v.is_total_on(&nulls)));
    }

    #[test]
    fn all_valuations_huge_counts_do_not_panic() {
        // 70 nulls over a 3-constant pool: 3^70 saturates the count.
        // Building the iterator must not panic — callers bound-check with
        // `count_valuations` before drawing from it.
        let nulls: BTreeSet<NullId> = (0..70).collect();
        let pool = vec![Const::Int(1), Const::Int(2), Const::Int(3)];
        assert_eq!(count_valuations(nulls.len(), pool.len()), usize::MAX);
        let _ = all_valuations(&nulls, &pool);
    }

    #[test]
    fn all_valuations_degenerate_cases() {
        let empty: BTreeSet<NullId> = BTreeSet::new();
        let pool = vec![Const::Int(1)];
        assert_eq!(all_valuations(&empty, &pool).count(), 1);
        let one: BTreeSet<NullId> = [0].into_iter().collect();
        assert_eq!(all_valuations(&one, &[]).count(), 0);
        assert_eq!(count_valuations(0, 0), 1);
    }

    #[test]
    fn display() {
        let v = Valuation::from_pairs([(0, Const::Int(1))]);
        assert_eq!(v.to_string(), "[⊥0↦1]");
    }
}
