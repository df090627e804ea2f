//! Variable-ordering heuristics for the diagram encoding.
//!
//! Decision-diagram size is notoriously order-sensitive: variables that
//! interact (appear in the same atoms, or in conditions produced by the
//! same join) should sit on adjacent levels. Two deterministic signals are
//! combined:
//!
//! * **Instance statistics** ([`certa_algebra::Stats`]): nulls hosted by
//!   the same base relation co-occur in the conditions the c-table engine
//!   emits (a join against a null key conjoins atoms over that relation's
//!   nulls), so same-relation nulls are clustered, smaller relations first
//!   — the same null-dependence information the logical optimizer uses to
//!   sink null-free leaves.
//! * **Condition frequency**: within a cluster, nulls mentioned by more
//!   compiled conditions come first, so the shared prefix of the diagrams
//!   folds early.
//!
//! Ties break on the null id, so the order — and with it every diagram,
//! count and explain report — is fully deterministic.

use certa_algebra::Stats;
use certa_ctables::Cond;
use certa_data::{Database, NullId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Order `nulls` for diagram levels using condition occurrence counts and,
/// when available, instance statistics over `db` (see the module docs).
/// Every null of `nulls` appears exactly once in the result; nulls no
/// condition mentions go last (they are untested levels that only
/// contribute domain-size factors to counts).
pub fn var_order<'a>(
    nulls: &BTreeSet<NullId>,
    conds: impl IntoIterator<Item = &'a Cond>,
    stats: Option<(&Stats, &Database)>,
) -> Vec<NullId> {
    // Occurrence counts across the compiled conditions.
    let mut frequency: BTreeMap<NullId, usize> = BTreeMap::new();
    for cond in conds {
        let mut mentioned = BTreeSet::new();
        cond.nulls(&mut mentioned);
        for n in mentioned {
            *frequency.entry(n).or_insert(0) += 1;
        }
    }
    // Cluster rank: nulls grouped by their (smallest) host relation,
    // relations ranked by cardinality then name. Nulls the statistics
    // cannot place — or without statistics at all — share one last cluster.
    let cluster = stats.map(|(stats, db)| cluster_ranks(stats, db));
    let rank_of = |n: &NullId| -> (usize, std::cmp::Reverse<usize>, NullId) {
        let cluster_rank = cluster
            .as_ref()
            .and_then(|c| c.get(n).copied())
            .unwrap_or(usize::MAX);
        let freq = frequency.get(n).copied().unwrap_or(0);
        (cluster_rank, std::cmp::Reverse(freq), *n)
    };
    let mut order: Vec<NullId> = nulls.iter().copied().collect();
    order.sort_by_key(rank_of);
    order
}

/// Map every null of a null-bearing relation to its cluster rank.
fn cluster_ranks(stats: &Stats, db: &Database) -> BTreeMap<NullId, usize> {
    // Deterministic relation ranking: cardinality ascending, then name.
    let mut relations: Vec<&str> = stats.null_relations().collect();
    relations.sort_by_key(|name| (stats.cardinality(name).unwrap_or(usize::MAX), *name));
    let mut ranks = BTreeMap::new();
    for (rank, name) in relations.iter().enumerate() {
        let Ok(rel) = db.relation(name) else {
            continue;
        };
        for tuple in rel.iter() {
            for n in tuple.iter().filter_map(Value::as_null) {
                ranks.entry(n).or_insert(rank);
            }
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_data::{database_from_literal, tup, Value};

    fn null(i: NullId) -> Value {
        Value::null(i)
    }

    #[test]
    fn frequency_orders_most_mentioned_first() {
        let nulls: BTreeSet<NullId> = [0, 1, 2].into_iter().collect();
        let a = Cond::eq(null(1), Value::int(1));
        let b = Cond::eq(null(1), null(2));
        let order = var_order(&nulls, [&a, &b], None);
        // ⊥1 appears twice, ⊥2 once, ⊥0 never.
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn stats_cluster_same_relation_nulls() {
        let db = database_from_literal([
            // Small relation hosting ⊥2 and ⊥3, big one hosting ⊥0, ⊥1.
            ("Small", vec!["a"], vec![tup![null(2)], tup![null(3)]]),
            (
                "Big",
                vec!["a"],
                vec![tup![null(0)], tup![null(1)], tup![1], tup![2], tup![3]],
            ),
        ]);
        let stats = Stats::from_database(&db);
        let nulls = db.nulls();
        let conds: Vec<Cond> = nulls
            .iter()
            .map(|n| Cond::eq(Value::null(*n), Value::int(0)))
            .collect();
        let order = var_order(&nulls, conds.iter(), Some((&stats, &db)));
        // The small relation's cluster comes first; ids break ties inside.
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn every_null_appears_exactly_once() {
        let nulls: BTreeSet<NullId> = (0..10).collect();
        let c = Cond::eq(null(4), null(9));
        let order = var_order(&nulls, [&c], None);
        let set: BTreeSet<NullId> = order.iter().copied().collect();
        assert_eq!(set, nulls);
        assert_eq!(order.len(), 10);
        // Deterministic across calls.
        assert_eq!(order, var_order(&nulls, [&c], None));
    }
}
