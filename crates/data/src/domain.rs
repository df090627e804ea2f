//! The maintained active-domain summary of a [`crate::Database`].
//!
//! `Const(D)` and `Null(D)` are read on every exact request (the world
//! pool, the backend choice, the world count, the fresh valuation of
//! naïve evaluation). Rescanning every cell for each of them costs time
//! linear in the instance; the summary instead keeps one **occurrence
//! count** per constant and per null, so a typed mutation updates it in
//! `O(arity)` per touched tuple and a read is a map walk or a lookup.
//!
//! The database owns the summary lazily (see `Database::domain`): it is
//! built by one scan at the first read, kept exact by the typed mutators
//! while it exists, and dropped by the mutations whose effect it cannot
//! follow cheaply (`relation_mut`, `set_relation`, WAL replay). Every build
//! bumps the `data.domain_rebuilds` counter.

use crate::tuple::Tuple;
use crate::value::{Const, NullId, Value};
use certa_obs::{metrics, MetricId};
use std::collections::BTreeMap;

/// Occurrence counts of the constants and nulls of an instance, in sorted
/// key order. A key is present iff its count is positive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DomainSummary {
    consts: BTreeMap<Const, usize>,
    nulls: BTreeMap<NullId, usize>,
}

impl DomainSummary {
    /// Build the summary from scratch by scanning every cell once.
    pub(crate) fn scan<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> DomainSummary {
        metrics().add(MetricId::DomainRebuilds, 1);
        // One flat vector per kind, sorted once and run-length counted: the
        // maps are then bulk-built from sorted input.
        let mut consts: Vec<Const> = Vec::new();
        let mut nulls: Vec<NullId> = Vec::new();
        for t in tuples {
            for v in t.iter() {
                match v {
                    Value::Const(c) => consts.push(c.clone()),
                    Value::Null(n) => nulls.push(*n),
                }
            }
        }
        DomainSummary {
            consts: run_lengths(consts),
            nulls: run_lengths(nulls),
        }
    }

    /// Count the cells of a tuple that entered the instance.
    pub(crate) fn add(&mut self, t: &Tuple) {
        for v in t.iter() {
            match v {
                Value::Const(c) => *self.consts.entry(c.clone()).or_insert(0) += 1,
                Value::Null(n) => *self.nulls.entry(*n).or_insert(0) += 1,
            }
        }
    }

    /// Uncount the cells of a tuple that left the instance.
    pub(crate) fn remove(&mut self, t: &Tuple) {
        for v in t.iter() {
            match v {
                Value::Const(c) => decrement(&mut self.consts, c),
                Value::Null(n) => decrement(&mut self.nulls, n),
            }
        }
    }

    /// The constants, in ascending order.
    pub(crate) fn consts(&self) -> impl ExactSizeIterator<Item = &Const> {
        self.consts.keys()
    }

    /// The nulls, in ascending order.
    pub(crate) fn nulls(&self) -> impl ExactSizeIterator<Item = NullId> + '_ {
        self.nulls.keys().copied()
    }

    pub(crate) fn has_const(&self, c: &Const) -> bool {
        self.consts.contains_key(c)
    }

    pub(crate) fn max_null(&self) -> Option<NullId> {
        self.nulls.keys().next_back().copied()
    }
}

/// Sort and count equal runs into a map.
fn run_lengths<K: Ord>(mut keys: Vec<K>) -> BTreeMap<K, usize> {
    keys.sort_unstable();
    let mut runs: Vec<(K, usize)> = Vec::new();
    for k in keys {
        match runs.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => runs.push((k, 1)),
        }
    }
    runs.into_iter().collect()
}

fn decrement<K: Ord>(counts: &mut BTreeMap<K, usize>, key: &K) {
    let Some(n) = counts.get_mut(key) else {
        debug_assert!(false, "domain summary: removing an uncounted value");
        return;
    };
    *n -= 1;
    if *n == 0 {
        counts.remove(key);
    }
}
