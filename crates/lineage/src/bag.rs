//! Bag multiplicity ranges off the lineage: `□Q` and `◇Q` without
//! enumerating a single world.
//!
//! Under bag semantics a tuple's multiplicity across the possible worlds is
//! the *sum of weighted row indicators*: evaluating the monus-free fragment
//! (σ, π, ×, ∪ — `UNION ALL`-style, the fragment where row-level provenance
//! equals bag multiplicity) over c-table rows that carry their base
//! multiplicity as a weight yields rows `⟨s̄, φ, w⟩` with
//!
//! ```text
//! #(v(t̄), Q(v(D))) = Σ_rows w · [v ⊨ φ ∧ v(s̄) = v(t̄)]
//! ```
//!
//! Each indicator compiles to a boolean diagram over the shared null
//! encoding; scaling it by `w` and summing across rows with an *arithmetic
//! decision diagram* (same ordering, hash-consed, numeric terminals) gives
//! a canonical map from worlds to multiplicities — `□Q`/`◇Q` are the
//! minimum/maximum over its (all reachable) terminals. Difference and
//! intersection are rejected up front: bag monus and min are not row-wise,
//! so the weighted reading would be unsound there.

use crate::batch::{check_symbolic_fragment_for_bags, RowIndex};
use crate::encode::Encoding;
use crate::order::var_order;
use crate::store::{Forest, NodeId as BoolNode, FALSE as BOOL_FALSE};
use crate::{LineageError, Result};
use certa_algebra::physical::{self, AnnRel, Annotation, Source};
use certa_algebra::{Condition, RaExpr};
use certa_ctables::eval::instantiate_condition;
use certa_ctables::Cond;
use certa_data::{BagDatabase, Const, Tuple, Value};
use certa_logic::Truth3;
use std::collections::{BTreeSet, HashMap};

/// The weighted conditional annotation: a symbolic condition plus the bag
/// multiplicity the row carries. `times` multiplies weights and conjoins
/// conditions (products/joins); selection conjoins the instantiated
/// predicate. Duplicate rows are never merged — each keeps its own
/// condition and weight — and the non-row-wise operators (difference,
/// intersection) are unreachable because the fragment check rejects them
/// before planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedCondAnn {
    /// The row's presence condition.
    pub cond: Cond,
    /// The row's multiplicity contribution when the condition holds.
    pub weight: usize,
}

impl Annotation for WeightedCondAnn {
    const MERGE_DUPLICATES: bool = false;
    const SYMBOLIC_NULLS: bool = true;
    const SUPPORTS_EXTENDED: bool = false;

    fn one() -> Self {
        WeightedCondAnn {
            cond: Cond::truth(),
            weight: 1,
        }
    }

    fn is_zero(&self) -> bool {
        self.weight == 0 || self.cond == Cond::Truth(Truth3::False)
    }

    fn plus(&mut self, _other: Self) {
        // Only duplicate-merging domains ever receive `plus`, and this
        // domain keeps every row separate.
        unreachable!("WeightedCondAnn never merges duplicate rows");
    }

    fn times(&self, other: &Self) -> Self {
        WeightedCondAnn {
            cond: self.cond.clone().and(other.cond.clone()),
            weight: self.weight.saturating_mul(other.weight),
        }
    }

    fn monus(&self, _other: &Self) -> Self {
        // Bag monus subtracts *summed* multiplicities; it has no row-wise
        // reading, so the fragment check rejects `−` before execution.
        unreachable!("bag lineage rejects difference before planning");
    }

    fn select(&self, cond: &Condition, tuple: &Tuple) -> Self {
        WeightedCondAnn {
            cond: self.cond.clone().and(instantiate_condition(cond, tuple)),
            weight: self.weight,
        }
    }

    fn difference(_left: AnnRel<Self>, _right: &AnnRel<Self>) -> AnnRel<Self> {
        unreachable!("bag lineage rejects difference before planning");
    }

    fn intersect(_left: AnnRel<Self>, _right: &AnnRel<Self>) -> AnnRel<Self> {
        unreachable!("bag lineage rejects intersection before planning");
    }
}

/// Scan a bag database into weighted conditional rows.
struct WeightedCondSource<'a>(&'a BagDatabase);

impl Source<WeightedCondAnn> for WeightedCondSource<'_> {
    fn scan(
        &self,
        name: &str,
        filter: Option<&Condition>,
    ) -> certa_algebra::Result<AnnRel<WeightedCondAnn>> {
        let rel = self
            .0
            .relation(name)
            .map_err(|_| certa_algebra::AlgebraError::UnknownRelation(name.to_string()))?;
        let mut out = AnnRel::new(rel.arity());
        for (t, n) in rel.iter() {
            let mut ann = WeightedCondAnn {
                cond: Cond::truth(),
                weight: n,
            };
            if let Some(cond) = filter {
                ann = ann.select(cond, t);
            }
            out.push(t.clone(), ann);
        }
        Ok(out)
    }

    fn active_domain(&self) -> Vec<Value> {
        // Extended operators are rejected before execution.
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Arithmetic decision diagrams (numeric terminals, shared variable order)
// ---------------------------------------------------------------------------

/// Node id in an [`AddForest`].
type AddNode = u32;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum AddEntry {
    Terminal(usize),
    Internal {
        level: u32,
        children: Box<[AddNode]>,
    },
}

/// A hash-consed store of reduced, ordered arithmetic decision diagrams:
/// decision structure identical to [`Forest`], terminals carry
/// multiplicities. Used to sum weighted indicators and read off min/max
/// multiplicities across the valuation space.
#[derive(Debug)]
struct AddForest {
    domains: Vec<usize>,
    entries: Vec<AddEntry>,
    unique: HashMap<AddEntry, AddNode>,
    add_cache: HashMap<(AddNode, AddNode), AddNode>,
    /// Set when any terminal sum clamps at `usize::MAX`: the affected
    /// bounds are no longer exact and must surface as an overflow error,
    /// never as a confidently wrong number.
    saturated: bool,
}

impl AddForest {
    fn new(domains: Vec<usize>) -> AddForest {
        AddForest {
            domains,
            entries: Vec::new(),
            unique: HashMap::new(),
            add_cache: HashMap::new(),
            saturated: false,
        }
    }

    fn intern(&mut self, entry: AddEntry) -> AddNode {
        if let Some(&id) = self.unique.get(&entry) {
            return id;
        }
        let id = AddNode::try_from(self.entries.len()).expect("more than u32::MAX ADD nodes");
        self.entries.push(entry.clone());
        self.unique.insert(entry, id);
        id
    }

    fn terminal(&mut self, value: usize) -> AddNode {
        self.intern(AddEntry::Terminal(value))
    }

    fn mk(&mut self, level: u32, children: Vec<AddNode>) -> AddNode {
        let first = children[0];
        if children.iter().all(|&c| c == first) {
            return first;
        }
        self.intern(AddEntry::Internal {
            level,
            children: children.into_boxed_slice(),
        })
    }

    fn level(&self, n: AddNode) -> u32 {
        match &self.entries[n as usize] {
            AddEntry::Terminal(_) => self.domains.len() as u32,
            AddEntry::Internal { level, .. } => *level,
        }
    }

    fn cofactor(&self, n: AddNode, level: u32, value: usize) -> AddNode {
        match &self.entries[n as usize] {
            AddEntry::Internal { level: l, children } if *l == level => children[value],
            _ => n,
        }
    }

    /// Convert a boolean diagram into the ADD `if φ then weight else 0`.
    fn weighted_indicator(&mut self, forest: &Forest, node: BoolNode, weight: usize) -> AddNode {
        let mut memo: HashMap<BoolNode, AddNode> = HashMap::new();
        self.indicator_rec(forest, node, weight, &mut memo)
    }

    fn indicator_rec(
        &mut self,
        forest: &Forest,
        node: BoolNode,
        weight: usize,
        memo: &mut HashMap<BoolNode, AddNode>,
    ) -> AddNode {
        if let Some(&r) = memo.get(&node) {
            return r;
        }
        let r = if node == crate::store::FALSE {
            self.terminal(0)
        } else if node == crate::store::TRUE {
            self.terminal(weight)
        } else {
            let level = forest.level_of(node);
            let children = (0..self.domains[level as usize])
                .map(|i| {
                    let child = forest.child_of(node, i);
                    self.indicator_rec(forest, child, weight, memo)
                })
                .collect::<Vec<_>>();
            self.mk(level, children)
        };
        memo.insert(node, r);
        r
    }

    /// Pointwise sum of two ADDs. The zero terminal is the additive
    /// identity: returning the other operand directly avoids re-walking
    /// (and re-interning a copy of) whole diagrams.
    fn add(&mut self, a: AddNode, b: AddNode) -> AddNode {
        if matches!(self.entries[a as usize], AddEntry::Terminal(0)) {
            return b;
        }
        if matches!(self.entries[b as usize], AddEntry::Terminal(0)) {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.add_cache.get(&key) {
            return r;
        }
        let r = match (&self.entries[a as usize], &self.entries[b as usize]) {
            (AddEntry::Terminal(x), AddEntry::Terminal(y)) => {
                let sum = match x.checked_add(*y) {
                    Some(sum) => sum,
                    None => {
                        self.saturated = true;
                        usize::MAX
                    }
                };
                self.terminal(sum)
            }
            _ => {
                let top = self.level(a).min(self.level(b));
                let children = (0..self.domains[top as usize])
                    .map(|i| {
                        let (ca, cb) = (self.cofactor(a, top, i), self.cofactor(b, top, i));
                        self.add(ca, cb)
                    })
                    .collect::<Vec<_>>();
                self.mk(top, children)
            }
        };
        self.add_cache.insert(key, r);
        r
    }

    /// `(min, max)` over every reachable terminal. Every terminal of a
    /// reduced ordered diagram is reached by at least one valuation, so
    /// these are exactly `□`/`◇` over the valuation space.
    fn range(&self, root: AddNode) -> (usize, usize) {
        let mut seen: BTreeSet<AddNode> = BTreeSet::new();
        let mut stack = vec![root];
        let (mut lo, mut hi) = (usize::MAX, usize::MIN);
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            match &self.entries[n as usize] {
                AddEntry::Terminal(v) => {
                    lo = lo.min(*v);
                    hi = hi.max(*v);
                }
                AddEntry::Internal { children, .. } => stack.extend(children.iter().copied()),
            }
        }
        (lo, hi)
    }
}

/// Compiled bag lineage: weighted rows plus the shared diagram stores.
pub struct BagLineageBatch {
    forest: Forest,
    encoding: Encoding,
    rows: Vec<(Tuple, Cond, usize, BoolNode)>,
    index: RowIndex,
    arity: usize,
    db_nulls: BTreeSet<certa_data::NullId>,
    zero_worlds: bool,
}

impl BagLineageBatch {
    /// Evaluate the monus-free fragment over weighted conditional rows and
    /// compile every row condition over `pool`.
    ///
    /// # Errors
    ///
    /// [`LineageError::Unsupported`] outside the fragment (difference,
    /// intersection, extended operators, syntactic predicates, null
    /// literals); [`LineageError::Algebra`] for ill-formed queries.
    pub fn compile(query: &RaExpr, db: &BagDatabase, pool: &[Const]) -> Result<BagLineageBatch> {
        check_symbolic_fragment_for_bags(query)?;
        query.validate(db.schema()).map_err(LineageError::Algebra)?;
        let plan = physical::plan(query, db.schema()).map_err(LineageError::Algebra)?;
        let out = physical::execute(&plan, &WeightedCondSource(db), &mut physical::identity_hook)
            .map_err(LineageError::Algebra)?;

        let db_nulls = db.nulls();
        let zero_worlds = pool.is_empty() && !db_nulls.is_empty();
        let conds: Vec<&Cond> = out.rows().iter().map(|(_, a)| &a.cond).collect();
        // Same ordering signals as the set-semantics batch: cluster
        // same-relation nulls (diagram size is order-sensitive), with the
        // set view standing in for the null → relation scan.
        let stats = certa_algebra::Stats::from_bag_database(db);
        let set_view = db.to_sets();
        let order = var_order(&db_nulls, conds, Some((&stats, &set_view)));
        let encoding = Encoding::new(pool.to_vec(), order);
        let mut forest = Forest::new(encoding.domains());
        let arity = out.arity();
        let mut rows = Vec::with_capacity(out.len());
        for (tuple, ann) in out.into_rows() {
            if !encoding.covers(&ann.cond) || !tuple.nulls().is_subset(&db_nulls) {
                return Err(LineageError::Unsupported(
                    "query introduces nulls outside the database",
                ));
            }
            let node = if zero_worlds {
                BOOL_FALSE
            } else {
                encoding.compile(&mut forest, &ann.cond)?
            };
            rows.push((tuple, ann.cond, ann.weight, node));
        }
        let index = RowIndex::new(rows.iter().map(|(t, ..)| t));
        Ok(BagLineageBatch {
            forest,
            encoding,
            rows,
            index,
            arity,
            db_nulls,
            zero_worlds,
        })
    }

    /// The exact multiplicity range `[□Q(D, t̄), ◇Q(D, t̄)]` across the
    /// pool's valuation space, read off the summed arithmetic diagram.
    /// `(0, 0)` with an empty valuation space, like the world engines.
    ///
    /// # Errors
    ///
    /// [`LineageError::CountOverflow`] when a summed multiplicity would
    /// exceed `usize`, or when a row whose weight was clamped at
    /// `usize::MAX` matches the candidate in some world of the pool —
    /// overflow is a value, never a clamped bound. A clamped row that can
    /// never match the candidate adds nothing and raises nothing.
    pub fn multiplicity_range(&mut self, tuple: &Tuple) -> Result<(usize, usize)> {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "BagLineageBatch: candidate arity mismatch"
        );
        if self.zero_worlds {
            return Ok((0, 0));
        }
        // A candidate with a null outside the database matches no row.
        let visit = if tuple.nulls().is_subset(&self.db_nulls) {
            self.index.matching(tuple, |i| &self.rows[i].0)
        } else {
            Vec::new()
        };
        // One arithmetic forest per candidate: the saturation flag and the
        // clamped terminals it marks are local to a single sum, and must
        // not poison later candidates through a shared add-cache.
        let mut add = AddForest::new(self.encoding.domains());
        let mut total = add.terminal(0);
        for i in visit {
            if self.rows[i].3 == BOOL_FALSE {
                continue;
            }
            let matching = Cond::tuple_eq(&self.rows[i].0, tuple);
            let eq_node = self.encoding.compile(&mut self.forest, &matching)?;
            let row_node = self.rows[i].3;
            let indicator = self.forest.and(row_node, eq_node)?;
            if indicator == BOOL_FALSE {
                continue;
            }
            // `times` clamps weight products at usize::MAX; a clamped (or
            // genuinely maximal, indistinguishable) weight cannot yield an
            // exact bound for a candidate the row counts towards in some
            // world. A row that never matches the candidate adds nothing.
            if self.rows[i].2 == usize::MAX {
                return Err(LineageError::CountOverflow);
            }
            let weighted = add.weighted_indicator(&self.forest, indicator, self.rows[i].2);
            total = add.add(total, weighted);
        }
        if add.saturated {
            return Err(LineageError::CountOverflow);
        }
        Ok(add.range(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_data::{database_from_literal, tup};

    fn pool(k: i64) -> Vec<Const> {
        (0..k).map(Const::Int).collect()
    }

    fn bag_db() -> BagDatabase {
        let sets = database_from_literal([("R", vec!["a"], vec![]), ("S", vec!["a"], vec![])]);
        let mut b = BagDatabase::new(sets.schema().clone());
        b.insert_n("R", tup![1], 2).unwrap();
        b.insert_n("R", tup![Value::null(0)], 1).unwrap();
        b.insert_n("S", tup![1], 1).unwrap();
        b
    }

    #[test]
    fn base_relation_ranges() {
        let b = bag_db();
        let q = RaExpr::rel("R");
        let mut batch = BagLineageBatch::compile(&q, &b, &pool(4)).unwrap();
        // (1): multiplicity 2 always, 3 when ⊥0 = 1.
        assert_eq!(batch.multiplicity_range(&tup![1]).unwrap(), (2, 3));
        // The null candidate: v(⊥0) always counts itself, plus 2 when it
        // collapses onto 1.
        assert_eq!(
            batch.multiplicity_range(&tup![Value::null(0)]).unwrap(),
            (1, 3)
        );
        // A constant outside every world's reach.
        assert_eq!(batch.multiplicity_range(&tup![99]).unwrap(), (0, 0));
    }

    #[test]
    fn union_adds_multiplicities() {
        let b = bag_db();
        let q = RaExpr::rel("R").union(RaExpr::rel("S"));
        let mut batch = BagLineageBatch::compile(&q, &b, &pool(4)).unwrap();
        assert_eq!(batch.multiplicity_range(&tup![1]).unwrap(), (3, 4));
    }

    #[test]
    fn products_multiply_weights() {
        let b = bag_db();
        let q = RaExpr::rel("R").product(RaExpr::rel("S")).project(vec![0]);
        let mut batch = BagLineageBatch::compile(&q, &b, &pool(4)).unwrap();
        // π_a(R × S): every R row keeps its multiplicity × |S| = 1.
        assert_eq!(batch.multiplicity_range(&tup![1]).unwrap(), (2, 3));
    }

    #[test]
    fn monus_operators_are_rejected() {
        let b = bag_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        assert!(matches!(
            BagLineageBatch::compile(&q, &b, &pool(4)),
            Err(LineageError::Unsupported(_))
        ));
        let q = RaExpr::rel("R").intersect(RaExpr::rel("S"));
        assert!(matches!(
            BagLineageBatch::compile(&q, &b, &pool(4)),
            Err(LineageError::Unsupported(_))
        ));
    }

    #[test]
    fn weight_overflow_is_an_error_not_a_clamp() {
        // A 4-way product of huge multiplicities clamps the row weight at
        // usize::MAX; the bound must refuse, never report the clamp.
        let sets = database_from_literal([("R", vec!["a"], vec![])]);
        let mut b = BagDatabase::new(sets.schema().clone());
        b.insert_n("R", tup![1], usize::MAX / 2).unwrap();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("R"))
            .product(RaExpr::rel("R"))
            .product(RaExpr::rel("R"))
            .project(vec![0]);
        let mut batch = BagLineageBatch::compile(&q, &b, &pool(2)).unwrap();
        assert_eq!(
            batch.multiplicity_range(&tup![1]),
            Err(LineageError::CountOverflow)
        );
    }

    #[test]
    fn collapse_adds_multiplicities() {
        // Two copies of ⊥0 and one of 1: when ⊥0 = 1 the multiplicity of
        // (1) is 3.
        let sets = database_from_literal([("R", vec!["a"], vec![])]);
        let mut b = BagDatabase::new(sets.schema().clone());
        b.insert_n("R", tup![Value::null(0)], 2).unwrap();
        b.insert_n("R", tup![1], 1).unwrap();
        let q = RaExpr::rel("R");
        let mut batch = BagLineageBatch::compile(&q, &b, &pool(3)).unwrap();
        assert_eq!(batch.multiplicity_range(&tup![1]).unwrap(), (1, 3));
    }
}
