//! Conditions attached to c-tuples, their grounding and equality
//! propagation.

use certa_data::{Const, NullId, Valuation, Value};
use certa_logic::Truth3;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An atomic condition: (dis)equality between two database values (either of
/// which may be a null).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondAtom {
    /// The two values are equal.
    Eq(Value, Value),
    /// The two values are different.
    Neq(Value, Value),
}

impl CondAtom {
    /// Ground the atom in isolation, Kleene style: syntactic equality gives
    /// `t`, distinct constants give `f`/`t` as appropriate, anything
    /// involving an unconstrained null gives `u`.
    pub fn ground(&self) -> Truth3 {
        match self {
            CondAtom::Eq(a, b) => {
                if a == b {
                    Truth3::True
                } else if a.is_const() && b.is_const() {
                    Truth3::False
                } else {
                    Truth3::Unknown
                }
            }
            CondAtom::Neq(a, b) => CondAtom::Eq(a.clone(), b.clone()).ground().not(),
        }
    }

    /// Evaluate under a (total) valuation of the nulls involved.
    pub fn eval_under(&self, v: &Valuation) -> bool {
        match self {
            CondAtom::Eq(a, b) => v.apply_value(a) == v.apply_value(b),
            CondAtom::Neq(a, b) => v.apply_value(a) != v.apply_value(b),
        }
    }

    fn nulls(&self, out: &mut BTreeSet<NullId>) {
        let (a, b) = match self {
            CondAtom::Eq(a, b) | CondAtom::Neq(a, b) => (a, b),
        };
        for v in [a, b] {
            if let Some(n) = v.as_null() {
                out.insert(n);
            }
        }
    }

    fn consts(&self, out: &mut BTreeSet<Const>) {
        let (a, b) = match self {
            CondAtom::Eq(a, b) | CondAtom::Neq(a, b) => (a, b),
        };
        for v in [a, b] {
            if let Some(c) = v.as_const() {
                out.insert(c.clone());
            }
        }
    }
}

impl fmt::Display for CondAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondAtom::Eq(a, b) => write!(f, "{a} = {b}"),
            CondAtom::Neq(a, b) => write!(f, "{a} ≠ {b}"),
        }
    }
}

/// A condition: a Boolean combination of atoms and ground truth values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// A grounded truth value.
    Truth(Truth3),
    /// An atomic (dis)equality.
    Atom(CondAtom),
    /// Negation.
    Not(Box<Cond>),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// The always-true condition.
    pub fn truth() -> Cond {
        Cond::Truth(Truth3::True)
    }

    /// Equality `a = b`. An atom only when it mentions a null and the two
    /// sides differ: two constants, or two syntactically equal values,
    /// fold to their ground truth value here, so ground comparisons never
    /// reach a c-table condition.
    pub fn eq(a: Value, b: Value) -> Cond {
        Cond::atom(CondAtom::Eq(a, b))
    }

    /// Disequality `a ≠ b`, folded like [`Cond::eq`].
    pub fn neq(a: Value, b: Value) -> Cond {
        Cond::atom(CondAtom::Neq(a, b))
    }

    fn atom(atom: CondAtom) -> Cond {
        match atom.ground() {
            Truth3::Unknown => Cond::Atom(atom),
            decided => Cond::Truth(decided),
        }
    }

    /// Conjunction with simplification of ground units.
    pub fn and(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::Truth(Truth3::True), c) | (c, Cond::Truth(Truth3::True)) => c,
            (Cond::Truth(Truth3::False), _) | (_, Cond::Truth(Truth3::False)) => {
                Cond::Truth(Truth3::False)
            }
            (a, b) => Cond::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction with simplification of ground units.
    pub fn or(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::Truth(Truth3::False), c) | (c, Cond::Truth(Truth3::False)) => c,
            (Cond::Truth(Truth3::True), _) | (_, Cond::Truth(Truth3::True)) => {
                Cond::Truth(Truth3::True)
            }
            (a, b) => Cond::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        match self {
            Cond::Truth(v) => Cond::Truth(v.not()),
            other => Cond::Not(Box::new(other)),
        }
    }

    /// The conjunction of positionwise equalities between two tuples
    /// (the matching condition used by difference and intersection). Two
    /// different ground tuples give `False` at once.
    pub fn tuple_eq(a: &certa_data::Tuple, b: &certa_data::Tuple) -> Cond {
        let mut out = Cond::truth();
        for (x, y) in a.iter().zip(b.iter()) {
            out = out.and(Cond::eq(x.clone(), y.clone()));
            if out == Cond::Truth(Truth3::False) {
                break;
            }
        }
        out
    }

    /// *Eager* grounding: each atom is grounded in isolation and the results
    /// are combined with Kleene's connectives (this never looks at the
    /// interaction between atoms, hence the approximation).
    pub fn ground_eager(&self) -> Truth3 {
        match self {
            Cond::Truth(v) => *v,
            Cond::Atom(a) => a.ground(),
            Cond::Not(c) => c.ground_eager().not(),
            Cond::And(a, b) => a.ground_eager().and(b.ground_eager()),
            Cond::Or(a, b) => a.ground_eager().or(b.ground_eager()),
        }
    }

    /// *Exact* grounding: decide whether the condition is valid (`t`),
    /// unsatisfiable (`f`) or neither (`u`) over all valuations of its
    /// nulls. This is the grounding performed "on a minimal rewriting of the
    /// conditions" by the aware strategy.
    ///
    /// Validity of equality logic over an infinite domain is decided by
    /// enumerating valuations into the constants mentioned by the condition
    /// plus one fresh constant per null (a standard small-model argument:
    /// disequalities can always be satisfied by fresh values, so this finite
    /// pool is sufficient).
    pub fn ground_exact(&self) -> Truth3 {
        let mut nulls = BTreeSet::new();
        self.nulls(&mut nulls);
        if nulls.is_empty() {
            return self.ground_eager();
        }
        let mut pool: BTreeSet<Const> = BTreeSet::new();
        self.consts(&mut pool);
        // One fresh constant per null lets every null take a value distinct
        // from everything else.
        for i in 0..nulls.len() {
            pool.insert(Const::str(format!("§exact{i}")));
        }
        let pool: Vec<Const> = pool.into_iter().collect();
        // `all_valuations` saturates its count instead of panicking on
        // overflow and expects callers to bound-check first: refuse
        // pathological conditions up front rather than entering an
        // effectively endless enumeration of wrapped indices.
        let worlds = certa_data::valuation::count_valuations(nulls.len(), pool.len());
        assert!(
            worlds < usize::MAX,
            "Cond::ground_exact: valuation count overflows ({} nulls over {} constants)",
            nulls.len(),
            pool.len()
        );
        let mut any_true = false;
        let mut any_false = false;
        for v in certa_data::valuation::all_valuations(&nulls, &pool) {
            if self.eval_under(&v) {
                any_true = true;
            } else {
                any_false = true;
            }
            if any_true && any_false {
                return Truth3::Unknown;
            }
        }
        match (any_true, any_false) {
            (true, false) => Truth3::True,
            (false, true) => Truth3::False,
            // No valuations only happens with an empty pool, which cannot
            // occur because we add fresh constants; treat defensively as u.
            _ => Truth3::Unknown,
        }
    }

    /// Two-valued evaluation of the condition under a valuation of its
    /// nulls (used by tests and by exact grounding).
    pub fn eval_under(&self, v: &Valuation) -> bool {
        match self {
            Cond::Truth(t) => t.is_true(),
            Cond::Atom(a) => a.eval_under(v),
            Cond::Not(c) => !c.eval_under(v),
            Cond::And(a, b) => a.eval_under(v) && b.eval_under(v),
            Cond::Or(a, b) => a.eval_under(v) || b.eval_under(v),
        }
    }

    /// Nulls mentioned by the condition.
    pub fn nulls(&self, out: &mut BTreeSet<NullId>) {
        match self {
            Cond::Truth(_) => {}
            Cond::Atom(a) => a.nulls(out),
            Cond::Not(c) => c.nulls(out),
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.nulls(out);
                b.nulls(out);
            }
        }
    }

    /// Constants mentioned by the condition.
    pub fn consts(&self, out: &mut BTreeSet<Const>) {
        match self {
            Cond::Truth(_) => {}
            Cond::Atom(a) => a.consts(out),
            Cond::Not(c) => c.consts(out),
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.consts(out);
                b.consts(out);
            }
        }
    }

    /// Equalities that are *forced* by the condition: atoms `⊥ = v` that
    /// appear as top-level conjuncts (through chains of `∧` only). These are
    /// the equalities the semi-eager and lazy strategies propagate into the
    /// tuple: e.g. `⟨⊥₂, ⊥₁ = c ∧ ⊥₁ = ⊥₂⟩` becomes `⟨c, u⟩` rather than the
    /// less informative `⟨⊥₂, u⟩`.
    pub fn forced_equalities(&self) -> Valuation {
        let mut pairs: Vec<(Value, Value)> = Vec::new();
        self.collect_conjunct_equalities(&mut pairs);
        // Union-find over nulls with constant labels, as in unification.
        let mut parent: BTreeMap<NullId, NullId> = BTreeMap::new();
        let mut label: BTreeMap<NullId, Const> = BTreeMap::new();
        fn find(parent: &mut BTreeMap<NullId, NullId>, n: NullId) -> NullId {
            let p = *parent.entry(n).or_insert(n);
            if p == n {
                n
            } else {
                let r = find(parent, p);
                parent.insert(n, r);
                r
            }
        }
        for (a, b) in &pairs {
            match (a, b) {
                (Value::Null(n), Value::Const(c)) | (Value::Const(c), Value::Null(n)) => {
                    let r = find(&mut parent, *n);
                    label.entry(r).or_insert_with(|| c.clone());
                }
                (Value::Null(n), Value::Null(m)) => {
                    let (rn, rm) = (find(&mut parent, *n), find(&mut parent, *m));
                    if rn != rm {
                        let lab = label.get(&rn).or_else(|| label.get(&rm)).cloned();
                        parent.insert(rn, rm);
                        if let Some(l) = lab {
                            label.insert(rm, l);
                        }
                    }
                }
                _ => {}
            }
        }
        let mut out = Valuation::new();
        let nulls: Vec<NullId> = parent.keys().copied().collect();
        for n in nulls {
            let r = find(&mut parent, n);
            if let Some(c) = label.get(&r) {
                out.assign(n, c.clone());
            }
        }
        out
    }

    fn collect_conjunct_equalities(&self, out: &mut Vec<(Value, Value)>) {
        match self {
            Cond::Atom(CondAtom::Eq(a, b)) => out.push((a.clone(), b.clone())),
            Cond::And(a, b) => {
                a.collect_conjunct_equalities(out);
                b.collect_conjunct_equalities(out);
            }
            _ => {}
        }
    }

    /// Negation normal form: negations are pushed down to the atoms, where
    /// they flip `=` into `≠` (and vice versa), via De Morgan's laws. The
    /// laws are identities under both Kleene's three-valued grounding and
    /// two-valued evaluation under any valuation, so every grounding
    /// strategy is free to normalise with this. The lineage compiler runs
    /// it before [`Cond::simplify`] so absorption sees through negations.
    pub fn nnf(&self) -> Cond {
        self.nnf_under(false)
    }

    fn nnf_under(&self, negated: bool) -> Cond {
        match self {
            Cond::Truth(v) => Cond::Truth(if negated { v.not() } else { *v }),
            Cond::Atom(CondAtom::Eq(a, b)) if negated => Cond::neq(a.clone(), b.clone()),
            Cond::Atom(CondAtom::Neq(a, b)) if negated => Cond::eq(a.clone(), b.clone()),
            Cond::Atom(a) => Cond::Atom(a.clone()),
            Cond::Not(c) => c.nnf_under(!negated),
            Cond::And(a, b) if negated => {
                Cond::Or(Box::new(a.nnf_under(true)), Box::new(b.nnf_under(true)))
            }
            Cond::Or(a, b) if negated => {
                Cond::And(Box::new(a.nnf_under(true)), Box::new(b.nnf_under(true)))
            }
            Cond::And(a, b) => {
                Cond::And(Box::new(a.nnf_under(false)), Box::new(b.nnf_under(false)))
            }
            Cond::Or(a, b) => Cond::Or(Box::new(a.nnf_under(false)), Box::new(b.nnf_under(false))),
        }
    }

    /// Canonicalizing bottom-up simplification: constant folding (ground
    /// units and syntactically decidable atoms), double negation,
    /// idempotence (`φ ∧ φ = φ`, `φ ∨ φ = φ`) and absorption
    /// (`φ ∧ (φ ∨ ψ) = φ`, `φ ∨ (φ ∧ ψ) = φ`).
    ///
    /// Every rewrite is a lattice identity, so it preserves *both* the
    /// Kleene three-valued eager grounding and the exact two-valued
    /// semantics under every valuation — [`Strategy::final_ground`] and the
    /// lineage compiler of `certa-lineage` both normalise with this before
    /// grounding/compiling. The result never has more atoms than the input
    /// ([`Cond::size`] is non-increasing).
    ///
    /// [`Strategy::final_ground`]: crate::Strategy
    pub fn simplify(&self) -> Cond {
        match self {
            Cond::Truth(v) => Cond::Truth(*v),
            Cond::Atom(a) => match a.ground() {
                // Syntactically decided atoms (const-const comparisons and
                // reflexive equalities) fold to their ground truth value.
                Truth3::Unknown => Cond::Atom(a.clone()),
                decided => Cond::Truth(decided),
            },
            Cond::Not(c) => match c.simplify() {
                Cond::Truth(v) => Cond::Truth(v.not()),
                Cond::Not(inner) => *inner,
                other => Cond::Not(Box::new(other)),
            },
            Cond::And(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (a, b) {
                    (Cond::Truth(Truth3::True), c) | (c, Cond::Truth(Truth3::True)) => c,
                    (Cond::Truth(Truth3::False), _) | (_, Cond::Truth(Truth3::False)) => {
                        Cond::Truth(Truth3::False)
                    }
                    (a, b) if a == b => a,
                    // Absorption: φ ∧ (φ ∨ ψ) = φ (all four orientations).
                    (a, Cond::Or(x, y)) if *x == a || *y == a => a,
                    (Cond::Or(x, y), b) if *x == b || *y == b => b,
                    (a, b) => Cond::And(Box::new(a), Box::new(b)),
                }
            }
            Cond::Or(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (a, b) {
                    (Cond::Truth(Truth3::False), c) | (c, Cond::Truth(Truth3::False)) => c,
                    (Cond::Truth(Truth3::True), _) | (_, Cond::Truth(Truth3::True)) => {
                        Cond::Truth(Truth3::True)
                    }
                    (a, b) if a == b => a,
                    // Absorption: φ ∨ (φ ∧ ψ) = φ.
                    (a, Cond::And(x, y)) if *x == a || *y == a => a,
                    (Cond::And(x, y), b) if *x == b || *y == b => b,
                    (a, b) => Cond::Or(Box::new(a), Box::new(b)),
                }
            }
        }
    }

    /// Substitute nulls by constants according to a valuation (used after
    /// equality propagation).
    pub fn substitute(&self, v: &Valuation) -> Cond {
        match self {
            Cond::Truth(t) => Cond::Truth(*t),
            Cond::Atom(CondAtom::Eq(a, b)) => Cond::eq(v.apply_value(a), v.apply_value(b)),
            Cond::Atom(CondAtom::Neq(a, b)) => Cond::neq(v.apply_value(a), v.apply_value(b)),
            Cond::Not(c) => Cond::Not(Box::new(c.substitute(v))),
            Cond::And(a, b) => Cond::And(Box::new(a.substitute(v)), Box::new(b.substitute(v))),
            Cond::Or(a, b) => Cond::Or(Box::new(a.substitute(v)), Box::new(b.substitute(v))),
        }
    }

    /// Number of atoms (a size measure used by benches).
    pub fn size(&self) -> usize {
        match self {
            Cond::Truth(_) | Cond::Atom(_) => 1,
            Cond::Not(c) => 1 + c.size(),
            Cond::And(a, b) | Cond::Or(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Truth(v) => write!(f, "{v}"),
            Cond::Atom(a) => write!(f, "{a}"),
            Cond::Not(c) => write!(f, "¬({c})"),
            Cond::And(a, b) => write!(f, "({a} ∧ {b})"),
            Cond::Or(a, b) => write!(f, "({a} ∨ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn null(i: NullId) -> Value {
        Value::null(i)
    }

    fn int(i: i64) -> Value {
        Value::int(i)
    }

    #[test]
    #[should_panic(expected = "valuation count overflows")]
    fn ground_exact_rejects_overflowing_valuation_counts() {
        // ~70 distinct nulls make pool^nulls overflow usize; the exact
        // grounder must fail fast instead of enumerating wrapped indices.
        let mut cond = Cond::truth();
        for i in 0..70u32 {
            cond = cond.and(Cond::eq(null(i), int(1)));
        }
        let _ = cond.ground_exact();
    }

    #[test]
    fn atom_grounding() {
        assert_eq!(CondAtom::Eq(int(1), int(1)).ground(), Truth3::True);
        assert_eq!(CondAtom::Eq(int(1), int(2)).ground(), Truth3::False);
        assert_eq!(CondAtom::Eq(null(0), int(2)).ground(), Truth3::Unknown);
        assert_eq!(CondAtom::Eq(null(0), null(0)).ground(), Truth3::True);
        assert_eq!(CondAtom::Neq(null(0), int(2)).ground(), Truth3::Unknown);
        assert_eq!(CondAtom::Neq(int(1), int(2)).ground(), Truth3::True);
    }

    #[test]
    fn constructors_fold_ground_comparisons() {
        // Two constants decide the comparison.
        assert_eq!(Cond::eq(int(1), int(1)), Cond::truth());
        assert_eq!(Cond::eq(int(1), int(2)), Cond::Truth(Truth3::False));
        assert_eq!(Cond::neq(int(1), int(2)), Cond::truth());
        assert_eq!(Cond::neq(int(1), int(1)), Cond::Truth(Truth3::False));
        // So does the same null on both sides.
        assert_eq!(Cond::eq(null(0), null(0)), Cond::truth());
        assert_eq!(Cond::neq(null(0), null(0)), Cond::Truth(Truth3::False));
        // A null against a constant or another null stays an atom.
        assert_eq!(
            Cond::eq(null(0), int(1)),
            Cond::Atom(CondAtom::Eq(null(0), int(1)))
        );
        assert_eq!(
            Cond::neq(int(1), null(0)),
            Cond::Atom(CondAtom::Neq(int(1), null(0)))
        );
        assert_eq!(
            Cond::eq(null(0), null(1)),
            Cond::Atom(CondAtom::Eq(null(0), null(1)))
        );
        // Tuple matching: different ground tuples are false at once.
        use certa_data::tup;
        assert_eq!(
            Cond::tuple_eq(&tup![1, 2], &tup![1, 3]),
            Cond::Truth(Truth3::False)
        );
        assert_eq!(Cond::tuple_eq(&tup![1, 2], &tup![1, 2]), Cond::truth());
    }

    #[test]
    fn folded_conditions_evaluate_like_raw_atoms() {
        // Every atom over {1, 2, ⊥0, ⊥1}, and every ∧/∨ of two atoms under
        // an optional ¬, built once through the folding constructors and
        // once from raw `Cond::Atom`s with boxed connectives: both must
        // evaluate alike under every valuation of ⊥0, ⊥1 over {1, 2, 3}.
        let values = [int(1), int(2), null(0), null(1)];
        let mut atoms: Vec<(Cond, Cond)> = Vec::new();
        for a in &values {
            for b in &values {
                atoms.push((
                    Cond::eq(a.clone(), b.clone()),
                    Cond::Atom(CondAtom::Eq(a.clone(), b.clone())),
                ));
                atoms.push((
                    Cond::neq(a.clone(), b.clone()),
                    Cond::Atom(CondAtom::Neq(a.clone(), b.clone())),
                ));
            }
        }
        let mut pairs: Vec<(Cond, Cond)> = atoms.clone();
        for (fa, ra) in &atoms {
            for (fb, rb) in &atoms {
                let raw_and = Cond::And(Box::new(ra.clone()), Box::new(rb.clone()));
                let raw_or = Cond::Or(Box::new(ra.clone()), Box::new(rb.clone()));
                pairs.push((fa.clone().and(fb.clone()), raw_and.clone()));
                pairs.push((fa.clone().or(fb.clone()), raw_or.clone()));
                pairs.push((
                    fa.clone().and(fb.clone()).not(),
                    Cond::Not(Box::new(raw_and)),
                ));
                pairs.push((fa.clone().or(fb.clone()).not(), Cond::Not(Box::new(raw_or))));
            }
        }
        let pool = [Const::Int(1), Const::Int(2), Const::Int(3)];
        let nulls: BTreeSet<NullId> = [0, 1].into_iter().collect();
        let valuations: Vec<Valuation> =
            certa_data::valuation::all_valuations(&nulls, &pool).collect();
        for (folded, raw) in &pairs {
            assert!(folded.size() <= raw.size(), "{folded} vs {raw}");
            for v in &valuations {
                assert_eq!(folded.eval_under(v), raw.eval_under(v), "{raw} under {v}");
            }
        }
    }

    #[test]
    fn connective_simplification() {
        let c = Cond::truth().and(Cond::eq(null(0), int(1)));
        assert_eq!(c, Cond::eq(null(0), int(1)));
        let c = Cond::Truth(Truth3::False).and(Cond::eq(null(0), int(1)));
        assert_eq!(c, Cond::Truth(Truth3::False));
        let c = Cond::Truth(Truth3::False).or(Cond::eq(null(0), int(1)));
        assert_eq!(c, Cond::eq(null(0), int(1)));
        assert_eq!(Cond::truth().not(), Cond::Truth(Truth3::False));
    }

    #[test]
    fn eager_vs_exact_grounding() {
        // ⊥0 = 1 ∨ ⊥0 ≠ 1 is a tautology: eager grounding says u, exact says t.
        let c = Cond::eq(null(0), int(1)).or(Cond::neq(null(0), int(1)));
        assert_eq!(c.ground_eager(), Truth3::Unknown);
        assert_eq!(c.ground_exact(), Truth3::True);
        // ⊥0 = 1 ∧ ⊥0 = 2 is unsatisfiable: eager u, exact f.
        let c = Cond::eq(null(0), int(1)).and(Cond::eq(null(0), int(2)));
        assert_eq!(c.ground_eager(), Truth3::Unknown);
        assert_eq!(c.ground_exact(), Truth3::False);
        // A genuinely contingent condition stays u under both.
        let c = Cond::eq(null(0), int(1));
        assert_eq!(c.ground_eager(), Truth3::Unknown);
        assert_eq!(c.ground_exact(), Truth3::Unknown);
    }

    #[test]
    fn exact_grounding_handles_disequalities_between_nulls() {
        // ⊥0 ≠ ⊥1 is satisfiable and falsifiable → u.
        let c = Cond::neq(null(0), null(1));
        assert_eq!(c.ground_exact(), Truth3::Unknown);
        // ⊥0 = ⊥1 ∨ ⊥0 ≠ ⊥1 → t.
        let c = Cond::eq(null(0), null(1)).or(Cond::neq(null(0), null(1)));
        assert_eq!(c.ground_exact(), Truth3::True);
    }

    #[test]
    fn eval_under_valuation() {
        let c = Cond::eq(null(0), int(1)).and(Cond::neq(null(1), int(1)));
        let v = Valuation::from_pairs([(0, Const::Int(1)), (1, Const::Int(2))]);
        assert!(c.eval_under(&v));
        let v = Valuation::from_pairs([(0, Const::Int(1)), (1, Const::Int(1))]);
        assert!(!c.eval_under(&v));
    }

    #[test]
    fn forced_equalities_paper_example() {
        // ⟨⊥2, ⊥1 = c ∧ ⊥1 = ⊥2⟩ should force ⊥2 ↦ c (the semi-eager
        // improvement of §4.2).
        let c = Cond::eq(null(1), Value::str("c")).and(Cond::eq(null(1), null(2)));
        let forced = c.forced_equalities();
        assert_eq!(forced.get(2), Some(&Const::str("c")));
        assert_eq!(forced.get(1), Some(&Const::str("c")));
    }

    #[test]
    fn forced_equalities_ignore_disjunctions() {
        // An equality under a disjunction is not forced.
        let c = Cond::eq(null(0), int(1)).or(Cond::eq(null(0), int(2)));
        assert!(c.forced_equalities().is_empty());
        // Negated equalities are not forced either.
        let c = Cond::eq(null(0), int(1)).not();
        assert!(c.forced_equalities().is_empty());
    }

    #[test]
    fn substitution_applies_valuation() {
        let c = Cond::eq(null(0), int(1)).and(Cond::neq(null(1), null(0)));
        let v = Valuation::from_pairs([(0, Const::Int(1))]);
        let s = c.substitute(&v);
        assert_eq!(s.ground_eager(), Truth3::Unknown);
        // After substitution, the first conjunct is ground-true.
        match s {
            Cond::And(a, _) => assert_eq!(a.ground_eager(), Truth3::True),
            other => panic!("expected conjunction, got {other}"),
        }
    }

    #[test]
    fn tuple_eq_condition() {
        use certa_data::tup;
        let a = tup![1, null(0)];
        let b = tup![1, 2];
        let c = Cond::tuple_eq(&a, &b);
        assert_eq!(c.ground_eager(), Truth3::Unknown);
        assert_eq!(c.ground_exact(), Truth3::Unknown);
        let c = Cond::tuple_eq(&tup![1, 2], &tup![1, 2]);
        assert_eq!(c.ground_eager(), Truth3::True);
        let c = Cond::tuple_eq(&tup![1, 2], &tup![1, 3]);
        assert_eq!(c.ground_eager(), Truth3::False);
    }

    #[test]
    fn simplify_shrinks_nested_conditions() {
        let a = Cond::eq(null(0), int(1));
        let b = Cond::neq(null(1), int(2));
        // Idempotence: (a ∧ a) → a.
        let c = Cond::And(Box::new(a.clone()), Box::new(a.clone()));
        assert!(c.simplify().size() < c.size());
        assert_eq!(c.simplify(), a);
        // Absorption: a ∧ (a ∨ b) → a, and the disjunctive dual.
        let c = Cond::And(
            Box::new(a.clone()),
            Box::new(Cond::Or(Box::new(a.clone()), Box::new(b.clone()))),
        );
        assert_eq!(c.simplify(), a);
        assert!(c.simplify().size() < c.size());
        let c = Cond::Or(
            Box::new(Cond::And(Box::new(b.clone()), Box::new(a.clone()))),
            Box::new(a.clone()),
        );
        assert_eq!(c.simplify(), a);
        // Constant folding inside a nested condition: (1 = 1 ∧ a) ∨ (1 = 2) → a.
        let c = Cond::Or(
            Box::new(Cond::And(
                Box::new(Cond::eq(int(1), int(1))),
                Box::new(a.clone()),
            )),
            Box::new(Cond::eq(int(1), int(2))),
        );
        assert_eq!(c.simplify(), a);
        assert!(c.simplify().size() < c.size());
        // Double negation: ¬¬a → a.
        let c = Cond::Not(Box::new(Cond::Not(Box::new(a.clone()))));
        assert_eq!(c.simplify(), a);
    }

    #[test]
    fn simplify_preserves_groundings() {
        // A deeply nested condition with redundancy: simplification must not
        // change eager or exact grounding, only the size.
        let a = Cond::eq(null(0), int(1));
        let b = Cond::neq(null(1), null(0));
        let nested = Cond::And(
            Box::new(Cond::Or(Box::new(a.clone()), Box::new(a.clone()))),
            Box::new(Cond::Or(
                Box::new(b.clone()),
                Box::new(Cond::And(Box::new(b.clone()), Box::new(a.clone()))),
            )),
        );
        let simplified = nested.simplify();
        assert!(simplified.size() < nested.size());
        assert_eq!(simplified.ground_eager(), nested.ground_eager());
        assert_eq!(simplified.ground_exact(), nested.ground_exact());
        // And it is semantics-preserving under every valuation of a pool.
        let pool = [Const::Int(1), Const::Int(2)];
        let nulls: BTreeSet<NullId> = [0, 1].into_iter().collect();
        for v in certa_data::valuation::all_valuations(&nulls, &pool) {
            assert_eq!(simplified.eval_under(&v), nested.eval_under(&v), "{v}");
        }
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let c = Cond::eq(null(0), int(1))
            .and(Cond::neq(null(1), int(2)))
            .not();
        let n = c.nnf();
        // ¬(a = ∧ b ≠) → (a ≠ ∨ b =): no Not node survives.
        fn has_not(c: &Cond) -> bool {
            match c {
                Cond::Not(_) => true,
                Cond::And(a, b) | Cond::Or(a, b) => has_not(a) || has_not(b),
                _ => false,
            }
        }
        assert!(!has_not(&n));
        assert_eq!(n.ground_eager(), c.ground_eager());
        let pool = [Const::Int(1), Const::Int(2), Const::Int(3)];
        let nulls: BTreeSet<NullId> = [0, 1].into_iter().collect();
        for v in certa_data::valuation::all_valuations(&nulls, &pool) {
            assert_eq!(n.eval_under(&v), c.eval_under(&v), "{v}");
        }
    }

    #[test]
    fn display_and_size() {
        let c = Cond::eq(null(0), int(1)).and(Cond::neq(null(1), int(2)).not());
        assert!(c.to_string().contains('∧'));
        assert_eq!(c.size(), 4);
    }
}
