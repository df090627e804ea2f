//! The active-domain summary of a `Database` is built once and then kept
//! exact by the typed mutators: on a warm instance, interleaved typed
//! writes and Exact reads (served, refined and recomputed alike) must not
//! rebuild it, while a `relation_mut` borrow costs exactly one rebuild, at
//! the next read. Rebuilds are read off the `data.domain_rebuilds` registry
//! counter, which is process-global — so this file holds a single test and
//! runs in a test binary of its own.

use certa::obs::{self, MetricId};
use certa::prelude::*;

const PAID: &str = "SELECT P.oid FROM Orders O, Payments P WHERE O.oid = P.oid";
const UNPAID: &str = "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)";

fn rebuilds() -> u64 {
    obs::metrics().get(MetricId::DomainRebuilds)
}

#[test]
fn typed_writes_never_rebuild_the_summary_and_a_borrow_rebuilds_once() {
    let mut db = shop_database(true);
    // Two nulls keep every recompute on the refinable mask backend.
    db.insert("Payments", tup!["c1", Value::null(1)]).unwrap();
    let mut p = Pipeline::new();
    // Warm: the first reads build the summary.
    p.execute(PAID, &db, Scheme::Exact).unwrap();
    p.execute(UNPAID, &db, Scheme::Exact).unwrap();
    let warm = p.maintenance_totals();
    let before = rebuilds();

    p.execute(PAID, &db, Scheme::Exact).unwrap(); // serve
    assert_eq!(db.resolve_null(0, Const::from("o2")), 1);
    p.execute(PAID, &db, Scheme::Exact).unwrap(); // refine: restriction
    db.insert("Payments", tup!["c1", "o3"]).unwrap();
    p.execute(PAID, &db, Scheme::Exact).unwrap(); // refine: delta merge
    p.execute(UNPAID, &db, Scheme::Exact).unwrap();
    assert!(db.delete("Payments", &tup!["c1", "o1"]).unwrap());
    p.execute(PAID, &db, Scheme::Exact).unwrap(); // recompute
    p.execute(UNPAID, &db, Scheme::Exact).unwrap();
    let totals = p.maintenance_totals();
    assert!(totals.served > warm.served, "{totals:?}");
    assert!(totals.refined >= warm.refined + 2, "{totals:?}");
    assert!(totals.recomputed >= warm.recomputed + 2, "{totals:?}");
    assert_eq!(
        rebuilds(),
        before,
        "typed writes and reads rebuilt the summary"
    );

    // A mutable borrow drops the summary; only the next read rebuilds it.
    db.relation_mut("Payments")
        .unwrap()
        .insert(tup!["c2", "o1"]);
    assert_eq!(rebuilds(), before);
    let answers = p.execute(PAID, &db, Scheme::Exact).unwrap();
    assert_eq!(rebuilds(), before + 1);
    assert!(answers.certain().contains(&tup!["o1"]));
    p.execute(PAID, &db, Scheme::Exact).unwrap();
    p.execute(UNPAID, &db, Scheme::Exact).unwrap();
    assert_eq!(rebuilds(), before + 1);
}
