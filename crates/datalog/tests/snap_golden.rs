//! A committed Datalog store snapshot (`tests/golden/datalog_store.snap`)
//! pins the on-disk layout: it must load, re-serialise to exactly its own
//! bytes, and equal what a fresh fixpoint of [`store`]'s program writes.
//! A deliberate layout change bumps `tag::DL_RELS` (so older files fail
//! with a typed `SectionOrder`) and regenerates the file:
//!
//! ```text
//! DATALOG_SNAP_BLESS=1 cargo test -p lambda-join-datalog --test snap_golden
//! ```

use std::path::PathBuf;

use lambda_join_datalog::eval::{eval_ids, Strategy};
use lambda_join_datalog::{parse_program, Atom, Const, IdDatabase};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/datalog_store.snap")
}

/// Integer and string constants, relations of arity 0 to 3, and one
/// relation no rule instance ever fills.
fn store() -> IdDatabase {
    let mut p = parse_program(
        "edge(1, 2). edge(2, 3). edge(3, -4). name(1, \"one\"). name(2, two). \
         name(3, \"λ\"). \
         path(X, Y) :- edge(X, Y). \
         path(X, Z) :- path(X, Y), edge(Y, Z). \
         named_path(X, N, Z) :- path(X, Z), name(X, N). \
         loop(X) :- edge(X, X).",
    )
    .expect("parses");
    p.fact(Atom::new("ok", vec![]));
    p.rule(Atom::new("done", vec![]), vec![Atom::new("ok", vec![])]);
    eval_ids(&p, Strategy::Seminaive).0
}

#[test]
fn golden_store_loads_and_reserialises_byte_equal() {
    let fresh = store().to_snapshot_bytes(false);
    if std::env::var_os("DATALOG_SNAP_BLESS").is_some() {
        std::fs::write(golden_path(), &fresh).expect("write the golden");
    }
    let golden = std::fs::read(golden_path()).expect("the golden snapshot");
    let loaded = IdDatabase::from_snapshot_bytes(&golden).expect("the golden loads");
    assert_eq!(loaded.to_snapshot_bytes(false), golden);
    assert_eq!(
        fresh, golden,
        "the snapshot layout changed: bump tag::DL_RELS and regenerate the golden"
    );

    assert_eq!(loaded.fact_count("path"), 6);
    assert_eq!(loaded.fact_count("loop"), 0);
    assert!(loaded.contains("done", &[]));
    assert!(loaded.contains("ok", &[]));
    assert!(loaded.contains(
        "named_path",
        &[Const::Int(3), Const::Str("λ".into()), Const::Int(-4)]
    ));
    assert_eq!(
        loaded.rows("named_path")[0],
        vec![Const::Int(1), Const::Str("one".into()), Const::Int(-4)]
    );
    assert!(!loaded.contains("name", &[Const::Int(2), Const::Str("one".into())]));
    assert_eq!(loaded.rows("done"), vec![Vec::<Const>::new()]);
}
