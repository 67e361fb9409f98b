//! Every key of the committed `BENCH_perf.json` is documented in
//! `docs/BENCHMARKS.md`, and every key the docs describe is committed.
//!
//! A key counts as documented when it appears in backticks in the first
//! cell of a row of one of the docs' entry tables (the tables whose header
//! row starts with `| key |`). The JSON is scanned line by line: `figures --
//! perf` writes one `"key": value` pair per line.

use std::collections::BTreeSet;
use std::path::Path;

/// The keys that replaced the retired stand-in benches; each backs a
/// paper claim no other key measures.
const CLAIM_KEYS: [&str; 8] = [
    "datalog_tc_chains_1k_naive",
    "datalog_tc_chains_1k_seminaive",
    "seminaive_push_line64_recompute",
    "seminaive_push_line64_continue",
    "fig10_sweep_evens24_naive",
    "fig10_sweep_evens24_memo",
    "datalog_triangles_scalefree_10k",
    "datalog_sg_tree_depth9_binary",
];

fn read_repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The top-level keys of `BENCH_perf.json`, `_meta` excluded.
fn json_keys(json: &str) -> BTreeSet<String> {
    json.lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix('"')?;
            let (key, after) = rest.split_once('"')?;
            after.trim_start().starts_with(':').then(|| key.to_string())
        })
        .filter(|key| key != "_meta")
        .collect()
}

/// The backticked names in the first cell of every entry-table row.
fn documented_keys(doc: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let mut in_entry_table = false;
    for line in doc.lines() {
        let Some(row) = line.trim().strip_prefix('|') else {
            in_entry_table = false;
            continue;
        };
        let first_cell = row.split('|').next().unwrap_or("").trim();
        if first_cell == "key" {
            in_entry_table = true;
            continue;
        }
        if in_entry_table {
            keys.extend(first_cell.split('`').skip(1).step_by(2).map(str::to_string));
        }
    }
    keys
}

#[test]
fn every_committed_key_is_documented_and_every_documented_key_is_committed() {
    let committed = json_keys(&read_repo_file("BENCH_perf.json"));
    let documented = documented_keys(&read_repo_file("docs/BENCHMARKS.md"));

    let undocumented: Vec<_> = committed.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "BENCH_perf.json keys missing from docs/BENCHMARKS.md: {undocumented:?}"
    );
    let uncommitted: Vec<_> = documented.difference(&committed).collect();
    assert!(
        uncommitted.is_empty(),
        "docs/BENCHMARKS.md documents keys not in BENCH_perf.json: {uncommitted:?}"
    );

    for key in CLAIM_KEYS {
        assert!(committed.contains(key), "{key} is not committed");
    }
}
