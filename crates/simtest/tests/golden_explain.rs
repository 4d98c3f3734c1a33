//! Golden-file pin of the rendered `EXPLAIN ANALYZE` competition timeline.
//!
//! The engine is deterministic end to end — same data, same costs, same
//! decisions — so the full rendered timeline of a pinned database is a
//! legitimate regression artifact: any drift in estimation, competition
//! ordering, phase accounting, or the renderer shows up as a diff here.
//! Re-bless intentionally with `UPDATE_GOLDEN=1 cargo test -p rdb-simtest`.

use std::path::Path;

use rdb_query::prelude::*;

/// A pinned FAMILIES table (LCG-generated, fixed seed) with indexes on AGE
/// and SIZE — enough structure for a real index competition.
fn pinned_db() -> Db {
    let mut db = pinned_families();
    db.create_index("IDX_AGE", "FAMILIES", &["AGE"]).unwrap();
    db.create_index("IDX_SIZE", "FAMILIES", &["SIZE"]).unwrap();
    db
}

/// The same pinned FAMILIES rows with a composite (AGE, SIZE) index that
/// covers an AGE/SIZE projection (self-sufficient) next to a fetch-needed
/// SIZE index — the index-only tactic's situation.
fn pinned_covered_db() -> Db {
    let mut db = pinned_families();
    db.create_index("IDX_AGE_SIZE", "FAMILIES", &["AGE", "SIZE"])
        .unwrap();
    db.create_index("IDX_SIZE", "FAMILIES", &["SIZE"]).unwrap();
    db
}

fn pinned_families() -> Db {
    let mut db = Db::builder().page_bytes(1024).open().unwrap();
    db.create_table(
        "FAMILIES",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("AGE", ValueType::Int),
            Column::new("SIZE", ValueType::Int),
        ]),
    )
    .unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..4000i64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let age = ((state >> 33) % 100) as i64;
        db.insert(
            "FAMILIES",
            vec![Value::Int(i), Value::Int(age), Value::Int(i % 7)],
        )
        .unwrap();
    }
    db
}

/// A pinned two-table world (LCG-generated, fixed seed): PARENT(ID, KIND)
/// with a unique-key index, CHILD(FK, X) with an FK index — every join
/// method and orientation is feasible, so the join competition timeline
/// exercises estimates, kills, and the winner.
fn pinned_join_db() -> Db {
    let mut db = Db::builder().page_bytes(1024).open().unwrap();
    db.create_table(
        "PARENT",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("KIND", ValueType::Int),
        ]),
    )
    .unwrap();
    db.create_table(
        "CHILD",
        Schema::new(vec![
            Column::new("FK", ValueType::Int),
            Column::new("X", ValueType::Int),
        ]),
    )
    .unwrap();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in 0..300i64 {
        db.insert("PARENT", vec![Value::Int(i), Value::Int((next() % 5) as i64)])
            .unwrap();
    }
    for _ in 0..900 {
        let fk = (next() % 300) as i64;
        let x = (next() % 10) as i64;
        db.insert("CHILD", vec![Value::Int(fk), Value::Int(x)]).unwrap();
    }
    db.create_index("IDX_P_ID", "PARENT", &["ID"]).unwrap();
    db.create_index("IDX_C_FK", "CHILD", &["FK"]).unwrap();
    db
}

#[test]
fn explain_analyze_timeline_matches_golden() {
    let ea = assert_timeline_golden(
        &pinned_db(),
        "select ID from FAMILIES where AGE >= 97 and SIZE = 3",
        "explain_analyze.txt",
    );
    // The machine-readable form carries the same run: winner, phase costs,
    // and per-event records.
    let json = ea.to_json();
    assert!(json.contains("\"event\":\"tactic_chosen\""), "{json}");
    assert!(json.contains("\"event\":\"winner\""), "{json}");
    assert!(json.contains("\"event\":\"phase_cost\""), "{json}");
    assert!(json.contains("\"pool\":{"), "{json}");
}

#[test]
fn explain_analyze_join_timeline_matches_golden() {
    let ea = assert_timeline_golden(
        &pinned_join_db(),
        "select PARENT.ID, CHILD.X from PARENT, CHILD \
         where PARENT.ID = CHILD.FK and CHILD.X < 3 and PARENT.KIND = 2",
        "explain_analyze_join.txt",
    );
    // The join competition's trace must be present end to end: candidate
    // estimates, the raced methods, and a join winner tiling the cost.
    let json = ea.to_json();
    assert!(json.contains("\"event\":\"winner\""), "{json}");
    assert!(json.contains("join"), "{json}");
}

/// Renders `EXPLAIN ANALYZE sql` on `db` and compares it with
/// `tests/golden/<file>` (written instead under `UPDATE_GOLDEN`). Returns
/// the run so callers can check which tactic it exercised.
fn assert_timeline_golden(db: &Db, sql: &str, file: &str) -> ExplainAnalyze {
    db.clear_cache();
    let ea = db.explain_analyze(sql, &QueryOptions::new()).unwrap();
    let rendered = ea.render();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\nbless it with: UPDATE_GOLDEN=1 cargo test -p rdb-simtest",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "{file}: EXPLAIN ANALYZE timeline drifted from the golden file; if the \
         change is intended, re-bless with UPDATE_GOLDEN=1"
    );
    ea
}

#[test]
fn explain_analyze_fast_first_timeline_matches_golden() {
    let ea = assert_timeline_golden(
        &pinned_db(),
        "select ID from FAMILIES where AGE >= 90 and SIZE = 3 limit to 5 rows",
        "explain_analyze_fast_first.txt",
    );
    let rendered = ea.render();
    assert!(rendered.contains("tactic FastFirst chosen"), "{rendered}");
}

#[test]
fn explain_analyze_sorted_timeline_matches_golden() {
    let ea = assert_timeline_golden(
        &pinned_db(),
        "select ID from FAMILIES where AGE >= 97 and SIZE = 3 order by SIZE limit to 5 rows",
        "explain_analyze_sorted.txt",
    );
    let rendered = ea.render();
    assert!(rendered.contains("tactic Sorted chosen"), "{rendered}");
}

#[test]
fn explain_analyze_index_only_timeline_matches_golden() {
    let ea = assert_timeline_golden(
        &pinned_covered_db(),
        "select AGE, SIZE from FAMILIES where AGE >= 90 and SIZE = 3",
        "explain_analyze_index_only.txt",
    );
    let rendered = ea.render();
    assert!(rendered.contains("tactic IndexOnly chosen"), "{rendered}");
}
