//! Host-variable sensitivity, end to end: the same prepared query swept
//! over its parameter, with the optimizer's decisions (from the typed
//! `EXPLAIN ANALYZE` trace) printed so you can watch the strategy change
//! — the paper's core motivation.
//!
//! Run: `cargo run --release -p rdb-bench --example host_variables`

use rdb_core::TraceEvent;
use rdb_query::QueryOptions;
use rdb_workload::{families_db, FamiliesConfig};

fn main() {
    let db = families_db(&FamiliesConfig {
        rows: 20_000,
        ..FamiliesConfig::default()
    });

    let sql = "select ID, AGE from FAMILIES where AGE >= :A1 and CITY = :C";
    println!("query: {sql}\n");

    for (a1, c) in [(0i64, 0i64), (0, 450), (95, 0), (99, 450), (150, 0)] {
        db.clear_cache();
        let opts = QueryOptions::new().with_param("A1", a1).with_param("C", c);
        let analyzed = db.explain_analyze(sql, &opts).expect("query");
        let result = &analyzed.result;
        println!(
            ":A1={a1:>3} :C={c:>3}  {:>5} rows  cost {:>8.1}  [{}]",
            result.rows.len(),
            result.cost,
            result.strategy
        );
        // The runtime decisions: shortcuts, completed and discarded index
        // scans, switches (estimates and cost bookkeeping left out).
        let decisions = analyzed.events.iter().filter(|e| {
            matches!(
                e,
                TraceEvent::Shortcut { .. }
                    | TraceEvent::ScanCompleted { .. }
                    | TraceEvent::IndexDiscarded { .. }
                    | TraceEvent::FaultAbsorbed { .. }
                    | TraceEvent::Switch { .. }
            )
        });
        for event in decisions.take(4) {
            println!("    . {event}");
        }
    }

    println!(
        "\nCITY is Zipf-skewed: CITY=0 is hot (thousands of rows), CITY=450\n\
         is cold (a handful). The joint scan orders and prunes its index\n\
         scans per binding; the empty AGE range cancels everything at once."
    );
}
