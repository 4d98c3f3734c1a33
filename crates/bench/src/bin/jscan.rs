//! E9/E10 — Section 6 / Figure 6: the joint scan.
//!
//! * Selectivity sweep: dynamic Jscan vs statically-thresholded Jscan
//!   \[MoHa90\] vs single-index Fscan vs Tscan. The shape to check: the
//!   dynamic column tracks the best strategy across the whole sweep,
//!   abandoning unproductive index scans mid-run; the static variants are
//!   each catastrophic somewhere.
//! * `--tiers`: the tiered RID-list storage distribution under an
//!   L-shaped result-size workload.
//!
//! Run: `cargo run --release -p rdb-bench --bin jscan [-- --tiers]`

use std::sync::Arc;

use rdb_bench::fixtures::{discarded_scans, run_traced, winner_strategy, JscanFixture};
use rdb_bench::report::{fmt, print_table};
use rdb_btree::KeyRange;
use rdb_core::baseline::{estimate_all, StaticJscan, StaticJscanConfig};
use rdb_core::{
    DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest, StaticOptimizer,
    StaticPlan, Tscan,
};
use rdb_storage::{Record, Value};

fn sweep() {
    // Columns: c0 = i % 1000 (selective eq), c1 = i % m (swept selectivity).
    println!("== Jscan selectivity sweep: AND of two index restrictions ==\n");
    println!("restriction: c0 < K (swept) and c1 = 1 (fixed 1/50)\n");
    let f = JscanFixture::build(50_000, &[1000, 50], 200_000);
    let tscan_cost = Tscan::full_cost(&f.table);
    let dynamic = DynamicOptimizer::default();
    let static_jscan = StaticJscan::new(StaticJscanConfig::default());
    let static_opt = StaticOptimizer::default();

    let mut rows = Vec::new();
    for k in [2i64, 10, 50, 200, 600, 1000] {
        let request = || -> RetrievalRequest<'_> {
            let residual: RecordPred = Arc::new(move |r: &Record| {
                r[0].as_i64().unwrap() < k && r[1] == Value::Int(1)
            });
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![
                    IndexChoice::fetch_needed(&f.indexes[0], KeyRange::at_most(k - 1)),
                    IndexChoice::fetch_needed(&f.indexes[1], KeyRange::eq(1)),
                ],
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            }
        };
        f.cold();
        let (dyn_run, trace) = run_traced(&dynamic, &request());
        f.cold();
        let req = request();
        let est = estimate_all(&req);
        let stat = static_jscan.run(&req, &est).unwrap();
        f.cold();
        let fscan = static_opt.execute(StaticPlan::Fscan { pos: 1 }, &request()).unwrap();
        f.cold();
        let tscan = static_opt.execute(StaticPlan::Tscan, &request()).unwrap();
        assert_eq!(dyn_run.deliveries.len(), tscan.deliveries.len());
        let oracle = fscan.cost.min(tscan.cost).min(stat.cost);
        rows.push(vec![
            format!("K={k}"),
            format!("{}", dyn_run.deliveries.len()),
            fmt(dyn_run.cost),
            fmt(stat.cost),
            fmt(fscan.cost),
            fmt(tscan.cost),
            fmt(dyn_run.cost / oracle.max(1e-9)),
            discarded_scans(&trace).to_string(),
        ]);
    }
    print_table(
        &[
            "sweep",
            "rows",
            "dynamic Jscan",
            "static Jscan[MoHa90]",
            "Fscan(c1)",
            "Tscan",
            "dyn/best-other",
            "scans abandoned",
        ],
        &rows,
    );
    println!("\n(Tscan reference cost: {})", fmt(tscan_cost));
}

fn tiers() {
    println!("\n== Tiered RID storage under an L-shaped result-size workload ==\n");
    let f = JscanFixture::build(50_000, &[50_000], 200_000);
    let dynamic = DynamicOptimizer::default();
    // Result sizes drawn from an L-shape: mostly tiny, occasionally huge.
    let sizes = [0i64, 1, 3, 7, 15, 20, 40, 120, 800, 4000, 9000];
    let mut rows = Vec::new();
    for &s in &sizes {
        let request = {
            let residual: RecordPred =
                Arc::new(move |r: &Record| r[0].as_i64().unwrap() < s);
            RetrievalRequest {
                table: &f.table,
                cost: f.table.pool().cost().clone(),
                indexes: vec![IndexChoice::fetch_needed(
                    &f.indexes[0],
                    KeyRange::at_most(s - 1),
                )],
                residual,
                goal: OptimizeGoal::TotalTime,
                order_required: false,
                limit: None,
            }
        };
        f.cold();
        let (run, trace) = run_traced(&dynamic, &request);
        // A final-stage run reports the list's source, the first word of
        // the winner's detail ("background-only (Jscan + final stage)");
        // the trace does not record the list's storage tier.
        let tier = winner_strategy(&trace)
            .filter(|w| w.contains("final stage"))
            .and_then(|w| w.split('(').nth(1))
            .and_then(|t| t.split(' ').next())
            .unwrap_or(if run.strategy == "TinyRangeFetch" {
                "tiny-shortcut"
            } else if run.strategy == "EndOfData" {
                "empty-shortcut"
            } else {
                "(direct)"
            });
        rows.push(vec![
            format!("{s} rids"),
            run.strategy.clone(),
            tier.to_string(),
            fmt(run.cost),
        ]);
    }
    print_table(&["result size", "tactic", "tier", "cost"], &rows);
    println!(
        "\nThe paper's hybrid arrangement: zero -> shortcut, <=20 -> static\n\
         buffer (and the tiny-range initial-stage shortcut), medium -> heap\n\
         buffer, huge -> temp table + bitmap."
    );
}

fn main() {
    sweep();
    tiers();
}
