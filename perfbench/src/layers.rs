//! Per-layer measurements taken from outside the engine: timed calls into
//! each layer's public functions, and ratios of the counters the engine
//! exposes. Every name here is listed under `per_layer` in
//! `BENCHMARK.json`.

use std::sync::Arc;
use std::time::Instant;

use rdb_btree::{KeyBound, KeyRange};
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest,
};
use rdb_query::{Db, QueryError, QueryResult};
use rdb_storage::{shared_meter, CostConfig, Record};

use crate::data::{as_int, Cond, Shape};
use crate::drive::{EngineCounters, EventCounts, Tally};
use crate::stats::{kendall_tau, median};

/// Per-layer metrics: name, unit, and whether higher is better.
pub const PER_LAYER: [(&str, &str, bool); 30] = [
    ("query.parse_us", "us", false),
    ("query.prepare_us", "us", false),
    ("query.adhoc_tax_us", "us", false),
    ("query.plan_cache_hit_ratio", "ratio", true),
    ("core.choose_us", "us", false),
    ("core.cost_units_per_stmt", "units", false),
    ("core.us_per_cost_unit", "us/unit", false),
    ("core.unit_time_tau", "tau", true),
    ("core.candidates_per_stmt", "count/stmt", false),
    ("core.switches_per_stmt", "count/stmt", false),
    ("core.shortcut_ratio", "ratio", true),
    ("core.discarded_cost_share", "ratio", false),
    ("core.records_examined_per_row", "count/row", false),
    ("btree.estimate_us", "us", false),
    ("btree.nodes_per_estimate", "count", false),
    ("btree.index_entries_per_stmt", "count/stmt", false),
    ("storage.pool_hit_ratio", "ratio", true),
    ("storage.page_reads_per_stmt", "count/stmt", false),
    ("storage.device_reads_per_stmt", "count/stmt", false),
    ("storage.readahead_batch_factor", "ratio", true),
    ("storage.prefetch_waste_ratio", "ratio", false),
    ("storage.shard_contention_per_kstmt", "count/kstmt", false),
    ("storage.wal_appends_per_write", "count/write", false),
    ("storage.wal_bytes_per_user_byte", "ratio", false),
    ("storage.checkpoint_ms", "ms", false),
    ("storage.pages_per_checkpoint", "count", false),
    ("storage.syncs_per_kwrite", "count/kwrite", false),
    ("storage.open_ms", "ms", false),
    ("storage.records_replayed", "count", false),
    ("trace.qps_ratio", "ratio", true),
];

/// Timed probes and set-up facts gathered by a workload for the traced
/// report. Vectors hold one sample per timed call.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `Db::prepare` after `clear_plan_cache`, µs.
    pub prepare_us: Vec<f64>,
    /// Per statement: median ad-hoc latency minus median prepared latency, µs.
    pub adhoc_tax_us: Vec<f64>,
    /// Statements run both ways.
    pub agree_checked: u64,
    /// Of those, the ones where either way missed the shadow's answer.
    pub agree_failed: u64,
    /// `DynamicOptimizer::choose`, µs.
    pub choose_us: Vec<f64>,
    /// `BTree::estimate_range_counted`, µs.
    pub estimate_us: Vec<f64>,
    /// Nodes each estimate descended through.
    pub estimate_nodes: Vec<f64>,
    /// Timed `Db::checkpoint` calls, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Pages each checkpoint wrote.
    pub checkpoint_pages: Vec<f64>,
    /// WAL file growth between checkpoints, bytes.
    pub wal_growth_bytes: u64,
    /// Timed `DbBuilder::open` calls, ms.
    pub open_ms: Vec<f64>,
    /// WAL records the last open replayed.
    pub records_replayed: u64,
}

/// Everything the traced windows of a run observed.
#[derive(Debug, Clone, Default)]
pub struct TracedRun {
    /// Traced windows, merged.
    pub tally: Tally,
    /// Untraced windows of the same run, merged.
    pub untraced: Tally,
    /// Engine counter deltas over the traced windows.
    pub engine: EngineCounters,
    /// Optimizer events over the traced windows.
    pub events: EventCounts,
    /// `parse` span durations, µs.
    pub parse_us: Vec<f64>,
    /// Spans recorded.
    pub spans: u64,
    /// Spans refused because a recorder was full.
    pub spans_dropped: u64,
    /// Probes and set-up facts.
    pub probes: Probes,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

impl TracedRun {
    /// Mean units and mean µs of each statement class that ran.
    pub fn class_means(&self) -> Vec<(usize, f64, f64)> {
        self.tally
            .classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.count > 0)
            .map(|(i, c)| {
                (
                    i,
                    c.units / c.count as f64,
                    c.ns as f64 / 1e3 / c.count as f64,
                )
            })
            .collect()
    }

    /// The value of every [`PER_LAYER`] metric, in that order.
    pub fn metrics(&self) -> Vec<f64> {
        let t = &self.tally;
        let p = &self.probes;
        let e = &self.engine;
        let stmts = (t.attempted - t.failed) as f64;
        let units: f64 = t.classes.iter().map(|c| c.units).sum();
        let ns: f64 = t.classes.iter().map(|c| c.ns as f64).sum();
        let writes = t.writes as f64;
        let means = self.class_means();
        let mean_units: Vec<f64> = means.iter().map(|m| m.1).collect();
        let mean_us: Vec<f64> = means.iter().map(|m| m.2).collect();
        let m = &t.meter;
        let store = &e.store;
        let values: [f64; PER_LAYER.len()] = [
            median(&self.parse_us),
            median(&p.prepare_us),
            median(&p.adhoc_tax_us),
            ratio(e.plan_hits as f64, (e.plan_hits + e.plan_misses) as f64),
            median(&p.choose_us),
            ratio(units, stmts),
            ratio(ns / 1e3, units),
            kendall_tau(&mean_units, &mean_us),
            ratio(self.events.candidates as f64, stmts),
            ratio(self.events.switches as f64, stmts),
            ratio(self.events.shortcuts as f64, stmts),
            ratio(self.events.discarded_spent, units),
            ratio(m.records_examined as f64, t.rows as f64),
            median(&p.estimate_us),
            mean(&p.estimate_nodes),
            ratio(m.index_entries as f64, stmts),
            ratio(m.cache_hits as f64, (m.cache_hits + m.page_reads) as f64),
            ratio(m.page_reads as f64, stmts),
            ratio(store.page_reads as f64, stmts),
            ratio(store.page_reads as f64, store.batch_reads as f64),
            if e.prefetch.prefetched_pages > 0 {
                1.0 - ratio(
                    e.prefetch.consumed_pages as f64,
                    e.prefetch.prefetched_pages as f64,
                )
            } else {
                0.0
            },
            ratio(e.contention as f64 * 1000.0, stmts),
            ratio(store.wal_appends as f64, writes),
            ratio(p.wal_growth_bytes as f64, t.user_bytes as f64),
            median(&p.checkpoint_ms),
            mean(&p.checkpoint_pages),
            ratio(store.syncs as f64 * 1000.0, writes),
            median(&p.open_ms),
            p.records_replayed as f64,
            ratio(t.qps(), self.untraced.qps()),
        ];
        values.to_vec()
    }
}

/// Runs `f`; returns its result and the microseconds it took.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

/// Times one execution with `run` and checks its answer with `check`,
/// outside the timed span.
pub fn timed_check(
    run: impl FnOnce() -> Result<QueryResult, QueryError>,
    check: impl FnOnce(&QueryResult) -> bool,
) -> (f64, bool) {
    let (result, us) = time_us(run);
    (us, result.is_ok_and(|r| check(&r)))
}

/// Runs one statement and binding ad-hoc and prepared: a warm-up pair,
/// then five pairs with the order alternating. Records the median ad-hoc
/// minus the median prepared latency, and whether every answer of both
/// ways was right. Each closure returns (µs, answer right).
pub fn probe_adhoc_tax(
    probes: &mut Probes,
    mut adhoc: impl FnMut() -> (f64, bool),
    mut prepared: impl FnMut() -> (f64, bool),
) {
    let (mut a_us, mut p_us, mut ok) = (Vec::new(), Vec::new(), true);
    for rep in 0..6 {
        let (a, p) = if rep % 2 == 0 {
            let a = adhoc();
            (a, prepared())
        } else {
            let p = prepared();
            (adhoc(), p)
        };
        ok &= a.1 && p.1;
        if rep > 0 {
            a_us.push(a.0);
            p_us.push(p.0);
        }
    }
    probes.agree_checked += 1;
    probes.agree_failed += u64::from(!ok);
    probes.adhoc_tax_us.push(median(&a_us) - median(&p_us));
}

/// Times `Db::prepare` of each text after `clear_plan_cache`.
pub fn probe_prepare(db: &Db, texts: &[&str], probes: &mut Probes) {
    for text in texts {
        for _ in 0..10 {
            db.clear_plan_cache();
            let (handle, us) = time_us(|| db.prepare(text));
            probes.prepare_us.push(us);
            drop(handle);
        }
    }
}

fn key_range(c: &Cond) -> KeyRange {
    let bound = |v: i64, open: i64| {
        if v == open {
            KeyBound::Unbounded
        } else {
            KeyBound::inclusive(v)
        }
    };
    KeyRange {
        lo: bound(c.lo, i64::MIN),
        hi: bound(c.hi, i64::MAX),
    }
}

/// Times `DynamicOptimizer::choose` and `BTree::estimate_range_counted`
/// on requests built, as the query layer builds them, from `db.heap()`,
/// `db.indexes()` and a statement's bound conditions.
pub fn probe_optimizer(db: &Db, table: &str, conds: &[Cond], shape: Shape, probes: &mut Probes) {
    let (Some(heap), Some(trees)) = (db.heap(table), db.indexes(table)) else {
        return;
    };
    let meter = shared_meter(CostConfig::default());
    let leading = |col: usize| trees.iter().find(|t| t.key_columns().first() == Some(&col));
    let mut indexes: Vec<IndexChoice<'_>> = Vec::new();
    for c in conds {
        if let Some(tree) = leading(c.col) {
            let range = key_range(c);
            let (est, us) = time_us(|| tree.estimate_range_counted(&range, &meter));
            probes.estimate_us.push(us);
            probes.estimate_nodes.push(f64::from(est.nodes_visited));
            indexes.push(IndexChoice::fetch_needed(tree, range));
        }
    }
    let (goal, order_required, limit) = match shape {
        Shape::TopN { order_col, n } => {
            if let Some(pos) = indexes
                .iter()
                .position(|i| i.tree.key_columns().first() == Some(&order_col))
            {
                indexes[pos].provides_order = true;
            } else if let Some(tree) = leading(order_col) {
                indexes.push(IndexChoice::fetch_needed(tree, KeyRange::all()).with_order());
            }
            (OptimizeGoal::FastFirst, true, Some(n))
        }
        _ => (OptimizeGoal::TotalTime, false, None),
    };
    let owned = conds.to_vec();
    let residual: RecordPred = Arc::new(move |r: &Record| {
        owned.iter().all(|c| {
            r.get(c.col)
                .and_then(as_int)
                .is_some_and(|v| (c.lo..=c.hi).contains(&v))
        })
    });
    let request = RetrievalRequest {
        table: heap,
        indexes,
        residual,
        goal,
        order_required,
        limit,
        cost: meter,
    };
    let optimizer = DynamicOptimizer::new(DynamicConfig::default());
    let (choice, us) = time_us(|| optimizer.choose(&request));
    probes.choose_us.push(us);
    std::hint::black_box(choice);
}
