//! The OS-thread background stage must deliver exactly the same row sets
//! as the cooperative tactics, bill all background work to the session
//! meter, and stamp worker-thread trace events with `Stage::Background`.
//! The foreground kill rules must fire alike under both handles.

use std::sync::Arc;

use rdb_btree::{BTree, KeyRange};
use rdb_core::tactics::FgrConfig;
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, KeyPred, OptimizeGoal, RecordPred,
    RetrievalRequest, Stage, TraceBuffer, TraceEvent, Tracer,
};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Rid, Schema,
    SharedCost, Value, ValueType,
};

struct Fixture {
    table: HeapTable,
    idx_a: BTree,
    idx_b: BTree,
    cost: SharedCost,
}

fn fixture(n: i64, ma: i64, mb: i64) -> Fixture {
    let cost = shared_meter(CostConfig::default());
    let pool = shared_pool(100_000, cost.clone());
    let schema = Schema::new(vec![
        Column::new("a", ValueType::Int),
        Column::new("b", ValueType::Int),
        Column::new("c", ValueType::Int),
    ]);
    let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool.clone(), 1024);
    let mut idx_a = BTree::new("idx_a", FileId(1), pool.clone(), vec![0], 64);
    let mut idx_b = BTree::new("idx_b", FileId(2), pool, vec![1], 64);
    for i in 0..n {
        let (a, b) = (i % ma, i % mb);
        let rid = table
            .insert(Record::new(vec![Value::Int(a), Value::Int(b), Value::Int(i)]))
            .unwrap();
        idx_a.insert(vec![Value::Int(a)], rid);
        idx_b.insert(vec![Value::Int(b)], rid);
    }
    Fixture {
        table,
        idx_a,
        idx_b,
        cost,
    }
}

fn sorted_rids(mut rids: Vec<Rid>) -> Vec<Rid> {
    rids.sort_unstable();
    rids
}

fn fast_first_request<'a>(f: &'a Fixture, va: i64, vb: i64) -> RetrievalRequest<'a> {
    let residual: RecordPred =
        Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[1] == Value::Int(vb));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::eq(vb)),
        ],
        residual,
        goal: OptimizeGoal::FastFirst,
        order_required: false,
        limit: None,
    }
}

#[test]
fn parallel_fast_first_matches_cooperative_rows() {
    let f = fixture(4000, 40, 25);
    let sequential = DynamicOptimizer::default();
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    for (va, vb) in [(1, 1), (3, 7), (0, 0), (39, 24)] {
        f.table.pool().clear();
        let seq = sequential.run(&fast_first_request(&f, va, vb)).unwrap();
        f.table.pool().clear();
        let par = parallel.run(&fast_first_request(&f, va, vb)).unwrap();
        assert_eq!(
            sorted_rids(seq.rids()),
            sorted_rids(par.rids()),
            "a={va} b={vb}: parallel fast-first must deliver the same rows"
        );
        assert!(
            par.strategy.contains("FastFirst"),
            "tactic choice unchanged: {}",
            par.strategy
        );
    }
}

#[test]
fn parallel_sorted_matches_cooperative_rows_and_order() {
    let f = fixture(3000, 30, 20);
    let make_request = |va: i64| -> RetrievalRequest<'_> {
        let residual: RecordPred =
            Arc::new(move |r: &Record| r[0] == Value::Int(va) && r[2].as_i64().unwrap() % 2 == 0);
        RetrievalRequest {
            table: &f.table,
            cost: f.cost.clone(),
            indexes: vec![
                IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()).with_order(),
                IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va)),
            ],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: true,
            limit: None,
        }
    };
    let sequential = DynamicOptimizer::default();
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    for va in [0, 5, 29] {
        f.table.pool().clear();
        let seq = sequential.run(&make_request(va)).unwrap();
        f.table.pool().clear();
        let par = parallel.run(&make_request(va)).unwrap();
        // The ordered foreground owns delivery: order must match exactly,
        // whatever the background filter timing was.
        assert_eq!(
            sorted_rids(seq.rids()),
            sorted_rids(par.rids()),
            "a={va}: parallel sorted must deliver the same rows"
        );
    }
}

#[test]
fn parallel_index_only_matches_cooperative_rows() {
    let f = fixture(3000, 25, 15);
    let make_request = |va: i64| -> RetrievalRequest<'_> {
        let residual: RecordPred = Arc::new(move |r: &Record| r[0] == Value::Int(va));
        let key_pred: KeyPred = Arc::new(move |k: &[Value]| k[0] == Value::Int(va));
        RetrievalRequest {
            table: &f.table,
            cost: f.cost.clone(),
            indexes: vec![
                IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(va))
                    .with_self_sufficient(key_pred),
                IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
            ],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        }
    };
    let sequential = DynamicOptimizer::default();
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    for va in [0, 7, 24] {
        f.table.pool().clear();
        let seq = sequential.run(&make_request(va)).unwrap();
        f.table.pool().clear();
        let par = parallel.run(&make_request(va)).unwrap();
        assert_eq!(
            sorted_rids(seq.rids()),
            sorted_rids(par.rids()),
            "a={va}: parallel index-only must deliver the same rows"
        );
    }
}

#[test]
fn parallel_limit_satisfied_by_foreground() {
    let f = fixture(4000, 10, 10);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(1));
    let req = RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(1)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
        ],
        residual,
        goal: OptimizeGoal::FastFirst,
        limit: Some(5),
        order_required: false,
    };
    let result = parallel.run(&req).unwrap();
    assert_eq!(result.deliveries.len(), 5, "limit must cap deliveries");
    for d in &result.deliveries {
        let rec = d.record.as_ref().expect("fast-first fetches records");
        assert_eq!(rec[0], Value::Int(1));
    }
}

#[test]
fn background_work_is_billed_to_the_session_meter() {
    let f = fixture(4000, 40, 25);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    f.table.pool().clear();
    let before = f.cost.total();
    let result = parallel.run(&fast_first_request(&f, 3, 7)).unwrap();
    let billed = f.cost.total() - before;
    // The background stage charges a private meter that is absorbed at
    // join; the session meter (and the result's cost) must cover it.
    assert!(
        billed > 0.0,
        "session meter must be charged for background work"
    );
    assert!(
        (result.cost - billed).abs() < 1e-9,
        "result cost {} must equal the session-meter delta {}",
        result.cost,
        billed
    );
}

#[test]
fn worker_trace_events_are_stamped_background() {
    let f = fixture(4000, 40, 25);
    let parallel = DynamicOptimizer::new(DynamicConfig {
        parallel: true,
        ..DynamicConfig::default()
    });
    let buffer = TraceBuffer::shared(4096);
    let tracer = Tracer::new(buffer.clone());
    let _ = parallel
        .run_traced(&fast_first_request(&f, 3, 7), None, &tracer)
        .unwrap();
    let staged = buffer.staged_events();
    assert!(
        staged.iter().any(|(s, _)| *s == Stage::Background),
        "worker-thread events must carry Stage::Background"
    );
    assert!(
        staged.iter().any(|(s, _)| *s == Stage::Foreground),
        "foreground events still present"
    );
}

/// What one run shows: the delivered RIDs, sorted, and the `(from, to)`
/// pair of every strategy switch in its trace.
type RunShape = (Vec<Rid>, Vec<(String, String)>);

/// Runs the request `make` builds under both background handles
/// (cooperative first) with the foreground tuning `fgr`.
fn under_both_handles<'a>(
    f: &'a Fixture,
    fgr: FgrConfig,
    make: impl Fn() -> RetrievalRequest<'a>,
) -> Vec<RunShape> {
    [false, true]
        .into_iter()
        .map(|parallel| {
            let optimizer = DynamicOptimizer::new(DynamicConfig {
                fgr,
                parallel,
                ..DynamicConfig::default()
            });
            let buffer = TraceBuffer::shared(1 << 16);
            f.table.pool().clear();
            let result = optimizer
                .run_traced(&make(), None, &Tracer::new(buffer.clone()))
                .unwrap();
            let switches = buffer
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Switch { from, to, .. } => Some((from, to)),
                    _ => None,
                })
                .collect();
            (sorted_rids(result.rids()), switches)
        })
        .collect()
}

fn assert_same_under_both_handles(runs: &[RunShape], kill: (&str, &str)) {
    let (cooperative, threaded) = (&runs[0], &runs[1]);
    assert_eq!(
        cooperative.0, threaded.0,
        "both handles must deliver the same rows"
    );
    assert_eq!(cooperative.1, threaded.1, "both handles must switch alike");
    let kill = (kill.0.to_string(), kill.1.to_string());
    assert!(
        cooperative.1.contains(&kill),
        "expected switch {kill:?} in {:?}",
        cooperative.1
    );
}

/// Fast-first over `a = 1` (every borrowed RID qualifies) with an
/// unconstrained second index.
fn borrowing_request(f: &Fixture) -> RetrievalRequest<'_> {
    let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(1));
    RetrievalRequest {
        table: &f.table,
        cost: f.cost.clone(),
        indexes: vec![
            IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(1)),
            IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
        ],
        residual,
        goal: OptimizeGoal::FastFirst,
        order_required: false,
        limit: None,
    }
}

#[test]
fn fast_first_buffer_overflow_kills_the_foreground_under_both_handles() {
    let f = fixture(4000, 10, 10);
    let fgr = FgrConfig {
        buffer_capacity: 1,
        ..FgrConfig::default()
    };
    let runs = under_both_handles(&f, fgr, || borrowing_request(&f));
    assert_same_under_both_handles(&runs, ("fast-first", "background-only"));
}

#[test]
fn fast_first_overspent_foreground_is_killed_under_both_handles() {
    let f = fixture(4000, 10, 10);
    let fgr = FgrConfig {
        spend_limit_ratio: 1e-6,
        ..FgrConfig::default()
    };
    let runs = under_both_handles(&f, fgr, || borrowing_request(&f));
    assert_same_under_both_handles(&runs, ("fast-first", "background-only"));
}

#[test]
fn index_only_buffer_overflow_kills_the_background_under_both_handles() {
    let f = fixture(3000, 25, 15);
    let fgr = FgrConfig {
        buffer_capacity: 3,
        ..FgrConfig::default()
    };
    let runs = under_both_handles(&f, fgr, || {
        let residual: RecordPred = Arc::new(|r: &Record| r[0] == Value::Int(7));
        let key_pred: KeyPred = Arc::new(|k: &[Value]| k[0] == Value::Int(7));
        RetrievalRequest {
            table: &f.table,
            cost: f.cost.clone(),
            indexes: vec![
                IndexChoice::fetch_needed(&f.idx_a, KeyRange::eq(7)).with_self_sufficient(key_pred),
                IndexChoice::fetch_needed(&f.idx_b, KeyRange::all()),
            ],
            residual,
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
        }
    });
    assert_same_under_both_handles(&runs, ("jscan", "sscan"));
    assert_eq!(
        runs[0].0.len(),
        120,
        "the Sscan alone delivers every a = 7 row"
    );
}
