//! The closed-loop client shared by the read workloads, and the counters
//! the benchmark reads from the engine's public surface.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rdb_core::{TraceEvent, TraceSink};
use rdb_query::parser::parse_query;
use rdb_query::{Db, Prepared, QueryOptions, Session};
use rdb_storage::{CostSnapshot, PrefetchStats, StoreStats};

use crate::data::{Cond, Expect, Shadow, Shape};
use crate::span::Spans;
use crate::stats::Hist;

/// One statement of a client's fixed sequence, with its oracle answer.
pub struct Stmt {
    /// Statement class (index into the workload's class names).
    pub class: usize,
    /// Index into the workload's statement texts.
    pub text: usize,
    /// Host-variable bindings.
    pub opts: QueryOptions,
    /// The same bindings with the client's event counter attached.
    pub traced_opts: QueryOptions,
    /// The statement's conditions, for the oracle.
    pub conds: Vec<Cond>,
    /// What the statement returns.
    pub shape: Shape,
    /// The shadow's answer.
    pub expect: Expect,
    /// Run through a `Prepared` handle rather than as ad-hoc text.
    pub prepared: bool,
}

/// Time and cost-unit totals of one statement class.
#[derive(Debug, Clone, Default)]
pub struct ClassAcc {
    /// Statements completed.
    pub count: u64,
    /// Wall-clock nanoseconds, call to return.
    pub ns: u64,
    /// Cost units charged.
    pub units: f64,
    /// Latency distribution, ns.
    pub hist: Hist,
}

/// What one measurement window (or several merged) observed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Statements attempted.
    pub attempted: u64,
    /// Statements that returned an error or a wrong answer.
    pub failed: u64,
    /// SELECT latencies, ns.
    pub read_ns: Hist,
    /// INSERT / UPDATE / DELETE latencies, ns.
    pub write_ns: Hist,
    /// Rows returned by reads plus rows affected by writes.
    pub rows: u64,
    /// Write statements completed.
    pub writes: u64,
    /// Bytes of column values the writes stored.
    pub user_bytes: u64,
    /// Per-class time and units.
    pub classes: Vec<ClassAcc>,
    /// Session-meter work charged during the window.
    pub meter: CostSnapshot,
    /// Window length, seconds (until the last client returned).
    pub elapsed_s: f64,
}

impl Tally {
    /// An empty tally over `classes` statement classes.
    pub fn new(classes: usize) -> Self {
        Tally {
            classes: vec![ClassAcc::default(); classes],
            ..Tally::default()
        }
    }

    /// Completed statements per second.
    pub fn qps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            (self.attempted - self.failed) as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Records one completed statement of `class`.
    pub fn record(&mut self, class: usize, ns: u64, units: f64) {
        let acc = &mut self.classes[class];
        acc.count += 1;
        acc.ns += ns;
        acc.units += units;
        acc.hist.record(ns);
    }

    /// Adds `other` into `self` (windows are summed; elapsed adds up).
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.read_ns.merge(&other.read_ns);
        self.write_ns.merge(&other.write_ns);
        self.rows += other.rows;
        self.writes += other.writes;
        self.user_bytes += other.user_bytes;
        if self.classes.len() < other.classes.len() {
            self.classes
                .resize(other.classes.len(), ClassAcc::default());
        }
        for (a, b) in self.classes.iter_mut().zip(other.classes) {
            a.count += b.count;
            a.ns += b.ns;
            a.units += b.units;
            a.hist.merge(&b.hist);
        }
        self.meter = add_snapshots(&self.meter, &other.meter);
        self.elapsed_s += other.elapsed_s;
    }

    /// Merges the tallies of clients that ran side by side in one window:
    /// counts add up, the window is as long as the slowest client.
    pub fn concurrent(parts: Vec<Tally>) -> Tally {
        let mut out = Tally::default();
        let mut longest = 0.0f64;
        for part in parts {
            longest = longest.max(part.elapsed_s);
            out.merge(part);
        }
        out.elapsed_s = longest;
        out
    }
}

/// Sum of two meter snapshots.
pub fn add_snapshots(a: &CostSnapshot, b: &CostSnapshot) -> CostSnapshot {
    CostSnapshot {
        page_reads: a.page_reads + b.page_reads,
        cache_hits: a.cache_hits + b.cache_hits,
        page_writes: a.page_writes + b.page_writes,
        records_examined: a.records_examined + b.records_examined,
        rid_ops: a.rid_ops + b.rid_ops,
        index_entries: a.index_entries + b.index_entries,
        total: a.total + b.total,
    }
}

/// Optimizer decisions counted from the engine's typed trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventCounts {
    /// Indexes or join methods estimated as candidates.
    pub candidates: u64,
    /// Strategy switches.
    pub switches: u64,
    /// Shortcut decisions (empty or tiny range).
    pub shortcuts: u64,
    /// Cost units spent on candidates that were later discarded.
    pub discarded_spent: f64,
}

impl EventCounts {
    /// Sum of two counts.
    pub fn add(&self, other: &EventCounts) -> EventCounts {
        EventCounts {
            candidates: self.candidates + other.candidates,
            switches: self.switches + other.switches,
            shortcuts: self.shortcuts + other.shortcuts,
            discarded_spent: self.discarded_spent + other.discarded_spent,
        }
    }
}

/// A `TraceSink` that only counts; attached through
/// `QueryOptions::with_trace` in traced windows.
#[derive(Debug, Default)]
pub struct EventTally(Mutex<EventCounts>);

impl EventTally {
    /// Counts so far.
    pub fn counts(&self) -> EventCounts {
        *self
            .0
            .lock()
            .expect("event tally lock poisoned by a panicking client")
    }
}

impl TraceSink for EventTally {
    fn emit(&self, event: TraceEvent) {
        let mut c = self
            .0
            .lock()
            .expect("event tally lock poisoned by a panicking client");
        match event {
            TraceEvent::CandidateEstimate { .. } | TraceEvent::JoinCandidate { .. } => {
                c.candidates += 1
            }
            TraceEvent::Switch { .. } => c.switches += 1,
            TraceEvent::Shortcut { .. } => c.shortcuts += 1,
            TraceEvent::IndexDiscarded { spent, .. } | TraceEvent::JoinKilled { spent, .. } => {
                c.discarded_spent += spent
            }
            _ => {}
        }
    }
}

/// Engine-wide counters read through `Db`'s public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    /// Contended buffer-pool shard acquisitions.
    pub contention: u64,
    /// Read-ahead activity.
    pub prefetch: PrefetchStats,
    /// Real page-store traffic (zero for in-memory databases).
    pub store: StoreStats,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
}

impl EngineCounters {
    /// Reads the counters now.
    pub fn read(db: &Db) -> Self {
        let plan = db.plan_cache_stats();
        EngineCounters {
            contention: db.pool().contention(),
            prefetch: db.pool().prefetch_stats(),
            store: db.store().map(|s| s.stats()).unwrap_or_default(),
            plan_hits: plan.hits,
            plan_misses: plan.misses,
        }
    }

    /// Deltas since `earlier`.
    pub fn since(&self, earlier: &EngineCounters) -> Self {
        EngineCounters {
            contention: self.contention - earlier.contention,
            prefetch: self.prefetch.since(&earlier.prefetch),
            store: self.store.since(&earlier.store),
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
        }
    }

    /// Sum of two deltas.
    pub fn add(&self, other: &EngineCounters) -> Self {
        let (a, b) = (&self.store, &other.store);
        EngineCounters {
            contention: self.contention + other.contention,
            prefetch: PrefetchStats {
                runs: self.prefetch.runs + other.prefetch.runs,
                prefetched_pages: self.prefetch.prefetched_pages + other.prefetch.prefetched_pages,
                consumed_pages: self.prefetch.consumed_pages + other.prefetch.consumed_pages,
            },
            store: StoreStats {
                page_reads: a.page_reads + b.page_reads,
                page_writes: a.page_writes + b.page_writes,
                batch_reads: a.batch_reads + b.batch_reads,
                wal_appends: a.wal_appends + b.wal_appends,
                syncs: a.syncs + b.syncs,
            },
            plan_hits: self.plan_hits + other.plan_hits,
            plan_misses: self.plan_misses + other.plan_misses,
        }
    }
}

/// Measurement windows of one run: `(seconds, traced)`. An untraced run
/// measures in one window; a traced run alternates untraced and traced
/// halves so that the tracing overhead is a paired comparison.
pub fn schedule(seconds: f64, trace: bool) -> Vec<(f64, bool)> {
    if trace {
        let quarter = seconds / 4.0;
        vec![
            (quarter, false),
            (quarter, true),
            (quarter, false),
            (quarter, true),
        ]
    } else {
        vec![(seconds, false)]
    }
}

/// One read client: its fixed statement sequence, where it stands in it,
/// its span recorder and its event counter.
pub struct Client {
    /// Client number (tags spans and statement ids).
    pub id: usize,
    /// The statement sequence, cycled.
    pub stmts: Vec<Stmt>,
    /// Next statement to send.
    pub pos: usize,
    /// Statements sent so far (statement ids).
    pub seq: u64,
    /// Span recorder (enabled in traced windows only).
    pub spans: Spans,
    /// Event counter attached to `traced_opts`.
    pub sink: Arc<EventTally>,
}

/// Runs `client` as a closed loop on `session` until `deadline`: each
/// statement is sent when the previous one has returned, timed from call
/// to return, then checked against the shadow outside the timed span.
pub fn run_reads(
    session: &Session<'_>,
    client: &mut Client,
    texts: &[&str],
    classes: usize,
    shadow: &Shadow,
    deadline: Instant,
    traced: bool,
) -> Tally {
    let mut tally = Tally::new(classes);
    let handles: Vec<Option<Prepared<'_>>> =
        texts.iter().map(|t| session.prepare(t).ok()).collect();
    client.spans.set_enabled(traced);
    let start = Instant::now();
    while Instant::now() < deadline {
        let stmt = &client.stmts[client.pos];
        client.pos = (client.pos + 1) % client.stmts.len();
        client.seq += 1;
        let id = ((client.id as u64) << 48) | client.seq;
        let opts = if traced {
            &stmt.traced_opts
        } else {
            &stmt.opts
        };
        let spans = &mut client.spans;

        let outer = spans.open("stmt", id);
        let t0 = Instant::now();
        let result = if stmt.prepared {
            let span = spans.open("execute", id);
            let r = match &handles[stmt.text] {
                Some(handle) => handle.execute(opts),
                None => session
                    .prepare(texts[stmt.text])
                    .and_then(|h| h.execute(opts)),
            };
            spans.close(span);
            r
        } else {
            let span = spans.open("parse", id);
            let spec = parse_query(texts[stmt.text]);
            spans.close(span);
            let span = spans.open("execute", id);
            let r = spec.and_then(|spec| session.query_spec(&spec, opts));
            spans.close(span);
            r
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let span = spans.open("verify", id);
        let ok = result
            .as_ref()
            .is_ok_and(|r| shadow.check(&stmt.conds, stmt.shape, &stmt.expect, r));
        spans.close(span);
        spans.close(outer);

        tally.attempted += 1;
        if ok {
            let r = result.as_ref().expect("checked ok");
            tally.read_ns.record(ns);
            tally.rows += r.rows.len() as u64;
            tally.record(stmt.class, ns, r.cost);
        } else {
            tally.failed += 1;
            // The first few failures are named; the count is in the result.
            if tally.failed <= 3 {
                match &result {
                    Err(e) => eprintln!("perfbench: {:?} failed: {e}", texts[stmt.text]),
                    Ok(_) => eprintln!("perfbench: {:?} answered wrong", texts[stmt.text]),
                }
            }
        }
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally.meter = session.cost().snapshot();
    tally
}
