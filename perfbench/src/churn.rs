//! `write_churn`: a durable EVENTS table indexed on ID, run as a sliding
//! window by one client. New IDs are inserted at the tail, recent IDs are
//! updated and read, and the oldest batch is deleted, so WAL appends,
//! heap and B-tree inserts and deletes, and checkpoint writes dominate.
//!
//! Flush policy: the engine fsyncs the WAL only at checkpoint, and the
//! client calls `Db::checkpoint` after every `checkpoint_every` writes.
//!
//! The heap does not reuse the space of deleted rows, so the table file
//! grows with every write and scans slow down as it does. To make every
//! run visit the same sequence of table states however fast it goes, the
//! window restarts from a freshly loaded table every `epoch_cycles`
//! cycles; the reload is not part of the measured time.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdb_query::parser::parse_query;
use rdb_query::{Db, Expr, QueryError, QueryOptions, QueryResult};
use rdb_storage::{Column, CostSnapshot, FilePageStore, Schema, Value, ValueType};

use crate::data::{Cond, Shape};
use crate::drive::{add_snapshots, schedule, EngineCounters, EventTally, Tally};
use crate::layers::{
    probe_adhoc_tax, probe_optimizer, probe_prepare, timed_check, Probes, TracedRun,
};
use crate::rng::Rng;
use crate::span::Spans;
use crate::workload::{
    dir_bytes, durable_setups, footprint_meta, footprint_pages, rss_mb, Outcome, RunArgs,
};

const READ_TEXT: &str = "select * from EVENTS where ID = :I";
const CLASSES: [&str; 4] = ["insert", "update", "delete", "read"];
const INSERT: usize = 0;
const UPDATE: usize = 1;
const DELETE: usize = 2;
const READ: usize = 3;

/// Sizes and cadence of one `write_churn` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Live rows in the sliding window.
    pub live: i64,
    /// Rows inserted, and rows deleted by one `delete_where`, per cycle.
    pub batch: i64,
    /// Single-row `update_where` calls per cycle.
    pub updates: usize,
    /// Point reads per cycle.
    pub reads: usize,
    /// Writes between two `Db::checkpoint` calls.
    pub checkpoint_every: u64,
    /// Updates and reads target the newest this many IDs.
    pub recent: i64,
    /// Cycles between two restarts from a freshly loaded table.
    pub epoch_cycles: u64,
    /// Buffer-pool capacity, pages.
    pub pool_pages: usize,
    /// Set-ups timed (the last one is measured).
    pub setups: usize,
}

/// The standard sizes, or tiny ones for tests.
pub fn config(tiny: bool) -> Config {
    if tiny {
        Config {
            live: 400,
            batch: 10,
            updates: 2,
            reads: 5,
            checkpoint_every: 40,
            recent: 100,
            epoch_cycles: 6,
            pool_pages: 256,
            setups: 1,
        }
    } else {
        Config {
            live: 10_000,
            batch: 50,
            updates: 2,
            reads: 20,
            checkpoint_every: 1_000,
            recent: 1_000,
            epoch_cycles: 100,
            pool_pages: 4_096,
            setups: 5,
        }
    }
}

/// The PAYLOAD of row `id`: fixed by the ID, so the shadow keeps only V.
fn payload(id: i64) -> String {
    format!(
        "event-{id:012}-{:016x}",
        (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    )
}

fn row_bytes(id: i64) -> u64 {
    16 + payload(id).len() as u64
}

fn row(id: i64, v: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Int(v), Value::Str(payload(id))]
}

/// The benchmark side of the sliding window: the live IDs `lo..hi` and
/// each one's V.
struct Window {
    lo: i64,
    vals: VecDeque<i64>,
}

impl Window {
    fn hi(&self) -> i64 {
        self.lo + self.vals.len() as i64
    }

    fn recent(&self, rng: &mut Rng, span: i64) -> i64 {
        let hi = self.hi();
        rng.range((hi - span).max(self.lo), hi - 1)
    }

    fn v(&self, id: i64) -> Option<i64> {
        usize::try_from(id - self.lo)
            .ok()
            .and_then(|i| self.vals.get(i).copied())
    }

    fn check_read(&self, id: i64, r: &QueryResult) -> bool {
        let Some(v) = self.v(id) else {
            return false;
        };
        r.rows.len() == 1 && r.rows[0] == row(id, v)
    }
}

fn open(dir: &Path, cfg: &Config) -> Result<Db, QueryError> {
    Db::builder().path(dir).pool_pages(cfg.pool_pages).open()
}

fn wal_bytes(dir: &Path) -> u64 {
    FilePageStore::wal_segments(dir)
        .map(|segs| {
            segs.iter()
                .filter_map(|(_, p)| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The running workload: database, shadow window, and the client's state.
struct Churn {
    cfg: Config,
    seed: u64,
    db: Db,
    /// Scratch directory holding one database directory per epoch.
    base: PathBuf,
    dir: PathBuf,
    win: Window,
    rng: Rng,
    cycle: Vec<usize>,
    epoch: u64,
    cycles_in_epoch: u64,
    writes_since_checkpoint: u64,
    /// Engine counters and session-meter work accumulated across
    /// restarts (each restart brings fresh counters), and their readings
    /// at the last sync.
    engine: EngineCounters,
    engine_base: EngineCounters,
    meter: CostSnapshot,
    meter_base: CostSnapshot,
    delete_pred: Expr,
    update_pred: Expr,
    spans: Spans,
    sink: Arc<EventTally>,
    seq: u64,
}

impl Churn {
    fn opts(&self, traced: bool, params: &[(&str, i64)]) -> QueryOptions {
        let o = params
            .iter()
            .fold(QueryOptions::new(), |o, &(n, v)| o.with_param(n, v));
        if traced {
            o.with_trace(self.sink.clone())
        } else {
            o
        }
    }

    /// Runs one statement of `class` and records it in `t`.
    fn step(&mut self, class: usize, traced: bool, t: &mut Tally) {
        self.seq += 1;
        let id = self.seq;
        let meter0 = self.db.cost().snapshot().total;
        let outer = self.spans.open("stmt", id);
        let (ns, ok, units, rows) = match class {
            INSERT => {
                let key = self.win.hi();
                let v = self.rng.range(0, 1_000_000);
                let span = self.spans.open("insert", id);
                let t0 = Instant::now();
                let r = self.db.insert("EVENTS", row(key, v));
                let ns = t0.elapsed().as_nanos() as u64;
                self.spans.close(span);
                if r.is_ok() {
                    self.win.vals.push_back(v);
                    t.user_bytes += row_bytes(key);
                }
                (ns, r.is_ok(), self.db.cost().snapshot().total - meter0, 1)
            }
            UPDATE => {
                let key = self.win.recent(&mut self.rng, self.cfg.recent);
                let v = self.rng.range(0, 1_000_000);
                let opts = self.opts(traced, &[("I", key)]);
                let span = self.spans.open("update_where", id);
                let t0 = Instant::now();
                let r =
                    self.db
                        .update_where("EVENTS", "V", Value::Int(v), &self.update_pred, &opts);
                let ns = t0.elapsed().as_nanos() as u64;
                self.spans.close(span);
                let ok = matches!(r, Ok(1));
                if ok {
                    let slot = (key - self.win.lo) as usize;
                    self.win.vals[slot] = v;
                    t.user_bytes += 8;
                }
                (ns, ok, self.db.cost().snapshot().total - meter0, 1)
            }
            DELETE => {
                let (lo, hi) = (self.win.lo, self.win.lo + self.cfg.batch - 1);
                let opts = self.opts(traced, &[("L", lo), ("H", hi)]);
                let span = self.spans.open("delete_where", id);
                let t0 = Instant::now();
                let r = self.db.delete_where("EVENTS", &self.delete_pred, &opts);
                let ns = t0.elapsed().as_nanos() as u64;
                self.spans.close(span);
                let ok = matches!(r, Ok(n) if n as i64 == self.cfg.batch);
                if ok {
                    self.win.vals.drain(..self.cfg.batch as usize);
                    self.win.lo += self.cfg.batch;
                }
                (
                    ns,
                    ok,
                    self.db.cost().snapshot().total - meter0,
                    self.cfg.batch as u64,
                )
            }
            _ => {
                let key = self.win.recent(&mut self.rng, 2 * self.cfg.recent);
                let opts = self.opts(traced, &[("I", key)]);
                let span = self.spans.open("parse", id);
                let t0 = Instant::now();
                let spec = parse_query(READ_TEXT);
                self.spans.close(span);
                let span = self.spans.open("execute", id);
                let r = spec.and_then(|s| self.db.query_spec(&s, &opts));
                let ns = t0.elapsed().as_nanos() as u64;
                self.spans.close(span);
                let span = self.spans.open("verify", id);
                let ok = r.as_ref().is_ok_and(|r| self.win.check_read(key, r));
                self.spans.close(span);
                let cost = r.as_ref().map_or(0.0, |r| r.cost);
                (ns, ok, cost, r.map_or(0, |r| r.rows.len() as u64))
            }
        };
        self.spans.close(outer);
        t.attempted += 1;
        if !ok {
            t.failed += 1;
            if t.failed <= 3 {
                eprintln!("perfbench: {} failed or answered wrong", CLASSES[class]);
            }
            return;
        }
        t.rows += rows;
        t.record(class, ns, units);
        if class == READ {
            t.read_ns.record(ns);
        } else {
            t.writes += 1;
            t.write_ns.record(ns);
            self.writes_since_checkpoint += 1;
        }
    }

    /// Checkpoints (timed); the time counts in the window's qps.
    fn checkpoint(&mut self, traced: bool, probes: &mut Probes) -> Result<(), QueryError> {
        let wal_before = if traced { wal_bytes(&self.dir) } else { 0 };
        let span = self.spans.open("checkpoint", self.seq);
        let t0 = Instant::now();
        let stats = self.db.checkpoint();
        let ms = t0.elapsed().as_nanos() as f64 / 1e6;
        self.spans.close(span);
        let stats = stats?;
        self.writes_since_checkpoint = 0;
        if traced {
            probes.checkpoint_ms.push(ms);
            probes.checkpoint_pages.push(stats.pages_written as f64);
            probes.wal_growth_bytes += wal_before.saturating_sub(wal_bytes(&self.dir));
        }
        Ok(())
    }

    /// Folds the counters since the last sync into the accumulators.
    fn sync(&mut self) {
        let engine = EngineCounters::read(&self.db);
        let meter = self.db.cost().snapshot();
        self.engine = self.engine.add(&engine.since(&self.engine_base));
        self.meter = add_snapshots(&self.meter, &meter.since(&self.meter_base));
        self.engine_base = engine;
        self.meter_base = meter;
    }

    /// Starts the next epoch on a freshly loaded table, as set-up built it.
    fn restart(&mut self) -> Result<(), QueryError> {
        self.sync();
        let span = self.spans.open("restart", self.seq);
        self.epoch += 1;
        let dir = self.base.join(format!("churn-epoch-{}", self.epoch));
        let (db, win) = build(&dir, &self.cfg, self.seed)?;
        db.close()?;
        let old = std::mem::replace(&mut self.db, open(&dir, &self.cfg)?);
        drop(old);
        let _ = std::fs::remove_dir_all(std::mem::replace(&mut self.dir, dir));
        self.spans.close(span);
        self.win = win;
        self.cycles_in_epoch = 0;
        self.writes_since_checkpoint = 0;
        self.engine_base = EngineCounters::read(&self.db);
        self.meter_base = self.db.cost().snapshot();
        Ok(())
    }

    /// One closed-loop window of `seconds` of measured time; restarts
    /// pause the clock. Returns the tally and the engine counter deltas.
    fn window(
        &mut self,
        seconds: f64,
        traced: bool,
        probes: &mut Probes,
    ) -> (Tally, EngineCounters) {
        let mut t = Tally::new(CLASSES.len());
        self.spans.set_enabled(traced);
        self.sync();
        self.engine = EngineCounters::default();
        self.meter = CostSnapshot::default();
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        while start.elapsed() < Duration::from_secs_f64(seconds) + paused {
            if self.cycle.is_empty() {
                if self.cycles_in_epoch == self.cfg.epoch_cycles {
                    let t0 = Instant::now();
                    if self.restart().is_err() {
                        t.attempted += 1;
                        t.failed += 1;
                        break;
                    }
                    paused += t0.elapsed();
                }
                self.cycle = cycle_ops(&self.cfg, &mut self.rng);
                self.cycles_in_epoch += 1;
            }
            let class = self.cycle.pop().expect("cycle refilled above");
            self.step(class, traced, &mut t);
            if self.writes_since_checkpoint >= self.cfg.checkpoint_every
                && self.checkpoint(traced, probes).is_err()
            {
                t.attempted += 1;
                t.failed += 1;
            }
        }
        t.elapsed_s = start.elapsed().saturating_sub(paused).as_secs_f64();
        self.sync();
        t.meter = self.meter;
        (t, self.engine)
    }
}

/// One cycle's statements in a seeded order: `batch` inserts, one batch
/// delete, `updates` updates and `reads` point reads, so the window keeps
/// its size.
fn cycle_ops(cfg: &Config, rng: &mut Rng) -> Vec<usize> {
    let mut ops = vec![INSERT; cfg.batch as usize];
    ops.push(DELETE);
    ops.extend(std::iter::repeat_n(UPDATE, cfg.updates));
    ops.extend(std::iter::repeat_n(READ, cfg.reads));
    rng.shuffle(&mut ops);
    ops
}

fn build(dir: &Path, cfg: &Config, seed: u64) -> Result<(Db, Window), QueryError> {
    let mut rng = Rng::new(seed, 3);
    let mut db = open(dir, cfg)?;
    db.create_table(
        "EVENTS",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("V", ValueType::Int),
            Column::new("PAYLOAD", ValueType::Str),
        ]),
    )?;
    let mut vals = VecDeque::new();
    for id in 0..cfg.live {
        let v = rng.range(0, 1_000_000);
        db.insert("EVENTS", row(id, v))?;
        vals.push_back(v);
    }
    db.create_index("IDX_EVENTS_ID", "EVENTS", &["ID"])?;
    Ok((db, Window { lo: 0, vals }))
}

/// Runs the workload; durable files live under `args.dir`.
pub fn run(args: &RunArgs) -> Result<Outcome, QueryError> {
    let cfg = config(args.tiny);
    let set = durable_setups(
        &args.dir,
        "churn",
        cfg.setups,
        args.trace,
        |dir| build(dir, &cfg, args.seed),
        |dir| open(dir, &cfg),
    )?;
    let (db, win, dir) = (set.db, set.data, set.dir);
    let (setup_s, mut probes) = (set.setup.seconds, set.setup.probes);
    let pred = |sql: &str| parse_query(sql).map(|s| s.predicate);
    let (engine_base, meter_base) = (EngineCounters::read(&db), db.cost().snapshot());
    let mut churn = Churn {
        cfg,
        seed: args.seed,
        db,
        base: args.dir.clone(),
        dir,
        win,
        rng: Rng::new(args.seed, 300),
        cycle: Vec::new(),
        epoch: 0,
        cycles_in_epoch: 0,
        writes_since_checkpoint: 0,
        engine: EngineCounters::default(),
        engine_base,
        meter: CostSnapshot::default(),
        meter_base,
        delete_pred: pred("select * from EVENTS where ID between :L and :H")?,
        update_pred: pred("select * from EVENTS where ID = :I")?,
        spans: set.setup.spans,
        sink: Arc::new(EventTally::default()),
        seq: 0,
    };

    let mut meta = vec![
        ("rows", cfg.live.to_string()),
        ("clients", "1".to_string()),
        ("durable", "true".to_string()),
        ("checkpoint_every_writes", cfg.checkpoint_every.to_string()),
        (
            "wal_sync_policy",
            "\"fsync at checkpoint only\"".to_string(),
        ),
        (
            "cycle",
            format!(
                "\"{} inserts, 1 delete of {}, {} updates, {} reads\"",
                cfg.batch, cfg.batch, cfg.updates, cfg.reads
            ),
        ),
        ("cycles_per_epoch", cfg.epoch_cycles.to_string()),
    ];
    footprint_meta(&churn.db, &["EVENTS"], &mut meta);

    let mut scratch = Probes::default();
    churn.window(0.3_f64.min(args.seconds / 4.0), false, &mut scratch);
    let mut untraced = Tally::new(CLASSES.len());
    let mut run = TracedRun {
        tally: Tally::new(CLASSES.len()),
        ..TracedRun::default()
    };
    for (seconds, traced) in schedule(args.seconds, args.trace) {
        let (t, engine) = churn.window(seconds, traced, &mut probes);
        if traced {
            run.engine = run.engine.add(&engine);
            run.tally.merge(t);
        } else {
            untraced.merge(t);
        }
    }
    let rss = rss_mb();

    churn.checkpoint(false, &mut scratch)?;
    meta.push((
        "data_pages_end",
        footprint_pages(&churn.db, &["EVENTS"]).to_string(),
    ));
    let live_bytes: u64 = (churn.win.lo..churn.win.hi()).map(row_bytes).sum();
    let disk_ratio = dir_bytes(&churn.dir) as f64 / live_bytes as f64;

    let mut out = Outcome {
        setup_s,
        rss_mb: rss,
        disk_bytes_per_user_byte: Some(disk_ratio),
        classes: CLASSES.to_vec(),
        meta,
        ..Outcome::default()
    };
    if args.trace {
        probe_churn(&churn, &mut probes);
        run.untraced = untraced.clone();
        run.events = churn.sink.counts();
        run.parse_us = churn.spans.durations_us("parse");
        run.spans = churn.spans.spans().len() as u64;
        run.spans_dropped = churn.spans.dropped();
        run.probes = probes;
        out.spans.push(churn.spans.spans().to_vec());
        out.traced = Some(run);
    }
    out.untraced = untraced;
    Ok(out)
}

/// The traced run's probes on the point read: ad-hoc tax and agreement,
/// `Db::prepare` after `clear_plan_cache`, optimizer and estimator.
fn probe_churn(churn: &Churn, probes: &mut Probes) {
    let db = &churn.db;
    let mut rng = Rng::new(7, 301);
    for _ in 0..20 {
        let key = churn.win.recent(&mut rng, churn.cfg.recent);
        let opts = QueryOptions::new().with_param("I", key);
        let check = |r: &QueryResult| churn.win.check_read(key, r);
        match db.prepare(READ_TEXT) {
            Ok(handle) => probe_adhoc_tax(
                probes,
                || timed_check(|| db.query(READ_TEXT, &opts), check),
                || timed_check(|| handle.execute(&opts), check),
            ),
            Err(_) => {
                probes.agree_checked += 1;
                probes.agree_failed += 1;
            }
        }
    }
    probe_prepare(db, &[READ_TEXT], probes);
    for _ in 0..100 {
        let key = churn.win.recent(&mut rng, 2 * churn.cfg.recent);
        probe_optimizer(db, "EVENTS", &[Cond::eq(0, key)], Shape::Ids, probes);
    }
}
