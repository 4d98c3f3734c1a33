//! What every workload returns, and the runner shared by the two read
//! workloads (`oltp_warm` and `olap_beyond_ram`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdb_query::parser::parse_query;
use rdb_query::{Db, QueryError, QueryOptions, QueryResult};

use crate::data::{Cond, Shadow, Shape};
use crate::drive::{
    run_reads, schedule, Client, EngineCounters, EventCounts, EventTally, Stmt, Tally,
};
use crate::layers::{
    probe_adhoc_tax, probe_optimizer, probe_prepare, time_us, timed_check, Probes, TracedRun,
};
use crate::span::{Span, Spans};

/// Benchmark arguments, as given on the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: same seed, same inputs.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny tables and statement lists (the benchmark's own tests).
    pub tiny: bool,
    /// Scratch directory for durable databases; removed afterwards.
    pub dir: PathBuf,
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall-clock seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Untraced windows, merged: the source of end-to-end metrics.
    pub untraced: Tally,
    /// Traced run only: what the per-layer metrics are computed from.
    pub traced: Option<TracedRun>,
    /// Resident memory at the end of the measured phase, MiB.
    pub rss_mb: f64,
    /// Durable workloads: database bytes on disk after the final
    /// checkpoint over the bytes of the live rows' values.
    pub disk_bytes_per_user_byte: Option<f64>,
    /// Statement class names (index = class).
    pub classes: Vec<&'static str>,
    /// Run metadata: name and JSON-encoded value.
    pub meta: Vec<(&'static str, String)>,
    /// Traced run only: the spans each client recorded.
    pub spans: Vec<Vec<Span>>,
}

/// Resident set size of this process, MiB (`VmRSS` of `/proc/self/status`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Heap pages plus index nodes of `tables`: the pages the workload can
/// touch, to compare with the pool's capacity.
pub fn footprint_pages(db: &Db, tables: &[&str]) -> u64 {
    tables
        .iter()
        .map(|t| {
            let heap = db.heap(t).map_or(0, |h| u64::from(h.page_count()));
            let index: u64 = db.indexes(t).map_or(0, |ix| {
                ix.iter().map(|i| u64::from(i.stats().node_count)).sum()
            });
            heap + index
        })
        .sum()
}

/// Metadata describing the data's size against the pool.
pub fn footprint_meta(db: &Db, tables: &[&str], meta: &mut Vec<(&'static str, String)>) {
    let pages = footprint_pages(db, tables);
    let pool = db.pool().capacity() as u64;
    meta.push(("data_pages", pages.to_string()));
    meta.push(("pool_pages", pool.to_string()));
    meta.push(("fits_in_pool", (pages <= pool).to_string()));
}

/// Builds one statement: bindings, oracle answer and traced twin.
#[allow(clippy::too_many_arguments)]
pub fn make_stmt(
    shadow: &Shadow,
    sink: &Arc<EventTally>,
    class: usize,
    text: usize,
    params: &[(&str, i64)],
    conds: Vec<Cond>,
    shape: Shape,
    prepared: bool,
) -> Stmt {
    let opts = params
        .iter()
        .fold(QueryOptions::new(), |o, &(name, v)| o.with_param(name, v));
    let traced_opts = opts.clone().with_trace(sink.clone());
    let expect = shadow.expect(&conds, shape);
    Stmt {
        class,
        text,
        opts,
        traced_opts,
        conds,
        shape,
        expect,
        prepared,
    }
}

/// What a workload's set-ups measured.
#[derive(Debug)]
pub struct Setup {
    /// Wall-clock seconds of each set-up.
    pub seconds: Vec<f64>,
    /// Open times and records replayed (durable workloads).
    pub probes: Probes,
    /// Set-up spans (`setup`, and `load`, `close`, `open` when durable).
    pub spans: Spans,
}

/// A durable database after its timed set-ups.
pub struct DurableSetup<T> {
    /// The database of the last set-up, reopened.
    pub db: Db,
    /// What `load` returned besides the database (the shadow's data).
    pub data: T,
    /// Its directory.
    pub dir: PathBuf,
    /// What the set-ups measured.
    pub setup: Setup,
}

/// Sets a durable database up `times` times, each in a fresh directory
/// `<base>/<name>-<k>`: `load` creates and fills it, `Db::close`
/// checkpoints it, and `open` reopens it, timed on its own. Only the last
/// set-up's directory is kept.
pub fn durable_setups<T>(
    base: &Path,
    name: &str,
    times: usize,
    trace: bool,
    mut load: impl FnMut(&Path) -> Result<(Db, T), QueryError>,
    open: impl Fn(&Path) -> Result<Db, QueryError>,
) -> Result<DurableSetup<T>, QueryError> {
    let mut spans = Spans::new(trace, Instant::now());
    let (mut setup_s, mut probes) = (Vec::new(), Probes::default());
    let mut built = None;
    for k in 0..times.max(1) {
        if let Some((db, _, old_dir)) = built.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(&old_dir);
        }
        let dir = base.join(format!("{name}-{k}"));
        let setup = spans.open("setup", 0);
        let t0 = Instant::now();
        let span = spans.open("load", 0);
        let (db, data) = load(&dir)?;
        spans.close(span);
        let span = spans.open("close", 0);
        db.close()?;
        spans.close(span);
        let span = spans.open("open", 0);
        let (db, us) = time_us(|| open(&dir));
        let db = db?;
        spans.close(span);
        setup_s.push(t0.elapsed().as_secs_f64());
        spans.close(setup);
        probes.open_ms.push(us / 1e3);
        probes.records_replayed = db.recovery_report().map_or(0, |r| r.records_applied);
        built = Some((db, data, dir));
    }
    let (db, data, dir) = built.expect("at least one set-up");
    Ok(DurableSetup {
        db,
        data,
        dir,
        setup: Setup {
            seconds: setup_s,
            probes,
            spans,
        },
    })
}

/// A read workload, ready to measure.
pub struct ReadWorkload {
    /// Statement texts (index = `Stmt::text`).
    pub texts: Vec<&'static str>,
    /// Statement class names (index = `Stmt::class`).
    pub classes: Vec<&'static str>,
    /// The table single-table statements read.
    pub table: &'static str,
    /// Untraced warm-up before measuring, seconds.
    pub warmup_s: f64,
    /// The database, after set-up.
    pub db: Db,
    /// The oracle.
    pub shadow: Shadow,
    /// One per client thread.
    pub clients: Vec<Client>,
    /// What the set-ups measured.
    pub setup: Setup,
    /// Workload metadata.
    pub meta: Vec<(&'static str, String)>,
}

/// Creates a client with an empty statement list.
pub fn new_client(id: usize, epoch: Instant) -> Client {
    Client {
        id,
        stmts: Vec::new(),
        pos: 0,
        seq: 0,
        spans: Spans::new(false, epoch),
        sink: Arc::new(EventTally::default()),
    }
}

fn window(w: &mut ReadWorkload, seconds: f64, traced: bool) -> Tally {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (db, texts, classes, shadow) = (&w.db, &w.texts, w.classes.len(), &w.shadow);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = w
            .clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let session = db.session();
                    run_reads(&session, client, texts, classes, shadow, deadline, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    Tally::concurrent(parts)
}

/// Warms up, measures the run's windows and, for a traced run, probes the
/// layers; returns the outcome.
pub fn measure_reads(args: &RunArgs, mut w: ReadWorkload) -> Outcome {
    let warmup_s = w.warmup_s;
    window(&mut w, warmup_s, false);
    let mut untraced = Tally::new(w.classes.len());
    let mut run = TracedRun {
        tally: Tally::new(w.classes.len()),
        ..TracedRun::default()
    };
    for (seconds, traced) in schedule(args.seconds, args.trace) {
        let before = EngineCounters::read(&w.db);
        let tally = window(&mut w, seconds, traced);
        if traced {
            run.engine = run.engine.add(&EngineCounters::read(&w.db).since(&before));
            run.tally.merge(tally);
        } else {
            untraced.merge(tally);
        }
    }
    let rss_mb = rss_mb();
    let mut out = Outcome {
        setup_s: w.setup.seconds.clone(),
        rss_mb,
        classes: w.classes.clone(),
        meta: w.meta.clone(),
        ..Outcome::default()
    };
    if args.trace {
        run.untraced = untraced.clone();
        run.events = w
            .clients
            .iter()
            .fold(EventCounts::default(), |acc, c| acc.add(&c.sink.counts()));
        out.spans.push(w.setup.spans.spans().to_vec());
        for c in &w.clients {
            run.parse_us.extend(c.spans.durations_us("parse"));
            run.spans += c.spans.spans().len() as u64;
            run.spans_dropped += c.spans.dropped();
            out.spans.push(c.spans.spans().to_vec());
        }
        run.probes = w.setup.probes.clone();
        probe_reads(&w, &mut run.probes);
        out.traced = Some(run);
    }
    out.untraced = untraced;
    out
}

/// The traced run's probes: the ad-hoc tax (and ad-hoc/prepared
/// agreement), `Db::prepare` after `clear_plan_cache`, and the optimizer
/// and estimator on the statements' bound conditions.
fn probe_reads(w: &ReadWorkload, probes: &mut Probes) {
    let session = w.db.session();
    let budget = Instant::now() + Duration::from_millis(1500);
    for stmt in w.clients[0].stmts.iter().take(40) {
        if Instant::now() > budget {
            break;
        }
        let text = w.texts[stmt.text];
        let check = |r: &QueryResult| w.shadow.check(&stmt.conds, stmt.shape, &stmt.expect, r);
        match session.prepare(text) {
            Ok(handle) => probe_adhoc_tax(
                probes,
                || {
                    timed_check(
                        || parse_query(text).and_then(|s| session.query_spec(&s, &stmt.opts)),
                        check,
                    )
                },
                || timed_check(|| handle.execute(&stmt.opts), check),
            ),
            Err(_) => {
                probes.agree_checked += 1;
                probes.agree_failed += 1;
            }
        }
    }
    probe_prepare(&w.db, &w.texts, probes);
    for stmt in w.clients[0].stmts.iter().take(200) {
        if !matches!(stmt.shape, Shape::Join { .. }) {
            probe_optimizer(&w.db, w.table, &stmt.conds, stmt.shape, probes);
        }
    }
}
