//! The four retrieval tactics of paper Section 7, built on the
//! foreground/background/final-stage structure of Figure 4.
//!
//! * **background-only** — total-time goal, fetch-needed indexes only:
//!   Jscan, then a final stage that sorts the RID list so "several records
//!   on a single page [are accessed] only once".
//! * **fast-first** — same index situation, fast-first goal: a foreground
//!   process *borrows* RIDs from the background Jscan, fetches and
//!   delivers immediately, and is killed by direct competition once
//!   fast-first satisfaction "becomes less realistic".
//! * **sorted** — fast-first with a requested order: a foreground Fscan on
//!   the order-needed index runs in parallel with a background Jscan whose
//!   complete filter then rejects Fscan RIDs *before* fetching.
//! * **index-only** — self-sufficient indexes available: the best Sscan
//!   (foreground, "much safer") races Jscan (background); foreground
//!   buffer overflow kills Jscan, a small complete RID list kills Sscan.
//!
//! Each tactic has one body, written against a background-stage handle
//! (the crate-private `background` module): the Jscan either interleaves
//! cooperatively with the foreground or runs on a worker thread
//! ([`crate::DynamicConfig::parallel`]); the crate-private `race` picks
//! the handle.

use std::collections::VecDeque;

use rdb_competition::KillRules;
use rdb_storage::{HeapTable, Rid, SharedCost, StorageError};

use crate::background::{self, Background, Cooperative, Turn};
use crate::fscan::Fscan;
use crate::jscan::{Jscan, JscanOutcome};
use crate::request::{RecordPred, Sink};
use crate::ridlist::RidList;
use crate::sscan::Sscan;
use crate::trace::{RunTrace, Stage, TraceEvent};
use crate::tscan::{drain, StrategyStep, Tscan};

/// Foreground-process tuning shared by the competitive tactics.
#[derive(Debug, Clone, Copy)]
pub struct FgrConfig {
    /// Capacity of the foreground buffer of delivered RIDs; overflow
    /// terminates the foreground (fast-first) or the background
    /// (index-only, where the foreground is the safer side).
    pub buffer_capacity: usize,
    /// Kill the foreground when its spend exceeds this fraction of the
    /// background's guaranteed-best cost (direct competition).
    pub spend_limit_ratio: f64,
    /// Scheduler speed of the foreground relative to the background's 1.0.
    pub speed: f64,
}

impl Default for FgrConfig {
    fn default() -> Self {
        FgrConfig {
            buffer_capacity: 1024,
            spend_limit_ratio: KillRules::PAPER.spend_limit,
            speed: 1.0,
        }
    }
}

/// What a tactic works against: the table and its total restriction, the
/// foreground tuning, and where rows, trace and cost go.
pub(crate) struct Retrieval<'r, 'o, 't> {
    pub table: &'r HeapTable,
    pub residual: &'r RecordPred,
    pub config: FgrConfig,
    pub sink: &'r mut Sink<'o>,
    pub rt: &'r mut RunTrace<'t>,
    pub cost: &'r SharedCost,
}

/// Final retrieval stage: fetch the listed RIDs in **sorted order** (one
/// page touch per page), evaluate the total restriction, and deliver —
/// excluding RIDs the foreground already delivered.
pub fn final_stage(
    table: &HeapTable,
    list: &RidList,
    residual: &RecordPred,
    exclude: &[Rid],
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
    cost: &SharedCost,
) -> Result<(), StorageError> {
    let result = final_stage_inner(table, list, residual, exclude, sink, cost);
    rt.phase("final-stage");
    result
}

fn final_stage_inner(
    table: &HeapTable,
    list: &RidList,
    residual: &RecordPred,
    exclude: &[Rid],
    sink: &mut Sink,
    cost: &SharedCost,
) -> Result<(), StorageError> {
    let mut rids = list.to_vec()?;
    rids.sort_unstable();
    rids.dedup();
    let mut excluded: Vec<Rid> = exclude.to_vec();
    excluded.sort_unstable();
    for rid in rids {
        if excluded.binary_search(&rid).is_ok() {
            continue;
        }
        match table.fetch(rid, cost) {
            Ok(record) => {
                if residual(&record) && !sink.deliver(rid, Some(record)) {
                    return Ok(());
                }
            }
            // Deleted under us between list build and fetch: skip.
            Err(e) if e.is_benign_for_scan() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Full-table fallback scan, excluding already-delivered RIDs.
pub(crate) fn run_tscan(
    table: &HeapTable,
    residual: &RecordPred,
    exclude: &[Rid],
    sink: &mut Sink,
    rt: &mut RunTrace<'_>,
    cost: &SharedCost,
) -> Result<(), StorageError> {
    let mut excluded: Vec<Rid> = exclude.to_vec();
    excluded.sort_unstable();
    let mut scan = Tscan::new(table, residual.clone(), cost.clone());
    let drained = drain(
        || scan.step(),
        |rid, record| excluded.binary_search(&rid).is_ok() || sink.deliver(rid, record),
    );
    rt.phase("tscan");
    drained.map(|_| ())
}

/// A tactic to race, carrying its foreground scan; the background is
/// always the Jscan.
pub(crate) enum Tactic<'a> {
    /// No foreground: the Jscan, then the final stage.
    BackgroundOnly,
    /// The foreground fetches RIDs borrowed from the background.
    FastFirst,
    /// The foreground is the ordered Fscan.
    Sorted(Fscan<'a>),
    /// The foreground is the self-sufficient Sscan.
    IndexOnly(Sscan<'a>),
}

/// Runs `tactic` against the background Jscan that `build` makes on the
/// meter it is handed (`None`: no background). With `threaded` and a
/// foreground to race, the Jscan works on a worker thread on a private
/// meter; otherwise both sides interleave cooperatively.
pub(crate) fn race<'a>(
    tactic: Tactic<'a>,
    threaded: bool,
    build: impl Fn(&SharedCost) -> Option<Jscan<'a>>,
    ctx: &mut Retrieval<'_, '_, '_>,
) -> Result<&'static str, StorageError> {
    let tracer = ctx.rt.tracer().clone();
    if threaded && !matches!(tactic, Tactic::BackgroundOnly) {
        let meter = background::private_meter(ctx.table);
        if let Some(mut jscan) = build(&meter) {
            jscan.set_tracer(tracer.for_stage(Stage::Background));
            let lend = matches!(tactic, Tactic::FastFirst);
            let cost = ctx.cost.clone();
            return background::threaded(jscan, &meter, &cost, lend, |bg| tactic.run(bg, ctx));
        }
    }
    let jscan = build(ctx.cost).map(|mut jscan| {
        jscan.set_tracer(tracer);
        jscan
    });
    tactic.run(&mut Cooperative::new(jscan, ctx.config.speed), ctx)
}

impl Tactic<'_> {
    fn run(
        self,
        bg: &mut impl Background,
        ctx: &mut Retrieval<'_, '_, '_>,
    ) -> Result<&'static str, StorageError> {
        match self {
            Tactic::BackgroundOnly => background_only(bg, ctx),
            Tactic::FastFirst => fast_first(bg, ctx),
            Tactic::Sorted(fscan) => sorted(fscan, bg, ctx),
            Tactic::IndexOnly(sscan) => index_only(sscan, bg, ctx),
        }
    }
}

/// After the background's race: the final stage over its sure list, or
/// the Tscan fallback when no list beat the full scan. `exclude` holds
/// what the foreground already delivered.
fn finish_background(
    outcome: Option<JscanOutcome>,
    exclude: &[Rid],
    ctx: &mut Retrieval<'_, '_, '_>,
) -> Result<(), StorageError> {
    let Retrieval {
        table,
        residual,
        sink,
        rt,
        cost,
        ..
    } = ctx;
    match outcome {
        Some(JscanOutcome::Empty) => Ok(()),
        Some(JscanOutcome::FinalList(list)) => {
            final_stage(table, &list, residual, exclude, sink, rt, cost)
        }
        Some(JscanOutcome::UseTscan) | None => {
            rt.tracer().emit_with(|| TraceEvent::Switch {
                from: "jscan".into(),
                to: "tscan".into(),
                reason: "no surviving RID list beat the full-scan cost".into(),
            });
            run_tscan(table, residual, exclude, sink, rt, cost)
        }
    }
}

/// Background-proved-empty: the Jscan's empty intersection ends the run
/// of the `from` foreground with nothing more to deliver.
fn background_empty(from: &str, strategy: &'static str, rt: &RunTrace<'_>) -> &'static str {
    rt.tracer().emit_with(|| TraceEvent::Switch {
        from: from.into(),
        to: "jscan".into(),
        reason: "background proved the result empty".into(),
    });
    strategy
}

/// **Background-only tactic** (Section 7): total-time optimization with
/// fetch-needed indexes. Runs Jscan to completion, then the final stage
/// (or Tscan if Jscan recommends it).
fn background_only(
    bg: &mut impl Background,
    ctx: &mut Retrieval<'_, '_, '_>,
) -> Result<&'static str, StorageError> {
    let outcome = bg.complete(ctx.rt);
    let strategy = match &outcome {
        Some(JscanOutcome::Empty) => "background-only (empty)",
        Some(JscanOutcome::FinalList(_)) => "background-only (Jscan + final stage)",
        Some(JscanOutcome::UseTscan) | None => "background-only (Jscan -> Tscan)",
    };
    finish_background(outcome, &[], ctx)?;
    Ok(strategy)
}

/// **Fast-first tactic** (Section 7): the foreground borrows RIDs from the
/// background Jscan, fetches and delivers immediately; a direct
/// foreground/background competition decides when immediate delivery stops
/// paying.
fn fast_first(
    bg: &mut impl Background,
    ctx: &mut Retrieval<'_, '_, '_>,
) -> Result<&'static str, StorageError> {
    let mut pending: VecDeque<Rid> = VecDeque::new();
    let mut fgr_buffer: Vec<Rid> = Vec::new();
    let mut fgr_spend = 0.0;
    let mut fgr_alive = true;
    let mut outcome = None;
    let rules = KillRules {
        spend_limit: ctx.config.spend_limit_ratio,
        ..KillRules::PAPER
    };

    while outcome.is_none() {
        let Some(turn) = bg.next_turn(!pending.is_empty()) else {
            break;
        };
        if turn == Turn::Background {
            outcome = bg.advance(ctx.rt);
            if fgr_alive {
                bg.lend(&mut pending);
            }
            continue;
        }
        let Some(rid) = pending.pop_front() else {
            if !bg.lending() {
                // Nothing left to borrow, ever: the foreground has done all
                // it can.
                bg.retire_foreground();
                fgr_alive = false;
            }
            continue;
        };
        let before = ctx.cost.total();
        match ctx.table.fetch(rid, ctx.cost) {
            Ok(record) => {
                if (ctx.residual)(&record) {
                    fgr_buffer.push(rid);
                    if !ctx.sink.deliver(rid, Some(record)) {
                        ctx.rt.phase("foreground");
                        return Ok("fast-first (foreground satisfied)");
                    }
                }
            }
            // Deleted under us: the borrowed RID went stale; skip.
            Err(e) if e.is_benign_for_scan() => {}
            Err(e) => return Err(e),
        }
        fgr_spend += ctx.cost.total() - before;
        ctx.rt.phase("foreground");
        // Direct competition: overflow or overspend kills the foreground.
        let overflow = fgr_buffer.len() >= ctx.config.buffer_capacity;
        if overflow || rules.overspent(fgr_spend, bg.guaranteed_best()) {
            let best = bg.guaranteed_best();
            let ratio = ctx.config.spend_limit_ratio;
            ctx.rt.tracer().emit_with(|| TraceEvent::Switch {
                from: "fast-first".into(),
                to: "background-only".into(),
                reason: if overflow {
                    "foreground buffer overflow".into()
                } else {
                    format!(
                        "foreground spend {fgr_spend:.1} exceeded {:.0}% of guaranteed best {best:.1}",
                        ratio * 100.0
                    )
                },
            });
            bg.retire_foreground();
            fgr_alive = false;
        }
    }

    let strategy = if fgr_alive {
        "fast-first (foreground + background)"
    } else {
        "fast-first (degraded to background-only)"
    };
    finish_background(outcome, &fgr_buffer, ctx)?;
    Ok(strategy)
}

/// **Sorted tactic** (Section 7): foreground Fscan on the order-needed
/// index delivers in order; background Jscan over the other indexes
/// produces a filter that, once complete, rejects Fscan RIDs before
/// fetching.
fn sorted(
    mut fscan: Fscan<'_>,
    bg: &mut impl Background,
    ctx: &mut Retrieval<'_, '_, '_>,
) -> Result<&'static str, StorageError> {
    while let Some(turn) = bg.next_turn(true) {
        if turn == Turn::Background {
            match bg.advance(ctx.rt) {
                // An unselective background leaves the Fscan unfiltered.
                None | Some(JscanOutcome::UseTscan) => {}
                Some(JscanOutcome::Empty) => {
                    let strategy = "sorted (background empty shortcut)";
                    return Ok(background_empty("fscan", strategy, ctx.rt));
                }
                Some(JscanOutcome::FinalList(list)) => {
                    ctx.rt.tracer().emit_with(|| TraceEvent::Note {
                        message: format!(
                            "background filter of {} RIDs installed into Fscan",
                            list.len()
                        ),
                    });
                    fscan.set_filter(list.filter());
                }
            }
            continue;
        }
        let step = fscan.step();
        ctx.rt.phase("fscan");
        match step? {
            StrategyStep::Deliver(rid, record) => {
                if !ctx.sink.deliver(rid, record) {
                    return Ok("sorted (Fscan satisfied)");
                }
            }
            StrategyStep::Progress => {}
            StrategyStep::Done => break,
        }
    }

    let strategy = if fscan.has_filter() {
        "sorted (Fscan + Jscan filter)"
    } else {
        "sorted (Fscan alone)"
    };
    Ok(strategy)
}

/// **Index-only tactic** (Section 7): the best Sscan runs in the
/// foreground, collecting delivered RIDs; Jscan competes in the
/// background. Foreground buffer overflow kills Jscan ("Sscan continues
/// because it is a safer strategy"); a small complete Jscan list kills
/// Sscan in favour of the sure final-stage retrieval.
fn index_only(
    mut sscan: Sscan<'_>,
    bg: &mut impl Background,
    ctx: &mut Retrieval<'_, '_, '_>,
) -> Result<&'static str, StorageError> {
    let mut fgr_buffer: Vec<Rid> = Vec::new();
    // One foreground quantum advances a batch of index entries so that the
    // race against Jscan (which also works in entry batches) compares like
    // with like — the paper's proportional speeds are in work done, not in
    // scheduler slots.
    const FGR_BATCH: usize = 16;

    while let Some(turn) = bg.next_turn(true) {
        if turn == Turn::Background {
            match bg.advance(ctx.rt) {
                None => {}
                Some(JscanOutcome::Empty) => {
                    let strategy = "index-only (background empty shortcut)";
                    return Ok(background_empty("sscan", strategy, ctx.rt));
                }
                Some(JscanOutcome::FinalList(list)) => {
                    // Sure-list victory: Jscan finished first, abandon Sscan.
                    ctx.rt.tracer().emit_with(|| TraceEvent::Switch {
                        from: "sscan".into(),
                        to: "jscan".into(),
                        reason: format!("Jscan finished a sure list of {} RIDs first", list.len()),
                    });
                    finish_background(Some(JscanOutcome::FinalList(list)), &fgr_buffer, ctx)?;
                    return Ok("index-only (Jscan won)");
                }
                Some(JscanOutcome::UseTscan) => {
                    ctx.rt.tracer().emit_with(|| TraceEvent::Switch {
                        from: "jscan".into(),
                        to: "sscan".into(),
                        reason: "background gave up (would recommend Tscan): Sscan continues"
                            .into(),
                    });
                }
            }
            continue;
        }
        let quantum = (|| -> Result<Option<&'static str>, StorageError> {
            for _ in 0..FGR_BATCH {
                match sscan.step()? {
                    StrategyStep::Deliver(rid, record) => {
                        fgr_buffer.push(rid);
                        if !ctx.sink.deliver_from_index(rid, record) {
                            return Ok(Some("index-only (Sscan satisfied)"));
                        }
                        if fgr_buffer.len() >= ctx.config.buffer_capacity && bg.running() {
                            ctx.rt.tracer().emit_with(|| TraceEvent::Switch {
                                from: "jscan".into(),
                                to: "sscan".into(),
                                reason:
                                    "foreground buffer overflow: Jscan terminated, Sscan is safer"
                                        .into(),
                            });
                            bg.abandon();
                        }
                    }
                    StrategyStep::Progress => {}
                    StrategyStep::Done => return Ok(Some("index-only (Sscan won)")),
                }
            }
            Ok(None)
        })();
        ctx.rt.phase("sscan");
        if let Some(strategy) = quantum? {
            return Ok(strategy);
        }
    }
    Ok("index-only (Sscan completed)")
}
