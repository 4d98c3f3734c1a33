//! The background stage of the competitive tactics (paper Figure 4),
//! behind one handle with two implementations.
//!
//! Each tactic of [`crate::tactics`] races a foreground process against a
//! background Jscan. The tactic body asks its [`Background`] handle whose
//! turn is next, runs its own foreground quanta, and lets the handle
//! advance the background:
//!
//! * [`Cooperative`] interleaves both sides on the caller's thread through
//!   a [`ProportionalScheduler`]; a background turn is one Jscan quantum.
//!   This is deterministic, which the simulation oracle and the
//!   EXPLAIN ANALYZE goldens depend on.
//! * [`Threaded`] ([`crate::DynamicConfig::parallel`]) runs the Jscan on a
//!   scoped worker thread that streams refinements — the current
//!   guaranteed-best cost, fresh borrowable RIDs, and finally the
//!   [`JscanOutcome`] — over an mpsc channel; a background turn handles
//!   one received message. The worker charges a private meter, so the
//!   foreground's spend-versus-best arithmetic is not polluted by
//!   concurrent charging; [`threaded`] absorbs that meter into the session
//!   meter at join (see [`rdb_storage::CostMeter::absorb`]). The worker's
//!   Jscan traces through a [`crate::trace::Tracer::for_stage`] handle, so
//!   its events carry [`crate::trace::Stage::Background`].
//!
//! Delivered row sets are the same under both handles: the exclusion
//! logic does not depend on the interleaving. Under [`Threaded`], delivery
//! order and per-run cost splits depend on thread timing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use rdb_competition::ProportionalScheduler;
use rdb_storage::{shared_meter, HeapTable, Rid, SharedCost};

use crate::jscan::{Jscan, JscanOutcome, JscanStatus};
use crate::trace::RunTrace;

/// Which side of the race runs the next quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// The tactic's own foreground process.
    Foreground,
    /// The background Jscan ([`Background::advance`]).
    Background,
}

/// The background Jscan of one tactic run, as the tactic body sees it.
pub(crate) trait Background {
    /// Grants the next quantum, or `None` when neither side can run.
    /// `fgr_ready` says whether the foreground has work it can do on its
    /// own; a threaded background blocks for news while it has none.
    fn next_turn(&mut self, fgr_ready: bool) -> Option<Turn>;

    /// Runs one background turn. Once the Jscan has finished, returns its
    /// outcome; the background gets no further turns after that.
    fn advance(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome>;

    /// Runs the background to its outcome with no foreground (the
    /// background-only tactic). `None` when there is no background.
    fn complete(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
        self.retire_foreground();
        while self.next_turn(false).is_some() {
            if let Some(outcome) = self.advance(rt) {
                return Some(outcome);
            }
        }
        None
    }

    /// Moves the RIDs the background freshly made borrowable into `into`.
    fn lend(&mut self, into: &mut VecDeque<Rid>);

    /// True while the borrow stream may still grow.
    fn lending(&self) -> bool;

    /// The background's latest guaranteed-best retrieval cost.
    fn guaranteed_best(&self) -> f64;

    /// True while the background still competes.
    fn running(&self) -> bool;

    /// Takes the foreground out of the race.
    fn retire_foreground(&mut self);

    /// Kills the background.
    fn abandon(&mut self);
}

const FGR: usize = 0;
const BGR: usize = 1;

/// Both sides on the caller's thread, interleaved at proportional speeds.
pub(crate) struct Cooperative<'a> {
    jscan: Option<Jscan<'a>>,
    sched: ProportionalScheduler,
    /// Borrow cursor into the Jscan's borrowable stream.
    lent: usize,
}

impl<'a> Cooperative<'a> {
    /// A race of a foreground at `speed` (relative to the background's
    /// 1.0) against `jscan`; with no Jscan the foreground runs alone.
    pub(crate) fn new(jscan: Option<Jscan<'a>>, speed: f64) -> Self {
        let mut sched = ProportionalScheduler::new(vec![speed, 1.0]);
        if jscan.is_none() {
            sched.deactivate(BGR);
        }
        Cooperative {
            jscan,
            sched,
            lent: 0,
        }
    }
}

impl Background for Cooperative<'_> {
    fn next_turn(&mut self, _fgr_ready: bool) -> Option<Turn> {
        Some(match self.sched.next()? {
            FGR => Turn::Foreground,
            _ => Turn::Background,
        })
    }

    fn advance(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
        let jscan = self.jscan.as_mut()?;
        let status = jscan.step();
        rt.phase("jscan");
        if status == JscanStatus::Running {
            return None;
        }
        let outcome = jscan.take_outcome();
        self.abandon();
        Some(outcome)
    }

    fn complete(&mut self, rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
        let outcome = self.jscan.take()?.run();
        rt.phase("jscan");
        Some(outcome)
    }

    fn lend(&mut self, into: &mut VecDeque<Rid>) {
        if let Some(jscan) = &self.jscan {
            let (next, fresh) = jscan.borrow_rids(self.lent);
            self.lent = next;
            into.extend(fresh.iter().copied());
        }
    }

    fn lending(&self) -> bool {
        self.jscan.as_ref().is_some_and(Jscan::borrow_stream_open)
    }

    fn guaranteed_best(&self) -> f64 {
        self.jscan
            .as_ref()
            .map_or(f64::INFINITY, Jscan::guaranteed_best)
    }

    fn running(&self) -> bool {
        self.jscan.is_some()
    }

    fn retire_foreground(&mut self) {
        self.sched.deactivate(FGR);
    }

    fn abandon(&mut self) {
        self.jscan = None;
        self.sched.deactivate(BGR);
    }
}

/// One refinement message from the worker to the foreground.
enum Update {
    /// The competition moved: a new guaranteed-best bound and the RIDs
    /// freshly available for borrowing.
    Progress {
        guaranteed_best: f64,
        fresh_rids: Vec<Rid>,
    },
    /// The joint scan finished.
    Done(JscanOutcome),
}

/// The Jscan on a scoped worker thread, seen from the foreground thread.
/// Dropping the handle raises the abandon latch, so every exit from the
/// tactic body stops the worker.
pub(crate) struct Threaded<'s> {
    rx: mpsc::Receiver<Update>,
    abandon: &'s AtomicBool,
    /// A received message waiting for its background turn.
    inbox: Option<Update>,
    lendable: Vec<Rid>,
    best: f64,
    foreground: bool,
    /// The foreground takes the next turn if it can work: it moves first,
    /// then alternates with the messages.
    fgr_due: bool,
    open: bool,
}

impl Drop for Threaded<'_> {
    fn drop(&mut self) {
        // Relaxed: advisory latch (see the worker).
        self.abandon.store(true, Ordering::Relaxed);
    }
}

/// A fresh private meter for a worker-thread background stage over
/// `table`.
pub(crate) fn private_meter(table: &HeapTable) -> SharedCost {
    shared_meter(table.pool().cost_config())
}

/// Runs `body` against a [`Threaded`] handle whose `jscan` (built on
/// `meter`, see [`private_meter`]) works on a scoped worker thread, then
/// absorbs `meter` into the session meter `cost`. With `lend`, the worker
/// streams the RIDs it makes borrowable.
pub(crate) fn threaded<R>(
    jscan: Jscan<'_>,
    meter: &SharedCost,
    cost: &SharedCost,
    lend: bool,
    body: impl FnOnce(&mut Threaded<'_>) -> R,
) -> R {
    let best = jscan.guaranteed_best();
    let abandon = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let result = std::thread::scope(|s| {
        s.spawn(|| worker(jscan, tx, &abandon, lend));
        body(&mut Threaded {
            rx,
            abandon: &abandon,
            inbox: None,
            lendable: Vec::new(),
            best,
            foreground: true,
            fgr_due: true,
            open: true,
        })
    });
    cost.absorb(&meter.snapshot());
    result
}

/// Worker loop: steps the Jscan to completion, streaming refinements,
/// until it finishes, the latch is raised or the foreground hangs up.
fn worker(mut jscan: Jscan<'_>, tx: mpsc::Sender<Update>, abandon: &AtomicBool, lend: bool) {
    let mut cursor = 0usize;
    let mut last_best = f64::INFINITY;
    // Relaxed: the abandon flag is an advisory latch — the background
    // stage may run at most one extra quantum after it flips, and all
    // result hand-off happens through the channel/join, which orders.
    while !abandon.load(Ordering::Relaxed) {
        let status = jscan.step();
        let (next, fresh) = jscan.borrow_rids(cursor);
        let fresh_rids = if lend { fresh.to_vec() } else { Vec::new() };
        cursor = next;
        if status == JscanStatus::Finished {
            let _ = tx.send(Update::Done(jscan.take_outcome()));
            break;
        }
        let best = jscan.guaranteed_best();
        if !fresh_rids.is_empty() || best != last_best {
            last_best = best;
            let progress = Update::Progress {
                guaranteed_best: best,
                fresh_rids,
            };
            if tx.send(progress).is_err() {
                break; // foreground gone: nothing left to refine
            }
        }
    }
    // Scoped-thread completion is observable before TLS destructors run,
    // so the worker flushes its deferred buffer-pool state (hit tallies +
    // LRU promotions) itself — the foreground may read pool stats the
    // moment the scope ends.
    jscan.pool().flush_session();
}

impl Background for Threaded<'_> {
    fn next_turn(&mut self, fgr_ready: bool) -> Option<Turn> {
        let fgr_can_run = self.foreground && fgr_ready;
        if self.open && !(fgr_can_run && self.fgr_due) {
            // Poll while the foreground can work; block when it cannot.
            let received = if fgr_can_run {
                self.rx
                    .try_recv()
                    .map_err(|e| e == mpsc::TryRecvError::Disconnected)
            } else {
                self.rx.recv().map_err(|_| true)
            };
            match received {
                Ok(message) => {
                    self.inbox = Some(message);
                    self.fgr_due = true;
                    return Some(Turn::Background);
                }
                Err(disconnected) => self.open = !disconnected,
            }
        }
        self.fgr_due = false;
        self.foreground.then_some(Turn::Foreground)
    }

    fn advance(&mut self, _rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
        match self.inbox.take()? {
            Update::Progress {
                guaranteed_best,
                fresh_rids,
            } => {
                self.best = guaranteed_best;
                if self.foreground {
                    self.lendable.extend(fresh_rids);
                }
                None
            }
            Update::Done(outcome) => {
                self.open = false;
                Some(outcome)
            }
        }
    }

    fn lend(&mut self, into: &mut VecDeque<Rid>) {
        into.extend(self.lendable.drain(..));
    }

    fn lending(&self) -> bool {
        self.open
    }

    fn guaranteed_best(&self) -> f64 {
        self.best
    }

    fn running(&self) -> bool {
        self.open
    }

    fn retire_foreground(&mut self) {
        self.foreground = false;
    }

    fn abandon(&mut self) {
        // Relaxed: advisory latch (see the worker).
        self.abandon.store(true, Ordering::Relaxed);
        self.open = false;
    }
}
