//! The dynamic optimizer: per-run tactic selection and execution
//! (paper Sections 4, 5, 7).
//!
//! "For a given optimization goal, a single scan strategy or a combination
//! of strategies is determined either statically or dynamically at start
//! retrieval time. Static optimization covers such clear cases as
//! selection of Tscan with absence of indexes or selection of Sscan if
//! only one useful index is available and this index is self-sufficient.
//! When the choice of scan is not clear, the dynamic optimizer tries to
//! resolve it by doing inexpensive estimates of scan costs based on
//! parameter values and the current state of data distribution."
//!
//! Because selection happens *after host-variable binding*, the same query
//! naturally gets different strategies on different runs — the paper's
//! `AGE >= :A1` example resolves to Tscan for `:A1 = 0` and to an index
//! strategy for `:A1 = 200`, per run.

use rdb_btree::KeyRange;
use rdb_storage::StorageError;

use crate::fscan::Fscan;
use crate::initial::{InitialPlan, InitialStage, ShortcutKind};
use crate::jscan::{Jscan, JscanConfig, JscanIndex};
use crate::request::{OptimizeGoal, RetrievalRequest, RetrievalResult, Sink};
use crate::sscan::Sscan;
use crate::tactics::{self, FgrConfig, Retrieval, Tactic};
use crate::trace::{RunTrace, TraceEvent, Tracer};
use crate::tscan::{drain, Tscan};

/// Configuration of the dynamic optimizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicConfig {
    /// Joint-scan tuning.
    pub jscan: JscanConfig,
    /// Foreground-process tuning for the competitive tactics.
    pub fgr: FgrConfig,
    /// Initial-stage tuning.
    pub initial: InitialStage,
    /// Run the background Jscan stage of the fast-first, sorted and
    /// index-only tactics on an OS worker thread instead of interleaving
    /// it cooperatively (see [`crate::tactics`]). Off by default: the
    /// cooperative path is deterministic, which the simulation oracle
    /// depends on.
    pub parallel: bool,
}

/// Which tactic the optimizer chose for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TacticChoice {
    /// No indexes: classical sequential retrieval.
    TscanOnly,
    /// An index range is provably empty: deliver end-of-data at once.
    EndOfData,
    /// A tiny range resolves the whole retrieval: direct indexed fetch.
    TinyRangeFetch,
    /// Single useful self-sufficient index: static Sscan.
    SscanStatic,
    /// Total-time, fetch-needed only: Jscan + final stage.
    BackgroundOnly,
    /// Fast-first, fetch-needed only: borrowing foreground vs Jscan.
    FastFirst,
    /// Order requested and an order-needed index exists: Fscan + filter-
    /// producing Jscan.
    Sorted,
    /// Self-sufficient index present: Sscan vs Jscan.
    IndexOnly,
}

/// A remembered winner from a previous execution of the same (prepared)
/// statement: the tactic that produced the rows plus the candidate
/// estimates it was chosen under. A later [`DynamicOptimizer::run_hinted`]
/// favors this tactic as its first strategy — the paper's repeated
/// parameterized query — while leaving every competition kill rule armed,
/// so a drifted parameter still triggers a mid-run switch.
#[derive(Debug, Clone, PartialEq)]
pub struct TacticHint {
    /// The tactic that won the hinting run.
    pub tactic: TacticChoice,
    /// `InitialPlan::jscan_estimates` of the hinting run, used to detect
    /// parameter drift before trusting the tactic again.
    pub estimates: Vec<f64>,
}

/// What [`DynamicOptimizer::run_hinted`] did with the hint it was given.
#[derive(Debug, Clone, PartialEq)]
pub enum HintDisposition {
    /// No hint was provided; the run chose its tactic from scratch.
    NotProvided,
    /// The hinted tactic ran (it matched the fresh choice, or was favored
    /// over it). The payload says which.
    Applied(String),
    /// The hint was discarded; the payload says why (estimate drift,
    /// prerequisite gone, a provably-better shortcut, ...).
    Dropped(String),
}

/// Result bundle of a hinted run: the retrieval outcome, a refreshed hint
/// for the caller's plan cache, and what happened to the incoming hint.
#[derive(Debug)]
pub struct HintedRun {
    /// The retrieval result, identical in shape to [`DynamicOptimizer::run`].
    pub result: RetrievalResult,
    /// Hint describing *this* run (executed tactic + fresh estimates) —
    /// store it back into the plan cache for the next execution.
    pub hint: TacticHint,
    /// What happened to the hint that was passed in.
    pub disposition: HintDisposition,
}

/// Estimate drift tolerated before a hint is dropped: each fresh candidate
/// estimate must stay within this factor of the hinted one (element-wise,
/// with +1 smoothing so empty estimates compare sanely).
const HINT_DRIFT_FACTOR: f64 = 4.0;

/// The single-table dynamic optimizer.
#[derive(Debug, Default)]
pub struct DynamicOptimizer {
    config: DynamicConfig,
}

impl DynamicOptimizer {
    /// Creates an optimizer with the given tuning.
    pub fn new(config: DynamicConfig) -> Self {
        DynamicOptimizer { config }
    }

    /// Selects the tactic for a bound request. Runs the initial stage
    /// (cheap estimation); the returned plan is reused by [`Self::run`].
    pub fn choose(&self, request: &RetrievalRequest<'_>) -> (TacticChoice, InitialPlan) {
        if request.indexes.is_empty() {
            return (TacticChoice::TscanOnly, InitialPlan::default());
        }
        let plan = self.config.initial.run(request);
        let choice = match &plan.shortcut {
            Some(ShortcutKind::EmptyResult { .. }) => TacticChoice::EndOfData,
            Some(ShortcutKind::TinyRange { .. }) => TacticChoice::TinyRangeFetch,
            None => {
                let has_order = request.order_required && plan.best_order_index.is_some();
                if has_order {
                    TacticChoice::Sorted
                } else if let Some((_pos, _)) = plan.best_self_sufficient {
                    if request.indexes.len() == 1 {
                        TacticChoice::SscanStatic
                    } else {
                        TacticChoice::IndexOnly
                    }
                } else {
                    match request.goal {
                        OptimizeGoal::TotalTime => TacticChoice::BackgroundOnly,
                        OptimizeGoal::FastFirst => TacticChoice::FastFirst,
                    }
                }
            }
        };
        (choice, plan)
    }

    /// Builds the Jscan over the plan's ordered fetch-needed indexes,
    /// excluding `skip` (the index claimed by the foreground strategy).
    fn build_jscan<'a>(
        &self,
        request: &RetrievalRequest<'a>,
        plan: &InitialPlan,
        skip: Option<usize>,
        cost: &rdb_storage::SharedCost,
    ) -> Option<Jscan<'a>> {
        let indexes: Vec<JscanIndex<'a>> = plan
            .jscan_order
            .iter()
            .zip(&plan.jscan_estimates)
            .filter(|(pos, _)| Some(**pos) != skip)
            .map(|(&pos, &estimate)| JscanIndex {
                tree: request.indexes[pos].tree,
                range: request.indexes[pos].range.clone(),
                estimate,
            })
            .collect();
        if indexes.is_empty() {
            None
        } else {
            Some(Jscan::new(
                request.table,
                indexes,
                self.config.jscan,
                cost.clone(),
            ))
        }
    }

    /// The Sscan over the self-sufficient index at `pos`.
    fn sscan<'a>(
        request: &RetrievalRequest<'a>,
        pos: usize,
        cost: &rdb_storage::SharedCost,
    ) -> Sscan<'a> {
        let c = &request.indexes[pos];
        let pred = c.self_sufficient.clone().expect("self-sufficient pred");
        Sscan::new(c.tree, c.range.clone(), pred, cost.clone())
    }

    /// Chooses a tactic and executes the retrieval. `Err` means the data
    /// storage failed mid-run (e.g. an injected fault on the heap file);
    /// an index-file fault alone degrades gracefully inside the tactics
    /// and does not surface here.
    pub fn run(&self, request: &RetrievalRequest<'_>) -> Result<RetrievalResult, StorageError> {
        self.run_with_observer(request, None)
    }

    /// [`DynamicOptimizer::run`] with a streaming observer: every delivery
    /// is pushed to the callback the moment a strategy produces it —
    /// giving fast-first consumers their rows before the run completes,
    /// and experiments a handle on time-to-first-row.
    pub fn run_with_observer(
        &self,
        request: &RetrievalRequest<'_>,
        observer: Option<crate::request::DeliveryObserver<'_>>,
    ) -> Result<RetrievalResult, StorageError> {
        self.run_traced(request, observer, &Tracer::disabled())
    }

    /// [`DynamicOptimizer::run_with_observer`] with a [`Tracer`]: every
    /// runtime decision (candidate estimates, refinements, discards,
    /// switches, the winner, phase costs, pool deltas) is emitted as a
    /// typed [`TraceEvent`]. Passing [`Tracer::disabled`] makes this
    /// identical to the untraced path (one branch per would-be event).
    pub fn run_traced(
        &self,
        request: &RetrievalRequest<'_>,
        observer: Option<crate::request::DeliveryObserver<'_>>,
        tracer: &Tracer,
    ) -> Result<RetrievalResult, StorageError> {
        Ok(self.run_inner(request, observer, tracer, None)?.result)
    }

    /// [`DynamicOptimizer::run_traced`] for prepared statements: `hint`
    /// carries the previous execution's winner. When the fresh initial
    /// stage confirms the hint is still plausible (see [`TacticHint`]),
    /// the hinted tactic runs as the favored first strategy; competition
    /// kill rules stay armed either way, so a hint gone stale degrades
    /// mid-run exactly like a bad fresh choice. Returns the result plus a
    /// refreshed hint for the caller to cache.
    pub fn run_hinted(
        &self,
        request: &RetrievalRequest<'_>,
        observer: Option<crate::request::DeliveryObserver<'_>>,
        tracer: &Tracer,
        hint: Option<&TacticHint>,
    ) -> Result<HintedRun, StorageError> {
        self.run_inner(request, observer, tracer, hint)
    }

    /// Decides which tactic actually runs given the fresh choice and an
    /// optional hint. A hint is only forced over a differing fresh choice
    /// when both sit in the *competitive* set (the tactics whose kill
    /// rules can recover from a wrong pick), the hinted tactic's
    /// prerequisites still hold in the fresh plan, and the fresh estimates
    /// are within [`HINT_DRIFT_FACTOR`] of the hinted ones. Shortcuts and
    /// static picks (empty range, tiny range, no indexes, lone
    /// self-sufficient index) always beat the hint: they are provably
    /// right for *these* bindings.
    fn resolve_hint(
        request: &RetrievalRequest<'_>,
        hint: Option<&TacticHint>,
        fresh: TacticChoice,
        plan: &InitialPlan,
    ) -> (TacticChoice, HintDisposition) {
        let Some(hint) = hint else {
            return (fresh, HintDisposition::NotProvided);
        };
        if hint.tactic == fresh {
            return (
                fresh,
                HintDisposition::Applied("fresh choice confirms the cached winner".into()),
            );
        }
        let competitive = |t: &TacticChoice| {
            matches!(
                t,
                TacticChoice::BackgroundOnly
                    | TacticChoice::FastFirst
                    | TacticChoice::Sorted
                    | TacticChoice::IndexOnly
            )
        };
        if !competitive(&fresh) {
            let why = format!("fresh choice {fresh:?} is a shortcut or static pick; hint overruled");
            return (fresh, HintDisposition::Dropped(why));
        }
        if !competitive(&hint.tactic) {
            return (
                fresh,
                HintDisposition::Dropped(format!(
                    "cached winner {:?} has no kill rules to recover with",
                    hint.tactic
                )),
            );
        }
        let prereqs_hold = match hint.tactic {
            TacticChoice::Sorted => request.order_required && plan.best_order_index.is_some(),
            TacticChoice::IndexOnly => plan.best_self_sufficient.is_some(),
            // BackgroundOnly / FastFirst just need live candidates.
            _ => !plan.jscan_order.is_empty(),
        };
        if !prereqs_hold {
            return (
                fresh,
                HintDisposition::Dropped(format!(
                    "cached winner {:?} lost its prerequisite under the new bindings",
                    hint.tactic
                )),
            );
        }
        if hint.estimates.len() != plan.jscan_estimates.len() {
            return (
                fresh,
                HintDisposition::Dropped("candidate index set changed since caching".into()),
            );
        }
        for (old, new) in hint.estimates.iter().zip(&plan.jscan_estimates) {
            let ratio = (new + 1.0) / (old + 1.0);
            if !(ratio.is_finite()
                && (1.0 / HINT_DRIFT_FACTOR..=HINT_DRIFT_FACTOR).contains(&ratio))
            {
                return (
                    fresh,
                    HintDisposition::Dropped(format!(
                        "estimate drift {old:.0} -> {new:.0} exceeds {HINT_DRIFT_FACTOR}x"
                    )),
                );
            }
        }
        let tactic = hint.tactic.clone();
        (
            tactic,
            HintDisposition::Applied(format!("favored cached winner over fresh {fresh:?}")),
        )
    }

    fn run_inner(
        &self,
        request: &RetrievalRequest<'_>,
        observer: Option<crate::request::DeliveryObserver<'_>>,
        tracer: &Tracer,
        hint: Option<&TacticHint>,
    ) -> Result<HintedRun, StorageError> {
        let cost = request.cost.clone();
        let pool_before = if tracer.enabled() {
            request.table.pool().stats()
        } else {
            Default::default()
        };
        let cost_before = cost.total();
        let mut rt = RunTrace::start(tracer, &cost);
        let (fresh_choice, plan) = self.choose(request);
        let (choice, disposition) = Self::resolve_hint(request, hint, fresh_choice, &plan);
        tracer.emit_with(|| TraceEvent::TacticChosen {
            tactic: format!("{choice:?}"),
            estimation_nodes: plan.estimation_nodes as u64,
        });
        rt.phase("estimation");
        let mut sink = match observer {
            Some(obs) => Sink::with_observer(request.limit, obs),
            None => Sink::new(request.limit),
        };
        let mut sscan_index = None;
        // Detailed strategy string of the tactic that actually produced the
        // rows (e.g. "fast-first (degraded to background-only)") — the
        // `Winner` trace event carries this, so trace consumers can check
        // switches against what really ran.
        let mut winner_detail: Option<&str> = None;

        match choice {
            TacticChoice::EndOfData => {
                tracer.emit_with(|| TraceEvent::Shortcut {
                    kind: "empty-range".into(),
                    detail: "empty range detected during estimation: end of data".into(),
                });
            }
            TacticChoice::TscanOnly => {
                let mut scan = Tscan::new(request.table, request.residual.clone(), cost.clone());
                let drained = drain(|| scan.step(), |rid, record| sink.deliver(rid, record));
                rt.phase("tscan");
                drained?;
            }
            TacticChoice::TinyRangeFetch => {
                let Some(ShortcutKind::TinyRange { index_pos, count }) = &plan.shortcut else {
                    unreachable!("tiny fetch without tiny shortcut")
                };
                tracer.emit_with(|| TraceEvent::Shortcut {
                    kind: "tiny-range".into(),
                    detail: format!(
                        "tiny range of {count} RIDs on {}: direct indexed fetch",
                        request.indexes[*index_pos].tree.name()
                    ),
                });
                let choice_ref = &request.indexes[*index_pos];
                let mut f = Fscan::new(
                    request.table,
                    choice_ref.tree,
                    choice_ref.range.clone(),
                    request.residual.clone(),
                    cost.clone(),
                );
                let drained = drain(|| f.step(), |rid, record| sink.deliver(rid, record));
                rt.phase("fscan");
                drained?;
            }
            TacticChoice::SscanStatic => {
                let (pos, _) = plan.best_self_sufficient.expect("sscan without index");
                sscan_index = Some(pos);
                let mut s = Self::sscan(request, pos, &cost);
                let drained = drain(
                    || s.step(),
                    |rid, record| sink.deliver_from_index(rid, record),
                );
                rt.phase("sscan");
                drained?;
            }
            TacticChoice::BackgroundOnly
            | TacticChoice::FastFirst
            | TacticChoice::Sorted
            | TacticChoice::IndexOnly => {
                // The foreground claims one index; the background Jscan
                // runs over the others.
                let (tactic, claimed) = match choice {
                    TacticChoice::FastFirst => (Tactic::FastFirst, None),
                    TacticChoice::Sorted => {
                        let pos = plan.best_order_index.expect("sorted without order index");
                        let c = &request.indexes[pos];
                        let fscan = Fscan::with_direction(
                            request.table,
                            c.tree,
                            c.range.clone(),
                            request.residual.clone(),
                            c.descending,
                            cost.clone(),
                        );
                        (Tactic::Sorted(fscan), Some(pos))
                    }
                    TacticChoice::IndexOnly => {
                        let (pos, _) = plan.best_self_sufficient.expect("index-only without sscan");
                        sscan_index = Some(pos);
                        let sscan = Self::sscan(request, pos, &cost);
                        (Tactic::IndexOnly(sscan), Some(pos))
                    }
                    _ => (Tactic::BackgroundOnly, None),
                };
                let mut ctx = Retrieval {
                    table: request.table,
                    residual: &request.residual,
                    config: self.config.fgr,
                    sink: &mut sink,
                    rt: &mut rt,
                    cost: &cost,
                };
                let strategy = tactics::race(
                    tactic,
                    self.config.parallel,
                    |meter| self.build_jscan(request, &plan, claimed, meter),
                    &mut ctx,
                )?;
                winner_detail = Some(strategy);
            }
        }

        rt.finish();
        let cost_total = cost.total() - cost_before;
        if tracer.enabled() {
            let delta = request.table.pool().stats().since(&pool_before);
            tracer.emit_with(|| TraceEvent::PoolDelta {
                hits: delta.hits,
                misses: delta.misses,
            });
        }
        let deliveries = sink.into_deliveries();
        tracer.emit_with(|| TraceEvent::Winner {
            strategy: winner_detail.map_or_else(|| format!("{choice:?}"), str::to_owned),
            cost: cost_total,
            rows: deliveries.len(),
        });
        Ok(HintedRun {
            result: RetrievalResult {
                deliveries,
                cost: cost_total,
                strategy: format!("{choice:?}"),
                sscan_index,
            },
            hint: TacticHint {
                tactic: choice,
                estimates: plan.jscan_estimates,
            },
            disposition,
        })
    }
}

impl DynamicOptimizer {
    /// Executes an **OR-connected** retrieval: each `(tree, range)` pair is
    /// one disjunct's index arm; the result is the union of the arms,
    /// final-stage fetched with the total restriction, or a Tscan if the
    /// union prices out (see [`crate::union`]).
    pub fn run_union(
        &self,
        table: &rdb_storage::HeapTable,
        arms: Vec<(&'_ rdb_btree::BTree, KeyRange)>,
        residual: &crate::request::RecordPred,
        limit: Option<usize>,
    ) -> Result<crate::request::RetrievalResult, StorageError> {
        self.run_union_traced(table, arms, residual, limit, &Tracer::disabled())
    }

    /// [`DynamicOptimizer::run_union`] with a [`Tracer`] (see
    /// [`DynamicOptimizer::run_traced`]).
    pub fn run_union_traced(
        &self,
        table: &rdb_storage::HeapTable,
        arms: Vec<(&'_ rdb_btree::BTree, KeyRange)>,
        residual: &crate::request::RecordPred,
        limit: Option<usize>,
        tracer: &Tracer,
    ) -> Result<crate::request::RetrievalResult, StorageError> {
        use crate::ridlist::RidList;
        use crate::union::{UnionArm, UnionOutcome, UnionScan};

        let cost = table.pool().cost().clone();
        let pool_before = if tracer.enabled() {
            table.pool().stats()
        } else {
            Default::default()
        };
        let cost_before = cost.total();
        let mut rt = RunTrace::start(tracer, &cost);
        tracer.emit_with(|| TraceEvent::TacticChosen {
            tactic: "UnionScan".into(),
            estimation_nodes: 0,
        });
        let mut sink = Sink::new(limit);

        // Estimate each arm; provably empty arms drop out for free.
        let mut union_arms: Vec<UnionArm<'_>> = Vec::new();
        for (tree, range) in arms {
            let est = tree.estimate_range(&range, &cost);
            tracer.emit_with(|| TraceEvent::CandidateEstimate {
                index: tree.name().to_owned(),
                estimate: est.estimate.max(0.0).round() as u64,
            });
            if est.exact && est.estimate == 0.0 {
                tracer.emit_with(|| TraceEvent::Shortcut {
                    kind: "empty-arm".into(),
                    detail: format!("arm {} provably empty: dropped", tree.name()),
                });
                continue;
            }
            union_arms.push(UnionArm {
                tree,
                range,
                estimate: est.estimate,
            });
        }
        rt.phase("estimation");

        let strategy;
        if union_arms.is_empty() {
            tracer.emit_with(|| TraceEvent::Shortcut {
                kind: "empty-range".into(),
                detail: "every arm empty: end of data".into(),
            });
            strategy = "UnionScan (empty)".to_string();
        } else {
            let mut scan = UnionScan::new(table, union_arms, self.config.jscan, cost.clone());
            scan.set_tracer(tracer.clone());
            let outcome = scan.run();
            rt.phase("union");
            match outcome? {
                UnionOutcome::Rids(rids) => {
                    let list = RidList::from_vec(rids);
                    tactics::final_stage(table, &list, residual, &[], &mut sink, &mut rt, &cost)?;
                    strategy = "UnionScan".to_string();
                }
                UnionOutcome::UseTscan => {
                    tracer.emit_with(|| TraceEvent::Switch {
                        from: "union".into(),
                        to: "tscan".into(),
                        reason: "union of arms priced out: full scan is cheaper".into(),
                    });
                    tactics::run_tscan(table, residual, &[], &mut sink, &mut rt, &cost)?;
                    strategy = "UnionScan -> Tscan".to_string();
                }
            }
        }

        rt.finish();
        let cost_total = cost.total() - cost_before;
        if tracer.enabled() {
            let delta = table.pool().stats().since(&pool_before);
            tracer.emit_with(|| TraceEvent::PoolDelta {
                hits: delta.hits,
                misses: delta.misses,
            });
        }
        let deliveries = sink.into_deliveries();
        tracer.emit_with(|| TraceEvent::Winner {
            strategy: strategy.clone(),
            cost: cost_total,
            rows: deliveries.len(),
        });
        Ok(crate::request::RetrievalResult {
            deliveries,
            cost: cost_total,
            strategy,
            sscan_index: None,
        })
    }
}
