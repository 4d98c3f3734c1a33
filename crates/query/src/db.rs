//! The top-level [`Db`]: tables, indexes, and query execution through the
//! dynamic optimizer — with typed errors, builder-style per-run options,
//! per-query metrics, and `EXPLAIN ANALYZE`.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdb_btree::BTree;
use rdb_core::{
    DynamicConfig, DynamicOptimizer, IndexChoice, OptimizeGoal, RetrievalRequest, TraceBuffer,
};
use rdb_storage::{
    recover, shared_meter, shared_pool, CheckpointStats, CostConfig, DurableCtx, FileId,
    FilePageStore, HeapTable, PageId, Record, RecoveryReport, Schema, SharedCost, SharedPool,
    SharedStore, Value,
};

use crate::catalog::{Catalog, IndexDef, TableDef};
use crate::error::QueryError;
use crate::explain::ExplainAnalyze;
use crate::expr::{CompiledPred, Expr, PredArgs};
use crate::options::QueryOptions;
use crate::parser::{parse_query, QuerySpec};
use crate::plan::effective_goal;
use crate::prepared::{PlanCache, Prepared};
use crate::sort::SortConfig;

/// Database-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Cost-unit weights.
    pub cost: CostConfig,
    /// Heap-page payload bytes.
    pub page_bytes: usize,
    /// B-tree fanout for new indexes.
    pub index_fanout: usize,
    /// Dynamic-optimizer tuning.
    pub optimizer: DynamicConfig,
    /// ORDER BY sort tuning (memory threshold, spill page size).
    pub sort: SortConfig,
    /// WAL segment cap in bytes (durable databases): the log rotates into
    /// a fresh `wal-<seq>.rdb` once the current segment would exceed this.
    pub wal_segment_bytes: u64,
    /// Sequential read-ahead on cold heap scans (durable databases):
    /// batch upcoming clean pages into one positioned read per window.
    pub read_ahead: bool,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            pool_pages: 10_000,
            cost: CostConfig::default(),
            page_bytes: 8192,
            index_fanout: 64,
            optimizer: DynamicConfig::default(),
            sort: SortConfig::default(),
            wal_segment_bytes: rdb_storage::DEFAULT_WAL_SEGMENT_BYTES,
            read_ahead: true,
        }
    }
}

pub(crate) struct TableEntry {
    pub(crate) heap: HeapTable,
    pub(crate) indexes: Vec<BTree>,
}

/// Binding-independent facts about one index of the queried table,
/// precomputed at resolve time. Only the key *ranges* (and the
/// self-sufficient key predicate's argument values) depend on
/// host-variable values, so a prepared statement re-derives just those
/// per execution.
#[derive(Debug, Clone)]
struct IndexMeta {
    /// Record positions of the key columns, in key order (for
    /// composite-range derivation).
    key_cols: Vec<usize>,
    /// The restriction remapped onto this index's key-tuple positions.
    /// Present exactly when a self-sufficient scan is legal: the index
    /// covers the query *and* the key columns cover every predicate
    /// column.
    key_pred: Option<Arc<CompiledPred>>,
    /// Key-tuple positions of the output columns, present when the index
    /// covers the query — index-only deliveries project by position
    /// instead of re-resolving names per row.
    out_key_pos: Option<Vec<usize>>,
    /// Key-tuple position of the ORDER BY column (covered indexes only).
    order_key_pos: Option<usize>,
    /// The leading key column matches the query's ORDER BY.
    provides_order: bool,
}

/// The cacheable skeleton of a resolved query: projection, order target,
/// the compiled (position-resolved, argument-slotted) restriction and
/// per-index metadata — everything derivable from the statement and the
/// catalog alone. [`Db::prepare`] caches one per statement, tagged with
/// the catalog generation it was resolved under; each execution then
/// fills in only the host-variable arguments.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedQuery {
    out_columns: Vec<String>,
    /// Record positions of `out_columns` — row projection is positional,
    /// never a per-row name lookup.
    out_idx: Vec<usize>,
    order_idx: Option<usize>,
    pred: Arc<CompiledPred>,
    index_meta: Vec<IndexMeta>,
}

/// A resolved statement skeleton: the single-table retrieval shape or the
/// two-table join shape, depending on the statement's FROM list. Prepared
/// statements cache one of these per catalog generation.
#[derive(Debug, Clone)]
pub(crate) enum Resolved {
    /// Single-table retrieval skeleton.
    Single(ResolvedQuery),
    /// Two-table join skeleton.
    Join(crate::join::ResolvedJoin),
}

/// Outcome bundle of [`Db::execute_resolved`]: the query result plus the
/// optimizer's refreshed tactic hint and what it did with the incoming one.
struct Executed {
    result: QueryResult,
    hint: Option<rdb_core::TacticHint>,
    disposition: rdb_core::HintDisposition,
}

/// Resolves `spec` against the current catalog: validates every referenced
/// column and precomputes the binding-independent plan skeleton.
fn resolve_query(entry: &TableEntry, spec: &QuerySpec) -> Result<ResolvedQuery, QueryError> {
    let schema = entry.heap.schema();
    let out_columns: Vec<String> = match &spec.projection {
        Some(cols) => {
            for c in cols {
                if schema.column_index(c).is_none() {
                    return Err(unknown_column(&spec.table, c));
                }
            }
            cols.clone()
        }
        None => schema.columns().iter().map(|c| c.name.clone()).collect(),
    };
    check_expr_columns(&spec.table, schema, &spec.predicate)?;
    if let Some(ob) = &spec.order_by {
        if schema.column_index(ob).is_none() {
            return Err(unknown_column(&spec.table, ob));
        }
    }

    // Columns the retrieval must cover for self-sufficiency. Binding host
    // variables never changes the column set, so this is cacheable.
    let mut needed: Vec<String> = out_columns.clone();
    for c in spec.predicate.columns() {
        if !needed.contains(&c) {
            needed.push(c);
        }
    }
    if let Some(ob) = &spec.order_by {
        if !needed.contains(ob) {
            needed.push(ob.clone());
        }
    }

    // Lower the restriction once: names → record positions, host
    // variables → argument slots. Ad-hoc queries rebuild this per run;
    // prepared statements reuse it from the cached skeleton — that is the
    // bulk of the per-execution work the plan cache amortizes.
    let pred = Arc::new(CompiledPred::compile(&spec.predicate, schema));

    let index_meta: Vec<IndexMeta> = entry
        .indexes
        .iter()
        .map(|tree| {
            let key_cols: Vec<usize> = tree.key_columns().to_vec();
            let leading = &schema.column(key_cols[0]).expect("valid column").name;
            let provides_order = spec.order_by.as_deref() == Some(leading.as_str());
            let key_pos = |name: &str| {
                key_cols
                    .iter()
                    .position(|&k| schema.column(k).expect("valid").name == name)
            };
            let covered = needed.iter().all(|c| key_pos(c).is_some());
            // Self-sufficiency needs the index to cover the query and the
            // key to cover the predicate; remapping fails on the latter.
            let key_pred = if covered {
                pred.remap_columns(|col| key_cols.iter().position(|&k| k == col))
                    .map(Arc::new)
            } else {
                None
            };
            let out_key_pos = covered.then(|| {
                out_columns
                    .iter()
                    .map(|c| key_pos(c).expect("covered"))
                    .collect()
            });
            let order_key_pos = if covered {
                spec.order_by.as_deref().and_then(key_pos)
            } else {
                None
            };
            IndexMeta {
                key_cols,
                key_pred,
                out_key_pos,
                order_key_pos,
                provides_order,
            }
        })
        .collect();

    let out_idx: Vec<usize> = out_columns
        .iter()
        .map(|c| schema.column_index(c).expect("validated above"))
        .collect();
    Ok(ResolvedQuery {
        out_columns,
        out_idx,
        order_idx: spec.order_by.as_ref().and_then(|c| schema.column_index(c)),
        pred,
        index_meta,
    })
}

/// One run's retrieval request for a resolved single-table query.
struct PlannedRetrieval<'e> {
    request: RetrievalRequest<'e>,
    /// Metadata of each offered index, parallel to `request.indexes` (the
    /// optimizer's sscan position indexes the offered list).
    choice_meta: Vec<&'e IndexMeta>,
    /// ORDER BY that no offered index provides: rows sort after retrieval.
    needs_post_sort: bool,
}

/// Builds the retrieval request one run of `resolved` makes under the
/// bound `args`: the useful index choices (constrained, order-providing
/// or self-sufficient), the order requirement, the Section 4 goal and the
/// retrieval limit. [`Db::execute_resolved`] runs this request and
/// [`Db::explain`] reports the tactic chosen for it, so the two agree.
fn plan_retrieval<'e>(
    entry: &'e TableEntry,
    spec: &QuerySpec,
    resolved: &'e ResolvedQuery,
    args: &PredArgs,
    opts: &QueryOptions,
    cost: &SharedCost,
) -> PlannedRetrieval<'e> {
    // Only the key ranges and the predicates' argument values depend on
    // this run's bindings.
    let mut indexes: Vec<IndexChoice<'_>> = Vec::new();
    let mut choice_meta: Vec<&IndexMeta> = Vec::new();
    for (tree, meta) in entry.indexes.iter().zip(&resolved.index_meta) {
        let range = resolved.pred.range_for_composite(args, &meta.key_cols);
        let self_sufficient = meta.key_pred.as_ref().map(|kp| kp.key_pred(args));
        let constrained = range != rdb_btree::KeyRange::all();
        if !(constrained || meta.provides_order || self_sufficient.is_some()) {
            continue; // useless index for this query
        }
        let mut choice = IndexChoice::fetch_needed(tree, range);
        if meta.provides_order {
            choice = choice.with_order();
            if spec.order_desc {
                choice = choice.with_descending();
            }
        }
        if let Some(kp) = self_sufficient {
            choice = choice.with_self_sufficient(kp);
        }
        indexes.push(choice);
        choice_meta.push(meta);
    }

    // ASC is served by forward index scans, DESC by reverse scans.
    let order_possible = indexes.iter().any(|c| c.provides_order);
    let needs_post_sort = spec.order_by.is_some() && !order_possible;
    let limit = opts.limit().or(spec.limit);
    // Section 4 goal derivation: an aggregate (COUNT) controls the
    // retrieval and sets total-time; an explicit request (SQL or options
    // override) wins next; a LIMIT sets fast-first; otherwise total-time.
    let goal = effective_goal(spec.count_star, opts.goal().or(spec.goal), limit);
    PlannedRetrieval {
        request: RetrievalRequest {
            table: &entry.heap,
            indexes,
            residual: resolved.pred.record_pred(args),
            goal,
            order_required: spec.order_by.is_some() && order_possible,
            // With a post-sort or count pending, every row must be
            // retrieved before the limit applies.
            limit: if needs_post_sort || spec.count_star {
                None
            } else {
                limit
            },
            cost: cost.clone(),
        },
        choice_meta,
        needs_post_sort,
    }
}

/// Per-query buffer-pool activity: the session meter's counter delta
/// across one run. Because each session charges its own [`SharedCost`],
/// these stay per-query-accurate even when many sessions share the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryMetrics {
    /// Buffer-pool hits this query caused.
    pub pool_hits: u64,
    /// Buffer-pool misses (simulated physical reads) this query caused.
    pub pool_misses: u64,
    /// 1 when this execution reused a cached plan skeleton (prepared
    /// statements only; ad-hoc queries never consult the cache).
    pub plan_cache_hits: u64,
    /// 1 when this execution had to (re)build its plan skeleton — the
    /// first run of a prepared statement, or any run after a catalog
    /// change / [`Db::clear_plan_cache`].
    pub plan_cache_misses: u64,
    /// Pages fetched ahead of the scan cursor by sequential read-ahead
    /// during this run. Pool-wide counter delta: on a shared pool,
    /// concurrent sessions' prefetches land in whichever run is active.
    pub prefetched_pages: u64,
    /// Prefetched frames the scan actually reached. The gap to
    /// `prefetched_pages` is wasted read-ahead — the adaptive window
    /// shrinks when it grows.
    pub prefetch_consumed: u64,
}

/// Result of one query run.
#[derive(Debug)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Simulated cost units spent (estimation + retrieval).
    pub cost: f64,
    /// The tactic/strategy that ran. The decisions behind it (candidate
    /// estimates, discards, switches, shortcuts) are recorded only as
    /// typed [`rdb_core::TraceEvent`]s: run [`Db::explain_analyze`] for
    /// the rendered timeline, or attach a sink with
    /// [`QueryOptions::with_trace`].
    pub strategy: String,
    /// Buffer-pool activity of this run.
    pub metrics: QueryMetrics,
}

/// An embedded single-user database with Rdb/VMS-style dynamic single-
/// table optimization.
///
/// ```
/// use rdb_query::prelude::*;
/// use rdb_storage::{Column, Schema, ValueType};
///
/// let mut db = Db::builder().open()?;
/// db.create_table("FAMILIES", Schema::new(vec![
///     Column::new("ID", ValueType::Int),
///     Column::new("AGE", ValueType::Int),
/// ]))?;
/// for i in 0..1000 {
///     db.insert("FAMILIES", vec![Value::Int(i), Value::Int(i % 100)])?;
/// }
/// db.create_index("IDX_AGE", "FAMILIES", &["AGE"])?;
///
/// // The paper's query: the strategy is chosen per binding.
/// let opts = QueryOptions::new().with_param("A1", 95i64);
/// let result = db.query("select * from FAMILIES where AGE >= :A1", &opts)?;
/// assert_eq!(result.rows.len(), 50);
/// # Ok::<(), QueryError>(())
/// ```
pub struct Db {
    pub(crate) config: DbConfig,
    cost: SharedCost,
    pool: SharedPool,
    tables: BTreeMap<String, TableEntry>,
    next_file: u32,
    optimizer: DynamicOptimizer,
    /// Statement-text-keyed cache of parsed/resolved plans for
    /// [`Db::prepare`].
    plan_cache: PlanCache,
    /// Bumped on every catalog change (table or index creation); cached
    /// plan skeletons are tagged with the generation they were resolved
    /// under and rebuild themselves when it moves.
    catalog_gen: u64,
    /// Present on durable databases: the WAL/checkpoint machinery shared
    /// by every table.
    durable: Option<Arc<DurableCtx>>,
    /// What recovery did when this database was opened from disk.
    recovery: Option<RecoveryReport>,
}

fn unknown_column(table: &str, column: &str) -> QueryError {
    QueryError::UnknownColumn {
        table: table.to_string(),
        column: column.to_string(),
    }
}

fn check_expr_columns(table: &str, schema: &Schema, expr: &Expr) -> Result<(), QueryError> {
    for c in expr.columns() {
        if schema.column_index(&c).is_none() {
            return Err(unknown_column(table, &c));
        }
    }
    Ok(())
}

impl Db {
    /// Starts building a database: `Db::builder().open()` for in-memory,
    /// `Db::builder().path(dir).open()` for one that survives the process
    /// (see [`crate::DbBuilder`]).
    pub fn builder() -> crate::DbBuilder {
        crate::DbBuilder::new()
    }

    /// In-memory construction (the builder's `in_memory` target).
    pub(crate) fn open_in_memory(config: DbConfig) -> Self {
        let cost = shared_meter(config.cost);
        let pool = shared_pool(config.pool_pages, cost.clone());
        Db {
            cost,
            pool,
            tables: BTreeMap::new(),
            next_file: 0,
            optimizer: DynamicOptimizer::new(config.optimizer),
            plan_cache: PlanCache::new(),
            catalog_gen: 0,
            config,
            durable: None,
            recovery: None,
        }
    }

    /// Durable construction (the builder's `path` target): opens or
    /// creates the page files under `dir`, runs redo recovery, rebuilds
    /// every cataloged table from its recovered pages and every index from
    /// its table, and marks redo-touched pages dirty so the next
    /// checkpoint writes them back.
    pub(crate) fn open_durable(mut config: DbConfig, dir: &std::path::Path) -> Result<Self, QueryError> {
        let store: SharedStore = Arc::new(FilePageStore::open_with(
            dir,
            config.page_bytes,
            config.wal_segment_bytes,
        )?);
        // An existing database's on-disk page size wins over the config.
        config.page_bytes = store.page_bytes();
        let recovered = recover(&store)?;
        let cost = shared_meter(config.cost);
        let pool = shared_pool(config.pool_pages, cost.clone());
        pool.set_read_ahead(config.read_ahead);
        let ctx = DurableCtx::new(
            store.clone(),
            pool.clone(),
            recovered.imaged.clone(),
            recovered.page_lsns(),
        );
        let catalog = match &recovered.catalog {
            Some(blob) => Catalog::decode(blob)?,
            None => Catalog::default(),
        };

        let mut tables = BTreeMap::new();
        let mut next_file = 0u32;
        for def in &catalog.tables {
            next_file = next_file.max(def.file + 1);
            let file = FileId(def.file);
            let pages = recovered
                .files
                .get(&def.file)
                .map(|rec| rec.pages.clone())
                .unwrap_or_default();
            let heap = HeapTable::from_recovered(
                def.name.clone(),
                file,
                def.schema.clone(),
                pool.clone(),
                def.page_bytes as usize,
                pages,
                ctx.clone(),
                store.file_pages(file)?,
            );
            tables.insert(
                def.name.clone(),
                TableEntry {
                    heap,
                    indexes: Vec::new(),
                },
            );
        }
        // Redo-touched pages are dirty: their frames are stale until the
        // next checkpoint writes them back.
        for (file, rec) in &recovered.files {
            for &page_no in &rec.dirty {
                pool.mark_dirty(PageId::new(FileId(*file), page_no));
            }
        }
        // Indexes are definitions, not data: rebuild each from its table
        // through the same bulk loader `CREATE INDEX` backfill uses.
        for idef in &catalog.indexes {
            next_file = next_file.max(idef.file + 1);
            let entry = tables
                .get_mut(&idef.table)
                .ok_or(QueryError::Storage(rdb_storage::StorageError::Corrupt(
                    "catalog index references unknown table",
                )))?;
            let mut entries: Vec<(Vec<Value>, rdb_storage::Rid)> = Vec::new();
            let mut scan = entry.heap.scan();
            while let Some((rid, record)) = scan.next(&entry.heap, &cost)? {
                let key: Vec<Value> = idef.key_columns.iter().map(|&c| record[c].clone()).collect();
                entries.push((key, rid));
            }
            entry.indexes.push(BTree::bulk_load(
                idef.name.clone(),
                FileId(idef.file),
                pool.clone(),
                idef.key_columns.clone(),
                idef.fanout as usize,
                entries,
            ));
        }

        Ok(Db {
            cost,
            pool,
            tables,
            next_file,
            optimizer: DynamicOptimizer::new(config.optimizer),
            plan_cache: PlanCache::new(),
            catalog_gen: 0,
            config,
            durable: Some(ctx),
            recovery: Some(recovered.report),
        })
    }

    /// The catalog as currently defined (the blob DDL logs and checkpoints
    /// persist).
    fn snapshot_catalog(&self) -> Catalog {
        let mut cat = Catalog::default();
        for (name, entry) in &self.tables {
            cat.tables.push(TableDef {
                name: name.clone(),
                file: entry.heap.file().0,
                page_bytes: entry.heap.page_bytes() as u32,
                schema: entry.heap.schema().clone(),
            });
            for tree in &entry.indexes {
                cat.indexes.push(IndexDef {
                    name: tree.name().to_string(),
                    table: name.clone(),
                    file: tree.file().0,
                    fanout: tree.max_fanout() as u32,
                    key_columns: tree.key_columns().to_vec(),
                });
            }
        }
        cat
    }

    /// True when the database is backed by files (survives the process).
    pub fn is_durable(&self) -> bool {
        self.durable.as_ref().is_some_and(|c| c.is_durable())
    }

    /// The page store behind a durable database (real-I/O counters live
    /// here), `None` for in-memory databases.
    pub fn store(&self) -> Option<&SharedStore> {
        self.durable.as_ref().map(|c| c.store())
    }

    /// What recovery did when this database was opened from disk, `None`
    /// for in-memory databases.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Checkpoints a durable database: writes every dirty page back to its
    /// disk frame, makes the current catalog durable, and truncates the
    /// WAL. A no-op `Ok` on in-memory databases. There is **no** implicit
    /// checkpoint on drop — callers that want durability at shutdown use
    /// [`Db::close`] (dropping without it is exactly the crash the
    /// recovery path handles).
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, QueryError> {
        let Some(ctx) = self.durable.clone() else {
            return Ok(CheckpointStats::default());
        };
        let blob = self.snapshot_catalog().encode();
        let tables = &self.tables;
        let stats = ctx.checkpoint(&blob, |pid| {
            tables
                .values()
                .find(|t| t.heap.file() == pid.file)
                .and_then(|t| t.heap.page_clone(pid.page))
        })?;
        for entry in self.tables.values_mut() {
            entry.heap.note_checkpointed();
        }
        Ok(stats)
    }

    /// Checkpoints (durable databases) and consumes the handle — the clean
    /// shutdown. Reopening after `close` replays nothing.
    pub fn close(mut self) -> Result<(), QueryError> {
        self.checkpoint().map(|_| ())
    }

    /// Shared cost meter (for experiments).
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// Shared buffer pool (for cache-perturbation experiments).
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    fn alloc_file(&mut self) -> FileId {
        let f = FileId(self.next_file);
        self.next_file += 1;
        f
    }

    fn table(&self, name: &str) -> Result<&TableEntry, QueryError> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut TableEntry, QueryError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }

    /// Creates a table.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), QueryError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(QueryError::DuplicateTable(name));
        }
        let file = self.alloc_file();
        let mut heap = HeapTable::with_page_bytes(
            name.clone(),
            file,
            schema,
            self.pool.clone(),
            self.config.page_bytes,
        );
        if let Some(ctx) = &self.durable {
            heap.attach_durable(ctx.clone());
        }
        self.tables.insert(
            name,
            TableEntry {
                heap,
                indexes: Vec::new(),
            },
        );
        self.catalog_gen += 1;
        self.log_catalog()?;
        Ok(())
    }

    /// WAL-logs the current catalog snapshot (durable databases; every DDL
    /// statement calls this so recovery sees definitions without waiting
    /// for a checkpoint).
    fn log_catalog(&self) -> Result<(), QueryError> {
        if let Some(ctx) = &self.durable {
            ctx.log_catalog(self.snapshot_catalog().encode())?;
        }
        Ok(())
    }

    /// Creates a B-tree index on `columns` of `table` and backfills it.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        table: &str,
        columns: &[&str],
    ) -> Result<(), QueryError> {
        let file = self.alloc_file();
        let fanout = self.config.index_fanout;
        let pool = self.pool.clone();
        let cost = self.cost.clone();
        let entry = self.table_mut(table)?;
        let key_columns: Vec<usize> = columns
            .iter()
            .map(|c| {
                entry
                    .heap
                    .schema()
                    .column_index(c)
                    .ok_or_else(|| unknown_column(table, c))
            })
            .collect::<Result<_, _>>()?;
        // Backfill from existing rows through the bulk loader (one sorted
        // bottom-up pass instead of per-entry inserts).
        let mut entries: Vec<(Vec<Value>, rdb_storage::Rid)> = Vec::new();
        let mut scan = entry.heap.scan();
        while let Some((rid, record)) = scan.next(&entry.heap, &cost)? {
            let key: Vec<Value> = key_columns.iter().map(|&c| record[c].clone()).collect();
            entries.push((key, rid));
        }
        let tree = BTree::bulk_load(index_name, file, pool, key_columns, fanout, entries);
        entry.indexes.push(tree);
        self.catalog_gen += 1;
        self.log_catalog()?;
        Ok(())
    }

    /// Inserts a row, maintaining all indexes. The row is validated against
    /// the table schema up front so shape errors come back typed
    /// ([`QueryError::Arity`], [`QueryError::TypeMismatch`]) instead of as
    /// storage-layer failures.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<(), QueryError> {
        let entry = self.table_mut(table)?;
        {
            let schema = entry.heap.schema();
            if values.len() != schema.len() {
                return Err(QueryError::Arity {
                    table: table.to_string(),
                    expected: schema.len(),
                    got: values.len(),
                });
            }
            for (col, value) in schema.columns().iter().zip(&values) {
                match value.value_type() {
                    None if !col.nullable => {
                        return Err(QueryError::TypeMismatch {
                            table: table.to_string(),
                            column: col.name.clone(),
                            expected: col.ty,
                            got: None,
                        });
                    }
                    Some(ty) if ty != col.ty => {
                        return Err(QueryError::TypeMismatch {
                            table: table.to_string(),
                            column: col.name.clone(),
                            expected: col.ty,
                            got: Some(ty),
                        });
                    }
                    _ => {}
                }
            }
        }
        let record = Record::new(values);
        let rid = entry.heap.insert(record.clone())?;
        for index in &mut entry.indexes {
            let key: Vec<Value> = index
                .key_columns()
                .iter()
                .map(|&c| record[c].clone())
                .collect();
            index.insert(key, rid);
        }
        Ok(())
    }

    /// Number of rows in `table`.
    pub fn row_count(&self, table: &str) -> Option<u64> {
        self.tables.get(table).map(|t| t.heap.cardinality())
    }

    /// Deletes every row of `table` matching the predicate (bound with
    /// `opts`' parameters), maintaining all indexes. Returns the number of
    /// rows deleted.
    ///
    /// Victims are located by a sequential scan; the heap delete and
    /// per-index entry removals then run as load-time operations.
    pub fn delete_where(
        &mut self,
        table: &str,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<usize, QueryError> {
        let victims = self.matching_rids(table, predicate, opts)?;
        // Maintain heap and indexes.
        let cost = self.cost.clone();
        let entry = self.table_mut(table)?;
        for &rid in &victims {
            let record = entry.heap.fetch(rid, &cost)?;
            for index in &mut entry.indexes {
                let key: Vec<Value> = index
                    .key_columns()
                    .iter()
                    .map(|&c| record[c].clone())
                    .collect();
                index.delete(&key, rid);
            }
            entry.heap.delete(rid)?;
        }
        Ok(victims.len())
    }

    /// The RIDs of `table`'s rows matching `predicate` under `opts`'
    /// bindings, located by a sequential scan (maintenance favours
    /// simplicity over retrieval optimization). The predicate goes
    /// through the same validate-compile-bind steps as a query.
    fn matching_rids(
        &self,
        table: &str,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<Vec<rdb_storage::Rid>, QueryError> {
        let entry = self.table(table)?;
        let schema = entry.heap.schema();
        check_expr_columns(table, schema, predicate)?;
        let pred = Arc::new(CompiledPred::compile(predicate, schema));
        let request = RetrievalRequest {
            table: &entry.heap,
            indexes: Vec::new(),
            residual: pred.record_pred(&pred.bind_args(opts.params())?),
            goal: OptimizeGoal::TotalTime,
            order_required: false,
            limit: None,
            cost: self.cost.clone(),
        };
        Ok(self
            .optimizer
            .run_traced(&request, None, &opts.tracer())?
            .rids())
    }

    /// Updates column `set_column` to `set_value` on every row matching
    /// the predicate (delete + reinsert, the classic index-safe
    /// implementation). Returns the number of rows updated.
    pub fn update_where(
        &mut self,
        table: &str,
        set_column: &str,
        set_value: Value,
        predicate: &Expr,
        opts: &QueryOptions,
    ) -> Result<usize, QueryError> {
        {
            let entry = self.table(table)?;
            if entry.heap.schema().column_index(set_column).is_none() {
                return Err(unknown_column(table, set_column));
            }
        }
        let victims: Vec<(rdb_storage::Rid, Record)> = {
            let rids = self.matching_rids(table, predicate, opts)?;
            let heap = &self.tables.get(table).expect("checked above").heap;
            rids.into_iter()
                .map(|rid| heap.fetch(rid, &self.cost).map(|r| (rid, r)))
                .collect::<Result<_, _>>()?
        };
        let count = victims.len();
        let col_idx = {
            let entry = self.tables.get(table).expect("checked above");
            entry
                .heap
                .schema()
                .column_index(set_column)
                .expect("checked above")
        };
        let entry = self.tables.get_mut(table).expect("checked above");
        for (rid, record) in victims {
            for index in &mut entry.indexes {
                let key: Vec<Value> = index
                    .key_columns()
                    .iter()
                    .map(|&c| record[c].clone())
                    .collect();
                index.delete(&key, rid);
            }
            entry.heap.delete(rid)?;
            let mut values = record.into_values();
            values[col_idx] = set_value.clone();
            let new_record = Record::new(values);
            let new_rid = entry.heap.insert(new_record.clone())?;
            for index in &mut entry.indexes {
                let key: Vec<Value> = index
                    .key_columns()
                    .iter()
                    .map(|&c| new_record[c].clone())
                    .collect();
                index.insert(key, new_rid);
            }
        }
        Ok(count)
    }

    /// Explains a query: parses, binds, and reports the tactic the
    /// dynamic optimizer would choose for this binding — without
    /// executing the productive phases. (Estimation runs, as it would in
    /// a real prepare/describe, so the answer is binding-specific.)
    pub fn explain(&self, sql: &str, opts: &QueryOptions) -> Result<String, QueryError> {
        use rdb_core::ShortcutKind;
        let spec = parse_query(sql)?;
        let entry = self.table(&spec.table)?;
        if let Some(right_name) = spec.join_table.as_deref() {
            let right = self.table(right_name)?;
            let resolved =
                crate::join::resolve_join(&spec.table, entry, right_name, right, &spec)?;
            return crate::join::explain_join(self, entry, right, &resolved, opts);
        }
        let resolved = resolve_query(entry, &spec)?;
        let args = resolved.pred.bind_args(opts.params())?;
        if let Expr::Or(_) = &spec.predicate {
            return Ok("UnionScan (OR-connected restriction) or Tscan".to_string());
        }
        let request = plan_retrieval(entry, &spec, &resolved, &args, opts, &self.cost).request;
        let (choice, plan) = self.optimizer.choose(&request);
        let detail = match &plan.shortcut {
            Some(ShortcutKind::EmptyResult { index }) => {
                format!(" (index {index} proves the result empty)")
            }
            Some(ShortcutKind::TinyRange { count, .. }) => {
                format!(" (tiny range of ~{count} RIDs)")
            }
            None if !plan.jscan_order.is_empty() => format!(
                " (scan order by ascending estimate: {})",
                plan.jscan_order
                    .iter()
                    .zip(&plan.jscan_estimates)
                    .map(|(pos, est)| format!("{}~{est:.0}", request.indexes[*pos].tree.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            None => String::new(),
        };
        Ok(format!("{choice:?}{detail}"))
    }

    /// Executes the query with tracing attached and returns the result
    /// together with the full decision timeline — the competition's
    /// candidate estimates, refinements, switches, discards, phase costs
    /// and winner. Events also stream to any sink already attached via
    /// [`QueryOptions::with_trace`].
    ///
    /// ```
    /// use rdb_query::prelude::*;
    /// use rdb_storage::{Column, Schema, ValueType};
    ///
    /// let mut db = Db::builder().open()?;
    /// db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
    /// for i in 0..500 {
    ///     db.insert("T", vec![Value::Int(i % 50)])?;
    /// }
    /// db.create_index("IDX_X", "T", &["X"])?;
    /// let ea = db.explain_analyze("select * from T where X >= 49", &QueryOptions::new())?;
    /// assert!(ea.render().contains("winner"));
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn explain_analyze(
        &self,
        sql: &str,
        opts: &QueryOptions,
    ) -> Result<ExplainAnalyze, QueryError> {
        let buffer = TraceBuffer::shared(8192);
        let traced = crate::explain::with_capture(opts, buffer.clone());
        let result = self.query(sql, &traced)?;
        Ok(ExplainAnalyze {
            sql: sql.to_string(),
            result,
            events: buffer.take(),
        })
    }

    /// Runs a SQL-ish query with per-run [`QueryOptions`] (host-variable
    /// bindings, goal/limit overrides, tracing). Charges the database's
    /// default meter; concurrent clients should run through [`Db::session`]
    /// handles instead so each gets its own meter.
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult, QueryError> {
        let spec = parse_query(sql)?;
        self.query_spec(&spec, opts)
    }

    /// Runs a pre-parsed query (on the database's default meter).
    pub fn query_spec(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
    ) -> Result<QueryResult, QueryError> {
        let cost = self.cost.clone();
        self.query_spec_on(spec, opts, &cost)
    }

    fn query_spec_on(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<QueryResult, QueryError> {
        let before = cost.snapshot();
        let pf_before = self.pool.prefetch_stats();
        let mut result = self.query_spec_inner(spec, opts, cost)?;
        let delta = cost.snapshot().since(&before);
        let pf = self.pool.prefetch_stats().since(&pf_before);
        result.metrics = QueryMetrics {
            pool_hits: delta.cache_hits,
            pool_misses: delta.page_reads,
            prefetched_pages: pf.prefetched_pages,
            prefetch_consumed: pf.consumed_pages,
            ..QueryMetrics::default()
        };
        Ok(result)
    }

    fn query_spec_inner(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<QueryResult, QueryError> {
        let entry = self.table(&spec.table)?;
        if let Some(right_name) = spec.join_table.as_deref() {
            let right = self.table(right_name)?;
            let resolved =
                crate::join::resolve_join(&spec.table, entry, right_name, right, spec)?;
            return crate::join::execute_join(self, entry, right, spec, &resolved, opts, cost);
        }
        let resolved = resolve_query(entry, spec)?;
        Ok(self
            .execute_resolved(entry, spec, &resolved, opts, cost, None)?
            .result)
    }

    /// Resolves `spec` against the current catalog into whichever skeleton
    /// shape its FROM list calls for.
    fn resolve_any(&self, entry: &TableEntry, spec: &QuerySpec) -> Result<Resolved, QueryError> {
        match spec.join_table.as_deref() {
            None => Ok(Resolved::Single(resolve_query(entry, spec)?)),
            Some(right_name) => {
                let right = self.table(right_name)?;
                Ok(Resolved::Join(crate::join::resolve_join(
                    &spec.table,
                    entry,
                    right_name,
                    right,
                    spec,
                )?))
            }
        }
    }

    /// Executes a resolved query. This is **the** execution path: ad-hoc
    /// queries resolve freshly and call it with no hint; prepared
    /// statements call it with their cached [`ResolvedQuery`] skeleton and
    /// the previous winner as a [`TacticHint`]. Sharing one body is what
    /// makes prepared row sets identical to fresh execution by
    /// construction.
    fn execute_resolved(
        &self,
        entry: &TableEntry,
        spec: &QuerySpec,
        resolved: &ResolvedQuery,
        opts: &QueryOptions,
        cost: &SharedCost,
        hint: Option<&rdb_core::TacticHint>,
    ) -> Result<Executed, QueryError> {
        // One argument lookup per distinct host variable — the compiled
        // predicate in the skeleton replaces the per-run tree clone.
        let args = resolved.pred.bind_args(opts.params())?;
        let tracer = opts.tracer();
        let limit = opts.limit().or(spec.limit);
        let out_columns = &resolved.out_columns;

        // OR-connected restriction: when every top-level disjunct binds to
        // an index range, run the union scan (the paper's "unionizing"
        // RID-list combination) instead of the conjunctive machinery.
        if matches!(spec.predicate, Expr::Or(_)) {
            if let Some(executed) = self.try_union(entry, spec, resolved, opts, cost, hint)? {
                return Ok(executed);
            }
        }

        let PlannedRetrieval {
            request,
            choice_meta,
            needs_post_sort,
        } = plan_retrieval(entry, spec, resolved, &args, opts, cost);
        let hinted = self.optimizer.run_hinted(&request, None, &tracer, hint)?;
        let (result, fresh_hint, disposition) = (hinted.result, hinted.hint, hinted.disposition);

        if spec.count_star {
            return Ok(Executed {
                result: QueryResult {
                    columns: vec!["COUNT".to_string()],
                    rows: vec![vec![Value::Int(result.deliveries.len() as i64)]],
                    cost: result.cost,
                    strategy: result.strategy,
                    metrics: QueryMetrics::default(),
                },
                hint: Some(fresh_hint),
                disposition,
            });
        }

        // Project deliveries into output rows.
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(result.deliveries.len());
        let mut sort_keys: Vec<Value> = Vec::new();
        let order_idx = resolved.order_idx;
        for d in &result.deliveries {
            let (row, sort_key) = if d.from_index {
                let pos = result
                    .sscan_index
                    .expect("index-only delivery without sscan index");
                let meta = choice_meta[pos];
                let key_record = d.record.as_ref().expect("sscan key tuple");
                let keys = meta
                    .out_key_pos
                    .as_ref()
                    .expect("self-sufficiency guarantees coverage");
                let row: Vec<Value> = keys.iter().map(|&k| key_record[k].clone()).collect();
                let sk = meta.order_key_pos.map(|k| key_record[k].clone());
                (row, sk)
            } else {
                let record = match &d.record {
                    Some(r) => r.clone(),
                    None => entry.heap.fetch(d.rid, cost)?,
                };
                let row: Vec<Value> = resolved.out_idx.iter().map(|&i| record[i].clone()).collect();
                let sk = order_idx.map(|i| record[i].clone());
                (row, sk)
            };
            if let Some(sk) = sort_key {
                sort_keys.push(sk);
            }
            rows.push(row);
        }

        if needs_post_sort {
            let paired: Vec<(Value, Vec<Value>)> = sort_keys.into_iter().zip(rows).collect();
            let (sorted, _) = crate::sort::sort_rows_dir(
                paired,
                &self.pool,
                &self.config.sort,
                spec.order_desc,
                cost,
            );
            rows = sorted;
            if let Some(limit) = limit {
                rows.truncate(limit);
            }
        }

        Ok(Executed {
            result: QueryResult {
                columns: out_columns.clone(),
                rows,
                cost: result.cost,
                strategy: result.strategy,
                metrics: QueryMetrics::default(),
            },
            hint: Some(fresh_hint),
            disposition,
        })
    }

    /// Attempts the union machinery for an OR-connected restriction: when
    /// every top-level disjunct binds to an index range, runs the union
    /// scan and returns the finished result; `None` sends the caller to
    /// the conjunctive machinery. Each arm's range is derived from its
    /// disjunct of the bound [`Expr`] tree, so OR statements pay one
    /// [`Expr::bind`] clone (its only use outside tests); the union's
    /// residual is the compiled predicate, as everywhere else.
    fn try_union(
        &self,
        entry: &TableEntry,
        spec: &QuerySpec,
        resolved: &ResolvedQuery,
        opts: &QueryOptions,
        cost: &SharedCost,
        hint: Option<&rdb_core::TacticHint>,
    ) -> Result<Option<Executed>, QueryError> {
        let bound = spec.predicate.bind(opts.params())?;
        let Expr::Or(disjuncts) = &bound else {
            return Ok(None);
        };
        let args = resolved.pred.bind_args(opts.params())?;
        let tracer = opts.tracer();
        let limit = opts.limit().or(spec.limit);
        let out_columns = &resolved.out_columns;
        // Hints never survive into the union machinery; everything else
        // about an OR-connected run is hint-free too.
        let union_disposition = || match hint {
            Some(_) => rdb_core::HintDisposition::Dropped(
                "OR-connected restriction runs the union machinery".into(),
            ),
            None => rdb_core::HintDisposition::NotProvided,
        };
        let mut arms: Vec<(&BTree, rdb_btree::KeyRange)> = Vec::new();
        'disjuncts: for d in disjuncts {
            for tree in &entry.indexes {
                let leading = entry
                    .heap
                    .schema()
                    .column(tree.key_columns()[0])
                    .expect("valid column")
                    .name
                    .clone();
                let range = d.range_for(&leading);
                if range != rdb_btree::KeyRange::all() {
                    arms.push((tree, range));
                    continue 'disjuncts;
                }
            }
            // Some disjunct binds to no index: not decomposable.
            return Ok(None);
        }
        let needs_post_sort = spec.order_by.is_some();
        let result = self.optimizer.run_union_traced(
            &entry.heap,
            arms,
            &resolved.pred.record_pred(&args),
            if needs_post_sort || spec.count_star {
                None
            } else {
                limit
            },
            &tracer,
        )?;
        if spec.count_star {
            return Ok(Some(Executed {
                result: QueryResult {
                    columns: vec!["COUNT".to_string()],
                    rows: vec![vec![Value::Int(result.deliveries.len() as i64)]],
                    cost: result.cost,
                    strategy: result.strategy,
                    metrics: QueryMetrics::default(),
                },
                hint: None,
                disposition: union_disposition(),
            }));
        }
        let order_idx = resolved.order_idx;
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(result.deliveries.len());
        let mut sort_keys: Vec<Value> = Vec::new();
        for d in &result.deliveries {
            let record = match &d.record {
                Some(r) => r.clone(),
                None => entry.heap.fetch(d.rid, cost)?,
            };
            if let Some(i) = order_idx {
                sort_keys.push(record[i].clone());
            }
            rows.push(resolved.out_idx.iter().map(|&i| record[i].clone()).collect());
        }
        if needs_post_sort {
            let paired: Vec<(Value, Vec<Value>)> = sort_keys.into_iter().zip(rows).collect();
            let (sorted, _) = crate::sort::sort_rows_dir(
                paired,
                &self.pool,
                &self.config.sort,
                spec.order_desc,
                cost,
            );
            rows = sorted;
            if let Some(limit) = limit {
                rows.truncate(limit);
            }
        }
        Ok(Some(Executed {
            result: QueryResult {
                columns: out_columns.clone(),
                rows,
                cost: result.cost,
                strategy: result.strategy,
                metrics: QueryMetrics::default(),
            },
            hint: None,
            disposition: union_disposition(),
        }))
    }

    /// Prepares `sql` for repeated execution: the parsed AST and resolved
    /// plan skeleton are cached keyed by statement text, host variables
    /// re-bind per [`Prepared::execute`], and each execution seeds the
    /// dynamic optimizer with the previous run's winner (kill rules stay
    /// armed, so a drifted parameter still switches mid-run). Charges the
    /// database's default meter; concurrent clients should prepare through
    /// [`Session::prepare`] instead.
    ///
    /// ```
    /// use rdb_query::prelude::*;
    /// use rdb_storage::{Column, Schema, ValueType};
    ///
    /// let mut db = Db::builder().open()?;
    /// db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
    /// for i in 0..200 {
    ///     db.insert("T", vec![Value::Int(i % 50)])?;
    /// }
    /// db.create_index("IDX_X", "T", &["X"])?;
    /// let stmt = db.prepare("select * from T where X >= :A1")?;
    /// let first = stmt.execute(&QueryOptions::new().with_param("A1", 40i64))?;
    /// let again = stmt.execute(&QueryOptions::new().with_param("A1", 45i64))?;
    /// assert_eq!(first.metrics.plan_cache_misses, 1); // cold skeleton
    /// assert_eq!(again.metrics.plan_cache_hits, 1); // reused skeleton
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>, QueryError> {
        let (plan, _hit) = self.plan_cache.lookup_or_parse(sql)?;
        Ok(Prepared {
            db: self,
            cost: self.cost.clone(),
            plan,
        })
    }

    /// Drops every cached plan and wipes cached skeletons in place, so even
    /// [`Prepared`] handles created earlier re-resolve (and forget their
    /// remembered tactic) on their next execution.
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Database-wide plan-cache counters.
    pub fn plan_cache_stats(&self) -> crate::prepared::PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Executes a prepared statement: validates the cached skeleton
    /// against the current catalog generation, rebuilds
    /// it if stale, then runs the shared execution body with the previous
    /// winner as the favored tactic.
    pub(crate) fn run_prepared(
        &self,
        plan: &crate::prepared::CachedPlan,
        opts: &QueryOptions,
        cost: &SharedCost,
    ) -> Result<QueryResult, QueryError> {
        use std::sync::PoisonError;
        let before = cost.snapshot();
        let pf_before = self.pool.prefetch_stats();
        let entry = self.table(&plan.spec.table)?;
        let tag: crate::prepared::PlanTag = self.catalog_gen;
        let tracer = opts.tracer();

        let lock_hint = || plan.hint.lock().unwrap_or_else(PoisonError::into_inner);

        // Warm executions stay entirely off the cache-wide lock: validity
        // is one integer compare, the skeleton comes out as an `Arc`
        // refcount bump, and the hit tally lands in the slot's own
        // counter under the mutex already held.
        let (resolved, cache_hit, outcome, detail) = {
            let mut slot = plan
                .skeleton
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let warm = match &slot.skel {
                Some((t, skel)) if *t == tag => Some(std::sync::Arc::clone(skel)),
                _ => None,
            };
            if let Some(skel) = warm {
                slot.hits += 1;
                (skel, true, "hit", "reused cached plan skeleton")
            } else {
                let invalidated = slot.skel.is_some();
                let skel = std::sync::Arc::new(self.resolve_any(entry, &plan.spec)?);
                slot.skel = Some((tag, std::sync::Arc::clone(&skel)));
                slot.misses += 1;
                if invalidated {
                    slot.invalidations += 1;
                }
                drop(slot);
                // A rebuilt skeleton may renumber indexes, so the old
                // hint's estimates no longer line up entry-for-entry.
                *lock_hint() = None;
                let (outcome, detail) = if invalidated {
                    (
                        "invalidated",
                        "catalog generation moved; skeleton re-resolved",
                    )
                } else {
                    ("miss", "resolved cold on first execution")
                };
                (skel, false, outcome, detail)
            }
        };
        tracer.emit_with(|| rdb_core::TraceEvent::PlanCache {
            outcome: outcome.into(),
            statement: plan.statement.clone(),
            detail: detail.into(),
        });

        let mut result = match &*resolved {
            Resolved::Single(skel) => {
                let hint = lock_hint().clone();
                let executed =
                    self.execute_resolved(entry, &plan.spec, skel, opts, cost, hint.as_ref())?;
                *lock_hint() = executed.hint;
                // The clone happens inside the closure: untraced executions
                // (the common case) never materialize the event strings.
                match &executed.disposition {
                    rdb_core::HintDisposition::Applied(why) => {
                        tracer.emit_with(|| rdb_core::TraceEvent::PlanCache {
                            outcome: "hint-applied".into(),
                            statement: plan.statement.clone(),
                            detail: why.clone(),
                        });
                    }
                    rdb_core::HintDisposition::Dropped(why) => {
                        tracer.emit_with(|| rdb_core::TraceEvent::PlanCache {
                            outcome: "hint-dropped".into(),
                            statement: plan.statement.clone(),
                            detail: why.clone(),
                        });
                    }
                    rdb_core::HintDisposition::NotProvided => {}
                }
                executed.result
            }
            Resolved::Join(join_skel) => {
                // A remembered single-table tactic has no meaning for a
                // join: the competition re-races every candidate per
                // binding, so any stale hint is dropped on the floor.
                if lock_hint().take().is_some() {
                    tracer.emit_with(|| rdb_core::TraceEvent::PlanCache {
                        outcome: "hint-dropped".into(),
                        statement: plan.statement.clone(),
                        detail: "join queries re-race all candidates per binding".into(),
                    });
                }
                let right_name = plan.spec.join_table.as_deref().ok_or_else(|| {
                    QueryError::Unsupported("join skeleton for a single-table statement".into())
                })?;
                let right = self.table(right_name)?;
                crate::join::execute_join(self, entry, right, &plan.spec, join_skel, opts, cost)?
            }
        };
        let delta = cost.snapshot().since(&before);
        let pf = self.pool.prefetch_stats().since(&pf_before);
        result.metrics = QueryMetrics {
            pool_hits: delta.cache_hits,
            pool_misses: delta.page_reads,
            plan_cache_hits: u64::from(cache_hit),
            plan_cache_misses: u64::from(!cache_hit),
            prefetched_pages: pf.prefetched_pages,
            prefetch_consumed: pf.consumed_pages,
        };
        Ok(result)
    }

    /// Evicts every cached page (cold restart) — used by experiments.
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Direct access to a table's heap (experiments and tests).
    pub fn heap(&self, table: &str) -> Option<&HeapTable> {
        self.tables.get(table).map(|t| &t.heap)
    }

    /// Direct access to a table's indexes (experiments and tests).
    pub fn indexes(&self, table: &str) -> Option<&[BTree]> {
        self.tables.get(table).map(|t| t.indexes.as_slice())
    }

    /// Opens a client session: a cheap handle sharing this database's
    /// tables and buffer pool but carrying its **own cost meter**, so the
    /// costs and metrics of concurrent queries don't bleed into each
    /// other. `Db` is `Sync`; wrap it in an [`std::sync::Arc`] (or scoped
    /// threads) and give each OS thread its own session:
    ///
    /// ```
    /// use rdb_query::prelude::*;
    /// use rdb_storage::{Column, Schema, ValueType};
    ///
    /// let mut db = Db::builder().open()?;
    /// db.create_table("T", Schema::new(vec![Column::new("X", ValueType::Int)]))?;
    /// for i in 0..100 {
    ///     db.insert("T", vec![Value::Int(i)])?;
    /// }
    /// std::thread::scope(|scope| {
    ///     for _ in 0..4 {
    ///         let session = db.session();
    ///         scope.spawn(move || {
    ///             let r = session
    ///                 .query("select * from T where X >= 90", &QueryOptions::new())
    ///                 .unwrap();
    ///             assert_eq!(r.rows.len(), 10);
    ///         });
    ///     }
    /// });
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn session(&self) -> Session<'_> {
        Session {
            db: self,
            cost: shared_meter(self.config.cost),
        }
    }
}

/// One client's handle on a shared [`Db`]: same tables, same buffer pool,
/// private cost meter. Create with [`Db::session`]; clone-free and `Send`,
/// so a session can move into a worker thread.
pub struct Session<'db> {
    db: &'db Db,
    cost: SharedCost,
}

impl<'db> Session<'db> {
    /// This session's private meter (all its queries charge here).
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// The shared database this session runs against.
    pub fn db(&self) -> &'db Db {
        self.db
    }

    /// Runs a query on this session's meter (see [`Db::query`]).
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult, QueryError> {
        let spec = parse_query(sql)?;
        self.query_spec(&spec, opts)
    }

    /// Runs a pre-parsed query on this session's meter.
    pub fn query_spec(
        &self,
        spec: &QuerySpec,
        opts: &QueryOptions,
    ) -> Result<QueryResult, QueryError> {
        self.db.query_spec_on(spec, opts, &self.cost)
    }

    /// [`Db::prepare`] charging this session's private meter. The plan
    /// cache itself is shared database-wide, so sessions preparing the
    /// same statement reuse one cached skeleton (and tactic memory).
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'db>, QueryError> {
        let (plan, _hit) = self.db.plan_cache.lookup_or_parse(sql)?;
        Ok(Prepared {
            db: self.db,
            cost: self.cost.clone(),
            plan,
        })
    }

    /// [`Db::explain`] for this session's binding.
    pub fn explain(&self, sql: &str, opts: &QueryOptions) -> Result<String, QueryError> {
        self.db.explain(sql, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_core::{TraceEvent, TraceBuffer};
    use rdb_storage::{Column, ValueType};

    fn db_with_families(n: i64) -> Db {
        let mut db = Db::builder().page_bytes(1024).open().unwrap();
        db.create_table(
            "FAMILIES",
            Schema::new(vec![
                Column::new("AGE", ValueType::Int),
                Column::new("SIZE", ValueType::Int),
                Column::new("ID", ValueType::Int),
            ]),
        )
        .unwrap();
        let mut state = 7u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let age = (state >> 33) as i64 % 100;
            db.insert(
                "FAMILIES",
                vec![Value::Int(age), Value::Int(i % 7), Value::Int(i)],
            )
            .unwrap();
        }
        db.create_index("IDX_AGE", "FAMILIES", &["AGE"]).unwrap();
        db.create_index("IDX_SIZE", "FAMILIES", &["SIZE"]).unwrap();
        db
    }

    fn params(pairs: &[(&str, i64)]) -> QueryOptions {
        let mut opts = QueryOptions::new();
        for (k, v) in pairs {
            opts = opts.with_param(*k, *v);
        }
        opts
    }

    fn no_params() -> QueryOptions {
        QueryOptions::new()
    }

    #[test]
    fn the_papers_query_both_bindings() {
        let db = db_with_families(2000);
        let sql = "select * from FAMILIES where AGE >= :A1";
        db.clear_cache();
        let all = db.query(sql, &params(&[("A1", 0)])).unwrap();
        assert_eq!(all.rows.len(), 2000);
        db.clear_cache();
        let none = db.query(sql, &params(&[("A1", 200)])).unwrap();
        assert_eq!(none.rows.len(), 0);
        assert!(
            none.cost < 0.1 * all.cost,
            "empty binding {} vs full binding {}",
            none.cost,
            all.cost
        );
    }

    #[test]
    fn projection_and_predicate() {
        let db = db_with_families(500);
        let r = db
            .query(
                "select ID from FAMILIES where SIZE = 3 and AGE >= 0",
                &no_params(),
            )
            .unwrap();
        assert_eq!(r.columns, vec!["ID"]);
        // SIZE == 3 ⇔ i % 7 == 3.
        let expect: Vec<i64> = (0..500).filter(|i| i % 7 == 3).collect();
        let mut got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn order_by_without_index_sorts_after_retrieval() {
        let db = db_with_families(300);
        let r = db
            .query(
                "select ID, AGE from FAMILIES where SIZE = 1 order by ID limit 5",
                &no_params(),
            )
            .unwrap();
        // ORDER BY ID has no index (only AGE/SIZE indexed): post-sort, then
        // limit. i % 7 == 1 → 1, 8, 15, 22, 29.
        let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 8, 15, 22, 29]);
    }

    #[test]
    fn order_by_indexed_column_uses_sorted_tactic() {
        let db = db_with_families(800);
        let r = db
            .query(
                "select AGE, ID from FAMILIES where SIZE = 2 order by AGE",
                &no_params(),
            )
            .unwrap();
        let ages: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert!(ages.windows(2).all(|w| w[0] <= w[1]), "sorted delivery");
        assert_eq!(ages.len(), (0..800).filter(|i| i % 7 == 2).count());
    }

    #[test]
    fn index_only_query_projects_from_keys() {
        let db = db_with_families(1000);
        // Query touching only AGE: IDX_AGE is self-sufficient.
        let r = db
            .query(
                "select AGE from FAMILIES where AGE between 90 and 99",
                &no_params(),
            )
            .unwrap();
        assert!(r.rows.iter().all(|row| {
            let v = row[0].as_i64().unwrap();
            (90..=99).contains(&v)
        }));
        // Count against ground truth via a star query.
        let truth = db
            .query("select * from FAMILIES where AGE >= 90", &no_params())
            .unwrap();
        assert_eq!(r.rows.len(), truth.rows.len());
    }

    #[test]
    fn limit_respected_without_order() {
        let db = db_with_families(1000);
        let r = db
            .query(
                "select * from FAMILIES where SIZE = 4 limit to 3 rows",
                &no_params(),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn options_override_sql_limit_and_goal() {
        let db = db_with_families(500);
        // No LIMIT in the SQL; the option caps delivery anyway.
        let r = db
            .query(
                "select * from FAMILIES where SIZE = 4",
                &QueryOptions::new().with_limit(3),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        // An explicit goal override coexists with the limit (it replaces
        // the limit-derived fast-first goal, not the limit itself).
        let r = db
            .query(
                "select * from FAMILIES where SIZE = 4",
                &QueryOptions::new()
                    .with_limit(2)
                    .with_goal(OptimizeGoal::TotalTime),
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn errors_for_unknown_entities() {
        let db = db_with_families(10);
        assert!(matches!(
            db.query("select * from NOPE", &no_params()),
            Err(QueryError::UnknownTable(t)) if t == "NOPE"
        ));
        assert!(matches!(
            db.query("select MISSING from FAMILIES", &no_params()),
            Err(QueryError::UnknownColumn { column, .. }) if column == "MISSING"
        ));
        assert!(matches!(
            db.query("select * from FAMILIES where NOPE = 1", &no_params()),
            Err(QueryError::UnknownColumn { column, .. }) if column == "NOPE"
        ));
        assert!(matches!(
            db.query("select * from FAMILIES where AGE >= :unbound", &no_params()),
            Err(QueryError::UnboundVar(v)) if v == "unbound"
        ));
        assert!(matches!(
            db.query("select", &no_params()),
            Err(QueryError::Parse(_))
        ));
    }

    #[test]
    fn typed_errors_for_writes() {
        let mut db = db_with_families(10);
        assert!(matches!(
            db.insert("FAMILIES", vec![Value::Int(1)]),
            Err(QueryError::Arity {
                expected: 3,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            db.insert(
                "FAMILIES",
                vec![Value::Int(1), Value::Str("x".into()), Value::Int(2)],
            ),
            Err(QueryError::TypeMismatch {
                column,
                expected: ValueType::Int,
                got: Some(ValueType::Str),
                ..
            }) if column == "SIZE"
        ));
        assert!(matches!(
            db.insert("FAMILIES", vec![Value::Null, Value::Int(1), Value::Int(2)]),
            Err(QueryError::TypeMismatch { got: None, .. })
        ));
        // Typed errors still render the historical messages.
        let e = db.query("select * from NOPE", &no_params()).unwrap_err();
        assert_eq!(e.to_string(), "no such table NOPE");
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut db = Db::builder().open().unwrap();
        db.create_table("T", Schema::new(vec![Column::new("x", ValueType::Int)]))
            .unwrap();
        for i in 0..100 {
            db.insert("T", vec![Value::Int(i)]).unwrap();
        }
        db.create_index("IDX_X", "T", &["x"]).unwrap();
        let r = db
            .query("select x from T where x between 10 and 12", &no_params())
            .unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn order_by_desc_with_limit() {
        let db = db_with_families(400);
        let r = db
            .query(
                "select ID from FAMILIES where SIZE = 1 order by ID desc limit to 4 rows",
                &no_params(),
            )
            .unwrap();
        let mut expect: Vec<i64> = (0..400).filter(|i| i % 7 == 1).collect();
        expect.reverse();
        expect.truncate(4);
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(got, expect);
        // DESC on an indexed column is served by a reverse index scan
        // through the Sorted tactic.
        let ages = db
            .query(
                "select AGE from FAMILIES where SIZE = 1 order by AGE desc",
                &no_params(),
            )
            .unwrap();
        let vals: Vec<i64> = ages
            .rows
            .iter()
            .map(|row| row[0].as_i64().unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn count_star_returns_single_row_and_total_time_goal() {
        let db = db_with_families(1500);
        let r = db
            .query("select count(*) from FAMILIES where SIZE = 4", &no_params())
            .unwrap();
        assert_eq!(r.columns, vec!["COUNT"]);
        let expect = (0..1500).filter(|i| i % 7 == 4).count() as i64;
        assert_eq!(r.rows, vec![vec![Value::Int(expect)]]);
        // COUNT with LIMIT still counts everything (aggregate controls the
        // retrieval; the limit would apply to the single output row).
        let limited = db
            .query(
                "select count(*) from FAMILIES where SIZE = 4 limit to 1 rows",
                &no_params(),
            )
            .unwrap();
        assert_eq!(limited.rows, vec![vec![Value::Int(expect)]]);
        // COUNT over an OR restriction goes through the union scan.
        let or = db
            .query(
                "select count(*) from FAMILIES where SIZE = 1 or SIZE = 2",
                &no_params(),
            )
            .unwrap();
        let expect_or = (0..1500).filter(|i| i % 7 == 1 || i % 7 == 2).count() as i64;
        assert_eq!(or.rows, vec![vec![Value::Int(expect_or)]]);
    }

    #[test]
    fn composite_index_prefix_range_used() {
        let mut db = Db::builder().page_bytes(1024).open().unwrap();
        db.create_table(
            "T",
            Schema::new(vec![
                Column::new("region", ValueType::Int),
                Column::new("age", ValueType::Int),
                Column::new("id", ValueType::Int),
            ]),
        )
        .unwrap();
        for i in 0..6000i64 {
            db.insert(
                "T",
                vec![Value::Int(i % 6), Value::Int(i % 100), Value::Int(i)],
            )
            .unwrap();
        }
        db.create_index("IDX_RA", "T", &["region", "age"]).unwrap();
        db.clear_cache();
        let narrow = db
            .query(
                "select id from T where region = 3 and age between 30 and 32",
                &no_params(),
            )
            .unwrap();
        let expect = (0..6000)
            .filter(|i| i % 6 == 3 && (30..=32).contains(&(i % 100)))
            .count();
        assert_eq!(narrow.rows.len(), expect);
        // The composite range must make this far cheaper than the
        // region-only prefix.
        db.clear_cache();
        let broad = db
            .query("select id from T where region = 3", &no_params())
            .unwrap();
        assert!(
            narrow.cost < 0.4 * broad.cost,
            "composite range {} vs prefix-only {}",
            narrow.cost,
            broad.cost
        );
    }

    #[test]
    fn delete_where_maintains_indexes() {
        let mut db = db_with_families(1000);
        let deleted = db
            .delete_where(
                "FAMILIES",
                &crate::expr::Expr::cmp("SIZE", crate::expr::CmpOp::Eq, 3),
                &no_params(),
            )
            .unwrap();
        assert_eq!(deleted, (0..1000).filter(|i| i % 7 == 3).count());
        // Neither the heap nor the index sees the victims any more.
        let via_index = db
            .query("select ID from FAMILIES where SIZE = 3", &no_params())
            .unwrap();
        assert!(via_index.rows.is_empty());
        let all = db
            .query("select ID from FAMILIES where SIZE >= 0", &no_params())
            .unwrap();
        assert_eq!(all.rows.len(), 1000 - deleted);
    }

    #[test]
    fn update_where_moves_index_entries() {
        let mut db = db_with_families(700);
        let updated = db
            .update_where(
                "FAMILIES",
                "SIZE",
                Value::Int(99),
                &crate::expr::Expr::cmp("SIZE", crate::expr::CmpOp::Eq, 2),
                &no_params(),
            )
            .unwrap();
        assert_eq!(updated, (0..700).filter(|i| i % 7 == 2).count());
        let old = db
            .query("select ID from FAMILIES where SIZE = 2", &no_params())
            .unwrap();
        assert!(old.rows.is_empty());
        let new = db
            .query("select ID from FAMILIES where SIZE = 99", &no_params())
            .unwrap();
        assert_eq!(new.rows.len(), updated);
        assert_eq!(db.row_count("FAMILIES"), Some(700));
    }

    #[test]
    fn explain_reports_binding_specific_tactic() {
        let db = db_with_families(3000);
        let sql = "select * from FAMILIES where AGE >= :A1";
        let empty = db.explain(sql, &params(&[("A1", 500)])).unwrap();
        assert!(empty.contains("EndOfData"), "{empty}");
        let selective = db.explain(sql, &params(&[("A1", 99)])).unwrap();
        assert!(
            selective.contains("BackgroundOnly") || selective.contains("TinyRangeFetch"),
            "{selective}"
        );
        let all = db.explain(sql, &params(&[("A1", 0)])).unwrap();
        assert!(all.contains("BackgroundOnly"), "{all}");
        // OR queries route to the union machinery.
        let or = db
            .explain(
                "select * from FAMILIES where AGE = 1 or SIZE = 2",
                &no_params(),
            )
            .unwrap();
        assert!(or.contains("Union"), "{or}");
    }

    #[test]
    fn explain_agrees_with_the_executed_tactic() {
        let db = db_with_families(3000);
        let by_age = "select * from FAMILIES where AGE >= :A1";
        let cases = [
            (
                "select * from FAMILIES where SIZE = 2 order by AGE limit to 5 rows",
                no_params(),
            ),
            ("select AGE, ID from FAMILIES where SIZE = 2 order by AGE", no_params()),
            ("select AGE from FAMILIES where AGE >= 30", no_params()),
            (by_age, params(&[("A1", 500)])),
            (by_age, params(&[("A1", 99)])),
            (by_age, params(&[("A1", 0)])),
        ];
        for (sql, opts) in cases {
            let explained = db.explain(sql, &opts).unwrap();
            let ran = db
                .explain_analyze(sql, &opts)
                .unwrap()
                .events
                .into_iter()
                .find_map(|e| match e {
                    TraceEvent::TacticChosen { tactic, .. } => Some(tactic),
                    _ => None,
                })
                .expect("tactic-chosen event");
            assert_eq!(
                explained.split(' ').next(),
                Some(ran.as_str()),
                "{sql}: EXPLAIN said {explained:?}"
            );
        }
    }

    #[test]
    fn or_query_matches_union_semantics() {
        let db = db_with_families(2100);
        let r = db
            .query(
                "select ID from FAMILIES where SIZE = 1 or SIZE = 3",
                &no_params(),
            )
            .unwrap();
        let expect = (0..2100).filter(|i| i % 7 == 1 || i % 7 == 3).count();
        assert_eq!(r.rows.len(), expect);
        assert!(r.strategy.contains("Union"), "{}", r.strategy);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Db::builder().open().unwrap();
        db.create_table("T", Schema::new(vec![Column::new("x", ValueType::Int)]))
            .unwrap();
        assert!(matches!(
            db.create_table("T", Schema::new(vec![Column::new("x", ValueType::Int)])),
            Err(QueryError::DuplicateTable(t)) if t == "T"
        ));
    }

    #[test]
    fn trace_sink_observes_the_run() {
        let db = db_with_families(1500);
        let buf = TraceBuffer::shared(4096);
        let opts = params(&[("A1", 0)]).with_trace(buf.clone());
        let r = db
            .query("select * from FAMILIES where AGE >= :A1", &opts)
            .unwrap();
        let events = buf.events();
        let (strategy, rows) = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Winner { strategy, rows, .. } => Some((strategy.clone(), *rows)),
                _ => None,
            })
            .expect("winner event");
        // The Winner event carries the detailed strategy string
        // ("background-only (Jscan -> Tscan)"); the result carries the
        // tactic name ("BackgroundOnly"). Normalized, the detail must
        // name the same tactic.
        let normalize =
            |s: &str| -> String { s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_lowercase() };
        assert!(
            normalize(&strategy).contains(&normalize(&r.strategy)),
            "winner {strategy:?} vs strategy {:?}",
            r.strategy
        );
        assert_eq!(rows, r.rows.len());
        // Phase costs tile the run: their sum is the query's total cost.
        let phase_sum: f64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseCost { cost, .. } => Some(*cost),
                _ => None,
            })
            .sum();
        assert!(
            (phase_sum - r.cost).abs() <= 1e-6 * r.cost.max(1.0),
            "phases {phase_sum} vs cost {}",
            r.cost
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::TacticChosen { .. })),
            "tactic-chosen event missing"
        );
    }

    #[test]
    fn explain_analyze_renders_timeline_and_json() {
        let db = db_with_families(2000);
        let ea = db
            .explain_analyze(
                "select * from FAMILIES where AGE >= :A1",
                &params(&[("A1", 0)]),
            )
            .unwrap();
        assert!(!ea.events.is_empty());
        assert_eq!(ea.result.rows.len(), 2000);
        let text = ea.render();
        assert!(text.starts_with("EXPLAIN ANALYZE select"), "{text}");
        assert!(text.contains("winner"), "{text}");
        let json = ea.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"events\":["), "{json}");
        assert!(json.contains("\"event\":\"winner\""), "{json}");
        assert!(json.contains("\"event\":\"phase_cost\""), "{json}");
    }

    #[test]
    fn metrics_report_pool_activity() {
        let db = db_with_families(1000);
        db.clear_cache();
        let cold = db
            .query("select * from FAMILIES where AGE >= 0", &no_params())
            .unwrap();
        assert!(cold.metrics.pool_misses > 0, "{:?}", cold.metrics);
        let warm = db
            .query("select * from FAMILIES where AGE >= 0", &no_params())
            .unwrap();
        assert!(warm.metrics.pool_hits > 0, "{:?}", warm.metrics);
    }

    /// Rows as sorted `(AGE, SIZE, ID)` tuples — prepared and ad-hoc runs
    /// must produce the same row *set*; delivery order may differ when a
    /// remembered tactic changes which strategy reports first.
    fn sorted_tuples(r: &QueryResult) -> Vec<(i64, i64, i64)> {
        let mut out: Vec<(i64, i64, i64)> = r
            .rows
            .iter()
            .map(|row| {
                (
                    row[0].as_i64().unwrap(),
                    row[1].as_i64().unwrap(),
                    row[2].as_i64().unwrap(),
                )
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn prepared_matches_adhoc_across_bindings() {
        let db = db_with_families(2000);
        let sql = "select * from FAMILIES where AGE >= :A1";
        let stmt = db.prepare(sql).unwrap();
        for (i, a1) in [0i64, 90, 50, 99, 10].into_iter().enumerate() {
            let opts = params(&[("A1", a1)]);
            let prepared = stmt.execute(&opts).unwrap();
            let adhoc = db.query(sql, &opts).unwrap();
            assert_eq!(prepared.columns, adhoc.columns);
            assert_eq!(
                sorted_tuples(&prepared),
                sorted_tuples(&adhoc),
                "binding A1={a1}"
            );
            if i == 0 {
                assert_eq!(prepared.metrics.plan_cache_misses, 1, "{:?}", prepared.metrics);
            } else {
                assert_eq!(prepared.metrics.plan_cache_hits, 1, "{:?}", prepared.metrics);
            }
        }
        let stats = db.plan_cache_stats();
        assert_eq!(stats.statements, 1);
        assert!(stats.hits >= 4, "{stats:?}");
        // Ad-hoc queries never consult the cache.
        let adhoc = db.query(sql, &params(&[("A1", 0)])).unwrap();
        assert_eq!(adhoc.metrics.plan_cache_hits, 0);
        assert_eq!(adhoc.metrics.plan_cache_misses, 0);
    }

    #[test]
    fn prepared_invalidation_on_catalog_change_and_clear() {
        let mut db = db_with_families(1000);
        let sql = "select * from FAMILIES where AGE >= :A1";
        {
            let stmt = db.prepare(sql).unwrap();
            let r = stmt.execute(&params(&[("A1", 50)])).unwrap();
            assert_eq!(r.metrics.plan_cache_misses, 1);
        }
        // A catalog change (new index) bumps the generation: the cached
        // skeleton survives in the cache but its tag is stale.
        db.create_index("IDX_ID", "FAMILIES", &["ID"]).unwrap();
        let inval_before = db.plan_cache_stats().invalidations;
        let stmt = db.prepare(sql).unwrap();
        let opts = params(&[("A1", 50)]);
        let r = stmt.execute(&opts).unwrap();
        assert_eq!(r.metrics.plan_cache_misses, 1, "stale tag must re-resolve");
        assert_eq!(
            db.plan_cache_stats().invalidations,
            inval_before + 1,
            "catalog bump recorded as invalidation"
        );
        assert_eq!(sorted_tuples(&r), sorted_tuples(&db.query(sql, &opts).unwrap()));
        // Warm again, then clear_plan_cache: the in-place wipe reaches this
        // outstanding handle even though the cache map was emptied.
        assert_eq!(stmt.execute(&opts).unwrap().metrics.plan_cache_hits, 1);
        db.clear_plan_cache();
        let r = stmt.execute(&opts).unwrap();
        assert_eq!(
            r.metrics.plan_cache_misses, 1,
            "plan-cache clear must reach outstanding Prepared handles"
        );
        assert_eq!(sorted_tuples(&r), sorted_tuples(&db.query(sql, &opts).unwrap()));
    }

    #[test]
    fn prepared_trace_reports_cache_and_hint_events() {
        let db = db_with_families(2000);
        let sql = "select * from FAMILIES where AGE >= :A1";
        let stmt = db.prepare(sql).unwrap();
        let outcomes_of = |buf: &std::sync::Arc<TraceBuffer>| -> Vec<String> {
            buf.events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::PlanCache { outcome, .. } => Some(outcome.clone()),
                    _ => None,
                })
                .collect()
        };
        let cold = TraceBuffer::shared(4096);
        stmt.execute(&params(&[("A1", 90)]).with_trace(cold.clone()))
            .unwrap();
        assert_eq!(outcomes_of(&cold), vec!["miss"], "cold run: no hint yet");
        // Same binding again: skeleton hit, and the remembered tactic is
        // applied (identical estimates cannot drift).
        let warm = TraceBuffer::shared(4096);
        stmt.execute(&params(&[("A1", 90)]).with_trace(warm.clone()))
            .unwrap();
        assert_eq!(outcomes_of(&warm), vec!["hit", "hint-applied"]);
        // Drifted binding: AGE >= 200 is an empty range, so estimation
        // proves end-of-data — a certain shortcut always overrules the
        // remembered tactic. Dynamic optimization is seeded, never
        // bypassed.
        let drift = TraceBuffer::shared(4096);
        stmt.execute(&params(&[("A1", 200)]).with_trace(drift.clone()))
            .unwrap();
        assert_eq!(outcomes_of(&drift), vec!["hit", "hint-dropped"]);
    }

    #[test]
    fn db_and_session_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Db>();
        assert_send_sync::<Session<'static>>();
        assert_send_sync::<QueryOptions>();
    }

    #[test]
    fn sessions_meter_queries_independently() {
        let db = db_with_families(1000);
        let a = db.session();
        let b = db.session();
        let ra = a
            .query("select * from FAMILIES where AGE >= 0", &no_params())
            .unwrap();
        let b_before = b.cost().total();
        assert_eq!(
            b_before, 0.0,
            "session B never ran a query, its meter must be untouched"
        );
        let a_after = a.cost().total();
        let rb = b
            .query("select * from FAMILIES where AGE >= 90", &no_params())
            .unwrap();
        assert!(ra.rows.len() > rb.rows.len());
        assert!(a.cost().total() > 0.0 && b.cost().total() > 0.0);
        assert_eq!(
            a.cost().total(),
            a_after,
            "session B's query must not charge session A's meter"
        );
    }

    #[test]
    fn concurrent_sessions_agree_with_sequential_results() {
        let db = db_with_families(2000);
        let sequential = db
            .query("select ID from FAMILIES where SIZE = 3", &no_params())
            .unwrap();
        let mut expect: Vec<i64> = sequential
            .rows
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        expect.sort_unstable();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let session = db.session();
                let expect = expect.clone();
                scope.spawn(move || {
                    let r = session
                        .query("select ID from FAMILIES where SIZE = 3", &no_params())
                        .unwrap();
                    let mut got: Vec<i64> =
                        r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
                    got.sort_unstable();
                    assert_eq!(got, expect);
                    assert!(r.metrics.pool_hits + r.metrics.pool_misses > 0);
                });
            }
        });
    }

    #[test]
    fn parallel_optimizer_matches_cooperative_through_sql() {
        // Same deterministic data in two databases: one cooperative, one
        // with the OS-thread background stage. Row sets must agree on
        // every binding; parallel mode only changes the mechanics.
        let cooperative = db_with_families(3000);
        let mut parallel = db_with_families(3000);
        parallel.config.optimizer.parallel = true;
        for a1 in [0i64, 50, 90, 99] {
            let opts = params(&[("A1", a1)]);
            let sql = "select ID from FAMILIES where AGE >= :A1 and SIZE = 2";
            let collect = |r: QueryResult| {
                let mut ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
                ids.sort_unstable();
                ids
            };
            cooperative.clear_cache();
            parallel.clear_cache();
            let seq = collect(cooperative.query(sql, &opts).unwrap());
            let par_result = parallel.query(sql, &opts).unwrap();
            assert!(par_result.cost > 0.0, "parallel run must be billed");
            assert_eq!(
                collect(par_result),
                seq,
                "AGE >= {a1}: parallel optimizer must deliver the same rows"
            );
        }
    }
}
