//! Boolean restriction trees with host variables.
//!
//! An [`Expr`] is built at "compile time" with unbound host variables;
//! [`Expr::bind`] substitutes the run's parameter values. Because binding
//! precedes optimizer invocation, every run re-derives index ranges from
//! the *actual* values — the prerequisite for the paper's per-run dynamic
//! strategy choice (`AGE >= :A1` resolving differently for 0 and 200).
//!
//! Execution evaluates through [`CompiledPred`]. The tree-walking
//! evaluators on [`Expr`] (`eval`, `record_pred`, `key_pred`,
//! `range_for_composite`) are built for tests only, as the oracle the
//! compiled form is checked against; outside tests a bound tree serves
//! only to derive the per-arm ranges of an OR-connected restriction
//! ([`Expr::range_for`]).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use rdb_btree::{KeyBound, KeyRange};
use rdb_core::{KeyPred, RecordPred};
use rdb_storage::{Record, Schema, Value};

use crate::error::QueryError;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    pub(crate) fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false; // SQL-style: comparisons with NULL are not TRUE
        }
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A literal value.
    Literal(Value),
    /// A named host variable, bound per run.
    HostVar(String),
}

impl Scalar {
    fn bound(&self, params: &HashMap<String, Value>) -> Result<Value, QueryError> {
        match self {
            Scalar::Literal(v) => Ok(v.clone()),
            Scalar::HostVar(name) => params
                .get(name)
                .cloned()
                .ok_or_else(|| QueryError::UnboundVar(name.clone())),
        }
    }
}

/// A Boolean restriction over one table's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Always true (empty WHERE clause).
    True,
    /// `column op scalar`.
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal or host variable.
        rhs: Scalar,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column name.
        column: String,
        /// Lower bound.
        lo: Scalar,
        /// Upper bound.
        hi: Scalar,
    },
    /// `left op right` comparing two columns (the join-predicate form;
    /// also legal within one table). NULL on either side never matches.
    ColCmp {
        /// Left column name (possibly `TABLE.COLUMN`-qualified).
        left: String,
        /// Operator.
        op: CmpOp,
        /// Right column name (possibly `TABLE.COLUMN`-qualified).
        right: String,
    },
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `column op value` with a literal.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op,
            rhs: Scalar::Literal(value.into()),
        }
    }

    /// `column op :var` with a host variable.
    pub fn cmp_var(column: impl Into<String>, op: CmpOp, var: impl Into<String>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op,
            rhs: Scalar::HostVar(var.into()),
        }
    }

    /// Conjunction helper.
    pub fn and(exprs: Vec<Expr>) -> Expr {
        Expr::And(exprs)
    }

    /// True if the expression references no host variables.
    pub fn is_bound(&self) -> bool {
        match self {
            Expr::True => true,
            Expr::Cmp { rhs, .. } => matches!(rhs, Scalar::Literal(_)),
            Expr::Between { lo, hi, .. } => {
                matches!(lo, Scalar::Literal(_)) && matches!(hi, Scalar::Literal(_))
            }
            Expr::ColCmp { .. } => true,
            Expr::And(es) | Expr::Or(es) => es.iter().all(Expr::is_bound),
            Expr::Not(e) => e.is_bound(),
        }
    }

    /// Substitutes host variables with this run's parameter values.
    pub fn bind(&self, params: &HashMap<String, Value>) -> Result<Expr, QueryError> {
        Ok(match self {
            Expr::True => Expr::True,
            Expr::Cmp { column, op, rhs } => Expr::Cmp {
                column: column.clone(),
                op: *op,
                rhs: Scalar::Literal(rhs.bound(params)?),
            },
            Expr::Between { column, lo, hi } => Expr::Between {
                column: column.clone(),
                lo: Scalar::Literal(lo.bound(params)?),
                hi: Scalar::Literal(hi.bound(params)?),
            },
            Expr::ColCmp { .. } => self.clone(),
            Expr::And(es) => Expr::And(
                es.iter()
                    .map(|e| e.bind(params))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Or(es) => Expr::Or(
                es.iter()
                    .map(|e| e.bind(params))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.bind(params)?)),
        })
    }

    /// All column names referenced.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::True => {}
            Expr::Cmp { column, .. } | Expr::Between { column, .. } => {
                out.insert(column.clone());
            }
            Expr::ColCmp { left, right, .. } => {
                out.insert(left.clone());
                out.insert(right.clone());
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_columns(out);
                }
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }

    /// Evaluates a **bound** expression against a record.
    #[cfg(test)]
    ///
    /// # Panics
    /// If the expression still contains host variables or references a
    /// column missing from the schema.
    pub fn eval(&self, schema: &Schema, record: &Record) -> bool {
        match self {
            Expr::True => true,
            Expr::Cmp { column, op, rhs } => {
                let idx = schema
                    .column_index(column)
                    .unwrap_or_else(|| panic!("unknown column {column}"));
                let Scalar::Literal(v) = rhs else {
                    panic!("eval of unbound expression")
                };
                op.eval(&record[idx], v)
            }
            Expr::Between { column, lo, hi } => {
                let idx = schema
                    .column_index(column)
                    .unwrap_or_else(|| panic!("unknown column {column}"));
                let (Scalar::Literal(lo), Scalar::Literal(hi)) = (lo, hi) else {
                    panic!("eval of unbound expression")
                };
                let v = &record[idx];
                !v.is_null() && v >= lo && v <= hi
            }
            Expr::ColCmp { left, op, right } => {
                let li = schema
                    .column_index(left)
                    .unwrap_or_else(|| panic!("unknown column {left}"));
                let ri = schema
                    .column_index(right)
                    .unwrap_or_else(|| panic!("unknown column {right}"));
                op.eval(&record[li], &record[ri])
            }
            Expr::And(es) => es.iter().all(|e| e.eval(schema, record)),
            Expr::Or(es) => es.iter().any(|e| e.eval(schema, record)),
            Expr::Not(e) => !e.eval(schema, record),
        }
    }

    /// Extracts the key range this bound expression implies for an index
    /// whose leading key column is `column`: top-level conjuncts (and the
    /// expression itself) constrain the range; OR/NOT subtrees contribute
    /// nothing (conservatively `all`).
    pub fn range_for(&self, column: &str) -> KeyRange {
        let mut range = KeyRange::all();
        self.tighten_range(column, &mut range);
        range
    }

    fn tighten_range(&self, column: &str, range: &mut KeyRange) {
        match self {
            Expr::Cmp {
                column: c,
                op,
                rhs: Scalar::Literal(v),
            } if c == column => match op {
                CmpOp::Eq => {
                    tighten_lo(range, KeyBound::Inclusive(vec![v.clone()]));
                    tighten_hi(range, KeyBound::Inclusive(vec![v.clone()]));
                }
                CmpOp::Ge => tighten_lo(range, KeyBound::Inclusive(vec![v.clone()])),
                CmpOp::Gt => tighten_lo(range, KeyBound::Exclusive(vec![v.clone()])),
                CmpOp::Le => tighten_hi(range, KeyBound::Inclusive(vec![v.clone()])),
                CmpOp::Lt => tighten_hi(range, KeyBound::Exclusive(vec![v.clone()])),
                CmpOp::Ne => {}
            },
            Expr::Between {
                column: c,
                lo: Scalar::Literal(lo),
                hi: Scalar::Literal(hi),
            } if c == column => {
                tighten_lo(range, KeyBound::Inclusive(vec![lo.clone()]));
                tighten_hi(range, KeyBound::Inclusive(vec![hi.clone()]));
            }
            Expr::And(es) => {
                for e in es {
                    e.tighten_range(column, range);
                }
            }
            // OR / NOT / other columns: no safe tightening.
            _ => {}
        }
    }

    /// Extracts the key range a bound expression implies for a
    /// **multi-column** index with the given key columns, in key order:
    /// equality constraints on a leading prefix extend the bound, then one
    /// range constraint on the next column closes it. For example, with an
    /// index on `(region, age)`, `region = 3 AND age >= 30` yields the
    /// range `[(3, 30) .. (3, +inf))` — i.e. lo `(3, 30)`, hi prefix `(3)`.
    #[cfg(test)]
    pub fn range_for_composite(&self, columns: &[String]) -> KeyRange {
        let mut prefix: Vec<Value> = Vec::new();
        let mut range = KeyRange::all();
        for column in columns {
            let col_range = self.range_for(column);
            // Equality pins the column: both bounds inclusive on one value.
            let eq_value = match (&col_range.lo, &col_range.hi) {
                (KeyBound::Inclusive(lo), KeyBound::Inclusive(hi))
                    if lo.len() == 1 && lo == hi =>
                {
                    Some(lo[0].clone())
                }
                _ => None,
            };
            if let Some(v) = eq_value {
                prefix.push(v);
                // Fully pinned so far: the whole prefix is the range.
                range = KeyRange {
                    lo: KeyBound::Inclusive(prefix.clone()),
                    hi: KeyBound::Inclusive(prefix.clone()),
                };
                continue;
            }
            // First non-equality column: extend the prefix with its bounds
            // and stop — later columns cannot tighten a B-tree range.
            let extend = |bound: &KeyBound| -> KeyBound {
                match bound {
                    KeyBound::Unbounded if prefix.is_empty() => KeyBound::Unbounded,
                    KeyBound::Unbounded => KeyBound::Inclusive(prefix.clone()),
                    KeyBound::Inclusive(vs) => {
                        let mut full = prefix.clone();
                        full.extend(vs.iter().cloned());
                        KeyBound::Inclusive(full)
                    }
                    KeyBound::Exclusive(vs) => {
                        let mut full = prefix.clone();
                        full.extend(vs.iter().cloned());
                        KeyBound::Exclusive(full)
                    }
                }
            };
            range = KeyRange {
                lo: extend(&col_range.lo),
                hi: extend(&col_range.hi),
            };
            break;
        }
        range
    }

    /// Compiles a bound expression into a record predicate for `schema`.
    #[cfg(test)]
    pub fn record_pred(&self, schema: &Schema) -> RecordPred {
        let expr = self.clone();
        let schema = schema.clone();
        Arc::new(move |record: &Record| expr.eval(&schema, record))
    }

    /// Compiles a bound expression into an index-key predicate, given the
    /// index's key columns as `(name, key position)` pairs. Returns `None`
    /// unless every referenced column is covered by the key.
    #[cfg(test)]
    pub fn key_pred(&self, key_columns: &[(String, usize)]) -> Option<KeyPred> {
        let needed = self.columns();
        if !needed
            .iter()
            .all(|c| key_columns.iter().any(|(name, _)| name == c))
        {
            return None;
        }
        // Build a synthetic schema over the key columns so eval works
        // unchanged on key tuples.
        let expr = self.clone();
        let names: Vec<String> = key_columns.iter().map(|(n, _)| n.clone()).collect();
        Some(Arc::new(move |key: &[Value]| {
            eval_on_named_values(&expr, &names, key)
        }))
    }
}

#[cfg(test)]
fn eval_on_named_values(expr: &Expr, names: &[String], values: &[Value]) -> bool {
    match expr {
        Expr::True => true,
        Expr::Cmp { column, op, rhs } => {
            let idx = names
                .iter()
                .position(|n| n == column)
                .expect("key pred covers all columns");
            let Scalar::Literal(v) = rhs else {
                panic!("eval of unbound expression")
            };
            op.eval(&values[idx], v)
        }
        Expr::Between { column, lo, hi } => {
            let idx = names
                .iter()
                .position(|n| n == column)
                .expect("key pred covers all columns");
            let (Scalar::Literal(lo), Scalar::Literal(hi)) = (lo, hi) else {
                panic!("eval of unbound expression")
            };
            let v = &values[idx];
            !v.is_null() && v >= lo && v <= hi
        }
        Expr::ColCmp { left, op, right } => {
            let li = names
                .iter()
                .position(|n| n == left)
                .expect("key pred covers all columns");
            let ri = names
                .iter()
                .position(|n| n == right)
                .expect("key pred covers all columns");
            op.eval(&values[li], &values[ri])
        }
        Expr::And(es) => es.iter().all(|e| eval_on_named_values(e, names, values)),
        Expr::Or(es) => es.iter().any(|e| eval_on_named_values(e, names, values)),
        Expr::Not(e) => !eval_on_named_values(e, names, values),
    }
}

/// Positional argument values for one execution of a [`CompiledPred`],
/// produced by [`CompiledPred::bind_args`]. Shared (not cloned) into the
/// run's record/key predicates.
pub type PredArgs = Arc<[Value]>;

/// A restriction lowered against a fixed schema: column names resolved to
/// value positions and host variables interned into dense argument slots.
///
/// This is the binding-independent half of predicate work, split out so a
/// cached plan skeleton can amortize it. [`CompiledPred::compile`] runs
/// once at resolve time; each execution then fills a flat argument vector
/// with [`bind_args`](CompiledPred::bind_args) — one map lookup per
/// distinct host variable — instead of deep-cloning the tree the way
/// [`Expr::bind`] must, and evaluation indexes records directly instead
/// of re-resolving column names at every node for every row.
#[derive(Debug, Clone)]
pub struct CompiledPred {
    root: Node,
    /// Host-variable names in argument-slot order (first occurrence in
    /// depth-first tree order, deduplicated).
    params: Vec<String>,
}

/// Right-hand side of a lowered comparison: a literal kept in place or a
/// slot into the run's argument vector.
#[derive(Debug, Clone)]
enum Arg {
    Lit(Value),
    Var(usize),
}

impl Arg {
    fn get<'a>(&'a self, args: &'a [Value]) -> &'a Value {
        match self {
            Arg::Lit(v) => v,
            Arg::Var(i) => &args[*i],
        }
    }
}

/// [`Expr`] with column names resolved to positions and scalars lowered
/// to [`Arg`]s. Mirrors the `Expr` variants one-to-one so the two
/// evaluation semantics stay trivially identical.
#[derive(Debug, Clone)]
enum Node {
    True,
    Cmp { col: usize, op: CmpOp, rhs: Arg },
    Between { col: usize, lo: Arg, hi: Arg },
    ColCmp { left: usize, op: CmpOp, right: usize },
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
}

impl CompiledPred {
    /// Lowers `expr` against `schema`.
    ///
    /// # Panics
    /// If the expression references a column missing from the schema —
    /// callers validate columns first (resolve time rejects unknown
    /// columns with a typed error before compiling).
    pub fn compile(expr: &Expr, schema: &Schema) -> CompiledPred {
        let mut params = Vec::new();
        let root = lower(expr, schema, &mut params);
        CompiledPred { root, params }
    }

    /// Resolves this run's parameter values into a positional argument
    /// vector, erroring (like [`Expr::bind`]) on the first host variable
    /// in tree order that has no binding.
    pub fn bind_args(&self, params: &HashMap<String, Value>) -> Result<PredArgs, QueryError> {
        let mut out = Vec::with_capacity(self.params.len());
        for name in &self.params {
            out.push(
                params
                    .get(name)
                    .cloned()
                    .ok_or_else(|| QueryError::UnboundVar(name.clone()))?,
            );
        }
        Ok(out.into())
    }

    /// Evaluates against a full record. `args` must come from
    /// [`bind_args`](Self::bind_args) on this same predicate.
    pub fn matches(&self, args: &[Value], record: &Record) -> bool {
        self.root.eval(args, record.values())
    }

    /// The per-run record predicate: a closure over this shared tree and
    /// the run's arguments — no tree or schema clone per execution.
    pub fn record_pred(self: &Arc<Self>, args: &PredArgs) -> RecordPred {
        let pred = Arc::clone(self);
        let args = Arc::clone(args);
        Arc::new(move |record: &Record| pred.root.eval(&args, record.values()))
    }

    /// The per-run key predicate. Only meaningful on a predicate whose
    /// positions index the key tuple — i.e. the output of
    /// [`remap_columns`](Self::remap_columns) with a record→key mapping.
    pub fn key_pred(self: &Arc<Self>, args: &PredArgs) -> KeyPred {
        let pred = Arc::clone(self);
        let args = Arc::clone(args);
        Arc::new(move |key: &[Value]| pred.root.eval(&args, key))
    }

    /// Rewrites every column position through `map` (e.g. record position
    /// → index-key position). Returns `None` when some referenced column
    /// has no mapping — the caller's signal that evaluating this
    /// predicate over the mapped tuples alone would be illegal.
    pub fn remap_columns(&self, map: impl Fn(usize) -> Option<usize>) -> Option<CompiledPred> {
        Some(CompiledPred {
            root: self.root.remap(&map)?,
            params: self.params.clone(),
        })
    }

    /// Positional mirror of [`Expr::range_for`]: the key range this
    /// predicate implies for an index whose leading key is column `col`.
    pub fn range_for(&self, args: &[Value], col: usize) -> KeyRange {
        let mut range = KeyRange::all();
        self.root.tighten_range(args, col, &mut range);
        range
    }

    /// Positional mirror of `Expr::range_for_composite`: equality
    /// constraints pin a leading prefix of `key_cols` (record positions,
    /// in key order), then one range constraint closes the bound.
    pub fn range_for_composite(&self, args: &[Value], key_cols: &[usize]) -> KeyRange {
        let mut prefix: Vec<Value> = Vec::new();
        let mut range = KeyRange::all();
        for &col in key_cols {
            let col_range = self.range_for(args, col);
            let eq_value = match (&col_range.lo, &col_range.hi) {
                (KeyBound::Inclusive(lo), KeyBound::Inclusive(hi))
                    if lo.len() == 1 && lo == hi =>
                {
                    Some(lo[0].clone())
                }
                _ => None,
            };
            if let Some(v) = eq_value {
                prefix.push(v);
                range = KeyRange {
                    lo: KeyBound::Inclusive(prefix.clone()),
                    hi: KeyBound::Inclusive(prefix.clone()),
                };
                continue;
            }
            let extend = |bound: &KeyBound| -> KeyBound {
                match bound {
                    KeyBound::Unbounded if prefix.is_empty() => KeyBound::Unbounded,
                    KeyBound::Unbounded => KeyBound::Inclusive(prefix.clone()),
                    KeyBound::Inclusive(vs) => {
                        let mut full = prefix.clone();
                        full.extend(vs.iter().cloned());
                        KeyBound::Inclusive(full)
                    }
                    KeyBound::Exclusive(vs) => {
                        let mut full = prefix.clone();
                        full.extend(vs.iter().cloned());
                        KeyBound::Exclusive(full)
                    }
                }
            };
            range = KeyRange {
                lo: extend(&col_range.lo),
                hi: extend(&col_range.hi),
            };
            break;
        }
        range
    }
}

fn lower(expr: &Expr, schema: &Schema, params: &mut Vec<String>) -> Node {
    fn slot(s: &Scalar, params: &mut Vec<String>) -> Arg {
        match s {
            Scalar::Literal(v) => Arg::Lit(v.clone()),
            Scalar::HostVar(name) => Arg::Var(match params.iter().position(|p| p == name) {
                Some(i) => i,
                None => {
                    params.push(name.clone());
                    params.len() - 1
                }
            }),
        }
    }
    let col = |c: &str| {
        schema
            .column_index(c)
            .unwrap_or_else(|| panic!("unknown column {c}"))
    };
    match expr {
        Expr::True => Node::True,
        Expr::Cmp { column, op, rhs } => Node::Cmp {
            col: col(column),
            op: *op,
            rhs: slot(rhs, params),
        },
        Expr::Between { column, lo, hi } => Node::Between {
            col: col(column),
            lo: slot(lo, params),
            hi: slot(hi, params),
        },
        Expr::ColCmp { left, op, right } => Node::ColCmp {
            left: col(left),
            op: *op,
            right: col(right),
        },
        Expr::And(es) => Node::And(es.iter().map(|e| lower(e, schema, params)).collect()),
        Expr::Or(es) => Node::Or(es.iter().map(|e| lower(e, schema, params)).collect()),
        Expr::Not(e) => Node::Not(Box::new(lower(e, schema, params))),
    }
}

impl Node {
    fn eval(&self, args: &[Value], values: &[Value]) -> bool {
        match self {
            Node::True => true,
            Node::Cmp { col, op, rhs } => op.eval(&values[*col], rhs.get(args)),
            Node::Between { col, lo, hi } => {
                let v = &values[*col];
                !v.is_null() && v >= lo.get(args) && v <= hi.get(args)
            }
            Node::ColCmp { left, op, right } => op.eval(&values[*left], &values[*right]),
            Node::And(ns) => ns.iter().all(|n| n.eval(args, values)),
            Node::Or(ns) => ns.iter().any(|n| n.eval(args, values)),
            Node::Not(n) => !n.eval(args, values),
        }
    }

    fn remap(&self, map: &impl Fn(usize) -> Option<usize>) -> Option<Node> {
        Some(match self {
            Node::True => Node::True,
            Node::Cmp { col, op, rhs } => Node::Cmp {
                col: map(*col)?,
                op: *op,
                rhs: rhs.clone(),
            },
            Node::Between { col, lo, hi } => Node::Between {
                col: map(*col)?,
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Node::ColCmp { left, op, right } => Node::ColCmp {
                left: map(*left)?,
                op: *op,
                right: map(*right)?,
            },
            Node::And(ns) => Node::And(ns.iter().map(|n| n.remap(map)).collect::<Option<_>>()?),
            Node::Or(ns) => Node::Or(ns.iter().map(|n| n.remap(map)).collect::<Option<_>>()?),
            Node::Not(n) => Node::Not(Box::new(n.remap(map)?)),
        })
    }

    fn tighten_range(&self, args: &[Value], col: usize, range: &mut KeyRange) {
        match self {
            Node::Cmp { col: c, op, rhs } if *c == col => {
                let v = rhs.get(args);
                match op {
                    CmpOp::Eq => {
                        tighten_lo(range, KeyBound::Inclusive(vec![v.clone()]));
                        tighten_hi(range, KeyBound::Inclusive(vec![v.clone()]));
                    }
                    CmpOp::Ge => tighten_lo(range, KeyBound::Inclusive(vec![v.clone()])),
                    CmpOp::Gt => tighten_lo(range, KeyBound::Exclusive(vec![v.clone()])),
                    CmpOp::Le => tighten_hi(range, KeyBound::Inclusive(vec![v.clone()])),
                    CmpOp::Lt => tighten_hi(range, KeyBound::Exclusive(vec![v.clone()])),
                    CmpOp::Ne => {}
                }
            }
            Node::Between { col: c, lo, hi } if *c == col => {
                tighten_lo(range, KeyBound::Inclusive(vec![lo.get(args).clone()]));
                tighten_hi(range, KeyBound::Inclusive(vec![hi.get(args).clone()]));
            }
            Node::And(ns) => {
                for n in ns {
                    n.tighten_range(args, col, range);
                }
            }
            // OR / NOT / other columns: no safe tightening.
            _ => {}
        }
    }
}

fn tighten_lo(range: &mut KeyRange, candidate: KeyBound) {
    let better = match (&range.lo, &candidate) {
        (KeyBound::Unbounded, _) => true,
        (KeyBound::Inclusive(a) | KeyBound::Exclusive(a), KeyBound::Inclusive(b)) => b > a,
        (KeyBound::Inclusive(a), KeyBound::Exclusive(b)) => b >= a,
        (KeyBound::Exclusive(a), KeyBound::Exclusive(b)) => b > a,
        (_, KeyBound::Unbounded) => false,
    };
    if better {
        range.lo = candidate;
    }
}

fn tighten_hi(range: &mut KeyRange, candidate: KeyBound) {
    let better = match (&range.hi, &candidate) {
        (KeyBound::Unbounded, _) => true,
        (KeyBound::Inclusive(a) | KeyBound::Exclusive(a), KeyBound::Inclusive(b)) => b < a,
        (KeyBound::Inclusive(a), KeyBound::Exclusive(b)) => b <= a,
        (KeyBound::Exclusive(a), KeyBound::Exclusive(b)) => b < a,
        (_, KeyBound::Unbounded) => false,
    };
    if better {
        range.hi = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_storage::{Column, ValueType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
        ])
    }

    fn rec(a: i64, b: i64) -> Record {
        Record::new(vec![Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn bind_substitutes_host_vars() {
        let e = Expr::cmp_var("a", CmpOp::Ge, "x");
        assert!(!e.is_bound());
        let mut params = HashMap::new();
        params.insert("x".to_string(), Value::Int(5));
        let bound = e.bind(&params).unwrap();
        assert!(bound.is_bound());
        assert!(bound.eval(&schema(), &rec(7, 0)));
        assert!(!bound.eval(&schema(), &rec(3, 0)));
    }

    #[test]
    fn bind_fails_on_missing_var() {
        let e = Expr::cmp_var("a", CmpOp::Eq, "missing");
        assert_eq!(
            e.bind(&HashMap::new()),
            Err(QueryError::UnboundVar("missing".into()))
        );
    }

    #[test]
    fn eval_logical_operators() {
        let s = schema();
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 5),
            Expr::Or(vec![
                Expr::cmp("b", CmpOp::Eq, 1),
                Expr::cmp("b", CmpOp::Eq, 2),
            ]),
        ]);
        assert!(e.eval(&s, &rec(5, 2)));
        assert!(!e.eval(&s, &rec(5, 3)));
        assert!(!e.eval(&s, &rec(4, 1)));
        let n = Expr::Not(Box::new(e));
        assert!(n.eval(&s, &rec(4, 1)));
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = Schema::new(vec![Column::nullable("a", ValueType::Int)]);
        let r = Record::new(vec![Value::Null]);
        assert!(!Expr::cmp("a", CmpOp::Eq, 0).eval(&s, &r));
        assert!(!Expr::cmp("a", CmpOp::Ne, 0).eval(&s, &r));
        assert!(!Expr::Between {
            column: "a".into(),
            lo: Scalar::Literal(Value::Int(0)),
            hi: Scalar::Literal(Value::Int(9)),
        }
        .eval(&s, &r));
    }

    #[test]
    fn col_cmp_compares_two_columns_with_null_semantics() {
        let s = Schema::new(vec![
            Column::nullable("a", ValueType::Int),
            Column::nullable("b", ValueType::Int),
        ]);
        let e = Expr::ColCmp {
            left: "a".into(),
            op: CmpOp::Lt,
            right: "b".into(),
        };
        assert!(e.is_bound());
        assert!(e.eval(&s, &rec(1, 2)));
        assert!(!e.eval(&s, &rec(2, 2)));
        assert!(!e.eval(&s, &Record::new(vec![Value::Null, Value::Int(5)])));
        // The compiled lowering agrees, including under a column remap.
        let c = Arc::new(CompiledPred::compile(&e, &s));
        let args = c.bind_args(&HashMap::new()).unwrap();
        assert!(c.matches(&args, &rec(1, 2)));
        assert!(!c.matches(&args, &rec(3, 2)));
        let swapped = Arc::new(
            c.remap_columns(|col| Some(1 - col)).expect("total map"),
        );
        assert!(swapped.matches(&args, &rec(2, 1)), "columns swapped");
        // ColCmp never tightens an index range.
        assert_eq!(e.range_for("a"), KeyRange::all());
        assert_eq!(c.range_for(&args, 0), KeyRange::all());
    }

    #[test]
    fn range_extraction_from_conjuncts() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 10),
            Expr::cmp("a", CmpOp::Lt, 20),
            Expr::cmp("b", CmpOp::Eq, 5),
        ]);
        let r = e.range_for("a");
        assert!(r.contains(&[Value::Int(10)]));
        assert!(r.contains(&[Value::Int(19)]));
        assert!(!r.contains(&[Value::Int(20)]));
        assert!(!r.contains(&[Value::Int(9)]));
        let rb = e.range_for("b");
        assert!(rb.contains(&[Value::Int(5)]));
        assert!(!rb.contains(&[Value::Int(6)]));
    }

    #[test]
    fn tighter_of_two_bounds_wins() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 10),
            Expr::cmp("a", CmpOp::Gt, 10),
        ]);
        let r = e.range_for("a");
        assert!(!r.contains(&[Value::Int(10)]), "Gt 10 is tighter than Ge 10");
        assert!(r.contains(&[Value::Int(11)]));
    }

    #[test]
    fn or_contributes_no_range() {
        let e = Expr::Or(vec![
            Expr::cmp("a", CmpOp::Eq, 1),
            Expr::cmp("a", CmpOp::Eq, 100),
        ]);
        assert_eq!(e.range_for("a"), KeyRange::all());
    }

    #[test]
    fn between_sets_closed_range() {
        let e = Expr::Between {
            column: "a".into(),
            lo: Scalar::Literal(Value::Int(3)),
            hi: Scalar::Literal(Value::Int(7)),
        };
        let r = e.range_for("a");
        assert!(r.contains(&[Value::Int(3)]) && r.contains(&[Value::Int(7)]));
        assert!(!r.contains(&[Value::Int(2)]) && !r.contains(&[Value::Int(8)]));
    }

    #[test]
    fn composite_range_eq_prefix_plus_range() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Eq, 3),
            Expr::cmp("b", CmpOp::Ge, 30),
            Expr::cmp("b", CmpOp::Le, 32),
        ]);
        let r = e.range_for_composite(&["a".into(), "b".into()]);
        assert!(r.contains(&[Value::Int(3), Value::Int(30)]));
        assert!(r.contains(&[Value::Int(3), Value::Int(32)]));
        assert!(!r.contains(&[Value::Int(3), Value::Int(33)]));
        assert!(!r.contains(&[Value::Int(2), Value::Int(31)]));
        assert!(!r.contains(&[Value::Int(4), Value::Int(31)]));
    }

    #[test]
    fn composite_range_eq_prefix_only() {
        let e = Expr::cmp("a", CmpOp::Eq, 7);
        let r = e.range_for_composite(&["a".into(), "b".into()]);
        assert!(r.contains(&[Value::Int(7), Value::Int(0)]));
        assert!(r.contains(&[Value::Int(7), Value::Int(999)]));
        assert!(!r.contains(&[Value::Int(8), Value::Int(0)]));
    }

    #[test]
    fn composite_range_half_open_second_column() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Eq, 1),
            Expr::cmp("b", CmpOp::Gt, 10),
        ]);
        let r = e.range_for_composite(&["a".into(), "b".into()]);
        assert!(!r.contains(&[Value::Int(1), Value::Int(10)]));
        assert!(r.contains(&[Value::Int(1), Value::Int(11)]));
        assert!(!r.contains(&[Value::Int(2), Value::Int(11)]));
    }

    #[test]
    fn composite_range_unconstrained_leading_gives_first_column_range() {
        // Only the second column is constrained: a B-tree on (a, b) cannot
        // use it; the range falls back to the first column's (here: all).
        let e = Expr::cmp("b", CmpOp::Eq, 5);
        let r = e.range_for_composite(&["a".into(), "b".into()]);
        assert_eq!(r, KeyRange::all());
    }

    #[test]
    fn key_pred_requires_coverage() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 1),
            Expr::cmp("b", CmpOp::Eq, 2),
        ]);
        assert!(e.key_pred(&[("a".into(), 0)]).is_none());
        let kp = e
            .key_pred(&[("a".into(), 0), ("b".into(), 1)])
            .expect("covered");
        assert!(kp(&[Value::Int(5), Value::Int(2)]));
        assert!(!kp(&[Value::Int(5), Value::Int(3)]));
    }

    #[test]
    fn record_pred_matches_eval() {
        let s = schema();
        let e = Expr::cmp("b", CmpOp::Le, 4);
        let p = e.record_pred(&s);
        assert!(p(&rec(0, 4)));
        assert!(!p(&rec(0, 5)));
    }

    #[test]
    fn compiled_interns_repeated_host_vars() {
        let e = Expr::And(vec![
            Expr::cmp_var("a", CmpOp::Ge, "x"),
            Expr::cmp_var("b", CmpOp::Le, "x"),
            Expr::cmp_var("a", CmpOp::Le, "y"),
        ]);
        let c = CompiledPred::compile(&e, &schema());
        let mut params = HashMap::new();
        params.insert("x".to_string(), Value::Int(3));
        params.insert("y".to_string(), Value::Int(9));
        let args = c.bind_args(&params).unwrap();
        assert_eq!(args.len(), 2, "x appears twice but gets one slot");
        assert!(c.matches(&args, &rec(5, 2)));
        assert!(!c.matches(&args, &rec(10, 2)));
    }

    #[test]
    fn compiled_bind_args_errors_like_bind() {
        let e = Expr::And(vec![
            Expr::cmp_var("a", CmpOp::Ge, "x"),
            Expr::cmp_var("b", CmpOp::Le, "missing"),
        ]);
        let c = CompiledPred::compile(&e, &schema());
        let mut params = HashMap::new();
        params.insert("x".to_string(), Value::Int(3));
        assert_eq!(
            c.bind_args(&params).unwrap_err(),
            QueryError::UnboundVar("missing".into())
        );
    }

    #[test]
    fn compiled_remap_requires_full_coverage() {
        let e = Expr::And(vec![
            Expr::cmp("a", CmpOp::Ge, 1),
            Expr::cmp("b", CmpOp::Eq, 2),
        ]);
        let c = CompiledPred::compile(&e, &schema());
        // Key on (b) alone: column a has no key position.
        assert!(c.remap_columns(|col| (col == 1).then_some(0)).is_none());
        // Key on (b, a): both map.
        let remapped = Arc::new(
            c.remap_columns(|col| Some(if col == 1 { 0 } else { 1 }))
                .expect("covered"),
        );
        let kp = remapped.key_pred(&c.bind_args(&HashMap::new()).unwrap());
        assert!(kp(&[Value::Int(2), Value::Int(5)]));
        assert!(!kp(&[Value::Int(3), Value::Int(5)]));
    }

    /// The load-bearing equivalence: lowering + positional evaluation and
    /// range derivation agree with bind + name-based evaluation on
    /// arbitrary expressions, records and bindings. `execute_resolved`
    /// switched from the latter to the former for conjunctive queries;
    /// this is the contract that made that swap row-set-preserving.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// LCG step (the vendored proptest has no recursive strategies, so
        /// expression shapes come from a seeded generator instead).
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *state >> 33
        }

        fn gen_scalar(state: &mut u64) -> Scalar {
            match next(state) % 4 {
                0 => Scalar::HostVar("x".to_string()),
                1 => Scalar::HostVar("y".to_string()),
                _ => Scalar::Literal(Value::Int(next(state) as i64 % 20 - 5)),
            }
        }

        fn gen_expr(state: &mut u64, depth: u32) -> Expr {
            const OPS: [CmpOp; 6] = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            fn column(state: &mut u64) -> String {
                if next(state).is_multiple_of(2) { "a" } else { "b" }.to_string()
            }
            let kind = if depth == 0 { next(state) % 3 } else { next(state) % 6 };
            match kind {
                0 => Expr::True,
                1 => Expr::Cmp {
                    column: column(state),
                    op: OPS[(next(state) % 6) as usize],
                    rhs: gen_scalar(state),
                },
                2 => Expr::Between {
                    column: column(state),
                    lo: gen_scalar(state),
                    hi: gen_scalar(state),
                },
                3 | 4 => {
                    let n = 1 + next(state) % 3;
                    let es = (0..n).map(|_| gen_expr(state, depth - 1)).collect();
                    if kind == 3 {
                        Expr::And(es)
                    } else {
                        Expr::Or(es)
                    }
                }
                _ => Expr::Not(Box::new(gen_expr(state, depth - 1))),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256 })]

            #[test]
            fn compiled_agrees_with_bound_expr(
                seed in any::<u64>(),
                x in -5i64..15,
                y in -5i64..15,
                records in prop::collection::vec((-5i64..15, -5i64..15), 1..8),
            ) {
                let mut state = seed;
                let e = gen_expr(&mut state, 3);
                let s = schema();
                let mut params = HashMap::new();
                params.insert("x".to_string(), Value::Int(x));
                params.insert("y".to_string(), Value::Int(y));
                let bound = e.bind(&params).unwrap();
                let compiled = Arc::new(CompiledPred::compile(&e, &s));
                let args = compiled.bind_args(&params).unwrap();
                let rp = compiled.record_pred(&args);
                for &(a, b) in &records {
                    let r = rec(a, b);
                    prop_assert_eq!(bound.eval(&s, &r), compiled.matches(&args, &r));
                    prop_assert_eq!(bound.eval(&s, &r), rp(&r));
                }
                // Range derivation: single-column and composite, both
                // column orders.
                prop_assert_eq!(bound.range_for("a"), compiled.range_for(&args, 0));
                prop_assert_eq!(bound.range_for("b"), compiled.range_for(&args, 1));
                prop_assert_eq!(
                    bound.range_for_composite(&["a".into(), "b".into()]),
                    compiled.range_for_composite(&args, &[0, 1])
                );
                prop_assert_eq!(
                    bound.range_for_composite(&["b".into(), "a".into()]),
                    compiled.range_for_composite(&args, &[1, 0])
                );
                // Key predicates over a (b, a) key must agree too.
                let legacy_kp = bound.key_pred(&[("b".into(), 0), ("a".into(), 1)]);
                let remapped = compiled
                    .remap_columns(|col| Some(if col == 1 { 0 } else { 1 }))
                    .map(Arc::new);
                prop_assert_eq!(legacy_kp.is_some(), remapped.is_some());
                if let (Some(lkp), Some(remapped)) = (legacy_kp, remapped) {
                    let ckp = remapped.key_pred(&args);
                    for &(a, b) in &records {
                        let key = [Value::Int(b), Value::Int(a)];
                        prop_assert_eq!(lkp(&key), ckp(&key));
                    }
                }
            }
        }
    }
}
