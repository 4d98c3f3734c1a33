//! The FAMILIES and REGIONS tables: seeded generation, loading through
//! the public `Db` API, and the shadow oracle every answer is checked
//! against.
//!
//! The shadow is the benchmark's own copy of the rows it generated. Each
//! statement carries its conditions as closed integer ranges on columns,
//! so the expected answer is computed from the shadow alone, without the
//! engine.

use rdb_query::{Db, QueryError, QueryResult};
use rdb_storage::{Column, Schema, Value, ValueType};

use crate::rng::Rng;

/// FAMILIES column positions (schema order).
pub const ID: usize = 0;
/// Uniform over 0..=99.
pub const AGE: usize = 1;
/// Zipf-skewed city: a few cities hold thousands of rows, most a few.
pub const CITY: usize = 2;
/// Clustered: rows are loaded in REGION order.
pub const REGION: usize = 3;
/// Uniform over 0..=99.
pub const INCOME: usize = 4;
/// FAMILIES column names, in schema order.
pub const FAMILY_COLUMNS: [&str; 5] = ["ID", "AGE", "CITY", "REGION", "INCOME_BAND"];
/// Zones the REGIONS table groups regions into.
pub const ZONES: i64 = 8;

/// One FAMILIES row, in schema order.
pub type Row = [i64; 5];

/// Shape of the generated FAMILIES table.
#[derive(Debug, Clone, Copy)]
pub struct FamiliesSpec {
    /// Rows to generate.
    pub rows: usize,
    /// Distinct cities (Zipf exponent 1 over them).
    pub cities: usize,
    /// Distinct regions, each a contiguous run of rows.
    pub regions: usize,
}

/// Generates FAMILIES rows for `seed`; row `i` has ID `i`.
///
/// Each column holds a fixed multiset of values that the seed only deals
/// out to rows: AGE and INCOME_BAND take every value of 0..=99 equally
/// often, and city `c` (for `c` in rank order) gets its Zipf share of the
/// rows. The indexes therefore have the same keys and shape on every
/// seed, and estimates by descent are comparable across seeds; the seed
/// decides which rows carry which values.
pub fn gen_families(spec: &FamiliesSpec, seed: u64) -> Vec<Row> {
    let mut rng = Rng::new(seed, 1);
    let mut dealt = |values: Vec<i64>| {
        let mut v = values;
        rng.shuffle(&mut v);
        v
    };
    let ages = dealt((0..spec.rows as i64).map(|i| i % 100).collect());
    let incomes = dealt((0..spec.rows as i64).map(|i| i % 100).collect());
    let cities = dealt(
        zipf_counts(spec.rows, spec.cities)
            .into_iter()
            .enumerate()
            .flat_map(|(c, n)| std::iter::repeat_n(c as i64, n))
            .collect(),
    );
    (0..spec.rows)
        .map(|i| {
            [
                i as i64,
                ages[i],
                cities[i],
                (i * spec.regions / spec.rows) as i64,
                incomes[i],
            ]
        })
        .collect()
}

/// Rows per city when `rows` are shared out by Zipf(1) over `cities`
/// ranks: each rank's expected share, rounded down, with the rows left
/// over given one each to the ranks that lost the most to rounding.
fn zipf_counts(rows: usize, cities: usize) -> Vec<usize> {
    let h: f64 = (1..=cities).map(|r| 1.0 / r as f64).sum();
    let shares: Vec<f64> = (1..=cities).map(|r| rows as f64 / (r as f64 * h)).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_loss: Vec<usize> = (0..cities).collect();
    by_loss.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = rows - counts.iter().sum::<usize>();
    for &c in by_loss.iter().take(short) {
        counts[c] += 1;
    }
    counts
}

/// Zone of each region (the REGIONS table), for `seed`: a seeded
/// assignment that gives every zone the same number of regions (±1).
pub fn gen_zones(regions: usize, seed: u64) -> Vec<i64> {
    let mut zones: Vec<i64> = (0..regions as i64).map(|r| r % ZONES).collect();
    Rng::new(seed, 2).shuffle(&mut zones);
    zones
}

fn int_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Column::new(*n, ValueType::Int))
            .collect(),
    )
}

/// Creates FAMILIES, loads `rows` and indexes AGE, CITY, REGION and
/// INCOME_BAND (indexes are built after the load, by bulk load).
pub fn load_families(db: &mut Db, rows: &[Row]) -> Result<(), QueryError> {
    db.create_table("FAMILIES", int_schema(&FAMILY_COLUMNS))?;
    for row in rows {
        db.insert("FAMILIES", row.iter().map(|&v| Value::Int(v)).collect())?;
    }
    db.create_index("IDX_AGE", "FAMILIES", &["AGE"])?;
    db.create_index("IDX_CITY", "FAMILIES", &["CITY"])?;
    db.create_index("IDX_REGION", "FAMILIES", &["REGION"])?;
    db.create_index("IDX_INCOME", "FAMILIES", &["INCOME_BAND"])?;
    Ok(())
}

/// Creates and loads REGIONS(REGION, ZONE), indexed on REGION.
pub fn load_regions(db: &mut Db, zones: &[i64]) -> Result<(), QueryError> {
    db.create_table("REGIONS", int_schema(&["REGION", "ZONE"]))?;
    for (region, &zone) in zones.iter().enumerate() {
        db.insert("REGIONS", vec![Value::Int(region as i64), Value::Int(zone)])?;
    }
    db.create_index("IDX_REGIONS_REGION", "REGIONS", &["REGION"])?;
    Ok(())
}

/// A closed range condition `lo <= row[col] <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cond {
    /// FAMILIES column position.
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Cond {
    /// `col = v`.
    pub fn eq(col: usize, v: i64) -> Self {
        Cond { col, lo: v, hi: v }
    }

    /// `col >= v`.
    pub fn ge(col: usize, v: i64) -> Self {
        Cond {
            col,
            lo: v,
            hi: i64::MAX,
        }
    }

    /// `col <= v`.
    pub fn le(col: usize, v: i64) -> Self {
        Cond {
            col,
            lo: i64::MIN,
            hi: v,
        }
    }

    /// True when `row` satisfies the condition.
    pub fn holds(&self, row: &Row) -> bool {
        (self.lo..=self.hi).contains(&row[self.col])
    }
}

/// What a statement returns, and so how its answer is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `select *`: the exact set of IDs.
    Ids,
    /// `select *`: the row count (every row is still checked for content).
    Rows,
    /// `select count(*)`.
    Count,
    /// `select * … order by <col> limit to <n> rows`: the order column's
    /// first `n` values, exactly, over rows that satisfy the conditions.
    TopN {
        /// Order column.
        order_col: usize,
        /// Row limit.
        n: usize,
    },
    /// `select * … order by <col>`: count and ascending order.
    Sorted {
        /// Order column.
        order_col: usize,
    },
    /// `select FAMILIES.ID, REGIONS.ZONE from FAMILIES, REGIONS …` with
    /// `REGIONS.ZONE = zone`: the pair count.
    Join {
        /// Bound zone.
        zone: i64,
    },
}

/// The expected answer, computed from the shadow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Sorted IDs.
    Ids(Vec<i64>),
    /// Row count.
    Rows(usize),
    /// Order-column values of the first rows, in order.
    TopN(Vec<i64>),
}

/// The benchmark's copy of FAMILIES and REGIONS.
#[derive(Debug, Clone)]
pub struct Shadow {
    /// FAMILIES rows; row `i` has ID `i`.
    pub rows: Vec<Row>,
    /// Zone of each region.
    pub zones: Vec<i64>,
}

impl Shadow {
    /// Expected answer to a statement with `conds` and `shape`.
    pub fn expect(&self, conds: &[Cond], shape: Shape) -> Expect {
        let hits = self
            .rows
            .iter()
            .filter(|r| conds.iter().all(|c| c.holds(r)));
        match shape {
            Shape::Ids => Expect::Ids(hits.map(|r| r[ID]).collect()),
            Shape::Rows | Shape::Sorted { .. } => Expect::Rows(hits.count()),
            Shape::Count => Expect::Rows(hits.count()),
            Shape::TopN { order_col, n } => {
                let mut keys: Vec<i64> = hits.map(|r| r[order_col]).collect();
                keys.sort_unstable();
                keys.truncate(n);
                keys.shrink_to_fit();
                Expect::TopN(keys)
            }
            Shape::Join { zone } => Expect::Rows(
                hits.filter(|r| self.zones[r[REGION] as usize] == zone)
                    .count(),
            ),
        }
    }

    /// The shadow row a returned `select *` row claims to be, when it is
    /// one: every column an integer and equal to the shadow's.
    fn genuine(&self, row: &[Value]) -> Option<&Row> {
        let id = as_int(row.first()?)?;
        let shadow = self.rows.get(usize::try_from(id).ok()?)?;
        let same =
            row.len() == shadow.len() && row.iter().zip(shadow).all(|(v, &s)| as_int(v) == Some(s));
        same.then_some(shadow)
    }

    /// True when `result` is the correct answer to the statement.
    pub fn check(
        &self,
        conds: &[Cond],
        shape: Shape,
        expect: &Expect,
        result: &QueryResult,
    ) -> bool {
        let rows = &result.rows;
        let matching = |row: &Vec<Value>| {
            self.genuine(row)
                .is_some_and(|r| conds.iter().all(|c| c.holds(r)))
        };
        match (shape, expect) {
            (Shape::Count, Expect::Rows(n)) => {
                rows.len() == 1
                    && rows[0].len() == 1
                    && as_int(&rows[0][0]) == i64::try_from(*n).ok()
            }
            (Shape::Ids, Expect::Ids(ids)) => {
                let mut got: Vec<i64> = Vec::with_capacity(rows.len());
                for row in rows {
                    if !matching(row) {
                        return false;
                    }
                    got.push(as_int(&row[ID]).unwrap_or(-1));
                }
                got.sort_unstable();
                got == *ids
            }
            (Shape::Rows, Expect::Rows(n)) => rows.len() == *n && rows.iter().all(matching),
            (Shape::Sorted { order_col }, Expect::Rows(n)) => {
                rows.len() == *n
                    && rows.iter().all(matching)
                    && rows
                        .windows(2)
                        .all(|w| as_int(&w[0][order_col]) <= as_int(&w[1][order_col]))
            }
            (Shape::TopN { order_col, .. }, Expect::TopN(keys)) => {
                let mut ids: Vec<Option<i64>> =
                    rows.iter().map(|r| r.first().and_then(as_int)).collect();
                ids.sort_unstable();
                ids.dedup();
                rows.len() == keys.len()
                    && ids.len() == rows.len()
                    && rows.iter().all(matching)
                    && rows
                        .iter()
                        .map(|r| as_int(&r[order_col]))
                        .eq(keys.iter().map(|&k| Some(k)))
            }
            (Shape::Join { zone }, Expect::Rows(n)) => {
                rows.len() == *n
                    && rows.iter().all(|row| {
                        let (Some(id), Some(z)) =
                            (row.first().and_then(as_int), row.get(1).and_then(as_int))
                        else {
                            return false;
                        };
                        let Some(r) = usize::try_from(id).ok().and_then(|i| self.rows.get(i))
                        else {
                            return false;
                        };
                        z == zone
                            && self.zones[r[REGION] as usize] == zone
                            && conds.iter().all(|c| c.holds(r))
                    })
            }
            _ => false,
        }
    }
}

/// The integer inside `v`, if it holds one.
pub fn as_int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_fixed_multisets_dealt_by_seed() {
        let spec = FamiliesSpec {
            rows: 5_000,
            cities: 300,
            regions: 50,
        };
        let (a, b) = (gen_families(&spec, 1), gen_families(&spec, 2));
        assert_ne!(a, b);
        for col in [AGE, CITY, INCOME, REGION] {
            let sorted = |rows: &[Row]| {
                let mut v: Vec<i64> = rows.iter().map(|r| r[col]).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(&a), sorted(&b), "column {col}");
        }
        let counts = zipf_counts(5_000, 300);
        assert_eq!(counts.iter().sum::<usize>(), 5_000);
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "shares fall with rank"
        );
        assert!(counts[0] > 700 && counts[299] >= 2);
    }

    #[test]
    fn oracle_rejects_wrong_answers() {
        let spec = FamiliesSpec {
            rows: 2_000,
            cities: 50,
            regions: 20,
        };
        let rows = gen_families(&spec, 3);
        let mut db = Db::builder().open().expect("in-memory db");
        load_families(&mut db, &rows).expect("load");
        let shadow = Shadow {
            rows,
            zones: Vec::new(),
        };
        let opts = rdb_query::QueryOptions::new().with_param("C", 4i64);
        let conds = [Cond::eq(CITY, 4)];
        let expect = shadow.expect(&conds, Shape::Ids);
        let mut r = db
            .query("select * from FAMILIES where CITY = :C", &opts)
            .expect("query");
        assert!(shadow.check(&conds, Shape::Ids, &expect, &r));
        // A missing row, a foreign row and a altered value are all caught.
        let last = r.rows.pop().expect("city 4 has rows");
        assert!(!shadow.check(&conds, Shape::Ids, &expect, &r));
        r.rows.push(last.clone());
        r.rows[0][AGE] = Value::Int(1_000);
        assert!(!shadow.check(&conds, Shape::Ids, &expect, &r));
        r.rows[0] = last;
        assert!(
            !shadow.check(&conds, Shape::Ids, &expect, &r),
            "duplicate row"
        );
        let top = Shape::TopN {
            order_col: AGE,
            n: 10,
        };
        let conds = [Cond::ge(INCOME, 90)];
        let expect = shadow.expect(&conds, top);
        let opts = rdb_query::QueryOptions::new().with_param("I", 90i64);
        let mut r = db
            .query(
                "select * from FAMILIES where INCOME_BAND >= :I order by AGE limit to 10 rows",
                &opts,
            )
            .expect("query");
        assert!(shadow.check(&conds, top, &expect, &r));
        r.rows.swap(0, 9);
        assert!(
            shadow.check(&conds, top, &expect, &r) == (r.rows[0][AGE] == r.rows[9][AGE]),
            "order is checked"
        );
        let count = db
            .query(
                "select count(*) from FAMILIES where REGION between 2 and 4",
                &rdb_query::QueryOptions::new(),
            )
            .expect("query");
        let conds = [Cond {
            col: REGION,
            lo: 2,
            hi: 4,
        }];
        assert!(shadow.check(
            &conds,
            Shape::Count,
            &shadow.expect(&conds, Shape::Count),
            &count
        ));
        assert!(!shadow.check(&conds, Shape::Count, &Expect::Rows(1), &count));
    }
}
