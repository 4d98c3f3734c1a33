//! `oltp_warm`: one client, an in-memory FAMILIES table whose pool holds
//! every page, and short statements, so per-statement overhead (parse,
//! resolve, estimation descents, competition set-up) dominates.

use std::time::Instant;

use rdb_query::{Db, QueryError};

use crate::data::{
    gen_families, load_families, Cond, FamiliesSpec, Shadow, Shape, AGE, CITY, INCOME, REGION,
};
use crate::layers::Probes;
use crate::rng::{Rng, Strata};
use crate::span::Spans;
use crate::workload::{
    footprint_meta, make_stmt, measure_reads, new_client, Outcome, ReadWorkload, RunArgs, Setup,
};

const TEXTS: [&str; 5] = [
    "select * from FAMILIES where CITY = :C",
    "select * from FAMILIES where INCOME_BAND >= :I order by AGE limit to 10 rows",
    "select * from FAMILIES where AGE >= :A and REGION = :R and INCOME_BAND <= :I",
    "select * from FAMILIES where REGION between :R1 and :R2",
    "select count(*) from FAMILIES where AGE = :A and INCOME_BAND = :I",
];
const CLASSES: [&str; 5] = ["point", "topn", "conj3", "window", "count"];

/// Sizes of one `oltp_warm` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// FAMILIES shape.
    pub families: FamiliesSpec,
    /// Statements in the client's cycled sequence.
    pub stmts: usize,
    /// Set-ups timed (the last one is measured).
    pub setups: usize,
    /// Warm-up before measuring, seconds.
    pub warmup_s: f64,
}

/// The standard sizes, or tiny ones for tests.
pub fn config(tiny: bool) -> Config {
    if tiny {
        Config {
            families: FamiliesSpec {
                rows: 2_000,
                cities: 200,
                regions: 100,
            },
            stmts: 50,
            setups: 1,
            warmup_s: 0.05,
        }
    } else {
        Config {
            families: FamiliesSpec {
                rows: 20_000,
                cities: 2_000,
                regions: 1_000,
            },
            // Five classes: 2000 point lookups, one full pass over the
            // cities, so every run sees the same mix of city sizes.
            stmts: 10_000,
            setups: 5,
            warmup_s: 0.5,
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, QueryError> {
    let cfg = config(args.tiny);
    let epoch = Instant::now();
    let mut setup_spans = Spans::new(args.trace, epoch);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setups {
        drop(built.take());
        let span = setup_spans.open("setup", 0);
        let t0 = Instant::now();
        let rows = gen_families(&cfg.families, args.seed);
        let mut db = Db::builder().open()?;
        load_families(&mut db, &rows)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_spans.close(span);
        built = Some((db, rows));
    }
    let (db, rows) = built.expect("at least one set-up");
    let shadow = Shadow {
        rows,
        zones: Vec::new(),
    };

    let mut client = new_client(0, epoch);
    let mut rng = Rng::new(args.seed, 100);
    let (cities, regions) = (cfg.families.cities as i64, cfg.families.regions as i64);
    let mut city = Strata::new(0, cities - 1);
    let mut region = Strata::new(0, regions - 1);
    let mut width = Strata::new(0, 2);
    let (mut age, mut income) = (Strata::new(0, 99), Strata::new(0, 99));
    // Top-N filters keep at least 20% of the rows. Under a more selective
    // filter the rows scanned before the tenth match vary by about 30%
    // with the seed's data (a negative binomial), and those few bindings
    // would set the workload's p99.
    let mut topn_income = Strata::new(0, 79);
    for i in 0..cfg.stmts {
        let class = i % TEXTS.len();
        let (params, conds, shape): (Vec<(&str, i64)>, Vec<Cond>, Shape) = match class {
            0 => {
                let c = city.draw(&mut rng);
                (vec![("C", c)], vec![Cond::eq(CITY, c)], Shape::Ids)
            }
            1 => {
                let v = topn_income.draw(&mut rng);
                (
                    vec![("I", v)],
                    vec![Cond::ge(INCOME, v)],
                    Shape::TopN {
                        order_col: AGE,
                        n: 10,
                    },
                )
            }
            2 => {
                let (a, r, v) = (
                    age.draw(&mut rng),
                    region.draw(&mut rng),
                    income.draw(&mut rng),
                );
                (
                    vec![("A", a), ("R", r), ("I", v)],
                    vec![Cond::ge(AGE, a), Cond::eq(REGION, r), Cond::le(INCOME, v)],
                    Shape::Ids,
                )
            }
            3 => {
                let lo = region.draw(&mut rng);
                let hi = (lo + width.draw(&mut rng)).min(regions - 1);
                (
                    vec![("R1", lo), ("R2", hi)],
                    vec![Cond {
                        col: REGION,
                        lo,
                        hi,
                    }],
                    Shape::Ids,
                )
            }
            _ => {
                let (a, v) = (age.draw(&mut rng), income.draw(&mut rng));
                (
                    vec![("A", a), ("I", v)],
                    vec![Cond::eq(AGE, a), Cond::eq(INCOME, v)],
                    Shape::Count,
                )
            }
        };
        // Five classes and alternating modes: each class runs half its
        // statements ad-hoc and half through prepared handles.
        let prepared = i % 2 == 1;
        client.stmts.push(make_stmt(
            &shadow,
            &client.sink,
            class,
            class,
            &params,
            conds,
            shape,
            prepared,
        ));
    }

    let mut meta = vec![
        ("rows", cfg.families.rows.to_string()),
        ("clients", "1".to_string()),
        ("durable", "false".to_string()),
        ("statements_per_client", cfg.stmts.to_string()),
    ];
    footprint_meta(&db, &["FAMILIES"], &mut meta);
    Ok(measure_reads(
        args,
        ReadWorkload {
            texts: TEXTS.to_vec(),
            classes: CLASSES.to_vec(),
            table: "FAMILIES",
            warmup_s: cfg.warmup_s,
            db,
            shadow,
            clients: vec![client],
            setup: Setup {
                seconds: setup_s,
                probes: Probes::default(),
                spans: setup_spans,
            },
            meta,
        },
    ))
}
