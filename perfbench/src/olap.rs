//! `olap_beyond_ram`: a durable FAMILIES table several times larger than
//! the buffer pool plus a small REGIONS table, read by two clients, so
//! pool misses and evictions, real frame reads with checksum and
//! read-ahead, shard contention and competition switches dominate.

use std::path::Path;
use std::time::Instant;

use rdb_query::{Db, QueryError};

use crate::data::{
    gen_families, gen_zones, load_families, load_regions, Cond, FamiliesSpec, Shadow, Shape, AGE,
    CITY, INCOME, REGION, ZONES,
};
use crate::rng::{Rng, Strata};
use crate::workload::{
    dir_bytes, durable_setups, footprint_meta, make_stmt, measure_reads, new_client, Outcome,
    ReadWorkload, RunArgs,
};

const TEXTS: [&str; 4] = [
    "select * from FAMILIES where AGE >= :A1",
    "select count(*) from FAMILIES where REGION between :R1 and :R2",
    "select * from FAMILIES where AGE >= :A and INCOME_BAND <= :I order by CITY",
    "select FAMILIES.ID, REGIONS.ZONE from FAMILIES, REGIONS \
     where FAMILIES.REGION = REGIONS.REGION and REGIONS.ZONE = :Z and FAMILIES.AGE >= :A",
];
const CLASSES: [&str; 4] = ["age_ge", "region_count", "ordered_conj", "join"];

/// Sizes of one `olap_beyond_ram` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// FAMILIES shape (REGIONS has one row per region).
    pub families: FamiliesSpec,
    /// Buffer-pool capacity, pages.
    pub pool_pages: usize,
    /// Heap page payload, bytes.
    pub page_bytes: usize,
    /// Client threads (capped at the host's parallelism).
    pub clients: usize,
    /// Statements in each client's cycled sequence.
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
                rows: 3_000,
                cities: 100,
                regions: 40,
            },
            pool_pages: 32,
            page_bytes: 512,
            clients: 2,
            stmts: 12,
            setups: 1,
            warmup_s: 0.05,
        }
    } else {
        Config {
            families: FamiliesSpec {
                rows: 16_000,
                cities: 1_000,
                regions: 400,
            },
            pool_pages: 256,
            page_bytes: 512,
            clients: 2,
            // Longer than a run gets through: every stretch of the
            // sequence covers each parameter's range evenly.
            stmts: 4_800,
            setups: 3,
            warmup_s: 1.0,
        }
    }
}

fn open(dir: &Path, cfg: &Config) -> Result<Db, QueryError> {
    Db::builder()
        .path(dir)
        .page_bytes(cfg.page_bytes)
        .pool_pages(cfg.pool_pages)
        .open()
}

/// Runs the workload; durable files live under `args.dir`.
pub fn run(args: &RunArgs) -> Result<Outcome, QueryError> {
    let cfg = config(args.tiny);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = cfg.clients.min(nproc);
    let set = durable_setups(
        &args.dir,
        "olap",
        cfg.setups,
        args.trace,
        |dir| {
            let rows = gen_families(&cfg.families, args.seed);
            let zones = gen_zones(cfg.families.regions, args.seed);
            let mut db = open(dir, &cfg)?;
            load_families(&mut db, &rows)?;
            load_regions(&mut db, &zones)?;
            Ok((db, (rows, zones)))
        },
        |dir| open(dir, &cfg),
    )?;
    let (db, (rows, zones), dir) = (set.db, set.data, set.dir);
    let user_bytes = (rows.len() * 5 * 8 + zones.len() * 2 * 8) as f64;
    let disk_ratio = dir_bytes(&dir) as f64 / user_bytes;
    let shadow = Shadow { rows, zones };

    let epoch = Instant::now();
    let regions = cfg.families.regions as i64;
    let mut all = Vec::new();
    for id in 0..clients {
        let mut client = new_client(id, epoch);
        let mut rng = Rng::new(args.seed, 200 + id as u64);
        // Selectivity of `AGE >= :A1` from about 60% down to 1%: the
        // paper's query, where the competition abandons index scans.
        let mut age_ge = Strata::new(40, 99);
        let (mut region, mut width) = (Strata::new(0, regions - 1), Strata::new(0, regions / 10));
        let (mut conj_age, mut conj_income) = (Strata::new(70, 99), Strata::new(0, 29));
        let (mut zone, mut join_age) = (Strata::new(0, ZONES - 1), Strata::new(80, 99));
        for i in 0..cfg.stmts {
            let class = i % TEXTS.len();
            let (params, conds, shape): (Vec<(&str, i64)>, Vec<Cond>, Shape) = match class {
                0 => {
                    let a = age_ge.draw(&mut rng);
                    (vec![("A1", a)], vec![Cond::ge(AGE, a)], Shape::Rows)
                }
                1 => {
                    let lo = region.draw(&mut rng);
                    let hi = (lo + width.draw(&mut rng)).min(regions - 1);
                    (
                        vec![("R1", lo), ("R2", hi)],
                        vec![Cond {
                            col: REGION,
                            lo,
                            hi,
                        }],
                        Shape::Count,
                    )
                }
                2 => {
                    let (a, v) = (conj_age.draw(&mut rng), conj_income.draw(&mut rng));
                    (
                        vec![("A", a), ("I", v)],
                        vec![Cond::ge(AGE, a), Cond::le(INCOME, v)],
                        Shape::Sorted { order_col: CITY },
                    )
                }
                _ => {
                    let (z, a) = (zone.draw(&mut rng), join_age.draw(&mut rng));
                    (
                        vec![("Z", z), ("A", a)],
                        vec![Cond::ge(AGE, a)],
                        Shape::Join { zone: z },
                    )
                }
            };
            client.stmts.push(make_stmt(
                &shadow,
                &client.sink,
                class,
                class,
                &params,
                conds,
                shape,
                false,
            ));
        }
        all.push(client);
    }

    let mut meta = vec![
        ("rows", shadow.rows.len().to_string()),
        ("region_rows", shadow.zones.len().to_string()),
        ("clients", clients.to_string()),
        ("durable", "true".to_string()),
        ("page_bytes", cfg.page_bytes.to_string()),
        ("statements_per_client", cfg.stmts.to_string()),
    ];
    footprint_meta(&db, &["FAMILIES", "REGIONS"], &mut meta);
    let mut out = measure_reads(
        args,
        ReadWorkload {
            texts: TEXTS.to_vec(),
            classes: CLASSES.to_vec(),
            table: "FAMILIES",
            warmup_s: cfg.warmup_s,
            db,
            shadow,
            clients: all,
            setup: set.setup,
            meta,
        },
    );
    out.disk_bytes_per_user_byte = Some(disk_ratio);
    Ok(out)
}
