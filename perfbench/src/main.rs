//! `perfbench`: the repository's end-to-end benchmark. SQL goes in through
//! the public `rdb_query` API, every answer is checked against the
//! benchmark's shadow copy of the data, and each workload is timed end to
//! end (untraced run) or split by layer (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp_warm|olap_beyond_ram|write_churn|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer ones with `--trace 1`. The line before
//! it is a fuller report (run metadata, every metric, per-class figures).
//! Durable databases and the span file of a traced run live under
//! `.perfbench/` in the working directory; the databases are removed when
//! the run ends. See `perfbench/README.md` for the workloads and metrics.

mod churn;
mod data;
mod drive;
mod layers;
mod olap;
mod oltp;
mod rng;
mod span;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::PER_LAYER;
use span::summarize;
use stats::{median, tail_percentile, Hist};
use workload::{Outcome, RunArgs};

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["oltp_warm", "olap_beyond_ram", "write_churn"];

/// End-to-end metrics: name, unit. Measured from untraced runs only.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("qps", "stmt/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("rss_mb", "MiB"),
];

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload <oltp_warm|olap_beyond_ram|write_churn|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("seconds in (0, 600]"))?
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cli.workload));
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, rdb_query::QueryError> {
    match name {
        "oltp_warm" => oltp::run(args),
        "olap_beyond_ram" => olap::run(args),
        _ => churn::run(args),
    }
}

/// Formats a measured number for JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metric_json(out: &mut String, metrics: &[(&str, &str, f64)]) {
    out.push('{');
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(*value)
        );
    }
    out.push('}');
}

/// The median and the highest percentile up to p99 that keeps ten
/// samples beyond it (the maximum when there are too few for any), in µs,
/// and that percentile.
fn p50_and_tail(h: &Hist) -> (f64, f64, f64) {
    let tail = tail_percentile(h.count() as usize, 99.0).unwrap_or(100.0);
    let us = |p: f64| h.percentile(p).map_or(0.0, |ns| ns as f64 / 1e3);
    (us(50.0), us(tail), tail)
}

/// The five gated end-to-end metrics, in [`END_TO_END`] order.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let (p50, tail, _) = p50_and_tail(&o.untraced.read_ns);
    let values = [median(&o.setup_s), o.untraced.qps(), p50, tail, o.rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// The commit the checkout was made from, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&Path::new(".git").join(r))
            .or_else(|| {
                read(Path::new(".git/packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// The full report line: metadata, every end-to-end figure (including
/// the ungated ones), per-class figures and, when traced, the per-layer
/// metrics and span summary.
fn report(name: &str, cli: &Cli, o: &Outcome, span_file: Option<&Path>) -> String {
    let u = &o.untraced;
    let (_, _, tail_p) = p50_and_tail(&u.read_ns);
    let (w50, w99, write_tail_p) = p50_and_tail(&u.write_ns);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"report\":{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"git_commit\":\"{}\",\"meta\":{{",
        cli.seed,
        num(cli.seconds),
        cli.trace,
        git_commit()
    );
    for (i, (k, v)) in o.meta.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    s.push_str("},\"end_to_end\":");
    let mut all = end_to_end(o);
    all.push((
        "error_rate",
        "ratio",
        if u.attempted > 0 {
            u.failed as f64 / u.attempted as f64
        } else {
            0.0
        },
    ));
    if u.write_ns.count() > 0 {
        all.push(("write_p50_us", "us", w50));
        all.push(("write_p99_us", "us", w99));
    }
    if let Some(d) = o.disk_bytes_per_user_byte {
        all.push(("disk_bytes_per_user_byte", "ratio", d));
    }
    metric_json(&mut s, &all);
    let setups: Vec<String> = o.setup_s.iter().map(|&v| num(v)).collect();
    let _ = write!(
        s,
        ",\"read_samples\":{},\"read_tail_percentile\":{},\"write_samples\":{},\"write_tail_percentile\":{},\"attempted\":{},\"failed\":{},\"setup_s_samples\":[{}],\"classes\":[",
        u.read_ns.count(),
        num(tail_p),
        u.write_ns.count(),
        num(write_tail_p),
        u.attempted,
        u.failed,
        setups.join(",")
    );
    let classes = o.traced.as_ref().map_or(&u.classes, |t| &t.tally.classes);
    for (i, c) in classes.iter().enumerate() {
        let mean_us = if c.count > 0 {
            c.ns as f64 / 1e3 / c.count as f64
        } else {
            0.0
        };
        let mean_units = if c.count > 0 {
            c.units / c.count as f64
        } else {
            0.0
        };
        let per_unit = if c.units > 0.0 {
            c.ns as f64 / 1e3 / c.units
        } else {
            0.0
        };
        let (p50, tail, tail_p) = p50_and_tail(&c.hist);
        let _ = write!(
            s,
            "{}{{\"class\":\"{}\",\"count\":{},\"mean_us\":{},\"p50_us\":{},\"tail_us\":{},\"tail_percentile\":{},\"mean_units\":{},\"us_per_cost_unit\":{}}}",
            if i > 0 { "," } else { "" },
            o.classes.get(i).copied().unwrap_or("?"),
            c.count,
            num(mean_us),
            num(p50),
            num(tail),
            num(tail_p),
            num(mean_units),
            num(per_unit)
        );
    }
    s.push(']');
    if let Some(t) = &o.traced {
        s.push_str(",\"per_layer\":");
        let values = t.metrics();
        let layer: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u, _), v)| (n, u, v))
            .collect();
        metric_json(&mut s, &layer);
        let _ = write!(
            s,
            ",\"trace\":{{\"qps_untraced\":{},\"qps_traced\":{},\"spans\":{},\"spans_dropped\":{},\"span_file\":\"{}\",\"self_time_us\":{{",
            num(t.untraced.qps()),
            num(t.tally.qps()),
            t.spans,
            t.spans_dropped,
            span_file.map_or(String::new(), |p| p.display().to_string())
        );
        let mut totals: BTreeMap<&str, span::NameTotals> = BTreeMap::new();
        for client in &o.spans {
            for (n, t) in summarize(client) {
                let acc = totals.entry(n).or_default();
                acc.count += t.count;
                acc.total_ns += t.total_ns;
                acc.self_ns += t.self_ns;
            }
        }
        for (i, (n, tot)) in totals.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{n}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
                if i > 0 { "," } else { "" },
                tot.count,
                num(tot.total_ns as f64 / 1e3),
                num(tot.self_ns as f64 / 1e3)
            );
        }
        s.push_str("}}");
    }
    s.push_str("}}");
    s
}

fn result_line(o: &Outcome, trace: bool) -> String {
    let (mut attempted, mut failed) = (o.untraced.attempted, o.untraced.failed);
    let metrics: Vec<(&str, &str, f64)> = match &o.traced {
        Some(t) if trace => {
            attempted += t.tally.attempted + t.probes.agree_checked;
            failed += t.tally.failed + t.probes.agree_failed;
            PER_LAYER
                .iter()
                .zip(t.metrics())
                .map(|(&(n, u, _), v)| (n, u, v))
                .collect()
        }
        _ => end_to_end(o),
    };
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed
    );
    metric_json(&mut s, &metrics);
    s.push('}');
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if cli.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cli.workload.as_str()]
    };
    let base = PathBuf::from(".perfbench");
    for name in names {
        let dir = base.join(format!("{name}-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        let args = RunArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            tiny: false,
            dir: dir.clone(),
        };
        let outcome = run_workload(name, &args);
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let span_file = if cli.trace {
            let path = base.join(format!("spans-{name}-seed{}.jsonl", cli.seed));
            let mut text = String::new();
            for (client, spans) in outcome.spans.iter().enumerate() {
                span::write_jsonl(&mut text, client, spans);
            }
            match std::fs::write(&path, text) {
                Ok(()) => Some(path),
                Err(e) => {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    None
                }
            }
        } else {
            None
        };
        println!("{}", report(name, &cli, &outcome, span_file.as_deref()));
        println!("{}", result_line(&outcome, cli.trace));
    }
    // Leaves no empty scratch directory behind (span files keep it).
    let _ = std::fs::remove_dir(&base);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, trace: bool) -> Outcome {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-test-{name}-{trace}-{}",
            std::process::id()
        ));
        let args = RunArgs {
            seed: 11,
            seconds: 0.4,
            trace,
            tiny: true,
            dir: dir.clone(),
        };
        std::fs::create_dir_all(&dir).expect("create test dir");
        let out = run_workload(name, &args).expect("tiny run");
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    /// Every workload, run tiny, answers every statement correctly under
    /// the shadow oracle, untraced and traced.
    #[test]
    fn tiny_runs_pass_the_oracle() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let o = tiny(name, trace);
                assert!(o.untraced.attempted > 0, "{name}: nothing attempted");
                assert_eq!(o.untraced.failed, 0, "{name}: untraced failures");
                let line = result_line(&o, trace);
                assert!(line.starts_with("{\"correct\":true,"), "{name}: {line}");
                if trace {
                    let t = o.traced.as_ref().expect("traced run");
                    assert!(
                        t.tally.attempted > 0 && t.tally.failed == 0,
                        "{name}: traced failures"
                    );
                    assert!(
                        t.probes.agree_checked > 0 && t.probes.agree_failed == 0,
                        "{name}: ad-hoc/prepared disagree"
                    );
                    assert!(t.spans > 0, "{name}: no spans");
                    assert_eq!(t.metrics().len(), PER_LAYER.len());
                    for (n, _, _) in PER_LAYER {
                        assert!(
                            line.contains(&format!("\"{n}\":{{\"value\":")),
                            "{name}: {n} missing"
                        );
                    }
                    let report = report(
                        name,
                        &parse_cli(&["--workload".into(), name.into()]).expect("cli"),
                        &o,
                        None,
                    );
                    assert!(
                        report.contains("\"self_time_us\":{\"checkpoint\"")
                            || report.contains("\"execute\"")
                    );
                } else {
                    for (n, _) in END_TO_END {
                        assert!(
                            line.contains(&format!("\"{n}\":{{\"value\":")),
                            "{name}: {n} missing"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cli_parses_and_rejects() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&args(
            "--workload oltp_warm --seed 5 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            cli,
            Cli {
                workload: "oltp_warm".into(),
                seed: 5,
                seconds: 2.5,
                trace: true
            }
        );
        assert_eq!(
            parse_cli(&args("--workload all")).expect("valid").seed,
            DEFAULT_SEED
        );
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--workload oltp_warm --trace 2")).is_err());
        assert!(parse_cli(&args("--workload oltp_warm --seconds 0")).is_err());
        assert!(parse_cli(&args("--workload oltp_warm --seed")).is_err());
        assert!(parse_cli(&args("")).is_err());
    }

    /// `BENCHMARK.json` names every workload and metric this program
    /// reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let listed = compact
            .split("\"workloads\":[")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("a workloads array");
        let names: Vec<&str> = listed
            .split("\"name\":\"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        assert!(names.len() >= 2, "at least two workloads: {names:?}");
        for w in names {
            assert!(
                WORKLOADS.contains(&w),
                "workload {w} is not one this program runs"
            );
        }
        for (n, u) in END_TO_END {
            assert!(
                compact.contains(&format!("\"name\":\"{n}\",\"unit\":\"{u}\"")),
                "metric {n}"
            );
        }
        for (n, u, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            assert!(
                compact.contains(&format!(
                    "\"name\":\"{n}\",\"unit\":\"{u}\",\"better\":\"{better}\""
                )),
                "metric {n}"
            );
        }
    }
}
