//! One seeded benchmark for the S-Profile service.
//!
//! ```text
//! ladderbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the servers in process through the public `sprofile-server`
//! and `sprofile-cluster` APIs, drives one workload for `--seconds`,
//! checks every answer against an `SProfile` oracle, and prints the
//! end-to-end metrics (`--trace 0`) or, for a traced run, the per-layer
//! metrics and the layer ladder (`--trace 1`). The last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the lines before it are `#`-prefixed metadata. A failed oracle or
//! recovery check exits with code 1, bad arguments with code 2.

mod ladder;
mod scrape;
mod stats;
mod workloads;

use std::path::PathBuf;

use stats::{Lat, Report};
use workloads::{Ctx, RunOut, Workload, QUERY_KINDS};

const USAGE: &str = "usage: ladderbench --workload <ingest|cluster_mix> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("trace must be 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(mut run: RunOut) -> Report {
    let mut r = Report::default();
    let setup_s = stats::median(&run.setup_s);
    let rates: Vec<f64> = run
        .tuples
        .iter()
        .map(|&t| t as f64 / run.segment_s)
        .collect();
    r.metric("ingest_tuples_per_s", stats::median(&rates), "tuples/s");
    r.meta("ingest_tuples_per_s_by_segment", json_list(&rates));
    let mut pooled = Lat::default();
    for lat in &run.queries {
        pooled.extend(lat.clone());
    }
    for (name, lat) in [("write", &run.writes), ("query", &pooled)] {
        r.meta(&format!("{name}_samples"), lat.len().to_string());
        r.meta(
            &format!("{name}_min_segment_samples"),
            lat.min_segment_len().to_string(),
        );
    }
    // The tail metrics are p90, not p99. On a two-core host shared with
    // other tenants, a busy thread descheduled for a few ms holds up
    // every request in flight behind it, and how often that happens
    // depends on the host's load, not on the program: under added CPU
    // load a run's write p99 tripled while its p90 moved by about as
    // much as throughput did. The p99 is kept in the metadata.
    for (name, lat) in [("write", &mut run.writes), ("query", &mut pooled)] {
        let p50 = stats::median(&by_segment(&mut r, &format!("{name}_p50"), lat, 0.50));
        if name == "write" {
            r.metric("write_p50_us", p50, "us");
        } else {
            r.meta("query_pooled_p50_us", stats::json_num(p50));
        }
        let p90 = stats::median(&by_segment(&mut r, &format!("{name}_p90"), lat, 0.90));
        r.metric(format!("{name}_p90_us"), p90, "us");
        let p99 = stats::median(&by_segment(&mut r, &format!("{name}_p99"), lat, 0.99));
        r.meta(&format!("{name}_p99_us"), stats::json_num(p99));
    }
    // A fixed rotation of query kinds puts the pooled p50 on the edge
    // between two kinds, where it flips from one to the other between
    // runs; the median over kinds of each kind's p50 does not. The
    // pooled p50 stays in the metadata.
    let mut kind_p50 = Vec::new();
    for (kind, lat) in QUERY_KINDS.iter().zip(run.queries.iter_mut()) {
        if lat.len() == 0 {
            continue;
        }
        let value = stats::median(&lat.by_segment_us(0.50));
        kind_p50.push(value);
        r.meta(&format!("query_p50_us.{kind}"), stats::json_num(value));
        r.meta(&format!("query_samples.{kind}"), lat.len().to_string());
    }
    r.metric("query_p50_us", stats::median(&kind_p50), "us");
    r.meta("segments", stats::SEGMENTS.to_string());
    // Client and server views of the same requests, joined.
    let d = &run.observed.delta;
    let outside = 1.0 - scrape::ratio(d.span_us(), run.observed.client_rtt_us);
    r.meta("server_outside_span_share", stats::json_num(outside));
    let per_tick = d.mean("sprofile_conns_per_tick", "");
    r.meta("server_conns_per_tick_avg", stats::json_num(per_tick));
    r.metric("setup_s", setup_s, "s");
    let error_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    r.meta("error_ratio", stats::json_num(error_ratio));
    r.meta("setup_reps", run.setup_s.len().to_string());
    r.meta("setup_s_by_rep", json_list(&run.setup_s));
    r.meta("measured_s", stats::json_num(run.elapsed_s));
    finish(r, run)
}

/// Each segment's percentile `q` of `lat` in µs, so a burst of
/// interference on the shared host moves a few segments rather than the
/// result. The values also go into the metadata under `key`.
fn by_segment(r: &mut Report, key: &str, lat: &mut Lat, q: f64) -> Vec<f64> {
    let by_segment = lat.by_segment_us(q);
    r.meta(&format!("{key}_us_by_segment"), json_list(&by_segment));
    by_segment
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| stats::json_num(v)).collect();
    format!("[{}]", items.join(", "))
}

/// Moves the run's counts, checks and metadata into the report.
pub fn finish(mut r: Report, run: RunOut) -> Report {
    r.attempted = run.attempted;
    r.failed = run.failed;
    r.problems.extend(run.problems);
    r.meta.extend(run.meta);
    r
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladderbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("ladderbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let ctx = Ctx::new(args.seed, args.seconds, nproc, tmp.clone());
    let run = workloads::run(&ctx, args.workload);
    let mut report = if args.trace {
        ladder::traced(&ctx, args.workload, run)
    } else {
        end_to_end(run)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    report.meta("workload", stats::json_str(args.workload.name()));
    report.meta("why", stats::json_str(args.workload.why()));
    report.meta("trace", args.trace.to_string());
    println!("# meta {}", report.meta_json());
    for m in &report.metrics {
        println!(
            "# metric {} {} {}",
            m.name,
            stats::json_num(m.value),
            m.unit
        );
    }
    for p in &report.problems {
        println!("# problem {p}");
        eprintln!("ladderbench: check failed: {p}");
    }
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
