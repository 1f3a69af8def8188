//! The repository benchmark: one command, four workloads, an untraced
//! run for end-to-end metrics and a separate traced run for per-layer
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|train-dist|serve-int8|serve-http> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs (synthetic data, image pool, arrival schedule) come from
//! `--seed`. The last stdout line is the JSON result; the full report
//! (host fingerprint, per-conv tables, spans) goes to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`. The process exits
//! nonzero when any output check fails.

mod common;
mod dist;
mod host;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::Path;
use std::time::Duration;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["train", "train-dist", "serve-int8", "serve-http"];

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a whole number")),
        seconds: Duration::from_secs(seconds.unwrap_or_else(|| usage("--seconds must be 1..=600"))),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn main() {
    let args = parse_args();
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        host::nproc()
    );
    let mut report = Report::new(args.trace);
    report.section(
        "host",
        host::fingerprint_json(repo, &args.workload, args.seed, args.seconds.as_secs()),
    );
    match args.workload.as_str() {
        "train" => train::run(&args, &mut report),
        "train-dist" => dist::run(&args, &mut report),
        "serve-int8" => serve::run(&args, serve::Front::InProcess, &mut report),
        _ => serve::run(&args, serve::Front::Http, &mut report),
    }
    if !args.trace {
        report.set("peak_rss_mib", host::peak_rss_mib(), None);
    }
    report.finish();
    report.print_table();

    let out_dir = bench_dir.join("out");
    let out_file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&out_file, report.full_json() + "\n"));
    match written {
        Ok(()) => println!("report: {}", out_file.display()),
        Err(e) => eprintln!("could not write {}: {e}", out_file.display()),
    }
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
