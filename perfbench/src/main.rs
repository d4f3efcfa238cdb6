//! One benchmark for the CHAOS runtime at two ranks.  Usage:
//!
//! ```text
//! chaos-perfbench --workload <charmm_md|dsmc_adapt|fortrand_md> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run-environment line, then as its last line one JSON object with the
//! operations attempted and failed and the metrics: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.

mod charmm_md;
mod checks;
mod common;
mod dsmc_adapt;
mod fortrand_md;

use std::path::Path;
use std::process::ExitCode;

use chaos_bench::report::Json;
use common::{Args, Report, RANKS};
use mpsim::ExchangeBackend;

const USAGE: &str = "usage: chaos-perfbench --workload <charmm_md|dsmc_adapt|fortrand_md> \
                     --seed <n> --seconds <s> --trace <0|1>";

type Workload = fn(&Args) -> Report;

const WORKLOADS: &[(&str, Workload)] = &[
    ("charmm_md", charmm_md::run_workload),
    ("dsmc_adapt", dsmc_adapt::run_workload),
    ("fortrand_md", fortrand_md::run_workload),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if RANKS > cores {
        eprintln!(
            "refused: {} runs {RANKS} ranks but the host has {cores} cores",
            args.workload
        );
        return ExitCode::from(3);
    }
    println!("env {}", environment(&args, cores).render());
    println!("{}", workload(&args).to_json().render());
    ExitCode::SUCCESS
}

/// The run-environment record printed with every result.
fn environment(args: &Args, cores: usize) -> Json {
    Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::uint(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host_cores", Json::uint(cores as u64)),
        ("ranks", Json::uint(RANKS as u64)),
        (
            "transport",
            Json::str(format!("{:?}", ExchangeBackend::from_env())),
        ),
        (
            "inspector_workers",
            Json::uint(chaos::par::workers() as u64),
        ),
        ("source", Json::str(source_digest())),
    ])
}

/// Identifies the code measured: a hash of every file under `crates/` and the
/// benchmark's own sources.  The benchmark runs from checkouts that are not git
/// repositories, so a commit id is not always at hand.
fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.sort();
    // FNV-1a over path and contents, in path order.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x} over {} files", files.len())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
