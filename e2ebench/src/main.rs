//! End-to-end benchmark of the hbbp stack.
//!
//! One command runs one workload, checks every output, and prints its
//! metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload analyze|ingest|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones (`README.md` maps each metric to its layer and
//! workload). The same executable is also the system under test's
//! process: `serve ...` runs the production `hbbp serve` entry and
//! `analyze-child ...` the `hbbp analyze` entry, so their CPU and memory
//! are measured apart from the load generator's.

mod analyze;
mod daemon;
mod ingest;
mod inputs;
mod mixed;
mod report;
mod sys;
mod trace;

use report::{Outcome, Trial};
use std::path::{Path, PathBuf};

/// Trials per run. Each is a fresh set-up — inputs regenerated, files
/// rewritten, a new system-under-test process, warm-up — followed by a
/// measured phase with an equal share of the run's operations. On a
/// shared 2-vCPU host the time of a fixed CPU loop moves by up to 2x
/// over seconds, so every metric, `setup_s` included, is the median
/// over trials: a slow stretch that covers one or two trials does not
/// move it.
pub const TRIALS: usize = 5;

/// The parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for this run's inputs and stores, inside the
    /// working directory; removed at exit.
    pub work: PathBuf,
}

impl Config {
    /// This trial's share of `per_second × --seconds` operations.
    pub fn ops_per_trial(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds as f64 * per_second / TRIALS as f64).round() as usize).max(min)
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["analyze", "ingest", "mixed"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (analyze|ingest|mixed)"
        ));
    }
    Ok(Config {
        work: PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
    })
}

/// Empty `dir` (creating it).
pub fn reset_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the work directory");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => std::process::exit(hbbp_cli::main_impl(&args)),
        Some("analyze-child") => std::process::exit(analyze::child_main(&args[1..])),
        _ => {}
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload analyze|ingest|mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let connections = match cfg.workload.as_str() {
        "ingest" => ingest::connections(&cfg),
        "mixed" => mixed::connections(&cfg),
        _ => 0,
    };
    if connections > daemon::CONNECTION_BUDGET {
        eprintln!(
            "e2ebench: --seconds {} would open {connections} connections, over the budget of {}",
            cfg.seconds,
            daemon::CONNECTION_BUDGET
        );
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    let probe_before = sys::host_probe_ms();
    let mut layers = trace::Layers::new(cfg.trace);
    let trials: Vec<Trial> = (0..TRIALS)
        .map(|t| {
            let last = t + 1 == TRIALS;
            match cfg.workload.as_str() {
                "analyze" => analyze::trial(&cfg, last, &mut out, &mut layers),
                "ingest" => ingest::trial(&cfg, last, &mut out, &mut layers),
                _ => mixed::trial(&cfg, last, &mut out, &mut layers),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".bench_work");

    let e2e = report::medians(&trials);
    out.fact("trials", TRIALS);
    out.fact("workload", &cfg.workload);
    out.fact("seed", cfg.seed);
    out.fact("nproc", sys::nproc());
    out.fact("tcp_connections", connections);
    out.fact("host_probe_ms", (probe_before + sys::host_probe_ms()) / 2.0);
    out.metrics = if cfg.trace {
        layers.finish(&e2e, &mut out, &cfg.workload, cfg.seed)
    } else {
        e2e
    };
    println!("{}", out.facts_json());
    println!("{}", out.result_json());
}
