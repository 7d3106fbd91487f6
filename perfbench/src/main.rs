//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (see `perfbench/NOTES.md` for why each exists):
//!
//! * `warm_hits` — closed loop, every window hits the store;
//! * `cold_sweeps` — closed loop, full tuner, every window misses;
//! * `pipeline_offline` — `run_pipeline` in-process.
//!
//! The serving workloads run the daemon (`FleetService` + `RpcServer`)
//! in a child process (`perfbench daemon ...`) and drive it over VQRP.
//! With `--trace 0` a run reports the end-to-end metrics, with
//! `--trace 1` the per-layer ones. The last line of standard output is
//! the JSON result; the exit code is non-zero when an output check fails.

mod daemon;
mod layers;
mod offline;
mod serve;
mod util;

use serve::Shape;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

fn run(args: &Args) -> Result<util::Report, String> {
    println!(
        "settings: workload {} seed {} seconds {} trace {} nproc {} git {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        util::nproc(),
        util::git_revision()
    );
    match args.workload.as_str() {
        "warm_hits" => serve::run(Shape::WarmHits, args),
        "cold_sweeps" => serve::run(Shape::ColdSweeps, args),
        "pipeline_offline" => offline::run(args),
        other => Err(format!(
            "unknown workload {other:?} (warm_hits, cold_sweeps, pipeline_offline)"
        )),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        if let Err(e) = daemon::run(&argv[1..]) {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let report = Args::parse(&argv).and_then(|args| run(&args));
    match report {
        Ok(report) => {
            for failure in report.failures.iter().take(10) {
                println!("CHECK FAILED: {failure}");
            }
            if report.failures.len() > 10 {
                println!("... {} more failed checks", report.failures.len() - 10);
            }
            println!("{}", report.to_json());
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
