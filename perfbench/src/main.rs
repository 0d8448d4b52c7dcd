//! End-to-end benchmark of the OBM mapper and NoC simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client runs the workload's fixed job list back to back (a closed
//! loop) until `--seconds` have passed; every job runs generate → build
//! instance → map → check → simulate. The last stdout line is one JSON
//! object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a run whose odd rounds record spans. README.md
//! lists the workloads and the metrics.

mod report;
mod stats;
mod trace;
mod workloads;

use report::{JobSummary, Metric};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: obm-perfbench --workload {paper8|loaded8|scale32} [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or(bad("unknown workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Rounds every run makes at least, so a traced run has both a traced
/// and an untraced round to compare.
const MIN_ROUNDS: usize = 2;

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let kind = args.kind;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", report::host_line(workers));
    println!(
        "run workload={} seed={} seconds={} trace={} portfolio_workers={workers}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let mut tracer = Tracer::new(args.trace, kind.name());
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..workloads::SETUP_REPS {
        drop(std::mem::take(&mut jobs));
        tracer.enter("setup", None);
        let t0 = Instant::now();
        jobs = workloads::setup(kind, args.seed, &mut tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.exit();
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut summaries: Vec<JobSummary> = Vec::new();
    let mut reference: Vec<u64> = Vec::new();
    let mut next_job = 0u64;
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        let traced = args.trace && round % 2 == 1;
        tracer.set_on(traced);
        for (i, job) in jobs.iter().enumerate() {
            let id = next_job;
            next_job += 1;
            tracer.enter("job", Some(id));
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                workloads::run_job(kind, job, workers, &mut tracer)
            }));
            let wall_s = t0.elapsed().as_secs_f64();
            tracer.close_all();
            let mut summary = match outcome {
                Ok(result) => JobSummary::new(id, round, traced, wall_s, result),
                Err(_) => JobSummary::panicked(id, round, traced, wall_s),
            };
            if round == 0 {
                reference.push(summary.digest);
                println!("{}", summary.digest_line(kind.name(), &job.label));
            } else if summary.digest != reference[i] {
                summary.failures.push(format!(
                    "digest {:016x} differs from round 0",
                    summary.digest
                ));
            }
            for f in &summary.failures {
                println!(
                    "FAILED {} job {} round {round}: {f}",
                    kind.name(),
                    job.label
                );
            }
            summaries.push(summary);
        }
        let this: Vec<&JobSummary> = summaries.iter().filter(|s| s.round == round).collect();
        println!(
            "round {round} traced={} run_s={:.6} map_s={:.6} sim_s={:.6}",
            traced as u8,
            this.iter().map(|s| s.wall_s).sum::<f64>(),
            this.iter().map(|s| s.map_s).sum::<f64>(),
            this.iter().map(|s| s.sim_s).sum::<f64>(),
        );
        round += 1;
    }
    tracer.set_on(false);
    println!(
        "digest {} all={:016x}",
        kind.name(),
        reference.iter().fold(0u64, |h, d| h.rotate_left(5) ^ d)
    );

    let metrics: Vec<Metric> = if args.trace {
        let path = format!(
            "target/perfbench/spans-{}-seed{}.jsonl",
            kind.name(),
            args.seed
        );
        match report::write_spans(&tracer, &path) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        report::per_layer(&summaries, tracer.spans(), jobs.len())
    } else {
        report::end_to_end(&summaries, &setup_s, jobs.len())
    };
    for m in &metrics {
        println!("{}", m.line());
    }
    let attempted = summaries.len();
    let failed = summaries.iter().filter(|s| !s.failures.is_empty()).count();
    println!("{}", report::result_json(attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload loaded8 --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::Loaded8);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper8 --trace 2").is_err());
        assert!(parse("--workload paper8 --seconds 0").is_err());
        assert!(parse("--workload paper8 --bogus 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
