//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--fast] [--out DIR] [--injection bernoulli|geometric]
//! experiments all [--fast] [--out DIR] [--injection bernoulli|geometric]
//! experiments list
//! ```
//!
//! With `--out DIR`, each experiment's block is additionally written to
//! `DIR/<id>.md` (the directory is created if missing).
//!
//! `--injection` selects the traffic-source process for the
//! simulator-sweep experiments (loadcurve, validate, tails); sweeps
//! default to the geometric fast path. Seeded-replay experiments ignore
//! the flag.
//!
//! Worker threads for the sweep grid come from `OBM_WORKERS` (default:
//! all detected cores).
//!
//! Paper ids: table1, table3, table4, fig3, fig4, fig5, fig8, fig9,
//! fig10, fig11, fig12, validate. Extension ids: ablation, loadcurve,
//! scaling, weighted, torus, firstprinciples, optgap, queueing, fig3sim,
//! oversub, nocparams, tails.

use noc_metrics::MetricsHandle;
use noc_sim::InjectionProcess;
use obm_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_dir: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let injection = match args
        .iter()
        .position(|a| a == "--injection")
        .and_then(|i| args.get(i + 1))
    {
        None => InjectionProcess::Geometric,
        Some(v) => match v.parse() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("--injection: {e}");
                std::process::exit(2);
            }
        },
    };
    let mut skip_next = false;
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--out" || *a == "--injection" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out directory {dir}: {e}");
            std::process::exit(2);
        }
    }

    if ids.is_empty() || ids == ["list"] {
        eprintln!("usage: experiments <id>...|all [--fast] [--injection bernoulli|geometric]");
        eprintln!("available experiments:");
        for id in experiments::ALL {
            eprintln!("  {id}");
        }
        std::process::exit(if ids.is_empty() { 2 } else { 0 });
    }

    let selected: Vec<&str> = if ids == ["all"] {
        experiments::ALL.to_vec()
    } else {
        ids
    };

    for id in selected {
        match experiments::run(id, fast, injection, &MetricsHandle::disabled()) {
            Some(output) => {
                println!("{output}");
                if let Some(dir) = &out_dir {
                    let path = format!("{dir}/{id}.md");
                    if let Err(e) = std::fs::write(&path, &output) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            None => {
                eprintln!("unknown experiment '{id}' — try `experiments list`");
                std::process::exit(2);
            }
        }
    }
}
