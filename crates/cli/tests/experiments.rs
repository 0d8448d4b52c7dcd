//! `obm experiments` end to end: the shipped binary lists, runs and
//! rejects experiment ids exactly as the harness defines them.

use std::process::{Command, Output};

use noc_metrics::MetricsHandle;
use noc_sim::InjectionProcess;
use obm_bench::experiments;

fn obm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obm"))
        .args(args)
        .output()
        .expect("the obm binary starts")
}

#[test]
fn list_names_every_experiment_id() {
    let out = obm(&["experiments", "list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, experiments::ALL);
    assert_eq!(listed.len(), 25);
}

#[test]
fn an_experiment_prints_exactly_the_harness_block() {
    let out = obm(&["experiments", "table3"]);
    assert!(out.status.success());
    let expected = experiments::run(
        "table3",
        false,
        InjectionProcess::Geometric,
        &MetricsHandle::disabled(),
    )
    .expect("table3 is a known id");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{expected}\n")
    );
}

#[test]
fn out_dir_receives_one_file_per_id() {
    let dir = std::env::temp_dir().join(format!("obm-experiments-out-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    // A switch before the ids must not swallow the first id.
    let out = obm(&["experiments", "--fast", "table3", "fig3", "--out", dir_arg]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let table3 = std::fs::read_to_string(dir.join("table3.md")).expect("table3.md written");
    let fig3 = std::fs::read_to_string(dir.join("fig3.md")).expect("fig3.md written");
    assert_eq!(stdout, format!("{table3}\n{fig3}\n"));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn an_unknown_id_exits_2_before_running_anything() {
    let out = obm(&["experiments", "table3", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no block printed before the check");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment 'nosuch'"), "{stderr}");
}
