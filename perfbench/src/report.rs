//! Turning job results and spans into the reported metrics, and printing
//! them: one human-readable line per metric, then the result JSON.

use crate::stats::{geomean, max, median, quantile, self_ns};
use crate::trace::{Span, Tracer};
use crate::workloads::JobResult;
use std::collections::BTreeMap;

/// The numbers kept from one job (the `SimReport` itself is dropped, so
/// memory does not grow with the number of rounds).
#[derive(Default)]
pub struct JobSummary {
    pub id: u64,
    pub round: usize,
    pub traced: bool,
    pub wall_s: f64,
    pub map_s: f64,
    pub sim_s: f64,
    pub cycles: u64,
    pub router_cycles: u64,
    pub flit_hops: u64,
    pub packets: u64,
    pub peak_buffered_flits: usize,
    pub td_q: f64,
    pub max_apl: f64,
    pub sim_max_apl: f64,
    pub sss_max_apl: f64,
    pub global_max_apl: Option<f64>,
    pub portfolio: Option<PortfolioSummary>,
    pub failures: Vec<String>,
    pub digest: u64,
}

pub struct PortfolioSummary {
    pub evaluations: u64,
    pub winner_evaluations: u64,
    pub task_busy_ns: u64,
    pub workers: usize,
}

impl JobSummary {
    pub fn new(id: u64, round: usize, traced: bool, wall_s: f64, r: JobResult) -> Self {
        let portfolio = r.portfolio.as_ref().map(|p| PortfolioSummary {
            evaluations: p.stats.iter().map(|s| s.evaluations).sum(),
            winner_evaluations: p
                .stats
                .iter()
                .find(|s| s.algo == p.winner && s.seed == p.winner_seed)
                .map_or(0, |s| s.evaluations),
            task_busy_ns: p.stats.iter().map(|s| s.wall_nanos).sum(),
            workers: r.workers,
        });
        let net = &r.report.network;
        JobSummary {
            id,
            round,
            traced,
            wall_s,
            map_s: r.map_s,
            sim_s: r.sim_s,
            cycles: net.cycles_run,
            router_cycles: net.cycles_run * r.routers as u64,
            flit_hops: net.link_flit_traversals,
            packets: r.report.delivered,
            peak_buffered_flits: net.peak_buffered_flits,
            td_q: r.report.mean_td_q(),
            max_apl: r.max_apl,
            sim_max_apl: r.report.max_apl(),
            sss_max_apl: r.sss_max_apl,
            global_max_apl: r.global_max_apl,
            portfolio,
            failures: r.failures,
            digest: r.digest,
        }
    }

    /// A job whose run panicked: counted as failed, contributing zeros.
    pub fn panicked(id: u64, round: usize, traced: bool, wall_s: f64) -> Self {
        JobSummary {
            id,
            round,
            traced,
            wall_s,
            failures: vec!["the job panicked".to_string()],
            ..JobSummary::default()
        }
    }

    pub fn digest_line(&self, workload: &str, label: &str) -> String {
        format!(
            "digest {workload} {label} {:016x} max_apl={} sim_max_apl={} td_q={} cycles={} packets={} flit_hops={}",
            self.digest, self.max_apl, self.sim_max_apl, self.td_q, self.cycles, self.packets, self.flit_hops
        )
    }
}

/// One reported metric with the samples its value summarises.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// The median of `samples`, keeping the quartiles for display.
    fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: median(samples),
            samples: samples.len(),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
        }
    }

    /// A single value: a count, a ratio of sums, or an extreme.
    fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            q1: value,
            q3: value,
        }
    }

    pub fn line(&self) -> String {
        if self.samples > 1 {
            format!(
                "metric {} = {} {} (median of {} samples; quartiles {} .. {})",
                self.name, self.value, self.unit, self.samples, self.q1, self.q3
            )
        } else {
            format!(
                "metric {} = {} {} (1 sample)",
                self.name, self.value, self.unit
            )
        }
    }
}

/// Per-round sums over the rounds that ran untraced (`traced == false`)
/// or traced (`traced == true`).
struct RoundTotals {
    run_s: f64,
    map_s: f64,
    sim_s: f64,
    cycles: u64,
    router_cycles: u64,
    flit_hops: u64,
}

fn rounds(summaries: &[JobSummary], traced: bool) -> Vec<RoundTotals> {
    let mut by_round: BTreeMap<usize, RoundTotals> = BTreeMap::new();
    for s in summaries.iter().filter(|s| s.traced == traced) {
        let t = by_round.entry(s.round).or_insert(RoundTotals {
            run_s: 0.0,
            map_s: 0.0,
            sim_s: 0.0,
            cycles: 0,
            router_cycles: 0,
            flit_hops: 0,
        });
        t.run_s += s.wall_s;
        t.map_s += s.map_s;
        t.sim_s += s.sim_s;
        t.cycles += s.cycles;
        t.router_cycles += s.router_cycles;
        t.flit_hops += s.flit_hops;
    }
    by_round.into_values().collect()
}

/// The jobs of the first round: every round repeats them exactly, so the
/// deterministic statistics are read from these.
fn first_round(summaries: &[JobSummary], jobs: usize) -> &[JobSummary] {
    &summaries[..jobs.min(summaries.len())]
}

pub fn end_to_end(summaries: &[JobSummary], setup_s: &[f64], jobs: usize) -> Vec<Metric> {
    let rs = rounds(summaries, false);
    let col = |f: fn(&RoundTotals) -> f64| rs.iter().map(f).collect::<Vec<f64>>();
    let first = first_round(summaries, jobs);
    let apl = |f: fn(&JobSummary) -> f64| geomean(&first.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::median_of("setup_s", "s", setup_s),
        Metric::median_of("run_s", "s", &col(|r| r.run_s)),
        Metric::median_of("map_s", "s", &col(|r| r.map_s)),
        Metric::median_of(
            "sim_mcycles_per_s",
            "Mcycles/s",
            &col(|r| r.cycles as f64 / r.sim_s * 1e-6),
        ),
        Metric::single("max_apl", "cycles", apl(|s| s.max_apl)),
        Metric::single("sim_max_apl", "cycles", apl(|s| s.sim_max_apl)),
        Metric::single("peak_rss_mb", "MiB", peak_rss_mib()),
    ]
}

/// Layer calls whose per-call time is reported as a median, a max and a
/// call count.
const CALLS: [&str; 11] = [
    "workload.build",
    "noc-model.tiles",
    "obm-core.instance",
    "obm-core.eval_tables",
    "obm-core.sss",
    "obm-core.global",
    "obm-core.evaluate",
    "obm-core.traffic_spec",
    "portfolio.solve",
    "noc-sim.new",
    "noc-sim.run",
];

/// Layers a job's spans enter, for the share of job time each takes.
const JOB_LAYERS: [&str; 3] = ["obm-core", "portfolio", "noc-sim"];

pub fn per_layer(summaries: &[JobSummary], spans: &[Span], jobs: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    for call in CALLS {
        let secs: Vec<f64> = spans
            .iter()
            .filter(|s| s.leaf() == call)
            .map(Span::secs)
            .collect();
        let or_zero = |v: f64| if secs.is_empty() { 0.0 } else { v };
        let mut m = Metric::median_of(&format!("{call}_s"), "s", &secs);
        m.value = or_zero(m.value);
        out.push(m);
        out.push(Metric::single(
            &format!("{call}_s_max"),
            "s",
            or_zero(max(&secs)),
        ));
        out.push(Metric::single(
            &format!("{call}_calls"),
            "count",
            secs.len() as f64,
        ));
    }

    // Simulator work rates, per traced round.
    let traced = rounds(summaries, true);
    let per_round = |f: fn(&RoundTotals) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    out.push(Metric::median_of(
        "noc-sim.ns_per_router_cycle",
        "ns",
        &per_round(|r| r.sim_s * 1e9 / r.router_cycles as f64),
    ));
    out.push(Metric::median_of(
        "noc-sim.ns_per_flit_hop",
        "ns",
        &per_round(|r| r.sim_s * 1e9 / r.flit_hops as f64),
    ));

    // Deterministic statistics of the job list.
    let first = first_round(summaries, jobs);
    let sum = |f: fn(&JobSummary) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let gm = |f: fn(&JobSummary) -> f64| geomean(&first.iter().map(f).collect::<Vec<_>>());
    out.push(Metric::single(
        "noc-sim.peak_buffered_flits",
        "count",
        first
            .iter()
            .map(|s| s.peak_buffered_flits)
            .max()
            .unwrap_or(0) as f64,
    ));
    out.push(Metric::single(
        "noc-sim.td_q",
        "cycles",
        first.iter().map(|s| s.td_q).sum::<f64>() / first.len().max(1) as f64,
    ));
    out.push(Metric::single("noc-sim.cycles", "count", sum(|s| s.cycles)));
    out.push(Metric::single(
        "noc-sim.packets",
        "count",
        sum(|s| s.packets),
    ));
    out.push(Metric::single(
        "noc-sim.flit_hops",
        "count",
        sum(|s| s.flit_hops),
    ));
    out.push(Metric::single(
        "noc-sim.model_gap_pct",
        "%",
        (gm(|s| s.sim_max_apl) / gm(|s| s.max_apl) - 1.0) * 100.0,
    ));
    out.push(Metric::single(
        "obm-core.sss_max_apl",
        "cycles",
        gm(|s| s.sss_max_apl),
    ));
    let global: Vec<f64> = first.iter().filter_map(|s| s.global_max_apl).collect();
    out.push(Metric::single(
        "obm-core.global_max_apl",
        "cycles",
        if global.is_empty() {
            0.0
        } else {
            geomean(&global)
        },
    ));

    // Portfolio efficiency over the traced solves.
    let solve_s: BTreeMap<u64, f64> = spans
        .iter()
        .filter(|s| s.leaf() == "portfolio.solve")
        .filter_map(|s| Some((s.job?, s.secs())))
        .collect();
    let (mut evals, mut useful, mut busy_ns, mut capacity_s, mut wall_s) =
        (0u64, 0u64, 0u64, 0.0, 0.0);
    for s in summaries.iter().filter(|s| s.traced) {
        if let (Some(p), Some(&secs)) = (&s.portfolio, solve_s.get(&s.id)) {
            evals += p.evaluations;
            useful += p.winner_evaluations;
            busy_ns += p.task_busy_ns;
            capacity_s += p.workers as f64 * secs;
            wall_s += secs;
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.push(Metric::single(
        "portfolio.evals_per_s",
        "1/s",
        ratio(evals as f64, wall_s),
    ));
    out.push(Metric::single(
        "portfolio.useful_eval_frac",
        "ratio",
        ratio(useful as f64, evals as f64),
    ));
    out.push(Metric::single(
        "portfolio.worker_busy_frac",
        "ratio",
        ratio(busy_ns as f64 * 1e-9, capacity_s),
    ));

    // How the traced jobs' wall time splits into layer calls.
    let mut job_spans: BTreeMap<u64, (Option<&Span>, Vec<&Span>)> = BTreeMap::new();
    for s in spans {
        let Some(job) = s.job else { continue };
        let entry = job_spans.entry(job).or_default();
        if s.leaf() == "job" {
            entry.0 = Some(s);
        } else if s.layer().is_some() {
            entry.1.push(s);
        }
    }
    let (mut walls, mut unattributed) = (Vec::new(), Vec::new());
    let mut layer_s: BTreeMap<&str, f64> = JOB_LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (job, calls) in job_spans.values() {
        let Some(job) = job else { continue };
        let intervals: Vec<(u64, u64)> = calls.iter().map(|s| s.interval()).collect();
        walls.push(job.secs());
        unattributed.push(self_ns(job.interval(), &intervals) as f64 * 1e-9);
        for c in calls {
            *layer_s
                .entry(c.layer().expect("layer-call span"))
                .or_default() += c.secs();
        }
    }
    let total_wall: f64 = walls.iter().sum();
    out.push(Metric::median_of("job.wall_s", "s", &walls));
    out.push(Metric::median_of("job.unattributed_s", "s", &unattributed));
    out.push(Metric::single(
        "job.unattributed_pct",
        "%",
        ratio(unattributed.iter().sum::<f64>() * 100.0, total_wall),
    ));
    for layer in JOB_LAYERS {
        out.push(Metric::single(
            &format!("{layer}.share_pct"),
            "%",
            ratio(layer_s[layer] * 100.0, total_wall),
        ));
    }

    let run_s = |traced| {
        median(
            &rounds(summaries, traced)
                .iter()
                .map(|r| r.run_s)
                .collect::<Vec<_>>(),
        )
    };
    out.push(Metric::single(
        "trace.overhead_pct",
        "%",
        (run_s(true) / run_s(false) - 1.0) * 100.0,
    ));
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// `nproc`, the CPU model and its cache sizes, recorded with every result.
pub fn host_line(workers: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let kind = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("L{}{kind}={}", level.trim(), size.trim()));
    }
    format!(
        "host nproc={workers} cpu=\"{cpu}\" caches={}",
        caches.join(",")
    )
}

pub fn write_spans(tracer: &Tracer, path: &str) -> std::io::Result<()> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}

/// The result object the last stdout line carries. A value that is not a
/// finite number (only possible when a job failed) is written as 0.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_has_the_result_keys_and_no_nan() {
        let metrics = [
            Metric::single("run_s", "s", 1.25),
            Metric::single("portfolio.evals_per_s", "1/s", f64::NAN),
        ];
        assert_eq!(
            result_json(3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"portfolio.evals_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
        assert!(result_json(3, 1, &metrics).starts_with("{\"correct\": false"));
    }

    #[test]
    fn rounds_sum_jobs_and_split_traced_from_untraced() {
        let job = |round, traced, wall_s| JobSummary {
            round,
            traced,
            wall_s,
            ..JobSummary::default()
        };
        let jobs = [
            job(0, false, 1.0),
            job(0, false, 2.0),
            job(1, true, 4.0),
            job(2, false, 5.0),
        ];
        let untraced: Vec<f64> = rounds(&jobs, false).iter().map(|r| r.run_s).collect();
        assert_eq!(untraced, [3.0, 5.0]);
        let traced: Vec<f64> = rounds(&jobs, true).iter().map(|r| r.run_s).collect();
        assert_eq!(traced, [4.0]);
    }
}
