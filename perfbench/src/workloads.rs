//! The three workloads: how each builds its job list from the seed, and
//! how one job runs generate → build instance → map → check → simulate
//! through the library's public entry points. README.md says why each
//! workload exists.

use crate::trace::Tracer;
use noc_model::{Mesh, TileLatencies};
use noc_sim::{Network, SimConfig, SimReport};
use obm_core::algorithms::{Global, Mapper, SortSelectSwap};
use obm_core::{evaluate, Mapping, ObmInstance};
use obm_portfolio::{Algorithm, SolveOutcome, SolveRequest};
use workload::{PaperConfig, WorkloadBuilder};

/// Deterministic evaluation cap of every portfolio solve. At 8×8 every
/// default-portfolio task fits; at 32×32 it admits bare SSS and both
/// `SSS+SA` seeds and clamps the rest.
const PORTFOLIO_MAX_EVALS: u64 = 3_200_000;

/// Rate multiplier of `loaded8`: the largest whole factor at which all
/// eight configurations stay below saturation (×5 saturates C4).
const LOADED_SCALE: f64 = 4.0;

/// Times the set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Relative band within which `paper8`'s simulated max-APL must track the
/// Eq. (5) value (the §V validation of the analytic model).
pub const VALIDATION_BAND: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper8,
    Loaded8,
    Scale32,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper8" => Some(Kind::Paper8),
            "loaded8" => Some(Kind::Loaded8),
            "scale32" => Some(Kind::Scale32),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper8 => "paper8",
            Kind::Loaded8 => "loaded8",
            Kind::Scale32 => "scale32",
        }
    }

    fn mesh_side(self) -> usize {
        match self {
            Kind::Paper8 | Kind::Loaded8 => 8,
            Kind::Scale32 => 32,
        }
    }

    /// `(warm-up, measured)` simulated cycles of every job.
    fn sim_cycles(self) -> (u64, u64) {
        match self {
            Kind::Paper8 => (2_000, 30_000),
            Kind::Loaded8 => (2_000, 20_000),
            Kind::Scale32 => (2_000, 12_000),
        }
    }

    fn runs_portfolio(self) -> bool {
        self != Kind::Loaded8
    }
}

/// SplitMix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One prepared job: an instance with warm evaluation tables.
pub struct Job {
    pub label: String,
    pub inst: ObmInstance,
    pub sim_seed: u64,
    pub solver_seed: u64,
}

/// Build the job list of `kind` from `seed`: traces (`workload`), tile
/// latencies (`noc-model`), the instance and its `EvalTables`
/// (`obm-core`), everything up to the first solve.
pub fn setup(kind: Kind, seed: u64, tracer: &mut Tracer) -> Vec<Job> {
    let mesh = Mesh::square(kind.mesh_side());
    let scale = if kind == Kind::Loaded8 {
        LOADED_SCALE
    } else {
        1.0
    };
    let specs: Vec<(String, WorkloadBuilder)> = match kind {
        Kind::Paper8 | Kind::Loaded8 => PaperConfig::ALL
            .iter()
            .enumerate()
            .map(|(i, &cfg)| {
                let builder = WorkloadBuilder::paper(cfg).seed(mix(seed, i as u64));
                (cfg.name().to_string(), builder)
            })
            .collect(),
        Kind::Scale32 => {
            // 16 apps × 64 threads fill the 1024 tiles, at C2's Table 3
            // rates so the 32×32 network stays below saturation. 2 000
            // epochs (not 20 000) keep the traces at 33 MB.
            let (cache, mem) = PaperConfig::C2.targets();
            let profiles = workload::config::round_robin_profiles(16);
            let builder = WorkloadBuilder::custom(profiles, 64, cache, mem)
                .epochs(2_000)
                .seed(mix(seed, 0));
            vec![("16x64".to_string(), builder)]
        }
    };
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (label, builder))| {
            let (work, _traces) = tracer.call("workload.build", || builder.build());
            let tiles = tracer.call("noc-model.tiles", || TileLatencies::paper_default(&mesh));
            let (mut c, mut m) = work.rate_vectors();
            c.iter_mut().chain(m.iter_mut()).for_each(|r| *r *= scale);
            let inst = tracer.call("obm-core.instance", || {
                ObmInstance::new(tiles, work.boundaries(), c, m)
            });
            tracer.call("obm-core.eval_tables", || {
                std::hint::black_box(inst.eval_tables());
            });
            Job {
                label,
                inst,
                sim_seed: mix(seed, 1000 + i as u64),
                solver_seed: mix(seed, 2000 + i as u64),
            }
        })
        .collect()
}

/// What one job produced. Host times are in seconds.
pub struct JobResult {
    pub map_s: f64,
    pub sim_s: f64,
    /// Eq. (5) max-APL of the simulated mapping.
    pub max_apl: f64,
    pub sss_max_apl: f64,
    pub global_max_apl: Option<f64>,
    pub portfolio: Option<SolveOutcome>,
    pub report: SimReport,
    pub routers: usize,
    pub workers: usize,
    /// Correctness checks that failed, by description.
    pub failures: Vec<String>,
    /// FNV-1a digest of the simulated mapping and the report statistics.
    pub digest: u64,
}

/// Run one job: map, check the mappings, simulate the chosen one.
pub fn run_job(kind: Kind, job: &Job, workers: usize, tracer: &mut Tracer) -> JobResult {
    let inst = &job.inst;
    let mut failures = Vec::new();

    tracer.enter("map", None);
    let t_map = std::time::Instant::now();
    let sss = tracer.call("obm-core.sss", || {
        SortSelectSwap::default().map(inst, job.solver_seed)
    });
    let (global, portfolio) = if kind.runs_portfolio() {
        let global = tracer.call("obm-core.global", || Global.map(inst, job.solver_seed));
        let outcome = tracer.call("portfolio.solve", || {
            SolveRequest::builder(inst)
                .algorithms(Algorithm::default_portfolio())
                .seeds([job.solver_seed, job.solver_seed.wrapping_add(1)])
                .max_evaluations(PORTFOLIO_MAX_EVALS)
                .workers(workers)
                .build()
                .expect("the default portfolio is a valid request")
                .solve()
        });
        (Some(global), Some(outcome))
    } else {
        (None, None)
    };
    let map_s = t_map.elapsed().as_secs_f64();
    tracer.exit();

    tracer.enter("check", None);
    let mut check_valid = |name: &str, m: &Mapping| {
        if !m.is_valid_for(inst) {
            failures.push(format!("{name} mapping is not a permutation"));
        }
    };
    check_valid("SSS", &sss);
    if let Some(g) = &global {
        check_valid("Global", g);
    }
    if let Some(p) = &portfolio {
        check_valid("portfolio", &p.mapping);
    }
    let sss_max_apl = tracer.call("obm-core.evaluate", || evaluate(inst, &sss).max_apl);
    let global_max_apl = global
        .as_ref()
        .map(|g| tracer.call("obm-core.evaluate", || evaluate(inst, g).max_apl));
    let (chosen, max_apl) = match &portfolio {
        Some(p) => {
            let max_apl = tracer.call("obm-core.evaluate", || evaluate(inst, &p.mapping).max_apl);
            if max_apl != p.objective {
                failures.push(format!(
                    "evaluate() gives {max_apl} but the portfolio reported {}",
                    p.objective
                ));
            }
            let sss_task = p
                .stats
                .iter()
                .find(|s| s.algo == "SSS")
                .and_then(|s| s.objective);
            if sss_task != Some(sss_max_apl) {
                failures.push(format!(
                    "evaluate() gives SSS {sss_max_apl} but the portfolio's SSS task reported {sss_task:?}"
                ));
            }
            if p.objective > sss_max_apl {
                failures.push(format!(
                    "portfolio {} is worse than SSS {sss_max_apl}",
                    p.objective
                ));
            }
            (&p.mapping, max_apl)
        }
        None => (&sss, sss_max_apl),
    };
    tracer.exit();

    tracer.enter("simulate", None);
    let (warmup, measure) = kind.sim_cycles();
    let mesh = Mesh::square(kind.mesh_side());
    let routers = mesh.num_tiles();
    let cfg = SimConfig::builder(mesh)
        .warmup_cycles(warmup)
        .measure_cycles(measure)
        .seed(job.sim_seed)
        .build()
        .expect("paper defaults with short phases are a valid config");
    let traffic = tracer.call("obm-core.traffic_spec", || {
        obm_core::traffic_spec(inst, chosen)
    });
    let network = tracer.call("noc-sim.new", || {
        Network::new(cfg, traffic).expect("a valid mapping gives valid traffic")
    });
    let t_sim = std::time::Instant::now();
    let report = tracer.call("noc-sim.run", || network.run());
    let sim_s = t_sim.elapsed().as_secs_f64();
    tracer.exit();

    if !report.fully_drained || report.injected != report.delivered {
        failures.push(format!(
            "simulation did not drain: injected {} delivered {}",
            report.injected, report.delivered
        ));
    }
    if kind == Kind::Paper8 {
        let gap = (report.max_apl() - max_apl).abs() / max_apl;
        if gap > VALIDATION_BAND {
            failures.push(format!(
                "simulated max-APL {} is {:.1}% off the model's {max_apl}",
                report.max_apl(),
                gap * 100.0
            ));
        }
    }

    let digest = digest(chosen, &report);
    JobResult {
        map_s,
        sim_s,
        max_apl,
        sss_max_apl,
        global_max_apl,
        portfolio,
        report,
        routers,
        workers,
        failures,
        digest,
    }
}

/// FNV-1a over the mapping and every simulated statistic a fixed seed
/// determines (wall-clock fields excluded).
fn digest(mapping: &Mapping, r: &SimReport) -> u64 {
    let mut h = Fnv::default();
    for t in mapping.as_slice() {
        h.u64(t.index() as u64);
    }
    for acc in r.groups.iter().chain([&r.cache, &r.memory]) {
        h.u64(acc.packets);
        h.u64(acc.total_latency.to_bits());
        h.u64(acc.total_hops);
        h.u64(acc.total_flits);
        h.u64(acc.flit_hops);
        h.u64(acc.mean_td_q().to_bits());
    }
    let n = &r.network;
    for v in [
        r.measured_cycles,
        r.injected,
        r.delivered,
        r.fully_drained as u64,
        n.link_flit_traversals,
        n.peak_buffered_flits as u64,
        n.cycles_run,
        n.peak_live_packets as u64,
        n.arrival_draws,
    ] {
        h.u64(v);
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
