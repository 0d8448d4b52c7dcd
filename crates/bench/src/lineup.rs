//! The shared "four algorithms × eight configurations" sweep behind
//! Table 4 and Figures 9–11: run Global, MC, SA and SSS on C1–C8 once and
//! let each experiment format its own view of the results.
//!
//! The per-configuration runs are independent, so they are work-stolen
//! across the shared worker pool ([`obm_core::pool`]).

use crate::harness::{paper_instance, sa_matching_sss, standard_mappers, PaperInstance};
use noc_model::Mesh;
use noc_power::{analytic_power, PlacedLoad, PowerParams};
use obm_core::{evaluate, AplReport, Mapping};
use workload::PaperConfig;

/// Result of one algorithm on one configuration.
pub struct AlgoResult {
    pub algo: &'static str,
    pub mapping: Mapping,
    pub report: AplReport,
    /// Analytic dynamic NoC power in mW.
    pub dynamic_power_mw: f64,
}

/// One configuration's full line-up.
pub struct ConfigResults {
    pub config: PaperConfig,
    pub instance: PaperInstance,
    pub algos: Vec<AlgoResult>,
}

impl ConfigResults {
    /// Result of a named algorithm.
    pub fn algo(&self, name: &str) -> &AlgoResult {
        self.algos
            .iter()
            .find(|a| a.algo == name)
            .unwrap_or_else(|| panic!("unknown algorithm {name}"))
    }
}

/// The whole sweep.
pub struct Lineup {
    pub configs: Vec<ConfigResults>,
}

/// Mean flits per packet for the paper's even request/reply mix.
pub const MEAN_FLITS_PER_PACKET: f64 = 3.0;

fn run_config(cfg: PaperConfig, seed: u64) -> ConfigResults {
    let pi = paper_instance(cfg);
    let sa_iters = sa_matching_sss(&pi.instance);
    let mesh = Mesh::square(8);
    let power_params = PowerParams::dsent_45nm();
    let algos = standard_mappers(sa_iters)
        .iter()
        .map(|mapper| {
            let mapping = mapper.map(&pi.instance, seed);
            let report = evaluate(&pi.instance, &mapping);
            let loads: Vec<PlacedLoad> = (0..pi.instance.num_threads())
                .map(|j| PlacedLoad {
                    tile: mapping.tile_of(j),
                    cache_rate: pi.instance.cache_rate(j) / 1000.0,
                    mem_rate: pi.instance.mem_rate(j) / 1000.0,
                })
                .collect();
            let power = analytic_power(
                &power_params,
                &mesh,
                pi.instance.tiles(),
                &loads,
                MEAN_FLITS_PER_PACKET,
            );
            AlgoResult {
                algo: match mapper.name() {
                    "Global" => "Global",
                    "MC" => "MC",
                    "SA" => "SA",
                    "SSS" => "SSS",
                    other => panic!("unexpected mapper {other}"),
                },
                mapping,
                report,
                dynamic_power_mw: power.dynamic_mw,
            }
        })
        .collect();
    ConfigResults {
        config: cfg,
        instance: pi,
        algos,
    }
}

/// Run the full sweep (work-stolen across the shared pool, one grid item
/// per configuration).
pub fn run_lineup(seed: u64) -> Lineup {
    let configs =
        obm_core::pool::run_indexed(crate::effective_workers(), PaperConfig::ALL.len(), |i| {
            run_config(PaperConfig::ALL[i], seed)
        });
    Lineup { configs }
}

/// Geometric-mean-free average of a per-config metric for one algorithm.
pub fn mean_over_configs(lineup: &Lineup, algo: &str, metric: impl Fn(&AlgoResult) -> f64) -> f64 {
    let vals: Vec<f64> = lineup
        .configs
        .iter()
        .map(|c| metric(c.algo(algo)))
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_config_lineup_shapes() {
        let cr = run_config(PaperConfig::C7, 0);
        assert_eq!(cr.algos.len(), 4);
        // Core paper claims on this configuration:
        let global = cr.algo("Global");
        let sss = cr.algo("SSS");
        assert!(sss.report.max_apl <= global.report.max_apl + 1e-9);
        assert!(sss.report.dev_apl < global.report.dev_apl);
        assert!(sss.report.g_apl <= global.report.g_apl * 1.06);
    }
}
