//! The metrics registry: every layer's metric registrations in one
//! place.

use sim_core::config::SystemConfig;
use sim_core::obs::{Metric, MetricSpec};

/// Union of the metric registrations contributed by the engine
/// (`lockiller::engine`), the memory system (`coherence::memsys`), and
/// the mesh (`noc::mesh`) for one hardware configuration.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    specs: Vec<MetricSpec>,
}

impl MetricsRegistry {
    pub fn for_config(cfg: &SystemConfig) -> MetricsRegistry {
        let mut specs = lockiller::engine::obs_metric_specs();
        // One LLC bank per tile (the directory is banked across cores).
        specs.extend(coherence::memsys::obs_metric_specs(cfg.num_cores));
        specs.extend(noc::mesh::obs_metric_specs(cfg.noc.width, cfg.noc.height));
        MetricsRegistry { specs }
    }

    pub fn specs(&self) -> &[MetricSpec] {
        &self.specs
    }

    pub fn spec(&self, metric: Metric) -> Option<&MetricSpec> {
        self.specs.iter().find(|s| s.metric == metric)
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_layers() {
        let cfg = SystemConfig::table1();
        let reg = MetricsRegistry::for_config(&cfg);
        // 8 engine + 2 per bank + (2 global + 1 per link) NoC.
        let links = cfg.noc.width * cfg.noc.height * 4;
        assert_eq!(reg.len(), 8 + 2 * cfg.num_cores + 2 + links);
        assert!(reg.spec(Metric::Commits).is_some());
        assert!(reg.spec(Metric::EventsProcessed).is_some());
        assert!(reg.spec(Metric::EventQueueDepth).is_some());
        assert!(reg.spec(Metric::BankQueueDepth(0)).is_some());
        assert!(reg.spec(Metric::LinkBusy(0)).is_some());
        // Names in specs match the canonical Metric names.
        for s in reg.specs() {
            assert_eq!(s.name, s.metric.name());
        }
    }
}
