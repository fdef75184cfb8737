//! JSONL metrics exporter: a schema line followed by one JSON object per
//! sample tick, closed by a latency-histogram line. The output is a pure
//! function of the recording and stats, so two identically-seeded runs
//! produce byte-identical files.

use crate::recorder::Recorder;
use crate::registry::MetricsRegistry;
use sim_core::json::escape;
use sim_core::stats::RunStats;

/// Serialize the sampled time series. Line 1 is the schema (every
/// registered metric with unit and help text); each following line is
/// `{"cycle": N, "metrics": {"name": value, ...}}` in emission order; the
/// final line is `{"latency": {...}}` with the run's per-class histograms.
pub fn export_jsonl(rec: &Recorder, reg: &MetricsRegistry, stats: &RunStats) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":[");
    for (i, s) in reg.specs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\"}}",
            escape(&s.name),
            escape(s.unit),
            if s.metric.is_counter() {
                "counter"
            } else {
                "gauge"
            },
            escape(s.help)
        ));
    }
    out.push_str("]}\n");
    for row in rec.samples() {
        out.push_str(&format!("{{\"cycle\":{},\"metrics\":{{", row.cycle));
        for (i, (metric, value)) in row.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{value}", metric.name()));
        }
        out.push_str("}}\n");
    }
    out.push_str(&format!("{{\"latency\":{}}}\n", stats.latency.to_json()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::config::SystemConfig;
    use sim_core::json;
    use sim_core::obs::Metric;

    #[test]
    fn every_line_is_valid_json() {
        let mut t = crate::recorder::trace(&[]);
        for (cycle, value) in [(0, 0), (2000, 5)] {
            t.record_samples(
                cycle,
                vec![(Metric::Commits, value), (Metric::BankQueueDepth(3), 1)],
            );
        }
        let rec = Recorder::from_trace(&t, 4000);
        let reg = MetricsRegistry::for_config(&SystemConfig::table1());
        let mut stats = sim_core::stats::RunStats::new(2);
        stats
            .latency
            .record_class(sim_core::latency::TxnClass::HtmCommit, 42);
        let doc = export_jsonl(&rec, &reg, &stats);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 4);
        let schema = json::parse(lines[0]).unwrap();
        assert_eq!(
            schema.get("schema").unwrap().as_arr().unwrap().len(),
            reg.len()
        );
        let row = json::parse(lines[2]).unwrap();
        assert_eq!(row.get("cycle").unwrap().as_f64(), Some(2000.0));
        let metrics = row.get("metrics").unwrap();
        assert_eq!(metrics.get("engine.commits").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            metrics.get("llc.bank3.queue_depth").unwrap().as_f64(),
            Some(1.0)
        );
        // The closing line carries the run's latency histograms.
        let last = json::parse(lines[3]).unwrap();
        assert_eq!(
            last.get("latency"),
            Some(&json::parse(&stats.latency.to_json()).unwrap())
        );
    }
}
