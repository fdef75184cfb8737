//! Golden-file test pinning the bytes of every `run_trace` exporter.
//!
//! `tests/golden/artifacts.jsonl` holds one line per traced point: the
//! byte length and FxHash digest of the Chrome trace, the metrics JSONL
//! series, the stats JSON and the forensics JSON (top 10), plus the
//! terminal summary verbatim up to the end of its latency table. The
//! points cover four system families (LockillerTM, requester-wins
//! Baseline, wake-up-only recovery and LosaTM-SAFU) on four STAMP
//! workloads, each at 4 threads, tiny scale and the default seed. Every
//! artifact is a pure function of the simulated run, so any refactor of
//! the exporters that moves a byte fails here.
//!
//! To bless a deliberate change, regenerate with:
//!
//! ```text
//! TMOBS_BLESS=1 cargo test -p tmobs --test export_golden
//! ```

use lockiller::system::SystemKind;
use sim_core::fxhash::FxHasher;
use sim_core::json;
use stamp::WorkloadKind;
use std::hash::Hasher;
use tmobs::{run_trace, TraceConfig};

const GOLDEN: &str = "tests/golden/artifacts.jsonl";

const POINTS: [(WorkloadKind, SystemKind); 4] = [
    (WorkloadKind::Intruder, SystemKind::LockillerTm),
    (WorkloadKind::KmeansHigh, SystemKind::Baseline),
    (WorkloadKind::Yada, SystemKind::LockillerRwi),
    (WorkloadKind::VacationLow, SystemKind::LosaTmSafu),
];

/// `{"len":N,"digest":"hex"}` of one artifact.
fn fingerprint(text: &str) -> String {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    format!(
        "{{\"len\":{},\"digest\":\"{:016x}\"}}",
        text.len(),
        h.finish()
    )
}

/// The summary up to and including the latency table's last row.
fn summary_head(summary: &str) -> &str {
    let row = summary
        .find("\n  first_abort ")
        .expect("the summary carries the latency table")
        + 1;
    let end = summary[row..]
        .find('\n')
        .map_or(summary.len(), |i| row + i + 1);
    &summary[..end]
}

fn record(workload: WorkloadKind, system: SystemKind) -> String {
    let cfg = TraceConfig::new(workload, system);
    let art = run_trace(&cfg);
    format!(
        "{{\"point\":\"{}/{}\",\"chrome\":{},\"metrics\":{},\"stats\":{},\"forensics\":{},\"summary\":\"{}\"}}\n",
        workload.name(),
        system.name(),
        fingerprint(&art.chrome_json),
        fingerprint(&art.metrics_jsonl),
        fingerprint(&art.stats.to_json()),
        fingerprint(&art.forensics.to_json(10)),
        json::escape(summary_head(&art.summary))
    )
}

#[test]
fn exporter_bytes_match_the_recorded_artifacts() {
    let got: String = POINTS.iter().map(|&(w, s)| record(w, s)).collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    #[allow(clippy::disallowed_methods)] // the golden's deliberate re-bless switch
    if std::env::var_os("TMOBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden has a directory"))
            .expect("golden directory is writable");
        std::fs::write(&path, &got).expect("golden is writable");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN}:{} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN}: line count"
    );
}
