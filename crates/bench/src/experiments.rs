//! One function per table/figure of the paper's evaluation (§IV).
//!
//! Each returns the rendered text it prints, so integration tests can
//! assert on the series' *shape* (who wins, where) without re-parsing.

use crate::lab::{ConfigPoint, Lab, Point};
use crate::table::{pct, ratio, render};
use lockiller::system::SystemKind;
use sim_core::stats::{AbortCause, Phase};
use stamp::WorkloadKind;

/// Thread counts the paper sweeps (2..32 on the 32-core system).
pub const THREADS: [usize; 5] = [2, 4, 8, 16, 32];

/// Reduced sweep for quick runs.
pub const THREADS_QUICK: [usize; 3] = [2, 8, 32];

fn thread_list(quick: bool) -> &'static [usize] {
    if quick {
        &THREADS_QUICK
    } else {
        &THREADS
    }
}

/// Cross-product of a figure's axes, handed to [`Lab::prefetch`] up front
/// so the whole figure simulates as one parallel batch instead of one
/// point per table cell.
fn cross(
    systems: &[SystemKind],
    workloads: &[WorkloadKind],
    threads: &[usize],
    cfgs: &[ConfigPoint],
) -> Vec<Point> {
    let mut out = Vec::with_capacity(systems.len() * workloads.len() * threads.len() * cfgs.len());
    for &cfg in cfgs {
        for &t in threads {
            for &w in workloads {
                for &s in systems {
                    out.push(Point {
                        system: s,
                        workload: w,
                        threads: t,
                        cfg,
                    });
                }
            }
        }
    }
    out
}

/// Table I: the modelled system parameters.
pub fn table1() -> String {
    let c = ConfigPoint::Typical.config();
    let rows = vec![
        vec!["Number of Cores".into(), format!("{}", c.num_cores)],
        vec![
            "Core Detail".into(),
            "In-order, single-issue, 1 op/cycle".into(),
        ],
        vec!["Cache Line Size".into(), "64 bytes".into()],
        vec![
            "L1 D cache".into(),
            format!(
                "Private, {}KB, {}-way, {}-cycle hit",
                c.mem.l1.lines() * 64 / 1024,
                c.mem.l1.ways,
                c.mem.l1_hit
            ),
        ],
        vec![
            "L2 (LLC)".into(),
            format!(
                "Shared, {}MB, {}-way, {}-cycle hit, inclusive",
                c.mem.llc_bank.lines() * 64 * c.num_cores / (1024 * 1024),
                c.mem.llc_bank.ways,
                c.mem.llc_hit
            ),
        ],
        vec![
            "Memory".into(),
            format!("{}-cycle latency", c.mem.mem_latency),
        ],
        vec!["Coherence protocol".into(), "MESI, directory-based".into()],
        vec![
            "Topology and Routing".into(),
            format!("2-D mesh ({}x{}), X-Y", c.noc.width, c.noc.height),
        ],
        vec![
            "Flit size / message size".into(),
            format!(
                "16 bytes / {} flits (data), {} flit (control)",
                c.noc.data_flits, c.noc.control_flits
            ),
        ],
        vec![
            "Link latency/bandwidth".into(),
            format!("{} cycle / 1 flit per cycle", c.noc.link_latency),
        ],
    ];
    let out = format!(
        "TABLE I. System Model Parameters\n{}",
        render(&["Component", "Value"], &rows)
    );
    println!("{out}");
    out
}

/// Table II: the evaluated systems.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = SystemKind::ALL
        .iter()
        .map(|s| {
            let p = s.policy();
            let mut feats = Vec::new();
            if p.coarse_grained_lock {
                feats.push("coarse-grained lock".to_string());
            } else {
                feats.push("best-effort HTM".to_string());
                if p.recovery {
                    feats.push(format!(
                        "recovery ({:?} prio, {:?})",
                        p.priority, p.reject_action
                    ));
                }
                if p.htmlock {
                    feats.push("HTMLock".to_string());
                }
                if p.switching_mode {
                    feats.push("switchingMode".to_string());
                }
            }
            vec![s.name().to_string(), feats.join(" + ")]
        })
        .collect();
    let out = format!(
        "TABLE II. Evaluated Systems\n{}",
        render(&["System", "Mechanisms"], &rows)
    );
    println!("{out}");
    out
}

/// Fig. 1: speedup of requester-win best-effort HTM vs CGL, 2 threads.
pub fn fig1(lab: &mut Lab) -> String {
    lab.prefetch(&cross(
        &[SystemKind::Cgl, SystemKind::Baseline],
        &WorkloadKind::ALL,
        &[2],
        &[ConfigPoint::Typical],
    ));
    let rows: Vec<Vec<String>> = WorkloadKind::ALL
        .iter()
        .map(|&w| {
            let s = lab.speedup(SystemKind::Baseline, w, 2, ConfigPoint::Typical);
            vec![w.name().to_string(), ratio(s)]
        })
        .collect();
    let out = format!(
        "FIG 1. Speedup of requester-win best-effort HTM vs CGL (2 threads)\n{}",
        render(&["workload", "speedup"], &rows)
    );
    println!("{out}");
    out
}

/// Fig. 7: per-workload speedup vs CGL for every system and thread count.
pub fn fig7(lab: &mut Lab, quick: bool) -> String {
    let systems: Vec<SystemKind> = SystemKind::ALL
        .iter()
        .copied()
        .filter(|s| *s != SystemKind::Cgl)
        .collect();
    lab.prefetch(&cross(
        &SystemKind::ALL,
        &WorkloadKind::ALL,
        thread_list(quick),
        &[ConfigPoint::Typical],
    ));
    let mut out = String::from("FIG 7. Speedup vs CGL (typical cache)\n");
    for &w in &WorkloadKind::ALL {
        let mut rows = Vec::new();
        for &t in thread_list(quick) {
            let mut row = vec![format!("{t}")];
            for &sys in &systems {
                row.push(ratio(lab.speedup(sys, w, t, ConfigPoint::Typical)));
            }
            rows.push(row);
        }
        let mut header: Vec<&str> = vec!["threads"];
        header.extend(systems.iter().map(|s| s.name()));
        out.push_str(&format!("\n[{}]\n{}", w.name(), render(&header, &rows)));
    }
    println!("{out}");
    out
}

/// Fig. 8: average transaction commit rate of the recovery systems.
pub fn fig8(lab: &mut Lab, quick: bool) -> String {
    lab.prefetch(&cross(
        &SystemKind::FIG8,
        &WorkloadKind::ALL,
        thread_list(quick),
        &[ConfigPoint::Typical],
    ));
    let mut rows = Vec::new();
    for &t in thread_list(quick) {
        let mut row = vec![format!("{t}")];
        for &sys in &SystemKind::FIG8 {
            let mut sum = 0.0;
            for w in WorkloadKind::ALL {
                sum += lab.run(sys, w, t, ConfigPoint::Typical).commit_rate();
            }
            row.push(pct(sum / WorkloadKind::ALL.len() as f64));
        }
        rows.push(row);
    }
    let mut header: Vec<&str> = vec!["threads"];
    header.extend(SystemKind::FIG8.iter().map(|s| s.name()));
    let out = format!(
        "FIG 8. Average transaction commit rate (recovery variants)\n{}",
        render(&header, &rows)
    );
    println!("{out}");
    out
}

fn breakdown_figure(lab: &mut Lab, title: &str, systems: &[SystemKind], threads: usize) -> String {
    lab.prefetch(&cross(
        systems,
        &WorkloadKind::ALL,
        &[threads],
        &[ConfigPoint::Typical],
    ));
    let phases = Phase::ALL;
    let mut out = format!("{title}\n");
    for &w in &WorkloadKind::ALL {
        let mut rows = Vec::new();
        for &sys in systems {
            let s = lab.run(sys, w, threads, ConfigPoint::Typical);
            let total: u64 = phases.iter().map(|p| s.phase(*p)).sum();
            let mut row = vec![sys.name().to_string()];
            for p in phases {
                let frac = if total == 0 {
                    0.0
                } else {
                    s.phase(p) as f64 / total as f64
                };
                row.push(pct(frac));
            }
            row.push(pct(s.commit_rate()));
            rows.push(row);
        }
        let mut header: Vec<&str> = vec!["system"];
        header.extend(phases.iter().map(|p| p.name()));
        header.push("commit rate");
        out.push_str(&format!("\n[{}]\n{}", w.name(), render(&header, &rows)));
    }
    println!("{out}");
    out
}

/// Fig. 9: execution-time breakdown + commit rate at 32 threads.
pub fn fig9(lab: &mut Lab, quick: bool) -> String {
    let threads = if quick { 8 } else { 32 };
    breakdown_figure(
        lab,
        &format!("FIG 9. Execution-time breakdown + commit rate ({threads} threads)"),
        &[
            SystemKind::Baseline,
            SystemKind::LockillerRwi,
            SystemKind::LockillerRwil,
        ],
        threads,
    )
}

/// Fig. 10: abort-cause percentages at 2 threads.
pub fn fig10(lab: &mut Lab) -> String {
    let systems = [
        SystemKind::Baseline,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ];
    lab.prefetch(&cross(
        &systems,
        &WorkloadKind::ALL,
        &[2],
        &[ConfigPoint::Typical],
    ));
    let mut out = String::from("FIG 10. Abort causes at 2 threads (fraction of all aborts)\n");
    for &w in &WorkloadKind::ALL {
        let mut rows = Vec::new();
        for &sys in &systems {
            let s = lab.run(sys, w, 2, ConfigPoint::Typical);
            let mut row = vec![sys.name().to_string()];
            for c in AbortCause::ALL {
                row.push(pct(s.abort_fraction(c)));
            }
            row.push(format!("{}", s.total_aborts()));
            rows.push(row);
        }
        let mut header: Vec<&str> = vec!["system"];
        header.extend(AbortCause::ALL.iter().map(|c| c.name()));
        header.push("aborts");
        out.push_str(&format!("\n[{}]\n{}", w.name(), render(&header, &rows)));
    }
    println!("{out}");
    out
}

/// Fig. 11: breakdown + commit rate at 2 threads (incl. switchLock).
pub fn fig11(lab: &mut Lab) -> String {
    breakdown_figure(
        lab,
        "FIG 11. Execution-time breakdown + commit rate (2 threads)",
        &[
            SystemKind::Baseline,
            SystemKind::LockillerRwil,
            SystemKind::LockillerTm,
        ],
        2,
    )
}

/// Fig. 12: average speedup of every system across thread counts.
pub fn fig12(lab: &mut Lab, quick: bool) -> String {
    let systems: Vec<SystemKind> = SystemKind::ALL
        .iter()
        .copied()
        .filter(|s| *s != SystemKind::Cgl)
        .collect();
    lab.prefetch(&cross(
        &SystemKind::ALL,
        &WorkloadKind::ALL,
        thread_list(quick),
        &[ConfigPoint::Typical],
    ));
    let mut rows = Vec::new();
    for &t in thread_list(quick) {
        let mut row = vec![format!("{t}")];
        for &sys in &systems {
            row.push(ratio(lab.avg_speedup(sys, t, ConfigPoint::Typical)));
        }
        rows.push(row);
    }
    let mut header: Vec<&str> = vec!["threads"];
    header.extend(systems.iter().map(|s| s.name()));
    let out = format!(
        "FIG 12. Average speedup vs CGL (geometric mean over workloads)\n{}",
        render(&header, &rows)
    );
    println!("{out}");
    out
}

/// Fig. 13: cache-size sensitivity.
pub fn fig13(lab: &mut Lab, quick: bool) -> String {
    let systems = [
        SystemKind::Baseline,
        SystemKind::LosaTmSafu,
        SystemKind::LockillerTm,
    ];
    lab.prefetch(&cross(
        &[
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LosaTmSafu,
            SystemKind::LockillerTm,
        ],
        &WorkloadKind::ALL,
        thread_list(quick),
        &[ConfigPoint::SmallCache, ConfigPoint::LargeCache],
    ));
    let mut out = String::from("FIG 13. Average speedup vs CGL under cache sensitivity\n");
    for cfg in [ConfigPoint::SmallCache, ConfigPoint::LargeCache] {
        let mut rows = Vec::new();
        for &t in thread_list(quick) {
            let mut row = vec![format!("{t}")];
            for &sys in &systems {
                row.push(ratio(lab.avg_speedup(sys, t, cfg)));
            }
            rows.push(row);
        }
        let mut header: Vec<&str> = vec!["threads"];
        header.extend(systems.iter().map(|s| s.name()));
        out.push_str(&format!("\n[{}]\n{}", cfg.name(), render(&header, &rows)));
    }
    println!("{out}");
    out
}

/// Write SVG renderings of the headline figures (Fig 1 bars, Fig 12
/// speedup lines, Fig 8 commit-rate lines) into `dir`.
pub fn plots(lab: &mut Lab, quick: bool, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
    use crate::svgplot::{grouped_bars, line_chart, system_color, BarGroup, Series};
    std::fs::create_dir_all(dir)?;
    let mut pts = cross(
        &[SystemKind::Cgl, SystemKind::Baseline],
        &WorkloadKind::ALL,
        &[2],
        &[ConfigPoint::Typical],
    );
    pts.extend(cross(
        &[
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LosaTmSafu,
            SystemKind::LockillerRwi,
            SystemKind::LockillerRwil,
            SystemKind::LockillerTm,
        ],
        &WorkloadKind::ALL,
        thread_list(quick),
        &[ConfigPoint::Typical],
    ));
    pts.extend(cross(
        &SystemKind::FIG8,
        &WorkloadKind::ALL,
        thread_list(quick),
        &[ConfigPoint::Typical],
    ));
    lab.prefetch(&pts);
    let mut written = Vec::new();

    // Fig 1: baseline vs CGL bars per workload.
    let names = vec![(
        "Baseline HTM".to_string(),
        system_color(SystemKind::Baseline).to_string(),
    )];
    let groups: Vec<BarGroup> = WorkloadKind::ALL
        .iter()
        .map(|&w| BarGroup {
            label: w.name().to_string(),
            values: vec![lab.speedup(SystemKind::Baseline, w, 2, ConfigPoint::Typical)],
        })
        .collect();
    let svg = grouped_bars(
        "Fig 1 — requester-win best-effort HTM vs coarse-grained locking (2 threads)",
        "speedup vs CGL",
        &names,
        &groups,
    );
    let path = dir.join("fig01.svg");
    std::fs::write(&path, svg)?;
    written.push(path.display().to_string());

    // Fig 12: average speedup lines for the paper's key systems.
    let systems = [
        SystemKind::Baseline,
        SystemKind::LosaTmSafu,
        SystemKind::LockillerRwi,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ];
    let threads = thread_list(quick);
    let series: Vec<Series> = systems
        .iter()
        .map(|&sys| Series {
            name: sys.name().to_string(),
            color: system_color(sys).to_string(),
            points: threads
                .iter()
                .map(|&t| (t as f64, lab.avg_speedup(sys, t, ConfigPoint::Typical)))
                .collect(),
        })
        .collect();
    let svg = line_chart(
        "Fig 12 — average speedup vs CGL (geometric mean over STAMP workloads)",
        "threads",
        "speedup vs CGL",
        &series,
    );
    let path = dir.join("fig12.svg");
    std::fs::write(&path, svg)?;
    written.push(path.display().to_string());

    // Fig 8: average commit rate lines for the recovery variants.
    let series: Vec<Series> = SystemKind::FIG8
        .iter()
        .map(|&sys| Series {
            name: sys.name().to_string(),
            color: system_color(sys).to_string(),
            points: threads
                .iter()
                .map(|&t| {
                    let mut sum = 0.0;
                    for w in WorkloadKind::ALL {
                        sum += lab.run(sys, w, t, ConfigPoint::Typical).commit_rate();
                    }
                    (t as f64, sum / WorkloadKind::ALL.len() as f64)
                })
                .collect(),
        })
        .collect();
    let svg = line_chart(
        "Fig 8 — average transaction commit rate",
        "threads",
        "commit rate",
        &series,
    );
    let path = dir.join("fig08.svg");
    std::fs::write(&path, svg)?;
    written.push(path.display().to_string());

    for p in &written {
        println!("wrote {p}");
    }
    Ok(written)
}

/// STAMP workload characterization on this simulator (the analogue of
/// the STAMP paper's per-application table): committed-transaction
/// length, read/write-set sizes, and abort pressure at a fixed thread
/// count. Used to check each port lands in its documented contention
/// class (DESIGN.md §8).
pub fn characterize(lab: &mut Lab) -> String {
    let threads = 8;
    lab.prefetch(&cross(
        &[SystemKind::Baseline],
        &WorkloadKind::ALL,
        &[threads],
        &[ConfigPoint::Typical],
    ));
    let mut rows = Vec::new();
    for &w in &WorkloadKind::ALL {
        let s = lab.run(SystemKind::Baseline, w, threads, ConfigPoint::Typical);
        rows.push(vec![
            w.name().to_string(),
            format!("{:.0}", s.avg_tx_len()),
            format!("{:.1}", s.avg_read_set()),
            format!("{:.1}", s.avg_write_set()),
            format!("{}", s.commits),
            pct(1.0 - s.commit_rate()),
            format!("{}", s.fallbacks),
        ]);
    }
    let out = format!(
        "CHARACTERIZATION (Baseline @{threads} threads, typical cache)
{}",
        render(
            &[
                "workload",
                "tx cycles",
                "rd lines",
                "wr lines",
                "commits",
                "abort rate",
                "fallbacks"
            ],
            &rows
        )
    );
    println!("{out}");
    out
}

/// Headline numbers quoted in the abstract: average speedup of
/// LockillerTM over Baseline and LosaTM-SAFU, plus the extreme-case
/// maxima in the small-cache configuration.
pub fn headline(lab: &mut Lab, quick: bool) -> String {
    let t_all = thread_list(quick);
    let key_systems = [
        SystemKind::LockillerTm,
        SystemKind::Baseline,
        SystemKind::LosaTmSafu,
    ];
    let mut pts = cross(
        &key_systems,
        &WorkloadKind::ALL,
        t_all,
        &[ConfigPoint::Typical],
    );
    pts.extend(cross(
        &key_systems,
        &WorkloadKind::ALL,
        &[*t_all.last().unwrap()],
        &[ConfigPoint::SmallCache],
    ));
    lab.prefetch(&pts);
    let mut over_base: Vec<f64> = Vec::new();
    let mut over_losa: Vec<f64> = Vec::new();
    for &t in t_all {
        for w in WorkloadKind::ALL {
            let full = lab
                .run(SystemKind::LockillerTm, w, t, ConfigPoint::Typical)
                .cycles as f64;
            let base = lab
                .run(SystemKind::Baseline, w, t, ConfigPoint::Typical)
                .cycles as f64;
            let losa = lab
                .run(SystemKind::LosaTmSafu, w, t, ConfigPoint::Typical)
                .cycles as f64;
            over_base.push(base / full);
            over_losa.push(losa / full);
        }
    }
    let geo = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let max_threads = *t_all.last().unwrap();
    let mut max_base: f64 = 0.0;
    let mut max_losa: f64 = 0.0;
    for w in WorkloadKind::ALL {
        let full = lab
            .run(
                SystemKind::LockillerTm,
                w,
                max_threads,
                ConfigPoint::SmallCache,
            )
            .cycles as f64;
        let base = lab
            .run(
                SystemKind::Baseline,
                w,
                max_threads,
                ConfigPoint::SmallCache,
            )
            .cycles as f64;
        let losa = lab
            .run(
                SystemKind::LosaTmSafu,
                w,
                max_threads,
                ConfigPoint::SmallCache,
            )
            .cycles as f64;
        max_base = max_base.max(base / full);
        max_losa = max_losa.max(losa / full);
    }
    let out = format!(
        "HEADLINE (paper: 1.86x / 1.57x avg, 7.79x / 6.73x max @8KB+32T)\n\
         avg speedup of LockillerTM vs Baseline:    {}\n\
         avg speedup of LockillerTM vs LosaTM-SAFU: {}\n\
         max speedup vs Baseline    (small cache, {max_threads} threads): {}\n\
         max speedup vs LosaTM-SAFU (small cache, {max_threads} threads): {}\n",
        ratio(geo(&over_base)),
        ratio(geo(&over_losa)),
        ratio(max_base),
        ratio(max_losa),
    );
    println!("{out}");
    out
}

/// Conflict-forensics summary: who aborts whom and whether each reject
/// action's recoveries save work, per system variant. Runs traced
/// simulations through `tmobs` (outside the `Lab` memo), renders
/// the per-variant ledger comparison, and writes the per-system blame
/// reports as one JSON artifact (`BENCH_forensics.json`).
pub fn forensics(quick: bool, json_out: &std::path::Path) -> std::io::Result<String> {
    use stamp::Scale;
    use tmobs::{run_trace, TraceConfig};

    let systems = [
        SystemKind::Baseline,
        SystemKind::LockillerRai,
        SystemKind::LockillerRri,
        SystemKind::LockillerRwi,
        SystemKind::LockillerTm,
    ];
    let workload = WorkloadKind::Intruder;
    let threads = 8;
    let scale = if quick { Scale::Tiny } else { Scale::Small };

    let mut rows = Vec::new();
    let mut blobs = Vec::new();
    for &sys in &systems {
        let mut cfg = TraceConfig::new(workload, sys);
        cfg.threads = threads;
        cfg.scale = scale;
        let art = run_trace(&cfg);
        if let Err(e) = &art.validation {
            panic!("{} validation failed: {e}", sys.name());
        }
        let f = &art.forensics;
        assert_eq!(
            f.matrix.total_wasted(),
            art.stats.aborted_cycles(),
            "{}: forensics wasted-cycle total must reconcile with RunStats",
            sys.name()
        );
        rows.push(vec![
            sys.name().to_string(),
            format!("{}", f.matrix.total_conflicts()),
            format!("{}", f.ledger.nacks),
            format!("{}", f.matrix.total_aborts()),
            format!("{}", f.matrix.total_wasted()),
            pct(art.stats.wasted_fraction()),
            format!("{}", f.ledger.nacked_attempts),
            pct(f.ledger.saved_fraction()),
            pct(art.stats.commit_rate()),
        ]);
        blobs.push(format!(
            "{{\"system\":\"{}\",\"blame\":{}}}",
            sys.name(),
            f.to_json(10).trim_end()
        ));
    }

    let out = format!(
        "FORENSICS. Conflict attribution + recovery outcomes ({} @ {threads} threads, {scale:?})\n{}",
        workload.name(),
        render(
            &[
                "system",
                "conflicts",
                "nacks",
                "aborts",
                "wasted",
                "wasted%",
                "nacked-tx",
                "saved%",
                "commit%",
            ],
            &rows
        )
    );
    std::fs::write(
        json_out,
        format!(
            "{{\"schema\":1,\"workload\":\"{}\",\"threads\":{threads},\"systems\":[{}]}}\n",
            workload.name(),
            blobs.join(",")
        ),
    )?;
    println!("{out}");
    Ok(out)
}
