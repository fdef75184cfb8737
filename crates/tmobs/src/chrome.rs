//! Chrome trace-event JSON exporter (the format Perfetto and
//! `chrome://tracing` load). One simulated cycle maps to one microsecond
//! of display time.
//!
//! Layout: everything lives in process 0; each simulated core gets its
//! own thread track (txn / lock / park spans), the LLC arbiter gets a
//! dedicated thread track (HLA arbitration spans), and metric samples
//! become counter tracks (`ph: "C"`) — which is how the NoC link
//! utilization and LLC bank queue depths appear as tracks in Perfetto.

use crate::json::{self, escape, Json};
use crate::recorder::{Recorder, Span};
use sim_core::obs::{SpanEnd, Track};
use sim_core::stats::RunStats;

/// Run identification embedded in the trace (`otherData` + process
/// name), and the thread-id mapping basis.
#[derive(Clone, Debug)]
pub struct TraceMeta {
    pub workload: String,
    pub system: String,
    pub threads: usize,
    pub seed: u64,
}

/// Thread-track id for a span's track: cores first, then the LLC.
fn tid(track: Track, threads: usize) -> usize {
    match track {
        Track::Core(c) => c,
        Track::Llc => threads,
        Track::Noc => threads + 1,
    }
}

fn span_event(s: &Span, threads: usize) -> String {
    let mut args = format!("\"core\":{},\"end\":\"{}\"", s.core, s.outcome.name());
    if let SpanEnd::Abort(cause) = s.outcome {
        args.push_str(&format!(",\"cause\":\"{}\"", cause.name()));
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
        s.kind.name(),
        tid(s.track, threads),
        s.start,
        s.duration(),
    )
}

/// Serialize a recording as a Chrome trace-event JSON document. The
/// run's latency histograms ride along in `otherData` (Perfetto ignores
/// unknown keys there; `tmtrace perf-diff` and scripts can read them).
pub fn export_chrome(rec: &Recorder, meta: &TraceMeta, stats: &RunStats) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"{} on {}\"}}}}",
        escape(&meta.workload),
        escape(&meta.system)
    ));
    for c in 0..meta.threads {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{c},\"args\":{{\"name\":\"core {c}\"}}}}"
        ));
    }
    events.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"LLC/HLA\"}}}}",
        meta.threads
    ));
    for s in rec.spans() {
        events.push(span_event(s, meta.threads));
    }
    // Conflict edges as thread-scoped instant events on the victim's
    // track, so blame shows up inline with the aborted/parked spans.
    for c in rec.conflicts() {
        let e = &c.edge;
        events.push(format!(
            "{{\"name\":\"conflict:{}\",\"cat\":\"conflict\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"attacker\":{},\"victim\":{},\"line\":\"{:?}\",\"action\":\"{}\"}}}}",
            e.resolution.name(),
            tid(Track::Core(e.victim), meta.threads),
            c.cycle,
            e.attacker,
            e.victim,
            e.line,
            e.action.name(),
        ));
    }
    for row in rec.samples() {
        for &(metric, value) in &row.values {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":0,\"ts\":{},\"args\":{{\"value\":{value}}}}}",
                metric.name(),
                row.cycle
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{}\",\"system\":\"{}\",\"threads\":{},\"seed\":\"0x{:x}\",\"cycles\":{},\"latency\":{}}},\"traceEvents\":[\n{}\n]}}\n",
        escape(&meta.workload),
        escape(&meta.system),
        meta.threads,
        meta.seed,
        rec.end_cycle(),
        stats.latency.to_json(),
        events.join(",\n")
    )
}

/// What [`validate_chrome`] measured about a document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    pub spans: usize,
    pub counters: usize,
    pub tracks: usize,
    pub counter_series: usize,
    pub instants: usize,
}

/// Parse an exported document back and check the structural invariants
/// Perfetto relies on: every event carries `name`/`ph`/`pid`, complete
/// events carry numeric `ts`/`dur`, and spans on one thread track are
/// properly nested (no partial overlap).
pub fn validate_chrome(doc: &str) -> Result<ChromeSummary, String> {
    let v = json::parse(doc)?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = ChromeSummary::default();
    let mut tracks: Vec<usize> = Vec::new();
    let mut series: Vec<String> = Vec::new();
    // (tid, start, end) per complete event.
    let mut slices: Vec<(usize, u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if ev.get("pid").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        match ph {
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without tid"))?
                    as usize;
                if !tracks.contains(&tid) {
                    tracks.push(tid);
                }
                slices.push((tid, ts as u64, (ts + dur) as u64));
                summary.spans += 1;
            }
            "C" => {
                let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
                if ev.get("ts").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: C without ts"));
                }
                if !series.contains(&name) {
                    series.push(name);
                }
                summary.counters += 1;
            }
            "i" => {
                if ev.get("ts").and_then(Json::as_f64).is_none() {
                    return Err(format!("event {i}: i without ts"));
                }
                summary.instants += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    // Nesting check per track: sort by (start, -length); walk with a
    // stack of enclosing end times. A slice must close before whatever
    // encloses it does.
    slices.sort_by_key(|&(tid, start, end)| (tid, start, std::cmp::Reverse(end)));
    let mut stack: Vec<(usize, u64)> = Vec::new();
    for &(tid, start, end) in &slices {
        while let Some(&(top_tid, top_end)) = stack.last() {
            if top_tid != tid || top_end <= start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, top_end)) = stack.last() {
            if end > top_end {
                return Err(format!(
                    "track {tid}: span [{start},{end}) partially overlaps enclosing span ending at {top_end}"
                ));
            }
        }
        stack.push((tid, end));
    }
    summary.tracks = tracks.len();
    summary.counter_series = series.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::obs::{Metric, ObsEvent, ObsSink, SpanKind};

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "counter".into(),
            system: "LockillerTM".into(),
            threads: 2,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn export_parses_and_validates() {
        let mut rec = Recorder::default();
        for core in 0..2 {
            rec.event(ObsEvent::SpanBegin {
                cycle: 10 + core as u64,
                track: Track::Core(core),
                kind: SpanKind::Txn,
                core,
            });
            rec.event(ObsEvent::SpanEnd {
                cycle: 50,
                track: Track::Core(core),
                kind: SpanKind::Txn,
                core,
                end: SpanEnd::Commit,
            });
        }
        rec.event(ObsEvent::Sample {
            cycle: 0,
            metric: Metric::Commits,
            value: 2,
        });
        rec.finish(60);
        let mut stats = RunStats::new(2);
        stats
            .latency
            .record_class(sim_core::latency::TxnClass::HtmCommit, 40);
        let doc = export_chrome(&rec, &meta(), &stats);
        let s = validate_chrome(&doc).unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.counters, 1);
        assert_eq!(s.tracks, 2);
        assert_eq!(s.counter_series, 1);
        // The latency block rides in otherData and round-trips.
        let v = json::parse(&doc).unwrap();
        let lat = v.get("otherData").unwrap().get("latency").unwrap();
        let back = sim_core::latency::LatencyStats::from_json_value(lat).unwrap();
        assert_eq!(back, stats.latency);
    }

    #[test]
    fn overlapping_spans_on_one_track_rejected() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":5,"dur":10}
        ]}"#;
        assert!(validate_chrome(doc).unwrap_err().contains("overlaps"));
    }

    #[test]
    fn nested_and_disjoint_spans_accepted() {
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":2,"dur":3},
            {"name":"c","ph":"X","pid":0,"tid":0,"ts":20,"dur":5},
            {"name":"d","ph":"X","pid":0,"tid":1,"ts":5,"dur":100}
        ]}"#;
        let s = validate_chrome(doc).unwrap();
        assert_eq!(s.spans, 4);
        assert_eq!(s.tracks, 2);
    }

    #[test]
    fn abort_cause_lands_in_args() {
        use sim_core::stats::AbortCause;
        let mut rec = Recorder::default();
        rec.event(ObsEvent::SpanBegin {
            cycle: 1,
            track: Track::Core(0),
            kind: SpanKind::Txn,
            core: 0,
        });
        rec.event(ObsEvent::SpanEnd {
            cycle: 9,
            track: Track::Core(0),
            kind: SpanKind::Txn,
            core: 0,
            end: SpanEnd::Abort(AbortCause::Mc),
        });
        rec.finish(9);
        let doc = export_chrome(&rec, &meta(), &RunStats::new(2));
        assert!(doc.contains("\"cause\":\"mc\""));
        validate_chrome(&doc).unwrap();
    }
}
