//! The benchmark's own spans, kept in memory and written as a Chrome
//! trace-event document when the run ends.
//!
//! Spans bracket the benchmark's calls into each layer (a rep, a point,
//! a point's set-up and run, a `dpor` case's analysis, exploration and
//! replay); nothing inside the simulator is instrumented here. Every
//! span has an id and its parent's id, and the measured durations the
//! metrics use are the spans' own.

use sim_core::json::escape;
use std::time::{Duration, Instant};

pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start: Duration,
    dur: Option<Duration>,
    args: Vec<(String, String)>,
}

/// An append-only span store; ids are indices.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: self.t0.elapsed(),
            dur: None,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close span `id` now and return its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.t0.elapsed();
        let s = &mut self.spans[id];
        let d = now.saturating_sub(s.start);
        s.dur = Some(d);
        d
    }

    /// Attach `key = value` to span `id`; `value` is a JSON literal.
    pub fn arg(&mut self, id: SpanId, key: &str, value: String) {
        self.spans[id].args.push((key.to_string(), value));
    }

    /// Chrome trace-event JSON: one complete (`X`) event per closed span,
    /// microsecond timestamps, ids and parent ids in `args`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(id, s)| {
                let dur = s.dur?;
                let mut args = format!("\"id\":{id}");
                if let Some(p) = s.parent {
                    args.push_str(&format!(",\"parent\":{p}"));
                }
                for (k, v) in &s.args {
                    args.push_str(&format!(",\"{}\":{v}", escape(k)));
                }
                Some(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                    escape(&s.name),
                    s.start.as_secs_f64() * 1e6,
                    dur.as_secs_f64() * 1e6,
                ))
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::json::Json;

    #[test]
    fn nested_spans_export_with_parent_ids() {
        let mut s = Spans::new();
        let root = s.open("workload", None);
        let child = s.open("rep", Some(root));
        s.arg(child, "kind", "\"timed\"".to_string());
        let d_child = s.close(child);
        let d_root = s.close(root);
        assert!(d_root >= d_child);
        let doc = sim_core::json::parse(&s.chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("kind").and_then(Json::as_str), Some("timed"));
        assert!(events[0].get("args").unwrap().get("parent").is_none());
    }
}
