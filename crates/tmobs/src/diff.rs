//! Run-to-run regression detection: compare two JSON documents (RunStats
//! dumps, blame reports — any numeric-leaved JSON) and flag metric
//! deltas beyond a relative threshold.
//!
//! The comparison is schema-agnostic: both documents are flattened to
//! dotted numeric leaf paths (`phases[1]`, `ledger.saved_fraction`, ...)
//! and joined on path. A key present on only one side is always flagged.
//! `tmtrace diff` fronts this; CI's `tmtrace-smoke` job runs it on two
//! passes of one point.

use sim_core::json::{self, Json};

/// One flagged difference between documents A and B.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Dotted leaf path (`stats.aborts[2]`).
    pub path: String,
    /// Value in document A; `None` if the key only exists in B.
    pub a: Option<f64>,
    /// Value in document B; `None` if the key only exists in A.
    pub b: Option<f64>,
}

impl MetricDelta {
    /// Relative change in percent, against the larger magnitude (so it is
    /// symmetric and NaN-free). Missing keys report 100%.
    pub fn rel_pct(&self) -> f64 {
        match (self.a, self.b) {
            (Some(a), Some(b)) => {
                let denom = a.abs().max(b.abs());
                if denom == 0.0 {
                    0.0
                } else {
                    (b - a).abs() / denom * 100.0
                }
            }
            _ => 100.0,
        }
    }

    pub fn render(&self) -> String {
        fn v(x: Option<f64>) -> String {
            x.map_or_else(|| "-".to_string(), |x| format!("{x}"))
        }
        format!(
            "{:<40} {:>16} -> {:>16}  ({:+.2}%)",
            self.path,
            v(self.a),
            v(self.b),
            self.rel_pct()
        )
    }
}

/// Flatten every numeric leaf of `v` into `out` under dotted paths.
/// Booleans count as 0/1 (they are metrics too: `swmr_violation`);
/// strings and nulls are identity metadata and are skipped.
fn flatten(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Bool(b) => out.push((prefix.to_string(), if *b { 1.0 } else { 0.0 })),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), item, out);
            }
        }
        Json::Obj(fields) => {
            for (k, item) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, item, out);
            }
        }
        Json::Str(_) | Json::Null => {}
    }
}

/// Parse and compare two JSON documents; return the deltas at or beyond
/// `threshold_pct` (0.0 flags any change), in document order of A with
/// B-only keys appended.
pub fn diff_docs(a: &str, b: &str, threshold_pct: f64) -> Result<Vec<MetricDelta>, String> {
    let doc_a = json::parse(a).map_err(|e| format!("document A: {e}"))?;
    let doc_b = json::parse(b).map_err(|e| format!("document B: {e}"))?;
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    flatten("", &doc_a, &mut fa);
    flatten("", &doc_b, &mut fb);
    let mut out = Vec::new();
    for (path, va) in &fa {
        match fb.iter().find(|(p, _)| p == path) {
            Some((_, vb)) => {
                let d = MetricDelta {
                    path: path.clone(),
                    a: Some(*va),
                    b: Some(*vb),
                };
                if va != vb && d.rel_pct() >= threshold_pct {
                    out.push(d);
                }
            }
            None => out.push(MetricDelta {
                path: path.clone(),
                a: Some(*va),
                b: None,
            }),
        }
    }
    for (path, vb) in &fb {
        if !fa.iter().any(|(p, _)| p == path) {
            out.push(MetricDelta {
                path: path.clone(),
                a: None,
                b: Some(*vb),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_zero_deltas() {
        let doc = r#"{"cycles":100,"aborts":[1,2,3],"nested":{"x":1.5,"ok":true},"name":"run"}"#;
        assert!(diff_docs(doc, doc, 0.0).unwrap().is_empty());
    }

    #[test]
    fn changed_leaf_is_flagged_with_path() {
        let a = r#"{"stats":{"aborts":[5,0]}}"#;
        let b = r#"{"stats":{"aborts":[6,0]}}"#;
        let d = diff_docs(a, b, 0.0).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "stats.aborts[0]");
        assert!((d[0].rel_pct() - 100.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_suppresses_small_deltas() {
        let a = r#"{"cycles":1000}"#;
        let b = r#"{"cycles":1009}"#;
        assert!(diff_docs(a, b, 1.0).unwrap().is_empty());
        assert_eq!(diff_docs(a, b, 0.5).unwrap().len(), 1);
    }

    #[test]
    fn missing_keys_always_flagged() {
        let a = r#"{"x":1,"only_a":2}"#;
        let b = r#"{"x":1,"only_b":3}"#;
        let d = diff_docs(a, b, 50.0).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].path, "only_a");
        assert_eq!(d[0].b, None);
        assert_eq!(d[1].path, "only_b");
        assert_eq!(d[1].a, None);
        assert_eq!(d[0].rel_pct(), 100.0);
    }

    #[test]
    fn strings_are_identity_not_metrics() {
        let a = r#"{"system":"LockillerTM","v":1}"#;
        let b = r#"{"system":"Baseline","v":1}"#;
        assert!(diff_docs(a, b, 0.0).unwrap().is_empty());
    }
}
