//! Committed reference outputs (`golden.json`).
//!
//! Every operation the benchmark times yields an output fingerprint: the
//! FxHash of a point's `RunStats::to_json()`, or an exploration's digest,
//! verdict and schedule count, or a replay's verdict. A run compares each
//! fingerprint against the same operation's earlier reps and, at the
//! seed and scale the file was blessed at, against the file. A mismatch
//! is a failed operation, so a host-speed change that moves one
//! simulated bit reads as a failure, not as a speed-up.

use sim_core::json::{escape, parse, Json};
use std::collections::BTreeMap;

/// The fingerprints `tmbench bless` recorded, keyed by operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Golden {
    pub seed: u64,
    pub scale: String,
    pub outputs: BTreeMap<String, String>,
}

/// Where `bless` writes, and the file compiled into the binary.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

impl Golden {
    /// The file as committed next to this source.
    pub fn committed() -> Result<Golden, String> {
        Golden::parse(include_str!("../golden.json")).map_err(|e| format!("golden.json: {e}"))
    }

    /// Whether a run at `seed` and `scale` is checked against this file.
    pub fn applies(&self, seed: u64, scale: stamp::Scale) -> bool {
        self.seed == seed && self.scale == scale.name()
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = parse(text)?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("missing numeric \"seed\"")?;
        let scale = doc
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("missing string \"scale\"")?
            .to_string();
        let Some(Json::Obj(entries)) = doc.get("outputs") else {
            return Err("missing object \"outputs\"".to_string());
        };
        let mut outputs = BTreeMap::new();
        for (k, v) in entries {
            let v = v
                .as_str()
                .ok_or_else(|| format!("output {k:?} is not a string"))?;
            outputs.insert(k.clone(), v.to_string());
        }
        Ok(Golden {
            seed: seed as u64,
            scale,
            outputs,
        })
    }

    /// One entry per line, sorted by key, so a re-bless diffs cleanly.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .outputs
            .iter()
            .map(|(k, v)| format!("    \"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"scale\": \"{}\",\n  \"outputs\": {{\n{}\n  }}\n}}\n",
            self.seed,
            escape(&self.scale),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let g = Golden {
            seed: 7,
            scale: "tiny".to_string(),
            outputs: [("a/b".to_string(), "00ff".to_string())].into(),
        };
        assert_eq!(Golden::parse(&g.to_json()).unwrap(), g);
        assert!(g.applies(7, stamp::Scale::Tiny));
        assert!(!g.applies(8, stamp::Scale::Tiny));
        assert!(!g.applies(7, stamp::Scale::Full));
    }

    #[test]
    fn committed_file_parses_and_covers_every_workload() {
        let g = Golden::committed().unwrap();
        assert_eq!(g.seed, crate::workloads::DEFAULT_SEED);
        for w in crate::workloads::NAMES {
            assert!(
                g.outputs.keys().any(|k| k.starts_with(&format!("{w}/"))),
                "golden.json has no entry for {w}"
            );
        }
    }

    #[test]
    fn malformed_files_are_errors() {
        assert!(Golden::parse("{}").is_err());
        assert!(Golden::parse("{\"seed\":1,\"scale\":\"full\",\"outputs\":{\"k\":1}}").is_err());
        assert!(Golden::parse("not json").is_err());
    }
}
