//! Replayable schedule witnesses.
//!
//! When the `tmverify` explorer finds a violating schedule it shrinks
//! the decision sequence (ddmin) and serializes the result as a witness
//! file: everything needed to reproduce the violation bit-for-bit —
//! the system, the guest program (as a `ProgSpec` string), the
//! fault-injection and safety-net knobs, and the tie-break decision
//! vector. `tmverify replay FILE` re-executes it; `tmtrace witness
//! FILE` renders it for humans.
//!
//! The format is versioned JSON so corpus files in `tests/corpus/`
//! survive schema growth.

use sim_core::json::{self, Json};

/// Current witness schema version.
pub const WITNESS_VERSION: u64 = 1;

/// A self-contained reproduction recipe for one violating schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Schema version ([`WITNESS_VERSION`] when written by this build).
    pub version: u64,
    /// Free-form description (which bug / which run produced this).
    pub title: String,
    /// `SystemKind` CLI name (e.g. `lockillertm`).
    pub system: String,
    /// Simulated cores.
    pub cores: usize,
    /// Distinct cache lines in the guest program's arena.
    pub lines: u64,
    /// Guest program as a `tmverify` ProgSpec string.
    pub prog: String,
    /// Fault-injection knobs active for the run (CLI names, e.g.
    /// `drop-wakeups`); empty for a genuine (non-injected) violation.
    pub inject: Vec<String>,
    /// Whether the wake-up safety net was disabled (deadlock checking).
    pub no_safety_net: bool,
    /// Whether the run used the shrunken 2-line L1 (capacity-overflow
    /// configurations; the geometry changes which schedules exist).
    pub tiny_l1: bool,
    /// HTM retry-budget override, if one was set.
    pub retries: Option<u32>,
    /// The shrunk tie-break decision vector: the n-th nondeterministic
    /// pick point takes candidate `decisions[n]` (0 beyond the end).
    pub decisions: Vec<usize>,
    /// `CheckKind::name()` of the violation this witness reproduces.
    pub violation_kind: String,
    /// The violation's human-readable message when first found.
    pub violation_message: String,
}

impl Witness {
    /// Serialize as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let arr = |xs: &[String]| {
            xs.iter()
                .map(|s| format!("\"{}\"", json::escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let decisions = self
            .decisions
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let retries = self.retries.map_or("null".to_owned(), |r| r.to_string());
        format!(
            "{{\n  \"version\": {},\n  \"title\": \"{}\",\n  \"system\": \"{}\",\n  \
             \"cores\": {},\n  \"lines\": {},\n  \"prog\": \"{}\",\n  \
             \"inject\": [{}],\n  \"no_safety_net\": {},\n  \"tiny_l1\": {},\n  \
             \"retries\": {},\n  \"decisions\": [{}],\n  \
             \"violation_kind\": \"{}\",\n  \"violation_message\": \"{}\"\n}}\n",
            self.version,
            json::escape(&self.title),
            json::escape(&self.system),
            self.cores,
            self.lines,
            json::escape(&self.prog),
            arr(&self.inject),
            self.no_safety_net,
            self.tiny_l1,
            retries,
            decisions,
            json::escape(&self.violation_kind),
            json::escape(&self.violation_message),
        )
    }

    /// Parse a witness document, validating the schema.
    pub fn parse(text: &str) -> Result<Witness, String> {
        let doc = json::parse(text)?;
        let num = |key: &str, max: u64| -> Result<u64, String> {
            doc.get(key)
                .and_then(|v| whole(v, max))
                .ok_or_else(|| format!("witness: missing/invalid \"{key}\""))
        };
        let st = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("witness: missing/invalid \"{key}\""))
        };
        let version = num("version", u64::MAX)?;
        if version == 0 || version > WITNESS_VERSION {
            return Err(format!("witness: unsupported version {version}"));
        }
        let inject = doc
            .get("inject")
            .and_then(Json::as_arr)
            .ok_or("witness: missing/invalid \"inject\"")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "witness: non-string in \"inject\"".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let decisions = doc
            .get("decisions")
            .and_then(Json::as_arr)
            .ok_or("witness: missing/invalid \"decisions\"")?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                whole(v, usize::MAX as u64)
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("witness: invalid \"decisions\"[{i}]"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let flag = |key: &str| -> Result<bool, String> {
            match doc.get(key) {
                Some(Json::Bool(b)) => Ok(*b),
                // `tiny_l1` postdates the first written files; absent
                // means the default geometry.
                None if key == "tiny_l1" => Ok(false),
                _ => Err(format!("witness: missing/invalid \"{key}\"")),
            }
        };
        let no_safety_net = flag("no_safety_net")?;
        let tiny_l1 = flag("tiny_l1")?;
        let retries = match doc.get("retries") {
            None | Some(Json::Null) => None,
            Some(_) => Some(num("retries", u32::MAX.into())? as u32),
        };
        Ok(Witness {
            version,
            title: st("title")?,
            system: st("system")?,
            cores: num("cores", usize::MAX as u64)? as usize,
            lines: num("lines", u64::MAX)?,
            prog: st("prog")?,
            inject,
            no_safety_net,
            tiny_l1,
            retries,
            decisions,
            violation_kind: st("violation_kind")?,
            violation_message: st("violation_message")?,
        })
    }

    /// Multi-line human-readable rendering (`tmtrace witness`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("witness v{}: {}\n", self.version, self.title));
        out.push_str(&format!(
            "  config:    {} x{} cores, {} lines\n",
            self.system, self.cores, self.lines
        ));
        out.push_str(&format!("  program:   {}\n", self.prog));
        if !self.inject.is_empty() {
            out.push_str(&format!("  injected:  {}\n", self.inject.join(", ")));
        }
        if self.no_safety_net {
            out.push_str("  safety net: disabled (deadlock detection)\n");
        }
        if self.tiny_l1 {
            out.push_str("  geometry:  tiny L1 (2 lines; capacity-overflow config)\n");
        }
        if let Some(r) = self.retries {
            out.push_str(&format!("  retries:   {r}\n"));
        }
        out.push_str(&format!(
            "  violation: [{}] {}\n",
            self.violation_kind, self.violation_message
        ));
        out.push_str(&format!(
            "  schedule:  {} decision(s): {:?}\n",
            self.decisions.len(),
            self.decisions
        ));
        out.push_str("  replay:    cargo run -p tmverify -- replay <this file>\n");
        out
    }
}

/// `v` as a whole number in `0..=max`. Witness numbers are versions,
/// counts and schedule indices, so a negative, fractional or oversized
/// value marks a corrupt file instead of being cast into range. JSON
/// numbers parse as `f64`, exact for whole numbers only up to 2^53, so
/// that also bounds every field.
fn whole(v: &Json, max: u64) -> Option<u64> {
    let n = v.as_f64()?;
    let max = max.min(1 << 53) as f64;
    (n >= 0.0 && n.fract() == 0.0 && n <= max).then_some(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Witness {
        Witness {
            version: WITNESS_VERSION,
            title: "dropped wake-up deadlock".into(),
            system: "lockillertm".into(),
            cores: 2,
            lines: 2,
            prog: "2/c:L0,S1/c:S0,L1".into(),
            inject: vec!["drop-wakeups".into()],
            no_safety_net: true,
            tiny_l1: false,
            retries: Some(2),
            decisions: vec![0, 1, 0, 2],
            violation_kind: "deadlock".into(),
            violation_message: "cores [0, 1] stuck".into(),
        }
    }

    #[test]
    fn roundtrip() {
        let w = sample();
        let text = w.to_json();
        let back = Witness::parse(&text).expect("parse back");
        assert_eq!(back, w);
    }

    #[test]
    fn renders_key_facts() {
        let r = sample().render();
        assert!(r.contains("drop-wakeups"));
        assert!(r.contains("deadlock"));
        assert!(r.contains("[0, 1, 0, 2]"));
    }

    #[test]
    fn rejects_bad_docs() {
        assert!(Witness::parse("{}").is_err());
        assert!(Witness::parse("not json").is_err());
        let mut w = sample();
        w.version = WITNESS_VERSION + 1;
        assert!(Witness::parse(&w.to_json()).is_err());
    }

    /// `sample()`'s document with `field`'s value text replaced.
    fn with(field: &str, value: &str) -> Result<Witness, String> {
        let text = sample().to_json();
        let start = text.find(&format!("\"{field}\": ")).expect(field) + field.len() + 4;
        let end = start + text[start..].find(",\n").expect("not the last field");
        Witness::parse(&format!("{}{value}{}", &text[..start], &text[end..]))
    }

    #[test]
    fn numbers_must_be_whole_and_in_range() {
        for (field, bad) in [
            ("version", &["-1", "0.5", "1.5", "1e30"][..]),
            ("cores", &["-1", "2.5", "1e30", "\"2\""]),
            ("lines", &["-2", "0.5", "1e30", "null"]),
            ("retries", &["-1", "2.5", "4294967296", "1e30"]),
            (
                "decisions",
                &["[1e30, -1, 0.5]", "[-1]", "[0.5]", "[0, \"1\"]"],
            ),
        ] {
            for v in bad {
                let err = with(field, v).unwrap_err();
                assert!(err.contains(&format!("\"{field}\"")), "{field} {v}: {err}");
            }
        }
        assert_eq!(with("lines", "9007199254740992").unwrap().lines, 1 << 53);
        let retries = with("retries", "4294967295").unwrap().retries;
        assert_eq!(retries, Some(u32::MAX));
        assert_eq!(with("decisions", "[3, 0]").unwrap().decisions, vec![3, 0]);
    }

    #[test]
    fn escapes_strings() {
        let mut w = sample();
        w.violation_message = "a \"quoted\"\nmessage".into();
        let back = Witness::parse(&w.to_json()).expect("escaped roundtrip");
        assert_eq!(back.violation_message, w.violation_message);
    }
}
