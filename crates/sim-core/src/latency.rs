//! Per-transaction latency accounting: a deterministic log-bucketed
//! histogram ([`LatencyHist`]), the outcome-class taxonomy
//! ([`TxnClass`]), the per-run collection carried in `RunStats`
//! ([`LatencyStats`]), and the per-core in-flight tracker the engine
//! stamps lifecycle phases with ([`TxnLifecycle`]).
//!
//! ## Bucketing
//!
//! HDR-style: values below `2^SUB_BITS` get exact unit buckets; above
//! that, each power-of-2 octave is split into `2^SUB_BITS` linear
//! sub-buckets, bounding the relative quantile error at
//! `2^-SUB_BITS` (6.25%). Everything is integer arithmetic on `u64`
//! cycle counts — recording, merging, and quantiles are exactly
//! reproducible on any host, which is what lets histograms ride inside
//! `RunStats` through the tmlab cache and the `--jobs` determinism
//! oracle without ever perturbing byte-identical results.
//!
//! ## NaN-freedom
//!
//! Every query on an empty histogram returns 0 (or 0.0 for
//! [`LatencyHist::mean`]), matching the `RunStats` ratio-helper
//! convention: summary tables and JSON exports never contain NaN/Inf.

use crate::fxhash::FxHasher;
use crate::json::Json;
use crate::stats::AbortCause;
use crate::types::Cycle;
use std::hash::{Hash, Hasher};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets (values below `2^SUB_BITS` are exact).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total addressable buckets for the full `u64` range.
/// msb=63 ⇒ shift=59 ⇒ index `(60 << SUB_BITS) + 15`.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// Bucket index of a value (monotone, contiguous from 0).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    (((shift as usize) + 1) << SUB_BITS) + (((v >> shift) & (SUB - 1)) as usize)
}

/// Inclusive upper bound of bucket `i` (the histogram's reported
/// quantile value for ranks landing in that bucket).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let octave = (i >> SUB_BITS) as u32 - 1;
    let sub = (i as u64) & (SUB - 1);
    ((SUB + sub) << octave) + (1u64 << octave) - 1
}

/// Deterministic log-bucketed latency histogram with exact merge.
///
/// Storage is allocated lazily on first record, so an untouched
/// histogram costs three words; two histograms compare equal iff they
/// hold the same recorded multiset up to bucket resolution (an empty
/// dense vector and no vector are the same state — `counts` is
/// non-empty iff `count > 0`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHist {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LatencyHist {
    pub fn new() -> LatencyHist {
        LatencyHist::default()
    }

    /// Record one value (simulated cycles).
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v` at once (exact-merge building block).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
            self.min = v;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Exact merge: the result is indistinguishable from having recorded
    /// both histograms' inputs into one (bucket-wise addition; sum, min,
    /// max, and count all combine losslessly).
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
            self.min = other.min;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean; 0.0 (never NaN) when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (0.0 ..= 1.0): the inclusive upper edge
    /// of the bucket holding rank `ceil(q * count)`, clamped to the
    /// recorded `[min, max]`. Integer-exact for values below `2^SUB_BITS`;
    /// within one sub-bucket (6.25%) otherwise. 0 when empty — never
    /// NaN/Inf for any input.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without floating-point rounding surprises at q=1.0.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Non-empty buckets as `(index, upper_bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, bucket_upper(i), n))
    }

    /// Single-line JSON: exact integers plus a sparse bucket list, so
    /// the encoding is byte-stable for a given recorded multiset.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max
        );
        let mut first = true;
        for (i, _, n) in self.nonzero_buckets() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("[{i},{n}]"));
        }
        out.push_str("]}");
        out
    }

    /// Decode a [`LatencyHist::to_json`] object; the round-trip is exact
    /// (including re-encoding byte-identity). A document no recording
    /// could produce is an `Err`, never a panic: bucket counts that
    /// overflow or do not sum to `count`, or `min > max` on a non-empty
    /// histogram.
    pub fn from_json_value(v: &Json) -> Result<LatencyHist, String> {
        let num = |key: &str| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(0),
                Some(j) => j
                    .as_f64()
                    .map(|f| f as u64)
                    .ok_or_else(|| format!("latency hist field {key} is not a number")),
            }
        };
        let mut h = LatencyHist {
            count: num("count")?,
            sum: num("sum")?,
            min: num("min")?,
            max: num("max")?,
            counts: Vec::new(),
        };
        let mut total = 0u64;
        if let Some(buckets) = v.get("buckets").and_then(Json::as_arr) {
            if !buckets.is_empty() {
                h.counts = vec![0; NUM_BUCKETS];
                for b in buckets {
                    let pair = b
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or("latency hist bucket is not an [index,count] pair")?;
                    let i = pair[0].as_f64().ok_or("bucket index is not a number")? as usize;
                    let n = pair[1].as_f64().ok_or("bucket count is not a number")? as u64;
                    if i >= NUM_BUCKETS {
                        return Err(format!("bucket index {i} out of range"));
                    }
                    // Every bucket is at most `total`, so none overflows
                    // once the total fits.
                    total = total
                        .checked_add(n)
                        .ok_or("latency hist bucket counts overflow")?;
                    h.counts[i] += n;
                }
            }
        }
        if total != h.count {
            return Err(format!(
                "latency hist buckets hold {total} values, count says {}",
                h.count
            ));
        }
        if h.count > 0 && h.min > h.max {
            return Err(format!("latency hist min {} > max {}", h.min, h.max));
        }
        if h.count == 0 {
            // Normalize: an empty hist stores no dense vector and min=0,
            // so decode(encode(h)) == h structurally, not just logically.
            h.counts = Vec::new();
            h.min = 0;
        }
        Ok(h)
    }

    /// Order-insensitive content digest (regression oracle for
    /// bit-determinism tests).
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        (self.count, self.sum, self.min(), self.max).hash(&mut h);
        for (i, _, n) in self.nonzero_buckets() {
            (i, n).hash(&mut h);
        }
        h.finish()
    }
}

/// Outcome class of one completed transaction lifecycle (commit
/// classes) or one aborted attempt (retry classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxnClass {
    /// Lifecycle ended in a plain speculative (HTM) commit.
    HtmCommit,
    /// Lifecycle ended in an STL-mode commit after a proactive switch.
    StlCommit,
    /// Lifecycle ended on the lock path (fallback section, TL-mode
    /// HTMLock transaction, or a CGL critical section).
    LockCommit,
    /// One aborted speculative attempt, keyed by its abort cause; the
    /// recorded latency is the attempt's start→abort span (the wasted
    /// work the retry pays for).
    Retry(AbortCause),
}

impl TxnClass {
    pub const COUNT: usize = 3 + AbortCause::ALL.len();

    pub const ALL: [TxnClass; TxnClass::COUNT] = [
        TxnClass::HtmCommit,
        TxnClass::StlCommit,
        TxnClass::LockCommit,
        TxnClass::Retry(AbortCause::Mc),
        TxnClass::Retry(AbortCause::Lock),
        TxnClass::Retry(AbortCause::Mutex),
        TxnClass::Retry(AbortCause::NonTran),
        TxnClass::Retry(AbortCause::Of),
        TxnClass::Retry(AbortCause::Fault),
    ];

    pub fn index(self) -> usize {
        match self {
            TxnClass::HtmCommit => 0,
            TxnClass::StlCommit => 1,
            TxnClass::LockCommit => 2,
            TxnClass::Retry(cause) => 3 + cause.index(),
        }
    }

    /// Stable snake_case name used by JSON exports and summary tables.
    pub fn name(self) -> &'static str {
        match self {
            TxnClass::HtmCommit => "htm_commit",
            TxnClass::StlCommit => "stl_commit",
            TxnClass::LockCommit => "lock_commit",
            TxnClass::Retry(AbortCause::Mc) => "retry_mc",
            TxnClass::Retry(AbortCause::Lock) => "retry_lock",
            TxnClass::Retry(AbortCause::Mutex) => "retry_mutex",
            TxnClass::Retry(AbortCause::NonTran) => "retry_non_tran",
            TxnClass::Retry(AbortCause::Of) => "retry_of",
            TxnClass::Retry(AbortCause::Fault) => "retry_fault",
        }
    }
}

/// Every latency histogram one run collects: per-outcome-class total
/// latencies plus the three lifecycle-phase distributions the paper's
/// lower-bound argument turns on (park/wait, fallback-lock hold,
/// start→first-abort).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Per-class latency, indexed by [`TxnClass::index`]. Commit classes
    /// record the whole lifecycle (first attempt's start → commit,
    /// across every retry); retry classes record each aborted attempt.
    pub classes: [LatencyHist; TxnClass::COUNT],
    /// Park/wait durations (reject → wake-up/retry/timeout/abort).
    pub park: LatencyHist,
    /// Fallback/TL/STL lock hold durations (acquisition → release).
    pub fallback_hold: LatencyHist,
    /// Start → first abort of each lifecycle that aborted at least once.
    pub first_abort: LatencyHist,
}

impl LatencyStats {
    pub fn class(&self, c: TxnClass) -> &LatencyHist {
        &self.classes[c.index()]
    }

    pub fn record_class(&mut self, c: TxnClass, v: Cycle) {
        self.classes[c.index()].record(v);
    }

    /// Exact element-wise merge (see [`LatencyHist::merge`]).
    pub fn merge(&mut self, other: &LatencyStats) {
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
        self.park.merge(&other.park);
        self.fallback_hold.merge(&other.fallback_hold);
        self.first_abort.merge(&other.first_abort);
    }

    /// Single-line JSON object, field order fixed: every class key is
    /// always present (empty classes encode as empty histograms), so the
    /// schema-agnostic diff joins runs on identical paths.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"classes\":{");
        for (i, c) in TxnClass::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.class(*c).to_json()));
        }
        out.push_str(&format!(
            "}},\"park\":{},\"fallback_hold\":{},\"first_abort\":{}}}",
            self.park.to_json(),
            self.fallback_hold.to_json(),
            self.first_abort.to_json()
        ));
        out
    }

    /// Decode a [`LatencyStats::to_json`] object (exact round-trip;
    /// missing keys decode to empty histograms).
    pub fn from_json_value(v: &Json) -> Result<LatencyStats, String> {
        let mut s = LatencyStats::default();
        if let Some(classes) = v.get("classes") {
            for c in TxnClass::ALL {
                if let Some(h) = classes.get(c.name()) {
                    s.classes[c.index()] = LatencyHist::from_json_value(h)?;
                }
            }
        }
        for (key, slot) in [
            ("park", &mut s.park),
            ("fallback_hold", &mut s.fallback_hold),
            ("first_abort", &mut s.first_abort),
        ] {
            if let Some(h) = v.get(key) {
                *slot = LatencyHist::from_json_value(h)?;
            }
        }
        Ok(s)
    }

    /// Content digest over every histogram (determinism oracle).
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        for c in &self.classes {
            c.digest().hash(&mut h);
        }
        self.park.digest().hash(&mut h);
        self.fallback_hold.digest().hash(&mut h);
        self.first_abort.digest().hash(&mut h);
        h.finish()
    }
}

/// Per-core in-flight lifecycle tracker. The engine owns one per core,
/// *outside* the fingerprinted controller state: lifecycle stamps are
/// volatile accounting, so tmverify state fingerprints (and therefore
/// exploration digests) are unchanged by their presence.
///
/// A lifecycle covers one static atomic section from its first attempt's
/// start to the commit that finally retires it — speculative retries,
/// parks, and a fallback acquisition all extend the same lifecycle.
#[derive(Clone, Debug, Default)]
pub struct TxnLifecycle {
    active: bool,
    /// First attempt's start cycle (total-latency origin).
    first_start: Cycle,
    /// Current attempt's start cycle (retry-latency origin).
    attempt_start: Cycle,
    first_abort_recorded: bool,
    park_since: Option<Cycle>,
    hold_since: Option<Cycle>,
}

impl TxnLifecycle {
    /// A speculative attempt starts (`xbegin`). Continues the current
    /// lifecycle after an abort; starts a fresh one otherwise.
    pub fn begin_attempt(&mut self, now: Cycle) {
        if !self.active {
            self.active = true;
            self.first_start = now;
            self.first_abort_recorded = false;
        }
        self.attempt_start = now;
    }

    /// A lock section is acquired (fallback begin, TL/STL grant).
    /// Starts a lifecycle if none is active (CGL critical sections) and
    /// opens the hold interval.
    pub fn begin_hold(&mut self, now: Cycle) {
        if !self.active {
            self.begin_attempt(now);
        }
        self.hold_since = Some(now);
    }

    /// The core parked (reject → RetryLater / WaitWakeup). Parks are
    /// tracked even outside a lifecycle: non-transactional accesses park
    /// too, and their wait latency is part of the distribution.
    pub fn park(&mut self, now: Cycle) {
        self.park_since = Some(now);
    }

    /// The park ended (wake-up, retry pause, or safety-net timeout);
    /// records the park duration. Idempotent when not parked.
    pub fn unpark(&mut self, now: Cycle, stats: &mut LatencyStats) {
        if let Some(since) = self.park_since.take() {
            stats.park.record(now - since);
        }
    }

    /// One speculative attempt aborted: close any park, record the
    /// attempt's span under its retry class, and stamp start→first-abort
    /// once per lifecycle. The lifecycle stays open for the retry.
    pub fn on_abort(&mut self, now: Cycle, cause: AbortCause, stats: &mut LatencyStats) {
        self.unpark(now, stats);
        if self.active {
            stats.record_class(TxnClass::Retry(cause), now - self.attempt_start);
            if !self.first_abort_recorded {
                self.first_abort_recorded = true;
                stats.first_abort.record(now - self.first_start);
            }
        }
        self.hold_since = None;
    }

    /// The lifecycle retires under `class`: records total start→commit
    /// latency, closes an open lock-hold interval, and resets.
    pub fn commit(&mut self, now: Cycle, class: TxnClass, stats: &mut LatencyStats) {
        self.unpark(now, stats);
        if let Some(since) = self.hold_since.take() {
            stats.fallback_hold.record(now - since);
        }
        if self.active {
            stats.record_class(class, now - self.first_start);
        }
        self.active = false;
        self.first_abort_recorded = false;
    }

    pub fn is_active(&self) -> bool {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        // Exhaustive over the low range, spot checks above.
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1u64..100_000 {
            let i = bucket_index(v);
            assert!(i == prev || i == prev + 1, "gap at {v}: {prev} -> {i}");
            prev = i;
        }
        for shift in 4..63 {
            let v = 1u64 << shift;
            assert!(bucket_index(v) > bucket_index(v - 1));
            assert_eq!(bucket_index(v), bucket_index(v + (1 << (shift - 4)) - 1));
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_upper_is_inclusive_edge() {
        for v in 0u64..10_000 {
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper({i}) = {upper} < {v}");
            assert_eq!(bucket_index(upper), i, "upper edge left its bucket at {v}");
            if upper < u64::MAX {
                assert!(bucket_index(upper + 1) == i + 1);
            }
        }
        // Values below 2^SUB_BITS are exact.
        for v in 0..SUB {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn quantiles_are_exact_below_sub_range() {
        let mut h = LatencyHist::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p90(), 9);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_error_is_bounded_by_sub_bucket_width() {
        let mut h = LatencyHist::new();
        for v in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }
        for (q, exact) in [(0.2, 100u64), (0.4, 1_000), (0.6, 10_000), (1.0, 1_000_000)] {
            let got = h.quantile(q);
            assert!(got >= exact, "quantile({q}) = {got} < {exact}");
            let err = (got - exact) as f64 / exact as f64;
            assert!(err <= 1.0 / SUB as f64, "relative error {err} at q={q}");
        }
    }

    #[test]
    fn empty_hist_is_nan_and_inf_free() {
        let h = LatencyHist::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn single_value_hist_quantiles() {
        let mut h = LatencyHist::new();
        h.record(777);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 777, "clamped to the only recorded value");
        }
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut all = LatencyHist::new();
        for v in [3u64, 17, 900, 65_000] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 17, 40_000_000] {
            b.record(v);
            all.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        assert_eq!(ab.to_json(), all.to_json());
        // Merging an empty histogram is the identity, both ways.
        let empty = LatencyHist::new();
        let mut ae = a.clone();
        ae.merge(&empty);
        assert_eq!(ae, a);
        let mut ea = LatencyHist::new();
        ea.merge(&a);
        assert_eq!(ea, a);
    }

    #[test]
    fn json_round_trip_is_byte_exact() {
        let mut h = LatencyHist::new();
        for v in [0u64, 1, 15, 16, 100, 12_345, 9_999_999] {
            h.record_n(v, v % 5 + 1);
        }
        let doc = h.to_json();
        let back = LatencyHist::from_json_value(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json(), doc);
        // Empty round-trips to the structurally-empty state.
        let e = LatencyHist::new();
        let back = LatencyHist::from_json_value(&json::parse(&e.to_json()).unwrap()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.to_json(), e.to_json());
    }

    #[test]
    fn recorded_hist_round_trips_through_json() {
        let mut stats = LatencyStats::default();
        let mut lc = TxnLifecycle::default();
        for t in 0..50u64 {
            let now = t * 1_000;
            lc.begin_attempt(now);
            lc.park(now + 10);
            lc.unpark(now + 10 + t * t, &mut stats);
            lc.commit(now + 900, TxnClass::HtmCommit, &mut stats);
        }
        for h in [&stats.park, stats.class(TxnClass::HtmCommit)] {
            let doc = h.to_json();
            let back = LatencyHist::from_json_value(&json::parse(&doc).unwrap()).unwrap();
            assert_eq!(&back, h);
            assert_eq!(back.to_json(), doc);
        }
    }

    #[test]
    fn decoding_rejects_overflowing_bucket_counts() {
        let max = u64::MAX;
        for doc in [
            format!("{{\"count\":1,\"buckets\":[[1,{max}],[2,1]]}}"),
            format!("{{\"count\":1,\"buckets\":[[1,{max}],[1,1]]}}"),
        ] {
            let v = json::parse(&doc).unwrap();
            let err = LatencyHist::from_json_value(&v).unwrap_err();
            assert!(err.contains("overflow"), "{doc}: {err}");
        }
    }

    #[test]
    fn decoding_rejects_buckets_that_disagree_with_count() {
        for doc in [
            r#"{"count":5,"buckets":[]}"#,
            r#"{"count":5}"#,
            r#"{"count":2,"min":1,"max":1,"buckets":[[1,3]]}"#,
            r#"{"count":0,"buckets":[[1,1]]}"#,
        ] {
            let v = json::parse(doc).unwrap();
            assert!(LatencyHist::from_json_value(&v).is_err(), "{doc} decoded");
        }
    }

    #[test]
    fn decoding_rejects_min_above_max() {
        let v = json::parse(r#"{"count":1,"sum":9,"min":9,"max":3,"buckets":[[9,1]]}"#).unwrap();
        let err = LatencyHist::from_json_value(&v).unwrap_err();
        assert!(err.contains("min 9 > max 3"), "{err}");
    }

    #[test]
    fn txn_class_indices_cover_and_are_unique() {
        let mut seen = [false; TxnClass::COUNT];
        for c in TxnClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut names: Vec<&str> = TxnClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TxnClass::COUNT);
    }

    #[test]
    fn latency_stats_json_round_trip_and_digest() {
        let mut s = LatencyStats::default();
        s.record_class(TxnClass::HtmCommit, 120);
        s.record_class(TxnClass::Retry(AbortCause::Mc), 48);
        s.park.record(32);
        s.fallback_hold.record(500);
        s.first_abort.record(48);
        let doc = s.to_json();
        let back = LatencyStats::from_json_value(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), doc);
        assert_eq!(back.digest(), s.digest());
        let empty = LatencyStats::default();
        assert_ne!(empty.digest(), s.digest());
        let doc = empty.to_json();
        let back = LatencyStats::from_json_value(&json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn lifecycle_stamps_known_cycles() {
        let mut stats = LatencyStats::default();
        let mut lc = TxnLifecycle::default();
        // Attempt 1: starts at 100, parks 150..180, aborts at 200.
        lc.begin_attempt(100);
        lc.park(150);
        lc.unpark(180, &mut stats);
        lc.on_abort(200, AbortCause::Mc, &mut stats);
        // Attempt 2: starts at 210, commits at 300.
        lc.begin_attempt(210);
        lc.commit(300, TxnClass::HtmCommit, &mut stats);
        assert_eq!(stats.park.count(), 1);
        assert_eq!(stats.park.max(), 30);
        let retry = stats.class(TxnClass::Retry(AbortCause::Mc));
        assert_eq!(retry.count(), 1);
        assert_eq!(retry.max(), 100, "attempt span 100..200");
        assert_eq!(stats.first_abort.max(), 100);
        let htm = stats.class(TxnClass::HtmCommit);
        assert_eq!(htm.count(), 1);
        assert_eq!(htm.max(), 200, "lifecycle span 100..300");
        assert!(!lc.is_active());
        // Lock path: hold 400..460 on a fresh lifecycle.
        lc.begin_hold(400);
        lc.commit(460, TxnClass::LockCommit, &mut stats);
        assert_eq!(stats.fallback_hold.count(), 1);
        assert_eq!(stats.fallback_hold.max(), 60);
        assert_eq!(stats.class(TxnClass::LockCommit).max(), 60);
    }

    #[test]
    fn lifecycle_abort_to_fallback_counts_whole_span() {
        let mut stats = LatencyStats::default();
        let mut lc = TxnLifecycle::default();
        lc.begin_attempt(0);
        lc.on_abort(50, AbortCause::Of, &mut stats);
        // Retry budget exhausted: the guest takes the fallback lock.
        lc.begin_hold(80);
        lc.commit(130, TxnClass::LockCommit, &mut stats);
        let lock = stats.class(TxnClass::LockCommit);
        assert_eq!(lock.max(), 130, "total includes the aborted attempt");
        assert_eq!(stats.fallback_hold.max(), 50, "hold is acquisition-scoped");
    }
}
