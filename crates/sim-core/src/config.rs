//! System configuration mirroring Table I of the paper, plus the policy
//! knobs that distinguish the Table II systems.
//!
//! A configuration is plain data. Four presets build it:
//! [`SystemConfig::table1`] is the "typical" configuration every headline
//! experiment uses; [`SystemConfig::small_cache`] and
//! [`SystemConfig::large_cache`] are the Fig. 13 sensitivity points
//! (8 KB L1 / 1 MB LLC and 128 KB L1 / 32 MB LLC); and
//! [`SystemConfig::testing`] is the scaled-down unit-test system.
//! Ablations and tests assign fields of a preset directly. Each value is
//! checked where the model uses it: cache sizes by
//! [`CacheGeometry::from_capacity`], the signature by
//! `coherence::bloom::Signature::new`, and the core count and mesh size
//! by `coherence::MemSystem::new`.
//!
//! A value is a field only while some figure, ablation, command line,
//! exploration or test sets a second value (DESIGN.md §4.4 names who).
//! Values with one setting are constants: [`SIGNATURE_HASHES`] here, and
//! the commit, abort, fault-service and retry-pause delays in the engine.

use crate::types::{Cycle, LineAddr};

/// Most cores a system can model: the directory's sharer set
/// (`coherence::bank::CoreSet`) is a 32-bit bitmap, one bit per core.
pub const MAX_CORES: usize = 32;

/// Hash functions per overflow signature (OfRdSig / OfWrSig).
pub const SIGNATURE_HASHES: usize = 3;

/// Geometry of one set-associative cache (sizes are per instance: one L1,
/// or one LLC bank).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Geometry for a cache of `bytes` capacity with `ways` associativity
    /// and 64-byte lines. Panics on an invalid geometry.
    pub fn from_capacity(bytes: usize, ways: usize) -> CacheGeometry {
        assert!(ways > 0, "associativity must be at least 1");
        let lines = bytes / 64;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "capacity not divisible by ways"
        );
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry { sets, ways }
    }

    /// Total lines held.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for a line number.
    #[inline]
    pub fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }
}

/// Memory-subsystem parameters (Table I).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Private L1 geometry (per core).
    pub l1: CacheGeometry,
    /// Shared LLC geometry **per bank** (one bank per tile).
    pub llc_bank: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_hit: Cycle,
    /// LLC bank access latency in cycles.
    pub llc_hit: Cycle,
    /// Off-chip memory latency in cycles.
    pub mem_latency: Cycle,
    /// Bits per overflow signature (OfRdSig / OfWrSig); Bloom filter size.
    pub signature_bits: usize,
}

/// Network-on-chip parameters (Table I: 4x8 mesh, X-Y routing, 16 B flits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh width (X dimension).
    pub width: usize,
    /// Mesh height (Y dimension).
    pub height: usize,
    /// Per-hop link latency in cycles.
    pub link_latency: Cycle,
    /// Flits in a control message.
    pub control_flits: u32,
    /// Flits in a data message (64 B line + header at 16 B flits = 5).
    pub data_flits: u32,
}

/// How a transaction's priority (the "user-defined data" carried on the
/// bus in the paper's recovery mechanism) is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityKind {
    /// No priority: the requester always wins (baseline best-effort HTM).
    RequesterWins,
    /// Instructions committed inside the current transaction attempt
    /// (the paper's insts-based policy).
    InstsBased,
    /// Memory references completed inside the current attempt (the
    /// progression-based policy attributed to LosaTM).
    ProgressionBased,
    /// First-come-first-served among HTM transactions: every HTM
    /// transaction has equal priority (ties broken by core id), used by
    /// the RWL configuration which has recovery but no insts-based
    /// priority.
    Fcfs,
}

/// What a requester does after the recovery mechanism rejects its request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectAction {
    /// Abort the requesting transaction (LockillerTM-RAI).
    SelfAbort,
    /// Re-issue the request after a fixed pause (LockillerTM-RRI).
    RetryLater,
    /// Park the request until the rejecting core sends a wake-up
    /// (LockillerTM-RWI and all HTMLock systems).
    WaitWakeup,
}

/// Policy knobs distinguishing the Table II systems. The `lockiller`
/// crate maps each named system to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Execute critical sections under a single global lock instead of HTM.
    pub coarse_grained_lock: bool,
    /// Enable the recovery (NACK/reject) mechanism.
    pub recovery: bool,
    /// Priority metric used when `recovery` is on.
    pub priority: PriorityKind,
    /// Requester behaviour on reject.
    pub reject_action: RejectAction,
    /// Enable the HTMLock mechanism (lock transactions run concurrently
    /// with HTM transactions; no lock subscription in HTM read sets).
    pub htmlock: bool,
    /// Enable the switchingMode mechanism (requires `htmlock`).
    pub switching_mode: bool,
    /// HTM retry budget before taking the fallback path (Listing 1's
    /// `TME_MAX_RETRIES`).
    pub max_retries: u32,
    /// Go to the fallback path immediately on capacity/fault aborts
    /// instead of burning the remaining retries.
    pub fallback_on_capacity: bool,
    /// Safety-net timeout for parked (WaitWakeup) requests. A correctly
    /// functioning wake-up path never hits this; a stats counter records
    /// if it ever fires so tests can assert it stayed at zero.
    pub wakeup_timeout: Cycle,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            coarse_grained_lock: false,
            recovery: false,
            priority: PriorityKind::RequesterWins,
            reject_action: RejectAction::WaitWakeup,
            htmlock: false,
            switching_mode: false,
            max_retries: 8,
            fallback_on_capacity: true,
            wakeup_timeout: 200_000,
        }
    }
}

/// Checked-mode configuration: turns on the tracing and live assertions
/// the `tmcheck` crate consumes, and optionally injects protocol faults
/// so the checkers themselves can be validated.
///
/// All fields default to off; a production run pays nothing for them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckCfg {
    /// Record access-level trace events (per-line reads/writes, NACKs,
    /// wake-ups) in addition to the attempt-level timeline, and run the
    /// SWMR invariant live after every protocol step. A detected SWMR
    /// violation is stored in [`RunStats::swmr_violation`] rather than
    /// panicking, so checked-mode harnesses can report it with context.
    ///
    /// [`RunStats::swmr_violation`]: crate::stats::RunStats::swmr_violation
    pub enabled: bool,
    /// Deliberate protocol mutations, used only to prove the checkers
    /// detect real bugs.
    pub fault: FaultInject,
}

impl CheckCfg {
    /// Checked mode with no injected faults — the configuration CI runs.
    pub fn on() -> CheckCfg {
        CheckCfg {
            enabled: true,
            fault: FaultInject::default(),
        }
    }
}

/// Deliberate protocol mutations for checker validation. Each knob breaks
/// one mechanism the paper's correctness argument depends on; `tmcheck`'s
/// mutation tests assert that every knob produces a detected violation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInject {
    /// Directory ignores read/write conflicts between transactions: a
    /// conflicting requester is served data as if no owner existed, and
    /// the owner keeps its speculative state. Breaks conflict detection →
    /// serializability (DSG cycle).
    pub ignore_conflicts: bool,
    /// A rejecting owner "forgets" to invalidate/downgrade on a lost
    /// arbitration: the loser of HLA arbitration keeps its line instead
    /// of aborting. Breaks single-writer/multiple-reader (SWMR).
    pub drop_nack: bool,
    /// Wake-up messages to parked rejected requesters are silently
    /// dropped. Breaks liveness (parked cores only resume via the
    /// safety-net timeout).
    pub drop_wakeups: bool,
    /// The HLA arbiter grants an STL switch request even while another
    /// core already holds the lock transaction (and tolerates the
    /// resulting mismatched releases). Breaks TL/STL grant exclusivity —
    /// two cores run lock-mode critical sections concurrently.
    pub double_grant: bool,
    /// Conflict-arbitration priorities decay instead of accumulating:
    /// the priority written on each access is `BASE - p` rather than
    /// `p`. Breaks the paper's priority-monotonicity invariant (a
    /// transaction's priority must never decrease while it runs).
    pub prio_decay: bool,
}

impl FaultInject {
    /// True if any mutation knob is set.
    pub fn any(&self) -> bool {
        self.ignore_conflicts
            || self.drop_nack
            || self.drop_wakeups
            || self.double_grant
            || self.prio_decay
    }
}

/// Full system model configuration (Table I + policy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores / tiles.
    pub num_cores: usize,
    pub mem: MemConfig,
    pub noc: NocConfig,
    pub policy: PolicyConfig,
    /// Checked-mode switches (tracing, live invariants, fault injection).
    pub check: CheckCfg,
}

impl SystemConfig {
    /// The paper's Table I configuration: 32 in-order cores, 32 KB 4-way
    /// private L1s, 8 MB 16-way shared LLC, 4x8 mesh, 100-cycle memory.
    pub fn table1() -> SystemConfig {
        SystemConfig {
            num_cores: 32,
            mem: MemConfig {
                l1: CacheGeometry { sets: 128, ways: 4 },
                // 8 MB shared LLC over 32 banks = 256 KB/bank, 16-way.
                llc_bank: CacheGeometry {
                    sets: 256,
                    ways: 16,
                },
                l1_hit: 2,
                llc_hit: 12,
                mem_latency: 100,
                signature_bits: 1024,
            },
            noc: NocConfig {
                width: 4,
                height: 8,
                link_latency: 1,
                control_flits: 1,
                data_flits: 5,
            },
            policy: PolicyConfig::default(),
            check: CheckCfg::default(),
        }
    }

    /// Fig. 13 "small cache" point: 8 KB L1, 1 MB LLC.
    pub fn small_cache() -> SystemConfig {
        let mut cfg = SystemConfig::table1();
        cfg.mem.l1 = CacheGeometry::from_capacity(8 * 1024, 4);
        cfg.mem.llc_bank = CacheGeometry::from_capacity(1024 * 1024 / cfg.num_cores, 16);
        cfg
    }

    /// Fig. 13 "large cache" point: 128 KB L1, 32 MB LLC.
    pub fn large_cache() -> SystemConfig {
        let mut cfg = SystemConfig::table1();
        cfg.mem.l1 = CacheGeometry::from_capacity(128 * 1024, 4);
        cfg.mem.llc_bank = CacheGeometry::from_capacity(32 * 1024 * 1024 / cfg.num_cores, 16);
        cfg
    }

    /// A scaled-down configuration for fast unit/integration tests:
    /// fewer cores and small caches, same protocol behaviour.
    pub fn testing(num_cores: usize) -> SystemConfig {
        let mut cfg = SystemConfig::table1();
        cfg.num_cores = num_cores;
        (cfg.noc.width, cfg.noc.height) = fit_mesh_dims(num_cores);
        cfg.mem.l1 = CacheGeometry::from_capacity(4 * 1024, 4);
        // 64 KB of LLC at a power-of-two core count; other counts keep
        // the bank size of the next power of two.
        let bank_bytes = 64 * 1024 / num_cores.next_power_of_two();
        cfg.mem.llc_bank = CacheGeometry::from_capacity(bank_bytes, 8);
        cfg
    }

    /// Number of LLC banks (one per tile).
    pub fn num_banks(&self) -> usize {
        self.num_cores
    }

    /// Home LLC bank of a line: lines interleave line-modulo-banks, the
    /// same mapping the engine and the `coherence` bank model use. A
    /// static analysis can therefore compute a program's exact per-bank
    /// footprint from its line set alone.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.num_banks()
    }

    /// L1 set a line maps to: private L1s index by the raw line number.
    /// Used by the static capacity analysis — more than
    /// [`SystemConfig::speculative_ways`] distinct speculative lines in
    /// one set guarantee a capacity overflow.
    pub fn l1_set_of(&self, line: LineAddr) -> usize {
        self.mem.l1.set_of(line.0)
    }

    /// Set a line occupies within its home LLC bank (banks index by
    /// line-divided-by-banks, mirroring the bank tag array's stride).
    pub fn llc_set_of(&self, line: LineAddr) -> usize {
        self.mem.llc_bank.set_of(line.0 / self.num_banks() as u64)
    }

    /// Speculative lines one L1 set can hold: the associativity. A
    /// transaction whose footprint puts more distinct lines than this
    /// into a single set cannot finish in HTM mode.
    pub fn speculative_ways(&self) -> usize {
        self.mem.l1.ways
    }

    /// Total speculative line capacity of one private L1 (upper bound on
    /// any transaction's combined read/write-set size).
    pub fn speculative_lines(&self) -> usize {
        self.mem.l1.lines()
    }

    /// Conservative distinct-line budget of one overflow Bloom signature:
    /// `bits / (8 * hashes)` keeps the false-positive probability of a
    /// saturating signature below roughly 0.2%, the regime in which
    /// switchingMode spill tracking stays precise. Footprints beyond this
    /// budget make signature aliasing (spurious conflicts) plausible.
    pub fn signature_line_budget(&self) -> usize {
        (self.mem.signature_bits / (8 * SIGNATURE_HASHES)).max(1)
    }
}

/// Smallest power-of-two mesh holding `cores` tiles, using exactly the
/// shapes the scaled-down test configurations have always used (2x2,
/// 2x4, 4x4, 4x8) so simulated routes — and therefore cycle counts —
/// stay bit-identical; larger systems keep doubling the longer axis.
fn fit_mesh_dims(cores: usize) -> (usize, usize) {
    let (mut w, mut h) = (2, 2);
    while w * h < cores {
        if h <= w {
            h *= 2;
        } else {
            w *= 2;
        }
    }
    (w, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SystemConfig::table1();
        assert_eq!(c.num_cores, 32);
        // 32 KB, 4-way, 64 B lines => 128 sets.
        assert_eq!(c.mem.l1.sets, 128);
        assert_eq!(c.mem.l1.ways, 4);
        assert_eq!(c.mem.l1.lines() * 64, 32 * 1024);
        // 8 MB over 32 banks.
        assert_eq!(c.mem.llc_bank.lines() * 64 * 32, 8 * 1024 * 1024);
        assert_eq!(c.mem.llc_bank.ways, 16);
        assert_eq!(c.mem.l1_hit, 2);
        assert_eq!(c.mem.llc_hit, 12);
        assert_eq!(c.mem.mem_latency, 100);
        assert_eq!(c.noc.width * c.noc.height, 32);
        assert_eq!(c.noc.data_flits, 5);
        assert_eq!(c.noc.control_flits, 1);
        assert_eq!(c.noc.link_latency, 1);
    }

    #[test]
    fn cache_geometry_of_capacity() {
        let g = CacheGeometry::from_capacity(32 * 1024, 4);
        assert_eq!(g.sets, 128);
        assert_eq!(g.lines(), 512);
        // Set mapping masks low line bits.
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(127), 127);
        assert_eq!(g.set_of(128), 0);
    }

    #[test]
    fn sensitivity_configs() {
        let geom = |sets, ways| CacheGeometry { sets, ways };
        let s = SystemConfig::small_cache();
        assert_eq!(s.mem.l1.lines() * 64, 8 * 1024);
        assert_eq!(s.mem.llc_bank.lines() * 64 * 32, 1024 * 1024);
        assert_eq!(s.mem.l1, geom(32, 4));
        assert_eq!(s.mem.llc_bank, geom(32, 16));
        let l = SystemConfig::large_cache();
        assert_eq!(l.mem.l1.lines() * 64, 128 * 1024);
        assert_eq!(l.mem.llc_bank.lines() * 64 * 32, 32 * 1024 * 1024);
        assert_eq!(l.mem.l1, geom(512, 4));
        assert_eq!(l.mem.llc_bank, geom(1024, 16));
        // Only the caches differ from Table I.
        for mut c in [s, l] {
            c.mem.l1 = SystemConfig::table1().mem.l1;
            c.mem.llc_bank = SystemConfig::table1().mem.llc_bank;
            assert_eq!(c, SystemConfig::table1());
        }
    }

    #[test]
    fn testing_config_meshes_fit() {
        for n in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
            let c = SystemConfig::testing(n);
            assert!(
                c.noc.width * c.noc.height >= n,
                "mesh too small for {n} cores"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = CacheGeometry::from_capacity(24 * 1024, 4);
    }

    #[test]
    fn static_analysis_accessors() {
        let c = SystemConfig::testing(4);
        // Bank interleave is line % banks, L1 indexes by raw line number,
        // bank sets stride by the bank count — the same mappings the
        // engine and the coherence bank/L1 models use.
        assert_eq!(c.num_banks(), 4);
        assert_eq!(c.bank_of(LineAddr(6)), 2);
        assert_eq!(c.l1_set_of(LineAddr(6)), c.mem.l1.set_of(6));
        assert_eq!(c.llc_set_of(LineAddr(6)), c.mem.llc_bank.set_of(6 / 4));
        assert_eq!(c.speculative_ways(), c.mem.l1.ways);
        assert_eq!(c.speculative_lines(), c.mem.l1.sets * c.mem.l1.ways);
        // Table-I signature: 1024 bits, 3 hashes -> 42-line budget.
        assert_eq!(SystemConfig::table1().signature_line_budget(), 42);
        // Degenerate geometries still give a usable (>= 1) budget.
        let mut tiny = SystemConfig::table1();
        tiny.mem.signature_bits = 8;
        assert_eq!(tiny.signature_line_budget(), 1);
    }
}
