//! Cycle accounting: the fixed stall taxonomy every resident warp-cycle
//! is attributed to, per-CU totals, per-window stall/occupancy
//! timelines, and the per-BB prediction-error rows surfaced in run
//! reports.
//!
//! The load-bearing invariant (asserted by [`CycleAccounting::check`],
//! a sim test, and `profile check`): for every CU, the stall-class
//! counts sum **exactly** to the CU's resident warp-cycles — each
//! cycle a warp is resident on a CU lands in exactly one class. The
//! engine attributes spans at event boundaries (never per-cycle ticks),
//! so accounting is O(events), not O(cycles), and is observation-only:
//! simulated cycles are bit-identical with accounting on and off.

use serde::{Deserialize, Serialize};

/// Number of stall classes in the taxonomy.
pub const STALL_CLASSES: usize = 8;

/// What a resident warp was doing (or waiting on) during a cycle.
///
/// Exactly one class applies per warp-cycle. Discriminants are stable:
/// they index the flat `[u64; STALL_CLASSES]` arrays in
/// [`CuAccounting`] and the exported counter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum StallClass {
    /// The warp issued an instruction this cycle.
    Issued = 0,
    /// Waiting on the scoreboard: the previous ALU/branch result was
    /// not ready yet.
    DepScoreboard = 1,
    /// Waiting on an outstanding memory access (cache/DRAM latency).
    MemPending = 2,
    /// The portion of a memory wait spent queued behind a busy
    /// cache/DRAM resource rather than in the access itself.
    MemQueueFull = 3,
    /// Parked at a workgroup barrier.
    Barrier = 4,
    /// Waiting on LDS (shared-memory) access latency.
    LdsConflict = 5,
    /// Ready to issue but not selected (SIMD issue-port contention or
    /// waiting for the first issue slot after dispatch).
    NoWarpReady = 6,
    /// Retired (or predicted-complete) but still resident while the
    /// rest of its workgroup drains.
    Drained = 7,
}

impl StallClass {
    /// Every class, in discriminant order.
    pub const ALL: [StallClass; STALL_CLASSES] = [
        StallClass::Issued,
        StallClass::DepScoreboard,
        StallClass::MemPending,
        StallClass::MemQueueFull,
        StallClass::Barrier,
        StallClass::LdsConflict,
        StallClass::NoWarpReady,
        StallClass::Drained,
    ];

    /// Index into the flat per-CU arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case display name (used in tables, counter tracks,
    /// and stuck-warp reports).
    pub fn name(self) -> &'static str {
        match self {
            StallClass::Issued => "issued",
            StallClass::DepScoreboard => "dep_scoreboard",
            StallClass::MemPending => "mem_pending",
            StallClass::MemQueueFull => "mem_queue_full",
            StallClass::Barrier => "barrier",
            StallClass::LdsConflict => "lds_conflict",
            StallClass::NoWarpReady => "no_warp_ready",
            StallClass::Drained => "drained",
        }
    }

    /// The class with discriminant `i` (wraps out-of-range to
    /// [`StallClass::Drained`], the safe catch-all).
    pub fn from_index(i: usize) -> StallClass {
        *StallClass::ALL.get(i).unwrap_or(&StallClass::Drained)
    }
}

/// Per-CU stall totals: warp-cycles attributed to each class plus the
/// resident warp-cycles they must sum to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuAccounting {
    /// Warp-cycles per [`StallClass`], indexed by `StallClass::index()`.
    pub classes: [u64; STALL_CLASSES],
    /// Total resident warp-cycles on this CU: for every workgroup that
    /// completed residency, `warps × (completion − dispatch)`.
    pub resident_warp_cycles: u64,
}

impl CuAccounting {
    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.classes.iter().sum()
    }
}

/// One window of the stall timeline: warp-cycles per class spent inside
/// `[start, start + window)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindow {
    /// Absolute start cycle of the window.
    pub start: u64,
    /// Warp-cycles per [`StallClass`] inside the window, summed over
    /// CUs.
    pub classes: [u64; STALL_CLASSES],
}

impl StallWindow {
    /// Mean resident warps across the window (every resident warp-cycle
    /// is classified exactly once, so the class sum *is* residency).
    pub fn resident_warps(&self, window: u64) -> f64 {
        let total: u64 = self.classes.iter().sum();
        total as f64 / window.max(1) as f64
    }
}

/// Per-shard stall totals: the same class/resident pair as
/// [`CuAccounting`], attributed by one event domain of the sharded
/// timing engine. The serial engine reports a single shard spanning
/// all CUs; the epoch engine reports one per CU shard. Each shard
/// accumulates its counts independently of the per-CU arrays, so the
/// cross-consistency check in [`CycleAccounting::check`] catches
/// merge bugs in the parallel paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardAccounting {
    /// Shard index (CU index in the epoch engine).
    pub shard: u32,
    /// Warp-cycles per [`StallClass`] attributed by this shard.
    pub classes: [u64; STALL_CLASSES],
    /// Resident warp-cycles credited by this shard.
    pub resident_warp_cycles: u64,
}

impl ShardAccounting {
    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.classes.iter().sum()
    }
}

/// The cycle-accounting snapshot attached to kernel results and run
/// reports: per-CU stall totals plus a windowed timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleAccounting {
    /// Simulated cycles covered (summed across kernels after a merge).
    pub cycles: u64,
    /// Timeline window width in cycles (the engine's IPC window).
    pub window: u64,
    /// One entry per CU.
    pub cus: Vec<CuAccounting>,
    /// Stall mix per window, CU-aggregated, oldest first.
    pub timeline: Vec<StallWindow>,
    /// Per-event-domain totals (diagnostic; skipped on the wire so
    /// reports written before the sharded engine stay loadable —
    /// deserialized snapshots simply carry no shard breakdown and
    /// [`CycleAccounting::check`] tolerates the empty vector).
    #[serde(skip)]
    pub shards: Vec<ShardAccounting>,
}

impl CycleAccounting {
    /// Warp-cycles per class summed over all CUs.
    pub fn totals(&self) -> [u64; STALL_CLASSES] {
        let mut out = [0u64; STALL_CLASSES];
        for cu in &self.cus {
            for (o, c) in out.iter_mut().zip(cu.classes.iter()) {
                *o += c;
            }
        }
        out
    }

    /// Total resident warp-cycles over all CUs.
    pub fn resident_warp_cycles(&self) -> u64 {
        self.cus.iter().map(|c| c.resident_warp_cycles).sum()
    }

    /// Whether no warp-cycles were accounted (e.g. a skipped kernel or
    /// a run without accounting data).
    pub fn is_empty(&self) -> bool {
        self.resident_warp_cycles() == 0 && self.cus.iter().all(|c| c.total() == 0)
    }

    /// Verifies the stall-sum invariant: every CU's class counts sum
    /// exactly to its resident warp-cycles, and — when a shard
    /// breakdown is present — the same holds per shard *and* the shard
    /// totals agree with the CU totals class-by-class (the shard
    /// counts are accumulated independently by each event domain, so
    /// agreement is evidence the parallel merge lost nothing).
    ///
    /// # Errors
    /// Returns a rendered description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        for (i, cu) in self.cus.iter().enumerate() {
            let total = cu.total();
            if total != cu.resident_warp_cycles {
                return Err(format!(
                    "cu {i}: stall classes sum to {total} but resident warp-cycles are {} \
                     (delta {})",
                    cu.resident_warp_cycles,
                    total as i64 - cu.resident_warp_cycles as i64
                ));
            }
        }
        if self.shards.is_empty() {
            return Ok(());
        }
        let mut shard_classes = [0u64; STALL_CLASSES];
        let mut shard_resident = 0u64;
        for s in &self.shards {
            let total = s.total();
            if total != s.resident_warp_cycles {
                return Err(format!(
                    "shard {}: stall classes sum to {total} but resident warp-cycles are {} \
                     (delta {})",
                    s.shard,
                    s.resident_warp_cycles,
                    total as i64 - s.resident_warp_cycles as i64
                ));
            }
            for (acc, c) in shard_classes.iter_mut().zip(s.classes.iter()) {
                *acc += c;
            }
            shard_resident += s.resident_warp_cycles;
        }
        let cu_classes = self.totals();
        if shard_classes != cu_classes {
            return Err(format!(
                "shard totals diverge from CU totals: shards {shard_classes:?} vs cus \
                 {cu_classes:?}"
            ));
        }
        if shard_resident != self.resident_warp_cycles() {
            return Err(format!(
                "shard resident warp-cycles {shard_resident} diverge from CU total {}",
                self.resident_warp_cycles()
            ));
        }
        Ok(())
    }

    /// Merges another accounting (e.g. the next kernel of an app) into
    /// this one: class counts add per CU, timelines concatenate (window
    /// starts are absolute cycles, so successive kernels extend the
    /// timeline monotonically).
    pub fn merge(&mut self, other: &CycleAccounting) {
        self.cycles += other.cycles;
        if self.window == 0 {
            self.window = other.window;
        }
        if self.cus.len() < other.cus.len() {
            self.cus.resize(other.cus.len(), CuAccounting::default());
        }
        for (mine, theirs) in self.cus.iter_mut().zip(other.cus.iter()) {
            for (m, t) in mine.classes.iter_mut().zip(theirs.classes.iter()) {
                *m += t;
            }
            mine.resident_warp_cycles += theirs.resident_warp_cycles;
        }
        for theirs in &other.shards {
            match self.shards.iter_mut().find(|s| s.shard == theirs.shard) {
                Some(mine) => {
                    for (m, t) in mine.classes.iter_mut().zip(theirs.classes.iter()) {
                        *m += t;
                    }
                    mine.resident_warp_cycles += theirs.resident_warp_cycles;
                }
                None => self.shards.push(*theirs),
            }
        }
        self.timeline.extend(other.timeline.iter().copied());
    }
}

/// One basic block's predicted-vs-measured error decomposition: how far
/// the sampling controller's duration prediction was from the measured
/// detailed timing, and which stall classes the measured cycles were
/// spent in.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BbErrorRow {
    /// Kernel the block belongs to.
    pub kernel: String,
    /// Basic block index within the kernel.
    pub bb: u32,
    /// Detailed block instances measured.
    pub instances: u64,
    /// Dynamic instructions across those instances.
    pub insts: u64,
    /// Measured detailed cycles across those instances.
    pub measured_cycles: u64,
    /// Measured mean cycles per instance.
    pub measured_mean: f64,
    /// Predicted mean cycles per instance (the controller's estimate,
    /// or the method's uniform-CPI equivalent for IPC-extrapolating
    /// baselines).
    pub predicted_mean: f64,
    /// `predicted_mean − measured_mean` (signed; positive means the
    /// prediction over-charged this block).
    pub delta: f64,
    /// Warp-cycles per [`StallClass`] attributed to this block's
    /// detailed instances.
    pub stall: [u64; STALL_CLASSES],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cu(classes: [u64; STALL_CLASSES]) -> CuAccounting {
        CuAccounting {
            classes,
            resident_warp_cycles: classes.iter().sum(),
        }
    }

    #[test]
    fn class_names_and_indices_are_stable() {
        let names: Vec<_> = StallClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "issued",
                "dep_scoreboard",
                "mem_pending",
                "mem_queue_full",
                "barrier",
                "lds_conflict",
                "no_warp_ready",
                "drained"
            ]
        );
        for (i, c) in StallClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(StallClass::from_index(i), *c);
        }
        assert_eq!(StallClass::from_index(99), StallClass::Drained);
    }

    #[test]
    fn check_accepts_balanced_and_rejects_unbalanced() {
        let mut acc = CycleAccounting {
            cycles: 100,
            window: 64,
            cus: vec![cu([10, 5, 0, 0, 3, 0, 2, 4]), cu([0; STALL_CLASSES])],
            timeline: Vec::new(),
            shards: Vec::new(),
        };
        assert!(acc.check().is_ok());
        acc.cus[0].resident_warp_cycles += 1;
        let err = acc.check().unwrap_err();
        assert!(err.contains("cu 0"), "{err}");
        assert!(err.contains("delta -1"), "{err}");
    }

    #[test]
    fn totals_and_merge_accumulate() {
        let a = CycleAccounting {
            cycles: 50,
            window: 64,
            cus: vec![cu([1, 2, 0, 0, 0, 0, 0, 0])],
            timeline: vec![StallWindow {
                start: 0,
                classes: [3, 0, 0, 0, 0, 0, 0, 0],
            }],
            shards: Vec::new(),
        };
        let b = CycleAccounting {
            cycles: 70,
            window: 64,
            cus: vec![cu([4, 0, 0, 0, 0, 0, 0, 0]), cu([0, 0, 8, 0, 0, 0, 0, 0])],
            timeline: vec![StallWindow {
                start: 64,
                classes: [0, 0, 12, 0, 0, 0, 0, 0],
            }],
            shards: Vec::new(),
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.cycles, 120);
        assert_eq!(m.cus.len(), 2);
        assert_eq!(m.totals()[StallClass::Issued.index()], 5);
        assert_eq!(m.totals()[StallClass::MemPending.index()], 8);
        assert_eq!(m.resident_warp_cycles(), 15);
        assert!(m.check().is_ok());
        assert_eq!(m.timeline.len(), 2);
        assert_eq!(m.timeline[1].start, 64);
        assert!((m.timeline[1].resident_warps(64) - 12.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accounting_is_empty_and_checks_clean() {
        let acc = CycleAccounting::default();
        assert!(acc.is_empty());
        assert!(acc.check().is_ok());
        assert_eq!(acc.totals(), [0; STALL_CLASSES]);
    }

    fn shard(id: u32, classes: [u64; STALL_CLASSES]) -> ShardAccounting {
        ShardAccounting {
            shard: id,
            classes,
            resident_warp_cycles: classes.iter().sum(),
        }
    }

    #[test]
    fn shard_invariant_holds_per_shard_and_globally() {
        let mut acc = CycleAccounting {
            cycles: 100,
            window: 64,
            cus: vec![cu([10, 5, 0, 0, 0, 0, 0, 0]), cu([0, 0, 7, 0, 0, 0, 0, 0])],
            timeline: Vec::new(),
            shards: vec![
                shard(0, [10, 5, 0, 0, 0, 0, 0, 0]),
                shard(1, [0, 0, 7, 0, 0, 0, 0, 0]),
            ],
        };
        assert!(acc.check().is_ok());

        // A shard whose classes don't sum to its resident count fails.
        acc.shards[1].resident_warp_cycles += 1;
        let err = acc.check().unwrap_err();
        assert!(err.contains("shard 1"), "{err}");
        acc.shards[1].resident_warp_cycles -= 1;

        // Shard totals must agree with CU totals class-by-class.
        acc.shards[1].classes[StallClass::MemPending.index()] -= 1;
        acc.shards[1].resident_warp_cycles -= 1;
        let err = acc.check().unwrap_err();
        assert!(err.contains("diverge from CU totals"), "{err}");
    }

    #[test]
    fn merge_adds_matching_shards_and_adopts_new_ones() {
        let mut a = CycleAccounting {
            cycles: 10,
            window: 64,
            cus: vec![cu([4, 0, 0, 0, 0, 0, 0, 0])],
            timeline: Vec::new(),
            shards: vec![shard(0, [4, 0, 0, 0, 0, 0, 0, 0])],
        };
        let b = CycleAccounting {
            cycles: 10,
            window: 64,
            cus: vec![cu([2, 0, 0, 0, 0, 0, 0, 0]), cu([0, 3, 0, 0, 0, 0, 0, 0])],
            timeline: Vec::new(),
            shards: vec![
                shard(0, [2, 0, 0, 0, 0, 0, 0, 0]),
                shard(1, [0, 3, 0, 0, 0, 0, 0, 0]),
            ],
        };
        a.merge(&b);
        assert_eq!(a.shards.len(), 2);
        assert_eq!(a.shards[0].classes[0], 6);
        assert_eq!(a.shards[1].classes[1], 3);
        assert!(a.check().is_ok());
    }

    #[test]
    fn shards_are_not_serialized() {
        let acc = CycleAccounting {
            cycles: 10,
            window: 4,
            cus: vec![cu([1, 0, 0, 0, 0, 0, 0, 0])],
            timeline: Vec::new(),
            shards: vec![shard(0, [1, 0, 0, 0, 0, 0, 0, 0])],
        };
        let text = serde_json::to_string(&acc).unwrap();
        assert!(!text.contains("shards"), "{text}");
        let back: CycleAccounting = serde_json::from_str(&text).unwrap();
        assert!(back.shards.is_empty());
        assert!(back.check().is_ok(), "deserialized form must still check");
    }

    #[test]
    fn accounting_roundtrips_through_json() {
        let acc = CycleAccounting {
            cycles: 10,
            window: 4,
            cus: vec![cu([1, 0, 0, 0, 0, 0, 0, 1])],
            timeline: vec![StallWindow {
                start: 0,
                classes: [1, 0, 0, 0, 0, 0, 0, 1],
            }],
            shards: Vec::new(),
        };
        let text = serde_json::to_string(&acc).unwrap();
        let back: CycleAccounting = serde_json::from_str(&text).unwrap();
        assert_eq!(acc, back);
        let row = BbErrorRow {
            kernel: "fir".into(),
            bb: 2,
            instances: 8,
            insts: 64,
            measured_cycles: 100,
            measured_mean: 12.5,
            predicted_mean: 13.0,
            delta: 0.5,
            stall: [4, 0, 96, 0, 0, 0, 0, 0],
        };
        let text = serde_json::to_string(&row).unwrap();
        let back: BbErrorRow = serde_json::from_str(&text).unwrap();
        assert_eq!(row, back);
    }
}
