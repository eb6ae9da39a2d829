//! The RT unit: a per-SM ray-tracing accelerator timing model.
//!
//! Reproduces the performance model of paper §III-C. One RT unit exists per
//! SM and is treated like an execution unit with variable latency: when a
//! warp's `traverseAS` instruction issues, the warp enters the RT unit's
//! *Warp Buffer* and its per-thread traversal scripts (recorded by the
//! functional model) are replayed cycle by cycle:
//!
//! * a *Warp Scheduler* picks one resident warp per cycle,
//!   greedy-then-oldest (§III-C2);
//! * the *Memory Scheduler* collects the next node address from every ready
//!   thread in the selected warp, merges identical requests and pushes the
//!   unique set to the *Memory Access Queue*; one request per cycle is sent
//!   to the L1 data cache (or a dedicated RT cache) (§III-C3);
//! * returning data enters the *Response FIFO*; the *Operation Scheduler*
//!   forwards waiting threads to the pipelined ray-box / ray-triangle /
//!   transform *Operation Units*, which have fixed latency (§III-C4);
//! * each ray's traversal stack is a short stack with
//!   [`SHORT_STACK_ENTRIES`] entries that spills into per-thread memory.
//!
//! A warp completes when every thread finished its script; until then
//! finished threads idle — the source of the low RT-unit SIMT efficiency
//! the paper reports (§VI-B).

pub mod unit;

pub use unit::{
    RtCounter, RtCounters, RtMem, RtMemResult, RtUnit, RtUnitAnalytics, RtUnitEvent,
    RtUnitEventKind, RtUnitStats, WarpDone,
};

use vksim_stats::{Counters, Histogram};

/// Short-stack depth per ray; deeper pushes spill to per-thread memory
/// (paper §III-C2, eight entries).
pub const SHORT_STACK_ENTRIES: u32 = 8;

/// One step of a thread's traversal script (converted from the functional
/// model's trace events by the simulator core).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// Fetch `size` bytes at `addr`, then run `op` on the returned data.
    Fetch {
        /// Absolute address.
        addr: u64,
        /// Size in bytes (split into 32 B chunks internally).
        size: u32,
        /// BVH operation consuming the data.
        op: OpKind,
    },
    /// Fire-and-forget store (intersection-buffer entry, stack spill).
    Store {
        /// Absolute address.
        addr: u64,
        /// Size in bytes.
        size: u32,
    },
}

/// Which operation unit processes a fetched node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Ray-box intersection tests against an internal node's children.
    Box {
        /// Number of child AABBs tested.
        tests: u8,
    },
    /// One ray-triangle intersection test.
    Triangle,
    /// A ray coordinate transformation (TLAS -> BLAS crossing).
    Transform,
    /// Raw data fetch with no BVH operation (stack refill, metadata).
    None,
}

impl OpKind {
    /// Serializes the operation kind for a machine-state snapshot.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        match *self {
            OpKind::Box { tests } => {
                e.u8(0);
                e.u8(tests);
            }
            OpKind::Triangle => e.u8(1),
            OpKind::Transform => e.u8(2),
            OpKind::None => e.u8(3),
        }
    }

    /// Restores a kind written by [`OpKind::save`].
    ///
    /// # Errors
    ///
    /// An unknown variant tag is malformed.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(match d.u8()? {
            0 => OpKind::Box { tests: d.u8()? },
            1 => OpKind::Triangle,
            2 => OpKind::Transform,
            3 => OpKind::None,
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "op kind tag {t}"
                )))
            }
        })
    }
}

impl Step {
    /// Serializes the step for a machine-state snapshot.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        match *self {
            Step::Fetch { addr, size, op } => {
                e.u8(0);
                e.u64(addr);
                e.u32(size);
                op.save(e);
            }
            Step::Store { addr, size } => {
                e.u8(1);
                e.u64(addr);
                e.u32(size);
            }
        }
    }

    /// Restores a step written by [`Step::save`].
    ///
    /// # Errors
    ///
    /// An unknown variant tag is malformed.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(match d.u8()? {
            0 => Step::Fetch {
                addr: d.u64()?,
                size: d.u32()?,
                op: OpKind::load(d)?,
            },
            1 => Step::Store {
                addr: d.u64()?,
                size: d.u32()?,
            },
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "traversal step tag {t}"
                )))
            }
        })
    }
}

/// A whole warp's traversal work: one script per thread (empty scripts are
/// inactive lanes).
#[derive(Clone, Debug, Default)]
pub struct WarpJob {
    /// Identifier handed back on completion.
    pub warp_id: u32,
    /// Per-lane scripts.
    pub scripts: Vec<Vec<Step>>,
}

impl WarpJob {
    /// Number of lanes with non-empty scripts.
    pub fn active_lanes(&self) -> usize {
        self.scripts.iter().filter(|s| !s.is_empty()).count()
    }

    /// Total steps across lanes.
    pub fn total_steps(&self) -> usize {
        self.scripts.iter().map(|s| s.len()).sum()
    }

    /// Serializes the job (lane order preserved) for a machine-state
    /// snapshot.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u32(self.warp_id);
        e.seq(self.scripts.len());
        for script in &self.scripts {
            e.seq(script.len());
            for step in script {
                step.save(e);
            }
        }
    }

    /// Restores a job written by [`WarpJob::save`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors on truncated or malformed payloads.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let warp_id = d.u32()?;
        let n = d.seq()?;
        let mut scripts = Vec::with_capacity(n);
        for _ in 0..n {
            let ns = d.seq()?;
            let mut script = Vec::with_capacity(ns);
            for _ in 0..ns {
                script.push(Step::load(d)?);
            }
            scripts.push(script);
        }
        Ok(WarpJob { warp_id, scripts })
    }
}

/// RT unit configuration (paper Table III: 1 RT unit per SM, max warps 4
/// baseline, 32 of each operation unit, MSHR size 64).
#[derive(Clone, Debug, PartialEq)]
pub struct RtUnitConfig {
    /// Maximum co-resident warps (the Fig. 16 sweep varies 1-20).
    pub max_warps: usize,
    /// Ray-box unit pipeline latency (cycles).
    pub box_latency: u32,
    /// Ray-triangle unit pipeline latency.
    pub triangle_latency: u32,
    /// Transform unit pipeline latency.
    pub transform_latency: u32,
    /// Memory access queue capacity.
    pub mem_queue: usize,
    /// Requests issued from the queue to the cache per cycle.
    pub issue_per_cycle: usize,
}

impl Default for RtUnitConfig {
    fn default() -> Self {
        RtUnitConfig {
            max_warps: 4,
            box_latency: 4,
            triangle_latency: 8,
            transform_latency: 4,
            mem_queue: 64,
            issue_per_cycle: 1,
        }
    }
}

/// Aggregated RT-unit statistics used by the evaluation experiments.
#[derive(Clone, Debug)]
pub struct RtStatsBundle {
    /// Event counters (fetches, ops, spills, ...).
    pub counters: Counters,
    /// Warp residency latency histogram (Fig. 13), 1000-cycle bins.
    pub warp_latency: Histogram,
    /// Per-cycle active-ray samples (RT-unit SIMT efficiency, §VI-B).
    pub active_ray_cycles: u64,
    /// Cycles with at least one resident warp.
    pub busy_cycles: u64,
    /// Sum over busy cycles of resident warps (occupancy, Fig. 18).
    pub resident_warp_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_job_counts_active_lanes() {
        let job = WarpJob {
            warp_id: 0,
            scripts: vec![
                vec![Step::Fetch {
                    addr: 0,
                    size: 64,
                    op: OpKind::Box { tests: 2 },
                }],
                vec![],
            ],
        };
        assert_eq!(job.active_lanes(), 1);
        assert_eq!(job.total_steps(), 1);
    }

    #[test]
    fn default_config_matches_table_iii() {
        let c = RtUnitConfig::default();
        assert_eq!(c.max_warps, 4);
        assert_eq!(c.mem_queue, 64);
    }
}
