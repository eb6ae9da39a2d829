//! Run digests: what a speed change must leave untouched.
//!
//! A digest is the simulated cycle count, the issued warp-instruction
//! count and an FNV-1a-64 hash of the sorted flat counter map (the same
//! keys the golden-counter suite pins) plus every [`RuntimeStats`] field.

use std::collections::BTreeMap;
use std::fmt;
use vksim_core::{RunReport, RuntimeStats};
use vksim_gpu::GpuStats;

/// Identity of one simulated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Simulated GPU cycles.
    pub cycles: u64,
    /// Issued warp-instructions.
    pub warp_insts: u64,
    /// FNV-1a-64 of the flat counter map and runtime statistics.
    pub hash: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles={} warp_insts={} hash={:#018x}",
            self.cycles, self.warp_insts, self.hash
        )
    }
}

/// Every integer the timing model and the functional runtime report, by
/// name, in sorted order.
pub fn flat_map(gpu: &GpuStats, rt: &RuntimeStats) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    m.insert("gpu.cycles".into(), gpu.cycles);
    m.insert("gpu.issued_insts".into(), gpu.issued_insts);
    m.insert("gpu.rt_busy_cycles".into(), gpu.rt_busy_cycles);
    m.insert(
        "gpu.rt_resident_warp_cycles".into(),
        gpu.rt_resident_warp_cycles,
    );
    m.insert("gpu.rt_ops".into(), gpu.rt_ops);
    m.insert("gpu.rt_chunks_fetched".into(), gpu.rt_chunks_fetched);
    m.insert(
        "gpu.rt_warp_latency.count".into(),
        gpu.rt_warp_latency.count(),
    );
    m.insert(
        "gpu.rt_occupancy.events".into(),
        gpu.rt_occupancy.iter().map(|t| t.len() as u64).sum(),
    );
    m.insert(
        "gpu.simt_efficiency.bits".into(),
        gpu.simt_efficiency.to_bits(),
    );
    for (prefix, bag) in [
        ("counter", &gpu.counters),
        ("l1", &gpu.l1_stats),
        ("rtc", &gpu.rtc_stats),
        ("l2", &gpu.l2_stats),
        ("dram", &gpu.dram_stats),
    ] {
        for (k, v) in bag.iter() {
            m.insert(format!("{prefix}.{k}"), v);
        }
    }
    for (k, v) in [
        ("rays", rt.rays),
        ("nodes_visited", rt.nodes_visited),
        ("box_tests", rt.box_tests),
        ("triangle_tests", rt.triangle_tests),
        ("transforms", rt.transforms),
        ("procedural_hits", rt.procedural_hits),
        ("triangle_hits", rt.triangle_hits),
        ("misses", rt.misses),
        ("max_stack_depth", u64::from(rt.max_stack_depth)),
        ("spill_stores", rt.spill_stores),
        ("spill_loads", rt.spill_loads),
    ] {
        m.insert(format!("runtime.{k}"), v);
    }
    m
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a flat map (see [`flat_map`]).
pub fn digest_of(map: &BTreeMap<String, u64>) -> Digest {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (k, v) in map {
        h = fnv1a(k.bytes(), h);
        h = fnv1a([b'='], h);
        h = fnv1a(v.to_le_bytes(), h);
    }
    Digest {
        cycles: map.get("gpu.cycles").copied().unwrap_or(0),
        warp_insts: map.get("gpu.issued_insts").copied().unwrap_or(0),
        hash: h,
    }
}

/// Digest of a finished run.
pub fn digest(report: &RunReport) -> Digest {
    digest_of(&flat_map(&report.gpu, &report.runtime))
}
