//! Timing model of the GPU memory hierarchy.
//!
//! Reproduces the memory system the paper's GPU model inherits from
//! GPGPU-Sim 4.0 and extends for ray tracing:
//!
//! * [`cache::Cache`] — set-associative (or fully associative) LRU caches
//!   with MSHRs and miss classification (compulsory / capacity / conflict),
//!   feeding the Fig. 14 cache-breakdown experiment. Accesses are tagged
//!   with an [`AccessKind`] so shader loads and RT-unit loads can be
//!   reported separately.
//! * [`dram::Dram`] — banked DRAM with open-row policy, per-channel
//!   bandwidth, the efficiency/utilization statistics of Fig. 16, and two
//!   access schedulers ([`dram::DramSched`]): in-order FCFS and FR-FCFS
//!   with a bounded reorder window plus an age-cap starvation bound.
//! * [`system::SharedMemSystem`] — the partitioned L2 + interconnect +
//!   DRAM backend shared by all SMs: `num_partitions` independent memory
//!   partitions (L2 slice + DRAM channel group each), interleaved at
//!   128 B ([`system::partition_of`]); per-SM L1s forward misses into it.
//!   Larger requests are split into 32 B chunks by the producers (paper
//!   §III-C3).
//!
//! The hierarchy is event-driven: producers submit requests with the
//! current cycle, call [`system::SharedMemSystem::advance_to`] each cycle,
//! and receive completed request IDs.

pub mod cache;
pub mod dram;
pub mod system;

pub use cache::{AccessKind, Cache, CacheConfig, CacheCounter, CacheCounters, CacheOutcome};
pub use dram::{Dram, DramConfig, DramCounter, DramCounters, DramIssue, DramSched};
pub use system::{
    partition_of, MemConfig, MemRequest, MemSink, RequestQueue, SharedMemSystem, SysCounter,
    SysCounters, SystemConfig, PARTITION_BYTES,
};

/// Memory chunk size: larger requests are broken into 32 B pieces
/// (paper §III-C3).
pub const CHUNK_BYTES: u32 = 32;

/// Splits a byte range into 32 B-aligned chunk addresses.
///
/// # Example
///
/// ```
/// use vksim_mem::chunk_addresses;
/// assert_eq!(chunk_addresses(0x40, 64), vec![0x40, 0x60]);
/// assert_eq!(chunk_addresses(0x41, 32), vec![0x40, 0x60]); // straddles
/// ```
pub fn chunk_addresses(addr: u64, size: u32) -> Vec<u64> {
    chunks(addr, size).collect()
}

/// The chunks of [`chunk_addresses`], in the same order, without
/// allocating (the form the per-cycle paths use).
///
/// ```
/// use vksim_mem::chunks;
/// assert!(chunks(0x41, 32).eq([0x40, 0x60]));
/// ```
pub fn chunks(addr: u64, size: u32) -> impl Iterator<Item = u64> + Clone {
    let step = CHUNK_BYTES as u64;
    let first = addr / step * step;
    let last = (addr + size.max(1) as u64 - 1) / step * step;
    (first..=last).step_by(CHUNK_BYTES as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_aligned_and_unaligned() {
        assert_eq!(chunk_addresses(0, 32), vec![0]);
        assert_eq!(chunk_addresses(0, 33), vec![0, 32]);
        assert_eq!(chunk_addresses(31, 2), vec![0, 32]);
        assert_eq!(chunk_addresses(128, 128), vec![128, 160, 192, 224]);
        assert_eq!(chunk_addresses(100, 1), vec![96]);
    }
}
