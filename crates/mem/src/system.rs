//! Partitioned L2 + interconnect + DRAM backend.
//!
//! All SMs' L1 misses funnel through one [`SharedMemSystem`] (paper Fig. 3:
//! SMs connect to memory partitions through an on-chip interconnect). The
//! backend is organised as `num_partitions` independent *memory
//! partitions*, each owning an L2 slice and a DRAM channel group —
//! addresses interleave across partitions at 128 B granularity
//! ([`partition_of`]). The model is event-driven: producers
//! [`SharedMemSystem::submit`] chunk-sized requests and poll
//! [`SharedMemSystem::advance_to`] each core cycle for completions.
//!
//! # Determinism
//!
//! The interconnect is a fixed-latency hop; each partition keeps its own
//! event heap ordered by `(time, seq)` where `seq` is assigned in submit
//! order. The two-phase cycle engine drains per-SM request queues serially
//! in SM-id order, so the ingress order of every partition — and therefore
//! every counter — is bit-exact at any `VKSIM_THREADS` value. With
//! `num_partitions = 1` the backend is structurally identical to the
//! historical monolithic L2, which keeps pre-partitioning goldens
//! byte-identical.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheOutcome};
use crate::dram::{Dram, DramConfig, DramCounter, DramIssue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vksim_stats::{Counters, FxHashMap};

vksim_stats::counter_slots! {
    /// Interconnect and backend traffic counters of the shared memory
    /// system.
    pub enum SysCounter => SysCounters {
        /// L2-to-DRAM offers refused by a full bank queue and re-offered.
        DramBankFullRetries = "dram.bank_full_retries",
        /// L2 read misses sent to DRAM.
        DramReads = "dram.reads",
        /// Write-through stores sent to DRAM.
        DramWrites = "dram.writes",
        /// Completions returned to the SMs.
        IcntFromL2 = "icnt.from_l2",
        /// Offers refused by a full partition ingress.
        IcntRefused = "icnt.refused",
        /// Requests accepted towards a partition.
        IcntToL2 = "icnt.to_l2",
        /// L2 lookups refused (MSHR) and retried after a backoff.
        L2Retry = "l2.retry",
        /// Completions swallowed by fault injection.
        MemInjectedDrops = "mem.injected_drops",
    }
}

/// Emptied L2 waiter lists a partition keeps for reuse: enough for the
/// per-cycle churn, without holding a high-water mark of lists.
const SPARE_WAITING_LISTS: usize = 8;

/// Partition interleave granularity: consecutive 128 B lines map to
/// consecutive partitions.
pub const PARTITION_BYTES: u64 = 128;

/// The memory partition an address belongs to. Total over all addresses
/// and balanced: every 128 B line maps to exactly one partition, and
/// consecutive lines rotate through all partitions.
pub fn partition_of(addr: u64, num_partitions: u32) -> u32 {
    debug_assert!(num_partitions >= 1, "degenerate partition count");
    ((addr / PARTITION_BYTES) % num_partitions as u64) as u32
}

/// Configuration of the shared memory backend.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// The unified L2 cache (total capacity; sliced across partitions).
    pub l2: CacheConfig,
    /// DRAM behind the L2 (total channels; grouped across partitions).
    pub dram: DramConfig,
    /// One-way interconnect latency in cycles (SM <-> partition, one hop).
    pub icnt_latency: u32,
    /// Number of independent memory partitions (each an L2 slice plus a
    /// DRAM channel group). `1` reproduces the monolithic backend.
    pub num_partitions: u32,
    /// Per-partition ingress-queue depth (requests in flight towards or
    /// queued at one partition). `0` models an unbounded interconnect —
    /// the historical fixed-latency hop; goldens are recorded against it.
    /// A finite depth makes [`SharedMemSystem::try_submit`] refuse
    /// requests to a full partition, and arms the DRAM-side bank-queue
    /// backpressure.
    pub icnt_queue_depth: u32,
    /// Return-path (partition -> SM) credits per partition: the number of
    /// completions that may be on the return wire simultaneously. `0`
    /// models an unbounded return path (the historical behaviour).
    pub icnt_return_credits: u32,
}

/// The name the memory-partition config goes by in the paper-scale
/// experiment plumbing.
pub type MemConfig = SystemConfig;

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            l2: CacheConfig::l2_baseline(),
            dram: DramConfig::default(),
            icnt_latency: 8,
            num_partitions: 1,
            icnt_queue_depth: 0,
            icnt_return_credits: 0,
        }
    }
}

/// One 32 B memory request from an SM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned on completion.
    pub id: u64,
    /// Chunk-aligned address.
    pub addr: u64,
    /// Source tag for cache statistics.
    pub kind: AccessKind,
    /// `true` for (write-through) stores.
    pub is_store: bool,
}

impl MemRequest {
    /// Serializes the request for a machine-state snapshot.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u64(self.id);
        e.u64(self.addr);
        e.u8(self.kind.code());
        e.bool(self.is_store);
    }

    /// Restores a request written by [`MemRequest::save`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors; an unknown access-kind code is
    /// malformed.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(MemRequest {
            id: d.u64()?,
            addr: d.u64()?,
            kind: AccessKind::from_code(d.u8()?)?,
            is_store: d.bool()?,
        })
    }
}

/// Anything that accepts timed [`MemRequest`]s.
///
/// The SM pipeline is written against this trait so the same tick code runs
/// in two regimes:
///
/// * serial reference path — the sink *is* the [`SharedMemSystem`] and the
///   request enters the event heap immediately;
/// * two-phase cycle engine — the sink is a per-SM [`RequestQueue`]; the
///   coordinator later drains the queues serially in SM-id order, which
///   reproduces the exact submit order (and `seq` numbering) of the serial
///   path regardless of worker-thread count.
pub trait MemSink {
    /// Accepts a request issued at cycle `now`.
    fn submit(&mut self, req: MemRequest, now: u64);

    /// Offers a request issued at cycle `now`; a bounded sink may refuse
    /// it (returning `false`) when the target buffer is full, in which
    /// case the caller keeps ownership and must re-offer later. The
    /// default accepts unconditionally.
    fn try_submit(&mut self, req: MemRequest, now: u64) -> bool {
        self.submit(req, now);
        true
    }

    /// `true` while previously accepted requests are still waiting to
    /// enter the backend — the backpressure signal a producer polls
    /// before issuing new memory instructions.
    fn backlogged(&self) -> bool {
        false
    }
}

/// An ordered buffer of outbound memory requests from one SM for one cycle.
///
/// Order of insertion is preserved; [`RequestQueue::drain_into`] forwards
/// the requests to the shared backend in that order.
#[derive(Clone, Debug, Default)]
pub struct RequestQueue {
    items: Vec<(MemRequest, u64)>,
}

impl RequestQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Serializes the queue contents — requests still awaiting interconnect
    /// acceptance at a cycle boundary (bounded-icnt backpressure carries
    /// them across cycles) — in insertion order.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.items.len());
        for (req, now) in &self.items {
            req.save(e);
            e.u64(*now);
        }
    }

    /// Restores a queue written by [`RequestQueue::save`].
    ///
    /// # Errors
    ///
    /// Propagates decoder errors on truncated or malformed payloads.
    pub fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let n = d.seq()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let req = MemRequest::load(d)?;
            items.push((req, d.u64()?));
        }
        Ok(RequestQueue { items })
    }

    /// Forwards queued requests to `sink` in insertion order, stopping at
    /// the first refusal (head-of-line blocking preserves the global
    /// submission order); refused requests stay queued for the next
    /// drain. An unbounded sink always drains the queue completely.
    pub fn drain_into(&mut self, sink: &mut dyn MemSink) {
        let mut accepted = 0;
        for &(req, now) in &self.items {
            if !sink.try_submit(req, now) {
                break;
            }
            accepted += 1;
        }
        self.items.drain(..accepted);
    }
}

impl MemSink for RequestQueue {
    fn submit(&mut self, req: MemRequest, now: u64) {
        self.items.push((req, now));
    }

    /// Leftovers from the previous drain mean the interconnect refused
    /// at least one request: the owning SM must stall its issue stage.
    fn backlogged(&self) -> bool {
        !self.items.is_empty()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvKind {
    ArriveL2(MemRequest),
    DramDone {
        line: u64,
    },
    /// A DRAM bank queue was full (bounded mode only): re-offer the
    /// access after a short backoff, exactly like an L2 reservation fail.
    RetryDram {
        addr: u64,
        line: u64,
        is_store: bool,
    },
}

impl EvKind {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        match *self {
            EvKind::ArriveL2(req) => {
                e.u8(0);
                req.save(e);
            }
            EvKind::DramDone { line } => {
                e.u8(1);
                e.u64(line);
            }
            EvKind::RetryDram {
                addr,
                line,
                is_store,
            } => {
                e.u8(2);
                e.u64(addr);
                e.u64(line);
                e.bool(is_store);
            }
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(match d.u8()? {
            0 => EvKind::ArriveL2(MemRequest::load(d)?),
            1 => EvKind::DramDone { line: d.u64()? },
            2 => EvKind::RetryDram {
                addr: d.u64()?,
                line: d.u64()?,
                is_store: d.bool()?,
            },
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "partition event tag {t}"
                )))
            }
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ev {
    time: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One memory partition: an L2 slice, a DRAM channel group and the
/// partition-local event machinery (its deterministic ingress queue).
#[derive(Debug)]
struct Partition {
    l2: Cache,
    dram: Dram,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    waiting: FxHashMap<u64, Vec<u64>>,
    /// Up to [`SPARE_WAITING_LISTS`] emptied `waiting` lists kept for
    /// reuse (no state; not saved).
    spare_waiting: Vec<Vec<u64>>,
    /// FR-FCFS tickets for in-flight reads: ticket -> L2 line to fill.
    tickets: FxHashMap<u64, u64>,
    /// Requests accepted into this partition's ingress (on the wire or
    /// queued at the L2 slice) and not yet handed to the L2. Bounded by
    /// `icnt_queue_depth` when that knob is finite.
    ingress_occupancy: u32,
    /// Time of the last event this partition processed. Requests that sat
    /// refused in an SM queue carry a stale issue timestamp; acceptance
    /// clamps their arrival here so partition event (and therefore DRAM
    /// arrival) order stays nondecreasing. Never ahead of any live
    /// submission on the unbounded path, where producers submit at the
    /// current cycle.
    last_event_time: u64,
    /// Return-path credits: `egress_free[i]` is the cycle credit `i`
    /// frees up. Empty = unbounded return path (credits disabled).
    egress_free: Vec<u64>,
}

impl Partition {
    /// Queues request `id` on the fill of `line`.
    fn wait_on(&mut self, line: u64, id: u64) {
        let spare = &mut self.spare_waiting;
        self.waiting
            .entry(line)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(id);
    }

    fn push(&mut self, time: u64, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Serializes the partition's dynamic state. The event heap is written
    /// in `(time, seq)` order and the waiter/ticket maps sorted by key, so
    /// re-encoding a restored partition is byte-identical.
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        self.l2.save(e);
        self.dram.save(e);
        let mut evs: Vec<Ev> = self.events.iter().map(|r| r.0).collect();
        evs.sort_unstable_by_key(|ev| (ev.time, ev.seq));
        e.seq(evs.len());
        for ev in &evs {
            e.u64(ev.time);
            e.u64(ev.seq);
            ev.kind.save(e);
        }
        e.u64(self.seq);
        let mut waiting: Vec<(&u64, &Vec<u64>)> = self.waiting.iter().collect();
        waiting.sort_unstable_by_key(|(line, _)| **line);
        e.seq(waiting.len());
        for (line, ids) in waiting {
            e.u64(*line);
            e.seq(ids.len());
            for id in ids {
                e.u64(*id);
            }
        }
        let mut tickets: Vec<(u64, u64)> = self.tickets.iter().map(|(k, v)| (*k, *v)).collect();
        tickets.sort_unstable();
        e.seq(tickets.len());
        for (ticket, line) in tickets {
            e.u64(ticket);
            e.u64(line);
        }
        e.u32(self.ingress_occupancy);
        e.u64(self.last_event_time);
        e.seq(self.egress_free.len());
        for &t in &self.egress_free {
            e.u64(t);
        }
    }

    /// Restores dynamic state written by [`Partition::save`] into a
    /// partition freshly built from the resuming configuration. The L2
    /// slice and DRAM group configs come from `self`; the snapshot only
    /// carries the mutable state.
    fn load_into(
        &mut self,
        d: &mut vksim_snapshot::Dec<'_>,
    ) -> Result<(), vksim_snapshot::SnapError> {
        self.l2 = Cache::load(self.l2.config().clone(), d)?;
        self.dram = Dram::load(self.dram.config().clone(), d)?;
        let n = d.seq()?;
        self.events = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let time = d.u64()?;
            let seq = d.u64()?;
            self.events.push(Reverse(Ev {
                time,
                seq,
                kind: EvKind::load(d)?,
            }));
        }
        self.seq = d.u64()?;
        let nw = d.seq()?;
        self.waiting = FxHashMap::with_capacity_and_hasher(nw, Default::default());
        for _ in 0..nw {
            let line = d.u64()?;
            let ni = d.seq()?;
            let mut ids = Vec::with_capacity(ni);
            for _ in 0..ni {
                ids.push(d.u64()?);
            }
            self.waiting.insert(line, ids);
        }
        let nt = d.seq()?;
        self.tickets = FxHashMap::with_capacity_and_hasher(nt, Default::default());
        for _ in 0..nt {
            let ticket = d.u64()?;
            self.tickets.insert(ticket, d.u64()?);
        }
        self.ingress_occupancy = d.u32()?;
        self.last_event_time = d.u64()?;
        let ne = d.seq()?;
        if ne != self.egress_free.len() {
            return Err(vksim_snapshot::SnapError::Malformed(format!(
                "snapshot has {ne} return credits, {} configured",
                self.egress_free.len()
            )));
        }
        for slot in self.egress_free.iter_mut() {
            *slot = d.u64()?;
        }
        Ok(())
    }
}

/// Routes one finished completion to `done`, unless it is the injected
/// drop victim. Delivery order is global across partitions (partition
/// index, then event order), so the drop victim is deterministic.
///
/// `ready` is the cycle the data is ready at the partition's egress port;
/// the completion reaches the SM one interconnect hop later. With return
/// credits enabled (`egress` nonempty) the completion must additionally
/// claim the earliest-free credit, which can delay its departure — the
/// credit frees when the flit lands at the SM. An empty `egress` is the
/// unbounded historical return path.
#[allow(clippy::too_many_arguments)]
fn deliver(
    stats: &mut SysCounters,
    drop_nth: Option<u64>,
    delivered: &mut u64,
    egress: &mut [u64],
    icnt: u64,
    id: u64,
    ready: u64,
    done: &mut Vec<(u64, u64)>,
) {
    *delivered += 1;
    if drop_nth == Some(*delivered) {
        stats.inc(SysCounter::MemInjectedDrops);
        return;
    }
    stats.inc(SysCounter::IcntFromL2);
    let at = if egress.is_empty() {
        ready + icnt
    } else {
        let (idx, free_at) = egress
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, t)| (t, i))
            .expect("nonempty credit array");
        let arrive = ready.max(free_at) + icnt;
        egress[idx] = arrive;
        arrive
    };
    done.push((id, at));
}

/// The partitioned L2/DRAM system.
///
/// # Example
///
/// ```
/// use vksim_mem::{SharedMemSystem, SystemConfig, MemRequest, AccessKind};
/// let mut sys = SharedMemSystem::new(SystemConfig::default());
/// sys.submit(MemRequest { id: 1, addr: 0x1000, kind: AccessKind::ShaderLoad, is_store: false }, 0);
/// let mut done = Vec::new();
/// let mut t = 0;
/// while done.is_empty() {
///     t += 1;
///     sys.advance_into(t, &mut done);
/// }
/// assert_eq!(done[0].0, 1);
/// ```
#[derive(Debug)]
pub struct SharedMemSystem {
    parts: Vec<Partition>,
    icnt_latency: u32,
    /// Ingress bound per partition (`0` = unbounded).
    icnt_queue_depth: u32,
    /// Fault injection: silently drop the Nth (1-based) completion.
    drop_nth_completion: Option<u64>,
    /// Completions delivered so far (drives `drop_nth_completion`).
    completions_delivered: u64,
    /// Interconnect / backend traffic counters.
    pub stats: SysCounters,
    /// Scratch for [`Dram::run_schedule_into`] (no state; not saved).
    scheduled: Vec<(u64, u64)>,
}

impl SharedMemSystem {
    /// Creates an idle backend with `config.num_partitions` partitions.
    ///
    /// Each partition's L2 slice gets `1/num_partitions` of the configured
    /// capacity and MSHRs ([`CacheConfig::sliced`]); each DRAM channel
    /// group gets `1/num_partitions` of the channels (at least one).
    ///
    /// # Panics
    ///
    /// Panics on a zero-partition configuration.
    pub fn new(config: SystemConfig) -> Self {
        let n = config.num_partitions;
        assert!(n >= 1, "degenerate partition count");
        let dram_cfg = DramConfig {
            channels: (config.dram.channels / n).max(1),
            ..config.dram
        };
        let parts = (0..n)
            .map(|_| Partition {
                l2: Cache::new(config.l2.sliced(n)),
                dram: Dram::new(dram_cfg.clone()),
                events: BinaryHeap::new(),
                seq: 0,
                waiting: FxHashMap::default(),
                spare_waiting: Vec::new(),
                tickets: FxHashMap::default(),
                ingress_occupancy: 0,
                last_event_time: 0,
                egress_free: vec![0; config.icnt_return_credits as usize],
            })
            .collect();
        SharedMemSystem {
            parts,
            icnt_latency: config.icnt_latency,
            icnt_queue_depth: config.icnt_queue_depth,
            drop_nth_completion: None,
            completions_delivered: 0,
            stats: SysCounters::new(),
            scheduled: Vec::new(),
        }
    }

    /// Number of memory partitions.
    pub fn num_partitions(&self) -> u32 {
        self.parts.len() as u32
    }

    /// Fault injection: silently swallow the `n`th (1-based) completion
    /// this backend would deliver, modelling a lost MSHR wakeup. The drop
    /// is recorded under `mem.injected_drops` (a counter that stays absent
    /// on healthy runs, keeping golden key sets unchanged).
    pub fn inject_drop_nth_completion(&mut self, n: u64) {
        self.drop_nth_completion = Some(n);
    }

    /// Submits a request at `now`; its completion arrives through
    /// [`SharedMemSystem::advance_to`]. The request is routed to its
    /// address's partition over the interconnect hop, bypassing any
    /// ingress bound (use [`SharedMemSystem::try_submit`] for the
    /// refusable, credit-checked path).
    pub fn submit(&mut self, req: MemRequest, now: u64) {
        let pi = partition_of(req.addr, self.parts.len() as u32) as usize;
        self.accept(pi, req, now);
    }

    /// Offers a request at `now`. With a finite `icnt_queue_depth` a full
    /// target partition refuses the request (counted under
    /// `icnt.refused`) and the caller must re-offer later; with the
    /// unbounded default this is exactly [`SharedMemSystem::submit`].
    pub fn try_submit(&mut self, req: MemRequest, now: u64) -> bool {
        let pi = partition_of(req.addr, self.parts.len() as u32) as usize;
        if self.icnt_queue_depth > 0 && self.parts[pi].ingress_occupancy >= self.icnt_queue_depth {
            self.stats.inc(SysCounter::IcntRefused);
            return false;
        }
        self.accept(pi, req, now);
        true
    }

    /// Accepts a request into partition `pi`'s ingress. `icnt.to_l2`
    /// counts acceptances only — refused offers are not traffic.
    fn accept(&mut self, pi: usize, req: MemRequest, now: u64) {
        self.stats.inc(SysCounter::IcntToL2);
        let p = &mut self.parts[pi];
        let at = (now + self.icnt_latency as u64).max(p.last_event_time);
        p.ingress_occupancy += 1;
        p.push(at, EvKind::ArriveL2(req));
    }

    /// Requests currently occupying `partition`'s ingress (on the wire or
    /// queued at the L2 slice). Never exceeds a finite
    /// `icnt_queue_depth`; exposed for the backpressure property tests.
    pub fn ingress_occupancy(&self, partition: u32) -> u32 {
        self.parts[partition as usize].ingress_occupancy
    }

    /// Processes all backend events up to and including `cycle`; returns
    /// `(request id, completion cycle)` pairs. Partitions are processed in
    /// index order, each one in `(time, seq)` event order — a fixed,
    /// thread-count-independent order.
    pub fn advance_to(&mut self, cycle: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        self.advance_into(cycle, &mut done);
        done
    }

    /// [`SharedMemSystem::advance_to`] that appends the completions to
    /// `done`, a buffer the caller owns and reuses across cycles.
    pub fn advance_into(&mut self, cycle: u64, done: &mut Vec<(u64, u64)>) {
        let icnt = self.icnt_latency as u64;
        let bounded = self.icnt_queue_depth > 0;
        for pi in 0..self.parts.len() {
            let SharedMemSystem {
                parts,
                stats,
                drop_nth_completion,
                completions_delivered,
                scheduled,
                ..
            } = self;
            let p = &mut parts[pi];
            loop {
                // Finalize FR-FCFS scheduling decisions up to the next
                // event (or `cycle`); redeemed read tickets become
                // DramDone events at their completion cycle.
                let horizon = match p.events.peek() {
                    Some(&Reverse(ev)) if ev.time <= cycle => ev.time,
                    _ => cycle,
                };
                p.dram.run_schedule_into(horizon, scheduled);
                if !scheduled.is_empty() {
                    for (ticket, ready) in scheduled.drain(..) {
                        if let Some(line) = p.tickets.remove(&ticket) {
                            p.push(ready, EvKind::DramDone { line });
                        }
                    }
                    continue;
                }
                let Some(&Reverse(ev)) = p.events.peek() else {
                    break;
                };
                if ev.time > cycle {
                    break;
                }
                p.events.pop();
                p.last_event_time = ev.time;
                match ev.kind {
                    EvKind::ArriveL2(req) => handle_l2(
                        p,
                        stats,
                        *drop_nth_completion,
                        completions_delivered,
                        icnt,
                        bounded,
                        req,
                        ev.time,
                        done,
                    ),
                    EvKind::DramDone { line } => {
                        let t = ev.time;
                        p.l2.fill(line, t);
                        if let Some(mut ids) = p.waiting.remove(&line) {
                            for &id in &ids {
                                deliver(
                                    stats,
                                    *drop_nth_completion,
                                    completions_delivered,
                                    &mut p.egress_free,
                                    icnt,
                                    id,
                                    t,
                                    done,
                                );
                            }
                            if p.spare_waiting.len() < SPARE_WAITING_LISTS {
                                ids.clear();
                                p.spare_waiting.push(ids);
                            }
                        }
                    }
                    EvKind::RetryDram {
                        addr,
                        line,
                        is_store,
                    } => {
                        // Re-offer at the same arrival offset the regular
                        // L2-miss path uses, so DRAM arrival cycles stay
                        // nondecreasing across event order.
                        let t = ev.time;
                        let at = t + p.l2.hit_latency() as u64;
                        submit_dram(p, stats, bounded, addr, line, is_store, at, t + 4);
                    }
                }
            }
        }
    }

    /// The first partition's L2 slice (single-partition convenience for
    /// tests; reporting code uses [`SharedMemSystem::l2_stats`]).
    pub fn l2(&self) -> &Cache {
        &self.parts[0].l2
    }

    /// The first partition's DRAM channel group (single-partition
    /// convenience; reporting code uses the merged accessors).
    pub fn dram(&self) -> &Dram {
        &self.parts[0].dram
    }

    /// Merged L2 counters: the sum over partitions under the original key
    /// names, plus per-partition copies under `p{i}.*` when more than one
    /// partition exists (so single-partition golden key sets are
    /// unchanged).
    pub fn l2_stats(&self) -> Counters {
        merge_partition_stats(self.parts.iter().map(|p| p.l2.stats.to_counters()))
    }

    /// Merged DRAM counters, same key scheme as
    /// [`SharedMemSystem::l2_stats`].
    pub fn dram_stats(&self) -> Counters {
        merge_partition_stats(self.parts.iter().map(|p| p.dram.stats.to_counters()))
    }

    /// DRAM efficiency aggregated across partitions, weighted by cycles:
    /// total transfer cycles over total active cycles (*not* the mean of
    /// per-partition ratios, which would overweight idle partitions).
    pub fn dram_efficiency(&self) -> f64 {
        let transfer: u64 = self.parts.iter().map(|p| p.dram.transfer_cycles()).sum();
        let active: u64 = self.parts.iter().map(|p| p.dram.active_cycles()).sum();
        if active == 0 {
            0.0
        } else {
            transfer as f64 / active as f64
        }
    }

    /// DRAM utilization aggregated across partitions: total transfer
    /// cycles over `total_cycles` × total channels.
    pub fn dram_utilization(&self, total_cycles: u64) -> f64 {
        let transfer: u64 = self.parts.iter().map(|p| p.dram.transfer_cycles()).sum();
        let channels: u64 = self
            .parts
            .iter()
            .map(|p| p.dram.config().channels as u64)
            .sum();
        if total_cycles == 0 || channels == 0 {
            0.0
        } else {
            transfer as f64 / (total_cycles * channels) as f64
        }
    }

    /// Row-buffer hit rate aggregated across partitions, weighted by
    /// requests: total row hits over total requests.
    pub fn dram_row_hit_rate(&self) -> f64 {
        let hits: u64 = self
            .parts
            .iter()
            .map(|p| p.dram.stats.get(DramCounter::RowHit))
            .sum();
        let reqs: u64 = self
            .parts
            .iter()
            .map(|p| p.dram.stats.get(DramCounter::Req))
            .sum();
        if reqs == 0 {
            0.0
        } else {
            hits as f64 / reqs as f64
        }
    }

    /// Enables (or disables) DRAM row-activate event recording on every
    /// partition.
    pub fn set_trace(&mut self, enabled: bool) {
        for p in &mut self.parts {
            p.dram.set_trace(enabled);
        }
    }

    /// Drains recorded `(cycle, partition, channel, bank)` DRAM row
    /// activates. The channel index is global (partition-base plus the
    /// channel within the partition's group); events come out in partition
    /// order, chronological within a partition — a deterministic order.
    pub fn take_row_activates(&mut self) -> Vec<(u64, u32, u32, u32)> {
        let mut out = Vec::new();
        let mut base = 0u32;
        for (pi, p) in self.parts.iter_mut().enumerate() {
            let nch = p.dram.config().channels;
            out.extend(
                p.dram
                    .take_row_activates()
                    .into_iter()
                    .map(|(cycle, ch, bank)| (cycle, pi as u32, base + ch, bank)),
            );
            base += nch;
        }
        out
    }

    /// Cumulative traffic totals for interval sampling, summed over
    /// partitions:
    /// `(l2_hits, l2_misses, dram_requests, dram_transfer_cycles)`.
    pub fn traffic_totals(&self) -> (u64, u64, u64, u64) {
        self.parts.iter().fold((0, 0, 0, 0), |acc, p| {
            (
                acc.0 + p.l2.total_hits(),
                acc.1 + p.l2.total_misses(),
                acc.2 + p.dram.stats.get(DramCounter::Req),
                acc.3 + p.dram.transfer_cycles(),
            )
        })
    }

    /// Serializes the whole backend — every partition's L2 slice, DRAM
    /// group, event heap, waiter/ticket maps, ingress occupancy and return
    /// credits, plus the delivery counter that drives fault injection and
    /// the interconnect statistics — for a machine-state snapshot.
    /// Configuration is not written; it is rebuilt from the resuming
    /// [`SystemConfig`] (guaranteed equal by the snapshot fingerprint).
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.parts.len());
        for p in &self.parts {
            p.save(e);
        }
        e.opt_u64(self.drop_nth_completion);
        e.u64(self.completions_delivered);
        self.stats.save(e);
    }

    /// Restores a backend written by [`SharedMemSystem::save`] into a
    /// fresh instance built from `config`.
    ///
    /// # Errors
    ///
    /// A partition count (or per-partition geometry) that disagrees with
    /// `config` is a mismatched snapshot.
    pub fn load(
        config: SystemConfig,
        d: &mut vksim_snapshot::Dec<'_>,
    ) -> Result<Self, vksim_snapshot::SnapError> {
        let mut sys = SharedMemSystem::new(config);
        let n = d.seq()?;
        if n != sys.parts.len() {
            return Err(vksim_snapshot::SnapError::Malformed(format!(
                "snapshot has {n} memory partitions, {} configured",
                sys.parts.len()
            )));
        }
        for p in sys.parts.iter_mut() {
            p.load_into(d)?;
        }
        sys.drop_nth_completion = d.opt_u64()?;
        sys.completions_delivered = d.u64()?;
        sys.stats = SysCounters::load(d)?;
        Ok(sys)
    }

    /// `true` when no events or queued DRAM requests are pending in any
    /// partition (drain check).
    pub fn is_idle(&self) -> bool {
        self.parts
            .iter()
            .all(|p| p.events.is_empty() && !p.dram.has_queued())
    }
}

/// Sums counter bags over partitions, adding `p{i}.*` copies when more
/// than one partition exists.
fn merge_partition_stats(bags: impl ExactSizeIterator<Item = Counters>) -> Counters {
    let multi = bags.len() > 1;
    let mut out = Counters::new();
    for (i, bag) in bags.enumerate() {
        out.merge(&bag);
        if multi {
            for (k, v) in bag.iter() {
                out.add(&format!("p{i}.{k}"), v);
            }
        }
    }
    out
}

/// One L2-slice access: hit, miss to the partition's DRAM group, MSHR
/// merge, or retry. Every outcome except a reservation fail frees the
/// request's ingress slot (a failed reservation keeps the request queued
/// at the partition, so the slot stays held across the backoff).
#[allow(clippy::too_many_arguments)]
fn handle_l2(
    p: &mut Partition,
    stats: &mut SysCounters,
    drop_nth: Option<u64>,
    delivered: &mut u64,
    icnt: u64,
    bounded: bool,
    req: MemRequest,
    t: u64,
    done: &mut Vec<(u64, u64)>,
) {
    let kind = if req.is_store {
        AccessKind::ShaderStore
    } else {
        req.kind
    };
    let line = p.l2.line_of(req.addr);
    match p.l2.access(req.addr, kind, t) {
        CacheOutcome::Hit => {
            p.ingress_occupancy -= 1;
            if req.is_store {
                // Write-through: generate DRAM traffic but ack now. Under
                // FR-FCFS the write occupies queue and bus without a
                // waiter: its ticket is never mapped, so the scheduled
                // completion is discarded.
                submit_dram(
                    p,
                    stats,
                    bounded,
                    req.addr,
                    line,
                    true,
                    t + p.l2.hit_latency() as u64,
                    t + 4,
                );
            }
            deliver(
                stats,
                drop_nth,
                delivered,
                &mut p.egress_free,
                icnt,
                req.id,
                t + p.l2.hit_latency() as u64,
                done,
            );
        }
        CacheOutcome::MissToMemory => {
            p.ingress_occupancy -= 1;
            p.wait_on(line, req.id);
            stats.inc(SysCounter::DramReads);
            submit_dram(
                p,
                stats,
                bounded,
                req.addr,
                line,
                false,
                t + p.l2.hit_latency() as u64,
                t + 4,
            );
        }
        CacheOutcome::MissMerged => {
            p.ingress_occupancy -= 1;
            p.wait_on(line, req.id);
        }
        CacheOutcome::ReservationFail => {
            // Retry after a short backoff.
            stats.inc(SysCounter::L2Retry);
            p.push(t + 4, EvKind::ArriveL2(req));
        }
    }
}

/// Hands one access to the partition's DRAM group. Unbounded mode submits
/// unconditionally (the historical path); bounded mode offers via
/// [`Dram::try_submit`] and, when the target bank queue is full, counts a
/// `dram.bank_full_retries` and re-offers at `retry_at` through a
/// [`EvKind::RetryDram`] event — the bank back-pressures its L2 slice
/// instead of buffering unboundedly.
#[allow(clippy::too_many_arguments)]
fn submit_dram(
    p: &mut Partition,
    stats: &mut SysCounters,
    bounded: bool,
    addr: u64,
    line: u64,
    is_store: bool,
    at: u64,
    retry_at: u64,
) {
    let issue = if bounded {
        p.dram.try_submit(addr, at)
    } else {
        Some(p.dram.submit(addr, at))
    };
    match issue {
        None => {
            stats.inc(SysCounter::DramBankFullRetries);
            p.push(
                retry_at,
                EvKind::RetryDram {
                    addr,
                    line,
                    is_store,
                },
            );
        }
        Some(_) if is_store => stats.inc(SysCounter::DramWrites),
        Some(DramIssue::Done(ready)) => p.push(ready, EvKind::DramDone { line }),
        Some(DramIssue::Queued(ticket)) => {
            p.tickets.insert(ticket, line);
        }
    }
}

impl MemSink for SharedMemSystem {
    fn submit(&mut self, req: MemRequest, now: u64) {
        SharedMemSystem::submit(self, req, now);
    }

    fn try_submit(&mut self, req: MemRequest, now: u64) -> bool {
        SharedMemSystem::try_submit(self, req, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCounter;
    use crate::dram::DramSched;

    fn drain(sys: &mut SharedMemSystem, until: u64) -> Vec<(u64, u64)> {
        sys.advance_to(until)
    }

    fn load(id: u64, addr: u64) -> MemRequest {
        MemRequest {
            id,
            addr,
            kind: AccessKind::ShaderLoad,
            is_store: false,
        }
    }

    #[test]
    fn cold_read_goes_to_dram_then_hits() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(load(1, 0x4000), 0);
        let done = drain(&mut sys, 100_000);
        assert_eq!(done.len(), 1);
        let (_, t1) = done[0];
        // Cold: must include L2 latency + DRAM.
        assert!(t1 > 160, "cold access too fast: {t1}");
        // Second access to the same line: L2 hit, much faster.
        sys.submit(load(2, 0x4000), t1);
        let done2 = drain(&mut sys, t1 + 100_000);
        let (_, t2) = done2[0];
        assert!(t2 - t1 < t1, "hit {t2} vs cold {t1}");
        assert_eq!(sys.l2().stats.get(CacheCounter::ShaderLoadHit), 1);
    }

    #[test]
    fn merged_requests_complete_together() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        for id in 1..=3 {
            sys.submit(
                MemRequest {
                    id,
                    addr: 0x8000,
                    kind: AccessKind::RtUnit,
                    is_store: false,
                },
                0,
            );
        }
        let done = drain(&mut sys, 100_000);
        assert_eq!(done.len(), 3);
        let t0 = done[0].1;
        assert!(
            done.iter().all(|&(_, t)| t == t0),
            "merged fills complete together"
        );
        // Only one DRAM read happened.
        assert_eq!(sys.dram().stats.get(DramCounter::Req), 1);
    }

    #[test]
    fn stores_ack_fast_but_generate_dram_writes() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(
            MemRequest {
                id: 9,
                addr: 0xA000,
                kind: AccessKind::ShaderStore,
                is_store: true,
            },
            0,
        );
        let done = drain(&mut sys, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(sys.stats.get(SysCounter::DramWrites), 1);
        // Store ack does not wait for DRAM.
        assert!(done[0].1 <= 8 + 160 + 8 + 1);
    }

    #[test]
    fn perfect_dram_shortens_misses() {
        let mut fast = SharedMemSystem::new(SystemConfig {
            dram: DramConfig {
                perfect: true,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut slow = SharedMemSystem::new(SystemConfig::default());
        for sys in [&mut fast, &mut slow] {
            sys.submit(load(1, 0x9000), 0);
        }
        let tf = drain(&mut fast, 1_000_000)[0].1;
        let ts = drain(&mut slow, 1_000_000)[0].1;
        assert!(tf < ts);
    }

    #[test]
    fn events_processed_in_time_order() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        // Submit in reverse arrival order.
        sys.submit(load(2, 0x100), 50);
        sys.submit(load(1, 0x100), 0);
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 2);
        assert!(sys.is_idle());
    }

    #[test]
    fn queued_submission_matches_direct_submission() {
        // The two-phase engine's contract: queue-then-drain must be
        // indistinguishable from direct submission, including `seq` order.
        let reqs: Vec<MemRequest> = (0..4).map(|i| load(i, 0x1000 + i * 0x40)).collect();
        let mut direct = SharedMemSystem::new(SystemConfig::default());
        for r in &reqs {
            direct.submit(*r, 3);
        }
        let mut queued = SharedMemSystem::new(SystemConfig::default());
        let mut q = RequestQueue::new();
        for r in &reqs {
            MemSink::submit(&mut q, *r, 3);
        }
        assert_eq!(q.len(), 4);
        q.drain_into(&mut queued);
        assert!(q.is_empty());
        let a = direct.advance_to(1_000_000);
        let b = queued.advance_to(1_000_000);
        assert_eq!(a, b);
        assert_eq!(
            direct.stats.get(SysCounter::IcntToL2),
            queued.stats.get(SysCounter::IcntToL2)
        );
    }

    #[test]
    fn injected_drop_swallows_exactly_one_completion() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.inject_drop_nth_completion(2);
        for id in 1..=3u64 {
            sys.submit(load(id, 0x1000 * id), 0);
        }
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 2, "the 2nd completion was dropped");
        assert!(done.iter().all(|&(id, _)| id != done_victim(&done)));
        assert_eq!(sys.stats.get(SysCounter::MemInjectedDrops), 1);
        assert_eq!(sys.stats.get(SysCounter::IcntFromL2), 2);
        assert!(sys.is_idle(), "backend drains even with the drop");
    }

    /// The id absent from `done` among 1..=3.
    fn done_victim(done: &[(u64, u64)]) -> u64 {
        (1..=3u64)
            .find(|id| !done.iter().any(|&(d, _)| d == *id))
            .unwrap()
    }

    #[test]
    fn advance_to_respects_cycle_bound() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(load(1, 0x100), 0);
        // Nothing can be complete after 1 cycle.
        assert!(sys.advance_to(1).is_empty());
        assert!(!sys.is_idle());
    }

    #[test]
    fn partition_of_is_total_and_rotates_lines() {
        for n in 1..=8u32 {
            for line in 0..32u64 {
                let p = partition_of(line * PARTITION_BYTES, n);
                assert!(p < n);
                assert_eq!(p, (line % n as u64) as u32, "consecutive lines rotate");
                // Every byte of the line maps to the same partition.
                assert_eq!(p, partition_of(line * PARTITION_BYTES + 127, n));
            }
        }
    }

    #[test]
    fn partitions_split_traffic_and_report_per_partition_counters() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 4,
            ..Default::default()
        });
        assert_eq!(sys.num_partitions(), 4);
        // One request per partition (consecutive 128 B lines).
        for id in 0..4u64 {
            sys.submit(load(id, id * PARTITION_BYTES), 0);
        }
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 4);
        assert!(sys.is_idle());
        let dram = sys.dram_stats();
        assert_eq!(dram.get("req"), 4, "merged totals sum the partitions");
        for i in 0..4 {
            assert_eq!(dram.get(&format!("p{i}.req")), 1, "partition {i}");
        }
        let l2 = sys.l2_stats();
        assert_eq!(l2.get("shader_load.miss_compulsory"), 4);
        assert_eq!(l2.get("p2.shader_load.miss_compulsory"), 1);
        // Independent partitions: all four cold misses complete together.
        assert!(done.iter().all(|&(_, t)| t == done[0].1));
    }

    #[test]
    fn single_partition_omits_per_partition_keys() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        sys.submit(load(1, 0x40), 0);
        drain(&mut sys, 1_000_000);
        assert!(
            !sys.dram_stats().iter().any(|(k, _)| k.starts_with("p0.")),
            "golden key sets must not change at num_partitions = 1"
        );
    }

    #[test]
    fn aggregated_dram_rates_are_request_weighted() {
        // Asymmetric load: partition 0 sees 32 requests with high row
        // locality, partition 1 sees 2 requests with none. The aggregate
        // hit rate must be the ratio of sums, not the mean of rates.
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            ..Default::default()
        });
        let mut t = 0;
        for i in 0..32u64 {
            // Partition 0 (even 128 B lines), same row.
            sys.submit(load(i, i * 32 % 128 + (i / 4) * 256), t);
            t += 400;
            let _ = sys.advance_to(t);
        }
        // Partition 1 (odd 128 B lines), two far-apart rows.
        for (j, addr) in [(100u64, 128u64), (101, 128 + 65536)].into_iter() {
            sys.submit(load(j, addr), t);
            t += 4000;
            let _ = sys.advance_to(t);
        }
        assert!(sys.is_idle());
        let s = sys.dram_stats();
        let weighted = (s.get("p0.row_hit") + s.get("p1.row_hit")) as f64
            / (s.get("p0.req") + s.get("p1.req")) as f64;
        assert!((sys.dram_row_hit_rate() - weighted).abs() < 1e-12);
        let p0_rate = s.get("p0.row_hit") as f64 / s.get("p0.req") as f64;
        let p1_rate = s.get("p1.row_hit") as f64 / s.get("p1.req") as f64;
        let naive_mean = (p0_rate + p1_rate) / 2.0;
        assert!(
            (sys.dram_row_hit_rate() - naive_mean).abs() > 0.05,
            "asymmetric load must expose the weighting: weighted {weighted} vs mean {naive_mean}"
        );
    }

    #[test]
    fn fr_fcfs_backend_completes_and_drains() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            dram: DramConfig {
                sched: DramSched::fr_fcfs_paper(),
                ..Default::default()
            },
            ..Default::default()
        });
        for id in 0..16u64 {
            sys.submit(load(id, id * 4096 + (id % 2) * PARTITION_BYTES), id);
        }
        let mut done = Vec::new();
        let mut t = 0;
        while !sys.is_idle() && t < 1_000_000 {
            t += 1;
            done.extend(sys.advance_to(t));
        }
        assert_eq!(done.len(), 16, "every FR-FCFS read completes");
        assert!(sys.is_idle());
        assert_eq!(sys.dram_stats().get("req"), 16);
    }

    #[test]
    fn bounded_ingress_refuses_when_full_and_recovers() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            icnt_queue_depth: 2,
            ..Default::default()
        });
        assert!(sys.try_submit(load(1, 0x1000), 0));
        assert!(sys.try_submit(load(2, 0x2000), 0));
        assert_eq!(sys.ingress_occupancy(0), 2);
        assert!(
            !sys.try_submit(load(3, 0x3000), 0),
            "full partition refuses"
        );
        assert_eq!(sys.stats.get(SysCounter::IcntRefused), 1);
        assert_eq!(
            sys.stats.get(SysCounter::IcntToL2),
            2,
            "refusals are not traffic"
        );
        // Once the L2 consumes the requests the slots free up.
        let done = drain(&mut sys, 1_000_000);
        assert_eq!(done.len(), 2);
        assert_eq!(sys.ingress_occupancy(0), 0);
        assert!(sys.try_submit(load(3, 0x3000), 1_000_000));
    }

    #[test]
    fn depth_zero_try_submit_never_refuses() {
        let mut sys = SharedMemSystem::new(SystemConfig::default());
        for id in 0..64u64 {
            assert!(sys.try_submit(load(id, id * 0x40), 0));
        }
        assert_eq!(sys.stats.get(SysCounter::IcntRefused), 0);
        assert_eq!(sys.stats.get(SysCounter::IcntToL2), 64);
    }

    #[test]
    fn return_credits_serialize_simultaneous_completions() {
        // Three merged requests to one line complete together on the
        // unbounded return path; a single return credit spaces their
        // arrivals one interconnect hop apart.
        let run = |credits: u32| {
            let mut sys = SharedMemSystem::new(SystemConfig {
                icnt_return_credits: credits,
                ..Default::default()
            });
            for id in 1..=3 {
                sys.submit(load(id, 0x8000), 0);
            }
            drain(&mut sys, 1_000_000)
        };
        let free = run(0);
        assert!(free.iter().all(|&(_, t)| t == free[0].1));
        let tight = run(1);
        let times: Vec<u64> = tight.iter().map(|&(_, t)| t).collect();
        assert_eq!(times[0], free[0].1, "first completion pays no extra");
        assert_eq!(times[1], times[0] + 8, "second waits for the credit");
        assert_eq!(times[2], times[1] + 8);
    }

    #[test]
    fn bounded_bank_queues_backpressure_and_drain() {
        // A burst of misses to distinct rows of one bank overwhelms a
        // single-entry FR-FCFS bank queue: the bounded backend must retry
        // (counting `dram.bank_full_retries`) yet still complete
        // everything.
        let mut sys = SharedMemSystem::new(SystemConfig {
            icnt_queue_depth: 8,
            dram: DramConfig {
                channels: 1,
                banks_per_channel: 1,
                sched: DramSched::FrFcfs {
                    queue_depth: 1,
                    age_cap: 64,
                },
                ..Default::default()
            },
            ..Default::default()
        });
        let row_bytes = sys.dram().config().row_bytes;
        let mut q = RequestQueue::new();
        for id in 0..8u64 {
            MemSink::submit(&mut q, load(id, id * 16 * row_bytes), 0);
        }
        let mut done = Vec::new();
        let mut t = 0;
        while (!q.is_empty() || !sys.is_idle()) && t < 100_000 {
            q.drain_into(&mut sys);
            t += 1;
            done.extend(sys.advance_to(t));
        }
        assert_eq!(done.len(), 8, "every request completes despite refusals");
        assert!(sys.is_idle());
        assert!(
            sys.stats.get(SysCounter::DramBankFullRetries) > 0,
            "the single-entry bank queue must have pushed back"
        );
        assert_eq!(sys.dram_stats().get("req"), 8);
    }

    /// Encodes a backend's dynamic state into fresh bytes.
    fn encode(sys: &SharedMemSystem) -> Vec<u8> {
        let mut e = vksim_snapshot::Enc::new();
        sys.save(&mut e);
        e.into_bytes()
    }

    #[test]
    fn backend_snapshot_round_trips_mid_flight() {
        // Freeze a bounded, multi-partition FR-FCFS backend mid-flight —
        // events pending, waiters outstanding, tickets in the scheduler,
        // ingress slots held — and check save -> load -> save is
        // byte-identical and the restored system completes exactly like
        // the original.
        let config = SystemConfig {
            num_partitions: 2,
            icnt_queue_depth: 4,
            icnt_return_credits: 2,
            dram: DramConfig {
                sched: DramSched::fr_fcfs_paper(),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sys = SharedMemSystem::new(config.clone());
        for id in 0..6u64 {
            sys.try_submit(load(id, id * 4096 + (id % 2) * PARTITION_BYTES), id);
        }
        let mut done = sys.advance_to(40);
        assert!(!sys.is_idle(), "the freeze point must be mid-flight");

        let bytes = encode(&sys);
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut restored = SharedMemSystem::load(config, &mut d).expect("restore");
        d.finish().expect("payload fully consumed");
        assert_eq!(encode(&restored), bytes, "re-encode is byte-identical");

        let mut t = 40;
        let mut done_r = done.clone();
        while t < 1_000_000 && (!sys.is_idle() || !restored.is_idle()) {
            t += 1;
            done.extend(sys.advance_to(t));
            done_r.extend(restored.advance_to(t));
        }
        assert_eq!(done.len(), 6);
        assert_eq!(done, done_r, "restored backend completes identically");
        assert_eq!(
            encode(&sys),
            encode(&restored),
            "final states converge byte-identically"
        );
    }

    #[test]
    fn backend_snapshot_rejects_mismatched_geometry() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            ..Default::default()
        });
        sys.submit(load(1, 0x40), 0);
        let bytes = encode(&sys);
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let err = SharedMemSystem::load(SystemConfig::default(), &mut d).unwrap_err();
        assert!(matches!(err, vksim_snapshot::SnapError::Malformed(_)));
    }

    #[test]
    fn request_queue_snapshot_preserves_order() {
        let mut q = RequestQueue::new();
        for id in 0..3u64 {
            MemSink::submit(&mut q, load(id, 0x1000 + id * 0x40), 7 + id);
        }
        let mut e = vksim_snapshot::Enc::new();
        q.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let restored = RequestQueue::load(&mut d).expect("restore");
        d.finish().expect("consumed");
        let mut e2 = vksim_snapshot::Enc::new();
        restored.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
        assert_eq!(restored.len(), 3);
        assert!(restored.backlogged());
    }

    #[test]
    fn row_activates_carry_partition_and_global_channel() {
        let mut sys = SharedMemSystem::new(SystemConfig {
            num_partitions: 2,
            ..Default::default()
        });
        sys.set_trace(true);
        sys.submit(load(1, 0), 0);
        sys.submit(load(2, PARTITION_BYTES), 0);
        drain(&mut sys, 1_000_000);
        let acts = sys.take_row_activates();
        assert_eq!(acts.len(), 2);
        let parts: Vec<u32> = acts.iter().map(|a| a.1).collect();
        assert_eq!(parts, vec![0, 1]);
        let per_part_channels = sys.dram().config().channels;
        assert!(acts[0].2 < per_part_channels);
        assert!(acts[1].2 >= per_part_channels, "global channel index");
    }
}
