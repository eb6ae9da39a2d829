//! Whole-GPU simulation: SM array + shared memory backend + kernel launch.
//!
//! The cycle loop is a *two-phase* engine (see DESIGN.md): phase A ticks
//! every SM against SM-local state only, buffering outbound memory requests
//! in per-SM [`RequestQueue`]s and functional-memory writes in per-SM
//! [`WriteOverlay`]s; phase B drains both serially in SM-id order into the
//! shared backend and memory image. Because the drain order is fixed, the
//! request interleaving — and every counter — is identical whether phase A
//! ran on one thread or many.

use crate::config::GpuConfig;
use crate::sm::{GpuHooks, Sm};
use crate::{Mask, WARP_SIZE};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use vksim_fault::{panic_detail, HangClass, SimError};
use vksim_isa::{OverlayMem, Program, SimMemory, WriteOverlay};
use vksim_mem::{RequestQueue, SharedMemSystem, SysCounter};
use vksim_parallel::{chunk_range, DoneGuard, RoundBarrier, ShutdownGuard};
use vksim_rtunit::RtCounter;
use vksim_stats::{CounterSlot, Counters, Histogram};
use vksim_trace::{
    Event, EventKind, IntervalSnapshot, ProfReport, RtSmAnalytics, TraceCollector, TraceReport,
    NO_WARP, NUM_CATEGORIES, NUM_RT_SERIES,
};

/// Ray-tracing launch dimensions (`vkCmdTraceRaysKHR` width/height/depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchDims {
    /// Launch width (image width).
    pub width: u32,
    /// Launch height (image height).
    pub height: u32,
    /// Launch depth.
    pub depth: u32,
}

impl LaunchDims {
    /// Total threads (one per ray-generation invocation).
    pub fn total_threads(&self) -> usize {
        self.width as usize * self.height as usize * self.depth as usize
    }
}

struct WarpSeed {
    id: u32,
    base_tid: usize,
    active: Mask,
}

impl WarpSeed {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u32(self.id);
        e.usize(self.base_tid);
        e.u32(self.active);
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(WarpSeed {
            id: d.u32()?,
            base_tid: d.usize()?,
            active: d.u32()?,
        })
    }
}

/// How a bounded run slice ended: the kernel completed (with its stats) or
/// the engine paused at the requested cycle boundary, ready to continue or
/// be checkpointed.
#[derive(Debug)]
pub enum RunOutcome {
    /// The kernel ran to completion.
    Done(Box<GpuStats>),
    /// The stop cycle was reached with work still resident; machine state
    /// is at a clean cycle boundary (phase B drained).
    Paused,
}

/// Aggregated results of a kernel run.
#[derive(Clone, Debug)]
pub struct GpuStats {
    /// Total simulated core cycles.
    pub cycles: u64,
    /// Instructions issued (warp-instructions).
    pub issued_insts: u64,
    /// SIMT efficiency: mean active lanes per issued instruction / 32.
    pub simt_efficiency: f64,
    /// RT-unit SIMT efficiency (active rays per resident-warp lane-cycle).
    pub rt_simt_efficiency: f64,
    /// Merged per-SM counters (instruction mix, coalescing, RT unit ...).
    pub counters: Counters,
    /// Merged L1 statistics.
    pub l1_stats: Counters,
    /// Merged dedicated RT cache statistics (empty when not configured).
    pub rtc_stats: Counters,
    /// L2 statistics.
    pub l2_stats: Counters,
    /// DRAM statistics.
    pub dram_stats: Counters,
    /// DRAM efficiency (Fig. 16).
    pub dram_efficiency: f64,
    /// DRAM utilization (Fig. 16).
    pub dram_utilization: f64,
    /// RT-unit warp latency distribution (Fig. 13).
    pub rt_warp_latency: Histogram,
    /// Cycles with at least one RT-unit-resident warp, summed over SMs.
    pub rt_busy_cycles: u64,
    /// Resident-warp-cycles in RT units (occupancy integral, Fig. 18).
    pub rt_resident_warp_cycles: u64,
    /// Per-SM RT-unit occupancy traces (cycle, warps, rays) (Fig. 18).
    pub rt_occupancy: Vec<Vec<(u64, u32, u32)>>,
    /// Total box/triangle/transform operations (roofline numerator).
    pub rt_ops: u64,
    /// 32 B chunks fetched by RT units (roofline denominator).
    pub rt_chunks_fetched: u64,
}

/// A failed GPU run: the classified error, the statistics accumulated up
/// to the faulting cycle, and the post-mortem dump path (when the dump
/// could be written).
#[derive(Debug)]
pub struct GpuFault {
    /// What went wrong.
    pub error: SimError,
    /// Partial statistics, valid up to the faulting cycle.
    pub stats: GpuStats,
    /// Flat post-mortem snapshot written via [`vksim_fault::write_dump`].
    pub dump: Option<PathBuf>,
}

impl std::fmt::Display for GpuFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some(d) = &self.dump {
            write!(f, " (post-mortem dump: {})", d.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for GpuFault {}

/// Watchdog hang classification: schedulable-but-idle beats
/// blocked-on-busy-memory beats blocked-on-idle-memory.
fn classify_hang(any_issuable: bool, mem_idle: bool) -> HangClass {
    if any_issuable {
        HangClass::SimtLivelock
    } else if !mem_idle {
        HangClass::AllWarpsBlockedOnMemory
    } else {
        HangClass::ScoreboardWedge
    }
}

/// The execution-driven GPU simulator.
///
/// Owns the SM array, the shared L2/DRAM backend and the functional memory
/// image. Drive it with [`GpuSim::launch`] followed by [`GpuSim::run`].
pub struct GpuSim {
    config: GpuConfig,
    sms: Vec<Sm>,
    shared: SharedMemSystem,
    /// The functional memory image (descriptor sets, AS, framebuffers).
    pub mem: SimMemory,
    program: Option<Program>,
    pending: VecDeque<WarpSeed>,
    cycle: u64,
    dropped_completions: u64,
    faults: u64,
    /// Per-SM outbound request queues. Owned by the GPU (not the run
    /// loops) because the bounded interconnect can refuse requests in
    /// phase B, leaving them queued across cycle — and therefore pause —
    /// boundaries.
    queues: Vec<RequestQueue>,
    /// Watchdog baseline: the last cycle that made forward progress.
    /// Persisted so a checkpointed run resumes with the same hang window.
    last_progress: u64,
    /// Serial merge point for the tracing layer; `None` when tracing is
    /// off (the default), so the engines pay one null check per cycle.
    collector: Option<TraceCollector>,
}

/// Per-SM hook selection for the serial engine: one shared hook object
/// (`run`) or one shard per SM (`run_sharded`).
trait HookSet {
    fn get(&mut self, sm: usize) -> &mut dyn GpuHooks;
}

struct SingleHooks<'a>(&'a mut dyn GpuHooks);

impl HookSet for SingleHooks<'_> {
    fn get(&mut self, _sm: usize) -> &mut dyn GpuHooks {
        &mut *self.0
    }
}

struct ShardedHooks<'a, H>(&'a mut [H]);

impl<H: GpuHooks> HookSet for ShardedHooks<'_, H> {
    fn get(&mut self, sm: usize) -> &mut dyn GpuHooks {
        &mut self.0[sm]
    }
}

/// One SM's slice of engine state, lockable by a phase-A worker.
struct Lane<'h, H> {
    sm: Sm,
    hooks: &'h mut H,
    queue: RequestQueue,
    overlay: WriteOverlay,
    /// Backend completions routed to this SM, delivered at its next tick.
    inbox: Vec<(u64, u64)>,
    retired: bool,
    progress: bool,
    /// Tick fault (or contained panic), harvested by the coordinator in
    /// phase B.
    fault: Option<SimError>,
    empty: bool,
}

/// Converts a DRAM row-activate sample into a trace event.
fn row_activate_event((cycle, partition, channel, bank): (u64, u32, u32, u32)) -> Event {
    Event {
        cycle,
        warp: NO_WARP,
        kind: EventKind::DramRowActivate {
            partition,
            channel,
            bank,
        },
    }
}

/// Accumulates one SM's cumulative raw counters into an interval snapshot.
fn absorb_sm_snapshot(snap: &mut IntervalSnapshot, sm: &Sm) {
    snap.issued_insts += sm.issued_insts;
    snap.l1_hits += sm.l1().total_hits();
    snap.l1_misses += sm.l1().total_misses();
    if let Some(rtc) = sm.rtc() {
        snap.l1_hits += rtc.total_hits();
        snap.l1_misses += rtc.total_misses();
    }
    let rts = sm.rt_unit.stats();
    snap.rt_resident_warp_cycles += rts.resident_warp_cycles;
    snap.rt_busy_cycles += rts.busy_cycles;
}

/// Merges per-SM cumulative cycle-accounting category counts; `None`
/// when accounting is disabled on any SM (presence is uniform).
fn accounting_totals(sms: &[Sm]) -> Option<[u64; NUM_CATEGORIES]> {
    let mut totals = [0u64; NUM_CATEGORIES];
    for sm in sms {
        for (t, v) in totals.iter_mut().zip(sm.accounting()?.categories()) {
            *t += v;
        }
    }
    Some(totals)
}

/// Merges per-SM cumulative RT-analytics series (trace warps, lane steps,
/// warp steps, RT-unit script steps); `None` when RT analytics is disabled
/// on any SM (presence is uniform).
fn rt_totals(sms: &[Sm]) -> Option<[u64; NUM_RT_SERIES]> {
    let mut totals = [0u64; NUM_RT_SERIES];
    for sm in sms {
        let coh = sm.rt_analytics()?;
        totals[0] += coh.trace_warps();
        totals[1] += coh.lane_steps();
        totals[2] += coh.warp_steps();
        totals[3] += sm.rt_unit.analytics().map_or(0, |a| a.steps);
    }
    Some(totals)
}

/// Fills the shared-backend fields of an interval snapshot.
fn absorb_backend_snapshot(snap: &mut IntervalSnapshot, shared: &SharedMemSystem) {
    let (l2_hits, l2_misses, dram_reqs, dram_transfer) = shared.traffic_totals();
    snap.l2_hits = l2_hits;
    snap.l2_misses = l2_misses;
    snap.dram_reqs = dram_reqs;
    snap.dram_transfer_cycles = dram_transfer;
}

/// Replicates [`GpuSim::refill_sms`] over locked lanes: fill the
/// least-loaded SM below the occupancy limit first, lowest SM id winning
/// ties (same tiebreak as `Iterator::min_by_key`).
fn refill_lanes<H>(
    lanes: &[Mutex<Lane<'_, H>>],
    pending: &mut VecDeque<WarpSeed>,
    limit: usize,
    program: &Program,
) {
    while !pending.is_empty() {
        let mut best: Option<(usize, usize)> = None;
        for (i, lane) in lanes.iter().enumerate() {
            let n = lane.lock().expect("lane lock").sm.resident_warps();
            if n < limit && best.is_none_or(|(_, bn)| n < bn) {
                best = Some((i, n));
            }
        }
        let Some((idx, _)) = best else { break };
        let seed = pending.pop_front().expect("nonempty");
        let mut lane = lanes[idx].lock().expect("lane lock");
        lane.sm
            .add_warp(seed.id, seed.base_tid, seed.active, program);
        lane.empty = false;
    }
}

impl GpuSim {
    /// Builds an idle GPU.
    pub fn new(config: GpuConfig) -> Self {
        let trace = config.effective_trace();
        let sms = (0..config.num_sms)
            .map(|i| {
                let mut sm = Sm::new(i, &config);
                if trace.enabled {
                    sm.enable_trace(&trace);
                }
                if trace.accounting {
                    sm.enable_accounting();
                }
                if trace.rt_analytics {
                    sm.enable_rt_analytics();
                }
                sm
            })
            .collect();
        let mut shared = SharedMemSystem::new(config.mem.clone());
        if let Some(n) = config.fault_plan.drop_nth_completion {
            shared.inject_drop_nth_completion(n);
        }
        if trace.enabled {
            shared.set_trace(true);
        }
        let num_sms = config.num_sms;
        GpuSim {
            config,
            sms,
            shared,
            mem: SimMemory::new(),
            program: None,
            pending: VecDeque::new(),
            cycle: 0,
            dropped_completions: 0,
            faults: 0,
            queues: (0..num_sms).map(|_| RequestQueue::new()).collect(),
            last_progress: 0,
            collector: trace
                .enabled
                .then(|| TraceCollector::new(trace, num_sms as u32)),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Prepares a kernel launch: one thread per raygen invocation, warps of
    /// 32 consecutive x-coordinates (paper §III-B5: block size (32,1,1)).
    pub fn launch(&mut self, program: Program, dims: LaunchDims) {
        let total = dims.total_threads();
        let mut id = 0;
        let mut base = 0usize;
        self.pending.clear();
        while base < total {
            let lanes = (total - base).min(WARP_SIZE);
            let active: Mask = if lanes == WARP_SIZE {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            self.pending.push_back(WarpSeed {
                id,
                base_tid: base,
                active,
            });
            id += 1;
            base += WARP_SIZE;
        }
        self.program = Some(program);
    }

    fn refill_sms(&mut self) {
        let Some(program) = &self.program else { return };
        let limit = self.config.occupancy_limit(program.num_regs() as u32);
        // Fill the least-loaded SM first (round-robin-ish by load).
        loop {
            if self.pending.is_empty() {
                break;
            }
            let Some((idx, _)) = self
                .sms
                .iter()
                .enumerate()
                .map(|(i, sm)| (i, sm.resident_warps()))
                .filter(|&(_, n)| n < limit)
                .min_by_key(|&(_, n)| n)
            else {
                break;
            };
            let seed = self.pending.pop_front().expect("nonempty");
            self.sms[idx].add_warp(seed.id, seed.base_tid, seed.active, program);
        }
    }

    /// Runs the launched kernel to completion with one shared hook object
    /// (always single-threaded; see [`GpuSim::run_sharded`] for the
    /// parallel engine).
    ///
    /// # Errors
    ///
    /// Returns a [`GpuFault`] — classified [`SimError`], partial
    /// statistics and the post-mortem dump path — when a lane faults, the
    /// cycle cap is exceeded, a tick panics, or the forward-progress
    /// watchdog declares a hang.
    ///
    /// # Panics
    ///
    /// Panics if no kernel was launched.
    pub fn run(&mut self, hooks: &mut dyn GpuHooks) -> Result<GpuStats, Box<GpuFault>> {
        match self.run_serial(&mut SingleHooks(hooks), None)? {
            RunOutcome::Done(stats) => Ok(*stats),
            RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Runs until the kernel completes or the cycle counter reaches
    /// `stop_at`, whichever comes first. A [`RunOutcome::Paused`] return
    /// leaves the machine at a clean cycle boundary (phase B drained, no
    /// in-flight overlays), so [`GpuSim::save_state`] captures a state from
    /// which a resumed run is bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// As [`GpuSim::run`].
    ///
    /// # Panics
    ///
    /// Panics if no kernel was launched.
    pub fn run_until(
        &mut self,
        hooks: &mut dyn GpuHooks,
        stop_at: u64,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        self.run_serial(&mut SingleHooks(hooks), Some(stop_at))
    }

    /// Runs the launched kernel with one hook shard per SM, using
    /// [`GpuConfig::effective_threads`] phase-A workers. Produces
    /// bit-identical counters at any thread count; with one thread it is
    /// exactly the serial engine.
    ///
    /// # Errors
    ///
    /// As [`GpuSim::run`]: every failure mode — including a worker panic
    /// in the parallel engine — surfaces as a classified [`GpuFault`]
    /// rather than a poisoned barrier or a raw panic.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != num_sms` or no kernel was launched.
    pub fn run_sharded<H: GpuHooks + Send>(
        &mut self,
        shards: &mut [H],
    ) -> Result<GpuStats, Box<GpuFault>> {
        match self.run_sharded_inner(shards, None)? {
            RunOutcome::Done(stats) => Ok(*stats),
            RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Sharded-hooks variant of [`GpuSim::run_until`]: runs until the
    /// kernel completes or `stop_at` is reached, with the engine chosen by
    /// [`GpuConfig::effective_threads`]. Pause placement is identical in
    /// the serial and parallel engines (the end of a phase-B boundary), so
    /// checkpoints are thread-count invariant.
    ///
    /// # Errors
    ///
    /// As [`GpuSim::run_sharded`].
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != num_sms` or no kernel was launched.
    pub fn run_sharded_until<H: GpuHooks + Send>(
        &mut self,
        shards: &mut [H],
        stop_at: u64,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        self.run_sharded_inner(shards, Some(stop_at))
    }

    fn run_sharded_inner<H: GpuHooks + Send>(
        &mut self,
        shards: &mut [H],
        stop_at: Option<u64>,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        assert_eq!(
            shards.len(),
            self.sms.len(),
            "run_sharded needs one hook shard per SM"
        );
        let threads = self.config.effective_threads().min(self.sms.len().max(1));
        if threads <= 1 {
            self.run_serial(&mut ShardedHooks(shards), stop_at)
        } else {
            self.run_parallel(shards, threads, stop_at)
        }
    }

    /// Reference two-phase engine, single-threaded.
    fn run_serial(
        &mut self,
        hooks: &mut dyn HookSet,
        stop_at: Option<u64>,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        let program = self.program.clone().expect("launch() before run()");
        self.refill_sms();
        let num = self.sms.len();
        let watchdog = self.config.effective_watchdog();
        let plan = self.config.fault_plan;
        let mut queues = std::mem::take(&mut self.queues);
        debug_assert_eq!(queues.len(), num, "one request queue per SM");
        let mut overlays: Vec<WriteOverlay> = (0..num).map(|_| WriteOverlay::new()).collect();
        let mut last_progress = self.last_progress;
        let mut fault: Option<SimError> = None;
        let mut paused = false;
        let mut completions = Vec::new();
        'cycles: while self.sms.iter().any(|s| !s.is_empty()) || !self.pending.is_empty() {
            self.cycle += 1;
            if self.cycle >= self.config.max_cycles {
                fault = Some(SimError::MaxCycles {
                    limit: self.config.max_cycles,
                });
                break;
            }
            // Backend completions routed to their SM.
            completions.clear();
            self.shared.advance_into(self.cycle, &mut completions);
            let mut progress = !completions.is_empty();
            for &(id, at) in &completions {
                let sm = (id >> 48) as usize;
                debug_assert!(
                    sm < num,
                    "completion id {id:#x} routes to nonexistent SM {sm}"
                );
                match self.sms.get_mut(sm) {
                    Some(sm) => sm.on_mem_complete(id, at.max(self.cycle)),
                    None => self.dropped_completions += 1,
                }
            }
            // Phase A: tick SMs against SM-local state only. Each tick is
            // panic-contained so a deep failure becomes a classified
            // fault, not a torn-down process.
            let mut retired = false;
            for (i, sm) in self.sms.iter_mut().enumerate() {
                let mut view = OverlayMem::new(&self.mem, &mut overlays[i]);
                let queue = &mut queues[i];
                let hk = hooks.get(i);
                let cycle = self.cycle;
                let ticked = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(spec) = plan.worker_panic {
                        if spec.sm == i && cycle >= spec.cycle {
                            panic!("injected worker panic (fault plan)");
                        }
                    }
                    sm.tick(cycle, &program, &mut view, queue, hk)
                }));
                match ticked {
                    Ok(Ok(t)) => {
                        retired |= t.retired;
                        progress |= t.progress;
                    }
                    Ok(Err(e)) => {
                        fault = Some(*e);
                        break 'cycles;
                    }
                    Err(p) => {
                        fault = Some(SimError::WorkerPanicked {
                            sm: i,
                            detail: panic_detail(&*p),
                        });
                        break 'cycles;
                    }
                }
            }
            // Phase B: drain request queues and write overlays in SM-id
            // order.
            for i in 0..num {
                queues[i].drain_into(&mut self.shared);
                overlays[i].apply_to(&mut self.mem);
            }
            self.drain_trace(self.cycle);
            if retired {
                self.refill_sms();
            }
            if progress {
                last_progress = self.cycle;
            } else if watchdog > 0 && self.cycle - last_progress >= watchdog {
                let issuable = self.sms.iter().any(|s| s.has_issuable_ctx(self.cycle));
                fault = Some(SimError::Hang {
                    class: classify_hang(issuable, self.shared.is_idle()),
                    window: watchdog,
                    cycle: self.cycle,
                });
                break;
            }
            if stop_at.is_some_and(|s| self.cycle >= s) {
                paused = true;
                break;
            }
        }
        self.queues = queues;
        self.last_progress = last_progress;
        match fault {
            Some(e) => Err(self.fail(e)),
            None if paused => {
                self.debug_assert_conservation();
                Ok(RunOutcome::Paused)
            }
            None => {
                self.debug_assert_conservation();
                Ok(RunOutcome::Done(Box::new(self.collect_stats())))
            }
        }
    }

    /// Two-phase engine with `threads` phase-A workers on scoped threads.
    ///
    /// Workers own disjoint contiguous lane ranges; the functional memory
    /// image is read-shared during a round (writes land in per-lane
    /// overlays) and exclusively held by the coordinator between rounds.
    fn run_parallel<H: GpuHooks + Send>(
        &mut self,
        shards: &mut [H],
        threads: usize,
        stop_at: Option<u64>,
    ) -> Result<RunOutcome, Box<GpuFault>> {
        let program = self.program.clone().expect("launch() before run()");
        self.refill_sms();
        let limit = self.config.occupancy_limit(program.num_regs() as u32);
        let max_cycles = self.config.max_cycles;
        let watchdog = self.config.effective_watchdog();
        let plan = self.config.fault_plan;
        let mut cycle = self.cycle;
        let mut last_progress = self.last_progress;
        let mut fault: Option<SimError> = None;
        let mut paused = false;

        let mem = RwLock::new(std::mem::take(&mut self.mem));
        let queues = std::mem::take(&mut self.queues);
        debug_assert_eq!(queues.len(), self.sms.len(), "one request queue per SM");
        let lanes: Vec<Mutex<Lane<'_, H>>> = std::mem::take(&mut self.sms)
            .into_iter()
            .zip(shards.iter_mut())
            .zip(queues)
            .map(|((sm, hooks), queue)| {
                let empty = sm.is_empty();
                Mutex::new(Lane {
                    sm,
                    hooks,
                    queue,
                    overlay: WriteOverlay::new(),
                    inbox: Vec::new(),
                    retired: false,
                    progress: false,
                    fault: None,
                    empty,
                })
            })
            .collect();
        let barrier = RoundBarrier::new(threads);
        let now_cycle = AtomicU64::new(cycle);
        let mut completions = Vec::new();

        std::thread::scope(|s| {
            let _shutdown = ShutdownGuard::new(&barrier);
            for w in 0..threads {
                let range = chunk_range(lanes.len(), threads, w);
                let (lanes, mem, barrier, now_cycle, program) =
                    (&lanes, &mem, &barrier, &now_cycle, &program);
                s.spawn(move || {
                    let mut epoch = 0;
                    while let Some(e) = barrier.wait_round(epoch) {
                        epoch = e;
                        let _done = DoneGuard::new(barrier);
                        let now = now_cycle.load(Ordering::Acquire);
                        let base = mem.read().expect("functional memory lock");
                        for i in range.clone() {
                            let mut lane = lanes[i].lock().expect("lane lock");
                            let lane = &mut *lane;
                            for (id, at) in lane.inbox.drain(..) {
                                lane.sm.on_mem_complete(id, at);
                            }
                            let mut view = OverlayMem::new(&base, &mut lane.overlay);
                            // Contain panics per lane: a dying tick must
                            // not poison the round barrier and hang the
                            // coordinator; it becomes a classified fault
                            // harvested in phase B.
                            let sm = &mut lane.sm;
                            let queue = &mut lane.queue;
                            let hooks = &mut lane.hooks;
                            let ticked = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                if let Some(spec) = plan.worker_panic {
                                    if spec.sm == i && now >= spec.cycle {
                                        panic!("injected worker panic (fault plan)");
                                    }
                                }
                                sm.tick(now, program, &mut view, queue, &mut **hooks)
                            }));
                            match ticked {
                                Ok(Ok(t)) => {
                                    lane.retired = t.retired;
                                    lane.progress = t.progress;
                                }
                                Ok(Err(e)) => {
                                    lane.retired = false;
                                    lane.progress = false;
                                    lane.fault = Some(*e);
                                }
                                Err(p) => {
                                    lane.retired = false;
                                    lane.progress = false;
                                    lane.fault = Some(SimError::WorkerPanicked {
                                        sm: i,
                                        detail: panic_detail(&*p),
                                    });
                                }
                            }
                            lane.empty = lane.sm.is_empty();
                        }
                    }
                });
            }

            loop {
                let active = !self.pending.is_empty()
                    || lanes.iter().any(|l| !l.lock().expect("lane lock").empty);
                if !active {
                    break;
                }
                cycle += 1;
                if cycle >= max_cycles {
                    fault = Some(SimError::MaxCycles { limit: max_cycles });
                    break;
                }
                // Backend completions routed to lane inboxes; each SM
                // delivers its own inbox at the start of its tick, exactly
                // as the serial engine routes before ticking.
                completions.clear();
                self.shared.advance_into(cycle, &mut completions);
                let mut progress = !completions.is_empty();
                for &(id, at) in &completions {
                    let sm = (id >> 48) as usize;
                    debug_assert!(
                        sm < lanes.len(),
                        "completion id {id:#x} routes to nonexistent SM {sm}"
                    );
                    match lanes.get(sm) {
                        Some(l) => l.lock().expect("lane lock").inbox.push((id, at.max(cycle))),
                        None => self.dropped_completions += 1,
                    }
                }
                // Phase A (parallel).
                now_cycle.store(cycle, Ordering::Release);
                barrier.begin_round();
                // Defense in depth: panics are contained per lane above,
                // but if a worker still dies outside that net the barrier
                // reports poison instead of spinning forever.
                let poisoned = barrier.try_wait_workers().is_err();
                // Phase B (serial, SM-id order).
                let mut base = mem.write().expect("functional memory lock");
                let mut retired = false;
                for l in &lanes {
                    let mut lane = l.lock().expect("lane lock");
                    lane.queue.drain_into(&mut self.shared);
                    lane.overlay.apply_to(&mut base);
                    retired |= lane.retired;
                    progress |= lane.progress;
                    if fault.is_none() {
                        fault = lane.fault.take();
                    }
                }
                drop(base);
                // Trace maintenance, identical to the serial engine's: the
                // lane iteration order IS SM-id order, so the merged event
                // stream is thread-count invariant.
                if let Some(col) = self.collector.as_mut() {
                    let num = lanes.len() as u32;
                    for (i, l) in lanes.iter().enumerate() {
                        let mut lane = l.lock().expect("lane lock");
                        if let Some(tr) = lane.sm.tracer_mut() {
                            col.drain_sm(i as u32, tr);
                        }
                    }
                    let rows = self.shared.take_row_activates();
                    col.push_mem_events(num, rows.into_iter().map(row_activate_event));
                    let interval = col.interval();
                    if interval > 0 && cycle.is_multiple_of(interval) {
                        let mut snap = IntervalSnapshot::default();
                        let mut totals = [0u64; NUM_CATEGORIES];
                        let mut accounting = true;
                        for l in &lanes {
                            let lane = l.lock().expect("lane lock");
                            absorb_sm_snapshot(&mut snap, &lane.sm);
                            match lane.sm.accounting() {
                                Some(acc) => {
                                    for (t, v) in totals.iter_mut().zip(acc.categories()) {
                                        *t += v;
                                    }
                                }
                                None => accounting = false,
                            }
                        }
                        let mut rt = [0u64; NUM_RT_SERIES];
                        let mut rt_on = true;
                        for l in &lanes {
                            let lane = l.lock().expect("lane lock");
                            match lane.sm.rt_analytics() {
                                Some(coh) => {
                                    rt[0] += coh.trace_warps();
                                    rt[1] += coh.lane_steps();
                                    rt[2] += coh.warp_steps();
                                    rt[3] += lane.sm.rt_unit.analytics().map_or(0, |a| a.steps);
                                }
                                None => rt_on = false,
                            }
                        }
                        absorb_backend_snapshot(&mut snap, &self.shared);
                        col.sample(cycle, snap);
                        if accounting {
                            col.sample_prof(cycle, totals);
                        }
                        if rt_on {
                            col.sample_rt(cycle, rt);
                        }
                    }
                }
                if fault.is_none() && poisoned {
                    fault = Some(SimError::WorkerPanicked {
                        sm: 0,
                        detail: "a phase-A worker poisoned the round barrier".into(),
                    });
                }
                if fault.is_some() {
                    break;
                }
                if retired {
                    refill_lanes(&lanes, &mut self.pending, limit, &program);
                }
                if progress {
                    last_progress = cycle;
                } else if watchdog > 0 && cycle - last_progress >= watchdog {
                    let issuable = lanes
                        .iter()
                        .any(|l| l.lock().expect("lane lock").sm.has_issuable_ctx(cycle));
                    fault = Some(SimError::Hang {
                        class: classify_hang(issuable, self.shared.is_idle()),
                        window: watchdog,
                        cycle,
                    });
                    break;
                }
                if stop_at.is_some_and(|s| cycle >= s) {
                    paused = true;
                    break;
                }
            }
        });

        let mut sms = Vec::with_capacity(lanes.len());
        let mut queues = Vec::with_capacity(lanes.len());
        for l in lanes {
            let lane = l.into_inner().expect("lane lock");
            sms.push(lane.sm);
            queues.push(lane.queue);
        }
        self.sms = sms;
        self.queues = queues;
        self.mem = mem.into_inner().expect("functional memory lock");
        self.cycle = cycle;
        self.last_progress = last_progress;
        match fault {
            Some(e) => Err(self.fail(e)),
            None if paused => {
                self.debug_assert_conservation();
                Ok(RunOutcome::Paused)
            }
            None => {
                self.debug_assert_conservation();
                Ok(RunOutcome::Done(Box::new(self.collect_stats())))
            }
        }
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Serializes the complete machine state — every SM, the per-SM
    /// request queues (which carry interconnect backpressure across cycle
    /// boundaries), the shared L2/DRAM backend, the functional memory
    /// image, pending warps, cycle/watchdog cursors and the trace
    /// collector — into a checkpoint payload. Must be called at a clean
    /// cycle boundary (between [`GpuSim::run_until`] slices); overlays are
    /// always empty there and are not written.
    pub fn save_state(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.sms.len());
        for sm in &self.sms {
            sm.save(e);
        }
        e.seq(self.queues.len());
        for q in &self.queues {
            q.save(e);
        }
        self.shared.save(e);
        self.mem.save(e);
        e.seq(self.pending.len());
        for seed in &self.pending {
            seed.save(e);
        }
        e.u64(self.cycle);
        e.u64(self.dropped_completions);
        e.u64(self.faults);
        e.u64(self.last_progress);
        match &self.collector {
            None => e.u8(0),
            Some(col) => {
                e.u8(1);
                col.save(e);
            }
        }
    }

    /// Restores machine state written by [`GpuSim::save_state`] into this
    /// GPU. Call on a freshly built and launched [`GpuSim`] whose
    /// configuration matches the saving run's (the snapshot fingerprint
    /// check upstream guarantees this); the launch-seeded pending queue is
    /// replaced wholesale by the snapshot's.
    ///
    /// # Errors
    ///
    /// A snapshot whose SM/queue/partition geometry disagrees with the
    /// current configuration — or whose tracing state disagrees with the
    /// effective trace config — is malformed.
    pub fn restore_state(
        &mut self,
        d: &mut vksim_snapshot::Dec<'_>,
    ) -> Result<(), vksim_snapshot::SnapError> {
        let n = d.seq()?;
        if n != self.config.num_sms {
            return Err(vksim_snapshot::SnapError::Malformed(format!(
                "snapshot has {n} SMs, config has {}",
                self.config.num_sms
            )));
        }
        let trace = self.config.effective_trace();
        let mut sms = Vec::with_capacity(n);
        for i in 0..n {
            let sm = Sm::load(i, &self.config, d)?;
            if sm.accounting().is_some() != trace.accounting {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "cycle-accounting presence mismatch on SM {i}: snapshot {}, \
                     accounting {}abled in config",
                    if sm.accounting().is_some() {
                        "has it"
                    } else {
                        "lacks it"
                    },
                    if trace.accounting { "en" } else { "dis" }
                )));
            }
            if sm.rt_analytics().is_some() != trace.rt_analytics {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "rt-analytics presence mismatch on SM {i}: snapshot {}, \
                     rt analytics {}abled in config",
                    if sm.rt_analytics().is_some() {
                        "has it"
                    } else {
                        "lacks it"
                    },
                    if trace.rt_analytics { "en" } else { "dis" }
                )));
            }
            sms.push(sm);
        }
        self.sms = sms;
        let nq = d.seq()?;
        if nq != n {
            return Err(vksim_snapshot::SnapError::Malformed(format!(
                "snapshot has {nq} request queues for {n} SMs"
            )));
        }
        let mut queues = Vec::with_capacity(nq);
        for _ in 0..nq {
            queues.push(RequestQueue::load(d)?);
        }
        self.queues = queues;
        self.shared = SharedMemSystem::load(self.config.mem.clone(), d)?;
        self.mem = SimMemory::load(d)?;
        let np = d.seq()?;
        let mut pending = VecDeque::with_capacity(np);
        for _ in 0..np {
            pending.push_back(WarpSeed::load(d)?);
        }
        self.pending = pending;
        self.cycle = d.u64()?;
        self.dropped_completions = d.u64()?;
        self.faults = d.u64()?;
        self.last_progress = d.u64()?;
        self.collector = match (d.u8()?, trace.enabled) {
            (0, false) => None,
            (1, true) => Some(TraceCollector::load(trace, self.config.num_sms as u32, d)?),
            (tag @ (0 | 1), enabled) => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "trace collector presence mismatch: snapshot tag {tag}, \
                     tracing {}abled in config",
                    if enabled { "en" } else { "dis" }
                )))
            }
            (t, _) => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "trace collector tag {t}"
                )))
            }
        };
        Ok(())
    }

    /// Phase-B trace maintenance for the serial engine: drains per-SM
    /// staged events in SM-id order, appends shared-backend events under
    /// the memory pseudo-process, and samples the interval series. No-op
    /// when tracing is disabled.
    fn drain_trace(&mut self, cycle: u64) {
        let Some(col) = self.collector.as_mut() else {
            return;
        };
        for sm in &mut self.sms {
            let id = sm.id as u32;
            if let Some(tr) = sm.tracer_mut() {
                col.drain_sm(id, tr);
            }
        }
        let rows = self.shared.take_row_activates();
        let num = self.sms.len() as u32;
        col.push_mem_events(num, rows.into_iter().map(row_activate_event));
        let interval = col.interval();
        if interval > 0 && cycle.is_multiple_of(interval) {
            let mut snap = IntervalSnapshot::default();
            for sm in &self.sms {
                absorb_sm_snapshot(&mut snap, sm);
            }
            absorb_backend_snapshot(&mut snap, &self.shared);
            col.sample(cycle, snap);
            if let Some(totals) = accounting_totals(&self.sms) {
                col.sample_prof(cycle, totals);
            }
            if let Some(totals) = rt_totals(&self.sms) {
                col.sample_rt(cycle, totals);
            }
        }
    }

    /// Finishes the tracing layer: closes open spans, drains the residue,
    /// samples the tail interval and folds everything into an exportable
    /// [`TraceReport`]. Returns `None` when tracing is disabled; call once
    /// after a run (healthy or faulted).
    pub fn take_trace_report(&mut self) -> Option<TraceReport> {
        let mut col = self.collector.take()?;
        for sm in &mut self.sms {
            let id = sm.id as u32;
            sm.finalize_trace(self.cycle);
            if let Some(tr) = sm.tracer_mut() {
                col.drain_sm(id, tr);
            }
        }
        let rows = self.shared.take_row_activates();
        col.push_mem_events(
            self.sms.len() as u32,
            rows.into_iter().map(row_activate_event),
        );
        let mut snap = IntervalSnapshot::default();
        for sm in &self.sms {
            absorb_sm_snapshot(&mut snap, sm);
        }
        absorb_backend_snapshot(&mut snap, &self.shared);
        col.sample(self.cycle, snap);
        if let Some(totals) = accounting_totals(&self.sms) {
            col.sample_prof(self.cycle, totals);
        }
        if let Some(totals) = rt_totals(&self.sms) {
            col.sample_rt(self.cycle, totals);
        }
        for sm in &self.sms {
            if let Some(tr) = sm.tracer() {
                col.absorb_aggregates(sm.id as u32, tr);
            }
        }
        Some(col.finish(self.cycle, self.sms.len() as u32))
    }

    /// Gathers the cycle-accounting breakdown: elapsed cycles, per-SM
    /// category tallies and issue totals. `None` when accounting is
    /// disabled. Valid at any clean cycle boundary (after a healthy run,
    /// a pause, or a restore); the conservation invariant
    /// `Σ categories == num_sms × cycles` holds exactly there.
    pub fn prof_report(&self) -> Option<ProfReport> {
        let per_sm = self
            .sms
            .iter()
            .map(|sm| sm.accounting().cloned())
            .collect::<Option<Vec<_>>>()?;
        Some(ProfReport {
            cycles: self.cycle,
            per_sm,
            issued_insts: self.sms.iter().map(|s| s.issued_insts).sum(),
            issued_lanes: self.sms.iter().map(|s| s.issued_lanes).sum(),
        })
    }

    /// Gathers the timing-side half of the ray-traversal analytics report:
    /// one [`RtSmAnalytics`] per SM (warp traversal coherence plus RT-unit
    /// job/step/latency attribution) and the total RT-unit box-test
    /// operation count (the conservation anchor against the functional
    /// model's per-ray box-test tallies). `None` when RT analytics is
    /// disabled.
    pub fn rt_report_parts(&self) -> Option<(Vec<RtSmAnalytics>, u64)> {
        let mut per_sm = Vec::with_capacity(self.sms.len());
        for sm in &self.sms {
            let coherence = sm.rt_analytics()?.clone();
            let rtu = sm.rt_unit.analytics()?;
            per_sm.push(RtSmAnalytics {
                coherence,
                rtu_jobs: rtu.jobs,
                rtu_steps: rtu.steps,
                rtu_latency: rtu.latency_total,
            });
        }
        let rt_box_ops = self
            .sms
            .iter()
            .map(|sm| sm.rt_unit.counters().get(RtCounter::OpsBoxTests))
            .sum();
        Some((per_sm, rt_box_ops))
    }

    /// Debug-only conservation check, run at healthy loop exits: every SM
    /// must have attributed exactly `cycle` cycles. Fault paths can leave
    /// later SMs unticked mid-cycle and legitimately violate this.
    fn debug_assert_conservation(&self) {
        if cfg!(debug_assertions) {
            if let Some(report) = self.prof_report() {
                debug_assert!(
                    report.conservation_holds(),
                    "cycle accounting leaked: {} cycles attributed over {} SMs at cycle {}",
                    report.merged().total(),
                    report.num_sms(),
                    report.cycles,
                );
            }
        }
    }

    /// Wraps a classified error with partial statistics and a post-mortem
    /// dump into the [`GpuFault`] returned by the run paths.
    fn fail(&mut self, error: SimError) -> Box<GpuFault> {
        self.faults += 1;
        let stats = self.collect_stats();
        let dump = self.write_post_mortem(&error);
        Box::new(GpuFault { error, stats, dump })
    }

    /// Serializes the engine state at the fault: cycle, pending warps,
    /// per-SM scheduler/queue state and the fault class, as a flat
    /// `name -> u64` JSON dump.
    fn write_post_mortem(&self, error: &SimError) -> Option<PathBuf> {
        let mut snap: BTreeMap<String, u64> = BTreeMap::new();
        snap.insert("fault.kind".into(), error.kind_code());
        snap.insert("cycle".into(), self.cycle);
        snap.insert("pending_warps".into(), self.pending.len() as u64);
        snap.insert("mem.idle".into(), u64::from(self.shared.is_idle()));
        for sm in &self.sms {
            sm.post_mortem(&mut snap);
        }
        vksim_fault::write_dump(&snap).ok()
    }

    fn collect_stats(&self) -> GpuStats {
        let mut counters = Counters::new();
        let mut l1_stats = Counters::new();
        let mut rtc_stats = Counters::new();
        let mut issued_insts = 0;
        let mut issued_lanes = 0;
        let mut rt_warp_latency = Histogram::new(1000.0);
        let mut rt_busy = 0;
        let mut rt_resident = 0;
        let mut rt_active_rays = 0;
        let mut rt_occupancy = Vec::new();
        for sm in &self.sms {
            counters.extend(sm.stats.iter());
            l1_stats.extend(sm.l1().stats.iter());
            if let Some(rtc) = sm.rtc() {
                rtc_stats.extend(rtc.stats.iter());
            }
            issued_insts += sm.issued_insts;
            issued_lanes += sm.issued_lanes;
            let rts = sm.rt_unit.stats();
            counters.merge(&rts.counters);
            rt_warp_latency.merge(&rts.warp_latency);
            rt_busy += rts.busy_cycles;
            rt_resident += rts.resident_warp_cycles;
            rt_active_rays += rts.active_ray_cycles;
            rt_occupancy.push(sm.rt_unit.occupancy_trace().to_vec());
        }
        let rt_ops = counters.get("ops.box_tests")
            + counters.get("ops.triangle_tests")
            + counters.get("ops.transforms");
        if self.dropped_completions > 0 {
            // Only inserted when nonzero so golden key sets are unchanged
            // on healthy runs.
            counters.add("gpu.dropped_completions", self.dropped_completions);
        }
        if let Some(col) = &self.collector {
            // Same convention: a healthy sampler leaves no key behind.
            let underflows = col.sampler_underflows();
            if underflows > 0 {
                counters.add("trace.sampler_underflow", underflows);
            }
        }
        // Backpressure observability: only-when-nonzero, so unbounded
        // (depth 0) runs keep their historical golden key sets.
        for slot in [SysCounter::IcntRefused, SysCounter::DramBankFullRetries] {
            counters.add(slot.name(), self.shared.stats.get(slot));
        }
        // Same convention: healthy, watchdog-off runs carry neither key.
        counters.add("gpu.watchdog_armed", self.config.effective_watchdog());
        counters.add("gpu.faults", self.faults);
        GpuStats {
            cycles: self.cycle,
            issued_insts,
            simt_efficiency: if issued_insts == 0 {
                0.0
            } else {
                issued_lanes as f64 / (issued_insts * WARP_SIZE as u64) as f64
            },
            rt_simt_efficiency: if rt_resident == 0 {
                0.0
            } else {
                rt_active_rays as f64 / (rt_resident * WARP_SIZE as u64) as f64
            },
            counters,
            l1_stats,
            rtc_stats,
            l2_stats: self.shared.l2_stats(),
            dram_stats: self.shared.dram_stats(),
            dram_efficiency: self.shared.dram_efficiency(),
            dram_utilization: self.shared.dram_utilization(self.cycle.max(1)),
            rt_warp_latency,
            rt_busy_cycles: rt_busy,
            rt_resident_warp_cycles: rt_resident,
            rt_occupancy,
            rt_ops,
            rt_chunks_fetched: self
                .sms
                .iter()
                .map(|s| s.rt_unit.counters().get(RtCounter::MemIssued))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptSource;
    use vksim_isa::interp::{NoRt, RayDesc, RtHooks};
    use vksim_isa::op::{RtIdxQuery, RtQuery};
    use vksim_isa::ProgramBuilder;
    use vksim_rtunit::{OpKind, Step};

    /// Hooks for GPU tests: launch ids + canned traversal scripts.
    struct TestHooks {
        width: u32,
        scripts_taken: usize,
    }

    impl RtHooks for TestHooks {
        fn traverse(&mut self, _tid: usize, _ray: RayDesc) -> Result<(), vksim_isa::RtError> {
            Ok(())
        }
        fn end_trace(&mut self, _tid: usize) {}
        fn alloc_mem(&mut self, _tid: usize, _size: u32) -> u64 {
            0
        }
        fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
            match q {
                RtQuery::LaunchId(0) => (tid as u32) % self.width,
                RtQuery::LaunchId(1) => (tid as u32) / self.width,
                RtQuery::LaunchId(_) => 0,
                RtQuery::HitKind => 0,
                _ => 0,
            }
        }
        fn query_idx(&mut self, _tid: usize, _q: RtIdxQuery, _idx: u32) -> u32 {
            0
        }
        fn intersection_valid(&mut self, _tid: usize, _idx: u32) -> bool {
            false
        }
        fn next_coalesced_call(&mut self, _tid: usize, _idx: u32) -> u32 {
            u32::MAX
        }
        fn report_intersection(
            &mut self,
            _tid: usize,
            _idx: u32,
            _t: f32,
        ) -> Result<(), vksim_isa::RtError> {
            Ok(())
        }
    }

    impl ScriptSource for TestHooks {
        fn take_script(&mut self, tid: usize) -> Vec<Step> {
            self.scripts_taken += 1;
            vec![Step::Fetch {
                addr: 0x8000_0000 + (tid as u64 % 7) * 64,
                size: 64,
                op: OpKind::Box { tests: 6 },
            }]
        }
    }

    impl ScriptSource for NoRt {
        fn take_script(&mut self, _tid: usize) -> Vec<Step> {
            Vec::new()
        }
    }

    fn small_config() -> GpuConfig {
        GpuConfig {
            num_sms: 2,
            max_cycles: 50_000_000,
            ..GpuConfig::baseline()
        }
    }

    #[test]
    fn store_kernel_writes_every_thread() {
        // Each thread stores its launch-id x to out[tid].
        let mut b = ProgramBuilder::new();
        let [idx, base, addr, four] = b.regs::<4>();
        b.emit(vksim_isa::op::Instr::RtRead {
            dst: idx,
            query: RtQuery::LaunchId(0),
        });
        b.mov_imm_u32(base, 0x10_0000);
        b.mov_imm_u32(four, 4);
        b.imul(addr, idx, four);
        b.iadd(addr, addr, base);
        b.st_global(addr, 0, idx);
        b.exit();
        let program = b.build();

        let mut gpu = GpuSim::new(small_config());
        gpu.launch(
            program,
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 64,
            scripts_taken: 0,
        };
        let stats = gpu.run(&mut hooks).expect("healthy run");
        for i in 0..64u64 {
            assert_eq!(gpu.mem.read_u32(0x10_0000 + i * 4), i as u32, "thread {i}");
        }
        assert!(stats.cycles > 0);
        assert!(stats.issued_insts >= 7 * 2); // 2 warps x 7 instructions
        assert!(
            stats.simt_efficiency > 0.9,
            "uniform kernel: {}",
            stats.simt_efficiency
        );
    }

    #[test]
    fn partial_last_warp_handled() {
        let mut b = ProgramBuilder::new();
        let [idx, base, addr, four] = b.regs::<4>();
        b.emit(vksim_isa::op::Instr::RtRead {
            dst: idx,
            query: RtQuery::LaunchId(0),
        });
        b.mov_imm_u32(base, 0x20_0000);
        b.mov_imm_u32(four, 4);
        b.imul(addr, idx, four);
        b.iadd(addr, addr, base);
        b.st_global(addr, 0, idx);
        b.exit();
        let program = b.build();
        let mut gpu = GpuSim::new(small_config());
        gpu.launch(
            program,
            LaunchDims {
                width: 40,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 40,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        assert_eq!(gpu.mem.read_u32(0x20_0000 + 39 * 4), 39);
        // Thread 40 does not exist: untouched memory.
        assert_eq!(gpu.mem.read_u32(0x20_0000 + 40 * 4), 0);
    }

    #[test]
    fn loads_go_through_memory_hierarchy() {
        // Every thread loads the same word and stores it: one cold miss,
        // then hits.
        let mut b = ProgramBuilder::new();
        let [src, v, idx, base, addr, four] = b.regs::<6>();
        b.mov_imm_u32(src, 0x30_0000);
        b.ld_global(v, src, 0);
        b.emit(vksim_isa::op::Instr::RtRead {
            dst: idx,
            query: RtQuery::LaunchId(0),
        });
        b.mov_imm_u32(base, 0x40_0000);
        b.mov_imm_u32(four, 4);
        b.imul(addr, idx, four);
        b.iadd(addr, addr, base);
        b.st_global(addr, 0, v);
        b.exit();
        let program = b.build();
        let mut gpu = GpuSim::new(GpuConfig {
            num_sms: 1,
            ..small_config()
        });
        gpu.mem.write_u32(0x30_0000, 0xBEEF);
        gpu.launch(
            program,
            LaunchDims {
                width: 128,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 128,
            scripts_taken: 0,
        };
        let stats = gpu.run(&mut hooks).expect("healthy run");
        assert_eq!(gpu.mem.read_u32(0x40_0000), 0xBEEF);
        assert_eq!(gpu.mem.read_u32(0x40_0000 + 127 * 4), 0xBEEF);
        let l1_misses = stats.l1_stats.get("shader_load.miss_compulsory");
        assert_eq!(l1_misses, 1, "one cold miss for the shared word");
        // The other three warps issue while the fill is outstanding and
        // merge into the MSHR (or, if scheduled after the fill, hit).
        let merged = stats.l1_stats.get("shader_load.miss_pending");
        let hits = stats.l1_stats.get("shader_load.hit");
        assert_eq!(merged + hits, 3, "merged={merged} hits={hits}");
    }

    #[test]
    fn trace_ray_routes_through_rt_unit() {
        let mut b = ProgramBuilder::new();
        let rs = b.regs::<9>();
        for r in &rs[..8] {
            b.mov_imm_f32(*r, 0.5);
        }
        b.mov_imm_u32(rs[8], 0);
        b.emit(vksim_isa::op::Instr::TraverseAs {
            origin: [rs[0], rs[1], rs[2]],
            dir: [rs[3], rs[4], rs[5]],
            tmin: rs[6],
            tmax: rs[7],
            flags: rs[8],
        });
        b.emit(vksim_isa::op::Instr::EndTraceRay);
        b.exit();
        let program = b.build();
        let mut gpu = GpuSim::new(GpuConfig {
            num_sms: 1,
            ..small_config()
        });
        gpu.launch(
            program,
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let stats = gpu.run(&mut hooks).expect("healthy run");
        assert_eq!(hooks.scripts_taken, 256, "every lane's script consumed");
        assert_eq!(stats.counters.get("rt.trace_warps"), 8);
        assert_eq!(stats.counters.get("warps_completed"), 8);
        assert!(stats.rt_busy_cycles > 0);
        assert!(stats.rt_ops > 0);
        // 8 warps > 4 RT slots: some enqueues must have stalled.
        assert!(stats.counters.get("rt.enqueue_stall") > 0 || stats.cycles > 10);
    }

    #[test]
    fn divergent_branch_lowers_simt_efficiency() {
        // if (lane_id < 8) { long ALU block } else { other block }
        let mut b = ProgramBuilder::new();
        let [idx, eight, acc, one] = b.regs::<4>();
        let p = b.pred();
        b.emit(vksim_isa::op::Instr::RtRead {
            dst: idx,
            query: RtQuery::LaunchId(0),
        });
        b.mov_imm_u32(eight, 8);
        b.mov_imm_u32(acc, 0);
        b.mov_imm_u32(one, 1);
        b.setp_i(p, vksim_isa::op::CmpOp::Lt, idx, eight);
        let join = b.new_label();
        let els = b.new_label();
        b.ssy(join);
        b.bra_if(els, p, false);
        for _ in 0..20 {
            b.iadd(acc, acc, one);
        }
        b.bra(join);
        b.bind_label(els);
        for _ in 0..20 {
            b.iadd(acc, acc, one);
        }
        b.bind_label(join);
        b.sync();
        b.exit();
        let program = b.build();
        let mut gpu = GpuSim::new(GpuConfig {
            num_sms: 1,
            ..small_config()
        });
        gpu.launch(
            program,
            LaunchDims {
                width: 32,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 32,
            scripts_taken: 0,
        };
        let stats = gpu.run(&mut hooks).expect("healthy run");
        assert_eq!(stats.counters.get("divergent_branches"), 1);
        assert!(
            stats.simt_efficiency < 0.8,
            "divergence must cost efficiency: {}",
            stats.simt_efficiency
        );
    }

    #[test]
    fn multipath_mode_completes_divergent_kernel() {
        let mut b = ProgramBuilder::new();
        let [idx, half, acc, one] = b.regs::<4>();
        let p = b.pred();
        b.emit(vksim_isa::op::Instr::RtRead {
            dst: idx,
            query: RtQuery::LaunchId(0),
        });
        b.mov_imm_u32(half, 16);
        b.mov_imm_u32(acc, 0);
        b.mov_imm_u32(one, 1);
        b.setp_i(p, vksim_isa::op::CmpOp::Lt, idx, half);
        let join = b.new_label();
        let els = b.new_label();
        b.ssy(join);
        b.bra_if(els, p, false);
        b.iadd(acc, acc, one);
        b.bra(join);
        b.bind_label(els);
        b.iadd(acc, acc, one);
        b.bind_label(join);
        b.sync();
        // Store acc so we can verify both sides ran.
        let [base, addr, four] = b.regs::<3>();
        b.mov_imm_u32(base, 0x50_0000);
        b.mov_imm_u32(four, 4);
        b.imul(addr, idx, four);
        b.iadd(addr, addr, base);
        b.st_global(addr, 0, acc);
        b.exit();
        let program = b.build();
        let mut gpu = GpuSim::new(GpuConfig {
            num_sms: 1,
            divergence: DivergenceMode::Multipath,
            ..small_config()
        });
        gpu.launch(
            program,
            LaunchDims {
                width: 32,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 32,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        for i in 0..32u64 {
            assert_eq!(gpu.mem.read_u32(0x50_0000 + i * 4), 1, "lane {i}");
        }
    }

    use crate::config::DivergenceMode;

    #[test]
    fn occupancy_respects_register_limit() {
        let c = GpuConfig::baseline();
        assert_eq!(c.occupancy_limit(2048), 1);
    }

    fn trace_program() -> vksim_isa::Program {
        let mut b = ProgramBuilder::new();
        let rs = b.regs::<9>();
        for r in &rs[..8] {
            b.mov_imm_f32(*r, 0.5);
        }
        b.mov_imm_u32(rs[8], 0);
        b.emit(vksim_isa::op::Instr::TraverseAs {
            origin: [rs[0], rs[1], rs[2]],
            dir: [rs[3], rs[4], rs[5]],
            tmin: rs[6],
            tmax: rs[7],
            flags: rs[8],
        });
        b.emit(vksim_isa::op::Instr::EndTraceRay);
        b.exit();
        b.build()
    }

    fn run_trace_with_threads(threads: usize) -> GpuStats {
        let mut gpu = GpuSim::new(GpuConfig {
            threads,
            ..small_config()
        });
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut shards: Vec<TestHooks> = (0..2)
            .map(|_| TestHooks {
                width: 256,
                scripts_taken: 0,
            })
            .collect();
        let stats = gpu.run_sharded(&mut shards).expect("healthy run");
        let taken: usize = shards.iter().map(|h| h.scripts_taken).sum();
        assert_eq!(taken, 256, "every lane's script consumed");
        stats
    }

    #[test]
    fn stalled_warp_trips_watchdog_as_simt_livelock() {
        use vksim_fault::{FaultPlan, HangClass};
        let mut gpu = GpuSim::new(GpuConfig {
            num_sms: 1,
            watchdog_cycles: 2_000,
            fault_plan: FaultPlan {
                stall_warp: Some(0),
                ..FaultPlan::default()
            },
            ..small_config()
        });
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 32,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 32,
            scripts_taken: 0,
        };
        let fault = gpu.run(&mut hooks).expect_err("stalled warp must hang");
        assert!(
            matches!(
                fault.error,
                SimError::Hang {
                    class: HangClass::SimtLivelock,
                    window: 2_000,
                    ..
                }
            ),
            "{:?}",
            fault.error
        );
        assert!(fault.dump.is_some(), "post-mortem dump must be written");
        assert!(fault.stats.cycles > 0);
        assert_eq!(fault.stats.counters.get("gpu.faults"), 1);
        assert_eq!(fault.stats.counters.get("gpu.watchdog_armed"), 2_000);
    }

    #[test]
    fn injected_worker_panic_is_contained() {
        use vksim_fault::{FaultPlan, WorkerPanicSpec};
        let mut gpu = GpuSim::new(GpuConfig {
            fault_plan: FaultPlan {
                worker_panic: Some(WorkerPanicSpec { sm: 1, cycle: 5 }),
                ..FaultPlan::default()
            },
            ..small_config()
        });
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let fault = gpu.run(&mut hooks).expect_err("injected panic must fault");
        match &fault.error {
            SimError::WorkerPanicked { sm, detail } => {
                assert_eq!(*sm, 1);
                assert!(detail.contains("injected worker panic"), "{detail}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(fault.dump.is_some());
    }

    #[test]
    fn max_cycles_is_a_classified_error_not_a_panic() {
        use vksim_fault::FaultPlan;
        let mut gpu = GpuSim::new(GpuConfig {
            num_sms: 1,
            max_cycles: 1_000,
            fault_plan: FaultPlan {
                stall_warp: Some(0),
                ..FaultPlan::default()
            },
            ..small_config()
        });
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 32,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 32,
            scripts_taken: 0,
        };
        let fault = gpu.run(&mut hooks).expect_err("cycle cap must fault");
        assert!(
            matches!(fault.error, SimError::MaxCycles { limit: 1_000 }),
            "{:?}",
            fault.error
        );
    }

    #[test]
    fn pause_save_restore_resumes_bit_identically() {
        std::env::remove_var("VKSIM_THREADS");
        let config = small_config();
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let dims = LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        };

        // Uninterrupted reference run.
        let mut reference = GpuSim::new(config.clone());
        reference.launch(trace_program(), dims);
        let want = reference.run(&mut hooks).expect("healthy run");

        // Paused run: slice at cycle 40, snapshot, keep going.
        let mut gpu = GpuSim::new(config.clone());
        gpu.launch(trace_program(), dims);
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let outcome = gpu.run_until(&mut hooks, 40).expect("healthy slice");
        assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
        assert_eq!(gpu.cycles(), 40);
        let mut enc = vksim_snapshot::Enc::new();
        gpu.save_state(&mut enc);
        let payload = enc.into_bytes();

        // Restore into a fresh GPU: re-encoding must be byte-identical.
        let mut restored = GpuSim::new(config);
        restored.launch(trace_program(), dims);
        let mut dec = vksim_snapshot::Dec::new(&payload);
        restored.restore_state(&mut dec).expect("restore");
        dec.finish().expect("full consumption");
        let mut enc2 = vksim_snapshot::Enc::new();
        restored.save_state(&mut enc2);
        assert_eq!(payload, enc2.into_bytes(), "snapshot idempotency");

        // Both the paused original and the restored copy finish exactly
        // like the uninterrupted run.
        let stats = gpu.run(&mut hooks).expect("healthy tail");
        assert_eq!(stats.cycles, want.cycles);
        assert_eq!(stats.counters, want.counters);
        assert_eq!(stats.l1_stats, want.l1_stats);
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let stats = restored.run(&mut hooks).expect("healthy resumed tail");
        assert_eq!(stats.cycles, want.cycles);
        assert_eq!(stats.counters, want.counters);
        assert_eq!(stats.l1_stats, want.l1_stats);
        assert_eq!(stats.l2_stats, want.l2_stats);
        assert_eq!(stats.dram_stats, want.dram_stats);
    }

    #[test]
    fn restore_rejects_mismatched_sm_count() {
        let mut gpu = GpuSim::new(small_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut enc = vksim_snapshot::Enc::new();
        gpu.save_state(&mut enc);
        let payload = enc.into_bytes();
        let mut other = GpuSim::new(GpuConfig {
            num_sms: 3,
            ..small_config()
        });
        let mut dec = vksim_snapshot::Dec::new(&payload);
        let err = other
            .restore_state(&mut dec)
            .expect_err("geometry mismatch");
        assert!(
            matches!(err, vksim_snapshot::SnapError::Malformed(_)),
            "{err:?}"
        );
    }

    #[test]
    fn parallel_engine_matches_serial_counters() {
        // Force the thread counts under test regardless of VKSIM_THREADS.
        std::env::remove_var("VKSIM_THREADS");
        let serial = run_trace_with_threads(1);
        let parallel = run_trace_with_threads(4);
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.issued_insts, parallel.issued_insts);
        assert_eq!(serial.counters, parallel.counters);
        assert_eq!(serial.l1_stats, parallel.l1_stats);
        assert_eq!(serial.l2_stats, parallel.l2_stats);
        assert_eq!(serial.dram_stats, parallel.dram_stats);
    }

    fn accounting_config() -> GpuConfig {
        GpuConfig {
            trace: vksim_trace::TraceConfig {
                accounting: true,
                ..vksim_trace::TraceConfig::default()
            },
            ..small_config()
        }
    }

    #[test]
    fn accounting_attributes_every_cycle_to_one_category() {
        let mut gpu = GpuSim::new(accounting_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let stats = gpu.run(&mut hooks).expect("healthy run");
        let report = gpu.prof_report().expect("accounting enabled");
        assert!(report.conservation_holds(), "{report:?}");
        assert_eq!(report.cycles, stats.cycles);
        assert_eq!(report.issued_insts, stats.issued_insts);
        let merged = report.merged();
        assert!(merged.get(vksim_trace::CycleCategory::Issued) > 0);
        assert!(
            merged.get(vksim_trace::CycleCategory::RtStall) > 0,
            "trace kernel must spend cycles waiting on the RT unit: {merged:?}"
        );
        // Occupancy integrals are integer-exact and ordered.
        assert!(merged.eligible_warp_cycles() <= merged.resident_warp_cycles());
        assert!(merged.resident_warp_cycles() > 0);
    }

    #[test]
    fn accounting_disabled_leaves_no_trace_of_itself() {
        let mut gpu = GpuSim::new(small_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 64,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        assert!(gpu.prof_report().is_none());
    }

    fn run_prof_with_threads(threads: usize) -> String {
        let mut gpu = GpuSim::new(GpuConfig {
            threads,
            ..accounting_config()
        });
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut shards: Vec<TestHooks> = (0..2)
            .map(|_| TestHooks {
                width: 256,
                scripts_taken: 0,
            })
            .collect();
        gpu.run_sharded(&mut shards).expect("healthy run");
        let report = gpu.prof_report().expect("accounting enabled");
        assert!(report.conservation_holds(), "{report:?}");
        report.flat_json()
    }

    #[test]
    fn accounting_breakdown_is_thread_count_invariant() {
        std::env::remove_var("VKSIM_THREADS");
        let serial = run_prof_with_threads(1);
        let parallel = run_prof_with_threads(4);
        assert_eq!(serial, parallel, "breakdown must be byte-identical");
    }

    #[test]
    fn accounting_survives_checkpoint_byte_identically() {
        std::env::remove_var("VKSIM_THREADS");
        let config = accounting_config();
        let dims = LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        };
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let mut reference = GpuSim::new(config.clone());
        reference.launch(trace_program(), dims);
        reference.run(&mut hooks).expect("healthy run");
        let want = reference.prof_report().expect("accounting on").flat_json();

        let mut gpu = GpuSim::new(config.clone());
        gpu.launch(trace_program(), dims);
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let outcome = gpu.run_until(&mut hooks, 40).expect("healthy slice");
        assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
        let mut enc = vksim_snapshot::Enc::new();
        gpu.save_state(&mut enc);
        let payload = enc.into_bytes();

        let mut restored = GpuSim::new(config);
        restored.launch(trace_program(), dims);
        let mut dec = vksim_snapshot::Dec::new(&payload);
        restored.restore_state(&mut dec).expect("restore");
        dec.finish().expect("full consumption");
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        restored.run(&mut hooks).expect("healthy resumed tail");
        let got = restored.prof_report().expect("accounting on").flat_json();
        assert_eq!(want, got, "resumed breakdown must be byte-identical");
    }

    #[test]
    fn restore_rejects_accounting_presence_mismatch() {
        let mut gpu = GpuSim::new(accounting_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut enc = vksim_snapshot::Enc::new();
        gpu.save_state(&mut enc);
        let payload = enc.into_bytes();
        let mut other = GpuSim::new(small_config());
        other.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut dec = vksim_snapshot::Dec::new(&payload);
        let err = other
            .restore_state(&mut dec)
            .expect_err("accounting presence mismatch");
        assert!(
            matches!(&err, vksim_snapshot::SnapError::Malformed(m) if m.contains("accounting")),
            "{err:?}"
        );
    }

    #[test]
    fn accounting_counter_tracks_reach_chrome_trace() {
        let mut config = accounting_config();
        config.trace = vksim_trace::TraceConfig {
            enabled: true,
            interval: 16,
            ..config.trace
        };
        let mut gpu = GpuSim::new(config);
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        let report = gpu.take_trace_report().expect("tracing enabled");
        let json = vksim_trace::chrome_trace_json(&report);
        assert!(
            json.contains("\"acct_issued\""),
            "prof counter tracks missing from chrome trace"
        );
    }

    fn rt_config() -> GpuConfig {
        GpuConfig {
            trace: vksim_trace::TraceConfig {
                rt_analytics: true,
                ..vksim_trace::TraceConfig::default()
            },
            ..small_config()
        }
    }

    #[test]
    fn rt_analytics_attributes_warps_jobs_and_steps() {
        let mut gpu = GpuSim::new(rt_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        let (per_sm, rt_box_ops) = gpu.rt_report_parts().expect("rt analytics enabled");
        assert_eq!(per_sm.len(), 2);
        let trace_warps: u64 = per_sm.iter().map(|s| s.coherence.trace_warps()).sum();
        let lane_steps: u64 = per_sm.iter().map(|s| s.coherence.lane_steps()).sum();
        let rtu_jobs: u64 = per_sm.iter().map(|s| s.rtu_jobs).sum();
        let rtu_steps: u64 = per_sm.iter().map(|s| s.rtu_steps).sum();
        let rtu_latency: u64 = per_sm.iter().map(|s| s.rtu_latency).sum();
        assert_eq!(trace_warps, 8, "256 threads = 8 trace warps");
        // Every lane runs a 1-step script, so lane steps == threads and
        // the RT units consume exactly that many script steps.
        assert_eq!(lane_steps, 256);
        assert_eq!(rtu_steps, 256);
        assert_eq!(rtu_jobs, 8, "every trace warp retires exactly once");
        assert!(rtu_latency > 0, "resident latency accumulates");
        // TestHooks scripts run one Box{tests: 6} op per thread.
        assert_eq!(rt_box_ops, 256 * 6);
    }

    #[test]
    fn rt_analytics_disabled_leaves_no_trace_of_itself() {
        let mut gpu = GpuSim::new(small_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 64,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        assert!(gpu.rt_report_parts().is_none());
    }

    fn run_rt_with_threads(threads: usize) -> String {
        let mut gpu = GpuSim::new(GpuConfig {
            threads,
            ..rt_config()
        });
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut shards: Vec<TestHooks> = (0..2)
            .map(|_| TestHooks {
                width: 256,
                scripts_taken: 0,
            })
            .collect();
        gpu.run_sharded(&mut shards).expect("healthy run");
        let parts = gpu.rt_report_parts().expect("rt analytics enabled");
        format!("{parts:?}")
    }

    #[test]
    fn rt_analytics_is_thread_count_invariant() {
        std::env::remove_var("VKSIM_THREADS");
        let serial = run_rt_with_threads(1);
        let parallel = run_rt_with_threads(4);
        assert_eq!(serial, parallel, "rt analytics must be identical");
    }

    #[test]
    fn rt_analytics_survives_checkpoint_byte_identically() {
        std::env::remove_var("VKSIM_THREADS");
        let config = rt_config();
        let dims = LaunchDims {
            width: 256,
            height: 1,
            depth: 1,
        };
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let mut reference = GpuSim::new(config.clone());
        reference.launch(trace_program(), dims);
        reference.run(&mut hooks).expect("healthy run");
        let want = format!("{:?}", reference.rt_report_parts().expect("rt on"));

        let mut gpu = GpuSim::new(config.clone());
        gpu.launch(trace_program(), dims);
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let outcome = gpu.run_until(&mut hooks, 40).expect("healthy slice");
        assert!(matches!(outcome, RunOutcome::Paused), "{outcome:?}");
        let mut enc = vksim_snapshot::Enc::new();
        gpu.save_state(&mut enc);
        let payload = enc.into_bytes();

        let mut restored = GpuSim::new(config);
        restored.launch(trace_program(), dims);
        let mut dec = vksim_snapshot::Dec::new(&payload);
        restored.restore_state(&mut dec).expect("restore");
        dec.finish().expect("full consumption");
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        restored.run(&mut hooks).expect("healthy resumed tail");
        let got = format!("{:?}", restored.rt_report_parts().expect("rt on"));
        assert_eq!(want, got, "resumed rt analytics must be identical");
    }

    #[test]
    fn restore_rejects_rt_analytics_presence_mismatch() {
        let mut gpu = GpuSim::new(rt_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut enc = vksim_snapshot::Enc::new();
        gpu.save_state(&mut enc);
        let payload = enc.into_bytes();
        let mut other = GpuSim::new(small_config());
        other.launch(
            trace_program(),
            LaunchDims {
                width: 64,
                height: 1,
                depth: 1,
            },
        );
        let mut dec = vksim_snapshot::Dec::new(&payload);
        let err = other
            .restore_state(&mut dec)
            .expect_err("rt analytics presence mismatch");
        assert!(
            matches!(&err, vksim_snapshot::SnapError::Malformed(m) if m.contains("rt-analytics")),
            "{err:?}"
        );
    }

    #[test]
    fn rt_counter_tracks_reach_chrome_trace() {
        let mut config = rt_config();
        config.trace = vksim_trace::TraceConfig {
            enabled: true,
            interval: 16,
            ..config.trace
        };
        let mut gpu = GpuSim::new(config);
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        gpu.run(&mut hooks).expect("healthy run");
        let report = gpu.take_trace_report().expect("tracing enabled");
        assert!(
            !report.rt_warp_latency.is_empty(),
            "traversal-latency aggregates missing from trace report"
        );
        let json = vksim_trace::chrome_trace_json(&report);
        assert!(
            json.contains("\"rt_trace_warps\""),
            "rt counter tracks missing from chrome trace"
        );
        let summary = vksim_trace::hotspot_summary(&report, 5);
        assert!(
            summary.contains("top traversal-latency warps"),
            "rt hotspot section missing: {summary}"
        );
    }

    // -----------------------------------------------------------------
    // Property: on random divergent kernels the cycle-accounting
    // breakdown conserves (Σ categories == num_sms × cycles) and is
    // byte-identical between the serial and parallel engines.
    // -----------------------------------------------------------------

    mod accounting_properties {
        use super::*;
        use vksim_testkit::prop::{check, u32_in};
        use vksim_testkit::prop_assert_eq;

        fn prop_program(threshold: u32, alu_len: u32, with_store: bool) -> vksim_isa::Program {
            let mut b = ProgramBuilder::new();
            let [idx, thr, acc, one] = b.regs::<4>();
            let p = b.pred();
            b.emit(vksim_isa::op::Instr::RtRead {
                dst: idx,
                query: RtQuery::LaunchId(0),
            });
            b.mov_imm_u32(thr, threshold);
            b.mov_imm_u32(acc, 0);
            b.mov_imm_u32(one, 1);
            b.setp_i(p, vksim_isa::op::CmpOp::Lt, idx, thr);
            let join = b.new_label();
            let els = b.new_label();
            b.ssy(join);
            b.bra_if(els, p, false);
            for _ in 0..alu_len {
                b.iadd(acc, acc, one);
            }
            b.bra(join);
            b.bind_label(els);
            b.iadd(acc, acc, one);
            b.bind_label(join);
            b.sync();
            if with_store {
                let [base, addr, four] = b.regs::<3>();
                b.mov_imm_u32(base, 0x60_0000);
                b.mov_imm_u32(four, 4);
                b.imul(addr, idx, four);
                b.iadd(addr, addr, base);
                b.st_global(addr, 0, acc);
            }
            b.exit();
            b.build()
        }

        fn run_case(threads: usize, program: &vksim_isa::Program, width: u32) -> String {
            let mut gpu = GpuSim::new(GpuConfig {
                threads,
                ..accounting_config()
            });
            gpu.launch(
                program.clone(),
                LaunchDims {
                    width,
                    height: 1,
                    depth: 1,
                },
            );
            let mut shards: Vec<TestHooks> = (0..2)
                .map(|_| TestHooks {
                    width,
                    scripts_taken: 0,
                })
                .collect();
            gpu.run_sharded(&mut shards).expect("healthy run");
            let report = gpu.prof_report().expect("accounting enabled");
            assert!(
                report.conservation_holds(),
                "conservation violated at {threads} threads: {report:?}"
            );
            report.flat_json()
        }

        #[test]
        fn random_kernels_conserve_at_any_thread_count() {
            std::env::remove_var("VKSIM_THREADS");
            let strat = (u32_in(0, 33), u32_in(1, 12), u32_in(1, 200), u32_in(0, 2));
            check(&strat, |&(threshold, alu_len, width, store)| {
                let program = prop_program(threshold, alu_len, store == 1);
                let serial = run_case(1, &program, width);
                let parallel = run_case(4, &program, width);
                prop_assert_eq!(
                    &serial,
                    &parallel,
                    "breakdown diverged (threshold {threshold}, alu {alu_len}, \
                     width {width}, store {store})"
                );
                Ok(())
            });
        }
    }

    #[test]
    fn sharded_serial_matches_single_hooks_run() {
        // run() with one hook object and run_sharded() with per-SM shards
        // must agree when the hook state partitions by thread id.
        let mut gpu = GpuSim::new(small_config());
        gpu.launch(
            trace_program(),
            LaunchDims {
                width: 256,
                height: 1,
                depth: 1,
            },
        );
        let mut hooks = TestHooks {
            width: 256,
            scripts_taken: 0,
        };
        let single = gpu.run(&mut hooks).expect("healthy run");
        let sharded = run_trace_with_threads(1);
        assert_eq!(single.cycles, sharded.cycles);
        assert_eq!(single.counters, sharded.counters);
    }
}
