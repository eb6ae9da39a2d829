//! Streaming multiprocessor model.
//!
//! Each SM holds resident warps, schedules one instruction per cycle with a
//! greedy-then-oldest warp scheduler, executes lanes functionally through
//! the ISA interpreter, and charges timing per instruction class: ALU
//! (pipelined, 1-cycle issue), SFU (blocking latency), memory (coalesced
//! 32 B chunks through the L1 and the shared backend), and `traverseAS`
//! (warp handed to the RT unit).

use crate::config::{DivergenceMode, GpuConfig};
use crate::simt::{CtxOutcome, Mask, SimtEngine};
use crate::{ScriptSource, WARP_SIZE};
use std::collections::BTreeMap;
use vksim_fault::SimError;
use vksim_isa::interp::{exec_at, Effect, RtHooks, ThreadState};
use vksim_isa::op::{InstClass, MemSpace};
use vksim_isa::{MemIo, Program};
use vksim_mem::{chunks, partition_of, AccessKind, Cache, CacheOutcome, MemRequest, MemSink};
use vksim_rtunit::{RtMem, RtMemResult, RtUnit, RtUnitEventKind, WarpDone, WarpJob};
use vksim_stats::FxHashMap;
use vksim_trace::{
    CycleAccounting, CycleCategory, EventKind, SmTracer, TraceConfig, WarpCoherence, NO_WARP,
};

vksim_stats::counter_slots! {
    /// Per-SM counters: the issued instruction mix and issue-stage events.
    pub enum SmCounter => SmCounters {
        /// Branches whose active lanes went both ways.
        DivergentBranches = "divergent_branches",
        /// Issued ALU instructions.
        InstAlu = "inst.Alu",
        /// Issued control-flow instructions.
        InstCtrl = "inst.Ctrl",
        /// Issued exits.
        InstExit = "inst.Exit",
        /// Issued loads and stores.
        InstMem = "inst.Mem",
        /// Issued ray-tracing instructions.
        InstRt = "inst.Rt",
        /// Issued special-function instructions.
        InstSfu = "inst.Sfu",
        /// Unique 32 B chunks of coalesced memory instructions.
        MemCoalescedChunks = "mem.coalesced_chunks",
        /// Warp-buffer admissions that found no capacity after all.
        RtEnqueueRace = "rt.enqueue_race",
        /// `traverseAS` issues that found the warp buffer full.
        RtEnqueueStall = "rt.enqueue_stall",
        /// `traverseAS` warp issues.
        RtTraceWarps = "rt.trace_warps",
        /// Cycles the issue stage was held by interconnect backpressure.
        SmIcntStallCycles = "sm.icnt_stall_cycles",
    }
}

impl SmCounter {
    /// The `inst.<class>` slot of an instruction class.
    fn inst(class: InstClass) -> Self {
        match class {
            InstClass::Alu => SmCounter::InstAlu,
            InstClass::Sfu => SmCounter::InstSfu,
            InstClass::Mem => SmCounter::InstMem,
            InstClass::Ctrl => SmCounter::InstCtrl,
            InstClass::Rt => SmCounter::InstRt,
            InstClass::Exit => SmCounter::InstExit,
        }
    }
}

/// Hooks the GPU needs from the simulator core: the RT functional runtime
/// plus the recorded traversal scripts.
pub trait GpuHooks: RtHooks + ScriptSource {}
impl<T: RtHooks + ScriptSource> GpuHooks for T {}

#[derive(Clone, Debug, Default)]
struct CtxState {
    status: CtxStatus,
    retry_chunks: Vec<u64>,
    pending_rt_job: Option<WarpJob>,
}

impl CtxState {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        // Status codes match the post-mortem encoding in `Sm::post_mortem`.
        match self.status {
            CtxStatus::Ready => e.u8(0),
            CtxStatus::OpUntil(t) => {
                e.u8(1);
                e.u64(t);
            }
            CtxStatus::WaitMem { outstanding } => {
                e.u8(2);
                e.u32(outstanding);
            }
            CtxStatus::RtPending => e.u8(3),
            CtxStatus::InRt => e.u8(4),
        }
        e.seq(self.retry_chunks.len());
        for &c in &self.retry_chunks {
            e.u64(c);
        }
        match &self.pending_rt_job {
            None => e.u8(0),
            Some(job) => {
                e.u8(1);
                job.save(e);
            }
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let status = match d.u8()? {
            0 => CtxStatus::Ready,
            1 => CtxStatus::OpUntil(d.u64()?),
            2 => CtxStatus::WaitMem {
                outstanding: d.u32()?,
            },
            3 => CtxStatus::RtPending,
            4 => CtxStatus::InRt,
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "ctx status tag {t}"
                )))
            }
        };
        let n = d.seq()?;
        let mut retry_chunks = Vec::with_capacity(n);
        for _ in 0..n {
            retry_chunks.push(d.u64()?);
        }
        let pending_rt_job = match d.u8()? {
            0 => None,
            1 => Some(WarpJob::load(d)?),
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "pending rt job tag {t}"
                )))
            }
        };
        Ok(CtxState {
            status,
            retry_chunks,
            pending_rt_job,
        })
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
enum CtxStatus {
    #[default]
    Ready,
    /// Busy in an execution unit until the given cycle.
    OpUntil(u64),
    /// Waiting on outstanding memory chunks.
    WaitMem { outstanding: u32 },
    /// Waiting for space in the RT unit's warp buffer.
    RtPending,
    /// Resident in the RT unit.
    InRt,
}

/// One resident warp.
#[derive(Debug)]
pub struct Warp {
    /// Global warp index.
    pub id: u32,
    /// Global thread id of lane 0.
    pub base_tid: usize,
    threads: Vec<ThreadState>,
    engine: SimtEngine,
    /// Scheduling state per SIMT context, sorted by ctx id. Every walk over
    /// it (RT admission, chunk retries) therefore visits contexts in id
    /// order; a context never seen here is `Ready`.
    ctx_state: Vec<(u32, CtxState)>,
}

impl Warp {
    fn new(
        id: u32,
        base_tid: usize,
        active: Mask,
        program: &Program,
        mode: DivergenceMode,
    ) -> Self {
        let threads = (0..WARP_SIZE)
            .map(|lane| {
                ThreadState::with_tid(
                    program.num_regs(),
                    program.num_preds().max(1),
                    base_tid + lane,
                )
            })
            .collect();
        let engine = match mode {
            DivergenceMode::Stack => SimtEngine::stack(active),
            DivergenceMode::Multipath => SimtEngine::multipath(active),
        };
        Warp {
            id,
            base_tid,
            threads,
            engine,
            ctx_state: Vec::new(),
        }
    }

    /// The state of context `ctx`, if it was ever touched.
    fn ctx(&self, ctx: u32) -> Option<&CtxState> {
        self.ctx_state
            .binary_search_by_key(&ctx, |&(id, _)| id)
            .ok()
            .map(|i| &self.ctx_state[i].1)
    }

    /// The state of context `ctx`, created `Ready` on first touch.
    fn ctx_mut(&mut self, ctx: u32) -> &mut CtxState {
        let i = match self.ctx_state.binary_search_by_key(&ctx, |&(id, _)| id) {
            Ok(i) => i,
            Err(i) => {
                self.ctx_state.insert(i, (ctx, CtxState::default()));
                i
            }
        };
        &mut self.ctx_state[i].1
    }

    /// `true` when context `ctx` may issue at `now`.
    fn ctx_issuable(&self, ctx: u32, now: u64) -> bool {
        match self.ctx(ctx).map(|s| &s.status) {
            None | Some(CtxStatus::Ready) => true,
            Some(CtxStatus::OpUntil(t)) => *t <= now,
            _ => false,
        }
    }

    fn done(&self) -> bool {
        self.engine.done()
            && self.ctx_state.iter().all(|(_, c)| {
                c.status == CtxStatus::Ready || matches!(c.status, CtxStatus::OpUntil(_))
            })
    }

    fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u32(self.id);
        e.usize(self.base_tid);
        e.seq(self.threads.len());
        for t in &self.threads {
            t.save(e);
        }
        self.engine.save(e);
        e.seq(self.ctx_state.len());
        for (id, st) in &self.ctx_state {
            e.u32(*id);
            st.save(e);
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let id = d.u32()?;
        let base_tid = d.usize()?;
        let n = d.seq()?;
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            threads.push(ThreadState::load(d)?);
        }
        let engine = SimtEngine::load(d)?;
        let mut warp = Warp {
            id,
            base_tid,
            threads,
            engine,
            ctx_state: Vec::new(),
        };
        for _ in 0..d.seq()? {
            let ctx = d.u32()?;
            *warp.ctx_mut(ctx) = CtxState::load(d)?;
        }
        Ok(warp)
    }
}

/// Who waits on each in-flight L1 / RT-cache line, in arrival order (the
/// wake-up order is load-bearing). Up to [`LineWaiters::SPARE`] emptied
/// lists are kept for reuse: enough to absorb the per-cycle churn without
/// holding a high-water mark of lists for the rest of the run.
#[derive(Default)]
struct LineWaiters {
    lines: FxHashMap<(CacheSel, u64), Vec<Waiter>>,
    spare: Vec<Vec<Waiter>>,
}

impl LineWaiters {
    const SPARE: usize = 8;

    fn push(&mut self, key: (CacheSel, u64), waiter: Waiter) {
        let spare = &mut self.spare;
        self.lines
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(waiter);
    }

    /// Hand a list returned by `lines.remove` back for reuse.
    fn recycle(&mut self, mut waiters: Vec<Waiter>) {
        if self.spare.len() < Self::SPARE {
            waiters.clear();
            self.spare.push(waiters);
        }
    }
}

// Who is waiting on an L1 line fill.
#[derive(Clone, Copy, Debug)]
enum Waiter {
    WarpCtx { warp: u32, ctx: u32 },
    RtToken(u64),
}

impl Waiter {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        match *self {
            Waiter::WarpCtx { warp, ctx } => {
                e.u8(0);
                e.u32(warp);
                e.u32(ctx);
            }
            Waiter::RtToken(token) => {
                e.u8(1);
                e.u64(token);
            }
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(match d.u8()? {
            0 => Waiter::WarpCtx {
                warp: d.u32()?,
                ctx: d.u32()?,
            },
            1 => Waiter::RtToken(d.u64()?),
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "waiter tag {t}"
                )))
            }
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CacheSel {
    L1,
    Rtc,
}

impl CacheSel {
    fn code(self) -> u8 {
        match self {
            CacheSel::L1 => 0,
            CacheSel::Rtc => 1,
        }
    }

    fn from_code(c: u8) -> Result<Self, vksim_snapshot::SnapError> {
        match c {
            0 => Ok(CacheSel::L1),
            1 => Ok(CacheSel::Rtc),
            t => Err(vksim_snapshot::SnapError::Malformed(format!(
                "cache selector tag {t}"
            ))),
        }
    }
}

/// What one [`Sm::tick`] accomplished; consumed by the warp-refill logic
/// and the forward-progress watchdog.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickReport {
    /// A warp retired this cycle.
    pub retired: bool,
    /// The SM made forward progress: an instruction issued, a warp
    /// retired, or the RT unit finished a warp.
    pub progress: bool,
}

/// Buffers the tick reuses every cycle so the steady state does not
/// allocate. Empty between ticks; never saved.
#[derive(Default)]
struct Scratch {
    /// `(lane, effect)` of every active lane of the issuing instruction.
    lane_effects: Vec<(usize, Effect)>,
    /// Unique chunks of a coalesced memory instruction.
    chunks: Vec<u64>,
    /// Chunks of the issuing load refused by a full L1 MSHR.
    refused: Vec<u64>,
    /// RT-pending contexts admitted to the warp buffer this cycle.
    enqueues: Vec<(u32, u32, WarpJob)>,
    /// `(warp, ctx, chunk)` L1 retries replayed this cycle.
    retries: Vec<(u32, u32, u64)>,
    /// Warps the RT unit finished this cycle.
    rt_done: Vec<WarpDone>,
}

/// The per-SM state.
pub struct Sm {
    /// SM index within the GPU.
    pub id: usize,
    warps: Vec<Warp>,
    l1: Cache,
    rtc: Option<Cache>,
    /// The SM's ray-tracing accelerator.
    pub rt_unit: RtUnit,
    waiting_lines: LineWaiters,
    inflight: FxHashMap<u64, (CacheSel, u64)>, // req id -> (cache, line)
    next_rt_job: u32,
    rt_job_map: FxHashMap<u32, (u32, u32)>, // job id -> (warp id, ctx id)
    last_warp: Option<u32>,
    /// Fault injection: never schedule this warp id (crafts a livelock).
    stall_warp: Option<u32>,
    perfect_bvh: bool,
    sfu_latency: u32,
    divergence: DivergenceMode,
    /// Memory partitions in the shared backend (tags MSHR trace events).
    num_partitions: u32,
    next_req: u64,
    /// Per-SM counters (instruction mix, issue stats).
    pub stats: SmCounters,
    /// Sum of active lanes over issued instructions (SIMT efficiency).
    pub issued_lanes: u64,
    /// Number of issued instructions.
    pub issued_insts: u64,
    /// Cycles where the RT unit had at least one resident warp.
    pub trace_cycles: u64,
    // Cycle-level event recorder; `None` (the default) keeps every hook to
    // a single branch-on-null.
    tracer: Option<Box<SmTracer>>,
    // Cycle-accounting recorder; same branch-on-null discipline as the
    // tracer, so a disabled run pays one null check per tick.
    accounting: Option<Box<CycleAccounting>>,
    // Warp traversal-coherence recorder (rt analytics); same
    // branch-on-null discipline.
    rt_analytics: Option<Box<WarpCoherence>>,
    scratch: Scratch,
}

impl Sm {
    /// Creates an SM from the GPU configuration.
    pub fn new(id: usize, config: &GpuConfig) -> Self {
        Sm {
            id,
            warps: Vec::new(),
            l1: Cache::new(config.l1.clone()),
            rtc: config.rt_cache.clone().map(Cache::new),
            rt_unit: RtUnit::new(config.rt_unit.clone()),
            waiting_lines: LineWaiters::default(),
            inflight: FxHashMap::default(),
            next_rt_job: 0,
            rt_job_map: FxHashMap::default(),
            last_warp: None,
            stall_warp: config.fault_plan.stall_warp,
            perfect_bvh: config.perfect_bvh,
            sfu_latency: config.sfu_latency,
            divergence: config.divergence,
            num_partitions: config.mem.num_partitions.max(1),
            next_req: 0,
            stats: SmCounters::new(),
            issued_lanes: 0,
            issued_insts: 0,
            trace_cycles: 0,
            tracer: None,
            accounting: None,
            rt_analytics: None,
            scratch: Scratch::default(),
        }
    }

    /// Switches on cycle-level tracing for this SM and its RT unit.
    pub fn enable_trace(&mut self, config: &TraceConfig) {
        self.tracer = Some(Box::new(SmTracer::new(config)));
        self.rt_unit.set_event_trace(true);
    }

    /// Switches on cycle accounting for this SM: from here on, every tick
    /// attributes its cycle to exactly one [`CycleCategory`].
    pub fn enable_accounting(&mut self) {
        self.accounting = Some(Box::new(CycleAccounting::new()));
    }

    /// The cycle-accounting recorder, when enabled.
    pub fn accounting(&self) -> Option<&CycleAccounting> {
        self.accounting.as_deref()
    }

    /// Switches on ray-traversal analytics for this SM: warp coherence is
    /// tallied at every `traceRay` issue and the RT unit attributes steps
    /// and latency per job.
    pub fn enable_rt_analytics(&mut self) {
        self.rt_analytics = Some(Box::new(WarpCoherence::new()));
        self.rt_unit.set_analytics(true);
    }

    /// The warp-coherence recorder, when rt analytics is enabled.
    pub fn rt_analytics(&self) -> Option<&WarpCoherence> {
        self.rt_analytics.as_deref()
    }

    /// The per-SM event recorder, when tracing is enabled. Phase B drains
    /// it through [`vksim_trace::TraceCollector::drain_sm`].
    pub fn tracer_mut(&mut self) -> Option<&mut SmTracer> {
        self.tracer.as_deref_mut()
    }

    /// The per-SM event recorder (read-only view).
    pub fn tracer(&self) -> Option<&SmTracer> {
        self.tracer.as_deref()
    }

    /// Closes every open trace span (stalls, RT-busy) at end of run.
    pub fn finalize_trace(&mut self, cycle: u64) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.finalize(cycle);
        }
    }

    /// Number of resident warps.
    pub fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    /// `true` when no warps are resident.
    pub fn is_empty(&self) -> bool {
        self.warps.is_empty()
    }

    /// The L1 data cache (statistics).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The dedicated RT cache, when configured.
    pub fn rtc(&self) -> Option<&Cache> {
        self.rtc.as_ref()
    }

    /// Admits a warp covering global threads `[base_tid, base_tid+32)` with
    /// `active` lanes.
    pub fn add_warp(&mut self, id: u32, base_tid: usize, active: Mask, program: &Program) {
        self.warps
            .push(Warp::new(id, base_tid, active, program, self.divergence));
    }

    fn alloc_req_id(&mut self) -> u64 {
        self.next_req += 1;
        ((self.id as u64) << 48) | self.next_req
    }

    /// Routes a completed backend request (id was allocated by this SM).
    pub fn on_mem_complete(&mut self, id: u64, at: u64) {
        let Some((sel, line)) = self.inflight.remove(&id) else {
            return;
        };
        if let Some(tr) = self.tracer.as_mut() {
            let partition = partition_of(line, self.num_partitions);
            tr.record(at, NO_WARP, EventKind::MshrFill { line, partition });
        }
        match sel {
            CacheSel::L1 => {
                self.l1.fill(line, at);
            }
            CacheSel::Rtc => {
                if let Some(rtc) = &mut self.rtc {
                    rtc.fill(line, at);
                }
            }
        }
        if let Some(waiters) = self.waiting_lines.lines.remove(&(sel, line)) {
            for &w in &waiters {
                match w {
                    Waiter::WarpCtx { warp, ctx } => {
                        if let Some(wp) = self.warps.iter_mut().find(|w| w.id == warp) {
                            let st = wp.ctx_mut(ctx);
                            if let CtxStatus::WaitMem { outstanding } = &mut st.status {
                                *outstanding = outstanding.saturating_sub(1);
                                if *outstanding == 0 && st.retry_chunks.is_empty() {
                                    st.status = CtxStatus::OpUntil(at);
                                    if let Some(tr) = self.tracer.as_mut() {
                                        tr.stall_end(at, warp);
                                    }
                                }
                            }
                        }
                    }
                    Waiter::RtToken(token) => {
                        self.rt_unit.on_mem_complete(token, at);
                    }
                }
            }
            self.waiting_lines.recycle(waiters);
        }
    }

    /// One core cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] when a lane faults during issue (pc out
    /// of program range, RT instruction without a runtime, corrupt
    /// acceleration structure). The SM is left as of the faulting cycle so
    /// a post-mortem snapshot reflects the failure state.
    pub fn tick(
        &mut self,
        now: u64,
        program: &Program,
        mem: &mut dyn MemIo,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<TickReport, Box<SimError>> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let report = self.tick_with(&mut scratch, now, program, mem, sink, hooks);
        self.scratch = scratch;
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn tick_with(
        &mut self,
        scratch: &mut Scratch,
        now: u64,
        program: &Program,
        mem: &mut dyn MemIo,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<TickReport, Box<SimError>> {
        // Interconnect backpressure: leftovers in the SM's request queue
        // after the previous phase-B drain mean the bounded interconnect
        // refused them. Sampled once at tick start — before this cycle's
        // own submissions land — so the reading is identical in the serial
        // and parallel engines.
        let icnt_blocked = sink.backlogged();
        if icnt_blocked {
            self.stats.inc(SmCounter::SmIcntStallCycles);
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.icnt_stall_edge(now, icnt_blocked);
        }

        // Cycle accounting: classify the would-be stall reason from
        // SM-local state sampled at tick start — before the RT unit and
        // retry passes below mutate context statuses — so the attribution
        // is identical in the serial and parallel engines (the
        // `icnt_stall_cycles` discipline). `Issued` overrides the
        // precomputed class after the issue stage.
        let stall_class = self
            .accounting
            .is_some()
            .then(|| self.classify_stall(now, icnt_blocked));

        // 1. RT unit cycle.
        let rt_finished = self.tick_rt_unit(&mut scratch.rt_done, now, sink);

        // 2. Retry stalled RT enqueues and memory-chunk retries.
        self.retry_stalled(scratch, now, sink);

        // 3. Issue one instruction from one warp context (GTO) — held
        // while the interconnect is backpressuring this SM, so the warp
        // that would issue stalls instead of growing the backlog.
        let mut issued = false;
        if !icnt_blocked {
            if let Some((warp_idx, ctx_id)) = self.pick(now) {
                self.issue(scratch, warp_idx, ctx_id, now, program, mem, sink, hooks)?;
                issued = true;
            }
        }

        if self.rt_unit.resident_warps() > 0 {
            self.trace_cycles += 1;
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.rt_busy_edge(now, self.rt_unit.resident_warps() > 0);
        }

        // Attribute this cycle to exactly one category.
        if let Some((cat, resident, eligible)) = stall_class {
            let acc = self.accounting.as_mut().expect("classified => enabled");
            acc.record(if issued { CycleCategory::Issued } else { cat });
            acc.record_occupancy(resident, eligible);
        }

        // 4. Retire finished warps.
        if let Some(tr) = self.tracer.as_mut() {
            for w in self.warps.iter().filter(|w| w.done()) {
                tr.record(now, w.id, EventKind::Retire);
            }
        }
        let before = self.warps.len();
        self.warps.retain(|w| !w.done());
        let retired = before != self.warps.len();
        Ok(TickReport {
            retired,
            progress: issued || retired || rt_finished,
        })
    }

    fn tick_rt_unit(&mut self, done: &mut Vec<WarpDone>, now: u64, sink: &mut dyn MemSink) -> bool {
        let mut port = SmRtPort {
            l1: &mut self.l1,
            rtc: self.rtc.as_mut(),
            sink,
            waiting_lines: &mut self.waiting_lines,
            inflight: &mut self.inflight,
            next_req: &mut self.next_req,
            sm_id: self.id,
            perfect_bvh: self.perfect_bvh,
            num_partitions: self.num_partitions,
            tracer: self.tracer.as_deref_mut(),
        };
        self.rt_unit.tick_into(now, &mut port, done);
        let finished = !done.is_empty();
        // Translate the RT unit's job-keyed events into warp-keyed trace
        // events *before* done jobs drop out of the map below.
        if self.tracer.is_some() {
            for ev in self.rt_unit.take_events() {
                if let Some(&(warp, _)) = self.rt_job_map.get(&ev.warp_id) {
                    let kind = match ev.kind {
                        RtUnitEventKind::Enqueue => EventKind::RtStart,
                        RtUnitEventKind::Finish { latency } => EventKind::RtFinish { latency },
                    };
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.record(ev.cycle, warp, kind);
                    }
                }
            }
        }
        for d in done.drain(..) {
            if let Some((warp, ctx)) = self.rt_job_map.remove(&d.warp_id) {
                if let Some(w) = self.warps.iter_mut().find(|w| w.id == warp) {
                    w.ctx_mut(ctx).status = CtxStatus::Ready;
                }
            }
        }
        finished
    }

    fn retry_stalled(&mut self, scratch: &mut Scratch, now: u64, sink: &mut dyn MemSink) {
        // RT warp-buffer retries: admit stalled jobs while capacity lasts,
        // oldest warp first and, within a warp, lowest ctx id first.
        let mut slots = self
            .rt_unit
            .config()
            .max_warps
            .saturating_sub(self.rt_unit.resident_warps());
        'outer: for w in &mut self.warps {
            for (ctx, st) in w.ctx_state.iter_mut() {
                if slots == 0 {
                    break 'outer;
                }
                if st.status == CtxStatus::RtPending && st.pending_rt_job.is_some() {
                    let job = st.pending_rt_job.take().expect("checked");
                    st.status = CtxStatus::InRt;
                    slots -= 1;
                    scratch.enqueues.push((w.id, *ctx, job));
                }
            }
        }
        for (warp, ctx, job) in scratch.enqueues.drain(..) {
            let job_id = job.warp_id;
            if self.rt_unit.try_enqueue(job, now) {
                self.rt_job_map.insert(job_id, (warp, ctx));
            } else {
                // Capacity raced away (shouldn't in a single-threaded
                // model); count it and leave the ctx stuck for diagnosis.
                self.stats.inc(SmCounter::RtEnqueueRace);
            }
        }

        // Memory chunk retries (L1 MSHR was full).
        for w in &self.warps {
            for (ctx, st) in &w.ctx_state {
                for &chunk in &st.retry_chunks {
                    scratch.retries.push((w.id, *ctx, chunk));
                }
            }
        }
        for (warp, ctx, chunk) in scratch.retries.drain(..) {
            let outcome = self.l1.access(chunk, AccessKind::ShaderLoad, now);
            let line = self.l1.line_of(chunk);
            let resolved = match outcome {
                CacheOutcome::Hit => Some(None),
                CacheOutcome::MissToMemory => {
                    let id = self.alloc_req_id();
                    self.inflight.insert(id, (CacheSel::L1, line));
                    sink.submit(
                        MemRequest {
                            id,
                            addr: chunk,
                            kind: AccessKind::ShaderLoad,
                            is_store: false,
                        },
                        now,
                    );
                    if let Some(tr) = self.tracer.as_mut() {
                        let partition = partition_of(line, self.num_partitions);
                        tr.record(now, warp, EventKind::MshrAlloc { line, partition });
                    }
                    Some(Some(Waiter::WarpCtx { warp, ctx }))
                }
                CacheOutcome::MissMerged => Some(Some(Waiter::WarpCtx { warp, ctx })),
                CacheOutcome::ReservationFail => None,
            };
            let Some(waiter) = resolved else { continue };
            if let Some(wtr) = waiter {
                self.waiting_lines.push((CacheSel::L1, line), wtr);
            }
            if let Some(w) = self.warps.iter_mut().find(|w| w.id == warp) {
                let st = w.ctx_mut(ctx);
                st.retry_chunks.retain(|&c| c != chunk);
                match (&mut st.status, waiter.is_some()) {
                    (CtxStatus::WaitMem { outstanding }, true) => {
                        // Already counted in outstanding.
                        let _ = outstanding;
                    }
                    (CtxStatus::WaitMem { outstanding }, false) => {
                        *outstanding = outstanding.saturating_sub(1);
                        if *outstanding == 0 && st.retry_chunks.is_empty() {
                            st.status = CtxStatus::OpUntil(now + self.l1.hit_latency() as u64);
                            if let Some(tr) = self.tracer.as_mut() {
                                tr.stall_end(now, warp);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Classifies the cycle's stall reason from tick-start state and
    /// samples the occupancy tallies. Returns
    /// `(category, resident warps, eligible warps)`; the caller swaps the
    /// category for `Issued` if the issue stage fires this cycle.
    ///
    /// Precedence among simultaneous stall sources: interconnect
    /// backpressure freezes the whole issue stage, so it wins; an empty
    /// SM is `Drained`; then scoreboard memory waits, RT-unit parking,
    /// divergence wait, and finally the pure occupancy gap.
    fn classify_stall(&self, now: u64, icnt_blocked: bool) -> (CycleCategory, u64, u64) {
        let resident = self.warps.len() as u64;
        let mut eligible = 0u64;
        let mut any_mem = false;
        let mut any_rt = false;
        let mut any_simt = false;
        for w in &self.warps {
            if w.engine.contexts().any(|c| w.ctx_issuable(c.id, now)) {
                eligible += 1;
            }
            for (_, st) in &w.ctx_state {
                match st.status {
                    CtxStatus::WaitMem { .. } => any_mem = true,
                    CtxStatus::RtPending | CtxStatus::InRt => any_rt = true,
                    _ => {}
                }
            }
            if w.engine.mid_divergence() {
                any_simt = true;
            }
        }
        let cat = if icnt_blocked {
            CycleCategory::IcntStall
        } else if resident == 0 {
            CycleCategory::Drained
        } else if any_mem {
            CycleCategory::MemStall
        } else if any_rt {
            CycleCategory::RtStall
        } else if any_simt {
            CycleCategory::SimtSync
        } else {
            CycleCategory::NoEligibleWarp
        };
        (cat, resident, eligible)
    }

    /// GTO pick: (warp index, ctx id).
    fn pick(&mut self, now: u64) -> Option<(usize, u32)> {
        let issuable_ctx = |w: &Warp| -> Option<u32> {
            w.engine
                .contexts()
                .filter(|c| w.ctx_issuable(c.id, now))
                .map(|c| c.id)
                .min()
        };
        // Greedy: stick to the last-issued warp.
        if let Some(last) = self.last_warp {
            if Some(last) != self.stall_warp {
                if let Some(idx) = self.warps.iter().position(|w| w.id == last) {
                    if let Some(ctx) = issuable_ctx(&self.warps[idx]) {
                        return Some((idx, ctx));
                    }
                }
            }
        }
        // Then oldest (resident order is launch order).
        for (idx, w) in self.warps.iter().enumerate() {
            if Some(w.id) == self.stall_warp {
                continue;
            }
            if let Some(ctx) = issuable_ctx(w) {
                self.last_warp = Some(w.id);
                return Some((idx, ctx));
            }
        }
        None
    }

    /// `true` when some SIMT context could issue at `now`. Used by the
    /// watchdog to tell a scheduler livelock (schedulable work exists but
    /// nothing issues) from blocked-on-memory states.
    pub fn has_issuable_ctx(&self, now: u64) -> bool {
        self.warps
            .iter()
            .any(|w| w.engine.contexts().any(|c| w.ctx_issuable(c.id, now)))
    }

    /// Records this SM's scheduler and memory state into a flat post-mortem
    /// snapshot: per-context pc/mask/status, MSHR and in-flight queue
    /// depths, and RT-unit occupancy.
    pub fn post_mortem(&self, snap: &mut BTreeMap<String, u64>) {
        let p = format!("sm{}", self.id);
        snap.insert(format!("{p}.resident_warps"), self.warps.len() as u64);
        snap.insert(format!("{p}.inflight_mem"), self.inflight.len() as u64);
        snap.insert(
            format!("{p}.waiting_lines"),
            self.waiting_lines.lines.len() as u64,
        );
        snap.insert(
            format!("{p}.rt.resident_warps"),
            self.rt_unit.resident_warps() as u64,
        );
        snap.insert(
            format!("{p}.rt.active_rays"),
            self.rt_unit.active_rays() as u64,
        );
        snap.insert(
            format!("{p}.rt.queued_mem"),
            self.rt_unit.queued_mem_requests() as u64,
        );
        snap.insert(
            format!("{p}.rt.inflight_mem"),
            self.rt_unit.inflight_mem_requests() as u64,
        );
        for w in &self.warps {
            for c in w.engine.contexts() {
                let cp = format!("{p}.warp{}.ctx{}", w.id, c.id);
                snap.insert(format!("{cp}.pc"), c.pc as u64);
                snap.insert(format!("{cp}.mask"), c.mask as u64);
                let code = match w.ctx(c.id).map(|s| &s.status) {
                    None | Some(CtxStatus::Ready) => 0,
                    Some(CtxStatus::OpUntil(_)) => 1,
                    Some(CtxStatus::WaitMem { .. }) => 2,
                    Some(CtxStatus::RtPending) => 3,
                    Some(CtxStatus::InRt) => 4,
                };
                snap.insert(format!("{cp}.status"), code);
            }
        }
        // Flight recorder: the last trace events before the failure, flat
        // so they survive the fault dump's counter-style encoding.
        if let Some(tr) = &self.tracer {
            for (i, ev) in tr.flight().enumerate() {
                let ep = format!("{p}.trace.ev{i}");
                snap.insert(format!("{ep}.cycle"), ev.cycle);
                snap.insert(format!("{ep}.warp"), ev.warp as u64);
                snap.insert(format!("{ep}.kind"), ev.kind.code());
                let (a, b) = ev.kind.args();
                snap.insert(format!("{ep}.a"), a);
                snap.insert(format!("{ep}.b"), b);
            }
        }
    }

    /// Serializes the SM's full dynamic state — warps, caches, RT unit,
    /// line-fill bookkeeping, counters and tracer — for a machine-state
    /// checkpoint. Config-derived fields (latencies, divergence mode,
    /// fault plan) are *not* written; [`Sm::load`] rebuilds them from the
    /// resuming configuration, which the snapshot fingerprint guarantees
    /// matches.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.warps.len());
        for w in &self.warps {
            w.save(e);
        }
        self.l1.save(e);
        match &self.rtc {
            None => e.u8(0),
            Some(rtc) => {
                e.u8(1);
                rtc.save(e);
            }
        }
        self.rt_unit.save(e);
        // HashMaps: sorted by key for a deterministic encoding; each waiter
        // list keeps its arrival order (wake-up order is load-bearing).
        let mut lines: Vec<(&(CacheSel, u64), &Vec<Waiter>)> =
            self.waiting_lines.lines.iter().collect();
        lines.sort_by_key(|(&k, _)| k);
        e.seq(lines.len());
        for (&(sel, line), waiters) in lines {
            e.u8(sel.code());
            e.u64(line);
            e.seq(waiters.len());
            for w in waiters {
                w.save(e);
            }
        }
        let mut inflight: Vec<(&u64, &(CacheSel, u64))> = self.inflight.iter().collect();
        inflight.sort_by_key(|(&id, _)| id);
        e.seq(inflight.len());
        for (&id, &(sel, line)) in inflight {
            e.u64(id);
            e.u8(sel.code());
            e.u64(line);
        }
        e.u32(self.next_rt_job);
        let mut jobs: Vec<(&u32, &(u32, u32))> = self.rt_job_map.iter().collect();
        jobs.sort_by_key(|(&id, _)| id);
        e.seq(jobs.len());
        for (&job, &(warp, ctx)) in jobs {
            e.u32(job);
            e.u32(warp);
            e.u32(ctx);
        }
        e.opt_u32(self.last_warp);
        e.u64(self.next_req);
        self.stats.save(e);
        e.u64(self.issued_lanes);
        e.u64(self.issued_insts);
        e.u64(self.trace_cycles);
        match &self.tracer {
            None => e.u8(0),
            Some(tr) => {
                e.u8(1);
                tr.save(e);
            }
        }
        match &self.accounting {
            None => e.u8(0),
            Some(acc) => {
                e.u8(1);
                acc.save(e);
            }
        }
        match &self.rt_analytics {
            None => e.u8(0),
            Some(rec) => {
                e.u8(1);
                rec.save(e);
            }
        }
    }

    /// Restores an SM written by [`Sm::save`], rebuilding config-derived
    /// fields from `config` (the fingerprint check upstream guarantees it
    /// matches the saving run's).
    ///
    /// # Errors
    ///
    /// Cache/RT geometry that disagrees with `config` — or a snapshot
    /// with/without an RT cache where the config says otherwise — is
    /// malformed.
    pub fn load(
        id: usize,
        config: &GpuConfig,
        d: &mut vksim_snapshot::Dec<'_>,
    ) -> Result<Self, vksim_snapshot::SnapError> {
        let mut sm = Sm::new(id, config);
        let n = d.seq()?;
        let mut warps = Vec::with_capacity(n);
        for _ in 0..n {
            warps.push(Warp::load(d)?);
        }
        sm.warps = warps;
        sm.l1 = Cache::load(config.l1.clone(), d)?;
        sm.rtc = match (d.u8()?, &config.rt_cache) {
            (0, None) => None,
            (1, Some(rtc_config)) => Some(Cache::load(rtc_config.clone(), d)?),
            (tag @ (0 | 1), _) => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "rt cache presence mismatch: snapshot tag {tag}, config {}",
                    if config.rt_cache.is_some() {
                        "has an rt cache"
                    } else {
                        "has none"
                    }
                )))
            }
            (t, _) => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "rt cache tag {t}"
                )))
            }
        };
        sm.rt_unit = RtUnit::load(config.rt_unit.clone(), d)?;
        sm.waiting_lines = LineWaiters::default();
        for _ in 0..d.seq()? {
            let sel = CacheSel::from_code(d.u8()?)?;
            let line = d.u64()?;
            let nw = d.seq()?;
            let mut waiters = Vec::with_capacity(nw);
            for _ in 0..nw {
                waiters.push(Waiter::load(d)?);
            }
            sm.waiting_lines.lines.insert((sel, line), waiters);
        }
        sm.inflight = FxHashMap::default();
        for _ in 0..d.seq()? {
            let req = d.u64()?;
            let sel = CacheSel::from_code(d.u8()?)?;
            let line = d.u64()?;
            sm.inflight.insert(req, (sel, line));
        }
        sm.next_rt_job = d.u32()?;
        sm.rt_job_map = FxHashMap::default();
        for _ in 0..d.seq()? {
            let job = d.u32()?;
            let warp = d.u32()?;
            let ctx = d.u32()?;
            sm.rt_job_map.insert(job, (warp, ctx));
        }
        sm.last_warp = d.opt_u32()?;
        sm.next_req = d.u64()?;
        sm.stats = SmCounters::load(d)?;
        sm.issued_lanes = d.u64()?;
        sm.issued_insts = d.u64()?;
        sm.trace_cycles = d.u64()?;
        sm.tracer = match d.u8()? {
            0 => None,
            1 => Some(Box::new(SmTracer::load(d)?)),
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "tracer tag {t}"
                )))
            }
        };
        sm.accounting = match d.u8()? {
            0 => None,
            1 => Some(Box::new(CycleAccounting::load(d)?)),
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "accounting tag {t}"
                )))
            }
        };
        sm.rt_analytics = match d.u8()? {
            0 => None,
            1 => Some(Box::new(WarpCoherence::load(d)?)),
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "rt analytics tag {t}"
                )))
            }
        };
        Ok(sm)
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        scratch: &mut Scratch,
        warp_idx: usize,
        ctx_id: u32,
        now: u64,
        program: &Program,
        mem: &mut dyn MemIo,
        sink: &mut dyn MemSink,
        hooks: &mut dyn GpuHooks,
    ) -> Result<(), Box<SimError>> {
        let warp = &mut self.warps[warp_idx];
        let Some(ctx) = warp.engine.context(ctx_id) else {
            return Ok(());
        };
        let pc = ctx.pc;
        let mask = ctx.mask;
        if pc as usize >= program.len() {
            return Err(Box::new(SimError::Exec {
                sm: self.id,
                warp: warp.id,
                lane: 0,
                pc,
                detail: format!("pc {pc} outside program of {} instructions", program.len()),
            }));
        }
        let instr = *program.fetch(pc);
        self.stats.inc(SmCounter::inst(instr.class()));
        self.issued_insts += 1;
        self.issued_lanes += mask.count_ones() as u64;
        if let Some(tr) = self.tracer.as_mut() {
            tr.issue(now, warp.id, pc, mask.count_ones());
        }

        // Execute every active lane functionally.
        let lane_effects = &mut scratch.lane_effects;
        lane_effects.clear();
        for lane in 0..WARP_SIZE {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let t = &mut warp.threads[lane];
            let eff = exec_at(program, pc, t, mem, hooks).map_err(|e| {
                Box::new(SimError::Exec {
                    sm: self.id,
                    warp: warp.id,
                    lane,
                    pc,
                    detail: e.to_string(),
                })
            })?;
            lane_effects.push((lane, eff));
        }
        let Some(&(_, first)) = lane_effects.first() else {
            return Ok(());
        };

        let warp_id = warp.id;
        match first {
            Effect::Alu | Effect::RtOther => {
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                warp.ctx_mut(ctx_id).status = CtxStatus::Ready;
            }
            Effect::Sfu => {
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                warp.ctx_mut(ctx_id).status = CtxStatus::OpUntil(now + self.sfu_latency as u64);
            }
            Effect::Ssy { reconv } => {
                warp.engine.apply(ctx_id, CtxOutcome::Ssy { reconv });
                warp.ctx_mut(ctx_id).status = CtxStatus::Ready;
            }
            Effect::Sync => {
                let info = warp.engine.apply(ctx_id, CtxOutcome::Sync);
                if info.reconverged {
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.record(now, warp_id, EventKind::Reconverge { pc });
                    }
                }
                warp.ctx_mut(ctx_id).status = CtxStatus::Ready;
            }
            Effect::Exited => {
                warp.engine.apply(ctx_id, CtxOutcome::Exit);
            }
            Effect::Branch { target, .. } => {
                let mut taken: Mask = 0;
                for &(lane, eff) in lane_effects.iter() {
                    if let Effect::Branch { taken: t, .. } = eff {
                        if t {
                            taken |= 1 << lane;
                        }
                    }
                }
                if taken != 0 && taken != mask {
                    self.stats.inc(SmCounter::DivergentBranches);
                }
                let info = warp
                    .engine
                    .apply(ctx_id, CtxOutcome::Branch { target, taken });
                if let Some(tr) = self.tracer.as_mut() {
                    if info.diverged {
                        tr.record(now, warp_id, EventKind::Diverge { pc });
                    }
                    if info.reconverged {
                        tr.record(now, warp_id, EventKind::Reconverge { pc });
                    }
                }
                warp.ctx_mut(ctx_id).status = CtxStatus::Ready;
            }
            Effect::Mem {
                space: MemSpace::Const,
                ..
            } => {
                // Constant cache: single-cycle, no traffic modelled.
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                warp.ctx_mut(ctx_id).status = CtxStatus::Ready;
            }
            Effect::Mem { is_store, .. } => {
                // Coalesce lane addresses into unique 32 B chunks.
                let unique = &mut scratch.chunks;
                unique.clear();
                for &(_, eff) in lane_effects.iter() {
                    if let Effect::Mem { addr, size, .. } = eff {
                        for c in chunks(addr, size) {
                            if !unique.contains(&c) {
                                unique.push(c);
                            }
                        }
                    }
                }
                self.stats
                    .add(SmCounter::MemCoalescedChunks, unique.len() as u64);
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                if is_store {
                    // Write-through, no stall.
                    for &c in unique.iter() {
                        self.l1.access(c, AccessKind::ShaderStore, now);
                        let id = self.alloc_req_id();
                        sink.submit(
                            MemRequest {
                                id,
                                addr: c,
                                kind: AccessKind::ShaderStore,
                                is_store: true,
                            },
                            now,
                        );
                    }
                    self.warps[warp_idx].ctx_mut(ctx_id).status = CtxStatus::Ready;
                    return Ok(());
                }
                let mut outstanding = 0u32;
                let refused = &mut scratch.refused;
                refused.clear();
                for &c in unique.iter() {
                    match self.l1.access(c, AccessKind::ShaderLoad, now) {
                        CacheOutcome::Hit => {}
                        CacheOutcome::MissToMemory => {
                            outstanding += 1;
                            let line = self.l1.line_of(c);
                            let id = self.alloc_req_id();
                            self.inflight.insert(id, (CacheSel::L1, line));
                            self.waiting_lines.push(
                                (CacheSel::L1, line),
                                Waiter::WarpCtx {
                                    warp: warp_id,
                                    ctx: ctx_id,
                                },
                            );
                            sink.submit(
                                MemRequest {
                                    id,
                                    addr: c,
                                    kind: AccessKind::ShaderLoad,
                                    is_store: false,
                                },
                                now,
                            );
                            if let Some(tr) = self.tracer.as_mut() {
                                let partition = partition_of(line, self.num_partitions);
                                tr.record(now, warp_id, EventKind::MshrAlloc { line, partition });
                            }
                        }
                        CacheOutcome::MissMerged => {
                            outstanding += 1;
                            let line = self.l1.line_of(c);
                            self.waiting_lines.push(
                                (CacheSel::L1, line),
                                Waiter::WarpCtx {
                                    warp: warp_id,
                                    ctx: ctx_id,
                                },
                            );
                        }
                        CacheOutcome::ReservationFail => {
                            outstanding += 1;
                            refused.push(c);
                        }
                    }
                }
                let st = self.warps[warp_idx].ctx_mut(ctx_id);
                if outstanding == 0 {
                    st.status = CtxStatus::OpUntil(now + self.l1.hit_latency() as u64);
                } else {
                    st.status = CtxStatus::WaitMem { outstanding };
                    st.retry_chunks.clear();
                    st.retry_chunks.extend_from_slice(refused);
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.stall_begin(now, warp_id);
                    }
                }
            }
            Effect::TraceRay => {
                // Collect the recorded traversal scripts for active lanes.
                let mut scripts = self.rt_unit.spare_script_array();
                scripts.resize_with(WARP_SIZE, Vec::new);
                for &(lane, _) in lane_effects.iter() {
                    let tid = self.warps[warp_idx].base_tid + lane;
                    scripts[lane] = hooks.take_script(tid);
                }
                if let Some(rec) = self.rt_analytics.as_mut() {
                    // Lane `l` is active at step `s` while its script still
                    // has a step to run; tallying lane counts per step gives
                    // the integer-exact warp·step integral.
                    let max_len = scripts.iter().map(Vec::len).max().unwrap_or(0);
                    rec.record_job(
                        (0..max_len).map(|s| {
                            scripts.iter().filter(|script| script.len() > s).count() as u32
                        }),
                    );
                }
                self.next_rt_job += 1;
                let job_id = self.next_rt_job;
                let job = WarpJob {
                    warp_id: job_id,
                    scripts,
                };
                self.stats.inc(SmCounter::RtTraceWarps);
                let warp = &mut self.warps[warp_idx];
                warp.engine.apply(ctx_id, CtxOutcome::Fallthrough);
                if self.rt_unit.has_capacity() {
                    let admitted = self.rt_unit.try_enqueue(job, now);
                    debug_assert!(admitted, "capacity checked");
                    self.rt_job_map.insert(job_id, (warp_id, ctx_id));
                    warp.ctx_mut(ctx_id).status = CtxStatus::InRt;
                } else {
                    // Warp buffer full: hold the job; retried each cycle.
                    self.stats.inc(SmCounter::RtEnqueueStall);
                    let st = warp.ctx_mut(ctx_id);
                    st.status = CtxStatus::RtPending;
                    st.pending_rt_job = Some(job);
                }
            }
        }
        Ok(())
    }
}

/// RT unit memory port backed by the SM's caches and the shared backend.
struct SmRtPort<'a> {
    l1: &'a mut Cache,
    rtc: Option<&'a mut Cache>,
    sink: &'a mut dyn MemSink,
    waiting_lines: &'a mut LineWaiters,
    inflight: &'a mut FxHashMap<u64, (CacheSel, u64)>,
    next_req: &'a mut u64,
    sm_id: usize,
    perfect_bvh: bool,
    num_partitions: u32,
    tracer: Option<&'a mut SmTracer>,
}

impl SmRtPort<'_> {
    fn alloc_req_id(&mut self) -> u64 {
        *self.next_req += 1;
        ((self.sm_id as u64) << 48) | *self.next_req
    }
}

impl RtMem for SmRtPort<'_> {
    fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult {
        if self.perfect_bvh {
            return RtMemResult::Ready { at: now + 1 };
        }
        let (sel, cache) = match self.rtc.as_deref_mut() {
            Some(rtc) => (CacheSel::Rtc, rtc),
            None => (CacheSel::L1, &mut *self.l1),
        };
        let line = cache.line_of(addr);
        match cache.access(addr, AccessKind::RtUnit, now) {
            CacheOutcome::Hit => RtMemResult::Ready {
                at: now + cache.hit_latency() as u64,
            },
            CacheOutcome::MissToMemory => {
                let id = self.alloc_req_id();
                self.inflight.insert(id, (sel, line));
                let token = id;
                self.waiting_lines.push((sel, line), Waiter::RtToken(token));
                if let Some(tr) = self.tracer.as_deref_mut() {
                    let partition = partition_of(line, self.num_partitions);
                    tr.record(now, NO_WARP, EventKind::MshrAlloc { line, partition });
                }
                self.sink.submit(
                    MemRequest {
                        id,
                        addr,
                        kind: AccessKind::RtUnit,
                        is_store: false,
                    },
                    now,
                );
                RtMemResult::Pending { token }
            }
            CacheOutcome::MissMerged => {
                let token = {
                    *self.next_req += 1;
                    ((self.sm_id as u64) << 48) | *self.next_req
                };
                self.waiting_lines.push((sel, line), Waiter::RtToken(token));
                RtMemResult::Pending { token }
            }
            CacheOutcome::ReservationFail => RtMemResult::Retry,
        }
    }

    fn store_chunk(&mut self, addr: u64, now: u64) {
        // Write-through traffic; no completion tracked.
        let id = self.alloc_req_id();
        self.sink.submit(
            MemRequest {
                id,
                addr,
                kind: AccessKind::ShaderStore,
                is_store: true,
            },
            now,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simt::FULL_MASK;
    use vksim_isa::ProgramBuilder;
    use vksim_mem::RequestQueue;

    /// A multipath warp with contexts 5 and 2 both waiting for the RT
    /// unit's warp buffer, which has one free slot.
    fn contended_sm() -> Sm {
        let mut config = GpuConfig::baseline();
        config.divergence = DivergenceMode::Multipath;
        config.rt_unit.max_warps = 1;
        let mut sm = Sm::new(0, &config);
        let mut b = ProgramBuilder::new();
        b.exit();
        sm.add_warp(7, 0, FULL_MASK, &b.build());
        let warp = &mut sm.warps[0];
        for (ctx, job) in [(5, 50), (2, 20)] {
            let st = warp.ctx_mut(ctx);
            st.status = CtxStatus::RtPending;
            st.pending_rt_job = Some(WarpJob {
                warp_id: job,
                scripts: vec![vec![]],
            });
        }
        sm
    }

    #[test]
    fn contexts_are_kept_in_id_order() {
        let sm = contended_sm();
        let ids: Vec<u32> = sm.warps[0].ctx_state.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [2, 5]);
    }

    /// RT admission walks contexts in ctx-id order, so the lower id wins
    /// the last warp-buffer slot on every run.
    #[test]
    fn rt_admission_prefers_the_lower_ctx_id_every_run() {
        for run in 0..8 {
            let mut sm = contended_sm();
            let mut scratch = Scratch::default();
            sm.retry_stalled(&mut scratch, 1, &mut RequestQueue::new());
            let warp = &sm.warps[0];
            let status = |ctx| warp.ctx(ctx).map(|s| s.status.clone());
            assert_eq!(status(2), Some(CtxStatus::InRt), "run {run}");
            assert_eq!(status(5), Some(CtxStatus::RtPending), "run {run}");
            assert_eq!(sm.rt_job_map.get(&20), Some(&(7, 2)), "run {run}");
            assert_eq!(sm.rt_unit.resident_warps(), 1);
        }
    }
}
