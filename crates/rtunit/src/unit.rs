//! The RT unit state machine.

use crate::{OpKind, RtStatsBundle, RtUnitConfig, Step, WarpJob, SHORT_STACK_ENTRIES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use vksim_mem::chunks;
use vksim_stats::{FxHashMap, Histogram};

vksim_stats::counter_slots! {
    /// The RT unit's event counters, reported under these names in
    /// [`RtStatsBundle::counters`].
    pub enum RtCounter => RtCounters {
        /// Chunk requests handed to the cache port.
        MemIssued = "mem.issued",
        /// Lane fetches merged into an already-queued chunk request.
        MemMerged = "mem.merged",
        /// Lane fetches deferred because the access queue was full.
        MemQueueFull = "mem.queue_full",
        /// New chunk requests entering the access queue.
        MemRequests = "mem.requests",
        /// Cache-port refusals (retried next cycle).
        MemRetry = "mem.retry",
        /// Store chunks (intersection buffer, stack spills).
        MemStores = "mem.stores",
        /// Ray-box tests.
        OpsBoxTests = "ops.box_tests",
        /// Ray transforms.
        OpsTransforms = "ops.transforms",
        /// Ray-triangle tests.
        OpsTriangleTests = "ops.triangle_tests",
        /// Rays (active lanes) admitted.
        RaysEntered = "rays_entered",
        /// Admissions refused by a full Warp Buffer.
        WarpBufferFull = "warp_buffer_full",
        /// Warps retired.
        WarpsCompleted = "warps_completed",
        /// Warps admitted.
        WarpsEntered = "warps_entered",
    }
}

/// Emptied merged-request waiter lists an RT unit keeps for reuse, and the
/// largest capacity it keeps one at. A chunk that a whole warp merged into
/// grows a long list; keeping those would hold a high-water mark of memory
/// for the rest of the run, so they are freed instead.
const SPARE_WAITER_LISTS: usize = 8;
const SPARE_WAITER_CAPACITY: usize = 8;

/// Result of handing a chunk load to the memory port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtMemResult {
    /// Data available at absolute cycle `at` (cache hit).
    Ready {
        /// Completion cycle.
        at: u64,
    },
    /// Miss in flight; [`RtUnit::on_mem_complete`] will be called with
    /// `token`.
    Pending {
        /// Correlation token chosen by the port.
        token: u64,
    },
    /// No resources (MSHR full); retry next cycle.
    Retry,
}

/// Memory port the RT unit issues 32 B chunk requests through — backed by
/// the SM's L1D or a dedicated RT cache (paper §III-C3).
pub trait RtMem {
    /// Issues a chunk read at `now`.
    fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult;
    /// Issues a fire-and-forget chunk write at `now`.
    fn store_chunk(&mut self, addr: u64, now: u64);
}

/// A completed warp notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpDone {
    /// The identifier given in [`WarpJob::warp_id`].
    pub warp_id: u32,
    /// Cycles the warp was resident in the RT unit.
    pub latency: u64,
}

/// What a traced RT-unit event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtUnitEventKind {
    /// A warp job entered the Warp Buffer.
    Enqueue,
    /// A warp job retired after `latency` resident cycles.
    Finish {
        /// Resident latency in cycles.
        latency: u64,
    },
}

/// One traced RT-unit timeline event, recorded at the source so warp
/// attribution survives even when the SM's job bookkeeping has moved on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtUnitEvent {
    /// Cycle the event occurred on.
    pub cycle: u64,
    /// The [`WarpJob::warp_id`] of the affected job.
    pub warp_id: u32,
    /// What happened.
    pub kind: RtUnitEventKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaneState {
    /// Next step may issue.
    Ready,
    /// Waiting for outstanding memory chunks.
    WaitMem,
    /// In an operation-unit pipeline until the given cycle.
    InOp(u64),
    /// Script finished; lane idles until the warp completes.
    Done,
}

#[derive(Clone, Debug)]
struct Lane {
    script: Vec<Step>,
    next: usize,
    state: LaneState,
    outstanding_chunks: u32,
    pending_op: OpKind,
}

impl Lane {
    fn new(script: Vec<Step>) -> Self {
        let state = if script.is_empty() {
            LaneState::Done
        } else {
            LaneState::Ready
        };
        Lane {
            script,
            next: 0,
            state,
            outstanding_chunks: 0,
            pending_op: OpKind::None,
        }
    }

    fn current_step(&self) -> Option<Step> {
        self.script.get(self.next).copied()
    }

    fn advance(&mut self) {
        self.next += 1;
        self.state = if self.next >= self.script.len() {
            LaneState::Done
        } else {
            LaneState::Ready
        };
    }
}

#[derive(Clone, Debug)]
struct WarpSlot {
    warp_id: u32,
    lanes: Vec<Lane>,
    entered_at: u64,
    arrival: u64,
}

// A merged memory-access-queue entry: one chunk address, many waiting lanes.
#[derive(Clone, Debug)]
struct QueuedReq {
    addr: u64,
    waiters: Vec<(u32, usize)>, // (warp_id, lane)
}

impl LaneState {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        match *self {
            LaneState::Ready => e.u8(0),
            LaneState::WaitMem => e.u8(1),
            LaneState::InOp(done) => {
                e.u8(2);
                e.u64(done);
            }
            LaneState::Done => e.u8(3),
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        Ok(match d.u8()? {
            0 => LaneState::Ready,
            1 => LaneState::WaitMem,
            2 => LaneState::InOp(d.u64()?),
            3 => LaneState::Done,
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "lane state tag {t}"
                )))
            }
        })
    }
}

impl Lane {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.script.len());
        for step in &self.script {
            step.save(e);
        }
        e.usize(self.next);
        self.state.save(e);
        e.u32(self.outstanding_chunks);
        self.pending_op.save(e);
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let n = d.seq()?;
        let mut script = Vec::with_capacity(n);
        for _ in 0..n {
            script.push(Step::load(d)?);
        }
        Ok(Lane {
            script,
            next: d.usize()?,
            state: LaneState::load(d)?,
            outstanding_chunks: d.u32()?,
            pending_op: OpKind::load(d)?,
        })
    }
}

impl WarpSlot {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u32(self.warp_id);
        e.seq(self.lanes.len());
        for lane in &self.lanes {
            lane.save(e);
        }
        e.u64(self.entered_at);
        e.u64(self.arrival);
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let warp_id = d.u32()?;
        let n = d.seq()?;
        let mut lanes = Vec::with_capacity(n);
        for _ in 0..n {
            lanes.push(Lane::load(d)?);
        }
        Ok(WarpSlot {
            warp_id,
            lanes,
            entered_at: d.u64()?,
            arrival: d.u64()?,
        })
    }
}

impl QueuedReq {
    fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u64(self.addr);
        e.seq(self.waiters.len());
        for &(warp_id, lane) in &self.waiters {
            e.u32(warp_id);
            e.usize(lane);
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let addr = d.u64()?;
        let n = d.seq()?;
        let mut waiters = Vec::with_capacity(n);
        for _ in 0..n {
            let warp_id = d.u32()?;
            waiters.push((warp_id, d.usize()?));
        }
        Ok(QueuedReq { addr, waiters })
    }
}

/// Per-job step/latency attribution for the rt-analytics layer: script
/// steps attributed to each in-flight job while it runs, folded into the
/// aggregate tallies when the job retires. Allocated only while analytics
/// is enabled, so the default path pays one branch per hook.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtUnitAnalytics {
    /// Jobs retired.
    pub jobs: u64,
    /// Script steps fully consumed by retired and in-flight jobs.
    pub steps: u64,
    /// Σ enqueue→retire latency over retired jobs, in cycles.
    pub latency_total: u64,
    /// Steps consumed so far by each in-flight job.
    live: FxHashMap<u32, u64>,
}

impl RtUnitAnalytics {
    fn on_enqueue(&mut self, warp_id: u32) {
        self.live.insert(warp_id, 0);
    }

    fn on_step(&mut self, warp_id: u32) {
        self.steps += 1;
        *self.live.entry(warp_id).or_default() += 1;
    }

    fn on_retire(&mut self, warp_id: u32, latency: u64) {
        self.live.remove(&warp_id);
        self.jobs += 1;
        self.latency_total += latency;
    }

    fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.u64(self.jobs);
        e.u64(self.steps);
        e.u64(self.latency_total);
        let mut live: Vec<(&u32, &u64)> = self.live.iter().collect();
        live.sort_unstable_by_key(|(id, _)| **id);
        e.seq(live.len());
        for (id, steps) in live {
            e.u32(*id);
            e.u64(*steps);
        }
    }

    fn load(d: &mut vksim_snapshot::Dec<'_>) -> Result<Self, vksim_snapshot::SnapError> {
        let jobs = d.u64()?;
        let steps = d.u64()?;
        let latency_total = d.u64()?;
        let mut live = FxHashMap::default();
        for _ in 0..d.seq()? {
            let id = d.u32()?;
            live.insert(id, d.u64()?);
        }
        Ok(RtUnitAnalytics {
            jobs,
            steps,
            latency_total,
            live,
        })
    }
}

/// The per-SM ray-tracing accelerator.
///
/// Drive it with [`RtUnit::try_enqueue`], one [`RtUnit::tick`] per core
/// cycle, and [`RtUnit::on_mem_complete`] when the memory system finishes a
/// pending chunk.
#[derive(Debug)]
pub struct RtUnit {
    config: RtUnitConfig,
    warps: Vec<WarpSlot>,
    mem_queue: VecDeque<QueuedReq>,
    // Chunk addresses already in the queue (for merging).
    inflight: FxHashMap<u64, QueuedReq>,
    ready_heap: BinaryHeap<Reverse<(u64, u64)>>, // (ready_at, key into ready_store)
    ready_store: FxHashMap<u64, QueuedReq>,
    ready_seq: u64,
    last_warp: Option<u32>,
    arrivals: u64,
    stats: RtCounters,
    warp_latency: Histogram,
    active_ray_cycles: u64,
    busy_cycles: u64,
    resident_warp_cycles: u64,
    occupancy_trace: Vec<(u64, u32, u32)>, // (cycle, warps, active rays) sampled
    sample_period: u64,
    // Timeline event buffer, allocated only while tracing is enabled.
    events: Option<Vec<RtUnitEvent>>,
    // Per-job attribution, allocated only while rt analytics is enabled.
    analytics: Option<Box<RtUnitAnalytics>>,
    // Emptied buffers kept for reuse, so steady-state admission and
    // retirement do not allocate. They hold no state and are not saved.
    // Lane and script arrays are bounded by the warp buffer, waiter lists
    // by `SPARE_WAITER_LISTS`.
    spare_lanes: Vec<Vec<Lane>>,
    spare_scripts: Vec<Vec<Vec<Step>>>,
    spare_waiters: Vec<Vec<(u32, usize)>>,
}

/// Snapshot of RT-unit statistics.
pub type RtUnitStats = RtStatsBundle;

impl RtUnit {
    /// Creates an empty RT unit.
    pub fn new(config: RtUnitConfig) -> Self {
        RtUnit {
            config,
            warps: Vec::new(),
            mem_queue: VecDeque::new(),
            inflight: FxHashMap::default(),
            ready_heap: BinaryHeap::new(),
            ready_store: FxHashMap::default(),
            ready_seq: 0,
            last_warp: None,
            arrivals: 0,
            stats: RtCounters::new(),
            warp_latency: Histogram::new(1000.0),
            active_ray_cycles: 0,
            busy_cycles: 0,
            resident_warp_cycles: 0,
            occupancy_trace: Vec::new(),
            sample_period: 256,
            events: None,
            analytics: None,
            spare_lanes: Vec::new(),
            spare_scripts: Vec::new(),
            spare_waiters: Vec::new(),
        }
    }

    /// An empty per-lane script array for the next [`WarpJob`]: one whose
    /// contents an earlier [`RtUnit::try_enqueue`] consumed, when there is
    /// one, so building a job does not allocate the outer array.
    pub fn spare_script_array(&mut self) -> Vec<Vec<Step>> {
        self.spare_scripts.pop().unwrap_or_default()
    }

    /// Enables (or disables) timeline event recording. Off by default.
    pub fn set_event_trace(&mut self, enabled: bool) {
        self.events = if enabled { Some(Vec::new()) } else { None };
    }

    /// Enables (or disables) per-job step/latency attribution. Off by
    /// default.
    pub fn set_analytics(&mut self, enabled: bool) {
        self.analytics = if enabled { Some(Box::default()) } else { None };
    }

    /// The per-job attribution recorder, when analytics is enabled.
    pub fn analytics(&self) -> Option<&RtUnitAnalytics> {
        self.analytics.as_deref()
    }

    /// Drains recorded enqueue/finish timeline events.
    pub fn take_events(&mut self) -> Vec<RtUnitEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The configuration in use.
    pub fn config(&self) -> &RtUnitConfig {
        &self.config
    }

    /// `true` when another warp can enter the Warp Buffer.
    pub fn has_capacity(&self) -> bool {
        self.warps.len() < self.config.max_warps
    }

    /// Number of resident warps.
    pub fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    /// Rays still traversing (not Done) across resident warps.
    pub fn active_rays(&self) -> u32 {
        self.warps
            .iter()
            .flat_map(|w| &w.lanes)
            .filter(|l| l.state != LaneState::Done)
            .count() as u32
    }

    /// Memory requests waiting in the scheduler queue (post-mortem dumps).
    pub fn queued_mem_requests(&self) -> usize {
        self.mem_queue.len()
    }

    /// Memory requests issued and awaiting completion (post-mortem dumps).
    pub fn inflight_mem_requests(&self) -> usize {
        self.inflight.len()
    }

    /// Attempts to admit a warp; returns `false` when the Warp Buffer is
    /// full (the SM must retry — the `traverseAS` issue stalls).
    pub fn try_enqueue(&mut self, mut job: WarpJob, now: u64) -> bool {
        if !self.has_capacity() {
            self.stats.inc(RtCounter::WarpBufferFull);
            return false;
        }
        self.arrivals += 1;
        self.stats.inc(RtCounter::WarpsEntered);
        self.stats
            .add(RtCounter::RaysEntered, job.active_lanes() as u64);
        if let Some(buf) = self.events.as_mut() {
            buf.push(RtUnitEvent {
                cycle: now,
                warp_id: job.warp_id,
                kind: RtUnitEventKind::Enqueue,
            });
        }
        if let Some(a) = self.analytics.as_mut() {
            a.on_enqueue(job.warp_id);
        }
        let mut lanes = self.spare_lanes.pop().unwrap_or_default();
        lanes.extend(job.scripts.drain(..).map(Lane::new));
        self.spare_scripts.push(job.scripts);
        self.warps.push(WarpSlot {
            warp_id: job.warp_id,
            lanes,
            entered_at: now,
            arrival: self.arrivals,
        });
        true
    }

    /// Memory system callback for a pending chunk issued earlier.
    pub fn on_mem_complete(&mut self, token: u64, now: u64) {
        if let Some(req) = self.inflight.remove(&token) {
            self.finish_chunk(req, now);
        }
    }

    fn finish_chunk(&mut self, req: QueuedReq, now: u64) {
        let cfg = self.config.clone();
        let mut waiters = req.waiters;
        for &(warp_id, lane_idx) in &waiters {
            if let Some(w) = self.warps.iter_mut().find(|w| w.warp_id == warp_id) {
                let lane = &mut w.lanes[lane_idx];
                if lane.state != LaneState::WaitMem {
                    continue;
                }
                lane.outstanding_chunks = lane.outstanding_chunks.saturating_sub(1);
                if lane.outstanding_chunks == 0 {
                    // Data complete: enter the operation unit.
                    let lat = match lane.pending_op {
                        OpKind::Box { .. } => cfg.box_latency,
                        OpKind::Triangle => cfg.triangle_latency,
                        OpKind::Transform => cfg.transform_latency,
                        OpKind::None => 1,
                    } as u64;
                    match lane.pending_op {
                        OpKind::Box { tests } => {
                            self.stats.add(RtCounter::OpsBoxTests, tests as u64)
                        }
                        OpKind::Triangle => self.stats.inc(RtCounter::OpsTriangleTests),
                        OpKind::Transform => self.stats.inc(RtCounter::OpsTransforms),
                        OpKind::None => {}
                    }
                    lane.state = LaneState::InOp(now + lat);
                }
            }
        }
        if self.spare_waiters.len() < SPARE_WAITER_LISTS
            && waiters.capacity() <= SPARE_WAITER_CAPACITY
        {
            waiters.clear();
            self.spare_waiters.push(waiters);
        }
    }

    /// Advances one cycle; returns warps that completed this cycle.
    pub fn tick(&mut self, now: u64, mem: &mut dyn RtMem) -> Vec<WarpDone> {
        let mut done = Vec::new();
        self.tick_into(now, mem, &mut done);
        done
    }

    /// [`RtUnit::tick`] that appends the completed warps to `done` (a
    /// caller-owned buffer, so the cycle loop does not allocate).
    pub fn tick_into(&mut self, now: u64, mem: &mut dyn RtMem, done: &mut Vec<WarpDone>) {
        // 0. Hit-latency completions that became ready.
        while let Some(&Reverse((at, key))) = self.ready_heap.peek() {
            if at > now {
                break;
            }
            self.ready_heap.pop();
            if let Some(req) = self.ready_store.remove(&key) {
                self.finish_chunk(req, now);
            }
        }

        // 1. Operation-unit completions.
        for w in &mut self.warps {
            for lane in &mut w.lanes {
                if let LaneState::InOp(done) = lane.state {
                    if done <= now {
                        lane.advance();
                        if let Some(a) = self.analytics.as_mut() {
                            a.on_step(w.warp_id);
                        }
                    }
                }
            }
        }

        // 2. Warp scheduling: greedy-then-oldest.
        if let Some(wid) = self.pick_warp() {
            self.last_warp = Some(wid);
            self.schedule_memory(wid, mem, now);
        }

        // 3. Issue from the Memory Access Queue to the cache.
        for _ in 0..self.config.issue_per_cycle {
            let Some(req) = self.mem_queue.front() else {
                break;
            };
            let addr = req.addr;
            match mem.load_chunk(addr, now) {
                RtMemResult::Ready { at } => {
                    let req = self.mem_queue.pop_front().expect("nonempty");
                    self.ready_seq += 1;
                    let key = self.ready_seq;
                    self.ready_store.insert(key, req);
                    self.ready_heap.push(Reverse((at.max(now + 1), key)));
                    self.stats.inc(RtCounter::MemIssued);
                }
                RtMemResult::Pending { token } => {
                    let req = self.mem_queue.pop_front().expect("nonempty");
                    self.inflight.insert(token, req);
                    self.stats.inc(RtCounter::MemIssued);
                }
                RtMemResult::Retry => {
                    self.stats.inc(RtCounter::MemRetry);
                    break;
                }
            }
        }

        // 4. Retire finished warps.
        let mut i = 0;
        while i < self.warps.len() {
            if self.warps[i]
                .lanes
                .iter()
                .all(|l| l.state == LaneState::Done)
            {
                let mut w = self.warps.remove(i);
                w.lanes.clear();
                self.spare_lanes.push(w.lanes);
                let latency = now.saturating_sub(w.entered_at).max(1);
                self.warp_latency.record(latency as f64);
                self.stats.inc(RtCounter::WarpsCompleted);
                if let Some(buf) = self.events.as_mut() {
                    buf.push(RtUnitEvent {
                        cycle: now,
                        warp_id: w.warp_id,
                        kind: RtUnitEventKind::Finish { latency },
                    });
                }
                if let Some(a) = self.analytics.as_mut() {
                    a.on_retire(w.warp_id, latency);
                }
                done.push(WarpDone {
                    warp_id: w.warp_id,
                    latency,
                });
            } else {
                i += 1;
            }
        }

        // 5. Statistics sampling.
        if !self.warps.is_empty() {
            self.busy_cycles += 1;
            self.resident_warp_cycles += self.warps.len() as u64;
            self.active_ray_cycles += self.active_rays() as u64;
        }
        if now.is_multiple_of(self.sample_period) {
            self.occupancy_trace
                .push((now, self.warps.len() as u32, self.active_rays()));
        }
    }

    fn pick_warp(&self) -> Option<u32> {
        let schedulable = |w: &WarpSlot| w.lanes.iter().any(|l| l.state == LaneState::Ready);
        // Greedy: stick with the last warp while it has ready lanes.
        if let Some(last) = self.last_warp {
            if let Some(w) = self.warps.iter().find(|w| w.warp_id == last) {
                if schedulable(w) {
                    return Some(last);
                }
            }
        }
        // Then oldest (smallest arrival stamp).
        self.warps
            .iter()
            .filter(|w| schedulable(w))
            .min_by_key(|w| w.arrival)
            .map(|w| w.warp_id)
    }

    /// Collects memory requests from all ready lanes of the selected warp,
    /// merging identical chunk addresses (the paper's Memory Scheduler).
    fn schedule_memory(&mut self, warp_id: u32, mem: &mut dyn RtMem, now: u64) {
        let Some(w_idx) = self.warps.iter().position(|w| w.warp_id == warp_id) else {
            return;
        };
        let lanes = self.warps[w_idx].lanes.len();
        for lane_idx in 0..lanes {
            let lane = &self.warps[w_idx].lanes[lane_idx];
            if lane.state != LaneState::Ready {
                continue;
            }
            match lane.current_step() {
                Some(Step::Store { addr, size }) => {
                    // Fire-and-forget store traffic (intersection buffer,
                    // stack spill); the lane advances after one cycle.
                    for chunk in chunks(addr, size) {
                        mem.store_chunk(chunk, now);
                        self.stats.inc(RtCounter::MemStores);
                    }
                    let lane = &mut self.warps[w_idx].lanes[lane_idx];
                    lane.state = LaneState::InOp(now + 1);
                }
                Some(Step::Fetch { addr, size, op }) => {
                    let lane_chunks = chunks(addr, size);
                    // Only commit the lane if every chunk fits in the queue
                    // (or merges with an existing entry). The queue is small
                    // (MSHR-sized), so a linear scan is fine.
                    let new_needed = lane_chunks
                        .clone()
                        .filter(|&c| !self.mem_queue.iter().any(|r| r.addr == c))
                        .count();
                    if self.mem_queue.len() + new_needed > self.config.mem_queue {
                        self.stats.inc(RtCounter::MemQueueFull);
                        continue;
                    }
                    for chunk in lane_chunks.clone() {
                        match self.mem_queue.iter_mut().find(|r| r.addr == chunk) {
                            Some(req) => {
                                req.waiters.push((warp_id, lane_idx));
                                self.stats.inc(RtCounter::MemMerged);
                            }
                            None => {
                                let mut waiters = self.spare_waiters.pop().unwrap_or_default();
                                waiters.push((warp_id, lane_idx));
                                self.mem_queue.push_back(QueuedReq {
                                    addr: chunk,
                                    waiters,
                                });
                                self.stats.inc(RtCounter::MemRequests);
                            }
                        }
                    }
                    let lane = &mut self.warps[w_idx].lanes[lane_idx];
                    lane.state = LaneState::WaitMem;
                    lane.outstanding_chunks = lane_chunks.count() as u32;
                    lane.pending_op = op;
                }
                None => {}
            }
        }
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> RtUnitStats {
        RtStatsBundle {
            counters: self.stats.to_counters(),
            warp_latency: self.warp_latency.clone(),
            active_ray_cycles: self.active_ray_cycles,
            busy_cycles: self.busy_cycles,
            resident_warp_cycles: self.resident_warp_cycles,
        }
    }

    /// The event counters, by slot (allocation-free; [`RtUnit::stats`]
    /// names them).
    pub fn counters(&self) -> &RtCounters {
        &self.stats
    }

    /// Sampled `(cycle, resident warps, active rays)` occupancy timeline
    /// (Fig. 18).
    pub fn occupancy_trace(&self) -> &[(u64, u32, u32)] {
        &self.occupancy_trace
    }

    /// RT-unit SIMT efficiency: mean active rays per busy cycle over the
    /// maximum lane count (paper §VI-B, 32-lane warps).
    pub fn simt_efficiency(&self, lanes_per_warp: u32) -> f64 {
        if self.busy_cycles == 0 || self.resident_warp_cycles == 0 {
            return 0.0;
        }
        let max_rays = self.resident_warp_cycles as f64 * lanes_per_warp as f64;
        self.active_ray_cycles as f64 / max_rays
    }

    /// `true` when no warps are resident and no memory is outstanding.
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty() && self.inflight.is_empty() && self.mem_queue.is_empty()
    }

    /// Serializes the unit's in-flight occupancy — resident warps with
    /// their per-lane script positions, the memory access queue, pending
    /// and ready requests, scheduler state — plus statistics, for a
    /// machine-state snapshot. Insertion-ordered containers are written in
    /// order (warp/queue order feeds the GTO scheduler); hash maps are
    /// sorted by key and the ready heap by `(ready_at, key)`, so
    /// re-encoding a restored unit is byte-identical. Configuration is
    /// rebuilt from the resuming config, not the file.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.warps.len());
        for w in &self.warps {
            w.save(e);
        }
        e.seq(self.mem_queue.len());
        for req in &self.mem_queue {
            req.save(e);
        }
        let mut inflight: Vec<(&u64, &QueuedReq)> = self.inflight.iter().collect();
        inflight.sort_unstable_by_key(|(token, _)| **token);
        e.seq(inflight.len());
        for (token, req) in inflight {
            e.u64(*token);
            req.save(e);
        }
        let mut heap: Vec<(u64, u64)> = self.ready_heap.iter().map(|r| r.0).collect();
        heap.sort_unstable();
        e.seq(heap.len());
        for (at, key) in heap {
            e.u64(at);
            e.u64(key);
        }
        let mut store: Vec<(&u64, &QueuedReq)> = self.ready_store.iter().collect();
        store.sort_unstable_by_key(|(key, _)| **key);
        e.seq(store.len());
        for (key, req) in store {
            e.u64(*key);
            req.save(e);
        }
        e.u64(self.ready_seq);
        e.opt_u32(self.last_warp);
        e.u64(self.arrivals);
        self.stats.save(e);
        self.warp_latency.save(e);
        e.u64(self.active_ray_cycles);
        e.u64(self.busy_cycles);
        e.u64(self.resident_warp_cycles);
        e.seq(self.occupancy_trace.len());
        for &(cycle, warps, rays) in &self.occupancy_trace {
            e.u64(cycle);
            e.u32(warps);
            e.u32(rays);
        }
        match &self.events {
            None => e.u8(0),
            Some(buf) => {
                e.u8(1);
                e.seq(buf.len());
                for ev in buf {
                    e.u64(ev.cycle);
                    e.u32(ev.warp_id);
                    match ev.kind {
                        RtUnitEventKind::Enqueue => e.u8(0),
                        RtUnitEventKind::Finish { latency } => {
                            e.u8(1);
                            e.u64(latency);
                        }
                    }
                }
            }
        }
        match &self.analytics {
            None => e.u8(0),
            Some(a) => {
                e.u8(1);
                a.save(e);
            }
        }
    }

    /// Restores a unit written by [`RtUnit::save`] under `config`.
    ///
    /// # Errors
    ///
    /// Propagates decoder errors on truncated or malformed payloads.
    pub fn load(
        config: RtUnitConfig,
        d: &mut vksim_snapshot::Dec<'_>,
    ) -> Result<Self, vksim_snapshot::SnapError> {
        let mut rt = RtUnit::new(config);
        let n = d.seq()?;
        rt.warps = Vec::with_capacity(n);
        for _ in 0..n {
            rt.warps.push(WarpSlot::load(d)?);
        }
        let nq = d.seq()?;
        rt.mem_queue = VecDeque::with_capacity(nq);
        for _ in 0..nq {
            rt.mem_queue.push_back(QueuedReq::load(d)?);
        }
        let ni = d.seq()?;
        rt.inflight = FxHashMap::with_capacity_and_hasher(ni, Default::default());
        for _ in 0..ni {
            let token = d.u64()?;
            rt.inflight.insert(token, QueuedReq::load(d)?);
        }
        let nh = d.seq()?;
        rt.ready_heap = BinaryHeap::with_capacity(nh);
        for _ in 0..nh {
            let at = d.u64()?;
            rt.ready_heap.push(Reverse((at, d.u64()?)));
        }
        let ns = d.seq()?;
        rt.ready_store = FxHashMap::with_capacity_and_hasher(ns, Default::default());
        for _ in 0..ns {
            let key = d.u64()?;
            rt.ready_store.insert(key, QueuedReq::load(d)?);
        }
        rt.ready_seq = d.u64()?;
        rt.last_warp = d.opt_u32()?;
        rt.arrivals = d.u64()?;
        rt.stats = RtCounters::load(d)?;
        rt.warp_latency = Histogram::load(d)?;
        rt.active_ray_cycles = d.u64()?;
        rt.busy_cycles = d.u64()?;
        rt.resident_warp_cycles = d.u64()?;
        let no = d.seq()?;
        rt.occupancy_trace = Vec::with_capacity(no);
        for _ in 0..no {
            let cycle = d.u64()?;
            let warps = d.u32()?;
            rt.occupancy_trace.push((cycle, warps, d.u32()?));
        }
        rt.events = match d.u8()? {
            0 => None,
            1 => {
                let ne = d.seq()?;
                let mut buf = Vec::with_capacity(ne);
                for _ in 0..ne {
                    let cycle = d.u64()?;
                    let warp_id = d.u32()?;
                    let kind = match d.u8()? {
                        0 => RtUnitEventKind::Enqueue,
                        1 => RtUnitEventKind::Finish { latency: d.u64()? },
                        t => {
                            return Err(vksim_snapshot::SnapError::Malformed(format!(
                                "rt event tag {t}"
                            )))
                        }
                    };
                    buf.push(RtUnitEvent {
                        cycle,
                        warp_id,
                        kind,
                    });
                }
                Some(buf)
            }
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "rt event trace tag {t}"
                )))
            }
        };
        rt.analytics = match d.u8()? {
            0 => None,
            1 => Some(Box::new(RtUnitAnalytics::load(d)?)),
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "rt analytics tag {t}"
                )))
            }
        };
        Ok(rt)
    }
}

/// Computes stack-spill traffic: given a sequence of stack depths reached by
/// pushes/pops, returns `(spill_stores, spill_loads)` for a short stack of
/// [`SHORT_STACK_ENTRIES`] entries (paper §III-C2).
pub fn short_stack_spills(depth_trace: &[u32]) -> (u32, u32) {
    let mut stores = 0;
    let mut loads = 0;
    let mut prev = 0u32;
    for &d in depth_trace {
        if d > SHORT_STACK_ENTRIES && d > prev {
            stores += d - prev.max(SHORT_STACK_ENTRIES);
        }
        if prev > SHORT_STACK_ENTRIES && d < prev {
            loads += prev.min(prev) - d.max(SHORT_STACK_ENTRIES).min(prev);
        }
        prev = d;
    }
    (stores, loads)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Memory stub: every load hits after `lat` cycles.
    struct FlatMem {
        lat: u64,
        loads: Vec<u64>,
        stores: Vec<u64>,
    }

    impl FlatMem {
        fn new(lat: u64) -> Self {
            FlatMem {
                lat,
                loads: Vec::new(),
                stores: Vec::new(),
            }
        }
    }

    impl RtMem for FlatMem {
        fn load_chunk(&mut self, addr: u64, now: u64) -> RtMemResult {
            self.loads.push(addr);
            RtMemResult::Ready { at: now + self.lat }
        }
        fn store_chunk(&mut self, addr: u64, _now: u64) {
            self.stores.push(addr);
        }
    }

    fn fetch(addr: u64, size: u32) -> Step {
        Step::Fetch {
            addr,
            size,
            op: OpKind::Box { tests: 6 },
        }
    }

    fn run_until_done(rt: &mut RtUnit, mem: &mut FlatMem, limit: u64) -> Vec<(u64, WarpDone)> {
        let mut done = Vec::new();
        for now in 0..limit {
            for d in rt.tick(now, mem) {
                done.push((now, d));
            }
            if rt.is_idle() {
                break;
            }
        }
        done
    }

    #[test]
    fn single_warp_single_step_completes() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        let job = WarpJob {
            warp_id: 7,
            scripts: vec![vec![fetch(0x1000, 64)]],
        };
        assert!(rt.try_enqueue(job, 0));
        let mut mem = FlatMem::new(20);
        let done = run_until_done(&mut rt, &mut mem, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.warp_id, 7);
        // 64 B = 2 chunks.
        assert_eq!(mem.loads.len(), 2);
        assert!(done[0].1.latency >= 20, "must include memory latency");
    }

    /// Per-job attribution ties steps to script lengths and latency to the
    /// retire report, and survives a mid-flight save/load byte-identically.
    #[test]
    fn analytics_attributes_steps_and_latency_per_job() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.set_analytics(true);
        let job = WarpJob {
            warp_id: 3,
            scripts: vec![
                vec![fetch(0x1000, 32), fetch(0x2000, 32)],
                vec![fetch(0x1000, 32)],
                Vec::new(),
            ],
        };
        assert!(rt.try_enqueue(job, 0));
        let mut mem = FlatMem::new(5);

        // Save mid-flight after a couple of cycles; the live map rides the
        // snapshot and re-encodes byte-identically.
        rt.tick(0, &mut mem);
        rt.tick(1, &mut mem);
        let mut e = vksim_snapshot::Enc::new();
        rt.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let restored = RtUnit::load(RtUnitConfig::default(), &mut d).unwrap();
        d.finish().unwrap();
        let mut e2 = vksim_snapshot::Enc::new();
        restored.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);

        let done = {
            let mut done = Vec::new();
            for now in 2..10_000 {
                for f in rt.tick(now, &mut mem) {
                    done.push((now, f));
                }
                if rt.is_idle() {
                    break;
                }
            }
            done
        };
        assert_eq!(done.len(), 1);
        let a = rt.analytics().expect("analytics enabled");
        assert_eq!(a.jobs, 1);
        assert_eq!(a.steps, 3, "one step per script entry across lanes");
        assert_eq!(a.latency_total, done[0].1.latency);
        let disabled = RtUnit::new(RtUnitConfig::default());
        assert!(disabled.analytics().is_none());
    }

    #[test]
    fn warp_buffer_capacity_enforced() {
        let mut rt = RtUnit::new(RtUnitConfig {
            max_warps: 2,
            ..Default::default()
        });
        for i in 0..2 {
            assert!(rt.try_enqueue(
                WarpJob {
                    warp_id: i,
                    scripts: vec![vec![fetch(0, 32)]]
                },
                0
            ));
        }
        assert!(!rt.try_enqueue(
            WarpJob {
                warp_id: 9,
                scripts: vec![vec![fetch(0, 32)]]
            },
            0
        ));
        assert_eq!(rt.resident_warps(), 2);
    }

    #[test]
    fn identical_addresses_merge_within_warp() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        // 4 lanes all fetching the same node (the BVH-root pattern from the
        // paper's DRAM discussion).
        let scripts = vec![vec![fetch(0x2000, 32)]; 4];
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(10);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(mem.loads.len(), 1, "one merged request for 4 lanes");
        let s = rt.stats();
        assert_eq!(s.counters.get("mem.merged"), 3);
        assert_eq!(s.counters.get("mem.requests"), 1);
    }

    #[test]
    fn divergent_addresses_do_not_merge() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        let scripts: Vec<Vec<Step>> = (0..4)
            .map(|i| vec![fetch(0x3000 + i * 0x100, 32)])
            .collect();
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(10);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(mem.loads.len(), 4);
    }

    #[test]
    fn stores_fire_and_forget() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        let scripts = vec![vec![
            Step::Store {
                addr: 0x4000,
                size: 32,
            },
            fetch(0x5000, 32),
        ]];
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(5);
        let done = run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(mem.stores, vec![0x4000]);
        assert_eq!(mem.loads, vec![0x5000]);
    }

    #[test]
    fn pending_memory_resolves_via_callback() {
        struct PendingMem {
            next_token: u64,
            outstanding: Vec<u64>,
        }
        impl RtMem for PendingMem {
            fn load_chunk(&mut self, _addr: u64, _now: u64) -> RtMemResult {
                self.next_token += 1;
                self.outstanding.push(self.next_token);
                RtMemResult::Pending {
                    token: self.next_token,
                }
            }
            fn store_chunk(&mut self, _addr: u64, _now: u64) {}
        }
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 3,
                scripts: vec![vec![fetch(0x100, 32)]],
            },
            0,
        );
        let mut mem = PendingMem {
            next_token: 0,
            outstanding: vec![],
        };
        let mut now = 0;
        while mem.outstanding.is_empty() {
            now += 1;
            rt.tick(now, &mut mem);
        }
        // Deliver the completion much later.
        let token = mem.outstanding[0];
        rt.on_mem_complete(token, 500);
        let mut done = Vec::new();
        for t in 501..600 {
            done.extend(rt.tick(t, &mut mem));
        }
        assert_eq!(done.len(), 1);
        assert!(done[0].latency >= 500);
    }

    #[test]
    fn retry_stalls_queue_head() {
        struct FussyMem {
            attempts: u32,
        }
        impl RtMem for FussyMem {
            fn load_chunk(&mut self, _addr: u64, now: u64) -> RtMemResult {
                self.attempts += 1;
                if self.attempts < 5 {
                    RtMemResult::Retry
                } else {
                    RtMemResult::Ready { at: now + 1 }
                }
            }
            fn store_chunk(&mut self, _addr: u64, _now: u64) {}
        }
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![vec![fetch(0x100, 32)]],
            },
            0,
        );
        let mut mem = FussyMem { attempts: 0 };
        let mut done = Vec::new();
        for t in 0..100 {
            done.extend(rt.tick(t, &mut mem));
        }
        assert_eq!(done.len(), 1);
        assert_eq!(mem.attempts, 5);
        assert_eq!(rt.stats().counters.get("mem.retry"), 4);
    }

    #[test]
    fn gto_prefers_last_scheduled_warp() {
        // Two warps whose lanes are ready every cycle (store-only scripts,
        // no memory stalls): greedy scheduling must drain warp 0 completely
        // before touching warp 1; round-robin would interleave them.
        let mut rt = RtUnit::new(RtUnitConfig {
            max_warps: 4,
            ..Default::default()
        });
        let stores = |base: u64| -> Vec<Step> {
            (0..3)
                .map(|i| Step::Store {
                    addr: base + i * 32,
                    size: 32,
                })
                .collect()
        };
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![stores(0x1000)],
            },
            0,
        );
        rt.try_enqueue(
            WarpJob {
                warp_id: 1,
                scripts: vec![stores(0x9000)],
            },
            0,
        );
        let mut mem = FlatMem::new(1);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(mem.stores.len(), 6);
        assert!(
            mem.stores[..3].iter().all(|&a| a < 0x9000),
            "GTO must finish warp 0's stores first: {:x?}",
            mem.stores
        );
    }

    #[test]
    fn stalled_warp_yields_to_oldest_ready() {
        // GTO's "then oldest": when the greedy warp stalls on memory, the
        // oldest ready warp is scheduled instead.
        let mut rt = RtUnit::new(RtUnitConfig {
            max_warps: 4,
            ..Default::default()
        });
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![vec![fetch(0x1000, 32)]],
            },
            0,
        );
        rt.try_enqueue(
            WarpJob {
                warp_id: 1,
                scripts: vec![vec![fetch(0x9000, 32)]],
            },
            0,
        );
        let mut mem = FlatMem::new(100);
        run_until_done(&mut rt, &mut mem, 10_000);
        // Warp 1's request was issued while warp 0 waited on memory.
        assert_eq!(mem.loads, vec![0x1000, 0x9000]);
    }

    #[test]
    fn simt_efficiency_reflects_tail_threads() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        // One lane with a long script, 31 with one step: long tail.
        let mut scripts = vec![vec![fetch(0x100, 32)]; 31];
        scripts.push((0..32).map(|i| fetch(0x10_000 + i * 0x1000, 32)).collect());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts,
            },
            0,
        );
        let mut mem = FlatMem::new(30);
        run_until_done(&mut rt, &mut mem, 100_000);
        let eff = rt.simt_efficiency(32);
        assert!(eff < 0.5, "tail thread should drag efficiency down: {eff}");
        assert!(eff > 0.0);
    }

    #[test]
    fn latency_histogram_records_each_warp() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![vec![fetch(0, 32)]],
            },
            0,
        );
        let mut mem = FlatMem::new(5);
        run_until_done(&mut rt, &mut mem, 1000);
        assert_eq!(rt.stats().warp_latency.count(), 1);
    }

    #[test]
    fn event_trace_records_enqueue_and_finish() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        // Disabled by default: nothing recorded.
        rt.try_enqueue(
            WarpJob {
                warp_id: 1,
                scripts: vec![vec![fetch(0, 32)]],
            },
            0,
        );
        let mut mem = FlatMem::new(5);
        run_until_done(&mut rt, &mut mem, 1000);
        assert!(rt.take_events().is_empty());

        rt.set_event_trace(true);
        rt.try_enqueue(
            WarpJob {
                warp_id: 5,
                scripts: vec![vec![fetch(0x40, 32)]],
            },
            3,
        );
        run_until_done(&mut rt, &mut mem, 1000);
        let evs = rt.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].warp_id, 5);
        assert_eq!(evs[0].kind, RtUnitEventKind::Enqueue);
        assert_eq!(evs[0].cycle, 3);
        assert!(matches!(evs[1].kind, RtUnitEventKind::Finish { .. }));
        assert!(rt.take_events().is_empty(), "take drains the buffer");
    }

    #[test]
    fn occupancy_trace_sampled() {
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.try_enqueue(
            WarpJob {
                warp_id: 0,
                scripts: vec![(0..64).map(|i| fetch(i * 64, 32)).collect()],
            },
            0,
        );
        let mut mem = FlatMem::new(50);
        run_until_done(&mut rt, &mut mem, 100_000);
        assert!(!rt.occupancy_trace().is_empty());
    }

    #[test]
    fn snapshot_round_trips_mid_traversal() {
        // Freeze the unit mid-traversal — resident warps, queued and
        // in-flight memory, an open GTO pick — and check save -> load ->
        // save is byte-identical and the restored unit finishes exactly
        // like the original.
        let encode = |rt: &RtUnit| {
            let mut e = vksim_snapshot::Enc::new();
            rt.save(&mut e);
            e.into_bytes()
        };
        let mut rt = RtUnit::new(RtUnitConfig::default());
        rt.set_event_trace(true);
        for w in 0..2 {
            rt.try_enqueue(
                WarpJob {
                    warp_id: w,
                    scripts: (0..4)
                        .map(|i| vec![fetch(0x1000 * (w as u64 + 1) + i * 64, 32), fetch(0x40, 32)])
                        .collect(),
                },
                w as u64,
            );
        }
        let mut mem = FlatMem::new(25);
        for now in 0..6 {
            rt.tick(now, &mut mem);
        }
        assert!(!rt.is_idle(), "freeze point must be mid-traversal");

        let bytes = encode(&rt);
        let mut d = vksim_snapshot::Dec::new(&bytes);
        let mut restored = RtUnit::load(RtUnitConfig::default(), &mut d).expect("restore");
        d.finish().expect("payload fully consumed");
        assert_eq!(encode(&restored), bytes, "re-encode is byte-identical");

        // Both copies drive fresh-but-identical memory ports from here.
        let mut mem_r = FlatMem::new(25);
        let mut done = Vec::new();
        let mut done_r = Vec::new();
        for now in 6..10_000 {
            done.extend(rt.tick(now, &mut mem));
            done_r.extend(restored.tick(now, &mut mem_r));
            if rt.is_idle() && restored.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done, done_r, "restored unit completes identically");
        assert_eq!(encode(&rt), encode(&restored), "final states converge");
        assert_eq!(rt.take_events(), restored.take_events());
    }

    #[test]
    fn short_stack_spill_accounting() {
        // Depth climbs to 10: 2 spill stores; then drops to 0: 2 reloads.
        let trace: Vec<u32> = (1..=10).chain((0..10).rev()).collect();
        let (stores, loads) = short_stack_spills(&trace);
        assert_eq!(stores, 2);
        assert_eq!(loads, 2);
        // Never exceeding the short stack: no spills.
        let shallow: Vec<u32> = (1..=8).collect();
        assert_eq!(short_stack_spills(&shallow), (0, 0));
    }
}
