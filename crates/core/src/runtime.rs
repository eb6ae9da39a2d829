//! The per-thread ray-tracing runtime (RtHooks implementation).
//!
//! Backs the custom PTX instructions of Table II during execution:
//!
//! * `traverseAS` runs the functional traversal (Algorithm 2) against the
//!   scene's TLAS/BLAS, commits the closest triangle hit, collects
//!   procedural-leaf encounters into the *intersection table* for delayed
//!   shader execution, and converts the recorded trace events into the
//!   RT-unit replay script (the paper's transactions buffer);
//! * traversal results live on a per-thread stack so `traceRayEXT` can
//!   recurse (paper §III-B2);
//! * `endTraceRay` pops the stack and clears the intersection table;
//! * with FCC enabled (§IV-A), the intersection table is replaced by a
//!   per-warp *coalescing buffer*: rows of (shader ID, lane mask) built by
//!   matching shader IDs across the warp, read back through
//!   `getNextCoalescedCall`, at the cost of extra coalescing-table memory
//!   traffic in the RT unit.

use std::sync::Arc;
use vksim_bvh::traversal::{self, TraversalConfig};
use vksim_bvh::{Blas, NodeKind, ProceduralHit, Tlas, TraceEvent};
use vksim_gpu::ScriptSource;
use vksim_isa::interp::{RayDesc, RtHooks};
use vksim_isa::op::{RtIdxQuery, RtQuery};
use vksim_isa::RtError;
use vksim_math::{Ray, Vec3};
use vksim_rtunit::{OpKind, Step, SHORT_STACK_ENTRIES};
use vksim_snapshot::{Dec, Enc, SnapError};
use vksim_stats::FxHashMap;
use vksim_trace::TraversalAnalytics;

/// Vulkan ray flag bit 0: terminate on first hit (shadow rays).
pub const RAY_FLAG_TERMINATE_ON_FIRST_HIT: u32 = 1;

const WARP_SIZE: usize = 32;

/// Base of the `rt_alloc_mem` arena (below per-thread local memory at
/// 0x7000_0000).
const SHARD_ALLOC_BASE: u64 = 0x6000_0000;

/// Per-shard slice of the arena: 1 MiB per SM keeps even 48-SM configs well
/// clear of the local-memory window.
const SHARD_ALLOC_REGION: u64 = 0x10_0000;

/// Committed hit of one trace frame.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Committed {
    /// 0 = miss, 1 = triangle, 2 = committed procedural.
    kind: u32,
    t: f32,
    u: f32,
    v: f32,
    primitive_index: u32,
    instance_index: u32,
    instance_custom_index: u32,
    sbt_offset: u32,
    normal: [f32; 3],
}

/// One entry of the per-thread traversal-results stack.
#[derive(Clone, Debug)]
struct Frame {
    ray: RayDesc,
    committed: Committed,
    pending: Vec<ProceduralHit>,
}

#[derive(Clone, Debug)]
struct FccRow {
    shader_id: u32,
    /// Per-lane index into that lane's pending table.
    lane_hit: [Option<u32>; WARP_SIZE],
}

/// Aggregate functional-traversal statistics (Table IV inputs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeStats {
    /// Rays traced (`traverseAS` executions).
    pub rays: u64,
    /// Total BVH nodes visited.
    pub nodes_visited: u64,
    /// Ray-box tests.
    pub box_tests: u64,
    /// Ray-triangle tests.
    pub triangle_tests: u64,
    /// Ray transformations.
    pub transforms: u64,
    /// Procedural-leaf encounters queued.
    pub procedural_hits: u64,
    /// Committed triangle hits.
    pub triangle_hits: u64,
    /// Rays that missed everything.
    pub misses: u64,
    /// Deepest traversal stack seen.
    pub max_stack_depth: u32,
    /// Short-stack spill stores synthesized.
    pub spill_stores: u64,
    /// Short-stack spill reloads synthesized.
    pub spill_loads: u64,
}

impl RuntimeStats {
    /// Accumulates another shard's statistics into this one. All fields are
    /// sums except `max_stack_depth` (a max), so merging is commutative and
    /// independent of shard order.
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.rays += other.rays;
        self.nodes_visited += other.nodes_visited;
        self.box_tests += other.box_tests;
        self.triangle_tests += other.triangle_tests;
        self.transforms += other.transforms;
        self.procedural_hits += other.procedural_hits;
        self.triangle_hits += other.triangle_hits;
        self.misses += other.misses;
        self.max_stack_depth = self.max_stack_depth.max(other.max_stack_depth);
        self.spill_stores += other.spill_stores;
        self.spill_loads += other.spill_loads;
    }

    /// Average BVH nodes visited per ray (Table IV).
    pub fn avg_nodes_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            self.nodes_visited as f64 / self.rays as f64
        }
    }
}

/// The scene-bound RT runtime.
///
/// Scene data (TLAS/BLAS) is shared behind `Arc` so [`RtRuntime::shard`]
/// can hand every SM its own runtime without copying geometry. All mutable
/// state is keyed by thread id or warp id; warps never migrate between SMs,
/// so per-SM shards partition it exactly.
pub struct RtRuntime {
    tlas: Arc<Tlas>,
    blases: Arc<Vec<Blas>>,
    launch: [u32; 3],
    fcc: bool,
    frames: FxHashMap<usize, Vec<Frame>>,
    scripts: FxHashMap<usize, Vec<Step>>,
    fcc_tables: FxHashMap<(usize, usize), Vec<FccRow>>,
    alloc_cursor: u64,
    /// Accumulated functional statistics.
    pub stats: RuntimeStats,
    /// Ray-traversal analytics (heatmaps, per-ray histograms, per-level
    /// line reuse); `None` unless enabled, so the default run pays one
    /// null check per traversal.
    analytics: Option<Box<TraversalAnalytics>>,
}

impl RtRuntime {
    /// Binds a runtime to a scene and launch.
    pub fn new(tlas: Tlas, blases: Vec<Blas>, launch: [u32; 3], fcc: bool) -> Self {
        RtRuntime {
            tlas: Arc::new(tlas),
            blases: Arc::new(blases),
            launch,
            fcc,
            frames: FxHashMap::default(),
            scripts: FxHashMap::default(),
            fcc_tables: FxHashMap::default(),
            alloc_cursor: SHARD_ALLOC_BASE,
            stats: RuntimeStats::default(),
            analytics: None,
        }
    }

    /// Turns on ray-traversal analytics collection: per-node heatmaps,
    /// per-ray histograms and per-level line-reuse tallies. Call before
    /// sharding so every shard inherits the setting.
    pub fn enable_analytics(&mut self) {
        self.analytics = Some(Box::new(TraversalAnalytics::default()));
    }

    /// The collected traversal analytics, if enabled.
    pub fn analytics(&self) -> Option<&TraversalAnalytics> {
        self.analytics.as_deref()
    }

    /// Merges another runtime's traversal analytics into this one's (used
    /// to fold per-SM shards back together; the merge is commutative, so
    /// shard order does not matter).
    pub fn merge_analytics_from(&mut self, other: &RtRuntime) {
        if let (Some(mine), Some(theirs)) = (self.analytics.as_deref_mut(), other.analytics()) {
            mine.merge(theirs);
        }
    }

    /// A per-SM shard sharing this runtime's scene with fresh per-thread
    /// state and a disjoint `rt_alloc_mem` region (so concurrent shards
    /// never hand out overlapping addresses).
    pub fn shard(&self, sm: usize) -> RtRuntime {
        RtRuntime {
            tlas: Arc::clone(&self.tlas),
            blases: Arc::clone(&self.blases),
            launch: self.launch,
            fcc: self.fcc,
            frames: FxHashMap::default(),
            scripts: FxHashMap::default(),
            fcc_tables: FxHashMap::default(),
            alloc_cursor: SHARD_ALLOC_BASE + sm as u64 * SHARD_ALLOC_REGION,
            stats: RuntimeStats::default(),
            analytics: self
                .analytics
                .as_ref()
                .map(|_| Box::new(TraversalAnalytics::default())),
        }
    }

    fn frame(&self, tid: usize) -> Option<&Frame> {
        self.frames.get(&tid).and_then(|v| v.last())
    }

    fn depth(&self, tid: usize) -> usize {
        self.frames.get(&tid).map_or(0, |v| v.len())
    }

    /// Resolves a pending-table index to a [`ProceduralHit`], honouring the
    /// FCC coalescing buffer when enabled.
    fn pending_at(&mut self, tid: usize, idx: u32) -> Option<ProceduralHit> {
        if self.fcc {
            let table = self.fcc_table(tid);
            let lane = tid % WARP_SIZE;
            let hit_idx = table.get(idx as usize)?.lane_hit[lane]?;
            self.frame(tid)
                .and_then(|f| f.pending.get(hit_idx as usize))
                .copied()
        } else {
            self.frame(tid)
                .and_then(|f| f.pending.get(idx as usize))
                .copied()
        }
    }

    /// Lazily builds the per-warp coalescing buffer for the warp containing
    /// `tid` at its current trace depth (all lanes of a warp execute
    /// `traverseAS` in the same warp instruction, so their frames exist by
    /// the time any lane reads the buffer).
    fn fcc_table(&mut self, tid: usize) -> &Vec<FccRow> {
        let warp = tid / WARP_SIZE;
        let depth = self.depth(tid);
        let key = (warp, depth);
        if !self.fcc_tables.contains_key(&key) {
            let mut rows: Vec<FccRow> = Vec::new();
            for lane in 0..WARP_SIZE {
                let lane_tid = warp * WARP_SIZE + lane;
                // Only lanes at the same depth participate in this round.
                if self.depth(lane_tid) != depth {
                    continue;
                }
                let pending: Vec<ProceduralHit> = self
                    .frame(lane_tid)
                    .map(|f| f.pending.clone())
                    .unwrap_or_default();
                for (hit_idx, hit) in pending.iter().enumerate() {
                    // Match with an existing row of the same shader ID that
                    // this lane does not occupy yet (paper §IV-A).
                    let slot = rows
                        .iter_mut()
                        .find(|r| r.shader_id == hit.shader_id && r.lane_hit[lane].is_none());
                    match slot {
                        Some(row) => row.lane_hit[lane] = Some(hit_idx as u32),
                        None => {
                            let mut row = FccRow {
                                shader_id: hit.shader_id,
                                lane_hit: [None; WARP_SIZE],
                            };
                            row.lane_hit[lane] = Some(hit_idx as u32);
                            rows.push(row);
                        }
                    }
                }
            }
            self.fcc_tables.insert(key, rows);
        }
        &self.fcc_tables[&key]
    }

    /// Converts the functional trace events into the RT-unit replay script,
    /// synthesizing short-stack spill traffic (paper §III-C2) and, under
    /// FCC, the extra coalescing-table loads (§VI-E: "FCC results in 11%
    /// more memory loads in the RT unit").
    fn events_to_script(&mut self, tid: usize, events: &[TraceEvent]) -> Vec<Step> {
        let mut script = Vec::with_capacity(events.len());
        let mut depth: u32 = 0;
        let spill_base = 0x7000_0000u64 + (tid as u64) * 0x1_0000 + 0x8000;
        let mut i = 0;
        while i < events.len() {
            match events[i] {
                TraceEvent::NodeFetch { addr, size, kind } => {
                    // The BVH operation consuming this node follows it.
                    let op = match events.get(i + 1) {
                        Some(TraceEvent::BoxTests { count }) => {
                            i += 1;
                            OpKind::Box { tests: *count }
                        }
                        Some(TraceEvent::TriangleTest) => {
                            i += 1;
                            OpKind::Triangle
                        }
                        _ if kind == NodeKind::InstanceLeaf => OpKind::Transform,
                        _ => OpKind::None,
                    };
                    script.push(Step::Fetch { addr, size, op });
                }
                TraceEvent::StackPush => {
                    depth += 1;
                    if depth > SHORT_STACK_ENTRIES {
                        // Spill the bottom entry to per-thread memory.
                        self.stats.spill_stores += 1;
                        script.push(Step::Store {
                            addr: spill_base + (depth as u64 % 64) * 32,
                            size: 32,
                        });
                    }
                }
                TraceEvent::StackPop => {
                    if depth > SHORT_STACK_ENTRIES {
                        // Refill from spill memory.
                        self.stats.spill_loads += 1;
                        script.push(Step::Fetch {
                            addr: spill_base + (depth as u64 % 64) * 32,
                            size: 32,
                            op: OpKind::None,
                        });
                    }
                    depth = depth.saturating_sub(1);
                }
                TraceEvent::IntersectionStore { addr, size } => {
                    if self.fcc {
                        // FCC: check the coalescing table for a matching
                        // shader ID (load), then insert (store).
                        script.push(Step::Fetch {
                            addr,
                            size,
                            op: OpKind::None,
                        });
                    }
                    script.push(Step::Store { addr, size });
                }
                TraceEvent::BoxTests { .. } | TraceEvent::TriangleTest | TraceEvent::Transform => {
                    // Standalone op events (e.g. cached-instance re-entry
                    // transforms) are charged with their node fetches.
                }
            }
            i += 1;
        }
        script
    }

    /// Serializes the runtime's mutable state — per-thread frame stacks,
    /// pending replay scripts, FCC coalescing buffers, the `rt_alloc_mem`
    /// cursor and the functional statistics — for a checkpoint. Scene data
    /// (TLAS/BLAS), launch dims and the FCC switch are rebuilt from the
    /// resuming configuration, not written. Hash maps are emitted in
    /// sorted key order so identical states encode identically.
    pub fn save_state(&self, e: &mut Enc) {
        let mut tids: Vec<usize> = self.frames.keys().copied().collect();
        tids.sort_unstable();
        e.seq(tids.len());
        for tid in tids {
            e.usize(tid);
            let frames = &self.frames[&tid];
            e.seq(frames.len());
            for f in frames {
                save_frame(f, e);
            }
        }
        let mut tids: Vec<usize> = self.scripts.keys().copied().collect();
        tids.sort_unstable();
        e.seq(tids.len());
        for tid in tids {
            e.usize(tid);
            let steps = &self.scripts[&tid];
            e.seq(steps.len());
            for s in steps {
                s.save(e);
            }
        }
        let mut keys: Vec<(usize, usize)> = self.fcc_tables.keys().copied().collect();
        keys.sort_unstable();
        e.seq(keys.len());
        for key in keys {
            e.usize(key.0);
            e.usize(key.1);
            let rows = &self.fcc_tables[&key];
            e.seq(rows.len());
            for row in rows {
                e.u32(row.shader_id);
                for slot in &row.lane_hit {
                    e.opt_u32(*slot);
                }
            }
        }
        e.u64(self.alloc_cursor);
        self.stats.save(e);
        match &self.analytics {
            None => e.u8(0),
            Some(a) => {
                e.u8(1);
                a.save(e);
            }
        }
    }

    /// Restores state written by [`RtRuntime::save_state`] into a runtime
    /// freshly bound to the same scene and launch.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated or malformed payload.
    pub fn restore_state(&mut self, d: &mut Dec<'_>) -> Result<(), SnapError> {
        let mut frames = FxHashMap::default();
        for _ in 0..d.seq()? {
            let tid = d.usize()?;
            let n = d.seq()?;
            let mut stack = Vec::with_capacity(n);
            for _ in 0..n {
                stack.push(load_frame(d)?);
            }
            frames.insert(tid, stack);
        }
        let mut scripts = FxHashMap::default();
        for _ in 0..d.seq()? {
            let tid = d.usize()?;
            let n = d.seq()?;
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(Step::load(d)?);
            }
            scripts.insert(tid, steps);
        }
        let mut fcc_tables = FxHashMap::default();
        for _ in 0..d.seq()? {
            let key = (d.usize()?, d.usize()?);
            let n = d.seq()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let shader_id = d.u32()?;
                let mut lane_hit = [None; WARP_SIZE];
                for slot in &mut lane_hit {
                    *slot = d.opt_u32()?;
                }
                rows.push(FccRow {
                    shader_id,
                    lane_hit,
                });
            }
            fcc_tables.insert(key, rows);
        }
        self.frames = frames;
        self.scripts = scripts;
        self.fcc_tables = fcc_tables;
        self.alloc_cursor = d.u64()?;
        self.stats = RuntimeStats::load(d)?;
        self.analytics = match d.u8()? {
            0 => None,
            1 => Some(Box::new(TraversalAnalytics::load(d)?)),
            t => {
                return Err(SnapError::Malformed(format!(
                    "rt runtime analytics tag {t}"
                )))
            }
        };
        Ok(())
    }
}

fn save_ray(ray: &RayDesc, e: &mut Enc) {
    for c in ray.origin {
        e.f32(c);
    }
    for c in ray.dir {
        e.f32(c);
    }
    e.f32(ray.t_min);
    e.f32(ray.t_max);
    e.u32(ray.flags);
}

fn load_ray(d: &mut Dec<'_>) -> Result<RayDesc, SnapError> {
    Ok(RayDesc {
        origin: [d.f32()?, d.f32()?, d.f32()?],
        dir: [d.f32()?, d.f32()?, d.f32()?],
        t_min: d.f32()?,
        t_max: d.f32()?,
        flags: d.u32()?,
    })
}

fn save_frame(f: &Frame, e: &mut Enc) {
    save_ray(&f.ray, e);
    e.u32(f.committed.kind);
    e.f32(f.committed.t);
    e.f32(f.committed.u);
    e.f32(f.committed.v);
    e.u32(f.committed.primitive_index);
    e.u32(f.committed.instance_index);
    e.u32(f.committed.instance_custom_index);
    e.u32(f.committed.sbt_offset);
    for c in f.committed.normal {
        e.f32(c);
    }
    e.seq(f.pending.len());
    for h in &f.pending {
        e.u32(h.primitive_index);
        e.u32(h.shader_id);
        e.u32(h.instance_index);
        e.u32(h.instance_custom_index);
        e.u32(h.sbt_offset);
        e.f32(h.t_enter);
    }
}

fn load_frame(d: &mut Dec<'_>) -> Result<Frame, SnapError> {
    let ray = load_ray(d)?;
    let committed = Committed {
        kind: d.u32()?,
        t: d.f32()?,
        u: d.f32()?,
        v: d.f32()?,
        primitive_index: d.u32()?,
        instance_index: d.u32()?,
        instance_custom_index: d.u32()?,
        sbt_offset: d.u32()?,
        normal: [d.f32()?, d.f32()?, d.f32()?],
    };
    let n = d.seq()?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(ProceduralHit {
            primitive_index: d.u32()?,
            shader_id: d.u32()?,
            instance_index: d.u32()?,
            instance_custom_index: d.u32()?,
            sbt_offset: d.u32()?,
            t_enter: d.f32()?,
        });
    }
    Ok(Frame {
        ray,
        committed,
        pending,
    })
}

impl RuntimeStats {
    /// Serializes the statistics for a checkpoint.
    pub fn save(&self, e: &mut Enc) {
        e.u64(self.rays);
        e.u64(self.nodes_visited);
        e.u64(self.box_tests);
        e.u64(self.triangle_tests);
        e.u64(self.transforms);
        e.u64(self.procedural_hits);
        e.u64(self.triangle_hits);
        e.u64(self.misses);
        e.u32(self.max_stack_depth);
        e.u64(self.spill_stores);
        e.u64(self.spill_loads);
    }

    /// Reads statistics written by [`RuntimeStats::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a truncated payload.
    pub fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(RuntimeStats {
            rays: d.u64()?,
            nodes_visited: d.u64()?,
            box_tests: d.u64()?,
            triangle_tests: d.u64()?,
            transforms: d.u64()?,
            procedural_hits: d.u64()?,
            triangle_hits: d.u64()?,
            misses: d.u64()?,
            max_stack_depth: d.u32()?,
            spill_stores: d.u64()?,
            spill_loads: d.u64()?,
        })
    }
}

impl RtHooks for RtRuntime {
    fn traverse(&mut self, tid: usize, ray: RayDesc) -> Result<(), RtError> {
        let r = Ray::with_interval(
            Vec3::from(ray.origin),
            Vec3::from(ray.dir),
            ray.t_min,
            ray.t_max,
        );
        let per_thread_buffer = 0x4000_0000u64 + (tid as u64) * 0x800;
        let cfg = TraversalConfig {
            terminate_on_first_hit: ray.flags & RAY_FLAG_TERMINATE_ON_FIRST_HIT != 0,
            record_events: true,
            record_visits: self.analytics.is_some(),
            intersection_buffer_base: per_thread_buffer,
        };
        let blas_refs: Vec<&Blas> = self.blases.iter().collect();
        let result = traversal::traverse(&self.tlas, &blas_refs, &r, &cfg)
            .map_err(|e| RtError(format!("acceleration structure traversal failed: {e}")))?;

        self.stats.rays += 1;
        self.stats.nodes_visited += result.nodes_visited as u64;
        self.stats.box_tests += result.box_tests as u64;
        self.stats.triangle_tests += result.triangle_tests as u64;
        self.stats.transforms += result.transforms as u64;
        self.stats.procedural_hits += result.procedural_hits.len() as u64;
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(result.max_stack_depth);

        let committed = match result.closest {
            Some(h) => {
                self.stats.triangle_hits += 1;
                Committed {
                    kind: 1,
                    t: h.t,
                    u: h.u,
                    v: h.v,
                    primitive_index: h.primitive_index,
                    instance_index: h.instance_index,
                    instance_custom_index: h.instance_custom_index,
                    sbt_offset: h.sbt_offset,
                    normal: h.world_normal.into(),
                }
            }
            None => {
                if result.procedural_hits.is_empty() {
                    self.stats.misses += 1;
                }
                Committed::default()
            }
        };

        // Script synthesis tallies short-stack spill reloads; the delta
        // over this call is exactly this ray's traversal restarts.
        let spill_loads_before = self.stats.spill_loads;
        let script = self.events_to_script(tid, &result.events);
        let restarts = self.stats.spill_loads - spill_loads_before;
        if let Some(a) = self.analytics.as_deref_mut() {
            for v in &result.visits {
                a.record_visit(v.blas, v.depth, v.node, v.addr, v.hit);
            }
            a.record_ray(
                result.nodes_visited as u64,
                result.box_tests as u64,
                result.triangle_tests as u64,
                restarts,
            );
        }
        self.scripts.insert(tid, script);
        self.frames.entry(tid).or_default().push(Frame {
            ray,
            committed,
            pending: result.procedural_hits,
        });
        Ok(())
    }

    fn end_trace(&mut self, tid: usize) {
        let depth = self.depth(tid);
        if let Some(frames) = self.frames.get_mut(&tid) {
            frames.pop();
        }
        // The coalescing buffer for this round is dead once any lane ends
        // its trace; rows are keyed by (warp, depth).
        self.fcc_tables.remove(&(tid / WARP_SIZE, depth));
    }

    fn alloc_mem(&mut self, _tid: usize, size: u32) -> u64 {
        let addr = self.alloc_cursor;
        self.alloc_cursor += (size as u64).div_ceil(64) * 64;
        addr
    }

    fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
        let f = |v: f32| v.to_bits();
        match q {
            RtQuery::LaunchId(d) => {
                let tid = tid as u32;
                let (w, h) = (self.launch[0].max(1), self.launch[1].max(1));
                match d {
                    0 => tid % w,
                    1 => (tid / w) % h,
                    _ => tid / (w * h),
                }
            }
            RtQuery::LaunchSize(d) => self.launch.get(d as usize).copied().unwrap_or(1),
            RtQuery::RecursionDepth => self.depth(tid) as u32,
            _ => {
                let Some(frame) = self.frame(tid) else {
                    return 0;
                };
                match q {
                    RtQuery::HitKind => frame.committed.kind,
                    RtQuery::HitT => f(frame.committed.t),
                    RtQuery::HitU => f(frame.committed.u),
                    RtQuery::HitV => f(frame.committed.v),
                    RtQuery::HitPrimitiveIndex => frame.committed.primitive_index,
                    RtQuery::HitInstanceIndex => frame.committed.instance_index,
                    RtQuery::HitInstanceCustomIndex => frame.committed.instance_custom_index,
                    RtQuery::HitWorldNormal(d) => f(frame.committed.normal[d as usize % 3]),
                    RtQuery::ClosestHitShaderId => frame.committed.sbt_offset,
                    RtQuery::IntersectionCount => frame.pending.len() as u32,
                    RtQuery::RayOrigin(d) => f(frame.ray.origin[d as usize % 3]),
                    RtQuery::RayDirection(d) => f(frame.ray.dir[d as usize % 3]),
                    RtQuery::RayTMin => f(frame.ray.t_min),
                    _ => 0,
                }
            }
        }
    }

    fn query_idx(&mut self, tid: usize, q: RtIdxQuery, idx: u32) -> u32 {
        let Some(hit) = self.pending_at(tid, idx) else {
            return 0;
        };
        match q {
            RtIdxQuery::IntersectionShaderId => hit.shader_id,
            RtIdxQuery::IntersectionPrimitiveIndex => hit.primitive_index,
            RtIdxQuery::IntersectionInstanceCustomIndex => hit.instance_custom_index,
            RtIdxQuery::IntersectionInstanceIndex => hit.instance_index,
            RtIdxQuery::IntersectionTEnter => hit.t_enter.to_bits(),
        }
    }

    fn intersection_valid(&mut self, tid: usize, idx: u32) -> bool {
        if self.fcc {
            (idx as usize) < self.fcc_table(tid).len()
        } else {
            self.frame(tid)
                .is_some_and(|f| (idx as usize) < f.pending.len())
        }
    }

    fn next_coalesced_call(&mut self, tid: usize, idx: u32) -> u32 {
        let lane = tid % WARP_SIZE;
        let table = self.fcc_table(tid);
        match table.get(idx as usize) {
            Some(row) if row.lane_hit[lane].is_some() => row.shader_id,
            _ => u32::MAX,
        }
    }

    fn report_intersection(&mut self, tid: usize, idx: u32, t: f32) -> Result<(), RtError> {
        let Some(hit) = self.pending_at(tid, idx) else {
            return Ok(());
        };
        let Some(frame) = self.frames.get_mut(&tid).and_then(|v| v.last_mut()) else {
            return Ok(());
        };
        if t < frame.ray.t_min {
            return Ok(());
        }
        let current_t = if frame.committed.kind == 0 {
            frame.ray.t_max
        } else {
            frame.committed.t
        };
        if t < current_t {
            frame.committed = Committed {
                kind: 2,
                t,
                u: 0.0,
                v: 0.0,
                primitive_index: hit.primitive_index,
                instance_index: hit.instance_index,
                instance_custom_index: hit.instance_custom_index,
                sbt_offset: hit.sbt_offset,
                normal: [0.0; 3],
            };
        }
        Ok(())
    }
}

impl ScriptSource for RtRuntime {
    fn take_script(&mut self, tid: usize) -> Vec<Step> {
        self.scripts.remove(&tid).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_bvh::geometry::{BlasGeometry, ProceduralPrimitive, Triangle};
    use vksim_bvh::Instance;
    use vksim_math::{Aabb, Mat4x3};

    fn quad_scene() -> (Tlas, Vec<Blas>) {
        let blas = Blas::from_triangles(&[
            Triangle::new(
                Vec3::new(-1.0, -1.0, 0.0),
                Vec3::new(1.0, -1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
            ),
            Triangle::new(
                Vec3::new(-1.0, -1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::new(-1.0, 1.0, 0.0),
            ),
        ]);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        (tlas, vec![blas])
    }

    fn proc_scene(shader_ids: &[u32]) -> (Tlas, Vec<Blas>) {
        let prims: Vec<ProceduralPrimitive> = shader_ids
            .iter()
            .map(|&s| ProceduralPrimitive::new(Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)), s))
            .collect();
        let blas = Blas::build(BlasGeometry::procedurals(prims));
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        (tlas, vec![blas])
    }

    fn z_ray() -> RayDesc {
        RayDesc {
            origin: [0.0, 0.0, -5.0],
            dir: [0.0, 0.0, 1.0],
            t_min: 1e-3,
            t_max: 1e30,
            flags: 0,
        }
    }

    #[test]
    fn traverse_commits_triangle_hit_and_records_script() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        assert_eq!(rt.query(0, RtQuery::HitKind), 1);
        assert!((f32::from_bits(rt.query(0, RtQuery::HitT)) - 5.0).abs() < 1e-3);
        let script = rt.take_script(0);
        assert!(!script.is_empty());
        assert!(script.iter().any(|s| matches!(
            s,
            Step::Fetch {
                op: OpKind::Triangle,
                ..
            }
        )));
        assert!(script.iter().any(|s| matches!(
            s,
            Step::Fetch {
                op: OpKind::Transform,
                ..
            }
        )));
        rt.end_trace(0);
        assert_eq!(rt.query(0, RtQuery::HitKind), 0, "frame popped");
        assert_eq!(rt.stats.rays, 1);
        assert_eq!(rt.stats.triangle_hits, 1);
    }

    #[test]
    fn miss_reports_kind_zero() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        let mut ray = z_ray();
        ray.origin = [50.0, 50.0, -5.0];
        rt.traverse(0, ray).unwrap();
        assert_eq!(rt.query(0, RtQuery::HitKind), 0);
        assert_eq!(rt.stats.misses, 1);
    }

    #[test]
    fn launch_id_mapping() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [8, 4, 1], false);
        let tid = 8 * 3 + 5; // x=5, y=3
        assert_eq!(rt.query(tid, RtQuery::LaunchId(0)), 5);
        assert_eq!(rt.query(tid, RtQuery::LaunchId(1)), 3);
        assert_eq!(rt.query(tid, RtQuery::LaunchSize(0)), 8);
    }

    #[test]
    fn nested_traces_stack_frames() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        assert_eq!(rt.query(0, RtQuery::RecursionDepth), 1);
        let mut shadow = z_ray();
        shadow.origin = [0.0, 0.0, -1.0];
        shadow.flags = RAY_FLAG_TERMINATE_ON_FIRST_HIT;
        rt.traverse(0, shadow).unwrap();
        assert_eq!(rt.query(0, RtQuery::RecursionDepth), 2);
        rt.end_trace(0);
        assert_eq!(rt.query(0, RtQuery::RecursionDepth), 1);
        // Outer frame intact.
        assert_eq!(rt.query(0, RtQuery::HitKind), 1);
    }

    #[test]
    fn pending_intersections_and_report() {
        let (tlas, blases) = proc_scene(&[3]);
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        assert_eq!(
            rt.query(0, RtQuery::HitKind),
            0,
            "procedural not committed yet"
        );
        assert!(rt.intersection_valid(0, 0));
        assert!(!rt.intersection_valid(0, 1));
        assert_eq!(rt.query_idx(0, RtIdxQuery::IntersectionShaderId, 0), 3);
        rt.report_intersection(0, 0, 4.0).unwrap();
        assert_eq!(rt.query(0, RtQuery::HitKind), 2);
        assert_eq!(f32::from_bits(rt.query(0, RtQuery::HitT)), 4.0);
        // A farther report does not replace it.
        rt.report_intersection(0, 0, 9.0).unwrap();
        assert_eq!(f32::from_bits(rt.query(0, RtQuery::HitT)), 4.0);
    }

    #[test]
    fn report_respects_t_min() {
        let (tlas, blases) = proc_scene(&[0]);
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        rt.report_intersection(0, 0, 1e-6).unwrap(); // below t_min
        assert_eq!(rt.query(0, RtQuery::HitKind), 0);
    }

    #[test]
    fn fcc_coalesces_same_shader_across_lanes() {
        // Two lanes, both hitting shader-0 geometry twice and shader-1 once:
        // rows should be [s0, s0, s1] (not 6 rows).
        let (tlas, blases) = proc_scene(&[0, 0, 1]);
        let mut rt = RtRuntime::new(tlas, blases, [32, 1, 1], true);
        rt.traverse(0, z_ray()).unwrap();
        rt.traverse(1, z_ray()).unwrap();
        let rows: Vec<u32> = (0..4)
            .map_while(|i| {
                if rt.intersection_valid(0, i) {
                    Some(rt.next_coalesced_call(0, i))
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(rows.len(), 3, "3 coalesced rows for 2x3 hits");
        assert_eq!(rows.iter().filter(|&&s| s == 0).count(), 2);
        assert_eq!(rows.iter().filter(|&&s| s == 1).count(), 1);
        // Lane 1 participates in the same rows.
        assert_eq!(rt.next_coalesced_call(1, 0), rt.next_coalesced_call(0, 0));
    }

    #[test]
    fn fcc_nonparticipating_lane_gets_sentinel() {
        let (tlas, blases) = proc_scene(&[0]);
        let mut rt = RtRuntime::new(tlas, blases, [32, 1, 1], true);
        rt.traverse(0, z_ray()).unwrap();
        // Lane 1 misses everything.
        let mut miss = z_ray();
        miss.origin = [99.0, 99.0, -5.0];
        rt.traverse(1, miss).unwrap();
        assert_eq!(rt.next_coalesced_call(0, 0), 0);
        assert_eq!(rt.next_coalesced_call(1, 0), u32::MAX);
    }

    #[test]
    fn fcc_script_has_extra_table_loads() {
        let (tlas, blases) = proc_scene(&[0, 0]);
        let mut base_rt = RtRuntime::new(tlas.clone(), blases.clone(), [4, 1, 1], false);
        base_rt.traverse(0, z_ray()).unwrap();
        let base_loads = base_rt
            .take_script(0)
            .iter()
            .filter(|s| matches!(s, Step::Fetch { .. }))
            .count();
        let mut fcc_rt = RtRuntime::new(tlas, blases, [4, 1, 1], true);
        fcc_rt.traverse(0, z_ray()).unwrap();
        let fcc_loads = fcc_rt
            .take_script(0)
            .iter()
            .filter(|s| matches!(s, Step::Fetch { .. }))
            .count();
        assert!(fcc_loads > base_loads, "FCC adds coalescing-table loads");
    }

    #[test]
    fn shards_share_scene_with_disjoint_alloc_regions() {
        let (tlas, blases) = quad_scene();
        let rt = RtRuntime::new(tlas, blases, [32, 1, 1], false);
        let mut s0 = rt.shard(0);
        let mut s1 = rt.shard(1);
        // Disjoint rt_alloc_mem arenas.
        let a0 = s0.alloc_mem(0, 64);
        let a1 = s1.alloc_mem(0, 64);
        assert_ne!(a0, a1);
        assert_eq!(a1 - a0, SHARD_ALLOC_REGION);
        // Same scene: identical traversal results for the same ray.
        s0.traverse(0, z_ray()).unwrap();
        s1.traverse(32, z_ray()).unwrap();
        assert_eq!(s0.stats.nodes_visited, s1.stats.nodes_visited);
        assert_eq!(
            s0.query(0, RtQuery::HitKind),
            s1.query(32, RtQuery::HitKind)
        );
    }

    #[test]
    fn merged_shard_stats_match_single_runtime() {
        let (tlas, blases) = quad_scene();
        let single_scene = RtRuntime::new(tlas, blases, [64, 1, 1], false);
        let mut single = single_scene.shard(0);
        let mut s0 = single_scene.shard(0);
        let mut s1 = single_scene.shard(1);
        let mut miss = z_ray();
        miss.origin = [50.0, 50.0, -5.0];
        for tid in 0..32 {
            single.traverse(tid, z_ray()).unwrap();
            s0.traverse(tid, z_ray()).unwrap();
        }
        for tid in 32..64 {
            single.traverse(tid, miss).unwrap();
            s1.traverse(tid, miss).unwrap();
        }
        let mut merged = RuntimeStats::default();
        merged.merge(&s0.stats);
        merged.merge(&s1.stats);
        assert_eq!(merged, single.stats);
        // Merge is commutative.
        let mut swapped = RuntimeStats::default();
        swapped.merge(&s1.stats);
        swapped.merge(&s0.stats);
        assert_eq!(swapped, merged);
    }

    #[test]
    fn alloc_mem_is_monotonic_and_aligned() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [1, 1, 1], false);
        let a = rt.alloc_mem(0, 100);
        let b = rt.alloc_mem(0, 4);
        assert!(b >= a + 100);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
    }

    #[test]
    fn scripts_are_consumed_once() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(7, z_ray()).unwrap();
        assert!(!rt.take_script(7).is_empty());
        assert!(rt.take_script(7).is_empty(), "second take is empty");
    }

    #[test]
    fn analytics_mirror_functional_stats_exactly() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.enable_analytics();
        rt.traverse(0, z_ray()).unwrap();
        let mut miss = z_ray();
        miss.origin = [50.0, 50.0, -5.0];
        rt.traverse(1, miss).unwrap();
        let a = rt.analytics().expect("enabled");
        assert_eq!(a.rays(), rt.stats.rays);
        assert_eq!(a.visit_total(), rt.stats.nodes_visited);
        for (name, hist) in a.histograms() {
            assert_eq!(hist.count(), rt.stats.rays, "hist {name}");
        }
        let [(_, nodes), (_, boxes), (_, tris), _] = a.histograms();
        assert_eq!(nodes.sum(), rt.stats.nodes_visited);
        assert_eq!(boxes.sum(), rt.stats.box_tests);
        assert_eq!(tris.sum(), rt.stats.triangle_tests);
        assert!(a.hit_total() > 0, "the quad hit leaves hot nodes");
        // Analytics state rides checkpoints byte-identically.
        let mut e = Enc::new();
        rt.save_state(&mut e);
        let bytes = e.into_bytes();
        let (tlas, blases) = quad_scene();
        let mut back = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        back.enable_analytics();
        let mut d = Dec::new(&bytes);
        back.restore_state(&mut d).unwrap();
        d.finish().unwrap();
        let mut e2 = Enc::new();
        back.save_state(&mut e2);
        assert_eq!(e2.into_bytes(), bytes, "round trip is byte-idempotent");
    }

    #[test]
    fn shards_inherit_analytics_and_merge_conserves() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [64, 1, 1], false);
        assert!(rt.shard(0).analytics().is_none(), "off stays off");
        rt.enable_analytics();
        let mut s0 = rt.shard(0);
        let mut s1 = rt.shard(1);
        s0.traverse(0, z_ray()).unwrap();
        s1.traverse(32, z_ray()).unwrap();
        rt.merge_analytics_from(&s0);
        rt.merge_analytics_from(&s1);
        let merged = rt.analytics().expect("enabled");
        assert_eq!(merged.rays(), 2);
        assert_eq!(
            merged.visit_total(),
            s0.stats.nodes_visited + s1.stats.nodes_visited
        );
    }

    #[test]
    fn deep_scene_generates_spill_traffic() {
        // Thousands of overlapping triangles scattered in a cube: poor
        // spatial separation makes many children overlap the ray, forcing a
        // deep traversal stack.
        let mut tris = Vec::new();
        let mut state = 0x12345678u32;
        let mut rng = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / 16_777_216.0 * 20.0 - 10.0
        };
        for _ in 0..2048 {
            // Large triangles spanning much of the cube: every node's
            // children overlap almost any ray.
            tris.push(Triangle::new(
                Vec3::new(rng(), rng(), rng()),
                Vec3::new(rng(), rng(), rng()),
                Vec3::new(rng(), rng(), rng()),
            ));
        }
        let blas = Blas::from_triangles(&tris);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        let mut rt = RtRuntime::new(tlas, vec![blas], [1, 1, 1], false);
        // Ray through the middle of the cloud, forced to visit everything
        // near its path (no early hit thanks to a tiny t interval... use a
        // ray that misses all triangles but crosses many boxes).
        rt.traverse(
            0,
            RayDesc {
                origin: [-15.0, 0.05, 0.05],
                dir: [1.0, 0.001, 0.001],
                t_min: 1e-3,
                t_max: 1e30,
                flags: 0,
            },
        )
        .unwrap();
        assert!(rt.stats.max_stack_depth > SHORT_STACK_ENTRIES);
        assert!(rt.stats.spill_stores > 0);
    }
}
