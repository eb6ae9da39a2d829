//! The traced run: per-layer metrics from spans around calls into each
//! crate's public functions, recorded in this file only.
//!
//! The timing engine runs as a replica of `Simulator::run`:
//! `GpuSim::new(config.resolve())`, `launch`, then `GpuSim::run` with a
//! wrapper that times every `RtHooks` / `ScriptSource` call before
//! forwarding it to a public `RtRuntime`. The replica's statistics must
//! equal those of `Simulator::run`.

use crate::digest::{digest, digest_of, flat_map};
use crate::metrics::{ratio, Metrics, PER_LAYER};
use crate::workload::{self, Spec};
use crate::{timed_build, timed_run, Rng, RunSample, Verdicts};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vksim_bvh::{Blas, Tlas};
use vksim_core::simulator::power_from_stats;
use vksim_core::{config_fingerprint, validate_config, RtRuntime, SimConfig, Simulator};
use vksim_gpu::{GpuSim, LaunchDims, ScriptSource};
use vksim_isa::interp::RayDesc;
use vksim_isa::op::RtIdxQuery;
use vksim_isa::{RtError, RtHooks, RtQuery};
use vksim_rtunit::Step;
use vksim_scenes::Workload;
use vksim_trace::{CycleCategory, RtReport};

/// Total duration and call count of one kind of span.
#[derive(Clone, Copy, Default)]
struct Span {
    time: Duration,
    calls: u64,
}

impl Span {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.time += t0.elapsed();
        self.calls += 1;
        r
    }
}

/// Forwards every hook to the runtime inside a span. The runtime never
/// calls back into the engine, so spans do not nest and each span's
/// duration is its self time.
struct Spanned<'a> {
    rt: &'a mut RtRuntime,
    traverse: Span,
    take_script: Span,
    other: Span,
}

impl RtHooks for Spanned<'_> {
    fn traverse(&mut self, tid: usize, ray: RayDesc) -> Result<(), RtError> {
        self.traverse.time(|| self.rt.traverse(tid, ray))
    }
    fn end_trace(&mut self, tid: usize) {
        self.other.time(|| self.rt.end_trace(tid))
    }
    fn alloc_mem(&mut self, tid: usize, size: u32) -> u64 {
        self.other.time(|| self.rt.alloc_mem(tid, size))
    }
    fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
        self.other.time(|| self.rt.query(tid, q))
    }
    fn query_idx(&mut self, tid: usize, q: RtIdxQuery, idx: u32) -> u32 {
        self.other.time(|| self.rt.query_idx(tid, q, idx))
    }
    fn intersection_valid(&mut self, tid: usize, idx: u32) -> bool {
        self.other.time(|| self.rt.intersection_valid(tid, idx))
    }
    fn next_coalesced_call(&mut self, tid: usize, idx: u32) -> u32 {
        self.other.time(|| self.rt.next_coalesced_call(tid, idx))
    }
    fn report_intersection(&mut self, tid: usize, idx: u32, t: f32) -> Result<(), RtError> {
        self.other.time(|| self.rt.report_intersection(tid, idx, t))
    }
}

impl ScriptSource for Spanned<'_> {
    fn take_script(&mut self, tid: usize) -> Vec<Step> {
        self.take_script.time(|| self.rt.take_script(tid))
    }
}

/// A finished replica run: the time `Simulator::run` spends around the
/// engine, the `GpuSim::run` wall time, the flat statistics map and, when
/// traced, the hook spans.
struct Replica {
    around_engine: Duration,
    engine_wall: Duration,
    map: BTreeMap<String, u64>,
    spans: [Span; 3],
}

/// Replays `Simulator::run` step by step from public items: validation,
/// fingerprint, engine and runtime construction, `GpuSim::run`, then
/// report assembly and the power model. With `spanned`, every hook call
/// is timed.
fn replica(config: &SimConfig, w: &Workload, spanned: bool) -> Result<Replica, String> {
    let t_all = Instant::now();
    let gpu_config = config.resolve();
    validate_config(&gpu_config).map_err(|e| format!("replica config rejected: {e:?}"))?;
    black_box(config_fingerprint(&gpu_config, &w.device, &w.cmd));
    let analytics = gpu_config.effective_trace().rt_analytics;
    let mut gpu = GpuSim::new(gpu_config);
    gpu.mem = w.device.memory.clone();
    let dims = w.cmd.dims;
    gpu.launch(
        w.cmd.program.clone(),
        LaunchDims {
            width: dims.width,
            height: dims.height,
            depth: dims.depth,
        },
    );
    let tlas = w.device.tlas.clone().expect("every workload has a TLAS");
    let mut rt = RtRuntime::new(
        tlas,
        w.device.blases.clone(),
        [dims.width, dims.height, dims.depth],
        w.cmd.fcc,
    );
    if analytics {
        rt.enable_analytics();
    }
    let mut spans = [Span::default(); 3];
    let t0 = Instant::now();
    let res = if spanned {
        let mut hooks = Spanned {
            rt: &mut rt,
            traverse: Span::default(),
            take_script: Span::default(),
            other: Span::default(),
        };
        let res = gpu.run(&mut hooks);
        spans = [hooks.traverse, hooks.take_script, hooks.other];
        res
    } else {
        gpu.run(&mut rt)
    };
    let engine_wall = t0.elapsed();
    let stats = res.map_err(|f| format!("replica GpuSim::run failed: {}", f.error))?;
    let memory = std::mem::take(&mut gpu.mem);
    let trace = gpu.take_trace_report();
    let prof = gpu.prof_report();
    let rt_report = gpu.rt_report_parts().map(|(per_sm, rt_box_ops)| RtReport {
        traversal: rt.analytics().cloned().unwrap_or_default(),
        per_sm,
        rt_box_ops,
    });
    let power = power_from_stats(&stats);
    let report = black_box((memory, trace, prof, rt_report, power));
    let around_engine = t_all.elapsed().saturating_sub(engine_wall);
    drop(report);
    Ok(Replica {
        around_engine,
        engine_wall,
        map: flat_map(&stats, &rt.stats),
        spans,
    })
}

/// Setup-layer spans: each BLAS rebuilt from a clone of its geometry,
/// the TLAS rebuilt over those BLASes, and the pipeline re-translated.
struct SetupSpans {
    blas: Duration,
    tlas: Duration,
    pipeline: Duration,
}

fn setup_spans(w: &mut Workload) -> Result<SetupSpans, String> {
    let mut blas = Duration::ZERO;
    let mut built = Vec::new();
    for b in &w.device.blases {
        let geometry = b.geometry.clone();
        let t0 = Instant::now();
        built.push(black_box(Blas::build(geometry)));
        blas += t0.elapsed();
    }
    let instances = w
        .device
        .tlas
        .as_ref()
        .expect("every workload has a TLAS")
        .instances
        .clone();
    let refs: Vec<&Blas> = built.iter().collect();
    let t0 = Instant::now();
    black_box(Tlas::build(instances, &refs));
    let tlas = t0.elapsed();
    let shaders = w.shaders.clone();
    let t0 = Instant::now();
    let pipeline = w.device.create_ray_tracing_pipeline(shaders, w.cmd.fcc);
    let pipeline_time = t0.elapsed();
    let pipeline = pipeline.map_err(|e| format!("pipeline translation failed: {e:?}"))?;
    if pipeline.program != w.cmd.program {
        return Err("re-translated pipeline differs from the recorded one".into());
    }
    Ok(SetupSpans {
        blas,
        tlas,
        pipeline: pipeline_time,
    })
}

/// What one traced run executes, in an order the seed shuffles.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// `Simulator::run` at `threads` engine threads, observers on or off.
    Sim {
        threads: usize,
        observers: bool,
    },
    ReplicaPlain,
    ReplicaSpanned,
    Functional,
}

/// Runs every phase once and derives the per-layer metrics; `None` when
/// a phase needed for them failed.
pub fn run(spec: &'static Spec, seed: u64) -> (Verdicts, Option<Metrics>) {
    let mut v = Verdicts::default();
    let config = workload::config(spec.observers);
    let (mut w, _) = timed_build(spec);
    let setup = match setup_spans(&mut w) {
        Ok(s) => Some(s),
        Err(e) => {
            v.fail(&e);
            None
        }
    };
    let own = Phase::Sim {
        threads: spec.threads,
        observers: spec.observers,
    };
    let base = Phase::Sim {
        threads: 1,
        observers: false,
    };
    let t2 = Phase::Sim {
        threads: 2,
        observers: false,
    };
    let on = Phase::Sim {
        threads: 1,
        observers: true,
    };
    let mut phases = vec![own];
    for p in [
        base,
        t2,
        on,
        Phase::ReplicaPlain,
        Phase::ReplicaSpanned,
        Phase::Functional,
    ] {
        if !phases.contains(&p) {
            phases.push(p);
        }
    }
    Rng::new(seed).shuffle(&mut phases);

    let mut sims: Vec<(Phase, RunSample)> = Vec::new();
    let (mut plain, mut spanned, mut functional) = (None, None, None);
    for &phase in &phases {
        match phase {
            Phase::Sim { threads, observers } => {
                let label = format!("Simulator::run threads={threads} observers={observers}");
                let res = timed_run(&workload::config(observers), threads, &w);
                if let Some(s) = v.check(&label, spec.pinned, res) {
                    sims.push((phase, s));
                }
            }
            Phase::ReplicaPlain | Phase::ReplicaSpanned => {
                workload::set_threads(1);
                let is_spanned = phase == Phase::ReplicaSpanned;
                v.attempted += 1;
                match replica(&config, &w, is_spanned) {
                    Ok(r) => {
                        if is_spanned {
                            spanned = Some(r);
                        } else {
                            plain = Some(r);
                        }
                    }
                    Err(e) => v.fail(&e),
                }
            }
            Phase::Functional => {
                v.attempted += 1;
                let t0 = Instant::now();
                let res = Simulator::new(config.clone()).run_functional(&w.device, &w.cmd);
                let wall = t0.elapsed();
                match res {
                    Ok(_) => functional = Some(wall),
                    Err(f) => v.fail(&format!("Simulator::run_functional failed: {f}")),
                }
            }
        }
    }
    let sim = |p: Phase| sims.iter().find(|(q, _)| *q == p).map(|(_, s)| s);
    let (
        Some(own),
        Some(base),
        Some(t2),
        Some(on),
        Some(plain),
        Some(spanned),
        Some(functional),
        Some(setup),
    ) = (
        sim(own),
        sim(base),
        sim(t2),
        sim(on),
        plain,
        spanned,
        functional,
        setup,
    )
    else {
        return (v, None);
    };

    // Self-checks: the replica is the engine `Simulator::run` drives, the
    // spans fit inside the replica's wall time, and the cycle accounting
    // conserves SM-cycles.
    let own_map = flat_map(&own.report.gpu, &own.report.runtime);
    for (what, r) in [("untraced", &plain), ("traced", &spanned)] {
        if r.map != own_map {
            v.fail(&format!(
                "{what} replica statistics differ from Simulator::run ({} vs {})",
                digest_of(&r.map),
                digest(&own.report)
            ));
        }
    }
    let [traverse, take_script, other] = spanned.spans;
    let hooks = traverse.time + take_script.time + other.time;
    if hooks >= spanned.engine_wall {
        v.fail(&format!(
            "hook spans ({hooks:?}) do not fit in GpuSim::run's wall time ({:?})",
            spanned.engine_wall
        ));
    }
    let engine = spanned.engine_wall.saturating_sub(hooks);
    let prof = on.report.prof.as_ref();
    let shares: Vec<(CycleCategory, f64)> = CycleCategory::ALL
        .iter()
        .map(|&c| {
            let merged = prof.map(|p| p.merged());
            let share = merged.map_or(0.0, |m| ratio(m.get(c) as f64, m.total() as f64));
            (c, share)
        })
        .collect();
    let share_sum: f64 = shares.iter().map(|(_, s)| s).sum();
    if !prof.is_some_and(|p| p.conservation_holds()) || (share_sum - 1.0).abs() > 1e-9 {
        v.fail(&format!(
            "cycle accounting does not conserve SM-cycles (shares sum to {share_sum})"
        ));
    }

    let gpu = &base.report.gpu;
    let rt = &base.report.runtime;
    let cycles = gpu.cycles as f64;
    let insts = gpu.issued_insts as f64;
    let num_sms = config.gpu.num_sms as f64;
    let secs = Duration::as_secs_f64;
    let mut m = Metrics::new(PER_LAYER);
    m.set(
        "gpu.engine_s",
        secs(&engine),
        format!(
            "replica GpuSim::run {:.4} s minus hook spans",
            secs(&spanned.engine_wall)
        ),
    );
    m.set(
        "gpu.engine_ns_per_sm_cycle",
        ratio(secs(&engine) * 1e9, num_sms * cycles),
        format!("{num_sms} SMs x {cycles} cycles"),
    );
    for (name, span) in [
        ("traverse", traverse),
        ("take_script", take_script),
        ("hook", other),
    ] {
        let calls = span.calls as f64;
        m.set(
            &format!("core.{name}_s"),
            secs(&span.time),
            format!("self time over {calls} calls"),
        );
        m.set(&format!("core.{name}_calls"), calls, "");
    }
    m.set(
        "core.overhead_s",
        secs(&plain.around_engine),
        "replica time around GpuSim::run",
    );
    m.set(
        "isa.functional_s",
        secs(&functional),
        "Simulator::run_functional",
    );
    m.set(
        "bvh.blas_build_s",
        secs(&setup.blas),
        "Blas::build, every BLAS",
    );
    m.set("bvh.tlas_build_s", secs(&setup.tlas), "Tlas::build");
    m.set(
        "vulkan.pipeline_s",
        secs(&setup.pipeline),
        "Device::create_ray_tracing_pipeline",
    );
    m.set(
        "parallel.t2_speedup",
        ratio(secs(&base.wall), secs(&t2.wall)),
        format!(
            "{:.4} s at threads=1 / {:.4} s at threads=2",
            secs(&base.wall),
            secs(&t2.wall)
        ),
    );
    m.set(
        "trace.observer_overhead",
        ratio(secs(&on.wall), secs(&base.wall)),
        format!(
            "{:.4} s with observers / {:.4} s without",
            secs(&on.wall),
            secs(&base.wall)
        ),
    );
    m.set(
        "trace.span_overhead_s",
        secs(&spanned.engine_wall) - secs(&plain.engine_wall),
        format!(
            "traced {:.4} s minus untraced {:.4} s replica GpuSim::run",
            secs(&spanned.engine_wall),
            secs(&plain.engine_wall)
        ),
    );
    m.set(
        "host.allocs_per_warp_inst",
        ratio(base.allocs as f64, insts),
        format!("{} heap allocations at threads=1", base.allocs),
    );
    m.set("gpu.sim_cycles", cycles, "");
    m.set("gpu.warp_insts", insts, "");
    m.set("gpu.simt_efficiency", gpu.simt_efficiency, "");
    for (c, share) in shares {
        m.set(
            &format!("gpu.acct.{}", c.name()),
            share,
            "share of SM-cycles",
        );
    }
    for (name, key) in [
        ("alu", "inst.Alu"),
        ("mem", "inst.Mem"),
        ("ctrl", "inst.Ctrl"),
        ("rt", "inst.Rt"),
        ("sfu", "inst.Sfu"),
    ] {
        m.set(
            &format!("isa.inst.{name}"),
            gpu.counters.get(key) as f64,
            "",
        );
    }
    m.set("rtunit.ops", gpu.rt_ops as f64, "");
    m.set("rtunit.chunks_fetched", gpu.rt_chunks_fetched as f64, "");
    m.set("rtunit.busy_cycles", gpu.rt_busy_cycles as f64, "");
    for (level, bag) in [("l1", &gpu.l1_stats), ("l2", &gpu.l2_stats)] {
        let (accesses, hits) = cache_accesses(bag);
        m.set(&format!("mem.{level}.accesses"), accesses as f64, "");
        m.set(
            &format!("mem.{level}.hit_rate"),
            ratio(hits as f64, accesses as f64),
            "",
        );
        m.set(
            &format!("mem.{level}.mshr_full"),
            bag.get("mshr.full") as f64,
            "lookups refused by a full MSHR and retried",
        );
    }
    m.set("mem.dram.req", gpu.dram_stats.get("req") as f64, "");
    m.set(
        "mem.dram.row_hit_rate",
        vksim_core::report::dram_row_hit_rate(gpu),
        "",
    );
    m.set(
        "mem.icnt.refused",
        gpu.counters.get("icnt.refused") as f64,
        "",
    );
    m.set("bvh.rays", rt.rays as f64, "");
    m.set("bvh.nodes_visited", rt.nodes_visited as f64, "");
    m.set("bvh.box_tests", rt.box_tests as f64, "");
    m.set("bvh.triangle_tests", rt.triangle_tests as f64, "");
    (v, Some(m))
}

/// `(accesses, hits)` of a cache counter bag: every `<client>.hit` and
/// `<client>.miss_*` key, skipping per-partition copies (`p<i>.`) and
/// MSHR bookkeeping.
pub fn cache_accesses(bag: &vksim_stats::Counters) -> (u64, u64) {
    let (mut accesses, mut hits) = (0, 0);
    for (key, n) in bag.iter() {
        let first = key.split('.').next().unwrap_or("");
        let partition = first.len() > 1
            && first.starts_with('p')
            && first[1..].bytes().all(|b| b.is_ascii_digit());
        if partition || first == "mshr" {
            continue;
        }
        let last = key.rsplit('.').next().unwrap_or("");
        if last == "hit" {
            hits += n;
            accesses += n;
        } else if last.starts_with("miss") {
            accesses += n;
        }
    }
    (accesses, hits)
}
