//! Metric catalogs, their computation from timed runs, and the result
//! line.

use crate::RunSample;
use std::collections::BTreeMap;
use std::time::Duration;

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("ns_per_sim_cycle", "ns"),
    ("ns_per_warp_inst", "ns"),
    ("setup_s", "s"),
    ("allocs_per_sim_cycle", "1/cycle"),
    ("peak_heap_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu.engine_s", "s"),
    ("gpu.engine_ns_per_sm_cycle", "ns"),
    ("core.traverse_s", "s"),
    ("core.traverse_calls", "count"),
    ("core.take_script_s", "s"),
    ("core.take_script_calls", "count"),
    ("core.hook_s", "s"),
    ("core.hook_calls", "count"),
    ("core.overhead_s", "s"),
    ("isa.functional_s", "s"),
    ("bvh.blas_build_s", "s"),
    ("bvh.tlas_build_s", "s"),
    ("vulkan.pipeline_s", "s"),
    ("parallel.t2_speedup", "ratio"),
    ("trace.observer_overhead", "ratio"),
    ("trace.span_overhead_s", "s"),
    ("host.allocs_per_warp_inst", "1/inst"),
    ("gpu.sim_cycles", "count"),
    ("gpu.warp_insts", "count"),
    ("gpu.simt_efficiency", "ratio"),
    ("gpu.acct.issued", "ratio"),
    ("gpu.acct.mem_stall", "ratio"),
    ("gpu.acct.rt_stall", "ratio"),
    ("gpu.acct.icnt_stall", "ratio"),
    ("gpu.acct.simt_sync", "ratio"),
    ("gpu.acct.no_eligible_warp", "ratio"),
    ("gpu.acct.drained", "ratio"),
    ("isa.inst.alu", "count"),
    ("isa.inst.mem", "count"),
    ("isa.inst.ctrl", "count"),
    ("isa.inst.rt", "count"),
    ("isa.inst.sfu", "count"),
    ("rtunit.ops", "count"),
    ("rtunit.chunks_fetched", "count"),
    ("rtunit.busy_cycles", "count"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.hit_rate", "ratio"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.hit_rate", "ratio"),
    ("mem.l1.mshr_full", "count"),
    ("mem.l2.mshr_full", "count"),
    ("mem.dram.req", "count"),
    ("mem.dram.row_hit_rate", "ratio"),
    ("mem.icnt.refused", "count"),
    ("bvh.rays", "count"),
    ("bvh.nodes_visited", "count"),
    ("bvh.box_tests", "count"),
    ("bvh.triangle_tests", "count"),
];

/// A `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one catalog, filled in by name, plus a human-readable
/// note per metric.
pub struct Metrics {
    catalog: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Metrics {
    pub fn new(catalog: &'static [(&'static str, &'static str)]) -> Self {
        assert!(catalog.iter().all(|(name, _)| valid_name(name)));
        Metrics {
            catalog,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be in the catalog.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog or a non-finite value: both are
    /// bugs in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let &(key, _) = self
            .catalog
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(key, (value, note.into()));
    }

    /// One aligned line per metric, in catalog order.
    pub fn table(&self) -> Vec<String> {
        self.entries()
            .map(|(name, unit, value, note)| format!("  {name:<28} {value:>16.6} {unit:<8} {note}"))
            .collect()
    }

    fn entries(&self) -> impl Iterator<Item = (&'static str, &'static str, f64, &str)> + '_ {
        self.catalog.iter().map(|&(name, unit)| {
            let (value, note) = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never set"));
            (name, unit, *value, note.as_str())
        })
    }

    /// The result object the benchmark prints as its last line.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries()
            .map(|(name, unit, value, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a non-empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn spread_note(stat: &str, xs: &[f64], what: &str) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{stat} of {} {what}, min {lo:.4}, max {hi:.4}", xs.len())
}

/// What an untraced run keeps of each finished `Simulator::run`. The
/// report itself is dropped at once, so the heap peak does not grow with
/// the number of runs.
pub struct Timing {
    pub wall: Duration,
    pub allocs: u64,
    pub cycles: u64,
    pub warp_insts: u64,
}

impl From<&RunSample> for Timing {
    fn from(s: &RunSample) -> Self {
        Timing {
            wall: s.wall,
            allocs: s.allocs,
            cycles: s.report.gpu.cycles,
            warp_insts: s.report.gpu.issued_insts,
        }
    }
}

/// The end-to-end metrics of an untraced run; `None` when no run finished.
///
/// `run_s` is the mean of the runs, not their median. The host's speed
/// drifts over tens of seconds, and a run of `rtv6_stall` takes several
/// seconds, so a window holds only a handful of runs; their mean weighs
/// every second of the window alike, and its spread between invocations
/// is smaller than the median's.
pub fn end_to_end(samples: &[Timing], setups: &[Duration], peak_bytes: usize) -> Option<Metrics> {
    let first = samples.first()?;
    let cycles = first.cycles as f64;
    let insts = first.warp_insts as f64;
    let runs: Vec<f64> = samples.iter().map(|s| s.wall.as_secs_f64()).collect();
    let allocs: Vec<f64> = samples.iter().map(|s| s.allocs as f64).collect();
    let builds: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let run_s = mean(&runs);
    let mut m = Metrics::new(END_TO_END);
    m.set("run_s", run_s, spread_note("mean", &runs, "runs"));
    m.set(
        "ns_per_sim_cycle",
        ratio(run_s * 1e9, cycles),
        format!("{cycles} simulated cycles"),
    );
    m.set(
        "ns_per_warp_inst",
        ratio(run_s * 1e9, insts),
        format!("{insts} warp-instructions"),
    );
    m.set(
        "setup_s",
        median(&builds),
        spread_note("median", &builds, "builds"),
    );
    m.set(
        "allocs_per_sim_cycle",
        ratio(median(&allocs), cycles),
        format!("{} heap allocations per run", median(&allocs)),
    );
    m.set(
        "peak_heap_mib",
        peak_bytes as f64 / (1024.0 * 1024.0),
        "peak live heap over setup and runs",
    );
    Some(m)
}
