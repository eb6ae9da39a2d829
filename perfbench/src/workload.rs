//! The benchmark's workloads and the process environment they run in.

use crate::digest::Digest;
use vksim_core::SimConfig;
use vksim_scenes::WorkloadKind;

/// One benchmark workload: a paper Table IV scene at `Scale::Small` on the
/// 48-SM `SimConfig::paper()` machine.
pub struct Spec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The scene.
    pub kind: WorkloadKind,
    /// Engine threads, set through `VKSIM_THREADS`.
    pub threads: usize,
    /// Cycle accounting and RT analytics on (kept in memory, no files).
    pub observers: bool,
    /// The digest every run of this workload must reproduce.
    pub pinned: Digest,
}

/// EXT at `Scale::Small` on `SimConfig::paper()`. The counters do not
/// depend on the thread count or on the observers, so both EXT workloads
/// share it.
const EXT: Digest = Digest {
    cycles: 28_465,
    warp_insts: 728_815,
    hash: 0x7e1c_a535_af64_457c,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Spec; 4] = [
    Spec {
        name: "ext_issue",
        kind: WorkloadKind::Ext,
        threads: 1,
        observers: false,
        pinned: EXT,
    },
    Spec {
        name: "rtv5_rt",
        kind: WorkloadKind::Rtv5,
        threads: 1,
        observers: false,
        pinned: Digest {
            cycles: 35_898,
            warp_insts: 314_716,
            hash: 0x1297_3201_e2e9_0a88,
        },
    },
    Spec {
        name: "rtv6_stall",
        kind: WorkloadKind::Rtv6,
        threads: 1,
        observers: false,
        pinned: Digest {
            cycles: 574_220,
            warp_insts: 385_955,
            hash: 0xe70d_1508_588a_24ee,
        },
    },
    Spec {
        name: "ext_observed_t2",
        kind: WorkloadKind::Ext,
        threads: 2,
        observers: true,
        pinned: EXT,
    },
];

impl Spec {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        ALL.iter().find(|s| s.name == name)
    }
}

/// Every workload name.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|s| s.name).collect()
}

/// The Paper machine, with or without the in-memory observers. The thread
/// count is not part of it: [`set_threads`] sets it through the
/// environment, as a user would.
pub fn config(observers: bool) -> SimConfig {
    SimConfig::paper()
        .with_accounting(observers)
        .with_rt_analytics(observers)
}

/// Removes every `VKSIM_*` variable, since the engine reads thread count,
/// tracing, profiling, RT analytics, checkpointing, the watchdog and the
/// dump directory from the environment. Post-mortem dumps of a failing run
/// go under the build directory.
pub fn scrub_env() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VKSIM_") {
            std::env::remove_var(&key);
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dumps = std::path::Path::new(&target).join("perfbench-dumps");
    std::env::set_var("VKSIM_DUMP_DIR", dumps);
}

/// Sets the engine thread count the next run uses, through the documented
/// `VKSIM_THREADS` variable.
pub fn set_threads(threads: usize) {
    std::env::set_var("VKSIM_THREADS", threads.to_string());
}
