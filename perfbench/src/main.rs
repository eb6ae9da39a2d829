//! Simulator-speed benchmark: host wall-clock per simulated cycle and per
//! warp-instruction on Paper-config workloads (see README.md).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times `Simulator::run` with nothing else in the process and
//! prints the end-to-end metrics; `--trace 1` runs the same workload with
//! spans around calls into each crate and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod digest;
mod metrics;
mod traced;
mod workload;

use digest::Digest;
use metrics::{Metrics, Timing};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vksim_core::{RunReport, SimConfig, Simulator};
use vksim_scenes::{build, Scale, Workload};
use workload::Spec;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Scene builds per untraced run; `setup_s` is their median. A build takes
/// milliseconds, so many cost little and steady the median.
const SETUP_REPS: usize = 75;
/// Fewest timed runs an untraced run makes, however long they take.
const MIN_RUNS: usize = 3;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::by_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; known: {}",
                        workload::names().join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the seed's only use is ordering runs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Builds the workload's scene, timing `vksim_scenes::build`.
pub fn timed_build(spec: &Spec) -> (Workload, Duration) {
    let t0 = Instant::now();
    let w = build(spec.kind, Scale::Small);
    (w, t0.elapsed())
}

/// One timed `Simulator::run`.
pub struct RunSample {
    pub wall: Duration,
    /// Heap `alloc` + `realloc` calls inside `Simulator::run`.
    pub allocs: u64,
    pub report: RunReport,
}

/// Runs the workload once under `config` at `threads` engine threads.
pub fn timed_run(config: &SimConfig, threads: usize, w: &Workload) -> Result<RunSample, String> {
    workload::set_threads(threads);
    let mut sim = Simulator::new(config.clone());
    let a0 = alloc::calls();
    let t0 = Instant::now();
    let res = sim.run(&w.device, &w.cmd);
    let wall = t0.elapsed();
    let allocs = alloc::calls() - a0;
    res.map(|report| RunSample {
        wall,
        allocs,
        report,
    })
    .map_err(|f| format!("Simulator::run failed: {f}"))
}

/// Tally of runs and their verdicts.
#[derive(Default)]
pub struct Verdicts {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdicts {
    /// Records one run: it fails if `run` returned `Err` or its digest
    /// differs from the pinned one. Returns the sample of every run that
    /// finished, so a mismatching run is still timed and reported.
    pub fn check(
        &mut self,
        label: &str,
        pinned: Digest,
        res: Result<RunSample, String>,
    ) -> Option<RunSample> {
        self.attempted += 1;
        match res {
            Err(e) => {
                eprintln!("perfbench: {label}: {e}");
                self.failed += 1;
                None
            }
            Ok(s) => {
                let got = digest::digest(&s.report);
                if got != pinned {
                    eprintln!("perfbench: {label}: digest mismatch: pinned {pinned}, got {got}");
                    self.failed += 1;
                }
                Some(s)
            }
        }
    }

    /// Records a failed run or self-check found by a check other than the
    /// digest.
    pub fn fail(&mut self, what: &str) {
        eprintln!("perfbench: check failed: {what}");
        self.failed += 1;
    }
}

/// The untraced run: at least `MIN_RUNS` timed runs that continue for
/// `seconds`, with `SETUP_REPS` timed scene builds spread over that window
/// at points drawn from the seed.
fn measure(args: &Args) -> (Verdicts, Option<Metrics>) {
    let spec = args.workload;
    let mut rng = Rng::new(args.seed);
    let mut v = Verdicts::default();
    let mut setups = Vec::new();
    let mut samples: Vec<Timing> = Vec::new();
    let config = workload::config(spec.observers);
    alloc::reset_peak();
    let (mut w, d) = timed_build(spec);
    setups.push(d);
    // Each further build gets a point in the window, as a share of
    // `seconds`, and runs after the first timed run that ends past it, so
    // the builds see the same host drift as the runs. Builds whose point
    // the runs never pass run after the last one.
    let mut build_at: Vec<f64> = (1..SETUP_REPS)
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    build_at.sort_by(f64::total_cmp);
    let mut built = 0;
    let start = Instant::now();
    let mut runs = 0;
    loop {
        let timing = runs < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds;
        let share = if timing {
            runs += 1;
            let res = timed_run(&config, spec.threads, &w);
            if let Some(s) = v.check(&format!("{} run {runs}", spec.name), spec.pinned, res) {
                samples.push(Timing::from(&s));
            }
            start.elapsed().as_secs_f64() / args.seconds
        } else {
            f64::INFINITY
        };
        while built < build_at.len() && build_at[built] <= share {
            drop(w);
            let (nw, d) = timed_build(spec);
            w = nw;
            setups.push(d);
            built += 1;
        }
        if !timing {
            break;
        }
    }
    let peak = alloc::peak_bytes();
    if spec.threads == 1 {
        report_alloc_nondeterminism(&samples);
    }
    let m = metrics::end_to_end(&samples, &setups, peak);
    (v, m)
}

/// At one engine thread the simulator's work is deterministic, so every
/// run should make the same number of heap allocations; reports each run
/// whose count differs from the first run's.
fn report_alloc_nondeterminism(samples: &[Timing]) {
    let Some(first) = samples.first().map(|s| s.allocs) else {
        return;
    };
    for (i, s) in samples.iter().enumerate().skip(1) {
        if s.allocs != first {
            eprintln!(
                "perfbench: nondeterminism: run {} made {} heap allocations, run 1 made {first}",
                i + 1,
                s.allocs
            );
        }
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "perfbench: refusing to measure a debug build; run it with `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    workload::scrub_env();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (v, m) = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        measure(&args)
    };
    let Some(m) = m else {
        eprintln!("perfbench: no run finished; nothing to report");
        return ExitCode::FAILURE;
    };
    for line in m.table() {
        println!("{line}");
    }
    println!(
        "{}: attempted {} runs, failed {}",
        args.workload.name, v.attempted, v.failed
    );
    println!("{}", m.result_json(v.failed == 0, v.attempted, v.failed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_scenes::WorkloadKind;
    use vksim_testkit::json::{parse_json, JsonValue};

    /// TRI at test scale on the 2-SM machine: the benchmark's code paths
    /// at a size a debug build runs in seconds.
    fn tri_run() -> (Workload, RunSample) {
        let w = build(WorkloadKind::Tri, Scale::Test);
        let s = timed_run(&SimConfig::test_small(), 1, &w).expect("TRI runs");
        (w, s)
    }

    #[test]
    fn digest_is_stable_across_two_builds() {
        let (_, a) = tri_run();
        let (_, b) = tri_run();
        assert_eq!(digest::digest(&a.report), digest::digest(&b.report));
        assert!(a.report.gpu.cycles > 0 && a.report.gpu.issued_insts > 0);
    }

    #[test]
    fn mismatched_digest_or_error_counts_as_failure() {
        let (w, s) = tri_run();
        let good = digest::digest(&s.report);
        let mut v = Verdicts::default();
        assert!(v.check("match", good, Ok(s)).is_some());
        assert_eq!((v.attempted, v.failed), (1, 0));

        let s = timed_run(&SimConfig::test_small(), 1, &w).expect("TRI runs");
        let wrong = Digest {
            hash: good.hash ^ 1,
            ..good
        };
        assert!(v.check("tampered", wrong, Ok(s)).is_some());
        assert_eq!((v.attempted, v.failed), (2, 1));

        assert!(v.check("error", good, Err("boom".into())).is_none());
        assert_eq!((v.attempted, v.failed), (3, 2));
    }

    #[test]
    fn digest_hashes_every_counter() {
        let (_, s) = tri_run();
        let mut map = digest::flat_map(&s.report.gpu, &s.report.runtime);
        let before = digest::digest_of(&map);
        *map.get_mut("runtime.rays").expect("rays key") += 1;
        let after = digest::digest_of(&map);
        assert_eq!(
            (before.cycles, before.warp_insts),
            (after.cycles, after.warp_insts)
        );
        assert_ne!(before.hash, after.hash);
    }

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(list: &JsonValue) -> Vec<(String, String)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_are_valid_and_match_benchmark_json() {
        let json = benchmark_json();
        for (key, catalog) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let declared = names_units(json.get(key).expect(key));
            let emitted: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key} differs from BENCHMARK.json");
            for (name, _) in &emitted {
                assert!(metrics::valid_name(name), "bad metric name {name}");
            }
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, workload::names());
    }

    #[test]
    fn valid_name_rejects_what_the_contract_rejects() {
        assert!(metrics::valid_name("gpu.acct.no_eligible_warp"));
        assert!(metrics::valid_name("9-lives_x.y"));
        for bad in ["", "_lead", ".lead", "has space", "slash/name", "uni\u{e9}"] {
            assert!(!metrics::valid_name(bad), "{bad:?} accepted");
        }
        assert!(!metrics::valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let (_, s) = tri_run();
        let setups = [Duration::from_millis(2), Duration::from_millis(3)];
        let m = metrics::end_to_end(&[Timing::from(&s)], &setups, 1 << 20).expect("one sample");
        let line = m.result_json(true, 1, 0);
        let JsonValue::Object(top) = parse_json(&line).expect("result parses") else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parse_json(&line).unwrap();
        let metrics = metrics.get("metrics").expect("metrics");
        for &(name, unit) in metrics::END_TO_END {
            let entry = metrics.get(name).expect(name);
            assert!(entry.get("value").and_then(JsonValue::as_f64).is_some());
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
    }

    #[test]
    fn cache_accesses_skip_partition_copies_and_mshr_keys() {
        let mut c = vksim_stats::Counters::new();
        c.add("shader_load.hit", 3);
        c.add("shader_load.miss_compulsory", 1);
        c.add("rt_unit.miss_capacity", 2);
        c.add("shader_store.write_through", 9);
        c.add("p0.shader_load.hit", 3);
        c.add("mshr.merged", 7);
        assert_eq!(traced::cache_accesses(&c), (6, 3));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
