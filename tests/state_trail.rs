//! State-digest trail: the complete machine state, pinned pause by pause.
//!
//! Each trail runs one workload through `GpuSim::run_until` in 1,000-cycle
//! slices (one engine thread) and hashes `GpuSim::save_state` with
//! FNV-1a-64 at every pause and once more at the end of the run. Each
//! line of the golden file holds one pause: the cycle, the digest of the
//! whole state and one digest per state section (every SM, the request
//! queues, the backend, the memory image, the rest).
//!
//! Golden counters only see the end of a run. This trail sees every SM,
//! cache line, queue and tally at every pause, so an engine change that
//! skips work (or reorders it) must leave the whole machine bit-identical
//! at every checkpoint boundary, not just arrive at the same totals. On a
//! mismatch the failure names the first divergent pause and the first
//! section that differs there.
//!
//! ```sh
//! cargo test --offline -p vksim-bench --test state_trail                 # compare
//! VKSIM_BLESS=1 cargo test --offline -p vksim-bench --test state_trail   # regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use vksim_core::{RtRuntime, SimConfig};
use vksim_gpu::{GpuSim, LaunchDims, RunOutcome};
use vksim_scenes::{build, Scale, WorkloadKind};
use vksim_snapshot::{fnv1a, fnv1a_init};
use vksim_testkit::golden::blessing;

/// Cycles between pauses.
const EVERY: u64 = 1_000;

/// The digests of one pause.
#[derive(Debug, PartialEq, Eq)]
struct Pause {
    cycle: u64,
    total: u64,
    /// `(section label, digest)` in encoding order.
    sections: Vec<(String, u64)>,
}

impl Pause {
    fn of(gpu: &GpuSim) -> Self {
        let (bytes, ends) = gpu.state_sections();
        let mut start = 0;
        let sections = ends
            .into_iter()
            .map(|(section, end)| {
                let digest = fnv1a(fnv1a_init(), &bytes[start..end]);
                start = end;
                (section.to_string().replace(' ', "_"), digest)
            })
            .collect();
        assert_eq!(start, bytes.len(), "the sections cover the whole state");
        Pause {
            cycle: gpu.cycles(),
            total: fnv1a(fnv1a_init(), &bytes),
            sections,
        }
    }

    fn line(&self) -> String {
        let mut s = format!("{} {:016x}", self.cycle, self.total);
        for (_, d) in &self.sections {
            write!(s, " {d:016x}").expect("write to String");
        }
        s
    }
}

/// Runs `kind` at `scale` under `config` in [`EVERY`]-cycle slices,
/// stopping at the end of the run or at the first pause at or past
/// `limit`, and digests the state at every pause and at the end.
fn trail(kind: WorkloadKind, scale: Scale, config: SimConfig, limit: Option<u64>) -> Vec<Pause> {
    let w = build(kind, scale);
    let mut gpu = GpuSim::new(config.with_threads(1).resolve());
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
    let mut rt = RtRuntime::new(
        w.device.tlas.clone().expect("every workload has a TLAS"),
        w.device.blases.clone(),
        [dims.width, dims.height, dims.depth],
        w.cmd.fcc,
    );
    let mut pauses = Vec::new();
    loop {
        let outcome = gpu
            .run_until(&mut rt, gpu.cycles() + EVERY)
            .unwrap_or_else(|f| panic!("{kind:?}: healthy run faulted: {}", f.error));
        pauses.push(Pause::of(&gpu));
        if matches!(outcome, RunOutcome::Done(_)) || limit.is_some_and(|l| gpu.cycles() >= l) {
            return pauses;
        }
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("state_trail_{name}.txt"))
}

fn render(name: &str, pauses: &[Pause]) -> String {
    let mut s = format!(
        "# state trail {name}: FNV-1a-64 of GpuSim::save_state every {EVERY} cycles and at \
         the end of the run\n# cycle total"
    );
    if let Some(first) = pauses.first() {
        for (label, _) in &first.sections {
            write!(s, " {label}").expect("write to String");
        }
    }
    s.push('\n');
    for p in pauses {
        s.push_str(&p.line());
        s.push('\n');
    }
    s
}

/// Compares `pauses` with the golden trail `name`, naming the first
/// divergent pause and its first differing section; blesses instead when
/// `VKSIM_BLESS` is set.
fn check(name: &str, pauses: &[Pause]) {
    let path = golden_path(name);
    let text = render(name, pauses);
    if blessing() {
        std::fs::write(&path, &text).expect("write golden trail");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless with\n  VKSIM_BLESS=1 cargo test --offline -p vksim-bench \
             --test state_trail",
            path.display()
        )
    });
    let header = golden
        .lines()
        .nth(1)
        .expect("golden trail has a column header");
    let labels: Vec<&str> = header.split_whitespace().skip(3).collect();
    let rows: Vec<Vec<&str>> = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect();
    for (i, p) in pauses.iter().enumerate() {
        let Some(row) = rows.get(i) else {
            panic!(
                "state trail {name}: the run has {} pauses, the golden {}; first extra \
                 pause at cycle {}",
                pauses.len(),
                rows.len(),
                p.cycle
            );
        };
        let line = p.line();
        let now: Vec<&str> = line.split_whitespace().collect();
        if now == *row {
            continue;
        }
        let detail = if now[0] != row[0] {
            format!("pause cycle {} in the golden, {} now", row[0], now[0])
        } else {
            let at = (2..now.len().max(row.len()))
                .find(|&c| now.get(c) != row.get(c))
                .expect("rows differ past the cycle column");
            format!(
                "first differing section {} (golden {}, now {})",
                labels.get(at - 2).copied().unwrap_or("?"),
                row.get(at).copied().unwrap_or("-"),
                now.get(at).copied().unwrap_or("-"),
            )
        };
        panic!(
            "state trail {name} diverges at pause {} (cycle {}): {detail}\n\
             golden file: {}; re-bless only for an intended change with\n  \
             VKSIM_BLESS=1 cargo test --offline -p vksim-bench --test state_trail",
            i + 1,
            p.cycle,
            path.display()
        );
    }
    assert_eq!(
        pauses.len(),
        rows.len(),
        "state trail {name}: the run ended after {} pauses, the golden has {}",
        pauses.len(),
        rows.len()
    );
}

#[test]
fn state_trail_rtv6_test() {
    let pauses = trail(
        WorkloadKind::Rtv6,
        Scale::Test,
        SimConfig::test_small(),
        None,
    );
    check("rtv6", &pauses);
}

#[test]
fn state_trail_tri_test() {
    let pauses = trail(
        WorkloadKind::Tri,
        Scale::Test,
        SimConfig::test_small(),
        None,
    );
    check("tri", &pauses);
}

#[test]
fn state_trail_rtv6_paper_small_first_20k_cycles() {
    let pauses = trail(
        WorkloadKind::Rtv6,
        Scale::Small,
        SimConfig::paper(),
        Some(20_000),
    );
    check("rtv6_paper_small", &pauses);
}
