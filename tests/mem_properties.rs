//! Property-based tests for the partitioned memory system: address
//! slicing totality/balance and the FR-FCFS scheduler's starvation bound
//! and FCFS-degeneration, on the in-repo `vksim-testkit` harness
//! (offline, deterministic, replayable via the seed printed on failure).

use vksim_mem::{
    partition_of, AccessKind, Dram, DramConfig, DramIssue, DramSched, MemRequest, MemSink,
    RequestQueue, SharedMemSystem, SysCounter, SystemConfig, PARTITION_BYTES,
};
use vksim_testkit::prop::{check, u32_in, u64_in, vec_of};
use vksim_testkit::{prop_assert, prop_assert_eq};

/// Every address maps to exactly one partition (totality), all addresses
/// within one 128 B line map to the same partition, and consecutive lines
/// rotate through all partitions (perfect deterministic balance).
#[test]
fn partition_slicing_is_total_and_line_stable() {
    let strat = (u32_in(1, 8), vec_of(u64_in(0, 1 << 40), 16, 64));
    check(&strat, |(n, addrs)| {
        let n = *n;
        for &addr in addrs {
            let p = partition_of(addr, n);
            prop_assert!(p < n, "partition {} out of range for n={}", p, n);
            // Line stability: every byte of the 128 B line agrees.
            let line = addr / PARTITION_BYTES * PARTITION_BYTES;
            prop_assert_eq!(partition_of(line, n), p);
            prop_assert_eq!(partition_of(line + PARTITION_BYTES - 1, n), p);
            // Rotation: the next line lands on the next partition.
            prop_assert_eq!(partition_of(line + PARTITION_BYTES, n), (p + 1) % n);
        }
        // Any window of n consecutive lines covers each partition once.
        let base = addrs[0] / PARTITION_BYTES * PARTITION_BYTES;
        let mut seen = vec![false; n as usize];
        for i in 0..n as u64 {
            seen[partition_of(base + i * PARTITION_BYTES, n) as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "window missed a partition");
        Ok(())
    });
}

/// A uniform random address stream occupies every partition within ±20%
/// of the uniform share.
#[test]
fn partition_slicing_balances_uniform_streams() {
    // 4096 samples: at n=8 the expected share is 512 with σ ≈ 21, so the
    // ±20% band is ≈ 4.9σ wide — deterministic under the suite seed and
    // comfortably stable under reasonable seed replay.
    let strat = (u32_in(2, 8), vec_of(u64_in(0, 1 << 30), 4096, 4096));
    check(&strat, |(n, addrs)| {
        let n = *n;
        let mut occupancy = vec![0u64; n as usize];
        for &addr in addrs {
            occupancy[partition_of(addr, n) as usize] += 1;
        }
        let expected = addrs.len() as f64 / n as f64;
        for (i, &c) in occupancy.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            prop_assert!(
                dev <= 0.20,
                "partition {} occupancy {} deviates {:.1}% from uniform {}",
                i,
                c,
                dev * 100.0,
                expected
            );
        }
        Ok(())
    });
}

/// Drives a load stream through the SM-side [`RequestQueue`] into a
/// backend, one drain per cycle, collecting completions until the backend
/// is idle and the queue drained (or `horizon` cycles pass). Returns
/// `(completions, cycles_used)`; asserts the ingress-occupancy bound every
/// cycle when `depth` is finite.
fn drive_backpressured(
    sys: &mut SharedMemSystem,
    queue: &mut RequestQueue,
    depth: u32,
    horizon: u64,
) -> (Vec<(u64, u64)>, u64) {
    let mut completions = Vec::new();
    let mut cycle = 0u64;
    while cycle < horizon {
        cycle += 1;
        completions.extend(sys.advance_to(cycle));
        queue.drain_into(sys);
        if depth > 0 {
            for p in 0..sys.num_partitions() {
                assert!(
                    sys.ingress_occupancy(p) <= depth,
                    "partition {p} occupancy {} exceeds depth {depth} at cycle {cycle}",
                    sys.ingress_occupancy(p)
                );
            }
        }
        if queue.is_empty() && sys.is_idle() {
            break;
        }
    }
    // Late completions already scheduled past `cycle`.
    completions.extend(sys.advance_to(u64::MAX));
    (completions, cycle)
}

/// Bounded ingress is really bounded and never deadlocks: under a random
/// load stream pushed through a depth-1..4 interconnect, per-partition
/// occupancy never exceeds the configured depth, every request completes,
/// and at least one refusal is observed when the stream is long enough to
/// overrun the bound.
#[test]
fn bounded_ingress_occupancy_is_bounded_and_deadlock_free() {
    let strat = (
        u32_in(1, 4),                       // icnt_queue_depth
        u32_in(1, 3),                       // num_partitions
        vec_of(u64_in(0, 1 << 16), 16, 64), // chunk addresses
    );
    check(&strat, |(depth, parts, addrs)| {
        let config = SystemConfig {
            num_partitions: *parts,
            icnt_queue_depth: *depth,
            icnt_return_credits: 2,
            ..SystemConfig::default()
        };
        let mut sys = SharedMemSystem::new(config);
        let mut queue = RequestQueue::new();
        for (i, &addr) in addrs.iter().enumerate() {
            queue.submit(
                MemRequest {
                    id: i as u64 + 1,
                    addr: addr & !31,
                    kind: AccessKind::ShaderLoad,
                    is_store: false,
                },
                0,
            );
        }
        let (completions, cycles) = drive_backpressured(&mut sys, &mut queue, *depth, 1_000_000);
        prop_assert!(
            queue.is_empty(),
            "queue still holds {} requests after {} cycles: backpressure deadlock",
            queue.len(),
            cycles
        );
        prop_assert_eq!(completions.len(), addrs.len());
        let mut ids: Vec<u64> = completions.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), addrs.len(), "every load completed exactly once");
        // Acceptance counting: accepted offers == requests, and refusals
        // (if any) were counted separately rather than inflating traffic.
        prop_assert_eq!(sys.stats.get(SysCounter::IcntToL2), addrs.len() as u64);
        Ok(())
    });
}

/// `icnt_queue_depth = 0` (unbounded, the historical model) and a finite
/// depth too large to ever fill produce byte-identical completion
/// schedules and statistics: the bounded machinery is pure overhead-free
/// bookkeeping until a queue actually fills.
#[test]
fn unbounded_and_unreachable_depth_schedules_match() {
    let strat = (
        u32_in(1, 4),                      // num_partitions
        vec_of(u64_in(0, 1 << 16), 8, 48), // chunk addresses
    );
    check(&strat, |(parts, addrs)| {
        let run = |depth: u32| {
            let config = SystemConfig {
                num_partitions: *parts,
                icnt_queue_depth: depth,
                ..SystemConfig::default()
            };
            let mut sys = SharedMemSystem::new(config);
            let mut queue = RequestQueue::new();
            for (i, &addr) in addrs.iter().enumerate() {
                queue.submit(
                    MemRequest {
                        id: i as u64 + 1,
                        addr: addr & !31,
                        kind: AccessKind::ShaderLoad,
                        is_store: false,
                    },
                    i as u64, // staggered submit times
                );
            }
            let (completions, _) = drive_backpressured(&mut sys, &mut queue, depth, 1_000_000);
            (
                completions,
                sys.stats.clone(),
                sys.l2_stats(),
                sys.dram_stats(),
            )
        };
        let unbounded = run(0);
        let huge = run(1 << 20);
        prop_assert_eq!(&unbounded.0, &huge.0, "completion schedules diverged");
        prop_assert_eq!(&unbounded.1, &huge.1, "icnt stats diverged");
        prop_assert_eq!(&unbounded.2, &huge.2, "L2 stats diverged");
        prop_assert_eq!(&unbounded.3, &huge.3, "DRAM stats diverged");
        Ok(())
    });
}

/// A depth-1 interconnect in front of a single partition must refuse
/// offers while the lone slot is occupied — the head-of-line blocking the
/// SM issue stage keys its stall accounting from.
#[test]
fn depth_one_ingress_refuses_concurrent_offers() {
    let config = SystemConfig {
        num_partitions: 1,
        icnt_queue_depth: 1,
        ..SystemConfig::default()
    };
    let mut sys = SharedMemSystem::new(config);
    let req = |id: u64, addr: u64| MemRequest {
        id,
        addr,
        kind: AccessKind::ShaderLoad,
        is_store: false,
    };
    assert!(sys.try_submit(req(1, 0), 0), "empty queue accepts");
    assert!(!sys.try_submit(req(2, 32), 0), "full queue refuses");
    assert_eq!(sys.stats.get(SysCounter::IcntRefused), 1);
    assert_eq!(
        sys.stats.get(SysCounter::IcntToL2),
        1,
        "refusals are not traffic"
    );
    // Drain the slot; the refused request must be accepted on re-offer.
    sys.advance_to(100_000);
    assert!(sys.try_submit(req(2, 32), 100_000), "freed queue accepts");
}

/// Replicates [`Dram`]'s documented channel interleave (256 B).
fn channel_of(addr: u64, channels: u32) -> usize {
    ((addr / 256) % channels as u64) as usize
}

/// FR-FCFS never starves: every request completes within the documented
/// deterministic bound `age_cap + 2 * max_access * (k + 1)` of its
/// arrival, where `k` counts older same-channel requests pending when it
/// arrived.
#[test]
fn fr_fcfs_completes_within_starvation_bound() {
    let strat = (
        u32_in(1, 8),                                      // queue_depth
        u64_in(0, 200),                                    // age_cap
        vec_of((u64_in(0, 1 << 14), u64_in(0, 8)), 4, 48), // (addr, gap)
    );
    check(&strat, |(depth, age_cap, stream)| {
        let config = DramConfig {
            channels: 2,
            banks_per_channel: 4,
            row_bytes: 512,
            sched: DramSched::FrFcfs {
                queue_depth: *depth,
                age_cap: *age_cap,
            },
            ..DramConfig::default()
        };
        let max_access = config.max_access_cycles();
        let mut d = Dram::new(config);

        // Submit everything up front: k for request i is then simply the
        // number of earlier submissions to the same channel.
        let mut now = 0u64;
        let mut meta = Vec::new(); // ticket -> (arrival, k)
        let mut per_channel = [0u64; 2];
        for &(addr, gap) in stream {
            now += gap;
            let ch = channel_of(addr, 2);
            let DramIssue::Queued(ticket) = d.submit(addr, now) else {
                prop_assert!(false, "FR-FCFS config must queue");
                unreachable!()
            };
            meta.push((ticket, now, per_channel[ch]));
            per_channel[ch] += 1;
        }

        let completions = d.run_schedule(u64::MAX);
        prop_assert!(!d.has_queued(), "full-horizon schedule must drain");
        prop_assert_eq!(completions.len(), stream.len());
        for &(ticket, arrival, k) in &meta {
            let done = completions
                .iter()
                .find(|&&(t, _)| t == ticket)
                .map(|&(_, done)| done);
            prop_assert!(done.is_some(), "ticket {} never completed", ticket);
            let bound = arrival + age_cap + 2 * max_access * (k + 1);
            prop_assert!(
                done.unwrap() <= bound,
                "ticket {} done {} exceeds bound {} (arrival {}, k {})",
                ticket,
                done.unwrap(),
                bound,
                arrival,
                k
            );
        }
        Ok(())
    });
}

/// With `age_cap = 0` the FR-FCFS schedule degenerates to FCFS
/// cycle-for-cycle: identical per-request completion times and identical
/// counters, regardless of queue depth and of how the scheduling horizon
/// advances.
#[test]
fn fr_fcfs_age_cap_zero_matches_fcfs_schedule() {
    let strat = (
        u32_in(1, 8),                                      // queue_depth
        vec_of((u64_in(0, 1 << 14), u64_in(0, 8)), 1, 48), // (addr, gap)
    );
    check(&strat, |(depth, stream)| {
        let base = DramConfig {
            channels: 2,
            banks_per_channel: 4,
            row_bytes: 512,
            ..DramConfig::default()
        };

        // Reference: the in-order path services at submit.
        let mut fcfs = Dram::new(DramConfig {
            sched: DramSched::Fcfs,
            ..base.clone()
        });
        let mut now = 0u64;
        let mut expected = Vec::new();
        for &(addr, gap) in stream {
            now += gap;
            match fcfs.submit(addr, now) {
                DramIssue::Done(done) => expected.push(done),
                DramIssue::Queued(_) => {
                    prop_assert!(false, "FCFS never queues");
                }
            }
        }

        // FR-FCFS at cap 0, scheduled incrementally at each arrival and
        // drained at the end (exercises the nondecreasing-horizon safety).
        let mut fr = Dram::new(DramConfig {
            sched: DramSched::FrFcfs {
                queue_depth: *depth,
                age_cap: 0,
            },
            ..base
        });
        let mut now = 0u64;
        let mut got = std::collections::HashMap::new();
        for &(addr, gap) in stream {
            now += gap;
            let DramIssue::Queued(ticket) = fr.submit(addr, now) else {
                prop_assert!(false, "FR-FCFS config must queue");
                unreachable!()
            };
            let _ = ticket;
            for (t, done) in fr.run_schedule(now) {
                got.insert(t, done);
            }
        }
        for (t, done) in fr.run_schedule(u64::MAX) {
            got.insert(t, done);
        }

        prop_assert_eq!(got.len(), expected.len());
        for (i, &want) in expected.iter().enumerate() {
            // Tickets are 1-based in submission order.
            prop_assert_eq!(
                got.get(&(i as u64 + 1)).copied(),
                Some(want),
                "request {} diverged from the FCFS schedule",
                i
            );
        }
        prop_assert_eq!(&fr.stats, &fcfs.stats);
        Ok(())
    });
}
