//! Banked DRAM timing model with open-row policy.
//!
//! Models what the Fig. 16 experiment measures: *DRAM efficiency* (cycles
//! transferring data out of cycles with pending requests) and *DRAM
//! utilization* (out of all cycles), plus row-buffer locality. Requests are
//! interleaved across channels by address, and each channel has multiple
//! banks with an open-row policy: a request to the open row pays only CAS
//! latency; otherwise precharge + activate + CAS.
//!
//! Two memory-access schedulers are modelled ([`DramSched`]):
//!
//! * [`DramSched::Fcfs`] — strictly in arrival order (the historical path;
//!   goldens are recorded against it).
//! * [`DramSched::FrFcfs`] — first-ready, first-come-first-served (the
//!   scheduler GPGPU-Sim/Accel-Sim model): a bounded per-bank request
//!   queue where requests hitting the open row are serviced before older
//!   row misses, with an *age cap* as the starvation bound. Once the
//!   oldest request in a channel has waited `age_cap` cycles it is served
//!   next, so every request has a deterministic worst-case service cycle:
//!   with at most `k` older same-channel requests pending at arrival, a
//!   request completes within `age_cap + 2 * max_access * (k + 1)` cycles
//!   of its arrival, where `max_access = t_rp + t_rcd + t_cas +
//!   burst_cycles`. With `age_cap = 0` the age rule fires on every
//!   decision, which degenerates to exactly the FCFS schedule.

use std::collections::VecDeque;

vksim_stats::counter_slots! {
    /// DRAM request and row-buffer counters.
    pub enum DramCounter => DramCounters {
        /// Serviced requests.
        Req = "req",
        /// Accesses to a bank with no open row (activate + CAS).
        RowEmpty = "row_empty",
        /// Accesses to the open row (CAS only).
        RowHit = "row_hit",
        /// Accesses to another row (precharge + activate + CAS).
        RowMiss = "row_miss",
    }
}

/// DRAM memory-access scheduling policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DramSched {
    /// In-order service at arrival (the original model; golden continuity).
    #[default]
    Fcfs,
    /// First-ready FCFS with a bounded reorder window and starvation bound.
    FrFcfs {
        /// Per-bank reorder window: only the first `queue_depth` queued
        /// requests of a bank are eligible to bypass older ones.
        queue_depth: u32,
        /// Starvation bound in cycles: once the oldest request of a channel
        /// has waited this long it is unconditionally served next. `0`
        /// reproduces the FCFS schedule cycle-for-cycle.
        age_cap: u64,
    },
}

impl DramSched {
    /// The FR-FCFS configuration used at paper scale (Table III-class
    /// partitions): a 16-deep reorder window and a 2048-cycle age cap.
    pub fn fr_fcfs_paper() -> Self {
        DramSched::FrFcfs {
            queue_depth: 16,
            age_cap: 2048,
        }
    }
}

/// Outcome of [`Dram::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DramIssue {
    /// Serviced in-order at submit; data ready at the given cycle.
    Done(u64),
    /// Queued for out-of-order scheduling; the ticket is redeemed by
    /// [`Dram::run_schedule`].
    Queued(u64),
}

/// DRAM geometry and timing (in memory-clock cycles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of channels (memory partitions).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Column access latency (row already open).
    pub t_cas: u64,
    /// Row activate latency.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Cycles the channel data bus is busy per 32 B chunk.
    pub burst_cycles: u64,
    /// Zero-latency mode (the Fig. 15 "Perfect Mem" limit study).
    pub perfect: bool,
    /// Memory-access scheduling policy.
    pub sched: DramSched,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 6,
            banks_per_channel: 16,
            row_bytes: 2048,
            t_cas: 20,
            t_rcd: 20,
            t_rp: 20,
            burst_cycles: 2,
            perfect: false,
            sched: DramSched::Fcfs,
        }
    }
}

impl DramConfig {
    /// A mobile-class memory system: fewer channels, same timings (the
    /// paper's mobile configuration has less DRAM bandwidth).
    pub fn mobile() -> Self {
        DramConfig {
            channels: 2,
            ..Default::default()
        }
    }

    /// Worst-case single-access occupancy: precharge + activate + CAS +
    /// burst. The FR-FCFS starvation bound is stated in these units.
    pub fn max_access_cycles(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cas + self.burst_cycles
    }
}

/// One request queued at a bank, waiting for the FR-FCFS scheduler.
#[derive(Clone, Copy, Debug)]
struct Pending {
    ticket: u64,
    row: u64,
    arrival: u64,
}

#[derive(Clone, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
    queue: VecDeque<Pending>,
}

#[derive(Clone, Debug, Default)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: u64,
    // Union-of-intervals tracking for the efficiency denominator.
    active_window_end: u64,
    active_cycles: u64,
    transfer_cycles: u64,
}

/// The DRAM device array.
///
/// # Example
///
/// ```
/// use vksim_mem::{Dram, DramConfig};
/// let mut d = Dram::new(DramConfig::default());
/// let done = d.service(0x1000, 0);
/// assert!(done > 0);
/// // Same row, immediately after: row hit is cheaper.
/// let done2 = d.service(0x1020, done);
/// assert!(done2 - done < done);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    channels: Vec<Channel>,
    /// Row-hit/miss and traffic counters.
    pub stats: DramCounters,
    /// Row-activate trace buffer: `(cycle, channel, bank)` per activate
    /// command, recorded only while tracing is enabled.
    row_activates: Option<Vec<(u64, u32, u32)>>,
    /// FR-FCFS ticket counter (0 = no ticket issued yet).
    next_ticket: u64,
    /// Latest arrival cycle seen by [`Dram::submit`] (monotonicity check).
    last_arrival: u64,
}

impl Dram {
    /// Creates an idle DRAM array.
    ///
    /// # Panics
    ///
    /// Panics on a zero-channel or zero-bank configuration, and on an
    /// FR-FCFS configuration with a zero queue depth (a zero-wide reorder
    /// window has no schedulable requests; config validation in
    /// `vksim-core` rejects it with a structured error before it can
    /// reach this assert).
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.channels > 0 && config.banks_per_channel > 0,
            "degenerate DRAM geometry"
        );
        assert!(
            !matches!(config.sched, DramSched::FrFcfs { queue_depth: 0, .. }),
            "degenerate FR-FCFS queue depth"
        );
        let channels = (0..config.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); config.banks_per_channel as usize],
                ..Channel::default()
            })
            .collect();
        Dram {
            config,
            channels,
            stats: DramCounters::new(),
            row_activates: None,
            next_ticket: 0,
            last_arrival: 0,
        }
    }

    /// Enables (or disables) row-activate event recording. Off by default;
    /// the buffer only exists while a trace consumer is attached.
    pub fn set_trace(&mut self, enabled: bool) {
        self.row_activates = if enabled { Some(Vec::new()) } else { None };
    }

    /// Drains the recorded `(cycle, channel, bank)` row activates.
    pub fn take_row_activates(&mut self) -> Vec<(u64, u32, u32)> {
        self.row_activates
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Channel index for an address: channels interleave at 256 B
    /// granularity (GPGPU-Sim-style memory partition interleaving) so
    /// spatial locality sees row hits.
    fn channel_of(&self, addr: u64) -> usize {
        ((addr / 256) % self.channels.len() as u64) as usize
    }

    /// Performs one access on `(ch_idx, bank_idx)` for a request that
    /// arrived at `arrival`, starting as soon as the bank and channel bus
    /// allow. Updates row state, counters, the activate trace and the
    /// efficiency bookkeeping; returns the completion cycle.
    fn do_access(&mut self, ch_idx: usize, bank_idx: usize, row: u64, arrival: u64) -> u64 {
        let cfg = self.config.clone();
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        let start = arrival.max(bank.ready_at).max(ch.bus_free_at);
        let (access_lat, activated) = match bank.open_row {
            Some(r) if r == row => {
                self.stats.inc(DramCounter::RowHit);
                (cfg.t_cas, false)
            }
            Some(_) => {
                self.stats.inc(DramCounter::RowMiss);
                (cfg.t_rp + cfg.t_rcd + cfg.t_cas, true)
            }
            None => {
                self.stats.inc(DramCounter::RowEmpty);
                (cfg.t_rcd + cfg.t_cas, true)
            }
        };
        if activated {
            if let Some(buf) = self.row_activates.as_mut() {
                buf.push((start, ch_idx as u32, bank_idx as u32));
            }
        }
        bank.open_row = Some(row);
        let data_start = start + access_lat;
        let done = data_start + cfg.burst_cycles;
        bank.ready_at = done;
        ch.bus_free_at = done;

        // Efficiency bookkeeping: the active window is the union of
        // [arrival, done] intervals; transfer cycles are the burst slots.
        let window_start = arrival.max(ch.active_window_end);
        if done > window_start {
            ch.active_cycles += done - window_start;
            ch.active_window_end = done;
        }
        ch.transfer_cycles += cfg.burst_cycles;
        self.stats.inc(DramCounter::Req);
        done
    }

    /// Services one 32 B chunk read arriving at `now` strictly in call
    /// order (the FCFS path); returns the absolute cycle its data is
    /// available.
    pub fn service(&mut self, addr: u64, now: u64) -> u64 {
        if self.config.perfect {
            self.stats.inc(DramCounter::Req);
            return now + 1;
        }
        let ch_idx = self.channel_of(addr);
        let row = addr / self.config.row_bytes;
        let bank_idx = (row % self.config.banks_per_channel as u64) as usize;
        self.do_access(ch_idx, bank_idx, row, now)
    }

    /// Submits one 32 B chunk request arriving at `now` under the
    /// configured scheduler. FCFS (and perfect) configurations service it
    /// immediately and return [`DramIssue::Done`]; FR-FCFS queues it at its
    /// bank and returns a [`DramIssue::Queued`] ticket that
    /// [`Dram::run_schedule`] later redeems.
    ///
    /// FR-FCFS requires nondecreasing arrival cycles across submissions
    /// (the event-driven memory system guarantees this).
    pub fn submit(&mut self, addr: u64, now: u64) -> DramIssue {
        if self.config.perfect || self.config.sched == DramSched::Fcfs {
            return DramIssue::Done(self.service(addr, now));
        }
        let ch_idx = self.channel_of(addr);
        let row = addr / self.config.row_bytes;
        let bank_idx = (row % self.config.banks_per_channel as u64) as usize;
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        debug_assert!(
            now >= self.last_arrival,
            "FR-FCFS arrivals must be nondecreasing"
        );
        self.last_arrival = self.last_arrival.max(now);
        self.channels[ch_idx].banks[bank_idx]
            .queue
            .push_back(Pending {
                ticket,
                row,
                arrival: now,
            });
        DramIssue::Queued(ticket)
    }

    /// Offers one 32 B chunk request arriving at `now`, honouring the
    /// bounded bank queues: an FR-FCFS submission whose target bank
    /// already holds `queue_depth` pending requests is refused (`None`)
    /// without consuming a ticket, back-pressuring the L2 slice. FCFS and
    /// perfect configurations never refuse.
    pub fn try_submit(&mut self, addr: u64, now: u64) -> Option<DramIssue> {
        let depth = match self.config.sched {
            DramSched::FrFcfs { queue_depth, .. } if !self.config.perfect => queue_depth as usize,
            _ => return Some(self.submit(addr, now)),
        };
        let ch_idx = self.channel_of(addr);
        let row = addr / self.config.row_bytes;
        let bank_idx = (row % self.config.banks_per_channel as u64) as usize;
        if self.channels[ch_idx].banks[bank_idx].queue.len() >= depth {
            return None;
        }
        Some(self.submit(addr, now))
    }

    /// `true` while FR-FCFS requests are still queued (drain check).
    pub fn has_queued(&self) -> bool {
        self.channels
            .iter()
            .any(|ch| ch.banks.iter().any(|b| !b.queue.is_empty()))
    }

    /// Finalizes every FR-FCFS scheduling decision whose service start is
    /// `<= horizon` and returns the `(ticket, completion cycle)` pairs, in
    /// decision order. Safe to call with any nondecreasing sequence of
    /// horizons: a decision at start `s` only depends on requests arriving
    /// at or before `s`, and callers never submit an arrival in the past.
    pub fn run_schedule(&mut self, horizon: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.run_schedule_into(horizon, &mut out);
        out
    }

    /// [`Dram::run_schedule`] that appends the `(ticket, completion
    /// cycle)` pairs to `out`, a caller-owned buffer.
    pub fn run_schedule_into(&mut self, horizon: u64, out: &mut Vec<(u64, u64)>) {
        let (depth, age_cap) = match self.config.sched {
            DramSched::FrFcfs {
                queue_depth,
                age_cap,
                // The constructor rejects depth 0, so the first-ready
                // window below is never empty while requests are queued.
            } => (queue_depth as usize, age_cap),
            DramSched::Fcfs => return,
        };
        for ch_idx in 0..self.channels.len() {
            loop {
                // The oldest pending request of the channel (min ticket =
                // min arrival; per-bank queues are FIFO and arrivals are
                // globally nondecreasing).
                let ch = &self.channels[ch_idx];
                let bus = ch.bus_free_at;
                let oldest = ch
                    .banks
                    .iter()
                    .enumerate()
                    .filter_map(|(bi, b)| b.queue.front().map(|p| (p.ticket, bi)))
                    .min();
                let Some((_, oldest_bank)) = oldest else {
                    break;
                };
                let old = self.channels[ch_idx].banks[oldest_bank].queue[0];
                let s_old = old
                    .arrival
                    .max(self.channels[ch_idx].banks[oldest_bank].ready_at)
                    .max(bus);

                // Starvation bound: once the channel's oldest request has
                // waited out the age cap it is served next, unconditionally.
                // age_cap = 0 makes this fire on every decision = FCFS.
                let (bank_idx, pos) = if s_old.saturating_sub(old.arrival) >= age_cap {
                    (oldest_bank, 0)
                } else {
                    // First-ready: the earliest cycle any windowed request
                    // could start...
                    let ch = &self.channels[ch_idx];
                    let t_d = ch
                        .banks
                        .iter()
                        .flat_map(|b| {
                            let ready = b.ready_at;
                            b.queue
                                .iter()
                                .take(depth)
                                .map(move |p| p.arrival.max(ready).max(bus))
                        })
                        .min()
                        .expect("nonempty channel queue");
                    // ...then, among requests startable exactly then, a row
                    // hit beats a miss and age breaks ties.
                    let victim = ch
                        .banks
                        .iter()
                        .enumerate()
                        .flat_map(|(bi, b)| {
                            let ready = b.ready_at;
                            let open = b.open_row;
                            b.queue
                                .iter()
                                .take(depth)
                                .enumerate()
                                .filter(move |(_, p)| p.arrival.max(ready).max(bus) == t_d)
                                .map(move |(pos, p)| (open != Some(p.row), p.ticket, bi, pos))
                        })
                        .min()
                        .expect("t_d comes from a real candidate");
                    (victim.2, victim.3)
                };
                let p = self.channels[ch_idx].banks[bank_idx].queue[pos];
                let start = p
                    .arrival
                    .max(self.channels[ch_idx].banks[bank_idx].ready_at)
                    .max(bus);
                if start > horizon {
                    break;
                }
                self.channels[ch_idx].banks[bank_idx].queue.remove(pos);
                let done = self.do_access(ch_idx, bank_idx, p.row, p.arrival);
                out.push((p.ticket, done));
            }
        }
    }

    /// Serializes the array's dynamic state — per-bank open rows, ready
    /// times and FR-FCFS queues, per-channel bus/efficiency bookkeeping,
    /// the ticket and arrival monotonicity counters, statistics and any
    /// pending row-activate trace events — for a machine-state snapshot.
    /// Geometry comes from the resuming configuration, not the file.
    pub fn save(&self, e: &mut vksim_snapshot::Enc) {
        e.seq(self.channels.len());
        for ch in &self.channels {
            e.seq(ch.banks.len());
            for b in &ch.banks {
                e.opt_u64(b.open_row);
                e.u64(b.ready_at);
                e.seq(b.queue.len());
                for p in &b.queue {
                    e.u64(p.ticket);
                    e.u64(p.row);
                    e.u64(p.arrival);
                }
            }
            e.u64(ch.bus_free_at);
            e.u64(ch.active_window_end);
            e.u64(ch.active_cycles);
            e.u64(ch.transfer_cycles);
        }
        self.stats.save(e);
        match &self.row_activates {
            None => e.u8(0),
            Some(buf) => {
                e.u8(1);
                e.seq(buf.len());
                for &(cycle, ch, bank) in buf {
                    e.u64(cycle);
                    e.u32(ch);
                    e.u32(bank);
                }
            }
        }
        e.u64(self.next_ticket);
        e.u64(self.last_arrival);
    }

    /// Restores dynamic state written by [`Dram::save`] into an array
    /// built from `config`.
    ///
    /// # Errors
    ///
    /// A channel or bank count that disagrees with the configured
    /// geometry is a mismatched snapshot.
    pub fn load(
        config: DramConfig,
        d: &mut vksim_snapshot::Dec<'_>,
    ) -> Result<Self, vksim_snapshot::SnapError> {
        let mut dram = Dram::new(config);
        let n = d.seq()?;
        if n != dram.channels.len() {
            return Err(vksim_snapshot::SnapError::Malformed(format!(
                "snapshot has {n} DRAM channels, {} configured",
                dram.channels.len()
            )));
        }
        for ch in dram.channels.iter_mut() {
            let nb = d.seq()?;
            if nb != ch.banks.len() {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "snapshot has {nb} banks per channel, {} configured",
                    ch.banks.len()
                )));
            }
            for b in ch.banks.iter_mut() {
                b.open_row = d.opt_u64()?;
                b.ready_at = d.u64()?;
                let nq = d.seq()?;
                b.queue = VecDeque::with_capacity(nq);
                for _ in 0..nq {
                    b.queue.push_back(Pending {
                        ticket: d.u64()?,
                        row: d.u64()?,
                        arrival: d.u64()?,
                    });
                }
            }
            ch.bus_free_at = d.u64()?;
            ch.active_window_end = d.u64()?;
            ch.active_cycles = d.u64()?;
            ch.transfer_cycles = d.u64()?;
        }
        dram.stats = DramCounters::load(d)?;
        dram.row_activates = match d.u8()? {
            0 => None,
            1 => {
                let n = d.seq()?;
                let mut buf = Vec::with_capacity(n);
                for _ in 0..n {
                    let cycle = d.u64()?;
                    let ch = d.u32()?;
                    buf.push((cycle, ch, d.u32()?));
                }
                Some(buf)
            }
            t => {
                return Err(vksim_snapshot::SnapError::Malformed(format!(
                    "row-activate trace tag {t}"
                )))
            }
        };
        dram.next_ticket = d.u64()?;
        dram.last_arrival = d.u64()?;
        Ok(dram)
    }

    /// Cycles spent transferring data, summed over channels.
    pub fn transfer_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.transfer_cycles).sum()
    }

    /// Cycles in which at least one request was in flight (per-channel
    /// union), summed over channels.
    pub fn active_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.active_cycles).sum()
    }

    /// DRAM efficiency: transfer cycles / active cycles (paper Fig. 16:
    /// "out of cycles where there were DRAM requests at the memory access
    /// scheduler").
    pub fn efficiency(&self) -> f64 {
        let a = self.active_cycles();
        if a == 0 {
            0.0
        } else {
            self.transfer_cycles() as f64 / a as f64
        }
    }

    /// DRAM utilization: transfer cycles / (total cycles × channels).
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.transfer_cycles() as f64 / (total_cycles * self.channels.len() as u64) as f64
        }
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let h = self.stats.get(DramCounter::RowHit) as f64;
        let total = self.stats.get(DramCounter::Req) as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_cheaper_than_row_miss() {
        // Single channel, single bank: every access shares the row buffer.
        let mut d = Dram::new(DramConfig {
            channels: 1,
            banks_per_channel: 1,
            ..Default::default()
        });
        let t1 = d.service(0x0000, 0);
        let t2 = d.service(0x0020, t1); // same row
        let row_hit_cost = t2 - t1;
        let t3 = d.service(d.config().row_bytes * 5, t2); // different row
        let row_miss_cost = t3 - t2;
        assert!(
            row_miss_cost > row_hit_cost,
            "{row_miss_cost} <= {row_hit_cost}"
        );
        assert_eq!(d.stats.get(DramCounter::RowHit), 1);
        assert_eq!(d.stats.get(DramCounter::RowMiss), 1);
        assert_eq!(d.stats.get(DramCounter::RowEmpty), 1);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut d = Dram::new(DramConfig::default());
        // Two chunks 256 B apart map to different channels, both at cycle 0.
        let t_a = d.service(0, 0);
        let t_b = d.service(256, 0);
        // Independent channels: neither waits for the other.
        assert_eq!(t_a, t_b);
    }

    #[test]
    fn same_channel_serializes_on_bus() {
        let mut d = Dram::new(DramConfig::default());
        let t_a = d.service(0, 0);
        let t_b = d.service(32, 0); // same 256 B block -> same channel
        assert!(t_b > t_a, "bus contention must serialize");
    }

    #[test]
    fn perfect_mode_is_single_cycle() {
        let mut d = Dram::new(DramConfig {
            perfect: true,
            ..Default::default()
        });
        assert_eq!(d.service(0x123456, 77), 78);
        assert_eq!(d.transfer_cycles(), 0);
    }

    #[test]
    fn efficiency_and_utilization_bounds() {
        let mut d = Dram::new(DramConfig::default());
        let mut t = 0;
        for i in 0..100u64 {
            t = d.service(i * 32, t);
        }
        let eff = d.efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff}");
        let util = d.utilization(t);
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        // With back-to-back demand, efficiency >= utilization.
        assert!(eff >= util);
    }

    #[test]
    fn efficiency_exceeds_utilization_under_sparse_demand() {
        // Sparse demand: requests arrive far apart, so most cycles have no
        // pending work. Efficiency only counts pending windows, so it stays
        // much higher than utilization — exactly the Fig. 16 distinction.
        let mut sparse = Dram::new(DramConfig::default());
        for i in 0..50u64 {
            sparse.service(i * 32, i * 1000);
        }
        let total = 50_000;
        assert!(sparse.efficiency() > sparse.utilization(total) * 5.0);
    }

    #[test]
    fn row_activate_trace_matches_counters() {
        let mut d = Dram::new(DramConfig {
            channels: 1,
            banks_per_channel: 1,
            ..Default::default()
        });
        // Disabled by default: no events recorded.
        d.service(0x0000, 0);
        assert!(d.take_row_activates().is_empty());
        d.set_trace(true);
        let t1 = d.service(0x0020, 100); // row hit: no activate
        d.service(d.config().row_bytes * 3, t1); // row miss: activate
        let evs = d.take_row_activates();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].1, evs[0].2), (0, 0));
        assert!(d.take_row_activates().is_empty(), "take drains the buffer");
    }

    #[test]
    fn mobile_config_has_fewer_channels() {
        let m = DramConfig::mobile();
        assert!(m.channels < DramConfig::default().channels);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_channels_panics() {
        let _ = Dram::new(DramConfig {
            channels: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "degenerate FR-FCFS queue depth")]
    fn zero_fr_fcfs_depth_panics() {
        // The historical behaviour silently clamped depth 0 to 1,
        // rewriting the model the caller asked for; it is now rejected.
        let _ = Dram::new(DramConfig {
            sched: DramSched::FrFcfs {
                queue_depth: 0,
                age_cap: 0,
            },
            ..Default::default()
        });
    }

    #[test]
    fn try_submit_refuses_full_bank_without_a_ticket() {
        let mut d = Dram::new(fr_fcfs(2, 1 << 40));
        let row = d.config().row_bytes;
        // Two same-bank requests fill the depth-2 queue...
        assert!(matches!(d.try_submit(0, 0), Some(DramIssue::Queued(1))));
        assert!(matches!(
            d.try_submit(2 * row, 0),
            Some(DramIssue::Queued(2))
        ));
        // ...the third is refused and must not burn a ticket. Row 1 maps
        // to bank 1 of 2 — a different, non-full queue — so it still gets
        // the next ticket in sequence.
        assert_eq!(d.try_submit(4 * row, 0), None);
        assert!(matches!(d.try_submit(row, 0), Some(DramIssue::Queued(3))));
        // Draining the bank reopens it.
        let served = d.run_schedule(u64::MAX);
        assert_eq!(served.len(), 3);
        assert!(matches!(
            d.try_submit(4 * row, served[2].1),
            Some(DramIssue::Queued(4))
        ));
    }

    #[test]
    fn try_submit_never_refuses_fcfs_or_perfect() {
        let mut fcfs = Dram::new(DramConfig::default());
        let mut perfect = Dram::new(DramConfig {
            perfect: true,
            sched: DramSched::fr_fcfs_paper(),
            ..Default::default()
        });
        for i in 0..64u64 {
            assert!(matches!(fcfs.try_submit(0, i), Some(DramIssue::Done(_))));
            assert!(matches!(perfect.try_submit(0, i), Some(DramIssue::Done(_))));
        }
    }

    fn fr_fcfs(depth: u32, cap: u64) -> DramConfig {
        DramConfig {
            channels: 1,
            banks_per_channel: 2,
            sched: DramSched::FrFcfs {
                queue_depth: depth,
                age_cap: cap,
            },
            ..Default::default()
        }
    }

    #[test]
    fn fr_fcfs_serves_row_hit_before_older_miss() {
        let mut d = Dram::new(fr_fcfs(16, 1 << 40));
        let row = d.config().row_bytes;
        // Open row 0 in bank 0.
        assert!(matches!(d.submit(0, 0), DramIssue::Queued(1)));
        let first = d.run_schedule(u64::MAX);
        assert_eq!(first.len(), 1);
        // Now queue an older row miss (row 2 -> bank 0) and a younger hit
        // to the open row 0; the hit must be scheduled first.
        let t = first[0].1;
        assert!(matches!(d.submit(2 * row, t), DramIssue::Queued(2)));
        assert!(matches!(d.submit(32, t), DramIssue::Queued(3)));
        let order: Vec<u64> = d.run_schedule(u64::MAX).iter().map(|&(tk, _)| tk).collect();
        assert_eq!(order, vec![3, 2], "row hit bypasses the older miss");
        assert!(!d.has_queued());
    }

    #[test]
    fn fr_fcfs_age_cap_zero_is_cycle_identical_to_fcfs() {
        // A row-locality-rich stream with bank conflicts mixed in.
        let addrs: Vec<u64> = (0..64u64)
            .map(|i| {
                if i % 3 == 0 {
                    i * 32
                } else {
                    (i % 7) * 4096 + i * 32
                }
            })
            .collect();
        let mut fcfs = Dram::new(DramConfig {
            channels: 2,
            ..Default::default()
        });
        let mut frf = Dram::new(DramConfig {
            channels: 2,
            sched: DramSched::FrFcfs {
                queue_depth: 16,
                age_cap: 0,
            },
            ..Default::default()
        });
        let mut expect = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let now = 3 * i as u64;
            expect.push(fcfs.service(a, now));
            assert!(matches!(frf.submit(a, now), DramIssue::Queued(_)));
        }
        let mut got: Vec<(u64, u64)> = frf.run_schedule(u64::MAX);
        got.sort_by_key(|&(ticket, _)| ticket);
        let got: Vec<u64> = got.iter().map(|&(_, done)| done).collect();
        assert_eq!(got, expect, "age cap 0 must reproduce the FCFS schedule");
        assert_eq!(fcfs.stats, frf.stats);
    }

    #[test]
    fn fr_fcfs_horizon_defers_future_decisions() {
        let mut d = Dram::new(fr_fcfs(16, 1 << 40));
        assert!(matches!(d.submit(0, 100), DramIssue::Queued(_)));
        assert!(d.run_schedule(99).is_empty(), "not arrived yet");
        assert!(d.has_queued());
        let done = d.run_schedule(100);
        assert_eq!(done.len(), 1);
        assert!(done[0].1 > 100);
    }

    #[test]
    fn fr_fcfs_starvation_bound_holds_under_hostile_hits() {
        // Bank 0 gets a steady stream of row hits; one row miss to the same
        // bank must still be served within the age cap.
        let cap = 500;
        let mut d = Dram::new(fr_fcfs(16, cap));
        let row_bytes = d.config().row_bytes;
        assert!(matches!(d.submit(0, 0), DramIssue::Queued(1)));
        // The victim: a row miss in bank 0, one older request ahead of it.
        let DramIssue::Queued(victim) = d.submit(2 * row_bytes, 1) else {
            panic!("expected queued ticket");
        };
        for i in 1..40u64 {
            // Row hits to the open row 0, arriving steadily.
            d.submit((i % 8) * 32, 2 * i + 1);
        }
        let done = d.run_schedule(u64::MAX);
        let victim_done = done.iter().find(|&&(t, _)| t == victim).unwrap().1;
        // k = 1 older same-channel request at arrival:
        // bound = age_cap + 2 * max_access * (k + 1).
        let bound = cap + 2 * d.config().max_access_cycles() * 2;
        assert!(
            victim_done <= 1 + bound,
            "miss served at {victim_done}, bound {bound}"
        );
    }
}
