//! The out-of-order-lite core model.
//!
//! The core dispatches up to `width` instructions per cycle into a
//! reorder buffer and retires up to `width` completed instructions per
//! cycle from its head, in order. A load's completion cycle is resolved
//! through the cache hierarchy at dispatch; a long-latency miss at the
//! ROB head therefore stalls retirement while younger independent loads
//! keep issuing — exposing exactly the memory-level parallelism that
//! prefetching converts into performance.
//!
//! Loads flagged [`pmp_types::TraceOp::dep_on_prev_load`] issue only
//! after the previous load completes, which serialises pointer chases.
//!
//! # Representation
//!
//! The model is event-driven but cycle-exact: it produces the same
//! issue cycles, clock and retirement count as stepping one cycle and
//! one instruction at a time (the test-only `cpu_ref` module keeps that
//! formulation, and a randomized differential sweep pins the two
//! together).
//!
//! * **Run-length ROB.** Entries carry program-order sequence numbers:
//!   the ROB is `[retired, dispatched)`. A non-memory or store entry
//!   completes one cycle after dispatch, so it is retirable at the first
//!   retirement opportunity after it enters; only loads need their own
//!   completion cycle. The ROB therefore stores just its loads, and the
//!   gaps between their sequence numbers are runs of always-retirable
//!   entries.
//! * **Closed-form strides.** While every load reaching the head of
//!   the retire window has completed, every cycle retires exactly
//!   `width`; while a pending load sits at the head, every cycle
//!   retires nothing. Either way the next `m` cycles advance in one
//!   arithmetic step instead of `m` steps.
//! * **Lazy LQ/SQ.** Completion cycles are appended to plain vectors and
//!   reclaimed only by [`Cpu::begin_mem_op`], their only reader. The
//!   vector's length bounds the occupancy from above, so it is purged
//!   only when the queue looks full.

use crate::config::CoreConfig;
use std::collections::VecDeque;

/// A load in the ROB: its program-order sequence number and the cycle
/// its access completes.
#[derive(Debug, Clone, Copy)]
struct RobLoad {
    seq: u64,
    complete: u64,
}

/// The core's dispatch/retire engine. The memory system is external:
/// the driver calls [`Cpu::begin_mem_op`] to learn the issue cycle,
/// resolves the latency through the hierarchy, and completes the
/// instruction with [`Cpu::dispatch_load`] / [`Cpu::dispatch_store`].
#[derive(Debug)]
pub struct Cpu {
    width: u64,
    rob_size: u64,
    lq_size: usize,
    sq_size: usize,
    /// The loads among the in-flight instructions, in program order;
    /// every other ROB entry is implicit in the sequence-number gaps.
    rob_loads: VecDeque<RobLoad>,
    /// Completion cycles of loads not yet reclaimed from the LQ.
    lq: Vec<u64>,
    /// Completion cycles of stores not yet reclaimed from the SQ.
    sq: Vec<u64>,
    now: u64,
    dispatched_this_cycle: u64,
    /// Sequence number of the ROB head (= instructions retired).
    retired: u64,
    /// Sequence number of the next instruction to dispatch.
    dispatched: u64,
    last_load_complete: u64,
}

impl Cpu {
    /// Build a core from its configuration.
    ///
    /// # Panics
    ///
    /// If [`CoreConfig::validate`] rejects `cfg` (a zero width or queue
    /// size), with its message.
    pub fn new(cfg: &CoreConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Cpu {
            width: cfg.width as u64,
            rob_size: cfg.rob_entries as u64,
            lq_size: cfg.lq_entries,
            sq_size: cfg.sq_entries,
            rob_loads: VecDeque::with_capacity(cfg.rob_entries),
            lq: Vec::with_capacity(cfg.lq_entries),
            sq: Vec::with_capacity(cfg.sq_entries),
            now: 0,
            dispatched_this_cycle: 0,
            retired: 0,
            dispatched: 0,
            last_load_complete: 0,
        }
    }

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Retired instructions so far.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// ROB occupancy.
    #[inline]
    fn rob_len(&self) -> u64 {
        self.dispatched - self.retired
    }

    /// The ROB head's load, if the head is a load.
    #[inline]
    fn head_load(&self) -> Option<RobLoad> {
        self.rob_loads.front().copied().filter(|l| l.seq == self.retired)
    }

    /// Advance one cycle (or skip ahead when stalled on the ROB head),
    /// retiring completed instructions.
    fn advance_cycle(&mut self) {
        // If the ROB is full and the head has not completed, nothing can
        // happen until it does — skip straight there. (The clock then
        // still ticks once more below, so a full ROB retires a blocked
        // head at its completion + 1; see ARCHITECTURE.md.)
        if self.rob_len() == self.rob_size {
            let head = match self.head_load() {
                Some(l) => l.complete,
                // A non-load head is pending only if it was dispatched
                // this cycle, which means the whole ROB was.
                None if self.rob_len() == self.dispatched_this_cycle => self.now + 1,
                None => self.now,
            };
            self.now = self.now.max(head);
        }
        self.now += 1;
        self.dispatched_this_cycle = 0;
        self.retire(self.width.min(self.rob_len()));
    }

    /// Retire up to `budget` (≤ ROB occupancy) entries from the head,
    /// stopping at the first load that has not completed by `now`.
    fn retire(&mut self, mut budget: u64) {
        while let Some(&l) = self.rob_loads.front() {
            let run = l.seq - self.retired;
            if run >= budget || l.complete > self.now {
                self.retired += run.min(budget);
                return;
            }
            self.rob_loads.pop_front();
            self.retired += run + 1;
            budget -= run + 1;
        }
        self.retired += budget;
    }

    /// Advance the longest stride of at most `max` cycles in which
    /// every cycle retires exactly `width` entries, and return its
    /// length. Walking the loads in the stride's reach, each must have
    /// completed by the cycle that retires it — a cycle earlier when it
    /// heads a full ROB, or the full-ROB skip would fire.
    ///
    /// The caller guarantees the ROB holds each cycle's `width` entries
    /// (it holds `max · width`, or is refilled by `width` per cycle) and
    /// that a full ROB never has a head dispatched this cycle.
    fn retire_stride(&mut self, max: u64) -> u64 {
        let w = self.width;
        let full = self.rob_len() == self.rob_size;
        let mut m = max;
        for l in &self.rob_loads {
            let offset = l.seq - self.retired;
            let cycle = offset / w + 1;
            if cycle > m {
                break;
            }
            let due = self.now + cycle - u64::from(full && offset.is_multiple_of(w));
            if l.complete > due {
                m = cycle - 1;
                break;
            }
        }
        self.now += m;
        self.retired += m * w;
        while self.rob_loads.front().is_some_and(|l| l.seq < self.retired) {
            self.rob_loads.pop_front();
        }
        m
    }

    /// Cycles a pending head load still blocks: each retires nothing.
    fn blocked_cycles(&self) -> u64 {
        self.head_load().map_or(0, |l| l.complete.saturating_sub(self.now + 1))
    }

    /// Closed form for the next `m` cycles of a dispatch stream that
    /// fills every cycle: each retires a uniform amount — nothing behind
    /// a pending head load, or exactly `width` — and then dispatches
    /// `width` non-memory instructions. Returns `m`, 0 when no such
    /// stride applies.
    ///
    /// Called only where [`Cpu::dispatch_nonmem_n`] must advance a cycle
    /// with at least `n` instructions still to dispatch.
    fn dispatch_stride(&mut self, n: u64) -> u64 {
        let (w, len) = (self.width, self.rob_len());
        if n < w {
            return 0;
        }
        let blocked = self.blocked_cycles();
        let m = if blocked > 0 {
            // The ROB grows by `width` per cycle and must stay below
            // full on each of them (no full-ROB skip).
            let m = blocked.min((self.rob_size - len) / w).min(n / w);
            self.now += m;
            m
        } else if len >= w && (len < self.rob_size || len > w) {
            // Occupancy stays constant; in a full ROB the head is always
            // an entry dispatched before this cycle.
            self.retire_stride(n / w)
        } else {
            0
        };
        if m > 0 {
            self.dispatched += m * w;
            self.dispatched_this_cycle = w;
        }
        m
    }

    /// Advance with nothing dispatched: exactly
    /// `while self.now < until { self.advance_cycle() }`, taken in
    /// closed-form strides where the head allows.
    fn advance_until(&mut self, until: u64) {
        while self.now < until {
            self.idle_stride(until - self.now);
        }
    }

    /// Advance between 1 and `horizon` cycles with nothing dispatched.
    fn idle_stride(&mut self, horizon: u64) {
        let len = self.rob_len();
        // A full ROB may skip; step it exactly. Once one cycle retires
        // something it stays below full, because nothing is dispatched.
        if len < self.rob_size {
            // Cycles in which nothing retires: an empty ROB, or a
            // pending head load.
            let idle = if len == 0 { horizon } else { self.blocked_cycles().min(horizon) };
            let m = if idle > 0 {
                self.now += idle;
                idle
            } else {
                self.retire_stride((len / self.width).min(horizon))
            };
            if m > 0 {
                self.dispatched_this_cycle = 0;
                return;
            }
        }
        self.advance_cycle();
    }

    /// Make room to dispatch one instruction this cycle. After any
    /// advance the cycle's dispatch budget is fresh and the ROB is below
    /// full (a full ROB skips to its head's completion, which then
    /// retires), so one advance always suffices.
    fn wait_dispatch_slot(&mut self) {
        if self.dispatched_this_cycle == self.width || self.rob_len() == self.rob_size {
            self.advance_cycle();
        }
    }

    /// Dispatch one non-memory instruction (1-cycle execute).
    pub fn dispatch_nonmem(&mut self) {
        self.dispatch_nonmem_n(1);
    }

    /// Dispatch `n` non-memory instructions — cycle-for-cycle the same
    /// as `n` calls to [`Cpu::dispatch_nonmem`], in closed-form strides.
    pub fn dispatch_nonmem_n(&mut self, mut n: u64) {
        loop {
            let room = (self.width - self.dispatched_this_cycle).min(self.rob_size - self.rob_len());
            let k = n.min(room);
            self.dispatched_this_cycle += k;
            self.dispatched += k;
            n -= k;
            if n == 0 {
                return;
            }
            match self.dispatch_stride(n) {
                0 => self.advance_cycle(),
                m => n -= m * self.width,
            }
        }
    }

    /// Reserve a dispatch slot for a memory instruction and return the
    /// cycle at which it issues to the memory system.
    ///
    /// For a dependent load (`dep = true`) the issue cycle is delayed to
    /// the previous load's completion. The returned cycle is the `issue`
    /// to pass to the [`Cpu::dispatch_load`] / [`Cpu::dispatch_store`]
    /// call that must follow.
    pub fn begin_mem_op(&mut self, is_load: bool, dep: bool) -> u64 {
        self.wait_dispatch_slot();
        self.wait_queue_entry(is_load);
        if dep && is_load {
            self.last_load_complete.max(self.now)
        } else {
            self.now
        }
    }

    /// Advance until the LQ (`is_load`) or SQ has a free entry. An entry
    /// is free once `now` reaches its completion cycle; the vector keeps
    /// such entries until the queue looks full, then drops them.
    fn wait_queue_entry(&mut self, is_load: bool) {
        loop {
            let now = self.now;
            let (queue, size) = if is_load {
                (&mut self.lq, self.lq_size)
            } else {
                (&mut self.sq, self.sq_size)
            };
            if queue.len() < size {
                return;
            }
            queue.retain(|&c| c > now);
            if queue.len() < size {
                return;
            }
            // Every entry left is occupied: wait for the first to free.
            let first_free = queue.iter().copied().min().unwrap_or(now);
            self.advance_until(first_free);
        }
    }

    /// Complete a load dispatched at `issue` with the given `latency`.
    pub fn dispatch_load(&mut self, issue: u64, latency: u64) {
        let complete = issue + latency.max(1);
        self.rob_loads.push_back(RobLoad { seq: self.dispatched, complete });
        self.lq.push(complete);
        self.last_load_complete = complete;
        self.dispatched_this_cycle += 1;
        self.dispatched += 1;
    }

    /// Complete a store: it retires quickly (commits from the SQ after
    /// retirement), but occupies an SQ entry until the write completes.
    pub fn dispatch_store(&mut self, issue: u64, latency: u64) {
        self.sq.push(issue + latency.max(1));
        self.dispatched_this_cycle += 1;
        self.dispatched += 1;
    }

    /// Drain the ROB; returns the cycle at which the last instruction
    /// retired.
    pub fn drain(&mut self) -> u64 {
        while self.rob_len() > 0 {
            self.idle_stride(u64::MAX);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_ref;
    use pmp_types::Rng64;

    fn core() -> Cpu {
        Cpu::new(&CoreConfig::default())
    }

    #[test]
    fn nonmem_ipc_approaches_width() {
        let mut c = core();
        for _ in 0..4000 {
            c.dispatch_nonmem();
        }
        let cycles = c.drain();
        let ipc = 4000.0 / cycles as f64;
        assert!(ipc > 3.5, "ipc = {ipc}");
    }

    #[test]
    fn l1_hit_loads_sustain_high_ipc() {
        let mut c = core();
        for _ in 0..4000 {
            let issue = c.begin_mem_op(true, false);
            c.dispatch_load(issue, 5);
        }
        let cycles = c.drain();
        let ipc = 4000.0 / cycles as f64;
        assert!(ipc > 3.0, "ipc = {ipc}");
    }

    #[test]
    fn independent_misses_overlap() {
        // 64 independent 200-cycle misses: with a 352-entry ROB they all
        // overlap, so total time is ~200 cycles, not 64*200.
        let mut c = core();
        for _ in 0..64 {
            let issue = c.begin_mem_op(true, false);
            c.dispatch_load(issue, 200);
        }
        let cycles = c.drain();
        assert!(cycles < 400, "cycles = {cycles}");
    }

    #[test]
    fn dependent_misses_serialize() {
        let mut c = core();
        for _ in 0..16 {
            let issue = c.begin_mem_op(true, true);
            c.dispatch_load(issue, 200);
        }
        let cycles = c.drain();
        assert!(cycles >= 16 * 200, "cycles = {cycles}");
    }

    #[test]
    fn rob_limits_mlp() {
        // A tiny ROB forces misses to serialise in waves.
        let cfg = CoreConfig { rob_entries: 8, ..CoreConfig::default() };
        let mut c = Cpu::new(&cfg);
        for _ in 0..64 {
            let issue = c.begin_mem_op(true, false);
            c.dispatch_load(issue, 200);
        }
        let cycles = c.drain();
        // 64 misses / 8-deep window ≈ 8 waves of ~200 cycles.
        assert!(cycles > 1200, "cycles = {cycles}");
    }

    #[test]
    fn retired_counts_everything() {
        let mut c = core();
        c.dispatch_nonmem();
        let issue = c.begin_mem_op(true, false);
        c.dispatch_load(issue, 5);
        let issue = c.begin_mem_op(false, false);
        c.dispatch_store(issue, 5);
        c.drain();
        assert_eq!(c.retired(), 3);
    }

    #[test]
    fn full_rob_retires_a_blocked_head_one_cycle_late() {
        // A load completing at cycle 10 at the head of a ROB with room
        // to spare retires at 10; in a full ROB the clock skips to 10
        // and then ticks once more, so it retires at 11. This pins the
        // known fidelity quirk documented in ARCHITECTURE.md.
        for (rob_entries, retire_at) in [(352, 10), (1, 11)] {
            let cfg = CoreConfig { rob_entries, ..CoreConfig::default() };
            let mut c = Cpu::new(&cfg);
            let issue = c.begin_mem_op(true, false);
            assert_eq!(issue, 0);
            c.dispatch_load(issue, 10);
            assert_eq!(c.drain(), retire_at, "rob_entries = {rob_entries}");
            assert_eq!(c.retired(), 1);
        }
        // The same holds for the dispatch that waits on the full ROB.
        let mut c = Cpu::new(&CoreConfig { rob_entries: 1, ..CoreConfig::default() });
        let issue = c.begin_mem_op(true, false);
        c.dispatch_load(issue, 10);
        c.dispatch_nonmem();
        assert_eq!((c.now(), c.retired()), (11, 1));
    }

    #[test]
    #[should_panic(expected = "invalid configuration (SystemConfig.core.lq_entries): must be non-zero")]
    fn zero_lq_is_rejected() {
        Cpu::new(&CoreConfig { lq_entries: 0, ..CoreConfig::default() });
    }

    #[test]
    #[should_panic(expected = "invalid configuration (SystemConfig.core.sq_entries): must be non-zero")]
    fn zero_sq_is_rejected() {
        Cpu::new(&CoreConfig { sq_entries: 0, ..CoreConfig::default() });
    }

    /// Drive the run-length model and the instruction-at-a-time
    /// reference through one random op stream, asserting they agree
    /// after every op and at the final drain.
    fn check_against_cpu_ref(cfg: &CoreConfig, rng: &mut Rng64, ops: usize) {
        let mut fast = Cpu::new(cfg);
        let mut slow = cpu_ref::Cpu::new(cfg);
        // Per-stream mix, so some streams are load-dense, some
        // store-heavy, some pointer chases.
        let load_frac = rng.gen_range(0..=100u32) as f64 / 100.0;
        let dep_frac = rng.gen_range(0..=100u32) as f64 / 100.0;
        let max_nonmem = rng.gen_range(0..=40u64);
        let (mut burst, mut burst_loads) = (0, false);
        for i in 0..ops {
            // Bursts of back-to-back long-latency accesses of one kind
            // fill the LQ or SQ.
            if burst == 0 && rng.gen_bool(0.02) {
                burst = rng.gen_range(1..=200u32);
                burst_loads = rng.gen_bool(0.5);
            }
            let nonmem = if burst > 0 { 0 } else { rng.gen_range(0..=max_nonmem) };
            if rng.gen_bool(0.1) {
                for _ in 0..nonmem {
                    fast.dispatch_nonmem();
                }
            } else {
                fast.dispatch_nonmem_n(nonmem);
            }
            for _ in 0..nonmem {
                slow.dispatch_nonmem();
            }
            let is_load = if burst > 0 { burst_loads } else { rng.gen_bool(load_frac) };
            let dep = rng.gen_bool(dep_frac);
            let latency = match rng.gen_range(0..10u32) {
                0 => rng.gen_range(0..=1u64),
                1..=5 => rng.gen_range(2..=20u64),
                6..=7 => rng.gen_range(20..=100u64),
                _ => rng.gen_range(180..=450u64),
            };
            let latency = if burst > 0 { latency.max(200) } else { latency };
            burst = burst.saturating_sub(1);
            let issue = fast.begin_mem_op(is_load, dep);
            let want = slow.begin_mem_op(is_load, dep);
            assert_eq!(issue, want, "issue cycle, op {i}, {cfg:?}");
            if is_load {
                fast.dispatch_load(issue, latency);
                slow.dispatch_load(want, latency);
            } else {
                fast.dispatch_store(issue, latency);
                slow.dispatch_store(want, latency);
            }
            assert_eq!(fast.now(), slow.now(), "now(), op {i}, {cfg:?}");
            assert_eq!(fast.retired(), slow.retired(), "retired(), op {i}, {cfg:?}");
        }
        assert_eq!(fast.drain(), slow.drain(), "drain(), {cfg:?}");
        assert_eq!(fast.retired(), slow.retired(), "retired() after drain, {cfg:?}");
    }

    #[test]
    fn matches_cpu_ref_on_random_configs() {
        let mut rng = Rng64::seed_from_u64(0x00C0_FFEE);
        for _ in 0..400 {
            let cfg = CoreConfig {
                width: rng.gen_range(1..=8usize),
                rob_entries: if rng.gen_bool(0.2) { rng.gen_range(1..=8usize) } else { rng.gen_range(1..=400usize) },
                lq_entries: rng.gen_range(1..=128usize),
                sq_entries: rng.gen_range(1..=128usize),
            };
            check_against_cpu_ref(&cfg, &mut rng, 300);
        }
    }

    #[test]
    fn matches_cpu_ref_on_edge_configs() {
        let mut rng = Rng64::seed_from_u64(7);
        let configs = [
            CoreConfig::default(),
            // The starved core of tests/system_properties.rs.
            CoreConfig { width: 1, rob_entries: 2, lq_entries: 1, sq_entries: 1 },
            CoreConfig { width: 1, rob_entries: 1, lq_entries: 1, sq_entries: 1 },
            // rob_entries <= width: the head can be pending while
            // dispatched this cycle.
            CoreConfig { width: 4, rob_entries: 4, lq_entries: 2, sq_entries: 2 },
            CoreConfig { width: 8, rob_entries: 3, lq_entries: 128, sq_entries: 128 },
            CoreConfig { width: 2, rob_entries: 1, lq_entries: 4, sq_entries: 1 },
            CoreConfig { width: 8, rob_entries: 400, lq_entries: 1, sq_entries: 128 },
        ];
        for cfg in &configs {
            for _ in 0..20 {
                check_against_cpu_ref(cfg, &mut rng, 1000);
            }
        }
    }
}
