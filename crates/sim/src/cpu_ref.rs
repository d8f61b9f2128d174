//! Instruction-at-a-time reference model of the core (test-only).
//!
//! This module preserves, verbatim, the per-instruction semantics the
//! run-length `cpu::Cpu` replaced: one `u64` completion cycle
//! per ROB entry in a `VecDeque`, one `advance_cycle` per simulated
//! cycle, and eagerly purged LQ/SQ min-heaps. The differential tests in
//! `cpu.rs` drive both models through identical randomized op streams
//! and assert they agree after every op; `sim_throughput`'s `cpu_model`
//! row includes this file (via `#[path]`) to time the two side by side.
//!
//! The includer must have `CoreConfig` in scope at its crate root.

use crate::CoreConfig;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The core's dispatch/retire engine. The memory system is external:
/// the engine calls [`Cpu::begin_mem_op`] to learn the issue cycle,
/// resolves the latency through the hierarchy, and completes the
/// instruction with [`Cpu::dispatch_load`] / [`Cpu::dispatch_store`].
#[derive(Debug)]
pub struct Cpu {
    width: usize,
    rob_size: usize,
    lq_size: usize,
    sq_size: usize,
    /// Completion cycle of each in-flight instruction, in program order.
    rob: VecDeque<u64>,
    /// Completion cycles of in-flight loads (bounds the LQ), as a
    /// min-heap: freeing an entry is a pop of the earliest completion
    /// instead of a full-queue scan, which the per-cycle reclaim would
    /// otherwise pay on every load-heavy cycle.
    loads: BinaryHeap<Reverse<u64>>,
    /// Completion cycles of in-flight stores (bounds the SQ).
    stores: BinaryHeap<Reverse<u64>>,
    now: u64,
    dispatched_this_cycle: usize,
    retired: u64,
    dispatched: u64,
    last_load_complete: u64,
}

impl Cpu {
    /// Build a core from its configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        assert!(cfg.width > 0 && cfg.rob_entries > 0, "degenerate core config");
        Cpu {
            width: cfg.width,
            rob_size: cfg.rob_entries,
            lq_size: cfg.lq_entries,
            sq_size: cfg.sq_entries,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            loads: BinaryHeap::with_capacity(cfg.lq_entries),
            stores: BinaryHeap::with_capacity(cfg.sq_entries),
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

    /// Advance one cycle (or skip ahead when stalled on the ROB head),
    /// retiring completed instructions.
    fn advance_cycle(&mut self) {
        // If the ROB is full and the head has not completed, nothing can
        // happen until it does — skip straight there.
        if self.rob.len() == self.rob_size {
            if let Some(&head) = self.rob.front() {
                if head > self.now {
                    self.now = head;
                }
            }
        }
        self.now += 1;
        self.dispatched_this_cycle = 0;
        for _ in 0..self.width {
            match self.rob.front() {
                Some(&c) if c <= self.now => {
                    self.rob.pop_front();
                    self.retired += 1;
                }
                _ => break,
            }
        }
        // Free LQ/SQ entries whose access has completed: pop the heap
        // head while it has been reached (one peek when nothing has).
        let now = self.now;
        while self.loads.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.loads.pop();
        }
        while self.stores.peek().is_some_and(|&Reverse(c)| c <= now) {
            self.stores.pop();
        }
    }

    /// Block until an instruction slot (ROB + width) is available.
    fn wait_dispatch_slot(&mut self) {
        while self.dispatched_this_cycle == self.width || self.rob.len() == self.rob_size {
            self.advance_cycle();
        }
    }

    /// Dispatch one non-memory instruction (1-cycle execute).
    pub fn dispatch_nonmem(&mut self) {
        self.wait_dispatch_slot();
        self.rob.push_back(self.now + 1);
        self.dispatched_this_cycle += 1;
        self.dispatched += 1;
    }

    /// Reserve a dispatch slot for a memory instruction and return the
    /// cycle at which it issues to the memory system.
    ///
    /// For a dependent load (`dep = true`) the issue cycle is delayed to
    /// the previous load's completion.
    pub fn begin_mem_op(&mut self, is_load: bool, dep: bool) -> u64 {
        self.wait_dispatch_slot();
        if is_load {
            while self.loads.len() >= self.lq_size {
                self.advance_cycle();
            }
        } else {
            while self.stores.len() >= self.sq_size {
                self.advance_cycle();
            }
        }
        if dep && is_load {
            self.last_load_complete.max(self.now)
        } else {
            self.now
        }
    }

    /// Complete a load dispatched at `issue` with the given `latency`.
    pub fn dispatch_load(&mut self, issue: u64, latency: u64) {
        let complete = issue + latency.max(1);
        self.rob.push_back(complete);
        self.loads.push(Reverse(complete));
        self.last_load_complete = complete;
        self.dispatched_this_cycle += 1;
        self.dispatched += 1;
    }

    /// Complete a store: it retires quickly (commits from the SQ after
    /// retirement), but occupies an SQ entry until the write completes.
    pub fn dispatch_store(&mut self, issue: u64, latency: u64) {
        self.rob.push_back(self.now + 1);
        let complete = issue + latency.max(1);
        self.stores.push(Reverse(complete));
        self.dispatched_this_cycle += 1;
        self.dispatched += 1;
    }

    /// Drain the ROB; returns the cycle at which the last instruction
    /// retired.
    pub fn drain(&mut self) -> u64 {
        while !self.rob.is_empty() {
            self.advance_cycle();
        }
        self.now
    }
}
