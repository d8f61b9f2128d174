//! The span replay: the simulator's per-op pipeline rebuilt from the
//! public layer functions, with a timer lap around each layer call.
//!
//! `pmp_sim::Engine` runs every trace op through the same five layers:
//! the CPU/ROB model (`sim::cpu::Cpu`), the demand walk
//! (`hierarchy::demand_access`: TLB, three cache levels, DRAM), event
//! delivery (`Prefetcher::on_evict` / `on_feedback`), the prefetcher's
//! own logic (`Prefetcher::on_access`) and prefetch admission
//! (`hierarchy::prefetch_access`). [`Replay`] calls those same public
//! functions in the engine's order, so its `SimStats` must equal
//! `System::run` / `MultiCoreSystem::run` bit for bit — the caller
//! asserts that for every cell it replays — and in between it reads
//! the clock once per layer call.
//!
//! Each lap charges the time since the previous lap to one layer, so
//! the layers' self times tile the replay loop: their sum over the
//! replay's wall time is the trace coverage. A lap also charges its
//! layer for one clock read; [`lap_cost_ns`] calibrates that cost once
//! per process, and [`Spans::self_ns`] takes it back out.

use pmp_prefetch::{AccessInfo, EvictInfo, PrefetchRequest, Prefetcher};
use pmp_sim::cpu::Cpu;
use pmp_sim::hierarchy::{demand_access, prefetch_access, MemEvents, PrefetchOutcome};
use pmp_sim::stats::diff_stats;
use pmp_sim::{
    CoreMem, LevelStats, MultiCoreResult, NullTracer, SharedMem, SimStats, SystemConfig,
};
use pmp_types::{CacheLevel, LineAddr, TraceOp};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Host time one [`Clock::lap`] adds to the layer it charges: the cost
/// of back-to-back clock reads, calibrated once per process as the
/// fastest of several short batches, since interference only ever adds
/// time.
pub fn lap_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        const BATCHES: usize = 50;
        const LAPS: u32 = 5_000;
        let mut spans = Spans::default();
        let mut clock = Clock::start(&mut spans);
        (0..BATCHES)
            .map(|_| {
                let start = clock.last;
                for _ in 0..LAPS {
                    clock.lap(Layer::Cpu);
                }
                (clock.last - start).as_nanos() as f64 / f64::from(LAPS)
            })
            .fold(f64::INFINITY, f64::min)
    })
}

/// The timed layers, named after the module each call lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `sim::cpu`: dispatch, issue-cycle selection, ROB drain.
    Cpu,
    /// `hierarchy::demand_access`.
    Demand,
    /// `Prefetcher::on_evict` / `on_feedback` delivery.
    Feedback,
    /// `Prefetcher::on_access`.
    PfLogic,
    /// `hierarchy::prefetch_access`, plus the PQ budget query.
    Admit,
}

const LAYERS: usize = 5;

/// Per-layer self time and work counts accumulated over replayed cells.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Time charged per [`Layer`], in nanoseconds.
    pub ns: [u64; LAYERS],
    /// Laps charged per [`Layer`].
    pub laps: [u64; LAYERS],
    /// `on_access` self time per prefetcher label: (ns, loads).
    pub pf_logic_by_kind: BTreeMap<String, (u64, u64)>,
    /// Trace ops replayed.
    pub ops: u64,
    /// Demand loads replayed (prefetcher training calls).
    pub loads: u64,
    /// Prefetch requests issued into admission.
    pub reqs: u64,
    /// Requests admitted into a prefetch queue.
    pub admitted: u64,
    /// Requests dropped as already resident.
    pub redundant: u64,
    /// Requests dropped for a full PQ or MSHR.
    pub dropped: u64,
    /// Wall time of the replayed cells, construction included.
    pub wall_ns: u64,
}

impl Spans {
    /// Self time of `layer` in nanoseconds, less the clock reads.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        (self.ns[i] as f64 - self.laps[i] as f64 * lap_cost_ns()).max(0.0)
    }

    /// `on_access` self time of prefetcher `kind` per trained load, in
    /// nanoseconds, less the clock reads (one lap per load).
    pub fn pf_logic_ns_per_load(&self, kind: &str) -> f64 {
        match self.pf_logic_by_kind.get(kind) {
            Some(&(ns, loads)) if loads > 0 => (ns as f64 / loads as f64 - lap_cost_ns()).max(0.0),
            _ => 0.0,
        }
    }

    /// Sum of the time charged to every layer over the replay wall
    /// time.
    pub fn coverage(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / self.wall_ns.max(1) as f64
    }
}

/// A lap timer: each [`Clock::lap`] charges the time since the last
/// lap to one layer.
struct Clock<'a> {
    last: Instant,
    spans: &'a mut Spans,
    logic_ns: u64,
    loads: u64,
}

impl<'a> Clock<'a> {
    fn start(spans: &'a mut Spans) -> Self {
        Clock {
            last: Instant::now(),
            spans,
            logic_ns: 0,
            loads: 0,
        }
    }

    #[inline]
    fn lap(&mut self, layer: Layer) {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as u64;
        self.spans.ns[layer as usize] += ns;
        self.spans.laps[layer as usize] += 1;
        if layer == Layer::PfLogic {
            self.logic_ns += ns;
        }
        self.last = now;
    }

    /// Credit this replay's `on_access` time and loads to `kind`.
    fn finish(self, kind: &str) {
        let e = self
            .spans
            .pf_logic_by_kind
            .entry(kind.to_string())
            .or_default();
        e.0 += self.logic_ns;
        e.1 += self.loads;
    }
}

/// Per-core address slice, as the engine maps it: core `who`'s lines
/// are shifted into a private part of the physical space.
fn core_line(line: LineAddr, who: usize) -> LineAddr {
    LineAddr(line.0 + ((who as u64) << 38))
}

fn uncore_line(line: LineAddr, who: usize) -> LineAddr {
    LineAddr(line.0.wrapping_sub((who as u64) << 38))
}

fn deliver(events: &mut MemEvents, pf: &mut dyn Prefetcher, who: usize, cycle: u64) {
    for line in events.l1d_evictions.drain(..) {
        pf.on_evict(&EvictInfo {
            line: uncore_line(line, who),
            cycle,
        });
    }
    for (line, kind) in events.feedback.drain(..) {
        pf.on_feedback(uncore_line(line, who), kind);
    }
}

/// One replayed core: the state `engine::CoreDriver` keeps.
struct Core {
    cpu: Cpu,
    stats: SimStats,
    pf: Box<dyn Prefetcher>,
    buf: Vec<PrefetchRequest>,
    dispatched: u64,
    next: usize,
    snap: Option<(u64, u64, SimStats)>,
    result: Option<SimStats>,
}

/// The replayed system: N cores over one shared LLC and DRAM.
pub struct Replay {
    cores: Vec<Core>,
    mems: Vec<CoreMem>,
    shared: SharedMem,
    events: MemEvents,
}

impl Replay {
    /// A system of one core per prefetcher, as `Engine::new` builds it.
    pub fn new(cfg: &SystemConfig, prefetchers: Vec<Box<dyn Prefetcher>>) -> Self {
        Replay {
            mems: prefetchers.iter().map(|_| CoreMem::new(cfg)).collect(),
            shared: SharedMem::new(cfg),
            cores: prefetchers
                .into_iter()
                .map(|pf| Core {
                    cpu: Cpu::new(&cfg.core),
                    stats: SimStats::default(),
                    pf,
                    buf: Vec::with_capacity(64),
                    dispatched: 0,
                    next: 0,
                    snap: None,
                    result: None,
                })
                .collect(),
            events: MemEvents::default(),
        }
    }

    /// One trace op on core `who`: the engine's per-op pipeline.
    fn step(
        &mut self,
        clock: &mut Clock,
        who: usize,
        op: &TraceOp,
        warmup: u64,
        measure: Option<u64>,
    ) {
        let c = &mut self.cores[who];
        if c.snap.is_none() && c.dispatched >= warmup {
            c.snap = Some((c.dispatched, c.cpu.now(), c.stats));
        }
        for _ in 0..op.nonmem_before {
            c.cpu.dispatch_nonmem();
        }
        let is_load = op.access.kind.is_load();
        let issue = c.cpu.begin_mem_op(is_load, op.dep_on_prev_load);
        clock.lap(Layer::Cpu);
        self.events.clear();
        let (latency, l1_hit) = demand_access(
            core_line(op.access.addr.line(), who),
            is_load,
            issue,
            who,
            &mut self.mems,
            &mut self.shared,
            &mut c.stats,
            &mut self.events,
            &mut NullTracer,
        );
        clock.lap(Layer::Demand);
        if is_load {
            c.cpu.dispatch_load(issue, latency);
        } else {
            c.cpu.dispatch_store(issue, latency);
        }
        clock.lap(Layer::Cpu);
        deliver(&mut self.events, &mut *c.pf, who, issue);
        clock.lap(Layer::Feedback);
        clock.spans.ops += 1;
        if is_load {
            clock.spans.loads += 1;
            clock.loads += 1;
            let info = AccessInfo {
                access: op.access,
                hit: l1_hit,
                cycle: issue,
                pq_free: self.mems[who].l1_pq_free(issue),
            };
            clock.lap(Layer::Admit);
            c.buf.clear();
            c.pf.on_access(&info, &mut c.buf);
            clock.lap(Layer::PfLogic);
            for req in &c.buf {
                self.events.clear();
                let req = PrefetchRequest {
                    line: core_line(req.line, who),
                    ..*req
                };
                let outcome = prefetch_access(
                    req,
                    issue,
                    who,
                    &mut self.mems,
                    &mut self.shared,
                    &mut c.stats,
                    &mut self.events,
                    &mut NullTracer,
                );
                clock.lap(Layer::Admit);
                deliver(&mut self.events, &mut *c.pf, who, issue);
                clock.lap(Layer::Feedback);
                clock.spans.reqs += 1;
                match outcome {
                    PrefetchOutcome::Admitted => clock.spans.admitted += 1,
                    PrefetchOutcome::Redundant => clock.spans.redundant += 1,
                    PrefetchOutcome::Dropped => clock.spans.dropped += 1,
                }
            }
        }
        c.dispatched += op.instruction_count();
        if let Some(measure) = measure {
            if c.result.is_none() && c.dispatched >= warmup + measure {
                let (wi, wc, ws) = c.snap.unwrap_or((0, 0, SimStats::default()));
                let mut out = diff_stats(&c.stats, &ws);
                out.instructions = c.dispatched - wi;
                out.cycles = c.cpu.now().saturating_sub(wc).max(1);
                c.result = Some(out);
            }
        }
    }

    /// Replay `System::run(ops, warmup)` on a fresh one-core system,
    /// charging each layer call to `spans`.
    pub fn run_sequential(
        mut self,
        ops: &[TraceOp],
        warmup: u64,
        kind: &str,
        spans: &mut Spans,
    ) -> SimStats {
        assert_eq!(self.cores.len(), 1, "the sequential schedule runs one core");
        let mut clock = Clock::start(spans);
        for op in ops {
            self.step(&mut clock, 0, op, warmup, None);
        }
        let c = &mut self.cores[0];
        let end = c.cpu.drain();
        clock.lap(Layer::Cpu);
        clock.finish(kind);
        let (wi, wc, ws) = c.snap.unwrap_or((0, 0, SimStats::default()));
        let mut stats = diff_stats(&c.stats, &ws);
        stats.instructions = c.dispatched - wi;
        stats.cycles = end - wc;
        stats
    }

    /// Replay `MultiCoreSystem::run(traces, warmup, measure)`: each step
    /// runs one op on the unfinished core with the lowest clock, cores
    /// replay their trace until every window is measured.
    pub fn run_windows(
        mut self,
        traces: &[&[TraceOp]],
        warmup: u64,
        measure: u64,
        kind: &str,
        spans: &mut Spans,
    ) -> Windows {
        assert_eq!(traces.len(), self.cores.len(), "one trace per core");
        let mut clock = Clock::start(spans);
        while let Some(who) = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.result.is_none())
            .min_by_key(|(_, c)| c.cpu.now())
            .map(|(i, _)| i)
        {
            let ops = traces[who];
            let op = ops[self.cores[who].next % ops.len()];
            self.cores[who].next += 1;
            self.step(&mut clock, who, &op, warmup, Some(measure));
        }
        clock.finish(kind);
        let mut llc = LevelStats::default();
        for c in &self.cores {
            llc.accumulate(c.stats.level(CacheLevel::Llc));
        }
        let end = self.cores.iter().map(|c| c.cpu.now()).max().unwrap_or(0);
        let result = MultiCoreResult {
            cores: self
                .cores
                .iter()
                .map(|c| c.result.expect("every window measured"))
                .collect(),
            dram_requests: self.shared.dram.requests(),
            llc,
            core_dram: self
                .cores
                .iter()
                .map(|c| pmp_sim::CoreDramTraffic {
                    requests: c.stats.dram_requests,
                    writes: c.stats.dram_writes,
                })
                .collect(),
        };
        Windows {
            result,
            dram_util: self.shared.dram.utilization(end),
            instructions: self.cores.iter().map(|c| c.dispatched).sum(),
        }
    }
}

/// Outcome of [`Replay::run_windows`].
pub struct Windows {
    /// What `MultiCoreSystem::run` returns.
    pub result: MultiCoreResult,
    /// Shared DRAM utilization at the last core's clock.
    pub dram_util: f64,
    /// Instructions every core dispatched, warm-up and replays included.
    pub instructions: u64,
}
