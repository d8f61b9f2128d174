//! The traced run: replay a workload's cells through [`Replay`] and
//! turn the layer spans into the per-layer metrics.
//!
//! Every replayed cell also runs untraced, next to its replay, and the
//! two `SimStats` must be equal to each other and to the cell's result
//! in the untraced pass: a mismatch is a failed cell.

use crate::replay::{Layer, Replay, Spans};
use crate::workload::{
    isolated, run_mix, CellOut, HarnessView, Pass, Prepared, Workload, CELL_CYCLE_BUDGET,
};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_sim::{SimStats, System};
use pmp_traces::Trace;
use pmp_types::CacheLevel;
use std::time::Instant;

/// Every `sweep` trace this many catalog entries apart is replayed
/// (25 of 125 traces, under all six prefetchers).
const SWEEP_REPLAY_STRIDE: usize = 5;

/// Per-layer totals over one or more traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    /// Layer spans of the replayed cells.
    pub spans: Spans,
    /// Host time of the same cells run untraced, in nanoseconds.
    pub untraced_ns: u64,
    /// Host time spent building traces, in nanoseconds.
    pub build_ns: u64,
    /// Trace ops built in `build_ns`.
    pub build_ops: u64,
    /// Traces built per pass.
    pub builds: usize,
    /// Trace requests served by the grid's cache per pass.
    pub cache_hits: usize,
    /// Summed measured-window counters of the replayed cells.
    pub window: SimStats,
    /// Shared-LLC misses and instructions over whole quad runs.
    pub quad_llc: (u64, u64),
    /// DRAM utilization of each replayed quad mix.
    pub quad_dram_util: Vec<f64>,
    /// Harness views of the untraced grids (`sweep` only).
    pub harness: Vec<HarnessView>,
    /// Replayed cells whose counters disagreed.
    pub mismatches: usize,
    /// Cells replayed.
    pub replayed: usize,
}

/// The untraced pass's result for one cell.
fn find<'a>(pass: &'a Pass, trace: &str, kind: &PrefetcherKind) -> Option<&'a CellOut> {
    let label = kind.label();
    pass.cells
        .iter()
        .find(|c| c.trace == trace && c.kind == label)
}

fn add(acc: &mut SimStats, s: &SimStats) {
    acc.instructions += s.instructions;
    acc.cycles += s.cycles;
    for (a, l) in acc.levels.iter_mut().zip(&s.levels) {
        a.accumulate(l);
    }
    acc.pf_issued += s.pf_issued;
    acc.pf_admitted += s.pf_admitted;
    acc.pf_dropped += s.pf_dropped;
    acc.pf_redundant += s.pf_redundant;
    acc.dram_requests += s.dram_requests;
    acc.dram_writes += s.dram_writes;
}

impl Layers {
    /// Replay the cells of `pass` (a subset of them for `sweep`) and
    /// fold their spans and counters in.
    pub fn trace_pass(&mut self, p: &Prepared, pass: &Pass) {
        let w = p.workload;
        match w {
            Workload::Sweep => {
                let h = pass.harness.expect("a sweep pass reports its harness");
                self.harness.push(h);
                self.builds = h.trace_builds;
                self.cache_hits = h.trace_cache_hits;
                let start = Instant::now();
                let traces: Vec<Trace> = p
                    .specs
                    .iter()
                    .step_by(SWEEP_REPLAY_STRIDE)
                    .map(|s| s.build(w.scale()))
                    .collect();
                self.build_ns += start.elapsed().as_nanos() as u64;
                self.build_ops += traces.iter().map(|t| t.ops.len() as u64).sum::<u64>();
                for kind in w.kinds() {
                    for trace in &traces {
                        self.single(w, &kind, trace, find(pass, &trace.name, &kind));
                    }
                }
            }
            Workload::PfStorm => {
                self.builds = p.traces.len();
                self.build_ns += p.build_ns;
                self.build_ops += p.traces.iter().map(|t| t.ops.len() as u64).sum::<u64>();
                for kind in w.kinds() {
                    for trace in &p.traces {
                        self.single(w, &kind, trace, find(pass, &trace.name, &kind));
                    }
                }
            }
            Workload::QuadDemand => {
                self.builds = p.traces.len();
                self.build_ns += p.build_ns;
                self.build_ops += p.traces.iter().map(|t| t.ops.len() as u64).sum::<u64>();
                for trace in &p.traces {
                    let name = format!("homo/{}", trace.name);
                    self.quad(w, trace, find(pass, &name, &PrefetcherKind::None));
                }
            }
        }
    }

    fn single(
        &mut self,
        w: Workload,
        kind: &PrefetcherKind,
        trace: &Trace,
        expect: Option<&CellOut>,
    ) {
        let (cfg, warmup) = (w.system(), w.scale().warmup_instructions());
        let start = Instant::now();
        let untraced = isolated(|| {
            System::new(cfg.clone(), kind.build())
                .run_bounded(&trace.ops, warmup, CELL_CYCLE_BUDGET)
                .ok()
        });
        self.untraced_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let spans = &mut self.spans;
        let replayed = isolated(|| {
            let replay = Replay::new(&cfg, vec![kind.build()]);
            Some(replay.run_sequential(&trace.ops, warmup, &kind.label(), spans))
        });
        self.spans.wall_ns += start.elapsed().as_nanos() as u64;
        self.replayed += 1;
        let Some(replayed) = replayed else {
            self.mismatches += 1;
            return;
        };
        let agrees = untraced.is_some_and(|u| u.stats == replayed)
            && expect.is_some_and(|c| c.cores == [replayed]);
        if !agrees {
            self.mismatches += 1;
        }
        add(&mut self.window, &replayed);
    }

    fn quad(&mut self, w: Workload, trace: &Trace, expect: Option<&CellOut>) {
        let start = Instant::now();
        let untraced = run_mix(w, trace);
        self.untraced_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let spans = &mut self.spans;
        let replayed = isolated(|| {
            let prefetchers = (0..4).map(|_| PrefetcherKind::None.build()).collect();
            let replay = Replay::new(&w.system(), prefetchers);
            let refs = [trace.ops.as_slice(); 4];
            let (warmup, measure) = (w.scale().warmup_instructions(), w.quad_measure());
            let label = PrefetcherKind::None.label();
            Some(replay.run_windows(&refs, warmup, measure, &label, spans))
        });
        self.spans.wall_ns += start.elapsed().as_nanos() as u64;
        self.replayed += 1;
        let Some(out) = replayed else {
            self.mismatches += 1;
            return;
        };
        let r = &out.result;
        let same = |cores: &[SimStats], dram: u64, llc| {
            cores == r.cores && dram == r.dram_requests && llc == r.llc
        };
        let agrees = untraced.is_some_and(|u| same(&u.cores, u.dram_requests, u.llc))
            && expect.is_some_and(|c| c.shared.is_some_and(|(d, l)| same(&c.cores, d, l)));
        if !agrees {
            self.mismatches += 1;
        }
        for s in &r.cores {
            add(&mut self.window, s);
        }
        self.quad_llc.0 += r.llc.misses();
        self.quad_llc.1 += out.instructions;
        self.quad_dram_util.push(out.dram_util);
    }

    /// The per-layer metrics, in `BENCHMARK.json` order: (name, unit,
    /// value).
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        let s = &self.spans;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per_ki = |n: u64| ratio(n as f64 * 1e3, self.window.instructions as f64);
        let misses = |l: CacheLevel| self.window.level(l).misses();
        let useful: u64 = self.window.levels.iter().map(|l| l.pf_useful).sum();
        let mut m: Vec<(String, &'static str, f64)> = vec![
            (
                "traces.build_ns_per_op".into(),
                "ns",
                ratio(self.build_ns as f64, self.build_ops as f64),
            ),
            ("traces.builds".into(), "count", self.builds as f64),
            ("traces.cache_hits".into(), "count", self.cache_hits as f64),
            (
                "cpu.ns_per_op".into(),
                "ns",
                ratio(s.self_ns(Layer::Cpu), s.ops as f64),
            ),
            (
                "demand.ns_per_op".into(),
                "ns",
                ratio(s.self_ns(Layer::Demand), s.ops as f64),
            ),
            (
                "l1d.mpki".into(),
                "1/kinstr",
                per_ki(misses(CacheLevel::L1D)),
            ),
            (
                "l2c.mpki".into(),
                "1/kinstr",
                per_ki(misses(CacheLevel::L2C)),
            ),
            (
                "llc.mpki".into(),
                "1/kinstr",
                per_ki(misses(CacheLevel::Llc)),
            ),
            (
                "dram.reqs_per_kinstr".into(),
                "1/kinstr",
                per_ki(self.window.dram_requests),
            ),
            (
                "pf_logic.ns_per_load".into(),
                "ns",
                ratio(s.self_ns(Layer::PfLogic), s.loads as f64),
            ),
        ];
        for label in PF_LOGIC_KINDS {
            m.push((
                format!("pf_logic.ns_per_load.{label}"),
                "ns",
                s.pf_logic_ns_per_load(label),
            ));
        }
        let reqs = s.reqs as f64;
        m.extend([
            (
                "pf_feedback.ns_per_op".into(),
                "ns",
                ratio(s.self_ns(Layer::Feedback), s.ops as f64),
            ),
            (
                "admit.ns_per_req".into(),
                "ns",
                ratio(s.self_ns(Layer::Admit), reqs),
            ),
            (
                "admit.reqs_per_load".into(),
                "count",
                ratio(reqs, s.loads as f64),
            ),
            (
                "admit.admitted_frac".into(),
                "frac",
                ratio(s.admitted as f64, reqs),
            ),
            (
                "admit.redundant_frac".into(),
                "frac",
                ratio(s.redundant as f64, reqs),
            ),
            (
                "admit.dropped_frac".into(),
                "frac",
                ratio(s.dropped as f64, reqs),
            ),
            (
                "pf.useful_frac".into(),
                "frac",
                ratio(useful as f64, self.window.pf_issued as f64),
            ),
            (
                "quad.llc_mpki".into(),
                "1/kinstr",
                ratio(self.quad_llc.0 as f64 * 1e3, self.quad_llc.1 as f64),
            ),
            (
                "quad.dram_util".into(),
                "frac",
                ratio(
                    self.quad_dram_util.iter().sum(),
                    self.quad_dram_util.len() as f64,
                ),
            ),
        ]);
        // Harness self time: what the workers spent outside the cell
        // spans, over the worker-time the grid held them.
        let worker_s: f64 = self
            .harness
            .iter()
            .map(|h| h.workers as f64 * h.grid_s)
            .sum();
        let span_s: f64 = self.harness.iter().map(|h| h.span_s).sum();
        let idle_s = ratio(
            self.harness.iter().map(|h| h.idle_s).sum(),
            self.harness.len() as f64,
        );
        m.extend([
            (
                "harness.self_frac".into(),
                "frac",
                if worker_s > 0.0 {
                    1.0 - span_s / worker_s
                } else {
                    0.0
                },
            ),
            ("harness.worker_idle_s".into(), "s", idle_s),
            (
                "trace.overhead_frac".into(),
                "frac",
                ratio(s.wall_ns as f64, self.untraced_ns as f64) - 1.0,
            ),
            ("trace.coverage_frac".into(), "frac", s.coverage()),
        ]);
        m
    }
}

/// Prefetcher labels with their own `pf_logic` metric: every kind any
/// workload runs.
pub const PF_LOGIC_KINDS: &[&str] = &[
    "baseline",
    "next-line",
    "spp-ppf",
    "pmp",
    "bingo",
    "dspatch",
    "pythia",
];
