//! The three workloads: their inputs, set-up, and one timed pass each.
//!
//! Every workload is a closed loop on the simulator's public APIs: a
//! pass runs each of its cells to completion, one after the other (or
//! on the grid scheduler's workers for `sweep`), and reports every
//! cell's host latency and simulated counters.

use crate::stats::{cell_is_sane, per_index, percentile, percentile_whole_ms, Fnv};
use pmp_bench::prefetchers::PrefetcherKind;
use pmp_bench::runner::{run_grid, CellSpec, RunConfig};
use pmp_bench::{journal, telemetry};
use pmp_sim::{LevelStats, MultiCoreResult, MultiCoreSystem, SimStats, System, SystemConfig};
use pmp_traces::{catalog, representative_subset, Trace, TraceScale, TraceSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Watchdog budget per cell, as `full_sweep` sets it: generous for a
/// healthy cell, a livelock becomes a failed cell instead of a hang.
pub const CELL_CYCLE_BUDGET: u64 = 2_000_000_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `full_sweep` grid through `runner::run_grid`.
    Sweep,
    /// Prefetch-heavy single-core cells through `System::run`.
    PfStorm,
    /// Four-core no-prefetch mixes through `MultiCoreSystem::run`.
    QuadDemand,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::PfStorm, Workload::QuadDemand];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::PfStorm => "pf_storm",
            Workload::QuadDemand => "quad_demand",
        }
    }

    /// Parse a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace scale of every cell.
    pub fn scale(self) -> TraceScale {
        match self {
            Workload::Sweep | Workload::PfStorm => TraceScale::Small,
            Workload::QuadDemand => TraceScale::Standard,
        }
    }

    /// The prefetchers each trace runs under.
    pub fn kinds(self) -> Vec<PrefetcherKind> {
        match self {
            Workload::Sweep => {
                let mut kinds = vec![PrefetcherKind::None];
                kinds.extend(PrefetcherKind::paper_five());
                kinds
            }
            Workload::PfStorm => vec![
                PrefetcherKind::NextLine,
                PrefetcherKind::SppPpf,
                PrefetcherKind::Pmp,
                PrefetcherKind::Bingo,
            ],
            Workload::QuadDemand => vec![PrefetcherKind::None],
        }
    }

    /// Fingerprints recorded at seed 0, the catalog's own seeds: the
    /// whole workload's, and its canary's (the workload cut to its
    /// first two traces, checked on every run whatever the seed).
    pub fn recorded(self) -> (u64, u64) {
        match self {
            Workload::Sweep => (0x235f_3a73_da04_7797, 0x090e_3add_9778_a369),
            Workload::PfStorm => (0xf340_b4ef_3716_6594, 0x9ca3_38af_6204_3b4b),
            Workload::QuadDemand => (0x7531_111b_0ab4_73cc, 0x96cf_19b2_a8cd_cf6f),
        }
    }

    /// The simulated system.
    pub fn system(self) -> SystemConfig {
        match self {
            Workload::Sweep | Workload::PfStorm => SystemConfig::single_core(),
            Workload::QuadDemand => SystemConfig::quad_core(),
        }
    }

    /// Measured window per core of a quad mix, as `run_mix_checked`
    /// sizes it: about as many instructions as the whole trace.
    pub fn quad_measure(self) -> u64 {
        self.scale().mem_ops() as u64 * 10
    }

    /// The trace recipes, each catalog seed offset by `seed` (seed 0
    /// reproduces the catalog).
    pub fn specs(self, seed: u64) -> Vec<TraceSpec> {
        let base = match self {
            Workload::Sweep => catalog(),
            Workload::PfStorm | Workload::QuadDemand => representative_subset(),
        };
        base.into_iter()
            .map(|s| TraceSpec {
                seed: s.seed.wrapping_add(seed),
                ..s
            })
            .collect()
    }

    /// Set-up: everything a pass needs before its clock starts. The
    /// single-thread workloads build their traces here; `sweep` builds
    /// them inside the grid, through the harness's trace cache, as
    /// `full_sweep` does.
    pub fn prepare(self, specs: Vec<TraceSpec>) -> Prepared {
        let start = Instant::now();
        let traces = match self {
            Workload::Sweep => Vec::new(),
            Workload::PfStorm | Workload::QuadDemand => {
                specs.iter().map(|s| s.build(self.scale())).collect()
            }
        };
        let build_ns = start.elapsed().as_nanos() as u64;
        Prepared {
            workload: self,
            specs,
            traces,
            build_ns,
        }
    }
}

/// A workload's inputs, ready to run.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Seed-offset trace recipes.
    pub specs: Vec<TraceSpec>,
    /// Materialised traces (empty for `sweep`).
    pub traces: Vec<Trace>,
    /// Host time spent building `traces`, in nanoseconds.
    pub build_ns: u64,
}

/// Host latency of a pass's cells.
#[derive(Debug, Clone)]
pub enum Latencies {
    /// Timed by the benchmark, in milliseconds.
    Exact(Vec<f64>),
    /// Timed by the harness's telemetry, in whole milliseconds
    /// rounded down.
    WholeMs(Vec<u64>),
}

impl Latencies {
    /// Number of cells timed.
    pub fn len(&self) -> usize {
        match self {
            Latencies::Exact(v) => v.len(),
            Latencies::WholeMs(v) => v.len(),
        }
    }

    /// Percentile `p` in milliseconds.
    pub fn percentile(&self, p: u32) -> f64 {
        match self {
            Latencies::Exact(v) => percentile(v, p),
            Latencies::WholeMs(v) => percentile_whole_ms(v, p),
        }
    }

    /// Each cell's latency over several passes of the same cells: its
    /// best for exact timings, its median (the lower middle) for
    /// whole-ms spans, which are too coarse for a best to mean much.
    /// `None` when the passes timed different numbers of cells.
    pub fn per_cell(passes: &[&Latencies]) -> Option<Latencies> {
        let exact: Option<Vec<&[f64]>> = passes
            .iter()
            .map(|l| match l {
                Latencies::Exact(v) => Some(v.as_slice()),
                Latencies::WholeMs(_) => None,
            })
            .collect();
        if let Some(exact) = exact {
            return per_index(&exact, |_| 0).map(Latencies::Exact);
        }
        let whole: Vec<&[u64]> = passes
            .iter()
            .filter_map(|l| match l {
                Latencies::WholeMs(v) => Some(v.as_slice()),
                Latencies::Exact(_) => None,
            })
            .collect();
        per_index(&whole, |k| (k - 1) / 2).map(Latencies::WholeMs)
    }

    /// Every latency in milliseconds, whole-ms samples at mid-bucket.
    pub fn ms(&self) -> Vec<f64> {
        match self {
            Latencies::Exact(v) => v.clone(),
            Latencies::WholeMs(v) => v.iter().map(|&x| x as f64 + 0.5).collect(),
        }
    }
}

/// One completed cell: its identity and simulated counters.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// Trace (or mix) name.
    pub trace: String,
    /// Prefetcher label.
    pub kind: String,
    /// Measured-window counters, one per simulated core.
    pub cores: Vec<SimStats>,
    /// Shared DRAM requests and whole-run LLC counters (mixes only).
    pub shared: Option<(u64, LevelStats)>,
}

/// One pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-cell host latency.
    pub latencies: Latencies,
    /// Completed cells in grid order.
    pub cells: Vec<CellOut>,
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that panicked, timed out, or broke a cell-level law.
    pub failed: usize,
    /// What the pass left behind in the harness (`sweep` only).
    pub harness: Option<HarnessView>,
}

/// The harness's own view of a `sweep` grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct HarnessView {
    /// Grid workers.
    pub workers: usize,
    /// Host wall time of the grid, journal and report included.
    pub grid_s: f64,
    /// Σ of the telemetry's cell spans, in seconds.
    pub span_s: f64,
    /// Traces the grid's cache built.
    pub trace_builds: usize,
    /// Trace requests the cache served without building.
    pub trace_cache_hits: usize,
    /// Worker-seconds idle after the last cell was handed out
    /// (measured only when asked for).
    pub idle_s: f64,
}

impl Pass {
    /// Simulated measured-window instructions over every cell.
    pub fn instructions(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|c| &c.cores)
            .map(|s| s.instructions)
            .sum()
    }

    /// FNV-1a over every cell's counters, in grid order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for c in &self.cells {
            for s in &c.cores {
                h.stats(s);
            }
            if let Some((dram, llc)) = &c.shared {
                h.word(*dram);
                h.level(llc);
            }
        }
        h.finish()
    }

    /// Per-core IPCs of every cell.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cells
            .iter()
            .flat_map(|c| &c.cores)
            .map(|s| s.ipc())
            .collect()
    }
}

/// Run `f` inside a panic boundary; a panic becomes `None`.
pub fn isolated<R>(f: impl FnOnce() -> Option<R>) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok().flatten()
}

/// Count the cells that break a cell-level law as failed.
fn insane(cells: &[CellOut]) -> usize {
    cells
        .iter()
        .filter(|c| !c.cores.iter().all(cell_is_sane))
        .count()
}

/// Run one untraced pass. `scratch` is a directory the pass may use
/// and must leave empty; `measure_idle` turns on the worker-idle probe.
pub fn run_pass(p: &Prepared, scratch: &Path, measure_idle: bool) -> Pass {
    match p.workload {
        Workload::Sweep => sweep_pass(p, scratch, measure_idle),
        Workload::PfStorm => single_pass(p),
        Workload::QuadDemand => quad_pass(p),
    }
}

fn single_pass(p: &Prepared) -> Pass {
    let w = p.workload;
    let (cfg, warmup) = (w.system(), w.scale().warmup_instructions());
    let mut ms = Vec::new();
    let mut cells = Vec::new();
    let mut attempted = 0;
    for kind in w.kinds() {
        for trace in &p.traces {
            attempted += 1;
            let t = Instant::now();
            let out = isolated(|| {
                System::new(cfg.clone(), kind.build())
                    .run_bounded(&trace.ops, warmup, CELL_CYCLE_BUDGET)
                    .ok()
            });
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(r) = out {
                cells.push(CellOut {
                    trace: trace.name.clone(),
                    kind: kind.label(),
                    cores: vec![r.stats],
                    shared: None,
                });
            }
        }
    }
    let failed = attempted - cells.len() + insane(&cells);
    Pass {
        latencies: Latencies::Exact(ms),
        cells,
        attempted,
        failed,
        harness: None,
    }
}

/// Run one homogeneous mix: `trace` on all four cores, no prefetcher.
pub fn run_mix(w: Workload, trace: &Trace) -> Option<MultiCoreResult> {
    isolated(|| {
        let prefetchers = (0..4).map(|_| PrefetcherKind::None.build()).collect();
        let refs = [trace.ops.as_slice(); 4];
        MultiCoreSystem::new(w.system(), prefetchers)
            .run_bounded(
                &refs,
                w.scale().warmup_instructions(),
                w.quad_measure(),
                CELL_CYCLE_BUDGET,
            )
            .ok()
    })
}

fn quad_pass(p: &Prepared) -> Pass {
    let mut ms = Vec::new();
    let mut cells = Vec::new();
    for trace in &p.traces {
        let t = Instant::now();
        let out = run_mix(p.workload, trace);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(r) = out {
            cells.push(CellOut {
                trace: format!("homo/{}", trace.name),
                kind: PrefetcherKind::None.label(),
                cores: r.cores,
                shared: Some((r.dram_requests, r.llc)),
            });
        }
    }
    let attempted = p.traces.len();
    let failed = attempted - cells.len() + insane(&cells);
    Pass {
        latencies: Latencies::Exact(ms),
        cells,
        attempted,
        failed,
        harness: None,
    }
}

/// Worker-seconds idle once every cell has been handed out, sampled
/// from the telemetry's in-flight count until `done` is set.
fn watch_idle(
    obs: &pmp_obs::SweepObserver,
    workers: usize,
    done: &std::sync::atomic::AtomicBool,
) -> f64 {
    use std::sync::atomic::Ordering;
    let mut idle = 0.0;
    let mut last = Instant::now();
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(std::time::Duration::from_millis(1));
        let now = Instant::now();
        let snap = obs.snapshot();
        if snap.total.is_some_and(|t| snap.done + snap.in_flight >= t) {
            idle += workers.saturating_sub(snap.in_flight) as f64 * (now - last).as_secs_f64();
        }
        last = now;
    }
    idle
}

fn sweep_pass(p: &Prepared, scratch: &Path, measure_idle: bool) -> Pass {
    let w = p.workload;
    let cfg = RunConfig {
        scale: w.scale(),
        system: w.system(),
        max_cycles: Some(CELL_CYCLE_BUDGET),
        ..RunConfig::default()
    };
    let kinds = w.kinds();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = Instant::now();
    // As `full_sweep` runs: a fresh journal, telemetry on, one grid,
    // then the telemetry report.
    let journal_ok = journal::init_global(&scratch.join("journal.jsonl"), false).is_ok();
    let obs = telemetry::install(pmp_obs::SweepObserver::new());
    telemetry::phase("grid");
    let cells: Vec<CellSpec> = p.specs.iter().cloned().map(CellSpec::Synthetic).collect();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (outcomes, summary, idle_s) = std::thread::scope(|s| {
        let probe = measure_idle.then(|| s.spawn(|| watch_idle(&obs, workers, &done)));
        let (outcomes, summary) = run_grid(&cells, &kinds, &cfg);
        done.store(true, std::sync::atomic::Ordering::Release);
        let idle = probe.map_or(0.0, |h| h.join().expect("idle probe does not panic"));
        (outcomes, summary, idle)
    });
    let report = scratch.join("BENCH_sweep.json");
    let wrote = telemetry::write_sweep_json(&report, "full_sweep", &format!("{:?}", cfg.scale));
    let grid_s = start.elapsed().as_secs_f64();
    telemetry::clear();
    journal::clear_global();
    let _ = std::fs::remove_file(scratch.join("journal.jsonl"));
    let _ = std::fs::remove_file(&report);

    let mut spans = obs.spans();
    // A fixed order, so one pass's samples line up with another's;
    // completion order differs from pass to pass.
    spans.sort_by(|a, b| (&a.group, &a.name).cmp(&(&b.group, &b.name)));
    let cells: Vec<CellOut> = outcomes
        .into_iter()
        .map(|o| CellOut {
            trace: o.trace,
            kind: o.prefetcher,
            cores: vec![o.result.stats],
            shared: None,
        })
        .collect();
    let attempted = cells.len() + summary.failures.len();
    // A harness that could not keep its journal or its report failed
    // the users' sweep as a whole.
    let failed = if journal_ok && wrote {
        summary.failures.len() + insane(&cells)
    } else {
        attempted
    };
    Pass {
        latencies: Latencies::WholeMs(spans.iter().map(|s| s.wall_ms).collect()),
        harness: Some(HarnessView {
            workers,
            grid_s,
            // Spans are whole ms rounded down: take each at mid-bucket.
            span_s: spans.iter().map(|s| s.wall_ms as f64 + 0.5).sum::<f64>() / 1e3,
            trace_builds: summary.trace_builds,
            trace_cache_hits: summary.trace_cache_hits,
            idle_s,
        }),
        cells,
        attempted,
        failed,
    }
}
