//! `sim_throughput` — the simulator's ops/sec trajectory.
//!
//! Measures the memory-walk hot path (`demand_access` /
//! `prefetch_access`) and whole-system throughput, then emits
//! `BENCH_sim.json` so the numbers land in the perf trajectory and
//! future PRs can detect regressions. The `baseline_ops_per_sec`
//! fields pin the pre-optimization numbers measured on the reference
//! machine before the allocation-free hot-path rework; `speedup` is
//! current / baseline (machine-dependent — compare trends, not
//! absolutes, across hosts).
//!
//! The `cpu_model` row is a same-process comparison instead: the core
//! model (`pmp_sim::cpu::Cpu`) and its instruction-at-a-time reference
//! (`crates/sim/src/cpu_ref.rs`, included below) replay one fixed
//! op/latency stream back to back, and the row reports both ns per
//! instruction and their ratio (its `ops_per_sec` counts instructions).
//! Report-only, like `core_kernels`.
//!
//! Usage: `cargo run --release --bin sim_throughput [-- OUT.json]`
//! (default output path: `results/BENCH_sim.json`).

use pmp_bench::microbench::{bench_function, black_box};
use pmp_prefetch::{NextLine, NoPrefetch, PrefetchRequest};
use pmp_sim::hierarchy::{demand_access, prefetch_access, CoreMem, MemEvents, SharedMem};
use pmp_sim::cpu::Cpu;
use pmp_sim::{CoreConfig, NullTracer, SimStats, System, SystemConfig};
use pmp_types::{Addr, CacheLevel, LineAddr, MemAccess, Pc, Rng64, TraceOp};
use std::fmt::Write as _;

/// The instruction-at-a-time core model the differential tests check
/// `Cpu` against (it names `crate::CoreConfig`, imported above).
#[allow(dead_code)]
#[path = "../../../sim/src/cpu_ref.rs"]
mod cpu_ref;

/// Pre-PR baselines (ns/iter on the reference machine, commit 70aaa43)
/// for each workload, in `workloads()` order. The acceptance target for
/// the hot-path rework is >= 1.3x ops/sec on the memory-walk workloads.
const BASELINE_NS_PER_OP: [f64; 4] = [
    DEMAND_WALK_BASELINE_NS,
    PREFETCH_WALK_BASELINE_NS,
    SYSTEM_STREAM_BASELINE_NS,
    SYSTEM_NEXTLINE_BASELINE_NS,
];

/// `demand_walk` pre-PR ns/op.
const DEMAND_WALK_BASELINE_NS: f64 = 93.3;
/// `prefetch_walk` pre-PR ns/op.
const PREFETCH_WALK_BASELINE_NS: f64 = 320.3;
/// `system_stream` pre-PR ns/op (20k-mem-op run, NoPrefetch).
const SYSTEM_STREAM_BASELINE_NS: f64 = 367.3;
/// `system_nextline` pre-PR ns/op (20k-mem-op run, NextLine(4)).
const SYSTEM_NEXTLINE_BASELINE_NS: f64 = 621.8;

/// One measured workload.
struct Workload {
    name: &'static str,
    ns_per_op: f64,
}

/// The demand-side memory walk: mixed hits (small working set) and
/// streaming misses, one `demand_access` per op.
fn demand_walk() -> Workload {
    let cfg = SystemConfig::single_core();
    let mut cores = vec![CoreMem::new(&cfg)];
    let mut shared = SharedMem::new(&cfg);
    let mut stats = SimStats::default();
    let mut ev = MemEvents::default();
    let mut now = 0u64;
    let mut i = 0u64;
    let m = bench_function("sim_throughput/demand_walk", |b| {
        b.iter(|| {
            let line = if i.is_multiple_of(4) { LineAddr(1_000_000 + i) } else { LineAddr(i % 64) };
            let (lat, _) = demand_access(
                line,
                true,
                now,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
            ev.clear();
            now += 2;
            i += 1;
            black_box(lat)
        });
    });
    Workload { name: "demand_walk", ns_per_op: m.ns_per_iter }
}

/// The prefetch-side walk interleaved with demands: each op is one
/// demand plus one distance-4 L1D prefetch, so in steady state every
/// demand hits a prefetched line and every prefetch walks the full
/// admission + fill path.
fn prefetch_walk() -> Workload {
    let cfg = SystemConfig::single_core();
    let mut cores = vec![CoreMem::new(&cfg)];
    let mut shared = SharedMem::new(&cfg);
    let mut stats = SimStats::default();
    let mut ev = MemEvents::default();
    let mut now = 0u64;
    let mut i = 0u64;
    let m = bench_function("sim_throughput/prefetch_walk", |b| {
        b.iter(|| {
            let (lat, _) = demand_access(
                LineAddr(i),
                true,
                now,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
            let out = prefetch_access(
                PrefetchRequest::new(LineAddr(i + 4), CacheLevel::L1D),
                now,
                0,
                &mut cores,
                &mut shared,
                &mut stats,
                &mut ev,
                &mut NullTracer,
            );
            ev.clear();
            now += 8;
            i += 1;
            black_box((lat, out))
        });
    });
    Workload { name: "prefetch_walk", ns_per_op: m.ns_per_iter }
}

fn stream_ops(n: u64) -> Vec<TraceOp> {
    (0..n)
        .map(|i| TraceOp::new(MemAccess::load(Pc(0x400), Addr((i * 320) % (1 << 26))), 3, false))
        .collect()
}

/// Whole-system throughput, no prefetcher: trace dispatch + core model
/// + memory walk, per mem op.
fn system_stream() -> Workload {
    let ops = stream_ops(20_000);
    let m = bench_function("sim_throughput/system_stream", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::single_core(), Box::new(NoPrefetch));
            black_box(sys.run(&ops, 0).cycles)
        });
    });
    Workload { name: "system_stream", ns_per_op: m.ns_per_iter / 20_000.0 }
}

/// Whole-system throughput with an active prefetcher (adds the
/// prefetch walk and feedback delivery to every op).
fn system_nextline() -> Workload {
    let ops = stream_ops(20_000);
    let m = bench_function("sim_throughput/system_nextline", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::single_core(), Box::new(NextLine::new(4)));
            black_box(sys.run(&ops, 0).cycles)
        });
    });
    Workload { name: "system_nextline", ns_per_op: m.ns_per_iter / 20_000.0 }
}

/// One memory op of the `cpu_model` stream with its resolved latency.
struct CpuOp {
    nonmem_before: u64,
    is_load: bool,
    dep: bool,
    latency: u64,
}

/// A fixed op/latency stream shaped like the Small traces: ~18
/// non-memory instructions per memory op, 70% loads (10% dependent),
/// and a latency mix of L1 hits, L2/LLC hits and DRAM misses.
fn cpu_stream(n: usize) -> Vec<CpuOp> {
    let mut rng = Rng64::seed_from_u64(0xC0DE);
    (0..n)
        .map(|_| {
            let is_load = rng.gen_bool(0.7);
            let latency = match rng.gen_range(0..100u32) {
                0..=69 => 5,
                70..=84 => 15,
                85..=92 => 40,
                _ => rng.gen_range(200..=300u64),
            };
            CpuOp {
                nonmem_before: rng.gen_range(0..=36u64),
                is_load,
                dep: is_load && rng.gen_bool(0.1),
                latency,
            }
        })
        .collect()
}

/// Replay `ops` through one core model; returns the drain cycle.
macro_rules! replay_cpu {
    ($cpu:expr, $ops:expr, |$c:ident, $n:ident| $nonmem:expr) => {{
        let mut $c = $cpu;
        for op in $ops {
            let $n = op.nonmem_before;
            $nonmem;
            let issue = $c.begin_mem_op(op.is_load, op.dep);
            if op.is_load {
                $c.dispatch_load(issue, op.latency);
            } else {
                $c.dispatch_store(issue, op.latency);
            }
        }
        $c.drain()
    }};
}

/// The `cpu_model` row: ns per instruction of `Cpu` and of the
/// reference on the same stream, measured in alternating rounds.
struct CpuModel {
    ns_per_instr: f64,
    ref_ns_per_instr: f64,
    /// Median over rounds of reference / `Cpu` time: each round's two
    /// measurements run back to back, so host drift cancels.
    speedup: f64,
}

fn cpu_model() -> CpuModel {
    const ROUNDS: usize = 7;
    let cfg = CoreConfig::default();
    let ops = cpu_stream(20_000);
    let instrs: u64 = ops.iter().map(|op| op.nonmem_before + 1).sum();
    let fast = || replay_cpu!(Cpu::new(&cfg), &ops, |c, n| c.dispatch_nonmem_n(n));
    let slow = || {
        replay_cpu!(cpu_ref::Cpu::new(&cfg), &ops, |c, n| for _ in 0..n {
            c.dispatch_nonmem()
        })
    };
    assert_eq!(fast(), slow(), "Cpu and its reference disagree on the cpu_model stream");
    let (mut new_ns, mut ref_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let m = bench_function("sim_throughput/cpu_model", |b| b.iter(|| black_box(fast())));
        new_ns.push(m.ns_per_iter / instrs as f64);
        let m = bench_function("sim_throughput/cpu_model_ref", |b| b.iter(|| black_box(slow())));
        ref_ns.push(m.ns_per_iter / instrs as f64);
        ratios.push(ref_ns[ref_ns.len() - 1] / new_ns[new_ns.len() - 1]);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    CpuModel {
        ns_per_instr: median(new_ns),
        ref_ns_per_instr: median(ref_ns),
        speedup: median(ratios),
    }
}

/// Serialize the measurements as the `BENCH_sim.json` document.
fn to_json(workloads: &[Workload], cpu: &CpuModel) -> String {
    let mut out = String::from("{\n  \"bench\": \"sim_throughput\",\n  \"unit\": \"ops_per_sec\",\n  \"workloads\": [\n");
    let mut min_speedup = f64::INFINITY;
    for (i, w) in workloads.iter().enumerate() {
        let ops = 1e9 / w.ns_per_op;
        let base_ns = BASELINE_NS_PER_OP[i];
        let base_ops = 1e9 / base_ns;
        let speedup = base_ns / w.ns_per_op;
        min_speedup = min_speedup.min(speedup);
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"ops_per_sec\": {:.0}, \
             \"baseline_ns_per_op\": {:.1}, \"baseline_ops_per_sec\": {:.0}, \
             \"speedup\": {:.3}}},",
            w.name,
            w.ns_per_op,
            ops,
            base_ns,
            base_ops,
            speedup,
        );
    }
    // Not in `min_speedup`: its ratio is against the in-process
    // reference, not the recorded pre-rework baseline.
    let _ = writeln!(
        out,
        "    {{\"name\": \"cpu_model\", \"ns_per_instr\": {:.2}, \"ops_per_sec\": {:.0}, \
         \"ref_ns_per_instr\": {:.2}, \"ref_ops_per_sec\": {:.0}, \"speedup\": {:.3}}}",
        cpu.ns_per_instr,
        1e9 / cpu.ns_per_instr,
        cpu.ref_ns_per_instr,
        1e9 / cpu.ref_ns_per_instr,
        cpu.speedup,
    );
    let _ = write!(out, "  ],\n  \"min_speedup\": {min_speedup:.3}\n}}\n");
    out
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_sim.json".to_string());
    let workloads = [demand_walk(), prefetch_walk(), system_stream(), system_nextline()];
    let cpu = cpu_model();
    let json = to_json(&workloads, &cpu);
    for (i, w) in workloads.iter().enumerate() {
        println!(
            "{:<18} {:>9.1} ns/op  {:>12.0} ops/s  speedup vs pre-PR: {:.2}x",
            w.name,
            w.ns_per_op,
            1e9 / w.ns_per_op,
            BASELINE_NS_PER_OP[i] / w.ns_per_op,
        );
    }
    println!(
        "{:<18} {:>9.2} ns/instr  reference {:.2} ns/instr  speedup vs reference: {:.2}x",
        "cpu_model",
        cpu.ns_per_instr,
        cpu.ref_ns_per_instr,
        cpu.speedup,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    println!("wrote {out_path}");
}
