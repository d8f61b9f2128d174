//! The simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|pf_storm|quad_demand --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with the run's correctness, cell counts and metrics: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! span replay with `--trace 1`. Each run's raw per-pass samples and
//! provenance are appended to `perfbench/out/runs.jsonl`. The exit code
//! is 1 when any correctness check fails, 2 on a usage error.

mod replay;
mod stats;
mod traced;
mod workload;

use stats::{geomean, median, tail_percentile, Fnv};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use traced::Layers;
use workload::{run_pass, Latencies, Pass, Workload};

/// Fewest untraced passes (and set-ups) a run measures.
const MIN_PASSES: usize = 3;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark package directory (inside the checkout being measured).
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where and on what a run was measured.
struct Manifest {
    cpu: String,
    nproc: usize,
    rev: String,
    src: u64,
    config: u64,
}

impl Manifest {
    fn collect(w: Workload) -> Manifest {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
            .to_string();
        let root = package_dir().join("..");
        let mut config = Fnv::default();
        let recipe = format!(
            "{:?}|{:?}|{:?}|{}|{}",
            w.system(),
            w.kinds().iter().map(|k| k.label()).collect::<Vec<_>>(),
            w.scale(),
            w.scale().warmup_instructions(),
            w.quad_measure()
        );
        for b in recipe.bytes() {
            config.word(u64::from(b));
        }
        Manifest {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rev: git_rev(&root),
            src: source_fingerprint(&root),
            config: config.finish(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"cpu\": {:?}, \"nproc\": {}, \"rev\": {:?}, \"src_fnv\": \"{:016x}\", \"config_fnv\": \"{:016x}\"}}",
            self.cpu, self.nproc, self.rev, self.src, self.config
        )
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `none` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(root.join(".git/HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..l.len() - r.len()].to_string())
            })
            .map_or_else(|| head.to_string(), |s| s.trim().to_string()),
    }
}

/// FNV-1a over the measured sources (every file under `crates/`, the
/// workspace manifest and lock file), so runs of different code are
/// told apart even outside a git checkout.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h.word(u64::from(b));
        }
    }
    h.finish()
}

/// Host time a turn spends setting up, at least: a set-up quicker than
/// this repeats, and the turn keeps its fastest repetition, so a tiny
/// set-up is timed warm rather than at the mercy of one cold call.
const MIN_SETUP: Duration = Duration::from_millis(20);

/// One turn of the closed loop.
struct Sample<R> {
    /// Host time of the turn's set-up (its fastest repetition).
    setup_s: f64,
    /// Host time of the pass.
    run_s: f64,
    /// What the pass returned.
    out: R,
}

/// The closed loop: set up, run one pass on what the set-up made, and
/// repeat until `min_passes` are done and another pass would end past
/// `deadline`. Set-up and pass are timed apart, so work moved from one
/// into the other shows in `setup_s` or in `run_s`. Set-ups are spread
/// over the run like the passes, so both sample the same stretch of
/// host load.
fn closed_loop<P, R>(
    deadline: Duration,
    min_passes: usize,
    mut setup: impl FnMut() -> P,
    mut pass: impl FnMut(&P) -> R,
) -> Vec<Sample<R>> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let mut setup_s = f64::INFINITY;
        let t = Instant::now();
        let prepared = loop {
            let rep = Instant::now();
            let prepared = setup();
            setup_s = setup_s.min(rep.elapsed().as_secs_f64());
            if t.elapsed() >= MIN_SETUP {
                break prepared;
            }
        };
        let t = Instant::now();
        let out = pass(&prepared);
        samples.push(Sample {
            setup_s,
            run_s: t.elapsed().as_secs_f64(),
            out,
        });
        let per_turn = start.elapsed() / samples.len() as u32;
        if samples.len() >= min_passes && start.elapsed() + per_turn > deadline {
            return samples;
        }
    }
}

fn json_metrics(metrics: &[(String, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload sweep|pf_storm|quad_demand --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let out_dir = package_dir().join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let manifest = Manifest::collect(w);

    let mut layers = Layers::default();
    if args.trace {
        replay::lap_cost_ns();
    }
    let samples = closed_loop(
        Duration::from_secs(args.seconds),
        if args.trace { 1 } else { MIN_PASSES },
        || w.prepare(w.specs(args.seed)),
        |p| {
            let pass = run_pass(p, &scratch, args.trace);
            if args.trace {
                layers.trace_pass(p, &pass);
            }
            pass
        },
    );
    let setup_s: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    let run_s: Vec<f64> = samples.iter().map(|s| s.run_s).collect();
    let runs: Vec<Pass> = samples.into_iter().map(|s| s.out).collect();
    let rss = peak_rss_mb();

    // Correctness: every pass must reproduce pass 0 (at seed 0, the
    // recorded fingerprint), the seed-0 canary its recorded value, and
    // every replayed cell its untraced twin. A pass that disagrees
    // fails all its cells.
    let (full, canary) = w.recorded();
    let canary_pass = run_pass(&w.prepare(w.specs(0)[..2].to_vec()), &scratch, false);
    let fp = runs[0].fingerprint();
    let want = if args.seed == 0 { full } else { fp };
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let checked = runs
        .iter()
        .map(|r| (r, want))
        .chain([(&canary_pass, canary)]);
    for (i, (r, want)) in checked.enumerate() {
        attempted += r.attempted;
        if r.fingerprint() == want {
            failed += r.failed;
        } else {
            failed += r.attempted;
            let what = if i < runs.len() {
                format!("pass {i}")
            } else {
                "canary".into()
            };
            failures.push(format!(
                "{what} fingerprint {:016x}, expected {want:016x}",
                r.fingerprint()
            ));
        }
    }
    if args.trace {
        attempted += layers.replayed;
        failed += layers.mismatches;
        if layers.mismatches > 0 {
            failures.push(format!(
                "{} of {} replayed cells disagree with their untraced run",
                layers.mismatches, layers.replayed
            ));
        }
    }
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} cells failed"));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // Metrics. On a shared host the other tenants slow this process by
    // up to 2x, in bursts of milliseconds and in spells of minutes, so
    // a cell's latency in one pass is mostly noise. Every pass runs the
    // same cells, so each cell gets one latency per run (its best, or
    // its median for `sweep`'s whole-ms spans; see
    // `Latencies::per_cell`) and the percentiles are taken over those.
    // A single-thread pass counts as the sum of its cells' best times.
    // `sweep` runs its cells on parallel workers under the harness, so
    // its pass is the median pass wall time. README.md gives the
    // spreads that chose these rules.
    let mips: Vec<f64> = runs
        .iter()
        .zip(&run_s)
        .map(|(r, t)| r.instructions() as f64 / t / 1e6)
        .collect();
    let per_pass: Vec<&Latencies> = runs.iter().map(|r| &r.latencies).collect();
    let cells = Latencies::per_cell(&per_pass).unwrap_or_else(|| runs[0].latencies.clone());
    let best_of_n = matches!(cells, Latencies::Exact(_));
    let n_cells = cells.len();
    let tail_p = tail_percentile(n_cells).unwrap_or(50);
    let (pass_s, pass_mips) = match &cells {
        Latencies::Exact(best) => {
            let pass_s = best.iter().sum::<f64>() / 1e3;
            (pass_s, runs[0].instructions() as f64 / pass_s / 1e6)
        }
        Latencies::WholeMs(_) => (median(&run_s), median(&mips)),
    };
    let end_to_end: Vec<(String, &str, f64)> = vec![
        ("setup_s".into(), "s", median(&setup_s)),
        ("run_s".into(), "s", pass_s),
        ("sim_mips".into(), "MIPS", pass_mips),
        ("cell_ms_p50".into(), "ms", cells.percentile(50)),
        ("cell_ms_tail".into(), "ms", cells.percentile(tail_p)),
        ("peak_rss_mb".into(), "MB", rss),
        ("ipc_geomean".into(), "IPC", geomean(&runs[0].ipcs())),
    ];
    let per_layer = layers.metrics();

    // Human-readable report.
    println!(
        "perfbench {} seed {} trace {} | {} passes of {} cells ({}) | host {:?} nproc {} | rev {} src {:016x} config {:016x}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        runs.len(),
        n_cells,
        if best_of_n {
            "timed per cell"
        } else {
            "whole-ms telemetry spans"
        },
        manifest.cpu,
        manifest.nproc,
        manifest.rev,
        manifest.src,
        manifest.config,
    );
    // A traced pass also replays its cells, so only an untraced run's
    // timings are end-to-end figures.
    for (name, unit, value) in end_to_end.iter().filter(|_| !args.trace) {
        let note = match name.as_str() {
            "setup_s" => format!("median over {} turns", setup_s.len()),
            "cell_ms_p50" | "cell_ms_tail" => format!(
                "p{} of {n_cells} cells, each its {} of {} passes",
                if name == "cell_ms_p50" { 50 } else { tail_p },
                if best_of_n { "best" } else { "median" },
                runs.len()
            ),
            "run_s" if best_of_n => format!(
                "sum of cell bests over {} passes; median pass wall {:.6} s",
                runs.len(),
                median(&run_s)
            ),
            "sim_mips" if best_of_n => "per run_s".into(),
            "run_s" | "sim_mips" => format!("median of {} passes", runs.len()),
            _ => String::new(),
        };
        println!("  {name:<14} {value:>14.6} {unit:<9} {note}");
    }
    println!(
        "  {:<14} {:>14.6} {:<9} {failed} of {attempted} cells",
        "failed_frac",
        failed as f64 / attempted as f64,
        "frac"
    );
    if args.trace {
        println!(
            "  (layer self times exclude {:.1} ns of clock read per lap)",
            replay::lap_cost_ns()
        );
        for (name, unit, value) in &per_layer {
            println!("  {name:<32} {value:>14.4} {unit}");
        }
    }
    println!(
        "  fingerprint {fp:016x}, canary {:016x}",
        canary_pass.fingerprint()
    );
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }

    // Raw samples and provenance, one JSON line per run.
    let per_pass_p50: Vec<f64> = runs.iter().map(|r| r.latencies.percentile(50)).collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"scale\": \"{:?}\", \
         \"manifest\": {}, \"setup_s\": {}, \"run_s\": {}, \"sim_mips\": {}, \"cell_ms_p50_per_pass\": {}, \
         \"cell_ms_per_pass\": [{}], \"tail_percentile\": {tail_p}, \"cells\": {}, \"fingerprint\": \"{fp:016x}\", \"correct\": {}, \
         \"end_to_end\": {}, \"per_layer\": {}}}\n",
        w.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        w.scale(),
        manifest.json(),
        json_list(&setup_s),
        json_list(&run_s),
        json_list(&mips),
        json_list(&per_pass_p50),
        runs.iter()
            .map(|r| json_list(&r.latencies.ms()))
            .collect::<Vec<_>>()
            .join(", "),
        n_cells,
        failures.is_empty(),
        json_metrics(&end_to_end),
        json_metrics(if args.trace { &per_layer } else { &[] }),
    );
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("runs.jsonl"))
        .and_then(|mut f| f.write_all(record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot record the run: {e}");
    }

    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(if args.trace { &per_layer } else { &end_to_end })
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn closed_loop_times_setup_and_pass_apart() {
        let ms = Duration::from_millis;
        let mut setups = 0;
        let samples = closed_loop(
            Duration::ZERO,
            3,
            || {
                setups += 1;
                sleep(ms(30));
            },
            |()| sleep(ms(40)),
        );
        assert_eq!(samples.len(), 3, "a run measures at least min_passes");
        assert_eq!(setups, 3, "a set-up longer than MIN_SETUP runs once a turn");
        for s in &samples {
            assert!((0.03..0.045).contains(&s.setup_s), "set-up {}", s.setup_s);
            assert!((0.04..0.055).contains(&s.run_s), "pass {}", s.run_s);
        }
    }

    #[test]
    fn closed_loop_repeats_a_quick_setup_and_keeps_its_fastest() {
        let mut setups = 0;
        let samples = closed_loop(
            Duration::ZERO,
            1,
            || {
                setups += 1;
                // Only the first repetition is slow.
                if setups == 1 {
                    sleep(Duration::from_millis(2));
                }
            },
            |()| (),
        );
        assert!(setups > 1, "a quick set-up repeats until MIN_SETUP");
        assert!(
            samples[0].setup_s < 0.001,
            "the slow first call is not kept"
        );
    }

    #[test]
    fn closed_loop_stops_before_a_pass_would_overrun() {
        let ms = Duration::from_millis;
        let mut passes = 0;
        let samples = closed_loop(
            ms(270),
            1,
            || (),
            |()| {
                passes += 1;
                sleep(ms(60));
            },
        );
        assert_eq!(samples.len(), passes);
        // A turn is MIN_SETUP of repeated set-up plus the 60 ms pass:
        // turns end near 80, 160 and 240 ms; a fourth would end near
        // 320, past the deadline.
        assert_eq!(passes, 3);
    }
}
