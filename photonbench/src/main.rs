//! End-to-end and per-layer benchmark of the Photon reproduction.
//!
//! ```text
//! photonbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! photonbench compare <a.json> <b.json>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! split. The last stdout line is the JSON result; the lines before it
//! give the host fingerprint, sample counts and any failed operation.
//! The exit code is 1 when a correctness check or an operation failed.
//! See README.md for the workloads, the metrics and the layer map.

mod report;
mod serve;
mod sim;
mod wrap;

use gpu_sim::{EngineMode, GpuConfig};
use gpu_workloads::dnn::DnnScale;
use gpu_workloads::registry::{Benchmark, RealWorldApp};
use photon::Levels;
use photon_bench::{Method, RunSpec, WorkloadSpec};
use report::{beyond, median, percentile, Ledger, Metrics};
use serde_json::Value;
use sim::Cell;
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["vgg16-reuse", "spmv-membound", "fir-epoch2"];

/// Minimum Full/Photon pairs per direct-simulation run.
const MIN_PAIRS: usize = 3;
/// Set-ups timed on their own besides each pair's two.
const SETUPS_PER_PAIR: usize = 4;
/// The share of a run's host time the direct cells get; serve rounds
/// get the rest.
const CELL_SHARE: f64 = 0.6;
/// The default serve phase: two untraced rounds.
const UNTRACED: serve::Phase = serve::Phase {
    min_rounds: 2,
    traced: false,
};
/// Two traced rounds.
const TRACED: serve::Phase = serve::Phase {
    traced: true,
    ..UNTRACED
};

/// One workload: the application it simulates directly and its
/// machine. Every workload also runs the same serve phase.
struct Workload {
    name: &'static str,
    app: WorkloadSpec,
    gpu: GpuConfig,
}

fn machine(num_cus: u32, det_threads: Option<u32>) -> GpuConfig {
    let mut cfg = GpuConfig::r9_nano().with_num_cus(num_cus);
    if let Some(t) = det_threads {
        cfg.engine.mode = EngineMode::Deterministic;
        cfg.engine.threads = t;
    }
    cfg
}

/// The served jobs' machine. Serial: the server's two workers each
/// running a two-thread engine would ask for twice the host's cores.
fn serve_gpu() -> GpuConfig {
    machine(4, None)
}

/// The served application of input `i`: small FIR filters, so that a
/// cold round takes about a second and a run holds several.
fn serve_family(i: usize) -> WorkloadSpec {
    WorkloadSpec::Bench {
        bench: Benchmark::Fir,
        warps: [128, 192, 256, 320][i % 4],
    }
}

fn workload(name: &str) -> Option<Workload> {
    let (app, gpu) = match name {
        "vgg16-reuse" => (
            WorkloadSpec::RealWorld {
                app: RealWorldApp::Vgg16,
                scale: DnnScale {
                    input_hw: 32,
                    channel_div: 8,
                },
            },
            machine(16, None),
        ),
        "spmv-membound" => (
            WorkloadSpec::Bench {
                bench: Benchmark::Spmv,
                warps: 64,
            },
            machine(16, None),
        ),
        "fir-epoch2" => (
            WorkloadSpec::Bench {
                bench: Benchmark::Fir,
                warps: 4096,
            },
            machine(16, Some(2)),
        ),
        _ => return None,
    };
    let name = WORKLOADS.into_iter().find(|w| *w == name)?;
    Some(Workload { name, app, gpu })
}

fn spec(workload: &WorkloadSpec, gpu: &GpuConfig, method: Method, seed: u64) -> RunSpec {
    RunSpec {
        workload: workload.clone(),
        method,
        gpu: gpu.clone(),
        photon: sim::photon_config(),
        seed,
    }
}

fn engine_of(cfg: &GpuConfig) -> String {
    format!(
        "{} CUs, {:?} engine, {} threads, {:?} memory",
        cfg.num_cus, cfg.engine.mode, cfg.engine.threads, cfg.mem.fidelity.mode
    )
}

/// The end-to-end metric names, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("full_minsts_per_s", "Minsts/s"),
    ("photon_wall_s", "s"),
    ("photon_accuracy_pct", "%"),
    ("peak_rss_mb", "MiB"),
    ("serve_cold_p50_ms", "ms"),
    ("serve_cold_p90_ms", "ms"),
    ("serve_warm_p50_ms", "ms"),
    ("serve_warm_p99_ms", "ms"),
    ("serve_warm_jobs_per_s", "1/s"),
];

/// The per-layer metric names, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.build_s", "s"),
    ("workloads.launches", "count"),
    ("sim.run_s", "s"),
    ("sim.engine_self_s", "s"),
    ("sim.events", "count"),
    ("sim.cycles", "cycles"),
    ("sim.insts.detailed", "count"),
    ("sim.insts.functional", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("functional.trace_s", "s"),
    ("functional.trace_insts", "count"),
    ("functional.trace_ns_per_inst", "ns"),
    ("mem.l1v.hits", "count"),
    ("mem.l1v.misses", "count"),
    ("mem.l1v.mshr_merges", "count"),
    ("mem.l2.hits", "count"),
    ("mem.l2.misses", "count"),
    ("mem.dram.accesses", "count"),
    ("mem.queue_delay.p95", "cycles"),
    ("mem.l1v.hit_rate", "ratio"),
    ("mem.accesses_per_inst", "ratio"),
    ("mem.service_s", "s"),
    ("mem.det1_cycle_gap_pct", "%"),
    ("photon.kernel_start_s", "s"),
    ("photon.callback_s", "s"),
    ("photon.callback_calls", "count"),
    ("photon.kernels_skipped", "count"),
    ("photon.predicted_warps_pct", "%"),
    ("photon.error_pct", "%"),
    ("photon.speedup_vs_full", "ratio"),
    ("epoch.barrier_s", "s"),
    ("epoch.mem_service_s", "s"),
    ("engine.epochs", "count"),
    ("epoch.host_us_per_epoch", "us"),
    ("epoch.sim_cycles_per_epoch", "cycles"),
    ("engine.epoch.imbalance", "ratio"),
    ("executor.overhead_s", "s"),
    ("refcache.hits", "count"),
    ("refcache.misses", "count"),
    ("serve.queued_ms", "ms"),
    ("serve.cache_probe_ms", "ms"),
    ("serve.sim_ms", "ms"),
    ("serve.persist_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.coalesce_rate", "ratio"),
    ("serve.sim_runs", "count"),
    ("serve.rejected", "count"),
    ("serve.cold_samples", "count"),
    ("serve.warm_samples", "count"),
    ("trace.overhead_pct", "%"),
    ("layers.unattributed_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value()? == "1",
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare_files(&args[1..]));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("photonbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "photonbench: unknown workload `{}` (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        per_layer(&w, &args, &mut ledger)
    } else {
        end_to_end(&w, &args, &mut ledger)
    };

    let fingerprint = report::fingerprint(&[
        ("cell".to_string(), engine_of(&w.gpu)),
        ("serve".to_string(), engine_of(&serve_gpu())),
    ]);
    println!(
        "fingerprint {}",
        serde_json::to_string(&fingerprint).unwrap_or_default()
    );
    for f in &ledger.failures {
        println!("FAILED {f}");
    }
    for (name, value, unit) in metrics.iter() {
        println!("{:<30} {value:>16.6} {unit}", name);
    }
    let failed = ledger.failures.len() as u64;
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(ledger.attempted.max(1))),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics.to_value()),
    ]);
    if let Some(path) = &args.out {
        let saved = Value::Object(vec![
            ("fingerprint".to_string(), fingerprint),
            ("workload".to_string(), Value::String(w.name.to_string())),
            ("seed".to_string(), Value::U64(args.seed)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("result".to_string(), result.clone()),
        ]);
        let text = serde_json::to_string_pretty(&saved).unwrap_or_default();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("photonbench: writing {path}: {e}");
        }
    }
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

fn compare_files(paths: &[String]) -> i32 {
    let [a, b] = paths else {
        eprintln!("usage: photonbench compare <a.json> <b.json>");
        return 2;
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    match load(a).and_then(|a| load(b).and_then(|b| report::compare(&a, &b))) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(e) => {
            eprintln!("photonbench: {e}");
            1
        }
    }
}

/// The two specs of a workload's direct cell.
fn cell_specs(w: &Workload, seed: u64) -> (RunSpec, RunSpec) {
    (
        spec(&w.app, &w.gpu, Method::Full, seed),
        spec(&w.app, &w.gpu, Method::Photon(Levels::all()), seed),
    )
}

fn serve_mix(seed: u64) -> serve::Mix {
    let gpu = serve_gpu();
    serve::Mix::new(seed, |i, s, method| spec(&serve_family(i), &gpu, method, s))
}

/// Sets the serve-phase end-to-end metrics, printing the sample counts.
///
/// Host contention from other tenants only ever slows a submission, and
/// it comes and goes from one second to the next. So each cold
/// submission counts at its fastest round, and the warm figures are
/// those of the quietest window. The figures over all samples are
/// printed beside.
fn serve_metrics(out: &serve::ServeOut, m: &mut Metrics) {
    let (nc, nw) = (out.cold_quiet_ms.len(), out.warm_ms.len());
    println!(
        "serve samples: cold {nc} ({} beyond p90) in {} rounds, warm {nw} in {} windows \
         ({} beyond each window's p99), {} clients closed-loop",
        beyond(nc, 0.9),
        out.rounds,
        out.warm_p99_ms.len(),
        beyond(serve::WARM_PER_WINDOW, 0.99),
        serve::CLIENTS
    );
    println!(
        "serve over all samples: cold p50 {:.4} ms, p90 {:.4} ms; warm p50 {:.4} ms, \
         p99 {:.4} ms, {:.1} jobs/s",
        median(&out.cold_ms),
        percentile(&out.cold_ms, 0.9),
        median(&out.warm_ms),
        percentile(&out.warm_ms, 0.99),
        nw as f64 / out.warm_wall_s.max(1e-9)
    );
    m.set("serve_cold_p50_ms", median(&out.cold_quiet_ms), "ms");
    m.set(
        "serve_cold_p90_ms",
        percentile(&out.cold_quiet_ms, 0.9),
        "ms",
    );
    let quietest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    m.set("serve_warm_p50_ms", quietest(&out.warm_p50_ms), "ms");
    m.set("serve_warm_p99_ms", quietest(&out.warm_p99_ms), "ms");
    m.set(
        "serve_warm_jobs_per_s",
        out.warm_rate.iter().copied().fold(0.0, f64::max),
        "1/s",
    );
}

fn end_to_end(w: &Workload, a: &Args, ledger: &mut Ledger) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in END_TO_END {
        m.set(name, 0.0, unit);
    }
    let mix = serve_mix(a.seed);
    let (refs, _) = serve::references(&mix, ledger);
    let (full, photon) = cell_specs(w, a.seed);
    // Cell pairs and serve rounds interleave, so every metric samples
    // the whole run rather than a slice of it.
    let t0 = Instant::now();
    let (mut fulls, mut photons) = (Vec::new(), Vec::new());
    let mut out = serve::ServeOut::default();
    let (mut cells_s, mut setups, mut peak_rss) = (0.0, Vec::new(), None);
    loop {
        let pairs_done = fulls.len() >= MIN_PAIRS;
        let minimum_done = pairs_done && out.rounds >= UNTRACED.min_rounds;
        if minimum_done && peak_rss.is_none() {
            // Peak memory over a fixed amount of work: later
            // repetitions, as many as the host's speed allows, would
            // make it grow with that speed.
            peak_rss = Some(report::peak_rss_mib());
        }
        if minimum_done && t0.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
        let ok = if cells_s * (1.0 - CELL_SHARE) <= CELL_SHARE * out.wall_s
            || (out.rounds >= UNTRACED.min_rounds && !pairs_done)
        {
            let t = Instant::now();
            let ok = sim::pair(&full, &photon, &mut fulls, &mut photons, ledger);
            // Set-up takes milliseconds: sample it more often than the
            // cells run.
            for spec in [&full, &photon].repeat(SETUPS_PER_PAIR / 2) {
                if let Some((secs, _)) = ledger.op("setup", sim::setup_once(spec)) {
                    setups.push(secs);
                }
            }
            cells_s += t.elapsed().as_secs_f64();
            ok
        } else {
            serve::round(&mix, &refs, UNTRACED, ledger, &mut out)
        };
        if !ok {
            break;
        }
    }
    m.set("peak_rss_mb", peak_rss.unwrap_or_default(), "MiB");
    serve_metrics(&out, &mut m);
    // Host contention only ever slows a repetition, and on a shared host
    // it comes and goes within a run: each set-up's and each kernel
    // launch's fastest repetition is what the code does on an otherwise
    // idle host. Medians over whole repetitions are printed beside.
    setups.extend(fulls.iter().chain(&photons).map(|c| c.setup_s));
    m.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    let rates: Vec<f64> = fulls.iter().map(Cell::minsts_per_s).collect();
    let walls: Vec<f64> = photons.iter().map(|c| c.wall_s).collect();
    let full_insts = fulls.first().map_or(0, |c| c.detailed) as f64;
    println!(
        "cells: {} Full and {} Photon runs of {}, {} set-ups; median Full {:.4} Minsts/s, \
         median Photon wall {:.4} s, median set-up {:.6} s",
        fulls.len(),
        photons.len(),
        full.label(),
        setups.len(),
        median(&rates),
        median(&walls),
        median(&setups)
    );
    m.set(
        "full_minsts_per_s",
        full_insts / sim::quiet_wall(&fulls).max(1e-9) / 1e6,
        "Minsts/s",
    );
    m.set("photon_wall_s", sim::quiet_wall(&photons), "s");
    if let (Some(f), Some(p)) = (fulls.first(), photons.first()) {
        m.set(
            "photon_accuracy_pct",
            sim::accuracy_pct(f.cycles(), p.cycles()),
            "%",
        );
    }
    m
}

fn per_layer(w: &Workload, a: &Args, ledger: &mut Ledger) -> Metrics {
    let t_all = Instant::now();
    let mut attributed = 0.0;
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.set(name, 0.0, unit);
    }
    let mix = serve_mix(a.seed);
    let t_ref = Instant::now();
    let (refs, overhead) = serve::references(&mix, ledger);
    attributed += t_ref.elapsed().as_secs_f64();
    m.set("executor.overhead_s", overhead, "s");

    let (full, photon) = cell_specs(w, a.seed);
    cell_layers(
        w,
        (&full, &photon),
        CELL_SHARE * a.seconds,
        &mut m,
        &mut attributed,
        ledger,
    );
    let out = serve::run(&mix, &refs, TRACED, ledger);
    attributed += out.wall_s;
    serve_layers(&out, &mut m);

    let wall = t_all.elapsed().as_secs_f64();
    m.set(
        "layers.unattributed_pct",
        100.0 * (wall - attributed) / wall.max(1e-9),
        "%",
    );
    m
}

fn serve_layers(out: &serve::ServeOut, m: &mut Metrics) {
    let submitted = (out.cold_ms.len() + out.warm_ms.len()).max(1) as f64;
    m.set("serve.queued_ms", out.phase_median("queued"), "ms");
    m.set(
        "serve.cache_probe_ms",
        out.phase_median("cache-probe"),
        "ms",
    );
    m.set("serve.sim_ms", out.phase_median("sim"), "ms");
    m.set("serve.persist_ms", out.phase_median("persist"), "ms");
    m.set(
        "serve.client_overhead_ms",
        median(&out.client_overhead_ms),
        "ms",
    );
    m.set(
        "serve.cache_hit_rate",
        out.counter("serve.cache_hits") as f64 / submitted,
        "ratio",
    );
    m.set(
        "serve.coalesce_rate",
        out.counter("serve.coalesced") as f64 / out.cold_ms.len().max(1) as f64,
        "ratio",
    );
    m.set(
        "serve.sim_runs",
        out.counter("serve.sim_runs") as f64,
        "count",
    );
    m.set(
        "serve.rejected",
        out.counter("serve.rejected") as f64,
        "count",
    );
    m.set("serve.cold_samples", out.cold_ms.len() as f64, "count");
    m.set("serve.warm_samples", out.warm_ms.len() as f64, "count");
    m.set(
        "refcache.hits",
        out.counter("refcache.hits") as f64,
        "count",
    );
    m.set(
        "refcache.misses",
        out.counter("refcache.misses") as f64,
        "count",
    );
}

/// The direct cell's per-layer split: untraced and traced Full/Photon
/// pairs alternating for `budget_s` host seconds (their simulated
/// results must agree exactly; host times are medians over the
/// repetitions), the executor path, and the workload's own extra split.
fn cell_layers(
    w: &Workload,
    (full, photon): (&RunSpec, &RunSpec),
    budget_s: f64,
    m: &mut Metrics,
    attributed: &mut f64,
    ledger: &mut Ledger,
) {
    let run = |spec: &RunSpec, timed: bool, ledger: &mut Ledger, attributed: &mut f64| {
        let c = ledger.op(&spec.label(), sim::run_cell(spec, timed));
        *attributed += c.as_ref().map_or(0.0, |c| c.setup_s + c.wall_s);
        c
    };
    // Each repetition is `[untraced Full, untraced Photon, traced Full,
    // traced Photon]`.
    let mut reps: Vec<[Cell; 4]> = Vec::new();
    let t0 = Instant::now();
    while reps.is_empty() || t0.elapsed().as_secs_f64() < budget_s {
        let cells = [(full, false), (photon, false), (full, true), (photon, true)]
            .map(|(spec, timed)| run(spec, timed, ledger, attributed));
        let [Some(uf), Some(up), Some(tf), Some(tp)] = cells else {
            break;
        };
        for (u, t) in [(&uf, &tf), (&up, &tp)] {
            ledger.check(
                "traced run simulates what the untraced run does",
                u.simulated() == t.simulated(),
                || format!("{} vs {}", u.simulated(), t.simulated()),
            );
        }
        if let Some([f0, p0, ..]) = reps.first() {
            ledger.check(
                "every repetition simulates what the first did",
                f0.simulated() == uf.simulated() && p0.simulated() == up.simulated(),
                || format!("{} vs {}", f0.simulated(), uf.simulated()),
            );
        }
        reps.push([uf, up, tf, tp]);
    }
    let Some([uf, up, tf, tp]) = reps.first() else {
        return;
    };
    println!(
        "traced split: {} repetitions of 2 untraced + 2 traced cells",
        reps.len()
    );
    // The median over repetitions of a host time.
    let med = |f: &dyn Fn(&[Cell; 4]) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = reps.iter().flatten().map(|c| c.setup_s).collect();
    m.set("workloads.build_s", median(&setups), "s");
    m.set("workloads.launches", uf.launches as f64, "count");

    // The executor path over the same two specs.
    let t0 = Instant::now();
    let report = photon_bench::run_specs(
        &[full.clone(), photon.clone()],
        &photon_bench::ExecOptions {
            jobs: 1,
            cache: false,
            journal: None,
            ..photon_bench::ExecOptions::default()
        },
    );
    let exec_wall = t0.elapsed().as_secs_f64();
    *attributed += exec_wall;
    let mut sims = 0.0;
    for (r, direct) in report.results.iter().zip([uf, up]) {
        if let Some(meas) = ledger.op(
            &format!("run_specs {}", r.spec.label()),
            r.measurement()
                .cloned()
                .ok_or_else(|| format!("{:?}", r.outcome)),
        ) {
            sims += meas.wall_secs;
            ledger.check(
                "run_specs simulates what the direct run does",
                meas.kernel_cycles == direct.kernel_cycles
                    && meas.detailed_insts == direct.detailed,
                || format!("{:?} vs {:?}", meas.kernel_cycles, direct.kernel_cycles),
            );
        }
    }
    let overhead = m.get("executor.overhead_s").unwrap_or(0.0);
    m.set("executor.overhead_s", overhead + exec_wall - sims, "s");

    // Engine, functional tracing, controller and epoch split of the
    // traced pair: counts from one repetition (they all agree), host
    // times as medians.
    let traced = |f: &dyn Fn(&Cell) -> f64| f(tf) + f(tp);
    let ctrl = |c: &Cell| c.times.map_or(0.0, |t| t.total().as_secs_f64());
    let run_s = med(&|r| r[2].wall_s + r[3].wall_s);
    let barrier_s = med(&|r| r[2].barrier_s + r[3].barrier_s);
    let mem_service_s = med(&|r| r[2].mem_service_s + r[3].mem_service_s);
    let engine_self = med(&|r| {
        r[2..]
            .iter()
            .map(|c| c.wall_s - ctrl(c) - c.barrier_s - c.mem_service_s)
            .sum()
    });
    let events = traced(&|c| c.counter("sim.events") as f64);
    m.set("sim.run_s", run_s, "s");
    m.set("sim.engine_self_s", engine_self, "s");
    m.set("sim.events", events, "count");
    m.set("sim.cycles", traced(&|c| c.cycles() as f64), "cycles");
    m.set(
        "sim.insts.detailed",
        traced(&|c| c.detailed as f64),
        "count",
    );
    m.set(
        "sim.insts.functional",
        traced(&|c| c.functional as f64),
        "count",
    );
    m.set(
        "sim.host_ns_per_event",
        engine_self * 1e9 / events.max(1.0),
        "ns",
    );

    // The Photon cell's controller times.
    let pt = |f: &dyn Fn(&wrap::CtrlTimes) -> f64| med(&|r| r[3].times.as_ref().map_or(0.0, f));
    let trace_s = pt(&|t| t.trace.as_secs_f64());
    let trace_insts = tp.times.map_or(0, |t| t.trace_insts);
    m.set("functional.trace_s", trace_s, "s");
    m.set("functional.trace_insts", trace_insts as f64, "count");
    m.set(
        "functional.trace_ns_per_inst",
        trace_s * 1e9 / (trace_insts.max(1)) as f64,
        "ns",
    );

    let ms = &tf.mem;
    m.set("mem.l1v.hits", ms.l1v_hits as f64, "count");
    m.set("mem.l1v.misses", ms.l1v_misses as f64, "count");
    m.set("mem.l1v.mshr_merges", ms.l1v_mshr_merges as f64, "count");
    m.set("mem.l2.hits", ms.l2_hits as f64, "count");
    m.set("mem.l2.misses", ms.l2_misses as f64, "count");
    m.set("mem.dram.accesses", ms.dram_accesses as f64, "count");
    let p95 = tf
        .snapshot
        .histograms
        .iter()
        .find(|h| h.name == "mem.l2.queue_delay")
        .map_or(0, |h| h.p95);
    m.set("mem.queue_delay.p95", p95 as f64, "cycles");
    let l1v = (ms.l1v_hits + ms.l1v_misses) as f64;
    m.set(
        "mem.l1v.hit_rate",
        ms.l1v_hits as f64 / l1v.max(1.0),
        "ratio",
    );
    let accesses = l1v + (ms.l1s_hits + ms.l1s_misses) as f64;
    m.set(
        "mem.accesses_per_inst",
        accesses / (tf.detailed.max(1)) as f64,
        "ratio",
    );
    m.set("mem.service_s", mem_service_s, "s");

    m.set(
        "photon.kernel_start_s",
        pt(&|t| t.analysis().as_secs_f64()),
        "s",
    );
    m.set("photon.callback_s", pt(&|t| t.callbacks.as_secs_f64()), "s");
    m.set(
        "photon.callback_calls",
        tp.times.map_or(0, |t| t.callback_calls) as f64,
        "count",
    );
    m.set("photon.kernels_skipped", tp.skipped as f64, "count");
    m.set(
        "photon.predicted_warps_pct",
        100.0 * tp.predicted_warps as f64 / (tp.total_warps.max(1)) as f64,
        "%",
    );
    m.set(
        "photon.error_pct",
        100.0 - sim::accuracy_pct(uf.cycles(), up.cycles()),
        "%",
    );
    let untraced_full = med(&|r| r[0].wall_s);
    let untraced_photon = med(&|r| r[1].wall_s);
    m.set(
        "photon.speedup_vs_full",
        untraced_full / untraced_photon.max(1e-9),
        "ratio",
    );

    let epochs = traced(&|c| c.counter("engine.epochs") as f64);
    m.set("epoch.barrier_s", barrier_s, "s");
    m.set("epoch.mem_service_s", mem_service_s, "s");
    m.set("engine.epochs", epochs, "count");
    if epochs > 0.0 {
        m.set("epoch.host_us_per_epoch", run_s * 1e6 / epochs, "us");
        m.set(
            "epoch.sim_cycles_per_epoch",
            traced(&|c| c.cycles() as f64) / epochs,
            "cycles",
        );
        let imbalance = tf
            .snapshot
            .gauges
            .iter()
            .find(|g| g.name == "engine.epoch.imbalance")
            .map_or(0.0, |g| g.value);
        m.set("engine.epoch.imbalance", imbalance, "ratio");
    }

    m.set(
        "trace.overhead_pct",
        100.0 * (run_s / med(&|r| r[0].wall_s + r[1].wall_s).max(1e-9) - 1.0),
        "%",
    );

    match w.name {
        "spmv-membound" => {
            // The serial engine has no memory-service section; the
            // one-thread deterministic engine does, and runs the same
            // address stream.
            let mut det1 = full.clone();
            det1.gpu.engine.mode = EngineMode::Deterministic;
            det1.gpu.engine.threads = 1;
            if let Some(d) = run(&det1, true, ledger, attributed) {
                let gap = 100.0 * (d.cycles() as f64 / uf.cycles().max(1) as f64 - 1.0);
                println!(
                    "spmv det1 split: mem-service {:.3} s, barrier {:.3} s of {:.3} s host; \
                     det1 vs serial simulated cycles {} vs {} ({gap:+.3} %)",
                    d.mem_service_s,
                    d.barrier_s,
                    d.wall_s,
                    d.cycles(),
                    uf.cycles()
                );
                m.set("mem.service_s", d.mem_service_s, "s");
                m.set("mem.det1_cycle_gap_pct", gap, "%");
            }
        }
        "fir-epoch2" => {
            let mut det1 = full.clone();
            det1.gpu.engine.threads = 1;
            if let Some(d) = run(&det1, false, ledger, attributed) {
                ledger.check(
                    "det-2 snapshot equals det-1",
                    d.sim_counters() == uf.sim_counters() && d.simulated() == uf.simulated(),
                    || format!("{:?} vs {:?}", d.sim_counters(), uf.sim_counters()),
                );
            }
        }
        _ => {}
    }
}
