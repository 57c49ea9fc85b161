//! The serve phase: an in-process `photon-serve` on an ephemeral port
//! with a fresh cache directory, driven closed-loop by two clients
//! (each blocks on `wait` before its next submission).
//!
//! A round starts a new server and runs two phases against it:
//! - cold: every distinct job of the mix submitted twice, back to back,
//!   so the two clients coalesce onto one simulation; Full jobs take the
//!   batch lane and persist through the reference cache, Photon jobs
//!   take the interactive lane;
//! - warm: identical resubmissions, answered from the result store, in
//!   windows of [`WARM_PER_WINDOW`].
//!
//! Every fetched report is checked against a direct
//! [`photon_bench::run_specs`] of the same spec, and every warm report
//! against its cold one.

use crate::report::{median, percentile, Ledger};
use gpu_telemetry::span::{self, SpanKind, SpanRecord};
use photon_bench::{ExecOptions, Measurement, Method, RunSpec};
use photon_serve::client::{response_job, response_ok, stats_counter};
use photon_serve::{Client, ServeOptions, Server};
use serde::Deserialize;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Distinct inputs per mix; each gives a Full and a Photon job, and
/// each job two cold submissions: 100 in all, so that p90 leaves ten
/// beyond it.
const INPUTS: usize = 25;
/// Warm submissions per window: a window's p99 leaves ten beyond it.
pub const WARM_PER_WINDOW: usize = 1000;
/// Warm windows per round.
const WARM_WINDOWS: usize = 4;

/// The distinct jobs of a round and their cold submission order.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Distinct jobs: `(Full, Photon)` pairs, in input order.
    pub specs: Vec<RunSpec>,
    /// Cold submissions as indices into `specs`, each job twice in a
    /// row.
    pub order: Vec<usize>,
}

impl Mix {
    /// A mix of [`INPUTS`] inputs of one application family built by
    /// `make(input_index, seed)`, shuffled by `seed`.
    pub fn new(seed: u64, make: impl Fn(usize, u64, Method) -> RunSpec) -> Mix {
        let mut specs = Vec::new();
        for i in 0..INPUTS {
            let s = seed.wrapping_mul(1000).wrapping_add(i as u64);
            specs.push(make(i, s, Method::Full));
            specs.push(make(i, s, Method::Photon(photon::Levels::all())));
        }
        let mut jobs: Vec<usize> = (0..specs.len()).collect();
        let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
        for i in (1..jobs.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            jobs.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let order = jobs.iter().flat_map(|&j| [j, j]).collect();
        Mix { specs, order }
    }
}

/// One client-observed submission.
#[derive(Debug, Clone)]
struct Reply {
    job: String,
    /// Answered by an already-running or queued job.
    coalesced: bool,
    /// Answered by the result store at submit time.
    cached: bool,
    report: Value,
    measurement: Measurement,
}

/// What the serve phase measured, across rounds.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Rounds run.
    pub rounds: usize,
    /// Cold submit → report latencies (ms).
    pub cold_ms: Vec<f64>,
    /// Each cold submission's fastest latency over the rounds (ms):
    /// submission `i` of every round sends the same job.
    pub cold_quiet_ms: Vec<f64>,
    /// Warm submit → report latencies (ms).
    pub warm_ms: Vec<f64>,
    /// Each warm window's p50 (ms).
    pub warm_p50_ms: Vec<f64>,
    /// Each warm window's p99 (ms).
    pub warm_p99_ms: Vec<f64>,
    /// Each warm window's submissions per host second.
    pub warm_rate: Vec<f64>,
    /// Host seconds of all warm phases.
    pub warm_wall_s: f64,
    /// Host seconds of all rounds, bind to teardown.
    pub wall_s: f64,
    /// Per-job host time per span kind from the `trace` op (ms), traced
    /// rounds only.
    pub phases: Vec<(String, f64)>,
    /// Client latency minus the job's root span, cold leaders (ms).
    pub client_overhead_ms: Vec<f64>,
    /// Server counters summed over rounds.
    pub counters: Vec<(String, u64)>,
}

impl ServeOut {
    /// Median of one traced phase over the jobs that recorded it (ms).
    pub fn phase_median(&self, phase: &str) -> f64 {
        let v: Vec<f64> = self
            .phases
            .iter()
            .filter(|(p, _)| p == phase)
            .map(|(_, ms)| *ms)
            .collect();
        median(&v)
    }

    /// A summed server counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn add_counter(&mut self, name: &str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1 += v,
            None => self.counters.push((name.to_string(), v)),
        }
    }
}

/// A started server and its threads; dropping it drains the server and
/// joins every thread it started.
struct Running {
    server: Arc<Server>,
    runner: Option<JoinHandle<std::io::Result<usize>>>,
    workers: Vec<JoinHandle<()>>,
    dir: PathBuf,
}

impl Running {
    /// Binds a server and connects [`CLIENTS`] clients to it before its
    /// acceptor thread starts, so the acceptor's first poll finds them
    /// waiting and the first cold submission never waits out an idle
    /// poll sleep.
    fn start(dir: PathBuf) -> Result<(Running, Vec<Client>), String> {
        let opts = ServeOptions {
            exec: ExecOptions {
                cache_dir: Some(dir.clone()),
                journal: None,
                resume: false,
                ..ExecOptions::default()
            },
            ..ServeOptions::default()
        };
        let server = Arc::new(Server::bind("127.0.0.1:0", opts, None).map_err(|e| e.to_string())?);
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(&addr).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let workers = server.spawn_workers();
        let srv = Arc::clone(&server);
        let runner = std::thread::spawn(move || srv.run());
        Ok((
            Running {
                server,
                runner: Some(runner),
                workers,
                dir,
            },
            clients,
        ))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.server.shutdown_handle().shutdown();
        if let Some(r) = self.runner.take() {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too once the last round's is gone.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn submit_and_wait(client: &mut Client, spec: &RunSpec) -> Result<Reply, String> {
    let resp = client.submit(spec, "bench").map_err(|e| e.to_string())?;
    if !response_ok(&resp) {
        return Err(format!("submit refused: {}", one_line(&resp)));
    }
    let job = response_job(&resp).ok_or("submit response has no job")?;
    let flag = |name: &str| matches!(resp.get(name), Some(Value::Bool(true)));
    let done = client.wait(&job).map_err(|e| e.to_string())?;
    if !response_ok(&done) {
        return Err(format!("wait failed: {}", one_line(&done)));
    }
    let report = done.get("report").cloned().ok_or("no report")?;
    if report.get("completed") != Some(&Value::Bool(true)) {
        return Err(format!("job did not complete: {}", one_line(&report)));
    }
    let measurement = report
        .get("measurement")
        .ok_or("no measurement".to_string())
        .and_then(|m| Measurement::deserialize(m).map_err(|e| e.to_string()))?;
    Ok(Reply {
        job,
        coalesced: flag("coalesced"),
        cached: flag("cached"),
        report,
        measurement,
    })
}

fn one_line(v: &Value) -> String {
    let s = serde_json::to_string(v).unwrap_or_default();
    s.chars().take(200).collect()
}

/// Runs `n` submissions closed-loop over the clients; submission `i`
/// sends `specs[pick(i)]` and its reply is reduced by `keep(i, reply)`
/// on the client thread, outside the timed interval. Returns
/// `(i, latency_ms, kept)` per submission, in submission order.
fn closed_loop<T: Send>(
    clients: &mut [Client],
    specs: &[RunSpec],
    n: usize,
    pick: &(dyn Fn(usize) -> usize + Sync),
    keep: &(dyn Fn(usize, Reply) -> T + Sync),
) -> Vec<(usize, f64, Result<T, String>)> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, out) = (&next, &out);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                let r = submit_and_wait(client, &specs[pick(i)]);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let kept = r.map(|reply| keep(i, reply));
                out.lock()
                    .expect("no client thread panics holding it")
                    .push((i, ms, kept));
            });
        }
    });
    let mut v = out.into_inner().expect("client threads joined");
    v.sort_by_key(|(i, _, _)| *i);
    v
}

/// The measurement's JSON rendering with host time zeroed: two reports
/// of one spec must agree on it exactly. (Compared as JSON, the report
/// format, because a NaN field never equals itself.)
fn simulated(m: &Measurement) -> String {
    let m = Measurement {
        wall_secs: 0.0,
        ..m.clone()
    };
    serde_json::to_string(&m).unwrap_or_default()
}

/// Runs direct `run_specs` references for the mix's distinct specs
/// (`cache: false`, one job at a time). Returns them with the executor
/// overhead: `run_specs` wall minus the runs' own wall times.
pub fn references(mix: &Mix, ledger: &mut Ledger) -> (Vec<Option<Measurement>>, f64) {
    let opts = ExecOptions {
        jobs: 1,
        cache: false,
        journal: None,
        ..ExecOptions::default()
    };
    let t0 = Instant::now();
    let report = photon_bench::run_specs(&mix.specs, &opts);
    let wall = t0.elapsed().as_secs_f64();
    let mut sims = 0.0;
    let refs = report
        .results
        .iter()
        .map(|r| {
            let m = ledger.op(
                &format!("run_specs {}", r.spec.label()),
                r.measurement()
                    .cloned()
                    .ok_or_else(|| format!("{:?}", r.outcome)),
            );
            sims += m.as_ref().map_or(0.0, |m| m.wall_secs);
            m
        })
        .collect();
    (refs, wall - sims)
}

/// How a serve phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Rounds at least: [`run`] runs exactly this many, a timed run
    /// may add more.
    pub min_rounds: usize,
    /// Read the `trace` op for each distinct job.
    pub traced: bool,
}

/// Runs the rounds of `phase`, checking every report against `refs`.
pub fn run(mix: &Mix, refs: &[Option<Measurement>], phase: Phase, ledger: &mut Ledger) -> ServeOut {
    let mut out = ServeOut::default();
    while out.rounds < phase.min_rounds {
        if !round(mix, refs, phase, ledger, &mut out) {
            break;
        }
    }
    out
}

/// Runs one serve round into `out`. Returns false when it failed.
pub fn round(
    mix: &Mix,
    refs: &[Option<Measurement>],
    phase: Phase,
    ledger: &mut Ledger,
    out: &mut ServeOut,
) -> bool {
    let n = out.rounds;
    out.rounds += 1;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("serve-{}-{n}", std::process::id()));
    let t0 = Instant::now();
    let r = one_round(mix, refs, dir, phase, ledger, out);
    out.wall_s += t0.elapsed().as_secs_f64();
    ledger.op(&format!("serve round {n}"), r).is_some()
}

fn one_round(
    mix: &Mix,
    refs: &[Option<Measurement>],
    dir: PathBuf,
    phase: Phase,
    ledger: &mut Ledger,
    out: &mut ServeOut,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let since_us = span::now_us();
    let (running, mut clients) = Running::start(dir)?;

    // Cold phase.
    let order = &mix.order;
    let cold = closed_loop(
        &mut clients,
        &mix.specs,
        order.len(),
        &|i| order[i],
        &|_, r| r,
    );
    out.cold_quiet_ms.resize(order.len(), f64::INFINITY);
    let mut first_reply: Vec<Option<Reply>> = vec![None; mix.specs.len()];
    let mut leader_ms: Vec<Option<f64>> = vec![None; mix.specs.len()];
    for (i, ms, r) in cold {
        let job = order[i];
        let Some(reply) = ledger.op("cold submission", r) else {
            continue;
        };
        out.cold_ms.push(ms);
        out.cold_quiet_ms[i] = out.cold_quiet_ms[i].min(ms);
        if let Some(reference) = &refs[job] {
            ledger.check(
                "fetched report equals direct run_specs",
                simulated(&reply.measurement) == simulated(reference),
                || {
                    format!(
                        "{}: {}",
                        mix.specs[job].label(),
                        first_difference(&reply.measurement, reference)
                    )
                },
            );
        }
        if !reply.coalesced && !reply.cached {
            leader_ms[job] = Some(ms);
        }
        if first_reply[job].is_none() {
            first_reply[job] = Some(reply);
        }
    }

    // Warm phase, in windows.
    let n = mix.specs.len();
    for _ in 0..WARM_WINDOWS {
        let t_warm = Instant::now();
        // Keep only whether each warm report equals its cold one: the
        // reports themselves would pile up.
        let warm = closed_loop(
            &mut clients,
            &mix.specs,
            WARM_PER_WINDOW,
            &|i| i % n,
            &|i, r| {
                first_reply[i % n]
                    .as_ref()
                    .is_some_and(|c| c.report == r.report)
            },
        );
        let warm_s = t_warm.elapsed().as_secs_f64();
        out.warm_wall_s += warm_s;
        out.warm_rate.push(warm.len() as f64 / warm_s.max(1e-9));
        let before = out.warm_ms.len();
        for (i, ms, r) in warm {
            let Some(same) = ledger.op("warm submission", r) else {
                continue;
            };
            out.warm_ms.push(ms);
            ledger.check("warm report equals cold report", same, || {
                format!("{} differs", mix.specs[i % n].label())
            });
        }
        let window = &out.warm_ms[before..];
        out.warm_p50_ms.push(median(window));
        out.warm_p99_ms.push(percentile(window, 0.99));
    }

    if phase.traced {
        for (reply, leader) in first_reply.iter().zip(&leader_ms) {
            let Some(reply) = reply else { continue };
            let phases = round_phases(&mut clients[0], &reply.job, since_us)?;
            for (kind, ms) in &phases {
                out.phases.push((kind.name().to_string(), *ms));
            }
            let root = phases.iter().find(|(k, _)| *k == SpanKind::Job);
            if let (Some(ms), Some((_, job_ms))) = (leader, root) {
                out.client_overhead_ms.push(ms - job_ms);
            }
        }
    }

    let stats = clients[0].stats().map_err(|e| e.to_string())?;
    for name in [
        "serve.submitted",
        "serve.cache_hits",
        "serve.coalesced",
        "serve.sim_runs",
        "serve.rejected",
        "serve.completed",
        "serve.failed",
    ] {
        out.add_counter(name, stats_counter(&stats, name));
    }
    let refcache = stats.get("refcache");
    let mem = refcache.and_then(|r| r.get("memory"));
    let num = |v: Option<&Value>| crate::report::number(v) as u64;
    out.add_counter(
        "refcache.hits",
        num(mem.and_then(|m| m.get("hits"))) + num(refcache.and_then(|r| r.get("disk_hits"))),
    );
    out.add_counter("refcache.misses", num(mem.and_then(|m| m.get("misses"))));
    if first_reply.iter().any(Option::is_none) {
        return Err("a distinct job produced no report".to_string());
    }
    drop(clients);
    drop(running);
    Ok(())
}

/// A served job's host time per span kind (ms), from the `trace` op,
/// counting only spans opened since `since_us`: job ids are spec
/// hashes, so an earlier round or a direct `run_specs` of the same spec
/// shares the id.
fn round_phases(
    client: &mut Client,
    job: &str,
    since_us: u64,
) -> Result<Vec<(SpanKind, f64)>, String> {
    let t = client.trace(job).map_err(|e| e.to_string())?;
    let Some(Value::Array(spans)) = t.get("spans") else {
        return Err(format!("trace of {job} has no spans"));
    };
    let mut phases: Vec<(SpanKind, f64)> = Vec::new();
    for v in spans {
        let r = SpanRecord::deserialize(v).map_err(|e| e.to_string())?;
        if r.start_us < since_us {
            continue;
        }
        let ms = r.dur_us as f64 / 1e3;
        match phases.iter_mut().find(|(k, _)| *k == r.kind) {
            Some(p) => p.1 += ms,
            None => phases.push((r.kind, ms)),
        }
    }
    Ok(phases)
}

/// Where two measurements' JSON renderings first differ (host time
/// aside), for failure messages.
fn first_difference(a: &Measurement, b: &Measurement) -> String {
    let (a, b) = (simulated(a), simulated(b));
    let at = a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count();
    let from = at.saturating_sub(60);
    let part = |s: &str| s.chars().skip(from).take(120).collect::<String>();
    format!("served …{}… vs direct …{}…", part(&a), part(&b))
}
