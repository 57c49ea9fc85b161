//! Direct simulation cells: one workload's application run Full and
//! then Photon on a fresh [`GpuSimulator`] each, untraced for the
//! end-to-end figures and through the [`crate::wrap`] decorators (under
//! a span context, so the epoch engine's aggregate spans are recorded)
//! for the per-layer split.

use crate::report::Ledger;
use crate::wrap::{CtrlTimes, Timed};
use gpu_isa::KernelLimits;
use gpu_mem::MemStats;
use gpu_sim::{AppResult, GpuSimulator, NullController, SamplingController, SimError};
use gpu_telemetry::span::{self, SpanKind};
use gpu_telemetry::MetricsSnapshot;
use gpu_workloads::App;
use photon::{Levels, PhotonConfig, PhotonController};
use photon_bench::{Method, RunSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The Photon thresholds of every sampled run: paper defaults with the
/// warp window the repository's scaled experiments use.
pub fn photon_config() -> PhotonConfig {
    let mut cfg = PhotonConfig::with_levels(Levels::all());
    cfg.warp_window = 512;
    cfg
}

/// One measured run of one spec.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Host seconds to build and validate the application.
    pub setup_s: f64,
    /// Kernel launches of the application.
    pub launches: usize,
    /// Host seconds running the application's kernels.
    pub wall_s: f64,
    /// Host seconds per kernel launch, in launch order (they sum to
    /// about `wall_s`).
    pub kernel_s: Vec<f64>,
    /// Simulated cycles per kernel.
    pub kernel_cycles: Vec<u64>,
    /// Detailed instructions.
    pub detailed: u64,
    /// Functional-only instructions.
    pub functional: u64,
    /// Warps whose duration was predicted.
    pub predicted_warps: u64,
    /// Warps launched.
    pub total_warps: u64,
    /// Kernels skipped by kernel sampling.
    pub skipped: u64,
    /// Memory-hierarchy counters accumulated over the run.
    pub mem: MemStats,
    /// The simulator's registry after the run.
    pub snapshot: MetricsSnapshot,
    /// Controller host time (timed runs only).
    pub times: Option<CtrlTimes>,
    /// Host seconds in epoch-barrier serial sections (timed epoch runs).
    pub barrier_s: f64,
    /// Host seconds servicing memory-port traffic (timed epoch runs).
    pub mem_service_s: f64,
}

impl Cell {
    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.kernel_cycles.iter().sum()
    }

    /// A counter of the run's registry (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.snapshot.counter(name).unwrap_or(0)
    }

    /// Detailed instructions per host second, in millions.
    pub fn minsts_per_s(&self) -> f64 {
        self.detailed as f64 / self.wall_s.max(1e-9) / 1e6
    }

    /// Everything simulated, with host time left out: two runs of the
    /// same spec must agree on this exactly.
    pub fn simulated(&self) -> String {
        format!(
            "cycles={:?} detailed={} functional={} predicted={} skipped={} mem={:?}",
            self.kernel_cycles,
            self.detailed,
            self.functional,
            self.predicted_warps,
            self.skipped,
            self.mem
        )
    }

    /// The engine's `sim.*` and `mem.*` counters (what the deterministic
    /// engine must reproduce at any thread count).
    pub fn sim_counters(&self) -> Vec<(String, u64)> {
        let mut v = self.snapshot.counters_with_prefix("sim.");
        v.extend(self.snapshot.counters_with_prefix("mem."));
        v
    }
}

/// Span job ids for timed runs, distinct from serve job ids (which are
/// spec hashes) by living in a range of their own.
static NEXT_JOB: AtomicU64 = AtomicU64::new(0x7068_6f74_0000_0000);

/// Builds the spec's application on a fresh simulator and validates
/// every launch: everything before the first simulated instruction.
/// Returns both with the host seconds it took.
///
/// # Errors
/// Returns the first launch-validation error.
fn build(spec: &RunSpec) -> Result<(GpuSimulator, App, f64), String> {
    let t0 = Instant::now();
    let mut gpu = GpuSimulator::new(spec.gpu.clone());
    let app = spec.workload.build(&mut gpu, spec.seed);
    for l in app.launches() {
        gpu_isa::validate_launch(&l.launch, &KernelLimits::default())
            .map_err(|e| format!("{}: {e}", l.layer))?;
    }
    Ok((gpu, app, t0.elapsed().as_secs_f64()))
}

/// [`build`] alone: host seconds and launch count.
///
/// # Errors
/// Returns the first launch-validation error.
pub fn setup_once(spec: &RunSpec) -> Result<(f64, usize), String> {
    let (_, app, secs) = build(spec)?;
    Ok((secs, app.launches().len()))
}

/// Runs `spec` once. With `timed`, the controller is wrapped in
/// [`Timed`] and the run happens inside a span context so the epoch
/// engine reports its barrier and memory-service host time.
///
/// # Errors
/// Returns simulator errors and cycle-accounting imbalances.
pub fn run_cell(spec: &RunSpec, timed: bool) -> Result<Cell, String> {
    let (mut gpu, app, setup_s) = build(spec)?;
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    let ctx = timed.then(|| span::start_job(job, &spec.label()));
    let scope = ctx.map(span::enter);

    let num_cus = u64::from(spec.gpu.num_cus);
    let photon = || {
        let mut cfg = spec.photon.clone();
        if let Method::Photon(levels) = spec.method {
            cfg.levels = levels;
        }
        PhotonController::new(cfg, num_cus)
    };
    let t0 = Instant::now();
    let ((result, kernel_s), times) = match (&spec.method, timed) {
        (Method::Full, false) => (run_app(&app, &mut gpu, &mut NullController), None),
        (Method::Full, true) => timed_run(&app, &mut gpu, Timed::new(NullController)),
        (Method::Photon(_), false) => (run_app(&app, &mut gpu, &mut photon()), None),
        (Method::Photon(_), true) => timed_run(&app, &mut gpu, Timed::new(photon())),
        (other, _) => return Err(format!("unsupported method {}", other.name())),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(scope);

    let (mut barrier_s, mut mem_service_s) = (0.0, 0.0);
    if let Some(ctx) = ctx {
        span::close(ctx.span, result.is_ok(), "");
        for r in span::job_records(job) {
            match r.kind {
                SpanKind::EpochBarrier => barrier_s += r.dur_us as f64 / 1e6,
                SpanKind::MemService => mem_service_s += r.dur_us as f64 / 1e6,
                _ => {}
            }
        }
    }
    let result = result.map_err(|e| format!("{}: {e}", spec.label()))?;
    for k in &result.kernels {
        if let Some(acc) = &k.accounting {
            acc.check().map_err(|e| {
                format!("{} kernel {}: cycle accounting: {e}", spec.label(), k.name)
            })?;
        }
    }
    Ok(Cell {
        setup_s,
        launches: app.launches().len(),
        wall_s,
        kernel_s,
        kernel_cycles: result.kernels.iter().map(|k| k.cycles).collect(),
        detailed: result.total_detailed_insts(),
        functional: result.total_functional_insts(),
        predicted_warps: result.total_predicted_warps(),
        total_warps: result.total_warps(),
        skipped: result.skipped_kernels() as u64,
        mem: gpu.mem_stats(),
        snapshot: gpu.telemetry().snapshot(),
        times,
        barrier_s,
        mem_service_s,
    })
}

/// What [`run_app`] returns: the application's result and the host
/// seconds of each kernel launch.
type AppRun = (Result<AppResult, SimError>, Vec<f64>);

/// `App::run`, timing each kernel launch.
fn run_app(app: &App, gpu: &mut GpuSimulator, ctrl: &mut dyn SamplingController) -> AppRun {
    let mut result = AppResult::default();
    let mut kernel_s = Vec::with_capacity(app.launches().len());
    for l in app.launches() {
        let t0 = Instant::now();
        let k = gpu.run_kernel_sampled(&l.launch, ctrl);
        kernel_s.push(t0.elapsed().as_secs_f64());
        match k {
            Ok(k) => result.kernels.push(k),
            Err(e) => return (Err(e), kernel_s),
        }
    }
    (Ok(result), kernel_s)
}

fn timed_run<C: SamplingController>(
    app: &App,
    gpu: &mut GpuSimulator,
    mut ctrl: Timed<C>,
) -> (AppRun, Option<CtrlTimes>) {
    let r = run_app(app, gpu, &mut ctrl);
    (r, Some(ctrl.times))
}

/// The host seconds of one run of `cells`' spec on a quiet host: the
/// sum over kernel launches of each launch's fastest repetition.
///
/// Contention from other tenants of a shared host only ever slows a
/// piece of work, and it comes and goes within a fraction of a second,
/// so no repetition of a whole multi-kernel run may be quiet throughout
/// while each single launch is quiet in some repetition.
pub fn quiet_wall(cells: &[Cell]) -> f64 {
    let launches = cells.first().map_or(0, |c| c.kernel_s.len());
    (0..launches)
        .map(|k| {
            cells
                .iter()
                .filter_map(|c| c.kernel_s.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Runs the Full/Photon pair once more, appending to `fulls` and
/// `photons` and checking that each run simulates exactly what the
/// first of its kind did. Returns false when a run failed.
pub fn pair(
    full: &RunSpec,
    photon: &RunSpec,
    fulls: &mut Vec<Cell>,
    photons: &mut Vec<Cell>,
    ledger: &mut Ledger,
) -> bool {
    for (spec, cells) in [(full, fulls), (photon, photons)] {
        let Some(c) = ledger.op(&spec.label(), run_cell(spec, false)) else {
            return false;
        };
        if let Some(first) = cells.first() {
            ledger.check(
                &format!("{} repeats exactly", spec.label()),
                first.simulated() == c.simulated(),
                || format!("{} vs {}", first.simulated(), c.simulated()),
            );
        }
        cells.push(c);
    }
    true
}

/// Photon's accuracy against Full, in percent: `100 (1 - |P - F| / F)`
/// over simulated cycles.
pub fn accuracy_pct(full_cycles: u64, photon_cycles: u64) -> f64 {
    let f = full_cycles.max(1) as f64;
    100.0 * (1.0 - (f - photon_cycles as f64).abs() / f)
}
