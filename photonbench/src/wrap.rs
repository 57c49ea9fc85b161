//! Observation-only timing decorators for the engine's controller hook
//! surface. [`Timed`] wraps any [`SamplingController`] and forwards
//! every call unchanged while accumulating host time per hook;
//! [`TimedAccess`] does the same for the [`KernelStartAccess`] a
//! controller receives at kernel start, so functional tracing of sample
//! warps is timed apart from the rest of the online analysis.
//!
//! Only host wall time is read, never fed back: a wrapped run simulates
//! exactly what an unwrapped one does (see the tests below).

use gpu_isa::{InstClass, KernelLaunch};
use gpu_sim::{
    BbRecord, Cycle, KernelDirective, KernelResult, KernelStartAccess, SamplingController,
    SimError, WarpRecord, WarpTrace, WgMode,
};
use std::time::{Duration, Instant};

/// Host time a controller spent, split by hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct CtrlTimes {
    /// `on_kernel_start` total, including `trace`.
    pub kernel_start: Duration,
    /// Functional tracing of sample warps inside `on_kernel_start`.
    pub trace: Duration,
    /// Instructions those traces executed.
    pub trace_insts: u64,
    /// Every other hook (per-event callbacks and polls).
    pub callbacks: Duration,
    /// Calls into those other hooks.
    pub callback_calls: u64,
}

impl CtrlTimes {
    /// Online analysis excluding functional tracing.
    pub fn analysis(&self) -> Duration {
        self.kernel_start.saturating_sub(self.trace)
    }

    /// Everything the controller cost, tracing included.
    pub fn total(&self) -> Duration {
        self.kernel_start + self.callbacks
    }
}

/// A controller decorator that times every hook.
#[derive(Debug, Default)]
pub struct Timed<C> {
    /// The wrapped controller.
    pub inner: C,
    /// Accumulated host time.
    pub times: CtrlTimes,
}

impl<C> Timed<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        Timed {
            inner,
            times: CtrlTimes::default(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut C) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.times.callbacks += t0.elapsed();
        self.times.callback_calls += 1;
        r
    }
}

impl<C: SamplingController> SamplingController for Timed<C> {
    fn attach_telemetry(&mut self, telemetry: &gpu_telemetry::Telemetry) {
        self.timed(|c| c.attach_telemetry(telemetry));
    }

    fn on_kernel_start(&mut self, ctx: &mut dyn KernelStartAccess) -> KernelDirective {
        let t0 = Instant::now();
        let mut access = TimedAccess::new(ctx);
        let directive = self.inner.on_kernel_start(&mut access);
        self.times.kernel_start += t0.elapsed();
        self.times.trace += access.elapsed;
        self.times.trace_insts += access.insts;
        directive
    }

    fn dispatch_mode(&mut self) -> WgMode {
        self.timed(|c| c.dispatch_mode())
    }

    fn on_bb_record(&mut self, rec: &BbRecord) {
        self.timed(|c| c.on_bb_record(rec));
    }

    fn on_warp_retire(&mut self, rec: &WarpRecord) {
        self.timed(|c| c.on_warp_retire(rec));
    }

    fn on_inst_retire(&mut self, class: InstClass, latency: Cycle) {
        self.timed(|c| c.on_inst_retire(class, latency));
    }

    fn on_ipc_window(&mut self, start: Cycle, insts: u64, window: Cycle) {
        self.timed(|c| c.on_ipc_window(start, insts, window));
    }

    fn check_abort(&mut self) -> Option<f64> {
        self.timed(|c| c.check_abort())
    }

    fn predict_warp_bb(&mut self, trace: &WarpTrace) -> Cycle {
        self.timed(|c| c.predict_warp_bb(trace))
    }

    fn predict_warp_avg(&mut self) -> Cycle {
        self.timed(|c| c.predict_warp_avg())
    }

    fn on_kernel_end(&mut self, result: &KernelResult) {
        self.timed(|c| c.on_kernel_end(result));
    }

    fn bb_predictions(&mut self) -> Vec<(u32, f64)> {
        self.timed(|c| c.bb_predictions())
    }
}

/// A [`KernelStartAccess`] decorator timing `trace_warp`.
pub struct TimedAccess<'a> {
    inner: &'a mut dyn KernelStartAccess,
    /// Host time inside `trace_warp`.
    pub elapsed: Duration,
    /// Instructions the traced warps executed.
    pub insts: u64,
}

impl<'a> TimedAccess<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn KernelStartAccess) -> Self {
        TimedAccess {
            inner,
            elapsed: Duration::ZERO,
            insts: 0,
        }
    }
}

impl KernelStartAccess for TimedAccess<'_> {
    fn launch(&self) -> &KernelLaunch {
        self.inner.launch()
    }

    fn total_warps(&self) -> u64 {
        self.inner.total_warps()
    }

    fn clock(&self) -> Cycle {
        self.inner.clock()
    }

    fn trace_warp(&mut self, global_warp: u64) -> Result<WarpTrace, SimError> {
        let t0 = Instant::now();
        let trace = self.inner.trace_warp(global_warp);
        self.elapsed += t0.elapsed();
        if let Ok(t) = &trace {
            self.insts += t.insts;
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{AppResult, GpuConfig, GpuSimulator, NullController};
    use gpu_workloads::registry::Benchmark;
    use photon::{Levels, PhotonConfig, PhotonController};

    fn run(bench: Benchmark, ctrl: &mut dyn SamplingController) -> (AppResult, gpu_mem::MemStats) {
        let cfg = GpuConfig::tiny();
        let mut gpu = GpuSimulator::new(cfg);
        let app = bench.build(&mut gpu, 256, 3);
        let result = app.run(&mut gpu, ctrl).expect("tiny run");
        (result, gpu.mem_stats())
    }

    fn photon() -> PhotonController {
        let cfg = PhotonConfig::with_levels(Levels::all()).small_windows(32, 16);
        PhotonController::new(cfg, GpuConfig::tiny().num_cus as u64)
    }

    fn assert_same(a: &(AppResult, gpu_mem::MemStats), b: &(AppResult, gpu_mem::MemStats)) {
        assert_eq!(a.0.total_cycles(), b.0.total_cycles());
        assert_eq!(a.0.total_detailed_insts(), b.0.total_detailed_insts());
        assert_eq!(a.0.total_functional_insts(), b.0.total_functional_insts());
        assert_eq!(a.0.total_predicted_warps(), b.0.total_predicted_warps());
        assert_eq!(a.1, b.1);
        for k in &b.0.kernels {
            if let Some(acc) = &k.accounting {
                acc.check().expect("cycle accounting balances");
            }
        }
    }

    #[test]
    fn wrapped_full_run_is_identical() {
        for bench in [Benchmark::Fir, Benchmark::Spmv] {
            let plain = run(bench, &mut NullController);
            let mut timed = Timed::new(NullController);
            let wrapped = run(bench, &mut timed);
            assert_same(&plain, &wrapped);
            assert!(timed.times.callback_calls > 0);
            assert_eq!(timed.times.trace_insts, 0);
        }
    }

    #[test]
    fn wrapped_photon_run_is_identical() {
        for bench in [Benchmark::Fir, Benchmark::Spmv] {
            let plain = run(bench, &mut photon());
            let mut timed = Timed::new(photon());
            let wrapped = run(bench, &mut timed);
            assert_same(&plain, &wrapped);
            // Online analysis traces sample warps through the access
            // decorator; those instructions are the run's functional ones
            // unless sampled workgroups fast-forward more.
            assert!(timed.times.trace_insts > 0);
            assert!(timed.times.trace_insts <= wrapped.0.total_functional_insts());
            assert!(timed.times.trace <= timed.times.kernel_start);
        }
    }
}
