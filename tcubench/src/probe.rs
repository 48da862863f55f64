//! Benchmark-side instrumentation for the traced run. Nothing here adds
//! a span inside the library: [`Timed`] wraps an executor from the
//! outside and forwards every call, [`SpanTotals`] is a
//! `tcu_obs::Recorder` handed to the library's public `enable_recorder`
//! hooks, and [`peak_gflops`] calibrates the host in the same process.
//! [`Reference`] is the untraced run's yardstick for host speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcu_core::exec::{OperandId, PackCacheStats};
use tcu_core::{Executor, TensorOp};
use tcu_linalg::{MatrixView, MatrixViewMut, Scalar};
use tcu_obs::{EventKind, Lane, Recorder, SpanEvent};

/// Units a probe keeps separate clocks for (the workloads use ≤ 2).
pub const MAX_UNITS: usize = 8;

#[derive(Debug, Default)]
struct UnitClock {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    madds: AtomicU64,
    rows: AtomicU64,
}

/// Per-unit executor counters shared by every clone of a [`Timed`]
/// executor. Counters are statistics only, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Probe {
    units: [UnitClock; MAX_UNITS],
}

/// A snapshot of a [`Probe`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecTotals {
    /// Executor calls that ran numerics.
    pub calls: u64,
    /// Scalar multiply-adds (the executor's native cost).
    pub madds: u64,
    /// Left-operand rows streamed.
    pub rows: u64,
    /// Wall time inside executor calls, per unit.
    pub unit_busy_ns: [u64; MAX_UNITS],
}

impl ExecTotals {
    /// Busy time summed over units.
    pub fn busy_ns(&self) -> u64 {
        self.unit_busy_ns.iter().sum()
    }

    /// Busy time of the busiest unit.
    pub fn max_unit_busy_ns(&self) -> u64 {
        self.unit_busy_ns.iter().copied().max().unwrap_or(0)
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut unit_busy_ns = self.unit_busy_ns;
        for (b, b0) in unit_busy_ns.iter_mut().zip(earlier.unit_busy_ns) {
            *b -= b0;
        }
        Self {
            calls: self.calls - earlier.calls,
            madds: self.madds - earlier.madds,
            rows: self.rows - earlier.rows,
            unit_busy_ns,
        }
    }
}

impl Probe {
    fn add(&self, unit: usize, op: &TensorOp, took: Duration, madds: u64) {
        let c = &self.units[unit.min(MAX_UNITS - 1)];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.busy_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        c.madds.fetch_add(madds, Ordering::Relaxed);
        c.rows.fetch_add(op.rows as u64, Ordering::Relaxed);
    }

    /// Counters since the probe was created.
    pub fn totals(&self) -> ExecTotals {
        let mut t = ExecTotals::default();
        for (c, busy) in self.units.iter().zip(&mut t.unit_busy_ns) {
            *busy = c.busy_ns.load(Ordering::Relaxed);
            t.calls += c.calls.load(Ordering::Relaxed);
            t.madds += c.madds.load(Ordering::Relaxed);
            t.rows += c.rows.load(Ordering::Relaxed);
        }
        t
    }
}

/// An executor that forwards every call to `inner` and adds its wall
/// time to the calling unit's clock. The unit id arrives through
/// [`Executor::attach_recorder`], which the machines call per unit when
/// a recorder is enabled; until then calls count as unit 0.
#[derive(Clone, Debug)]
pub struct Timed<E> {
    inner: E,
    probe: Arc<Probe>,
    unit: usize,
}

impl<E> Timed<E> {
    pub fn new(inner: E, probe: Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            unit: 0,
        }
    }
}

impl<E: Executor> Executor for Timed<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let t0 = Instant::now();
        let cost = self.inner.execute(op, a, b, out);
        self.probe.add(self.unit, op, t0.elapsed(), cost);
        cost
    }

    fn execute_tagged<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        a_id: Option<OperandId>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let t0 = Instant::now();
        let cost = self.inner.execute_tagged(op, a, a_id, b, out);
        self.probe.add(self.unit, op, t0.elapsed(), cost);
        cost
    }

    fn cache_stats(&self) -> Option<PackCacheStats> {
        self.inner.cache_stats()
    }

    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>, unit: u32) {
        self.unit = unit as usize;
        self.inner.attach_recorder(recorder, unit);
    }
}

/// A recorder that keeps running totals of the spans the run drivers
/// already emit, instead of buffering them.
#[derive(Debug)]
pub struct SpanTotals {
    origin: Instant,
    stage_ns: AtomicU64,
    merge_ns: AtomicU64,
}

/// A snapshot of [`SpanTotals`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    pub stage_ns: u64,
    pub merge_ns: u64,
}

impl SpanTotals {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            stage_ns: AtomicU64::new(0),
            merge_ns: AtomicU64::new(0),
        }
    }

    pub fn totals(&self) -> Spans {
        Spans {
            stage_ns: self.stage_ns.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
        }
    }
}

impl Recorder for SpanTotals {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, _lane: Lane, ev: SpanEvent) {
        match ev.kind {
            EventKind::Stage { .. } => self.stage_ns.fetch_add(ev.dur_ns, Ordering::Relaxed),
            EventKind::Merge { .. } => self.merge_ns.fetch_add(ev.dur_ns, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// A fixed single-thread kernel an untraced run times between every two
/// solves: a 256×256 `f64` matrix product (i-k-j loops, 1.5 MiB of
/// operands). On a shared host the co-tenants that slow a solve slow
/// this kernel too — on the 2-core guest of `README.md` both ran up to
/// 1.5× slower for seconds at a time, while an FMA loop kept its speed —
/// so a solve's time over the kernel's time around it follows the
/// program more than the host. The kernel is the benchmark's own code:
/// no change to the library moves it.
pub struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        let n = Self::N;
        let a = (0..n * n).map(|k| (k % 7) as f64 * 0.25).collect();
        let b = (0..n * n).map(|k| (k % 5) as f64 * 0.5).collect();
        Self {
            a,
            b,
            c: vec![0.0; n * n],
        }
    }
}

impl Reference {
    const N: usize = 256;

    /// Run the kernel once; its wall time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let n = Self::N;
        let t0 = Instant::now();
        self.c.fill(0.0);
        for i in 0..n {
            let row = &mut self.c[i * n..(i + 1) * n];
            for k in 0..n {
                let aik = self.a[i * n + k];
                for (c, &b) in row.iter_mut().zip(&self.b[k * n..(k + 1) * n]) {
                    *c += aik * b;
                }
            }
        }
        std::hint::black_box(&self.c);
        ms(t0.elapsed())
    }
}

/// Single-thread double-precision FMA throughput of this host, in
/// GFLOP/s (2 flops per fused multiply-add): the best of several short
/// timed loops over enough independent accumulators to fill the FMA
/// pipelines.
pub fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const STEPS: usize = 1 << 16;
    let x = std::hint::black_box(0.999_999_9_f64);
    let y = std::hint::black_box(1e-9_f64);
    let mut best = 0.0f64;
    for _ in 0..8 {
        let mut acc = [1.0f64; LANES];
        let t0 = Instant::now();
        for _ in 0..STEPS {
            for a in &mut acc {
                *a = a.mul_add(x, y);
            }
        }
        let ns = t0.elapsed().as_nanos().max(1) as f64;
        std::hint::black_box(&acc);
        best = best.max(2.0 * (LANES * STEPS) as f64 / ns);
    }
    best
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run's per-solve collector: the executor probe, the span
/// totals, and the per-layer values of the solve in progress.
#[derive(Debug)]
pub struct Tracer {
    pub probe: Arc<Probe>,
    spans: Arc<SpanTotals>,
    at_begin: (ExecTotals, Spans, tcu_algos::plan_memo::PlanCacheStats),
    vals: std::collections::BTreeMap<String, f64>,
}

/// Machine-side counters a traced solve hands to [`Tracer::end`].
#[derive(Clone, Debug, Default)]
pub struct MachineCounters {
    pub stats: tcu_core::Stats,
    pub pack: Option<PackCacheStats>,
    pub faults: tcu_core::FaultStats,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            probe: Arc::new(Probe::default()),
            spans: Arc::new(SpanTotals::new()),
            at_begin: Default::default(),
            vals: Default::default(),
        }
    }

    /// The recorder to attach to a traced solve's machine.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.spans) as Arc<dyn Recorder>
    }

    pub fn set(&mut self, key: &str, v: f64) {
        self.vals.insert(key.to_string(), v);
    }

    /// Start a solve: snapshot every running total.
    pub fn begin(&mut self) {
        self.vals.clear();
        self.at_begin = (
            self.probe.totals(),
            self.spans.totals(),
            tcu_algos::plan_memo::plan_cache_stats(),
        );
    }

    /// Run `f` as algorithm `name`: its wall time and the share of it
    /// spent inside the executor.
    pub fn algo<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let busy0 = self.probe.totals().busy_ns();
        let t0 = Instant::now();
        let r = f();
        let wall = t0.elapsed();
        let busy = self.probe.totals().busy_ns() - busy0;
        self.set(&format!("algos.{name}.ms"), ms(wall));
        self.set(
            &format!("algos.{name}.exec_share"),
            busy as f64 / wall.as_nanos().max(1) as f64,
        );
        r
    }

    /// Finish a solve: the deltas since [`Self::begin`] plus the
    /// machine's own counters. Returns the solve's per-layer values and
    /// the executor calls it made.
    pub fn end(&mut self, m: &MachineCounters) -> (std::collections::BTreeMap<String, f64>, u64) {
        let (e0, s0, memo0) = self.at_begin;
        let e = self.probe.totals().since(&e0);
        let s = self.spans.totals();
        let memo = tcu_algos::plan_memo::plan_cache_stats();
        let (busy, calls, madds, rows) = (e.busy_ns(), e.calls, e.madds, e.rows);
        let vals = [
            ("exec.busy_ms", busy as f64 / 1e6),
            ("exec.calls", calls as f64),
            ("exec.gflops", 2.0 * madds as f64 / busy.max(1) as f64),
            ("exec.ns_per_row", busy as f64 / rows.max(1) as f64),
            ("sched.stage_ms", (s.stage_ns - s0.stage_ns) as f64 / 1e6),
            ("sched.merge_ms", (s.merge_ns - s0.merge_ns) as f64 / 1e6),
            ("memo.hits", (memo.hits - memo0.hits) as f64),
            ("memo.misses", (memo.misses - memo0.misses) as f64),
            ("memo.plan_ms", (memo.plan_ns - memo0.plan_ns) as f64 / 1e6),
            ("machine.sim_rows", m.stats.tensor_rows as f64),
            ("machine.tensor_calls", m.stats.tensor_calls as f64),
            (
                "fault.injected",
                (m.faults.transient_faults + m.faults.permanent_faults) as f64,
            ),
            ("fault.retries", m.faults.retries as f64),
            ("fault.quarantines", m.faults.quarantined_units as f64),
            (
                "fault.recovery_sim",
                (m.faults.backoff_time + m.faults.recovery_makespan) as f64,
            ),
        ];
        for (k, v) in vals {
            self.set(k, v);
        }
        if let Some(p) = m.pack {
            self.set("pack.hit_ratio", p.hits as f64 / p.lookups.max(1) as f64);
            self.set("pack.packed_mb", p.packed_bytes as f64 / 1e6);
        }
        (std::mem::take(&mut self.vals), calls)
    }
}
