//! # tcu-bench — experiment harness for the TCU reproduction
//!
//! Shared plumbing for the `exp_*` binaries (one per paper claim — see
//! the [`experiments`] module index and the README's workspace table):
//! aligned table rendering, log-log slope fitting (the scaling-exponent
//! check every theorem-validation experiment performs), and
//! geometric-mean ratio summaries.
//!
//! Every binary prints its table to stdout. All workloads are seeded,
//! so reruns reproduce the tables bit-for-bit; the committed wall-clock
//! baselines are `BENCH_matmul.json` and `BENCH_sched.json` (README,
//! "Compiled execution plans" and "Parallel execution").

pub mod experiments;

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by [`experiment_main`] when `--stats` (or `TCU_STATS=1`) asks
/// for per-machine summaries; read by [`report_stats`].
static STATS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Shared CLI entry point for every experiment binary: parses the flags
/// the harness supports (`--quick`, the reduced smoke-test sweep;
/// `--stats`, per-machine [`tcu_core::StatsSummary`] lines) and invokes
/// the experiment. The `exp_*` binaries and `run_all` are one-line
/// wrappers over this, so flag handling and any future harness plumbing
/// live in exactly one place.
pub fn experiment_main(run: fn(bool)) {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--stats") || std::env::var_os("TCU_STATS").is_some() {
        STATS_ENABLED.store(true, Ordering::Relaxed);
    }
    run(quick);
}

/// `true` when the harness was asked for per-machine stats summaries.
#[must_use]
pub fn stats_enabled() -> bool {
    STATS_ENABLED.load(Ordering::Relaxed)
}

/// Print `mach`'s [`tcu_core::StatsSummary`] under `label` when the
/// binary ran with `--stats` (or `TCU_STATS=1`); no-op otherwise.
/// Experiments call this after each workload, which is how scheduler
/// wins (fewer invocations, fewer charged rows) become visible in any
/// `exp_*` table without changing the tables themselves.
pub fn report_stats<U: tcu_core::TensorUnit, E: tcu_core::Executor>(
    label: &str,
    mach: &tcu_core::TcuMachine<U, E>,
) {
    if stats_enabled() {
        println!("[stats] {label}: {}", mach.stats_summary());
        if let Some(t) = mach.trace_log() {
            println!("[stats] {label}: {}", t.summary());
        }
    }
}

/// [`report_stats`] for a [`tcu_core::ParallelTcuMachine`]: the summed
/// per-unit [`tcu_core::StatsSummary`], the machine's
/// [`tcu_core::FaultStats`] when any recovery happened, and the trace
/// summary when tracing is on — so pack-cache and fault lines print in
/// one uniform format for every experiment case.
pub fn report_parallel_stats<U: tcu_core::TensorUnit, E: tcu_core::Executor>(
    label: &str,
    mach: &tcu_core::ParallelTcuMachine<U, E>,
) {
    if stats_enabled() {
        println!("[stats] {label}: {}", mach.stats_summary());
        if mach.fault_stats().any() {
            println!("[stats] {label}: {}", mach.fault_stats());
        }
        if let Some(t) = mach.trace_log() {
            println!("[stats] {label}: {}", t.summary());
        }
    }
}

/// Best-of-3-runs wall-clock of `f` in ns per call, after one warmup
/// call (the minimum filters scheduler noise on shared machines). The
/// one timing methodology every wall-clock bench bin uses, so a change
/// here changes them all consistently.
pub fn time_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    std::hint::black_box(f());
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(reps));
    }
    best
}

/// Paired wall-clock of two rivals in ns per call, for cases whose
/// *ratio* is the reported number (eager vs scheduled). Rounds
/// interleave the rivals — `a b`, `b a`, `a b`, … — so a
/// frequency-drift or noisy-neighbour episode lands on both sides
/// instead of whichever rival happened to own that window (which is
/// what makes a ratio of two separate [`time_ns`] calls swing ±10% on
/// shared machines), and the slot *order* flips each round because an
/// identical-workload A/B on this class of box shows the first slot of
/// a pair measuring 1–3% slower than the second. Each side reports its
/// best round, like [`time_ns`].
pub fn time_pair_ns<RA, RB>(
    reps: u32,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> (f64, f64) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    std::hint::black_box(a());
    std::hint::black_box(b());
    let mut time_a = |best: &mut f64| {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(a());
        }
        *best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(reps));
    };
    let mut time_b = |best: &mut f64| {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(b());
        }
        *best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(reps));
    };
    for round in 0..6 {
        if round % 2 == 0 {
            time_a(&mut best_a);
            time_b(&mut best_b);
        } else {
            time_b(&mut best_b);
            time_a(&mut best_a);
        }
    }
    (best_a, best_b)
}

/// A printable experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title line and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Least-squares fit of `ln y = slope·ln x + intercept`; returns
/// `(slope, r²)`. The slope is the empirical scaling exponent compared
/// against each theorem's predicted exponent.
///
/// # Panics
/// Panics unless `xs` and `ys` have equal length ≥ 2 and positive values.
#[must_use]
pub fn fit_loglog(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points to fit");
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "log-log fit needs positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|&x| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    // r².
    let syy: f64 = ly.iter().map(|&y| (y - my) * (y - my)).sum();
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, r2)
}

/// Geometric mean of `measured/predicted` ratios — the "fitted constant"
/// reported next to each theorem's closed form.
///
/// # Panics
/// Panics on empty or non-positive input.
#[must_use]
pub fn geomean_ratio(measured: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(measured.len(), predicted.len());
    assert!(!measured.is_empty());
    let s: f64 = measured
        .iter()
        .zip(predicted)
        .map(|(&m, &p)| {
            assert!(m > 0.0 && p > 0.0, "ratios need positive data");
            (m / p).ln()
        })
        .sum();
    (s / measured.len() as f64).exp()
}

/// Format a `u64` with thin thousands separators for readability.
#[must_use]
pub fn fmt_u64(x: u64) -> String {
    let raw = x.to_string();
    let mut out = String::with_capacity(raw.len() + raw.len() / 3);
    for (i, ch) in raw.chars().enumerate() {
        if i > 0 && (raw.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(ch);
    }
    out
}

/// Shorthand for `f64` cells with fixed precision.
#[must_use]
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "time"]);
        t.row(vec!["8".into(), "100".into()]);
        t.row(vec!["1024".into(), "9".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("   n"));
        // All data lines equal length.
        let lines: Vec<&str> = r.lines().skip(1).collect();
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn loglog_fit_recovers_exponent() {
        let xs: Vec<f64> = (1..=6).map(|i| (1 << i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x.powf(1.5)).collect();
        let (slope, r2) = fit_loglog(&xs, &ys);
        assert!((slope - 1.5).abs() < 1e-9);
        assert!(r2 > 0.999999);
    }

    #[test]
    fn loglog_fit_handles_noise() {
        let xs: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x.powi(2) * (1.0 + 0.01 * i as f64))
            .collect();
        let (slope, r2) = fit_loglog(&xs, &ys);
        assert!((slope - 2.0).abs() < 0.02);
        assert!(r2 > 0.999);
    }

    #[test]
    fn geomean_of_equal_series_is_one() {
        let a = [3.0, 5.0, 7.0];
        assert!((geomean_ratio(&a, &a) - 1.0).abs() < 1e-12);
        let doubled: Vec<f64> = a.iter().map(|x| 2.0 * x).collect();
        assert!((geomean_ratio(&doubled, &a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn u64_formatting() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1000), "1_000");
        assert_eq!(fmt_u64(1234567890), "1_234_567_890");
    }
}
