//! End-to-end and per-layer benchmark of the (m, ℓ)-TCU stack.
//!
//! ```text
//! tcubench [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! tcubench --self-test
//! ```
//!
//! Each workload runs as a closed loop: one client in this process, one
//! solve at a time, every output checked against a reference built
//! during set-up. `--trace 0` times untraced solves in [`FORKS`]
//! processes run one after the other and prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced solves in this process and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` next to this file for what each metric means.

mod probe;
mod workloads;

use probe::{ms, MachineCounters, Tracer};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Bench, Kind, Sizes, Solved};

/// End-to-end metrics (`--trace 0`), with units: the ones that stay
/// steady from run to run on a shared host, so a change can be gated on
/// them.
const END_TO_END: [(&str, &str); 4] = [
    ("solve_floor_per_ref", "x"),
    ("sim_time_per_solve", "sim_units"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed as text only: wall times follow whatever
/// else a shared host runs, and swing too much between runs to gate on
/// (see `README.md`).
const INFORMATIONAL: [(&str, &str); 4] = [
    ("solve_ms_floor", "ms"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("solves_per_s", "solves/s"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not reach reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("sched.record_ms", "ms"),
    ("sched.plan_ms", "ms"),
    ("sched.compile_ms", "ms"),
    ("sched.run_ms", "ms"),
    ("sched.run_overhead_ms", "ms"),
    ("sched.merge_ms", "ms"),
    ("sched.stage_ms", "ms"),
    ("sched.unit_busy_frac", "fraction"),
    ("sched.serial_run_ms", "ms"),
    ("sched.speedup_vs_serial", "x"),
    ("sched.dataflow_efficiency", "fraction"),
    ("sched.steals", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.plan_ms", "ms"),
    ("algos.fft.ms", "ms"),
    ("algos.fft.exec_share", "fraction"),
    ("algos.intmul.ms", "ms"),
    ("algos.intmul.exec_share", "fraction"),
    ("algos.poly.ms", "ms"),
    ("algos.poly.exec_share", "fraction"),
    ("algos.stencil.ms", "ms"),
    ("algos.stencil.exec_share", "fraction"),
    ("algos.apsd.ms", "ms"),
    ("algos.apsd.exec_share", "fraction"),
    ("algos.sparse.ms", "ms"),
    ("algos.sparse.exec_share", "fraction"),
    ("algos.gauss.ms", "ms"),
    ("algos.gauss.exec_share", "fraction"),
    ("algos.closure.ms", "ms"),
    ("algos.closure.exec_share", "fraction"),
    ("algos.strassen.ms", "ms"),
    ("algos.strassen.exec_share", "fraction"),
    ("exec.busy_ms", "ms"),
    ("exec.calls", "count"),
    ("exec.gflops", "GFLOP/s"),
    ("exec.ns_per_row", "ns/row"),
    ("exec.pct_of_peak", "%"),
    ("pack.hit_ratio", "fraction"),
    ("pack.packed_mb", "MB"),
    ("machine.sim_rows", "count"),
    ("machine.tensor_calls", "count"),
    ("fault.injected", "count"),
    ("fault.retries", "count"),
    ("fault.quarantines", "count"),
    ("fault.recovery_sim", "sim_units"),
    ("host.peak_gflops", "GFLOP/s"),
    ("host.available_parallelism", "count"),
    ("obs.overhead_pct", "%"),
];

/// Processes an untraced run spreads its solves over, one after the
/// other. Speed differs from process to process (memory placement,
/// thread placement), so taking the median over several processes keeps
/// one unlucky process from setting a run's numbers.
const FORKS: usize = 12;

/// Set-ups in a traced run's process, for the set-up layers' medians.
/// An untraced run's processes set up once each, and `setup_s` is the
/// median over them.
const TRACED_SETUPS: usize = 2;

const USAGE: &str =
    "usage: tcubench [--workload <dense-p2|dense-p2-faults|recursive-sched|paper-mix|all>] \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] | --self-test";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    /// Run as one of an untraced run's processes (internal).
    fork: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        fork: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" || flag == "--fork" {
            args.self_test |= flag == "--self-test";
            args.fork |= flag == "--fork";
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => args.kinds = Kind::ALL.to_vec(),
            "--workload" => {
                args.kinds = vec![Kind::parse(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every TCU_* variable switches the code path a number measures
    // (driver, inline executor, steal seed, threads, cache size, trace
    // sink, stats), so the benchmark measures the defaults only.
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("TCU_"))
    {
        eprintln!("refusing to run: {var} is set; unset every TCU_* variable");
        return ExitCode::from(2);
    }
    tcu_core::silence_injected_fault_panics();
    if args.self_test {
        return self_test();
    }
    if args.fork {
        return match fork_child(args.kinds[0], args.seed, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", args.kinds[0].name());
                ExitCode::FAILURE
            }
        };
    }
    println!("available_parallelism {}", cores());
    let mut all_correct = true;
    for &kind in &args.kinds {
        match run(kind, &args) {
            Ok(report) => {
                all_correct &= report.correct;
                report.print(kind);
            }
            Err(e) => {
                eprintln!("{}: set-up failed: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(msg)
    })
}

/// Linear-interpolated quantile of `xs` (unsorted), `q ∈ [0, 1]`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn mean<'a>(xs: impl ExactSizeIterator<Item = &'a f64>) -> f64 {
    let n = xs.len().max(1) as f64;
    xs.sum::<f64>() / n
}

/// Keep in `least` the smallest `value` seen for each input.
fn keep_least(least: &mut BTreeMap<u64, f64>, input: f64, value: f64) {
    let slot = least.entry(input as u64).or_insert(value);
    *slot = slot.min(value);
}

/// Attempts, failures, and the per-input simulated time every repeated
/// solve of that input must reproduce.
struct Tally {
    attempted: u64,
    failed: u64,
    sim: Vec<Option<u64>>,
    first_error: Option<String>,
}

impl Tally {
    fn new(pool: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            sim: vec![None; pool],
            first_error: None,
        }
    }

    /// Count one solve of input `i`; returns whether it was correct.
    fn record(&mut self, i: usize, r: &Result<Solved, String>) -> bool {
        self.attempted += 1;
        let verdict = match r {
            Err(e) => Err(e.clone()),
            Ok(s) if !s.ok => Err("output differs from the reference".to_string()),
            Ok(s) => {
                let pool = self.sim.len();
                let slot = &mut self.sim[i % pool];
                match *slot.get_or_insert(s.sim_time) {
                    t if t == s.sim_time => Ok(()),
                    t => Err(format!(
                        "sim_time {} differs from {t} on a repeat",
                        s.sim_time
                    )),
                }
            }
        };
        self.fail_unless(verdict)
    }

    fn fail_unless(&mut self, verdict: Result<(), String>) -> bool {
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                false
            }
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self, kind: Kind) {
        for note in &self.notes {
            println!("{}: {note}", kind.name());
        }
        for (name, v, unit) in &self.metrics {
            println!("{}: {name} = {v} {unit}", kind.name());
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The last of a process's set-ups, with every set-up's measurements.
struct Setup {
    bench: Bench,
    /// Seconds per set-up.
    secs: Vec<f64>,
    /// Samples of the set-up layers the benchmark calls directly.
    layers: BTreeMap<&'static str, Vec<f64>>,
}

/// Set up `kind` `times` times (inputs, references, schedule, one
/// untimed warm-up solve) and keep the last.
fn setup(kind: Kind, seed: u64, times: usize, tally: &mut Option<Tally>) -> Result<Setup, String> {
    let mut bench = None;
    let mut secs = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..times {
        drop(bench.take());
        let t0 = Instant::now();
        let b = Bench::new(kind, seed, &Sizes::FULL)?;
        let warm = guarded(|| b.solve(0, None));
        secs.push(t0.elapsed().as_secs_f64());
        tally
            .get_or_insert_with(|| Tally::new(b.pool()))
            .record(0, &warm);
        for (k, v) in b.setup_layers() {
            layers.entry(k).or_default().push(v);
        }
        bench = Some(b);
    }
    let bench = bench.ok_or("no set-up ran")?;
    Ok(Setup {
        bench,
        secs,
        layers,
    })
}

fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, mut notes, tally) = if args.trace {
        let mut tally = None;
        let mut set = setup(kind, args.seed, TRACED_SETUPS, &mut tally)?;
        let mut tally = tally.ok_or("no set-up ran")?;
        let (metrics, notes) = traced(&mut set.bench, &mut tally, budget, &set.layers)?;
        (metrics, notes, tally)
    } else {
        forked(kind, args.seed, args.seconds)?
    };
    notes.push(format!(
        "error_rate = {} fraction ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    if let Some(e) = &tally.first_error {
        notes.push(format!("first failure: {e}"));
    }
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// One of an untraced run's processes: set up, run the closed loop for
/// `seconds`, and print every measurement as a line for the parent.
fn fork_child(kind: Kind, seed: u64, seconds: f64) -> Result<(), String> {
    let mut tally = None;
    let set = setup(kind, seed, 1, &mut tally)?;
    let mut tally = tally.ok_or("no set-up ran")?;
    let mut out = String::new();
    for secs in &set.secs {
        out.push_str(&format!("setup {secs}\n"));
    }
    let mut reference = probe::Reference::default();
    let mut before = reference.time_ms();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        let t0 = Instant::now();
        let r = guarded(|| set.bench.solve(i, None));
        let wall = ms(r.as_ref().map_or(t0.elapsed(), |s| s.wall));
        let after = reference.time_ms();
        let ok = tally.record(i, &r);
        out.push_str(&format!(
            "solve {} {wall} {} {}\n",
            i % set.bench.pool(),
            u8::from(ok),
            wall / ((before + after) / 2.0)
        ));
        before = after;
        i += 1;
    }
    for (input, sim) in tally.sim.iter().enumerate() {
        if let Some(sim) = sim {
            out.push_str(&format!("sim {input} {sim}\n"));
        }
    }
    out.push_str(&format!("rss {}\n", probe::peak_rss_mb()));
    if let Some(e) = &tally.first_error {
        out.push_str(&format!("error {}\n", e.replace('\n', " ")));
    }
    out.push_str(&format!("tally {} {}\n", tally.attempted, tally.failed));
    print!("{out}");
    Ok(())
}

/// An untraced run: [`FORKS`] processes of this program, one after the
/// other, each timing `seconds / FORKS` of solves.
///
/// Each process times the [`probe::Reference`] kernel between every two
/// solves and divides each solve's wall time by the mean of the kernel
/// runs just before and just after it, so a stretch in which the host
/// runs slow moves both alike. A process's floor of a figure is its
/// smallest value over the correct solves of each input, averaged over
/// the inputs: a co-tenant only ever slows a solve down, so the floor
/// follows the program more closely than the median does.
/// `solve_floor_per_ref` is the median over the processes of the floor
/// of that ratio, `solve_ms_floor` the same of the wall time; the other
/// wall-time figures pool every process's solves.
fn forked(kind: Kind, seed: u64, seconds: f64) -> Result<(Metrics, Vec<String>, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut tally = Tally::new(0);
    let mut sims: BTreeMap<usize, u64> = BTreeMap::new();
    let (mut lat, mut setup_secs, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut floors, mut per_ref) = (Vec::new(), Vec::new());
    let (mut ok, mut ok_secs) = (0u64, 0.0);
    let start = Instant::now();
    for f in 0..FORKS {
        let out = std::process::Command::new(&exe)
            .args(["--fork", "--workload", kind.name(), "--seed"])
            .arg(seed.to_string())
            .arg("--seconds")
            .arg((seconds / FORKS as f64).to_string())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("process {f}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() || !text.contains("\ntally ") {
            return Err(format!("process {f} exited with {}", out.status));
        }
        let (mut fastest, mut least_ratio) = (BTreeMap::new(), BTreeMap::new());
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let nums: Vec<f64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
            match (tag, nums.as_slice()) {
                ("setup", &[secs]) => setup_secs.push(secs),
                ("solve", &[input, wall, good, ratio]) => {
                    lat.push(wall);
                    if good == 1.0 {
                        keep_least(&mut fastest, input, wall);
                        keep_least(&mut least_ratio, input, ratio);
                        ok += 1;
                        ok_secs += wall / 1e3;
                    }
                }
                ("sim", _) => {
                    let mut it = rest.split(' ').filter_map(|x| x.parse::<u64>().ok());
                    if let (Some(input), Some(sim)) = (it.next(), it.next()) {
                        let first = *sims.entry(input as usize).or_insert(sim);
                        tally.fail_unless(if first == sim {
                            Ok(())
                        } else {
                            Err(format!(
                                "input {input}: sim_time {sim} in process {f}, {first} before"
                            ))
                        });
                    }
                }
                ("rss", &[mb]) => rss.push(mb),
                ("error", _) => {
                    tally.first_error.get_or_insert_with(|| rest.to_string());
                }
                ("tally", &[attempted, failed]) => {
                    tally.attempted += attempted as u64;
                    tally.failed += failed as u64;
                }
                _ => {}
            }
        }
        floors.push(mean(fastest.values()));
        per_ref.push(mean(least_ratio.values()));
    }
    let sim_per_solve = sims.values().sum::<u64>() as f64 / sims.len().max(1) as f64;
    let values = [
        median(&per_ref),
        sim_per_solve,
        median(&setup_secs),
        median(&rss),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let informational = [
        median(&floors),
        median(&lat),
        quantile(&lat, 0.9),
        ok as f64 / ok_secs.max(f64::MIN_POSITIVE),
    ];
    let mut notes = vec![format!(
        "{} timed solves in {FORKS} processes over {:.1} s; available_parallelism {}",
        lat.len(),
        start.elapsed().as_secs_f64(),
        cores()
    )];
    for ((name, unit), v) in INFORMATIONAL.iter().zip(informational) {
        notes.push(format!("{name} = {v} {unit} (informational)"));
    }
    Ok((metrics, notes, tally))
}

fn traced(
    bench: &mut Bench,
    tally: &mut Tally,
    budget: Duration,
    setup_layers: &BTreeMap<&'static str, Vec<f64>>,
) -> Result<(Metrics, Vec<String>), String> {
    let peak = probe::peak_gflops();
    if let Some(d) = bench.dense_mut() {
        d.prepare_serial()?;
    }
    let bench = &*bench;
    let mut tracer = Tracer::new();
    let (mut plain, mut with_trace, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let t0 = Instant::now();
        let r0 = guarded(|| bench.solve(i, None));
        plain.push(ms(r0.as_ref().map_or(t0.elapsed(), |s| s.wall)));
        let ok0 = tally.record(i, &r0);

        tracer.begin();
        let t0 = Instant::now();
        let r1 = guarded(|| bench.solve(i, Some(&mut tracer)));
        with_trace.push(ms(r1.as_ref().map_or(t0.elapsed(), |s| s.wall)));
        let counters = r1
            .as_ref()
            .map_or_else(|_| MachineCounters::default(), |s| s.counters.clone());
        let (vals, calls) = tracer.end(&counters);
        let ok1 = tally.record(i, &r1);
        if let (true, true, Ok(a), Ok(b)) = (ok0, ok1, &r0, &r1) {
            // Tracing must be unobservable: same bytes, same simulated
            // time, and as many executor calls as the library issued.
            tally.fail_unless(unobservable(a, b, calls));
        }
        for (k, v) in vals {
            samples.entry(k).or_default().push(v);
        }

        if let Bench::Dense(d) = bench {
            let t0 = Instant::now();
            let r = guarded(|| d.serial_solve(i));
            serial.push(ms(r.as_ref().map_or(t0.elapsed(), |&(_, wall)| wall)));
            tally.attempted += 1;
            tally.fail_unless(match r {
                Ok((true, _)) => Ok(()),
                Ok((false, _)) => Err("serial output differs from the reference".to_string()),
                Err(e) => Err(e),
            });
        }
        i += 1;
    }

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    for (k, vs) in &samples {
        if let Some(slot) = m.get_mut(k.as_str()) {
            *slot = median(vs);
        }
    }
    for (k, vs) in setup_layers {
        m.insert(k, median(vs));
    }
    if let Bench::Dense(d) = bench {
        m.insert("sched.serial_run_ms", median(&serial));
        m.insert("sched.speedup_vs_serial", median(&serial) / median(&plain));
        m.insert("sched.dataflow_efficiency", d.plan.dataflow_efficiency());
        m.insert("sched.steals", d.plan.dataflow_steals() as f64);
    }
    m.insert("exec.pct_of_peak", 100.0 * m["exec.gflops"] / peak);
    m.insert("host.peak_gflops", peak);
    m.insert("host.available_parallelism", cores() as f64);
    m.insert(
        "obs.overhead_pct",
        100.0 * (median(&with_trace) - median(&plain)) / median(&plain),
    );
    let metrics = PER_LAYER.iter().map(|&(k, unit)| (k, m[k], unit)).collect();
    let notes = vec![format!(
        "{} untraced + {} traced solves over {:.1} s; available_parallelism {}",
        plain.len(),
        with_trace.len(),
        start.elapsed().as_secs_f64(),
        cores()
    )];
    Ok((metrics, notes))
}

/// A traced solve `b` against the untraced solve `a` of the same input,
/// given the executor calls the traced solve made.
fn unobservable(a: &Solved, b: &Solved, calls: u64) -> Result<(), String> {
    if a.digest != b.digest || a.sim_time != b.sim_time {
        Err("tracing changed the output or the simulated time".to_string())
    } else if a.issued != calls {
        Err(format!(
            "the traced solve made {calls} executor calls, the library issued {}",
            a.issued
        ))
    } else {
        Ok(())
    }
}

/// Each workload once at tiny sizes, untraced and traced, plus a check
/// that `BENCHMARK.json` (when present) names every metric printed.
fn self_test() -> ExitCode {
    let mut ok = true;
    for kind in Kind::ALL {
        let verdict = guarded(|| {
            let mut bench = Bench::new(kind, 7, &Sizes::TINY)?;
            let plain = bench.solve(0, None)?;
            let mut tracer = Tracer::new();
            tracer.begin();
            let traced = bench.solve(0, Some(&mut tracer))?;
            let (vals, calls) = tracer.end(&traced.counters);
            if !plain.ok || !traced.ok {
                return Err("output differs from the reference".to_string());
            }
            unobservable(&plain, &traced, calls)?;
            if let Some(k) = vals.keys().find(|k| !PER_LAYER.iter().any(|(n, _)| n == k)) {
                return Err(format!(
                    "the tracer made {k}, which is not a per-layer metric"
                ));
            }
            if let Some(d) = bench.dense_mut() {
                d.prepare_serial()?;
                if !d.serial_solve(0)?.0 {
                    return Err("serial output differs from the reference".to_string());
                }
            }
            Ok(())
        });
        match verdict {
            Ok(()) => println!("self-test {}: ok", kind.name()),
            Err(e) => {
                println!("self-test {}: FAILED: {e}", kind.name());
                ok = false;
            }
        }
    }
    if let Ok(spec) = std::fs::read_to_string("BENCHMARK.json") {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            if !spec.contains(&format!("\"name\": \"{name}\"")) {
                println!("self-test: BENCHMARK.json does not name {name}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
