//! Carried accumulators in the threaded dataflow driver.
//!
//! The threaded driver hands an accumulate chain's scratch from link to
//! link (see `ExecutablePlan::carried_ops`) and writes back only at a
//! chain's end. These properties pin that hand-off to exactly the bytes
//! the serial run produces: blocked products (`d ∈ {32, 64, 96}`,
//! `√m ∈ {8, 16}`) with injected mid-chain readers, partial-overlap
//! writers and overwrite successors — each of which must end a chain
//! early — run on the forced threaded executor at 2 and 4 units under
//! every steal seed, fault-free and under seeded transient and
//! permanent fault plans.
//!
//! A second group drives a *foreign* (non-injected) executor panic into
//! a carried op: the run must fail with `TcuError::UnitFault`, leave no
//! torn bytes in the outputs, and still write back every other chain's
//! committed links.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, Executor, FaultPlan, FaultStats,
    FaultyExecutor, HostExecutor, ModelTensorUnit, PackCacheStats, ParallelTcuMachine,
    RecoveryPolicy, TcuError, TcuMachine, TensorOp,
};
use tcu_linalg::{Matrix, MatrixView, MatrixViewMut, Scalar};
use tcu_sched::{BufferId, DataflowTuning, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const UNIT_COUNTS: [usize; 2] = [2, 4];
const STEAL_SEEDS: [u64; 3] = [0, 1, 0xDEAD];

/// A blocked product `C (+)= A·B` over `d × d` buffers, with a
/// read-write side buffer `D` for injected readers.
struct Product {
    g: OpGraph,
    d: usize,
    s: usize,
    a: BufferId,
    b: BufferId,
    c: BufferId,
    dd: BufferId,
}

/// One chain link: `C[:, j] += A[:, k] · B[k, j]` on `√m`-wide blocks.
fn link(p: &mut Product, j: usize, k: usize, accumulate: bool) {
    let (d, s) = (p.d, p.s);
    let op = if accumulate {
        TensorOp::mul_acc(d, s)
    } else {
        TensorOp::mul(d, s)
    };
    p.g.record(
        op,
        OperandRef::new(p.a, 0, k * s, d, s),
        OperandRef::new(p.b, k * s, j * s, s, s),
        OperandRef::new(p.c, 0, j * s, d, s),
    );
}

/// The blocked product of `seed`, with chain-breaking ops injected
/// after random links of every column block but the first (so at least
/// `d/√m − 1` hand-offs always survive):
///
/// * a mid-chain reader streaming the chain's strip into `D`;
/// * a partial-overlap writer — half the strip's rows, or a strip
///   straddling this block and the next;
/// * an overwrite successor resetting the strip.
fn blocked_product(seed: u64) -> Product {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let d = [32usize, 64, 96][rng.gen_range(0..3usize)];
    let s = [8usize, 16][rng.gen_range(0..2usize)];
    let q = d / s;
    let mut g = OpGraph::new();
    let (a, b, c, dd) = (
        g.buffer("A", d, d),
        g.buffer("B", d, d),
        g.buffer("C", d, d),
        g.buffer("D", d, d),
    );
    let mut p = Product {
        g,
        d,
        s,
        a,
        b,
        c,
        dd,
    };
    let column_major = rng.gen_range(0..2u32) == 0;
    let first_overwrites = rng.gen_range(0..2u32) == 0;
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(q * q);
    for x in 0..q {
        for y in 0..q {
            order.push(if column_major { (x, y) } else { (y, x) });
        }
    }
    for (j, k) in order {
        link(&mut p, j, k, !(first_overwrites && k == 0));
        if j == 0 || k + 1 == q || rng.gen_range(0..4u32) != 0 {
            continue;
        }
        let (out_r0, out_c0, rows) = match rng.gen_range(0..4u32) {
            // Mid-chain reader: stream the strip into D.
            0 => {
                p.g.record(
                    TensorOp::mul(d, s),
                    OperandRef::new(c, 0, j * s, d, s),
                    OperandRef::new(b, k * s, j * s, s, s),
                    OperandRef::new(dd, 0, j * s, d, s),
                );
                continue;
            }
            // Partial-overlap writers: half the rows, or straddling.
            1 => (d / 4, j * s, d / 2),
            2 if j + 1 < q => (0, j * s + s / 2, d),
            // Overwrite successor.
            _ => {
                link(&mut p, j, k, false);
                continue;
            }
        };
        p.g.record(
            TensorOp::mul_acc(rows, s),
            OperandRef::new(a, 0, k * s, rows, s),
            OperandRef::new(b, k * s, j * s, s, s),
            OperandRef::new(c, out_r0, out_c0, rows, s),
        );
    }
    p
}

fn pseudo(r: usize, c: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(r, c, |i, j| {
        let x = (i as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add((j as u64).wrapping_mul(1_442_695_040_888_963_407))
            .wrapping_add(seed);
        (x % 1_000) as f64 / 997.0 - 0.5
    })
}

/// The operands of one run: A, B, and the initial C and D.
fn operands(p: &Product, seed: u64) -> [Matrix<f64>; 4] {
    [
        pseudo(p.d, p.d, seed),
        pseudo(p.d, p.d, seed + 1),
        pseudo(p.d, p.d, seed + 2),
        pseudo(p.d, p.d, seed + 3),
    ]
}

/// Everything one run observes.
struct Run {
    result: Result<(), TcuError>,
    c: Matrix<f64>,
    dd: Matrix<f64>,
    stats: tcu_core::Stats,
    digest: u64,
    time: u64,
    fault_stats: FaultStats,
    caches: Vec<PackCacheStats>,
    carried: usize,
}

fn unit(p: &Product) -> ModelTensorUnit {
    ModelTensorUnit::new(p.s * p.s, 7)
}

/// One `try_run_dataflow_with` execution on a fresh machine whose every
/// unit injects from `fplan`.
fn run_dataflow(
    p: &Product,
    plan: &Schedule,
    units: usize,
    seed: u64,
    fplan: FaultPlan,
    tuning: DataflowTuning,
) -> Run {
    silence_injected_fault_panics();
    let mut mach = ParallelTcuMachine::with_executor(
        unit(p),
        units,
        FaultyExecutor::new(HostExecutor::new(), fplan),
    );
    assign_unit_ids(&mut mach);
    for u in 0..units {
        mach.unit_executor_mut(u).inner_mut().enable_pack_cache(16);
    }
    mach.enable_trace();
    let [a, b, mut c, mut dd] = operands(p, seed);
    let mut env = ExecEnv::new(&p.g);
    env.bind_input(p.a, a.view());
    env.bind_input(p.b, b.view());
    env.bind_output(p.c, c.view_mut());
    env.bind_output(p.dd, dd.view_mut());
    let carried = plan.compile(&env).expect("compiles").carried_ops();
    let result = plan.try_run_dataflow_with(&mut mach, &mut env, RecoveryPolicy::default(), tuning);
    drop(env);
    let caches = (0..units)
        .map(|u| {
            mach.unit_executor(u)
                .inner()
                .pack_cache_stats()
                .expect("cache on")
        })
        .collect();
    Run {
        result,
        c,
        dd,
        stats: mach.stats().clone(),
        digest: mach.take_trace().digest(),
        time: mach.time(),
        fault_stats: *mach.fault_stats(),
        caches,
        carried,
    }
}

/// The serial scheduled reference: elements, `Stats`, digest.
fn serial_reference(p: &Product, seed: u64) -> (Matrix<f64>, Matrix<f64>, tcu_core::Stats, u64) {
    let plan = Scheduler::new().plan(&p.g, &unit(p));
    let mut ser = TcuMachine::new(unit(p));
    ser.enable_trace();
    let [a, b, mut c, mut dd] = operands(p, seed);
    let mut env = ExecEnv::new(&p.g);
    env.bind_input(p.a, a.view());
    env.bind_input(p.b, b.view());
    env.bind_output(p.c, c.view_mut());
    env.bind_output(p.dd, dd.view_mut());
    plan.try_run(&mut ser, &mut env).expect("serial run");
    drop(env);
    (c, dd, ser.stats().clone(), ser.take_trace().digest())
}

fn tuning(steal_seed: u64, inline: bool) -> DataflowTuning {
    DataflowTuning {
        steal_seed,
        inline: Some(inline),
    }
}

/// Elements, `Stats` and digest equal the serial run's.
fn assert_bytes(run: &Run, refr: &(Matrix<f64>, Matrix<f64>, tcu_core::Stats, u64), label: &str) {
    prop_assert!(run.result.is_ok(), "{} failed: {:?}", label, run.result);
    prop_assert!(run.c == refr.0, "elements (C): {}", label);
    prop_assert!(run.dd == refr.1, "elements (D): {}", label);
    prop_assert_eq!(&run.stats, &refr.2, "Stats: {}", label);
    prop_assert_eq!(run.digest, refr.3, "trace digest: {}", label);
}

fn check_carry_contract(seed: u64) {
    let p = blocked_product(seed);
    let refr = serial_reference(&p, seed);
    let q = p.d / p.s;
    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&p.g, &unit(&p));
        let horizon = 2 * plan.ops() as u64;

        for ss in STEAL_SEEDS {
            let threaded =
                run_dataflow(&p, &plan, units, seed, FaultPlan::none(), tuning(ss, false));
            let inline = run_dataflow(&p, &plan, units, seed, FaultPlan::none(), tuning(ss, true));
            let label = format!("d={} s={} u={units} ss={ss}", p.d, p.s);
            prop_assert!(threaded.carried >= q - 1, "chains carry: {}", label);
            assert_bytes(&threaded, &refr, &label);
            assert_bytes(&inline, &refr, &label);
            prop_assert_eq!(threaded.time, inline.time, "time: {}", label);
            prop_assert_eq!(
                threaded.time,
                plan.dataflow_makespan_seeded(ss),
                "clock: {}",
                label
            );
            prop_assert_eq!(&threaded.caches, &inline.caches, "caches: {}", label);
        }

        // Transient faults fire before the executor writes, so a
        // carried accumulator retries in place: fully byte- and
        // clock-identical to the inline executor.
        let tplan = FaultPlan::seeded(seed ^ 0x7A11, units, horizon, 200, 0);
        let tt = run_dataflow(&p, &plan, units, seed, tplan.clone(), tuning(0, false));
        let ti = run_dataflow(&p, &plan, units, seed, tplan, tuning(0, true));
        let label = format!("transient d={} s={} u={units}", p.d, p.s);
        assert_bytes(&tt, &refr, &label);
        assert_bytes(&ti, &refr, &label);
        prop_assert_eq!(&tt.fault_stats, &ti.fault_stats, "fault stats: {}", label);
        prop_assert_eq!(tt.time, ti.time, "time: {}", label);
        prop_assert_eq!(&tt.caches, &ti.caches, "caches: {}", label);

        // Permanent faults quarantine a unit mid-chain: its clean
        // carried accumulators return to residence and requeue onto
        // survivors. Bytes only (recovery charges depend on timing).
        let pplan = FaultPlan::seeded(seed ^ 0xC44F, units, horizon, 150, units / 2);
        let pt = run_dataflow(&p, &plan, units, seed, pplan.clone(), tuning(0, false));
        let pi = run_dataflow(&p, &plan, units, seed, pplan, tuning(0, true));
        let label = format!("permanent d={} s={} u={units}", p.d, p.s);
        assert_bytes(&pt, &refr, &label);
        assert_bytes(&pi, &refr, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Blocked products with chain-breaking injections × 2/4 units ×
    // steal seeds × {fault-free, transient, permanent}: the threaded
    // driver's carried chains must be byte-unobservable against the
    // serial run and the inline executor.
    #[test]
    fn carried_chains_are_byte_identical_to_serial(seed in 0u64..10_000) {
        check_carry_contract(seed);
    }
}

/// A host executor that, once per run (across all units), fills its
/// destination with a NaN sentinel and panics with a plain string — a
/// foreign, non-[`tcu_core::InjectedFault`] payload — on its first
/// call at or after `from` whose left strip is block column `k` with
/// `k ∈ ks`. Every call that returns is logged as `(j, k)`: the
/// product's column block and link.
#[derive(Clone)]
struct SentinelPanic {
    inner: HostExecutor,
    calls: usize,
    from: usize,
    ks: std::ops::Range<usize>,
    fired: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<(usize, usize)>>>,
    /// Base addresses of A and B and `(d, √m)`, to decode `(j, k)`.
    bases: (usize, usize, usize, usize),
}

impl SentinelPanic {
    fn block<T: Scalar>(&self, base: usize, view: &MatrixView<'_, T>) -> usize {
        (view.row(0).as_ptr() as usize - base) / std::mem::size_of::<T>()
    }
}

impl Executor for SentinelPanic {
    fn name(&self) -> &'static str {
        "sentinel-panic"
    }

    fn execute<T: Scalar>(
        &mut self,
        op: &TensorOp,
        a: MatrixView<'_, T>,
        b: MatrixView<'_, T>,
        out: &mut MatrixViewMut<'_, T>,
    ) -> u64 {
        let (a_base, b_base, d, s) = self.bases;
        let k = self.block(a_base, &a) / s;
        let j = (self.block(b_base, &b) % d) / s;
        self.calls += 1;
        if self.calls > self.from
            && self.ks.contains(&k)
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            let nan: Box<dyn std::any::Any> = Box::new(f64::NAN);
            let nan = *nan.downcast::<T>().expect("sentinel runs are f64");
            for r in 0..out.rows() {
                out.row_mut(r).fill(nan);
            }
            panic!("sentinel executor bug at link {k} of column block {j}");
        }
        let cost = self.inner.execute(op, a, b, out);
        self.log.lock().expect("log").push((j, k));
        cost
    }
}

/// `C0[:, j] + Σ_{k < links} A[:, k]·B[k, j]` for column block `j` —
/// exact, since the operands are small integers.
fn prefix(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c0: &Matrix<f64>,
    s: usize,
    j: usize,
    links: usize,
) -> Matrix<f64> {
    Matrix::from_fn(c0.rows(), s, |r, col| {
        let cc = j * s + col;
        let mut v = c0[(r, cc)];
        for x in 0..links * s {
            v += a[(r, x)] * b[(x, cc)];
        }
        v
    })
}

fn strip(m: &Matrix<f64>, s: usize, j: usize) -> Matrix<f64> {
    m.view().subview(0, j * s, m.rows(), s).to_matrix()
}

/// What one [`chain_run`] observed.
struct ChainRun {
    result: Result<(), TcuError>,
    c: Matrix<f64>,
    /// Completed links per column block (links complete in order).
    links: Vec<usize>,
    /// Column blocks whose strip is *not* at its completed-link prefix.
    off_prefix: Vec<usize>,
    fired: bool,
    a: Matrix<f64>,
    b: Matrix<f64>,
    c0: Matrix<f64>,
}

const D: usize = 64;
const S: usize = 16;
const Q: usize = D / S;

/// Run the `d = 64, √m = 16` blocked product on 2 threaded units whose
/// executors inject `faults` around a [`SentinelPanic`] armed for links
/// in `ks` from call `from` on, under `policy`.
fn chain_run(
    from: usize,
    ks: std::ops::Range<usize>,
    faults: FaultPlan,
    policy: RecoveryPolicy,
) -> ChainRun {
    silence_injected_fault_panics();
    let mut g = OpGraph::new();
    let (ab, bb, cb) = (
        g.buffer("A", D, D),
        g.buffer("B", D, D),
        g.buffer("C", D, D),
    );
    for j in 0..Q {
        for k in 0..Q {
            g.record(
                TensorOp::mul_acc(D, S),
                OperandRef::new(ab, 0, k * S, D, S),
                OperandRef::new(bb, k * S, j * S, S, S),
                OperandRef::new(cb, 0, j * S, D, S),
            );
        }
    }
    let small = |seed: u64| {
        Matrix::from_fn(D, D, |i, j| {
            ((i as u64 * 31 + j as u64 * 17 + seed) % 9) as f64 - 4.0
        })
    };
    let (a, b, c0) = (small(1), small(2), small(3));
    let mut c = c0.clone();
    let fired = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(Vec::new()));
    let sentinel = SentinelPanic {
        inner: HostExecutor::new(),
        calls: 0,
        from,
        ks,
        fired: Arc::clone(&fired),
        log: Arc::clone(&log),
        bases: (
            a.view().row(0).as_ptr() as usize,
            b.view().row(0).as_ptr() as usize,
            D,
            S,
        ),
    };
    let unit = ModelTensorUnit::new(S * S, 0);
    let plan = Scheduler::new().with_units(2).plan(&g, &unit);
    let mut mach =
        ParallelTcuMachine::with_executor(unit, 2, FaultyExecutor::new(sentinel, faults));
    assign_unit_ids(&mut mach);
    let mut env = ExecEnv::new(&g);
    env.bind_input(ab, a.view());
    env.bind_input(bb, b.view());
    env.bind_output(cb, c.view_mut());
    assert_eq!(plan.compile(&env).expect("compiles").carried_ops(), 12);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.try_run_dataflow_with(&mut mach, &mut env, policy, tuning(0, false))
    }))
    .expect("try_run_dataflow_with must not panic");
    drop(env);
    let log = log.lock().expect("log").clone();
    let links: Vec<usize> = (0..Q)
        .map(|j| log.iter().filter(|&&(jj, _)| jj == j).count())
        .collect();
    let off_prefix = (0..Q)
        .filter(|&j| strip(&c, S, j) != prefix(&a, &b, &c0, S, j, links[j]))
        .collect();
    ChainRun {
        result,
        c,
        links,
        off_prefix,
        fired: fired.load(Ordering::SeqCst),
        a,
        b,
        c0,
    }
}

#[test]
fn foreign_panic_in_a_carried_op_fails_cleanly_and_writes_back_committed_links() {
    // Links 1.. of every chain are carried into: arm on those only.
    let run = chain_run(3, 1..Q, FaultPlan::none(), RecoveryPolicy::default());
    assert!(run.fired, "the sentinel panic fired");
    assert!(
        matches!(run.result, Err(TcuError::UnitFault { .. })),
        "foreign panic in a carried op must fail the run: {:?}",
        run.result
    );
    assert!(
        run.c.as_slice().iter().all(|v| !v.is_nan()),
        "the sentinel never reaches the outputs"
    );
    // Every chain holds precisely its completed links, except the
    // faulting one: it lost its carried prefix (the torn scratch was
    // its only copy) and rolled back to its pre-chain bytes.
    assert_eq!(run.off_prefix.len(), 1, "links {:?}", run.links);
    let f = run.off_prefix[0];
    assert!(run.links[f] >= 1 && run.links[f] < Q);
    assert!(strip(&run.c, S, f) == strip(&run.c0, S, f));
}

#[test]
fn foreign_panic_in_a_chain_head_still_recovers() {
    // A chain's first link is seeded from the untouched outputs, so a
    // torn scratch there rebuilds and requeues onto the survivor.
    let run = chain_run(0, 0..1, FaultPlan::none(), RecoveryPolicy::default());
    assert!(run.fired, "the sentinel panic fired");
    assert_eq!(run.result, Ok(()));
    for j in 0..Q {
        assert!(
            strip(&run.c, S, j) == prefix(&run.a, &run.b, &run.c0, S, j, Q),
            "column block {j}"
        );
    }
}

#[test]
fn failed_run_writes_back_every_clean_accumulator() {
    // A transient fault with no retry budget fails the run mid-chain on
    // unit 0 (its fifth op carries an accumulator in). Injected faults
    // fire before the executor writes, so every accumulator in flight
    // or in residence is clean: each chain must hold exactly its
    // completed links — none lost, none torn.
    let faults = FaultPlan::none().fail(0, 4, tcu_core::FaultKind::Transient);
    let policy = RecoveryPolicy {
        max_attempts: 1,
        ..RecoveryPolicy::default()
    };
    let run = chain_run(0, 0..0, faults, policy);
    assert!(
        matches!(run.result, Err(TcuError::RetriesExhausted { .. })),
        "{:?}",
        run.result
    );
    assert!(run.off_prefix.is_empty(), "links {:?}", run.links);
    assert!(
        run.links.iter().any(|&l| l > 0 && l < Q),
        "the run stopped mid-chain: links {:?}",
        run.links
    );
}
