//! Chaos suite: the recovery contract of the fault-tolerant dataflow
//! driver, under deterministic fault injection.
//!
//! For random RAW-pipeline graphs (the same generator as the
//! thread-count-invariance suite) and every unit count in {1, 2, 4, 8},
//! a seeded *recoverable* [`FaultPlan`] — transient faults never
//! consecutive on a unit, permanent faults on at most `units − 1` units
//! — must leave the run's *elements*, *Stats*, and *trace digest*
//! byte-identical to the fault-free run. Recovery is observable only in
//! `time()` (retry backoff, requeue makespan), in [`FaultStats`], and
//! in the digest-exempt fault/retry/quarantine trace annotations —
//! which must themselves be reproducible: the same plan replayed twice
//! yields the same fault trace.
//!
//! The full contract runs on the inline executor for every recoverable
//! plan, and on the threaded executor for transient-only plans, whose
//! fault trace must also equal the inline run's. Under permanent faults
//! the threaded executor's recovery may depend on thread timing (the
//! documented gap in the `tcu_sched::run` module docs), so there it
//! must keep bytes, `Stats`, digest, and the within-run `time()`
//! identity only.
//!
//! Unrecoverable plans must come back as typed [`TcuError`]s — never a
//! panic, never an abort.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcu_core::{
    assign_unit_ids, silence_injected_fault_panics, FaultKind, FaultPlan, FaultStats,
    FaultyExecutor, HostExecutor, ModelTensorUnit, PadPolicy, ParallelTcuMachine, RecoveryPolicy,
    TcuError, TcuMachine, TensorOp, TraceLog,
};
use tcu_linalg::Matrix;
use tcu_sched::{BufferId, DataflowTuning, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

const DIM: usize = 32;
const SQRT_M: usize = 8;
const UNIT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Execution indices covered by seeded plans — past any unit's per-run
/// execution count, so planned faults actually land.
const HORIZON: u64 = 64;
/// The deterministic reference executor: the placement's global order,
/// one op at a time.
const INLINE: DataflowTuning = DataflowTuning {
    steal_seed: 0,
    inline: Some(true),
};
/// The worker-pool executor, forced even on a one-core host.
const THREADED: DataflowTuning = DataflowTuning {
    steal_seed: 0,
    inline: Some(false),
};

/// Buffer handles of the shared 4-buffer layout (A, B inputs; C, D
/// read-write) the generator records over.
struct Bufs {
    a: BufferId,
    b: BufferId,
    c: BufferId,
    d: BufferId,
}

/// The RAW-pipeline generator of the thread-count-invariance suite —
/// chaos injection must hold on the same population of graphs.
fn random_graph(seed: u64) -> (OpGraph, Bufs) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    let n = rng.gen_range(4..24usize);
    for _ in 0..n {
        let rows = 16usize;
        let inner = *[4usize, 8].get(rng.gen_range(0..2usize)).unwrap();
        let width = *[4usize, 8].get(rng.gen_range(0..2usize)).unwrap();
        let a_r0 = 16 * rng.gen_range(0..=1usize);
        let a_c0 = 4 * rng.gen_range(0..=(DIM - inner) / 4);
        let b_r0 = 4 * rng.gen_range(0..=(DIM - inner) / 4);
        let b_c0 = 4 * rng.gen_range(0..=(DIM - width) / 4);
        let (a_buf, out_buf) = if rng.gen_range(0..3u32) == 0 {
            if rng.gen_range(0..2u32) == 0 {
                (bufs.c, bufs.d)
            } else {
                (bufs.d, bufs.c)
            }
        } else {
            let out = if rng.gen_range(0..2u32) == 0 {
                bufs.c
            } else {
                bufs.d
            };
            (bufs.a, out)
        };
        let out_r0 = 16 * rng.gen_range(0..=1usize);
        let out_c0 = 4 * rng.gen_range(0..=(DIM - width) / 4);
        g.record(
            TensorOp {
                rows,
                inner,
                width,
                accumulate: rng.gen_range(0..4u32) != 0,
                pad: PadPolicy::ZeroPad,
            },
            OperandRef::new(a_buf, a_r0, a_c0, rows, inner),
            OperandRef::new(bufs.b, b_r0, b_c0, inner, width),
            OperandRef::new(out_buf, out_r0, out_c0, rows, width),
        );
    }
    (g, bufs)
}

fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// Everything one faulty parallel run observes.
struct ChaosRun {
    result: Result<(), TcuError>,
    c: Matrix<i64>,
    d: Matrix<i64>,
    stats: tcu_core::Stats,
    trace: TraceLog,
    time: u64,
    fault_stats: FaultStats,
}

/// One `try_run_dataflow_with` execution under `tuning` on a fresh
/// machine whose every unit executor injects from `fplan`.
#[allow(clippy::too_many_arguments)]
fn run_faulty(
    g: &OpGraph,
    bufs: &Bufs,
    plan: &Schedule,
    units: usize,
    seed: u64,
    fplan: FaultPlan,
    policy: RecoveryPolicy,
    tuning: DataflowTuning,
) -> ChaosRun {
    silence_injected_fault_panics();
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut mach = ParallelTcuMachine::with_executor(
        unit,
        units,
        FaultyExecutor::new(HostExecutor::new(), fplan),
    );
    assign_unit_ids(&mut mach);
    for u in 0..units {
        mach.unit_executor_mut(u).inner_mut().enable_pack_cache(16);
    }
    mach.enable_trace();
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(g);
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    let result = plan.try_run_dataflow_with(&mut mach, &mut env, policy, tuning);
    drop(env);
    ChaosRun {
        result,
        c,
        d,
        stats: mach.stats().clone(),
        time: mach.time(),
        fault_stats: *mach.fault_stats(),
        trace: mach.take_trace(),
    }
}

/// The fault-free serial reference: elements, Stats, trace.
type Reference = (Matrix<i64>, Matrix<i64>, tcu_core::Stats, TraceLog);

/// The fault-free serial scheduled run of `g`.
fn serial_reference(g: &OpGraph, bufs: &Bufs, seed: u64) -> Reference {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let plan = Scheduler::new().plan(g, &unit);
    let mut ser = TcuMachine::new(unit);
    ser.executor_mut().enable_pack_cache(16);
    ser.enable_trace();
    let a = pseudo(DIM, DIM, seed as i64);
    let b = pseudo(DIM, DIM, seed as i64 + 1);
    let (mut c, mut d) = (
        Matrix::<i64>::zeros(DIM, DIM),
        Matrix::<i64>::zeros(DIM, DIM),
    );
    let mut env = ExecEnv::new(g);
    env.bind_input(bufs.a, a.view());
    env.bind_input(bufs.b, b.view());
    env.bind_output(bufs.c, c.view_mut());
    env.bind_output(bufs.d, d.view_mut());
    plan.run(&mut ser, &mut env);
    drop(env);
    (c, d, ser.stats().clone(), ser.take_trace())
}

/// The within-run half of the recovery contract for a recoverable
/// plan: the run succeeds, its elements, Stats, and digest are the
/// fault-free run's, and recovery shows up exactly in `time()` and the
/// fault annotations.
fn assert_unobservable(run: &ChaosRun, reference: &Reference, plan: &Schedule, units: usize) {
    let (c_ref, d_ref, stats_ref, trace_ref) = reference;
    prop_assert!(
        run.result.is_ok(),
        "recoverable plan failed at {} units: {:?}",
        units,
        run.result
    );

    // The contract: elements, Stats, digest byte-identical to the
    // fault-free run; the scheduled events (faults stripped) are
    // the fault-free trace exactly.
    prop_assert_eq!(&run.c, c_ref, "elements (C) at {} units", units);
    prop_assert_eq!(&run.d, d_ref, "elements (D) at {} units", units);
    prop_assert_eq!(&run.stats, stats_ref, "Stats at {} units", units);
    prop_assert_eq!(run.trace.digest(), trace_ref.digest());
    prop_assert_eq!(
        run.trace.without_faults().events(),
        trace_ref.events(),
        "scheduled events at {} units",
        units
    );

    // Recovery cost is visible where it should be: wall-clock at
    // least the planned makespan, exceeding it exactly when the
    // fault counters say recovery was charged.
    prop_assert!(run.time >= plan.dataflow_makespan_seeded(0));
    let charged = run.fault_stats.backoff_time + run.fault_stats.recovery_makespan;
    prop_assert_eq!(run.time, plan.dataflow_makespan_seeded(0) + charged);
    let saw_faults = run.fault_stats.transient_faults + run.fault_stats.permanent_faults > 0;
    prop_assert_eq!(
        !run.trace.fault_events().is_empty(),
        saw_faults,
        "fault annotations iff faults fired at {} units",
        units
    );
}

/// The replay half: the same plan replayed gives the same fault
/// trace, the same counters, the same bytes.
fn assert_replays(again: &ChaosRun, run: &ChaosRun, units: usize) {
    prop_assert!(again.result.is_ok());
    prop_assert_eq!((&again.c, &again.d), (&run.c, &run.d));
    prop_assert_eq!(again.fault_stats, run.fault_stats);
    prop_assert_eq!(
        again.trace.fault_events(),
        run.trace.fault_events(),
        "fault trace must replay byte-identically at {} units",
        units
    );
    prop_assert_eq!(again.time, run.time);
}

/// The recovery contract at every unit count under seeded plans: the
/// full contract on the inline executor for recoverable plans and on
/// the threaded executor for transient-only ones (with the inline
/// run's fault trace), the within-run contract on the threaded
/// executor under permanent faults.
fn check_recovery_unobservable(seed: u64) {
    let (g, bufs) = random_graph(seed);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let reference = serial_reference(&g, &bufs, seed);
    let policy = RecoveryPolicy::default();

    for units in UNIT_COUNTS {
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);
        let run_with = |fplan: &FaultPlan, tuning| {
            run_faulty(&g, &bufs, &plan, units, seed, fplan.clone(), policy, tuning)
        };
        // Recoverable by construction: no consecutive transients, at
        // most units − 1 permanent victims (and none at 1 unit).
        let fplan = FaultPlan::seeded(seed ^ 0xC44F, units, HORIZON, 150, units / 2);
        let run = run_with(&fplan, INLINE);
        assert_unobservable(&run, &reference, &plan, units);
        assert_replays(&run_with(&fplan, INLINE), &run, units);

        // The same plan on the worker pool: permanent faults may move
        // its recovery with thread timing, never its results.
        assert_unobservable(&run_with(&fplan, THREADED), &reference, &plan, units);

        // Transient faults only: the worker pool replays exactly, and
        // writes the inline executor's fault trace.
        let transient = FaultPlan::seeded(seed ^ 0xC44F, units, HORIZON, 150, 0);
        let threaded = run_with(&transient, THREADED);
        assert_unobservable(&threaded, &reference, &plan, units);
        assert_replays(&run_with(&transient, THREADED), &threaded, units);
        let inline = run_with(&transient, INLINE);
        prop_assert_eq!(
            threaded.trace.fault_events(),
            inline.trace.fault_events(),
            "threaded fault trace equals inline at {} units",
            units
        );
        prop_assert_eq!(threaded.fault_stats, inline.fault_stats);
        prop_assert_eq!(threaded.time, inline.time);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random RAW pipelines × seeded recoverable fault plans at
    // 1/2/4/8 units: recovery must be unobservable in elements, Stats,
    // and digest, and the fault trace must replay exactly.
    #[test]
    fn recoverable_faults_are_unobservable_and_replayable(seed in 0u64..10_000) {
        check_recovery_unobservable(seed);
    }
}

/// A fixed single-wave graph: two independent ops (disjoint outputs),
/// enough to occupy two units or quarantine down to one.
fn two_op_graph() -> (OpGraph, Bufs) {
    let mut g = OpGraph::new();
    let bufs = Bufs {
        a: g.buffer("A", DIM, DIM),
        b: g.buffer("B", DIM, DIM),
        c: g.buffer("C", DIM, DIM),
        d: g.buffer("D", DIM, DIM),
    };
    for (r0, c0) in [(0usize, 0usize), (16, 16)] {
        g.record(
            TensorOp::mul(16, 8),
            OperandRef::new(bufs.a, r0, 0, 16, 8),
            OperandRef::new(bufs.b, 0, c0, 8, 8),
            OperandRef::new(bufs.c, r0, c0, 16, 8),
        );
    }
    (g, bufs)
}

fn plan_at(g: &OpGraph, units: usize) -> Schedule {
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    Scheduler::new().with_units(units).plan(g, &unit)
}

#[test]
fn exhausted_retries_fail_typed_not_panicking() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 1);
    // Transient on three consecutive executions of unit 0: attempts
    // 1, 2, 3 of the first op all fault — max_attempts = 3 exhausted.
    let fplan = FaultPlan::none()
        .fail(0, 0, FaultKind::Transient)
        .fail(0, 1, FaultKind::Transient)
        .fail(0, 2, FaultKind::Transient);
    let run = run_faulty(
        &g,
        &bufs,
        &plan,
        1,
        3,
        fplan,
        RecoveryPolicy::default(),
        INLINE,
    );
    match run.result {
        Err(TcuError::RetriesExhausted { unit, attempts, .. }) => {
            assert_eq!(unit, 0);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // Injected faults fire before the executor writes: the failing op
    // left its destination untouched.
    assert_eq!(run.c, Matrix::<i64>::zeros(DIM, DIM));
}

#[test]
fn raising_max_attempts_recovers_the_same_plan() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 1);
    let fplan = FaultPlan::none()
        .fail(0, 0, FaultKind::Transient)
        .fail(0, 1, FaultKind::Transient)
        .fail(0, 2, FaultKind::Transient);
    let policy = RecoveryPolicy {
        max_attempts: 4,
        quarantine: true,
    };
    let run = run_faulty(&g, &bufs, &plan, 1, 3, fplan, policy, INLINE);
    assert!(run.result.is_ok(), "{:?}", run.result);
    assert_eq!(run.fault_stats.transient_faults, 3);
    assert_eq!(run.fault_stats.retries, 3);
    let (c_ref, ..) = serial_reference(&g, &bufs, 3);
    assert_eq!(run.c, c_ref);
}

#[test]
fn all_units_quarantined_fails_typed_not_hanging() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 2);
    // Every unit dies on its first execution: quarantine empties the
    // survivor set with work still pending.
    let fplan = FaultPlan::none()
        .fail(0, 0, FaultKind::Permanent)
        .fail(1, 0, FaultKind::Permanent);
    let run = run_faulty(
        &g,
        &bufs,
        &plan,
        2,
        5,
        fplan,
        RecoveryPolicy::default(),
        INLINE,
    );
    match run.result {
        Err(TcuError::AllUnitsQuarantined { pending, .. }) => assert!(pending > 0),
        other => panic!("expected AllUnitsQuarantined, got {other:?}"),
    }
}

#[test]
fn quarantine_off_makes_permanent_faults_fatal() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 2);
    let fplan = FaultPlan::none().fail(0, 0, FaultKind::Permanent);
    let policy = RecoveryPolicy {
        max_attempts: 3,
        quarantine: false,
    };
    let run = run_faulty(&g, &bufs, &plan, 2, 5, fplan, policy, INLINE);
    match run.result {
        Err(TcuError::UnitFault { unit, .. }) => assert_eq!(unit, 0),
        other => panic!("expected UnitFault, got {other:?}"),
    }
}

#[test]
fn single_dead_unit_is_quarantined_and_survivors_finish() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 2);
    let fplan = FaultPlan::none().fail(0, 0, FaultKind::Permanent);
    let run = run_faulty(
        &g,
        &bufs,
        &plan,
        2,
        5,
        fplan,
        RecoveryPolicy::default(),
        INLINE,
    );
    assert!(run.result.is_ok(), "{:?}", run.result);
    assert_eq!(run.fault_stats.quarantined_units, 1);
    assert_eq!(run.fault_stats.permanent_faults, 1);
    assert!(run.fault_stats.requeued_ops > 0);
    let (c_ref, _, stats_ref, trace_ref) = serial_reference(&g, &bufs, 5);
    assert_eq!(run.c, c_ref, "survivor-executed elements must match");
    assert_eq!(run.stats, stats_ref);
    assert_eq!(run.trace.digest(), trace_ref.digest());
    assert!(
        run.time > plan.dataflow_makespan_seeded(0),
        "requeue makespan must be charged"
    );
}

#[test]
fn bind_errors_are_typed() {
    let (g, bufs) = two_op_graph();
    let wrong = Matrix::<i64>::zeros(DIM, DIM - 1);
    let mut env = ExecEnv::<i64>::new(&g);
    match env.try_bind_input(bufs.b, wrong.view()) {
        Err(TcuError::BindShape { expected, got, .. }) => {
            assert_eq!(expected, (DIM, DIM));
            assert_eq!(got, (DIM, DIM - 1));
        }
        other => panic!("expected BindShape, got {other:?}"),
    }
    // C is written by the graph: binding it read-only is typed too.
    let a = Matrix::<i64>::zeros(DIM, DIM);
    match env.try_bind_input(bufs.c, a.view()) {
        Err(TcuError::BindWrittenAsInput { buffer }) => assert_eq!(buffer, bufs.c.index()),
        other => panic!("expected BindWrittenAsInput, got {other:?}"),
    }
}

#[test]
fn unbound_buffers_fail_typed_in_try_run() {
    let (g, bufs) = two_op_graph();
    let plan = plan_at(&g, 1);
    let unit = ModelTensorUnit::new(SQRT_M * SQRT_M, 13);
    let mut ser = TcuMachine::new(unit);
    let a = pseudo(DIM, DIM, 0);
    let mut env = ExecEnv::new(&g);
    env.bind_input(bufs.a, a.view());
    // B never bound, C (the output) never bound: first touch reports.
    match plan.try_run(&mut ser, &mut env) {
        Err(TcuError::Unbound { .. }) => {}
        other => panic!("expected Unbound, got {other:?}"),
    }
}
