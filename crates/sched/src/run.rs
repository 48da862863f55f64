//! Schedule execution: bind data to the graph's logical buffers and
//! drive the planned op stream through a [`TcuMachine`] — or across the
//! units of a [`ParallelTcuMachine`].
//!
//! [`ExecEnv`] maps every [`BufferId`] to real storage — immutable
//! [`MatrixView`]s for buffers the graph only reads, mutable views for
//! buffers it writes. Execution itself runs off the schedule's compiled
//! form (see [`crate::compile`]): the first run lowers the schedule
//! into an [`crate::ExecutablePlan`] whose ops carry concrete buffer
//! offsets, interned snapshot slots, and the hazard graph, so the
//! per-op hot loop does no hash lookups and no environment scans — it
//! indexes dense arrays. Each left
//! operand is tagged with an [`OperandId`] whose generation combines a
//! process-unique stamp (the environment's *epoch* for frozen
//! input-bound reads, a fresh per-run stamp for reads of written
//! buffers — see [`tag_stamps`]) with the operand's emission-order
//! content version from the schedule — so a pack-caching executor
//! reuses packed strips across every invocation that streams the same
//! region *at the same version*, a write in a pipeline retires the
//! stale strip (its readers carry the bumped generation), and
//! re-running a schedule against mutated outputs can never be served
//! last run's bytes.
//!
//! # Reading written buffers (pipelines)
//!
//! A versioned graph may read regions of buffers it also writes — the
//! Schur-complement update streaming the pivot panel of the matrix it
//! updates, or a second pipeline stage consuming the first stage's
//! product. The hazard order guarantees that when a reader of content
//! version `gen` executes, the region holds exactly the bytes that
//! version names — so *direct* reads of written buffers are correct in
//! any order that respects every hazard edge, and snapshots exist only
//! where safe-Rust borrows force them. Staging is decided per snapshot
//! slot at run time, lazily, at the slot's first reader:
//!
//! * the **in-place** executors — serial [`Schedule::try_run`] and the
//!   inline dataflow executor, two callers of one loop — snapshot only
//!   *same-buffer keys*: regions some op reads while writing the same
//!   buffer, which it cannot borrow while it holds the output mutably
//!   (one gather per `(region, generation)`, the same marshalling the
//!   eager blocked algorithms perform). Every other read is zero-copy
//!   from the bound input or output;
//! * the **threaded** dataflow executor snapshots every read it cannot
//!   serve from a bound input — reads of written buffers, and of
//!   never-written buffers bound as outputs — because its workers
//!   cannot borrow the outputs the main thread keeps mutable access to.
//!
//! (Simulated cost is untouched either way: in the model, operand
//! marshalling is covered by the invocation charge.)
//!
//! Accounting flows through the machine exactly as eager execution
//! does: per-op model charges into `Stats` and the trace. What changes
//! with scheduling is *which* (coalesced) ops are issued and in what
//! (canonical) order — never how an issued op is charged.
//!
//! # Multi-unit execution
//!
//! [`Schedule::run_parallel`] runs the barrier-free **dataflow**
//! driver: ops dispatch as soon as their hazard predecessors' results
//! have been committed, with no barrier between hazard levels. All
//! scheduling decisions are resolved *at plan time* by
//! [`crate::dataflow`]'s deterministic placement simulation (which unit
//! runs each op, in what per-unit order, and with which deterministic
//! steals), so the runtime is a pure executor of fixed per-unit
//! sequences and the results cannot depend on thread timing:
//!
//! * **accounting** — every op is charged on the main thread, up
//!   front, in emission order (after validating all bindings), so
//!   `Stats` and the trace digest are byte-identical to the serial
//!   run's; wall-clock advances once, by the placement's simulated
//!   makespan, so `time()` lands on
//!   [`Schedule::dataflow_makespan_seeded`] (never above
//!   [`Schedule::makespan`], the sum of per-level LPT makespans);
//! * **numerics** — workers execute into per-op scratch; the main
//!   thread commits finished scratches and only then releases hazard
//!   successors, so overlapping writes retire in hazard (emission)
//!   order and elements are bit-identical to [`Schedule::run`] for
//!   every unit count, steal seed, and interleaving. Accumulate chains
//!   stay in their scratch: where the compiled plan records a carry
//!   ([`crate::ExecutablePlan::carried_ops`] — the next op touching an
//!   output rectangle accumulates into exactly that rectangle), the
//!   commit hands the scratch to that op as its pre-seeded destination
//!   instead of copying it back, so the threaded executor's main thread
//!   copies one strip per chain, not a seed and a merge per op. The
//!   hand-off holds bytes identical to what the host rectangle would
//!   hold, and nothing reads or writes the rectangle in between;
//! * **pack-cache counters** are per unit, and each unit consumes its
//!   fixed op sequence in order, so every unit's executor sees the
//!   same op subsequence on every run;
//! * **dispatch overhead** — each idle unit receives its entire ready
//!   prefix as *one* channel message, and reads are snapshotted
//!   incrementally, right before their first reader's dispatch. On a
//!   single-core host an inline executor skips workers, channels, and
//!   scratch entirely and replays the placement's global order through
//!   the serial runtime's in-place loop — same bytes, same per-unit
//!   cache counters, no dispatch overhead ([`DataflowTuning::inline`]
//!   forces either executor).
//!
//! # Fault tolerance
//!
//! Every entry point has a fallible `try_*` form returning
//! [`TcuError`] — binding mistakes, plan/machine mismatches, and op
//! contract violations come back as values; the legacy `bind_*`/`run*`
//! names are thin wrappers that panic with the error's `Display`
//! (preserving every historical panic message). On top of that,
//! [`Schedule::try_run_parallel`] *recovers* from unit faults: every
//! per-op execution is contained with `catch_unwind`, transient faults
//! (an [`InjectedFault`] payload, as injected by
//! [`tcu_core::FaultyExecutor`]) are retried in place with simulated
//! backoff charged into wall-clock, and permanently failing units are
//! quarantined for the rest of the run, with their unexecuted ops
//! re-partitioned onto the survivors via [`partition_lpt`] (preserving
//! the per-unit queues' start-order invariant, so progress is never
//! deadlocked). Recovery is unobservable in results by construction:
//! per-op `Stats`/trace charges happen on the main thread before
//! numerics, faulted ops re-execute against intact (or rebuilt)
//! destinations, and fault/retry/quarantine trace annotations are
//! excluded from the digest — so a recoverable faulty run's elements,
//! `Stats`, and digest are byte-identical to the fault-free run's, with
//! only `time()` (backoff + requeue makespans) and
//! [`tcu_core::FaultStats`] recording that recovery happened. The
//! annotations themselves are recorded in placement order (the
//! threaded executor buffers them and records them when the run ends,
//! `Err` included), so under transient faults both executors write the
//! same fault trace on every run.
//!
//! Charges are recorded up front, so a parallel run that *fails* after
//! its bindings were checked still carries the full schedule's `Stats`.
//! A *foreign* (non-[`InjectedFault`]) panic — a real executor bug —
//! fails the run with [`TcuError::UnitFault`] wherever the faulting
//! op's destination held the only copy of committed work: every op
//! under the inline executor
//! (it writes in place), and carried ops under the threaded one (the
//! torn scratch was the chain's accumulator). The threaded executor's
//! other ops rebuild from the untouched outputs and requeue, and so
//! does a dead worker's lost batch unless it held a carried
//! accumulator. When the threaded executor fails, it writes every clean
//! accumulator it still holds back into the outputs, so they hold
//! exactly the committed ops' results; a chain whose accumulator was
//! torn keeps its bytes from before the chain.
//!
//! One gap remains: under *permanent* faults the threaded executor's
//! recovery charges, fault trace, and per-unit cache counters may vary
//! with thread timing, because a survivor can run past the faulting
//! op's placement position before the fault surfaces, so the requeue
//! point is physical. Elements, `Stats`, the digest, and the identity
//! `time() = makespan + backoff + recovery` hold regardless; the inline
//! executor is the deterministic reference.

use crate::compile::{CompiledOp, CompiledRead, ExecutablePlan, NO_CARRY};
use crate::dataflow::{place_dataflow, DataflowPlacement, DataflowTuning};
use crate::graph::BufferId;
use crate::scheduler::Schedule;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tcu_core::{
    partition_lpt, BindRole, Executor, FaultKind, InjectedFault, OperandId, ParallelTcuMachine,
    RecoveryPolicy, TcuError, TcuMachine, TensorUnit, WaveAccountant,
};
use tcu_linalg::{Matrix, MatrixView, MatrixViewMut, Scalar};

/// Process-wide epoch allocator: every environment gets a distinct
/// stamp, so operand tags from different environments (different data)
/// can never collide in an executor cache.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Data bindings for one run of a schedule: per-buffer views, split
/// into read-only inputs and mutable (written, possibly also read)
/// outputs.
#[derive(Debug)]
pub struct ExecEnv<'a, T: Scalar> {
    epoch: u64,
    shapes: Vec<(usize, usize)>,
    written: Vec<bool>,
    inputs: Vec<Option<MatrixView<'a, T>>>,
    outputs: Vec<Option<MatrixViewMut<'a, T>>>,
    recorder: Option<std::sync::Arc<dyn tcu_obs::Recorder>>,
}

impl<'a, T: Scalar> ExecEnv<'a, T> {
    /// Fresh bindings for `graph`'s buffers (all unbound, new epoch).
    #[must_use]
    pub fn new(graph: &crate::OpGraph) -> Self {
        let shapes = (0..graph.buffer_count())
            .map(|i| graph.buffer_shape(BufferId(i)))
            .collect::<Vec<_>>();
        let written = (0..graph.buffer_count())
            .map(|i| graph.buffer_written(BufferId(i)))
            .collect::<Vec<_>>();
        Self {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            inputs: vec![None; shapes.len()],
            outputs: shapes.iter().map(|_| None).collect(),
            written,
            shapes,
            recorder: None,
        }
    }

    /// Attach an execution-telemetry recorder to this environment's
    /// runs: the driver forwards it to the machine (per-op execute
    /// spans, pack-cache traffic, fault annotations) and emits its own
    /// stage/merge/dispatch spans through it. Purely observational —
    /// results, `Stats`, traces, and simulated time are unchanged.
    pub fn enable_recorder(&mut self, recorder: std::sync::Arc<dyn tcu_obs::Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The environment's cache-key epoch (diagnostic).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registered buffer shapes, in buffer-id order (the witness
    /// [`Schedule::compile`] checks an environment against).
    pub(crate) fn shapes(&self) -> &[(usize, usize)] {
        &self.shapes
    }

    /// Bind a read-only buffer to a view of its exact registered shape,
    /// returning the binding error instead of panicking. Fails on a
    /// shape mismatch, an id from another graph, or a buffer the graph
    /// writes (written buffers need [`Self::try_bind_output`], and
    /// reads of them resolve against per-op generations).
    pub fn try_bind_input(
        &mut self,
        id: BufferId,
        view: MatrixView<'a, T>,
    ) -> Result<(), TcuError> {
        let expected = *self.shapes.get(id.0).ok_or(TcuError::PlanMismatch {
            what: "binding names a buffer from another graph",
        })?;
        if (view.rows(), view.cols()) != expected {
            return Err(TcuError::BindShape {
                buffer: id.0,
                role: BindRole::Input,
                expected,
                got: (view.rows(), view.cols()),
            });
        }
        if self.written[id.0] {
            return Err(TcuError::BindWrittenAsInput { buffer: id.0 });
        }
        self.inputs[id.0] = Some(view);
        Ok(())
    }

    /// Bind a read-only buffer to a view of its exact registered shape.
    ///
    /// # Panics
    /// Panics on shape mismatch, an id from another graph, or a buffer
    /// the graph writes (written buffers need [`Self::bind_output`], and
    /// reads of them resolve against per-op generations).
    pub fn bind_input(&mut self, id: BufferId, view: MatrixView<'a, T>) {
        self.try_bind_input(id, view)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Bind a written buffer to a mutable view of its registered shape,
    /// returning the binding error instead of panicking. Reads the
    /// graph performs on the same buffer (pipelines) are served from
    /// generation-keyed snapshots of this binding.
    pub fn try_bind_output(
        &mut self,
        id: BufferId,
        view: MatrixViewMut<'a, T>,
    ) -> Result<(), TcuError> {
        let expected = *self.shapes.get(id.0).ok_or(TcuError::PlanMismatch {
            what: "binding names a buffer from another graph",
        })?;
        if (view.rows(), view.cols()) != expected {
            return Err(TcuError::BindShape {
                buffer: id.0,
                role: BindRole::Output,
                expected,
                got: (view.rows(), view.cols()),
            });
        }
        self.outputs[id.0] = Some(view);
        Ok(())
    }

    /// Bind a written buffer to a mutable view of its registered shape.
    /// Reads the graph performs on the same buffer (pipelines) are
    /// served from generation-keyed snapshots of this binding.
    ///
    /// # Panics
    /// Panics on shape mismatch or an id from another graph.
    pub fn bind_output(&mut self, id: BufferId, view: MatrixViewMut<'a, T>) {
        self.try_bind_output(id, view)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Check that every buffer `plan` touches is bound: each op's output
    /// (as an output), each read (as an input or an output). Every
    /// executor runs this before it charges or executes anything, so a
    /// binding mistake fails the run with nothing issued.
    fn check_bound(&self, plan: &ExecutablePlan) -> Result<(), TcuError> {
        for cop in &plan.ops {
            if self.outputs[cop.out_buf].is_none() {
                return Err(TcuError::Unbound {
                    buffer: cop.out_buf,
                    written: true,
                });
            }
            for r in [&cop.a, &cop.b] {
                if self.inputs[r.buf].is_none() && self.outputs[r.buf].is_none() {
                    return Err(TcuError::Unbound {
                        buffer: r.buf,
                        written: false,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Per-buffer cache-tag stamps for one execution of a schedule.
///
/// A tag is sound only while equal tags guarantee equal bytes, so two
/// stamps with different lifetimes back the two read sources:
///
/// * **input-bound** buffers are borrowed, hence frozen, for the
///   environment's whole lifetime — their reads carry the environment
///   *epoch*, so packed strips survive across repeated runs of one
///   environment (the plan-once / run-many contract);
/// * **output-bound** buffers mutate as the schedule executes, and a
///   *second* run of the same environment starts from different bytes
///   (e.g. accumulates applied twice) at the same emission generations —
///   so their reads carry a fresh per-run stamp, retiring every strip
///   packed from written data when the run ends.
///
/// Input bindings cannot change mid-run (the run borrows the
/// environment mutably), so the per-buffer choice is resolved once here
/// instead of per op. Both stamps are drawn from one process-wide
/// counter, so they can never collide with each other. The stamp
/// occupies the upper 32 bits of `OperandId::generation` (emission
/// generation below): aliasing would need 2³² environments+runs while
/// a strip from the first still sits in a bounded FIFO cache — noted
/// here rather than guarded, since the guard would be a panic after
/// four billion runs.
fn tag_stamps<T: Scalar>(env: &ExecEnv<'_, T>) -> Vec<u64> {
    let run = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
    env.inputs
        .iter()
        .map(|i| if i.is_some() { env.epoch } else { run })
        .collect()
}

/// The cache tag of one compiled read under its buffer's run stamp.
fn read_tag(r: &CompiledRead, stamp: u64) -> OperandId {
    OperandId {
        buffer: r.buf as u64,
        generation: stamp.wrapping_shl(32) | u64::from(r.gen),
        origin: (r.r0, r.c0),
        extent: (r.rows, r.cols),
    }
}

impl Schedule {
    /// Execute the planned stream on `mach` with `env`'s bindings: each
    /// emitted node issues one tagged tensor instruction (charged and
    /// traced by the machine exactly like an eager call), outputs land
    /// in the bound views. The serial order is the schedule's canonical
    /// order; on a pack-caching host executor, repeated left-operand
    /// regions are packed once per content version per environment.
    ///
    /// # Panics
    /// Panics if the machine's `√m` differs from the one the schedule
    /// was planned for, if the environment's buffer shapes disagree
    /// with the planned graph's, or if a referenced buffer is unbound.
    pub fn run<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut TcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
    ) {
        self.try_run(mach, env).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Schedule::run`], returning errors instead of panicking:
    /// plan/machine mismatches, op contract violations, and unbound
    /// buffers come back as [`TcuError`]s. Every one of them is found
    /// before the first op issues, so an `Err` leaves the machine
    /// (`stats()`, `time()`, trace) and the bound outputs as they were.
    /// Fault *recovery* (retry, quarantine) is a property of the
    /// parallel driver — see [`Schedule::try_run_parallel`]; the serial
    /// path has no worker threads to contain, so an executor panic here
    /// propagates.
    pub fn try_run<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut TcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
    ) -> Result<(), TcuError> {
        if mach.sqrt_m() != self.sqrt_m {
            return Err(TcuError::PlanMismatch {
                what: "schedule was planned for a different tensor-unit size",
            });
        }
        let plan = self.compile(env)?;
        env.check_bound(plan)?;
        if let (Some(rec), None) = (env.recorder.clone(), mach.recorder_handle()) {
            mach.enable_recorder(rec);
        }
        let stamps = tag_stamps(env);
        run_in_place(
            plan,
            0..plan.ops(),
            &env.inputs,
            &mut env.outputs,
            &stamps,
            None,
            |_, i, a, tag, b, out| {
                mach.issue_into_tagged(plan.ops[i].op, a, Some(tag), b, out);
                Ok(())
            },
        )
    }

    /// Execute the planned stream *across the units* of a parallel
    /// machine on the barrier-free dataflow driver (see the
    /// [module docs](self)): elements, `Stats`, and trace digests are
    /// byte-identical to the serial [`Schedule::run`] for every unit
    /// count; only host-thread structure and the simulated wall-clock
    /// ([`Schedule::planned_parallel_time`]) differ.
    ///
    /// # Panics
    /// Panics if the machine's `√m` or unit count differs from what the
    /// schedule was planned for, if the machine's unit splits ops
    /// differently than the planning unit did (tall support must
    /// agree), if the environment's buffer shapes disagree with the
    /// planned graph's, if a referenced buffer is unbound, or if a
    /// fault was unrecoverable under the default [`RecoveryPolicy`].
    pub fn run_parallel<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut ParallelTcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
    ) {
        self.try_run_parallel(mach, env)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Schedule::run_parallel`] with fault recovery under the default
    /// [`RecoveryPolicy`] (3 attempts per op, quarantine on). See
    /// [`Schedule::try_run_parallel_with`].
    pub fn try_run_parallel<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut ParallelTcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
    ) -> Result<(), TcuError> {
        self.try_run_parallel_with(mach, env, RecoveryPolicy::default())
    }

    /// The fault-tolerant parallel entry point under `policy`:
    /// [`Schedule::try_run_dataflow_with`] with the default
    /// [`DataflowTuning`] (steal seed 0, inline exactly on a one-core
    /// host).
    pub fn try_run_parallel_with<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut ParallelTcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
        policy: RecoveryPolicy,
    ) -> Result<(), TcuError> {
        self.try_run_dataflow_with(mach, env, policy, DataflowTuning::default())
    }

    /// The fault-tolerant dataflow driver under explicit `policy` and
    /// `tuning`. Resolves the deterministic placement, validates every
    /// op's bindings, charges the whole stream up front in emission
    /// order (so `Stats` and the digest equal the serial run's even
    /// under recovery), then executes it inline or on the worker pool
    /// per `tuning` — the choice, like the steal seed, is byte-
    /// unobservable in elements, `Stats`, and digest. Wall-clock
    /// advances by [`Schedule::dataflow_makespan_seeded`] of the
    /// tuning's seed (plus any charged backoff/recovery); on `Err` the
    /// makespan is not charged and outputs hold only the committed
    /// ops' results — the threaded executor writes back every clean
    /// carried accumulator before returning, and never merges a torn
    /// scratch. A *foreign* panic is the exception: under the inline
    /// executor, which writes destinations in place, the failing op's
    /// own region may be partially written; under the threaded one, a
    /// foreign panic inside a carried op returns
    /// [`TcuError::UnitFault`] and its chain's rectangle keeps the bytes
    /// it held before the chain began (the torn scratch was the chain's
    /// only copy).
    pub fn try_run_dataflow_with<T: Scalar, U: TensorUnit, E: Executor>(
        &self,
        mach: &mut ParallelTcuMachine<U, E>,
        env: &mut ExecEnv<'_, T>,
        policy: RecoveryPolicy,
        tuning: DataflowTuning,
    ) -> Result<(), TcuError> {
        if mach.sqrt_m() != self.sqrt_m {
            return Err(TcuError::PlanMismatch {
                what: "schedule was planned for a different tensor-unit size",
            });
        }
        if mach.units() != self.units() {
            return Err(TcuError::PlanMismatch {
                what: "schedule was planned for a different unit count",
            });
        }
        let plan = self.compile(env)?;
        env.check_bound(plan)?;
        // The machine must split ops exactly as the planning unit did
        // (the placement's invocation walk depends on it) — checked for
        // the whole stream before anything is charged or executed.
        for (cop, &inv) in plan.ops.iter().zip(&self.node_invocations) {
            if mach.unit().invocations(&cop.op).0 as u32 != inv {
                return Err(TcuError::PlanMismatch {
                    what: "machine splits ops differently than the schedule planned \
                           (tall-operand support must match the planning unit)",
                });
            }
        }
        if let (Some(rec), None) = (env.recorder.clone(), mach.recorder_handle()) {
            mach.enable_recorder(rec);
        }
        let recorder = mach.recorder_handle();
        let stamps = tag_stamps(env);
        let placement = place_dataflow(self, plan, tuning.steal_seed);
        let inputs = &env.inputs;
        let outputs = &mut env.outputs;
        let (mut acct, execs) = mach.wave_parts();

        // Charge the entire stream in emission order on the main
        // thread: byte-identical `Stats` and trace to the serial run,
        // no matter how execution interleaves below.
        for cop in &plan.ops {
            acct.charge_wave_op(&cop.op);
        }

        if tuning.use_inline() {
            run_dataflow_inline(
                self,
                plan,
                &placement,
                &mut acct,
                execs,
                inputs,
                outputs,
                &stamps,
                policy,
                recorder.as_deref(),
            )
        } else {
            let arena: Vec<OnceLock<Matrix<T>>> =
                (0..plan.slots).map(|_| OnceLock::new()).collect();
            run_dataflow_threaded(
                self, plan, &placement, &mut acct, execs, &arena, inputs, outputs, &stamps, policy,
                &recorder,
            )
        }
    }
}

/// The in-place executor behind serial [`Schedule::try_run`] and the
/// inline dataflow executor. Walks `order`; for the `k`-th op `i` it
/// takes the output binding out, resolves both operands, calls
/// `issue(k, i, a, a's cache tag, b, destination rectangle)`, and puts
/// the binding back (also when `issue` fails). A read of a
/// same-buffer key is served from its arena slot, snapshotted at the
/// key's first reader in `order` (telemetry: a stage span on `rec`);
/// every other read is zero-copy from the bound input or output. Sound
/// for any `order` that respects every hazard edge, which both emission
/// order and the placement's global order do: each reader then sees
/// exactly the content version its key names. Bindings are checked up
/// front ([`ExecEnv::check_bound`]), so none is missing here.
fn run_in_place<T: Scalar>(
    plan: &ExecutablePlan,
    order: impl IntoIterator<Item = usize>,
    inputs: &[Option<MatrixView<'_, T>>],
    outputs: &mut [Option<MatrixViewMut<'_, T>>],
    stamps: &[u64],
    rec: Option<&dyn tcu_obs::Recorder>,
    mut issue: impl FnMut(
        usize,
        usize,
        MatrixView<'_, T>,
        OperandId,
        MatrixView<'_, T>,
        &mut MatrixViewMut<'_, T>,
    ) -> Result<(), TcuError>,
) -> Result<(), TcuError> {
    let mut arena: Vec<Option<Matrix<T>>> = (0..plan.slots).map(|_| None).collect();
    for (k, i) in order.into_iter().enumerate() {
        let cop = &plan.ops[i];
        let t0 = rec.map(tcu_obs::Recorder::now_ns);
        let mut staged = 0;
        for r in [&cop.a, &cop.b] {
            let slot = &mut arena[r.slot as usize];
            if r.same_buf_key && slot.is_none() {
                let host = outputs[r.buf]
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("same-buffer key bound (checked up front)"));
                *slot = Some(
                    host.as_view()
                        .subview(r.r0, r.c0, r.rows, r.cols)
                        .to_matrix(),
                );
                staged += 1;
            }
        }
        if staged > 0 {
            emit_span(
                rec,
                tcu_obs::Lane::Scheduler,
                t0,
                tcu_obs::EventKind::Stage { copies: staged },
            );
        }
        let mut host = outputs[cop.out_buf]
            .take()
            .unwrap_or_else(|| unreachable!("output bound (checked up front)"));
        // A same-buffer key is the only way to read the buffer `host`
        // holds, so every direct read below finds its binding in place.
        let read = |r: &CompiledRead| {
            if r.same_buf_key {
                return arena[r.slot as usize]
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("snapshot staged above"))
                    .view();
            }
            match &inputs[r.buf] {
                Some(v) => v.subview(r.r0, r.c0, r.rows, r.cols),
                None => outputs[r.buf]
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("read bound (checked up front)"))
                    .as_view()
                    .subview(r.r0, r.c0, r.rows, r.cols),
            }
        };
        let (a, b) = (read(&cop.a), read(&cop.b));
        let tag = read_tag(&cop.a, stamps[cop.a.buf]);
        let mut out = host.subview_mut(cop.out_r0, cop.out_c0, cop.out_rows, cop.out_cols);
        let result = issue(k, i, a, tag, b, &mut out);
        outputs[cop.out_buf] = Some(host);
        result?;
    }
    Ok(())
}

/// Record one closed telemetry span: `t0` is the recorder clock at the
/// phase's start (captured only when recording), the duration is
/// measured here. No-op when recording is off — both arguments are
/// `None` together, so the disabled path is two `Option` checks.
fn emit_span(
    rec: Option<&dyn tcu_obs::Recorder>,
    lane: tcu_obs::Lane,
    t0: Option<u64>,
    kind: tcu_obs::EventKind,
) {
    if let (Some(r), Some(t0)) = (rec, t0) {
        r.record(
            lane,
            tcu_obs::SpanEvent {
                kind,
                t_ns: t0,
                dur_ns: r.now_ns().saturating_sub(t0),
            },
        );
    }
}

/// One op bound for a specific unit's worker.
struct WorkItem<'v, T: Scalar> {
    /// Compiled-op index (canonical order), for the merge pass.
    idx: usize,
    op: tcu_core::TensorOp,
    a: MatrixView<'v, T>,
    tag: OperandId,
    b: MatrixView<'v, T>,
    scratch: Matrix<T>,
    /// Whether `scratch` came from the recycling pool (telemetry only).
    reused: bool,
    /// Rows the op charges (telemetry annotation for its execute span).
    rows: u64,
    /// Simulated cost charged for the op (telemetry annotation).
    sim_cost: u64,
}

/// Resolve a compiled read on the threaded path: the staged snapshot
/// if its slot is filled (every read no bound input serves, see
/// [`stage_pending_reads`]), otherwise zero-copy from the bound input.
fn staged_read<'v, T: Scalar>(
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    r: &CompiledRead,
) -> Result<MatrixView<'v, T>, TcuError> {
    if let Some(m) = arena[r.slot as usize].get() {
        return Ok(m.view());
    }
    match inputs[r.buf].as_ref() {
        Some(v) => Ok(v.subview(r.r0, r.c0, r.rows, r.cols)),
        None => Err(TcuError::Unbound {
            buffer: r.buf,
            written: false,
        }),
    }
}

/// An exactly-shaped scratch matrix from the recycling pool, or a
/// fresh zeroed one. Recycled scratch is re-zeroed when the op needs
/// zeros (`zero`): an executor is allowed to skip numerics entirely
/// (replay), so a recycled buffer must present the same bytes a fresh
/// allocation would. Accumulating callers skip the zeroing and seed
/// every element from the destination instead.
fn take_scratch<T: Scalar>(
    pool: &mut Vec<Matrix<T>>,
    rows: usize,
    cols: usize,
    zero: bool,
) -> (Matrix<T>, bool) {
    if let Some(pos) = pool
        .iter()
        .position(|m| m.rows() == rows && m.cols() == cols)
    {
        let mut m = pool.swap_remove(pos);
        if zero {
            m.as_mut_slice().fill(T::ZERO);
        }
        (m, true)
    } else {
        (Matrix::zeros(rows, cols), false)
    }
}

/// Resolve one compiled op into its executable work item: operand
/// views (staged snapshots or bound inputs), left-operand cache tag,
/// and a scratch destination — zeros for overwrite ops (the kernel
/// writes every element), the exact destination bytes for accumulating
/// ops (so the kernel performs the identical arithmetic an in-place
/// accumulate would). Also the rebuild path for faulted items: an op's
/// destination stays untouched until its own commit, so building the
/// same item twice yields byte-identical operands and seed.
fn build_item<'v, T: Scalar>(
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    outputs: &[Option<MatrixViewMut<'_, T>>],
    stamps: &[u64],
    pool: &mut Vec<Matrix<T>>,
    plan: &ExecutablePlan,
    idx: usize,
) -> Result<WorkItem<'v, T>, TcuError> {
    let mut reused = false;
    let mut item = resolve_item(arena, inputs, stamps, plan, idx, |cop| {
        let (mut scratch, recycled) =
            take_scratch(pool, cop.op.rows, cop.op.width, !cop.op.accumulate);
        reused = recycled;
        if cop.op.accumulate {
            let host = outputs[cop.out_buf].as_ref().ok_or(TcuError::Unbound {
                buffer: cop.out_buf,
                written: true,
            })?;
            scratch.view_mut().copy_from(host.as_view().subview(
                cop.out_r0,
                cop.out_c0,
                cop.out_rows,
                cop.out_cols,
            ));
        }
        Ok(scratch)
    })?;
    item.reused = reused;
    Ok(item)
}

/// Resolve op `idx`'s operand views and cache tag, then wrap them
/// around the destination `scratch` supplies — called only once the
/// reads have resolved, so an error never drops a carried accumulator.
fn resolve_item<'v, T: Scalar>(
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    stamps: &[u64],
    plan: &ExecutablePlan,
    idx: usize,
    scratch: impl FnOnce(&CompiledOp) -> Result<Matrix<T>, TcuError>,
) -> Result<WorkItem<'v, T>, TcuError> {
    let cop = &plan.ops[idx];
    let a = staged_read(arena, inputs, &cop.a)?;
    let b = staged_read(arena, inputs, &cop.b)?;
    let tag = read_tag(&cop.a, stamps[cop.a.buf]);
    let scratch = scratch(cop)?;
    Ok(WorkItem {
        idx,
        op: cop.op,
        a,
        tag,
        b,
        scratch,
        // Telemetry annotations: `build_item` stamps `reused`, the
        // assembly pass the rest from the accountant (a rebuild path
        // copies them from the plan).
        reused: false,
        rows: 0,
        sim_cost: 0,
    })
}

/// Op `idx`'s work item around the accumulator its chain predecessor
/// left in `resident[idx]` (threaded dataflow driver): no seed copy.
fn carried_item<'v, T: Scalar>(
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    stamps: &[u64],
    plan: &ExecutablePlan,
    idx: usize,
    resident: &mut [Option<Matrix<T>>],
) -> Result<WorkItem<'v, T>, TcuError> {
    resolve_item(arena, inputs, stamps, plan, idx, |_| {
        resident[idx].take().ok_or(TcuError::PlanMismatch {
            what: "carried accumulator missing at dispatch (driver bug)",
        })
    })
}

/// A recovery annotation of one op: produced on a worker thread
/// (faults, retries) or by the main thread's quarantine, and recorded
/// into the machine's trace and [`tcu_core::FaultStats`] on the main
/// thread.
#[derive(Clone, Copy)]
enum Note {
    /// A contained fault (transient = retried, permanent = unit died).
    Fault { transient: bool },
    /// Retry `attempt` (counting from 2, the first retry) of the op.
    Retry { attempt: u32 },
    /// The op's unit was quarantined, `requeued` ops moved to survivors.
    Quarantine { requeued: usize },
}

/// The threaded executor's recovery annotations, held back until the
/// run ends and then recorded in placement order — the order the
/// inline executor meets them — instead of the order worker messages
/// happen to arrive in. Notes of one op keep their arrival order (the
/// sort is stable), which is their occurrence order on its unit. Their
/// telemetry instants are emitted at record time, i.e. at the run's end.
struct NoteLog {
    /// Each op's position in the placement's global order.
    pos: Vec<u32>,
    /// `(position, unit, op index, note)`, in arrival order.
    notes: Vec<(u32, usize, usize, Note)>,
}

impl NoteLog {
    fn new(order: &[u32]) -> Self {
        let mut pos = vec![0u32; order.len()];
        for (k, &i) in order.iter().enumerate() {
            pos[i as usize] = k as u32;
        }
        Self {
            pos,
            notes: Vec::new(),
        }
    }

    fn push(&mut self, unit: usize, idx: usize, note: Note) {
        self.notes.push((self.pos[idx], unit, idx, note));
    }

    /// Record every buffered note into the machine, in placement order.
    fn record<U: TensorUnit>(mut self, acct: &mut WaveAccountant<'_, U>, plan: &ExecutablePlan) {
        self.notes.sort_by_key(|&(pos, ..)| pos);
        for (_, unit, idx, note) in self.notes {
            match note {
                Note::Fault { transient } => acct.record_fault(unit, transient),
                Note::Retry { attempt } => {
                    let _ = acct.record_retry(unit, attempt, &plan.ops[idx].op);
                }
                Note::Quarantine { requeued } => acct.record_quarantine(unit, requeued),
            }
        }
    }
}

/// Why a unit's worker stopped executing mid-round.
enum Terminal {
    /// One op stayed transiently faulting through `max_attempts`.
    Exhausted { attempts: u32 },
    /// The unit failed permanently. `dirty` means the panic was not an
    /// [`InjectedFault`] (which fires before any write), so the
    /// in-flight item's scratch must be rebuilt before requeueing.
    Dead { dirty: bool },
}

/// Everything one unit's worker produced in one execution round.
struct UnitOutcome<'v, T: Scalar> {
    /// Completed `(op index, filled scratch)` pairs for the merge.
    done: Vec<(usize, Matrix<T>)>,
    /// `(op index, fault/retry annotation)`, in occurrence order.
    notes: Vec<(usize, Note)>,
    /// Why the worker stopped early, if it did.
    terminal: Option<Terminal>,
    /// Items not executed (the in-flight item first).
    leftover: Vec<WorkItem<'v, T>>,
}

/// Run one unit's batch in queue order on its executor, with
/// per-op fault containment: every execution is wrapped in
/// `catch_unwind`, transient [`InjectedFault`]s retry in place (bounded
/// by `max_attempts` — each retry consumes the executor's next
/// execution index, so a fault plan spacing its transients out by one
/// index always recovers), and permanent faults or foreign panics stop
/// the unit, returning the unexecuted items for requeueing. Injected
/// faults fire before the executor touches the scratch, so a retried
/// or requeued item's seed is exactly as built.
fn run_items_contained<'v, T: Scalar, E: Executor>(
    exec: &mut E,
    items: Vec<WorkItem<'v, T>>,
    max_attempts: u32,
    rec: Option<&dyn tcu_obs::Recorder>,
    unit: u32,
) -> UnitOutcome<'v, T> {
    let mut out = UnitOutcome {
        done: Vec::new(),
        notes: Vec::new(),
        terminal: None,
        leftover: Vec::new(),
    };
    let mut iter = items.into_iter();
    while let Some(mut item) = iter.next() {
        let mut attempt = 1u32;
        loop {
            let t0 = rec.map(tcu_obs::Recorder::now_ns);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = exec.execute_tagged(
                    &item.op,
                    item.a,
                    Some(item.tag),
                    item.b,
                    &mut item.scratch.view_mut(),
                );
            }));
            match result {
                Ok(()) => {
                    emit_span(
                        rec,
                        tcu_obs::Lane::Unit(unit),
                        t0,
                        tcu_obs::EventKind::OpExec {
                            unit,
                            rows: item.rows,
                            sim_cost: item.sim_cost,
                        },
                    );
                    out.done.push((item.idx, item.scratch));
                    break;
                }
                Err(payload) => {
                    let terminal = match payload.downcast::<InjectedFault>() {
                        Ok(fault) if fault.kind == FaultKind::Transient => {
                            out.notes.push((item.idx, Note::Fault { transient: true }));
                            if attempt >= max_attempts {
                                Some(Terminal::Exhausted { attempts: attempt })
                            } else {
                                attempt += 1;
                                out.notes.push((item.idx, Note::Retry { attempt }));
                                None
                            }
                        }
                        Ok(_) => {
                            out.notes.push((item.idx, Note::Fault { transient: false }));
                            Some(Terminal::Dead { dirty: false })
                        }
                        Err(_foreign) => {
                            out.notes.push((item.idx, Note::Fault { transient: false }));
                            Some(Terminal::Dead { dirty: true })
                        }
                    };
                    if let Some(terminal) = terminal {
                        out.terminal = Some(terminal);
                        out.leftover.push(item);
                        out.leftover.extend(iter);
                        return out;
                    }
                    // else: retry the same item on the next loop pass.
                }
            }
        }
    }
    out
}

/// One worker→main message of the threaded dataflow driver: a batch's
/// outcome, or a drop-guard notice that the worker died outside per-op
/// containment (the outcome rides in a `Box` so the two variants stay
/// close in size).
enum DfMsg<'v, T: Scalar> {
    Done(usize, Box<UnitOutcome<'v, T>>),
    Gone(usize),
}

/// Arms a dataflow worker with a death notice: if the worker thread
/// unwinds anywhere outside `run_items_contained`'s per-op containment,
/// the guard's drop sends [`DfMsg::Gone`], so the main thread — which
/// blocks on one shared result channel — can never wait forever on a
/// reply that will not come. Disarmed on normal shutdown.
struct GoneGuard<'v, T: Scalar> {
    unit: usize,
    tx: std::sync::mpsc::Sender<DfMsg<'v, T>>,
    armed: bool,
}

impl<T: Scalar> Drop for GoneGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(DfMsg::Gone(self.unit));
        }
    }
}

/// Stage op `idx`'s reads that no bound input serves (reads of written
/// buffers, and of never-written buffers bound as outputs) whose
/// snapshot slots are still empty, right before the op's dispatch.
/// Sound at that point: the reader's hazard predecessors (every
/// generation-`gen` writer among them) have committed, and any later
/// writer is hazard-gated behind this reader's own commit, so the region
/// holds exactly the bytes the read's key names.
fn stage_pending_reads<T: Scalar>(
    arena: &[OnceLock<Matrix<T>>],
    inputs: &[Option<MatrixView<'_, T>>],
    outputs: &[Option<MatrixViewMut<'_, T>>],
    plan: &ExecutablePlan,
    idx: usize,
) -> Result<u32, TcuError> {
    let cop = &plan.ops[idx];
    let mut staged = 0;
    for r in [&cop.a, &cop.b] {
        if inputs[r.buf].is_some() || arena[r.slot as usize].get().is_some() {
            continue;
        }
        let snap = outputs[r.buf]
            .as_ref()
            .ok_or(TcuError::Unbound {
                buffer: r.buf,
                written: false,
            })?
            .as_view()
            .subview(r.r0, r.c0, r.rows, r.cols)
            .to_matrix();
        let _ = arena[r.slot as usize].set(snap);
        staged += 1;
    }
    Ok(staged)
}

/// Re-partition displaced ops (a quarantined unit's unexecuted work)
/// onto the units not yet quarantined via LPT over their invocation
/// costs, charging the batch's makespan as recovery time — the shared
/// basis of the inline and threaded recovery paths. Returns each op's
/// survivor, as `(op index, unit)`.
fn repartition<U: TensorUnit>(
    acct: &mut WaveAccountant<'_, U>,
    plan: &ExecutablePlan,
    displaced: &[usize],
    quarantined: &[bool],
    level: usize,
) -> Result<Vec<(usize, usize)>, TcuError> {
    let survivors: Vec<usize> = (0..quarantined.len())
        .filter(|&v| !quarantined[v])
        .collect();
    if survivors.is_empty() {
        return Err(TcuError::AllUnitsQuarantined {
            wave: level,
            pending: displaced.len(),
        });
    }
    let costs: Vec<u64> = displaced
        .iter()
        .map(|&j| acct.op_cost(&plan.ops[j].op))
        .collect();
    let part = partition_lpt(&costs, survivors.len());
    acct.charge_recovery(part.makespan());
    Ok(displaced
        .iter()
        .zip(&part.assignment)
        .map(|(&j, &slot)| (j, survivors[slot]))
        .collect())
}

/// Insert re-partitioned ops into their survivors' queues beyond the
/// dispatch cursor, keeping every queue sorted by `(placement start,
/// emission index)`. That invariant is the threaded executor's
/// deadlock-freedom proof: hazard edges only ever point to strictly
/// larger `(start, index)` keys, so the uncommitted op with the
/// globally smallest key always sits at some live queue's front with
/// every predecessor committed — dispatch can always progress. (Items
/// are rebuilt from the untouched environment at their next dispatch,
/// which also covers a dirty in-flight scratch.)
fn requeue(moves: Vec<(usize, usize)>, start: &[u64], queues: &mut [Vec<u32>], cursor: &[usize]) {
    for (j, v) in moves {
        let key = (start[j], j as u32);
        let pos = queues[v][cursor[v]..].partition_point(|&x| (start[x as usize], x) < key);
        queues[v].insert(cursor[v] + pos, j as u32);
    }
}

/// The inline dataflow executor: replay the placement's global
/// `(start, unit, index)` order through [`run_in_place`] — no workers,
/// no channels, no scratch — executing each op on its assigned unit's
/// executor directly into the bound destination. Per-unit op sequences
/// are the global order filtered by unit, i.e. exactly the threaded
/// executor's queues, so pack-cache counters and fault-plan outcomes
/// match the threaded driver op for op. Sharing the serial runtime's
/// loop (same-buffer snapshots only, zero-copy reads, in-place writes)
/// is what makes single-core dataflow dispatch overhead ~zero.
#[allow(clippy::too_many_arguments)]
fn run_dataflow_inline<T: Scalar, U: TensorUnit, E: Executor>(
    sched: &Schedule,
    plan: &ExecutablePlan,
    placement: &DataflowPlacement,
    acct: &mut WaveAccountant<'_, U>,
    execs: &mut [E],
    inputs: &[Option<MatrixView<'_, T>>],
    outputs: &mut [Option<MatrixViewMut<'_, T>>],
    stamps: &[u64],
    policy: RecoveryPolicy,
    recorder: Option<&dyn tcu_obs::Recorder>,
) -> Result<(), TcuError> {
    let max_attempts = policy.max_attempts.max(1);
    let s = acct.sqrt_m();
    let mut unit_of = placement.unit_of.clone();
    let mut quarantined = vec![false; execs.len()];
    let order = placement.order.iter().map(|&i| i as usize);
    run_in_place(
        plan,
        order,
        inputs,
        outputs,
        stamps,
        recorder,
        |k, i, a, tag, b, out| {
            let cop = &plan.ops[i];
            let level = sched.nodes()[i].level;
            let rows = cop.op.charge_rows(s) as u64;
            let sim_cost = acct.op_cost(&cop.op);
            let u0 = unit_of[i] as usize;
            acct.record_ready(u0, 1);
            if placement.home[i] as usize != u0 {
                acct.record_steal(placement.home[i] as usize, u0);
            }
            let mut attempt = 1u32;
            loop {
                let u = unit_of[i] as usize;
                let t0 = recorder.map(tcu_obs::Recorder::now_ns);
                let exec = &mut execs[u];
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = exec.execute_tagged(&cop.op, a, Some(tag), b, out);
                }));
                match result {
                    Ok(()) => {
                        emit_span(
                            recorder,
                            tcu_obs::Lane::Unit(u as u32),
                            t0,
                            tcu_obs::EventKind::OpExec {
                                unit: u as u32,
                                rows,
                                sim_cost,
                            },
                        );
                        return Ok(());
                    }
                    Err(payload) => match payload.downcast::<InjectedFault>() {
                        Ok(fault) if fault.kind == FaultKind::Transient => {
                            acct.record_fault(u, true);
                            if attempt >= max_attempts {
                                return Err(TcuError::RetriesExhausted {
                                    unit: u,
                                    wave: level,
                                    attempts: attempt,
                                });
                            }
                            attempt += 1;
                            let _ = acct.record_retry(u, attempt, &cop.op);
                        }
                        Ok(_) => {
                            // Injected permanent faults fire before the
                            // executor writes, so the destination is intact
                            // and the op re-executes cleanly on a survivor
                            // (with a fresh retry budget, as after any
                            // requeue). The global order itself is unchanged
                            // — it respects every hazard edge regardless of
                            // unit assignment — so only `unit_of` moves.
                            acct.record_fault(u, false);
                            if !policy.quarantine {
                                return Err(TcuError::UnitFault {
                                    unit: u,
                                    wave: level,
                                });
                            }
                            quarantined[u] = true;
                            let displaced: Vec<usize> = placement.order[k..]
                                .iter()
                                .map(|&x| x as usize)
                                .filter(|&j| unit_of[j] as usize == u)
                                .collect();
                            acct.record_quarantine(u, displaced.len());
                            for (j, v) in repartition(acct, plan, &displaced, &quarantined, level)?
                            {
                                unit_of[j] = v as u32;
                            }
                            attempt = 1;
                        }
                        Err(_foreign) => {
                            // A real executor bug may have half-written its
                            // in-place destination — inline execution has
                            // no scratch to rebuild from, so the run fails
                            // (the threaded executor recovers instead).
                            acct.record_fault(u, false);
                            return Err(TcuError::UnitFault {
                                unit: u,
                                wave: level,
                            });
                        }
                    },
                }
            }
        },
    )?;
    acct.complete_wave(placement.makespan);
    Ok(())
}

/// The threaded dataflow executor: per-unit worker threads drain the
/// placement's fixed per-unit queues, the main thread dispatches each
/// idle unit's maximal ready prefix as one batched message, and
/// commits arriving scratches — releasing hazard successors — as
/// frontiers clear. No barrier ever synchronizes units; determinism
/// comes from the fixed queues (per-unit op sequences cannot depend on
/// timing), hazard-gated commits (overlapping writes retire in
/// emission order), and a [`NoteLog`] that records recovery
/// annotations in placement order once the run ends.
///
/// Accumulate chains never round-trip through the outputs: committing
/// an op with a carry ([`crate::compile::Carries`]) parks its
/// scratch in the successor's `resident` slot, and dispatching that
/// successor moves the scratch back out as its pre-seeded destination.
/// Only a chain's last link writes back, so the main thread copies one
/// strip per chain instead of a seed and a merge per op.
#[allow(clippy::too_many_arguments)]
fn run_dataflow_threaded<'v, T: Scalar, U: TensorUnit, E: Executor>(
    sched: &Schedule,
    plan: &ExecutablePlan,
    placement: &DataflowPlacement,
    acct: &mut WaveAccountant<'_, U>,
    execs: &mut [E],
    arena: &'v [OnceLock<Matrix<T>>],
    inputs: &'v [Option<MatrixView<'_, T>>],
    outputs: &mut [Option<MatrixViewMut<'_, T>>],
    stamps: &[u64],
    policy: RecoveryPolicy,
    recorder: &Option<std::sync::Arc<dyn tcu_obs::Recorder>>,
) -> Result<(), TcuError> {
    let units = execs.len();
    let max_attempts = policy.max_attempts.max(1);
    let s = acct.sqrt_m();
    let mut queues = placement.unit_order.clone();
    let mut cursor = vec![0usize; units];
    let mut indeg = plan.preds.clone();
    let mut in_flight = vec![false; units];
    let mut dispatched: Vec<Vec<usize>> = vec![Vec::new(); units];
    let mut quarantined = vec![false; units];
    let mut pool: Vec<Matrix<T>> = Vec::new();
    // Accumulators in transit: `resident[j]` holds the committed result
    // op `j` accumulates onto, from its chain predecessor's commit
    // until `j`'s dispatch (and again if `j` comes back unexecuted).
    let mut resident: Vec<Option<Matrix<T>>> = (0..plan.ops()).map(|_| None).collect();
    let carried_in = &plan.carries().carried_in;
    let mut remaining = plan.ops();
    let mut log = NoteLog::new(&placement.order);

    let run_result = std::thread::scope(|scope| {
        let (result_tx, result_rx) = std::sync::mpsc::channel::<DfMsg<'v, T>>();
        let mut task_tx = Vec::with_capacity(units);
        let mut handles = Vec::with_capacity(units);
        for (u, exec) in execs.iter_mut().enumerate() {
            let (ttx, trx) = std::sync::mpsc::channel::<(Vec<WorkItem<'v, T>>, u32)>();
            let rtx = result_tx.clone();
            let rec = recorder.clone();
            handles.push(scope.spawn(move || {
                let mut guard = GoneGuard {
                    unit: u,
                    tx: rtx,
                    armed: true,
                };
                while let Ok((items, max)) = trx.recv() {
                    let outcome = run_items_contained(exec, items, max, rec.as_deref(), u as u32);
                    if guard.tx.send(DfMsg::Done(u, Box::new(outcome))).is_err() {
                        break;
                    }
                }
                guard.armed = false;
            }));
            task_tx.push(ttx);
        }

        let run_result = (|| -> Result<(), TcuError> {
            loop {
                // Dispatch: every idle, live unit takes its maximal
                // ready prefix — staged, built, and sent as ONE
                // message.
                for u in 0..units {
                    if quarantined[u] || in_flight[u] || cursor[u] >= queues[u].len() {
                        continue;
                    }
                    let rec = recorder.as_deref();
                    let stage_t0 = rec.map(tcu_obs::Recorder::now_ns);
                    let mut staged = 0u32;
                    let mut batch: Vec<WorkItem<'v, T>> = Vec::new();
                    let mut idxs: Vec<usize> = Vec::new();
                    while cursor[u] < queues[u].len() {
                        let i = queues[u][cursor[u]] as usize;
                        if indeg[i] != 0 {
                            break;
                        }
                        let built =
                            stage_pending_reads(arena, inputs, outputs, plan, i).and_then(|n| {
                                staged += n;
                                if carried_in[i] {
                                    carried_item(arena, inputs, stamps, plan, i, &mut resident)
                                } else {
                                    build_item(arena, inputs, outputs, stamps, &mut pool, plan, i)
                                }
                            });
                        let mut item = match built {
                            Ok(item) => item,
                            Err(e) => {
                                reclaim_leftover(
                                    batch,
                                    false,
                                    carried_in,
                                    &mut resident,
                                    &mut pool,
                                );
                                return Err(e);
                            }
                        };
                        let cop = &plan.ops[i];
                        item.rows = cop.op.charge_rows(s) as u64;
                        item.sim_cost = acct.op_cost(&cop.op);
                        if let (Some(r), false) = (rec, carried_in[i]) {
                            let t = r.now_ns();
                            emit_span(
                                rec,
                                tcu_obs::Lane::Scheduler,
                                Some(t),
                                tcu_obs::EventKind::ScratchAcquire {
                                    unit: u as u32,
                                    reused: item.reused,
                                    bytes: (cop.op.rows * cop.op.width * std::mem::size_of::<T>())
                                        as u64,
                                },
                            );
                        }
                        batch.push(item);
                        idxs.push(i);
                        cursor[u] += 1;
                    }
                    if batch.is_empty() {
                        continue;
                    }
                    if staged > 0 {
                        emit_span(
                            rec,
                            tcu_obs::Lane::Scheduler,
                            stage_t0,
                            tcu_obs::EventKind::Stage { copies: staged },
                        );
                    }
                    acct.record_ready(u, batch.len());
                    for &i in &idxs {
                        let h = placement.home[i] as usize;
                        if h != u {
                            acct.record_steal(h, u);
                        }
                    }
                    dispatched[u] = idxs;
                    in_flight[u] = true;
                    // A failed send means the worker is already dead;
                    // its drop guard queued a `Gone`, which the receive
                    // path below recovers from (outputs are untouched,
                    // so the batch rebuilds byte-identically).
                    let _ = task_tx[u].send((batch, max_attempts));
                }
                if remaining == 0 {
                    return Ok(());
                }
                if !in_flight.iter().any(|&b| b) {
                    return Err(TcuError::PlanMismatch {
                        what: "dataflow dispatch stalled with work remaining (driver bug)",
                    });
                }
                let Ok(msg) = result_rx.recv() else {
                    return Err(TcuError::PlanMismatch {
                        what: "dataflow result channel closed (driver bug)",
                    });
                };
                match msg {
                    DfMsg::Done(u, outcome) => {
                        let UnitOutcome {
                            done,
                            notes,
                            terminal,
                            leftover,
                        } = *outcome;
                        in_flight[u] = false;
                        dispatched[u].clear();
                        for (idx, note) in notes {
                            log.push(u, idx, note);
                        }
                        // Commit: retire the batch in emission order,
                        // then release each op's hazard successors.
                        // Commit-on-arrival is safe because overlapping
                        // writers are themselves hazard-ordered — a
                        // later writer cannot even dispatch before the
                        // earlier one commits.
                        if !done.is_empty() {
                            let rec = recorder.as_deref();
                            let merge_t0 = rec.map(tcu_obs::Recorder::now_ns);
                            for &(idx, _) in &done {
                                for &succ in plan.successors_of(idx) {
                                    indeg[succ as usize] -= 1;
                                }
                            }
                            remaining -= done.len();
                            let (items, carried) =
                                commit_done(plan, done, outputs, &mut resident, &mut pool);
                            emit_span(
                                rec,
                                tcu_obs::Lane::Scheduler,
                                merge_t0,
                                tcu_obs::EventKind::Merge { items, carried },
                            );
                        }
                        let Some(terminal) = terminal else {
                            continue;
                        };
                        // A terminal outcome always returns its in-flight
                        // item first: the op the unit stopped at.
                        let at = leftover.first().map_or(0, |it| it.idx);
                        let lvl = sched.nodes()[at].level;
                        let dirty = matches!(terminal, Terminal::Dead { dirty: true });
                        let (mut displaced, lost_carry) =
                            reclaim_leftover(leftover, dirty, carried_in, &mut resident, &mut pool);
                        if let Terminal::Exhausted { attempts } = terminal {
                            return Err(TcuError::RetriesExhausted {
                                unit: u,
                                wave: lvl,
                                attempts,
                            });
                        }
                        // A foreign panic inside a carried op tore the
                        // only copy of its chain's committed result:
                        // nothing to rebuild from, so the run fails (as
                        // the inline executor's in-place writes do).
                        if !policy.quarantine || lost_carry {
                            return Err(TcuError::UnitFault { unit: u, wave: lvl });
                        }
                        quarantined[u] = true;
                        displaced.extend(queues[u][cursor[u]..].iter().map(|&x| x as usize));
                        cursor[u] = queues[u].len();
                        let requeued = displaced.len();
                        log.push(u, at, Note::Quarantine { requeued });
                        let moves = repartition(acct, plan, &displaced, &quarantined, lvl)?;
                        requeue(moves, &placement.start, &mut queues, &cursor);
                    }
                    DfMsg::Gone(u) => {
                        // The worker died outside per-op containment:
                        // its whole in-flight batch is lost, but
                        // nothing of it was committed, so outputs are
                        // pristine and the batch requeues by index —
                        // unless it held a carried accumulator, whose
                        // committed result went down with it.
                        in_flight[u] = false;
                        let at = dispatched[u].first().copied().unwrap_or(0);
                        log.push(u, at, Note::Fault { transient: false });
                        let lvl = sched.nodes()[at].level;
                        if !policy.quarantine || dispatched[u].iter().any(|&i| carried_in[i]) {
                            return Err(TcuError::UnitFault { unit: u, wave: lvl });
                        }
                        quarantined[u] = true;
                        let mut displaced = std::mem::take(&mut dispatched[u]);
                        displaced.extend(queues[u][cursor[u]..].iter().map(|&x| x as usize));
                        cursor[u] = queues[u].len();
                        let requeued = displaced.len();
                        log.push(u, at, Note::Quarantine { requeued });
                        let moves = repartition(acct, plan, &displaced, &quarantined, lvl)?;
                        requeue(moves, &placement.start, &mut queues, &cursor);
                    }
                }
            }
        })();

        drop(task_tx);
        drop(result_tx);
        for h in handles {
            let _ = h.join();
        }
        if run_result.is_err() {
            // Settle what was still in flight when the run failed —
            // finished ops commit, clean carried accumulators return to
            // residence, faults join the log — then write every
            // resident accumulator back, so the outputs hold exactly
            // the committed ops' results.
            for msg in result_rx.try_iter() {
                match msg {
                    DfMsg::Done(u, outcome) => {
                        let UnitOutcome {
                            done,
                            notes,
                            terminal,
                            leftover,
                        } = *outcome;
                        for (idx, note) in notes {
                            log.push(u, idx, note);
                        }
                        commit_done(plan, done, outputs, &mut resident, &mut pool);
                        let dirty = matches!(terminal, Some(Terminal::Dead { dirty: true }));
                        reclaim_leftover(leftover, dirty, carried_in, &mut resident, &mut pool);
                    }
                    DfMsg::Gone(u) => {
                        let at = dispatched[u].first().copied().unwrap_or(0);
                        log.push(u, at, Note::Fault { transient: false });
                    }
                }
            }
            for (j, acc) in resident.iter_mut().enumerate() {
                if let Some(acc) = acc.take() {
                    write_back(plan, j, outputs, &acc);
                }
            }
        }
        run_result
    });
    log.record(acct, plan);
    if run_result.is_ok() {
        debug_assert!(
            resident.iter().all(Option::is_none),
            "every carried chain ends in a write-back"
        );
        acct.complete_wave(placement.makespan);
    }
    run_result
}

/// Retire a batch's finished ops in emission order: an op with a
/// compiled carry parks its scratch in the successor's `resident` slot,
/// every other op writes its scratch back into the bound output and
/// recycles it. Returns `(written back, carried)`.
fn commit_done<T: Scalar>(
    plan: &ExecutablePlan,
    mut done: Vec<(usize, Matrix<T>)>,
    outputs: &mut [Option<MatrixViewMut<'_, T>>],
    resident: &mut [Option<Matrix<T>>],
    pool: &mut Vec<Matrix<T>>,
) -> (u32, u32) {
    done.sort_unstable_by_key(|(idx, _)| *idx);
    let (mut written, mut carried) = (0, 0);
    for (idx, scratch) in done {
        match plan.carries().next[idx] {
            NO_CARRY => {
                write_back(plan, idx, outputs, &scratch);
                pool.push(scratch);
                written += 1;
            }
            j => {
                resident[j as usize] = Some(scratch);
                carried += 1;
            }
        }
    }
    (written, carried)
}

/// Copy `scratch` into op `idx`'s output rectangle.
fn write_back<T: Scalar>(
    plan: &ExecutablePlan,
    idx: usize,
    outputs: &mut [Option<MatrixViewMut<'_, T>>],
    scratch: &Matrix<T>,
) {
    let cop = &plan.ops[idx];
    outputs[cop.out_buf]
        .as_mut()
        .unwrap_or_else(|| unreachable!("output bound (validated up front)"))
        .subview_mut(cop.out_r0, cop.out_c0, cop.out_rows, cop.out_cols)
        .copy_from(scratch.view());
}

/// Settle a stopped batch's unexecuted items: clean carried
/// accumulators return to their `resident` slots, every other scratch
/// to the pool (the items rebuild at their next dispatch). Returns the
/// items' op indices, and whether the in-flight item — dirty when
/// `dirty`, i.e. a foreign panic may have written it — carried an
/// accumulator, which is then lost.
fn reclaim_leftover<T: Scalar>(
    leftover: Vec<WorkItem<'_, T>>,
    dirty: bool,
    carried_in: &[bool],
    resident: &mut [Option<Matrix<T>>],
    pool: &mut Vec<Matrix<T>>,
) -> (Vec<usize>, bool) {
    let mut lost = false;
    let idxs = leftover
        .into_iter()
        .enumerate()
        .map(|(k, it)| {
            if !carried_in[it.idx] {
                pool.push(it.scratch);
            } else if dirty && k == 0 {
                lost = true;
            } else {
                resident[it.idx] = Some(it.scratch);
            }
            it.idx
        })
        .collect();
    (idxs, lost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::pipeline_graph;
    use crate::{OpGraph, Scheduler};
    use tcu_core::{ReplayExecutor, TensorOp};
    use tcu_linalg::ops::matmul_naive;
    use tcu_linalg::Matrix;

    fn pseudo(r: usize, c: usize, seed: i64) -> Matrix<i64> {
        Matrix::from_fn(r, c, |i, j| {
            ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
        })
    }

    /// Record, plan, run: the smallest end-to-end flow — one strip
    /// streamed against two adjacent weight blocks on a unit twice as
    /// wide, which the scheduler collapses into a single invocation.
    #[test]
    fn two_block_columns_collapse_and_match_the_oracle() {
        let d = 16usize;
        let a = pseudo(d, 4, 1);
        let b = pseudo(4, 8, 2);
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, 4);
        let bb = g.buffer("B", 4, 8);
        let cb = g.buffer("C", d, 8);
        for j in 0..2 {
            g.record(
                TensorOp::padded(d, 4, 4),
                crate::OperandRef::new(ab, 0, 0, d, 4),
                crate::OperandRef::new(bb, 0, j * 4, 4, 4),
                crate::OperandRef::new(cb, 0, j * 4, d, 4),
            );
        }
        let mut mach = TcuMachine::model(64, 1000);
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.ops(), 1);
        assert_eq!(plan.nodes()[0].fused, 2);

        let mut c = Matrix::<i64>::zeros(d, 8);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        assert_eq!(c, matmul_naive(&a, &b));
        // One invocation charged instead of two: d·√m + ℓ once.
        assert_eq!(mach.time(), (d * 8) as u64 + 1000);
        assert_eq!(mach.stats().tensor_calls, 1);
    }

    #[test]
    fn run_charges_exactly_what_the_plan_predicts() {
        let d = 32usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let s = 8usize;
        for j in 0..d / s {
            for k in 0..d / s {
                g.record(
                    TensorOp {
                        accumulate: true,
                        ..TensorOp::padded(d, s, s)
                    },
                    crate::OperandRef::new(ab, 0, k * s, d, s),
                    crate::OperandRef::new(bb, k * s, j * s, s, s),
                    crate::OperandRef::new(cb, 0, j * s, d, s),
                );
            }
        }
        let mut mach = TcuMachine::with_executor(
            tcu_core::ModelTensorUnit::new(64, 9),
            ReplayExecutor::default(),
        );
        let plan = Scheduler::new().plan(&g, mach.unit());
        let (a, b) = (pseudo(d, d, 3), pseudo(d, d, 4));
        let mut c = Matrix::<i64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        assert_eq!(mach.stats().tensor_calls, plan.invocations());
        assert_eq!(mach.stats().tensor_rows, plan.charged_rows());
        assert_eq!(mach.stats().tensor_time, plan.tensor_time());
        // Replay executor ran no numerics.
        assert_eq!(c, Matrix::<i64>::zeros(d, d));
    }

    #[test]
    fn pack_cache_hits_across_the_run_and_fresh_envs_miss() {
        let d = 32usize;
        let s = 8usize;
        let b = pseudo(d, d, 6);
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let cb = g.buffer("C", d, d);
        let q = d / s;
        for j in 0..q {
            for k in 0..q {
                g.record(
                    TensorOp {
                        accumulate: true,
                        ..TensorOp::padded(d, s, s)
                    },
                    crate::OperandRef::new(ab, 0, k * s, d, s),
                    crate::OperandRef::new(bb, k * s, j * s, s, s),
                    crate::OperandRef::new(cb, 0, j * s, d, s),
                );
            }
        }
        let mut mach = TcuMachine::model(s * s, 7);
        mach.executor_mut().enable_pack_cache(2 * q);
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.ops(), q * q, "√m-wide blocks cannot merge");

        let run_once = |mach: &mut TcuMachine<_, _>, seed: i64| {
            let aa = pseudo(d, d, seed);
            let mut c = Matrix::<i64>::zeros(d, d);
            let mut env = ExecEnv::new(&g);
            env.bind_input(ab, aa.view());
            env.bind_input(bb, b.view());
            env.bind_output(cb, c.view_mut());
            plan.run(mach, &mut env);
            (c, aa)
        };
        let (c1, a1) = run_once(&mut mach, 5);
        assert_eq!(c1, matmul_naive(&a1, &b));
        let stats = mach.executor().pack_cache_stats().expect("cache on");
        // q distinct strips, q² lookups: q misses, q(q−1) hits.
        assert_eq!(stats.misses, q as u64);
        assert_eq!(stats.hits, (q * (q - 1)) as u64);

        // A second environment re-packs (new epoch): no stale reuse
        // even though buffer ids coincide.
        let (c2, a2) = run_once(&mut mach, 50);
        assert_eq!(c2, matmul_naive(&a2, &b));
        let stats = mach.executor().pack_cache_stats().expect("cache on");
        assert_eq!(stats.misses, 2 * q as u64);
    }

    #[test]
    fn two_stage_pipeline_plans_and_matches_the_chained_oracle() {
        let (d, s) = (16usize, 4usize);
        let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
        let a = pseudo(d, d, 7);
        let b = pseudo(d, d, 8);
        let mut mach = TcuMachine::model(s * s, 11);
        mach.executor_mut().enable_pack_cache(2 * d / s);
        let plan = Scheduler::new().plan(&g, mach.unit());
        // Stage 2's reads of M force it into later waves than stage 1's
        // accumulate chain into the same columns.
        assert!(plan.waves() > d / s, "RAW must add depth");
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(mb, m.view_mut());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        let want_m = matmul_naive(&a, &b);
        assert_eq!(m, want_m);
        assert_eq!(c, matmul_naive(&want_m, &b));
        // Charges are the recorded stream's: 2 stages × q² ops, d rows.
        let q = (d / s) as u64;
        assert_eq!(mach.stats().tensor_calls, 2 * q * q);
    }

    #[test]
    fn pipeline_writes_retire_stale_strips_in_the_pack_cache() {
        // One graph: write M, read M (gen 1), overwrite M, read again
        // (gen 2). The second read must repack — tags differ — and the
        // result must reflect the overwrite.
        let s = 4usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", s, s);
        let bb = g.buffer("B", s, s);
        let mb = g.buffer("M", s, s);
        let c1b = g.buffer("C1", s, s);
        let c2b = g.buffer("C2", s, s);
        let xb = g.buffer("X", s, s);
        let whole = |buf| crate::OperandRef::new(buf, 0, 0, s, s);
        let op = TensorOp::padded(s, s, s);
        g.record(op, whole(ab), whole(bb), whole(mb)); // M = A·B
        g.record(op, whole(mb), whole(bb), whole(c1b)); // C1 = M·B
        g.record(op, whole(xb), whole(bb), whole(mb)); // M = X·B
        g.record(op, whole(mb), whole(bb), whole(c2b)); // C2 = M'·B
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(8);
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.waves(), 4, "WAR + RAW serialize all four ops");

        let (a, b, x) = (pseudo(s, s, 21), pseudo(s, s, 22), pseudo(s, s, 23));
        let (mut m, mut c1, mut c2) = (
            Matrix::<i64>::zeros(s, s),
            Matrix::<i64>::zeros(s, s),
            Matrix::<i64>::zeros(s, s),
        );
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_input(xb, x.view());
        env.bind_output(mb, m.view_mut());
        env.bind_output(c1b, c1.view_mut());
        env.bind_output(c2b, c2.view_mut());
        plan.run(&mut mach, &mut env);
        assert_eq!(c1, matmul_naive(&matmul_naive(&a, &b), &b));
        assert_eq!(c2, matmul_naive(&matmul_naive(&x, &b), &b));
        assert_eq!(m, matmul_naive(&x, &b));
        // Both M reads packed fresh strips (generations 1 and 2).
        let stats = mach.executor().pack_cache_stats().expect("cache on");
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn rerunning_one_env_repacks_written_reads_but_reuses_frozen_inputs() {
        // Accumulating pipeline: M += A·B, then C += M·B. Running the
        // schedule twice against ONE environment doubles M before the
        // second stage reads it, so run 2's C contribution is 2·(A·B)·B
        // and the total must be 3·(A·B)·B. A cache serving run 1's
        // packed M strips to run 2 (the per-env tag scheme) would
        // compute 2× instead — so written-buffer reads must repack per
        // run, while the frozen input A keeps hitting across runs.
        let (d, s) = (16usize, 4usize);
        let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
        let a = pseudo(d, d, 61);
        let b = pseudo(d, d, 62);
        let mut mach = TcuMachine::model(s * s, 0);
        mach.executor_mut().enable_pack_cache(4 * d / s);
        let plan = Scheduler::new().plan(&g, mach.unit());
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(mb, m.view_mut());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        let after_first = mach.executor().pack_cache_stats().expect("cache on");
        plan.run(&mut mach, &mut env);

        let ab_prod = matmul_naive(&a, &b);
        assert_eq!(m, ab_prod.scale(2));
        assert_eq!(c, matmul_naive(&ab_prod, &b).scale(3));
        // Frozen input strips (A) hit across runs; written-buffer strips
        // (M) repacked in run 2: q fresh misses, no more.
        let after_second = mach.executor().pack_cache_stats().expect("cache on");
        assert_eq!(
            after_second.misses - after_first.misses,
            (d / s) as u64,
            "exactly the written-buffer strips repack on the second run"
        );
    }

    #[test]
    fn run_parallel_matches_serial_run_and_the_planned_makespan() {
        let (d, s, p) = (32usize, 8usize, 3usize);
        let (g, [ab, bb, mb, cb]) = pipeline_graph(d, s);
        let a = pseudo(d, d, 31);
        let b = pseudo(d, d, 32);
        let unit = tcu_core::ModelTensorUnit::new(s * s, 17);
        let plan = Scheduler::new().with_units(p).plan(&g, &unit);

        let mut serial = TcuMachine::new(unit);
        let (mut m1, mut c1) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(mb, m1.view_mut());
        env.bind_output(cb, c1.view_mut());
        plan.run(&mut serial, &mut env);

        let mut par = ParallelTcuMachine::new(unit, p);
        par.enable_pack_caches(2 * d / s);
        let (mut m2, mut c2) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(mb, m2.view_mut());
        env.bind_output(cb, c2.view_mut());
        plan.run_parallel(&mut par, &mut env);

        // Bit-identical results, identical per-op charges, and the
        // multi-unit wall-clock the planner predicted.
        assert_eq!((m2, c2), (m1, c1));
        assert_eq!(par.stats(), serial.stats());
        assert_eq!(par.time(), plan.planned_parallel_time());
        assert!(plan.makespan() < plan.tensor_time(), "3 units must help");
        // The units' caches collectively served every lookup.
        let (mut lookups, mut misses) = (0u64, 0u64);
        for u in 0..p {
            if let Some(c) = par.unit_executor(u).pack_cache_stats() {
                lookups += c.lookups;
                misses += c.misses;
            }
        }
        assert_eq!(lookups, plan.invocations());
        assert!(misses < lookups, "schedule placement must enable reuse");
    }

    #[test]
    #[should_panic(expected = "different unit count")]
    fn run_parallel_rejects_mismatched_unit_count() {
        let (g, [_, _, _, _]) = pipeline_graph(8, 4);
        let unit = tcu_core::ModelTensorUnit::new(16, 0);
        let plan = Scheduler::new().with_units(2).plan(&g, &unit);
        let mut par = ParallelTcuMachine::<_, tcu_core::HostExecutor>::new(unit, 3);
        let mut env = ExecEnv::<i64>::new(&g);
        plan.run_parallel(&mut par, &mut env);
    }

    #[test]
    fn schur_update_reads_and_writes_one_buffer() {
        // The gauss kernel-D shape: X's trailing column blocks accumulate
        // the product of X's own pivot panel with external weights. Both
        // ops read the panel while writing X, so every executor stages
        // it (the in-place loop lazily, at its first reader; the threaded
        // executor at its first dispatch) and all land the same bytes.
        let (d, s) = (12usize, 4usize);
        let mut g = OpGraph::new();
        let xb = g.buffer("X", d, d);
        let wb = g.buffer("W", s, 2 * s);
        for j in 1..3 {
            g.record(
                TensorOp::mul_acc(d - s, s),
                crate::OperandRef::new(xb, s, 0, d - s, s),
                crate::OperandRef::new(wb, 0, (j - 1) * s, s, s),
                crate::OperandRef::new(xb, s, j * s, d - s, s),
            );
        }
        let unit = tcu_core::ModelTensorUnit::new(s * s, 0);
        let plan = Scheduler::new().with_units(2).plan(&g, &unit);
        assert_eq!(plan.ops(), 2);
        let (x0, w) = (pseudo(d, d, 41), pseudo(s, 2 * s, 42));
        let mut want = x0.clone();
        let prod = matmul_naive(&x0.block(s, 0, d - s, s), &w);
        want.subview_mut(s, s, d - s, 2 * s).add_assign(prod.view());

        // `None` runs the serial path, `Some(inline)` the dataflow
        // driver's inline or threaded executor on 2 units.
        for inline in [None, Some(true), Some(false)] {
            let mut x = x0.clone();
            let mut env = ExecEnv::new(&g);
            env.bind_input(wb, w.view());
            env.bind_output(xb, x.view_mut());
            match inline {
                None => plan.run(&mut TcuMachine::new(unit), &mut env),
                Some(inline) => plan
                    .try_run_dataflow_with(
                        &mut ParallelTcuMachine::new(unit, 2),
                        &mut env,
                        RecoveryPolicy::default(),
                        DataflowTuning {
                            inline: Some(inline),
                            ..DataflowTuning::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("{e}")),
            }
            drop(env);
            assert_eq!(x, want, "executor {inline:?}");
        }
    }

    #[test]
    fn a_failed_serial_run_leaves_no_trace() {
        // M = A·A, then C = M·X with X never bound: the run must fail
        // before the first op issues, not after charging it.
        let s = 4usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", s, s);
        let mb = g.buffer("M", s, s);
        let xb = g.buffer("X", s, s);
        let cb = g.buffer("C", s, s);
        let whole = |buf| crate::OperandRef::new(buf, 0, 0, s, s);
        let op = TensorOp::padded(s, s, s);
        g.record(op, whole(ab), whole(ab), whole(mb));
        g.record(op, whole(mb), whole(xb), whole(cb));
        let mut mach = TcuMachine::model(s * s, 7);
        mach.enable_trace();
        let plan = Scheduler::new().plan(&g, mach.unit());
        assert_eq!(plan.ops(), 2);

        let a = pseudo(s, s, 51);
        let (mut m, mut c) = (pseudo(s, s, 52), pseudo(s, s, 53));
        let (m0, c0) = (m.clone(), c.clone());
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_output(mb, m.view_mut());
        env.bind_output(cb, c.view_mut());
        assert_eq!(
            plan.try_run(&mut mach, &mut env),
            Err(TcuError::Unbound {
                buffer: xb.0,
                written: false,
            })
        );
        drop(env);
        assert_eq!(mach.stats(), TcuMachine::model(s * s, 7).stats());
        assert_eq!(mach.time(), 0);
        assert!(mach.take_trace().is_empty());
        assert_eq!((m, c), (m0, c0));
    }

    #[test]
    #[should_panic(expected = "bind it mutably")]
    fn written_buffer_rejects_input_binding() {
        let (g, [_, _, mb, _]) = pipeline_graph(8, 4);
        let m = pseudo(8, 8, 1);
        let mut env = ExecEnv::new(&g);
        env.bind_input(mb, m.view());
    }
}
