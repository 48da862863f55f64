//! Schedule compilation: lower a planned [`Schedule`] into a dense
//! [`ExecutablePlan`] the runtime can replay with no hash lookups, no
//! per-op environment scans, and no staging decisions in the hot loop.
//!
//! Planning resolves *what* to execute (coalesced ops, canonical order,
//! wave partitions); compilation resolves *how*: every operand read is
//! interned into a slot of a run-local snapshot arena keyed by
//! `(buffer, rectangle, generation)`, and the wave structure is
//! flattened into index ranges. The result is structural (no data, no
//! scalar type): one compiled plan serves every environment whose buffer
//! shapes match, which is what lets `gauss`/`closure` compile a stage's
//! schedule once and re-run it against rebound buffers per step.
//!
//! Staging is decided per slot at run time (see the `run` module docs);
//! the plan carries no directive lists. It only marks which reads are
//! *same-buffer keys* (`CompiledRead::same_buf_key`): keys that some op
//! reads while writing the same buffer. Safe Rust cannot hold an output
//! binding mutably and read it at once, so the in-place executors
//! (serial and inline) snapshot exactly these, lazily, at their first
//! reader.
//!
//! Beyond staging, compilation resolves the hazard structure the
//! dataflow driver gates on (predecessor counts, successor lists). The
//! threaded dataflow driver also asks, on first use, for each op's
//! *carry*: the later accumulate, if any, that continues its output
//! rectangle's chain and so receives its scratch directly.
//!
//! Compilation happens implicitly on first execution and is cached in
//! the schedule (see [`Schedule::compile`]), so `run`/`try_run*` are
//! thin compile-then-execute wrappers and repeat runs skip straight to
//! the precomputed form.

use crate::graph::{hazard_successors, BufferId, Node, OperandRef};
use crate::run::ExecEnv;
use crate::scheduler::Schedule;
use std::collections::HashMap;
use std::sync::OnceLock;
use tcu_core::{TcuError, TensorOp};
use tcu_linalg::Scalar;
use tcu_obs::Recorder as _;

/// Identity of one read snapshot: buffer, rectangle, content version.
type ReadKey = (usize, usize, usize, usize, usize, u32);

/// One compiled operand read: the resolved rectangle, its content
/// version, its snapshot slot, and whether the slot is a same-buffer
/// key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledRead {
    pub(crate) buf: usize,
    pub(crate) r0: usize,
    pub(crate) c0: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) gen: u32,
    pub(crate) slot: u32,
    /// Some op reads this key while writing its buffer: the in-place
    /// executors serve *every* reader of the key from one snapshot.
    pub(crate) same_buf_key: bool,
}

/// One emitted op with every operand resolved to concrete offsets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledOp {
    pub(crate) op: TensorOp,
    pub(crate) out_buf: usize,
    pub(crate) out_r0: usize,
    pub(crate) out_c0: usize,
    pub(crate) out_rows: usize,
    pub(crate) out_cols: usize,
    pub(crate) a: CompiledRead,
    pub(crate) b: CompiledRead,
}

impl CompiledRead {
    /// The rectangle this operand reads.
    fn region(&self) -> OperandRef {
        OperandRef::new(BufferId(self.buf), self.r0, self.c0, self.rows, self.cols)
    }
}

impl CompiledOp {
    /// The rectangle this op writes.
    fn out_region(&self) -> OperandRef {
        OperandRef::new(
            BufferId(self.out_buf),
            self.out_r0,
            self.out_c0,
            self.out_rows,
            self.out_cols,
        )
    }
}

/// A [`Schedule`] lowered to its executable form: dense op array with
/// interned read slots, flattened wave ranges, and the hazard graph.
/// Structural — it references logical buffers and slots, never data —
/// so one compiled plan is re-runnable against any rebound environment
/// of the same buffer shapes.
#[derive(Clone, Debug, Default)]
pub struct ExecutablePlan {
    pub(crate) ops: Vec<CompiledOp>,
    /// Snapshot-arena size (one slot per distinct read key).
    pub(crate) slots: usize,
    /// `ops` index range of each wave, in wave order.
    pub(crate) wave_ranges: Vec<(usize, usize)>,
    /// Per-op hazard-predecessor count, emission order — the dataflow
    /// driver's ready gate (an op is dispatchable once this many
    /// predecessors have committed).
    pub(crate) preds: Vec<u32>,
    /// CSR hazard-successor lists over `ops`: op `i`'s successors are
    /// `succs[succ_off[i] .. succ_off[i + 1]]`. Edges are strictly
    /// forward in emission order (conflicting nodes always sit on
    /// different levels, and emission sorts by level first).
    pub(crate) succs: Vec<u32>,
    /// `succs` offsets, length `ops + 1`.
    pub(crate) succ_off: Vec<u32>,
    /// Accumulator hand-offs, resolved on first use: only the threaded
    /// dataflow executor reads them, so plans the serial and inline
    /// executors run never pay for the pass.
    carries: OnceLock<Carries>,
}

/// The accumulate chains of a compiled plan (see [`compute_carries`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Carries {
    /// Per-op hand-off, emission order: `next[i] = j` when the threaded
    /// dataflow driver passes op `i`'s finished scratch straight to op
    /// `j` instead of writing it back and re-seeding; [`NO_CARRY`]
    /// otherwise (the op writes back).
    pub(crate) next: Vec<u32>,
    /// `carried_in[j]`: some op hands its scratch to op `j` (the
    /// inverse of `next`).
    pub(crate) carried_in: Vec<bool>,
}

/// The [`Carries::next`] entry of an op that writes back.
pub(crate) const NO_CARRY: u32 = u32::MAX;

impl ExecutablePlan {
    /// Compiled ops (equals the schedule's emitted ops).
    #[must_use]
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Waves (equals the schedule's).
    #[must_use]
    pub fn waves(&self) -> usize {
        self.wave_ranges.len()
    }

    /// Hazard edges between compiled ops (the dependency count the
    /// dataflow driver's ready gating walks).
    #[must_use]
    pub fn hazard_edges(&self) -> usize {
        self.succs.len()
    }

    /// Ops whose result the threaded dataflow driver hands to a later
    /// accumulate as its pre-seeded scratch instead of writing it back:
    /// those whose next op touching their output rectangle accumulates
    /// into exactly that rectangle without reading it.
    #[must_use]
    pub fn carried_ops(&self) -> usize {
        self.carries().carried_in.iter().filter(|&&c| c).count()
    }

    /// The plan's accumulate chains, computed on first use.
    pub(crate) fn carries(&self) -> &Carries {
        self.carries
            .get_or_init(|| compute_carries(&self.ops, &self.succs, &self.succ_off))
    }

    /// Op `i`'s hazard successors (emission-order indices, all `> i`).
    pub(crate) fn successors_of(&self, i: usize) -> &[u32] {
        &self.succs[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }
}

/// Intern one operand read: find-or-create its arena slot, and mark the
/// slot a same-buffer key when this reader writes the read's buffer.
fn intern_read(
    region: &OperandRef,
    gen: u32,
    out_buf: usize,
    slot_of: &mut HashMap<ReadKey, u32>,
    same_buf: &mut Vec<bool>,
) -> CompiledRead {
    let key = (
        region.buf.0,
        region.r0,
        region.c0,
        region.rows,
        region.cols,
        gen,
    );
    let next = slot_of.len() as u32;
    let slot = *slot_of.entry(key).or_insert_with(|| {
        same_buf.push(false);
        next
    });
    if region.buf.0 == out_buf {
        same_buf[slot as usize] = true;
    }
    CompiledRead {
        buf: region.buf.0,
        r0: region.r0,
        c0: region.c0,
        rows: region.rows,
        cols: region.cols,
        gen,
        slot,
        same_buf_key: false,
    }
}

/// Lower `sched` into its executable form. Validates every op against
/// the planned `√m` once (execution re-checks nothing), resolves each
/// read to a slot of the snapshot arena, and marks the reads of
/// same-buffer keys.
///
/// # Panics
/// Panics if an emitted node's operand or output rectangles disagree
/// with its op descriptor — a scheduler bug, not a caller error (the
/// graph validates these shapes at record time and coalescing preserves
/// them).
pub(crate) fn compile_schedule(sched: &Schedule) -> Result<ExecutablePlan, TcuError> {
    let nodes = sched.nodes();
    let mut slot_of: HashMap<ReadKey, u32> = HashMap::new();
    let mut same_buf: Vec<bool> = Vec::new();
    let mut ops: Vec<CompiledOp> = Vec::with_capacity(nodes.len());
    let mut wave_ranges: Vec<(usize, usize)> = Vec::new();
    let mut wstart = 0usize;
    for (i, sn) in nodes.iter().enumerate() {
        let node = &sn.node;
        node.op.check(sched.sqrt_m)?;
        if i > 0 && sn.level != nodes[i - 1].level {
            wave_ranges.push((wstart, i));
            wstart = i;
        }
        let out_buf = node.out.buf.0;
        let a = intern_read(&node.a, sn.a_gen, out_buf, &mut slot_of, &mut same_buf);
        let b = intern_read(&node.b, sn.b_gen, out_buf, &mut slot_of, &mut same_buf);
        assert!(
            node.op
                .matches((node.a.rows, node.a.cols), (node.b.rows, node.b.cols)),
            "operands do not match the op descriptor"
        );
        assert_eq!(
            (node.out.rows, node.out.cols),
            (node.op.rows, node.op.width),
            "output region does not match the op descriptor"
        );
        ops.push(CompiledOp {
            op: node.op,
            out_buf,
            out_r0: node.out.r0,
            out_c0: node.out.c0,
            out_rows: node.out.rows,
            out_cols: node.out.cols,
            a,
            b,
        });
    }
    if !nodes.is_empty() {
        wave_ranges.push((wstart, nodes.len()));
    }

    // A key with *any* same-buffer reader serves *all* its in-place
    // readers from the snapshot — one snapshot, one code path, and the
    // bytes are identical either way (the snapshot is taken at the
    // region's exact content version).
    for cop in &mut ops {
        for r in [&mut cop.a, &mut cop.b] {
            r.same_buf_key = same_buf[r.slot as usize];
        }
    }

    // Hazard dependency structure over the *emission-ordered* ops:
    // per-op predecessor counts and CSR successor lists. Conflicting
    // nodes always differ in level and emission sorts by level first,
    // so every edge points strictly forward in emission order — which
    // is what lets the dataflow driver gate dispatch on a simple
    // committed-predecessor countdown.
    let emitted: Vec<Node> = nodes.iter().map(|sn| sn.node).collect();
    let succ_lists = hazard_successors(&emitted);
    let mut preds = vec![0u32; emitted.len()];
    let mut succ_off = Vec::with_capacity(emitted.len() + 1);
    let mut succs = Vec::new();
    succ_off.push(0u32);
    for (i, list) in succ_lists.iter().enumerate() {
        for &j in list {
            debug_assert!(j > i, "hazard edges must be forward in emission order");
            preds[j] += 1;
            succs.push(j as u32);
        }
        succ_off.push(succs.len() as u32);
    }

    Ok(ExecutablePlan {
        ops,
        slots: slot_of.len(),
        wave_ranges,
        preds,
        succs,
        succ_off,
        carries: OnceLock::new(),
    })
}

/// The accumulate chains of a compiled op stream: op `i` carries to op
/// `j` when `j` is the *earliest* later op whose output or either read
/// overlaps `i`'s output rectangle, and `j` accumulates into exactly
/// that rectangle (same buffer, origin and extent — hence the same
/// scratch shape) without reading it. Nothing else then observes the
/// rectangle between the two ops, so its host bytes may stay stale
/// while the result travels as `j`'s pre-seeded scratch; the chain's
/// last link writes back, and every later reader or overlapping writer
/// is hazard-gated behind that write.
///
/// Hazard edges are not transitively reduced (a chain's first link has
/// an edge to *every* later link), so "sole successor" would be the
/// wrong rule. The earliest toucher is always among `i`'s successors,
/// though: every overlapping write–write and write–read pair is an
/// edge, so scanning the successor list suffices.
fn compute_carries(ops: &[CompiledOp], succs: &[u32], succ_off: &[u32]) -> Carries {
    let mut next = vec![NO_CARRY; ops.len()];
    let mut carried_in = vec![false; ops.len()];
    for (i, n) in ops.iter().enumerate() {
        let out = n.out_region();
        let reads = |x: &CompiledOp| x.a.region().overlaps(&out) || x.b.region().overlaps(&out);
        let earliest = succs[succ_off[i] as usize..succ_off[i + 1] as usize]
            .iter()
            .copied()
            .filter(|&j| {
                let x = &ops[j as usize];
                x.out_region().overlaps(&out) || reads(x)
            })
            .min();
        if let Some(j) = earliest {
            let x = &ops[j as usize];
            if x.op.accumulate && x.out_region() == out && !reads(x) {
                next[i] = j;
                carried_in[j as usize] = true;
            }
        }
    }
    Carries { next, carried_in }
}

impl Schedule {
    /// The compiled form of this schedule, lowering it on first use and
    /// caching the result in the schedule itself.
    pub(crate) fn compiled(&self) -> Result<&ExecutablePlan, TcuError> {
        if let Some(p) = self.compiled.get() {
            return Ok(p);
        }
        // Telemetry: the lowering itself is a scheduler-lane span (only
        // cold compiles land here — cache hits return above).
        let rec = tcu_obs::env_recorder();
        let start = rec.as_ref().map(|r| r.now_ns());
        let plan = compile_schedule(self)?;
        if let (Some(rec), Some(t0)) = (rec, start) {
            rec.record(
                tcu_obs::Lane::Scheduler,
                tcu_obs::SpanEvent {
                    kind: tcu_obs::EventKind::Compile {
                        ops: plan.ops.len() as u64,
                    },
                    t_ns: t0,
                    dur_ns: rec.now_ns().saturating_sub(t0),
                },
            );
        }
        Ok(self.compiled.get_or_init(|| plan))
    }

    /// Compile this schedule against `env`'s buffer shapes, returning
    /// the cached [`ExecutablePlan`].
    ///
    /// Compilation is structural — it depends on the schedule alone —
    /// so the environment only serves as a shape witness here: the call
    /// fails exactly when running against `env` would. The plan is
    /// computed once per schedule and cached; `run`/`try_run*` call
    /// this implicitly, so explicit compilation is only useful to front
    /// the (small) lowering cost or to inspect the compiled shape.
    pub fn compile<T: Scalar>(&self, env: &ExecEnv<'_, T>) -> Result<&ExecutablePlan, TcuError> {
        if env.shapes() != &self.buffer_shapes[..] {
            return Err(TcuError::PlanMismatch {
                what: "environment built for a different graph (buffer shapes disagree)",
            });
        }
        self.compiled()
    }
}

#[cfg(test)]
mod tests {
    use crate::testing::pipeline_graph;
    use crate::{BufferId, OpGraph, OperandRef, Scheduler};
    use tcu_core::{ModelTensorUnit, TensorOp};

    /// Record link `k` of column block `j`'s chain in the blocked
    /// product `C += A·B`.
    fn link(g: &mut OpGraph, [a, b, c]: [BufferId; 3], d: usize, s: usize, j: usize, k: usize) {
        g.record(
            TensorOp::mul_acc(d, s),
            OperandRef::new(a, 0, k * s, d, s),
            OperandRef::new(b, k * s, j * s, s, s),
            OperandRef::new(c, 0, j * s, d, s),
        );
    }

    fn carries(g: &OpGraph, s: usize) -> usize {
        let unit = ModelTensorUnit::new(s * s, 0);
        let plan = Scheduler::new().with_units(2).plan(g, &unit);
        plan.compiled().expect("compiles").carried_ops()
    }

    #[test]
    fn blocked_product_chains_carry_and_a_mid_chain_reader_breaks_one_link() {
        let (d, s) = (64, 16);
        let q = d / s;
        let mut g = OpGraph::new();
        let bufs = [
            g.buffer("A", d, d),
            g.buffer("B", d, d),
            g.buffer("C", d, d),
        ];
        for j in 0..q {
            for k in 0..q {
                link(&mut g, bufs, d, s, j, k);
            }
        }
        assert_eq!(carries(&g, s), q * (q - 1), "4 chains x 3 hand-offs");

        // Same product with C's first column block read between its
        // second and third links: that one hand-off must write back.
        let mut g = OpGraph::new();
        let bufs = [
            g.buffer("A", d, d),
            g.buffer("B", d, d),
            g.buffer("C", d, d),
        ];
        let out = g.buffer("D", d, s);
        for j in 0..q {
            for k in 0..q {
                link(&mut g, bufs, d, s, j, k);
                if (j, k) == (0, 1) {
                    g.record(
                        TensorOp::mul(d, s),
                        OperandRef::new(bufs[2], 0, 0, d, s),
                        OperandRef::new(bufs[1], 0, 0, s, s),
                        OperandRef::new(out, 0, 0, d, s),
                    );
                }
            }
        }
        assert_eq!(carries(&g, s), q * (q - 1) - 1);
    }

    /// The precondition the dataflow driver and `compute_carries` rely
    /// on: every pair of compiled ops whose regions conflict (write
    /// overlapping write, read or written-over read) is joined by a
    /// *direct* hazard edge, not merely a path — commits may only
    /// release an op once each conflicting predecessor has retired, and
    /// the earliest toucher of an output must be among its successors.
    #[test]
    fn every_conflicting_pair_has_a_direct_hazard_edge() {
        for (d, s, units) in [(16, 4, 1), (32, 8, 3), (32, 4, 2)] {
            let (g, _) = pipeline_graph(d, s);
            let unit = ModelTensorUnit::new(s * s, 0);
            let sched = Scheduler::new().with_units(units).plan(&g, &unit);
            let plan = sched.compiled().expect("compiles");
            let mut pairs = 0;
            for (i, x) in plan.ops.iter().enumerate() {
                let out = x.out_region();
                for (j, y) in plan.ops.iter().enumerate().skip(i + 1) {
                    let conflict = out.overlaps(&y.out_region())
                        || out.overlaps(&y.a.region())
                        || out.overlaps(&y.b.region())
                        || x.a.region().overlaps(&y.out_region())
                        || x.b.region().overlaps(&y.out_region());
                    if conflict {
                        pairs += 1;
                        assert!(
                            plan.successors_of(i).contains(&(j as u32)),
                            "ops {i} and {j} conflict without a direct edge \
                             (d={d}, s={s}, units={units})"
                        );
                    }
                }
            }
            assert!(pairs > 0, "the pipeline must exercise hazards");
        }
    }
}
