//! End-to-end tour of the deferred runtime: record a blocked
//! multiplication, watch the scheduler coalesce it, and watch the pack
//! cache collapse the re-streamed strips.
//!
//! ```sh
//! cargo run --release -p tcu-sched --example coalesce
//! ```
//!
//! Two demonstrations on one `d × d` product:
//!
//! 1. **Model-level win (coalescing).** The flow is recorded in 16-wide
//!    blocks — the natural code for a √m = 16 unit — but planned for a
//!    √m = 32 unit. Width merging fuses adjacent block columns and
//!    inner merging fuses adjacent k-slices, so 4 recorded ops become 1
//!    invocation: 4× fewer `ℓ` charges *and* 4× fewer streamed rows.
//! 2. **Host-level win (strip reuse).** The same recording planned for
//!    a √m = 16 unit cannot merge (blocks already fill the footprint),
//!    but the pack cache keys packed strips by (buffer, generation,
//!    region): each of the `d/16` strips is packed once and re-used for
//!    all `d/16` block columns — `q×` fewer strip packs.
//! 3. **Versioned pipeline on parallel units.** A second stage reading
//!    the first stage's output is recorded into the *same* graph (the
//!    RAW hazard orders the stages), planned once for 4 units, and
//!    executed with `Schedule::run_parallel`: plan-time dataflow
//!    placement (ops start as their hazard predecessors finish, no
//!    per-wave barrier), per-unit pack caches, wall-clock = the
//!    placement's simulated makespan (never above Σ wave makespans).

use tcu_core::{ModelTensorUnit, ParallelTcuMachine, TcuMachine, TensorOp};
use tcu_linalg::ops::matmul_naive;
use tcu_linalg::Matrix;
use tcu_sched::{ExecEnv, OpGraph, OperandRef, Scheduler};

fn workload(r: usize, c: usize, seed: i64) -> Matrix<i64> {
    Matrix::from_fn(r, c, |i, j| {
        ((i as i64 * 131 + j as i64 * 31 + seed).wrapping_mul(48271) >> 5) % 97 - 48
    })
}

/// Record the Theorem-2 blocked flow at block size `blk`.
fn record_blocked(d: usize, blk: usize) -> (OpGraph, [tcu_sched::BufferId; 3]) {
    let mut g = OpGraph::new();
    let a = g.buffer("A", d, d);
    let b = g.buffer("B", d, d);
    let c = g.buffer("C", d, d);
    let q = d / blk;
    for j in 0..q {
        for k in 0..q {
            g.record(
                TensorOp {
                    accumulate: true,
                    ..TensorOp::padded(d, blk, blk)
                },
                OperandRef::new(a, 0, k * blk, d, blk),
                OperandRef::new(b, k * blk, j * blk, blk, blk),
                OperandRef::new(c, 0, j * blk, d, blk),
            );
        }
    }
    (g, [a, b, c])
}

fn main() {
    let d = 128usize;
    let a = workload(d, d, 1);
    let b = workload(d, d, 2);
    let want = matmul_naive(&a, &b);
    let (g, [ab, bb, cb]) = record_blocked(d, 16);
    println!("recorded: {} accumulate ops (block 16, d = {d})\n", g.len());

    // 1. Plan the 16-wide recording for a √m = 32 unit.
    {
        let mut mach = TcuMachine::model(32 * 32, 10_000);
        let plan = Scheduler::new().plan(&g, mach.unit());
        let eager = Scheduler::new().without_coalescing().plan(&g, mach.unit());
        println!("√m = 32 unit — op coalescing:");
        println!(
            "  eager:     {:>4} invocations, {:>9} rows streamed, simulated time {}",
            eager.invocations(),
            eager.charged_rows(),
            eager.makespan()
        );
        println!(
            "  coalesced: {:>4} invocations, {:>9} rows streamed, simulated time {} ({}× fewer ops)",
            plan.invocations(),
            plan.charged_rows(),
            plan.makespan(),
            eager.invocations() / plan.invocations().max(1)
        );
        let mut c = Matrix::<i64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        assert_eq!(c, want, "coalesced result must equal the oracle");
        println!("  result: matches the naive oracle element-for-element\n");
    }

    // 2. Plan the same recording for a √m = 16 unit with the pack cache.
    {
        let mut mach = TcuMachine::model(16 * 16, 10_000);
        mach.executor_mut().enable_pack_cache(d / 16);
        let plan = Scheduler::new().plan(&g, mach.unit());
        let mut c = Matrix::<i64>::zeros(d, d);
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(cb, c.view_mut());
        plan.run(&mut mach, &mut env);
        assert_eq!(c, want, "cached result must equal the oracle");
        let stats = mach.executor().pack_cache_stats().expect("cache enabled");
        println!("√m = 16 unit — cross-invocation strip cache:");
        println!(
            "  {} invocations looked up, {} strip packs performed ({} hits): {}× fewer packs",
            stats.lookups,
            stats.misses,
            stats.hits,
            stats.lookups / stats.misses.max(1)
        );
        println!(
            "  packed bytes moved: {} (pack-per-invocation would move {})",
            stats.packed_bytes,
            stats.packed_bytes * stats.lookups / stats.misses.max(1)
        );
        println!("  result: matches the naive oracle element-for-element\n");
    }

    // 3. Two-stage pipeline (M = A·B, C = M·B) in ONE graph, executed
    //    across 4 units.
    {
        let s = 16usize;
        let mut g = OpGraph::new();
        let ab = g.buffer("A", d, d);
        let bb = g.buffer("B", d, d);
        let mb = g.buffer("M", d, d);
        let cb = g.buffer("C", d, d);
        let q = d / s;
        for (src, dst) in [(ab, mb), (mb, cb)] {
            for j in 0..q {
                for k in 0..q {
                    g.record(
                        TensorOp::mul_acc(d, s),
                        OperandRef::new(src, 0, k * s, d, s),
                        OperandRef::new(bb, k * s, j * s, s, s),
                        OperandRef::new(dst, 0, j * s, d, s),
                    );
                }
            }
        }
        let unit = ModelTensorUnit::new(s * s, 10_000);
        let units = 4usize;
        let plan = Scheduler::new().with_units(units).plan(&g, &unit);
        let mut mach = ParallelTcuMachine::new(unit, units);
        mach.enable_pack_caches(2 * q);
        let (mut m, mut c) = (Matrix::<i64>::zeros(d, d), Matrix::<i64>::zeros(d, d));
        let mut env = ExecEnv::new(&g);
        env.bind_input(ab, a.view());
        env.bind_input(bb, b.view());
        env.bind_output(mb, m.view_mut());
        env.bind_output(cb, c.view_mut());
        plan.run_parallel(&mut mach, &mut env);
        assert_eq!(c, matmul_naive(&want, &b), "pipeline must chain stages");
        println!("versioned pipeline (M = A·B; C = M·B, one graph) on 4 units:");
        println!(
            "  {} ops in {} waves; tensor work {} executed in makespan {} ({}× fewer time steps)",
            plan.ops(),
            plan.waves(),
            plan.tensor_time(),
            mach.time(),
            plan.tensor_time() / mach.time().max(1)
        );
        println!("  result: matches the chained oracle element-for-element");
    }
}
