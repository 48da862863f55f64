//! The four workloads. Set-up builds each from the seed: an input pool,
//! a reference output per input, and for the dense workloads the
//! recorded, planned and compiled schedule. A solve then runs one input
//! through the library with its default settings.

use crate::probe::{ms, MachineCounters, Timed, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tcu_algos::intmul::{self, BigNat};
use tcu_algos::sparse::{self, CsrMatrix};
use tcu_algos::stencil::{self, StencilWeights};
use tcu_algos::{apsd, closure, dense, fft, gauss, poly, strassen, workloads};
use tcu_core::{
    assign_unit_ids, pack_cache_capacity, Executor, FaultPlan, FaultStats, FaultyExecutor,
    HostExecutor, ModelTensorUnit, ParallelTcuMachine, TcuMachine, TensorOp,
};
use tcu_linalg::{Complex64, Fp61, Matrix};
use tcu_sched::{BufferId, ExecEnv, OpGraph, OperandRef, Schedule, Scheduler};

/// `√m` of every workload's tensor unit (m = 256, ℓ = 0).
pub const SQRT_M: usize = 16;
/// Units of the multi-unit machine.
pub const UNITS: usize = 2;

fn unit() -> ModelTensorUnit {
    ModelTensorUnit::new(SQRT_M * SQRT_M, 0)
}

/// Problem sizes: the benchmark's, and a tiny set for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub pool: usize,
    pub dense_d: usize,
    pub gauss_d: usize,
    pub closure_n: usize,
    pub strassen_d: usize,
    pub fft_rows: usize,
    pub fft_len: usize,
    pub limbs: usize,
    pub poly_n: usize,
    pub poly_p: usize,
    pub stencil_d: usize,
    pub stencil_k: usize,
    pub apsd_n: usize,
    pub sparse_d: usize,
    pub sparse_active: usize,
    pub sparse_nnz: usize,
}

impl Sizes {
    pub const FULL: Self = Self {
        pool: 4,
        dense_d: 512,
        gauss_d: 256,
        closure_n: 256,
        strassen_d: 256,
        fft_rows: 16,
        fft_len: 4096,
        limbs: 8192,
        poly_n: 8192,
        poly_p: 512,
        stencil_d: 64,
        stencil_k: 8,
        apsd_n: 192,
        sparse_d: 1024,
        sparse_active: 128,
        sparse_nnz: 8,
    };

    pub const TINY: Self = Self {
        pool: 2,
        dense_d: 64,
        gauss_d: 32,
        closure_n: 32,
        strassen_d: 32,
        fft_rows: 2,
        fft_len: 64,
        limbs: 256,
        poly_n: 256,
        poly_p: 16,
        stencil_d: 16,
        stencil_k: 4,
        apsd_n: 24,
        sparse_d: 64,
        sparse_active: 8,
        sparse_nnz: 2,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DenseP2,
    DenseP2Faults,
    RecursiveSched,
    PaperMix,
}

impl Kind {
    pub const ALL: [Self; 4] = [
        Self::DenseP2,
        Self::DenseP2Faults,
        Self::RecursiveSched,
        Self::PaperMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::DenseP2 => "dense-p2",
            Self::DenseP2Faults => "dense-p2-faults",
            Self::RecursiveSched => "recursive-sched",
            Self::PaperMix => "paper-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One solve's outcome.
#[derive(Clone, Debug)]
pub struct Solved {
    /// Every output matched its reference.
    pub ok: bool,
    /// Bit-level digest of the outputs.
    pub digest: u64,
    /// Simulated time the machine charged.
    pub sim_time: u64,
    /// Executor calls the library issued, by its own count.
    pub issued: u64,
    /// Wall time of the library calls; verification is not included.
    pub wall: Duration,
    pub counters: MachineCounters,
}

/// FNV-1a over 64-bit words.
fn digest<T>(h: u64, xs: &[T], bits: impl Fn(&T) -> u64) -> u64 {
    xs.iter().fold(h ^ 0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ bits(x)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `got` is within `tol` of `want`, relative to `want`'s largest entry.
fn close(got: &[f64], want: &[f64], tol: f64) -> bool {
    let scale = want.iter().fold(1.0f64, |m, x| m.max(x.abs()));
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= tol * scale)
}

fn complex_parts(m: &Matrix<Complex64>) -> Vec<f64> {
    m.as_slice().iter().flat_map(|z| [z.re, z.im]).collect()
}

/// Run `f` as algorithm `name`, timed when tracing.
fn step<R>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.algo(name, f),
        None => f(),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A workload's set-up state.
pub enum Bench {
    Dense(Box<Dense>),
    Recursive(Recursive),
    Mix(Mix),
}

impl Bench {
    /// Set up `kind` from `seed`: inputs, references, and any schedule.
    pub fn new(kind: Kind, seed: u64, sizes: &Sizes) -> Result<Self, String> {
        Ok(match kind {
            Kind::DenseP2 => Self::Dense(Box::new(Dense::new(sizes, seed, false)?)),
            Kind::DenseP2Faults => Self::Dense(Box::new(Dense::new(sizes, seed, true)?)),
            Kind::RecursiveSched => Self::Recursive(Recursive::new(sizes, seed)),
            Kind::PaperMix => Self::Mix(Mix::new(sizes, seed)),
        })
    }

    /// Distinct inputs; solve `i` uses input `i % pool()`.
    pub fn pool(&self) -> usize {
        match self {
            Self::Dense(b) => b.pool.len(),
            Self::Recursive(b) => b.pool.len(),
            Self::Mix(b) => b.pool.len(),
        }
    }

    /// Solve input `i % pool()` on the default `HostExecutor`, or, when
    /// tracing, on that executor wrapped in [`Timed`] with the tracer's
    /// recorder attached.
    pub fn solve(&self, i: usize, tr: Option<&mut Tracer>) -> Result<Solved, String> {
        match tr {
            None => self.solve_with(i, |h| h, None),
            Some(t) => {
                let probe = std::sync::Arc::clone(&t.probe);
                self.solve_with(i, move |h| Timed::new(h, probe.clone()), Some(t))
            }
        }
    }

    fn solve_with<E: Executor + Clone>(
        &self,
        i: usize,
        wrap: impl Fn(HostExecutor) -> E,
        tr: Option<&mut Tracer>,
    ) -> Result<Solved, String> {
        match self {
            Self::Dense(b) => b.solve(i, wrap(b.host()), tr),
            Self::Recursive(b) => b.solve(i, wrap(HostExecutor::new()), tr),
            Self::Mix(b) => b.solve(i, wrap(HostExecutor::new()), tr),
        }
    }

    /// Wall times of the set-up layers this workload calls directly.
    pub fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        match self {
            Self::Dense(b) => b.setup_layers.clone(),
            _ => Vec::new(),
        }
    }

    /// The dense workloads' single-unit rival, if any.
    pub fn dense_mut(&mut self) -> Option<&mut Dense> {
        match self {
            Self::Dense(b) => Some(b),
            _ => None,
        }
    }
}

/// Theorem 2's blocked product, planned once for [`UNITS`] units.
pub struct Dense {
    d: usize,
    /// `[A, B, reference C]` per input.
    pool: Vec<[Matrix<f64>; 3]>,
    graph: OpGraph,
    bufs: [BufferId; 3],
    pub plan: Schedule,
    serial: Option<Schedule>,
    faults: Option<FaultPlan>,
    setup_layers: Vec<(&'static str, f64)>,
}

impl Dense {
    fn new(sizes: &Sizes, seed: u64, faults: bool) -> Result<Self, String> {
        let d = sizes.dense_d;
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..sizes.pool)
            .map(|_| {
                let a = workloads::random_matrix_f64(d, d, &mut rng);
                let b = workloads::random_matrix_f64(d, d, &mut rng);
                let c = dense::multiply(&mut TcuMachine::model(SQRT_M * SQRT_M, 0), &a, &b);
                [a, b, c]
            })
            .collect();

        let t0 = Instant::now();
        let mut graph = OpGraph::new();
        let bufs = [
            graph.buffer("A", d, d),
            graph.buffer("B", d, d),
            graph.buffer("C", d, d),
        ];
        let q = d / SQRT_M;
        for j in 0..q {
            for k in 0..q {
                graph.record(
                    TensorOp::mul_acc(d, SQRT_M),
                    OperandRef::new(bufs[0], 0, k * SQRT_M, d, SQRT_M),
                    OperandRef::new(bufs[1], k * SQRT_M, j * SQRT_M, SQRT_M, SQRT_M),
                    OperandRef::new(bufs[2], 0, j * SQRT_M, d, SQRT_M),
                );
            }
        }
        let record = t0.elapsed();
        let t0 = Instant::now();
        let plan = Scheduler::new().with_units(UNITS).plan(&graph, &unit());
        let planned = t0.elapsed();
        let t0 = Instant::now();
        plan.compile(&ExecEnv::<f64>::new(&graph)).map_err(err)?;
        let compiled = t0.elapsed();

        let faults = faults.then(|| FaultPlan::seeded(seed, UNITS, 2 * plan.invocations(), 100, 0));
        Ok(Self {
            d,
            pool,
            graph,
            bufs,
            plan,
            serial: None,
            faults,
            setup_layers: vec![
                ("sched.record_ms", ms(record)),
                ("sched.plan_ms", ms(planned)),
                ("sched.compile_ms", ms(compiled)),
            ],
        })
    }

    /// Each unit's executor: the default, with a pack cache sized for
    /// the blocked flow.
    fn host(&self) -> HostExecutor {
        let mut h = HostExecutor::new();
        h.enable_pack_cache(pack_cache_capacity((self.d, self.d), SQRT_M, UNITS));
        h
    }

    fn solve<E: Executor + Clone>(
        &self,
        i: usize,
        exec: E,
        tr: Option<&mut Tracer>,
    ) -> Result<Solved, String> {
        let t0 = Instant::now();
        let input = &self.pool[i % self.pool.len()];
        match &self.faults {
            None => self.run(
                t0,
                ParallelTcuMachine::with_executor(unit(), UNITS, exec),
                input,
                tr,
            ),
            Some(plan) => {
                let faulty = FaultyExecutor::new(exec, plan.clone());
                let mut mach = ParallelTcuMachine::with_executor(unit(), UNITS, faulty);
                assign_unit_ids(&mut mach);
                self.run(t0, mach, input, tr)
            }
        }
    }

    /// The rest of a solve that started at `t0`.
    fn run<E: Executor>(
        &self,
        t0: Instant,
        mut mach: ParallelTcuMachine<ModelTensorUnit, E>,
        [a, b, want]: &[Matrix<f64>; 3],
        tr: Option<&mut Tracer>,
    ) -> Result<Solved, String> {
        if let Some(t) = tr.as_deref() {
            mach.enable_recorder(t.recorder());
        }
        let mut c = Matrix::zeros(self.d, self.d);
        let mut env = ExecEnv::new(&self.graph);
        env.try_bind_input(self.bufs[0], a.view()).map_err(err)?;
        env.try_bind_input(self.bufs[1], b.view()).map_err(err)?;
        env.try_bind_output(self.bufs[2], c.view_mut())
            .map_err(err)?;
        let e0 = tr.as_deref().map(|t| t.probe.totals());
        let run_t0 = Instant::now();
        let run = self.plan.try_run_parallel(&mut mach, &mut env);
        let wall = run_t0.elapsed();
        drop(env);
        run.map_err(err)?;
        let solve_wall = t0.elapsed();
        if let (Some(t), Some(e0)) = (tr, e0) {
            let e = t.probe.totals().since(&e0);
            t.set("sched.run_ms", ms(wall));
            t.set(
                "sched.run_overhead_ms",
                ms(wall) - e.max_unit_busy_ns() as f64 / 1e6,
            );
            t.set(
                "sched.unit_busy_frac",
                e.busy_ns() as f64 / (UNITS as f64 * wall.as_nanos().max(1) as f64),
            );
        }
        Ok(Solved {
            ok: c == *want,
            digest: digest(0, c.as_slice(), |x| x.to_bits()),
            sim_time: mach.time(),
            issued: self.plan.ops() as u64,
            wall: solve_wall,
            counters: MachineCounters {
                stats: mach.stats().clone(),
                pack: mach.stats_summary().pack_cache,
                faults: *mach.fault_stats(),
            },
        })
    }

    /// Plan and compile the same graph for one unit (the serial rival).
    pub fn prepare_serial(&mut self) -> Result<(), String> {
        let serial = Scheduler::new().plan(&self.graph, &unit());
        serial
            .compile(&ExecEnv::<f64>::new(&self.graph))
            .map_err(err)?;
        self.serial = Some(serial);
        Ok(())
    }

    /// The same input through the single-unit schedule on a serial
    /// machine: whether the product matches the reference, and the wall
    /// time of the solve.
    pub fn serial_solve(&self, i: usize) -> Result<(bool, Duration), String> {
        let serial = self.serial.as_ref().ok_or("serial plan not prepared")?;
        let t0 = Instant::now();
        let [a, b, want] = &self.pool[i % self.pool.len()];
        let mut h = HostExecutor::new();
        h.enable_pack_cache(pack_cache_capacity((self.d, self.d), SQRT_M, 1));
        let mut mach = TcuMachine::with_executor(unit(), h);
        let mut c = Matrix::zeros(self.d, self.d);
        let mut env = ExecEnv::new(&self.graph);
        env.try_bind_input(self.bufs[0], a.view()).map_err(err)?;
        env.try_bind_input(self.bufs[1], b.view()).map_err(err)?;
        env.try_bind_output(self.bufs[2], c.view_mut())
            .map_err(err)?;
        serial.try_run(&mut mach, &mut env).map_err(err)?;
        drop(env);
        let wall = t0.elapsed();
        Ok((c == *want, wall))
    }
}

struct RecursiveInput {
    ge: Matrix<f64>,
    ge_want: Matrix<f64>,
    adj: Matrix<i64>,
    adj_want: Matrix<i64>,
    a: Matrix<i64>,
    b: Matrix<i64>,
    ab_want: Matrix<i64>,
}

/// Scheduled gauss, closure and Strassen-style recursion on one serial
/// machine, planning through `plan_memo` on every solve.
pub struct Recursive {
    pool: Vec<RecursiveInput>,
}

impl Recursive {
    fn new(sizes: &Sizes, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..sizes.pool)
            .map(|_| {
                let d = sizes.gauss_d;
                let a = tcu_linalg::decomp::diag_dominant(d - 1, rng.gen());
                let rhs: Vec<f64> = (0..d - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let ge = tcu_linalg::decomp::augmented_from(&a, &rhs);
                let mut ge_want = ge.clone();
                gauss::ge_forward(&mut TcuMachine::model(SQRT_M * SQRT_M, 0), &mut ge_want);

                let n = sizes.closure_n;
                let adj = workloads::random_digraph(n, 2.0 / n as f64, &mut rng);
                let adj_want = closure::transitive_closure_host(&adj);

                let s = sizes.strassen_d;
                let a = workloads::random_matrix_i64(s, s, 20, &mut rng);
                let b = workloads::random_matrix_i64(s, s, 20, &mut rng);
                let ab_want = tcu_linalg::kernels::matmul(a.view(), b.view());
                RecursiveInput {
                    ge,
                    ge_want,
                    adj,
                    adj_want,
                    a,
                    b,
                    ab_want,
                }
            })
            .collect();
        Self { pool }
    }

    fn solve<E: Executor>(
        &self,
        i: usize,
        exec: E,
        mut tr: Option<&mut Tracer>,
    ) -> Result<Solved, String> {
        let t0 = Instant::now();
        let inp = &self.pool[i % self.pool.len()];
        let mut mach = TcuMachine::with_executor(unit(), exec);
        if let Some(t) = tr.as_deref() {
            mach.enable_recorder(t.recorder());
        }
        let mut x = inp.ge.clone();
        step(&mut tr, "gauss", || {
            gauss::try_eliminate_scheduled(&mut mach, &mut x)
        })
        .map_err(err)?;
        let mut y = inp.adj.clone();
        step(&mut tr, "closure", || {
            closure::try_transitive_scheduled(&mut mach, &mut y)
        })
        .map_err(err)?;
        let z = step(&mut tr, "strassen", || {
            strassen::try_multiply_recursive_scheduled_with_base(&mut mach, &inp.a, &inp.b, SQRT_M)
        })
        .map_err(err)?;
        let wall = t0.elapsed();
        let h = digest(0, x.as_slice(), |v| v.to_bits());
        let h = digest(h, y.as_slice(), |&v| v as u64);
        let h = digest(h, z.as_slice(), |&v| v as u64);
        Ok(Solved {
            ok: x == inp.ge_want && y == inp.adj_want && z == inp.ab_want,
            digest: h,
            sim_time: mach.time(),
            issued: mach.stats_summary().ops_issued,
            wall,
            counters: MachineCounters {
                stats: mach.stats().clone(),
                pack: mach.executor().cache_stats(),
                faults: FaultStats::default(),
            },
        })
    }
}

struct MixInput {
    signal: Matrix<Complex64>,
    spectrum: Vec<f64>,
    ka: BigNat,
    kb: BigNat,
    k_want: BigNat,
    coeffs: Vec<Fp61>,
    points: Vec<Fp61>,
    values: Vec<Fp61>,
    grid: Matrix<f64>,
    grid_want: Matrix<f64>,
    graph: Matrix<i64>,
    dist: Matrix<i64>,
    sa: CsrMatrix<f64>,
    sb: CsrMatrix<f64>,
    sab: Matrix<f64>,
}

/// Six eager §4 algorithms on one serial machine; no scheduler runs.
pub struct Mix {
    pool: Vec<MixInput>,
    stencil_k: usize,
}

/// Relative tolerance for the floating-point outputs.
const TOL: f64 = 1e-9;

fn weights() -> StencilWeights {
    StencilWeights::heat(0.1, 0.1)
}

impl Mix {
    fn new(sizes: &Sizes, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = (0..sizes.pool)
            .map(|_| {
                let signal = workloads::random_matrix_c64(sizes.fft_rows, sizes.fft_len, &mut rng);
                let spectrum = (0..sizes.fft_rows)
                    .flat_map(|r| fft::fft_host(signal.row(r)))
                    .flat_map(|z| [z.re, z.im])
                    .collect();
                let ka = BigNat::from_limbs(workloads::random_limbs(sizes.limbs, &mut rng));
                let kb = BigNat::from_limbs(workloads::random_limbs(sizes.limbs, &mut rng));
                let k_want = intmul::mul_host_karatsuba(&ka, &kb);
                let coeffs: Vec<Fp61> = (0..sizes.poly_n).map(|_| Fp61::new(rng.gen())).collect();
                let points: Vec<Fp61> = (0..sizes.poly_p).map(|_| Fp61::new(rng.gen())).collect();
                let values = poly::horner_host(&coeffs, &points);
                let grid = workloads::random_grid(sizes.stencil_d, &mut rng);
                let grid_want = stencil::run_host(&grid, &weights(), sizes.stencil_k);
                let n = sizes.apsd_n;
                let graph = workloads::random_connected_graph(n, 1.5 / n as f64, &mut rng);
                let dist = apsd::bfs_apsd_host(&graph);
                let (da, db) = workloads::random_sparse_pair(
                    sizes.sparse_d,
                    sizes.sparse_active,
                    sizes.sparse_active,
                    sizes.sparse_nnz,
                    &mut rng,
                );
                let (sa, sb) = (CsrMatrix::from_dense(&da), CsrMatrix::from_dense(&db));
                let sab = sparse::multiply_host(&sa, &sb).0.to_dense();
                MixInput {
                    signal,
                    spectrum,
                    ka,
                    kb,
                    k_want,
                    coeffs,
                    points,
                    values,
                    grid,
                    grid_want,
                    graph,
                    dist,
                    sa,
                    sb,
                    sab,
                }
            })
            .collect();
        Self {
            pool,
            stencil_k: sizes.stencil_k,
        }
    }

    fn solve<E: Executor>(
        &self,
        i: usize,
        exec: E,
        mut tr: Option<&mut Tracer>,
    ) -> Result<Solved, String> {
        let t0 = Instant::now();
        let inp = &self.pool[i % self.pool.len()];
        let mut mach = TcuMachine::with_executor(unit(), exec);
        if let Some(t) = tr.as_deref() {
            mach.enable_recorder(t.recorder());
        }
        let spectrum = step(&mut tr, "fft", || fft::dft_rows(&mut mach, &inp.signal));
        let product = step(&mut tr, "intmul", || {
            intmul::mul_tcu_karatsuba(&mut mach, &inp.ka, &inp.kb)
        });
        let values = step(&mut tr, "poly", || {
            poly::batch_eval(&mut mach, &inp.coeffs, &inp.points)
        });
        let grid = step(&mut tr, "stencil", || {
            stencil::run_tcu(&mut mach, &inp.grid, &weights(), self.stencil_k)
        });
        let dist = step(&mut tr, "apsd", || apsd::seidel_apsd(&mut mach, &inp.graph));
        let sab = step(&mut tr, "sparse", || {
            sparse::multiply_tcu(&mut mach, &inp.sa, &inp.sb)
        });
        let wall = t0.elapsed();
        let sab = sab.to_dense();

        let spectrum = complex_parts(&spectrum);
        let ok = close(&spectrum, &inp.spectrum, TOL)
            && product == inp.k_want
            && values == inp.values
            && close(grid.as_slice(), inp.grid_want.as_slice(), TOL)
            && dist == inp.dist
            && close(sab.as_slice(), inp.sab.as_slice(), TOL);
        let h = digest(0, &spectrum, |v| v.to_bits());
        let h = digest(h, product.limbs(), |&v| v);
        let h = digest(h, &values, |v| v.value());
        let h = digest(h, grid.as_slice(), |v| v.to_bits());
        let h = digest(h, dist.as_slice(), |&v| v as u64);
        let h = digest(h, sab.as_slice(), |v| v.to_bits());
        Ok(Solved {
            ok,
            digest: h,
            sim_time: mach.time(),
            issued: mach.stats_summary().ops_issued,
            wall,
            counters: MachineCounters {
                stats: mach.stats().clone(),
                pack: mach.executor().cache_stats(),
                faults: FaultStats::default(),
            },
        })
    }
}
