//! One module per experiment (the index below; the README's Quickstart
//! shows how to run one). Each exposes `run(quick: bool)`: `quick`
//! shrinks the sweeps for smoke tests; the full sweeps are what the
//! `exp_*` binaries print by default.

pub mod e10_karatsuba;
pub mod e11_poly;
pub mod e12_extmem;
pub mod e1_strassen;
pub mod e2_dense;
pub mod e2_rect;
pub mod e3_sparse;
pub mod e4_gauss;
pub mod e5_closure;
pub mod e6_apsd;
pub mod e7_dft;
pub mod e8_stencil;
pub mod e9_intmul;
pub mod ep1_parallel;
pub mod ep2_precision;
pub mod f1_systolic;
pub mod val_cycles;

/// Run every experiment in index order (the `run_all` binary).
pub fn run_all(quick: bool) {
    f1_systolic::run(quick);
    e1_strassen::run(quick);
    e2_dense::run(quick);
    e2_rect::run(quick);
    e3_sparse::run(quick);
    e4_gauss::run(quick);
    e5_closure::run(quick);
    e6_apsd::run(quick);
    e7_dft::run(quick);
    e8_stencil::run(quick);
    e9_intmul::run(quick);
    e10_karatsuba::run(quick);
    e11_poly::run(quick);
    e12_extmem::run(quick);
    val_cycles::run(quick);
    ep1_parallel::run(quick);
    ep2_precision::run(quick);
}
