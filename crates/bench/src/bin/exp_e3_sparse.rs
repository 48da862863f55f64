//! Regenerates the e3_sparse experiment table (see the `tcu_bench::experiments` index).
//! Pass --quick for the reduced smoke-test sweep.
fn main() {
    tcu_bench::experiment_main(tcu_bench::experiments::e3_sparse::run);
}
