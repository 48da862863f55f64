//! Regenerates the val_cycles experiment table (see the `tcu_bench::experiments` index).
//! Pass --quick for the reduced smoke-test sweep.
fn main() {
    tcu_bench::experiment_main(tcu_bench::experiments::val_cycles::run);
}
