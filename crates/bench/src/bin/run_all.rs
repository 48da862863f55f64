//! Runs every experiment in `tcu_bench::experiments`' index, in order.
//! Pass --quick for reduced sweeps.
fn main() {
    tcu_bench::experiment_main(tcu_bench::experiments::run_all);
}
