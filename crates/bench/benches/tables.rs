//! Regenerating each of the paper's tables.
//!
//! One bench per table/figure artifact, as DESIGN.md's experiment index
//! requires. These run at `Scale::Small` so the repeated sampling stays
//! fast; the `--bin tables` binary produces the paper-scale rows.

use cdmm_bench::timing::run;
use cdmm_core::experiments::{table1, table2, table3, table4, Harness};
use cdmm_workloads::Scale;

const SAMPLES: u32 = 10;

fn main() {
    run("table1_cd_directive_sets", SAMPLES, || {
        let mut h = Harness::new(Scale::Small);
        table1(&mut h)
    });
    run("table2_min_st_comparison", SAMPLES, || {
        let mut h = Harness::new(Scale::Small);
        table2(&mut h)
    });
    run("table3_equal_memory_comparison", SAMPLES, || {
        let mut h = Harness::new(Scale::Small);
        table3(&mut h)
    });
    run("table4_equal_faults_comparison", SAMPLES, || {
        let mut h = Harness::new(Scale::Small);
        table4(&mut h)
    });
}
