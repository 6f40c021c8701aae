//! Front-end and trace-generation stages of the CD pipeline (compile,
//! analyse, instrument, interpret).

use cdmm_bench::timing::run;
use cdmm_core::{prepare, PipelineConfig};
use cdmm_locality::{analyze_program, instrument, InsertOptions, PageGeometry};
use cdmm_workloads::{by_name, Scale};

const SAMPLES: u32 = 20;

fn main() {
    let w = by_name("CONDUCT", Scale::Small).expect("known workload");
    run("parse_and_check", SAMPLES, || {
        let mut p = cdmm_lang::parse(&w.source).expect("parses");
        cdmm_lang::analyze(&mut p).expect("checks")
    });
    run("locality_analysis", SAMPLES, || {
        analyze_program(&w.source, PageGeometry::PAPER).expect("analyses")
    });
    let analysis = analyze_program(&w.source, PageGeometry::PAPER).expect("analyses");
    run("directive_insertion", SAMPLES, || {
        instrument(&analysis, InsertOptions::default())
    });

    let field = by_name("FIELD", Scale::Small).expect("known workload");
    run("trace_generation_field_small", SAMPLES, || {
        cdmm_trace::trace_program_compressed(&field.source, PageGeometry::PAPER).expect("traces")
    });

    let main = by_name("MAIN", Scale::Small).expect("known workload");
    run("prepare_main_small", SAMPLES, || {
        prepare("MAIN", &main.source, PipelineConfig::default()).expect("prepares")
    });
}
