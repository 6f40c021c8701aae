//! One module per traced program. Each exposes
//! `workload(scale) -> Workload` and keeps its source generator private.

pub mod approx;
pub mod conduct;
pub mod fdjac;
pub mod field;
pub mod hwscrt;
pub mod hybrj;
pub mod init;
pub mod main_;
pub mod tql;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{Scale, Workload};

    /// Virtual pages of the workload at paper scale.
    pub fn paper_pages(make: fn(Scale) -> Workload) -> u32 {
        let w = make(Scale::Paper);
        let mut p = cdmm_lang::parse(&w.source).unwrap();
        let syms = cdmm_lang::analyze(&mut p).unwrap();
        let layout = cdmm_trace::MemoryLayout::new(&syms, cdmm_locality::PageGeometry::PAPER);
        layout.total_pages()
    }
}
