//! Virtual-memory layout of a program's arrays.
//!
//! Arrays are placed one after another in declaration order, each starting
//! on a fresh page (so the paper's per-array page accounting — `AVS`,
//! `CVS` — matches the layout exactly). Elements within an array are
//! column-major, FORTRAN style: `A(i,j)` lives at linear offset
//! `(j-1)·M + (i-1)`.

use std::collections::BTreeMap;

use cdmm_lang::sema::SymbolTable;
use cdmm_locality::PageGeometry;

use crate::event::{PageId, PageRange};

/// One array's placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrayRegion {
    /// First page of the array.
    pub base_page: u32,
    /// Pages occupied (the array's `AVS`).
    pub pages: u32,
    /// Rows (`M`).
    pub rows: u64,
    /// Columns (`N`, 1 for vectors).
    pub cols: u64,
}

impl ArrayRegion {
    /// The array's page range.
    pub fn range(&self) -> PageRange {
        PageRange::new(self.base_page, self.base_page + self.pages)
    }

    /// The 0-based column-major offset of element `(row, col)`
    /// (1-based; `col = 1` for vectors), or `None` when either
    /// subscript falls outside the array's extents.
    pub fn offset(&self, row: i64, col: i64) -> Option<u64> {
        if row < 1 || col < 1 || row as u64 > self.rows || col as u64 > self.cols {
            return None;
        }
        Some((col as u64 - 1) * self.rows + (row as u64 - 1))
    }

    /// The page holding the element at linear `offset`.
    pub fn page(&self, offset: u64, elems_per_page: u64) -> PageId {
        PageId((self.base_page as u64 + offset / elems_per_page) as u32)
    }
}

/// The page layout of one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryLayout {
    geometry: PageGeometry,
    regions: BTreeMap<String, ArrayRegion>,
    total_pages: u32,
}

impl MemoryLayout {
    /// Lays out every array of the symbol table.
    pub fn new(symbols: &SymbolTable, geometry: PageGeometry) -> Self {
        let mut regions = BTreeMap::new();
        let mut next_page: u32 = 0;
        for name in &symbols.order {
            let shape = &symbols.arrays[name];
            let pages = geometry.pages_for(shape.elements()) as u32;
            regions.insert(
                name.clone(),
                ArrayRegion {
                    base_page: next_page,
                    pages,
                    rows: shape.rows,
                    cols: shape.cols,
                },
            );
            next_page += pages;
        }
        MemoryLayout {
            geometry,
            regions,
            total_pages: next_page,
        }
    }

    /// The geometry the layout was built with.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Total pages in the program's data virtual space (the paper's `V`).
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// The region of one array.
    pub fn region(&self, array: &str) -> Option<&ArrayRegion> {
        self.regions.get(array)
    }

    /// Page ranges for a list of arrays, skipping unknown names.
    pub fn ranges_of(&self, arrays: &[String]) -> Vec<PageRange> {
        arrays
            .iter()
            .filter_map(|a| self.regions.get(a).map(ArrayRegion::range))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_lang::{analyze, parse};

    fn layout(src: &str) -> MemoryLayout {
        let mut p = parse(src).unwrap();
        let syms = analyze(&mut p).unwrap();
        MemoryLayout::new(&syms, PageGeometry::PAPER)
    }

    #[test]
    fn arrays_are_page_aligned_in_declaration_order() {
        let l = layout("PROGRAM T\nPARAMETER (N = 100)\nDIMENSION A(N), B(N,N), C(N)\nEND");
        let a = l.region("A").unwrap();
        let b = l.region("B").unwrap();
        let c = l.region("C").unwrap();
        assert_eq!(a.base_page, 0);
        assert_eq!(a.pages, 2); // 100 elements / 64 per page.
        assert_eq!(b.base_page, 2);
        assert_eq!(b.pages, 157);
        assert_eq!(c.base_page, 159);
        assert_eq!(l.total_pages(), 161);
    }

    fn page_in(l: &MemoryLayout, a: &str, r: i64, c: i64) -> Option<PageId> {
        let region = l.region(a)?;
        Some(region.page(region.offset(r, c)?, l.geometry().elems_per_page()))
    }

    #[test]
    fn column_major_paging() {
        let l = layout("PROGRAM T\nPARAMETER (N = 64)\nDIMENSION A(N,N)\nEND");
        let page_of = |a, r, c| page_in(&l, a, r, c);
        // One column = exactly one page with 64 elements per page.
        assert_eq!(page_of("A", 1, 1), Some(PageId(0)));
        assert_eq!(page_of("A", 64, 1), Some(PageId(0)));
        assert_eq!(page_of("A", 1, 2), Some(PageId(1)));
        assert_eq!(page_of("A", 64, 64), Some(PageId(63)));
        // Walking a row strides across pages.
        assert_eq!(page_of("A", 5, 10), Some(PageId(9)));
    }

    #[test]
    fn vector_paging_and_bounds() {
        let l = layout("PROGRAM T\nDIMENSION V(130)\nEND");
        let page_of = |a, r, c| page_in(&l, a, r, c);
        assert_eq!(page_of("V", 1, 1), Some(PageId(0)));
        assert_eq!(page_of("V", 64, 1), Some(PageId(0)));
        assert_eq!(page_of("V", 65, 1), Some(PageId(1)));
        assert_eq!(page_of("V", 130, 1), Some(PageId(2)));
        assert_eq!(page_of("V", 131, 1), None);
        assert_eq!(page_of("V", 0, 1), None);
        assert_eq!(page_of("V", -3, 1), None);
        assert_eq!(page_of("W", 1, 1), None);
    }

    #[test]
    fn linear_offsets_are_column_major() {
        let l = layout("PROGRAM T\nDIMENSION A(3,2)\nEND");
        let linear_of = |a, r, c| l.region(a)?.offset(r, c);
        assert_eq!(linear_of("A", 1, 1), Some(0));
        assert_eq!(linear_of("A", 2, 1), Some(1));
        assert_eq!(linear_of("A", 3, 1), Some(2));
        assert_eq!(linear_of("A", 1, 2), Some(3));
        assert_eq!(linear_of("A", 3, 2), Some(5));
        assert_eq!(linear_of("A", 4, 1), None);
    }

    #[test]
    fn ranges_of_skips_unknown() {
        let l = layout("PROGRAM T\nDIMENSION V(64), W(64)\nEND");
        let ranges = l.ranges_of(&["V".into(), "Z".into(), "W".into()]);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], PageRange::new(0, 1));
        assert_eq!(ranges[1], PageRange::new(1, 2));
    }

    #[test]
    fn small_array_still_gets_a_page() {
        let l = layout("PROGRAM T\nDIMENSION V(3)\nEND");
        assert_eq!(l.region("V").unwrap().pages, 1);
        assert_eq!(l.total_pages(), 1);
    }
}
