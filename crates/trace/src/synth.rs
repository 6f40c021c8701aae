//! Synthetic reference-string generators.
//!
//! The policy test suites need reference strings with known structure:
//! cyclic sweeps (the classic LRU worst case), phased localities (the WS
//! transition case the paper discusses), and uniform random noise. A
//! small deterministic SplitMix64 generator keeps the crate free of
//! external dependencies and the traces reproducible.

use crate::event::{Event, PageId, Trace};

/// SplitMix64 increment (the golden-ratio constant).
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mixer: a bijective 64-bit finalizer. The
/// workspace's seeded decisions, content hashes and line checksums are
/// all built on it.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift; bias is negligible for the bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A cyclic sweep over `pages` pages repeated `cycles` times — with
/// allocation below `pages`, LRU faults on every reference.
pub fn cyclic(pages: u32, cycles: u32) -> Trace {
    let mut events = Vec::with_capacity((pages as usize) * (cycles as usize));
    for _ in 0..cycles {
        for p in 0..pages {
            events.push(Event::Ref(PageId(p)));
        }
    }
    Trace {
        events,
        virtual_pages: pages,
    }
}

/// Uniform random references over `pages` pages.
pub fn uniform(pages: u32, len: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let events = (0..len)
        .map(|_| Event::Ref(PageId(rng.below(pages as u64) as u32)))
        .collect();
    Trace {
        events,
        virtual_pages: pages,
    }
}

/// Description of one program phase for [`phased`].
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// First page of the phase's locality set.
    pub base: u32,
    /// Number of pages in the locality set.
    pub pages: u32,
    /// References spent in the phase.
    pub refs: usize,
}

/// A phased trace: within each phase, references are uniform over the
/// phase's locality set. Phase transitions are where WS-style policies
/// over- and under-allocate.
pub fn phased(phases: &[Phase], seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut events = Vec::with_capacity(phases.iter().map(|p| p.refs).sum());
    let mut max_page = 0;
    for ph in phases {
        assert!(ph.pages > 0, "phase needs at least one page");
        max_page = max_page.max(ph.base + ph.pages);
        for _ in 0..ph.refs {
            let p = ph.base + rng.below(ph.pages as u64) as u32;
            events.push(Event::Ref(PageId(p)));
        }
    }
    Trace {
        events,
        virtual_pages: max_page,
    }
}

/// A nested-loop trace mimicking a column-major inner loop over an
/// `inner_pages`-page working set re-executed `outer` times, with
/// `outer_pages` outer-loop pages touched between repetitions. This is the
/// access shape the paper's Section 2 examples describe.
pub fn nested_loops(outer: u32, outer_pages: u32, inner_pages: u32, inner_repeat: u32) -> Trace {
    let mut events = Vec::new();
    for _ in 0..outer {
        for p in 0..outer_pages {
            events.push(Event::Ref(PageId(p)));
        }
        for _ in 0..inner_repeat {
            for p in 0..inner_pages {
                events.push(Event::Ref(PageId(outer_pages + p)));
            }
        }
    }
    Trace {
        events,
        virtual_pages: outer_pages + inner_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SplitMix64::new(1).below(0);
    }

    #[test]
    fn cyclic_shape() {
        let t = cyclic(5, 3);
        assert_eq!(t.ref_count(), 15);
        assert_eq!(t.distinct_pages(), 5);
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert_eq!(&pages[..5], &[0, 1, 2, 3, 4]);
        assert_eq!(&pages[5..10], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn uniform_covers_pages() {
        let t = uniform(8, 10_000, 1);
        assert_eq!(t.ref_count(), 10_000);
        assert_eq!(t.distinct_pages(), 8);
    }

    #[test]
    fn phased_stays_in_phase() {
        let t = phased(
            &[
                Phase {
                    base: 0,
                    pages: 4,
                    refs: 100,
                },
                Phase {
                    base: 10,
                    pages: 2,
                    refs: 50,
                },
            ],
            3,
        );
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert!(pages[..100].iter().all(|&p| p < 4));
        assert!(pages[100..].iter().all(|&p| (10..12).contains(&p)));
        assert_eq!(t.virtual_pages, 12);
    }

    #[test]
    fn nested_loops_shape() {
        let t = nested_loops(2, 1, 3, 2);
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert_eq!(pages, vec![0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3]);
    }
}
