//! Naive reference simulators, written from the textbook definitions and
//! sharing no code with `cdmm-vmsim`: a move-to-front LRU stack, a FIFO
//! queue, and a Working Set computed as the distinct pages of a sliding
//! window. The benchmark re-checks sampled operating points of every
//! workload against them.

use std::collections::VecDeque;

/// What a reference run produces: references, faults, the integral of
/// resident pages over references (resident count after each
/// reference, summed) and the peak resident count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefResult {
    /// References simulated.
    pub refs: u64,
    /// Page faults.
    pub faults: u64,
    /// Sum over references of the resident-set size after it.
    pub mem_integral: u128,
    /// Largest resident-set size.
    pub peak: usize,
}

struct Tally(RefResult);

impl Tally {
    fn new() -> Self {
        Tally(RefResult {
            refs: 0,
            faults: 0,
            mem_integral: 0,
            peak: 0,
        })
    }

    fn step(&mut self, fault: bool, resident: usize) {
        self.0.refs += 1;
        self.0.faults += fault as u64;
        self.0.mem_integral += resident as u128;
        self.0.peak = self.0.peak.max(resident);
    }
}

/// LRU with `frames` frames: a recency list, most recent last; a hit
/// moves the page to the end, a fault evicts the front when full.
pub fn lru(pages: &[u32], frames: usize) -> RefResult {
    assert!(frames >= 1, "LRU needs at least one frame");
    let mut stack: Vec<u32> = Vec::with_capacity(frames + 1);
    let mut t = Tally::new();
    for &p in pages {
        let fault = match stack.iter().position(|&q| q == p) {
            Some(i) => {
                stack.remove(i);
                false
            }
            None => {
                if stack.len() == frames {
                    stack.remove(0);
                }
                true
            }
        };
        stack.push(p);
        t.step(fault, stack.len());
    }
    t.0
}

/// FIFO with `frames` frames: a fault evicts the page loaded longest
/// ago, hits change nothing.
pub fn fifo(pages: &[u32], frames: usize) -> RefResult {
    assert!(frames >= 1, "FIFO needs at least one frame");
    let mut queue: VecDeque<u32> = VecDeque::with_capacity(frames + 1);
    let mut t = Tally::new();
    for &p in pages {
        let fault = !queue.contains(&p);
        if fault {
            if queue.len() == frames {
                queue.pop_front();
            }
            queue.push_back(p);
        }
        t.step(fault, queue.len());
    }
    t.0
}

/// Working Set with window `tau`: a reference faults when its page is
/// not among the previous `tau` references, and the resident set after
/// reference `t` is the distinct pages of references `t-tau+1 ..= t`.
pub fn ws(pages: &[u32], tau: u64) -> RefResult {
    assert!(tau >= 1, "WS needs a positive window");
    let tau = tau.min(pages.len() as u64 + 1) as usize;
    let size = pages.iter().map(|&p| p as usize + 1).max().unwrap_or(0);
    let mut in_window = vec![0u32; size];
    let mut distinct = 0usize;
    let mut t = Tally::new();
    for (i, &p) in pages.iter().enumerate() {
        let fault = in_window[p as usize] == 0;
        in_window[p as usize] += 1;
        distinct += fault as usize;
        if i >= tau {
            let old = pages[i - tau] as usize;
            in_window[old] -= 1;
            distinct -= (in_window[old] == 0) as usize;
        }
        t.step(fault, distinct);
    }
    t.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Belady's anomaly string.
    const BELADY: [u32; 12] = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];

    #[test]
    fn fifo_shows_beladys_anomaly() {
        assert_eq!(fifo(&BELADY, 3).faults, 9);
        assert_eq!(fifo(&BELADY, 4).faults, 10);
    }

    #[test]
    fn lru_has_no_anomaly() {
        assert_eq!(lru(&BELADY, 3).faults, 10);
        assert_eq!(lru(&BELADY, 4).faults, 8);
        assert_eq!(lru(&BELADY, 5).faults, 5);
        // With one frame every change of page faults.
        assert_eq!(lru(&[1, 1, 2, 2, 1], 1).faults, 3);
    }

    #[test]
    fn fixed_space_residency() {
        let r = lru(&BELADY, 3);
        assert_eq!(r.refs, 12);
        assert_eq!(r.peak, 3);
        // Resident sizes 1, 2, then 3 for the remaining ten references.
        assert_eq!(r.mem_integral, 1 + 2 + 3 * 10);
        assert_eq!(fifo(&BELADY, 3).mem_integral, 1 + 2 + 3 * 10);
    }

    #[test]
    fn working_set_by_hand() {
        // tau = 3: references 8 and 9 find pages 1 and 2 among the
        // previous three references; every other reference faults.
        let r = ws(&BELADY, 3);
        assert_eq!(r.faults, 10);
        // Window contents after each reference:
        // {1} {1,2} {1,2,3} {2,3,4} {3,4,1} {4,1,2} {1,2,5} {2,5,1}
        // {5,1,2} {1,2,3} {2,3,4} {3,4,5}
        assert_eq!(r.mem_integral, 1 + 2 + 3 * 10);
        assert_eq!(r.peak, 3);
        // tau = 1 keeps only the current page: every change faults.
        let r = ws(&[7, 7, 8, 7], 1);
        assert_eq!((r.faults, r.mem_integral), (3, 4));
        // A window longer than the string never drops a page.
        let r = ws(&BELADY, 100);
        assert_eq!((r.faults, r.peak), (5, 5));
    }
}
