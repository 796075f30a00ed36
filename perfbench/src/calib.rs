//! The host-speed reference the timed metrics are normalised by.
//!
//! A shared host's speed drifts by a third and more over minutes, far
//! more than any bound a run-to-run comparison could hold. So a run
//! probes the host between its timed units of work, every second or so:
//! a probe is a fixed amount of work in the benchmark's own code
//! (Dijkstra runs over a fixed random graph, one per engine worker
//! thread at once), none of it from the crates under test. A probe's
//! wall time over [`NOMINAL_S`] is the host's slowness at that moment,
//! and a run reports its figures as they would read on a host where the
//! probe takes exactly [`NOMINAL_S`]: times divided by the median
//! slowness of the run's probes, rates multiplied by it. A change to the
//! program moves the figures and not the probes, so it shows in the
//! normalised figures in full.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::batch::splitmix;

/// Nodes of the reference graph.
const NODES: usize = 30_000;
/// Out-degree of every node of the reference graph.
const DEGREE: usize = 16;
/// Dijkstra runs per thread in one probe.
const RUNS: usize = 4;
/// Wall time of one probe on the host the bounds were set on (a 2-vCPU
/// VM, two threads): the unit the normalised figures are given in.
pub const NOMINAL_S: f64 = 0.06;

/// The reference graph and the threads a probe runs on.
pub struct HostRef {
    off: Vec<u32>,
    to: Vec<u32>,
    w: Vec<f32>,
    threads: usize,
    next_source: u32,
}

impl HostRef {
    /// The fixed reference graph (the same on every run), probed on
    /// `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        let mut s = 0x00C0_FFEE;
        let mut off = Vec::with_capacity(NODES + 1);
        let mut to = Vec::with_capacity(NODES * DEGREE);
        let mut w = Vec::with_capacity(NODES * DEGREE);
        off.push(0);
        for _ in 0..NODES {
            for _ in 0..DEGREE {
                to.push((splitmix(&mut s) % NODES as u64) as u32);
                w.push(0.01 + (splitmix(&mut s) % 1000) as f32 / 1000.0);
            }
            off.push(to.len() as u32);
        }
        HostRef {
            off,
            to,
            w,
            threads: threads.max(1),
            next_source: 0,
        }
    }

    /// Run the reference work once; returns the host's slowness (probe
    /// wall time over [`NOMINAL_S`]).
    pub fn probe(&mut self) -> f64 {
        let first = self.next_source;
        self.next_source = self.next_source.wrapping_add((self.threads * RUNS) as u32);
        let this = &*self;
        let t = Instant::now();
        std::thread::scope(|scope| {
            for th in 0..this.threads {
                scope.spawn(move || {
                    let mut dist = vec![f32::INFINITY; NODES];
                    let mut heap = BinaryHeap::new();
                    let mut acc = 0.0f32;
                    for r in 0..RUNS {
                        let src = first
                            .wrapping_add((th * RUNS + r) as u32)
                            .wrapping_mul(7919)
                            % NODES as u32;
                        acc += this.dijkstra(src, &mut dist, &mut heap);
                    }
                    std::hint::black_box(acc);
                });
            }
        });
        t.elapsed().as_secs_f64() / NOMINAL_S
    }

    /// Distances from `src` to every node; returns their sum.
    fn dijkstra(
        &self,
        src: u32,
        dist: &mut [f32],
        heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
    ) -> f32 {
        dist.fill(f32::INFINITY);
        heap.clear();
        dist[src as usize] = 0.0;
        heap.push(Reverse((0, src)));
        let mut sum = 0.0;
        while let Some(Reverse((bits, u))) = heap.pop() {
            // Non-negative f32 distances order like their bit patterns.
            let d = f32::from_bits(bits);
            if d > dist[u as usize] {
                continue;
            }
            sum += d;
            for e in self.off[u as usize] as usize..self.off[u as usize + 1] as usize {
                let v = self.to[e] as usize;
                let nd = d + self.w[e];
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd.to_bits(), v as u32)));
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_positive_and_finite() {
        let mut r = HostRef::new(2);
        let k = r.probe();
        assert!(k.is_finite() && k > 0.0);
        assert!(r.probe().is_finite());
    }
}
