//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! On a shared host the same pipeline run takes anywhere from 0.36 to
//! 0.64 s, in phases of seconds to a minute that follow what the
//! neighbours do, and CPU time swings with wall time: the cores run
//! slower, they are not taken away. Over a 150 s run the pipeline's wall
//! time divided by this kernel's, timed around it, stayed within 5% of
//! its median while the wall time itself moved by 27%. The kernel does
//! the kind of work Step II does (ego networks of a weighted graph:
//! adjacency walks, an induced subgraph keyed through a hash map, a
//! two-hop hash set) on a fixed graph of its own, so it slows down with
//! the pipeline, and it never calls the library, so no change to the
//! program moves it.

use crate::stats::median;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Nodes of the kernel's graph, and edges drawn per node (each edge is
/// stored at both ends).
const NODES: u32 = 6_000;
const EDGES_PER_NODE: u32 = 12;
/// Ego networks walked per pass.
const CENTRES: u32 = 600;
/// Passes per reading; their median drops a pass a time slice cut into.
const PASSES: usize = 5;

/// Nominal time of one pass, in seconds: about its time on an idle core
/// of a 2.1 GHz Xeon. Timings rescaled by [`Kernel::time_s`] read as
/// seconds on a host where a pass takes this long.
pub const NOMINAL_S: f64 = 0.02;

/// The kernel's graph: weighted adjacency lists, built once.
pub struct Kernel {
    adj: Vec<Vec<(u32, f64)>>,
}

impl Kernel {
    /// A fixed pseudo-random graph, the same on every host and run.
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut adj = vec![Vec::new(); NODES as usize];
        for v in 0..NODES {
            for _ in 0..EDGES_PER_NODE {
                // Skewed towards low ids, so a few hubs have large ego
                // networks, as head words do.
                let r = next();
                let u = ((r % u64::from(NODES)) * (r >> 40 & 0xff) / 255) as u32;
                if u != v {
                    let w = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    adj[v as usize].push((u, w));
                    adj[u as usize].push((v, w));
                }
            }
        }
        Kernel { adj }
    }

    /// Median wall time of [`PASSES`] passes on the calling thread, in
    /// seconds: how fast the host's cores go right now. One thread, so
    /// the reading is not the slowest of several threads' scheduling, and
    /// no worker thread's allocator arena grows the peak RSS the
    /// benchmark reports.
    pub fn time_s(&self) -> f64 {
        let times: Vec<f64> = (0..PASSES)
            .map(|_| {
                let t = Instant::now();
                black_box(self.pass());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    }

    /// One pass over the fixed centres; the checksum keeps the work from
    /// being optimised away.
    fn pass(&self) -> f64 {
        let mut acc = 0.0;
        for c in 0..CENTRES {
            let v = c * (NODES / CENTRES);
            let ego: Vec<u32> = self.adj[v as usize].iter().map(|&(u, _)| u).collect();
            let local: HashMap<u32, usize> = ego.iter().enumerate().map(|(i, &u)| (u, i)).collect();
            let mut inner = vec![Vec::new(); ego.len()];
            let mut two_hop = HashSet::new();
            for (i, &u) in ego.iter().enumerate() {
                for &(w, wt) in &self.adj[u as usize] {
                    match local.get(&w) {
                        Some(&j) => inner[i].push((j, wt)),
                        None if w != v => {
                            two_hop.insert(w);
                        }
                        None => {}
                    }
                }
            }
            let edges: usize = inner.iter().map(Vec::len).sum();
            let weight: f64 = inner.iter().flatten().map(|&(_, w)| w).sum();
            acc += edges as f64 + weight + two_hop.len() as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_graph_and_its_checksum_are_fixed() {
        let (a, b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.pass().to_bits(), b.pass().to_bits());
        assert!(a.pass() > 0.0);
    }

    #[test]
    fn a_reading_takes_time() {
        assert!(Kernel::new().time_s() > 0.0);
    }
}
