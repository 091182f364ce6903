//! Pre-optimization reference implementations, kept verbatim for the golden
//! equivalence suite and the perf harness.
//!
//! [`RrCollection`] is the nested-`Vec` collection (one allocation per RR
//! set, per-node index rows grown by `push`) that predates the CSR arenas
//! in [`crate::rrset::RrCollection`]; the cascade functions are the
//! allocating variants that predate the per-lane [`crate::scratch`]
//! buffers. The optimized paths must produce bit-identical sets, spreads,
//! and greedy selections — equality is asserted set-by-set and via
//! `f64::to_bits` at 1/2/8 threads.

use mcpb_graph::{Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pre-PR nested-`Vec` RR-set collection.
#[derive(Debug, Clone)]
pub struct RrCollection {
    n: usize,
    sets: Vec<Vec<NodeId>>,
    index: Vec<Vec<u32>>,
}

impl RrCollection {
    /// Creates an empty collection for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            sets: Vec::new(),
            index: vec![Vec::new(); n],
        }
    }

    /// Samples RR sets until the collection holds `target` of them, with
    /// the sequential per-node index post-pass of the original code.
    pub fn extend_to(&mut self, graph: &Graph, target: usize, seed: u64) {
        let start = self.sets.len();
        if target <= start {
            return;
        }
        let fresh: Vec<Vec<NodeId>> = mcpb_par::map_indexed(target - start, |j| {
            let i = start + j;
            let mut rng =
                ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            sample_rr_set(graph, &mut rng)
        });
        for (offset, set) in fresh.into_iter().enumerate() {
            // audit:allow(MCPB006) — set ids are bounded by the sampled count
            let id = (start + offset) as u32;
            for &v in &set {
                self.index[v as usize].push(id);
            }
            self.sets.push(set);
        }
    }

    /// Number of RR sets held.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if no RR sets have been sampled.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The RR sets themselves.
    pub fn sets(&self) -> &[Vec<NodeId>] {
        &self.sets
    }

    /// RR-set indices containing node `v`.
    pub fn sets_containing(&self, v: NodeId) -> &[u32] {
        &self.index[v as usize]
    }

    /// `D(S)`: the number of RR sets containing at least one node of `seeds`.
    pub fn coverage(&self, seeds: &[NodeId]) -> usize {
        let mut hit = vec![false; self.sets.len()];
        let mut count = 0usize;
        for &s in seeds {
            for &id in &self.index[s as usize] {
                if !hit[id as usize] {
                    hit[id as usize] = true;
                    count += 1;
                }
            }
        }
        count
    }

    /// Greedy max-coverage over the RR sets (CELF-style lazy evaluation).
    pub fn greedy_max_coverage(&self, k: usize) -> (Vec<NodeId>, usize) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut covered = vec![false; self.sets.len()];
        let mut heap: BinaryHeap<(usize, Reverse<NodeId>, u32)> = (0..self.n as NodeId)
            .filter(|&v| !self.index[v as usize].is_empty())
            .map(|v| (self.index[v as usize].len(), Reverse(v), 0u32))
            .collect();
        let mut seeds = Vec::with_capacity(k);
        let mut total = 0usize;
        let mut round = 0u32;

        while seeds.len() < k {
            let Some((gain, Reverse(v), stamp)) = heap.pop() else {
                break;
            };
            if stamp == round {
                if gain == 0 {
                    break;
                }
                for &id in &self.index[v as usize] {
                    if !covered[id as usize] {
                        covered[id as usize] = true;
                        total += 1;
                    }
                }
                seeds.push(v);
                round += 1;
            } else {
                let fresh = self.index[v as usize]
                    .iter()
                    .filter(|&&id| !covered[id as usize])
                    .count();
                heap.push((fresh, Reverse(v), round));
            }
        }
        (seeds, total)
    }
}

/// The pre-PR RR sampler: fresh `in_set`/queue allocation per set.
pub fn sample_rr_set(graph: &Graph, rng: &mut impl Rng) -> Vec<NodeId> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let target = rng.gen_range(0..n) as NodeId;
    let mut in_set = vec![false; n];
    in_set[target as usize] = true;
    let mut queue = vec![target];
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        let srcs = graph.in_neighbors(v);
        let ws = graph.in_weights(v);
        for (&u, &p) in srcs.iter().zip(ws) {
            if !in_set[u as usize] && rng.gen::<f32>() < p {
                in_set[u as usize] = true;
                queue.push(u);
            }
        }
    }
    queue
}

/// Convenience: sample a fresh reference collection of `m` RR sets.
pub fn sample_collection(graph: &Graph, m: usize, seed: u64) -> RrCollection {
    let mut c = RrCollection::new(graph.num_nodes());
    c.extend_to(graph, m, seed);
    c
}

/// The pre-PR IC spread estimator: fresh scratch per 64-trial chunk.
pub fn influence_mc(graph: &Graph, seeds: &[NodeId], trials: usize, seed: u64) -> f64 {
    if trials == 0 || graph.num_nodes() == 0 {
        return 0.0;
    }
    let chunk = 64usize;
    let trial_sum = |c: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
        let mut visited = vec![0u32; graph.num_nodes()];
        let mut frontier = Vec::new();
        let in_chunk = chunk.min(trials - c * chunk);
        let mut sum = 0u64;
        for t in 0..in_chunk {
            sum += crate::cascade::simulate_ic_into(
                graph,
                seeds,
                &mut rng,
                &mut visited,
                t as u32 + 1, // audit:allow(MCPB006) — stamp epoch, trials < u32::MAX
                &mut frontier,
            ) as u64;
        }
        sum
    };
    let total: u64 =
        mcpb_par::map_chunked(trials.div_ceil(chunk), mcpb_par::DEFAULT_CHUNK, |range| {
            range.map(&trial_sum).sum::<u64>()
        })
        .into_iter()
        .sum();
    total as f64 / trials as f64
}

/// The pre-PR LT diffusion: fresh `active`/`pressure`/`threshold` buffers
/// and a fresh `next` frontier per BFS level.
pub fn simulate_lt(graph: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
    let n = graph.num_nodes();
    let mut active = vec![false; n];
    let mut pressure = vec![0f32; n]; // accumulated active in-weight
    let mut threshold = vec![0f32; n];
    for t in threshold.iter_mut() {
        *t = rng.gen::<f32>();
    }
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut count = 0usize;
    for &s in seeds {
        if !active[s as usize] {
            active[s as usize] = true;
            frontier.push(s);
            count += 1;
        }
    }
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            let nbrs = graph.out_neighbors(u);
            let ws = graph.out_weights(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                let vi = v as usize;
                if !active[vi] {
                    pressure[vi] += w;
                    if pressure[vi] >= threshold[vi] {
                        active[vi] = true;
                        next.push(v);
                        count += 1;
                    }
                }
            }
        }
        frontier = next;
    }
    count
}

/// The pre-PR LT spread estimator: one task (and one full scratch
/// allocation) per trial.
pub fn influence_mc_lt(graph: &Graph, seeds: &[NodeId], trials: usize, seed: u64) -> f64 {
    if trials == 0 || graph.num_nodes() == 0 {
        return 0.0;
    }
    let total: u64 = mcpb_par::map_chunked(trials, mcpb_par::DEFAULT_CHUNK, |range| {
        range
            .map(|t| {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                simulate_lt(graph, seeds, &mut rng) as u64
            })
            .sum::<u64>()
    })
    .into_iter()
    .sum();
    total as f64 / trials as f64
}
