//! `large-rr`: the 1M-node tier. Set-up builds `ba-1m` from its stream,
//! saves it to the disk cache and loads it back through mmap; each cycle
//! samples RR sets, runs RR greedy at each budget and estimates the IC
//! spread of the smallest budget's seeds by Monte Carlo.
//!
//! The graph is the catalog's `ba-1m`; the run seed drives RR sampling and
//! the Monte Carlo trials.

use super::{derive, Bench, Options, Size};
use crate::check;
use crate::record::{Phase, Recorder};
use mcpb_graph::compact::{CompactGraph, CompactWeights};
use mcpb_graph::diskcache;
use mcpb_graph::stream::{StreamFamily, StreamSpec};
use mcpb_graph::tier::{large_config, LargeConfig};
use mcpb_im::cascade::influence_mc;
use mcpb_im::rrset::sample_collection;
use std::path::PathBuf;

pub(super) struct LargeRr {
    config: LargeConfig,
    cache_dir: PathBuf,
    rr_sets: usize,
    budgets: Vec<usize>,
    mc_trials: usize,
    seed: u64,
}

impl LargeRr {
    pub(super) fn new(opts: &Options) -> Self {
        let (config, rr_sets, budgets, mc_trials) = match opts.size {
            Size::Full => (
                large_config("ba-1m").expect("invariant: ba-1m is in the large catalog"),
                100_000,
                vec![50, 200],
                128,
            ),
            Size::Tiny => (
                LargeConfig {
                    name: "ba-tiny",
                    spec: StreamSpec {
                        family: StreamFamily::BarabasiAlbert { m_attach: 4 },
                        n: 20_000,
                        seed: 101,
                    },
                    weights: CompactWeights::WeightedCascade,
                },
                2_000,
                vec![5, 20],
                64,
            ),
        };
        LargeRr {
            config,
            cache_dir: opts.out_dir.clone(),
            rr_sets,
            budgets,
            mc_trials,
            seed: derive(opts.seed, 5),
        }
    }
}

impl Bench for LargeRr {
    type State = CompactGraph;

    fn setup(&self, rec: &mut Recorder) -> Result<CompactGraph, String> {
        let built = rec
            .time("graph.stream_build_ms", Phase::Setup, || {
                self.config.build()
            })
            .map_err(|e| format!("build {}: {e}", self.config.name))?;
        rec.set("graph.bytes", built.memory_bytes() as f64);
        let hash = self.config.config_hash();
        let path = self.config.cache_path(&self.cache_dir);
        rec.time("graph.cache_save_ms", Phase::Setup, || {
            diskcache::save(&built, hash, &path)
        })
        .map_err(|e| format!("save {}: {e}", path.display()))?;
        drop(built);
        let loaded = rec.time("graph.cache_load_ms", Phase::Setup, || {
            diskcache::load(&path, hash)
        });
        // The mapping outlives the directory entry, so the file goes now.
        let removed = std::fs::remove_file(&path);
        let g = loaded.map_err(|e| format!("load {}: {e}", path.display()))?;
        removed.map_err(|e| format!("remove {}: {e}", path.display()))?;
        rec.attempted += 1;
        let valid = rec.time("graph.validate_ms", Phase::Setup, || g.validate());
        rec.check(
            || format!("{} validate", self.config.name),
            valid.map_err(|e| e.to_string()),
        );
        Ok(g)
    }

    fn cycle(&self, g: &mut CompactGraph, rec: &mut Recorder) {
        let g = &*g;
        let n = g.num_nodes();
        let what = || format!("RR sampling on {}", self.config.name);
        let Some(rr) = rec.attempt("im.rr_sample_ms", Phase::Query, what, || {
            sample_collection(g, self.rr_sets, self.seed)
        }) else {
            return;
        };
        let set_nodes: usize = rr.sets().iter().map(<[u32]>::len).sum();
        rec.set("im.rr_set_nodes", set_nodes as f64);
        rec.check(
            what,
            (rr.len() == self.rr_sets)
                .then_some(())
                .ok_or(format!("{} sets", rr.len())),
        );
        let mut mc_seeds = None;
        for &k in &self.budgets {
            let what = || format!("RR greedy at k={k}");
            let Some((seeds, covered)) = rec.attempt("im.rr_greedy_ms", Phase::Query, what, || {
                rr.greedy_max_coverage(k)
            }) else {
                continue;
            };
            rec.check(what, check::seed_set(&seeds, n, k));
            let recount = rr.coverage(&seeds);
            rec.check(
                what,
                (recount == covered)
                    .then_some(())
                    .ok_or(format!("covers {recount}, claims {covered}")),
            );
            rec.digest.u64(k as u64);
            rec.digest.seeds(&seeds);
            rec.digest.u64(covered as u64);
            mc_seeds.get_or_insert(seeds);
        }
        let Some(seeds) = mc_seeds else {
            return;
        };
        let what = || format!("IC spread of {} seeds", seeds.len());
        let mc_seed = derive(self.seed, 6);
        let Some(spread) = rec.attempt("im.ic_mc_ms", Phase::Score, what, || {
            influence_mc(g, &seeds, self.mc_trials, mc_seed)
        }) else {
            return;
        };
        // Seeds are always active, so the spread is at least their count.
        let bounds = if spread >= seeds.len() as f64 && spread <= n as f64 {
            Ok(())
        } else {
            Err(format!("spread {spread} outside [{}, {n}]", seeds.len()))
        };
        rec.check(what, bounds);
        rec.quality.push(spread / n as f64);
        rec.digest.f64(spread);
    }
}
