//! The `large` catalog tier: named million-node graph configs built from
//! streamed generators into [`Graph`]s, with an optional on-disk
//! cache keyed by config hash.
//!
//! The mid-size catalog ([`crate::catalog`]) tops out around 60K nodes and
//! materializes edge lists; this tier covers 1M–10M nodes and never builds
//! an edge list ([`crate::stream`]). Entry points:
//!
//! - [`large_catalog`] — the named configs,
//! - [`LargeConfig::build`] — stream → owned CSR, in memory,
//! - [`LargeConfig::load_cached`] — same, but backed by an `MCPBCSR1` cache
//!   file under a caller-chosen directory: a valid cache is mmap'd in
//!   (no deserialization); a missing/stale/corrupt one is rebuilt and
//!   rewritten.
//!
//! Cache invalidation: the file name embeds [`LargeConfig::config_hash`]
//! (so distinct configs never collide) and the file header repeats it (so a
//! renamed or hand-edited file is rejected); the header checksum catches
//! torn writes. Any rejection falls back to a rebuild — a cache can go
//! stale, never wrong.

use crate::compact::CompactWeights;
use crate::csr::{Graph, GraphError};
use crate::diskcache::{self, CacheError};
use crate::stream::{StreamFamily, StreamSpec};
use std::path::{Path, PathBuf};

/// A named `large`-tier graph config: a streamed family plus a weight
/// model. Everything that affects the generated bytes feeds
/// [`LargeConfig::config_hash`].
#[derive(Debug, Clone)]
pub struct LargeConfig {
    /// Catalog name, e.g. `"ba-1m"`. Also the cache-file stem.
    pub name: &'static str,
    /// Generator family, size, and seed.
    pub spec: StreamSpec,
    /// Weight model assigned during the streamed build.
    pub weights: CompactWeights,
}

impl LargeConfig {
    /// FNV-1a hash over every generation-relevant field (family tag and
    /// parameters, node count, seed, weight tag, format version). Two
    /// configs that could produce different bytes hash differently; the
    /// hash keys both the cache file name and its header.
    pub fn config_hash(&self) -> u64 {
        fn fold_bytes(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn fold(h: &mut u64, word: u64) {
            fold_bytes(h, &word.to_le_bytes());
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        fold(&mut h, diskcache::FORMAT_VERSION as u64);
        fold_bytes(&mut h, self.name.as_bytes());
        match self.spec.family {
            StreamFamily::BarabasiAlbert { m_attach } => {
                fold(&mut h, 1);
                fold(&mut h, m_attach as u64);
            }
            StreamFamily::ErdosRenyi { avg_degree } => {
                fold(&mut h, 2);
                fold(&mut h, avg_degree.to_bits());
            }
            StreamFamily::PlantedCommunity {
                blocks,
                p_in,
                p_out,
            } => {
                fold(&mut h, 3);
                fold(&mut h, blocks as u64);
                fold(&mut h, p_in.to_bits());
                fold(&mut h, p_out.to_bits());
            }
        }
        fold(&mut h, self.spec.n as u64);
        fold(&mut h, self.spec.seed);
        fold(&mut h, self.weights.tag() as u64);
        h
    }

    /// Cache file name: `{name}-{config_hash:016x}.mcpbcsr`.
    pub fn cache_file_name(&self) -> String {
        format!("{}-{:016x}.mcpbcsr", self.name, self.config_hash())
    }

    /// Cache file path under `dir`.
    pub fn cache_path(&self, dir: &Path) -> PathBuf {
        dir.join(self.cache_file_name())
    }

    /// Builds the graph in memory from the stream (no cache involved).
    pub fn build(&self) -> Result<Graph, GraphError> {
        Graph::build_streamed(&self.spec, self.weights)
    }

    /// Loads from the cache under `dir` if a valid file exists; otherwise
    /// builds from the stream, writes the cache, and reloads through it so
    /// the returned graph is mmap-backed whenever the platform allows.
    /// Returns the graph and whether it came from an existing cache file.
    pub fn load_cached(&self, dir: &Path) -> Result<(Graph, bool), CacheError> {
        let path = self.cache_path(dir);
        let hash = self.config_hash();
        match diskcache::load(&path, hash) {
            Ok(g) => return Ok((g, true)),
            Err(CacheError::Io(_)) | Err(CacheError::Mismatch { .. }) => {}
        }
        let built = self.build().map_err(|e| CacheError::Mismatch {
            detail: format!("build failed: {e}"),
        })?;
        std::fs::create_dir_all(dir)?;
        diskcache::save(&built, hash, &path)?;
        let g = diskcache::load(&path, hash)?;
        Ok((g, false))
    }
}

/// The `large` tier: named configs from 1M to 10M nodes. The first entry
/// (`ba-1m`) is the tier's smoke/bench config; the 4M/10M entries exist for
/// scale runs and are never built by default test or check paths.
pub fn large_catalog() -> Vec<LargeConfig> {
    vec![
        LargeConfig {
            name: "ba-1m",
            spec: StreamSpec {
                family: StreamFamily::BarabasiAlbert { m_attach: 8 },
                n: 1_000_000,
                seed: 101,
            },
            weights: CompactWeights::WeightedCascade,
        },
        LargeConfig {
            name: "er-1m",
            spec: StreamSpec {
                family: StreamFamily::ErdosRenyi { avg_degree: 8.0 },
                n: 1_000_000,
                seed: 103,
            },
            weights: CompactWeights::WeightedCascade,
        },
        LargeConfig {
            name: "pc-1m",
            spec: StreamSpec {
                family: StreamFamily::PlantedCommunity {
                    blocks: 64,
                    p_in: 4.0e-4,
                    p_out: 2.0e-6,
                },
                n: 1_000_000,
                seed: 107,
            },
            weights: CompactWeights::WeightedCascade,
        },
        LargeConfig {
            name: "ba-4m",
            spec: StreamSpec {
                family: StreamFamily::BarabasiAlbert { m_attach: 6 },
                n: 4_000_000,
                seed: 109,
            },
            weights: CompactWeights::WeightedCascade,
        },
        LargeConfig {
            name: "er-10m",
            spec: StreamSpec {
                family: StreamFamily::ErdosRenyi { avg_degree: 6.0 },
                n: 10_000_000,
                seed: 113,
            },
            weights: CompactWeights::WeightedCascade,
        },
    ]
}

/// Looks up a `large`-tier config by name.
pub fn large_config(name: &str) -> Option<LargeConfig> {
    large_catalog().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_hashes_are_distinct() {
        let cat = large_catalog();
        assert!(cat.len() >= 5);
        let mut names: Vec<_> = cat.iter().map(|c| c.name).collect();
        let mut hashes: Vec<_> = cat.iter().map(|c| c.config_hash()).collect();
        names.sort_unstable();
        names.dedup();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(names.len(), cat.len());
        assert_eq!(hashes.len(), cat.len());
    }

    #[test]
    fn hash_tracks_every_field() {
        let base = large_config("ba-1m").unwrap();
        let mut seed = base.clone();
        seed.spec.seed += 1;
        let mut size = base.clone();
        size.spec.n += 1;
        let mut weights = base.clone();
        weights.weights = CompactWeights::Constant;
        let mut fam = base.clone();
        fam.spec.family = StreamFamily::BarabasiAlbert { m_attach: 9 };
        for other in [&seed, &size, &weights, &fam] {
            assert_ne!(base.config_hash(), other.config_hash());
        }
    }

    #[test]
    fn cache_cycle_on_a_small_config() {
        let cfg = LargeConfig {
            name: "test-tiny",
            spec: StreamSpec {
                family: StreamFamily::BarabasiAlbert { m_attach: 4 },
                n: 2_000,
                seed: 5,
            },
            weights: CompactWeights::WeightedCascade,
        };
        let dir = std::env::temp_dir().join("mcpb-tier-test-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let (first, was_cached) = cfg.load_cached(&dir).unwrap();
        assert!(!was_cached);
        first.validate().unwrap();
        let (second, was_cached) = cfg.load_cached(&dir).unwrap();
        assert!(was_cached);
        for v in 0..2_000u32 {
            assert_eq!(first.out_neighbors(v), second.out_neighbors(v));
            assert_eq!(first.in_weights(v), second.in_weights(v));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
