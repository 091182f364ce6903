//! Round-trip integrity for the `large`-tier on-disk CSR cache
//! (`MCPBCSR1`): build → save → mmap reload must reproduce every array
//! byte for byte, re-saving a loaded graph must reproduce the file byte
//! for byte, and every corruption/staleness mode must be *rejected* (and
//! rebuilt by the tier loader), never silently served. The bytes `save`
//! writes for two small configs are pinned by digest, so a rewrite of the
//! writer must reproduce the file format exactly, padding included.

use mcpb_graph::diskcache::{self, CacheError};
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::{CompactWeights, Graph, LargeConfig, StreamFamily, StreamSpec};
use std::path::PathBuf;

fn test_config(n: usize, seed: u64) -> LargeConfig {
    LargeConfig {
        name: "rt-test",
        spec: StreamSpec {
            family: StreamFamily::BarabasiAlbert { m_attach: 3 },
            n,
            seed,
        },
        weights: CompactWeights::WeightedCascade,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcpb-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_same_arrays(a: &Graph, b: &Graph) {
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(a.num_edges(), b.num_edges());
    for v in 0..a.num_nodes() as u32 {
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out row {v}");
        assert_eq!(a.out_weights(v), b.out_weights(v), "out weights {v}");
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in row {v}");
        assert_eq!(a.in_weights(v), b.in_weights(v), "in weights {v}");
    }
}

#[test]
fn build_save_mmap_reload_is_byte_identical() {
    let dir = temp_dir("reload");
    let cfg = test_config(3_000, 5);
    let built = cfg.build().expect("build");
    let path = cfg.cache_path(&dir);
    diskcache::save(&built, cfg.config_hash(), &path).expect("save");

    let loaded = diskcache::load(&path, cfg.config_hash()).expect("load");
    assert_eq!(loaded.is_mapped(), cfg!(unix));
    assert_same_arrays(&built, &loaded);
    loaded.validate().expect("loaded graph validates");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resaving_a_loaded_graph_reproduces_the_file() {
    let dir = temp_dir("resave");
    let cfg = test_config(2_000, 11);
    let built = cfg.build().expect("build");
    let path = cfg.cache_path(&dir);
    diskcache::save(&built, cfg.config_hash(), &path).expect("save");
    let original = std::fs::read(&path).expect("read original");

    let loaded = diskcache::load(&path, cfg.config_hash()).expect("load");
    let resaved_path = dir.join("resaved.mcpbcsr");
    diskcache::save(&loaded, cfg.config_hash(), &resaved_path).expect("re-save");
    let resaved = std::fs::read(&resaved_path).expect("read re-saved");
    assert_eq!(original, resaved, "save is not byte-deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_config_hash_is_rejected() {
    let dir = temp_dir("stale");
    let cfg = test_config(1_000, 3);
    let built = cfg.build().expect("build");
    let path = cfg.cache_path(&dir);
    diskcache::save(&built, cfg.config_hash(), &path).expect("save");

    match diskcache::load(&path, cfg.config_hash() ^ 1) {
        Err(CacheError::Mismatch { detail }) => {
            assert!(detail.contains("hash"), "unhelpful detail: {detail}")
        }
        other => panic!("stale hash accepted: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tier_loader_rebuilds_through_the_cache() {
    let dir = temp_dir("tier");
    let cfg = test_config(1_500, 23);
    // Owned (heap-backed) ground truth: mapped graphs are views of the
    // cache file, so they cannot serve as the baseline once the test
    // starts mutating that file underneath them.
    let truth = cfg.build().expect("build");

    {
        let (first, was_cached) = cfg.load_cached(&dir).expect("first load");
        assert!(!was_cached, "no cache file existed yet");
        assert_same_arrays(&truth, &first);
        let (second, was_cached) = cfg.load_cached(&dir).expect("second load");
        assert!(was_cached, "second load must hit the cache");
        assert_same_arrays(&truth, &second);
    }

    // Corrupt one body byte: the loader must reject the file (checksum),
    // rebuild, and serve a correct graph again — not the corrupted bytes.
    let path = cfg.cache_path(&dir);
    let mut bytes = std::fs::read(&path).expect("read cache");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("corrupt cache");
    let (third, was_cached) = cfg.load_cached(&dir).expect("reload after corruption");
    assert!(!was_cached, "corrupted cache must not count as a hit");
    assert_same_arrays(&truth, &third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_files_are_rejected_not_parsed() {
    let dir = temp_dir("foreign");
    let path = dir.join("foreign.mcpbcsr");
    std::fs::write(&path, b"definitely not a CSR cache").expect("write foreign");
    assert!(
        matches!(diskcache::load(&path, 0), Err(CacheError::Mismatch { .. })),
        "foreign file must be a typed mismatch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapped_derivations_match_owned_and_are_owned() {
    let dir = temp_dir("derive");
    let cfg = test_config(2_500, 31);
    let owned = cfg.build().expect("build");
    let path = cfg.cache_path(&dir);
    diskcache::save(&owned, cfg.config_hash(), &path).expect("save");
    let mapped = diskcache::load(&path, cfg.config_hash()).expect("load");
    assert_eq!(mapped.is_mapped(), cfg!(unix));

    let (n, m) = (owned.num_nodes(), owned.num_edges());
    for g in [&owned, &mapped] {
        assert_eq!(g.memory_bytes(), 8 * (n + 1) + 16 * m);
    }

    let picked: Vec<u32> = (0..n as u32).rev().step_by(3).collect();
    let derive = |g: &Graph| {
        let (sub, order) = g.induced_subgraph(&picked);
        let derived = [
            g.reweighted(|u, v, w| w * 0.5 + (u ^ v) as f32 * 1e-6),
            assign_weights(g, WeightModel::TriValency, 9),
            assign_weights(g, WeightModel::WeightedCascade, 0),
            sub,
        ];
        (derived, order)
    };
    let (from_owned, order_owned) = derive(&owned);
    let (from_mapped, order_mapped) = derive(&mapped);
    assert_eq!(order_owned, order_mapped);
    for (a, b) in from_owned.iter().zip(&from_mapped) {
        assert!(
            !b.is_mapped(),
            "a graph derived from a mapped one must own its arrays"
        );
        b.validate().expect("derived graph validates");
        assert_same_arrays(a, b);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a (64-bit) over the bytes, one byte at a time.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn saved_bytes_are_pinned() {
    // Odd n: the `(n + 1) * 4`-byte offset sections end on a word boundary.
    // Even n: each offset section carries a 4-byte zero pad.
    for (n, seed, want_len, want) in [
        (777usize, 41u64, 80_672usize, 0x5e16_c669_a85d_1b13u64),
        (1_000, 43, 103_872, 0x96cb_e623_e94a_c4ff),
    ] {
        let dir = temp_dir(&format!("pin-{n}"));
        let cfg = test_config(n, seed);
        let built = cfg.build().expect("build");
        let path = cfg.cache_path(&dir);
        diskcache::save(&built, cfg.config_hash(), &path).expect("save");
        let bytes = std::fs::read(&path).expect("read cache");
        assert_eq!((bytes.len(), fnv1a(&bytes)), (want_len, want), "n = {n}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
