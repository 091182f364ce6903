//! Empty stand-in for `rayon`. No workspace code imports it: parallel code
//! calls `mcpb-par` directly. The crate exists only because the benchmark
//! package's committed `e2ebench/Cargo.lock` lists it (with its `mcpb-par`
//! dependency) and that package builds with `--locked`, so the manifests
//! that name `rayon` keep it until the next change to the benchmark package.
