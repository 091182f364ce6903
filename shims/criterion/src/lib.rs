//! Empty stand-in for `criterion`. No workspace code imports it: every perf
//! area times itself through `mcpb_bench::perf::Timer`. The crate exists
//! only because the benchmark package's committed `e2ebench/Cargo.lock`
//! lists it and that package builds with `--locked`, so the manifests that
//! name `criterion` keep it until the next change to the benchmark package.
