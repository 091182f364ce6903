//! Table 3 with measured peaks: installs the counting allocator as the
//! global allocator, so every row reports the peak heap bytes of its solver
//! run. `mcpbench tab3` runs without it and falls back to a structural
//! estimate.
//!
//! ```sh
//! cargo run --release --example tab3_memory
//! ```

use mcpb_bench::experiments::{memory, ExpConfig};
use mcpb_trace::alloc::{tracking_installed, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() {
    assert!(tracking_installed(), "the counting allocator must be live");
    let (mcp, im) = memory::tab3_memory(&ExpConfig::quick());
    println!(
        "{}",
        memory::render("Table 3 (MCP)", "peak memory", &mcp).render()
    );
    println!(
        "{}",
        memory::render("Table 3 (IM)", "peak memory", &im).render()
    );
}
