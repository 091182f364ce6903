//! Checked `usize` → [`NodeId`] conversions.
//!
//! Node ids are dense `u32` indices, but most index arithmetic in the
//! workspace happens in `usize`. A bare `value as u32` silently truncates
//! above `u32::MAX` (the MCPB006 lint family exists because of exactly this
//! class of bug), so every narrowing conversion in `crates/graph` routes
//! through this module: [`node_id`] / [`arc_index`] return a typed
//! [`IdOverflow`] error instead of wrapping, and [`node_count`] guards whole
//! graphs at construction time so the per-element casts inside validated
//! loops are provably in range.

use crate::csr::NodeId;

/// A `usize` value did not fit the `u32` id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdOverflow {
    /// The value that failed to convert.
    pub value: usize,
    /// What the value was being used as (`"node id"`, `"node count"`, …).
    pub role: &'static str,
}

impl std::fmt::Display for IdOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{role} {value} exceeds the u32 id space (max {max})",
            role = self.role,
            value = self.value,
            max = u32::MAX
        )
    }
}

impl std::error::Error for IdOverflow {}

/// Converts a node index to a [`NodeId`], failing with a typed error above
/// `u32::MAX`.
#[inline]
pub fn node_id(value: usize) -> Result<NodeId, IdOverflow> {
    u32::try_from(value).map_err(|_| IdOverflow {
        value,
        role: "node id",
    })
}

/// Converts an arc (edge-slot) index to `u32`, failing with a typed error
/// above `u32::MAX`. `Graph` offsets and the `from_edges` sort-index
/// arrays are `u32`, so arc counts share the same ceiling as node counts.
#[inline]
pub fn arc_index(value: usize) -> Result<u32, IdOverflow> {
    u32::try_from(value).map_err(|_| IdOverflow {
        value,
        role: "arc index",
    })
}

/// Guards a whole-graph node count: accepted iff every id `0..n` *and* `n`
/// itself (used as an exclusive iteration bound) fit in `u32`. Constructors
/// run this once so per-element casts in their loops cannot truncate.
#[inline]
pub fn node_count(n: usize) -> Result<(), IdOverflow> {
    u32::try_from(n).map(|_| ()).map_err(|_| IdOverflow {
        value: n,
        role: "node count",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_convert() {
        assert_eq!(node_id(0), Ok(0));
        assert_eq!(node_id(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(arc_index(12), Ok(12));
        assert!(node_count(u32::MAX as usize).is_ok());
    }

    #[test]
    fn overflow_is_a_typed_error() {
        if usize::BITS <= 32 {
            return; // the overflow regime does not exist on 32-bit hosts
        }
        let big = u32::MAX as usize + 1;
        let err = node_id(big).unwrap_err();
        assert_eq!(err.value, big);
        assert!(err.to_string().contains("exceeds the u32 id space"));
        assert!(node_count(big).is_err());
        assert!(arc_index(big).is_err());
    }
}
