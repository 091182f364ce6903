//! MCPB017 golden fixture. It is scanned alone, as a one-file workspace,
//! so every reference an item has must come from this file.

use crate::NamedOnlyInUse;

pub fn never_called() {} // FIRE:MCPB017

pub struct NamedOnlyInUse; // FIRE:MCPB017

/// Named only in this doc comment: [`named_only_in_a_comment`].
pub fn named_only_in_a_comment() {} // FIRE:MCPB017

pub fn named_only_in_a_string() {} // FIRE:MCPB017

pub fn named_only_in_the_test_tail() {} // FIRE:MCPB017

// audit:allow(MCPB017)
pub fn waived_without_a_reason() {} // FIRE:MCPB017

pub const LIMIT: u32 = 3;

pub fn called_from_code() -> u32 {
    LIMIT
}

pub(crate) fn restricted_items_are_left_to_rustc() {}

extern "C" {
    pub fn foreign_symbol(x: i32) -> i32;
}

// audit:allow(MCPB017) kept for a caller outside the workspace
pub fn waived_with_a_reason() {}

fn driver() -> (u32, &'static str) {
    (called_from_code(), "named_only_in_a_string")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tail() {
        super::named_only_in_the_test_tail();
    }
}
