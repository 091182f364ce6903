//! The debug-mode numeric sanitizer must abort at the op that *produced*
//! the first non-finite value and name it, so a poisoned training run
//! points at the culprit instead of failing in an optimizer step later.

#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use mcpb_nn::{Tape, Tensor};

fn panic_message(r: std::thread::Result<()>) -> String {
    match r {
        Ok(()) => String::new(),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    }
}

#[test]
fn overflow_names_the_producing_op() {
    // 1e38 is finite; scaling by 10 overflows f32 to +Inf inside Scale.
    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_slice(1, 2, &[1.0e38, 2.0]));
        let _ = tape.scale(x, 10.0);
    })));
    assert!(msg.contains("sanitizer"), "unexpected panic: {msg:?}");
    assert!(msg.contains("op Scale"), "wrong provenance: {msg:?}");
    assert!(msg.contains("inf"), "should print the bad value: {msg:?}");
    assert!(
        msg.contains("element 0"),
        "should locate the element: {msg:?}"
    );
}

#[test]
fn overflow_in_add_names_add_not_downstream_ops() {
    // 3e38 + 3e38 overflows to Inf in Add; the sanitizer fires there, not
    // at the loss that would consume it.
    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::from_slice(1, 2, &[3.0e38, 0.5]));
        let b = tape.input(Tensor::from_slice(1, 2, &[3.0e38, 0.5]));
        let m = tape.add(a, b);
        let _ = tape.mse_loss(m, Tensor::zeros(1, 2));
    })));
    assert!(msg.contains("op Add"), "wrong provenance: {msg:?}");
    assert!(
        msg.contains("inputs [1x2, 1x2]"),
        "should print input shapes: {msg:?}"
    );
}

#[test]
fn non_finite_input_is_reported_as_leaf() {
    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
        let mut tape = Tape::new();
        let _ = tape.input(Tensor::from_slice(1, 1, &[f32::NAN]));
    })));
    assert!(msg.contains("op Leaf"), "wrong provenance: {msg:?}");
    assert!(msg.contains("NaN"), "should print the bad value: {msg:?}");
}

#[test]
fn finite_pipelines_do_not_trip_the_sanitizer() {
    let mut tape = Tape::new();
    let x = tape.input(Tensor::from_slice(2, 2, &[0.5, -1.5, 3.0, -0.25]));
    let y = tape.relu(x);
    let loss = tape.mse_loss(y, Tensor::zeros(2, 2));
    tape.backward(loss);
    assert!(tape.grad(x).is_some());
}
