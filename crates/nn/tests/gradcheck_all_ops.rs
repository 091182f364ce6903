//! Finite-difference verification of every tape op.
//!
//! Each case builds a scalar loss through one op under test, reduced by
//! [`mcpb_nn::Tape::mse_loss`] against a constant target so the gradient
//! is never constant, and runs [`mcpb_nn::grad_check`] at 1e-3 relative
//! tolerance. The final test unions the op kinds actually recorded on the
//! case tapes and asserts the union equals [`mcpb_nn::tape::OP_KINDS`]:
//! adding an op without extending this suite fails CI.

use std::collections::BTreeSet;
use std::sync::Arc;

use mcpb_nn::tape::OP_KINDS;
use mcpb_nn::{grad_check, SparseMatrix, Tape, Tensor, Var};

const TOL: f64 = 1e-3;

type Build = Box<dyn Fn(&mut Tape, &[Var]) -> Var>;

/// Mean squared distance of `v` from a constant 0.25 target.
fn reduce(t: &mut Tape, v: Var) -> Var {
    let (rows, cols) = (t.value(v).rows, t.value(v).cols);
    let mut target = Tensor::zeros(rows, cols);
    target.data.fill(0.25);
    t.mse_loss(v, target)
}

/// All cases: (label, inputs, graph builder). Inputs are chosen away from
/// ReLU/Huber kinks so the finite difference is well-defined.
fn cases() -> Vec<(&'static str, Vec<Tensor>, Build)> {
    let a23 = Tensor::from_slice(2, 3, &[0.4, -0.7, 1.2, 0.3, -1.1, 0.8]);
    let b23 = Tensor::from_slice(2, 3, &[-0.2, 0.9, 0.5, -0.6, 0.4, 1.3]);
    let a32 = Tensor::from_slice(3, 2, &[0.7, -0.4, 1.1, 0.2, -0.9, 0.6]);
    let row3 = Tensor::from_slice(1, 3, &[0.5, -0.8, 1.4]);

    vec![
        (
            "add",
            vec![a23.clone(), b23.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.add(v[0], v[1]);
                reduce(t, s)
            }),
        ),
        (
            "scale",
            vec![a23.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.scale(v[0], 1.7);
                reduce(t, s)
            }),
        ),
        (
            "matmul",
            vec![a23.clone(), a32.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.matmul(v[0], v[1]);
                reduce(t, s)
            }),
        ),
        (
            "spmm",
            vec![a32.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let adj = Arc::new(SparseMatrix::from_triplets(
                    2,
                    3,
                    &[(0, 0, 0.5), (0, 2, 1.2), (1, 1, -0.7), (1, 0, 0.3)],
                ));
                let s = t.spmm(adj, v[0]);
                reduce(t, s)
            }),
        ),
        (
            "relu",
            // Magnitudes >= 0.3 so the 1e-3-scaled step never crosses 0.
            vec![a23.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.relu(v[0]);
                reduce(t, s)
            }),
        ),
        (
            "add_bias",
            vec![a32.clone(), Tensor::from_slice(1, 2, &[0.3, -0.5])],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.add_bias(v[0], v[1]);
                reduce(t, s)
            }),
        ),
        (
            "gather_rows",
            vec![a32.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                // Duplicate index: gradients must accumulate into row 1.
                let s = t.gather_rows(v[0], vec![2, 0, 1, 1]);
                reduce(t, s)
            }),
        ),
        (
            "concat_cols",
            vec![a23.clone(), b23.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.concat_cols(v[0], v[1]);
                reduce(t, s)
            }),
        ),
        (
            "sum_rows",
            vec![a32.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.sum_rows(v[0]);
                reduce(t, s)
            }),
        ),
        (
            "repeat_row",
            vec![row3.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                let s = t.repeat_row(v[0], 4);
                reduce(t, s)
            }),
        ),
        (
            "mse",
            vec![a23.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                t.mse_loss(
                    v[0],
                    Tensor::from_slice(2, 3, &[0.1, 0.2, -0.3, 0.5, 0.0, -0.6]),
                )
            }),
        ),
        (
            "huber",
            // Residuals straddle the delta=0.5 boundary but sit >= 0.1
            // away from it, clear of the (smooth) transition point.
            vec![a23.clone()],
            Box::new(|t: &mut Tape, v: &[Var]| {
                t.huber_loss(
                    v[0],
                    Tensor::from_slice(2, 3, &[0.2, -0.5, 0.1, 0.1, -0.2, 0.6]),
                    0.5,
                )
            }),
        ),
    ]
}

#[test]
fn every_case_passes_grad_check() {
    for (label, inputs, build) in cases() {
        let report = grad_check(&build, &inputs, TOL)
            .unwrap_or_else(|e| panic!("grad check failed for {label}: {e}"));
        assert!(report.elements > 0, "{label} compared no elements");
        assert!(
            report.max_rel_err <= TOL,
            "{label}: max rel err {:.3e}",
            report.max_rel_err
        );
    }
}

#[test]
fn cases_cover_every_op_kind() {
    let mut used: BTreeSet<&'static str> = BTreeSet::new();
    for (_, inputs, build) in cases() {
        let mut tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|t| tape.input(t.clone())).collect();
        let _ = build(&mut tape, &vars);
        used.extend(tape.used_op_kinds());
    }
    let all: BTreeSet<&'static str> = OP_KINDS.iter().copied().collect();
    let missing: Vec<_> = all.difference(&used).collect();
    assert!(
        missing.is_empty(),
        "ops without a grad-check case: {missing:?}"
    );
    let unknown: Vec<_> = used.difference(&all).collect();
    assert!(
        unknown.is_empty(),
        "ops not listed in OP_KINDS: {unknown:?}"
    );
}
