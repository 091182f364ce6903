//! Finite-difference gradient verification.
//!
//! [`grad_check`] rebuilds a scalar-valued computation under elementwise
//! input perturbations and compares the central finite difference against
//! the tape's reverse-mode gradient. The perturbation step scales with the
//! input magnitude so the check stays well-conditioned in `f32`.
//!
//! `tests/gradcheck_all_ops.rs` uses this to cover every [`Tape`] op kind
//! (asserted against [`crate::tape::OP_KINDS`]), making "new op without a
//! gradient test" a CI failure.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// A failed comparison between analytic and numeric gradients.
#[derive(Debug, Clone)]
pub struct GradCheckError {
    /// Index of the input tensor.
    pub input: usize,
    /// Flat element index within that input.
    pub element: usize,
    /// Reverse-mode gradient.
    pub analytic: f64,
    /// Central finite difference.
    pub numeric: f64,
    /// `|analytic - numeric| / max(1, |analytic|, |numeric|)`.
    pub rel_err: f64,
}

impl std::fmt::Display for GradCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grad mismatch at input {} element {}: analytic {} vs numeric {} (rel err {:.3e})",
            self.input, self.element, self.analytic, self.numeric, self.rel_err
        )
    }
}

/// Summary of a passing check.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradCheckReport {
    /// Elements compared across all inputs.
    pub elements: usize,
    /// Largest relative error seen.
    pub max_rel_err: f64,
}

/// Evaluates `build` (which must return a `1x1` tensor) on fresh tapes,
/// comparing reverse-mode gradients of every element of every input against
/// central finite differences. `tol` is a relative tolerance with an
/// absolute floor of 1 (i.e. `|a - n| <= tol * max(1, |a|, |n|)`).
// audit:allow(MCPB017) crates/nn/tests/gradcheck_all_ops.rs checks every tape op through it
pub fn grad_check(
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    inputs: &[Tensor],
    tol: f64,
) -> Result<GradCheckReport, GradCheckError> {
    let eval = |tensors: &[Tensor]| -> (Tape, Vec<Var>, Var) {
        let mut tape = Tape::new();
        let vars: Vec<Var> = tensors.iter().map(|t| tape.input(t.clone())).collect();
        let loss = build(&mut tape, &vars);
        let out = tape.value(loss);
        assert_eq!(
            (out.rows, out.cols),
            (1, 1),
            "grad_check requires a scalar loss, got {}x{}",
            out.rows,
            out.cols
        );
        (tape, vars, loss)
    };

    // Analytic pass.
    let (mut tape, vars, loss) = eval(inputs);
    tape.backward(loss);
    let analytic: Vec<Option<Tensor>> = vars.iter().map(|&v| tape.grad(v).cloned()).collect();

    let loss_of = |tensors: &[Tensor]| -> f64 {
        let (tape, _, loss) = eval(tensors);
        f64::from(tape.value(loss).item())
    };

    let mut report = GradCheckReport::default();
    let mut perturbed: Vec<Tensor> = inputs.to_vec();
    for (i, input) in inputs.iter().enumerate() {
        for j in 0..input.data.len() {
            let x = f64::from(input.data[j]);
            // Step scales with |x| so large activations don't drown the
            // difference in f32 rounding.
            let eps = 1e-3 * x.abs().max(1.0);
            perturbed[i].data[j] = (x + eps) as f32;
            let up = loss_of(&perturbed);
            perturbed[i].data[j] = (x - eps) as f32;
            let down = loss_of(&perturbed);
            perturbed[i].data[j] = input.data[j];

            let numeric = (up - down) / (2.0 * eps);
            let an = analytic[i]
                .as_ref()
                .map(|g| f64::from(g.data[j]))
                .unwrap_or(0.0);
            let rel_err = (an - numeric).abs() / an.abs().max(numeric.abs()).max(1.0);
            report.elements += 1;
            report.max_rel_err = report.max_rel_err.max(rel_err);
            if rel_err > tol {
                return Err(GradCheckError {
                    input: i,
                    element: j,
                    analytic: an,
                    numeric,
                    rel_err,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_on_a_correct_gradient() {
        let x = Tensor::from_slice(1, 3, &[0.4, -0.7, 1.2]);
        let report = grad_check(
            |tape, vars| tape.mse_loss(vars[0], Tensor::from_slice(1, 3, &[0.1, 0.2, -0.3])),
            &[x],
            1e-3,
        )
        .expect("mse gradient is exact");
        assert_eq!(report.elements, 3);
        assert!(report.max_rel_err < 1e-3);
    }

    #[test]
    fn catches_a_gradient_mismatch() {
        // An input sitting on the ReLU kink: the perturbation straddles
        // zero, so the finite difference (~0.5) disagrees with the
        // one-sided analytic gradient (1.0). A correct checker must
        // report that mismatch rather than average it away.
        let x = Tensor::from_slice(1, 2, &[1e-5, 0.9]);
        let err = grad_check(
            |tape, vars| {
                let r = tape.relu(vars[0]);
                tape.mse_loss(r, Tensor::from_slice(1, 2, &[-1.0, -1.0]))
            },
            &[x],
            1e-3,
        );
        let err = err.expect_err("kink straddling must fail the check");
        assert_eq!((err.input, err.element), (0, 0));
        assert!(err.rel_err > 0.1, "{err}");
    }
}
