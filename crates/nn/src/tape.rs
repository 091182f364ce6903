//! Define-by-run reverse-mode autodiff.
//!
//! A [`Tape`] records every operation eagerly; [`Tape::backward`] walks the
//! recording in reverse, accumulating gradients. The op set is exactly what
//! the paper's five Deep-RL architectures need: dense/sparse matrix
//! products (GCN / Struc2Vec message passing), sums, scaling and ReLU, row
//! gather/concat/pool (Q-heads over node embeddings), and the MSE/Huber
//! regression losses for TD targets.

use crate::params::{ParamId, ParamStore};
use crate::tensor::{SparseMatrix, Tensor};
use std::sync::Arc;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf { param: Option<ParamId> },
    Add(Var, Var),
    Scale(Var, f32),
    MatMul(Var, Var),
    SpMM(Arc<SparseMatrix>, Var),
    Relu(Var),
    AddBias(Var, Var),
    GatherRows(Var, Arc<Vec<usize>>),
    ConcatCols(Var, Var),
    SumRows(Var),
    RepeatRow(Var),
    Mse(Var, Arc<Tensor>),
    Huber(Var, Arc<Tensor>, f32),
}

impl Op {
    /// Stable kind name, used by the debug-mode numeric sanitizer and the
    /// grad-check coverage test.
    fn kind(&self) -> &'static str {
        match self {
            Op::Leaf { .. } => "Leaf",
            Op::Add(..) => "Add",
            Op::Scale(..) => "Scale",
            Op::MatMul(..) => "MatMul",
            Op::SpMM(..) => "SpMM",
            Op::Relu(..) => "Relu",
            Op::AddBias(..) => "AddBias",
            Op::GatherRows(..) => "GatherRows",
            Op::ConcatCols(..) => "ConcatCols",
            Op::SumRows(..) => "SumRows",
            Op::RepeatRow(..) => "RepeatRow",
            Op::Mse(..) => "Mse",
            Op::Huber(..) => "Huber",
        }
    }

    /// Input variables of this op (empty for leaves). Only the debug-mode
    /// sanitizer needs provenance, so release builds compile this out.
    #[cfg(debug_assertions)]
    fn operands(&self) -> Vec<Var> {
        match self {
            Op::Leaf { .. } => Vec::new(),
            Op::Scale(a, _)
            | Op::SpMM(_, a)
            | Op::Relu(a)
            | Op::GatherRows(a, _)
            | Op::SumRows(a)
            | Op::RepeatRow(a)
            | Op::Mse(a, _)
            | Op::Huber(a, _, _) => vec![*a],
            Op::Add(a, b) | Op::MatMul(a, b) | Op::AddBias(a, b) | Op::ConcatCols(a, b) => {
                vec![*a, *b]
            }
        }
    }
}

/// Every op kind name, in declaration order. The grad-check suite asserts
/// it exercises each of these, so adding an op without a gradient test
/// fails CI.
// audit:allow(MCPB017) crates/nn/tests/gradcheck_all_ops.rs checks its cases cover every op
pub const OP_KINDS: &[&str] = &[
    "Leaf",
    "Add",
    "Scale",
    "MatMul",
    "SpMM",
    "Relu",
    "AddBias",
    "GatherRows",
    "ConcatCols",
    "SumRows",
    "RepeatRow",
    "Mse",
    "Huber",
];

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// The autodiff tape. Create one per forward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        #[cfg(debug_assertions)]
        self.check_finite(&value, &op);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Debug-mode numeric sanitizer: aborts at the *first* op that produces
    /// a NaN/Inf, naming the op kind, the offending element, and the shapes
    /// of its inputs — instead of letting the poison surface fifty ops
    /// later in an optimizer step.
    #[cfg(debug_assertions)]
    fn check_finite(&self, value: &Tensor, op: &Op) {
        let Some(bad) = value.data.iter().position(|v| !v.is_finite()) else {
            return;
        };
        let inputs: Vec<String> = op
            .operands()
            .iter()
            .map(|v| {
                let t = &self.nodes[v.0].value;
                format!("{}x{}", t.rows, t.cols)
            })
            .collect();
        // audit:allow(MCPB002) — the sanitizer's whole job is to abort.
        panic!(
            "mcpb-nn sanitizer: op {} produced non-finite value {} at element {} \
             (output {}x{}, inputs [{}])",
            op.kind(),
            value.data[bad],
            bad,
            value.rows,
            value.cols,
            inputs.join(", ")
        );
    }

    /// Registers a constant input (no gradient flows out of it).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Registers a trainable parameter from `store`; gradients accumulate
    /// under its [`ParamId`] and are retrieved with [`Tape::param_grads`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Leaf { param: Some(id) })
    }

    /// The value computed at `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Distinct op kinds recorded on this tape (sorted). The grad-check
    /// suite unions these across its cases and compares against
    /// [`OP_KINDS`], so op coverage is measured, not self-declared.
    // audit:allow(MCPB017) crates/nn/tests/gradcheck_all_ops.rs checks its cases cover every op
    pub fn used_op_kinds(&self) -> std::collections::BTreeSet<&'static str> {
        self.nodes.iter().map(|n| n.op.kind()).collect()
    }

    /// The gradient accumulated at `v` (after [`Tape::backward`]).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Clones `a`'s value, applies the in-place kernel `f` and records `op`.
    fn unary(&mut self, a: Var, op: Op, f: impl FnOnce(&mut Tensor)) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        f(&mut out);
        self.push(out, op)
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let out = zip_map(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x + y);
        self.push(out, Op::Add(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.unary(a, Op::Scale(a, s), |t| t.scale_assign(s))
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(out, Op::MatMul(a, b))
    }

    /// Sparse-dense product `adj * x`; only `x` receives gradients.
    pub fn spmm(&mut self, adj: Arc<SparseMatrix>, x: Var) -> Var {
        let out = adj.matmul_dense(&self.nodes[x.0].value);
        self.push(out, Op::SpMM(adj, x))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), Tensor::relu_assign)
    }

    /// Broadcast-add a `1 x d` bias to every row of an `n x d` matrix.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let mut out = self.nodes[a.0].value.clone();
        out.add_row_assign(&self.nodes[bias.0].value);
        self.push(out, Op::AddBias(a, bias))
    }

    /// Selects rows of `a` by index (duplicates allowed).
    pub fn gather_rows(&mut self, a: Var, rows: Vec<usize>) -> Var {
        let t = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(rows.len(), t.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < t.rows, "gather row {r} out of range {}", t.rows);
            out.data[i * t.cols..(i + 1) * t.cols].copy_from_slice(t.row_slice(r));
        }
        self.push(out, Op::GatherRows(a, Arc::new(rows)))
    }

    /// Horizontal concatenation `[a | b]` (same row count).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.rows, tb.rows, "concat row mismatch");
        let mut out = Tensor::zeros(ta.rows, ta.cols + tb.cols);
        for r in 0..ta.rows {
            let dst = &mut out.data[r * out.cols..(r + 1) * out.cols];
            dst[..ta.cols].copy_from_slice(ta.row_slice(r));
            dst[ta.cols..].copy_from_slice(tb.row_slice(r));
        }
        self.push(out, Op::ConcatCols(a, b))
    }

    /// Column-wise sum: `n x d` -> `1 x d`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.sum_rows();
        self.push(out, Op::SumRows(a))
    }

    /// Tiles a `1 x d` row `n` times: `1 x d` -> `n x d`.
    pub fn repeat_row(&mut self, a: Var, n: usize) -> Var {
        let t = &self.nodes[a.0].value;
        assert_eq!(t.rows, 1, "repeat_row expects a row vector");
        let mut out = Tensor::zeros(n, t.cols);
        for r in 0..n {
            out.data[r * t.cols..(r + 1) * t.cols].copy_from_slice(&t.data);
        }
        self.push(out, Op::RepeatRow(a))
    }

    /// Mean squared error against a constant target -> scalar.
    pub fn mse_loss(&mut self, pred: Var, target: Tensor) -> Var {
        let t = &self.nodes[pred.0].value;
        assert_eq!(
            (t.rows, t.cols),
            (target.rows, target.cols),
            "mse shape mismatch"
        );
        let n = t.len().max(1) as f32;
        let loss = t
            .data
            .iter()
            .zip(&target.data)
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / n;
        self.push(Tensor::scalar(loss), Op::Mse(pred, Arc::new(target)))
    }

    /// Huber (smooth-L1) loss against a constant target -> scalar.
    pub fn huber_loss(&mut self, pred: Var, target: Tensor, delta: f32) -> Var {
        let t = &self.nodes[pred.0].value;
        assert_eq!(
            (t.rows, t.cols),
            (target.rows, target.cols),
            "huber shape mismatch"
        );
        let n = t.len().max(1) as f32;
        let loss = t
            .data
            .iter()
            .zip(&target.data)
            .map(|(&p, &y)| {
                let e = (p - y).abs();
                if e <= delta {
                    0.5 * e * e
                } else {
                    delta * (e - 0.5 * delta)
                }
            })
            .sum::<f32>()
            / n;
        self.push(
            Tensor::scalar(loss),
            Op::Huber(pred, Arc::new(target), delta),
        )
    }

    /// Runs backpropagation from scalar node `root`.
    pub fn backward(&mut self, root: Var) {
        let _span = mcpb_trace::span("nn.backward");
        assert_eq!(
            self.nodes[root.0].value.len(),
            1,
            "backward root must be scalar"
        );
        for n in self.nodes.iter_mut() {
            n.grad = None;
        }
        self.nodes[root.0].grad = Some(Tensor::scalar(1.0));

        for i in (0..=root.0).rev() {
            // Taken out and put back below, so that ops can borrow it
            // while they accumulate into earlier nodes.
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf { .. } => {}
                Op::Add(a, b) => {
                    self.accumulate_ref(a, &g);
                    self.accumulate_ref(b, &g);
                }
                Op::Scale(a, s) => {
                    let mut da = g.clone();
                    da.scale_assign(s);
                    self.accumulate(a, da);
                }
                Op::MatMul(a, b) => {
                    let da = g.matmul(&self.nodes[b.0].value.transposed());
                    let db = self.nodes[a.0].value.transposed().matmul(&g);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::SpMM(adj, x) => {
                    let dx = adj.transpose_matmul_dense(&g);
                    self.accumulate(x, dx);
                }
                Op::Relu(a) => {
                    let mask = &self.nodes[a.0].value;
                    let da = zip_map(&g, mask, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                    self.accumulate(a, da);
                }
                Op::AddBias(a, bias) => {
                    self.accumulate_ref(a, &g);
                    let mut db = Tensor::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            db.data[c] += g.data[r * g.cols + c];
                        }
                    }
                    self.accumulate(bias, db);
                }
                Op::GatherRows(a, rows) => {
                    let src = &self.nodes[a.0].value;
                    let mut da = Tensor::zeros(src.rows, src.cols);
                    for (i_out, &r) in rows.iter().enumerate() {
                        for c in 0..g.cols {
                            da.data[r * g.cols + c] += g.data[i_out * g.cols + c];
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::ConcatCols(a, b) => {
                    let (wa, wb) = (self.nodes[a.0].value.cols, self.nodes[b.0].value.cols);
                    let mut da = Tensor::zeros(g.rows, wa);
                    let mut db = Tensor::zeros(g.rows, wb);
                    for r in 0..g.rows {
                        let row = &g.data[r * g.cols..(r + 1) * g.cols];
                        da.data[r * wa..(r + 1) * wa].copy_from_slice(&row[..wa]);
                        db.data[r * wb..(r + 1) * wb].copy_from_slice(&row[wa..]);
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::SumRows(a) => {
                    let rows = self.nodes[a.0].value.rows;
                    let mut da = Tensor::zeros(rows, g.cols);
                    for r in 0..rows {
                        da.data[r * g.cols..(r + 1) * g.cols].copy_from_slice(&g.data);
                    }
                    self.accumulate(a, da);
                }
                Op::RepeatRow(a) => {
                    let mut da = Tensor::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            da.data[c] += g.data[r * g.cols + c];
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::Mse(a, target) => {
                    let pred = &self.nodes[a.0].value;
                    let n = pred.len().max(1) as f32;
                    let scale = 2.0 * g.item() / n;
                    let da = zip_map(pred, &target, |p, y| scale * (p - y));
                    self.accumulate(a, da);
                }
                Op::Huber(a, target, delta) => {
                    let pred = &self.nodes[a.0].value;
                    let n = pred.len().max(1) as f32;
                    let scale = g.item() / n;
                    let da = zip_map(pred, &target, |p, y| {
                        let e = p - y;
                        scale
                            * if e.abs() <= delta {
                                e
                            } else {
                                delta * e.signum()
                            }
                    });
                    self.accumulate(a, da);
                }
            }
            self.nodes[i].grad = Some(g);
        }
    }

    /// Adds the fresh gradient `g` into `v`'s; the first to reach `v`
    /// moves into its slot.
    fn accumulate(&mut self, v: Var, g: Tensor) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// [`Self::accumulate`] for a gradient an op passes through unchanged:
    /// copied only when it is the first to reach `v`.
    fn accumulate_ref(&mut self, v: Var, g: &Tensor) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Collects `(ParamId, gradient)` pairs for every parameter leaf that
    /// received a gradient. Feed these to an optimizer.
    pub fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        self.nodes
            .iter()
            .filter_map(|n| match (&n.op, &n.grad) {
                (Op::Leaf { param: Some(id) }, Some(g)) => Some((*id, g.clone())),
                _ => None,
            })
            .collect()
    }
}

/// `f` over the elements of two same-shape tensors, written straight into
/// the output's one buffer.
fn zip_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(
        (a.rows, a.cols),
        (b.rows, b.cols),
        "elementwise shape mismatch"
    );
    let data = a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect();
    Tensor {
        rows: a.rows,
        cols: a.cols,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Central finite difference of `f` at `x0` along every coordinate.
    fn finite_diff(x0: &Tensor, mut f: impl FnMut(&Tensor) -> f32, eps: f32) -> Tensor {
        let mut grad = Tensor::zeros(x0.rows, x0.cols);
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data[i] += eps;
            let mut minus = x0.clone();
            minus.data[i] -= eps;
            grad.data[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
        }
        grad
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what} shape");
        for i in 0..a.len() {
            assert!(
                (a.data[i] - b.data[i]).abs() < tol,
                "{what}[{i}]: {} vs {}",
                a.data[i],
                b.data[i]
            );
        }
    }

    #[test]
    fn gradcheck_matmul_relu_mse() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let x0 = Tensor::xavier(3, 4, &mut rng);
        let w0 = Tensor::xavier(4, 2, &mut rng);
        let target = Tensor::xavier(3, 2, &mut rng);

        let run = |x: &Tensor, w: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let wv = tape.input(w.clone());
            let h = tape.matmul(xv, wv);
            let r = tape.relu(h);
            let loss = tape.mse_loss(r, target.clone());
            tape.value(loss).item()
        };

        let mut tape = Tape::new();
        let xv = tape.input(x0.clone());
        let wv = tape.input(w0.clone());
        let h = tape.matmul(xv, wv);
        let r = tape.relu(h);
        let loss = tape.mse_loss(r, target.clone());
        tape.backward(loss);

        let fd_x = finite_diff(&x0, |x| run(x, &w0), 1e-3);
        let fd_w = finite_diff(&w0, |w| run(&x0, w), 1e-3);
        assert_close(tape.grad(xv).unwrap(), &fd_x, 1e-2, "dx");
        assert_close(tape.grad(wv).unwrap(), &fd_w, 1e-2, "dw");
    }

    #[test]
    fn gradcheck_spmm() {
        let adj = Arc::new(SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 0.5), (1, 0, 2.0), (1, 2, 1.0), (2, 2, 0.25)],
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x0 = Tensor::xavier(3, 2, &mut rng);
        let run = |x: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let y = tape.spmm(adj.clone(), xv);
            let s = tape.mse_loss(y, Tensor::zeros(3, 2));
            tape.value(s).item()
        };
        let mut tape = Tape::new();
        let xv = tape.input(x0.clone());
        let y = tape.spmm(adj.clone(), xv);
        let s = tape.mse_loss(y, Tensor::zeros(3, 2));
        tape.backward(s);
        let fd = finite_diff(&x0, run, 1e-3);
        assert_close(tape.grad(xv).unwrap(), &fd, 1e-2, "spmm dx");
    }

    #[test]
    fn gradcheck_gather_concat_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x0 = Tensor::xavier(4, 3, &mut rng);
        let b0 = Tensor::xavier(1, 6, &mut rng);
        let rows = vec![0usize, 2, 2, 3];
        let run = |x: &Tensor, b: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let bv = tape.input(b.clone());
            let gathered = tape.gather_rows(xv, rows.clone());
            let again = tape.gather_rows(xv, rows.clone());
            let cat = tape.concat_cols(gathered, again);
            let biased = tape.add_bias(cat, bv);
            let m = tape.mse_loss(biased, Tensor::zeros(4, 6));
            tape.value(m).item()
        };
        let mut tape = Tape::new();
        let xv = tape.input(x0.clone());
        let bv = tape.input(b0.clone());
        let g1 = tape.gather_rows(xv, rows.clone());
        let g2 = tape.gather_rows(xv, rows.clone());
        let cat = tape.concat_cols(g1, g2);
        let biased = tape.add_bias(cat, bv);
        let m = tape.mse_loss(biased, Tensor::zeros(4, 6));
        tape.backward(m);
        let fd_x = finite_diff(&x0, |x| run(x, &b0), 1e-3);
        let fd_b = finite_diff(&b0, |b| run(&x0, b), 1e-3);
        assert_close(tape.grad(xv).unwrap(), &fd_x, 1e-2, "gather dx");
        assert_close(tape.grad(bv).unwrap(), &fd_b, 1e-2, "bias db");
    }

    #[test]
    fn gradcheck_pool_repeat_add_huber() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x0 = Tensor::xavier(3, 2, &mut rng);
        let target = Tensor::xavier(3, 2, &mut rng);
        let run = |x: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let pooled = tape.sum_rows(xv);
            let tiled = tape.repeat_row(pooled, 3);
            let mixed = tape.add(tiled, xv);
            let loss = tape.huber_loss(mixed, target.clone(), 0.5);
            tape.value(loss).item()
        };
        let mut tape = Tape::new();
        let xv = tape.input(x0.clone());
        let pooled = tape.sum_rows(xv);
        let tiled = tape.repeat_row(pooled, 3);
        let mixed = tape.add(tiled, xv);
        let loss = tape.huber_loss(mixed, target.clone(), 0.5);
        tape.backward(loss);
        let fd = finite_diff(&x0, run, 1e-3);
        assert_close(tape.grad(xv).unwrap(), &fd, 1e-2, "pool dx");
    }

    #[test]
    fn gradcheck_add_scale_relu() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a0 = Tensor::xavier(2, 3, &mut rng);
        let b0 = Tensor::xavier(2, 3, &mut rng);
        let run = |a: &Tensor, b: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let av = tape.input(a.clone());
            let bv = tape.input(b.clone());
            let sum = tape.add(av, bv);
            let scaled = tape.scale(sum, 1.5);
            let r = tape.relu(scaled);
            let s = tape.mse_loss(r, Tensor::zeros(2, 3));
            tape.value(s).item()
        };
        let mut tape = Tape::new();
        let av = tape.input(a0.clone());
        let bv = tape.input(b0.clone());
        let sum = tape.add(av, bv);
        let scaled = tape.scale(sum, 1.5);
        let r = tape.relu(scaled);
        let s = tape.mse_loss(r, Tensor::zeros(2, 3));
        tape.backward(s);
        let fd_a = finite_diff(&a0, |a| run(a, &b0), 1e-3);
        let fd_b = finite_diff(&b0, |b| run(&a0, b), 1e-3);
        assert_close(tape.grad(av).unwrap(), &fd_a, 1e-2, "da");
        assert_close(tape.grad(bv).unwrap(), &fd_b, 1e-2, "db");
    }

    #[test]
    fn param_grads_are_collected() {
        let mut store = ParamStore::new(0);
        let w = store.register("w", Tensor::from_slice(1, 1, &[2.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let x = tape.input(Tensor::scalar(3.0));
        let y = tape.matmul(wv, x);
        let loss = tape.mse_loss(y, Tensor::scalar(0.0));
        tape.backward(loss);
        let grads = tape.param_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
        // d/dw (w*3)^2 = 2*(w*3)*3 = 36 at w=2.
        assert!((grads[0].1.item() - 36.0).abs() < 1e-4);
    }

    #[test]
    fn reused_node_accumulates_gradient() {
        // y = x + x, loss = y^2 => dloss/dx = 2y * 2 = 40 at x = 5.
        let mut tape = Tape::new();
        let x = tape.input(Tensor::scalar(5.0));
        let y = tape.add(x, x);
        let s = tape.mse_loss(y, Tensor::scalar(0.0));
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().item(), 40.0);
    }

    #[test]
    #[should_panic(expected = "backward root must be scalar")]
    fn backward_on_matrix_panics() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(2, 2));
        tape.backward(x);
    }
}
