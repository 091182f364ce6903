//! Dense row-major `f32` matrices — the value type flowing through the
//! autodiff tape.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rows of the right-hand operand processed per cache panel in
/// [`Tensor::matmul`]. 256 rows of up to ~128 `f32` columns keep the panel
/// within L2 while amortizing the output-row traffic across the panel.
pub const MATMUL_K_PANEL: usize = 256;

/// A dense row-major matrix. Vectors are `1 x d` or `n x 1` matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major contents, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Tensor {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-`value` matrix.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Matrix from a row-major slice.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// A `1 x d` row vector.
    pub fn row(data: &[f32]) -> Self {
        Self::from_slice(1, data.len(), data)
    }

    /// A `n x 1` column vector.
    pub fn column(data: &[f32]) -> Self {
        Self::from_slice(data.len(), 1, data)
    }

    /// A `1 x 1` scalar.
    pub fn scalar(v: f32) -> Self {
        Self::from_slice(1, 1, &[v])
    }

    /// Xavier/Glorot-uniform initialization for a layer `in_dim -> out_dim`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 x 1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.len(),
            1,
            "item() on non-scalar {}x{}",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Dense matrix product `self * other`.
    ///
    /// Cache-blocked, branch-free microkernel: the shared dimension is
    /// processed in panels of [`MATMUL_K_PANEL`] rows of `other` (kept hot
    /// across the whole row sweep of `self`), and within a panel four rank-1
    /// updates are fused per pass so each output row is loaded and stored
    /// once per four `k` steps instead of once per step. The inner loop over
    /// output columns is a straight-line slice walk the compiler
    /// autovectorizes.
    ///
    /// Reassociation note: every output element still accumulates its terms
    /// in strictly increasing `k` order through a single left-associated add
    /// chain (`((c + a0*b0) + a1*b1) + …`), so the result is bit-identical
    /// to the scalar reference kernel ([`crate::reference::matmul_naive`])
    /// on finite inputs — the equivalence suite asserts this per bit. For
    /// sparse operators, use [`SparseMatrix::matmul_dense`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        if n == 0 || k == 0 {
            return out;
        }
        for k0 in (0..k).step_by(MATMUL_K_PANEL) {
            let k1 = (k0 + MATMUL_K_PANEL).min(k);
            let mut i = 0usize;
            // 4-row micro-kernel: every loaded B row feeds four output rows,
            // quartering B traffic. Each output row still accumulates as one
            // left-associated chain in increasing-k order, so results are
            // bit-identical to the row-at-a-time path below.
            while i + 4 <= m {
                let a0 = &self.data[i * k..(i + 1) * k];
                let a1 = &self.data[(i + 1) * k..(i + 2) * k];
                let a2 = &self.data[(i + 2) * k..(i + 3) * k];
                let a3 = &self.data[(i + 3) * k..(i + 4) * k];
                let block = &mut out.data[i * n..(i + 4) * n];
                let (c0, rest) = block.split_at_mut(n);
                let (c1, rest) = rest.split_at_mut(n);
                let (c2, c3) = rest.split_at_mut(n);
                let mut l = k0;
                while l + 4 <= k1 {
                    let b0 = &other.data[l * n..l * n + n];
                    let b1 = &other.data[(l + 1) * n..(l + 1) * n + n];
                    let b2 = &other.data[(l + 2) * n..(l + 2) * n + n];
                    let b3 = &other.data[(l + 3) * n..(l + 3) * n + n];
                    let (x00, x01, x02, x03) = (a0[l], a0[l + 1], a0[l + 2], a0[l + 3]);
                    let (x10, x11, x12, x13) = (a1[l], a1[l + 1], a1[l + 2], a1[l + 3]);
                    let (x20, x21, x22, x23) = (a2[l], a2[l + 1], a2[l + 2], a2[l + 3]);
                    let (x30, x31, x32, x33) = (a3[l], a3[l + 1], a3[l + 2], a3[l + 3]);
                    for j in 0..n {
                        let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
                        c0[j] = c0[j] + x00 * v0 + x01 * v1 + x02 * v2 + x03 * v3;
                        c1[j] = c1[j] + x10 * v0 + x11 * v1 + x12 * v2 + x13 * v3;
                        c2[j] = c2[j] + x20 * v0 + x21 * v1 + x22 * v2 + x23 * v3;
                        c3[j] = c3[j] + x30 * v0 + x31 * v1 + x32 * v2 + x33 * v3;
                    }
                    l += 4;
                }
                while l < k1 {
                    let brow = &other.data[l * n..l * n + n];
                    let (y0, y1, y2, y3) = (a0[l], a1[l], a2[l], a3[l]);
                    for j in 0..n {
                        c0[j] += y0 * brow[j];
                        c1[j] += y1 * brow[j];
                        c2[j] += y2 * brow[j];
                        c3[j] += y3 * brow[j];
                    }
                    l += 1;
                }
                i += 4;
            }
            while i < m {
                let arow = &self.data[i * k..(i + 1) * k];
                let crow = &mut out.data[i * n..(i + 1) * n];
                let mut l = k0;
                while l + 8 <= k1 {
                    let (a0, a1, a2, a3) = (arow[l], arow[l + 1], arow[l + 2], arow[l + 3]);
                    let (a4, a5, a6, a7) = (arow[l + 4], arow[l + 5], arow[l + 6], arow[l + 7]);
                    let b0 = &other.data[l * n..l * n + n];
                    let b1 = &other.data[(l + 1) * n..(l + 1) * n + n];
                    let b2 = &other.data[(l + 2) * n..(l + 2) * n + n];
                    let b3 = &other.data[(l + 3) * n..(l + 3) * n + n];
                    let b4 = &other.data[(l + 4) * n..(l + 4) * n + n];
                    let b5 = &other.data[(l + 5) * n..(l + 5) * n + n];
                    let b6 = &other.data[(l + 6) * n..(l + 6) * n + n];
                    let b7 = &other.data[(l + 7) * n..(l + 7) * n + n];
                    for j in 0..n {
                        // One left-associated chain in increasing-k order:
                        // bit-identical to eight sequential `+=` passes.
                        crow[j] = crow[j]
                            + a0 * b0[j]
                            + a1 * b1[j]
                            + a2 * b2[j]
                            + a3 * b3[j]
                            + a4 * b4[j]
                            + a5 * b5[j]
                            + a6 * b6[j]
                            + a7 * b7[j];
                    }
                    l += 8;
                }
                while l < k1 {
                    let a = arow[l];
                    let brow = &other.data[l * n..l * n + n];
                    for j in 0..n {
                        crow[j] += a * brow[j];
                    }
                    l += 1;
                }
                i += 1;
            }
        }
        out
    }

    /// Transposed matrix.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    // The in-place kernels below are the only copy of their math: the
    // tape's ops and the gradient-free `eval` paths both call them.

    /// In-place broadcast add of the `1 x cols` row `bias` to every row.
    pub fn add_row_assign(&mut self, bias: &Tensor) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(self.cols, bias.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            row.iter_mut().zip(&bias.data).for_each(|(v, &b)| *v += b);
        }
    }

    /// In-place rectified linear unit.
    pub fn relu_assign(&mut self) {
        self.data.iter_mut().for_each(|v| *v = v.max(0.0));
    }

    /// Column-wise sum: `n x d` -> `1 x d`, rows added in order.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(1, self.cols);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            out.data.iter_mut().zip(row).for_each(|(o, &v)| *o += v);
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }
}

/// A CSR sparse matrix used for graph-adjacency products in GNN layers.
/// Values are fixed (non-differentiable); only the dense operand of an
/// [`crate::tape::Tape::spmm`] receives gradients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMatrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// CSR row offsets, `rows + 1` long.
    pub offsets: Vec<usize>,
    /// Column indices.
    pub indices: Vec<u32>,
    /// Non-zero values aligned with `indices`.
    pub values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from per-entry triplets `(row, col, value)`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        let mut counts = vec![0usize; rows];
        for &(r, _, _) in triplets {
            counts[r as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut indices = vec![0u32; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        let mut cursor = offsets.clone();
        for &(r, c, v) in triplets {
            let slot = &mut cursor[r as usize];
            indices[*slot] = c;
            values[*slot] = v;
            *slot += 1;
        }
        Self {
            rows,
            cols,
            offsets,
            indices,
            values,
        }
    }

    /// `Y = self * X` for dense `X`.
    pub fn matmul_dense(&self, x: &Tensor) -> Tensor {
        assert_eq!(self.cols, x.rows, "spmm shape mismatch");
        let mut out = Tensor::zeros(self.rows, x.cols);
        for (r, orow) in out.data.chunks_exact_mut(x.cols.max(1)).enumerate() {
            self.row_times(r, x, orow);
        }
        out
    }

    /// Rows `rows` of `self * X` in the given order, each bit-identical to
    /// its row of [`SparseMatrix::matmul_dense`] (the same per-row loop).
    pub fn matmul_dense_rows(&self, rows: &[u32], x: &Tensor) -> Tensor {
        assert_eq!(self.cols, x.rows, "spmm shape mismatch");
        let mut out = Tensor::zeros(rows.len(), x.cols);
        for (&r, orow) in rows.iter().zip(out.data.chunks_exact_mut(x.cols.max(1))) {
            self.row_times(r as usize, x, orow);
        }
        out
    }

    /// Row `r` of `self * X` into the zeroed `orow`. Inlined: as a call it
    /// slowed the tape's spmm by a few percent.
    #[inline(always)]
    fn row_times(&self, r: usize, x: &Tensor, orow: &mut [f32]) {
        for idx in self.offsets[r]..self.offsets[r + 1] {
            let c = self.indices[idx] as usize;
            let v = self.values[idx];
            let xrow = &x.data[c * x.cols..(c + 1) * x.cols];
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o += v * xv;
            }
        }
    }

    /// `Y = self^T * X` for dense `X` (used in spmm backward).
    pub fn transpose_matmul_dense(&self, x: &Tensor) -> Tensor {
        assert_eq!(self.rows, x.rows, "spmm^T shape mismatch");
        let mut out = Tensor::zeros(self.cols, x.cols);
        for r in 0..self.rows {
            let xrow = &x.data[r * x.cols..(r + 1) * x.cols];
            for idx in self.offsets[r]..self.offsets[r + 1] {
                let c = self.indices[idx] as usize;
                let v = self.values[idx];
                let orow = &mut out.data[c * x.cols..(c + 1) * x.cols];
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_slice(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_slice(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_slice(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().get(2, 1), 6.0);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let t = Tensor::xavier(10, 20, &mut rng);
        let bound = (6.0 / 30.0f32).sqrt();
        assert!(t.data.iter().all(|&v| v.abs() <= bound));
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn sparse_matmul_matches_dense() {
        // [[1, 0], [2, 3]] * [[1, 1], [1, 0]]
        let s = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
        let x = Tensor::from_slice(2, 2, &[1., 1., 1., 0.]);
        let y = s.matmul_dense(&x);
        assert_eq!(y.data, vec![1., 1., 5., 2.]);
        assert_eq!(s.values.len(), 3);
    }

    #[test]
    fn sparse_transpose_matmul() {
        let s = SparseMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 2, 4.0)]);
        let x = Tensor::from_slice(2, 1, &[1., 1.]);
        let y = s.transpose_matmul_dense(&x);
        // s^T is 3x2 with (1,0)=2, (2,1)=4.
        assert_eq!(y.data, vec![0., 2., 4.]);
    }

    #[test]
    fn accessors_and_item() {
        let mut t = Tensor::zeros(2, 2);
        t.set(1, 0, 5.0);
        assert_eq!(t.get(1, 0), 5.0);
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
        assert_eq!(Tensor::row(&[1., 2.]).rows, 1);
        assert_eq!(Tensor::column(&[1., 2.]).cols, 1);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_and_scale_assign() {
        let mut a = Tensor::from_slice(1, 3, &[1., 2., 3.]);
        let b = Tensor::from_slice(1, 3, &[1., 1., 1.]);
        a.add_assign(&b);
        a.scale_assign(2.0);
        assert_eq!(a.data, vec![4., 6., 8.]);
    }
}
