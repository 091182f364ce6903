//! Golden equivalence: the cache-blocked [`Tensor::matmul`] must be
//! bit-identical to the pre-PR naive triple loop
//! ([`mcpb_nn::reference::matmul_naive`]) on every input.
//!
//! Bit-identity holds by construction: the blocked kernel accumulates each
//! output element as a single left-associated chain in increasing-k order —
//! the same float-addition order as the naive loop — and dropping the
//! `a == 0.0` skip is exact because `acc + 0.0 * b` rounds to `acc` under
//! round-to-nearest for the finite accumulators the skip could produce.
//! These tests pin that argument with `to_bits` comparisons, including on
//! relu-masked inputs where the zero-skip actually used to fire.

use mcpb_nn::reference::matmul_naive;
use mcpb_nn::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn assert_bit_identical(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.rows, b.rows, "{what}: row mismatch");
    assert_eq!(a.cols, b.cols, "{what}: col mismatch");
    for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

#[test]
fn blocked_matches_naive_on_odd_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C);
    // Shapes straddling the k-panel (256) and the 4-wide unroll: primes,
    // one-row/one-col edges, exact panel multiples, and panel+remainder.
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 5, 7),
        (17, 31, 13),
        (8, 256, 8),
        (5, 257, 3),
        (2, 1023, 2),
        (64, 300, 19),
        (1, 512, 1),
    ] {
        let a = Tensor::xavier(m, k, &mut rng);
        let b = Tensor::xavier(k, n, &mut rng);
        assert_bit_identical(
            &a.matmul(&b),
            &matmul_naive(&a, &b),
            &format!("{m}x{k}x{n}"),
        );
    }
}

#[test]
fn blocked_matches_naive_with_relu_masked_zeros() {
    // Post-relu activations are full of exact zeros — the case the old
    // kernel's `a == 0.0` skip targeted. Equivalence must survive them.
    let mut rng = ChaCha8Rng::seed_from_u64(0x2E1);
    let mut a = Tensor::xavier(23, 129, &mut rng);
    for v in a.data.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let b = Tensor::xavier(129, 11, &mut rng);
    assert_bit_identical(&a.matmul(&b), &matmul_naive(&a, &b), "relu-masked");
}

#[test]
fn blocked_matches_naive_on_mostly_zero_inputs() {
    // 70% exact zeros: the naive kernel skips most of its multipliers and
    // must still agree bit-for-bit (skipping a zero contributes exactly
    // what adding it would).
    let mut rng = ChaCha8Rng::seed_from_u64(0x5A);
    let mut a = Tensor::xavier(9, 260, &mut rng);
    for v in a.data.iter_mut() {
        if rng.gen::<f32>() < 0.7 {
            *v = 0.0;
        }
    }
    let b = Tensor::xavier(260, 6, &mut rng);
    assert_bit_identical(&a.matmul(&b), &matmul_naive(&a, &b), "mostly zeros");
}

#[test]
fn special_values_propagate_identically() {
    // NaN/inf in the activations must flow through both kernels the same
    // way (same operation order -> same NaN payloads are not guaranteed by
    // IEEE, but same *placement* of NaN/inf is, and to_bits on the rest).
    let mut rng = ChaCha8Rng::seed_from_u64(0x71);
    let mut a = Tensor::xavier(4, 40, &mut rng);
    a.data[7] = f32::INFINITY;
    a.data[13] = f32::NEG_INFINITY;
    let b = Tensor::xavier(40, 5, &mut rng);
    let x = a.matmul(&b);
    let y = matmul_naive(&a, &b);
    for (u, v) in x.data.iter().zip(&y.data) {
        assert_eq!(u.to_bits(), v.to_bits(), "{u} vs {v}");
    }
}
