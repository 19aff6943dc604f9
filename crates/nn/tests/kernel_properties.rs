//! Property tests pinning the blocked matmul kernels **bit-identical** to scalar
//! reference loops across ragged shapes.
//!
//! The serving determinism contract says every kernel's reduction order is a pure
//! function of the inner dimension — never of the blocking, the batch size, or the
//! thread count. These tests state that contract as executable references: a plain
//! ascending-`k` triple loop for the NN/TN kernels, and the documented
//! interleaved-lane tree for the NT kernel. Any future re-blocking of the kernels
//! must keep these exact summation orders or the fleet's replay/serving parity
//! guarantees break.
//!
//! The products dispatch to the widest kernel level the host supports, so the property
//! tests here cover that level only; the in-crate `level_parity` tests in `matrix.rs`
//! run every level. `kernel_outputs_match_the_golden_digest` pins the output bits
//! themselves across commits and machines.

use proptest::prelude::*;
use uerl_nn::Matrix;

/// Deterministic pseudo-random matrix filler (values in roughly ±2, plus exact zeros
/// so the `a == 0.0` paths stay exercised).
fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i * 131 + j * 17) as u64);
        if h.is_multiple_of(13) {
            0.0
        } else {
            ((h % 10_007) as f64 / 10_007.0 - 0.5) * 4.0
        }
    })
}

/// Reference `a · b`: for each output element, one accumulator advancing in strict
/// ascending-`k` order — the order the blocked NN kernel documents.
fn reference_nn(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, l| {
        let mut s = 0.0f64;
        for k in 0..a.cols() {
            s += a.data()[i * a.cols() + k] * b.data()[k * b.cols() + l];
        }
        s
    })
}

/// Reference `aᵀ · b` accumulated into `acc`: each element seeded from the existing
/// accumulator value and advanced in strict ascending-row order.
fn reference_tn_acc(a: &Matrix, b: &Matrix, acc: &mut Matrix) {
    let (m, ja, n) = (a.rows(), a.cols(), b.cols());
    for j in 0..ja {
        for l in 0..n {
            let mut s = acc.data()[j * n + l];
            for i in 0..m {
                s += a.data()[i * ja + j] * b.data()[i * n + l];
            }
            acc.data_mut()[j * n + l] = s;
        }
    }
}

/// Reference `a · bᵀ`: the documented `dot_lanes` order — 8 interleaved partial sums
/// (lane `c` takes terms `k ≡ c (mod 8)` in ascending-`k` order) combined by a fixed
/// balanced tree.
fn reference_nt(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, l| {
        let mut lanes = [0.0f64; 8];
        for k in 0..a.cols() {
            lanes[k % 8] += a.data()[i * a.cols() + k] * b.data()[l * b.cols() + k];
        }
        let q0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        let q1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
        q0 + q1
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn blocked_nn_matches_the_scalar_reference_bitwise(
        dims in (1usize..20, 1usize..40, 1usize..140, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x5bd1);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&reference_nn(&a, &b)));
    }

    #[test]
    fn blocked_tn_acc_matches_the_scalar_reference_bitwise(
        dims in (1usize..32, 1usize..14, 1usize..140, 0u64..1_000_000),
    ) {
        // `a` is the left operand pre-transposed: (m×ja)ᵀ · (m×n) accumulated in place.
        let (m, ja, n, seed) = dims;
        let a = fill(m, ja, seed);
        let b = fill(m, n, seed ^ 0x94d0);
        let mut blocked = fill(ja, n, seed ^ 0x27d4);
        let mut reference = blocked.clone();
        a.matmul_tn_acc(&b, &mut blocked);
        reference_tn_acc(&a, &b, &mut reference);
        prop_assert_eq!(bits(&blocked), bits(&reference));
    }

    #[test]
    fn blocked_nt_matches_the_lane_reference_bitwise(
        dims in (1usize..20, 1usize..40, 1usize..140, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(n, k, seed ^ 0x1656);
        prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&reference_nt(&a, &b)));
    }

    #[test]
    fn batched_rows_match_single_row_products_bitwise(
        dims in (2usize..16, 1usize..40, 1usize..140, 0u64..1_000_000),
    ) {
        // The serving invariant: row i of a batch-of-N product is bit-identical to the
        // batch-of-1 product of row i alone, for every kernel in the family.
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x85eb);
        let bt = fill(n, k, seed ^ 0xc2b2);
        let nn = a.matmul(&b);
        let nt = a.matmul_nt(&bt);
        for i in 0..m {
            let row = Matrix::row_from_slice(a.row(i));
            prop_assert_eq!(bits(&row.matmul(&b)), nn.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            prop_assert_eq!(bits(&row.matmul_nt(&bt)), nt.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matmul_into_reuses_scratch_without_divergence(
        dims in (1usize..12, 1usize..24, 1usize..16, 0u64..1_000_000),
    ) {
        let (m, k, n, seed) = dims;
        let a = fill(m, k, seed);
        let b = fill(k, n, seed ^ 0x6a09);
        // Warm the scratch with a differently-shaped product first.
        let mut out = fill(3, 3, seed ^ 0xbb67).matmul(&fill(3, 5, seed));
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&a.matmul(&b)));
    }
}

/// Operand values in [-2, 2) with full 52-bit mantissas, plus exact zeros, built from
/// the bits of an integer LCG: every step is exact and none goes through libm, so the
/// operands — and with them the digest below — are the same on every platform.
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (state >> 33).is_multiple_of(11) {
                0.0
            } else {
                // 52 random mantissa bits in [1, 2), moved exactly to [-2, 2): products
                // round, so a reassociated sum changes bits.
                (f64::from_bits(0x3ff0_0000_0000_0000 | (state >> 12)) - 1.5) * 4.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// FNV-1a over the output bits of the NN, TN-acc and NT products on the paper
/// Q-network's shapes plus ragged ones, pinned from the commit before the kernels
/// were dispatched by CPU level. A kernel that reassociates any sum, on any host at
/// any level, changes it.
const GOLDEN_KERNEL_DIGEST: u64 = 0xb24b_e58d_7456_4512;

#[test]
fn kernel_outputs_match_the_golden_digest() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |m: &Matrix| {
        for v in m.data() {
            for byte in v.to_bits().to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    let shapes = [
        (1, 15, 256),
        (1, 256, 256),
        (1, 256, 128),
        (1, 128, 64),
        (64, 256, 256),
        (13, 37, 19),
        (5, 9, 71),
        (7, 65, 130),
    ];
    for (s, &(m, k, n)) in (0u64..).zip(&shapes) {
        let a = lcg_matrix(m, k, 10 * s + 1);
        absorb(&a.matmul(&lcg_matrix(k, n, 10 * s + 2)));
        // (k×m)ᵀ · (k×n) accumulated into an m×n buffer that starts non-zero.
        let mut acc = lcg_matrix(m, n, 10 * s + 3);
        lcg_matrix(k, m, 10 * s + 4).matmul_tn_acc(&lcg_matrix(k, n, 10 * s + 5), &mut acc);
        absorb(&acc);
        absorb(&a.matmul_nt(&lcg_matrix(n, k, 10 * s + 6)));
    }
    assert_eq!(
        digest, GOLDEN_KERNEL_DIGEST,
        "kernel output digest {digest:#018x} differs from the pinned one"
    );
}
