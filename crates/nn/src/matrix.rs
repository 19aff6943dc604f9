//! A minimal row-major `f64` matrix with the operations a dense MLP needs.
//!
//! This is deliberately not a general tensor library, but the product kernels are the
//! hottest code in the serving path (`forward_batch_into` bottoms out here), so they
//! are written as cache-blocked, autovectorizer-friendly register-tile kernels rather
//! than scalar triple loops.
//!
//! # Kernel design and the reduction-order contract
//!
//! Every kernel processes fixed-width register tiles: a few output rows × contiguous
//! output lanes accumulate in local arrays (which the autovectorizer keeps in SIMD
//! registers), and the inner loop walks the shared dimension once with the operand
//! panels loaded contiguously. Edge tiles fall back to narrower tiles and a scalar
//! column loop.
//!
//! The load-bearing invariant is that the **per-output-element reduction order is a
//! function of the inner dimension only** — never of the batch size, the tile the
//! element landed in, the kernel level or the thread count:
//!
//! - `matmul` / `matmul_into` / `matmul_tn_acc`: element `(i, j)` is the strict
//!   ascending-`k` sum `((..(a_{i0}·b_{0j}) + a_{i1}·b_{1j}) + ..)`, exactly the order
//!   of the textbook scalar loop. Register tiles only change *which elements advance
//!   together*, not the order within an element, so a blocked result is bit-identical
//!   to the scalar reference — and a row of a size-N batch is bit-identical to the
//!   same row forwarded alone, which is the invariant the online serving layer's
//!   micro-batching and the `serving_parity` suite rest on.
//! - `matmul_nt` / `matmul_nt_into`: each element is an independent dot product, which
//!   a single serial chain would leave latency-bound; it is accumulated in `DOT_LANES` (8)
//!   interleaved partial sums (lane `c` takes `k ≡ c (mod DOT_LANES)` in ascending
//!   order) combined by a fixed balanced tree. The order is still a pure function of
//!   the inner dimension, so results remain independent of batch size and thread
//!   count; they simply differ (by rounding reassociation) from the serial-chain sum.
//!
//! Products deliberately do **not** skip zero operands: `0·∞` and `0·NaN` must produce
//! NaN (IEEE 754), and a data-dependent branch in the inner loop defeats
//! vectorization.
//!
//! # Runtime dispatch
//!
//! Each product (`gemm_nn`, `gemm_tn_acc`, `gemm_nt`) is one `#[inline(always)]`
//! generic body instantiated at three levels: inside a
//! `#[target_feature(enable = "avx512f")]` function, inside a
//! `#[target_feature(enable = "avx2")]` function, and as the portable build (SSE2 on
//! the default x86-64 target). Every call runs the widest level the host reports
//! through `is_x86_feature_detected!`, which std caches, so the check costs one atomic
//! load; [`kernel_level`] names the level. Non-x86 targets compile only the portable
//! level. The levels differ only in tile shape:
//!
//! | level      | batch tile | one-row edge tile | NT rows of `b` per pass |
//! |------------|------------|-------------------|-------------------------|
//! | `avx512f`  | 4 × 32     | 1 × 64            | 4                       |
//! | `avx2`     | 4 × 8      | 1 × 32            | 4                       |
//! | `portable` | 4 × 8      | 1 × 8             | 1                       |
//!
//! Batch-1 inference runs entirely in the one-row edge tile, so that is where the wide
//! levels gain most. A tile shape decides only which elements advance together, never
//! the order inside one, so every level is bit-identical to the others and to the
//! scalar reference loops; the in-crate `level_parity` tests run each level the host
//! supports against those loops.
//!
//! **No fused multiply-add.** The kernels use plain mul-then-add, never `mul_add`, and
//! never `enable = "fma"`. A fused multiply-add rounds once where the reference rounds
//! twice, so it would make results depend on the host. `avx512f` does imply `fma` in
//! the target-feature hierarchy, which is harmless: Rust never contracts a separate
//! `*` and `+` into a fused instruction, so both roundings stay.

use serde::{Deserialize, Serialize};

/// Output rows advanced together by one batch register tile.
const MR: usize = 4;
/// Output lanes (f64 columns) of the portable register tiles, and the narrowest tile
/// every level falls back to before the scalar edge columns.
const NR: usize = 8;
/// Interleaved partial-sum lanes of the `matmul_nt` dot-product kernel.
const DOT_LANES: usize = 8;

/// One instantiation of the kernel bodies, in ascending order of register width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Portable,
    Avx2,
    Avx512f,
}

impl Level {
    /// The widest level: as a dispatch cap it lets the host's support decide alone.
    const BEST: Level = Level::Avx512f;

    fn name(self) -> &'static str {
        match self {
            Level::Portable => "portable",
            Level::Avx2 => "avx2",
            Level::Avx512f => "avx512f",
        }
    }

    /// Whether this host can run the level.
    fn supported(self) -> bool {
        match self {
            Level::Portable => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Level::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Level::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }
}

/// The kernel level every matrix product runs at on this host: `"avx512f"`, `"avx2"`
/// or `"portable"`. All levels give bit-identical results; only the speed differs.
pub fn kernel_level() -> &'static str {
    [Level::Avx512f, Level::Avx2]
        .into_iter()
        .find(|level| level.supported())
        .unwrap_or(Level::Portable)
        .name()
}

/// Runs the widest instantiation of a kernel, up to the level `$cap`, that the host
/// supports: `x86::$avx512f`, `x86::$avx2`, or else the portable `$portable`.
macro_rules! dispatch {
    ($cap:expr, $avx512f:ident, $avx2:ident, $portable:expr, ($($arg:expr),*)) => {{
        let cap: Level = $cap;
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if cap >= Level::Avx512f && Level::Avx512f.supported() {
                // SAFETY: `x86::$avx512f` is compiled for avx512f, and `supported` just
                // confirmed through `is_x86_feature_detected!` that the host runs it.
                return unsafe { x86::$avx512f($($arg),*) };
            }
            if cap >= Level::Avx2 && Level::Avx2.supported() {
                // SAFETY: `x86::$avx2` is compiled for avx2, and `supported` just
                // confirmed through `is_x86_feature_detected!` that the host runs it.
                return unsafe { x86::$avx2($($arg),*) };
            }
        }
        let _ = cap;
        $portable($($arg),*)
    }};
}

/// The x86 instantiations: each is a generic body compiled with the level's target
/// feature, so the autovectorizer may use its registers. The const parameters are the
/// level's row of the tile table in the module doc.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{gemm_nn_body, gemm_nt_body, gemm_tn_acc_body};

    /// Defines each `$name` as `$body` compiled with the target feature `$feature`.
    macro_rules! instantiate {
        ($($feature:literal $name:ident => $body:expr;)*) => {$(
            #[target_feature(enable = $feature)]
            pub(super) fn $name(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
                $body(a, b, out, m, k, n)
            }
        )*};
    }

    instantiate! {
        "avx512f" gemm_nn_avx512f => gemm_nn_body::<32, 64>;
        "avx2" gemm_nn_avx2 => gemm_nn_body::<8, 32>;
        "avx512f" gemm_tn_acc_avx512f => gemm_tn_acc_body::<32, 64>;
        "avx2" gemm_tn_acc_avx2 => gemm_tn_acc_body::<8, 32>;
        "avx512f" gemm_nt_avx512f => gemm_nt_body::<4>;
        "avx2" gemm_nt_avx2 => gemm_nt_body::<4>;
    }
}

/// `out[i0..i0+R][j0..] = a · b` in register tiles of `R` rows × `W` lanes, from
/// column `j0` while a whole tile fits; returns the first column left over. Every
/// element accumulates in strict ascending-`k` order. `a` is the `m × k` left operand,
/// `b` the `k × n` right operand, both row-major.
#[inline(always)]
fn tiles_nn<const R: usize, const W: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    kdim: usize,
    n: usize,
    i0: usize,
    mut j0: usize,
) -> usize {
    let arows: [&[f64]; R] = std::array::from_fn(|r| &a[(i0 + r) * kdim..(i0 + r + 1) * kdim]);
    while j0 + W <= n {
        let mut acc = [[0.0f64; W]; R];
        for kk in 0..kdim {
            let brow = &b[kk * n + j0..kk * n + j0 + W];
            for (acc_row, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[kk];
                for (s, &bv) in acc_row.iter_mut().zip(brow) {
                    *s += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i0 + r) * n + j0..(i0 + r) * n + j0 + W].copy_from_slice(acc_row);
        }
        j0 += W;
    }
    j0
}

/// Scalar edge columns `j0..n` of row `i`: same strict ascending-`k` order.
#[inline(always)]
fn edge_cols(a: &[f64], b: &[f64], out: &mut [f64], kdim: usize, n: usize, i: usize, j0: usize) {
    let arow = &a[i * kdim..(i + 1) * kdim];
    for j in j0..n {
        let mut s = 0.0f64;
        for (kk, &av) in arow.iter().enumerate() {
            s += av * b[kk * n + j];
        }
        out[i * n + j] = s;
    }
}

/// Blocked `out = a · b` (`m × k` times `k × n`, all row-major, `out` overwritten):
/// `MR × TW` tiles over whole row blocks and `1 × W1` tiles over the `m % MR` edge
/// rows, each falling back to `NR`-lane tiles and then scalar columns. Bit-identical
/// to the scalar `i, k, j` reference loop for every shape.
#[inline(always)]
fn gemm_nn_body<const TW: usize, const W1: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    kdim: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(out.len(), m * n);
    let m_full = m - m % MR;
    for i0 in (0..m_full).step_by(MR) {
        let j0 = tiles_nn::<MR, TW>(a, b, out, kdim, n, i0, 0);
        let j0 = tiles_nn::<MR, NR>(a, b, out, kdim, n, i0, j0);
        for r in 0..MR {
            edge_cols(a, b, out, kdim, n, i0 + r, j0);
        }
    }
    for i in m_full..m {
        let j0 = tiles_nn::<1, W1>(a, b, out, kdim, n, i, 0);
        let j0 = tiles_nn::<1, NR>(a, b, out, kdim, n, i, j0);
        edge_cols(a, b, out, kdim, n, i, j0);
    }
}

/// `out = a · b` at the widest level up to `cap` the host supports.
fn gemm_nn(cap: Level, a: &[f64], b: &[f64], out: &mut [f64], m: usize, kdim: usize, n: usize) {
    dispatch!(
        cap,
        gemm_nn_avx512f,
        gemm_nn_avx2,
        gemm_nn_body::<NR, NR>,
        (a, b, out, m, kdim, n)
    )
}

/// `acc[j0..j0+R][l0..] += aᵀ · b` in register tiles of `R` accumulator rows × `W`
/// lanes, from column `l0` while a whole tile fits; returns the first column left
/// over. Every element is seeded from the existing accumulator value and advances in
/// strict ascending-`i` order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tiles_tn_acc<const R: usize, const W: usize>(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
    j0: usize,
    mut l0: usize,
) -> usize {
    while l0 + W <= n {
        let mut tile = [[0.0f64; W]; R];
        for (r, tile_row) in tile.iter_mut().enumerate() {
            tile_row.copy_from_slice(&acc[(j0 + r) * n + l0..(j0 + r) * n + l0 + W]);
        }
        for i in 0..m {
            let brow = &b[i * n + l0..i * n + l0 + W];
            let acol = &a[i * ja + j0..i * ja + j0 + R];
            for (tile_row, &av) in tile.iter_mut().zip(acol) {
                for (s, &bv) in tile_row.iter_mut().zip(brow) {
                    *s += av * bv;
                }
            }
        }
        for (r, tile_row) in tile.iter().enumerate() {
            acc[(j0 + r) * n + l0..(j0 + r) * n + l0 + W].copy_from_slice(tile_row);
        }
        l0 += W;
    }
    l0
}

/// Blocked `acc[j, l] += Σ_i a[i, j] · b[i, l]` (`aᵀ · b` accumulated into `acc`):
/// `MR × TW` tiles over whole blocks of output rows (columns `j` of `a`) and `1 × W1`
/// tiles over the `ja % MR` edge rows, each falling back to `NR`-lane tiles and then
/// scalar columns. Every element advances in strict ascending-`i` order seeded from
/// the existing accumulator value — exactly the incremental `+=` of the scalar
/// reference loop. `a` is `m × ja` row-major, `b` is `m × n` row-major, `acc` is
/// `ja × n` row-major.
#[inline(always)]
fn gemm_tn_acc_body<const TW: usize, const W1: usize>(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * ja);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(acc.len(), ja * n);
    let j_full = ja - ja % MR;
    for j0 in (0..j_full).step_by(MR) {
        let l0 = tiles_tn_acc::<MR, TW>(a, b, acc, m, ja, n, j0, 0);
        let l0 = tiles_tn_acc::<MR, NR>(a, b, acc, m, ja, n, j0, l0);
        for j in j0..j0 + MR {
            edge_cols_tn_acc(a, b, acc, m, ja, n, j, l0);
        }
    }
    for j in j_full..ja {
        let l0 = tiles_tn_acc::<1, W1>(a, b, acc, m, ja, n, j, 0);
        let l0 = tiles_tn_acc::<1, NR>(a, b, acc, m, ja, n, j, l0);
        edge_cols_tn_acc(a, b, acc, m, ja, n, j, l0);
    }
}

/// Scalar edge columns `l0..n` of accumulator row `j`: same ascending-`i` order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn edge_cols_tn_acc(
    a: &[f64],
    b: &[f64],
    acc: &mut [f64],
    m: usize,
    ja: usize,
    n: usize,
    j: usize,
    l0: usize,
) {
    for l in l0..n {
        let mut s = acc[j * n + l];
        for i in 0..m {
            s += a[i * ja + j] * b[i * n + l];
        }
        acc[j * n + l] = s;
    }
}

/// `acc += aᵀ · b` at the widest level up to `cap` the host supports.
fn gemm_tn_acc(cap: Level, a: &[f64], b: &[f64], acc: &mut [f64], m: usize, ja: usize, n: usize) {
    dispatch!(
        cap,
        gemm_tn_acc_avx512f,
        gemm_tn_acc_avx2,
        gemm_tn_acc_body::<NR, NR>,
        (a, b, acc, m, ja, n)
    )
}

/// `D` dot products `Σ_k x_k · y_k` sharing the left operand `x`, each in
/// [`DOT_LANES`] interleaved partial sums (lane `c` takes the terms with
/// `k ≡ c (mod DOT_LANES)`, each in ascending-`k` order) combined by a fixed balanced
/// tree. The reduction order is a pure function of the length — `D` only sets how
/// many independent dots advance together — so `matmul_nt` results are independent
/// of batch size, kernel level and thread count.
#[inline(always)]
fn dot_lanes<const D: usize>(x: &[f64], ys: [&[f64]; D]) -> [f64; D] {
    let mut lanes = [[0.0f64; DOT_LANES]; D];
    let chunks = x.len() / DOT_LANES;
    for t in 0..chunks {
        let xs = &x[t * DOT_LANES..(t + 1) * DOT_LANES];
        for (dot, y) in lanes.iter_mut().zip(&ys) {
            let yc = &y[t * DOT_LANES..(t + 1) * DOT_LANES];
            for (lane, (&xv, &yv)) in dot.iter_mut().zip(xs.iter().zip(yc)) {
                *lane += xv * yv;
            }
        }
    }
    let tail = chunks * DOT_LANES;
    for (dot, y) in lanes.iter_mut().zip(&ys) {
        debug_assert_eq!(x.len(), y.len());
        for (lane, (&xv, &yv)) in dot.iter_mut().zip(x[tail..].iter().zip(&y[tail..])) {
            *lane += xv * yv;
        }
    }
    lanes.map(|l| {
        let q0 = (l[0] + l[1]) + (l[2] + l[3]);
        let q1 = (l[4] + l[5]) + (l[6] + l[7]);
        q0 + q1
    })
}

/// `out = a · bᵀ` (`m × k` times `(nb × k)ᵀ`, all row-major, `out` overwritten): each
/// element is the [`dot_lanes`] product of two contiguous rows. `D` rows of `b` are
/// taken at a time and dotted with every row of `a`, so the `D` rows stay in L1 while
/// `a` streams past them once.
#[inline(always)]
fn gemm_nt_body<const D: usize>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    kdim: usize,
    nb: usize,
) {
    debug_assert_eq!(a.len(), m * kdim);
    debug_assert_eq!(b.len(), nb * kdim);
    debug_assert_eq!(out.len(), m * nb);
    let brow = |l: usize| &b[l * kdim..(l + 1) * kdim];
    let mut l0 = 0;
    while l0 + D <= nb {
        let ys: [&[f64]; D] = std::array::from_fn(|d| brow(l0 + d));
        for (x, out_row) in a.chunks_exact(kdim).zip(out.chunks_exact_mut(nb)) {
            out_row[l0..l0 + D].copy_from_slice(&dot_lanes::<D>(x, ys));
        }
        l0 += D;
    }
    for l in l0..nb {
        let y = brow(l);
        for (x, out_row) in a.chunks_exact(kdim).zip(out.chunks_exact_mut(nb)) {
            out_row[l] = dot_lanes::<1>(x, [y])[0];
        }
    }
}

/// `out = a · bᵀ` at the widest level up to `cap` the host supports.
fn gemm_nt(cap: Level, a: &[f64], b: &[f64], out: &mut [f64], m: usize, kdim: usize, nb: usize) {
    dispatch!(
        cap,
        gemm_nt_avx512f,
        gemm_nt_avx2,
        gemm_nt_body::<1>,
        (a, b, out, m, kdim, nb)
    )
}

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Create a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if the vector length does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Self { rows, cols, data }
    }

    /// Create a 1×n row matrix from a slice.
    pub fn row_from_slice(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Set the element at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm_nn(
            Level::BEST,
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation, and zero the
    /// contents (the shape every accumulating product expects).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place without zeroing (the caller overwrites every element). Keeps
    /// stale contents in the buffer, so this stays private to the kernels.
    fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copy another matrix's shape and contents into this one, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Matrix product `self · other` written into `out` (reshaped as needed, allocation
    /// reused). The workhorse behind [`Matrix::matmul`] for preallocated pipelines.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape_for_overwrite(self.rows, other.cols);
        gemm_nn(
            Level::BEST,
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Transpose-free product `selfᵀ · other` (a `cols × other.cols` result). Equivalent
    /// to `self.transpose().matmul(other)` without materialising the transposed copy;
    /// this is the backward pass's `dL/dW = inputᵀ · dL/dz`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_acc(other, &mut out);
        out
    }

    /// Accumulate `selfᵀ · other` into `acc` (which must already have the right shape).
    /// Lets gradient accumulation write straight into the gradient buffer with no
    /// temporary.
    ///
    /// # Panics
    /// Panics if shapes are inconsistent.
    pub fn matmul_tn_acc(&self, other: &Matrix, acc: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn dimension mismatch: {}x{}ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (acc.rows, acc.cols),
            (self.cols, other.cols),
            "matmul_tn accumulator shape mismatch"
        );
        gemm_tn_acc(
            Level::BEST,
            &self.data,
            &other.data,
            &mut acc.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Transpose-free product `self · otherᵀ` (a `rows × other.rows` result). Equivalent
    /// to `self.matmul(&other.transpose())` without materialising the transposed copy;
    /// this is the backward pass's `dL/d(input) = dL/dz · Wᵀ`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` written into `out` (reshaped as needed, allocation reused).
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt dimension mismatch: {}x{} · {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape_for_overwrite(self.rows, other.rows);
        gemm_nt(
            Level::BEST,
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place (e.g. applying an activation to a preallocated
    /// pre-activation buffer). Identical per-element results to [`Matrix::map`].
    pub fn map_assign(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling by a constant.
    pub fn scale_assign(&mut self, factor: f64) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Add a row vector (e.g. a bias) to every row.
    ///
    /// # Panics
    /// Panics if the vector length does not equal the column count.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast length mismatch");
        for i in 0..self.rows {
            for (a, &b) in self.row_mut(i).iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Column-wise sums (used for bias gradients).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        sums
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Index of the maximum element of row `i`.
    pub fn row_argmax(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Maximum element of row `i`.
    pub fn row_max(&self, i: usize) -> f64 {
        self.row(i)
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Frobenius norm (root of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_fn_and_set() {
        let mut m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 1), 11.0);
        m.set(0, 0, 7.0);
        assert_eq!(m.get(0, 0), 7.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_and_matches() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(5, 5); // wrong shape on purpose: reset_to reshapes
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Run again into the same buffer: contents must not accumulate.
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (1..=12).map(f64::from).collect());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_tn_acc_accumulates() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let mut acc = a.matmul_tn(&b);
        a.matmul_tn_acc(&b, &mut acc);
        let mut doubled = a.transpose().matmul(&b);
        doubled.scale_assign(2.0);
        assert_eq!(acc, doubled);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 0.0, -1.0]);
        let b = Matrix::from_vec(4, 3, (1..=12).map(f64::from).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn copy_from_and_reset_reuse_the_allocation() {
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut dst = Matrix::zeros(1, 8);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_to(2, 3);
        assert_eq!(dst.rows(), 2);
        assert_eq!(dst.cols(), 3);
        assert!(dst.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).data(), &[11.0, 18.0, 33.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[11.0, 18.0, 33.0]);
        c.scale_assign(0.5);
        assert_eq!(c.data(), &[5.5, 9.0, 16.5]);
    }

    #[test]
    fn broadcast_and_column_sums() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.column_sums(), vec![24.0, 46.0]);
    }

    #[test]
    fn row_statistics() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 5.0, 3.0, -1.0, -5.0, -3.0]);
        assert_eq!(m.row_argmax(0), 1);
        assert_eq!(m.row_argmax(1), 0);
        assert_eq!(m.row_max(0), 5.0);
        assert_eq!(m.row_max(1), -1.0);
        assert!((m.mean() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        Matrix::zeros(0, 3);
    }

    #[test]
    fn zero_times_non_finite_poisons_the_product() {
        // IEEE 754: 0·∞ and 0·NaN are NaN. The old kernels skipped zero left-hand
        // operands ("sparse" shortcut) and silently produced 0 instead.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let inf = Matrix::from_vec(2, 1, vec![f64::INFINITY, 2.0]);
        let nan = Matrix::from_vec(2, 1, vec![f64::NAN, 2.0]);
        assert!(a.matmul(&inf).get(0, 0).is_nan());
        assert!(a.matmul(&nan).get(0, 0).is_nan());
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&inf, &mut out);
        assert!(out.get(0, 0).is_nan());

        // aᵀ · b with a zero in the transposed operand row hitting a non-finite b.
        let left = Matrix::from_vec(1, 2, vec![0.0, 3.0]);
        let right = Matrix::from_vec(1, 1, vec![f64::INFINITY]);
        let mut acc = Matrix::zeros(2, 1);
        left.matmul_tn_acc(&right, &mut acc);
        assert!(acc.get(0, 0).is_nan(), "0·∞ must be NaN in matmul_tn_acc");
        assert!(acc.get(1, 0).is_infinite());

        // a · bᵀ where the zero lane of a meets an infinite lane of b.
        let bt = Matrix::from_vec(1, 2, vec![f64::INFINITY, 0.5]);
        assert!(a.matmul_nt(&bt).get(0, 0).is_nan());
    }

    /// The scalar reference loop of the blocked NN kernels (strict ascending-k).
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f64;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_scalar_reference_on_ragged_shapes() {
        // Shapes straddling every tile boundary: < MR/NR, exact multiples, and
        // multiples plus remainders.
        for (m, k, n) in [
            (1, 1, 1),
            (1, 15, 32),
            (3, 7, 5),
            (4, 8, 8),
            (5, 9, 17),
            (9, 13, 19),
            (12, 32, 24),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) as f64 * 0.37).sin());
            let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 11) as f64 * 0.23).cos());
            let blocked = a.matmul(&b);
            let reference = reference_matmul(&a, &b);
            for (x, y) in blocked.data().iter().zip(reference.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}·{k}x{n} diverged");
            }
        }
    }

    /// The levels this host can run. A level it lacks is reported as skipped: running
    /// it would fault, and capping dispatch at it would only rerun a lower level.
    fn host_levels(test: &str) -> Vec<Level> {
        [Level::Portable, Level::Avx2, Level::Avx512f]
            .into_iter()
            .filter(|level| {
                let supported = level.supported();
                if !supported {
                    eprintln!("{test}: level {} skipped, host lacks it", level.name());
                }
                supported
            })
            .collect()
    }

    /// Deterministic operand values in [-2, 2) with full mantissas and exact zeros, from
    /// an integer LCG.
    fn lcg_values(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
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
            .collect()
    }

    /// `(m, k, n)`: shapes straddling every tile width (MR, NR, the 32- and 64-lane
    /// tiles, DOT_LANES) and the paper Q-network's batch-1 and batch-64 products.
    const LEVEL_PARITY_SHAPES: [(usize, usize, usize); 15] = [
        (1, 1, 1),
        (1, 7, 9),
        (3, 9, 17),
        (5, 13, 33),
        (7, 17, 65),
        (9, 8, 71),
        (2, 31, 127),
        (6, 33, 130),
        (4, 16, 96),
        (1, 3, 100),
        (1, 15, 256),
        (1, 256, 256),
        (1, 256, 128),
        (1, 128, 64),
        (64, 256, 256),
    ];

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {idx} diverged");
        }
    }

    #[test]
    fn level_parity_nn_matches_the_scalar_reference_at_every_level() {
        for level in host_levels("level_parity_nn") {
            for (m, k, n) in LEVEL_PARITY_SHAPES {
                let (a, b) = (lcg_values(m * k, 1), lcg_values(k * n, 2));
                let mut want = vec![0.0; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut s = 0.0f64;
                        for kk in 0..k {
                            s += a[i * k + kk] * b[kk * n + j];
                        }
                        want[i * n + j] = s;
                    }
                }
                // Stale contents must be overwritten, never accumulated into.
                let mut out = vec![f64::NAN; m * n];
                gemm_nn(level, &a, &b, &mut out, m, k, n);
                assert_bits_eq(&out, &want, &format!("{} nn {m}x{k}·{k}x{n}", level.name()));
            }
        }
    }

    #[test]
    fn level_parity_tn_acc_matches_the_scalar_reference_at_every_level() {
        for level in host_levels("level_parity_tn_acc") {
            for (m, k, n) in LEVEL_PARITY_SHAPES {
                // (k×m)ᵀ · (k×n) accumulated into an m×n buffer that starts non-zero.
                let (a, b) = (lcg_values(k * m, 3), lcg_values(k * n, 4));
                let start = lcg_values(m * n, 5);
                let mut want = start.clone();
                for j in 0..m {
                    for l in 0..n {
                        let mut s = want[j * n + l];
                        for i in 0..k {
                            s += a[i * m + j] * b[i * n + l];
                        }
                        want[j * n + l] = s;
                    }
                }
                let mut acc = start;
                gemm_tn_acc(level, &a, &b, &mut acc, k, m, n);
                assert_bits_eq(
                    &acc,
                    &want,
                    &format!("{} tn_acc {m}x{k}·{k}x{n}", level.name()),
                );
            }
        }
    }

    #[test]
    fn level_parity_nt_matches_the_lane_reference_at_every_level() {
        for level in host_levels("level_parity_nt") {
            for (m, k, n) in LEVEL_PARITY_SHAPES {
                let (a, b) = (lcg_values(m * k, 6), lcg_values(n * k, 7));
                let mut want = vec![0.0; m * n];
                for i in 0..m {
                    for l in 0..n {
                        let mut lanes = [0.0f64; DOT_LANES];
                        for kk in 0..k {
                            lanes[kk % DOT_LANES] += a[i * k + kk] * b[l * k + kk];
                        }
                        let q0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
                        let q1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
                        want[i * n + l] = q0 + q1;
                    }
                }
                let mut out = vec![f64::NAN; m * n];
                gemm_nt(level, &a, &b, &mut out, m, k, n);
                assert_bits_eq(
                    &out,
                    &want,
                    &format!("{} nt {m}x{k}·({n}x{k})ᵀ", level.name()),
                );
            }
        }
    }

    #[test]
    fn level_parity_zero_times_non_finite_is_nan_at_every_level() {
        // A zero in the first and last inner position of every left row meets ±∞ or NaN
        // in the same position of every right row, so every output element — whatever
        // tile, edge column or dot tail computed it — must be NaN.
        let wide = 64 + 32 + 8 + 3;
        for level in host_levels("level_parity_nan") {
            for poison in [f64::INFINITY, f64::NAN] {
                for (m, k, n) in [(1, 2, 1), (1, 9, wide), (5, 9, wide), (4, 17, 37)] {
                    let lhs = |rows: usize| {
                        let mut v = vec![1.0; rows * k];
                        for row in v.chunks_exact_mut(k) {
                            row[0] = 0.0;
                            row[k - 1] = 0.0;
                        }
                        v
                    };
                    let what = format!("{} {m}x{k}x{n} poison {poison}", level.name());
                    // NN: b is k×n with rows 0 and k-1 poisoned.
                    let mut b = vec![2.0; k * n];
                    b[..n].fill(poison);
                    b[(k - 1) * n..].fill(poison);
                    let mut out = vec![0.0; m * n];
                    gemm_nn(level, &lhs(m), &b, &mut out, m, k, n);
                    assert!(out.iter().all(|v| v.is_nan()), "nn {what}");
                    // TN-acc: a is k×m with rows 0 and k-1 zero, b as above.
                    let mut a = vec![1.0; k * m];
                    a[..m].fill(0.0);
                    a[(k - 1) * m..].fill(0.0);
                    let mut acc = vec![0.0; m * n];
                    gemm_tn_acc(level, &a, &b, &mut acc, k, m, n);
                    assert!(acc.iter().all(|v| v.is_nan()), "tn_acc {what}");
                    // NT: bt is n×k with columns 0 and k-1 poisoned.
                    let mut bt = vec![2.0; n * k];
                    for row in bt.chunks_exact_mut(k) {
                        row[0] = poison;
                        row[k - 1] = poison;
                    }
                    gemm_nt(level, &lhs(m), &bt, &mut out, m, k, n);
                    assert!(out.iter().all(|v| v.is_nan()), "nt {what}");
                }
            }
        }
    }

    #[test]
    fn kernel_level_names_the_widest_supported_level() {
        let widest = host_levels("kernel_level")
            .into_iter()
            .max()
            .expect("portable always runs");
        assert_eq!(kernel_level(), widest.name());
    }
}
