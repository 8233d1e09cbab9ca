//! Fixed-width register accumulators for the narrow `n x c` kernels.
//!
//! The engine's products have outputs a few dozen columns wide. A loop
//! that adds into the output row in memory reloads and re-stores that
//! row once per term, so it runs at store-forwarding latency, not at
//! the speed of the arithmetic. The narrow kernels (`mtrl_linalg::ops`,
//! `mtrl_sparse::Csr`'s SpMM) instead make one
//! pass per output row and keep the row in a `[f64; W]` accumulator
//! (`W` a multiple of 8, at most `MAX_LANES`), which the compiler holds
//! in vector registers. Wider outputs take further passes of at most
//! `MAX_LANES` columns each.
//!
//! The right-hand operand is read as `W`-lane rows ([`Panel`]), so every
//! inner step is a whole-register update. Lanes past the output width
//! may hold anything, `±∞·0 = NaN` included; they are never stored.
//! Every stored entry sums the same terms in the same order as a scalar
//! loop over the row, so results are bit-identical to it.
//!
//! `mtrl-sparse` compiles this same file (`#[path]`), so the helpers
//! are shared without becoming public API; they work on row-major
//! slices for that reason.

/// The widest accumulator: one pass covers up to this many columns.
pub(crate) const MAX_LANES: usize = 32;

/// The column panels `(p0, w)` of an `n`-column output, each at most
/// [`MAX_LANES`] wide.
pub(crate) fn panels(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(MAX_LANES)
        .map(move |p0| (p0, (n - p0).min(MAX_LANES)))
}

/// A column panel of a row-major matrix read as `W`-lane rows.
///
/// Row `r` is the `W` values starting at column `p0` of row `r` in the
/// row-major storage, read in place: lanes past the panel width read
/// whatever follows in storage. The last rows, whose window would run
/// off the end, come from a zero-padded copy. Lanes past the panel
/// width are never stored, so whatever they hold cannot reach an
/// output.
pub(crate) struct Panel<'a, const W: usize> {
    data: &'a [f64],
    stride: usize,
    p0: usize,
    /// Zero-padded copies of the rows from `tail_from` on.
    tail: Vec<[f64; W]>,
    tail_from: usize,
}

impl<'a, const W: usize> Panel<'a, W> {
    /// Columns `[p0, p0 + w)` of the `rows x stride` row-major `data`.
    pub(crate) fn new(data: &'a [f64], rows: usize, stride: usize, p0: usize, w: usize) -> Self {
        // Row r is read in place when its W-lane window ends inside
        // `data`: r·stride + p0 + W <= len.
        let tail_from = match data.len().checked_sub(p0 + W) {
            Some(room) => (room / stride + 1).min(rows),
            None => 0,
        };
        let tail = (tail_from..rows)
            .map(|r| {
                let mut lanes = [0.0; W];
                lanes[..w].copy_from_slice(&data[r * stride + p0..][..w]);
                lanes
            })
            .collect();
        Panel {
            data,
            stride,
            p0,
            tail,
            tail_from,
        }
    }

    /// Panel row `r` as `W` lanes.
    #[inline(always)]
    pub(crate) fn row(&self, r: usize) -> &[f64; W] {
        if r < self.tail_from {
            let start = r * self.stride + self.p0;
            self.data[start..start + W].try_into().expect("W lanes")
        } else {
            &self.tail[r - self.tail_from]
        }
    }
}

/// Store the first `dst.len()` lanes of `acc`. The lanes pass through a
/// second array so that `acc` itself only ever sees whole-array uses; a
/// variable-length read of `acc` would pin it to memory and scalarise
/// the kernel's inner loop.
#[inline(always)]
pub(crate) fn store_lanes<const W: usize>(acc: [f64; W], dst: &mut [f64]) {
    let lanes = acc;
    dst.copy_from_slice(&lanes[..dst.len()]);
}

/// Run `$kernel::<W>($args…)` with `W` the smallest multiple of 8 that
/// holds `$w` columns (`$w` ≤ [`MAX_LANES`]).
macro_rules! with_lanes {
    ($w:expr, $($kernel:ident)::+($($arg:expr),* $(,)?)) => {
        match ($w).div_ceil(8) {
            0 | 1 => $($kernel)::+::<8>($($arg),*),
            2 => $($kernel)::+::<16>($($arg),*),
            3 => $($kernel)::+::<24>($($arg),*),
            _ => $($kernel)::+::<32>($($arg),*),
        }
    };
}
pub(crate) use with_lanes;

/// Inputs and comparison for the tests that pin each register kernel to
/// its scalar oracle (the loop body it replaced, kept under
/// `#[cfg(test)]` beside it).
#[cfg(test)]
pub(crate) mod oracle {
    /// `len` values in `[-1, 1)` with exact zeros and `-0.0`s mixed in;
    /// with `specials`, NaN and `±∞` as well.
    pub(crate) fn awkward(len: usize, seed: u64, specials: bool) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                match state % 23 {
                    0..=4 => 0.0,
                    5 => -0.0,
                    6 if specials => f64::NAN,
                    7 if specials => f64::INFINITY,
                    8 if specials => f64::NEG_INFINITY,
                    _ => 2.0 * u - 1.0,
                }
            })
            .collect()
    }

    /// A block-structured `rows x cols` membership-like matrix: row `i`
    /// is nonzero only in the column block of its "type" (three types,
    /// contiguous row and column ranges), every fifth row is all zero,
    /// and some entries are `-0.0`.
    pub(crate) fn block_rows(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        let vals = awkward(rows * cols, seed, false);
        let mut out = vec![0.0; rows * cols];
        for i in 0..rows {
            if i % 5 == 4 {
                continue;
            }
            let t = 3 * i / rows.max(1);
            let (lo, hi) = (t * cols / 3, (t + 1) * cols / 3);
            for j in lo..hi {
                out[i * cols + j] = if (i + j) % 7 == 3 {
                    -0.0
                } else {
                    vals[i * cols + j].abs()
                };
            }
        }
        out
    }

    /// A type-blocked membership-like matrix: types of `sizes[k]` rows
    /// each own `clusters[k]` contiguous columns, and row `i` of type `k`
    /// is nonzero only there (positive values, with exact zeros and
    /// `-0.0`s mixed in); every fifth row is all zero. Returns the
    /// row-major values and the column count.
    pub(crate) fn typed_rows(sizes: &[usize], clusters: &[usize], seed: u64) -> (Vec<f64>, usize) {
        let n: usize = sizes.iter().sum();
        let c: usize = clusters.iter().sum();
        let vals = awkward(n * c, seed, false);
        let mut out = vec![0.0; n * c];
        let (mut r0, mut c0) = (0, 0);
        for (&nk, &ck) in sizes.iter().zip(clusters) {
            for i in r0..r0 + nk {
                if i % 5 == 4 {
                    continue;
                }
                for j in c0..c0 + ck {
                    let v = vals[i * c + j];
                    out[i * c + j] = if v.to_bits() == (-0.0f64).to_bits() {
                        v
                    } else {
                        v.abs()
                    };
                }
            }
            r0 += nk;
            c0 += ck;
        }
        (out, c)
    }

    /// Equal bits, or NaN on both sides (a NaN's payload may depend on
    /// operand order, which neither kernel promises).
    pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }
}
