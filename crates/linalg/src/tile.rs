//! The packed register tile behind every all-pairs pass.
//!
//! Four passes multiply a matrix by the transpose of a matrix of the
//! same width, `n` rows against `m` rows over `d` columns: the row Gram
//! `K = X·Xᵀ` of the SPG stage (`ops::row_gram`), the exact p-nearest
//! search, the stream's inserts against the corpus and the resumable
//! prefix search (`mtrl-graph`). Each runs on this one kernel:
//!
//! * both operands are packed into panels ([`Panels`]): `W` rows side
//!   by side, column `k` of the panel holding their `W` values, so the
//!   kernel reads both operands contiguously;
//! * [`kernel`] keeps an `MR x NR` (8 x 8) tile of outputs in
//!   registers and walks `k` upward, each step one update per output;
//! * [`for_each_tile`] packs the left operand one cache block at a
//!   time and visits its tiles so the block stays in cache while the
//!   right panels stream past; for a matrix against itself it can keep
//!   only the tiles that hold an entry on or above the diagonal.
//!
//! Every output entry is its own chain over ascending `k` from whatever
//! the caller puts in the tile, so its value does not depend on the
//! tiling, the pass order or the thread count. The fused mode runs
//! `acc = a.mul_add(b, acc)`, the distance chain of the search; the
//! unfused mode runs `acc = acc + a·b`, the row Gram's loop.
//!
//! `mtrl-graph` compiles this same file (`#[path]`), so the kernel is
//! shared without becoming public API; it works on slices for that
//! reason.

use std::ops::Range;

/// Rows of the left operand per tile.
pub(crate) const MR: usize = 8;
/// Rows of the right operand per tile: the tile's columns.
pub(crate) const NR: usize = 8;

/// One tile of outputs: `MR` left rows by `NR` right rows.
pub(crate) type Tile = [[f64; NR]; MR];

/// Left panels per cache block are sized so the block fits in about
/// this many bytes of L2.
const BLOCK_BYTES: usize = 192 * 1024;

/// Rows packed in panels of `W` for [`kernel`].
///
/// Panel `p` holds rows `[p·W, p·W + W)`, column by column: its `k`-th
/// group of `W` values is column `k` of those rows. Rows past the last
/// are zeros; their outputs are never read.
#[derive(Debug, Clone, Default)]
pub(crate) struct Panels<const W: usize> {
    depth: usize,
    count: usize,
    data: Vec<f64>,
}

impl<const W: usize> Panels<W> {
    /// The rows of a row-major `rows x depth` slice, each times `scale`.
    pub(crate) fn of_rows(x: &[f64], rows: usize, depth: usize, scale: f64) -> Self {
        let mut panels = Panels::default();
        panels.pack(x, rows, depth, scale);
        panels
    }

    /// Repack in place from a row-major `rows x depth` slice, each entry
    /// times `scale`, keeping the storage.
    fn pack(&mut self, x: &[f64], rows: usize, depth: usize, scale: f64) {
        self.count = rows.div_ceil(W);
        self.depth = depth;
        self.data.clear();
        self.data.resize(self.count * depth * W, 0.0);
        if depth > 0 {
            let panels = self.data.chunks_exact_mut(depth * W);
            for (panel, group) in panels.zip(x[..rows * depth].chunks(depth * W)) {
                for (r, row) in group.chunks_exact(depth).enumerate() {
                    for (slot, &v) in panel[r..].iter_mut().step_by(W).zip(row) {
                        *slot = scale * v;
                    }
                }
            }
        }
    }

    /// Number of panels.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Panel `p`, `depth · W` values.
    pub(crate) fn panel(&self, p: usize) -> &[f64] {
        &self.data[p * self.depth * W..(p + 1) * self.depth * W]
    }
}

/// Run one tile over the whole depth: for every `k` in ascending order,
/// `acc[r][c] = a_rk.mul_add(b_ck, acc[r][c])` when `FUSED`, else
/// `acc[r][c] = acc[r][c] + a_rk · b_ck`, with `a` a left panel and `b`
/// a right panel of the same depth.
///
/// Never inlined: on its own the compiler keeps the tile in vector
/// registers and vectorises each step over the right panel's rows;
/// inlined into a caller's loops it has been seen to emit scalar or
/// shuffle-bound code instead.
#[inline(never)]
pub(crate) fn kernel<const FUSED: bool>(a: &[f64], b: &[f64], acc: &mut Tile) {
    let mut t = *acc;
    for (ak, bk) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let bk: [f64; NR] = std::array::from_fn(|c| bk[c]);
        for r in 0..MR {
            let av = ak[r];
            let row = &mut t[r];
            for c in 0..NR {
                row[c] = if FUSED {
                    av.mul_add(bk[c], row[c])
                } else {
                    row[c] + av * bk[c]
                };
            }
        }
    }
    *acc = t;
}

/// Visit the tiles of a pass of `x`'s rows (`rows x depth`, row-major,
/// each taken times `scale`) in the left panels `left` against `right`
/// right panels, in cache blocks: each block of left panels is packed
/// just before its tiles, so one block is held at a time, and meets
/// every right panel before the next block starts. `visit(p, q, a)`
/// gets the left panel `p`, the right panel `q` and `p`'s packed values.
///
/// With `upper` (both operands the rows of one matrix), only the tiles
/// holding an entry `(i, j)` with `j ≥ i` are visited.
#[allow(clippy::too_many_arguments)]
pub(crate) fn for_each_tile(
    x: &[f64],
    rows: usize,
    depth: usize,
    scale: f64,
    left: Range<usize>,
    right: usize,
    upper: bool,
    mut visit: impl FnMut(usize, usize, &[f64]),
) {
    let per = (BLOCK_BYTES / (8 * MR * depth.max(1))).clamp(1, 64);
    let first = |p: usize| if upper { p * MR / NR } else { 0 };
    let mut packed = Panels::<MR>::default();
    for b0 in left.clone().step_by(per) {
        let block = b0..(b0 + per).min(left.end);
        let (r0, r1) = (b0 * MR, rows.min(block.end * MR));
        packed.pack(&x[r0 * depth..r1 * depth], r1 - r0, depth, scale);
        for q in first(b0)..right {
            for p in block.clone().filter(|&p| q >= first(p)) {
                visit(p, q, packed.panel(p - b0));
            }
        }
    }
}
