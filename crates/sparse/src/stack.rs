//! One sparse matrix times several narrow dense operands at once.
//!
//! The ensemble's members all multiply the same `R` by their own `G`
//! on every iteration. Run one by one, each product reads every stored
//! entry of `R` again for a few lanes of work. [`LaneStack`] lays the
//! operands side by side in zero-padded panels of whole register lanes,
//! so [`CsrBlock::spmm_stacked`] reads each stored entry once per panel
//! for all of them, and stores each operand's lanes straight into that
//! operand's own output. It reads a block of the sparse matrix (an
//! object-type block of `R`, [`Csr::block`]) in place, located once and
//! never cut out.

use crate::lanes::{with_lanes, MAX_LANES};
use crate::Csr;
use mtrl_linalg::Mat;
use std::ops::Range;

/// Narrow dense operands of equal height, stacked side by side.
///
/// Operand `k` is `rows x widths[k]`. Its columns go into panels of at
/// most 32 lanes in operand order: an operand starts a new panel when
/// the open one has no room for it, and one wider than a panel fills
/// whole panels and then starts another with its remainder, so a panel
/// never holds two pieces of one operand. Each panel is a
/// row-major `rows x W` buffer, `W` the smallest multiple of 8 that
/// holds its pieces; the lanes past them are `+0` and stay so.
#[derive(Debug)]
pub struct LaneStack {
    rows: usize,
    widths: Vec<usize>,
    panels: Vec<LanePanel>,
}

#[derive(Debug)]
struct LanePanel {
    lanes: usize,
    data: Vec<f64>,
    pieces: Vec<Piece>,
}

/// Columns `col..col + width` of one operand, held in lanes
/// `lane..lane + width` of a panel.
#[derive(Debug)]
struct Piece {
    operand: usize,
    col: usize,
    lane: usize,
    width: usize,
}

impl LaneStack {
    /// Zeroed operands of `rows` rows and the given widths.
    pub fn new(rows: usize, widths: &[usize]) -> Self {
        let mut layout: Vec<(Vec<Piece>, usize)> = Vec::new();
        for (operand, &w) in widths.iter().enumerate() {
            for col in (0..w).step_by(MAX_LANES) {
                let width = (w - col).min(MAX_LANES);
                match layout.last_mut() {
                    Some((pieces, used)) if *used + width <= MAX_LANES => {
                        pieces.push(Piece {
                            operand,
                            col,
                            lane: *used,
                            width,
                        });
                        *used += width;
                    }
                    _ => layout.push((
                        vec![Piece {
                            operand,
                            col,
                            lane: 0,
                            width,
                        }],
                        width,
                    )),
                }
            }
        }
        let panels = layout
            .into_iter()
            .map(|(pieces, used)| {
                let lanes = used.div_ceil(8) * 8;
                LanePanel {
                    lanes,
                    data: vec![0.0; rows * lanes],
                    pieces,
                }
            })
            .collect();
        LaneStack {
            rows,
            widths: widths.to_vec(),
            panels,
        }
    }

    /// The operand widths, in order.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Set operand `k` to the window `src[rows, cols]` (a packed block
    /// of a taller, wider matrix, copied without an intermediate).
    ///
    /// # Panics
    /// Panics if the window is not `rows x widths[k]` (the stack's
    /// `rows`) or runs past `src`.
    pub fn set(&mut self, k: usize, src: &Mat, rows: Range<usize>, cols: Range<usize>) {
        assert_eq!(rows.len(), self.rows, "LaneStack::set: row count");
        assert_eq!(cols.len(), self.widths[k], "LaneStack::set: width");
        assert!(
            rows.end <= src.rows() && cols.end <= src.cols(),
            "LaneStack::set: window past src"
        );
        for panel in &mut self.panels {
            let lanes = panel.lanes;
            for piece in panel.pieces.iter().filter(|p| p.operand == k) {
                let from = cols.start + piece.col;
                for (r, i) in rows.clone().enumerate() {
                    panel.data[r * lanes + piece.lane..][..piece.width]
                        .copy_from_slice(&src.row(i)[from..from + piece.width]);
                }
            }
        }
    }
}

/// One piece's output: the rows it writes (a row-major window of its
/// operand's output matrix, starting at that row's column 0) and where
/// in them.
struct Dst<'a> {
    rows: &'a mut [f64],
    stride: usize,
    col: usize,
    lane: usize,
    width: usize,
}

impl Csr {
    /// The block `self[rows, cols]`, read in place: each row's stored
    /// entries inside it are located once, so repeated products over
    /// the block ([`CsrBlock::spmm_stacked`]) take no copy and no search.
    ///
    /// # Panics
    /// Panics if the block runs past `self`.
    pub fn block(&self, rows: Range<usize>, cols: Range<usize>) -> CsrBlock<'_> {
        assert!(
            rows.end <= self.rows() && cols.end <= self.cols(),
            "Csr::block: block past self"
        );
        // Each row's entries are column-sorted, so the ones inside the
        // block are one contiguous run.
        let runs: Vec<(&[usize], &[f64])> = rows
            .clone()
            .map(|i| {
                let (idx, vals) = self.row(i);
                let run = idx.partition_point(|&j| j < cols.start)
                    ..idx.partition_point(|&j| j < cols.end);
                (&idx[run.clone()], &vals[run])
            })
            .collect();
        CsrBlock {
            nnz: runs.iter().map(|(idx, _)| idx.len()).sum(),
            runs,
            row0: rows.start,
            cols,
        }
    }
}

/// A block of a CSR matrix read in place ([`Csr::block`]): per block
/// row, the run of stored entries (columns, values) inside the block.
#[derive(Debug)]
pub struct CsrBlock<'a> {
    runs: Vec<(&'a [usize], &'a [f64])>,
    /// The block's first row and its columns in the whole matrix.
    row0: usize,
    cols: Range<usize>,
    nnz: usize,
}

impl CsrBlock<'_> {
    /// Stored entries inside the block.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The block (its columns numbered from its first) times every
    /// operand `B_k` of `rhs`, each into its own output window: the
    /// block's rows (numbered as in the whole matrix) and columns
    /// `[col0, col0 + widths[k])` of `outs[k].0`, with `col0 = outs[k].1`;
    /// every other entry of the outputs is left as it is.
    ///
    /// Each output row takes one pass over the block's stored entries in
    /// that row per panel, for every operand in the panel at once, with
    /// the row held in a register accumulator. Every entry sums `v · b[j]`
    /// over those entries in column order starting from `+0` — the sum
    /// [`Csr::spmm_into`] forms on the block cut out
    /// ([`Csr::split_blocks`]) — so each operand's output is
    /// bit-identical to that block's own [`Csr::spmm_into`], NaN positions
    /// included. Rows split across the [`mtrl_linalg::par`] pool when a
    /// panel's work (`nnz · W`) clears the threshold; the result is
    /// bit-identical for every thread count.
    ///
    /// # Panics
    /// Panics if the block has not `rhs.rows()` columns, `outs` does not
    /// hold one output per operand, or a window runs past its output.
    pub fn spmm_stacked(&self, rhs: &LaneStack, outs: &mut [(&mut Mat, usize)]) {
        let rows = self.row0..self.row0 + self.runs.len();
        assert_eq!(
            self.cols.len(),
            rhs.rows,
            "spmm_stacked: dimension mismatch"
        );
        assert_eq!(
            outs.len(),
            rhs.widths.len(),
            "spmm_stacked: one output per operand"
        );
        for ((out, col0), &w) in outs.iter().zip(&rhs.widths) {
            assert!(
                out.rows() >= rows.end && out.cols() >= col0 + w,
                "spmm_stacked: window past out"
            );
        }
        for panel in &rhs.panels {
            // A panel holds at most one piece per operand, so each piece
            // borrows a different output.
            let mut dsts = Vec::with_capacity(panel.pieces.len());
            let mut pieces = panel.pieces.iter().peekable();
            for (k, (out, col0)) in outs.iter_mut().enumerate() {
                if let Some(piece) = pieces.next_if(|p| p.operand == k) {
                    let stride = out.cols();
                    dsts.push(Dst {
                        rows: &mut out.as_mut_slice()[rows.start * stride..rows.end * stride],
                        stride,
                        col: *col0 + piece.col,
                        lane: piece.lane,
                        width: piece.width,
                    });
                }
            }
            with_lanes!(panel.lanes, spmm_lanes(self, &panel.data, dsts));
        }
    }
}

/// One panel of [`CsrBlock::spmm_stacked`]: `data` holds one row of
/// exactly `W` lanes per block column.
fn spmm_lanes<const W: usize>(block: &CsrBlock<'_>, data: &[f64], mut dsts: Vec<Dst<'_>>) {
    let rows_into = |r0: usize, r1: usize, dsts: &mut [Dst<'_>]| {
        for (local, (idx, vals)) in block.runs[r0..r1].iter().enumerate() {
            let mut acc = [0.0; W];
            for (&j, &v) in idx.iter().zip(*vals) {
                let at = (j - block.cols.start) * W;
                let b: &[f64; W] = data[at..at + W].try_into().expect("W lanes");
                for (o, &bv) in acc.iter_mut().zip(b) {
                    *o += v * bv;
                }
            }
            // Read the lanes through a copy so that `acc` itself only
            // sees whole-array uses (see `lanes::store_lanes`).
            let lanes = acc;
            for d in dsts.iter_mut() {
                d.rows[local * d.stride + d.col..][..d.width]
                    .copy_from_slice(&lanes[d.lane..d.lane + d.width]);
            }
        }
    };
    let rows = block.runs.len();
    let threads = mtrl_linalg::par::threads_for(block.nnz * W).min(rows.max(1));
    if threads == 1 {
        rows_into(0, rows, &mut dsts);
        return;
    }
    // Cut every output window into the same row chunks, one chunk of
    // each per worker.
    let rows_per = rows.div_ceil(threads);
    let mut chunks: Vec<Vec<Dst<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for d in dsts {
        let (stride, col, lane, width) = (d.stride, d.col, d.lane, d.width);
        for (t, part) in d.rows.chunks_mut(rows_per * stride).enumerate() {
            chunks[t].push(Dst {
                rows: part,
                stride,
                col,
                lane,
                width,
            });
        }
    }
    std::thread::scope(|scope| {
        for (t, mut part) in chunks.into_iter().enumerate() {
            let rows_into = &rows_into;
            let r0 = t * rows_per;
            let r1 = (r0 + rows_per).min(rows);
            if r0 < r1 {
                scope.spawn(move || rows_into(r0, r1, &mut part));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::oracle::{awkward, same_bits};
    use mtrl_linalg::block::BlockSpec;

    /// A `rows x cols` pattern with empty rows and stored values drawn
    /// from [`awkward`] (exact zeros, `-0.0`, NaN, ±∞).
    fn awkward_csr(rows: usize, cols: usize, density: f64, seed: u64) -> Csr {
        let mask = awkward(rows * cols, seed, false);
        let vals = awkward(rows * cols, seed + 1, true);
        let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
        for i in 0..rows {
            for j in 0..cols {
                if i % 7 != 6 && mask[i * cols + j].abs() < density {
                    indices.push(j);
                    values.push(vals[i * cols + j]);
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_raw_parts(rows, cols, indptr, indices, values)
    }

    #[test]
    fn panels_hold_whole_operands_and_split_wide_ones() {
        let stack = LaneStack::new(3, &[15, 15, 15, 3, 70, 1]);
        let lanes: Vec<usize> = stack.panels.iter().map(|p| p.lanes).collect();
        assert_eq!(lanes, [32, 24, 32, 32, 8]);
        let pieces: Vec<Vec<[usize; 4]>> = stack
            .panels
            .iter()
            .map(|p| {
                let pieces = p.pieces.iter();
                pieces
                    .map(|q| [q.operand, q.col, q.lane, q.width])
                    .collect()
            })
            .collect();
        assert_eq!(
            pieces,
            [
                vec![[0, 0, 0, 15], [1, 0, 15, 15]],
                vec![[2, 0, 0, 15], [3, 0, 15, 3]],
                vec![[4, 0, 0, 32]],
                vec![[4, 32, 0, 32]],
                vec![[4, 64, 0, 6], [5, 0, 6, 1]],
            ]
        );
        assert!(stack.panels.iter().all(|p| p.data.len() == 3 * p.lanes));
    }

    #[test]
    fn stacked_spmm_equals_one_spmm_into_per_operand() {
        // Blocks of an awkward sparse matrix (NaN, ±∞, ±0, empty rows)
        // times operands of awkward values and widths from 1 to past two
        // panels, in windows of wider outputs whose other entries must
        // survive: each operand's output equals `spmm_into` of the block
        // cut out. 1 and 4 threads, the largest block above the parallel
        // threshold.
        let before = mtrl_linalg::par::num_threads();
        for (case, (shape, rows, cols, widths, density)) in [
            ((9usize, 7usize), 0..9, 0..7, vec![3usize, 1, 15, 4, 6], 0.4),
            ((50, 40), 4..44, 3..36, vec![33, 8, 2, 70, 16, 16, 5], 0.3),
            (
                (1000, 900),
                100..1000,
                150..850,
                vec![5, 15, 4, 3, 15, 4, 6, 15],
                0.1,
            ),
            ((6, 5), 1..4, 2..2, vec![2, 9], 0.5),
            ((5, 4), 0..5, 0..4, vec![], 0.5),
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 50 + 10 * case as u64;
            let r = awkward_csr(shape.0, shape.1, density, seed);
            let cut = r.split_blocks(
                &BlockSpec::from_sizes(&[rows.start, rows.len(), shape.0 - rows.end]),
                &BlockSpec::from_sizes(&[cols.start, cols.len(), shape.1 - cols.end]),
            );
            let inner = cols.len();
            let operands: Vec<Mat> = widths
                .iter()
                .enumerate()
                .map(|(k, &w)| {
                    let vals = awkward(inner * w, seed + 2 + k as u64, true);
                    Mat::from_vec(inner, w, vals).unwrap()
                })
                .collect();
            // Each operand sits in a window of a wider, taller source.
            let mut stack = LaneStack::new(inner, &widths);
            for (k, b) in operands.iter().enumerate() {
                let src = Mat::from_fn(inner + 3, b.cols() + 5, |i, j| {
                    if (2..inner + 2).contains(&i) && (1..b.cols() + 1).contains(&j) {
                        b[(i - 2, j - 1)]
                    } else {
                        f64::NAN
                    }
                });
                stack.set(k, &src, 2..inner + 2, 1..b.cols() + 1);
            }
            let fresh = |k: usize| {
                let fill = awkward((shape.0 + 2) * (widths[k] + 6), seed + 30 + k as u64, true);
                Mat::from_vec(shape.0 + 2, widths[k] + 6, fill).unwrap()
            };
            for threads in [1usize, 4] {
                mtrl_linalg::par::set_num_threads(threads);
                let mut got: Vec<Mat> = (0..widths.len()).map(fresh).collect();
                let mut outs: Vec<(&mut Mat, usize)> = got
                    .iter_mut()
                    .enumerate()
                    .map(|(k, m)| (m, 1 + k % 4))
                    .collect();
                r.block(rows.clone(), cols.clone())
                    .spmm_stacked(&stack, &mut outs);
                for (k, b) in operands.iter().enumerate() {
                    let mut expect = fresh(k);
                    cut[1][1].spmm_into(b, &mut expect, rows.start, 1 + k % 4);
                    assert!(
                        same_bits(got[k].as_slice(), expect.as_slice()),
                        "case {case} operand {k} t={threads}"
                    );
                }
            }
        }
        mtrl_linalg::par::set_num_threads(before);
    }
}
