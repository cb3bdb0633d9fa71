//! A small fully-connected network with manual backprop and Adam.
//!
//! Hidden layers use ReLU; the output layer is linear (Q-values). Weights
//! are He-initialised from a caller-supplied seed, so training is fully
//! deterministic.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Elements one register tile spans: outputs in the forward, inputs in the
/// backward — two SSE registers, one accumulator lane per element.
const LANES: usize = 8;

/// Samples one forward tile spans, so every weight column loaded serves
/// `ROWS` samples and the tile's `ROWS × LANES` accumulators form
/// independent add chains.
const ROWS: usize = 4;

/// One dense layer: `out = W·x + b`, with `W` stored row-major (out × in).
#[derive(Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Weights, row-major `[n_out][n_in]`.
    pub w: Vec<f32>,
    /// Biases `[n_out]`.
    pub b: Vec<f32>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, rng: &mut SmallRng) -> Self {
        // He initialisation for ReLU nets.
        let scale = (2.0 / n_in as f32).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            n_in,
            n_out,
            w,
            b: vec![0.0; n_out],
        }
    }

    /// `out = W·x + b` with output rows processed four at a time. Each
    /// output element is `b[o] + Σ_i w[o][i]·x[i]` accumulated in `i` order
    /// — bit-identical to the plain dot product of the scalar reference —
    /// but the four independent accumulators break the serial f32 add chain
    /// that latency-binds that dot product, so the batched kernels lean on
    /// instruction-level parallelism without changing a single bit of
    /// output.
    #[inline]
    fn apply_blocked(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.n_in);
        debug_assert_eq!(out.len(), self.n_out);
        let n_in = self.n_in;
        let mut o = 0;
        while o + 4 <= self.n_out {
            let r0 = &self.w[o * n_in..(o + 1) * n_in];
            let r1 = &self.w[(o + 1) * n_in..(o + 2) * n_in];
            let r2 = &self.w[(o + 2) * n_in..(o + 3) * n_in];
            let r3 = &self.w[(o + 3) * n_in..(o + 4) * n_in];
            let (mut a0, mut a1, mut a2, mut a3) =
                (self.b[o], self.b[o + 1], self.b[o + 2], self.b[o + 3]);
            for (i, &xi) in x.iter().enumerate() {
                a0 += r0[i] * xi;
                a1 += r1[i] * xi;
                a2 += r2[i] * xi;
                a3 += r3[i] * xi;
            }
            out[o] = a0;
            out[o + 1] = a1;
            out[o + 2] = a2;
            out[o + 3] = a3;
            o += 4;
        }
        while o < self.n_out {
            let row = &self.w[o * n_in..(o + 1) * n_in];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out[o] = acc;
            o += 1;
        }
    }

    /// Row length of the transposed weights: `n_out` rounded up to whole
    /// tiles, so every tile loads a full [`LANES`]-wide column slice.
    fn wt_stride(&self) -> usize {
        self.n_out.next_multiple_of(LANES)
    }

    /// Write the transposed layer into `wt`, `[1 + n_in][wt_stride]` flat:
    /// row 0 is the bias, row `1 + c` is input `c`'s weight to every
    /// output. The padding lanes are zero and never stored back.
    fn transpose_into(&self, wt: &mut [f32]) {
        let mut rows = wt.chunks_exact_mut(self.wt_stride());
        let bias = rows.next().expect("bias row");
        bias[..self.n_out].copy_from_slice(&self.b);
        bias[self.n_out..].fill(0.0);
        for (c, col) in rows.enumerate() {
            let (live, pad) = col.split_at_mut(self.n_out);
            for (o, slot) in live.iter_mut().enumerate() {
                *slot = self.w[o * self.n_in + c];
            }
            pad.fill(0.0);
        }
    }

    /// `out[k][o] = b[o] + Σ_c w[o][c]·x[k][c]` for the `R` samples packed
    /// in `x`, read from the transposed layer `wt`. A tile of `R` samples
    /// × [`LANES`] outputs lives in registers: every accumulator starts at
    /// its bias and adds its terms in input order — the scalar dot's exact
    /// sum — and every column slice loaded serves all `R` samples.
    #[inline(always)]
    fn apply_tile<const R: usize>(&self, wt: &[f32], x: &[f32], out: &mut [f32]) {
        let (n_in, n_out, stride) = (self.n_in, self.n_out, self.wt_stride());
        let xs: [&[f32]; R] = std::array::from_fn(|k| &x[k * n_in..(k + 1) * n_in]);
        for o0 in (0..n_out).step_by(LANES) {
            let lanes = |row: &[f32]| -> [f32; LANES] {
                row[o0..o0 + LANES].try_into().expect("LANES-wide slice")
            };
            let mut rows = wt.chunks_exact(stride);
            let mut acc = [lanes(rows.next().expect("bias row")); R];
            for (c, col) in rows.enumerate() {
                let col = lanes(col);
                for (a, x) in acc.iter_mut().zip(&xs) {
                    let xi = x[c];
                    for (aj, wj) in a.iter_mut().zip(col) {
                        *aj += wj * xi;
                    }
                }
            }
            let width = LANES.min(n_out - o0);
            for (k, tile) in acc.into_iter().enumerate() {
                out[k * n_out + o0..][..width].copy_from_slice(&tile[..width]);
            }
        }
    }
}

/// The `(offset, value)` pairs of `items` whose value is nonzero, in
/// order, compacted into `buf` (which must have room for every item)
/// without a branch per item.
fn nonzero_terms(
    buf: &mut [(usize, f32)],
    items: impl Iterator<Item = (usize, f32)>,
) -> &[(usize, f32)] {
    let mut n = 0;
    for item in items {
        buf[n] = item;
        n += usize::from(item.1 != 0.0);
    }
    &buf[..n]
}

/// `out[j] = Σ_t k_t · rows[at_t + j]` over `terms = [(at_t, k_t)]` in
/// order, starting from +0.0: the backward's two folds (weight gradients
/// over samples, `delta_prev` over weight rows). A tile of `out` stays in
/// registers while the terms stream past it, so each term costs one load
/// of its row slice instead of a load and a store of `out`. Tiles are as
/// wide as four [`LANES`] where `out` allows, so eight independent add
/// chains hide the adder's latency; narrower ones take the rest.
fn fold_rows(terms: &[(usize, f32)], rows: &[f32], out: &mut [f32]) {
    let mut j0 = 0;
    while out.len() - j0 >= 4 * LANES {
        fold_tile::<{ 4 * LANES }>(terms, rows, j0, out);
        j0 += 4 * LANES;
    }
    while out.len() - j0 >= LANES {
        fold_tile::<LANES>(terms, rows, j0, out);
        j0 += LANES;
    }
    if out.len() - j0 >= LANES / 2 {
        fold_tile::<{ LANES / 2 }>(terms, rows, j0, out);
        j0 += LANES / 2;
    }
    while j0 < out.len() {
        fold_tile::<1>(terms, rows, j0, out);
        j0 += 1;
    }
}

/// [`fold_rows`] for the `W` columns of `out` from `j0`.
#[inline(always)]
fn fold_tile<const W: usize>(terms: &[(usize, f32)], rows: &[f32], j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for &(at, k) in terms {
        let row: &[f32; W] = rows[at + j0..][..W].try_into().expect("W-wide slice");
        for (a, &r) in acc.iter_mut().zip(row) {
            *a += k * r;
        }
    }
    out[j0..j0 + W].copy_from_slice(&acc);
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        Dense {
            n_in: self.n_in,
            n_out: self.n_out,
            w: self.w.clone(),
            b: self.b.clone(),
        }
    }

    /// Reuse the existing weight/bias buffers when shapes match. The derived
    /// impl would fall back to `*self = src.clone()`, which re-allocates —
    /// target-network syncs inside a steady-state `train_step` must not
    /// touch the heap.
    fn clone_from(&mut self, src: &Self) {
        self.n_in = src.n_in;
        self.n_out = src.n_out;
        self.w.clone_from(&src.w);
        self.b.clone_from(&src.b);
    }
}

/// Parameter gradients, same shapes as the network.
#[derive(Clone, Debug)]
pub struct Gradients {
    /// Per-layer weight gradients.
    pub dw: Vec<Vec<f32>>,
    /// Per-layer bias gradients.
    pub db: Vec<Vec<f32>>,
}

impl Gradients {
    /// All-zero gradients shaped like `net`.
    pub fn zeros(net: &Mlp) -> Self {
        Gradients {
            dw: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            db: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Scale every gradient by `k` (e.g. 1/batch-size).
    pub fn scale(&mut self, k: f32) {
        for a in self.dw.iter_mut().chain(self.db.iter_mut()) {
            for x in a {
                *x *= k;
            }
        }
    }
}

/// Per-layer activations of a whole minibatch, stored as flat row-major
/// `[batch × width]` buffers.
///
/// The buffers persist across calls: a workspace reused at its steady-state
/// shape is never re-allocated, which is what makes the agent's batched
/// `train_step` allocation-free. Create once, pass to
/// [`Mlp::forward_batch`] / [`Mlp::forward_cached_batch`] repeatedly.
#[derive(Clone, Debug, Default)]
pub struct BatchActivations {
    /// `acts[0]` is the flat input batch; `acts[i]` holds the
    /// post-activation outputs of layer `i-1` for every sample.
    acts: Vec<Vec<f32>>,
    /// Per-layer transposed weights, bias row first (`[1 + n_in][wt_stride]`
    /// flat, see `Dense::transpose_into`). The transposed layout makes each
    /// output tile of a forward one contiguous slice per input, while each
    /// output element still sums its terms in input-index order, keeping
    /// the result bit-identical to the scalar dot products.
    wt: Vec<Vec<f32>>,
    /// The [`Version`] of the weights `wt` holds, if any: a forward of a
    /// net at this version reuses them instead of transposing again.
    wt_version: Option<Version>,
    batch: usize,
}

impl BatchActivations {
    /// An empty workspace; buffers are shaped on first use and reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples in the currently cached batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The flat `[batch × output_dim]` network output.
    pub fn output(&self) -> &[f32] {
        self.acts.last().expect("empty batch workspace")
    }

    /// The output row of sample `s`.
    pub fn output_row(&self, s: usize) -> &[f32] {
        let out = self.output();
        let w = out.len() / self.batch;
        &out[s * w..(s + 1) * w]
    }

    /// Shape the buffers for `net` × `batch`. Capacity never shrinks, so
    /// alternating batch sizes settle to the largest and stay allocation-free.
    fn ensure(&mut self, net: &Mlp, batch: usize) {
        self.acts.resize(net.dims.len(), Vec::new());
        for (buf, &w) in self.acts.iter_mut().zip(&net.dims) {
            buf.resize(batch * w, 0.0);
        }
        self.wt.resize(net.layers.len(), Vec::new());
        for (buf, l) in self.wt.iter_mut().zip(&net.layers) {
            buf.resize((1 + l.n_in) * l.wt_stride(), 0.0);
        }
        self.batch = batch;
    }
}

/// Reusable buffers for [`Mlp::backward_batch`]: the delta ping-pong pair
/// and the nonzero `(row offset, delta)` terms of one fold.
#[derive(Clone, Debug, Default)]
pub struct BackwardScratch {
    delta: Vec<f32>,
    prev: Vec<f32>,
    terms: Vec<(usize, f32)>,
}

impl BackwardScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Names one state of a net's weights. Building, loading or changing a
/// net's weights draws a fresh version from a process-wide counter and a
/// clone or [`Mlp::copy_from`] takes its source's, so two nets share a
/// version only while their weights are the same bits. A
/// [`BatchActivations`] records the version it transposed, which is how a
/// batched forward knows whether its transposed weights are still current.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Version(u64);

impl Version {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Version(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// The number is process history, not state: nets with equal weights, and
/// agents trained alike, must print alike (tests compare agents by their
/// `Debug` text).
impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Version")
    }
}

/// The multi-layer perceptron.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Dense>,
    dims: Vec<usize>,
    /// The current weights' [`Version`]. Not part of the model: it is
    /// neither saved nor loaded.
    version: Version,
}

/// Saved shape of an [`Mlp`]: its parameters, without the [`Version`].
#[derive(Serialize, Deserialize)]
struct MlpWire {
    layers: Vec<Dense>,
    dims: Vec<usize>,
}

impl Serialize for Mlp {
    fn to_value(&self) -> serde::Value {
        MlpWire {
            layers: self.layers.clone(),
            dims: self.dims.clone(),
        }
        .to_value()
    }
}

impl Deserialize for Mlp {
    /// Parse a saved net, refusing any whose shapes disagree: at least two
    /// nonzero widths, one layer per consecutive pair of them, and every
    /// layer's weights and biases sized by its widths. A net that passes
    /// can run [`Mlp::forward_batch`] without indexing out of bounds.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let MlpWire { layers, dims } = MlpWire::from_value(v)?;
        let bad = |msg: String| Err(serde::Error::new(format!("Mlp: {msg}")));
        if dims.len() < 2 || dims.contains(&0) {
            return bad(format!("dims {dims:?} need two or more nonzero widths"));
        }
        if layers.len() + 1 != dims.len() {
            return bad(format!("{} layers for dims {dims:?}", layers.len()));
        }
        for (i, (l, pair)) in layers.iter().zip(dims.windows(2)).enumerate() {
            if (l.n_in, l.n_out) != (pair[0], pair[1]) {
                return bad(format!(
                    "layer {i} is {}x{} where dims say {}x{}",
                    l.n_in, l.n_out, pair[0], pair[1]
                ));
            }
            if l.n_in.checked_mul(l.n_out) != Some(l.w.len()) || l.b.len() != l.n_out {
                return bad(format!(
                    "layer {i} holds {} weights and {} biases for {}x{}",
                    l.w.len(),
                    l.b.len(),
                    l.n_in,
                    l.n_out
                ));
            }
        }
        Ok(Mlp {
            layers,
            dims,
            version: Version::fresh(),
        })
    }
}

impl Mlp {
    /// Build a network with the given layer widths, e.g. `[12, 40, 40, 20]`
    /// = 12 inputs, two ReLU hidden layers of 40, 20 linear outputs.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let mut rng = SmallRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            dims: dims.to_vec(),
            version: Version::fresh(),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// Layer widths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Multiply-accumulate operations for one forward pass (for the paper's
    /// §6 resource estimate).
    pub fn flops_per_inference(&self) -> usize {
        self.layers.iter().map(|l| 2 * l.w.len()).sum()
    }

    /// Batched forward pass over `batch` input rows packed row-major into
    /// `xs` (`[batch × input_dim]` flat), leaving the outputs in `ws`.
    ///
    /// Determinism contract: every output element is computed by the exact
    /// per-sample summation of a plain scalar forward pass, so row `s` of
    /// the result is bit-identical to a one-sample forward of
    /// `xs[s·d..(s+1)·d]` — only the allocations and the instruction
    /// scheduling differ. This module's tests hold that scalar reference.
    pub fn forward_batch(&self, xs: &[f32], batch: usize, ws: &mut BatchActivations) {
        self.forward_cached_batch(xs, batch, ws);
    }

    /// Batched forward pass keeping every layer's activations in `ws` for
    /// [`Mlp::backward_batch`]. Same bit-identity contract as
    /// [`Mlp::forward_batch`].
    ///
    /// `ws` keeps the transposed weights of the last net it served, so a
    /// net whose weights have not changed since — no Adam step, no
    /// [`Mlp::set_weight`] or [`Mlp::copy_from`] — is not transposed again.
    pub fn forward_cached_batch(&self, xs: &[f32], batch: usize, ws: &mut BatchActivations) {
        assert!(batch > 0, "empty batch");
        assert_eq!(xs.len(), batch * self.input_dim(), "input batch mismatch");
        ws.ensure(self, batch);
        ws.acts[0].copy_from_slice(xs);
        let last = self.layers.len() - 1;
        // Transposing costs one sweep over the weights per layer; the tiled
        // sweeps it enables amortise that across the batch. Small batches
        // skip it and use the row-blocked dots: on the ACC net with one
        // transpose per pass those win at 1–3 samples, the two are about
        // even at 4 and the tiles win from 5 (EXPERIMENTS.md, "Batched RL
        // kernels").
        let transpose = batch >= 8;
        if transpose && ws.wt_version != Some(self.version) {
            for (l, wt) in self.layers.iter().zip(&mut ws.wt) {
                l.transpose_into(wt);
            }
            ws.wt_version = Some(self.version);
        }
        for (i, l) in self.layers.iter().enumerate() {
            let (head, tail) = ws.acts.split_at_mut(i + 1);
            let src = &head[i];
            let dst = &mut tail[0];
            let (n_in, n_out) = (l.n_in, l.n_out);
            if transpose {
                // Blocks of ROWS samples, then the leftover rows one by one.
                let wt = &ws.wt[i];
                let xs = src.chunks_exact(ROWS * n_in);
                let x_rest = xs.remainder();
                let mut outs = dst.chunks_exact_mut(ROWS * n_out);
                for (x, out) in xs.zip(&mut outs) {
                    l.apply_tile::<ROWS>(wt, x, out);
                }
                let out_rest = outs.into_remainder();
                for (x, out) in x_rest
                    .chunks_exact(n_in)
                    .zip(out_rest.chunks_exact_mut(n_out))
                {
                    l.apply_tile::<1>(wt, x, out);
                }
            } else {
                for s in 0..batch {
                    l.apply_blocked(
                        &src[s * n_in..(s + 1) * n_in],
                        &mut dst[s * n_out..(s + 1) * n_out],
                    );
                }
            }
            if i != last {
                for v in dst.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    /// Batched backprop of `grad_out` (`[batch × output_dim]` flat, one
    /// dLoss/dOutput row per sample) through the cached batch in `cache`,
    /// overwriting `out` with the gradients *summed over the batch*.
    ///
    /// Determinism contract: each parameter gradient is accumulated over
    /// samples in index order starting from 0.0 — the same left fold that
    /// running a scalar per-sample backward and summing the gradients
    /// produces — so for finite states and weights the result is
    /// bit-identical to the scalar reference in this module's tests while
    /// touching each gradient slot exactly once (instead of once per sample
    /// plus a zeroing pass).
    ///
    /// Both folds skip terms whose delta is `0.0`. With finite operands
    /// that is exact: an accumulator that starts at +0.0 can never become
    /// −0.0 under IEEE addition (that needs both operands negative zero),
    /// so adding the ±0.0 term is a no-op. It is what makes the one-hot DQN
    /// grad-out rows (one nonzero action per sample) and ReLU-dead hidden
    /// deltas cheap instead of dominant. With a non-finite operand it is
    /// not: the scalar path adds `0 × NaN` (or `0 × ∞`), which is NaN, and
    /// this one skips it.
    pub fn backward_batch(
        &self,
        cache: &BatchActivations,
        grad_out: &[f32],
        scratch: &mut BackwardScratch,
        out: &mut Gradients,
    ) {
        let batch = cache.batch;
        assert!(batch > 0, "empty batch");
        assert_eq!(
            grad_out.len(),
            batch * self.output_dim(),
            "grad_out mismatch"
        );
        debug_assert_eq!(out.dw.len(), self.layers.len(), "gradient shape mismatch");
        let maxw = self.dims.iter().copied().max().expect("non-empty dims");
        scratch.delta.resize(batch * maxw, 0.0);
        scratch.prev.resize(batch * maxw, 0.0);
        scratch.delta[..grad_out.len()].copy_from_slice(grad_out);
        scratch.terms.resize(batch.max(maxw), (0, 0.0));
        let terms = &mut scratch.terms;
        for (i, l) in self.layers.iter().enumerate().rev() {
            let input = &cache.acts[i];
            let (n_in, n_out) = (l.n_in, l.n_out);
            let delta = &scratch.delta[..batch * n_out];
            // dW[o] = Σ_s delta[s][o] · input[s]: gather output o's nonzero
            // (sample, delta) terms from the strided delta column once,
            // then fold them over the input rows in sample order.
            for (o, row) in out.dw[i].chunks_exact_mut(n_in).enumerate() {
                let col = (0..batch).map(|s| (s * n_in, delta[s * n_out + o]));
                fold_rows(nonzero_terms(terms, col), input, row);
            }
            // db[o] = Σ_s delta[s][o], same sample-order fold.
            let db = &mut out.db[i];
            db.fill(0.0);
            for d in delta.chunks_exact(n_out) {
                for (slot, &v) in db.iter_mut().zip(d) {
                    *slot += v;
                }
            }
            if i == 0 {
                break;
            }
            // delta_prev[s] = Σ_r delta[s][r] · W[r] over the nonzero rows
            // in row order, then masked by the previous ReLU's
            // post-activations — exactly the scalar backward.
            let prev = &mut scratch.prev[..batch * n_in];
            for ((p, d), a) in prev
                .chunks_exact_mut(n_in)
                .zip(delta.chunks_exact(n_out))
                .zip(input.chunks_exact(n_in))
            {
                let rows = d.iter().enumerate().map(|(r, &dr)| (r * n_in, dr));
                fold_rows(nonzero_terms(terms, rows), &l.w, p);
                for (pj, aj) in p.iter_mut().zip(a) {
                    if *aj <= 0.0 {
                        *pj = 0.0;
                    }
                }
            }
            std::mem::swap(&mut scratch.delta, &mut scratch.prev);
        }
    }

    /// Read one flat-indexed weight of `layer` (tests/diagnostics).
    pub fn weight(&self, layer: usize, idx: usize) -> f32 {
        self.layers[layer].w[idx]
    }

    /// Overwrite one flat-indexed weight of `layer` (tests/diagnostics).
    pub fn set_weight(&mut self, layer: usize, idx: usize, v: f32) {
        self.layers[layer].w[idx] = v;
        self.version = Version::fresh();
    }

    /// Copy parameters from `other` (target-network sync). Allocation-free:
    /// the per-layer [`Dense::clone_from`] reuses the existing buffers.
    pub fn copy_from(&mut self, other: &Mlp) {
        assert_eq!(self.dims, other.dims, "architecture mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.clone_from(src);
        }
        self.version = other.version;
    }
}

/// Adam optimizer state for one [`Mlp`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    mw: Vec<Vec<f32>>,
    vw: Vec<Vec<f32>>,
    mb: Vec<Vec<f32>>,
    vb: Vec<Vec<f32>>,
}

impl Adam {
    /// Fresh optimizer for `net` with learning rate `lr`.
    pub fn new(net: &Mlp, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            mw: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            vw: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            mb: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            vb: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// One Adam update of `net` with `grads`.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, l) in net.layers.iter_mut().enumerate() {
            Self::update(
                &mut l.w,
                &grads.dw[i],
                &mut self.mw[i],
                &mut self.vw[i],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
            Self::update(
                &mut l.b,
                &grads.db[i],
                &mut self.mb[i],
                &mut self.vb[i],
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
        }
        net.version = Version::fresh();
    }

    #[allow(clippy::too_many_arguments)]
    fn update(
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        lr: f32,
        b1: f32,
        b2: f32,
        eps: f32,
        bc1: f32,
        bc2: f32,
    ) {
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let mh = m[i] / bc1;
            let vh = v[i] / bc2;
            params[i] -= lr * mh / (vh.sqrt() + eps);
        }
    }
}

/// The scalar per-sample reference the batched kernels are tested
/// against: every layer a plain dot product per output, every sample its
/// own freshly allocated activations and gradients. It lives here, beside
/// the private layers it reads, and only in test builds: simulations always
/// run the batched path.
#[cfg(test)]
mod scalar {
    use super::{Dense, Gradients, Mlp};

    impl Dense {
        /// `out = W·x + b`, one left-fold dot product per output.
        fn apply(&self, x: &[f32], out: &mut [f32]) {
            debug_assert_eq!(x.len(), self.n_in);
            debug_assert_eq!(out.len(), self.n_out);
            for (o, (row, b)) in out
                .iter_mut()
                .zip(self.w.chunks_exact(self.n_in).zip(&self.b))
            {
                let mut acc = *b;
                for (wi, xi) in row.iter().zip(x) {
                    acc += wi * xi;
                }
                *o = acc;
            }
        }
    }

    /// Per-layer activations captured during a forward pass, for backprop.
    pub(crate) struct Activations {
        /// `acts[0]` is the input; `acts[i]` is the post-activation output
        /// of layer `i-1`.
        pub(crate) acts: Vec<Vec<f32>>,
    }

    impl Activations {
        /// The network output.
        pub(crate) fn output(&self) -> &[f32] {
            self.acts.last().expect("empty activations")
        }
    }

    impl Gradients {
        /// Accumulate `other` into `self`.
        pub(crate) fn add(&mut self, other: &Gradients) {
            for (a, b) in self.dw.iter_mut().zip(&other.dw) {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            for (a, b) in self.db.iter_mut().zip(&other.db) {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
        }
    }

    impl Mlp {
        /// Forward pass.
        pub(crate) fn forward(&self, x: &[f32]) -> Vec<f32> {
            assert_eq!(x.len(), self.input_dim(), "input width mismatch");
            let mut cur = x.to_vec();
            let last = self.layers.len() - 1;
            for (i, l) in self.layers.iter().enumerate() {
                let mut out = vec![0.0; l.n_out];
                l.apply(&cur, &mut out);
                if i != last {
                    for v in &mut out {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                cur = out;
            }
            cur
        }

        /// Forward pass keeping intermediate activations for [`Mlp::backward`].
        pub(crate) fn forward_cached(&self, x: &[f32]) -> Activations {
            assert_eq!(x.len(), self.input_dim(), "input width mismatch");
            let mut acts = Vec::with_capacity(self.layers.len() + 1);
            acts.push(x.to_vec());
            let last = self.layers.len() - 1;
            for (i, l) in self.layers.iter().enumerate() {
                let mut out = vec![0.0; l.n_out];
                l.apply(acts.last().unwrap(), &mut out);
                if i != last {
                    for v in &mut out {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                acts.push(out);
            }
            Activations { acts }
        }

        /// Backpropagate `grad_out` (= dLoss/dOutput) through the cached forward
        /// pass, returning parameter gradients.
        ///
        /// ReLU masks use the *post-activation* values, which is valid because
        /// post-activation > 0 ⇔ pre-activation > 0.
        pub(crate) fn backward(&self, cache: &Activations, grad_out: &[f32]) -> Gradients {
            assert_eq!(grad_out.len(), self.output_dim());
            let mut grads = Gradients::zeros(self);
            let mut delta = grad_out.to_vec();
            for (i, l) in self.layers.iter().enumerate().rev() {
                let input = &cache.acts[i];
                // dW = delta ⊗ input ; db = delta.
                let dw = &mut grads.dw[i];
                for (r, d) in delta.iter().enumerate() {
                    let row = &mut dw[r * l.n_in..(r + 1) * l.n_in];
                    for (slot, x) in row.iter_mut().zip(input) {
                        *slot += d * x;
                    }
                }
                grads.db[i].copy_from_slice(&delta);
                if i == 0 {
                    break;
                }
                // delta_prev = Wᵀ·delta, masked by the previous ReLU.
                let mut prev = vec![0.0f32; l.n_in];
                for (r, d) in delta.iter().enumerate() {
                    let row = &l.w[r * l.n_in..(r + 1) * l.n_in];
                    for (p, wi) in prev.iter_mut().zip(row) {
                        *p += wi * d;
                    }
                }
                for (p, a) in prev.iter_mut().zip(&cache.acts[i]) {
                    if *a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
            grads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scalar::Activations;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shapes_and_counts() {
        let net = Mlp::new(&[12, 40, 40, 20], 1);
        assert_eq!(net.input_dim(), 12);
        assert_eq!(net.output_dim(), 20);
        assert_eq!(
            net.param_count(),
            12 * 40 + 40 + 40 * 40 + 40 + 40 * 20 + 20
        );
        let y = net.forward(&[0.1; 12]);
        assert_eq!(y.len(), 20);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[4, 8, 2], 7);
        let b = Mlp::new(&[4, 8, 2], 7);
        let x = [0.3, -0.1, 0.5, 0.9];
        assert_eq!(a.forward(&x), b.forward(&x));
        let c = Mlp::new(&[4, 8, 2], 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn forward_cached_matches_forward() {
        let net = Mlp::new(&[6, 16, 16, 4], 3);
        let x: Vec<f32> = (0..6).map(|i| (i as f32 - 3.0) * 0.25).collect();
        let y1 = net.forward(&x);
        let cache = net.forward_cached(&x);
        assert_eq!(y1, cache.output());
    }

    /// Central-difference gradient check: backprop must agree with numerical
    /// gradients of a scalar loss L = Σ grad_out[k] * out[k].
    #[test]
    fn gradient_check() {
        let mut net = Mlp::new(&[5, 9, 7, 3], 42);
        let x: Vec<f32> = vec![0.2, -0.4, 0.7, 0.05, -0.9];
        let grad_out = vec![1.0, -2.0, 0.5];
        let cache = net.forward_cached(&x);
        let analytic = net.backward(&cache, &grad_out);

        let loss = |net: &Mlp| -> f64 {
            net.forward(&x)
                .iter()
                .zip(&grad_out)
                .map(|(o, g)| (*o as f64) * (*g as f64))
                .sum()
        };

        let h = 1e-3f32;
        let mut checked = 0;
        for li in 0..net.layers.len() {
            // Check a sample of weights in each layer.
            let n = net.layers[li].w.len();
            for k in (0..n).step_by((n / 7).max(1)) {
                let orig = net.layers[li].w[k];
                net.layers[li].w[k] = orig + h;
                let lp = loss(&net);
                net.layers[li].w[k] = orig - h;
                let lm = loss(&net);
                net.layers[li].w[k] = orig;
                let numeric = ((lp - lm) / (2.0 * h as f64)) as f32;
                let got = analytic.dw[li][k];
                let denom = numeric.abs().max(got.abs()).max(1e-4);
                assert!(
                    (numeric - got).abs() / denom < 2e-2,
                    "layer {li} w[{k}]: numeric {numeric} vs backprop {got}"
                );
                checked += 1;
            }
            // And one bias per layer.
            let orig = net.layers[li].b[0];
            net.layers[li].b[0] = orig + h;
            let lp = loss(&net);
            net.layers[li].b[0] = orig - h;
            let lm = loss(&net);
            net.layers[li].b[0] = orig;
            let numeric = ((lp - lm) / (2.0 * h as f64)) as f32;
            let got = analytic.db[li][0];
            let denom = numeric.abs().max(got.abs()).max(1e-4);
            assert!(
                (numeric - got).abs() / denom < 2e-2,
                "layer {li} b[0]: numeric {numeric} vs backprop {got}"
            );
        }
        assert!(checked >= 10, "gradient check covered too few parameters");
    }

    #[test]
    fn adam_fits_a_simple_function() {
        // Regression: y = [x0 + x1, x0 - x1]. A tiny net should fit it.
        let mut net = Mlp::new(&[2, 16, 2], 5);
        let mut opt = Adam::new(&net, 1e-2);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..2000 {
            let x = [rng.gen::<f32>() * 2.0 - 1.0, rng.gen::<f32>() * 2.0 - 1.0];
            let target = [x[0] + x[1], x[0] - x[1]];
            let cache = net.forward_cached(&x);
            let out = cache.output();
            let grad_out: Vec<f32> = out
                .iter()
                .zip(&target)
                .map(|(o, t)| 2.0 * (o - t))
                .collect();
            let grads = net.backward(&cache, &grad_out);
            opt.step(&mut net, &grads);
        }
        let mut worst = 0.0f32;
        for _ in 0..100 {
            let x = [rng.gen::<f32>() * 2.0 - 1.0, rng.gen::<f32>() * 2.0 - 1.0];
            let y = net.forward(&x);
            worst = worst.max((y[0] - (x[0] + x[1])).abs());
            worst = worst.max((y[1] - (x[0] - x[1])).abs());
        }
        assert!(worst < 0.1, "regression error too high: {worst}");
    }

    #[test]
    fn copy_from_syncs_parameters() {
        let mut a = Mlp::new(&[3, 5, 2], 1);
        let b = Mlp::new(&[3, 5, 2], 2);
        let x = [0.1, 0.2, 0.3];
        assert_ne!(a.forward(&x), b.forward(&x));
        a.copy_from(&b);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn serde_round_trip() {
        let net = Mlp::new(&[4, 6, 3], 11);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.5, -0.5, 0.25, 0.75];
        assert_eq!(net.forward(&x), back.forward(&x));
        // The saved form is the parameters alone: no version.
        assert!(!json.contains("version"), "{json}");
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    /// A saved net whose shapes disagree is a parse error, never a net that
    /// panics (or, in release, computes garbage) in `forward`.
    #[test]
    fn inconsistent_shapes_are_parse_errors() {
        let json = serde_json::to_string(&Mlp::new(&[3, 4, 2], 5)).unwrap();
        let edit = |from: &str, to: &str| {
            assert!(json.contains(from), "{from} not in {json}");
            let text = json.replacen(from, to, 1);
            serde_json::from_str::<Mlp>(&text)
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        assert!(edit("\"dims\":[3,4,2]", "\"dims\":[]").contains("two or more"));
        assert!(edit("\"dims\":[3,4,2]", "\"dims\":[3,0,2]").contains("nonzero"));
        assert!(edit("\"dims\":[3,4,2]", "\"dims\":[3,4,4,2]").contains("2 layers"));
        assert!(edit("\"n_in\":3", "\"n_in\":1").contains("layer 0 is 1x4"));
        let short = edit("\"b\":[", "\"b\":[0.5,");
        assert!(
            short.contains("layer 0 holds 12 weights and 5 biases"),
            "{short}"
        );
    }

    /// The batched forward must agree bit-for-bit with the scalar forward,
    /// per row, including after the workspace is reused at other shapes.
    #[test]
    fn forward_batch_bit_identical_to_scalar() {
        let net = Mlp::new(&[6, 17, 9, 5], 21);
        let mut ws = BatchActivations::new();
        for batch in [1usize, 3, 32, 7] {
            let xs: Vec<f32> = (0..batch * 6)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.031)
                .collect();
            net.forward_batch(&xs, batch, &mut ws);
            for s in 0..batch {
                let row = net.forward(&xs[s * 6..(s + 1) * 6]);
                assert_eq!(row.as_slice(), ws.output_row(s), "batch {batch} row {s}");
            }
        }
    }

    /// The batched backward must reproduce the scalar per-sample
    /// backward-and-sum fold bit-for-bit.
    #[test]
    fn backward_batch_bit_identical_to_scalar_fold() {
        let net = Mlp::new(&[5, 13, 8, 4], 3);
        let batch = 11usize;
        let xs: Vec<f32> = (0..batch * 5)
            .map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.027)
            .collect();
        let grad_out: Vec<f32> = (0..batch * 4)
            .map(|i| ((i * 29 % 89) as f32 - 44.0) * 0.013)
            .collect();

        // Scalar reference: per-sample backward accumulated with add().
        let mut total = Gradients::zeros(&net);
        for s in 0..batch {
            let cache = net.forward_cached(&xs[s * 5..(s + 1) * 5]);
            let g = net.backward(&cache, &grad_out[s * 4..(s + 1) * 4]);
            total.add(&g);
        }

        let mut ws = BatchActivations::new();
        let mut scratch = BackwardScratch::new();
        let mut batched = Gradients::zeros(&net);
        net.forward_cached_batch(&xs, batch, &mut ws);
        net.backward_batch(&ws, &grad_out, &mut scratch, &mut batched);
        assert_eq!(total.dw, batched.dw);
        assert_eq!(total.db, batched.db);

        // And again through the same (now dirty) workspaces: results must
        // not depend on leftover state.
        let mut again = Gradients::zeros(&net);
        net.forward_cached_batch(&xs, batch, &mut ws);
        net.backward_batch(&ws, &grad_out, &mut scratch, &mut again);
        assert_eq!(total.dw, again.dw);
        assert_eq!(total.db, again.db);
    }

    /// One workspace, every way a net's weights can change under it — an
    /// Adam step, `set_weight`, `copy_from`, a different net, a loaded one
    /// — and each batched forward must still match the scalar forward: a
    /// transpose is reused only while it is current.
    #[test]
    fn batched_forward_follows_weight_changes() {
        let dims = [6, 17, 9, 5];
        let batch = 12;
        let xs: Vec<f32> = (0..batch * 6)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.031)
            .collect();
        let mut ws = BatchActivations::new();
        let check = |net: &Mlp, ws: &mut BatchActivations, what: &str| {
            net.forward_batch(&xs, batch, ws);
            for s in 0..batch {
                let row = net.forward(&xs[s * 6..(s + 1) * 6]);
                assert_eq!(row.as_slice(), ws.output_row(s), "{what}: row {s}");
            }
        };
        let mut net = Mlp::new(&dims, 1);
        let other = Mlp::new(&dims, 2);
        check(&net, &mut ws, "first pass");
        check(&net, &mut ws, "unchanged net");
        let mut opt = Adam::new(&net, 1e-2);
        let mut grads = Gradients::zeros(&net);
        grads.dw[1][3] = 1.0;
        opt.step(&mut net, &grads);
        check(&net, &mut ws, "after an Adam step");
        net.set_weight(2, 4, 0.5);
        check(&net, &mut ws, "after set_weight");
        check(&other, &mut ws, "another net");
        check(&net, &mut ws, "back to the first net");
        net.copy_from(&other);
        check(&net, &mut ws, "after copy_from");
        let loaded: Mlp =
            serde_json::from_str(&serde_json::to_string(&Mlp::new(&dims, 3)).unwrap()).unwrap();
        check(&loaded, &mut ws, "a loaded net");
    }

    #[test]
    fn clone_from_reuses_buffers_and_matches_clone() {
        let a = Mlp::new(&[4, 9, 3], 2);
        let mut b = Mlp::new(&[4, 9, 3], 8);
        let x = [0.4, -0.2, 0.9, 0.1];
        b.copy_from(&a);
        assert_eq!(a.forward(&x), b.forward(&x));
        // Dense::clone_from must keep the shape bookkeeping coherent.
        let c = a.layers[0].clone();
        let mut d = b.layers[1].clone();
        d.clone_from(&c);
        assert_eq!(d.n_in, c.n_in);
        assert_eq!(d.w, c.w);
        assert_eq!(d.b, c.b);
    }

    #[test]
    fn paper_resource_estimate_scale() {
        // §6: the paper's 4-layer {20,40,40,20} NN — ensure our FLOP and
        // memory estimates are in the reported ballpark (~30 KB model).
        let net = Mlp::new(&[20, 40, 40, 20], 1);
        let bytes = net.param_count() * 4;
        assert!(bytes < 30 * 1024, "model bytes = {bytes}");
        assert!(net.flops_per_inference() > 6000);
    }

    /// Deterministic pseudo-random kernel operands (xorshift64).
    struct Operands(u64);

    impl Operands {
        fn bits(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// A value in [-1, 1], exactly 0.0 one time in five.
        fn value(&mut self) -> f32 {
            let z = self.bits();
            if z.is_multiple_of(5) {
                0.0
            } else {
                ((z % 2001) as f32 - 1000.0) * 1e-3
            }
        }
    }

    /// Run the batched forward and backward over `xs`/`grad_out` and assert
    /// them bit-identical to the scalar forward per row and to the scalar
    /// per-sample-backward-then-sum fold.
    fn assert_batched_matches_scalar(net: &Mlp, xs: &[f32], grad_out: &[f32], batch: usize) {
        let (n_in, n_out) = (net.input_dim(), net.output_dim());
        let mut ws = BatchActivations::new();
        let mut scratch = BackwardScratch::new();
        let mut batched = Gradients::zeros(net);
        net.forward_cached_batch(xs, batch, &mut ws);
        net.backward_batch(&ws, grad_out, &mut scratch, &mut batched);

        let mut total = Gradients::zeros(net);
        for s in 0..batch {
            let x = &xs[s * n_in..(s + 1) * n_in];
            assert_eq!(net.forward(x).as_slice(), ws.output_row(s), "row {s}");
            let cache = net.forward_cached(x);
            total.add(&net.backward(&cache, &grad_out[s * n_out..(s + 1) * n_out]));
        }
        assert_eq!(total.dw, batched.dw);
        assert_eq!(total.db, batched.db);
    }

    /// The batched kernels at the exact shape the ACC agents train:
    /// `[12, 40, 40, 20]` × 32, one-hot DQN gradient rows.
    #[test]
    fn batched_kernels_bit_identical_on_the_acc_shape() {
        let net = Mlp::new(&[12, 40, 40, 20], 13);
        let mut rng = Operands(0x9E37_79B9_7F4A_7C15);
        let xs: Vec<f32> = (0..32 * 12).map(|_| rng.value()).collect();
        let mut grad_out = vec![0.0f32; 32 * 20];
        for s in 0..32 {
            grad_out[s * 20 + (rng.bits() % 20) as usize] = rng.value();
        }
        assert_batched_matches_scalar(&net, &xs, &grad_out, 32);
    }

    proptest! {
        // The offline proptest stub defaults to 32 cases; this draw space is
        // wide, so sample it as densely as real proptest's default would.
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential test of the batched kernels: for random layer shapes
        /// (several register tiles, tails of 1–7 lanes), batch sizes 1..=70
        /// (both sides of the transposed path's `batch >= 8`, every 4-row
        /// remainder), random weights (seed) and random inputs with exact
        /// zeros, all-zero rows and a ReLU-dead hidden unit, the batched
        /// forward must be bit-identical per row to the scalar forward, and the
        /// batched backward bit-identical to the scalar
        /// per-sample-backward-then-sum fold. This pins the determinism contract
        /// the agent's batched `train_step` relies on (the same reference-path
        /// pattern as the reference heap vs the timing wheel).
        #[test]
        fn batched_kernels_bit_identical_to_scalar(
            seed in any::<u64>(),
            batch in 1usize..=70,
            n_in in 1usize..=16,
            hidden in prop::collection::vec(1usize..=48, 1..3),
            n_out in 2usize..=24,
            xseed in any::<u32>(),
            dead_unit in any::<bool>(),
            one_hot in any::<bool>(),
        ) {
            let mut dims = vec![n_in];
            dims.extend_from_slice(&hidden);
            dims.push(n_out);
            let mut net = Mlp::new(&dims, seed);
            if dead_unit {
                // Hidden unit 0 gets no input and a zero bias: it outputs
                // exactly 0.0 for every sample, so its deltas are all masked.
                for c in 0..n_in {
                    net.set_weight(0, c, 0.0);
                }
            }
            let mut rng = Operands(u64::from(xseed) | 1);
            let mut xs: Vec<f32> = (0..batch * n_in).map(|_| rng.value()).collect();
            // Every third row all zero: with zero biases every hidden layer of
            // that sample is ReLU-dead.
            for row in xs.chunks_exact_mut(n_in).step_by(3) {
                row.fill(0.0);
            }
            let mut grad_out: Vec<f32> = (0..batch * n_out).map(|_| rng.value()).collect();
            if one_hot {
                // The DQN's rows: one taken action per sample.
                for row in grad_out.chunks_exact_mut(n_out) {
                    let keep = (rng.bits() % n_out as u64) as usize;
                    for (a, g) in row.iter_mut().enumerate() {
                        if a != keep {
                            *g = 0.0;
                        }
                    }
                }
            }
            assert_batched_matches_scalar(&net, &xs, &grad_out, batch);
        }
    }

    proptest! {
        /// Forward passes are finite for any finite input.
        #[test]
        fn mlp_forward_is_finite(
            seed in any::<u64>(),
            xs in prop::collection::vec(-1e3f32..1e3, 6),
        ) {
            let net = Mlp::new(&[6, 16, 8, 4], seed);
            let y = net.forward(&xs);
            prop_assert_eq!(y.len(), 4);
            prop_assert!(y.iter().all(|v| v.is_finite()));
        }

        /// Serde round-trips preserve behaviour exactly.
        #[test]
        fn mlp_serde_roundtrip(seed in any::<u64>(), xs in prop::collection::vec(-10f32..10.0, 5)) {
            let net = Mlp::new(&[5, 9, 3], seed);
            let back: Mlp = serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
            prop_assert_eq!(net.forward(&xs), back.forward(&xs));
        }

        /// Backprop agrees with central differences on random small networks and
        /// random inputs (a randomized gradient check).
        #[test]
        fn mlp_gradient_check_random(
            seed in 0u64..1_000,
            xs in prop::collection::vec(-1f32..1.0, 4),
            gidx in 0usize..3,
        ) {
            let mut net = Mlp::new(&[4, 7, 3], seed);
            let mut grad_out = vec![0.0f32; 3];
            grad_out[gidx] = 1.0;
            let cache = net.forward_cached(&xs);
            let analytic = net.backward(&cache, &grad_out);
            // Check a handful of layer-0 weights.
            let h = 1e-3f32;
            let mask = |c: &Activations| -> Vec<bool> {
                // Activation sign pattern of the hidden layers.
                c.acts[1..c.acts.len() - 1]
                    .iter()
                    .flat_map(|layer| layer.iter().map(|v| *v > 0.0))
                    .collect()
            };
            for k in [0usize, 5, 13, 27] {
                let orig = net.weight(0, k);
                net.set_weight(0, k, orig + h);
                let cp = net.forward_cached(&xs);
                net.set_weight(0, k, orig - h);
                let cm = net.forward_cached(&xs);
                net.set_weight(0, k, orig);
                if mask(&cp) != mask(&cm) {
                    // The perturbation crossed a ReLU kink: central differences
                    // are not a valid derivative estimate here.
                    continue;
                }
                let lp = cp.output()[gidx] as f64;
                let lm = cm.output()[gidx] as f64;
                let numeric = ((lp - lm) / (2.0 * h as f64)) as f32;
                let got = analytic.dw[0][k];
                let denom = numeric.abs().max(got.abs()).max(1e-3);
                prop_assert!(
                    (numeric - got).abs() < 5e-3 || (numeric - got).abs() / denom < 5e-2,
                    "w[0][{k}]: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }
}
