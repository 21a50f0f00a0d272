//! Score-LUT inference kernel: fold class scoring into the lookup table.
//!
//! The dense compressed path (§IV, Eq. 5) materializes the query
//! hypervector `H = Σ_i P_i ⊙ LUT_i[addr_i]` (Eq. 3) and then scores each
//! class with a `D`-wide multiply-accumulate. But scoring is *linear* in
//! `H`, so the per-class score decomposes chunk by chunk:
//!
//! ```text
//! score_c(H) = Σ_d P'_c[d] · H[d] · C[d]
//!            = Σ_i (P'_c ⊙ C ⊙ P_i) · LUT_i[addr_i]
//!            = Σ_i S_i[c][addr_i]
//! ```
//!
//! where `C` is the combined vector holding class `c`. Every partial score
//! `S_i[c][addr]` depends only on the trained model, so it is precomputed
//! once at model-finalize time. Prediction is then address extraction
//! (quantize + concatenated-codebook addressing, shared with the encoder)
//! followed by `m` table reads and `m·k` integer adds — no hypervector is
//! materialized on the query path. This applies the paper's
//! arithmetic-to-memory substitution (§III, §V) to the scoring stage.
//!
//! ## Whitened models
//!
//! Decorrelated models whiten each query against the stored common
//! directions. [`crate::whiten`] splits such a score into the signal above
//! minus `Σ_t a_t·u_q[c][t]`, where `a_t = h·dir_q` is linear in `h` too:
//! `a_t = Σ_i A_i[t][addr_i]` with `A_i[t][addr] = (P_i ⊙ LUT_i[addr])·dir_q`.
//! So each table row carries `n_directions` projection columns after its
//! `k` class columns, a predict still makes `m` contiguous gathers, and
//! the gathered `(S, a)` finish through the same [`whiten::exact_scores`]
//! as the dense path.
//!
//! ## Exactness
//!
//! All quantities are integers and `i64` addition is associative, so the
//! gathered totals equal the dense path's integers *bit for bit* provided
//! nothing overflows. [`ScoreLut::build`] enforces
//! `D · max|C| · n ≤ 2^52` for the signal columns, `n · L1(dir_q) ≤ 2^62`
//! for the projection columns, and that the combine cannot leave `i128`.
//!
//! ## Build
//!
//! Every entry is a sum over the chunk's digits of one dot product, since
//! `LUT(addr) = Σ_j ρ^j(L_{digit_j})`:
//!
//! ```text
//! T_i[col][j][lv] = W_col · (P_i ⊙ ρ^j(L_lv)),   entry(addr, col) = Σ_j T_i[col][j][digit_j]
//! ```
//!
//! with weights `W_c = P'_c ⊙ C_{g(c)}` for class columns and `W = dir_q`
//! for projection columns. That is `(k + n_dir)·m·r·q` dots of length `D`
//! against bipolar keys. The build computes each column's weights once and
//! turns them into byte-indexed subset-sum tables: for every 8 dimensions,
//! `table[b] = Σ_{bit i of b set} W[8g + i]`, so a dot against a packed key
//! is `ΣW − 2·Σ_bytes table[byte]` — `D/8` lookups instead of `D`
//! sign-selects. The `r·q` effective keys `P_i ⊙ ρ^j(L_lv)` are XORed once
//! per chunk and shared by every column. Rows are then filled digit by
//! digit: a prefix row over the first `r − 1` digits plus one `(k + n_dir)`
//! wide add per address.

use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;
use crate::compress::{serial_u32, CompressedModel, MAX_SERIAL_CLASSES, MAX_SERIAL_FEATURES};
use crate::encoder::LookupEncoder;
use crate::whiten;

const MAGIC: &[u8; 4] = b"SLT2";

/// Dimensions per subset-sum table: one byte of a packed key word.
const TABLE_LANES: usize = 8;

/// Entries per subset-sum table, one per byte value.
const TABLE_ENTRIES: usize = 1 << TABLE_LANES;

/// Ceiling on serialized/loaded score-LUT entries (2^27 ≈ 134M entries,
/// 1 GiB of `i64`) — same role as [`crate::compress::MAX_REGEN_ELEMENTS`]:
/// a corrupt header must not request a multi-GB allocation.
pub const MAX_SERIAL_SCORE_ENTRIES: usize = 1 << 27;

/// Largest signal magnitude the kernel accepts: `2^52`, chosen so every
/// partial sum fits `i64` with headroom *and* an unwhitened score
/// round-trips to `f64` exactly (f64 mantissa is 53 bits).
pub const MAX_EXACT_SCORE: i64 = 1 << 52;

/// Rejects a model whose worst-case signal `D · max|C| · n` could exceed
/// [`MAX_EXACT_SCORE`]. Every per-chunk partial score is bounded by
/// `D · max|C| · r` and the full signal by `D · max|C| · n`, so this single
/// product check covers both the `i64` accumulation and the exact-`f64`
/// representability of an unwhitened score.
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] when the bound is exceeded (or the
/// bound computation itself overflows).
pub fn check_exact_score_bound(dim: usize, max_abs_combined: i64, n_features: usize) -> Result<()> {
    let bound = (dim as i64)
        .checked_mul(max_abs_combined)
        .and_then(|v| v.checked_mul(n_features as i64));
    match bound {
        Some(b) if b <= MAX_EXACT_SCORE => Ok(()),
        _ => Err(HdcError::invalid_config(
            "score_lut",
            format!(
                "worst-case score D·max|C|·n = {dim}·{max_abs_combined}·{n_features} \
                 exceeds the exact-integer bound 2^52"
            ),
        )),
    }
}

/// The precomputed per-chunk tables: for every chunk `i` and address, `k`
/// partial class signals `S_i[c][addr] = (P'_c ⊙ C ⊙ P_i) · LUT_i[addr]`
/// followed by `n_directions` projection partials `A_i[t][addr]`.
///
/// Storage is one flat `i64` vector, chunk-major then address-major then
/// column-minor: the entry for `(chunk i, addr, column)` lives at
/// `offsets[i] + addr·(k + n_directions) + column`, so one prediction
/// gathers `m` contiguous rows — cache-friendly and trivially
/// vectorizable.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreLut {
    /// Flat partial scores (see struct docs for the layout).
    entries: Vec<i64>,
    /// Entry offset of each chunk's table; length `m + 1`, so chunk `i`
    /// spans `offsets[i]..offsets[i+1]` and holds `rows_i · width` entries.
    offsets: Vec<usize>,
    n_classes: usize,
    n_directions: usize,
    /// The compressed model's `u_q[c][t]`, class-major, for the combine.
    projections: Vec<i64>,
}

impl ScoreLut {
    /// Precomputes the kernel from a fitted encoder and compressed model.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when the model is ineligible —
    /// the table would exceed `budget_bytes` or
    /// [`MAX_SERIAL_SCORE_ENTRIES`], or a worst-case score violates the
    /// exact-integer bounds — and [`HdcError::DimensionMismatch`] when the
    /// encoder and compressed model disagree on `D`.
    pub fn build(
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        budget_bytes: usize,
    ) -> Result<Self> {
        let _span = obs::span("score_lut_build");
        let levels = encoder.lut().levels();
        let dim = levels.dim();
        if dim != compressed.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: compressed.dim(),
                actual: dim,
            });
        }
        let layout = *encoder.layout();
        let k = compressed.n_classes();
        let width = k + compressed.n_directions();
        let total_entries = (width as u128).saturating_mul(layout.total_table_rows());
        let cap = (budget_bytes / std::mem::size_of::<i64>()).min(MAX_SERIAL_SCORE_ENTRIES);
        if total_entries > cap as u128 {
            return Err(HdcError::invalid_config(
                "score_lut",
                format!(
                    "table needs {total_entries} entries ({} bytes) > cap {cap} \
                     ({budget_bytes}-byte budget); falling back to the dense path",
                    total_entries.saturating_mul(8)
                ),
            ));
        }
        let max_abs = (0..compressed.n_vectors())
            .map(|g| compressed.combined(g).max_abs() as i64)
            .max()
            .unwrap_or(0);
        let n = layout.n_features();
        check_exact_score_bound(dim, max_abs, n)?;
        let l1 = compressed.direction_l1();
        whiten::check_split_headroom("score_lut", n as i64, l1)?;
        whiten::check_combine_headroom(dim as i64 * max_abs * n as i64, n as i64, max_abs, l1)?;

        let q = layout.q();
        let r_max = layout.chunk_len(0);
        let keys = Self::effective_keys(encoder);
        let t = Self::key_dots(compressed, &keys, dim.div_ceil(64));
        let mut entries = Vec::with_capacity(total_entries as usize);
        let mut offsets = Vec::with_capacity(layout.n_chunks() + 1);
        offsets.push(0usize);
        let (mut prefix, mut next) = (Vec::new(), Vec::new());
        for (chunk, tc) in t.chunks_exact(r_max * q * width).enumerate() {
            let len = layout.chunk_len(chunk);
            // T row of digit position j at level lv.
            let t_row = |j: usize, lv: usize| &tc[(j * q + lv) * width..][..width];
            // Prefix rows over the first len − 1 digits, most-significant
            // first (matching `ChunkLayout::address`): row a·q + lv of the
            // next digit is row a plus T[j][lv].
            prefix.clear();
            prefix.resize(width, 0i64);
            for j in 0..len - 1 {
                next.clear();
                for row in prefix.chunks_exact(width) {
                    for lv in 0..q {
                        next.extend(row.iter().zip(t_row(j, lv)).map(|(a, b)| a + b));
                    }
                }
                std::mem::swap(&mut prefix, &mut next);
            }
            for row in prefix.chunks_exact(width) {
                for lv in 0..q {
                    entries.extend(row.iter().zip(t_row(len - 1, lv)).map(|(a, b)| a + b));
                }
            }
            offsets.push(entries.len());
        }
        Ok(Self {
            entries,
            offsets,
            n_classes: k,
            n_directions: compressed.n_directions(),
            projections: compressed.projections().to_vec(),
        })
    }

    /// The packed words of every effective key `P_i ⊙ ρ^j(L_lv)`, slot
    /// `(i·r + j)·q + lv` (slots past a short last chunk stay zero).
    fn effective_keys(encoder: &LookupEncoder) -> Vec<u64> {
        let layout = encoder.layout();
        let levels = encoder.lut().levels();
        let (q, r_max) = (layout.q(), layout.chunk_len(0));
        let n_words = levels.dim().div_ceil(64);
        let rotated: Vec<Vec<u64>> = (0..r_max)
            .flat_map(|j| (0..q).map(move |lv| levels.level(lv).rotated(j).words().to_vec()))
            .collect();
        let mut keys = vec![0u64; layout.n_chunks() * r_max * q * n_words];
        for (chunk, slots) in keys.chunks_exact_mut(r_max * q * n_words).enumerate() {
            let p = encoder.positions().key(chunk).words();
            let used = layout.chunk_len(chunk) * q;
            for (slot, rot) in slots.chunks_exact_mut(n_words).zip(&rotated).take(used) {
                for ((s, &a), &b) in slot.iter_mut().zip(p).zip(rot) {
                    *s = a ^ b;
                }
            }
        }
        keys
    }

    /// `T[slot][col] = W_col · key_slot` for every effective key, as a flat
    /// slot-major array of `k + n_directions` columns (see the module docs
    /// for the subset-sum tables).
    fn key_dots(compressed: &CompressedModel, keys: &[u64], n_words: usize) -> Vec<i64> {
        let k = compressed.n_classes();
        let width = k + compressed.n_directions();
        let slots = keys.len() / n_words;
        let lanes = n_words * 64;
        let mut t = vec![0i64; slots * width];
        let mut w = vec![0i64; lanes];
        let mut table = vec![0i64; lanes / TABLE_LANES * TABLE_ENTRIES];
        for col in 0..width {
            if col < k {
                let key = compressed.key(col);
                let combined = compressed.combined(compressed.group_of(col)).as_slice();
                for (d, (wd, &c)) in w.iter_mut().zip(combined).enumerate() {
                    let c = i64::from(c);
                    *wd = if key.is_negative(d) { -c } else { c };
                }
            } else {
                let dir_q = compressed.direction_q(col - k).as_slice();
                for (wd, &v) in w.iter_mut().zip(dir_q) {
                    *wd = i64::from(v);
                }
            }
            for (group, sums) in w
                .chunks_exact(TABLE_LANES)
                .zip(table.chunks_exact_mut(TABLE_ENTRIES))
            {
                for b in 1..sums.len() {
                    sums[b] = sums[b & (b - 1)] + group[b.trailing_zeros() as usize];
                }
            }
            let total: i64 = w.iter().sum();
            for (slot, key) in keys.chunks_exact(n_words).enumerate() {
                let mut negative = 0i64;
                for (word, tables) in key
                    .iter()
                    .zip(table.chunks_exact(64 * TABLE_ENTRIES / TABLE_LANES))
                {
                    for (byte, sums) in tables.chunks_exact(TABLE_ENTRIES).enumerate() {
                        negative += sums[(word >> (byte * TABLE_LANES)) as usize % TABLE_ENTRIES];
                    }
                }
                t[slot * width + col] = total - 2 * negative;
            }
        }
        t
    }

    /// Exact per-class scores for pre-extracted chunk addresses: `m`
    /// contiguous row gathers and `m·(k + n_directions)` adds, finished by
    /// [`whiten::exact_scores`] — the same integers as
    /// [`CompressedModel::scores_exact`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] when the address count differs
    /// from `m` or an address exceeds its chunk's table.
    pub fn scores_exact(&self, addrs: &[u64]) -> Result<Vec<i128>> {
        let _span = obs::span("score_lut");
        obs::counter("kernel.lut.queries", 1);
        let m = self.n_chunks();
        if addrs.len() != m {
            return Err(HdcError::invalid_dataset(format!(
                "expected {m} chunk addresses, got {}",
                addrs.len()
            )));
        }
        let width = self.width();
        let mut acc = vec![0i64; width];
        for (i, &addr) in addrs.iter().enumerate() {
            let (start, end) = (self.offsets[i], self.offsets[i + 1]);
            let at = usize::try_from(addr)
                .ok()
                .and_then(|a| a.checked_mul(width))
                .filter(|&at| at < end - start)
                .ok_or_else(|| {
                    HdcError::invalid_dataset(format!(
                        "address {addr} out of range for chunk {i} ({} rows)",
                        self.rows(i)
                    ))
                })?;
            let row = &self.entries[start + at..][..width];
            for (s, &v) in acc.iter_mut().zip(row) {
                *s += v;
            }
        }
        obs::counter("kernel.lut.table_reads", m as u64);
        let (signal, a) = acc.split_at(self.n_classes);
        whiten::exact_scores(signal, a, &self.projections)
    }

    /// Per-class scores as `f64` — exactly equal to the dense path's
    /// output (both are [`whiten::to_score`] of the same integers).
    ///
    /// # Errors
    ///
    /// Same as [`ScoreLut::scores_exact`].
    pub fn scores(&self, addrs: &[u64]) -> Result<Vec<f64>> {
        Ok(self
            .scores_exact(addrs)?
            .into_iter()
            .map(whiten::to_score)
            .collect())
    }

    /// Argmax over [`ScoreLut::scores_exact`] — first maximum wins, the
    /// same rule as [`CompressedModel::predict`], so ties break
    /// identically.
    ///
    /// # Errors
    ///
    /// Same as [`ScoreLut::scores_exact`].
    pub fn predict(&self, addrs: &[u64]) -> Result<usize> {
        Ok(whiten::argmax(&self.scores_exact(addrs)?))
    }

    /// Number of chunk tables `m`.
    pub fn n_chunks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of classes `k` (signal columns per row).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of whitening directions (projection columns per row).
    pub fn n_directions(&self) -> usize {
        self.n_directions
    }

    /// Columns per row: `k + n_directions`.
    fn width(&self) -> usize {
        self.n_classes + self.n_directions
    }

    /// Table rows of chunk `i` (`q^len(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_chunks()`.
    pub fn rows(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) / self.width()
    }

    /// Bytes held by the precomputed tables.
    pub fn size_bytes(&self) -> usize {
        (self.entries.len() + self.projections.len()) * std::mem::size_of::<i64>()
    }

    /// Checks this kernel is consistent with the layout and compressed
    /// model it will serve — chunk count, per-chunk row counts, the column
    /// count `k + n_directions`, and the class projections. Used after
    /// deserialization, where the sections arrive independently.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on any disagreement.
    pub fn validate_against(
        &self,
        layout: &ChunkLayout,
        compressed: &CompressedModel,
    ) -> Result<()> {
        if self.n_chunks() != layout.n_chunks() {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT has {} chunk tables, layout expects {}",
                self.n_chunks(),
                layout.n_chunks()
            )));
        }
        if self.n_classes != compressed.n_classes()
            || self.n_directions != compressed.n_directions()
        {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT has {} + {} columns, compressed model has {} classes + {} directions",
                self.n_classes,
                self.n_directions,
                compressed.n_classes(),
                compressed.n_directions()
            )));
        }
        if self.projections != compressed.projections() {
            return Err(HdcError::invalid_dataset(
                "score-LUT class projections disagree with the compressed model",
            ));
        }
        for i in 0..self.n_chunks() {
            if self.rows(i) != layout.table_rows(i) {
                return Err(HdcError::invalid_dataset(format!(
                    "score-LUT chunk {i} has {} rows, layout expects {}",
                    self.rows(i),
                    layout.table_rows(i)
                )));
            }
        }
        Ok(())
    }

    /// Serializes the kernel (`SLT2` format): chunk count, class count,
    /// direction count, per-chunk row counts, the `k·n_directions` class
    /// projections, then the flat `i64` entries.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when a count exceeds the format
    /// caps (cannot happen for a kernel built by [`ScoreLut::build`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        w32(
            &mut out,
            serial_u32("score-lut chunks", self.n_chunks(), MAX_SERIAL_FEATURES)?,
        );
        w32(
            &mut out,
            serial_u32("score-lut classes", self.n_classes, MAX_SERIAL_CLASSES)?,
        );
        w32(
            &mut out,
            serial_u32("score-lut directions", self.n_directions, self.n_classes)?,
        );
        for i in 0..self.n_chunks() {
            out.extend_from_slice(&(self.rows(i) as u64).to_le_bytes());
        }
        for &e in self.projections.iter().chain(&self.entries) {
            out.extend_from_slice(&e.to_le_bytes());
        }
        Ok(out)
    }

    /// Deserializes a kernel written by [`ScoreLut::to_bytes`].
    ///
    /// Headers are validated against the remaining stream length and the
    /// [`MAX_SERIAL_SCORE_ENTRIES`] / [`crate::compress::MAX_SERIAL_CLASSES`]
    /// / [`crate::compress::MAX_SERIAL_FEATURES`] caps *before* any
    /// allocation, so a corrupt artifact errors instead of requesting a
    /// multi-GB buffer; trailing bytes are rejected with the offset.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for a malformed, truncated, or
    /// over-long stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(HdcError::invalid_dataset("truncated score-LUT stream"));
            }
            let out = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(out)
        };
        if take(&mut pos, 4)? != MAGIC {
            return Err(HdcError::invalid_dataset(
                "bad magic: not an SLT2 score-LUT",
            ));
        }
        let u32v = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("len checked"),
            ))
        };
        let m = u32v(&mut pos)? as usize;
        let k = u32v(&mut pos)? as usize;
        let n_directions = u32v(&mut pos)? as usize;
        if m == 0 || m > MAX_SERIAL_FEATURES {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT chunk count {m} outside 1..={MAX_SERIAL_FEATURES}"
            )));
        }
        if k == 0 || k > MAX_SERIAL_CLASSES {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT class count {k} outside 1..={MAX_SERIAL_CLASSES}"
            )));
        }
        if n_directions > k {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT claims {n_directions} directions for {k} classes"
            )));
        }
        let width = k + n_directions;
        // Row counts: 8 bytes each, checked against the remaining stream
        // before the loop allocates anything.
        if m.saturating_mul(8) > bytes.len() - pos {
            return Err(HdcError::invalid_dataset(
                "score-LUT stream too short for chunk row counts",
            ));
        }
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for i in 0..m {
            let rows = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("len checked"));
            if rows == 0 {
                return Err(HdcError::invalid_dataset(format!(
                    "score-LUT chunk {i} claims zero rows"
                )));
            }
            let chunk_entries = usize::try_from(rows)
                .ok()
                .and_then(|r| r.checked_mul(width))
                .and_then(|e| e.checked_add(total))
                .filter(|&e| e <= MAX_SERIAL_SCORE_ENTRIES)
                .ok_or_else(|| {
                    HdcError::invalid_dataset(format!(
                        "score-LUT chunk {i} pushes the entry count past the \
                         {MAX_SERIAL_SCORE_ENTRIES}-entry limit"
                    ))
                })?;
            total = chunk_entries;
            offsets.push(total);
        }
        let n_projections = k * n_directions;
        if (n_projections + total).saturating_mul(8) > bytes.len() - pos {
            return Err(HdcError::invalid_dataset(
                "score-LUT stream too short for its entries",
            ));
        }
        let mut read_i64s = |count: usize| -> Result<Vec<i64>> {
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(i64::from_le_bytes(
                    take(&mut pos, 8)?.try_into().expect("len checked"),
                ));
            }
            Ok(out)
        };
        let projections = read_i64s(n_projections)?;
        let entries = read_i64s(total)?;
        if pos != bytes.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} trailing byte(s) after score-LUT (offset {pos})",
                bytes.len() - pos
            )));
        }
        Ok(Self {
            entries,
            offsets,
            n_classes: k,
            n_directions,
            projections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::encoding::Encode;
    use hdc::hv::{BipolarHv, DenseHv};
    use hdc::levels::{LevelMemory, LevelScheme};
    use hdc::model::ClassModel;
    use hdc::quantize::{Quantization, Quantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::compress::CompressionConfig;
    use crate::lut::TableMode;

    /// A fitted encoder + compressed model pair over correlated random
    /// classes; `rounds = 0` turns decorrelation off, otherwise it sets
    /// `decorrelate_rounds`.
    #[allow(clippy::too_many_arguments)]
    fn setup(
        n: usize,
        r: usize,
        q: usize,
        dim: usize,
        k: usize,
        group: usize,
        rounds: usize,
        seed: u64,
    ) -> (LookupEncoder, CompressedModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, LevelScheme::RandomFlips, &mut rng).unwrap();
        let samples: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let encoder =
            LookupEncoder::new(layout, &levels, quantizer, TableMode::Materialized, seed).unwrap();
        let shared: Vec<i32> = (0..dim).map(|_| rng.gen_range(-40..=40)).collect();
        let classes = (0..k)
            .map(|_| {
                DenseHv::from_vec(
                    shared
                        .iter()
                        .map(|&s| s + rng.gen_range(-30..=30))
                        .collect(),
                )
            })
            .collect();
        let model = ClassModel::from_classes(classes).unwrap();
        let config = CompressionConfig::new()
            .with_decorrelate(rounds > 0)
            .with_decorrelate_rounds(rounds)
            .with_max_classes_per_vector(group);
        let compressed = CompressedModel::compress(&model, &config).unwrap();
        (encoder, compressed)
    }

    fn random_features(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    /// Shapes covering remainder chunks, multi-group packing with `k` not a
    /// multiple of the group, and 0, 1 and 2 whitening directions.
    const SHAPES: [(usize, usize, usize, usize, usize, usize, usize); 5] = [
        (10, 5, 4, 128, 3, 12, 0),
        (13, 5, 4, 200, 7, 3, 0),  // remainder chunk + multiple groups
        (23, 4, 2, 64, 26, 12, 0), // many classes, 3 groups
        (13, 5, 4, 200, 7, 3, 1),  // whitened, remainder chunk
        (11, 3, 3, 130, 9, 4, 2),  // two directions, D not a word multiple
    ];

    /// The core exactness contract: for random models (whitened ones,
    /// remainder chunks and multi-group class packing included), the
    /// kernel's exact scores equal the dense path's, so the f64 scores and
    /// the argmax are identical.
    #[test]
    fn kernel_scores_match_dense_path_exactly() {
        for (n, r, q, dim, k, group, rounds) in SHAPES {
            let (encoder, compressed) = setup(n, r, q, dim, k, group, rounds, 42 + n as u64);
            assert_eq!(compressed.n_directions(), rounds);
            let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
            assert_eq!(lut.n_directions(), rounds);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..25 {
                let features = random_features(n, &mut rng);
                let addrs = encoder.addresses(&features).unwrap();
                let h = encoder.encode(&features).unwrap();
                assert_eq!(
                    lut.scores_exact(&addrs).unwrap(),
                    compressed.scores_exact(&h).unwrap(),
                    "exact scores diverged (n={n}, k={k}, rounds={rounds})"
                );
                assert_eq!(lut.scores(&addrs).unwrap(), compressed.scores(&h).unwrap());
                assert_eq!(
                    lut.predict(&addrs).unwrap(),
                    compressed.predict(&h).unwrap(),
                    "argmax diverged (n={n}, k={k}, rounds={rounds})"
                );
            }
        }
    }

    /// Without whitening the f64 view is the integer signal itself.
    #[test]
    fn unwhitened_scores_are_exact_integers() {
        let (encoder, compressed) = setup(13, 5, 4, 200, 5, 12, 0, 5);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let features = random_features(13, &mut rng);
        let addrs = encoder.addresses(&features).unwrap();
        let exact = lut.scores_exact(&addrs).unwrap();
        let floats = lut.scores(&addrs).unwrap();
        let scale = 1i128 << (2 * whiten::DIRECTION_FRAC_BITS);
        for (e, f) in exact.iter().zip(&floats) {
            assert_eq!(e % scale, 0);
            assert_eq!((e / scale) as f64, *f);
        }
    }

    /// `Σ_d ±v[d]` one dimension at a time — the pre-table build's dot.
    fn masked_sum(v: &[i64], key: &BipolarHv) -> i64 {
        v.iter()
            .enumerate()
            .map(|(d, &x)| if key.is_negative(d) { -x } else { x })
            .sum()
    }

    /// The original build algorithm, kept as the reference: one bipolar
    /// key and one per-bit dot per `(chunk, column, j, lv)`, then an
    /// odometer over the digits with `r` scalar adds per entry.
    fn reference_entries(encoder: &LookupEncoder, compressed: &CompressedModel) -> Vec<i64> {
        let layout = *encoder.layout();
        let levels = encoder.lut().levels();
        let (q, r_max) = (layout.q(), layout.chunk_len(0));
        let k = compressed.n_classes();
        let width = k + compressed.n_directions();
        let weights: Vec<Vec<i64>> = (0..width)
            .map(|col| {
                if col < k {
                    compressed
                        .combined(compressed.group_of(col))
                        .as_slice()
                        .iter()
                        .map(|&v| v as i64)
                        .collect()
                } else {
                    let dir_q = compressed.direction_q(col - k).as_slice();
                    dir_q.iter().map(|&v| v as i64).collect()
                }
            })
            .collect();
        let mut entries = Vec::new();
        let mut t = vec![0i64; width * r_max * q];
        for chunk in 0..layout.n_chunks() {
            let chunk_len = layout.chunk_len(chunk);
            let p_i = encoder.positions().key(chunk);
            for (col, w) in weights.iter().enumerate() {
                let sign = if col < k {
                    compressed.key(col).bind(p_i)
                } else {
                    p_i.clone()
                };
                for j in 0..chunk_len {
                    for lv in 0..q {
                        let key = sign.bind(&levels.level(lv).rotated(j));
                        t[(col * r_max + j) * q + lv] = masked_sum(w, &key);
                    }
                }
            }
            let mut digits = vec![0usize; chunk_len];
            for _addr in 0..layout.table_rows(chunk) {
                for col in 0..width {
                    let mut s = 0i64;
                    for (j, &dg) in digits.iter().enumerate() {
                        s += t[(col * r_max + j) * q + dg];
                    }
                    entries.push(s);
                }
                for d in digits.iter_mut().rev() {
                    *d += 1;
                    if *d < q {
                        break;
                    }
                    *d = 0;
                }
            }
        }
        entries
    }

    /// The subset-sum build reproduces the reference tables entry for
    /// entry: signal and projection columns, remainder chunks, `k` not a
    /// multiple of the group size, and `D` not a multiple of 64.
    #[test]
    fn build_matches_reference_tables_entry_for_entry() {
        for (n, r, q, dim, k, group, rounds) in SHAPES {
            let (encoder, compressed) = setup(n, r, q, dim, k, group, rounds, 3 + n as u64);
            let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
            assert_eq!(
                lut.entries,
                reference_entries(&encoder, &compressed),
                "tables diverged (n={n}, k={k}, rounds={rounds})"
            );
            assert_eq!(lut.projections, compressed.projections());
        }
    }

    #[test]
    fn rejects_budget_overflow() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 0, 13);
        // 2 chunks × 1024 rows × 3 classes × 8 B = 49 KiB > 1 KiB budget.
        let err = ScoreLut::build(&encoder, &compressed, 1024).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        assert!(ScoreLut::build(&encoder, &compressed, 64 << 10).is_ok());
        // A projection column widens every row: 3 + 1 columns need 64 KiB.
        let (encoder, whitened) = setup(10, 5, 4, 64, 4, 12, 1, 13);
        assert!(ScoreLut::build(&encoder, &whitened, 64 << 10).is_err());
        assert!(ScoreLut::build(&encoder, &whitened, 80 << 10).is_ok());
    }

    #[test]
    fn score_bound_check_rejects_oversized_products() {
        assert!(check_exact_score_bound(2000, 1000, 617).is_ok());
        assert!(check_exact_score_bound(1 << 20, 1 << 20, 1 << 20).is_err());
        // Exactly at the bound is accepted, one past is not.
        assert!(check_exact_score_bound(1 << 26, 1 << 26, 1).is_ok());
        assert!(check_exact_score_bound(1 << 26, (1 << 26) + 1, 1).is_err());
    }

    #[test]
    fn build_rejects_out_of_bound_scores() {
        let mut rng = StdRng::seed_from_u64(17);
        // Fixed-scale compression rescales each class to L2 norm `s`, so a
        // constant class lands at s/√D per dim and the worst-case score is
        // √D·s·n. With D=1024, s=i32::MAX, n=2^17 that is ≈ 2^53 > 2^52.
        let dim = 1024;
        let n = 1 << 17;
        let levels = LevelMemory::generate(dim, 2, LevelScheme::RandomFlips, &mut rng).unwrap();
        let quantizer = Quantizer::fit(Quantization::Linear, &[0.0, 1.0], 2).unwrap();
        let layout = ChunkLayout::new(n, 8, 2).unwrap();
        let encoder =
            LookupEncoder::new(layout, &levels, quantizer, TableMode::OnTheFly, 17).unwrap();
        let classes = vec![DenseHv::from_vec(vec![1; dim]), DenseHv::zeros(dim)];
        let model = ClassModel::from_classes(classes).unwrap();
        let config = CompressionConfig::new()
            .with_decorrelate(false)
            .with_scale(i32::MAX);
        let compressed = CompressedModel::compress(&model, &config).unwrap();
        let err = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap_err();
        assert!(err.to_string().contains("2^52"), "{err}");
    }

    #[test]
    fn address_validation_errors_cleanly() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 0, 19);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        assert!(lut.scores_exact(&[0]).is_err()); // wrong count
        assert!(lut.scores_exact(&[0, 1024]).is_err()); // addr ≥ rows
        assert!(lut.scores_exact(&[0, 1023]).is_ok());
    }

    #[test]
    fn accessors_report_geometry() {
        let (encoder, compressed) = setup(13, 5, 2, 64, 4, 12, 0, 23);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        assert_eq!(lut.n_chunks(), 3);
        assert_eq!(lut.n_classes(), 4);
        assert_eq!(lut.n_directions(), 0);
        assert_eq!(lut.rows(0), 32);
        assert_eq!(lut.rows(2), 8); // remainder chunk: 3 features, 2^3
        assert_eq!(lut.size_bytes(), (32 + 32 + 8) * 4 * 8);
        lut.validate_against(encoder.layout(), &compressed).unwrap();
        let (encoder, whitened) = setup(13, 5, 2, 64, 4, 12, 1, 23);
        let lut = ScoreLut::build(&encoder, &whitened, usize::MAX).unwrap();
        assert_eq!(lut.rows(2), 8);
        // 5 columns per row plus the 4×1 class projections.
        assert_eq!(lut.size_bytes(), ((32 + 32 + 8) * 5 + 4) * 8);
    }

    #[test]
    fn round_trips_through_bytes() {
        for rounds in [0, 1] {
            let (encoder, compressed) = setup(13, 5, 4, 128, 5, 3, rounds, 29);
            let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
            let bytes = lut.to_bytes().unwrap();
            let back = ScoreLut::from_bytes(&bytes).unwrap();
            assert_eq!(back, lut);
            back.validate_against(encoder.layout(), &compressed)
                .unwrap();
        }
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let (encoder, compressed) = setup(10, 5, 2, 64, 3, 12, 1, 31);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        let bytes = lut.to_bytes().unwrap();
        // Every truncation errors; trailing bytes error.
        for cut in 0..bytes.len() {
            assert!(
                ScoreLut::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} parsed"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ScoreLut::from_bytes(&longer).is_err());
        // Bad magic, including the previous format version.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ScoreLut::from_bytes(&bad).is_err());
        let mut v1 = bytes.clone();
        v1[3] = b'1';
        assert!(ScoreLut::from_bytes(&v1).is_err());
        // A row-count header lying about a huge table must be rejected
        // before allocation (counts at offsets 4, 8, 12; rows at 16).
        let mut lying = bytes.clone();
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ScoreLut::from_bytes(&lying).is_err());
        // More directions than classes is rejected.
        let mut dirs = bytes.clone();
        dirs[12..16].copy_from_slice(&4u32.to_le_bytes());
        assert!(ScoreLut::from_bytes(&dirs).is_err());
        // Byte flips never panic; survivors must stay usable.
        let addrs = encoder.addresses(&[0.5; 10]).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            if let Ok(back) = ScoreLut::from_bytes(&flipped) {
                let _ = back.scores_exact(&addrs);
            }
        }
        let _ = compressed; // geometry partner kept alive for clarity
    }

    #[test]
    fn validate_against_catches_mismatches() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 4, 12, 0, 37);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        let other_layout = ChunkLayout::new(15, 5, 4).unwrap();
        assert!(lut.validate_against(&other_layout, &compressed).is_err());
        let (_, other_k) = setup(10, 5, 4, 64, 5, 12, 0, 37);
        assert!(lut.validate_against(encoder.layout(), &other_k).is_err());
        let wrong_rows = ChunkLayout::new(10, 5, 2).unwrap();
        assert!(lut.validate_against(&wrong_rows, &compressed).is_err());
        // Column count: a whitened model needs its projection columns…
        let (_, whitened) = setup(10, 5, 4, 64, 4, 12, 1, 37);
        assert!(lut.validate_against(encoder.layout(), &whitened).is_err());
        // …and a whitened LUT's projections must match its model's.
        let wlut = ScoreLut::build(&encoder, &whitened, usize::MAX).unwrap();
        wlut.validate_against(encoder.layout(), &whitened).unwrap();
        let (_, other_whitened) = setup(10, 5, 4, 64, 4, 12, 1, 38);
        assert!(wlut
            .validate_against(encoder.layout(), &other_whitened)
            .is_err());
    }
}
