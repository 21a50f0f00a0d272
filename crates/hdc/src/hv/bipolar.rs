//! Bit-packed bipolar hypervectors.
//!
//! A bipolar hypervector is a point of `{-1, +1}^D`. We store one bit per
//! dimension in `u64` words with the convention `bit == 0 ⇔ +1` and
//! `bit == 1 ⇔ -1`, so that *binding* (element-wise multiplication) is a
//! plain XOR and the dot product reduces to a popcount:
//!
//! ```text
//! a · b = D - 2 · popcount(a ⊕ b)
//! ```
//!
//! This mirrors the paper's hardware, which represents bipolar position
//! hypervectors as binary words and implements multiplication with negation
//! blocks (§V-A, §V-B).

use std::fmt;

use rand::Rng;

const WORD_BITS: usize = 64;

/// Lanes per [`SignBlock`]: half a packed word.
pub const SIGN_BLOCK: usize = 32;

/// `BIT[j] = 1 << j`. Testing lane `j` against this constant table compiles
/// to `pand` + `pcmpeqd` on baseline x86-64; the per-lane variable shift of
/// `(bits >> j) & 1` has no SSE2 form and would stay scalar.
const BIT: [u32; SIGN_BLOCK] = {
    let mut t = [0u32; SIGN_BLOCK];
    let mut j = 0;
    while j < SIGN_BLOCK {
        t[j] = 1 << j;
        j += 1;
    }
    t
};

/// A bit-packed bipolar hypervector in `{-1, +1}^D`.
///
/// # Examples
///
/// ```
/// use hdc::hv::BipolarHv;
///
/// let a = BipolarHv::from_values(&[1, -1, 1, 1]);
/// let b = BipolarHv::from_values(&[1, 1, -1, 1]);
/// // Binding is element-wise multiplication.
/// let c = a.bind(&b);
/// assert_eq!(c.to_values(), vec![1, -1, -1, 1]);
/// // Dot product counts agreements minus disagreements.
/// assert_eq!(a.dot(&b), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BipolarHv {
    dim: usize,
    words: Vec<u64>,
}

impl BipolarHv {
    /// Creates the all `+1` hypervector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn ones(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        let words = vec![0u64; dim.div_ceil(WORD_BITS)];
        Self { dim, words }
    }

    /// Samples a uniformly random bipolar hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        let mut hv = Self::ones(dim);
        for w in &mut hv.words {
            *w = rng.gen();
        }
        hv.mask_tail();
        hv
    }

    /// Builds a hypervector from explicit `+1`/`-1` values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains anything other than `1`/`-1`.
    pub fn from_values(values: &[i32]) -> Self {
        let mut hv = Self::ones(values.len());
        for (i, &v) in values.iter().enumerate() {
            hv.set(i, v);
        }
        hv
    }

    /// The dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the `+1`/`-1` value at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn value(&self, i: usize) -> i32 {
        assert!(
            i < self.dim,
            "dimension {i} out of range for D={}",
            self.dim
        );
        if self.bit(i) {
            -1
        } else {
            1
        }
    }

    /// Sets dimension `i` to the given `+1`/`-1` value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()` or `v` is not `1` or `-1`.
    pub fn set(&mut self, i: usize, v: i32) {
        assert!(
            i < self.dim,
            "dimension {i} out of range for D={}",
            self.dim
        );
        match v {
            1 => self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS)),
            -1 => self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS),
            _ => panic!("bipolar value must be +1 or -1, got {v}"),
        }
    }

    #[inline]
    fn bit(&self, i: usize) -> bool {
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// True when dimension `i` holds `-1`. Used by hardware-style negation
    /// blocks that branch on the raw bit instead of multiplying.
    #[inline]
    pub fn is_negative(&self, i: usize) -> bool {
        self.bit(i)
    }

    /// Flips (negates) the value at each listed dimension.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn flip(&mut self, indices: &[usize]) {
        for &i in indices {
            assert!(
                i < self.dim,
                "dimension {i} out of range for D={}",
                self.dim
            );
            self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
        }
    }

    /// Returns the element-wise negation `-self`.
    pub fn negated(&self) -> Self {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_tail();
        out
    }

    /// Binds (element-wise multiplies) two hypervectors.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bind(&self, other: &Self) -> Self {
        assert_eq!(self.dim, other.dim, "bind requires equal dimensions");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a ^ b)
            .collect();
        Self {
            dim: self.dim,
            words,
        }
    }

    /// Dot product `Σ_d a[d]·b[d]`, computed via popcount.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Self) -> i64 {
        assert_eq!(self.dim, other.dim, "dot requires equal dimensions");
        let disagree: u32 = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        self.dim as i64 - 2 * disagree as i64
    }

    /// Hamming distance: the number of dimensions where the vectors differ.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.dim, other.dim, "hamming requires equal dimensions");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Cosine similarity of two bipolar hypervectors (both have norm `√D`).
    pub fn cosine(&self, other: &Self) -> f64 {
        self.dot(other) as f64 / self.dim as f64
    }

    /// The circular permutation `ρ^k`: `out[i] = self[(i + D - k) % D]`,
    /// i.e. a rotational shift of `k` positions toward higher indices.
    ///
    /// `ρ^D` is the identity, and `rotated(a).rotated(b) == rotated(a + b)`.
    /// Word-aligned rotations take the fast word-shuffle path; others fall
    /// back to a word-pair shift (still ~64× faster than bit-by-bit).
    pub fn rotated(&self, k: usize) -> Self {
        let d = self.dim;
        let k = k % d;
        if k == 0 {
            return self.clone();
        }
        if d.is_multiple_of(WORD_BITS) {
            return self.rotated_word_path(k);
        }
        // Dimensions that do not fill the last word: bit-by-bit reference
        // path (rare; encoders use word-multiple dimensions in practice).
        let mut out = Self::ones(d);
        for i in 0..d {
            let src = (i + d - k) % d;
            if self.bit(src) {
                out.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        out
    }

    /// Rotation for word-multiple dimensions: rotate the word array by
    /// `k / 64` words, then shift the whole array by `k % 64` bits with
    /// carry between adjacent words.
    fn rotated_word_path(&self, k: usize) -> Self {
        let n_words = self.words.len();
        let word_shift = (k / WORD_BITS) % n_words;
        let bit_shift = k % WORD_BITS;
        let mut rotated_words = vec![0u64; n_words];
        for (i, slot) in rotated_words.iter_mut().enumerate() {
            *slot = self.words[(i + n_words - word_shift) % n_words];
        }
        if bit_shift > 0 {
            let mut shifted = vec![0u64; n_words];
            for (i, slot) in shifted.iter_mut().enumerate() {
                let prev = rotated_words[(i + n_words - 1) % n_words];
                *slot = (rotated_words[i] << bit_shift) | (prev >> (WORD_BITS - bit_shift));
            }
            rotated_words = shifted;
        }
        Self {
            dim: self.dim,
            words: rotated_words,
        }
    }

    /// Expands to a `Vec` of `+1`/`-1` values.
    pub fn to_values(&self) -> Vec<i32> {
        (0..self.dim).map(|i| self.value(i)).collect()
    }

    /// Iterates over the `+1`/`-1` values in dimension order.
    pub fn iter(&self) -> impl Iterator<Item = i32> + '_ {
        (0..self.dim).map(move |i| self.value(i))
    }

    /// The sign bits of dimensions `start..D`, one [`SignBlock`] per
    /// [`SIGN_BLOCK`] lanes; the last block may be short (its bits past
    /// `D` are zero). Any `start` works, not just word boundaries, so a
    /// rotation reads its two wrapped segments from here. This is the
    /// word-parallel input of the [`DenseHv`](super::DenseHv) sign-select
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `start > self.dim()`.
    #[inline]
    pub fn sign_blocks(&self, start: usize) -> impl Iterator<Item = SignBlock> + '_ {
        assert!(
            start <= self.dim,
            "start {start} out of range for D={}",
            self.dim
        );
        (start..self.dim)
            .step_by(SIGN_BLOCK)
            .map(move |p| SignBlock(self.bits_at(p)))
    }

    /// The 32 bits of dimensions `p..p + 32` (zero past the last word).
    #[inline(always)]
    fn bits_at(&self, p: usize) -> u32 {
        let (w, off) = (p / WORD_BITS, p % WORD_BITS);
        let lo = u128::from(self.words[w]);
        let hi = u128::from(self.words.get(w + 1).copied().unwrap_or(0));
        (((hi << WORD_BITS) | lo) >> off) as u32
    }

    /// Packs the negative lanes of `values` (`v < 0` ⇔ `-1`), a word at a
    /// time: the inverse of [`SignBlock::masks`], used for binarization.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub(super) fn from_negative_lanes(values: &[i32]) -> Self {
        let mut hv = Self::ones(values.len());
        for (word, lanes) in hv.words.iter_mut().zip(values.chunks(WORD_BITS)) {
            for (h, half) in lanes.chunks(SIGN_BLOCK).enumerate() {
                let bits = half
                    .iter()
                    .zip(&BIT)
                    .fold(0u32, |acc, (&v, &b)| acc | (b & (v >> 31) as u32));
                *word |= u64::from(bits) << (h * SIGN_BLOCK);
            }
        }
        hv
    }

    /// Raw packed words (low bit of word 0 is dimension 0). Unused tail bits
    /// are always zero. Exposed for the hardware cost models, which account
    /// for word-level memory traffic.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let rem = self.dim % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// The sign bits of up to [`SIGN_BLOCK`] consecutive dimensions of a
/// [`BipolarHv`] (bit `j` is lane `j`; bit 1 ⇔ `-1`), as yielded by
/// [`BipolarHv::sign_blocks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignBlock(u32);

impl SignBlock {
    /// Per-lane sign masks: `-1` (all bits set) where the lane holds `-1`
    /// and `0` where it holds `+1`, so `(x ^ m) - m` is `±x` without a
    /// branch or a multiply. Zip with the block's lanes; lanes past `D` in
    /// a short block are `0`.
    #[inline(always)]
    pub fn masks(self) -> impl Iterator<Item = i32> {
        BIT.iter().map(move |&b| -i32::from(self.0 & b != 0))
    }
}

impl fmt::Debug for BipolarHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BipolarHv(D={}, [", self.dim)?;
        for i in 0..self.dim.min(16) {
            write!(f, "{}", if self.value(i) == 1 { '+' } else { '-' })?;
        }
        if self.dim > 16 {
            write!(f, "…")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ones_is_all_plus_one() {
        let hv = BipolarHv::ones(70);
        assert_eq!(hv.dim(), 70);
        assert!(hv.iter().all(|v| v == 1));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = BipolarHv::ones(0);
    }

    #[test]
    fn set_and_value_round_trip() {
        let mut hv = BipolarHv::ones(100);
        hv.set(0, -1);
        hv.set(63, -1);
        hv.set(64, -1);
        hv.set(99, -1);
        assert_eq!(hv.value(0), -1);
        assert_eq!(hv.value(63), -1);
        assert_eq!(hv.value(64), -1);
        assert_eq!(hv.value(99), -1);
        assert_eq!(hv.value(1), 1);
        hv.set(0, 1);
        assert_eq!(hv.value(0), 1);
    }

    #[test]
    #[should_panic(expected = "bipolar value must be +1 or -1")]
    fn set_rejects_non_bipolar() {
        BipolarHv::ones(4).set(0, 0);
    }

    #[test]
    fn from_values_round_trip() {
        let vals = vec![1, -1, -1, 1, -1];
        let hv = BipolarHv::from_values(&vals);
        assert_eq!(hv.to_values(), vals);
    }

    #[test]
    fn bind_is_elementwise_multiplication() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = BipolarHv::random(130, &mut rng);
        let b = BipolarHv::random(130, &mut rng);
        let c = a.bind(&b);
        for i in 0..130 {
            assert_eq!(c.value(i), a.value(i) * b.value(i));
        }
    }

    #[test]
    fn bind_with_self_is_identity_vector() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = BipolarHv::random(200, &mut rng);
        assert_eq!(a.bind(&a), BipolarHv::ones(200));
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BipolarHv::random(97, &mut rng);
        let b = BipolarHv::random(97, &mut rng);
        let naive: i64 = (0..97).map(|i| (a.value(i) * b.value(i)) as i64).sum();
        assert_eq!(a.dot(&b), naive);
        assert_eq!(a.dot(&a), 97);
    }

    #[test]
    fn negated_flips_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = BipolarHv::random(77, &mut rng);
        let n = a.negated();
        assert_eq!(a.dot(&n), -77);
        // tail bits stay clean: dot with ones must still be in range
        assert!(n.dot(&BipolarHv::ones(77)).abs() <= 77);
    }

    #[test]
    fn rotation_shifts_values() {
        let hv = BipolarHv::from_values(&[1, -1, 1, 1, 1]);
        let r = hv.rotated(1);
        assert_eq!(r.to_values(), vec![1, 1, -1, 1, 1]);
        let r2 = hv.rotated(4);
        assert_eq!(r2.to_values(), vec![-1, 1, 1, 1, 1]);
    }

    #[test]
    fn rotation_composes_and_wraps() {
        let mut rng = StdRng::seed_from_u64(5);
        let hv = BipolarHv::random(129, &mut rng);
        assert_eq!(hv.rotated(129), hv);
        assert_eq!(hv.rotated(5).rotated(7), hv.rotated(12));
        assert_eq!(hv.rotated(130), hv.rotated(1));
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(6);
        let hv = BipolarHv::random(10_000, &mut rng);
        let sum: i64 = hv.iter().map(i64::from).sum();
        assert!(sum.abs() < 400, "random hv too unbalanced: {sum}");
    }

    #[test]
    fn random_pair_nearly_orthogonal() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = BipolarHv::random(10_000, &mut rng);
        let b = BipolarHv::random(10_000, &mut rng);
        assert!(a.cosine(&b).abs() < 0.05);
    }

    #[test]
    fn permutation_orthogonal_to_original() {
        // δ(L, ρ^i L) ≈ 0 — the property the baseline encoding relies on (§II-A).
        let mut rng = StdRng::seed_from_u64(8);
        let a = BipolarHv::random(10_000, &mut rng);
        for k in [1usize, 3, 100, 617] {
            assert!(
                a.cosine(&a.rotated(k)).abs() < 0.05,
                "rotation {k} not orthogonal"
            );
        }
    }

    #[test]
    fn flip_changes_listed_dims_only() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = BipolarHv::random(100, &mut rng);
        let mut b = a.clone();
        b.flip(&[0, 50, 99]);
        assert_eq!(a.hamming(&b), 3);
        assert_eq!(b.value(0), -a.value(0));
        assert_eq!(b.value(50), -a.value(50));
        assert_eq!(b.value(99), -a.value(99));
    }

    #[test]
    fn hamming_and_dot_are_consistent() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = BipolarHv::random(500, &mut rng);
        let b = BipolarHv::random(500, &mut rng);
        let h = a.hamming(&b) as i64;
        assert_eq!(a.dot(&b), 500 - 2 * h);
    }

    #[test]
    fn debug_is_nonempty() {
        let hv = BipolarHv::ones(4);
        assert!(!format!("{hv:?}").is_empty());
    }

    /// Bit-by-bit reference rotation, used to pin the word-level fast path.
    fn rotated_reference(hv: &BipolarHv, k: usize) -> BipolarHv {
        let d = hv.dim();
        let k = k % d;
        let mut out = BipolarHv::ones(d);
        for i in 0..d {
            out.set(i, hv.value((i + d - k) % d));
        }
        out
    }

    #[test]
    fn word_path_rotation_matches_reference() {
        let mut rng = StdRng::seed_from_u64(20);
        for dim in [64usize, 128, 512, 2048] {
            let hv = BipolarHv::random(dim, &mut rng);
            for k in [0usize, 1, 7, 63, 64, 65, 200, dim - 1, dim, dim + 3] {
                assert_eq!(hv.rotated(k), rotated_reference(&hv, k), "dim={dim}, k={k}");
            }
        }
    }

    #[test]
    fn non_word_multiple_rotation_matches_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for dim in [65usize, 100, 129, 1000] {
            let hv = BipolarHv::random(dim, &mut rng);
            for k in [1usize, 13, 64, dim - 1] {
                assert_eq!(hv.rotated(k), rotated_reference(&hv, k), "dim={dim}, k={k}");
            }
        }
    }
}
