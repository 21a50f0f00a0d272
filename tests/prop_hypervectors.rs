//! Property-based tests of the hypervector algebra (proptest), and a
//! differential test of the word-parallel sign-select kernel against the
//! per-element formulas it replaced (the `sign_select_*` properties).

use lookhd_paper::hdc::hv::{BipolarHv, DenseHv, SIGN_BLOCK};
use lookhd_paper::hdc::model::ClassModel;
use lookhd_paper::lookhd::{CompressedModel, CompressionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bipolar(dim: usize, seed: u64) -> BipolarHv {
    let mut rng = StdRng::seed_from_u64(seed);
    BipolarHv::random(dim, &mut rng)
}

/// Dimensions at the half-word and word edges (including the partial
/// `D % 64 != 0` tail word) and the paper's `D`; an index past the end
/// picks the random dimension instead.
const KERNEL_DIMS: [usize; 6] = [1, 63, 64, 65, 127, 2000];

/// Bind weights: small counters and large counter values.
const WEIGHTS: [i32; 9] = [-3, -2, -1, 0, 1, 2, 3, 1 << 20, -(1 << 20)];

fn kernel_dim(pick: usize, random: usize) -> usize {
    KERNEL_DIMS.get(pick).copied().unwrap_or(random)
}

fn dense(dim: usize, range: i32, seed: u64) -> DenseHv {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..dim).map(|_| rng.gen_range(-range..=range)).collect()
}

/// Rotations that cross word and half-word boundaries, then a random one.
fn rotations(dim: usize, random: usize) -> Vec<usize> {
    let mut rots = vec![0, 1, 31, 32, 33, 63, 64, 65, 129, dim - 1, dim, dim + 1];
    rots.push(random % (2 * dim));
    rots
}

/// The per-element formulas the kernel replaced; `wrapping_*` so the
/// release-only property can push products past `i32`.
mod scalar {
    use super::*;

    pub fn add_bound_scaled(acc: &DenseHv, key: &BipolarHv, other: &DenseHv, w: i32) -> Vec<i32> {
        (0..acc.dim())
            .map(|i| {
                let term = w.wrapping_mul(key.value(i)).wrapping_mul(other.get(i));
                acc.get(i).wrapping_add(term)
            })
            .collect()
    }

    pub fn add_rotated_bipolar(acc: &DenseHv, hv: &BipolarHv, rot: usize) -> Vec<i32> {
        let d = acc.dim();
        let rot = rot % d;
        (0..d)
            .map(|i| {
                let src = if i >= rot { i - rot } else { i + d - rot };
                acc.get(i) + hv.value(src)
            })
            .collect()
    }

    pub fn dot_bipolar(v: &DenseHv, hv: &BipolarHv) -> i64 {
        (0..v.dim())
            .map(|i| {
                if hv.is_negative(i) {
                    -(v.get(i) as i64)
                } else {
                    v.get(i) as i64
                }
            })
            .sum()
    }

    pub fn sign(v: &DenseHv) -> Vec<i32> {
        v.as_slice()
            .iter()
            .map(|&x| if x < 0 { -1 } else { 1 })
            .collect()
    }

    /// `CompressedModel::update_paper_shift` on one shared combined vector.
    pub fn paper_shift(
        combined: &DenseHv,
        kc: &BipolarHv,
        kw: &BipolarHv,
        h: &DenseHv,
    ) -> Vec<i32> {
        (0..combined.dim())
            .map(|d| {
                let hd = h.get(d);
                let delta = match (!kc.is_negative(d), !kw.is_negative(d)) {
                    (false, false) => -(hd >> 1),
                    (true, true) => hd >> 1,
                    (true, false) => hd,
                    (false, true) => -hd,
                };
                combined.get(d) + delta
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binding is commutative, associative, self-inverse, and preserves
    /// the dot product (it is an isometry of the hypercube).
    #[test]
    fn bind_algebra(dim in 1usize..300, s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>()) {
        let a = bipolar(dim, s1);
        let b = bipolar(dim, s2);
        let c = bipolar(dim, s3);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
        prop_assert_eq!(a.bind(&b).bind(&b), a.clone());
        prop_assert_eq!(a.bind(&c).dot(&b.bind(&c)), a.dot(&b));
    }

    /// Rotation is a group action: ρ^i ∘ ρ^j = ρ^{i+j}, ρ^D = id, and it
    /// preserves dot products.
    #[test]
    fn rotation_group(dim in 1usize..300, i in 0usize..500, j in 0usize..500, s in any::<u64>()) {
        let a = bipolar(dim, s);
        prop_assert_eq!(a.rotated(i).rotated(j), a.rotated(i + j));
        prop_assert_eq!(a.rotated(dim), a.clone());
        let b = bipolar(dim, s ^ 0xdead);
        prop_assert_eq!(a.rotated(i).dot(&b.rotated(i)), a.dot(&b));
    }

    /// Dot products satisfy |a·b| ≤ D with equality iff a = ±b, and
    /// hamming/dot stay consistent.
    #[test]
    fn dot_bounds(dim in 1usize..300, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = bipolar(dim, s1);
        let b = bipolar(dim, s2);
        let d = a.dot(&b);
        prop_assert!(d.abs() <= dim as i64);
        prop_assert_eq!(d, dim as i64 - 2 * a.hamming(&b) as i64);
        prop_assert_eq!(a.dot(&a), dim as i64);
        prop_assert_eq!(a.dot(&a.negated()), -(dim as i64));
    }

    /// Bundling then subtracting the same hypervectors returns to zero,
    /// and the fused rotated-add matches the explicit rotation.
    #[test]
    fn dense_accumulation(dim in 1usize..300, rot in 0usize..600, s in any::<u64>()) {
        let hv = bipolar(dim, s);
        let mut acc = DenseHv::zeros(dim);
        acc.add_rotated_bipolar(&hv, rot);
        let mut explicit = DenseHv::zeros(dim);
        explicit.add_bipolar(&hv.rotated(rot));
        prop_assert_eq!(&acc, &explicit);
        acc.sub_bipolar(&hv.rotated(rot));
        prop_assert_eq!(acc, DenseHv::zeros(dim));
    }

    /// Binding a dense vector twice with the same key is the identity, and
    /// `dot_bipolar` agrees with densifying the key.
    #[test]
    fn dense_bind_involution(dim in 1usize..200, s in any::<u64>(), vals in proptest::collection::vec(-50i32..50, 1..200)) {
        let dim = dim.min(vals.len()).max(1);
        let v = DenseHv::from_vec(vals[..dim].to_vec());
        let key = bipolar(dim, s);
        prop_assert_eq!(v.bound(&key).bound(&key), v.clone());
        prop_assert_eq!(v.dot_bipolar(&key), v.dot(&DenseHv::from(&key)));
    }

    /// The sign of a bundle of one bipolar hypervector is that hypervector.
    #[test]
    fn sign_of_single_bundle(dim in 1usize..300, s in any::<u64>()) {
        let hv = bipolar(dim, s);
        let mut acc = DenseHv::zeros(dim);
        acc.add_bipolar(&hv);
        prop_assert_eq!(acc.sign(), hv);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `add_bound_scaled` and `bound` equal `acc + w·key[i]·other[i]`
    /// lane for lane, for every weight, on tail and full words alike.
    #[test]
    fn sign_select_bind_accumulate(pick in 0usize..7, random in 1usize..3000, s in any::<u64>()) {
        let dim = kernel_dim(pick, random);
        let key = bipolar(dim, s);
        let acc = dense(dim, 1_000_000, s ^ 1);
        let other = dense(dim, 1000, s ^ 2);
        for w in WEIGHTS {
            let mut fused = acc.clone();
            fused.add_bound_scaled(&key, &other, w);
            prop_assert_eq!(fused.into_vec(), scalar::add_bound_scaled(&acc, &key, &other, w), "w={}", w);
        }
        let zero = DenseHv::zeros(dim);
        prop_assert_eq!(other.bound(&key).into_vec(), scalar::add_bound_scaled(&zero, &key, &other, 1));
    }

    /// `add_bipolar`, `sub_bipolar` and `add_rotated_bipolar` equal the
    /// per-element sums, including rotations that straddle word edges.
    #[test]
    fn sign_select_bipolar_adds(pick in 0usize..7, random in 1usize..3000, rot in any::<usize>(), s in any::<u64>()) {
        let dim = kernel_dim(pick, random);
        let hv = bipolar(dim, s);
        let acc = dense(dim, 50, s ^ 3);
        let ones = DenseHv::from_vec(vec![1; dim]);
        let mut added = acc.clone();
        added.add_bipolar(&hv);
        prop_assert_eq!(added.into_vec(), scalar::add_bound_scaled(&acc, &hv, &ones, 1));
        let mut subbed = acc.clone();
        subbed.sub_bipolar(&hv);
        prop_assert_eq!(subbed.into_vec(), scalar::add_bound_scaled(&acc, &hv, &ones, -1));
        for r in rotations(dim, rot) {
            let mut fused = acc.clone();
            fused.add_rotated_bipolar(&hv, r);
            prop_assert_eq!(fused.into_vec(), scalar::add_rotated_bipolar(&acc, &hv, r), "rot={}", r);
        }
    }

    /// `dot_bipolar` and `sign` match the per-element forms; `sign` keeps
    /// the unused bits of a partial tail word zero.
    #[test]
    fn sign_select_dot_and_sign(pick in 0usize..7, random in 1usize..3000, s in any::<u64>()) {
        let dim = kernel_dim(pick, random);
        let key = bipolar(dim, s);
        let mut v = dense(dim, 3, s ^ 4);
        v.as_mut_slice()[dim - 1] = i32::MIN;
        v.as_mut_slice()[0] = i32::MAX;
        prop_assert_eq!(v.dot_bipolar(&key), scalar::dot_bipolar(&v, &key));
        let sign = v.sign();
        prop_assert_eq!(sign.to_values(), scalar::sign(&v));
        let tail = dim % 64;
        if tail != 0 {
            prop_assert_eq!(sign.words().last().unwrap() >> tail, 0);
        }
    }

    /// `sign_blocks(start)` yields the key bits of dimensions `start..`
    /// at any bit offset, with zero masks past `D`.
    #[test]
    fn sign_select_blocks_at_any_offset(pick in 0usize..7, random in 1usize..3000, start in any::<usize>(), s in any::<u64>()) {
        let dim = kernel_dim(pick, random);
        let key = bipolar(dim, s);
        let start = start % (dim + 1);
        let mut lanes = 0;
        for (b, block) in key.sign_blocks(start).enumerate() {
            for (j, m) in block.masks().enumerate() {
                let i = start + b * SIGN_BLOCK + j;
                let expected = if i < dim && key.is_negative(i) { -1 } else { 0 };
                prop_assert_eq!(m, expected, "start={}, lane={}", start, i);
            }
            lanes += SIGN_BLOCK;
        }
        prop_assert_eq!(lanes, (dim - start).div_ceil(SIGN_BLOCK) * SIGN_BLOCK);
    }

    /// `CompressedModel::update_paper_shift` equals its per-dimension
    /// negate/shift table (whitening is the identity without
    /// decorrelation, so the query is used as is).
    #[test]
    fn sign_select_paper_shift_update(pick in 0usize..7, random in 1usize..3000, s in any::<u64>()) {
        let dim = kernel_dim(pick, random);
        let classes = (0..4).map(|c| dense(dim, 40, s ^ (10 + c))).collect();
        let model = ClassModel::from_classes(classes).unwrap();
        let cfg = CompressionConfig::new().with_decorrelate(false).with_max_classes_per_vector(4);
        let before = CompressedModel::compress(&model, &cfg).unwrap();
        let query = dense(dim, 500, s ^ 5);
        for (correct, wrong) in [(1, 3), (0, 2), (3, 0)] {
            let mut shifted = before.clone();
            shifted.update_paper_shift(correct, wrong, &query).unwrap();
            let expected = scalar::paper_shift(before.combined(0), before.key(correct), before.key(wrong), &query);
            prop_assert_eq!(shifted.combined(0).as_slice(), expected.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Release builds wrap: the kernel's `w · ((row ^ m) − m)` wraps to
    /// the same `i32` as `w · key[i] · row[i]` when products overflow.
    /// (Debug builds trap on the overflow instead, so this runs only in
    /// release.)
    #[cfg(not(debug_assertions))]
    #[test]
    fn sign_select_wraps_like_the_scalar_form(pick in 0usize..7, random in 1usize..3000, s in any::<u64>()) {
        let dim = kernel_dim(pick, random);
        let key = bipolar(dim, s);
        let mut acc = dense(dim, i32::MAX, s ^ 6);
        let mut other = dense(dim, i32::MAX, s ^ 7);
        acc.as_mut_slice()[0] = i32::MIN;
        other.as_mut_slice()[dim - 1] = i32::MIN;
        for w in [i32::MIN, i32::MAX, -(1 << 20), 3, -1] {
            let mut fused = acc.clone();
            fused.add_bound_scaled(&key, &other, w);
            prop_assert_eq!(fused.into_vec(), scalar::add_bound_scaled(&acc, &key, &other, w), "w={}", w);
        }
    }
}
