//! Property-based tests of model compression (Eq. 4/5 invariants).

use lookhd_paper::hdc::hv::DenseHv;
use lookhd_paper::hdc::model::ClassModel;
use lookhd_paper::lookhd::whiten::DIRECTION_FRAC_BITS;
use lookhd_paper::lookhd::{CompressedModel, CompressionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_model(k: usize, d: usize, seed: u64) -> ClassModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = (0..k)
        .map(|_| DenseHv::from_vec((0..d).map(|_| rng.gen_range(-30..=30)).collect()))
        .collect();
    ClassModel::from_classes(classes).expect("model build failed")
}

/// `k` classes sharing a large common component, so decorrelation has
/// directions to remove.
fn correlated_model(k: usize, d: usize, seed: u64) -> ClassModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let shared: Vec<i32> = (0..d).map(|_| rng.gen_range(-60..=60)).collect();
    let classes = (0..k)
        .map(|_| DenseHv::from_vec(shared.iter().map(|&s| s + rng.gen_range(-8..=8)).collect()))
        .collect();
    ClassModel::from_classes(classes).expect("model build failed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The integer whitening split: for decorrelated models with one or
    /// more directions, the dense exact scores equal
    /// `S_c·2^{2F} − Σ_t a_t·u_q[c][t]` computed one dimension at a time
    /// from the public keys, combined vectors and fixed-point directions,
    /// and the f64 scores are that integer scaled by `2^{-2F}`.
    #[test]
    fn integer_whitening_split_reproduces_dense_scores(
        k in 4usize..14,
        rounds in 1usize..4,
        group in 2usize..13,
        seed in any::<u64>(),
        qseed in any::<u64>(),
    ) {
        let d = 300; // not a multiple of the 64-bit key words
        let model = correlated_model(k, d, seed);
        let cfg = CompressionConfig::new()
            .with_decorrelate_rounds(rounds)
            .with_max_classes_per_vector(group);
        let cm = CompressedModel::compress(&model, &cfg).unwrap();
        let n_dir = cm.n_directions();
        prop_assert_eq!(n_dir, rounds.min((k / 4).max(1)));
        let mut rng = StdRng::seed_from_u64(qseed);
        let h: Vec<i32> = (0..d).map(|_| rng.gen_range(-600..=600)).collect();
        let query = DenseHv::from_vec(h.clone());
        let exact = cm.scores_exact(&query).unwrap();
        let scores = cm.scores(&query).unwrap();
        let scale = (1i128 << (2 * DIRECTION_FRAC_BITS)) as f64;
        for c in 0..k {
            let key = cm.key(c);
            let combined = cm.combined(cm.group_of(c)).as_slice();
            let weight = |dd: usize| key.value(dd) as i64 * combined[dd] as i64;
            let signal: i64 = (0..d).map(|dd| weight(dd) * h[dd] as i64).sum();
            let mut want = (signal as i128) << (2 * DIRECTION_FRAC_BITS);
            for t in 0..n_dir {
                let dir_q = cm.direction_q(t).as_slice();
                let a: i64 = (0..d).map(|dd| h[dd] as i64 * dir_q[dd] as i64).sum();
                let u: i64 = (0..d).map(|dd| weight(dd) * dir_q[dd] as i64).sum();
                prop_assert_eq!(cm.projections()[c * n_dir + t], u);
                want -= a as i128 * u as i128;
            }
            prop_assert_eq!(exact[c], want, "class {}", c);
            prop_assert_eq!(scores[c], want as f64 / scale);
        }
    }

    /// Eq. 5 exactness: without decorrelation, the compressed score of a
    /// class decomposes exactly into signal + noise, and summing the two
    /// reproduces the score.
    #[test]
    fn signal_plus_noise_equals_score(
        k in 2usize..10,
        seed in any::<u64>(),
    ) {
        let d = 512;
        let model = random_model(k, d, seed);
        let cfg = CompressionConfig::new().with_decorrelate(false);
        let cm = CompressedModel::compress(&model, &cfg).unwrap();
        let query = model.class(0).clone();
        let scores = cm.scores(&query).unwrap();
        let sn = cm.signal_noise(&model, &query).unwrap();
        for j in 0..k {
            let recomposed = sn[j].signal + sn[j].noise;
            prop_assert!(
                (recomposed - scores[j]).abs() < 1e-6,
                "class {j}: {} + {} != {}",
                sn[j].signal, sn[j].noise, scores[j]
            );
        }
    }

    /// One class per vector ⇒ no cross-talk at all: the noise term is
    /// exactly zero and predictions match the uncompressed model.
    #[test]
    fn one_class_per_vector_is_noise_free(
        k in 2usize..8,
        seed in any::<u64>(),
        qseed in any::<u64>(),
    ) {
        let d = 256;
        let model = random_model(k, d, seed);
        let cfg = CompressionConfig::new()
            .with_decorrelate(false)
            .with_max_classes_per_vector(1);
        let cm = CompressedModel::compress(&model, &cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(qseed);
        let query = DenseHv::from_vec((0..d).map(|_| rng.gen_range(-20..=20)).collect());
        let sn = cm.signal_noise(&model, &query).unwrap();
        for (j, s) in sn.iter().enumerate() {
            prop_assert!(s.noise.abs() < 1e-6, "class {j} noise {}", s.noise);
        }
        prop_assert_eq!(cm.n_vectors(), k);
    }

    /// Grouping never changes the class count, group vectors count is
    /// ⌈k / max⌉, and the paper's size accounting follows.
    #[test]
    fn grouping_and_size_accounting(
        k in 1usize..40,
        max_per in 1usize..16,
        seed in any::<u64>(),
    ) {
        let d = 128;
        let model = random_model(k, d, seed);
        let cfg = CompressionConfig::new().with_max_classes_per_vector(max_per);
        let cm = CompressedModel::compress(&model, &cfg).unwrap();
        prop_assert_eq!(cm.n_classes(), k);
        prop_assert_eq!(cm.n_vectors(), k.div_ceil(max_per));
        prop_assert_eq!(cm.size_bytes(), cm.n_vectors() * d * 4);
        prop_assert!(cm.size_bytes_with_keys() > cm.size_bytes());
    }

    /// An update toward (correct, wrong) strictly increases the correct
    /// class's score on that query and decreases the wrong one's.
    #[test]
    fn update_is_directionally_correct(
        k in 2usize..10,
        seed in any::<u64>(),
        correct in 0usize..10,
        wrong in 0usize..10,
    ) {
        let k = k.max(2);
        let (correct, wrong) = (correct % k, wrong % k);
        prop_assume!(correct != wrong);
        let d = 512;
        let model = random_model(k, d, seed);
        let cfg = CompressionConfig::new().with_decorrelate(false);
        let mut cm = CompressedModel::compress(&model, &cfg).unwrap();
        let query = model.class(correct).clone();
        let before = cm.scores(&query).unwrap();
        cm.update(correct, wrong, &query).unwrap();
        let after = cm.scores(&query).unwrap();
        prop_assert!(after[correct] > before[correct]);
        prop_assert!(after[wrong] < before[wrong]);
    }

    /// Compression is deterministic in the seed: same config ⇒ identical
    /// combined vectors; different key seeds ⇒ different combined vectors.
    #[test]
    fn compression_determinism(k in 2usize..8, seed in any::<u64>()) {
        let model = random_model(k, 128, seed);
        let cfg = CompressionConfig::new();
        let a = CompressedModel::compress(&model, &cfg).unwrap();
        let b = CompressedModel::compress(&model, &cfg).unwrap();
        prop_assert_eq!(a.combined(0), b.combined(0));
        let other = CompressedModel::compress(
            &model,
            &CompressionConfig::new().with_seed(cfg.seed ^ 1),
        )
        .unwrap();
        prop_assert_ne!(a.combined(0), other.combined(0));
    }
}
