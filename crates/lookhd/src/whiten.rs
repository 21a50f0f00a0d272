//! Exact integer whitening: the score split both exact kernels finish
//! through.
//!
//! Decorrelation (§IV-C) whitens a query against the stored unit common
//! directions, `h' = h − Σ_t (h·dir_t)·dir_t`. Whitening is linear in `h`,
//! so every compressed score splits into an integer signal term and one
//! correction per direction:
//!
//! ```text
//! score_c = Σ_d P'_c[d]·h'[d]·C[d]
//!         = S_c(h) − Σ_t (h·dir_t)·u_{c,t},   u_{c,t} = Σ_d P'_c[d]·C[d]·dir_t[d]
//! ```
//!
//! Each direction is quantized once to fixed point,
//! `dir_q = round(dir·2^F)` with `F =` [`DIRECTION_FRAC_BITS`]. Then
//! `a_t = h·dir_q` and `u_q = Σ_d P'_c·C·dir_q` are exact `i64`s, and
//!
//! ```text
//! exact_c = S_c·2^{2F} − Σ_t a_t·u_q[c][t]          (checked i128)
//! ```
//!
//! is `2^{2F}` times the whitened score up to the direction rounding. The
//! dense kernel computes `S`, `a` from the encoded query and the LUT kernel
//! gathers both from its tables; both hand them to [`exact_scores`] and
//! take the argmax on the integers, so the two paths agree bit for bit.
//! Without decorrelation there are no directions and `exact_c = S_c·2^{2F}`.

use hdc::hv::DenseHv;
use hdc::{HdcError, Result};

/// Fractional bits `F` of the fixed-point whitening directions. A unit
/// direction's components are at most 1 in magnitude, so `dir_q` fits
/// `i32` with room; at `D = 2000` the rounding moves a score by about
/// `10^-6` of the correction term, far below score gaps.
pub const DIRECTION_FRAC_BITS: u32 = 24;

/// Largest magnitude allowed for an `i64` term of the split (`a_t`,
/// `u_q[c][t]`, and every partial sum of them): `2^62`, one bit of
/// headroom below `i64::MAX`.
pub const MAX_SPLIT_TERM: i64 = 1 << 62;

/// `2^{-2F}`: maps an exact score back to the scale of the whitened score.
const EXACT_TO_SCORE: f64 = 1.0 / (1u64 << (2 * DIRECTION_FRAC_BITS)) as f64;

/// Quantizes a unit whitening direction to `round(dir·2^F)`.
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] when a component is not finite or
/// exceeds 1 in magnitude (impossible for a unit vector; a corrupt
/// artifact must not smuggle one in).
pub fn quantize_direction(dir: &[f64]) -> Result<DenseHv> {
    let scale = (1u64 << DIRECTION_FRAC_BITS) as f64;
    let mut values = Vec::with_capacity(dir.len());
    for &v in dir {
        if !v.is_finite() || v.abs() > 1.0 {
            return Err(HdcError::invalid_dataset(format!(
                "whitening direction component {v} is outside [-1, 1]"
            )));
        }
        values.push((v * scale).round() as i32);
    }
    Ok(DenseHv::from_vec(values))
}

/// `Σ_d |dir_q[d]|`, which bounds `|x·dir_q|` by `max|x| · L1`.
pub fn l1_norm(dir_q: &DenseHv) -> i64 {
    dir_q.as_slice().iter().map(|&v| i64::from(v).abs()).sum()
}

/// Rejects direction sets whose split terms could leave the `i64` range:
/// for every direction `t`, `max_abs · L1_t` must stay within
/// [`MAX_SPLIT_TERM`], where `max_abs` bounds the vector dotted with
/// `dir_q` (`max|C|` for `u_q`, `n` for the query's `a_t`).
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] when a bound is exceeded.
pub fn check_split_headroom(what: &'static str, max_abs: i64, dir_l1: &[i64]) -> Result<()> {
    for &l1 in dir_l1 {
        if max_abs.checked_mul(l1).is_none_or(|b| b > MAX_SPLIT_TERM) {
            return Err(HdcError::invalid_config(
                what,
                format!("whitening term {max_abs}·{l1} exceeds the exact-integer bound 2^62"),
            ));
        }
    }
    Ok(())
}

/// Rejects a split whose combine could leave `i128`: the worst case
/// `max|S|·2^{2F} + Σ_t (max|h|·L1_t)·(max|C|·L1_t)` must fit. Callers
/// pass the signal bound `max|S|` (`D·max|C|·n` for the LUT) and the query
/// and model magnitude bounds.
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] when the bound overflows `i128`.
pub fn check_combine_headroom(
    max_signal: i64,
    max_abs_query: i64,
    max_abs_combined: i64,
    dir_l1: &[i64],
) -> Result<()> {
    let bound = dir_l1.iter().try_fold(
        i128::from(max_signal) << (2 * DIRECTION_FRAC_BITS),
        |acc, &l1| {
            let a = i128::from(max_abs_query) * i128::from(l1);
            let u = i128::from(max_abs_combined) * i128::from(l1);
            a.checked_mul(u)?.checked_add(acc)
        },
    );
    if bound.is_none() {
        return Err(HdcError::invalid_config(
            "score",
            format!(
                "worst-case whitened score over {} direction(s) overflows i128",
                dir_l1.len()
            ),
        ));
    }
    Ok(())
}

/// The shared combine: `exact_c = S_c·2^{2F} − Σ_t a_t·u[c·n + t]` for
/// every class, in checked `i128` (`n = a.len()` directions, `u`
/// class-major).
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] on `i128` overflow, which the
/// build-time headroom checks rule out for every eligible model.
pub fn exact_scores(s: &[i64], a: &[i64], u: &[i64]) -> Result<Vec<i128>> {
    debug_assert_eq!(u.len(), s.len() * a.len());
    let overflow = || HdcError::invalid_config("score", "whitened score overflows i128");
    let mut out = Vec::with_capacity(s.len());
    for (c, &sc) in s.iter().enumerate() {
        let mut acc = i128::from(sc) << (2 * DIRECTION_FRAC_BITS);
        for (&at, &uct) in a.iter().zip(&u[c * a.len()..]) {
            let term = i128::from(at)
                .checked_mul(i128::from(uct))
                .ok_or_else(overflow)?;
            acc = acc.checked_sub(term).ok_or_else(overflow)?;
        }
        out.push(acc);
    }
    Ok(out)
}

/// The `f64` score view of an exact score: `exact · 2^{-2F}`. Without
/// whitening this is `S_c` itself (exact while `|S_c| ≤ 2^53`).
pub fn to_score(exact: i128) -> f64 {
    exact as f64 * EXACT_TO_SCORE
}

/// First-maximum argmax (strict `>`), the tie rule every scoring path in
/// this workspace uses; `0` for an empty slice.
pub fn argmax<T: PartialOrd>(scores: &[T]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate() {
        if *s > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_rounds_and_rejects_non_unit_components() {
        let q = quantize_direction(&[1.0, -1.0, 0.5, 0.0, 2f64.powi(-30)]).unwrap();
        let one = 1 << DIRECTION_FRAC_BITS;
        assert_eq!(q.as_slice(), &[one, -one, one / 2, 0, 0]);
        assert_eq!(l1_norm(&q), 2 * one as i64 + one as i64 / 2);
        for bad in [1.5, f64::NAN, f64::INFINITY] {
            assert!(quantize_direction(&[0.0, bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn combine_scales_signal_and_subtracts_corrections() {
        let f2 = 1i128 << (2 * DIRECTION_FRAC_BITS);
        // No directions: the signal alone, scaled.
        assert_eq!(
            exact_scores(&[3, -7], &[], &[]).unwrap(),
            vec![3 * f2, -7 * f2]
        );
        // Two classes, two directions, u class-major.
        let got = exact_scores(&[1, 2], &[10, -3], &[4, 5, 6, 7]).unwrap();
        assert_eq!(got, vec![f2 - (40 - 15), 2 * f2 - (60 - 21)]);
        assert_eq!(to_score(3 * f2), 3.0);
        // Overflow is an error, not a wrap.
        assert!(exact_scores(&[0], &[i64::MAX; 3], &[i64::MAX; 3]).is_err());
    }

    #[test]
    fn headroom_check_bounds_each_direction() {
        assert!(check_split_headroom("t", 3617, &[1 << 30]).is_ok());
        assert!(check_split_headroom("t", 1 << 32, &[1 << 30]).is_ok());
        assert!(check_split_headroom("t", (1 << 32) + 1, &[1 << 30]).is_err());
        assert!(check_split_headroom("t", i64::MAX, &[2]).is_err());
        // The SPEECH shape (D=2000, max|C|≈3617, n=617) has ample room.
        let l1 = 1 << 30;
        assert!(check_combine_headroom(2000 * 3617 * 617, 617, 3617, &[l1; 4]).is_ok());
        assert!(check_combine_headroom(1 << 52, 1 << 62, 1 << 62, &[1 << 20]).is_err());
        assert!(check_combine_headroom(i64::MAX, 0, 0, &[]).is_ok());
    }

    #[test]
    fn argmax_takes_the_first_maximum() {
        assert_eq!(argmax(&[1, 5, 5, -2]), 1);
        assert_eq!(argmax(&[-3]), 0);
        assert_eq!(argmax::<i128>(&[]), 0);
        assert_eq!(argmax(&[0.5, 2.0, -1.0, 2.0]), 1);
    }
}
