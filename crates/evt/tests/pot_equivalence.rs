//! POT by selection equals POT by sort, bitwise.
//!
//! `pot_threshold` finds its initial `level`-quantile threshold by
//! selection on one `f32` buffer. The reference below is the textbook body
//! it replaced: widen the finite scores to `f64`, stable-sort a copy, read
//! index `round(level · (n − 1))`. Every field of the result (threshold,
//! initial, peaks, gamma, sigma, method) must match bit for bit, on inputs
//! that mix NaN, ±∞, duplicates and `−0.0`/`+0.0` ties, at the levels the
//! repository uses (0.9, 0.98, 0.99).

use aero_evt::{
    fit_gpd, pot_threshold, pot_threshold_lenient, FitMethod, PotConfig, PotError, PotThreshold,
    MIN_PEAKS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEVELS: [f64; 3] = [0.9, 0.98, 0.99];

/// The sort-based `pot_threshold` body, kept as the oracle.
fn reference_pot(scores: &[f32], config: PotConfig) -> Result<PotThreshold, PotError> {
    let clean: Vec<f64> = scores.iter().filter(|v| v.is_finite()).map(|&v| v as f64).collect();
    let n = clean.len();
    if n == 0 {
        return Err(PotError::NoFiniteScores);
    }
    let mut sorted = clean.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((config.level * (n - 1) as f64).round() as usize).min(n - 1);
    let u = sorted[idx];
    let peaks: Vec<f64> = clean.iter().filter(|&&s| s > u).map(|&s| s - u).collect();
    let nt = peaks.len();
    if nt < MIN_PEAKS {
        return Err(PotError::TooFewPeaks { peaks: nt, required: MIN_PEAKS });
    }
    Ok(match fit_gpd(&peaks) {
        Some((fit, method)) => {
            let r = config.q * n as f64 / nt as f64;
            let threshold = if fit.gamma.abs() < 1e-9 {
                u - fit.sigma * r.ln()
            } else {
                u + fit.sigma / fit.gamma * (r.powf(-fit.gamma) - 1.0)
            };
            PotThreshold {
                threshold,
                initial: u,
                peaks: nt,
                gamma: fit.gamma,
                sigma: fit.sigma,
                method,
            }
        }
        None => PotThreshold {
            threshold: u,
            initial: u,
            peaks: nt,
            gamma: 0.0,
            sigma: 0.0,
            method: FitMethod::MethodOfMoments,
        },
    })
}

/// The sort-based `pot_threshold_lenient` body, kept as the oracle.
fn reference_lenient(scores: &[f32], config: PotConfig) -> PotThreshold {
    match reference_pot(scores, config) {
        Ok(t) => t,
        Err(PotError::NoFiniteScores) => PotThreshold {
            threshold: f64::INFINITY,
            initial: f64::INFINITY,
            peaks: 0,
            gamma: 0.0,
            sigma: 0.0,
            method: FitMethod::MethodOfMoments,
        },
        Err(PotError::TooFewPeaks { peaks, .. }) => {
            let mut sorted: Vec<f64> =
                scores.iter().filter(|v| v.is_finite()).map(|&v| v as f64).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = sorted.len();
            let idx = ((config.level * (n - 1) as f64).round() as usize).min(n - 1);
            let u = sorted[idx];
            let spread = sorted[n - 1] - sorted[0];
            PotThreshold {
                threshold: u + 0.05 * spread.max(1e-9),
                initial: u,
                peaks,
                gamma: 0.0,
                sigma: 0.0,
                method: FitMethod::MethodOfMoments,
            }
        }
    }
}

/// Every field as bits, so `-0.0` vs `+0.0` and NaN payloads count.
fn bits(t: &PotThreshold) -> (u64, u64, usize, u64, u64, FitMethod) {
    (
        t.threshold.to_bits(),
        t.initial.to_bits(),
        t.peaks,
        t.gamma.to_bits(),
        t.sigma.to_bits(),
        t.method,
    )
}

fn assert_same(scores: &[f32], level: f64) {
    let config = PotConfig { level, q: 1e-3 };
    match (pot_threshold(scores, config), reference_pot(scores, config)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(bits(&got), bits(&want), "strict, level {level}: {scores:?}")
        }
        (got, want) => assert_eq!(got, want, "strict, level {level}"),
    }
    let got = pot_threshold_lenient(scores, config);
    let want = reference_lenient(scores, config);
    assert_eq!(bits(&got), bits(&want), "lenient, level {level}: {scores:?}");
}

/// A score drawn from a palette that makes ties, zeros of both signs and
/// non-finite values common, over a continuous heavy-ish tail.
fn draw(rng: &mut StdRng, zero_share: f64) -> f32 {
    if rng.gen_bool(zero_share) {
        return if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
    }
    match rng.gen_range(0u32..20) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3..=5 => [0.25f32, 1.0, 3.5][rng.gen_range(0usize..3)],
        6 => -rng.gen_range(0.0f32..2.0),
        _ => rng.gen_range(0.0f32..1.0).powi(3) * 10.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Mixed inputs of every length class: empty-after-filtering, a
    /// handful of values (the lenient fallback), and thousands.
    fn selection_matches_sort(seed in 0u64..u64::MAX, len in 0usize..3000, zero_pct in 0u32..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let zero_share = zero_pct as f64 / 100.0;
        let scores: Vec<f32> = (0..len).map(|_| draw(&mut rng, zero_share)).collect();
        for level in LEVELS {
            assert_same(&scores, level);
        }
    }

    /// Mostly zeros of both signs, so the quantile lands inside the zero
    /// tie and only the stable order decides the sign of `initial`.
    fn signed_zero_ties_match_sort(seed in 0u64..u64::MAX, len in 1usize..400, tail in 0usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scores: Vec<f32> =
            (0..len).map(|_| if rng.gen_bool(0.5) { 0.0 } else { -0.0 }).collect();
        for _ in 0..tail {
            let at = rng.gen_range(0..=scores.len());
            let v = if rng.gen_bool(0.3) { -rng.gen_range(0.5f32..2.0) } else { rng.gen_range(0.5f32..9.0) };
            scores.insert(at, v);
        }
        for level in LEVELS {
            assert_same(&scores, level);
        }
    }
}

#[test]
fn quantile_zero_keeps_the_stably_sorted_sign() {
    // One negative, then zeros whose sign alternates: index 9 of the sorted
    // order (level 0.9 of 11 values) is the ninth zero in input order.
    let mut scores = vec![-1.0f32];
    scores.extend((0..9).map(|i| if i % 2 == 0 { -0.0 } else { 0.0 }));
    scores.push(5.0);
    let lenient = pot_threshold_lenient(&scores, PotConfig { level: 0.9, q: 1e-3 });
    assert_eq!(lenient.initial.to_bits(), (-0.0f64).to_bits());
    assert_same(&scores, 0.9);
    scores[9] = 0.0;
    assert_eq!(
        pot_threshold_lenient(&scores, PotConfig { level: 0.9, q: 1e-3 }).initial.to_bits(),
        0.0f64.to_bits()
    );
    assert_same(&scores, 0.9);
}
