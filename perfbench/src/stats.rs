//! Quantiles from raw per-operation samples (never from histograms).

/// The fixed tail percentile `job_e2e_ms_tail` reports. On serve_mix a run
/// completes well over 50 jobs, so at least ten samples lie beyond it.
pub const TAIL_Q: f64 = 0.80;

/// The `q`-quantile of `samples`, interpolating linearly between order
/// statistics (the same rule as numpy's default). NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly beyond the `q`-quantile (the tail's support).
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&x| x > cut).count()
}

/// Repetitions of a timed probe: at least `MIN_REPS`, and more until the
/// timed calls add up to `MIN_TOTAL_MS`, so sub-millisecond calls are
/// not judged on a handful of cold samples.
const MIN_REPS: usize = 5;
const MIN_TOTAL_MS: f64 = 200.0;
const MAX_REPS: usize = 5000;

/// Median milliseconds of `f(setup())`, timing only `f`; also returns the
/// last output.
pub fn time_each<I, O>(mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> O) -> (f64, O) {
    let mut samples = Vec::new();
    let mut total = 0.0;
    loop {
        let input = setup();
        let t0 = std::time::Instant::now();
        let out = f(input);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        samples.push(ms);
        total += ms;
        let n = samples.len();
        if n >= MAX_REPS || (n >= MIN_REPS && total >= MIN_TOTAL_MS) {
            return (median(&samples), out);
        }
    }
}

/// Median milliseconds of `f`.
pub fn time_ms<O>(mut f: impl FnMut() -> O) -> f64 {
    time_each(|| (), |()| std::hint::black_box(f())).0
}

/// `(max − min) / max` over per-tenant totals: 0 is perfectly even.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    if max > 0.0 {
        (max - min) / max
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.8) - 4.2).abs() < 1e-12);
        assert_eq!(beyond(&v, 0.8), 1);
    }
}
