use core::fmt;

/// Summary statistics of a replicated measurement.
///
/// # Examples
///
/// ```
/// use sparsegossip_analysis::Summary;
///
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.median(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert!(s.std_dev() > 1.0 && s.std_dev() < 1.4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
    median: f64,
    q25: f64,
    q75: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains non-finite values.
    #[must_use]
    pub fn from_slice(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "cannot summarize an empty sample");
        assert!(
            sample.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = sample.to_vec();
        #[expect(clippy::expect_used, reason = "finiteness asserted on entry above")]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Self {
            n,
            mean,
            variance,
            min: sorted[0],
            max: sorted[n - 1],
            median: quantile_sorted(&sorted, 0.5),
            q25: quantile_sorted(&sorted, 0.25),
            q75: quantile_sorted(&sorted, 0.75),
        }
    }

    /// Sample size.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean.
    #[inline]
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for singleton samples).
    #[inline]
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Sample standard deviation.
    #[inline]
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        self.std_dev() / (self.n as f64).sqrt()
    }

    /// Half-width of an approximate 95% confidence interval for the
    /// mean: `t · SE` with the two-sided Student-t critical value for
    /// `n − 1` degrees of freedom when `n ≤ 30`, falling back to the
    /// normal 1.96 above.
    ///
    /// The t correction matters at sweep scale: at the 3–10 replicates
    /// sweeps actually run, the normal factor understates the interval
    /// by up to 2× (n = 3: 4.303 vs 1.96), which would mis-steer any
    /// widest-CI-first replicate allocation.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        t_critical_95(self.n) * self.std_err()
    }

    /// Sample minimum.
    #[inline]
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Sample maximum.
    #[inline]
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample median (linear interpolation).
    #[inline]
    #[must_use]
    pub fn median(&self) -> f64 {
        self.median
    }

    /// First quartile.
    #[inline]
    #[must_use]
    pub fn q25(&self) -> f64 {
        self.q25
    }

    /// Third quartile.
    #[inline]
    #[must_use]
    pub fn q75(&self) -> f64 {
        self.q75
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} (n={}, median {:.3}, range [{:.3}, {:.3}])",
            self.mean,
            self.ci95_half_width(),
            self.n,
            self.median,
            self.min,
            self.max
        )
    }
}

/// Two-sided 95% Student-t critical values for 1–29 degrees of
/// freedom (`TABLE[df - 1]`); beyond 30 samples the normal 1.96 is
/// within half a percent.
const T_CRITICAL_95: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045,
];

/// The 95% critical factor for a sample of size `n`: Student-t with
/// `n − 1` degrees of freedom for `n ≤ 30`, else the normal 1.96. A
/// singleton sample (df = 0, t undefined) returns the df = 1 value;
/// its standard error is 0, so the interval is 0 either way.
fn t_critical_95(n: usize) -> f64 {
    match n {
        0 | 1 => T_CRITICAL_95[0],
        n if n <= 30 => T_CRITICAL_95[n - 2],
        _ => 1.96,
    }
}

/// Quantile of a pre-sorted sample with linear interpolation.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_sample() {
        let s = Summary::from_slice(&[7.0]);
        assert_eq!(s.n(), 1);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.q25(), 7.0);
        assert_eq!(s.q75(), 7.0);
    }

    #[test]
    fn known_statistics() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.median() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.q25() - 1.75).abs() < 1e-12);
        assert!((s.q75() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let large = Summary::from_slice(&[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn small_n_ci_uses_student_t() {
        // n = 2 (df = 1): sd = √2/2 · √2 = ... pin the exact factor
        // instead: width = t · s/√n with s and n known in closed form.
        let s2 = Summary::from_slice(&[1.0, 3.0]);
        // sd = √2, se = 1, t(df=1) = 12.706.
        assert!((s2.ci95_half_width() - 12.706).abs() < 1e-9);

        // n = 3 (df = 2): sample {1,2,3} has sd = 1, se = 1/√3.
        let s3 = Summary::from_slice(&[1.0, 2.0, 3.0]);
        assert!((s3.ci95_half_width() - 4.303 / 3f64.sqrt()).abs() < 1e-9);

        // n = 5 (df = 4): t = 2.776.
        let s5 = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let expected = 2.776 * s5.std_err();
        assert!((s5.ci95_half_width() - expected).abs() < 1e-12);

        // The normal 1.96 at these n would be up to 6.5× too narrow.
        assert!(s2.ci95_half_width() / (1.96 * s2.std_err()) > 6.0);
    }

    #[test]
    fn large_n_ci_falls_back_to_normal() {
        // n = 30 still uses t (df = 29: 2.045); n = 31 uses 1.96.
        let base: Vec<f64> = (0..30).map(f64::from).collect();
        let s30 = Summary::from_slice(&base);
        assert!((s30.ci95_half_width() - 2.045 * s30.std_err()).abs() < 1e-12);
        let more: Vec<f64> = (0..31).map(f64::from).collect();
        let s31 = Summary::from_slice(&more);
        assert!((s31.ci95_half_width() - 1.96 * s31.std_err()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = Summary::from_slice(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_panics() {
        let _ = Summary::from_slice(&[1.0, f64::NAN]);
    }

    #[test]
    fn display_is_informative() {
        let s = Summary::from_slice(&[1.0, 2.0]);
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains('±'));
    }
}
