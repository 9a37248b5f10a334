//! Statistics helpers: running summaries, quantiles, and empirical CDFs.
//!
//! The analysis layer (crate `dropbox-analysis`) reports the same summary
//! statistics the paper does — medians, averages, and CDFs evaluated at the
//! paper's reference points. These helpers implement those primitives once.

use crate::json::{FromJson, Json, JsonError, ToJson};

/// Running univariate summary (count, mean, min, max, variance via Welford).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// New empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        // simlint: allow(float-merge) — span folds merge in canonical household order, so this reduction's order is fixed by construction; exactness is not required for Welford moments
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Order-insensitive f64 summation (Shewchuk's exact expansion, with
/// correctly-rounded readout à la `math.fsum`).
///
/// Naive `+=` accumulation makes the result depend on addition order,
/// which turns any merge-order perturbation into a digest change. This
/// accumulator instead maintains the *exact* real-valued sum as a list of
/// non-overlapping partials; [`OrderlessSum::value`] rounds that exact sum
/// to the nearest f64. Because the exact sum is a pure function of the
/// multiset of inputs, the rounded result is bit-identical under any
/// permutation of `add` calls and any tree of `merge` calls — which is
/// what the `float-merge` lint rule demands of reductions in merge paths.
#[derive(Clone, Debug, Default)]
pub struct OrderlessSum {
    /// Non-overlapping partials in increasing magnitude; their exact
    /// real sum is the accumulated total.
    partials: Vec<f64>,
}

impl OrderlessSum {
    /// New empty accumulator.
    pub fn new() -> Self {
        OrderlessSum {
            partials: Vec::new(),
        }
    }

    /// Add one value exactly (two-sum cascade over the partials).
    pub fn add(&mut self, x: f64) {
        let mut x = x;
        let mut i = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        self.partials.truncate(i);
        self.partials.push(x);
    }

    /// Merge another accumulator into this one. Exact, so the merge tree's
    /// shape cannot influence the final [`OrderlessSum::value`].
    pub fn merge(&mut self, other: &OrderlessSum) {
        for &p in &other.partials {
            self.add(p);
        }
    }

    /// The accumulated sum, rounded once to the nearest f64
    /// (round-half-even), independent of insertion and merge order.
    pub fn value(&self) -> f64 {
        let p = &self.partials;
        let Some(&last) = p.last() else {
            return 0.0;
        };
        let mut hi = last;
        let mut lo = 0.0;
        let mut i = p.len() - 1;
        while i > 0 {
            i -= 1;
            let x = hi;
            let y = p[i];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // Halfway case: nudge toward the next-lower partial's sign so the
        // single rounding matches the exact sum (fsum's correction step).
        if i > 0 && ((lo < 0.0 && p[i - 1] < 0.0) || (lo > 0.0 && p[i - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

/// Quantile of a sample using linear interpolation between order statistics
/// (the common "type 7" definition). `q` must be in `[0, 1]`.
/// Returns `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "quantile: input must be sorted"
    );
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median convenience wrapper over [`quantile`].
pub fn median(sorted: &[f64]) -> Option<f64> {
    quantile(sorted, 0.5)
}

/// An empirical CDF over `f64` samples.
///
/// Built once from a sample, then queried either as `F(x)` (fraction ≤ x) or
/// as the inverse `F⁻¹(q)`; it can also be dumped as `(x, F(x))` points for
/// plotting, with optional subsampling for large inputs.
///
/// ```
/// use simcore::stats::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.fraction_le(2.0), 0.5);
/// assert_eq!(e.quantile(1.0), Some(4.0));
/// ```
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::U64(self.n)),
            ("mean", Json::F64(self.mean)),
            ("m2", Json::F64(self.m2)),
            ("min", Json::F64(self.min)),
            ("max", Json::F64(self.max)),
            ("sum", Json::F64(self.sum)),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Summary {
            n: v.field("n")?,
            mean: v.field("mean")?,
            m2: v.field("m2")?,
            min: v.field("min")?,
            max: v.field("max")?,
            sum: v.field("sum")?,
        })
    }
}

impl ToJson for Ecdf {
    fn to_json(&self) -> Json {
        Json::obj([("sorted", self.sorted.to_json())])
    }
}

impl FromJson for Ecdf {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let sorted: Vec<f64> = v.field("sorted")?;
        if sorted.windows(2).any(|w| !(w[0] <= w[1])) {
            return Err(JsonError::new("Ecdf samples not sorted"));
        }
        Ok(Ecdf { sorted })
    }
}

impl Ecdf {
    /// Build from samples (NaNs are rejected).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "Ecdf: NaN in samples");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` (0 for an empty CDF).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Type-7 quantile (linear interpolation between order statistics),
    /// delegating to the free [`quantile`] function. The result is *not*
    /// necessarily an observed sample — between order statistics it
    /// interpolates, matching what the paper's plotting stack computes.
    /// Use [`Ecdf::inverse_cdf`] when an actual sample value is required.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.sorted, q)
    }

    /// True inverse CDF: the smallest *sample* `v` with `F(v) >= q`,
    /// where `F` counts duplicates (`F(sorted[i]) = (i+1)/n`). Unlike
    /// [`Ecdf::quantile`] this never interpolates, so the result is always
    /// a value that was actually observed.
    pub fn inverse_cdf(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "inverse_cdf out of range: {q}");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let i = ((q * n as f64).ceil() as usize)
            .saturating_sub(1)
            .min(n - 1);
        Some(self.sorted[i])
    }

    /// Arithmetic mean of the sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// `(x, F(x))` step points, subsampled to at most `max_points`.
    pub fn points(&self, max_points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        if n == 0 {
            return Vec::new();
        }
        // Ceiling division: a floor stride (`n / max_points`) collapses to
        // 1 whenever `max_points < n < 2*max_points` and emits all `n`
        // points, violating the "at most `max_points`" contract.
        let step = n.div_ceil(max_points.max(1));
        let mut out = Vec::with_capacity(n / step + 1);
        let mut i = step - 1;
        while i < n {
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(_, f)| f) != Some(1.0) {
            out.push((self.sorted[n - 1], 1.0));
        }
        out
    }

    /// Access the sorted samples.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

/// Fixed logarithmic binning, used for the scatter→envelope reductions of
/// Figs. 9–10 ("divide the x-axis in slots of equal sizes in log scale").
#[derive(Clone, Debug)]
pub struct LogBins {
    lo: f64,
    ratio: f64,
    n: usize,
}

impl LogBins {
    /// `n` bins covering `[lo, hi]` with logarithmically equal widths.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && n > 0, "LogBins: invalid parameters");
        LogBins {
            lo,
            ratio: (hi / lo).powf(1.0 / n as f64),
            n,
        }
    }

    /// Bin index for `x` (clamped to the edge bins).
    pub fn index(&self, x: f64) -> usize {
        if x <= self.lo {
            return 0;
        }
        let idx = (x / self.lo).ln() / self.ratio.ln();
        (idx as usize).min(self.n - 1)
    }

    /// Geometric midpoint of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo * self.ratio.powf(i as f64 + 0.5)
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: constructed with `n > 0`.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut whole = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.add(x);
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    /// Deterministic LCG for permutation tests (no external RNG, and the
    /// values exercise a wide magnitude range to make order matter for a
    /// naive `+=` reduction).
    fn lcg_values(n: usize) -> Vec<f64> {
        let mut state: u64 = 0x2545F4914F6CDD1D;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mag = (state >> 59) as i32 - 16;
                let frac = (state >> 11) as f64 / (1u64 << 53) as f64;
                (frac - 0.5) * 2f64.powi(mag * 4)
            })
            .collect()
    }

    #[test]
    fn orderless_sum_is_permutation_invariant() {
        let xs = lcg_values(200);
        let mut fwd = OrderlessSum::new();
        for &x in &xs {
            fwd.add(x);
        }
        let mut rev = OrderlessSum::new();
        for &x in xs.iter().rev() {
            rev.add(x);
        }
        // Strided interleave: a third, very different order.
        let mut strided = OrderlessSum::new();
        for start in 0..7 {
            for &x in xs.iter().skip(start).step_by(7) {
                strided.add(x);
            }
        }
        assert_eq!(fwd.value().to_bits(), rev.value().to_bits());
        assert_eq!(fwd.value().to_bits(), strided.value().to_bits());
        // Naive += over the same orders disagrees, demonstrating the
        // hazard this accumulator removes.
        let naive_fwd: f64 = xs.iter().sum();
        let naive_rev: f64 = xs.iter().rev().sum();
        assert_ne!(naive_fwd.to_bits(), naive_rev.to_bits());
    }

    #[test]
    fn orderless_sum_merge_tree_shape_is_irrelevant() {
        let xs = lcg_values(128);
        let mut whole = OrderlessSum::new();
        for &x in &xs {
            whole.add(x);
        }
        // Left-leaning merge of 8 shards vs pairwise tree merge.
        let shards: Vec<OrderlessSum> = xs
            .chunks(16)
            .map(|c| {
                let mut s = OrderlessSum::new();
                for &x in c {
                    s.add(x);
                }
                s
            })
            .collect();
        let mut linear = OrderlessSum::new();
        for s in &shards {
            linear.merge(s);
        }
        let mut level: Vec<OrderlessSum> = shards.clone();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    m
                })
                .collect();
        }
        assert_eq!(whole.value().to_bits(), linear.value().to_bits());
        assert_eq!(whole.value().to_bits(), level[0].value().to_bits());
        // Reversed shard order too.
        let mut rev = OrderlessSum::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(whole.value().to_bits(), rev.value().to_bits());
    }

    #[test]
    fn orderless_sum_is_exact_on_cancellation() {
        let mut s = OrderlessSum::new();
        for &x in &[1e100, 1.0, -1e100] {
            s.add(x);
        }
        assert_eq!(s.value(), 1.0);
        let naive = 1e100 + 1.0 + -1e100;
        assert_eq!(naive, 0.0, "naive accumulation loses the 1.0");
        assert_eq!(OrderlessSum::new().value(), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn ecdf_fractions() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((e.fraction_le(3.0) - 0.6).abs() < 1e-12);
        assert_eq!(e.fraction_le(0.5), 0.0);
        assert_eq!(e.fraction_le(10.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(3.0));
    }

    #[test]
    fn ecdf_points_end_at_one() {
        let e = Ecdf::new((0..1000).map(|i| i as f64).collect());
        let pts = e.points(50);
        assert!(pts.len() <= 50);
        assert_eq!(pts.last().unwrap().1, 1.0);
        // Monotone in both coordinates.
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn ecdf_points_never_exceed_max_points() {
        // Regression: the floor stride emitted all n points whenever
        // max_points < n < 2*max_points (n=150, max=100 gave 150 points).
        for max_points in [1usize, 2, 3, 7, 100] {
            for n in [
                1usize,
                max_points.saturating_sub(1).max(1),
                max_points,
                max_points + 1,
                max_points + max_points / 2 + 1,
                2 * max_points - 1,
                2 * max_points,
                2 * max_points + 1,
                3 * max_points + 1,
            ] {
                let e = Ecdf::new((0..n).map(|i| i as f64).collect());
                let pts = e.points(max_points);
                assert!(
                    pts.len() <= max_points,
                    "n={n} max_points={max_points}: {} points",
                    pts.len()
                );
                assert_eq!(pts.last().unwrap().1, 1.0, "n={n} max={max_points}");
                for w in pts.windows(2) {
                    assert!(w[0].0 <= w[1].0);
                    assert!(w[0].1 < w[1].1);
                }
            }
        }
        // max_points == 0 is clamped to 1 rather than panicking.
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(e.points(0).len(), 1);
    }

    #[test]
    fn inverse_cdf_returns_smallest_sample_reaching_q() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
        // F(1)=0.25, F(2)=0.75, F(4)=1.0.
        assert_eq!(e.inverse_cdf(0.0), Some(1.0));
        assert_eq!(e.inverse_cdf(0.25), Some(1.0));
        assert_eq!(e.inverse_cdf(0.26), Some(2.0));
        assert_eq!(e.inverse_cdf(0.75), Some(2.0));
        assert_eq!(e.inverse_cdf(0.76), Some(4.0));
        assert_eq!(e.inverse_cdf(1.0), Some(4.0));
        assert_eq!(Ecdf::new(Vec::new()).inverse_cdf(0.5), None);
        // Unlike type-7 interpolation, the result is always a sample.
        let samples = [1.0, 2.0, 4.0];
        for q in [0.1, 0.33, 0.5, 0.9] {
            let v = e.inverse_cdf(q).unwrap();
            assert!(samples.contains(&v), "q={q}: {v} is not a sample");
        }
        // The interpolating quantile is not: its median here is 2.0 but
        // e.g. q=0.9 lands between samples.
        assert!(!samples.contains(&e.quantile(0.9).unwrap()));
    }

    #[test]
    fn summary_and_ecdf_json_round_trip() {
        let mut s = Summary::new();
        for x in [1.5, 2.5, 10.0] {
            s.add(x);
        }
        let back: Summary = crate::json::from_str(&crate::json::to_string(&s)).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean(), s.mean());
        assert_eq!(back.min(), s.min());
        assert_eq!(back.max(), s.max());

        let e = Ecdf::new(vec![3.0, 1.0, 2.0]);
        let back: Ecdf = crate::json::from_str(&crate::json::to_string(&e)).unwrap();
        assert_eq!(back.sorted(), e.sorted());
        assert!(crate::json::from_str::<Ecdf>(r#"{"sorted":[2.0,1.0]}"#).is_err());
    }

    #[test]
    fn log_bins_cover_range() {
        let b = LogBins::new(1.0, 1024.0, 10);
        assert_eq!(b.index(0.5), 0);
        assert_eq!(b.index(1.0), 0);
        assert_eq!(b.index(2000.0), 9);
        // Centers grow geometrically.
        assert!(b.center(5) / b.center(4) > 1.0);
    }
}
