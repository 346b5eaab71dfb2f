//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a timing sample: the highest order statistic with at
/// least ten samples beyond it (the maximum when there are ten or fewer
/// samples, so a short run still reports its worst case). Returned with
/// the sample count it was drawn from.
pub fn tail(xs: &[f64]) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let s = sorted(xs);
    let n = s.len();
    let at = if n > 10 { n - 11 } else { n - 1 };
    (s[at], n)
}

/// Timing samples grouped by the round of the measured window they were
/// taken in.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Index in `values` where each round starts.
    round_starts: Vec<usize>,
}

impl Samples {
    pub fn new_round(&mut self) {
        self.round_starts.push(self.values.len());
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn all(&self) -> &[f64] {
        &self.values
    }

    /// The lowest per-round median: the median of the round the host
    /// disturbed least. On a shared host, stolen CPU time slows whole
    /// stretches of a run; the median of the calmest round moves far less
    /// from run to run than the median of all samples (0 when empty).
    pub fn best_round_median(&self) -> f64 {
        let ends = self
            .round_starts
            .iter()
            .skip(1)
            .copied()
            .chain([self.values.len()]);
        self.round_starts
            .iter()
            .zip(ends)
            .filter(|(s, e)| e > *s)
            .map(|(&s, e)| median(&self.values[s..e]))
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, n) = tail(&xs);
        assert_eq!(n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t).count(), 10);
        assert_eq!(tail(&[5.0, 9.0, 7.0]), (9.0, 3));
    }

    #[test]
    fn best_round_median_takes_the_calmest_round() {
        let mut s = Samples::default();
        s.new_round();
        [10.0, 12.0, 30.0].iter().for_each(|&v| s.push(v));
        s.new_round();
        s.new_round();
        [8.0, 20.0, 9.0].iter().for_each(|&v| s.push(v));
        assert_eq!(s.best_round_median(), 9.0);
        assert_eq!(s.all().len(), 6);
        assert_eq!(Samples::default().best_round_median(), 0.0);
    }
}
