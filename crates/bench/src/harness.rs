//! Table printing and sweep utilities shared by the fig* binaries.

/// The target-compression-ratio sweep used on the x-axis of Figures 7–11
/// (1.0 → 0.05, the paper's plotted range).
pub fn ratio_sweep() -> Vec<f64> {
    vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05]
}

/// One method's values across a sweep; `None` marks "method fails here"
/// (infeasible ratio, budget breach, ...), rendered as `fail`.
#[derive(Debug, Clone)]
pub struct MethodSeries {
    /// Legend label.
    pub name: String,
    /// One value per sweep point.
    pub values: Vec<Option<f64>>,
}

impl MethodSeries {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Append a data point.
    pub fn push(&mut self, v: Option<f64>) {
        self.values.push(v);
    }
}

fn fmt_value(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) if x.abs() < 1e-3 && x != 0.0 => format!("{x:.2e}"),
        Some(x) => format!("{x:.precision$}"),
        None => "fail".to_string(),
    }
}

/// Print a figure as an ASCII table: rows are sweep points, columns are
/// methods. `x_label` heads the first column.
pub fn print_table(
    title: &str,
    x_label: &str,
    xs: &[f64],
    series: &[MethodSeries],
    precision: usize,
) {
    println!("\n=== {title} ===");
    let mut header = format!("{x_label:>10}");
    for s in series {
        header.push_str(&format!(" {:>14}", truncate(&s.name, 14)));
    }
    println!("{header}");
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("{x:>10.3}");
        for s in series {
            let v = s.values.get(i).copied().flatten();
            row.push_str(&format!(" {:>14}", fmt_value(v, precision)));
        }
        println!("{row}");
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s[..n].to_string()
    }
}

/// Mean of a slice (0.0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a slice, sorting it in place (the mean of the two middle
/// values for an even count). Panics on NaN or an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Sample standard deviation (n-1 denominator; 0 for fewer than two
/// samples).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_descending_in_range() {
        let sweep = ratio_sweep();
        assert!(sweep.windows(2).all(|w| w[0] > w[1]));
        assert!(*sweep.first().unwrap() <= 1.0);
        assert!(*sweep.last().unwrap() >= 0.01);
    }

    #[test]
    fn series_building() {
        let mut s = MethodSeries::new("mab");
        s.push(Some(0.5));
        s.push(None);
        assert_eq!(s.values, vec![Some(0.5), None]);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(None, 3), "fail");
        assert_eq!(fmt_value(Some(0.25), 3), "0.250");
        assert!(fmt_value(Some(1.5e-9), 3).contains('e'));
    }

    #[test]
    fn mean_math() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_and_stddev_math() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[1.0, 3.0]), 2f64.sqrt());
    }
}
