//! ASCII bar and line charts for the figures.

/// One bar of a bar chart (optionally stacked into labeled segments).
#[derive(Debug, Clone)]
pub struct BarRow {
    /// Bar label.
    pub label: String,
    /// Segments: (glyph, value). A single-segment bar is a plain bar.
    pub segments: Vec<(char, f64)>,
}

impl BarRow {
    /// A single-segment bar.
    pub fn simple(label: &str, value: f64) -> BarRow {
        BarRow { label: label.to_string(), segments: vec![('#', value)] }
    }

    /// Total bar value.
    pub fn total(&self) -> f64 {
        self.segments.iter().map(|&(_, v)| v).sum()
    }
}

/// Render a horizontal (optionally stacked) bar chart.
///
/// `max_value` of `None` auto-scales to the largest bar; `width` is the
/// character width of a full-scale bar.
pub fn bar_chart(title: &str, rows: &[BarRow], width: usize, max_value: Option<f64>) -> String {
    let maxv =
        max_value.unwrap_or_else(|| rows.iter().map(|r| r.total()).fold(0.0, f64::max)).max(1e-300);
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:label_w$} |", r.label));
        let mut drawn = 0usize;
        let mut cum = 0.0;
        for &(glyph, v) in &r.segments {
            cum += v;
            let target = ((cum / maxv) * width as f64).round() as usize;
            let target = target.min(width);
            for _ in drawn..target {
                out.push(glyph);
            }
            drawn = drawn.max(target);
        }
        out.push_str(&format!("  {:.4}\n", r.total()));
    }
    out
}

/// One series of a line chart.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label.
    pub label: String,
    /// Plot glyph.
    pub glyph: char,
    /// (x, y) points, x ascending.
    pub points: Vec<(f64, f64)>,
}

/// Render an ASCII line chart of one or more series on a shared grid.
pub fn line_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() || width == 0 || height == 0 {
        out.push_str("(no data)\n");
        return out;
    }
    let (xmin, xmax) =
        all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| (lo.min(x), hi.max(x)));
    let (ymin, ymax) =
        all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| (lo.min(y), hi.max(y)));
    let xspan = (xmax - xmin).max(1e-300);
    let yspan = (ymax - ymin).max(1e-300);
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in &s.points {
            let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row;
            grid[row][col.min(width - 1)] = s.glyph;
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let yval = ymax - yspan * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{yval:9.1} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:9} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!("{:10}{:<12.2}{:>w$.2}\n", "", xmin, xmax, w = width - 12));
    for s in series {
        out.push_str(&format!("  {} = {}\n", s.glyph, s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_chart_scales() {
        let rows = vec![BarRow::simple("a", 1.0), BarRow::simple("bb", 2.0)];
        let c = bar_chart("demo", &rows, 10, None);
        assert!(c.contains("a  |#####"));
        assert!(c.contains("bb |##########"));
    }

    #[test]
    fn stacked_bars_draw_segments() {
        let rows = vec![BarRow { label: "x".into(), segments: vec![('G', 0.5), ('o', 0.5)] }];
        let c = bar_chart("s", &rows, 8, Some(1.0));
        assert!(c.contains("GGGGoooo"), "got: {c}");
    }

    #[test]
    fn line_chart_draws_points() {
        let s = Series {
            label: "pow".into(),
            glyph: '*',
            points: (0..20).map(|i| (i as f64, (i * i) as f64)).collect(),
        };
        let c = line_chart("p", &[s], 40, 10);
        assert!(c.contains('*'));
        assert!(c.contains("* = pow"));
    }

    #[test]
    fn empty_chart_safe() {
        let c = line_chart("e", &[], 10, 5);
        assert!(c.contains("(no data)"));
        let b = bar_chart("b", &[], 10, None);
        assert!(b.starts_with("b\n"));
    }
}
