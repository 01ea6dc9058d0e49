//! Plain-text rendering of tables, bar charts and box plots, so the
//! experiment harness prints the same rows and series the paper's tables and
//! figures report — no plotting stack required.

use lgo_series::stats::BoxStats;

/// Renders a table with a header row and aligned columns.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
///
/// # Examples
///
/// ```
/// let t = lgo_eval::render::table(
///     &["patient", "recall"],
///     &[vec!["A_5".into(), "0.95".into()]],
/// );
/// assert!(t.contains("patient"));
/// assert!(t.contains("A_5"));
/// ```
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.len(), cols, "table: row {i} has {} cells for {cols} columns", r.len());
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: Vec<String>| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header.iter().map(|s| s.to_string()).collect()));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.clone()));
        out.push('\n');
    }
    out
}

/// Renders a horizontal bar chart of labelled values scaled to `width`
/// characters, with the numeric value printed after each bar.
///
/// Negative values are rendered as empty bars (the paper's figures are all
/// non-negative rates).
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn bar_chart(items: &[(String, f64)], width: usize) -> String {
    assert!(width > 0, "bar_chart: width must be positive");
    let max = items.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in items {
        let filled = if max > 0.0 {
            ((v / max) * width as f64).round().max(0.0) as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$} | {}{} {v:.4}\n",
            "#".repeat(filled.min(width)),
            " ".repeat(width - filled.min(width)),
        ));
    }
    out
}

/// Renders labelled box plots (min / Q1 / median / Q3 / max plus mean) in a
/// fixed character width — the textual analogue of the paper's Figures 7, 8
/// and 11, which report per-strategy distributions over test patients.
pub fn box_plot(items: &[(String, BoxStats)], width: usize) -> String {
    assert!(width > 2, "box_plot: width must exceed 2");
    let lo = items.iter().map(|(_, b)| b.min).fold(f64::INFINITY, f64::min);
    let hi = items
        .iter()
        .map(|(_, b)| b.max)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let pos = |v: f64| -> usize {
        (((v - lo) / span) * (width - 1) as f64).round().clamp(0.0, (width - 1) as f64) as usize
    };
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<label_w$}   range [{:.4}, {:.4}]\n",
        "", lo, hi
    ));
    for (label, b) in items {
        let mut line: Vec<char> = vec![' '; width];
        let (pmin, pq1, pmed, pq3, pmax) = (pos(b.min), pos(b.q1), pos(b.median), pos(b.q3), pos(b.max));
        for c in line.iter_mut().take(pmax + 1).skip(pmin) {
            *c = '-';
        }
        for c in line.iter_mut().take(pq3 + 1).skip(pq1) {
            *c = '=';
        }
        line[pmin] = '|';
        line[pmax] = '|';
        line[pmed] = 'M';
        out.push_str(&format!(
            "{label:<label_w$} [{}] med {:.4} mean {:.4}\n",
            line.into_iter().collect::<String>(),
            b.median,
            b.mean
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_content() {
        let t = table(
            &["name", "value"],
            &[
                vec!["longish-name".into(), "1".into()],
                vec!["x".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(t.contains("longish-name"));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn table_rejects_ragged_rows() {
        let _ = table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart(
            &[("full".into(), 1.0), ("half".into(), 0.5), ("zero".into(), 0.0)],
            10,
        );
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines[0].matches('#').count(), 10);
        assert_eq!(lines[1].matches('#').count(), 5);
        assert_eq!(lines[2].matches('#').count(), 0);
    }

    #[test]
    fn bar_chart_all_zero_is_safe() {
        let chart = bar_chart(&[("z".into(), 0.0)], 10);
        assert!(chart.contains("0.0000"));
    }

    #[test]
    fn box_plot_renders_markers() {
        let b = BoxStats::from_values(&[0.0, 0.25, 0.5, 0.75, 1.0]).unwrap();
        let p = box_plot(&[("s".into(), b)], 21);
        assert!(p.contains('M'));
        assert!(p.contains('='));
        assert!(p.contains("med 0.5000"));
    }
}
