//! Plain-text table output for the reports.

/// Render a titled, aligned table. `rows` are already formatted cells.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<&str>| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let mut out = format!("\n## {title}\n\n");
    out += &line(headers.to_vec());
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    out += "\n";
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Format a microsecond value the way the paper's log plots read.
pub fn us(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a ratio.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.3}", a / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(us(3.141_25), "3.14");
        assert_eq!(us(1234.5), "1234.5");
        assert_eq!(ratio(3.0, 2.0), "1.500");
    }

    #[test]
    fn table_layout() {
        let rows = [vec!["1".to_string(), "22.50".to_string()]];
        assert_eq!(
            render_table("T", &["elems", "t"], &rows),
            "\n## T\n\nelems      t\n------------\n    1  22.50\n"
        );
    }
}
