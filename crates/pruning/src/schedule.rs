//! Compression-rate targets and arithmetic (Table I's rate columns).
//!
//! Table I specifies each BSP point as a *(column compression rate, row
//! compression rate)* pair — e.g. `16× columns, 2× rows ⇒ 29× overall` after
//! the rounding the paper reports. [`CompressionTarget`] carries that pair,
//! converts it to the keep-ratios the projections consume, and predicts the
//! overall rate; [`table1_targets`] lists the exact sweep of the paper.

/// A `(column, row)` compression-rate pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionTarget {
    /// Column compression rate (`Numc` selection keeps `1/col_rate` of the
    /// columns in each block). `1.0` means no column pruning.
    pub col_rate: f64,
    /// Row compression rate (`1/row_rate` of rows survive). `1.0` = none.
    pub row_rate: f64,
}

impl CompressionTarget {
    /// Creates a target.
    ///
    /// # Panics
    ///
    /// Panics if either rate is below 1.0.
    pub fn new(col_rate: f64, row_rate: f64) -> CompressionTarget {
        assert!(col_rate >= 1.0 && row_rate >= 1.0, "rates must be >= 1");
        CompressionTarget { col_rate, row_rate }
    }

    /// The dense (identity) target.
    pub fn dense() -> CompressionTarget {
        CompressionTarget::new(1.0, 1.0)
    }

    /// Fraction of columns kept per block.
    pub fn col_keep_ratio(&self) -> f64 {
        1.0 / self.col_rate
    }

    /// Fraction of rows kept.
    pub fn row_keep_ratio(&self) -> f64 {
        1.0 / self.row_rate
    }

    /// Nominal overall compression rate (`col × row`); the achieved rate
    /// differs slightly through per-block rounding, exactly as Table I's
    /// pairs do (16×2 → 29×, not 32×).
    pub fn nominal_overall(&self) -> f64 {
        self.col_rate * self.row_rate
    }

    /// Whether this is the dense baseline.
    pub fn is_dense(&self) -> bool {
        self.col_rate == 1.0 && self.row_rate == 1.0
    }
}

impl Default for CompressionTarget {
    fn default() -> CompressionTarget {
        CompressionTarget::dense()
    }
}

/// One row of Table I for the BSP sweep: the target pair and the overall
/// rate the paper reports for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Point {
    /// Column/row target.
    pub target: CompressionTarget,
    /// Overall compression rate as printed in Table I.
    pub paper_overall: f64,
    /// Parameters preserved, in millions, as printed in Table I.
    pub paper_params_m: f64,
    /// PER degradation (percentage points) as printed in Table I.
    pub paper_per_degradation: f64,
}

/// The ten BSP rows of Table I, in order.
pub fn table1_targets() -> Vec<Table1Point> {
    let p = |col: f64, row: f64, overall: f64, params: f64, degr: f64| Table1Point {
        target: CompressionTarget::new(col, row),
        paper_overall: overall,
        paper_params_m: params,
        paper_per_degradation: degr,
    };
    vec![
        p(1.0, 1.0, 1.0, 9.6, 0.0),
        p(10.0, 1.0, 10.0, 0.96, 0.0),
        p(16.0, 1.25, 19.0, 0.48, 0.60),
        p(16.0, 2.0, 29.0, 0.33, 0.80),
        p(16.0, 5.0, 43.0, 0.22, 1.80),
        p(20.0, 8.0, 80.0, 0.12, 2.70),
        p(16.0, 16.0, 103.0, 0.09, 4.40),
        p(20.0, 10.0, 153.0, 0.06, 5.40),
        p(20.0, 16.0, 245.0, 0.04, 5.40),
        p(20.0, 20.0, 301.0, 0.03, 6.70),
    ]
}

/// The compression rates of the Table II / Figure 4 performance sweep.
pub fn table2_rates() -> Vec<f64> {
    vec![
        1.0, 10.0, 19.0, 29.0, 43.0, 80.0, 103.0, 153.0, 245.0, 301.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_arithmetic() {
        let t = CompressionTarget::new(16.0, 2.0);
        assert!((t.col_keep_ratio() - 0.0625).abs() < 1e-12);
        assert!((t.row_keep_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(t.nominal_overall(), 32.0);
        assert!(!t.is_dense());
    }

    #[test]
    fn dense_target() {
        let d = CompressionTarget::dense();
        assert!(d.is_dense());
        assert_eq!(d.nominal_overall(), 1.0);
        assert_eq!(CompressionTarget::default(), d);
    }

    #[test]
    #[should_panic(expected = "rates must be >= 1")]
    fn sub_unit_rate_rejected() {
        CompressionTarget::new(0.5, 1.0);
    }

    #[test]
    fn table1_has_ten_bsp_rows() {
        let rows = table1_targets();
        assert_eq!(rows.len(), 10);
        assert!(rows[0].target.is_dense());
        assert_eq!(rows[9].paper_overall, 301.0);
        // Overall rates strictly increase down the table.
        for w in rows.windows(2) {
            assert!(w[1].paper_overall > w[0].paper_overall);
        }
        // PER degradation is non-decreasing down the table.
        for w in rows.windows(2) {
            assert!(w[1].paper_per_degradation >= w[0].paper_per_degradation);
        }
    }

    #[test]
    fn nominal_bounds_paper_overall() {
        // The paper's reported overall rate is the *achieved* rate, which
        // per-block keep-count rounding keeps below the nominal col×row
        // product (e.g. 16×16 blocks still keep ≥1 column each → 103× not
        // 256×). It never exceeds the nominal and stays within ~3× of it.
        for row in table1_targets().iter().skip(1) {
            let nominal = row.target.nominal_overall();
            assert!(
                row.paper_overall >= nominal * 0.35 && row.paper_overall <= nominal * 1.05,
                "paper {} vs nominal {}",
                row.paper_overall,
                nominal
            );
        }
    }

    #[test]
    fn table2_matches_table1_rates() {
        let t2 = table2_rates();
        let t1: Vec<f64> = table1_targets().iter().map(|p| p.paper_overall).collect();
        assert_eq!(t2, t1);
    }
}
