//! Masked K-nearest-neighbour kernels.
//!
//! The fingerprint fallback (`bloc_core::fallback`) matches a live,
//! possibly hole-ridden feature vector against an offline database. The
//! query therefore carries a **mask**: only dimensions that survived the
//! sounding participate in the distance, so a degraded query is compared
//! on exactly the evidence it still has (an RMS over the surviving
//! dimensions keeps distances comparable across different mask sizes).
//!
//! Distances are pure per-row functions, and the selection sort is fully
//! deterministic: ties break on `(distance, row index)` via `total_cmp`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// One ranked database row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the database.
    pub index: usize,
    /// Masked RMS distance to the query.
    pub dist: f64,
}

/// Masked RMS distance between `query` and one database `row`: the root
/// mean square of `query[d] - row[d]` over the dimensions where
/// `mask[d]` is true. Returns `None` when no dimension survives (an
/// all-masked query matches nothing). Slices must share one length.
pub(crate) fn masked_rms_distance(query: &[f64], mask: &[bool], row: &[f64]) -> Option<f64> {
    debug_assert_eq!(query.len(), mask.len());
    debug_assert_eq!(query.len(), row.len());
    let mut sum = 0.0;
    let mut n = 0usize;
    for ((&q, &m), &r) in query.iter().zip(mask).zip(row) {
        if m {
            let d = q - r;
            sum += d * d;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some((sum / n as f64).sqrt())
    }
}

/// The `k` nearest rows of a flat row-major feature matrix (`rows.len()`
/// must be a multiple of `dims`) to `query` under the masked RMS
/// distance, nearest first. `k` is clamped to the number of rows; ties
/// and NaN-free ordering are deterministic (`total_cmp`, then row
/// index).
///
/// Returns an empty vector when the matrix is empty, `k == 0`, or the
/// mask blanks every dimension — callers decide whether that is a typed
/// error.
pub fn k_nearest(
    query: &[f64],
    mask: &[bool],
    rows: &[f64],
    dims: usize,
    k: usize,
) -> Vec<Neighbor> {
    assert!(dims > 0, "feature dimensionality must be positive");
    assert_eq!(
        rows.len() % dims,
        0,
        "feature matrix length must be a multiple of dims"
    );
    assert_eq!(query.len(), dims, "query length must equal dims");
    assert_eq!(mask.len(), dims, "mask length must equal dims");
    let n_rows = rows.len() / dims;
    if n_rows == 0 || k == 0 {
        return Vec::new();
    }

    let mut ranked: Vec<Neighbor> = rows
        .chunks_exact(dims)
        .enumerate()
        .filter_map(|(index, row)| {
            masked_rms_distance(query, mask, row).map(|dist| Neighbor { index, dist })
        })
        .collect();
    ranked.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.index.cmp(&b.index)));
    ranked.truncate(k.min(n_rows));
    ranked
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn full_mask_matches_euclidean_rms() {
        let rows = [0.0, 0.0, 3.0, 4.0, 1.0, 1.0];
        let got = k_nearest(&[0.0, 0.0], &[true, true], &rows, 2, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].index, 0);
        assert_eq!(got[1].index, 2);
        assert_eq!(got[2].index, 1);
        assert!((got[2].dist - (25.0f64 / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mask_excludes_dimensions() {
        // Row 1 is far on dim 0 but identical on dim 1.
        let rows = [0.0, 5.0, 100.0, 5.0];
        let got = k_nearest(&[0.0, 5.0], &[false, true], &rows, 2, 2);
        assert_eq!(got[0].dist, 0.0);
        assert_eq!(got[1].dist, 0.0, "masked dim must not contribute");
    }

    #[test]
    fn all_masked_query_returns_empty() {
        let rows = [1.0, 2.0];
        assert!(k_nearest(&[0.0, 0.0], &[false, false], &rows, 2, 1).is_empty());
    }

    #[test]
    fn k_clamps_to_database_size() {
        let rows = [1.0, 2.0];
        assert_eq!(k_nearest(&[0.0, 0.0], &[true, true], &rows, 2, 99).len(), 1);
    }

    #[test]
    fn empty_database_returns_empty() {
        assert!(k_nearest(&[0.0], &[true], &[], 1, 3).is_empty());
    }

    #[test]
    fn duplicate_rows_tie_break_on_index() {
        let rows = [7.0, 7.0, 7.0];
        let got = k_nearest(&[7.0], &[true], &rows, 1, 3);
        assert_eq!(
            got.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
