//! Row-segment bookkeeping for batched multi-graph tensors.
//!
//! A batch of B graphs is packed into one tall matrix; [`Segments`] records
//! where each graph's rows start and end so per-graph stages — pooling,
//! softmax, gradient reduction — can walk the stacked matrix segment by
//! segment in a fixed order. That fixed order is what makes the batched
//! backward pass deterministic (see DESIGN.md §10).

use std::ops::Range;

/// Half-open row ranges `[offsets[i], offsets[i+1])`, one per graph in a
/// batch. Offsets are monotone non-decreasing and start at zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    offsets: Vec<usize>,
}

impl Segments {
    /// Builds segments from per-graph row counts.
    pub fn from_lens(lens: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        offsets.push(0);
        let mut total = 0usize;
        for &len in lens {
            total += len;
            offsets.push(total);
        }
        Segments { offsets }
    }

    /// Builds segments from an offsets vector (`[0, n_0, n_0+n_1, ...]`).
    ///
    /// # Panics
    ///
    /// Panics unless the offsets start at 0 and are monotone non-decreasing.
    pub fn from_offsets(offsets: Vec<usize>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "segment offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "segment offsets must be monotone non-decreasing"
        );
        Segments { offsets }
    }

    /// `count` segments of one row each (a batch of scalars-per-graph,
    /// e.g. the prediction head's output rows).
    pub fn units(count: usize) -> Self {
        Segments {
            offsets: (0..=count).collect(),
        }
    }

    /// Number of segments (graphs in the batch).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no segments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of rows covered.
    pub fn total_rows(&self) -> usize {
        *self.offsets.last().expect("offsets are never empty")
    }

    /// The half-open row range of segment `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Iterates the row ranges in segment order.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.offsets.windows(2).map(|w| w[0]..w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lens_round_trips() {
        let s = Segments::from_lens(&[3, 1, 4]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_rows(), 8);
        assert_eq!(s.range(0), 0..3);
        assert_eq!(s.range(1), 3..4);
        assert_eq!(s.range(2), 4..8);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0..3, 3..4, 4..8]);
    }

    #[test]
    fn units_are_single_rows() {
        let s = Segments::units(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.total_rows(), 4);
        assert!(s.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn empty_batch_is_representable() {
        let s = Segments::from_lens(&[]);
        assert!(s.is_empty());
        assert_eq!(s.total_rows(), 0);
    }

    #[test]
    fn zero_length_segments_are_allowed() {
        let s = Segments::from_lens(&[2, 0, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.range(1), 2..2);
        assert_eq!(s.total_rows(), 3);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn decreasing_offsets_are_rejected() {
        let _ = Segments::from_offsets(vec![0, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn offsets_must_start_at_zero() {
        let _ = Segments::from_offsets(vec![1, 2]);
    }
}
