//! File-popularity analysis.
//!
//! EEVFS derives popularity "based on the number of accesses over a given
//! period of time" from its append-only request log (§IV-B) and uses the
//! ranking twice: the storage server places files across storage nodes in
//! popularity round-robin order (§III-B), and the prefetcher copies the
//! top-K files into buffer disks. [`PopularityTable`] is that ranking.

use crate::record::{FileId, Trace};
use serde::{Deserialize, Serialize};

/// Access counts and the derived popularity ranking for one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopularityTable {
    counts: Vec<u64>,
    /// File ids sorted by descending access count; ties break by ascending
    /// id so the ranking is total and deterministic.
    ranked: Vec<FileId>,
}

impl PopularityTable {
    /// Builds the table from a trace (every file in the population gets a
    /// rank, including never-accessed files, which sort last).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut counts = vec![0u64; trace.file_count()];
        for r in &trace.records {
            counts[r.file.index()] += 1;
        }
        Self::from_counts(counts)
    }

    /// Builds the table from raw per-file access counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let mut ranked: Vec<FileId> = (0..counts.len() as u32).map(FileId).collect();
        ranked.sort_by(|a, b| {
            counts[b.index()]
                .cmp(&counts[a.index()])
                .then(a.0.cmp(&b.0))
        });
        PopularityTable { counts, ranked }
    }

    /// Number of files covered.
    pub fn file_count(&self) -> usize {
        self.counts.len()
    }

    /// Access count of a file.
    pub fn count(&self, file: FileId) -> u64 {
        self.counts[file.index()]
    }

    /// Files by descending popularity.
    pub fn ranked(&self) -> &[FileId] {
        &self.ranked
    }

    /// The `k` most popular files (fewer when the population is smaller).
    pub fn top_k(&self, k: usize) -> &[FileId] {
        &self.ranked[..k.min(self.ranked.len())]
    }

    /// Fraction of all accesses that land on the `k` most popular files —
    /// the quantity that decides how much a K-file prefetch can absorb.
    pub fn coverage_of_top_k(&self, k: usize) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = self.top_k(k).iter().map(|f| self.counts[f.index()]).sum();
        covered as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Op, TraceRecord};
    use sim_core::SimTime;

    fn trace_with_counts(counts: &[u64]) -> Trace {
        let file_sizes = vec![100u64; counts.len()];
        let mut records = Vec::new();
        let mut t = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                records.push(TraceRecord {
                    at: SimTime::from_millis(t),
                    file: FileId(i as u32),
                    op: Op::Read,
                    size: 100,
                });
                t += 1;
            }
        }
        Trace {
            file_sizes: std::sync::Arc::new(file_sizes),
            records,
        }
    }

    #[test]
    fn ranking_descends_by_count() {
        let t = trace_with_counts(&[3, 9, 1, 9, 0]);
        let p = PopularityTable::from_trace(&t);
        // Counts: f1=9, f3=9, f0=3, f2=1, f4=0; ties break by id.
        assert_eq!(
            p.ranked(),
            &[FileId(1), FileId(3), FileId(0), FileId(2), FileId(4)]
        );
        assert_eq!(p.count(FileId(1)), 9);
        assert_eq!(p.count(FileId(4)), 0);
    }

    #[test]
    fn top_k_clamps() {
        let p = PopularityTable::from_trace(&trace_with_counts(&[1, 2]));
        assert_eq!(p.top_k(10).len(), 2);
        assert_eq!(p.top_k(1), &[FileId(1)]);
        assert_eq!(p.top_k(0).len(), 0);
    }

    #[test]
    fn coverage_math() {
        let p = PopularityTable::from_trace(&trace_with_counts(&[6, 3, 1]));
        assert!((p.coverage_of_top_k(1) - 0.6).abs() < 1e-12);
        assert!((p.coverage_of_top_k(2) - 0.9).abs() < 1e-12);
        assert!((p.coverage_of_top_k(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_coverage_is_zero() {
        let t = Trace {
            file_sizes: std::sync::Arc::new(vec![10; 3]),
            records: vec![],
        };
        let p = PopularityTable::from_trace(&t);
        assert_eq!(p.coverage_of_top_k(2), 0.0);
        // Ranking still total: all files present, ordered by id.
        assert_eq!(p.ranked().len(), 3);
        assert_eq!(p.ranked()[0], FileId(0));
    }

    #[test]
    fn from_counts_matches_from_trace() {
        let t = trace_with_counts(&[2, 5, 0, 1]);
        let a = PopularityTable::from_trace(&t);
        let b = PopularityTable::from_counts(vec![2, 5, 0, 1]);
        assert_eq!(a, b);
    }
}
