//! Per-disk access counters and imbalance metrics.

use serde::{Deserialize, Serialize};

/// Access counts per physical disk, used to reproduce the paper's Figures
/// 6–7 (distribution of accesses across the 130/156 drives) and to quantify
/// how well an organization balances load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiskCounters {
    counts: Vec<u64>,
}

impl DiskCounters {
    pub fn new(disks: usize) -> DiskCounters {
        DiskCounters {
            counts: vec![0; disks],
        }
    }

    #[inline]
    pub fn add(&mut self, disk: usize, n: u64) {
        self.counts[disk] += n;
    }

    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn max(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    pub fn min(&self) -> u64 {
        self.counts.iter().copied().min().unwrap_or(0)
    }

    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.counts.len() as f64
        }
    }

    /// Coefficient of variation (σ/μ) of per-disk counts: 0 for a perfectly
    /// balanced array, larger for more skew. The headline metric when
    /// comparing Figure 6 (Base) against Figure 7 (RAID5).
    pub fn coefficient_of_variation(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.counts.len() as f64;
        var.sqrt() / mean
    }

    /// Peak-to-mean ratio: how hot the hottest disk runs relative to average.
    pub fn peak_to_mean(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.max() as f64 / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_array_has_zero_cv() {
        let mut c = DiskCounters::new(4);
        for d in 0..4 {
            c.add(d, 100);
        }
        assert_eq!(c.total(), 400);
        assert_eq!(c.coefficient_of_variation(), 0.0);
        assert_eq!(c.peak_to_mean(), 1.0);
    }

    #[test]
    fn skewed_array_metrics() {
        let mut c = DiskCounters::new(4);
        c.add(0, 700);
        c.add(1, 100);
        c.add(2, 100);
        c.add(3, 100);
        assert_eq!(c.mean(), 250.0);
        assert_eq!(c.max(), 700);
        assert_eq!(c.min(), 100);
        assert_eq!(c.peak_to_mean(), 2.8);
        assert!(c.coefficient_of_variation() > 1.0);
    }

    #[test]
    fn empty_counters() {
        let c = DiskCounters::new(0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.coefficient_of_variation(), 0.0);
        assert_eq!(c.peak_to_mean(), 0.0);
    }
}
