//! Base (independent disks) and Mirror mappings.

use super::{push_merged, Run};

/// Independent disks: logical disk `k` of the array *is* physical disk `k`.
#[derive(Clone, Debug)]
pub struct BaseMap {
    pub n: u32,
    pub blocks_per_disk: u64,
}

impl BaseMap {
    pub fn new(n: u32, blocks_per_disk: u64) -> BaseMap {
        BaseMap { n, blocks_per_disk }
    }

    /// Append the physical runs of `[laddr, laddr + n)` to `runs` (split
    /// at disk boundaries).
    pub fn runs_into(&self, laddr: u64, n: u32, runs: &mut Vec<Run>) {
        let from = runs.len();
        for a in laddr..laddr + n as u64 {
            let disk = (a / self.blocks_per_disk) as u32;
            debug_assert!(disk < self.n);
            push_merged(runs, from, disk, a % self.blocks_per_disk);
        }
    }
}

/// Mirrored pairs: logical disk `k` lives on physical disks `2k` (primary)
/// and `2k + 1` (copy) at identical offsets.
#[derive(Clone, Debug)]
pub struct MirrorMap {
    pub n: u32,
    pub blocks_per_disk: u64,
}

impl MirrorMap {
    pub fn new(n: u32, blocks_per_disk: u64) -> MirrorMap {
        MirrorMap { n, blocks_per_disk }
    }

    /// Append the primary-copy runs of `[laddr, laddr + n)` to `runs`.
    pub fn runs_into(&self, laddr: u64, n: u32, runs: &mut Vec<Run>) {
        let from = runs.len();
        for a in laddr..laddr + n as u64 {
            let disk = 2 * (a / self.blocks_per_disk) as u32;
            debug_assert!(disk < 2 * self.n);
            push_merged(runs, from, disk, a % self.blocks_per_disk);
        }
    }

    /// The other member of the pair at the same offset.
    pub fn mirror_of(&self, run: Run) -> Run {
        Run {
            disk: run.disk ^ 1,
            ..run
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BaseMap {
        fn runs(&self, laddr: u64, n: u32) -> Vec<Run> {
            let mut runs = Vec::new();
            self.runs_into(laddr, n, &mut runs);
            runs
        }
    }

    impl MirrorMap {
        fn runs(&self, laddr: u64, n: u32) -> Vec<Run> {
            let mut runs = Vec::new();
            self.runs_into(laddr, n, &mut runs);
            runs
        }
    }

    #[test]
    fn base_identity_mapping() {
        let m = BaseMap::new(4, 1000);
        assert_eq!(
            m.runs(0, 1),
            vec![Run {
                disk: 0,
                block: 0,
                nblocks: 1
            }]
        );
        assert_eq!(
            m.runs(3999, 1),
            vec![Run {
                disk: 3,
                block: 999,
                nblocks: 1
            }]
        );
        assert_eq!(
            m.runs(1500, 8),
            vec![Run {
                disk: 1,
                block: 500,
                nblocks: 8
            }]
        );
    }

    #[test]
    fn base_run_splits_at_disk_boundary() {
        let m = BaseMap::new(4, 1000);
        assert_eq!(
            m.runs(998, 4),
            vec![
                Run {
                    disk: 0,
                    block: 998,
                    nblocks: 2
                },
                Run {
                    disk: 1,
                    block: 0,
                    nblocks: 2
                },
            ]
        );
    }

    #[test]
    fn mirror_primary_and_copy() {
        let m = MirrorMap::new(4, 1000);
        let runs = m.runs(2500, 2);
        assert_eq!(
            runs,
            vec![Run {
                disk: 4,
                block: 500,
                nblocks: 2
            }]
        );
        assert_eq!(
            m.mirror_of(runs[0]),
            Run {
                disk: 5,
                block: 500,
                nblocks: 2
            }
        );
        // mirror_of is an involution.
        assert_eq!(m.mirror_of(m.mirror_of(runs[0])), runs[0]);
    }
}
