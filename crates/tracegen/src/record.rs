//! Trace records and the in-memory trace container.

use serde::{Deserialize, Serialize};
use simkit::SimTime;

/// Direction of an I/O request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessType {
    Read,
    Write,
}

/// One I/O request against the *logical* database: a run of `nblocks`
/// consecutive blocks on one logical disk.
///
/// The paper's trace entries carry the absolute block address, the access
/// type, and the time since the previous request (zero inside a multiblock
/// request). We store multiblock requests as a single record with an
/// absolute arrival time; the text format in [`crate::fmt`] round-trips the
/// original zero-gap representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Absolute arrival time of the request.
    pub at: SimTime,
    /// Logical disk number (0-based) within the database.
    pub disk: u32,
    /// First block within the logical disk.
    pub block: u64,
    /// Number of consecutive blocks (≥ 1).
    pub nblocks: u32,
    pub kind: AccessType,
}

impl TraceRecord {
    #[inline]
    pub fn is_read(&self) -> bool {
        self.kind == AccessType::Read
    }

    #[inline]
    pub fn is_multiblock(&self) -> bool {
        self.nblocks > 1
    }
}

/// An ordered I/O trace over a logical database of `n_disks` disks of
/// `blocks_per_disk` blocks each.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub n_disks: u32,
    pub blocks_per_disk: u64,
    pub records: Vec<TraceRecord>,
}

impl Trace {
    pub fn new(n_disks: u32, blocks_per_disk: u64) -> Trace {
        Trace {
            n_disks,
            blocks_per_disk,
            records: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Wall-clock span from time zero to the last arrival.
    pub fn duration(&self) -> SimTime {
        self.records.last().map_or(SimTime::ZERO, |r| r.at)
    }

    /// Validate ordering and address bounds; returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = SimTime::ZERO;
        for (i, r) in self.records.iter().enumerate() {
            if r.at < prev {
                return Err(format!("record {i}: arrival time moves backwards"));
            }
            prev = r.at;
            if r.nblocks == 0 {
                return Err(format!("record {i}: zero-length request"));
            }
            if r.disk >= self.n_disks {
                return Err(format!("record {i}: disk {} out of range", r.disk));
            }
            if r.block
                .checked_add(r.nblocks as u64)
                .is_none_or(|end| end > self.blocks_per_disk)
            {
                return Err(format!("record {i}: block run exceeds disk size"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: u64, disk: u32, block: u64, nblocks: u32, kind: AccessType) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_ms(at_ms),
            disk,
            block,
            nblocks,
            kind,
        }
    }

    #[test]
    fn record_predicates() {
        let r = rec(0, 0, 0, 1, AccessType::Read);
        assert!(r.is_read() && !r.is_multiblock());
        let w = rec(0, 0, 0, 4, AccessType::Write);
        assert!(!w.is_read() && w.is_multiblock());
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut t = Trace::new(2, 100);
        t.records.push(rec(1, 0, 0, 1, AccessType::Read));
        t.records.push(rec(1, 1, 96, 4, AccessType::Write));
        t.records.push(rec(2, 0, 99, 1, AccessType::Read));
        assert!(t.validate().is_ok());
        assert_eq!(t.duration(), SimTime::from_ms(2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn validate_rejects_violations() {
        let mut t = Trace::new(2, 100);
        t.records.push(rec(5, 0, 0, 1, AccessType::Read));
        t.records.push(rec(4, 0, 0, 1, AccessType::Read));
        assert!(t.validate().unwrap_err().contains("backwards"));

        let mut t = Trace::new(2, 100);
        t.records.push(rec(1, 2, 0, 1, AccessType::Read));
        assert!(t.validate().unwrap_err().contains("out of range"));

        let mut t = Trace::new(2, 100);
        t.records.push(rec(1, 0, 97, 4, AccessType::Read));
        assert!(t.validate().unwrap_err().contains("exceeds disk size"));

        let mut t = Trace::new(2, 100);
        t.records.push(rec(1, 0, 0, 0, AccessType::Read));
        assert!(t.validate().unwrap_err().contains("zero-length"));

        // A run whose end overflows u64 is past any disk, not wrapped.
        let mut t = Trace::new(2, u64::MAX);
        t.records.push(rec(1, 0, u64::MAX, 1, AccessType::Read));
        assert!(t.validate().unwrap_err().contains("exceeds disk size"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(1, 10);
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimTime::ZERO);
        assert!(t.validate().is_ok());
    }
}
