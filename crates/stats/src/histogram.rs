//! Fixed-width-bin histogram with percentile queries.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Histogram over `[0, bin_width × bins)` with an overflow bucket.
///
/// Used for response-time distributions: values are in milliseconds with a
/// default resolution of 0.1 ms up to 2 s, which comfortably covers the
/// paper's response-time range (10–100 ms).
///
/// Storage holds only the observed prefix: `counts` runs up to the highest
/// bin recorded or merged and grows on demand, so an unused histogram costs
/// no allocation whatever its logical `bins`. Every query answers as the
/// dense `bins`-long array would, and `Debug` prints that dense array.
#[derive(Clone, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: f64,
    /// Logical bin count: values at or above `bin_width × bins` overflow.
    bins: usize,
    /// Counts of bins `0..counts.len()`; every later bin is zero.
    counts: Vec<u64>,
    overflow: u64,
    invalid: u64,
    total: u64,
}

impl Histogram {
    pub fn new(bin_width: f64, bins: usize) -> Histogram {
        assert!(bin_width > 0.0 && bins > 0);
        Histogram {
            bin_width,
            bins,
            counts: Vec::new(),
            overflow: 0,
            invalid: 0,
            total: 0,
        }
    }

    /// 0.1 ms bins up to 2000 ms.
    pub fn response_time_ms() -> Histogram {
        Histogram::new(0.1, 20_000)
    }

    /// Record one observation. NaN and negative values cannot be binned
    /// (`(value / width) as usize` silently maps NaN to bin 0): they are
    /// counted in `invalid()` and excluded from `count()` and quantiles, in
    /// release builds as well as debug.
    ///
    /// Bin edges are the products `idx × bin_width` evaluated in f64: a value
    /// equal to an edge opens the bin above it. Division alone misclassifies
    /// such values when `bin_width` is not a power of two (`0.3 / 0.1` is
    /// `2.999…`, yet `0.3 < 3 × 0.1`), so the quotient is snapped to the
    /// canonical edges after the cast. `u64::MAX`-adjacent and infinite
    /// values saturate into the overflow bucket.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if value.is_nan() || value < 0.0 {
            self.invalid += 1;
            return;
        }
        // The f64→usize cast saturates, so ±huge and +∞ land in overflow.
        let mut idx = (value / self.bin_width) as usize;
        if idx <= self.bins {
            if (idx + 1) as f64 * self.bin_width <= value {
                idx += 1;
            } else if idx as f64 * self.bin_width > value {
                idx = idx.saturating_sub(1);
            }
        }
        if idx < self.bins {
            if idx >= self.counts.len() {
                self.grow_to(idx + 1);
            }
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Extend the stored prefix to `len` bins. Capacity doubles (to the
    /// next power of two) so growth is amortized, but never past `bins`.
    #[cold]
    fn grow_to(&mut self, len: usize) {
        let cap = len.next_power_of_two().min(self.bins);
        self.counts.reserve_exact(cap - self.counts.len());
        self.counts.resize(len, 0);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Observations rejected by `record` (NaN or negative).
    #[inline]
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// Value at quantile `q ∈ [0, 1]`, reported as the upper edge of the bin
    /// containing the q-th observation. Returns 0 for an empty histogram and
    /// the overflow threshold if the quantile lands in the overflow bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (i + 1) as f64 * self.bin_width;
            }
        }
        self.bins as f64 * self.bin_width
    }

    /// Merge another histogram with identical shape.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width);
        assert_eq!(self.bins, other.bins);
        if other.counts.len() > self.counts.len() {
            self.grow_to(other.counts.len());
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.invalid += other.invalid;
        self.total += other.total;
    }
}

/// Prints what `#[derive(Debug)]` prints for the dense form (`counts` all
/// `bins` long), byte for byte under `{:?}` and `{:#?}`: report digests and
/// the determinism pins hash this text.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bin_width", &self.bin_width)
            .field(
                "counts",
                &DenseCounts {
                    prefix: &self.counts,
                    zeros: self.bins - self.counts.len(),
                },
            )
            .field("overflow", &self.overflow)
            .field("invalid", &self.invalid)
            .field("total", &self.total)
            .finish()
    }
}

/// The stored prefix followed by the implied zero bins, as one list.
struct DenseCounts<'a> {
    prefix: &'a [u64],
    zeros: usize,
}

impl fmt::Debug for DenseCounts<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        list.entries(self.prefix);
        if self.zeros > 0 {
            list.entry(&ZeroRun(self.zeros));
        }
        list.finish()
    }
}

/// `n ≥ 1` zero entries written as a single list entry: `0, 0, …` or, under
/// `{:#?}`, `0,\n0,\n…`. The list's pad adapter indents each line of an
/// entry just as it indents separate entries, so the text is the same.
struct ZeroRun(usize);

impl fmt::Debug for ZeroRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const CHUNK: usize = 256;
        let sep = if f.alternate() { ",\n0" } else { ", 0" };
        let mut left = self.0 - 1;
        let chunk = sep.repeat(left.min(CHUNK));
        f.write_str("0")?;
        while left > 0 {
            let n = left.min(CHUNK);
            f.write_str(&chunk[..n * sep.len()])?;
            left -= n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_quantile_is_zero() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_of_uniform_fill() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 100);
        // Median: the 50th observation sits in bin 49 ⇒ upper edge 50.
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        // q=0 returns the bin of the first observation.
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn overflow_bucket() {
        let mut h = Histogram::new(1.0, 10);
        h.record(5.0);
        h.record(1e9);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), 10.0, "overflow reports the threshold");
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Histogram::new(0.5, 4);
        let mut b = Histogram::new(0.5, 4);
        a.record(0.1);
        b.record(0.1);
        b.record(1.9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(1.0), 2.0);
    }

    #[test]
    fn nan_is_rejected_not_binned() {
        let mut h = Histogram::new(1.0, 10);
        h.record(f64::NAN);
        assert_eq!(h.count(), 0, "NaN must not be counted");
        assert_eq!(h.invalid(), 1);
        assert_eq!(h.quantile(0.5), 0.0, "histogram still empty");
        h.record(3.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), 4.0, "NaN left bin 0 untouched");
    }

    #[test]
    fn negative_is_rejected() {
        let mut h = Histogram::new(1.0, 10);
        h.record(-0.001);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.invalid(), 2);
    }

    #[test]
    fn exact_bin_edges_round_down() {
        let mut h = Histogram::new(1.0, 10);
        // 0.0 is a valid observation landing in bin 0.
        h.record(0.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.invalid(), 0);
        assert_eq!(h.quantile(1.0), 1.0);
        // An exact interior edge belongs to the bin it opens: 1.0 → bin 1,
        // upper edge 2.0.
        let mut h = Histogram::new(1.0, 10);
        h.record(1.0);
        assert_eq!(h.quantile(1.0), 2.0);
        // The exact top edge of the last bin overflows.
        let mut h = Histogram::new(1.0, 10);
        h.record(10.0);
        assert_eq!(h.overflow(), 1);
    }

    /// Regression: with the 0.1 ms response-time width, plain division
    /// misclassifies values that sit exactly on (or one ulp below) a float
    /// bin edge. `1.7` is strictly below `17 × 0.1` yet `1.7 / 0.1 == 17.0`;
    /// `4.3` equals `43 × 0.1` yet `4.3 / 0.1` floors to 42. Both directions
    /// must snap to the canonical product edges.
    #[test]
    fn boundary_values_snap_to_canonical_edges() {
        // 1.7 < 17 × 0.1 (= 1.7000000000000002): belongs in bin 16, whose
        // upper edge is exactly that product.
        let mut h = Histogram::new(0.1, 100);
        h.record(1.7);
        assert_eq!(
            h.quantile(1.0),
            17.0 * 0.1,
            "1.7 must land below the 17×0.1 edge"
        );
        // 4.3 == 43 × 0.1 exactly: an edge opens the bin above it, so the
        // upper edge reported is 44 × 0.1, not 43 × 0.1.
        let mut h = Histogram::new(0.1, 100);
        h.record(4.3);
        assert_eq!(h.quantile(1.0), 44.0 * 0.1, "4.3 opens bin 43");
    }

    /// The snap must also govern the in-range/overflow boundary: one ulp
    /// below the float top edge stays in the last bin; the edge overflows.
    #[test]
    fn boundary_snap_at_overflow_threshold() {
        // 1.7 with 17 bins of 0.1: top edge is 17 × 0.1 = 1.7000000000000002,
        // and 1.7 / 0.1 == 17.0 would overflow without the snap.
        let mut h = Histogram::new(0.1, 17);
        h.record(1.7);
        assert_eq!(h.overflow(), 0, "1.7 is below the 17×0.1 top edge");
        // 4.3 with 43 bins: 4.3 == 43 × 0.1 is the exact top edge and must
        // overflow even though division floors to 42.
        let mut h = Histogram::new(0.1, 43);
        h.record(4.3);
        assert_eq!(h.overflow(), 1, "the exact top edge overflows");
    }

    /// `u64::MAX`-adjacent durations (and worse) must deterministically land
    /// in the overflow bucket rather than wrapping or panicking.
    #[test]
    fn huge_durations_overflow_deterministically() {
        let mut h = Histogram::new(0.1, 20_000);
        h.record(u64::MAX as f64); // a u64::MAX-nanosecond span in ms-ish units
        h.record(u64::MAX as f64 / 1e6);
        h.record(f64::MAX);
        h.record(f64::INFINITY);
        assert_eq!(h.overflow(), 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.invalid(), 0);
        assert_eq!(h.quantile(1.0), 20_000.0 * 0.1);
    }

    #[test]
    fn merge_carries_invalid_counts() {
        let mut a = Histogram::new(1.0, 10);
        let mut b = Histogram::new(1.0, 10);
        b.record(f64::NAN);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.invalid(), 1);
        assert_eq!(a.count(), 1);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_shape() {
        let mut a = Histogram::new(0.5, 4);
        let b = Histogram::new(1.0, 4);
        a.merge(&b);
    }

    /// The dense histogram this type replaced, kept as the reference: same
    /// binning, every bin stored, `Debug` derived.
    mod dense {
        #[derive(Clone, Debug)]
        pub struct Histogram {
            bin_width: f64,
            counts: Vec<u64>,
            overflow: u64,
            invalid: u64,
            total: u64,
        }

        impl Histogram {
            pub fn new(bin_width: f64, bins: usize) -> Histogram {
                Histogram {
                    bin_width,
                    counts: vec![0; bins],
                    overflow: 0,
                    invalid: 0,
                    total: 0,
                }
            }

            pub fn record(&mut self, value: f64) {
                if value.is_nan() || value < 0.0 {
                    self.invalid += 1;
                    return;
                }
                let mut idx = (value / self.bin_width) as usize;
                if idx <= self.counts.len() {
                    if (idx + 1) as f64 * self.bin_width <= value {
                        idx += 1;
                    } else if idx as f64 * self.bin_width > value {
                        idx = idx.saturating_sub(1);
                    }
                }
                if idx < self.counts.len() {
                    self.counts[idx] += 1;
                } else {
                    self.overflow += 1;
                }
                self.total += 1;
            }

            pub fn quantile(&self, q: f64) -> f64 {
                if self.total == 0 {
                    return 0.0;
                }
                let rank = ((q * self.total as f64).ceil() as u64).max(1);
                let mut seen = 0;
                for (i, &c) in self.counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        return (i + 1) as f64 * self.bin_width;
                    }
                }
                self.counts.len() as f64 * self.bin_width
            }

            pub fn merge(&mut self, other: &Histogram) {
                for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                    *a += b;
                }
                self.overflow += other.overflow;
                self.invalid += other.invalid;
                self.total += other.total;
            }

            pub fn count(&self) -> u64 {
                self.total
            }

            pub fn overflow(&self) -> u64 {
                self.overflow
            }

            pub fn invalid(&self) -> u64 {
                self.invalid
            }
        }
    }

    /// A histogram and its dense reference, fed the same values.
    fn pair(w: f64, bins: usize, values: &[f64]) -> (Histogram, dense::Histogram) {
        let mut h = Histogram::new(w, bins);
        let mut d = dense::Histogram::new(w, bins);
        for &v in values {
            h.record(v);
            d.record(v);
        }
        (h, d)
    }

    /// Everything observable agrees with the dense reference: the counters,
    /// the quantiles, and the `Debug` text in both forms.
    fn assert_matches(h: &Histogram, d: &dense::Histogram) {
        assert_eq!(h.count(), d.count());
        assert_eq!(h.overflow(), d.overflow());
        assert_eq!(h.invalid(), d.invalid());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q).to_bits(), d.quantile(q).to_bits(), "q = {q}");
        }
        assert_eq!(format!("{h:?}"), format!("{d:?}"));
        assert_eq!(format!("{h:#?}"), format!("{d:#?}"));
        assert!(
            h.counts.capacity() <= h.bins,
            "stored past the logical bins"
        );
    }

    /// A value of each kind the binning treats specially, picked by `kind`
    /// and placed by `x ∈ [0, 1)`: NaN, negative, an exact bin edge (the
    /// top edge included), +∞, overflow, or in range (three kinds, so most
    /// values bin).
    fn special_value(kind: u32, x: f64, w: f64, bins: usize) -> f64 {
        let top = bins as f64 * w;
        match kind {
            0 => f64::NAN,
            1 => -1e-3 - x,
            2 => (x * (bins + 1) as f64).floor() * w,
            3 => f64::INFINITY,
            4 => top * (1.0 + x),
            _ => x * top,
        }
    }

    #[test]
    fn merge_grows_the_shorter_prefix() {
        let (mut short, mut d_short) = pair(0.1, 20_000, &[1.0, 2.5]);
        let (long, d_long) = pair(0.1, 20_000, &[3.0, 150.0, 1999.95]);
        short.merge(&long);
        d_short.merge(&d_long);
        assert_matches(&short, &d_short);
        assert_eq!(short.counts.len(), 20_000, "the last bin was merged in");
        // The longer side absorbing the shorter keeps its own length.
        let (mut long, mut d_long) = pair(0.1, 20_000, &[150.0]);
        let (short, d_short) = pair(0.1, 20_000, &[1.0]);
        long.merge(&short);
        d_long.merge(&d_short);
        assert_matches(&long, &d_long);
        assert_eq!(long.counts.len(), 1501);
    }

    #[test]
    fn unused_histogram_allocates_nothing() {
        let mut h = Histogram::response_time_ms();
        assert_eq!(h.counts.capacity(), 0);
        h.record(f64::NAN);
        h.record(5000.0);
        assert_eq!(h.counts.capacity(), 0, "invalid and overflow store no bin");
        h.record(12.0);
        assert_eq!(h.counts.len(), 121);
        assert!(h.counts.capacity() <= 128);
    }

    /// `{:?}` and `{:#?}` print the dense derived text byte for byte, alone
    /// and nested in a derived struct, for each shape the stored prefix
    /// can take. The full-length cases have no implied zeros, so they pin
    /// that no empty trailing entry is printed.
    #[test]
    fn debug_text_is_the_dense_derived_text() {
        #[derive(Debug)]
        #[expect(dead_code, reason = "the fields are read only through Debug")]
        struct Report<H> {
            label: &'static str,
            histogram_ms: H,
            tail: Option<u64>,
        }
        let cases: [(&str, f64, usize, &[f64]); 8] = [
            ("empty", 0.1, 20_000, &[]),
            ("empty, one bin", 1.0, 1, &[]),
            ("prefix only", 0.1, 20_000, &[0.0, 0.05, 12.3, 12.3, 99.99]),
            ("prefix only, short", 1.0, 10, &[2.5]),
            ("full length", 0.1, 20_000, &[1999.95, 0.3]),
            ("full length, one bin", 1.0, 1, &[0.5]),
            ("overflow only", 0.1, 20_000, &[2000.0, f64::INFINITY]),
            ("invalid only", 1.0, 10, &[f64::NAN, -1.0]),
        ];
        for (name, w, bins, values) in cases {
            let (h, d) = pair(w, bins, values);
            assert_eq!(format!("{h:?}"), format!("{d:?}"), "{name}");
            assert_eq!(format!("{h:#?}"), format!("{d:#?}"), "{name}");
            let c = Report {
                label: name,
                histogram_ms: h,
                tail: Some(7),
            };
            let r = Report {
                label: name,
                histogram_ms: d,
                tail: Some(7),
            };
            assert_eq!(format!("{c:?}"), format!("{r:?}"), "{name} nested");
            assert_eq!(format!("{c:#?}"), format!("{r:#?}"), "{name} nested");
        }
    }

    proptest! {
        /// Recording, querying and merging agree with the dense reference
        /// for values of every special kind, in both merge orders.
        #[test]
        fn prop_matches_dense_reference(
            a in proptest::collection::vec((0u32..8, 0.0f64..1.0), 0..60),
            b in proptest::collection::vec((0u32..8, 0.0f64..1.0), 0..60),
            w in proptest::sample::select(vec![0.1f64, 0.3, 1.0]),
            bins in proptest::sample::select(vec![1usize, 7, 64, 1000]),
        ) {
            let value = |&(kind, x): &(u32, f64)| special_value(kind, x, w, bins);
            let a: Vec<f64> = a.iter().map(value).collect();
            let b: Vec<f64> = b.iter().map(value).collect();
            let (ha, da) = pair(w, bins, &a);
            let (hb, db) = pair(w, bins, &b);
            assert_matches(&ha, &da);
            assert_matches(&hb, &db);
            for (mut h, mut d, other, d_other) in [
                (ha.clone(), da.clone(), &hb, &db),
                (hb.clone(), db.clone(), &ha, &da),
            ] {
                h.merge(other);
                d.merge(d_other);
                assert_matches(&h, &d);
            }
        }

        /// Every in-range observation satisfies the canonical edge relation
        /// `idx × w ≤ v < (idx + 1) × w` (edges evaluated as f64 products),
        /// observed through the quantile upper edge.
        #[test]
        fn prop_bin_edges_are_canonical(
            v in 0.0f64..1000.0,
            w in proptest::sample::select(vec![0.1f64, 0.3, 0.7, 1.0, 2.2]),
        ) {
            let mut h = Histogram::new(w, 1 << 14);
            h.record(v);
            if h.overflow() == 0 {
                let upper = h.quantile(1.0);
                let idx = (upper / w).round() as usize - 1;
                prop_assert!(idx as f64 * w <= v, "lower edge above value");
                prop_assert!(v < (idx + 1) as f64 * w, "value at/above upper edge");
            }
        }

        /// Histogram quantiles bracket exact sample quantiles to bin width.
        #[test]
        fn prop_quantile_accuracy(
            mut xs in proptest::collection::vec(0.0f64..100.0, 1..500),
            q in 0.01f64..1.0,
        ) {
            let mut h = Histogram::new(0.1, 2000);
            for &x in &xs { h.record(x); }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((q * xs.len() as f64).ceil() as usize).max(1) - 1;
            let exact = xs[rank];
            let est = h.quantile(q);
            prop_assert!(est >= exact - 1e-9, "estimate {est} below exact {exact}");
            prop_assert!(est <= exact + 0.1 + 1e-9, "estimate {est} above bin bound of {exact}");
        }
    }
}
