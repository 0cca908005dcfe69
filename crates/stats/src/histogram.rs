//! Fixed-width-bin histograms: [`Histogram`] records during a run and
//! [`PackedHistogram`] is what a finished report keeps.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Recorder over `[0, bin_width × bins)` with an overflow bucket.
///
/// Used for response-time distributions: values are in milliseconds with a
/// default resolution of 0.1 ms up to 2 s, which comfortably covers the
/// paper's response-time range (10–100 ms).
///
/// Storage holds only the observed prefix: `counts` runs up to the highest
/// bin recorded and grows on demand, so an unused histogram costs no
/// allocation whatever its logical `bins`. It only records; [`pack`]
/// turns it into the read-only form that answers queries.
///
/// [`pack`]: Histogram::pack
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

    /// The read-only form, encoded straight from the stored prefix.
    pub fn pack(&self) -> PackedHistogram {
        let mut runs = Vec::new();
        let mut zeros = 0u64;
        for &c in &self.counts {
            if c == 0 {
                zeros += 1;
                continue;
            }
            if zeros > 0 {
                put(&mut runs, Token::Zeros(zeros));
                zeros = 0;
            }
            put(&mut runs, Token::Count(c));
        }
        zeros += (self.bins - self.counts.len()) as u64;
        if zeros > 0 {
            put(&mut runs, Token::Zeros(zeros));
        }
        PackedHistogram {
            bin_width: self.bin_width,
            bins: self.bins,
            runs: runs.into_boxed_slice(),
            overflow: self.overflow,
            invalid: self.invalid,
            total: self.total,
        }
    }
}

/// A finished histogram: what [`Histogram`] recorded, with only its nonzero
/// bins stored. It has no way to record or merge, so a report holding one
/// cannot change. Every query answers as the dense `bins`-long array would,
/// and `Debug` prints that dense array.
#[derive(Clone, Serialize, Deserialize)]
pub struct PackedHistogram {
    bin_width: f64,
    bins: usize,
    /// Every bin, as LEB128 tokens: a run of `z ≥ 1` zero bins is
    /// `2(z − 1) + 1`, a bin counting `c ≥ 1` is `2(c − 1)`. A token is one
    /// byte for a count up to 64 or a run up to 64 bins, so even a
    /// histogram with every bin filled packs to an eighth of its dense
    /// size.
    runs: Box<[u8]>,
    overflow: u64,
    invalid: u64,
    total: u64,
}

impl PackedHistogram {
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
        let mut idx = 0;
        for token in self.tokens() {
            match token {
                Token::Zeros(z) => idx += z,
                Token::Count(c) => {
                    seen += c;
                    idx += 1;
                    if seen >= rank {
                        return idx as f64 * self.bin_width;
                    }
                }
            }
        }
        self.bins as f64 * self.bin_width
    }

    fn tokens(&self) -> impl Iterator<Item = Token> + '_ {
        let mut bytes = self.runs.iter();
        std::iter::from_fn(move || {
            let mut v = 0u128;
            let mut shift = 0;
            loop {
                let b = *bytes.next()?;
                v |= u128::from(b & 0x7f) << shift;
                if b < 0x80 {
                    break;
                }
                shift += 7;
            }
            // Both payloads are at most `u64::MAX − 1` after the shift by
            // one, so the casts are exact.
            let n = (v >> 1) as u64 + 1;
            Some(if v & 1 == 1 {
                Token::Zeros(n)
            } else {
                Token::Count(n)
            })
        })
    }
}

/// One unit of the packed encoding: a run of zero bins, or one nonzero bin.
enum Token {
    Zeros(u64),
    Count(u64),
}

/// Append `token` as one LEB128 value (u128, since a count near
/// `u64::MAX` needs a 65th bit beside the tag).
fn put(out: &mut Vec<u8>, token: Token) {
    let mut v = match token {
        Token::Zeros(z) => (u128::from(z - 1) << 1) | 1,
        Token::Count(c) => u128::from(c - 1) << 1,
    };
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Prints what `#[derive(Debug)]` printed for the dense recorder (`counts`
/// all `bins` long), byte for byte under `{:?}` and `{:#?}`: report digests
/// and the determinism pins hash this text.
impl fmt::Debug for PackedHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bin_width", &self.bin_width)
            .field("counts", &DenseCounts(self))
            .field("overflow", &self.overflow)
            .field("invalid", &self.invalid)
            .field("total", &self.total)
            .finish()
    }
}

/// Every bin, zeros included, as one list.
struct DenseCounts<'a>(&'a PackedHistogram);

impl fmt::Debug for DenseCounts<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        for token in self.0.tokens() {
            match token {
                Token::Zeros(z) => list.entry(&ZeroRun(z)),
                Token::Count(c) => list.entry(&c),
            };
        }
        list.finish()
    }
}

/// `n ≥ 1` zero entries written as a single list entry: `0, 0, …` or, under
/// `{:#?}`, `0,\n0,\n…`. The list's pad adapter indents each line of an
/// entry just as it indents separate entries, so the text is the same.
struct ZeroRun(u64);

impl fmt::Debug for ZeroRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const CHUNK: u64 = 256;
        let sep = if f.alternate() { ",\n0" } else { ", 0" };
        let mut left = self.0 - 1;
        let chunk = sep.repeat(left.min(CHUNK) as usize);
        f.write_str("0")?;
        while left > 0 {
            let n = left.min(CHUNK) as usize;
            f.write_str(&chunk[..n * sep.len()])?;
            left -= n as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Record `values` and pack the result.
    fn packed(w: f64, bins: usize, values: &[f64]) -> PackedHistogram {
        let mut h = Histogram::new(w, bins);
        for &v in values {
            h.record(v);
        }
        h.pack()
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = packed(1.0, 10, &[]);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_of_uniform_fill() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let h = packed(1.0, 100, &values);
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
        let h = packed(1.0, 10, &[5.0, 1e9]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), 10.0, "overflow reports the threshold");
    }

    #[test]
    fn nan_is_rejected_not_binned() {
        let mut h = Histogram::new(1.0, 10);
        h.record(f64::NAN);
        let p = h.pack();
        assert_eq!(p.count(), 0, "NaN must not be counted");
        assert_eq!(p.invalid(), 1);
        assert_eq!(p.quantile(0.5), 0.0, "histogram still empty");
        h.record(3.5);
        let p = h.pack();
        assert_eq!(p.count(), 1);
        assert_eq!(p.quantile(1.0), 4.0, "NaN left bin 0 untouched");
    }

    #[test]
    fn negative_is_rejected() {
        let h = packed(1.0, 10, &[-0.001, f64::NEG_INFINITY]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.invalid(), 2);
    }

    #[test]
    fn exact_bin_edges_round_down() {
        // 0.0 is a valid observation landing in bin 0.
        let h = packed(1.0, 10, &[0.0]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.invalid(), 0);
        assert_eq!(h.quantile(1.0), 1.0);
        // An exact interior edge belongs to the bin it opens: 1.0 → bin 1,
        // upper edge 2.0.
        assert_eq!(packed(1.0, 10, &[1.0]).quantile(1.0), 2.0);
        // The exact top edge of the last bin overflows.
        assert_eq!(packed(1.0, 10, &[10.0]).overflow(), 1);
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
        assert_eq!(
            packed(0.1, 100, &[1.7]).quantile(1.0),
            17.0 * 0.1,
            "1.7 must land below the 17×0.1 edge"
        );
        // 4.3 == 43 × 0.1 exactly: an edge opens the bin above it, so the
        // upper edge reported is 44 × 0.1, not 43 × 0.1.
        assert_eq!(
            packed(0.1, 100, &[4.3]).quantile(1.0),
            44.0 * 0.1,
            "4.3 opens bin 43"
        );
    }

    /// The snap must also govern the in-range/overflow boundary: one ulp
    /// below the float top edge stays in the last bin; the edge overflows.
    #[test]
    fn boundary_snap_at_overflow_threshold() {
        // 1.7 with 17 bins of 0.1: top edge is 17 × 0.1 = 1.7000000000000002,
        // and 1.7 / 0.1 == 17.0 would overflow without the snap.
        let h = packed(0.1, 17, &[1.7]);
        assert_eq!(h.overflow(), 0, "1.7 is below the 17×0.1 top edge");
        // 4.3 with 43 bins: 4.3 == 43 × 0.1 is the exact top edge and must
        // overflow even though division floors to 42.
        let h = packed(0.1, 43, &[4.3]);
        assert_eq!(h.overflow(), 1, "the exact top edge overflows");
    }

    /// `u64::MAX`-adjacent durations (and worse) must deterministically land
    /// in the overflow bucket rather than wrapping or panicking.
    #[test]
    fn huge_durations_overflow_deterministically() {
        // A u64::MAX-nanosecond span in ms-ish units, and worse.
        let values = [
            u64::MAX as f64,
            u64::MAX as f64 / 1e6,
            f64::MAX,
            f64::INFINITY,
        ];
        let h = packed(0.1, 20_000, &values);
        assert_eq!(h.overflow(), 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.invalid(), 0);
        assert_eq!(h.quantile(1.0), 20_000.0 * 0.1);
    }

    /// The dense histogram the recorder replaced, kept as the reference:
    /// same binning, every bin stored, `Debug` derived.
    mod dense {
        #[derive(Debug)]
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

            /// Given bin counts (padded with zeros to `bins`) and buckets.
            pub fn from_counts(
                bin_width: f64,
                bins: usize,
                counts: &[u64],
                overflow: u64,
                invalid: u64,
            ) -> Histogram {
                let mut h = Histogram::new(bin_width, bins);
                h.counts[..counts.len()].copy_from_slice(counts);
                h.overflow = overflow;
                h.invalid = invalid;
                h.total = counts
                    .iter()
                    .try_fold(overflow, |s, &c| s.checked_add(c))
                    .expect("total fits in u64");
                h
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

    impl Histogram {
        /// A recorder holding `counts` as its stored prefix, so tests can
        /// reach counts no run could record (2³², 2⁶³).
        fn from_counts(
            bin_width: f64,
            bins: usize,
            counts: &[u64],
            overflow: u64,
            invalid: u64,
        ) -> Histogram {
            let mut h = Histogram::new(bin_width, bins);
            assert!(counts.len() <= bins);
            h.counts = counts.to_vec();
            h.overflow = overflow;
            h.invalid = invalid;
            h.total = counts
                .iter()
                .try_fold(overflow, |s, &c| s.checked_add(c))
                .expect("total fits in u64");
            h
        }
    }

    /// A recorder and its dense reference, fed the same values.
    fn pair(w: f64, bins: usize, values: &[f64]) -> (Histogram, dense::Histogram) {
        let mut h = Histogram::new(w, bins);
        let mut d = dense::Histogram::new(w, bins);
        for &v in values {
            h.record(v);
            d.record(v);
        }
        (h, d)
    }

    /// Everything observable of the packed form agrees with the dense
    /// reference: the counters, the quantiles (the overflow threshold when
    /// the rank lands past the bins), and the `Debug` text in both forms.
    fn assert_matches(h: &Histogram, d: &dense::Histogram) {
        assert!(
            h.counts.capacity() <= h.bins,
            "stored past the logical bins"
        );
        let p = h.pack();
        assert_eq!(p.count(), d.count());
        assert_eq!(p.overflow(), d.overflow());
        assert_eq!(p.invalid(), d.invalid());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(p.quantile(q).to_bits(), d.quantile(q).to_bits(), "q = {q}");
        }
        assert_eq!(format!("{p:?}"), format!("{d:?}"));
        assert_eq!(format!("{p:#?}"), format!("{d:#?}"));
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
    fn unused_histogram_allocates_nothing() {
        let mut h = Histogram::response_time_ms();
        assert_eq!(h.counts.capacity(), 0);
        h.record(f64::NAN);
        h.record(5000.0);
        assert_eq!(h.counts.capacity(), 0, "invalid and overflow store no bin");
        assert_eq!(h.pack().runs.len(), 3, "their packed form is one zero run");
        h.record(12.0);
        assert_eq!(h.counts.len(), 121);
        assert!(h.counts.capacity() <= 128);
    }

    /// The extremes of the packed encoding against the dense reference: no
    /// bin, a prefix ending in the last bin (19,999), a zero run longer than
    /// one LEB128 byte, counts past `u32` and past `i64`, and `u64::MAX`.
    #[test]
    fn packed_extremes_match_dense() {
        let big = 1u64 << 32;
        let huge = 1u64 << 63;
        let mut last_bin = vec![0; 20_000];
        last_bin[19_999] = 3;
        last_bin[0] = 1;
        let cases: [(&str, Vec<u64>, u64, u64); 7] = [
            ("empty", vec![], 0, 0),
            ("empty with buckets", vec![], 4, 2),
            ("ends at bin 19,999", last_bin, 5, 0),
            ("2^32", vec![0, big, 1, 0, 0, big + 1], 0, 1),
            ("2^63", vec![7, 0, 0, huge], 1, u64::MAX),
            ("u64::MAX alone", vec![0, 0, u64::MAX], 0, 0),
            ("u64::MAX overflow", vec![], u64::MAX, 0),
        ];
        for (name, counts, overflow, invalid) in cases {
            let h = Histogram::from_counts(0.1, 20_000, &counts, overflow, invalid);
            let d = dense::Histogram::from_counts(0.1, 20_000, &counts, overflow, invalid);
            assert_matches(&h, &d);
            let p = h.pack();
            assert_eq!(p.count(), d.count(), "{name}");
        }
    }

    /// Packing is what makes a finished report small: 30,000 values spread
    /// uniformly over 0–2,500 ms (a fifth of them overflow, and the stored
    /// prefix nears the last bin) pack to at most an eighth of the dense
    /// prefix's bytes.
    #[test]
    fn packed_form_is_at_most_an_eighth_of_the_prefix() {
        let mut h = Histogram::response_time_ms();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..30_000 {
            // xorshift64: a fixed, uniform spread.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record((x >> 11) as f64 / (1u64 << 53) as f64 * 2_500.0);
        }
        assert!(h.counts.len() > 19_900, "the prefix nears the last bin");
        let dense_bytes = h.counts.len() * std::mem::size_of::<u64>();
        let packed_bytes = h.pack().runs.len();
        assert!(
            packed_bytes * 8 <= dense_bytes,
            "{packed_bytes} packed bytes against {dense_bytes} dense"
        );
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
        let cases: [(&str, f64, usize, &[f64]); 9] = [
            ("empty", 0.1, 20_000, &[]),
            ("empty, one bin", 1.0, 1, &[]),
            ("prefix only", 0.1, 20_000, &[0.0, 0.05, 12.3, 12.3, 99.99]),
            ("prefix only, short", 1.0, 10, &[2.5]),
            ("zero runs", 0.1, 20_000, &[0.35, 0.55, 13.0, 13.0, 13.1]),
            ("full length", 0.1, 20_000, &[1999.95, 0.3]),
            ("full length, one bin", 1.0, 1, &[0.5]),
            ("overflow only", 0.1, 20_000, &[2000.0, f64::INFINITY]),
            ("invalid only", 1.0, 10, &[f64::NAN, -1.0]),
        ];
        for (name, w, bins, values) in cases {
            let (h, d) = pair(w, bins, values);
            let p = h.pack();
            assert_eq!(format!("{p:?}"), format!("{d:?}"), "{name}");
            assert_eq!(format!("{p:#?}"), format!("{d:#?}"), "{name}");
            let c = Report {
                label: name,
                histogram_ms: p,
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
        /// Recording, then packing and querying, agrees with the dense
        /// reference for values of every special kind.
        #[test]
        fn prop_matches_dense_reference(
            raw in proptest::collection::vec((0u32..8, 0.0f64..1.0), 0..120),
            w in proptest::sample::select(vec![0.1f64, 0.3, 1.0]),
            bins in proptest::sample::select(vec![1usize, 7, 64, 1000]),
        ) {
            let values: Vec<f64> = raw
                .iter()
                .map(|&(kind, x)| special_value(kind, x, w, bins))
                .collect();
            let (h, d) = pair(w, bins, &values);
            assert_matches(&h, &d);
        }

        /// The packed form of arbitrary bin counts, sparse or dense, from 1
        /// to past 2⁶³, agrees with the dense reference holding the same
        /// counts. At most one count (placed when `huge_at` is a bin) is
        /// 2⁶³ or more, so the total fits in `u64`.
        #[test]
        fn prop_packed_matches_dense_counts(
            cells in proptest::collection::vec((0usize..300, 0u64..4), 0..60),
            huge_at in 0usize..30_000,
            huge_extra in 0u64..1_000,
            overflow in proptest::sample::select(vec![0u64, 1, 1 << 40]),
            invalid in proptest::sample::select(vec![0u64, 3, u64::MAX]),
        ) {
            let mut counts = Vec::new();
            let mut idx = 0;
            for (gap, scale) in cells {
                idx += gap;
                if idx >= 20_000 {
                    break;
                }
                counts.resize(idx + 1, 0);
                // Scales 0–3: 1–3, up to 200, around 2³², and 2³³-ish.
                counts[idx] = [1, 200, (1 << 32) - 1, 1 << 33][scale as usize] + gap as u64 % 3;
            }
            if huge_at < 20_000 {
                if huge_at >= counts.len() {
                    counts.resize(huge_at + 1, 0);
                }
                counts[huge_at] = (1 << 63) + huge_extra;
            }
            let h = Histogram::from_counts(0.1, 20_000, &counts, overflow, invalid);
            let d = dense::Histogram::from_counts(0.1, 20_000, &counts, overflow, invalid);
            assert_matches(&h, &d);
        }

        /// Every in-range observation satisfies the canonical edge relation
        /// `idx × w ≤ v < (idx + 1) × w` (edges evaluated as f64 products),
        /// observed through the quantile upper edge.
        #[test]
        fn prop_bin_edges_are_canonical(
            v in 0.0f64..1000.0,
            w in proptest::sample::select(vec![0.1f64, 0.3, 0.7, 1.0, 2.2]),
        ) {
            let h = packed(w, 1 << 14, &[v]);
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
            let h = packed(0.1, 2000, &xs);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((q * xs.len() as f64).ceil() as usize).max(1) - 1;
            let exact = xs[rank];
            let est = h.quantile(q);
            prop_assert!(est >= exact - 1e-9, "estimate {est} below exact {exact}");
            prop_assert!(est <= exact + 0.1 + 1e-9, "estimate {est} above bin bound of {exact}");
        }
    }
}
