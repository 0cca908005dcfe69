//! The paper's seek-time function and its calibration.
//!
//! Section 3.2: "To compute the seek time as a function of the seek distance,
//! we use a non-linear function of the form `a√(x−1) + b(x−1) + c`", with
//! Table 1 specifying an 11.2 ms average and a 28 ms maximal seek over 1260
//! cylinders. The paper does not give `a`, `b`, `c`; we recover them by
//! fixing the single-cylinder seek `c` (arm settle time, 2 ms by default) and
//! solving the remaining 2×2 linear system:
//!
//! * full-stroke: `a·√(C−2) + b·(C−2) + c = max_seek`
//! * expectation over uniformly random seeks, conditioned on actually
//!   moving: `a·E[√(D−1)] + b·E[D−1] + c = avg_seek`, where the seek
//!   distance `D` between two independent uniform cylinders has
//!   `P(D = d) = 2(C−d)/(C²−C)` for `d ≥ 1`.

use serde::{Deserialize, Serialize};
use simkit::time::ms_to_ns;

/// Seek-time curve `t(x) = a·√(x−1) + b·(x−1) + c` for a seek of `x ≥ 1`
/// cylinders; `t(0) = 0`. Coefficients are in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeekCurve {
    pub a: f64,
    pub b: f64,
    pub c: f64,
}

impl SeekCurve {
    /// Solve `a` and `b` for a disk with `cylinders` cylinders so that the
    /// expected seek time over uniformly random (moving) seeks equals
    /// `avg_seek_ms` and the full-stroke seek equals `max_seek_ms`, with the
    /// single-cylinder seek pinned at `single_cyl_ms`.
    ///
    /// Panics if the three constraints are mutually inconsistent (would
    /// require a negative `a` or `b`), which cannot happen for the Table 1
    /// values.
    pub fn calibrate(
        cylinders: u32,
        avg_seek_ms: f64,
        max_seek_ms: f64,
        single_cyl_ms: f64,
    ) -> SeekCurve {
        assert!(cylinders >= 3, "need at least 3 cylinders to calibrate");
        assert!(max_seek_ms > avg_seek_ms && avg_seek_ms > single_cyl_ms);
        let c_cyl = cylinders as u64;

        // Moments of (D−1) under P(D=d) ∝ (C−d), d = 1..C−1.
        let mut weight_sum = 0.0f64;
        let mut e_sqrt = 0.0f64;
        let mut e_lin = 0.0f64;
        for d in 1..c_cyl {
            let w = (c_cyl - d) as f64;
            weight_sum += w;
            e_sqrt += w * ((d - 1) as f64).sqrt();
            e_lin += w * (d - 1) as f64;
        }
        e_sqrt /= weight_sum;
        e_lin /= weight_sum;

        // Full-stroke terms at distance C−1.
        let f_sqrt = ((c_cyl - 2) as f64).sqrt();
        let f_lin = (c_cyl - 2) as f64;

        // Solve  [e_sqrt e_lin][a]   [avg − c]
        //        [f_sqrt f_lin][b] = [max − c]
        let rhs_avg = avg_seek_ms - single_cyl_ms;
        let rhs_max = max_seek_ms - single_cyl_ms;
        let det = e_sqrt * f_lin - e_lin * f_sqrt;
        assert!(det.abs() > 1e-9, "degenerate calibration system");
        let a = (rhs_avg * f_lin - e_lin * rhs_max) / det;
        let b = (e_sqrt * rhs_max - rhs_avg * f_sqrt) / det;
        assert!(
            a >= 0.0 && b >= 0.0,
            "inconsistent seek constraints: a={a}, b={b}"
        );
        SeekCurve {
            a,
            b,
            c: single_cyl_ms,
        }
    }

    /// Table 1 calibration: 1260 cylinders, 11.2 ms average, 28 ms maximal,
    /// 2 ms single-cylinder. Stored rather than solved, since every default
    /// configuration asks for it; it is `calibrate(1260, 11.2, 28.0, 2.0)`
    /// bit for bit (see `table1_is_the_calibrated_curve`).
    pub const fn table1() -> SeekCurve {
        SeekCurve {
            a: f64::from_bits(0x3fb3_44bd_c118_d31d),
            b: f64::from_bits(0x3f92_fd9f_3254_a672),
            c: 2.0,
        }
    }

    /// Seek time in milliseconds for a move of `distance` cylinders.
    #[inline]
    pub fn seek_ms(&self, distance: u32) -> f64 {
        if distance == 0 {
            return 0.0;
        }
        let x = (distance - 1) as f64;
        self.a * x.sqrt() + self.b * x + self.c
    }

    /// Seek time in nanoseconds for a move of `distance` cylinders.
    #[inline]
    pub fn seek_ns(&self, distance: u32) -> u64 {
        if distance == 0 {
            0
        } else {
            ms_to_ns(self.seek_ms(distance))
        }
    }

    /// Mean seek time in milliseconds over uniformly random moving seeks —
    /// used by tests to verify the calibration closes.
    pub fn mean_seek_ms(&self, cylinders: u32) -> f64 {
        self.seek_moment_ms(cylinders, 1)
    }

    /// k-th moment (ms^k) of the seek time over uniformly random *moving*
    /// seeks (`P(D=d) ∝ C−d, d ≥ 1`). The second moment feeds M/G/1
    /// response-time predictions (`raidsim::analytic`).
    pub fn seek_moment_ms(&self, cylinders: u32, k: u32) -> f64 {
        let c_cyl = cylinders as u64;
        let mut weight_sum = 0.0;
        let mut acc = 0.0;
        for d in 1..c_cyl {
            let w = (c_cyl - d) as f64;
            weight_sum += w;
            acc += w * self.seek_ms(d as u32).powi(k as i32);
        }
        acc / weight_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table1_is_the_calibrated_curve() {
        let stored = SeekCurve::table1();
        let solved = SeekCurve::calibrate(1260, 11.2, 28.0, 2.0);
        for (x, y) in [
            (stored.a, solved.a),
            (stored.b, solved.b),
            (stored.c, solved.c),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn table1_calibration_closes() {
        let s = SeekCurve::table1();
        assert!(s.a > 0.0 && s.b > 0.0);
        assert_eq!(s.c, 2.0);
        // Full stroke hits the 28 ms maximum.
        assert!((s.seek_ms(1259) - 28.0).abs() < 1e-9, "{}", s.seek_ms(1259));
        // Mean over random moving seeks hits the 11.2 ms average.
        assert!(
            (s.mean_seek_ms(1260) - 11.2).abs() < 1e-9,
            "{}",
            s.mean_seek_ms(1260)
        );
    }

    #[test]
    fn seek_moments_are_consistent() {
        let s = SeekCurve::table1();
        let m1 = s.seek_moment_ms(1260, 1);
        let m2 = s.seek_moment_ms(1260, 2);
        assert!((m1 - 11.2).abs() < 1e-9);
        // Var = E[X²] − E[X]² must be positive and below (max−min)²/4.
        let var = m2 - m1 * m1;
        assert!(var > 0.0);
        assert!(var < (28.0f64 - 2.0).powi(2) / 4.0);
    }

    #[test]
    fn boundary_distances() {
        let s = SeekCurve::table1();
        assert_eq!(s.seek_ms(0), 0.0);
        assert_eq!(s.seek_ns(0), 0);
        // Single-cylinder seek is exactly the settle constant.
        assert_eq!(s.seek_ms(1), 2.0);
        assert_eq!(s.seek_ns(1), 2_000_000);
    }

    #[test]
    fn monotone_in_distance() {
        let s = SeekCurve::table1();
        let mut prev = 0.0;
        for d in 1..1260 {
            let t = s.seek_ms(d);
            assert!(t > prev, "seek not monotone at d={d}");
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "max_seek_ms > avg_seek_ms")]
    fn rejects_avg_above_max() {
        SeekCurve::calibrate(1260, 30.0, 28.0, 2.0);
    }

    proptest! {
        /// Calibration closes for a range of plausible disk profiles.
        #[test]
        fn prop_calibration_closes(
            cyls in 100u32..4000,
            max in 20.0f64..40.0,
        ) {
            // Average seek for real drives sits near 1/3 of full stroke time;
            // pick a consistent mid value.
            let avg = max * 0.4;
            let single = avg * 0.18;
            let s = SeekCurve::calibrate(cyls, avg, max, single);
            prop_assert!((s.seek_ms(cyls - 1) - max).abs() < 1e-6);
            prop_assert!((s.mean_seek_ms(cyls) - avg).abs() < 1e-6);
        }

        /// seek_ns never truncates to zero for a real move.
        #[test]
        fn prop_seek_ns_positive(d in 1u32..1260) {
            let s = SeekCurve::table1();
            prop_assert!(s.seek_ns(d) >= 1_000_000); // ≥ c = 2ms ⇒ surely ≥ 1ms
        }
    }
}
