use tie_tensor::{Result, TensorError};

/// A signed 16-bit Q-number format with a runtime fraction-bit count.
///
/// A value `x` is stored as `round(x · 2^frac_bits)` clamped to
/// `[-32768, 32767]`. `QFormat::new(12)` is Q3.12: range ±8, step 2⁻¹².
/// The TIE paper fixes the container at 16 bits (Table 5) but the fraction
/// split is a per-layer calibration choice, so it is runtime data here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u32,
}

impl QFormat {
    /// Total container bits (paper Table 5: 16-bit quantization).
    pub const CONTAINER_BITS: u32 = 16;

    /// Creates a format with `frac_bits` fraction bits.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `frac_bits >= 16`
    /// (at least the sign bit must remain).
    pub fn new(frac_bits: u32) -> Result<Self> {
        if frac_bits >= Self::CONTAINER_BITS {
            return Err(TensorError::InvalidArgument {
                message: format!("frac_bits {frac_bits} must be < {}", Self::CONTAINER_BITS),
            });
        }
        Ok(QFormat { frac_bits })
    }

    /// Fraction bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Quantization step `2^-frac_bits`.
    #[inline]
    pub fn step(&self) -> f64 {
        // Built from the exponent field: `powi` compiles to a
        // `__powidf2` call, paid per element by a dequantize loop.
        f64::from_bits((1023 - u64::from(self.frac_bits)) << 52)
    }

    /// Scale `2^frac_bits` applied before rounding.
    #[inline]
    fn scale(&self) -> f64 {
        f64::from(1u32 << self.frac_bits)
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        i16::MAX as f64 * self.step()
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(&self) -> f64 {
        i16::MIN as f64 * self.step()
    }

    /// Quantizes a real value: round-to-nearest-even scaling, saturating at
    /// the container bounds. NaN maps to code 0.
    #[inline]
    pub fn quantize(&self, x: f64) -> i16 {
        round_code(x * self.scale())
    }

    /// Quantizes `src` element-wise into `dst` ([`QFormat::quantize`] per
    /// element, bit for bit). The loop has no calls, so it vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn quantize_into(&self, src: &[f64], dst: &mut [i16]) {
        assert_eq!(src.len(), dst.len(), "quantize_into length mismatch");
        let scale = self.scale();
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = round_code(x * scale);
        }
    }

    /// True if quantizing `x` would saturate: its scaled value rounds
    /// (half to even) past a container bound. `32767.5` rounds up to the
    /// even `32768`, `-32768.5` to the even `-32768`.
    pub fn saturates(&self, x: f64) -> bool {
        let scaled = x * self.scale();
        scaled >= i16::MAX as f64 + 0.5 || scaled < i16::MIN as f64 - 0.5
    }

    /// Dequantizes a raw code back to a real value.
    #[inline]
    pub fn dequantize(&self, q: i16) -> f64 {
        f64::from(q) * self.step()
    }

    /// Dequantizes `src` element-wise into `dst` ([`QFormat::dequantize`]
    /// per element, bit for bit).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn dequantize_into(&self, src: &[i16], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "dequantize_into length mismatch");
        let step = self.step();
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = f64::from(q) * step;
        }
    }

    /// Picks the largest fraction-bit count whose range covers
    /// `max_abs` (standard symmetric-range calibration).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `max_abs` is not a
    /// positive finite number.
    pub fn calibrate(max_abs: f64) -> Result<Self> {
        if !(max_abs.is_finite() && max_abs > 0.0) {
            return Err(TensorError::InvalidArgument {
                message: format!("cannot calibrate QFormat for max_abs = {max_abs}"),
            });
        }
        // Finest format whose range covers max_abs: descend from Q0.15.
        let mut f: u32 = Self::CONTAINER_BITS - 1;
        while f > 0 && (QFormat { frac_bits: f }).saturates(max_abs) {
            f -= 1;
        }
        QFormat::new(f)
    }
}

/// Rounds a scaled value half-to-even into the 16-bit container,
/// saturating at its bounds; NaN maps to 0.
///
/// Clamping before rounding is exact because both bounds are integers.
/// Adding `1.5·2⁵²` then rounds to the nearest integer under the default
/// ties-to-even mode: every clamped value lands in `[2⁵², 2⁵³)`, where
/// the spacing of doubles is exactly 1, and the sum's low mantissa bits
/// hold that integer in two's complement, so its low 16 bits are the
/// code. On the baseline x86-64 target `round_ties_even` is a `rint`
/// library call per element and the saturating `as i16` a compare chain;
/// this is one addition and a bit cast, and it vectorizes.
#[inline(always)]
fn round_code(scaled: f64) -> i16 {
    const SHIFTER: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    let c = if scaled.is_nan() {
        0.0
    } else {
        scaled.clamp(i16::MIN as f64, i16::MAX as f64)
    };
    (c + SHIFTER).to_bits() as i16
}

impl Default for QFormat {
    /// Q4.11: range ±16, a serviceable default for unit-scale activations.
    fn default() -> Self {
        QFormat { frac_bits: 11 }
    }
}

impl std::fmt::Display for QFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Q{}.{}",
            Self::CONTAINER_BITS - 1 - self.frac_bits,
            self.frac_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference rounding: scale, round half-to-even with the library
    /// routine, then saturate. `quantize` must match it bit for bit.
    fn oracle(fmt: QFormat, x: f64) -> i16 {
        let scaled = x * (1u32 << fmt.frac_bits()) as f64;
        scaled
            .round_ties_even()
            .clamp(i16::MIN as f64, i16::MAX as f64) as i16
    }

    /// The reference saturation test on the oracle's rounding.
    fn oracle_saturates(fmt: QFormat, x: f64) -> bool {
        let scaled = (x * (1u32 << fmt.frac_bits()) as f64).round_ties_even();
        scaled > i16::MAX as f64 || scaled < i16::MIN as f64
    }

    /// Checks `quantize`, `quantize_into` and `saturates` against the
    /// oracles on `xs`.
    fn assert_matches_oracle(fmt: QFormat, xs: &[f64]) {
        let mut codes = vec![0i16; xs.len()];
        fmt.quantize_into(xs, &mut codes);
        for (&x, &code) in xs.iter().zip(&codes) {
            let want = oracle(fmt, x);
            assert_eq!(fmt.quantize(x), want, "{fmt}: quantize({x:e})");
            assert_eq!(code, want, "{fmt}: quantize_into({x:e})");
            assert_eq!(
                fmt.saturates(x),
                oracle_saturates(fmt, x),
                "{fmt}: saturates({x:e})"
            );
        }
    }

    #[test]
    fn rounding_matches_the_library_oracle_on_every_tie() {
        for f in 0..QFormat::CONTAINER_BITS {
            let fmt = QFormat::new(f).unwrap();
            // Every half-integer k/2 of the scaled value over
            // [-32769, 32768], and one ulp either side of each.
            let mut xs = Vec::with_capacity(3 * 131_076);
            for k in -65_538i32..=65_536 {
                let x = f64::from(k) / 2.0 / fmt.scale();
                xs.extend([x.next_down(), x, x.next_up()]);
            }
            assert_matches_oracle(fmt, &xs);
        }
    }

    #[test]
    fn rounding_matches_the_library_oracle_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for f in 0..QFormat::CONTAINER_BITS {
            let fmt = QFormat::new(f).unwrap();
            assert_matches_oracle(fmt, &specials);
            assert_eq!(fmt.quantize(f64::NAN), 0, "{fmt}: NaN maps to 0");
            assert_eq!(fmt.quantize(f64::INFINITY), i16::MAX);
            assert_eq!(fmt.quantize(f64::NEG_INFINITY), i16::MIN);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn rounding_matches_the_library_oracle_on_any_bit_pattern(
            bits in 0u64..u64::MAX,
            f in 0u32..QFormat::CONTAINER_BITS,
        ) {
            let fmt = QFormat::new(f).unwrap();
            let x = f64::from_bits(bits);
            let mut code = [0i16];
            fmt.quantize_into(&[x], &mut code);
            prop_assert_eq!(fmt.quantize(x), oracle(fmt, x), "{} {:e}", fmt, x);
            prop_assert_eq!(code[0], oracle(fmt, x), "{} {:e}", fmt, x);
            prop_assert_eq!(fmt.saturates(x), oracle_saturates(fmt, x), "{} {:e}", fmt, x);
        }
    }

    #[test]
    fn dequantize_matches_code_times_step() {
        let codes: Vec<i16> = (i16::MIN..=i16::MAX).collect();
        let mut ys = vec![0.0f64; codes.len()];
        for f in 0..QFormat::CONTAINER_BITS {
            let fmt = QFormat::new(f).unwrap();
            assert_eq!(fmt.step(), (2.0f64).powi(-(f as i32)), "{fmt}: step");
            fmt.dequantize_into(&codes, &mut ys);
            for (&q, &y) in codes.iter().zip(&ys) {
                let want = q as f64 * fmt.step();
                assert_eq!(fmt.dequantize(q).to_bits(), want.to_bits(), "{fmt}: {q}");
                assert_eq!(y.to_bits(), want.to_bits(), "{fmt}: dequantize_into {q}");
            }
        }
    }

    #[test]
    fn new_rejects_too_many_frac_bits() {
        assert!(QFormat::new(16).is_err());
        assert!(QFormat::new(15).is_ok());
        assert!(QFormat::new(0).is_ok());
    }

    #[test]
    fn quantize_dequantize_roundtrip_within_half_step() {
        let fmt = QFormat::new(10).unwrap();
        for x in [-3.7, -0.001, 0.0, 0.4999, 2.25, 15.99] {
            let q = fmt.quantize(x);
            let back = fmt.dequantize(q);
            assert!(
                (back - x).abs() <= fmt.step() / 2.0 + 1e-12,
                "x={x} back={back}"
            );
        }
    }

    #[test]
    fn saturation_clamps_and_is_reported() {
        let fmt = QFormat::new(12).unwrap(); // range ±8
        assert!(fmt.saturates(10.0));
        assert_eq!(fmt.quantize(10.0), i16::MAX);
        assert_eq!(fmt.quantize(-10.0), i16::MIN);
        assert!(!fmt.saturates(7.9));
    }

    #[test]
    fn calibrate_covers_max_abs_without_waste() {
        for max_abs in [0.1, 0.9, 1.0, 3.5, 100.0, 20000.0] {
            let fmt = QFormat::calibrate(max_abs).unwrap();
            assert!(!fmt.saturates(max_abs), "max_abs {max_abs} saturates {fmt}");
            // One more fraction bit would saturate (unless already at max).
            if fmt.frac_bits() < 15 {
                let finer = QFormat::new(fmt.frac_bits() + 1).unwrap();
                assert!(
                    finer.saturates(max_abs),
                    "{fmt} wastes range for max_abs {max_abs}"
                );
            }
        }
        assert!(QFormat::calibrate(0.0).is_err());
        assert!(QFormat::calibrate(f64::NAN).is_err());
    }

    #[test]
    fn display_shows_q_notation() {
        assert_eq!(QFormat::new(12).unwrap().to_string(), "Q3.12");
        assert_eq!(QFormat::default().to_string(), "Q4.11");
    }

    #[test]
    fn step_and_range_consistency() {
        let fmt = QFormat::new(8).unwrap();
        assert_eq!(fmt.step(), 1.0 / 256.0);
        assert!((fmt.max_value() - 127.99609375).abs() < 1e-12);
        assert_eq!(fmt.min_value(), -128.0);
    }
}
