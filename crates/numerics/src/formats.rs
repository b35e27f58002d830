//! Software floating-point formats.
//!
//! A [`FloatFormat`] describes a binary floating-point format by its
//! exponent and (explicit) significand bit counts. [`FloatFormat::quantize`]
//! rounds an `f64` to the nearest representable value of the format using
//! round-to-nearest-even, which is the rounding mode implemented by the
//! matrix engines surveyed in the paper's Table I.
//!
//! Concrete newtypes [`F16`], [`Bf16`], and [`Tf32`] store the quantized
//! value and guarantee (by construction) that the wrapped `f64` is exactly
//! representable in the target format.

/// Description of a binary floating-point format.
///
/// `sig_bits` counts the *explicit* fraction bits (e.g. 52 for f64,
/// 10 for IEEE binary16). The implicit leading bit is not counted, so the
/// precision of the format is `sig_bits + 1` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatFormat {
    /// Number of exponent bits.
    pub exp_bits: u32,
    /// Number of explicit significand (fraction) bits.
    pub sig_bits: u32,
}

/// Result of rounding a value into a format, with classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundedValue {
    /// Exact zero (preserves sign).
    Zero(f64),
    /// A normal number of the target format.
    Normal(f64),
    /// A subnormal number of the target format.
    Subnormal(f64),
    /// Overflowed to infinity.
    Overflow(f64),
    /// NaN input.
    Nan,
}

impl RoundedValue {
    /// The rounded value as `f64` (NaN for `Nan`).
    #[inline]
    pub fn value(self) -> f64 {
        match self {
            RoundedValue::Zero(v)
            | RoundedValue::Normal(v)
            | RoundedValue::Subnormal(v)
            | RoundedValue::Overflow(v) => v,
            RoundedValue::Nan => f64::NAN,
        }
    }
}

impl FloatFormat {
    /// IEEE-754 binary16: 5 exponent bits, 10 fraction bits.
    pub const F16: FloatFormat = FloatFormat { exp_bits: 5, sig_bits: 10 };
    /// bfloat16: 8 exponent bits, 7 fraction bits.
    pub const BF16: FloatFormat = FloatFormat { exp_bits: 8, sig_bits: 7 };
    /// NVIDIA TF32: 8 exponent bits, 10 fraction bits (19-bit format).
    pub const TF32: FloatFormat = FloatFormat { exp_bits: 8, sig_bits: 10 };
    /// IEEE-754 binary32.
    pub const F32: FloatFormat = FloatFormat { exp_bits: 8, sig_bits: 23 };
    /// IEEE-754 binary64.
    pub const F64: FloatFormat = FloatFormat { exp_bits: 11, sig_bits: 52 };

    /// Exponent bias (`2^(exp_bits-1) - 1`).
    #[inline]
    pub const fn bias(&self) -> i32 {
        (1i32 << (self.exp_bits - 1)) - 1
    }

    /// Maximum unbiased exponent of a normal number.
    #[inline]
    pub const fn emax(&self) -> i32 {
        self.bias()
    }

    /// Minimum unbiased exponent of a normal number.
    #[inline]
    pub const fn emin(&self) -> i32 {
        1 - self.bias()
    }

    /// Precision in bits, including the implicit leading bit.
    #[inline]
    pub const fn precision(&self) -> u32 {
        self.sig_bits + 1
    }

    /// Unit roundoff `u = 2^-precision`.
    #[inline]
    pub fn unit_roundoff(&self) -> f64 {
        (2.0f64).powi(-(self.precision() as i32))
    }

    /// Largest finite value of the format.
    pub fn max_finite(&self) -> f64 {
        // (2 - 2^-sig_bits) * 2^emax
        let frac = 2.0 - (2.0f64).powi(-(self.sig_bits as i32));
        frac * (2.0f64).powi(self.emax())
    }

    /// Smallest positive normal value.
    pub fn min_normal(&self) -> f64 {
        pow2(self.emin())
    }

    /// Smallest positive subnormal value.
    pub fn min_subnormal(&self) -> f64 {
        pow2(self.emin() - self.sig_bits as i32)
    }

    /// Round `x` to the nearest representable value (RNE), classifying the
    /// result.
    ///
    /// The implementation decomposes the `f64` bit pattern directly so that
    /// the rounding is bit-exact rather than depending on transcendental
    /// functions.
    pub fn round(&self, x: f64) -> RoundedValue {
        if x.is_nan() {
            return RoundedValue::Nan;
        }
        if x == 0.0 {
            return RoundedValue::Zero(x); // preserves -0.0
        }
        if x.is_infinite() {
            return RoundedValue::Overflow(x);
        }

        let bits = x.to_bits();
        let sign = if bits >> 63 == 1 { -1.0f64 } else { 1.0 };
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);

        // Unbiased exponent and 53-bit significand (with implicit bit) of x.
        // f64 subnormals are far below every target format's range except
        // f64 itself; normalize them explicitly.
        let (mut e, sig) = if raw_exp == 0 {
            // subnormal f64: value = frac * 2^(-1022-52)
            let shift = frac.leading_zeros() as i32 - 11; // make bit 52 the leading bit
            (-1022 - shift, frac << shift)
        } else {
            (raw_exp - 1023, frac | (1u64 << 52))
        };
        debug_assert!(sig >> 52 == 1);

        let p = self.sig_bits;
        if e >= self.emin() {
            // Normal range of the target format: round 53-bit significand to
            // p+1 bits.
            let shift = 52 - p;
            if shift == 0 {
                // Target has f64's precision: the value is already exact.
                if e > self.emax() {
                    return RoundedValue::Overflow(sign * f64::INFINITY);
                }
                return RoundedValue::Normal(x);
            }
            let keep = sig >> shift;
            let rem = sig & ((1u64 << shift) - 1);
            let half = 1u64 << (shift - 1);
            let mut keep = keep;
            if rem > half || (rem == half && keep & 1 == 1) {
                keep += 1;
                if keep >> (p + 1) == 1 {
                    // significand overflowed to 2.0
                    keep >>= 1;
                    e += 1;
                }
            }
            if e > self.emax() {
                return RoundedValue::Overflow(sign * f64::INFINITY);
            }
            let mantissa = keep as f64 * (2.0f64).powi(-(p as i32));
            return RoundedValue::Normal(sign * mantissa * (2.0f64).powi(e));
        }

        // Subnormal range (or underflow to zero) of the target format.
        let quantum_exp = self.emin() - p as i32;
        if e < quantum_exp - 1 {
            // Magnitude below half the smallest subnormal: rounds to zero.
            return RoundedValue::Zero(sign * 0.0);
        }
        // Express |x| in units of the subnormal quantum and round to an
        // integer with ties-to-even. The shift is small enough that the
        // scaled value is exactly representable.
        let q = pow2(quantum_exp);
        let scaled = x.abs() / q;
        let n = round_ties_even(scaled);
        if n == 0.0 {
            return RoundedValue::Zero(sign * 0.0);
        }
        let v = sign * n * q;
        if v.abs() >= self.min_normal() {
            RoundedValue::Normal(v)
        } else {
            RoundedValue::Subnormal(v)
        }
    }

    /// Round `x` to the format and return the value (Inf on overflow).
    #[inline]
    pub fn quantize(&self, x: f64) -> f64 {
        self.round(x).value()
    }

    /// Whether `x` is exactly representable in the format.
    pub fn representable(&self, x: f64) -> bool {
        if x.is_nan() {
            return true;
        }
        self.quantize(x) == x
    }
}

/// Exact power of two `2^k` for any `k` representable in f64, including the
/// subnormal range (`f64::powi` underflows to zero below `2^-1022` on some
/// code paths, so we construct the bit pattern directly).
#[inline]
pub fn pow2(k: i32) -> f64 {
    if k >= -1022 {
        debug_assert!(k <= 1023);
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        debug_assert!(k >= -1074);
        f64::from_bits(1u64 << (k + 1074))
    }
}

/// `2^e` for any `e` a product of two Ozaki scale factors can reach:
/// beyond f64's normal range the power is the product of two [`pow2`]
/// factors, which rounds to `inf` above and to a subnormal or zero below
/// as the true power would.
pub fn pow2_checked(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        pow2(e)
    } else if e > 1023 {
        pow2(1023) * pow2(e - 1023)
    } else {
        pow2(-1022) * pow2((e + 1022).max(-1074))
    }
}

/// Checked narrowing conversion `f64 -> f32` for values that must be
/// exactly representable in `f32`.
///
/// The Ozaki splitting kernels narrow sliced significands into the matrix
/// engine's multiply format; the scheme's exactness proof requires every
/// such value to fit without rounding. This helper is the sanctioned
/// narrowing path (the `no-as-narrowing` lint of `me-verify` forbids bare
/// `as f32` in kernel code): it performs the conversion and, in debug
/// builds, asserts the round trip is lossless.
#[inline]
pub fn narrow_f32_exact(x: f64) -> f32 {
    let narrowed = x as f32;
    debug_assert!(
        f64::from(narrowed) == x || x.is_nan(),
        "narrow_f32_exact: {x:e} is not exactly representable in f32"
    );
    narrowed
}

/// Round-to-nearest, ties-to-even on a non-negative finite f64.
#[inline]
fn round_ties_even(x: f64) -> f64 {
    // f64::round_ties_even is stable; keep a local wrapper so the rounding
    // semantics used by the formats are documented in one place.
    x.round_ties_even()
}

macro_rules! soft_float {
    ($(#[$meta:meta])* $name:ident, $fmt:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        // add/sub/mul are the natural names here; operator traits are not
        // implemented so every format-rounding point stays an explicit call.
        #[allow(clippy::should_implement_trait)]
        impl $name {
            /// The format descriptor of this type.
            pub const FORMAT: FloatFormat = $fmt;

            /// Construct by rounding an `f64` to the format (RNE).
            #[inline]
            pub fn from_f64(x: f64) -> Self {
                $name(Self::FORMAT.quantize(x))
            }

            /// The exactly-representable value as `f64`.
            #[inline]
            pub fn to_f64(self) -> f64 {
                self.0
            }

            /// Format-rounded addition.
            #[inline]
            pub fn add(self, rhs: Self) -> Self {
                Self::from_f64(self.0 + rhs.0)
            }

            /// Format-rounded subtraction.
            #[inline]
            pub fn sub(self, rhs: Self) -> Self {
                Self::from_f64(self.0 - rhs.0)
            }

            /// Format-rounded multiplication.
            #[inline]
            pub fn mul(self, rhs: Self) -> Self {
                Self::from_f64(self.0 * rhs.0)
            }

            /// Exact product in f64 (used by hybrid-accumulation engines:
            /// the product of two values with `sig_bits+1 <= 26`-bit
            /// significands is exact in f64).
            #[inline]
            pub fn mul_exact_f64(self, rhs: Self) -> f64 {
                self.0 * rhs.0
            }
        }

        impl From<f64> for $name {
            fn from(x: f64) -> Self {
                Self::from_f64(x)
            }
        }

        impl From<$name> for f64 {
            fn from(x: $name) -> f64 {
                x.to_f64()
            }
        }
    };
}

soft_float!(
    /// IEEE-754 binary16 value, stored as its exactly-representable `f64`.
    F16,
    FloatFormat::F16
);
soft_float!(
    /// bfloat16 value, stored as its exactly-representable `f64`.
    Bf16,
    FloatFormat::BF16
);
soft_float!(
    /// NVIDIA TF32 value (8-bit exponent, 10-bit fraction), stored as its
    /// exactly-representable `f64`. TF32 is the A100's hybrid 19-bit format
    /// described in the paper's Table I, footnote 3.
    Tf32,
    FloatFormat::TF32
);

impl F16 {
    /// Encode to the IEEE binary16 bit pattern.
    pub fn to_bits(self) -> u16 {
        encode(self.0, FloatFormat::F16) as u16
    }

    /// Decode from an IEEE binary16 bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        F16(decode(bits as u32, FloatFormat::F16))
    }
}

impl Bf16 {
    /// Encode to the bfloat16 bit pattern.
    pub fn to_bits(self) -> u16 {
        encode(self.0, FloatFormat::BF16) as u16
    }

    /// Decode from a bfloat16 bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        Bf16(decode(bits as u32, FloatFormat::BF16))
    }
}

/// Encode a value already exactly representable in `fmt` into the format's
/// packed bit pattern (sign | exponent | fraction).
fn encode(x: f64, fmt: FloatFormat) -> u32 {
    let sign = if x.is_sign_negative() { 1u32 << (fmt.exp_bits + fmt.sig_bits) } else { 0 };
    if x.is_nan() {
        // Canonical quiet NaN.
        let exp = ((1u32 << fmt.exp_bits) - 1) << fmt.sig_bits;
        return sign | exp | (1 << (fmt.sig_bits - 1));
    }
    if x == 0.0 {
        return sign;
    }
    if x.is_infinite() {
        let exp = ((1u32 << fmt.exp_bits) - 1) << fmt.sig_bits;
        return sign | exp;
    }
    let a = x.abs();
    let e = a.log2().floor() as i32;
    // Guard against log2 edge cases at powers of two.
    let e = if (2.0f64).powi(e + 1) <= a { e + 1 } else { e };
    if e < fmt.emin() {
        // subnormal
        let q = pow2(fmt.emin() - fmt.sig_bits as i32);
        let frac = (a / q) as u32;
        return sign | frac;
    }
    let mant = a / (2.0f64).powi(e); // in [1,2)
    let frac = ((mant - 1.0) * (2.0f64).powi(fmt.sig_bits as i32)) as u32;
    let biased = (e + fmt.bias()) as u32;
    sign | (biased << fmt.sig_bits) | frac
}

/// Decode a packed bit pattern of `fmt` into the exact `f64` value.
fn decode(bits: u32, fmt: FloatFormat) -> f64 {
    let sig_mask = (1u32 << fmt.sig_bits) - 1;
    let exp_mask = (1u32 << fmt.exp_bits) - 1;
    let frac = bits & sig_mask;
    let exp = (bits >> fmt.sig_bits) & exp_mask;
    let sign = if (bits >> (fmt.exp_bits + fmt.sig_bits)) & 1 == 1 { -1.0 } else { 1.0 };
    if exp == exp_mask {
        return if frac == 0 { sign * f64::INFINITY } else { f64::NAN };
    }
    if exp == 0 {
        let q = pow2(fmt.emin() - fmt.sig_bits as i32);
        return sign * frac as f64 * q;
    }
    let e = exp as i32 - fmt.bias();
    let mant = 1.0 + frac as f64 * (2.0f64).powi(-(fmt.sig_bits as i32));
    sign * mant * (2.0f64).powi(e)
}

// ---------------------------------------------------------------------
// Compact half-precision storage (the GEMM-facing bit formats).
//
// The soft [`F16`] / [`Bf16`] newtypes above store the exactly-
// representable f64 — convenient for the modeled engines, but 4x too wide
// for a packed GEMM operand. [`F16Bits`] / [`Bf16Bits`] are the storage
// duals: a bare `u16` bit pattern with a **bit-exact** `f32` codec. The
// narrowing direction is IEEE round-to-nearest-even computed on integer
// bit patterns (no float arithmetic, no double rounding); the widening
// direction is exact (every f16/bf16 value is representable in f32), so
// `to_f32(from_f32(x))` is the unique RNE-rounded neighbour of `x` and
// `from_f32(to_f32(h)) == h` for every non-NaN pattern `h`.
// ---------------------------------------------------------------------

/// IEEE-754 binary16 stored as its 16-bit pattern, with a bit-exact
/// `f32` codec. This is the operand storage type of the half-precision
/// GEMM path: `me-linalg` packs `F16Bits` panels while widening to `f32`
/// through [`F16Bits::to_f32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16Bits(pub u16);

/// bfloat16 stored as its 16-bit pattern, with a bit-exact `f32` codec
/// (widening is `bits << 16`; narrowing rounds the low 16 f32 bits away
/// with ties-to-even).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16Bits(pub u16);

impl F16Bits {
    /// Positive zero.
    pub const ZERO: F16Bits = F16Bits(0);

    /// Narrow an `f32` to binary16 with round-to-nearest-even, computed
    /// entirely on the integer bit pattern: normals round the 24-bit
    /// significand to 11 bits (with exponent carry), values below
    /// `2^-14` round on the fixed `2^-24` subnormal quantum, results at
    /// or beyond `65520` overflow to infinity, and NaN canonicalizes to
    /// a sign-preserving quiet NaN.
    pub fn from_f32(x: f32) -> F16Bits {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let abs = bits & 0x7fff_ffff;
        if abs >= 0x7f80_0000 {
            // Inf stays Inf; every NaN payload canonicalizes (quiet,
            // sign preserved) — mirroring the soft-path `encode`.
            return F16Bits(if abs == 0x7f80_0000 { sign | 0x7c00 } else { sign | 0x7e00 });
        }
        let exp = (abs >> 23) as i32 - 127;
        if exp >= 16 {
            // |x| >= 2^16 > 65519.999…: past even the round-down edge.
            return F16Bits(sign | 0x7c00);
        }
        // 24-bit significand with the implicit bit made explicit; f32
        // subnormals (exp field 0) are < 2^-126, far below half the f16
        // quantum, and fall through the shift clamp to zero.
        let mant = if abs >> 23 == 0 { abs } else { (abs & 0x007f_ffff) | 0x0080_0000 };
        // Normals drop 13 fraction bits; each step below emin = -14
        // widens the drop by one (the subnormal quantum is fixed at
        // 2^-24). Beyond 24 dropped bits the remainder can never reach
        // the rounding half, so the result is an exact zero.
        let shift = if exp >= -14 { 13 } else { 13 + (-14 - exp) as u32 };
        if shift > 24 {
            return F16Bits(sign);
        }
        let mut keep = mant >> shift;
        let rem = mant & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && keep & 1 == 1) {
            keep += 1;
        }
        let mut e = exp.max(-15); // subnormal results carry via `keep` alone
        if keep >> 11 == 1 {
            // Significand rounded up to 2.0: renormalize.
            keep >>= 1;
            e += 1;
        }
        if exp < -14 {
            // Subnormal grid: `keep` IS the low bit pattern, and a
            // round-up to 1024 lands exactly on min-normal's encoding.
            return F16Bits(sign | keep as u16);
        }
        if e > 15 {
            return F16Bits(sign | 0x7c00);
        }
        F16Bits(sign | (((e + 15) as u32) << 10) as u16 | (keep & 0x3ff) as u16)
    }

    /// Widen to `f32` — exact for every pattern (binary16 ⊂ binary32);
    /// NaN payloads are preserved and quieted.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let bits = self.0 as u32;
        let sign = (bits & 0x8000) << 16;
        let exp = (bits >> 10) & 0x1f;
        let frac = bits & 0x3ff;
        if exp == 0x1f {
            let nan = if frac != 0 { 0x0040_0000 | (frac << 13) } else { 0 };
            return f32::from_bits(sign | 0x7f80_0000 | nan);
        }
        if exp == 0 {
            if frac == 0 {
                return f32::from_bits(sign);
            }
            // Normalize the subnormal: bring the leading bit to position
            // 10, each shift step lowering the exponent below -14.
            let shift = frac.leading_zeros() - 21;
            let e = (-14 - shift as i32 + 127) as u32;
            return f32::from_bits(sign | (e << 23) | (((frac << shift) & 0x3ff) << 13));
        }
        let e = (exp as i32 - 15 + 127) as u32;
        f32::from_bits(sign | (e << 23) | (frac << 13))
    }

    /// The raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Wrap a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> F16Bits {
        F16Bits(bits)
    }

    /// The soft (f64-backed) view of the same value, for cross-checking
    /// against [`FloatFormat::F16`].
    pub fn to_soft(self) -> F16 {
        F16::from_bits(self.0)
    }
}

impl Bf16Bits {
    /// Positive zero.
    pub const ZERO: Bf16Bits = Bf16Bits(0);

    /// Narrow an `f32` to bfloat16 with round-to-nearest-even: the low
    /// 16 bits round away on the integer pattern, with mantissa carry
    /// propagating naturally into the exponent (so max-finite + half-ulp
    /// overflows to infinity exactly as IEEE prescribes). NaN
    /// canonicalizes to a sign-preserving quiet NaN.
    pub fn from_f32(x: f32) -> Bf16Bits {
        let bits = x.to_bits();
        if bits & 0x7fff_ffff > 0x7f80_0000 {
            return Bf16Bits((((bits >> 16) & 0x8000) | 0x7fc0) as u16);
        }
        let mut keep = bits >> 16;
        let rem = bits & 0xffff;
        if rem > 0x8000 || (rem == 0x8000 && keep & 1 == 1) {
            keep += 1; // carries through exponent; 0x7f7f + 1 = Inf
        }
        Bf16Bits(keep as u16)
    }

    /// Widen to `f32` — exact for every pattern (`bits << 16`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// The raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Wrap a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> Bf16Bits {
        Bf16Bits(bits)
    }

    /// The soft (f64-backed) view of the same value, for cross-checking
    /// against [`FloatFormat::BF16`].
    pub fn to_soft(self) -> Bf16 {
        Bf16::from_bits(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_constants() {
        let f = FloatFormat::F16;
        assert_eq!(f.bias(), 15);
        assert_eq!(f.emax(), 15);
        assert_eq!(f.emin(), -14);
        assert_eq!(f.precision(), 11);
        assert_eq!(f.max_finite(), 65504.0);
        assert_eq!(f.min_normal(), 6.103515625e-05);
        assert_eq!(f.min_subnormal(), 5.960464477539063e-08);
    }

    #[test]
    fn bf16_constants() {
        let f = FloatFormat::BF16;
        assert_eq!(f.bias(), 127);
        assert_eq!(f.precision(), 8);
        // bf16 max = 0x7f7f = 3.3895e38
        let m = f.max_finite();
        assert!((m - 3.3895313892515355e38).abs() / m < 1e-12);
    }

    #[test]
    fn quantize_exact_values() {
        for v in [0.0, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25, 65504.0] {
            assert_eq!(FloatFormat::F16.quantize(v), v, "{v} should be exact in f16");
        }
    }

    #[test]
    fn quantize_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1 and 1+2^-10 in f16;
        // RNE picks the even significand, i.e. 1.0.
        let x = 1.0 + (2.0f64).powi(-11);
        assert_eq!(FloatFormat::F16.quantize(x), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even is 1+2^-9.
        let x = 1.0 + 3.0 * (2.0f64).powi(-11);
        assert_eq!(FloatFormat::F16.quantize(x), 1.0 + (2.0f64).powi(-9));
        // Just above the halfway point rounds up.
        let x = 1.0 + (2.0f64).powi(-11) + (2.0f64).powi(-30);
        assert_eq!(FloatFormat::F16.quantize(x), 1.0 + (2.0f64).powi(-10));
    }

    #[test]
    fn quantize_overflow_to_inf() {
        assert_eq!(FloatFormat::F16.quantize(1e6), f64::INFINITY);
        assert_eq!(FloatFormat::F16.quantize(-1e6), f64::NEG_INFINITY);
        // Values between max finite and the overflow threshold round down.
        assert_eq!(FloatFormat::F16.quantize(65519.0), 65504.0);
        assert_eq!(FloatFormat::F16.quantize(65520.0), f64::INFINITY);
    }

    #[test]
    fn quantize_subnormals() {
        let f = FloatFormat::F16;
        let q = f.min_subnormal();
        assert_eq!(f.quantize(q), q);
        assert_eq!(f.quantize(q * 3.0), q * 3.0);
        assert_eq!(f.quantize(q * 0.4), 0.0);
        // Exactly half a quantum rounds to even (zero).
        assert_eq!(f.quantize(q * 0.5), 0.0);
        assert_eq!(f.quantize(q * 1.5), q * 2.0);
        // Sign of zero is preserved.
        assert!(f.quantize(-0.0).is_sign_negative());
        assert!(f.quantize(-(q * 0.4)).is_sign_negative());
    }

    #[test]
    fn quantize_nan_and_inf() {
        assert!(FloatFormat::F16.quantize(f64::NAN).is_nan());
        assert_eq!(FloatFormat::F16.quantize(f64::INFINITY), f64::INFINITY);
        assert_eq!(FloatFormat::BF16.quantize(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn f64_format_is_identity() {
        for v in [1.0, std::f64::consts::PI, 1e-300, 1e300, 5e-324, f64::MAX] {
            assert_eq!(FloatFormat::F64.quantize(v), v);
        }
    }

    #[test]
    fn f32_format_matches_hardware_f32() {
        let mut x = 0.1f64;
        for _ in 0..100 {
            let soft = FloatFormat::F32.quantize(x);
            let hard = x as f32 as f64;
            assert_eq!(soft, hard, "mismatch at {x}");
            x = x * 1.7 + 0.3;
        }
    }

    #[test]
    fn bit_roundtrip_f16() {
        for bits in [0u16, 1, 0x3c00, 0x7bff, 0x0400, 0x03ff, 0x8001, 0xfbff] {
            let v = F16::from_bits(bits);
            assert_eq!(v.to_bits(), bits, "roundtrip failed for {bits:#06x}");
        }
        // Inf and NaN patterns.
        assert_eq!(F16::from_bits(0x7c00).to_f64(), f64::INFINITY);
        assert!(F16::from_bits(0x7e00).to_f64().is_nan());
    }

    #[test]
    fn bf16_truncation_semantics() {
        // bf16(1/3) should equal f32 bits rounded to 8-bit significand.
        let v = Bf16::from_f64(1.0 / 3.0);
        assert!((v.to_f64() - 1.0 / 3.0).abs() < (2.0f64).powi(-9));
        assert!(FloatFormat::BF16.representable(v.to_f64()));
    }

    #[test]
    fn tf32_has_f16_precision_with_f32_range() {
        // Precision like f16:
        assert_eq!(FloatFormat::TF32.precision(), FloatFormat::F16.precision());
        // Range like f32: 1e38 representable (finite).
        assert!(FloatFormat::TF32.quantize(1e38).is_finite());
        assert!(FloatFormat::F16.quantize(1e38).is_infinite());
    }

    #[test]
    fn representable_checks() {
        assert!(FloatFormat::F16.representable(0.5));
        assert!(!FloatFormat::F16.representable(0.1));
        assert!(FloatFormat::F32.representable(0.5));
    }

    #[test]
    fn soft_arith_rounds() {
        let a = F16::from_f64(1.0);
        let b = F16::from_f64((2.0f64).powi(-11));
        // 1 + 2^-11 rounds back to 1 in f16.
        assert_eq!(a.add(F16::from_f64(b.to_f64())).to_f64(), 1.0);
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;

    /// Every one of the 65,536 binary16 bit patterns decodes to a value the
    /// format round-trips exactly: decode -> quantize (identity) -> encode
    /// recovers the bits. The canonical-NaN exception aside, this pins the
    /// entire f16 codec bit-for-bit.
    #[test]
    fn f16_all_bit_patterns_roundtrip() {
        for bits in 0..=u16::MAX {
            let v = F16::from_bits(bits);
            let x = v.to_f64();
            if x.is_nan() {
                // All NaN payloads canonicalize; just confirm NaN-ness.
                assert!(FloatFormat::F16.quantize(x).is_nan());
                continue;
            }
            assert_eq!(
                FloatFormat::F16.quantize(x),
                x,
                "decoded value of {bits:#06x} must be exactly representable"
            );
            assert_eq!(v.to_bits(), bits, "encode(decode({bits:#06x})) mismatch");
        }
    }

    /// Quantization is monotone and correctly rounded between neighbours:
    /// for every pair of consecutive positive f16 values (a, b), points
    /// below the midpoint round to a, points above round to b, and the
    /// midpoint ties to the even significand. Walks the entire positive
    /// finite f16 bit space.
    #[test]
    fn f16_quantize_monotone_between_all_neighbours() {
        let f = FloatFormat::F16;
        for bits in 0..0x7bffu16 {
            let a = F16::from_bits(bits).to_f64();
            let b = F16::from_bits(bits + 1).to_f64();
            debug_assert!(a < b);
            let mid = (a + b) / 2.0; // exact: a,b have short significands
            let qa = f.quantize(a + (b - a) * 0.25);
            let qb = f.quantize(a + (b - a) * 0.75);
            assert_eq!(qa, a, "below-midpoint must round down at {bits:#06x}");
            assert_eq!(qb, b, "above-midpoint must round up at {bits:#06x}");
            let qm = f.quantize(mid);
            let even = if bits & 1 == 0 { a } else { b };
            assert_eq!(qm, even, "tie must go to even at {bits:#06x}");
        }
    }

    /// bf16's 65,536 patterns likewise.
    #[test]
    fn bf16_all_bit_patterns_roundtrip() {
        for bits in 0..=u16::MAX {
            let v = Bf16::from_bits(bits);
            let x = v.to_f64();
            if x.is_nan() {
                continue;
            }
            assert_eq!(FloatFormat::BF16.quantize(x), x, "{bits:#06x}");
            assert_eq!(v.to_bits(), bits, "{bits:#06x}");
        }
    }

    /// f16 quantization agrees with reference conversion through f32
    /// rounding on a large sample (f64 -> f16 directly must equal
    /// f64 -> f32 -> f16 whenever the double rounding is benign; we only
    /// assert the cases where both paths land on representable values).
    #[test]
    fn f16_matches_two_step_rounding_when_benign() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..200_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            let x = u * 1000.0;
            let direct = FloatFormat::F16.quantize(x);
            let via_f32 = FloatFormat::F16.quantize(x as f32 as f64);
            // Double rounding can differ by at most one ulp; both must be
            // representable and within one ulp of each other.
            assert!(FloatFormat::F16.representable(direct));
            let ulps = crate::error::ulp_diff(direct, via_f32);
            assert!(ulps <= 1 << 42, "paths diverged wildly at {x}");
        }
    }
}
