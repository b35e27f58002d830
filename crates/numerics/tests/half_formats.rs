//! Bit-exact validation of the `u16` half-precision codecs
//! ([`me_numerics::F16Bits`], [`me_numerics::Bf16Bits`]).
//!
//! These codecs are the storage layer of the half-precision GEMM compute
//! path (me-linalg's `blas3::half`) and of the HostF16 Ozaki backend, so
//! their narrowing must be *exactly* IEEE 754 round-to-nearest-even —
//! one wrong tie or mishandled subnormal silently breaks the
//! bitwise-equality pins downstream. Three independent lines of attack:
//!
//! 1. a hand-computed bit table (ties at both parities, overflow → inf,
//!    the 2^-24 / 2^-133 subnormal quanta, NaN sign, signed zero);
//! 2. exhaustive sweeps over all 65536 bit patterns (round-trips, and
//!    widen-monotonicity over the ordered finite patterns);
//! 3. seeded differential tests against the repo's independent f64-path
//!    RNE reference, `FloatFormat::quantize`.

use me_numerics::{Bf16Bits, F16Bits, FloatFormat, Rng64};

// ---------------------------------------------------------------------------
// 1. Hand-computed bit tables.
// ---------------------------------------------------------------------------

/// binary16 narrowing cases computed by hand from the encoding
/// (1 sign, 5 exp bits, bias 15, 10 fraction bits).
#[test]
fn f16_hand_computed_bit_table() {
    let table: &[(f32, u16, &str)] = &[
        (0.0, 0x0000, "positive zero"),
        (-0.0, 0x8000, "negative zero keeps its sign"),
        (1.0, 0x3C00, "one"),
        (-1.0, 0xBC00, "minus one"),
        (2.0, 0x4000, "two"),
        (0.5, 0x3800, "half"),
        (1.0 + 2f32.powi(-10), 0x3C01, "one + one ulp"),
        // 1 + 2^-11 is exactly halfway between frac 0 and frac 1: RNE
        // ties to the even fraction 0.
        (1.0 + 2f32.powi(-11), 0x3C00, "tie rounds down to even frac 0"),
        // 1 + 3·2^-11 is halfway between frac 1 and frac 2: ties to 2.
        (1.0 + 3.0 * 2f32.powi(-11), 0x3C02, "tie rounds up to even frac 2"),
        (65504.0, 0x7BFF, "max finite"),
        // 65520 is exactly halfway between 65504 and 2^16; RNE picks the
        // even candidate 2^16, which overflows the 5-bit exponent.
        (65520.0, 0x7C00, "overflow tie rounds to +inf"),
        (-65520.0, 0xFC00, "overflow tie rounds to -inf"),
        (65519.0, 0x7BFF, "just under the overflow tie stays finite"),
        (f32::INFINITY, 0x7C00, "+inf"),
        (f32::NEG_INFINITY, 0xFC00, "-inf"),
        (2f32.powi(-14), 0x0400, "min normal"),
        (2f32.powi(-15), 0x0200, "subnormal: half the min normal"),
        (2f32.powi(-24), 0x0001, "min subnormal 2^-24"),
        (-2f32.powi(-24), 0x8001, "negative min subnormal"),
        // 2^-25 is halfway between 0 and the 2^-24 quantum: ties to 0.
        (2f32.powi(-25), 0x0000, "half the min subnormal ties to zero"),
        (-2f32.powi(-25), 0x8000, "...preserving the sign of the zero"),
        // 1.5·2^-24 is halfway between quanta 1 and 2: ties to 2.
        (1.5 * 2f32.powi(-24), 0x0002, "subnormal tie rounds to even"),
        // Anything past the halfway point rounds away from zero.
        (1.5 * 2f32.powi(-25), 0x0001, "0.75 quantum rounds up"),
        // 1/3 in binary16: significand 1.0101010101|01..., remainder
        // below half, so the fraction truncates to 0b0101010101 = 0x155.
        (1.0 / 3.0, 0x3555, "one third rounds down"),
    ];
    for &(x, want, why) in table {
        let got = F16Bits::from_f32(x).to_bits();
        assert_eq!(got, want, "f16({x:e}): got {got:#06x}, want {want:#06x} ({why})");
    }
}

/// bfloat16 narrowing cases (1 sign, 8 exp bits, bias 127, 7 fraction
/// bits — f32's upper half, rounded RNE on the discarded 16 bits).
#[test]
fn bf16_hand_computed_bit_table() {
    let table: &[(f32, u16, &str)] = &[
        (0.0, 0x0000, "positive zero"),
        (-0.0, 0x8000, "negative zero keeps its sign"),
        (1.0, 0x3F80, "one"),
        (-2.0, 0xC000, "minus two"),
        (1.0 + 2f32.powi(-7), 0x3F81, "one + one ulp"),
        // Discarded low half exactly 0x8000 with even high half: stays.
        (f32::from_bits(0x3F80_8000), 0x3F80, "tie at even high half"),
        // Same tie with odd high half: rounds up.
        (f32::from_bits(0x3F81_8000), 0x3F82, "tie at odd high half"),
        // One past the tie rounds up regardless of parity.
        (f32::from_bits(0x3F80_8001), 0x3F81, "past the tie rounds up"),
        (f32::from_bits(0x7F7F_FFFF), 0x7F80, "f32::MAX overflows to +inf"),
        (f32::from_bits(0xFF7F_FFFF), 0xFF80, "-f32::MAX overflows to -inf"),
        (f32::from_bits(0x7F7F_0000), 0x7F7F, "bf16 max finite is exact"),
        (f32::INFINITY, 0x7F80, "+inf"),
        (f32::NEG_INFINITY, 0xFF80, "-inf"),
        // f32::powi flushes subnormal results to zero, so the deep
        // subnormal inputs are built from their bit patterns directly
        // (f32 subnormal = frac · 2^-149; 2^-133 has frac = 2^16).
        (f32::from_bits(0x0080_0000), 0x0080, "min normal 2^-126"),
        (f32::from_bits(0x0001_0000), 0x0001, "min subnormal 2^-133"),
        (f32::from_bits(0x8001_0000), 0x8001, "negative min subnormal"),
        // 2^-134 is halfway between 0 and the 2^-133 quantum: ties to 0.
        (f32::from_bits(0x0000_8000), 0x0000, "half the min subnormal ties to zero"),
        (f32::from_bits(0x0001_8000), 0x0002, "subnormal tie rounds to even"),
        // f32's own min subnormal is far below bf16's range.
        (f32::from_bits(0x0000_0001), 0x0000, "f32 min subnormal flushes"),
        // π keeps its upper half: 0x40490FDB, low 0x0FDB < 0x8000.
        (std::f32::consts::PI, 0x4049, "pi rounds down"),
    ];
    for &(x, want, why) in table {
        let got = Bf16Bits::from_f32(x).to_bits();
        assert_eq!(got, want, "bf16({x:e}): got {got:#06x}, want {want:#06x} ({why})");
    }
}

/// NaN narrowing canonicalizes the payload but must keep the sign and
/// NaN-ness for every NaN input, including signalling payloads.
#[test]
fn nan_narrowing_keeps_sign_and_nanness() {
    let nans: [u32; 6] = [
        0x7FC0_0000, // canonical quiet +NaN
        0xFFC0_0000, // canonical quiet -NaN
        0x7F80_0001, // signalling +NaN, minimal payload
        0xFF80_0001, // signalling -NaN
        0x7FFF_FFFF, // all-ones payload
        0xFFAB_CDEF, // arbitrary negative payload
    ];
    for bits in nans {
        let x = f32::from_bits(bits);
        let neg = bits >> 31 == 1;

        let h = F16Bits::from_f32(x);
        assert_eq!(h.to_bits() & 0x7FFF, 0x7E00, "f16 canonical NaN payload");
        assert_eq!(h.to_bits() >> 15 == 1, neg, "f16 NaN sign for {bits:#010x}");
        assert!(h.to_f32().is_nan());

        let b = Bf16Bits::from_f32(x);
        assert_eq!(b.to_bits() & 0x7FFF, 0x7FC0, "bf16 canonical NaN payload");
        assert_eq!(b.to_bits() >> 15 == 1, neg, "bf16 NaN sign for {bits:#010x}");
        assert!(b.to_f32().is_nan());
    }
}

// ---------------------------------------------------------------------------
// 2. Exhaustive 65536-pattern sweeps.
// ---------------------------------------------------------------------------

/// Widening is exact, so narrow(widen(p)) must reproduce every non-NaN
/// bit pattern p exactly; NaN patterns must come back canonical with the
/// sign preserved. Exhaustive over all 2^16 patterns for both kinds.
#[test]
fn round_trip_is_identity_for_all_65536_patterns() {
    for p in 0..=u16::MAX {
        let f = F16Bits::from_bits(p);
        let is_nan_f16 = (p & 0x7C00) == 0x7C00 && (p & 0x03FF) != 0;
        let rt = F16Bits::from_f32(f.to_f32()).to_bits();
        if is_nan_f16 {
            assert_eq!(rt, (p & 0x8000) | 0x7E00, "f16 NaN {p:#06x} canonicalizes");
        } else {
            assert_eq!(rt, p, "f16 round trip of {p:#06x}");
        }

        let b = Bf16Bits::from_bits(p);
        let is_nan_bf16 = (p & 0x7F80) == 0x7F80 && (p & 0x007F) != 0;
        let rt = Bf16Bits::from_f32(b.to_f32()).to_bits();
        if is_nan_bf16 {
            assert_eq!(rt, (p & 0x8000) | 0x7FC0, "bf16 NaN {p:#06x} canonicalizes");
        } else {
            assert_eq!(rt, p, "bf16 round trip of {p:#06x}");
        }
    }
}

/// Widening must be strictly monotone over the finite patterns in value
/// order (subnormals chain seamlessly into normals, no step is skipped
/// or repeated). Sweeps every adjacent non-negative finite pair; the
/// negative half follows by the sign symmetry asserted alongside.
#[test]
fn widening_is_strictly_monotone_over_finite_patterns() {
    // f16: non-negative finite patterns are 0x0000..=0x7BFF in value order.
    for p in 0u16..0x7BFF {
        let lo = F16Bits::from_bits(p).to_f32();
        let hi = F16Bits::from_bits(p + 1).to_f32();
        assert!(lo < hi, "f16 widen not monotone at {p:#06x}: {lo:e} !< {hi:e}");
        let neg = F16Bits::from_bits(p | 0x8000).to_f32();
        assert_eq!(neg.to_bits(), (-lo).to_bits(), "f16 sign symmetry at {p:#06x}");
    }
    // bf16: non-negative finite patterns are 0x0000..=0x7F7F.
    for p in 0u16..0x7F7F {
        let lo = Bf16Bits::from_bits(p).to_f32();
        let hi = Bf16Bits::from_bits(p + 1).to_f32();
        assert!(lo < hi, "bf16 widen not monotone at {p:#06x}: {lo:e} !< {hi:e}");
        let neg = Bf16Bits::from_bits(p | 0x8000).to_f32();
        assert_eq!(neg.to_bits(), (-lo).to_bits(), "bf16 sign symmetry at {p:#06x}");
    }
}

// ---------------------------------------------------------------------------
// 3. Seeded differential tests against the f64-path RNE reference.
// ---------------------------------------------------------------------------

/// Draw f32 values spanning the interesting exponent landscape of both
/// formats: moderate, near-overflow, deep-subnormal, and pattern-random.
fn sample_f32(rng: &mut Rng64) -> f32 {
    match rng.range_usize(0, 8) {
        // Fully random bit pattern: hits NaNs, infs, extremes.
        0 => f32::from_bits(rng.next_u64() as u32),
        // Near f16 overflow.
        1 => (rng.range_f64(-1.1, 1.1) * 65536.0) as f32,
        // f16 subnormal territory.
        2 => (rng.range_f64(-1.0, 1.0) * 2f64.powi(-20)) as f32,
        // bf16 subnormal territory.
        3 => (rng.range_f64(-1.0, 1.0) * 2f64.powi(-129)) as f32,
        4 => (rng.range_f64(-1.0, 1.0) * 2f64.powi(-135)) as f32,
        _ => rng.range_f64(-4.0, 4.0) as f32,
    }
}

/// The codec narrowing must agree bit-for-bit in *value* with the repo's
/// independent RNE implementation (`FloatFormat::round` decomposes the
/// f64 pattern; the codecs shift u32 patterns — shared bugs are
/// implausible). 40k seeded samples per kind.
#[test]
fn narrowing_matches_float_format_quantize() {
    let mut rng = Rng64::seed_from_u64(0x4A1F_F0E5);
    for _ in 0..40_000 {
        let x = sample_f32(&mut rng);
        if x.is_nan() {
            continue; // NaN handling pinned by the dedicated test above
        }
        let via_codec = F16Bits::from_f32(x).to_f32() as f64;
        let via_round = FloatFormat::F16.quantize(x as f64);
        assert_eq!(
            via_codec.to_bits(),
            via_round.to_bits(),
            "f16({:#010x}): codec {via_codec:e} vs reference {via_round:e}",
            x.to_bits()
        );
        let via_codec = Bf16Bits::from_f32(x).to_f32() as f64;
        let via_round = FloatFormat::BF16.quantize(x as f64);
        assert_eq!(
            via_codec.to_bits(),
            via_round.to_bits(),
            "bf16({:#010x}): codec {via_codec:e} vs reference {via_round:e}",
            x.to_bits()
        );
    }
}

/// Narrowing is monotone (weakly, since distinct f32s collapse onto the
/// same half value): x ≤ y implies narrow(x) ≤ narrow(y) as values.
#[test]
fn narrowing_is_weakly_monotone() {
    let mut rng = Rng64::seed_from_u64(0x0DDE_7E57);
    for _ in 0..20_000 {
        let a = sample_f32(&mut rng);
        let b = sample_f32(&mut rng);
        if a.is_nan() || b.is_nan() {
            continue;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        let (fx, fy) = (F16Bits::from_f32(x).to_f32(), F16Bits::from_f32(y).to_f32());
        assert!(fx <= fy, "f16 order violated: {x:e} -> {fx:e}, {y:e} -> {fy:e}");
        let (bx, by) = (Bf16Bits::from_f32(x).to_f32(), Bf16Bits::from_f32(y).to_f32());
        assert!(bx <= by, "bf16 order violated: {x:e} -> {bx:e}, {y:e} -> {by:e}");
    }
}

/// Narrowing error is at most half an ulp of the result (the RNE bound),
/// checked on in-range normal draws where the ulp is well-defined.
#[test]
fn narrowing_error_is_within_half_ulp() {
    let mut rng = Rng64::seed_from_u64(0x5EED_B17E);
    for _ in 0..20_000 {
        let x = rng.range_f64(-1000.0, 1000.0) as f32;
        let h = F16Bits::from_f32(x).to_f32();
        // ulp of h in binary16: 2^(e-10) for normal h.
        let e = (h.abs().to_bits() >> 23) as i32 - 127;
        if h != 0.0 && e >= -14 {
            let ulp = 2f64.powi(e - 10);
            assert!(
                (h as f64 - x as f64).abs() <= ulp / 2.0,
                "f16({x:e}) = {h:e} off by more than half an ulp"
            );
        }
        let b = Bf16Bits::from_f32(x).to_f32();
        let e = (b.abs().to_bits() >> 23) as i32 - 127;
        if b != 0.0 && e >= -126 {
            let ulp = 2f64.powi(e - 7);
            assert!(
                (b as f64 - x as f64).abs() <= ulp / 2.0,
                "bf16({x:e}) = {b:e} off by more than half an ulp"
            );
        }
    }
}
