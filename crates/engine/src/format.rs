//! Numeric formats supported by the modeled engines.

use me_numerics::FloatFormat;

/// A numeric format a device engine can multiply in.
///
/// `F16xF32` is the *hybrid* mode the paper describes for the V100 and
/// POWER10 (§II-B): multiply in a narrow format, accumulate in a wider one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumericFormat {
    /// IEEE-754 binary64.
    F64,
    /// IEEE-754 binary32.
    F32,
    /// NVIDIA TF32 (19-bit) multiply with f32 accumulate.
    Tf32,
    /// IEEE-754 binary16 multiply and accumulate.
    F16,
    /// bfloat16 multiply (f32 accumulate on all shipping hardware).
    Bf16,
    /// Hybrid: f16 multiply, f32 accumulate (V100 Tensor Core mode).
    F16xF32,
    /// 8-bit integer (listed for completeness; Table I omits INT details).
    I8,
}

impl NumericFormat {
    /// Bytes per element as stored in memory.
    pub fn bytes(self) -> usize {
        match self {
            NumericFormat::F64 => 8,
            NumericFormat::F32 | NumericFormat::Tf32 => 4,
            NumericFormat::F16 | NumericFormat::Bf16 | NumericFormat::F16xF32 => 2,
            NumericFormat::I8 => 1,
        }
    }

    /// The multiply format's software-float descriptor (None for integers).
    pub fn multiply_format(self) -> Option<FloatFormat> {
        match self {
            NumericFormat::F64 => Some(FloatFormat::F64),
            NumericFormat::F32 => Some(FloatFormat::F32),
            NumericFormat::Tf32 => Some(FloatFormat::TF32),
            NumericFormat::F16 | NumericFormat::F16xF32 => Some(FloatFormat::F16),
            NumericFormat::Bf16 => Some(FloatFormat::BF16),
            NumericFormat::I8 => None,
        }
    }

    /// The accumulate format's software-float descriptor.
    pub fn accumulate_format(self) -> Option<FloatFormat> {
        match self {
            NumericFormat::F64 => Some(FloatFormat::F64),
            NumericFormat::F32
            | NumericFormat::Tf32
            | NumericFormat::F16xF32
            | NumericFormat::Bf16 => Some(FloatFormat::F32),
            NumericFormat::F16 => Some(FloatFormat::F16),
            NumericFormat::I8 => None,
        }
    }

    /// Whether the format accumulates into a wider representation than it
    /// multiplies in (the paper's "hybrid" classification).
    pub fn is_hybrid(self) -> bool {
        match (self.multiply_format(), self.accumulate_format()) {
            (Some(m), Some(a)) => a.sig_bits > m.sig_bits || a.exp_bits > m.exp_bits,
            _ => false,
        }
    }

    /// Short display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            NumericFormat::F64 => "f64",
            NumericFormat::F32 => "f32",
            NumericFormat::Tf32 => "tf32",
            NumericFormat::F16 => "f16",
            NumericFormat::Bf16 => "bf16",
            NumericFormat::F16xF32 => "f16/f32-mixed",
            NumericFormat::I8 => "int8",
        }
    }
}

impl std::fmt::Display for NumericFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_widths() {
        assert_eq!(NumericFormat::F64.bytes(), 8);
        assert_eq!(NumericFormat::Tf32.bytes(), 4);
        assert_eq!(NumericFormat::F16xF32.bytes(), 2);
        assert_eq!(NumericFormat::I8.bytes(), 1);
    }

    #[test]
    fn hybrid_classification() {
        assert!(NumericFormat::F16xF32.is_hybrid());
        assert!(NumericFormat::Bf16.is_hybrid());
        assert!(NumericFormat::Tf32.is_hybrid());
        assert!(!NumericFormat::F64.is_hybrid());
        assert!(!NumericFormat::F16.is_hybrid());
        assert!(!NumericFormat::I8.is_hybrid());
    }

    #[test]
    fn multiply_precision_matches_papers_formats() {
        assert_eq!(NumericFormat::F16xF32.multiply_format().unwrap().precision(), 11);
        assert_eq!(NumericFormat::Tf32.multiply_format().unwrap().precision(), 11);
        assert_eq!(NumericFormat::Bf16.multiply_format().unwrap().precision(), 8);
    }
}
