//! Runtime cache-blocking parameters for the packed GEMM core.
//!
//! The packed core used to hard-code `KC = 256` / `MC = 64` and pack B
//! full-width. Those constants are now a per-kernel-variant [`Blocking`]
//! triple `(mc, kc, nc)` resolved once at startup — the `ME_BLOCKING`
//! environment variable, else the compiled defaults — with a runtime
//! override slot for the autotune sweep and A/B benches
//! ([`set_blocking_override`]), mirroring the `ME_KERNEL` /
//! [`super::KernelDispatch`] design.
//!
//! **Bitwise contract.** Of the three parameters only `kc` is
//! numerically observable: the per-element FMA chain is grouped into
//! ascending `kc`-sized k chunks, so two GEMMs agree bitwise iff they
//! run the same `kc` grid. `mc` and `nc` only reorder *independent*
//! elements' work and never change any result bit. Every path that must
//! be bitwise-comparable (serial/parallel, fresh-pack/prepacked, all
//! kernel variants) therefore resolves its blocking through this one
//! table — see DESIGN.md §12.

use super::ukernel::{KernelVariant, MR, NR};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable overriding the startup blocking, read once on
/// first use. Accepts `"mc,kc,nc"` (applied to every variant) or a
/// `;`-separated list of `variant=mc,kc,nc` entries, e.g.
/// `ME_BLOCKING="avx2=128,512,4096;scalar=64,256,4096"`.
pub const BLOCKING_ENV: &str = "ME_BLOCKING";

/// Cache-blocking triple for the packed GEMM core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Blocking {
    /// Rows of A packed per cache block (L2-resident A panel).
    pub mc: usize,
    /// Shared-dimension chunk; **the only numerically observable
    /// parameter** — it defines the per-element FMA grouping.
    pub kc: usize,
    /// Columns of B packed per pass (L3-resident B panel). Clamped to
    /// the actual `n` per call; rounded up to a whole number of NR
    /// tiles.
    pub nc: usize,
}

impl Blocking {
    /// The pre-autotune constants every prior PR ran with: `MC = 64`,
    /// `KC = 256`, and an effectively full-width B panel.
    pub const DEFAULT: Blocking = Blocking { mc: 64, kc: 256, nc: 4096 };

    /// Clamp a requested triple to the grid the packed core supports:
    /// `mc >= MR`, `kc >= 1`, `nc >= NR` and a multiple of NR (so packed
    /// tiles within an NC block line up with the panel layout).
    pub fn normalized(self) -> Blocking {
        Blocking {
            mc: self.mc.max(MR),
            kc: self.kc.max(1),
            nc: self.nc.max(NR).next_multiple_of(NR),
        }
    }

    /// Parse one `mc,kc,nc` triple (decimal, comma-separated).
    pub fn parse(s: &str) -> Option<Blocking> {
        let mut it = s.split(',').map(str::trim);
        let mc = it.next()?.parse::<usize>().ok()?;
        let kc = it.next()?.parse::<usize>().ok()?;
        let nc = it.next()?.parse::<usize>().ok()?;
        if it.next().is_some() || mc == 0 || kc == 0 || nc == 0 {
            return None;
        }
        Some(Blocking { mc, kc, nc }.normalized())
    }

    /// Encode into the nonzero u64 used by the override/startup slots:
    /// `mc` in bits 0..16, `kc` in 16..32, `nc/NR` in 32..64. Triples
    /// beyond those ranges are clamped; a normalized triple is never 0.
    fn encode(self) -> u64 {
        let b = self.normalized();
        let mc = b.mc.min(0xffff) as u64;
        let kc = b.kc.min(0xffff) as u64;
        let nct = (b.nc / NR).min(u32::MAX as usize) as u64;
        mc | (kc << 16) | (nct << 32)
    }

    fn decode(raw: u64) -> Option<Blocking> {
        if raw == 0 {
            return None;
        }
        Some(Blocking {
            mc: (raw & 0xffff) as usize,
            kc: ((raw >> 16) & 0xffff) as usize,
            nc: ((raw >> 32) as usize) * NR,
        })
    }
}

impl std::fmt::Display for Blocking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mc={} kc={} nc={}", self.mc, self.kc, self.nc)
    }
}

/// The process-wide blocking table: a per-variant startup default
/// (`ME_BLOCKING` or [`Blocking::DEFAULT`]) plus per-variant runtime
/// override slots (the autotune sweep and the benches' A/B arms). Reads
/// are one relaxed atomic load per GEMM.
#[derive(Debug)]
pub struct BlockingDispatch {
    defaults: [u64; KernelVariant::ALL.len()],
    env_set: [bool; KernelVariant::ALL.len()],
    overrides: [AtomicU64; KernelVariant::ALL.len()],
}

impl BlockingDispatch {
    /// The lazily-initialized global table. `ME_BLOCKING` is read
    /// exactly once, on first use; later env mutations are ignored by
    /// design (the same startup-read contract as `ME_KERNEL` and
    /// `ME_THREADS`, DESIGN.md §10).
    // me-verify: env-startup
    pub fn global() -> &'static BlockingDispatch {
        static TABLE: std::sync::OnceLock<BlockingDispatch> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            BlockingDispatch::from_env(std::env::var(BLOCKING_ENV).ok().as_deref())
        })
    }

    /// Build a table from an optional `ME_BLOCKING` value (exposed for
    /// tests; [`Self::global`] passes the real environment).
    pub fn from_env(env: Option<&str>) -> BlockingDispatch {
        let mut defaults = [Blocking::DEFAULT.encode(); KernelVariant::ALL.len()];
        let mut env_set = [false; KernelVariant::ALL.len()];
        if let Some(raw) = env {
            match parse_env(raw) {
                Some(per_variant) => {
                    for (i, b) in per_variant.iter().enumerate() {
                        if let Some(b) = b {
                            defaults[i] = b.encode();
                            env_set[i] = true;
                        }
                    }
                }
                None => {
                    eprintln!(
                        "me-linalg: unrecognized {BLOCKING_ENV}={raw:?} \
                         (want \"mc,kc,nc\" or \"variant=mc,kc,nc;...\"); using defaults"
                    );
                }
            }
        }
        BlockingDispatch { defaults, env_set, overrides: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// The blocking GEMMs with `variant` run right now: the runtime
    /// override if installed, else the startup default.
    pub fn for_variant(&self, variant: KernelVariant) -> Blocking {
        let i = variant.index();
        Blocking::decode(self.overrides[i].load(Ordering::Relaxed))
            .or_else(|| Blocking::decode(self.defaults[i]))
            .unwrap_or(Blocking::DEFAULT)
    }

    /// Install (or with `None`, clear) a runtime override for one
    /// variant. The autotune sweep installs its winners here; benches
    /// use it for A/B arms.
    pub fn set_override(&self, variant: KernelVariant, b: Option<Blocking>) {
        let raw = b.map(Blocking::encode).unwrap_or(0);
        self.overrides[variant.index()].store(raw, Ordering::Relaxed);
    }

    /// Whether this variant's startup default came from an explicit
    /// `ME_BLOCKING` entry. The autotune apply step skips such variants:
    /// the knob priority is `ME_BLOCKING` > autotune artifact > defaults.
    pub fn is_env_configured(&self, variant: KernelVariant) -> bool {
        self.env_set[variant.index()]
    }
}

/// Parse an `ME_BLOCKING` value into per-variant slots. A bare triple
/// fills every slot; `variant=triple` entries fill their own. Returns
/// `None` on any malformed entry (the caller falls back to defaults
/// with a stderr note, never a panic).
fn parse_env(raw: &str) -> Option<[Option<Blocking>; KernelVariant::ALL.len()]> {
    let mut out = [None; KernelVariant::ALL.len()];
    for entry in raw.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        match entry.split_once('=') {
            Some((name, triple)) => {
                let v = KernelVariant::parse(name)?;
                out[v.index()] = Some(Blocking::parse(triple)?);
            }
            None => {
                let b = Blocking::parse(entry)?;
                for slot in &mut out {
                    *slot = Some(b);
                }
            }
        }
    }
    Some(out)
}

/// The blocking the packed core uses for `variant` right now.
pub fn blocking_for(variant: KernelVariant) -> Blocking {
    BlockingDispatch::global().for_variant(variant)
}

/// Install (or clear) the process-wide blocking override for one
/// variant — the autotune sweep's installation point and the benches'
/// A/B switch. `kc` changes are numerically observable (see the module
/// docs); callers comparing results bitwise must pin one blocking for
/// both sides.
pub fn set_blocking_override(variant: KernelVariant, b: Option<Blocking>) {
    BlockingDispatch::global().set_override(variant, b);
}

/// Whether `ME_BLOCKING` explicitly configured this variant at startup
/// (see [`BlockingDispatch::is_env_configured`]).
pub fn blocking_env_configured(variant: KernelVariant) -> bool {
    BlockingDispatch::global().is_env_configured(variant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_triples() {
        assert_eq!(Blocking::parse("64,256,4096"), Some(Blocking { mc: 64, kc: 256, nc: 4096 }));
        assert_eq!(Blocking::parse(" 32 , 128 , 512 "), Some(Blocking { mc: 32, kc: 128, nc: 512 }));
        // nc rounds up to an NR multiple, mc clamps to MR.
        assert_eq!(Blocking::parse("1,7,9"), Some(Blocking { mc: MR, kc: 7, nc: 16 }));
        for bad in ["", "64", "64,256", "64,256,0", "0,1,8", "a,b,c", "1,2,3,4"] {
            assert_eq!(Blocking::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for b in [
            Blocking::DEFAULT,
            Blocking { mc: 4, kc: 1, nc: 8 },
            Blocking { mc: 1024, kc: 4096, nc: 65536 },
        ] {
            let n = b.normalized();
            assert_eq!(Blocking::decode(n.encode()), Some(n));
        }
        assert_eq!(Blocking::decode(0), None);
    }

    #[test]
    fn env_parsing_policy() {
        let t = BlockingDispatch::from_env(None);
        for v in KernelVariant::ALL {
            assert_eq!(t.for_variant(v), Blocking::DEFAULT);
        }
        let t = BlockingDispatch::from_env(Some("32,128,512"));
        for v in KernelVariant::ALL {
            assert_eq!(t.for_variant(v), Blocking { mc: 32, kc: 128, nc: 512 });
        }
        let t = BlockingDispatch::from_env(Some("avx2=128,512,4096;scalar=32,64,256"));
        assert_eq!(t.for_variant(KernelVariant::Avx2), Blocking { mc: 128, kc: 512, nc: 4096 });
        assert_eq!(t.for_variant(KernelVariant::Scalar), Blocking { mc: 32, kc: 64, nc: 256 });
        assert_eq!(t.for_variant(KernelVariant::Avx512), Blocking::DEFAULT);
        // Malformed values fall back wholesale (no partial application).
        let t = BlockingDispatch::from_env(Some("avx2=128,512,4096;garbage"));
        assert_eq!(t.for_variant(KernelVariant::Avx2), Blocking::DEFAULT);
        // An entry keyed by an unknown variant (the retired `portable`
        // included) is malformed too.
        let t = BlockingDispatch::from_env(Some("avx2=128,512,4096;portable=32,64,256"));
        for v in KernelVariant::ALL {
            assert_eq!(t.for_variant(v), Blocking::DEFAULT);
        }
    }

    #[test]
    fn override_wins_and_clears() {
        let t = BlockingDispatch::from_env(None);
        let tuned = Blocking { mc: 96, kc: 192, nc: 768 };
        t.set_override(KernelVariant::Avx2, Some(tuned));
        assert_eq!(t.for_variant(KernelVariant::Avx2), tuned);
        assert_eq!(t.for_variant(KernelVariant::Scalar), Blocking::DEFAULT, "per-variant only");
        t.set_override(KernelVariant::Avx2, None);
        assert_eq!(t.for_variant(KernelVariant::Avx2), Blocking::DEFAULT);
    }
}
