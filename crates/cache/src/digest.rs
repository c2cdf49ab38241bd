//! Content digests for cache keys.
//!
//! The cache addresses results by *content*, not by name: two jobs that
//! submit byte-identical FASTQ (or reference the same dataset manifest)
//! share a digest and therefore share cache entries. The digest is a
//! 128-bit FNV-1a hash — implemented here because the build environment
//! is offline and the workspace's only other hash is a CRC32. FNV-1a at
//! 128 bits is not cryptographic, but collisions are vanishingly
//! unlikely for the input sizes involved, and the cache key also carries
//! the full plan-prefix string, so a digest collision can at worst alias
//! two *inputs*, never two plans.

use std::fmt;

use persona_agd::Manifest;
use serde::{DeError, Deserialize, Serialize, Value};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content digest.
///
/// Displayed (and journaled) as 32 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(u128);

impl Digest {
    /// Digest of a byte string (e.g. raw FASTQ input).
    pub fn of_bytes(bytes: &[u8]) -> Digest {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Digest(h)
    }

    /// Digest of a dataset manifest: the hash of its compact JSON
    /// serialization. Manifests enumerate every chunk's name, checksum
    /// and record count, so any change to the underlying dataset
    /// changes the digest.
    pub fn of_manifest(manifest: &Manifest) -> Digest {
        let json = serde_json::to_string(manifest).expect("manifest serialization is infallible");
        Digest::of_bytes(json.as_bytes())
    }

    /// 32-hex-digit lowercase form (stable wire/journal encoding).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the form produced by [`Digest::to_hex`].
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Digest)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

// Hand-written because a digest travels as its hex string.
impl Serialize for Digest {
    fn serialize(&self) -> Value {
        Value::String(self.to_hex())
    }
}

impl Deserialize for Digest {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => {
                Digest::from_hex(s).ok_or_else(|| DeError::new(format!("invalid digest `{s}`")))
            }
            other => Err(DeError::new(format!("expected digest string, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_differ_on_content() {
        let a = Digest::of_bytes(b"@r1\nACGT\n+\nIIII\n");
        let b = Digest::of_bytes(b"@r1\nACGA\n+\nIIII\n");
        assert_ne!(a, b);
        assert_eq!(a, Digest::of_bytes(b"@r1\nACGT\n+\nIIII\n"));
    }

    #[test]
    fn empty_input_has_offset_basis() {
        assert_eq!(Digest::of_bytes(b"").to_hex(), format!("{FNV_OFFSET:032x}"));
    }

    #[test]
    fn hex_round_trips() {
        let d = Digest::of_bytes(b"persona");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }

    #[test]
    fn serde_round_trips() {
        let d = Digest::of_bytes(b"persona");
        let v = d.serialize();
        assert_eq!(Digest::deserialize(&v).unwrap(), d);
    }
}
