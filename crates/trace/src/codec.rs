//! The one binary codec behind every on-disk artifact in the workspace,
//! and the one FNV-1a hasher behind every content fingerprint.
//!
//! Every artifact format shares one layout, all integers little-endian:
//!
//! ```text
//! magic (4 bytes) | u32 version | body | u64 FNV-1a of everything before it
//! ```
//!
//! A format is a *schema*: the sequence of typed fields its body holds.
//! `EOST` (training checkpoints), `EOSC` (backbone cache entries) and
//! `EOSJ` (cell-journal entries) are sealed with the trailing FNV-1a
//! checksum ([`Writer::seal`], [`Reader::open_sealed`]). `EOSW` (weight
//! blobs) is unsealed ([`Writer::finish`], [`Reader::open`]): it only
//! ever reaches disk embedded in a sealed artifact, whose tail covers it.
//!
//! The [`Reader`] is built for untrusted bytes. A sealed artifact's tail
//! is verified before any field is parsed; every length field is checked
//! against the bytes that remain *before* anything is allocated for it,
//! and a field that runs past the end reports
//! [`io::ErrorKind::UnexpectedEof`]; [`Reader::finish`] rejects trailing
//! bytes. Structural and semantic checks (shapes, finiteness) belong to
//! each schema.

use std::io;

/// Streaming FNV-1a (64-bit) hasher over typed fields. Fingerprints
/// derived from it key the on-disk artifact cache and seed per-cell RNG
/// streams, and it seals every artifact, so the mixing must stay stable
/// across releases: changing it silently re-keys every cached artifact
/// and shifts every derived RNG stream (and with them the experiment
/// output).
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    /// Mixes raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Mixes a string with a terminator, so `"ab" + "c"` and `"a" + "bc"`
    /// hash differently.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Mixes a `u64` (little-endian bytes).
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes an `f32` by bit pattern (exact, no rounding ambiguity).
    #[inline]
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// The accumulated hash.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One-shot FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).finish()
}

/// An [`io::ErrorKind::InvalidData`] error: the bytes are not a valid
/// artifact of the expected schema.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn name(magic: &[u8; 4]) -> String {
    String::from_utf8_lossy(magic).into_owned()
}

/// Verifies a sealed artifact's FNV-1a tail and returns the bytes it
/// covers, without parsing any structure (the cache sweep's integrity
/// check).
pub fn unseal(bytes: &[u8]) -> io::Result<&[u8]> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err(bad("artifact shorter than its checksum"));
    };
    let (body, tail) = bytes.split_at(split);
    let stored = u64::from_le_bytes(tail.try_into().expect("split 8 bytes from the end"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(bad(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
             (truncated or corrupt artifact)"
        )));
    }
    Ok(body)
}

/// Builds an artifact: header on construction (none for a bare record
/// from `Writer::default()`), typed little-endian fields, then
/// [`Writer::seal`] or [`Writer::finish`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an artifact with its magic and version.
    pub fn new(magic: &[u8; 4], version: u32) -> Self {
        let mut w = Writer::default();
        w.buf.extend_from_slice(magic);
        w.u32(version);
        w
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f32`.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends `vs` with no length prefix (the schema knows the count).
    pub fn f32s(&mut self, vs: &[f32]) -> &mut Self {
        self.buf.reserve(vs.len() * 4);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Appends `bytes` behind a `u64` length prefix.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// The artifact without a checksum tail.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The artifact closed by the FNV-1a checksum of everything before it.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Typed cursor over an artifact's bytes. Every getter fails with
/// [`io::ErrorKind::UnexpectedEof`] when its field runs past the end.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor over a bare record with no header.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Opens an unsealed artifact: checks magic, then version.
    pub fn open(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> io::Result<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != magic {
            return Err(bad(format!("not an {} artifact", name(magic))));
        }
        let found = r.u32()?;
        if found != version {
            return Err(bad(format!("unsupported {} version {found}", name(magic))));
        }
        Ok(r)
    }

    /// Opens a sealed artifact: verifies the checksum tail first, so a
    /// truncated or bit-flipped file fails before any field is trusted,
    /// then checks magic and version of the covered bytes.
    pub fn open_sealed(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> io::Result<Self> {
        let body = unseal(bytes).map_err(|e| bad(format!("{}: {e}", name(magic))))?;
        Reader::open(body, magic, version)
    }

    /// Fails unless `n` more bytes remain.
    fn ensure(&self, n: usize) -> io::Result<()> {
        if n > self.rest.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "{n}-byte field runs past the end ({} bytes left)",
                    self.rest.len()
                ),
            ));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.ensure(n)?;
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take(N) yields N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` size or index field, saturating where `usize` is
    /// narrower so an oversized value still fails its bound checks.
    pub fn usize(&mut self) -> io::Result<usize> {
        Ok(usize::try_from(self.u64()?).unwrap_or(usize::MAX))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads `n` `f32`s; `n` is checked against the remaining bytes
    /// before the vector is allocated.
    pub fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a `u64` element count whose elements take at least
    /// `min_elem_bytes` each, rejecting a count the remaining bytes
    /// cannot hold — so the caller may size a buffer from it.
    pub fn count(&mut self, min_elem_bytes: usize) -> io::Result<usize> {
        let n = self.usize()?;
        self.ensure(n.saturating_mul(min_elem_bytes))?;
        Ok(n)
    }

    /// Reads a `u64`-length-prefixed byte string, borrowed from the input.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Ends the parse: any byte left over means the writer and the
    /// schema disagree about the structure.
    pub fn finish(self) -> io::Result<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(bad(format!("{n} trailing bytes after the last field"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn typed_fields_hash_as_their_bytes() {
        // Typed fields are their little-endian bytes; strings carry a
        // terminator so field boundaries matter.
        assert_eq!(Fnv::new().u64(7).finish(), fnv1a(&7u64.to_le_bytes()));
        assert_ne!(
            Fnv::new().str("ab").str("c").finish(),
            Fnv::new().str("a").str("bc").finish()
        );
    }

    #[test]
    fn sealed_roundtrip_reads_every_field() {
        let mut w = Writer::new(b"TEST", 3);
        w.u8(1)
            .u32(2)
            .u64(3)
            .f32(4.5)
            .f32s(&[6.0, -7.0])
            .bytes(b"hi");
        let sealed = w.seal();
        let mut r = Reader::open_sealed(&sealed, b"TEST", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u32().unwrap(), 2);
        assert_eq!(r.u64().unwrap(), 3);
        assert_eq!(r.f32().unwrap(), 4.5);
        assert_eq!(r.f32s(2).unwrap(), vec![6.0, -7.0]);
        assert_eq!(r.bytes().unwrap(), b"hi");
        r.finish().unwrap();
        let body = unseal(&sealed).unwrap();
        assert_eq!(body.len() + 8, sealed.len());
    }

    #[test]
    fn sealed_open_checks_tail_then_header() {
        let sealed = Writer::new(b"TEST", 1).seal();
        for cut in [0, 7, sealed.len() - 1] {
            let err = Reader::open_sealed(&sealed[..cut], b"TEST", 1)
                .err()
                .unwrap();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}");
        }
        let mut flipped = sealed.clone();
        flipped[0] ^= 1;
        let err = Reader::open_sealed(&flipped, b"TEST", 1).err().unwrap();
        assert!(err.to_string().contains("checksum"), "{err}");
        let err = Reader::open_sealed(&sealed, b"NOPE", 1).err().unwrap();
        assert!(err.to_string().contains("not an NOPE"), "{err}");
        let err = Reader::open_sealed(&sealed, b"TEST", 2).err().unwrap();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn lengths_are_bounded_by_the_remaining_bytes() {
        let mut w = Writer::default();
        w.u64(u64::MAX).u64(1 << 40).u64(3);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes().unwrap_err().kind(), ErrorKind::UnexpectedEof);
        let mut r = Reader::new(&bytes[8..]);
        assert_eq!(r.count(1).unwrap_err().kind(), ErrorKind::UnexpectedEof);
        let mut r = Reader::new(&bytes[16..]);
        assert_eq!(
            r.f32s(usize::MAX).unwrap_err().kind(),
            ErrorKind::UnexpectedEof
        );
        assert_eq!(r.count(0).unwrap(), 3, "zero-width elements always fit");
        r.finish().unwrap();
        let err = Reader::new(&bytes).finish().unwrap_err();
        assert!(err.to_string().contains("24 trailing bytes"), "{err}");
    }
}
