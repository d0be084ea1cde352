//! CDR-style marshalling.
//!
//! CORBA's Common Data Representation aligns each primitive on its natural
//! boundary and length-prefixes strings and sequences. We reproduce that
//! format (big-endian, which CDR calls the sender's byte order — we fix it
//! for simplicity) because marshalling cost is part of the substrate the
//! paper measures.
//!
//! ```
//! use newtop_orb::cdr::{CdrEncoder, CdrDecoder};
//!
//! let mut enc = CdrEncoder::new();
//! enc.write_u8(7);
//! enc.write_u32(1234);          // aligned to a 4-byte boundary
//! enc.write_string("newtop");
//! let bytes = enc.finish();
//!
//! let mut dec = CdrDecoder::new(&bytes);
//! assert_eq!(dec.read_u8()?, 7);
//! assert_eq!(dec.read_u32()?, 1234);
//! assert_eq!(dec.read_string()?, "newtop");
//! # Ok::<(), newtop_orb::cdr::CdrError>(())
//! ```

use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// Maximum length accepted for a counted field (string, sequence, blob).
/// Guards decoders against corrupt or hostile length prefixes.
const MAX_COUNTED: u32 = 256 * 1024 * 1024;

/// Errors raised while decoding a CDR buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdrError {
    /// The buffer ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A length prefix exceeded the sanity bound.
    LengthOverflow(u32),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum discriminant had no corresponding variant.
    BadDiscriminant(u32),
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of buffer: needed {needed}, had {remaining}"
                )
            }
            CdrError::LengthOverflow(n) => write!(f, "length prefix too large: {n}"),
            CdrError::InvalidUtf8 => write!(f, "string field held invalid utf-8"),
            CdrError::BadDiscriminant(d) => write!(f, "unknown discriminant {d}"),
        }
    }
}

impl Error for CdrError {}

/// An append-only CDR encoder.
#[derive(Clone, Debug, Default)]
pub struct CdrEncoder {
    buf: Vec<u8>,
}

impl CdrEncoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        CdrEncoder::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        CdrEncoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the encoder and returns the marshalled bytes.
    #[must_use]
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Discards everything written so far, retaining the allocation, so
    /// the encoder can be reused as a scratch buffer on a hot path.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Copies the marshalled bytes into a fresh refcounted frame and
    /// clears the encoder, retaining its capacity. This is the
    /// scratch-encoder companion to [`Self::finish`]: one copy per frame,
    /// no allocator round trip for the working buffer.
    #[must_use]
    pub fn take_frame(&mut self) -> Bytes {
        let frame = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        frame
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn align(&mut self, n: usize) {
        // checked_rem: an alignment of zero is a no-op, not a panic.
        let rem = self.buf.len().checked_rem(n).unwrap_or(0);
        if rem != 0 {
            self.buf.resize(self.buf.len() + (n - rem), 0);
        }
    }

    /// Writes a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as a single byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Writes a `u16`, aligned to 2 bytes.
    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u32`, aligned to 4 bytes.
    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a `u64`, aligned to 8 bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes an `i32`, aligned to 4 bytes.
    pub fn write_i32(&mut self, v: i32) {
        self.align(4);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes an `i64`, aligned to 8 bytes.
    pub fn write_i64(&mut self, v: i64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes an `f64`, aligned to 8 bytes.
    pub fn write_f64(&mut self, v: f64) {
        self.align(8);
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a length-prefixed UTF-8 string (no NUL terminator; CDR's
    /// terminator carries no information here).
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds the counted-field bound.
    pub fn write_string(&mut self, v: &str) {
        assert!(v.len() <= MAX_COUNTED as usize, "string too long");
        self.write_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    ///
    /// # Panics
    ///
    /// Panics if the blob exceeds the counted-field bound.
    pub fn write_bytes(&mut self, v: &[u8]) {
        assert!(v.len() <= MAX_COUNTED as usize, "blob too long");
        self.write_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a sequence length prefix; follow with the elements.
    ///
    /// # Panics
    ///
    /// Panics if the length exceeds the counted-field bound.
    pub fn write_seq_len(&mut self, len: usize) {
        assert!(len <= MAX_COUNTED as usize, "sequence too long");
        self.write_u32(len as u32);
    }

    /// Encodes any [`CdrEncode`] value.
    pub fn write<T: CdrEncode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }
}

/// A cursor-based CDR decoder.
#[derive(Clone, Debug)]
pub struct CdrDecoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> CdrDecoder<'a> {
    /// Creates a decoder over a buffer.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        CdrDecoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True if the whole buffer has been consumed (ignoring alignment
    /// padding is the caller's concern).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn align(&mut self, n: usize) {
        // checked_rem: an alignment of zero is a no-op, not a panic.
        let rem = self.pos.checked_rem(n).unwrap_or(0);
        if rem != 0 {
            self.pos = (self.pos + n - rem).min(self.data.len());
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        let end = self.pos.checked_add(n).ok_or(CdrError::UnexpectedEof {
            needed: n,
            remaining: self.remaining(),
        })?;
        let Some(s) = self.data.get(self.pos..end) else {
            return Err(CdrError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        };
        self.pos = end;
        Ok(s)
    }

    /// Like [`Self::take`], but yields a fixed-size array so the integer
    /// readers never need a fallible slice-to-array conversion.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CdrError> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s).map_err(|_| CdrError::UnexpectedEof {
            needed: N,
            remaining: 0,
        })
    }

    /// Reads a `u8`.
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    /// Reads a `bool`.
    pub fn read_bool(&mut self) -> Result<bool, CdrError> {
        Ok(self.read_u8()? != 0)
    }

    /// Reads a `u16` (2-byte aligned).
    pub fn read_u16(&mut self) -> Result<u16, CdrError> {
        self.align(2);
        Ok(u16::from_be_bytes(self.take_array::<2>()?))
    }

    /// Reads a `u32` (4-byte aligned).
    pub fn read_u32(&mut self) -> Result<u32, CdrError> {
        self.align(4);
        Ok(u32::from_be_bytes(self.take_array::<4>()?))
    }

    /// Reads a `u64` (8-byte aligned).
    pub fn read_u64(&mut self) -> Result<u64, CdrError> {
        self.align(8);
        Ok(u64::from_be_bytes(self.take_array::<8>()?))
    }

    /// Reads an `i32` (4-byte aligned).
    pub fn read_i32(&mut self) -> Result<i32, CdrError> {
        self.align(4);
        Ok(i32::from_be_bytes(self.take_array::<4>()?))
    }

    /// Reads an `i64` (8-byte aligned).
    pub fn read_i64(&mut self) -> Result<i64, CdrError> {
        self.align(8);
        Ok(i64::from_be_bytes(self.take_array::<8>()?))
    }

    /// Reads an `f64` (8-byte aligned).
    pub fn read_f64(&mut self) -> Result<f64, CdrError> {
        self.align(8);
        Ok(f64::from_be_bytes(self.take_array::<8>()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_string(&mut self) -> Result<String, CdrError> {
        let len = self.read_counted_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CdrError::InvalidUtf8)
    }

    /// Reads a length-prefixed byte blob.
    pub fn read_bytes(&mut self) -> Result<Vec<u8>, CdrError> {
        let len = self.read_counted_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed byte blob without copying it: the slice
    /// borrows the decoder's buffer.
    pub fn read_octets(&mut self) -> Result<&'a [u8], CdrError> {
        let len = self.read_counted_len()?;
        self.take(len)
    }

    /// Reads a sequence length prefix.
    pub fn read_seq_len(&mut self) -> Result<usize, CdrError> {
        self.read_counted_len()
    }

    fn read_counted_len(&mut self) -> Result<usize, CdrError> {
        let len = self.read_u32()?;
        if len > MAX_COUNTED {
            return Err(CdrError::LengthOverflow(len));
        }
        Ok(len as usize)
    }

    /// Decodes any [`CdrDecode`] value.
    pub fn read<T: CdrDecode>(&mut self) -> Result<T, CdrError> {
        T::decode(self)
    }
}

/// Values that can be marshalled in CDR form.
pub trait CdrEncode {
    /// Appends this value to the encoder.
    fn encode(&self, enc: &mut CdrEncoder);

    /// Convenience: marshals just this value into a fresh buffer.
    fn to_cdr(&self) -> Bytes {
        let mut enc = CdrEncoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

/// Values that can be unmarshalled from CDR form.
pub trait CdrDecode: Sized {
    /// Reads one value from the decoder.
    ///
    /// # Errors
    ///
    /// Any [`CdrError`] from a malformed buffer.
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError>;

    /// Convenience: unmarshals a value occupying a whole buffer.
    ///
    /// # Errors
    ///
    /// Any [`CdrError`] from a malformed buffer.
    fn from_cdr(data: &[u8]) -> Result<Self, CdrError> {
        let mut dec = CdrDecoder::new(data);
        Self::decode(&mut dec)
    }
}

macro_rules! impl_cdr_primitive {
    ($ty:ty, $write:ident, $read:ident) => {
        impl CdrEncode for $ty {
            fn encode(&self, enc: &mut CdrEncoder) {
                enc.$write(*self);
            }
        }
        impl CdrDecode for $ty {
            fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
                dec.$read()
            }
        }
    };
}

impl_cdr_primitive!(u8, write_u8, read_u8);
impl_cdr_primitive!(bool, write_bool, read_bool);
impl_cdr_primitive!(u16, write_u16, read_u16);
impl_cdr_primitive!(u32, write_u32, read_u32);
impl_cdr_primitive!(u64, write_u64, read_u64);
impl_cdr_primitive!(i32, write_i32, read_i32);
impl_cdr_primitive!(i64, write_i64, read_i64);
impl_cdr_primitive!(f64, write_f64, read_f64);

impl CdrEncode for str {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_string(self);
    }
}

impl CdrEncode for String {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_string(self);
    }
}

impl CdrDecode for String {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        dec.read_string()
    }
}

impl<T: CdrEncode> CdrEncode for Vec<T> {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_seq_len(self.len());
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: CdrDecode> CdrDecode for Vec<T> {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        let len = dec.read_seq_len()?;
        // Don't trust the prefix for preallocation beyond what the buffer
        // could possibly hold.
        let mut out = Vec::with_capacity(len.min(dec.remaining()));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: CdrEncode> CdrEncode for Option<T> {
    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            None => enc.write_bool(false),
            Some(v) => {
                enc.write_bool(true);
                v.encode(enc);
            }
        }
    }
}

impl<T: CdrDecode> CdrDecode for Option<T> {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        if dec.read_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<A: CdrEncode, B: CdrEncode> CdrEncode for (A, B) {
    fn encode(&self, enc: &mut CdrEncoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: CdrDecode, B: CdrDecode> CdrDecode for (A, B) {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl CdrEncode for newtop_net::site::NodeId {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_u32(self.index());
    }
}

impl CdrDecode for newtop_net::site::NodeId {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(newtop_net::site::NodeId::from_index(dec.read_u32()?))
    }
}

/// Shared values marshal exactly like their pointee: refcounted buffers
/// (e.g. `Arc<DataMsg>` in the GCS delivery engine) go on the wire with
/// no representation change.
impl<T: CdrEncode> CdrEncode for std::sync::Arc<T> {
    fn encode(&self, enc: &mut CdrEncoder) {
        (**self).encode(enc);
    }
}

impl<T: CdrDecode> CdrDecode for std::sync::Arc<T> {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(std::sync::Arc::new(T::decode(dec)?))
    }
}

impl CdrEncode for Bytes {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_bytes(self);
    }
}

impl CdrDecode for Bytes {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(Bytes::from(dec.read_bytes()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = CdrEncoder::new();
        enc.write_u8(1);
        enc.write_u16(2);
        enc.write_u32(3);
        enc.write_u64(4);
        enc.write_i32(-5);
        enc.write_i64(-6);
        enc.write_f64(7.5);
        enc.write_bool(true);
        let b = enc.finish();
        let mut dec = CdrDecoder::new(&b);
        assert_eq!(dec.read_u8().unwrap(), 1);
        assert_eq!(dec.read_u16().unwrap(), 2);
        assert_eq!(dec.read_u32().unwrap(), 3);
        assert_eq!(dec.read_u64().unwrap(), 4);
        assert_eq!(dec.read_i32().unwrap(), -5);
        assert_eq!(dec.read_i64().unwrap(), -6);
        assert_eq!(dec.read_f64().unwrap(), 7.5);
        assert!(dec.read_bool().unwrap());
        assert!(dec.is_exhausted());
    }

    #[test]
    fn alignment_matches_cdr() {
        let mut enc = CdrEncoder::new();
        enc.write_u8(0xAA);
        enc.write_u32(0x0102_0304);
        let b = enc.finish();
        // 1 byte value, 3 bytes padding, 4 bytes u32.
        assert_eq!(b.len(), 8);
        assert_eq!(&b[4..], &[1, 2, 3, 4]);
    }

    #[test]
    fn align_zero_is_a_noop() {
        // Regression: `len % 0` / `pos % 0` used to panic; a zero
        // alignment must simply do nothing on both sides.
        let mut enc = CdrEncoder::new();
        enc.write_u8(0xAA);
        enc.align(0);
        assert_eq!(&enc.finish()[..], &[0xAA]);
        let data = [0xAA];
        let mut dec = CdrDecoder::new(&data);
        dec.align(0);
        assert_eq!(dec.read_u8().unwrap(), 0xAA);
    }

    #[test]
    fn strings_and_blobs() {
        let mut enc = CdrEncoder::new();
        enc.write_string("héllo");
        enc.write_bytes(&[9, 8, 7]);
        enc.write_bytes(&[6, 5]);
        let b = enc.finish();
        let mut dec = CdrDecoder::new(&b);
        assert_eq!(dec.read_string().unwrap(), "héllo");
        assert_eq!(dec.read_bytes().unwrap(), vec![9, 8, 7]);
        assert_eq!(dec.read_octets().unwrap(), &[6, 5]);
        assert!(dec.read_octets().is_err());
    }

    #[test]
    fn eof_is_reported() {
        let mut dec = CdrDecoder::new(&[0, 0]);
        let err = dec.read_u32().unwrap_err();
        assert!(matches!(err, CdrError::UnexpectedEof { .. }));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut enc = CdrEncoder::new();
        enc.write_u32(u32::MAX);
        let b = enc.finish();
        let mut dec = CdrDecoder::new(&b);
        assert_eq!(
            dec.read_string().unwrap_err(),
            CdrError::LengthOverflow(u32::MAX)
        );
    }

    #[test]
    fn truncated_string_is_eof_not_panic() {
        let mut enc = CdrEncoder::new();
        enc.write_u32(100); // promises 100 bytes, delivers none
        let b = enc.finish();
        let mut dec = CdrDecoder::new(&b);
        assert!(matches!(
            dec.read_string().unwrap_err(),
            CdrError::UnexpectedEof { .. }
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut enc = CdrEncoder::new();
        enc.write_bytes(&[0xFF, 0xFE]);
        let b = enc.finish();
        let mut dec = CdrDecoder::new(&b);
        assert_eq!(dec.read_string().unwrap_err(), CdrError::InvalidUtf8);
    }

    #[test]
    fn generic_containers_round_trip() {
        let v: Vec<u32> = vec![1, 2, 3];
        let o: Option<String> = Some("x".to_owned());
        let n: Option<String> = None;
        let t: (u8, i64) = (9, -9);
        let mut enc = CdrEncoder::new();
        enc.write(&v);
        enc.write(&o);
        enc.write(&n);
        enc.write(&t);
        let b = enc.finish();
        let mut dec = CdrDecoder::new(&b);
        assert_eq!(dec.read::<Vec<u32>>().unwrap(), v);
        assert_eq!(dec.read::<Option<String>>().unwrap(), o);
        assert_eq!(dec.read::<Option<String>>().unwrap(), n);
        assert_eq!(dec.read::<(u8, i64)>().unwrap(), t);
    }

    #[test]
    fn take_frame_matches_finish_and_retains_capacity() {
        let mut scratch = CdrEncoder::with_capacity(256);
        for round in 0..3u32 {
            scratch.write_u32(round);
            scratch.write_string("reused");
            let mut fresh = CdrEncoder::new();
            fresh.write_u32(round);
            fresh.write_string("reused");
            assert_eq!(scratch.take_frame(), fresh.finish());
            assert!(scratch.is_empty(), "take_frame clears the buffer");
        }
    }

    #[test]
    fn arc_values_marshal_like_their_pointee() {
        let v = std::sync::Arc::new("shared".to_owned());
        assert_eq!(v.to_cdr(), "shared".to_owned().to_cdr());
        let back = std::sync::Arc::<String>::from_cdr(&v.to_cdr()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn to_cdr_from_cdr_round_trip() {
        let v = vec!["a".to_owned(), "bb".to_owned()];
        let b = v.to_cdr();
        assert_eq!(Vec::<String>::from_cdr(&b).unwrap(), v);
    }

    proptest! {
        #[test]
        fn prop_mixed_round_trip(
            a in any::<u8>(),
            b in any::<u64>(),
            c in any::<i32>(),
            s in ".{0,64}",
            v in proptest::collection::vec(any::<u32>(), 0..32),
            o in proptest::option::of(any::<u16>()),
        ) {
            let mut enc = CdrEncoder::new();
            enc.write_u8(a);
            enc.write_u64(b);
            enc.write_i32(c);
            enc.write_string(&s);
            enc.write(&v);
            enc.write(&o);
            let buf = enc.finish();
            let mut dec = CdrDecoder::new(&buf);
            prop_assert_eq!(dec.read_u8().unwrap(), a);
            prop_assert_eq!(dec.read_u64().unwrap(), b);
            prop_assert_eq!(dec.read_i32().unwrap(), c);
            prop_assert_eq!(dec.read_string().unwrap(), s);
            prop_assert_eq!(dec.read::<Vec<u32>>().unwrap(), v);
            prop_assert_eq!(dec.read::<Option<u16>>().unwrap(), o);
        }

        #[test]
        fn prop_f64_round_trip(x in any::<f64>()) {
            let mut enc = CdrEncoder::new();
            enc.write_f64(x);
            let buf = enc.finish();
            let mut dec = CdrDecoder::new(&buf);
            let y = dec.read_f64().unwrap();
            prop_assert!(x.to_bits() == y.to_bits());
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut dec = CdrDecoder::new(&data);
            // Whatever the bytes are, decoding returns Ok or Err, never panics.
            let _ = dec.read::<Vec<String>>();
            let mut dec2 = CdrDecoder::new(&data);
            let _ = dec2.read::<Option<(u64, String)>>();
        }
    }
}
