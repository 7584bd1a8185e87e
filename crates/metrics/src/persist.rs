//! Length-prefixed exact binary codec for controller checkpoints.
//!
//! The crash–recovery subsystem (DESIGN.md §17) must restore controller
//! state *byte-identically*: a recovered run's predictions, votes and
//! actuations are asserted equal to an uninterrupted referee, so the
//! codec cannot tolerate any round-trip wobble. Everything is written in
//! fixed little-endian layouts — `f64` travels as [`f64::to_bits`], so
//! subnormals, signed zeros and integer-valued counts near 2^53 all
//! survive exactly — and every composite carries an explicit length or
//! tag so a torn or truncated buffer is detected, never misread.
//!
//! The no-serde rule (workspace `Cargo.toml`) is why this is hand-rolled;
//! the JSON module ([`crate::json`]) stays the human-readable trace
//! format, this module is the machine-exact state format.

use crate::{Duration, MetricSample, MetricVector, Timestamp, ATTRIBUTE_COUNT};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A decode failure. Encoding is infallible; decoding is not, because the
/// buffer may be torn (crash mid-write), truncated, or from a different
/// format version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before the value it promised.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A magic number or version did not match.
    BadMagic {
        /// The magic/version actually read.
        found: u64,
        /// The magic/version required.
        expected: u64,
    },
    /// A frame checksum did not match its contents (torn tail).
    BadChecksum,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// A decoded value violated a structural invariant.
    Invalid(&'static str),
    /// A frame of a chained image does not follow the frame before it: a
    /// frame is missing, extra, out of order or from another image.
    BrokenChain,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { what } => {
                write!(f, "buffer truncated while decoding {what}")
            }
            PersistError::BadMagic { found, expected } => {
                write!(f, "bad magic/version {found:#x} (expected {expected:#x})")
            }
            PersistError::BadChecksum => write!(f, "checksum mismatch (torn or corrupt frame)"),
            PersistError::BadTag { what, tag } => write!(f, "unknown tag {tag} for {what}"),
            PersistError::Invalid(what) => write!(f, "invalid value: {what}"),
            PersistError::BrokenChain => {
                write!(
                    f,
                    "frame chain broken (a frame missing, extra, reordered or foreign)"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// An append-only byte sink with fixed little-endian primitive layouts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer that fills `buf`'s allocation: the contents are
    /// dropped, the capacity is kept.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends `v` as a minimal unsigned LEB128 varint: seven bits per
    /// byte, lowest group first, the high bit set on every byte but the
    /// last. Values below 128 take one byte, `u64::MAX` takes ten.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends `v`, read as a two's-complement `i64`, as the zigzag
    /// varint of that: 0, −1, 1, −2 … become 0, 1, 2, 3 …, so a small
    /// difference of either sign takes one byte. Meant for wrapping
    /// differences (`x.wrapping_sub(base)`), which
    /// [`Reader::get_zigzag`] and `base.wrapping_add` invert for every
    /// `u64` pair.
    pub fn put_zigzag(&mut self, v: u64) {
        self.put_varint((v << 1) ^ ((v as i64 >> 63) as u64));
    }

    /// Appends a `usize` as a `u64` (layout-stable across platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix (caller frames them).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites the eight bytes at offset `at` with a little-endian
    /// `u64` — how a frame writer fills in a length it reserved before
    /// the payload was serialized behind it.
    ///
    /// # Panics
    ///
    /// Panics unless `at + 8` bytes have been written.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Overwrites the byte at offset `at` — how a writer fills in a count
    /// it reserved before the items it counts.
    ///
    /// # Panics
    ///
    /// Panics unless `at + 1` bytes have been written.
    pub fn patch_u8(&mut self, at: usize, v: u8) {
        self.buf[at] = v;
    }

    /// Drops every byte written so far, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// View of the accumulated bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A cursor over an encoded buffer; every read is bounds-checked so a
/// truncated buffer errors instead of panicking.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset into the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8, "u64")?;
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| PersistError::Truncated { what: "u64 bytes" })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a varint [`Writer::put_varint`] wrote.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer, or
    /// [`PersistError::Invalid`] for an encoding the writer never
    /// produces: a non-minimal one (a final zero byte after a
    /// continuation), one longer than ten bytes, or one whose tenth byte
    /// carries bits above `u64`'s 64th.
    pub fn get_varint(&mut self) -> Result<u64, PersistError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1, "varint")?[0];
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                return Err(PersistError::Invalid("varint overflows u64"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(PersistError::Invalid("non-minimal varint"));
                }
                return Ok(v);
            }
        }
        Err(PersistError::Invalid("overlong varint"))
    }

    /// Reads a value [`Writer::put_zigzag`] wrote.
    ///
    /// # Errors
    ///
    /// As [`Reader::get_varint`].
    pub fn get_zigzag(&mut self) -> Result<u64, PersistError> {
        let z = self.get_varint()?;
        Ok((z >> 1) ^ (z & 1).wrapping_neg())
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer, or
    /// [`PersistError::Invalid`] when the value exceeds the platform's
    /// `usize`.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.get_u64()?).map_err(|_| PersistError::Invalid("usize overflow"))
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting any byte other than 0/1.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] or [`PersistError::BadTag`] on a
    /// non-boolean byte.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag { what: "bool", tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] or [`PersistError::Invalid`] on
    /// malformed UTF-8.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let len = self.get_usize()?;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Invalid("non-UTF-8 string"))
    }

    /// Reads `n` raw bytes (caller knows the framing).
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of buffer.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n, "raw bytes")
    }
}

/// Exact binary serialization: `load(store(x)) == x` down to the bit
/// pattern of every float.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn store(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] when the buffer is truncated, torn, or
    /// structurally invalid.
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Round-trips a value through the codec (convenience for tests and
/// state-fingerprint comparisons).
pub fn to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.store(&mut w);
    w.into_bytes()
}

/// Decodes a value from a complete buffer, requiring full consumption.
///
/// # Errors
///
/// Any decode error, or [`PersistError::Invalid`] when trailing bytes
/// remain (a sign the buffer holds a different format).
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, PersistError> {
    let mut r = Reader::new(bytes);
    let v = T::load(&mut r)?;
    if !r.is_exhausted() {
        return Err(PersistError::Invalid("trailing bytes after value"));
    }
    Ok(v)
}

impl Persist for u8 {
    fn store(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u8()
    }
}

impl Persist for u64 {
    fn store(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u64()
    }
}

impl Persist for usize {
    fn store(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_usize()
    }
}

impl Persist for bool {
    fn store(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_bool()
    }
}

impl Persist for f64 {
    fn store(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_f64()
    }
}

impl Persist for String {
    fn store(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn store(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.store(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            tag => Err(PersistError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

/// Appends a sequence the way every collection here is laid out: its
/// length, then each element. [`Vec`] and [`VecDeque`] decode it; callers holding only a borrowed slice encode through it directly.
pub fn store_seq<'a, T: Persist + 'a>(w: &mut Writer, items: impl ExactSizeIterator<Item = &'a T>) {
    w.put_usize(items.len());
    for v in items {
        v.store(w);
    }
}

/// How many `T`s to reserve for a sequence whose stored length is `len`:
/// never more in-memory bytes than the buffer has left, so a corrupt
/// length cannot reserve a multiple of the image before the `Truncated`
/// error surfaces. An encoding denser than `T`'s in-memory size (a
/// one-byte tag for a word-sized enum) grows past the reservation.
pub fn bounded_capacity<T>(len: usize, r: &Reader<'_>) -> usize {
    len.min(r.remaining() / std::mem::size_of::<T>().max(1))
}

impl<T: Persist> Persist for Vec<T> {
    fn store(&self, w: &mut Writer) {
        store_seq(w, self.iter());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut out = Vec::with_capacity(bounded_capacity::<T>(len, r));
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn store(&self, w: &mut Writer) {
        store_seq(w, self.iter());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut out = VecDeque::with_capacity(bounded_capacity::<T>(len, r));
        for _ in 0..len {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.store(w);
            v.store(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn store(&self, w: &mut Writer) {
        self.0.store(w);
        self.1.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl Persist for Timestamp {
    fn store(&self, w: &mut Writer) {
        w.put_u64(self.as_secs());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Timestamp::from_secs(r.get_u64()?))
    }
}

impl Persist for Duration {
    fn store(&self, w: &mut Writer) {
        w.put_u64(self.as_secs());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Duration::from_secs(r.get_u64()?))
    }
}

impl Persist for crate::VmId {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.0);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(crate::VmId(r.get_usize()?))
    }
}

impl Persist for crate::AttributeKind {
    fn store(&self, w: &mut Writer) {
        w.put_u8(self.index() as u8);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tag = r.get_u8()?;
        crate::AttributeKind::from_index(tag as usize).ok_or(PersistError::BadTag {
            what: "AttributeKind",
            tag,
        })
    }
}

impl Persist for MetricVector {
    fn store(&self, w: &mut Writer) {
        let mut bytes = [0u8; ATTRIBUTE_COUNT * 8];
        for (word, v) in bytes.chunks_exact_mut(8).zip(self.as_slice()) {
            word.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        w.put_raw(&bytes);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let bytes = r.get_raw(ATTRIBUTE_COUNT * 8)?;
        let mut values = [0.0; ATTRIBUTE_COUNT];
        for (v, word) in values.iter_mut().zip(bytes.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(word);
            *v = f64::from_bits(u64::from_le_bytes(le));
        }
        Ok(MetricVector::from(values))
    }
}

/// The most bytes [`MetricVector::store_against`] writes: the four-byte
/// code header and 13 whole words.
pub const MAX_VECTOR_BYTES: usize = 4 + ATTRIBUTE_COUNT * 8;

/// The header bits the 13 two-bit codes fill; the bits above are padding.
const CODE_BITS: usize = 2 * ATTRIBUTE_COUNT;

/// The offset of the last word a whole vector can start at: 4 header
/// bytes and 12 whole words in.
const LAST_WORD: usize = 4 + (ATTRIBUTE_COUNT - 1) * 8;

/// What each two-bit code means: the bytes its word takes, the bits they
/// hold, and the least word that needs them. A word under its code is
/// the shortest encoding exactly when it is at least that least word.
struct Code {
    bytes: usize,
    mask: u64,
    least: u64,
}

const CODES: [Code; 4] = [
    Code {
        bytes: 0,
        mask: 0,
        least: 0,
    },
    Code {
        bytes: 6,
        mask: (1 << 48) - 1,
        least: 1,
    },
    Code {
        bytes: 7,
        mask: (1 << 56) - 1,
        least: 1 << 48,
    },
    Code {
        bytes: 8,
        mask: u64::MAX,
        least: 1 << 56,
    },
];

/// The meaning of the two-bit code in the low bits of `bits`.
fn code(bits: u32) -> &'static Code {
    CODES.get(bits as usize & 3).unwrap_or(&CODES[0])
}

/// The shortest code that holds the XOR word `x`: 0 when it is zero (the
/// value did not change), 1 when it fits its low 6 bytes, 2 when it fits
/// its low 7, 3 otherwise.
fn value_code(x: u64) -> u32 {
    u32::from(x != 0) + u32::from(x >> 48 != 0) + u32::from(x >> 56 != 0)
}

/// The codec of a vector against a base: what a sample costs where the
/// reader already holds the sample before it.
impl MetricVector {
    /// Appends this vector coded against `base`: a little-endian `u32` of
    /// 13 two-bit codes (attribute `i` in bits `2i..2i + 2`, the six bits
    /// above zero), then, in attribute order, each value's bit pattern
    /// XOR `base`'s, in the bytes its code names — none when the value is
    /// unchanged, the word's low 6 bytes, its low 7 or all 8, little-endian.
    /// Each code is the shortest that holds its word, so every vector has
    /// exactly one encoding against a base, of 4 to
    /// [`MAX_VECTOR_BYTES`] bytes.
    // xtask: hot-path
    pub fn store_against(&self, w: &mut Writer, base: &MetricVector) {
        let mut out = [0u8; MAX_VECTOR_BYTES];
        let mut header = 0u32;
        let mut at = 4;
        for (i, (v, b)) in self.as_slice().iter().zip(base.as_slice()).enumerate() {
            let x = v.to_bits() ^ b.to_bits();
            let shortest = value_code(x);
            header |= shortest << (2 * i);
            // Every word is written whole; the next one starts where this
            // one's code ends and overwrites the bytes past it. At most 12
            // words precede this one, so `at` never passes `LAST_WORD`.
            if let Some(window) = out.get_mut(at.min(LAST_WORD)..) {
                if let Some(window) = window.first_chunk_mut::<8>() {
                    *window = x.to_le_bytes();
                }
            }
            at += code(shortest).bytes;
        }
        if let Some(head) = out.first_chunk_mut::<4>() {
            *head = header.to_le_bytes();
        }
        w.put_raw(out.get(..at).unwrap_or_default());
    }

    /// Reads a vector [`MetricVector::store_against`] coded against
    /// `base`. While a whole vector's worth of bytes is left, it reads
    /// each word as an eight-byte window, masks it to its code and
    /// advances by the code's length; on a buffer's tail it reads byte by
    /// byte. Both decode the same bytes to the same values.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] when the bytes run out, and
    /// [`PersistError::Invalid`] for an encoding the writer never
    /// produces: a padding bit set, or a code longer than its word needs.
    // xtask: hot-path
    pub fn load_against(
        r: &mut Reader<'_>,
        base: &MetricVector,
    ) -> Result<MetricVector, PersistError> {
        let whole = r
            .buf
            .get(r.pos..)
            .and_then(|rest| rest.first_chunk::<MAX_VECTOR_BYTES>());
        let Some(window) = whole else {
            return load_bytewise(r, base);
        };
        let (values, used) = load_window(window, base)?;
        r.pos += used;
        Ok(values)
    }
}

/// The codes of a vector's header, refusing a set padding bit.
fn value_codes(head: [u8; 4]) -> Result<u32, PersistError> {
    let header = u32::from_le_bytes(head);
    if header >> CODE_BITS != 0 {
        return Err(PersistError::Invalid("value code padding"));
    }
    Ok(header)
}

/// [`MetricVector::load_against`] where a whole vector's worth of bytes
/// is left: one eight-byte read per word, whose bounds the window's one
/// check covers. Returns the vector and the bytes it took.
// xtask: hot-path
#[inline]
fn load_window(
    bytes: &[u8; MAX_VECTOR_BYTES],
    base: &MetricVector,
) -> Result<(MetricVector, usize), PersistError> {
    let header = value_codes(*bytes.first_chunk::<4>().unwrap_or(&[0; 4]))?;
    let mut values = [0.0; ATTRIBUTE_COUNT];
    let mut at = 4;
    let mut shortest = true;
    for (i, (v, b)) in values.iter_mut().zip(base.as_slice()).enumerate() {
        let code = code(header >> (2 * i));
        // At most 12 words precede this one, so `at` never passes
        // `LAST_WORD`; the `min` only tells the compiler so.
        let word = bytes
            .get(at.min(LAST_WORD)..)
            .and_then(|w| w.first_chunk::<8>())
            .map_or(0, |w| u64::from_le_bytes(*w));
        let x = word & code.mask;
        shortest &= x >= code.least;
        *v = f64::from_bits(b.to_bits() ^ x);
        at += code.bytes;
    }
    if !shortest {
        return Err(PersistError::Invalid("value code not the shortest"));
    }
    Ok((MetricVector::from(values), at))
}

/// [`MetricVector::load_against`] on a buffer's tail, a byte at a time.
fn load_bytewise(r: &mut Reader<'_>, base: &MetricVector) -> Result<MetricVector, PersistError> {
    let head = r
        .take(4, "value codes")?
        .first_chunk::<4>()
        .copied()
        .unwrap_or_default();
    let header = value_codes(head)?;
    let mut values = [0.0; ATTRIBUTE_COUNT];
    for (i, (v, b)) in values.iter_mut().zip(base.as_slice()).enumerate() {
        let code = code(header >> (2 * i));
        let x = r
            .take(code.bytes, "value word")?
            .iter()
            .rev()
            .fold(0u64, |x, &byte| (x << 8) | u64::from(byte));
        if x < code.least {
            return Err(PersistError::Invalid("value code not the shortest"));
        }
        *v = f64::from_bits(b.to_bits() ^ x);
    }
    Ok(MetricVector::from(values))
}

impl Persist for MetricSample {
    fn store(&self, w: &mut Writer) {
        let Self { time, values } = self;
        time.store(w);
        values.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(MetricSample::new(
            Timestamp::load(r)?,
            MetricVector::load(r)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttributeKind;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("hello — ünïcode"));
        round_trip(&String::new());
    }

    #[test]
    fn extreme_floats_round_trip_bit_exactly() {
        for &f in &[
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            5e-324,                  // smallest subnormal
            f64::MAX,
            f64::MIN,
            9_007_199_254_740_992.0, // 2^53
            9_007_199_254_740_991.0, // 2^53 - 1
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
        ] {
            let bytes = to_bytes(&f);
            let back: f64 = from_bytes(&bytes).expect("decodes");
            assert_eq!(back.to_bits(), f.to_bits(), "{f}");
        }
    }

    #[test]
    fn negative_zero_is_preserved() {
        let bytes = to_bytes(&-0.0f64);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_sign_negative());
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn composites_round_trip() {
        round_trip(&Some(3u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1.5f64, -2.0, 0.0]);
        round_trip(&Vec::<u64>::new());
        round_trip(&VecDeque::from([true, false, true]));
        round_trip(&BTreeMap::from([(1u64, 2.0f64), (3, 4.0)]));
        round_trip(&(1u64, 2.0f64));
        round_trip(&Timestamp::from_secs(42));
        round_trip(&Duration::from_secs(5));
    }

    #[test]
    fn domain_types_round_trip() {
        for a in AttributeKind::ALL {
            round_trip(&a);
        }
        let mut v = MetricVector::zeros();
        v.set(AttributeKind::FreeMem, -0.0);
        v.set(AttributeKind::NetIn, f64::MAX);
        let bytes = to_bytes(&v);
        let back: MetricVector = from_bytes(&bytes).unwrap();
        for a in AttributeKind::ALL {
            assert_eq!(back.get(a).to_bits(), v.get(a).to_bits());
        }
        round_trip(&MetricSample::new(Timestamp::from_secs(9), v));
    }

    #[test]
    fn a_metric_vector_is_thirteen_words_and_every_cut_is_truncated() {
        let v = MetricVector::from_fn(|a| a.index() as f64 * -1.5 + 0.25);
        let mut words = Writer::new();
        for &x in v.as_slice() {
            words.put_f64(x);
        }
        let bytes = to_bytes(&v);
        assert_eq!(bytes, words.into_bytes());
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    from_bytes::<MetricVector>(&bytes[..cut]),
                    Err(PersistError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    /// The bytes a value's XOR word takes, from its highest set byte
    /// alone: none when it is zero, else 6, 7 or 8, whichever is the
    /// first that holds it.
    pub(super) fn word_bytes(x: u64) -> usize {
        match (64 - x.leading_zeros()).div_ceil(8) {
            0 => 0,
            1..=6 => 6,
            n => n as usize,
        }
    }

    fn against(v: &MetricVector, base: &MetricVector) -> Vec<u8> {
        let mut w = Writer::new();
        v.store_against(&mut w, base);
        w.into_bytes()
    }

    /// A vector coded against itself is its header alone; against zeros
    /// each value takes the bytes its own pattern needs.
    #[test]
    fn a_vector_against_a_base_takes_the_bytes_its_changes_need() {
        let v = MetricVector::from_fn(|a| a.index() as f64 * -1.5 + 0.25);
        assert_eq!(against(&v, &v), [0, 0, 0, 0]);
        let zeros = MetricVector::zeros();
        let want: usize = v.as_slice().iter().map(|x| word_bytes(x.to_bits())).sum();
        assert_eq!(against(&v, &zeros).len(), 4 + want);
        // One value moved in its last mantissa bit, one in its sign, one
        // in its second byte from the top.
        let mut moved = v;
        moved.set(
            AttributeKind::CpuTotal,
            f64::from_bits(v[AttributeKind::CpuTotal].to_bits() ^ 1),
        );
        moved.set(AttributeKind::FreeMem, -v[AttributeKind::FreeMem]);
        moved.set(
            AttributeKind::NetIn,
            f64::from_bits(v[AttributeKind::NetIn].to_bits() ^ 1 << 50),
        );
        let bytes = against(&moved, &v);
        assert_eq!(bytes.len(), 4 + 6 + 8 + 7);
        let codes = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        for a in AttributeKind::ALL {
            let want = match a {
                AttributeKind::CpuTotal => 1,
                AttributeKind::FreeMem => 3,
                AttributeKind::NetIn => 2,
                _ => 0,
            };
            assert_eq!((codes >> (2 * a.index())) & 3, want, "{a:?}");
        }
        let back = MetricVector::load_against(&mut Reader::new(&bytes), &v).unwrap();
        assert_eq!(back, moved);
    }

    /// A longer code than the word needs, or a padding bit, is refused on
    /// both decode paths; so is every cut of a vector.
    #[test]
    fn a_non_shortest_code_a_padding_bit_and_every_cut_are_refused() {
        let base = MetricVector::zeros();
        let mut v = base;
        v.set(AttributeKind::CpuTotal, f64::from_bits(0xab));
        let bytes = against(&v, &base);
        assert_eq!(bytes.len(), 4 + 6);
        // The same word under code 2 (7 bytes) and code 3 (8 bytes).
        for (code, width) in [(2u8, 7), (3, 8)] {
            let mut long = vec![code, 0, 0, 0, 0xab];
            long.resize(4 + width, 0);
            assert_eq!(
                MetricVector::load_against(&mut Reader::new(&long), &base),
                Err(PersistError::Invalid("value code not the shortest")),
                "code {code}"
            );
        }
        // An unchanged value under code 1.
        let zero_word = [1u8, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            MetricVector::load_against(&mut Reader::new(&zero_word), &base),
            Err(PersistError::Invalid("value code not the shortest"))
        );
        for bit in 26..32 {
            let mut padded = bytes.clone();
            padded[bit / 8] |= 1 << (bit % 8);
            assert_eq!(
                MetricVector::load_against(&mut Reader::new(&padded), &base),
                Err(PersistError::Invalid("value code padding")),
                "bit {bit}"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    MetricVector::load_against(&mut Reader::new(&bytes[..cut]), &base),
                    Err(PersistError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    fn varint(bytes: &[u8]) -> Result<u64, PersistError> {
        let mut r = Reader::new(bytes);
        let v = r.get_varint()?;
        assert!(r.is_exhausted(), "{bytes:?} left bytes over");
        Ok(v)
    }

    #[test]
    fn varints_round_trip_at_every_group_boundary() {
        let mut values = vec![0u64, 1, u64::MAX, u64::MAX - 1];
        for bits in 1..64 {
            values.extend([(1u64 << bits) - 1, 1u64 << bits, (1u64 << bits) + 1]);
        }
        for v in values {
            let mut w = Writer::new();
            w.put_varint(v);
            let width = (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
            assert_eq!(w.len(), width, "{v}");
            assert_eq!(varint(w.bytes()), Ok(v));
            for cut in 0..w.len() {
                assert!(
                    matches!(
                        Reader::new(&w.bytes()[..cut]).get_varint(),
                        Err(PersistError::Truncated { .. })
                    ),
                    "{v} cut at {cut}"
                );
            }
        }
        assert_eq!(varint(&[0x7f]), Ok(127));
        assert_eq!(varint(&[0x80, 0x01]), Ok(128));
    }

    /// A wrapping difference of either sign round-trips for every pair
    /// of `u64`s, and a small one takes one byte.
    #[test]
    fn zigzag_deltas_round_trip_every_pair() {
        let edges = [
            0u64,
            1,
            2,
            63,
            64,
            65,
            1 << 62,
            i64::MAX as u64,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &base in &edges {
            for &x in &edges {
                let mut w = Writer::new();
                w.put_zigzag(x.wrapping_sub(base));
                let mut r = Reader::new(w.bytes());
                assert_eq!(
                    r.get_zigzag().map(|d| base.wrapping_add(d)),
                    Ok(x),
                    "{base} {x}"
                );
                assert!(r.is_exhausted());
            }
        }
        for (delta, zigzag) in [(0i64, 0u64), (-1, 1), (1, 2), (-64, 127), (64, 128)] {
            let mut w = Writer::new();
            w.put_zigzag(delta as u64);
            assert_eq!(varint(w.bytes()), Ok(zigzag), "{delta}");
        }
    }

    #[test]
    fn malformed_varints_are_invalid() {
        // Non-minimal: a zero final group after a continuation byte.
        for bytes in [&[0x80, 0x00][..], &[0x81, 0x00], &[0xff, 0x80, 0x00]] {
            assert_eq!(
                varint(bytes),
                Err(PersistError::Invalid("non-minimal varint")),
                "{bytes:?}"
            );
        }
        // Overlong: an eleventh byte is never needed.
        let mut overlong = vec![0x80u8; 10];
        overlong.push(0x01);
        assert_eq!(
            Reader::new(&overlong).get_varint(),
            Err(PersistError::Invalid("overlong varint"))
        );
        // Overflow: the tenth byte holds bit 63 only.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(varint(&max), Ok(u64::MAX));
        for tenth in [0x02u8, 0x7f] {
            let mut over = vec![0xffu8; 9];
            over.push(tenth);
            assert_eq!(
                varint(&over),
                Err(PersistError::Invalid("varint overflows u64")),
                "{tenth:#x}"
            );
        }
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let res: Result<Vec<u64>, _> = from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_length_is_bounded() {
        // A length claiming 2^60 elements must error, not allocate.
        let mut w = Writer::new();
        w.put_u64(1u64 << 60);
        let res: Result<Vec<u64>, _> = from_bytes(&w.into_bytes());
        assert!(matches!(res, Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn reservation_never_exceeds_the_bytes_left() {
        // Whatever length an image claims, the bytes reserved for its
        // elements are at most the bytes the image still holds — for the
        // 112-byte sample that makes up most of a checkpoint as for a byte.
        fn reserved_bytes<T>(len: usize, left: usize) -> usize {
            let buf = vec![0u8; left];
            bounded_capacity::<T>(len, &Reader::new(&buf)) * std::mem::size_of::<T>()
        }
        for left in [0usize, 7, 111, 112, 113, 4096] {
            for len in [0usize, 1, 36, 37, 1 << 20, usize::MAX] {
                assert!(reserved_bytes::<u8>(len, left) <= left);
                assert!(reserved_bytes::<f64>(len, left) <= left);
                assert!(reserved_bytes::<MetricSample>(len, left) <= left);
                assert!(reserved_bytes::<()>(len, left) <= left);
            }
        }
        // An honest length is reserved in full.
        assert_eq!(bounded_capacity::<u64>(3, &Reader::new(&[0u8; 24])), 3);
        // A flipped length in a sequence of samples still surfaces as
        // truncation, through the VecDeque loader too.
        let samples = vec![MetricSample::new(Timestamp::ZERO, crate::MetricVector::zeros()); 4];
        let mut bytes = to_bytes(&samples);
        bytes[5] ^= 0x10;
        let res: Result<Vec<MetricSample>, _> = from_bytes(&bytes);
        assert!(matches!(res, Err(PersistError::Truncated { .. })));
        let res: Result<VecDeque<MetricSample>, _> = from_bytes(&bytes);
        assert!(matches!(res, Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut w = Writer::new();
        w.put_u8(7);
        let res: Result<Option<u64>, _> = from_bytes(w.bytes());
        assert!(matches!(res, Err(PersistError::BadTag { .. })));
        let mut w = Writer::new();
        w.put_u8(2);
        let res: Result<bool, _> = from_bytes(&w.into_bytes());
        assert!(matches!(res, Err(PersistError::BadTag { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        let res: Result<u64, _> = from_bytes(&bytes);
        assert_eq!(
            res,
            Err(PersistError::Invalid("trailing bytes after value"))
        );
    }

    #[test]
    fn errors_display() {
        let errs: Vec<PersistError> = vec![
            PersistError::Truncated { what: "u64" },
            PersistError::BadMagic {
                found: 1,
                expected: 2,
            },
            PersistError::BadChecksum,
            PersistError::BadTag {
                what: "bool",
                tag: 9,
            },
            PersistError::Invalid("x"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

#[cfg(test)]
mod value_codec_proptests {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns at the edges of `f64`: signed zeros, infinities, NaNs
    /// with and without payloads, subnormals, the normal extremes and
    /// all-ones.
    const EDGES: [u64; 16] = [
        0,
        1 << 63,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff0_0000_0000_0001,
        0xfff8_dead_beef_0001,
        0x7fff_ffff_ffff_ffff,
        1,
        0x000f_ffff_ffff_ffff,
        0x8000_0000_0000_0001,
        0x0010_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
        0x3ff0_0000_0000_0000,
        0x4059_0000_0000_0001,
        u64::MAX,
    ];

    /// A word whose highest set byte is byte `len - 1` (zero for `len` 0),
    /// its other bits from `bits`.
    fn word_of_len(len: usize, bits: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let top = 8 * len as u32;
        let low = bits & u64::MAX.checked_shr(64 - top).unwrap_or(0);
        low | 1 << (top - 8 + (bits >> 61) as u32)
    }

    /// One attribute's (value, base) pair: both drawn from the edges or
    /// raw bits, the value either independent or the base XOR a word of
    /// every byte length.
    fn pair((pick, e1, e2, raw, len): (u32, usize, usize, u64, usize)) -> (u64, u64) {
        let base = if pick & 1 == 0 {
            EDGES[e1]
        } else {
            raw.rotate_left(17)
        };
        let value = match pick {
            0 | 1 => base ^ word_of_len(len, raw),
            2 => EDGES[e2],
            _ => raw,
        };
        (value, base)
    }

    fn vectors(pairs: &[(u64, u64)]) -> (MetricVector, MetricVector) {
        let mut v = [0.0; ATTRIBUTE_COUNT];
        let mut b = [0.0; ATTRIBUTE_COUNT];
        for ((x, y), &(value, base)) in v.iter_mut().zip(&mut b).zip(pairs) {
            *x = f64::from_bits(value);
            *y = f64::from_bits(base);
        }
        (MetricVector::from(v), MetricVector::from(b))
    }

    fn bits(v: &MetricVector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Both decode paths over `bytes`: the window path on the bytes with
    /// a whole vector's worth of filler behind them, the byte-wise path
    /// on the bytes alone. Asserts they agree and returns the result.
    fn decode_both(bytes: &[u8], base: &MetricVector) -> Result<(Vec<u64>, usize), PersistError> {
        let mut padded = bytes.to_vec();
        padded.resize(bytes.len() + MAX_VECTOR_BYTES, 0xa5);
        let window = padded.first_chunk::<MAX_VECTOR_BYTES>().expect("padded");
        let fast = load_window(window, base).map(|(v, used)| (bits(&v), used));
        let mut r = Reader::new(bytes);
        let slow = load_bytewise(&mut r, base).map(|v| (bits(&v), r.position()));
        if bytes.len() >= MAX_VECTOR_BYTES || fast.is_ok() {
            assert_eq!(fast, slow, "{bytes:02x?}");
        }
        slow
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn every_vector_has_one_encoding_and_round_trips_bit_exactly(
            draws in proptest::collection::vec(
                (0u32..4, 0usize..16, 0usize..16, 0u64..=u64::MAX, 0usize..9),
                ATTRIBUTE_COUNT,
            ),
            junk in proptest::collection::vec(0u64..=u64::MAX, 14),
            flip in (0usize..ATTRIBUTE_COUNT, 0u32..6),
        ) {
            let pairs: Vec<(u64, u64)> = draws.into_iter().map(pair).collect();
            let (v, base) = vectors(&pairs);
            let mut w = Writer::new();
            v.store_against(&mut w, &base);
            let bytes = w.into_bytes();
            // The size follows from the words alone.
            let want: usize = pairs
                .iter()
                .map(|&(value, b)| super::tests::word_bytes(value ^ b))
                .sum();
            prop_assert_eq!(bytes.len(), 4 + want);
            prop_assert_eq!(decode_both(&bytes, &base), Ok((bits(&v), bytes.len())));
            // Through the public reader, with bytes after the vector (the
            // window path) and without (the byte-wise path when short).
            for tail in [&[][..], &[0xffu8; MAX_VECTOR_BYTES][..]] {
                let mut buf = bytes.clone();
                buf.extend_from_slice(tail);
                let mut r = Reader::new(&buf);
                let back = MetricVector::load_against(&mut r, &base).expect("decodes");
                prop_assert_eq!(bits(&back), bits(&v));
                prop_assert_eq!(r.position(), bytes.len());
            }
            // Every cut is truncation, on either path.
            for cut in 0..bytes.len() {
                let res = MetricVector::load_against(&mut Reader::new(&bytes[..cut]), &base);
                prop_assert!(matches!(res, Err(PersistError::Truncated { .. })), "cut {}", cut);
            }
            // A padding bit is refused.
            let (attr, bit) = flip;
            let mut padded = bytes.clone();
            padded[3] |= 1 << (2 + bit);
            prop_assert_eq!(decode_both(&padded, &base), Err(PersistError::Invalid("value code padding")));
            // A longer code for one word, its bytes widened with zeros, is
            // refused.
            let codes = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let code = (codes >> (2 * attr)) & 3;
            if code < 3 {
                let offset: usize = (0..attr).map(|i| super::code(codes >> (2 * i)).bytes).sum();
                let (from, to) = (super::code(code).bytes, super::code(code + 1).bytes);
                let mut long = bytes.clone();
                let header = codes + (1 << (2 * attr));
                long[..4].copy_from_slice(&header.to_le_bytes());
                let at = 4 + offset + from;
                long.splice(at..at, std::iter::repeat_n(0u8, to - from));
                prop_assert_eq!(
                    decode_both(&long, &base),
                    Err(PersistError::Invalid("value code not the shortest"))
                );
            }
            // Any bytes that do decode are the one encoding of what they
            // decode to.
            let mut any: Vec<u8> = junk.iter().flat_map(|x| x.to_le_bytes()).collect();
            let header = (junk[0] as u32) & ((1 << CODE_BITS) - 1);
            any[..4].copy_from_slice(&header.to_le_bytes());
            if let Ok((decoded, used)) = decode_both(&any, &base) {
                let mut v = [0.0; ATTRIBUTE_COUNT];
                for (x, b) in v.iter_mut().zip(&decoded) {
                    *x = f64::from_bits(*b);
                }
                let mut w = Writer::new();
                MetricVector::from(v).store_against(&mut w, &base);
                prop_assert_eq!(w.bytes(), &any[..used]);
            }
        }
    }
}
