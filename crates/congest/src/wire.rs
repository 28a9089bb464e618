//! Concrete message encoding for bandwidth metering.
//!
//! CONGEST restricts each message to `O(log n)` bits. Rather than trusting
//! the programmer's word, the simulator encodes every message to bytes
//! through [`Wire`] and meters the result. Varint helpers keep small values
//! small, which matters for algorithms (like the paper's) whose steady-state
//! messages are a couple of flag bits.

use crate::WireError;

/// A message that can be serialized to and from bytes.
///
/// Implementations must round-trip: `decode(encode(m)) == m`. The simulator
/// checks this in [`MeterMode::Strict`](crate::MeterMode::Strict) runs by
/// actually delivering the decoded bytes.
pub trait Wire: Sized {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one message from the front of `buf`, consuming its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the buffer is truncated or contains an
    /// invalid encoding.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// Size of the encoding in bits.
    fn encoded_bits(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len() * 8
    }
}

/// Asserts the full [`Wire`] conformance contract for one message value —
/// the same contract [`MeterMode::Strict`](crate::MeterMode::Strict) runs
/// enforce on live traffic, checkable in isolation:
///
/// 1. `decode(encode(m)) == m`, consuming the encoding exactly;
/// 2. [`Wire::encoded_bits`] agrees with the actual encoding length;
/// 3. the encoding is *prefix-free for truncation*: decoding any strict
///    prefix of it fails (so a truncated network buffer can never be
///    silently mis-read as a complete message).
///
/// All message types in this workspace (varint/tag-based codecs) satisfy
/// property 3; a codec with valid encodings that are prefixes of other
/// valid encodings should not be checked with this helper.
///
/// # Panics
///
/// Panics, with a message naming the violated property, if any check
/// fails.
pub fn assert_wire_conformance<M: Wire + PartialEq + std::fmt::Debug>(msg: &M) {
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    assert_eq!(
        msg.encoded_bits(),
        buf.len() * 8,
        "encoded_bits disagrees with encode() length for {msg:?}"
    );
    let mut slice = &buf[..];
    let decoded = M::decode(&mut slice).unwrap_or_else(|e| {
        panic!("decode failed on a fresh encoding of {msg:?}: {e}");
    });
    assert!(
        slice.is_empty(),
        "decode left {} trailing bytes for {msg:?}",
        slice.len()
    );
    assert_eq!(&decoded, msg, "round-trip changed the message");
    for cut in 0..buf.len() {
        let mut prefix = &buf[..cut];
        assert!(
            M::decode(&mut prefix).is_err(),
            "decoding the {cut}-byte prefix of {msg:?} ({} bytes) succeeded",
            buf.len()
        );
    }
}

/// Writes a LEB128-style unsigned varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128-style unsigned varint.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if the buffer ends mid-varint and
/// [`WireError::Invalid`] if the varint exceeds 10 bytes.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        *buf = rest;
        if shift >= 64 {
            return Err(WireError::Invalid("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Writes a `bool` as one byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Reads a `bool` written by [`put_bool`].
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on an empty buffer and
/// [`WireError::Invalid`] for bytes other than 0/1.
pub fn get_bool(buf: &mut &[u8]) -> Result<bool, WireError> {
    let (&byte, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Invalid("bool byte must be 0 or 1")),
    }
}

/// Writes a `u32` as a varint.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    put_uvarint(buf, u64::from(v));
}

/// Reads a `u32` written by [`put_u32`].
///
/// # Errors
///
/// Propagates varint errors; additionally rejects values above `u32::MAX`.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    let v = get_uvarint(buf)?;
    u32::try_from(v).map_err(|_| WireError::Invalid("u32 out of range"))
}

/// Writes a `u64` as a varint.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    put_uvarint(buf, v);
}

/// Reads a `u64` written by [`put_u64`].
///
/// # Errors
///
/// Propagates varint errors.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    get_uvarint(buf)
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bool(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_bool(buf)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_u32(buf)
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_u64(buf)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => put_bool(buf, false),
            Some(v) => {
                put_bool(buf, true);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        if get_bool(buf)? {
            Ok(Some(T::decode(buf)?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        // The public conformance helper covers round-trip, exact
        // consumption, encoded_bits agreement, and truncation safety.
        assert_wire_conformance(&v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        for v in [0u32, 1, 127, 128, 300, u32::MAX] {
            roundtrip(v);
        }
        for v in [0u64, 1, u64::from(u32::MAX) + 1, u64::MAX] {
            roundtrip(v);
        }
        roundtrip((7u32, true));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(99u64));
    }

    #[test]
    fn varint_is_compact() {
        assert_eq!(5u32.encoded_bits(), 8);
        assert_eq!(127u32.encoded_bits(), 8);
        assert_eq!(128u32.encoded_bits(), 16);
        assert_eq!(u64::MAX.encoded_bits(), 80);
        assert_eq!(true.encoded_bits(), 8);
        assert_eq!(().encoded_bits(), 0);
    }

    #[test]
    fn truncated_errors() {
        let empty: &[u8] = &[];
        assert!(matches!(
            get_bool(&mut { empty }),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            get_uvarint(&mut { empty }),
            Err(WireError::Truncated)
        ));
        let cut: &[u8] = &[0x80]; // continuation bit with no next byte
        assert!(matches!(
            get_uvarint(&mut { cut }),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        let bad: &[u8] = &[7];
        assert!(matches!(get_bool(&mut { bad }), Err(WireError::Invalid(_))));
    }

    #[test]
    fn varint_overflow_rejected() {
        let bad: &[u8] = &[0xff; 11];
        assert!(matches!(
            get_uvarint(&mut { bad }),
            Err(WireError::Invalid(_))
        ));
    }

    proptest::proptest! {
        #[test]
        fn uvarint_roundtrip_prop(v: u64) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut slice = &buf[..];
            proptest::prop_assert_eq!(get_uvarint(&mut slice).unwrap(), v);
            proptest::prop_assert!(slice.is_empty());
        }

        #[test]
        fn pair_roundtrip_prop(a: u32, b: u64) {
            let mut buf = Vec::new();
            (a, b).encode(&mut buf);
            let mut slice = &buf[..];
            proptest::prop_assert_eq!(<(u32, u64)>::decode(&mut slice).unwrap(), (a, b));
        }
    }
}
