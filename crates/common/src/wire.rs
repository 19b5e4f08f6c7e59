//! The workspace's one binary encoding, for TCP frames and WAL records.
//!
//! A value is its fields in declaration order, with no padding and no
//! field names: fixed-width integers little-endian, `bool` one byte
//! (0 or 1), a sequence a `u32` element count followed by its elements,
//! an `Option` a 0/1 tag byte followed by the value when present, an
//! enum one tag byte (its variant's position) followed by the variant's
//! fields. A `Vec<u8>` is its length and one copy of its bytes.
//!
//! Decoding faces a peer's bytes and a torn log tail, so it never panics
//! and never allocates on trust: every length is checked against the
//! bytes that remain before anything is reserved for it, and an
//! out-of-range tag, a non-0/1 boolean or invalid UTF-8 is an error.
//! [`impl_wire!`](crate::impl_wire) writes the impls of plain structs
//! and enums; a type with a rule beyond its field types (a page image)
//! checks it in its own `get`.

use std::fmt;

/// Version of the encoding as a whole. Peers exchange it when they
/// connect and refuse a peer that speaks another one; any change to a
/// [`Wire`] impl's bytes (a reordered field or variant, a new variant in
/// the middle of an enum) or to the log frame around them (its
/// checksum) must bump it.
pub const WIRE_VERSION: u8 = 4;

/// Why a byte string did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended inside a value, or a length prefix claims more
    /// than the bytes that remain.
    Truncated,
    /// A tag byte names no variant of the type.
    Tag {
        /// The type being decoded.
        ty: &'static str,
        /// The tag read.
        tag: u8,
    },
    /// The value decoded but breaks a rule of its type.
    Invalid(&'static str),
    /// Bytes were left over after a complete value.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input ends inside a value"),
            WireError::Tag { ty, tag } => write!(f, "tag {tag} names no {ty}"),
            WireError::Invalid(why) => write!(f, "invalid value: {why}"),
            WireError::Trailing(n) => write!(f, "{n} bytes left after the value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a binary encoding.
///
/// Every value must encode to at least one byte: a sequence's element
/// count is refused when it exceeds the bytes that remain.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input` and advances past it.
    ///
    /// # Errors
    ///
    /// [`WireError`] if the bytes are not a value of this type; `input`
    /// is then left somewhere inside the value.
    fn get(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Appends the elements of a sequence (not its length). The default
    /// puts each; `u8` copies the slice at once.
    fn put_seq(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.put(out);
        }
    }

    /// Decodes `n` elements of a sequence whose length was checked
    /// against the input. The default gets each; `u8` copies at once.
    ///
    /// # Errors
    ///
    /// As [`Wire::get`].
    fn get_seq(input: &mut &[u8], n: usize) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(Self::get(input)?);
        }
        Ok(items)
    }
}

/// Splits the first `n` bytes off `input`.
///
/// # Errors
///
/// [`WireError::Truncated`] if fewer than `n` remain.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if n > input.len() {
        return Err(WireError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// Decodes a value that must fill `bytes` exactly.
///
/// # Errors
///
/// [`WireError`] from the value's decoder, or
/// [`WireError::Trailing`] if bytes are left after it.
pub fn decode<T: Wire>(mut bytes: &[u8]) -> Result<T, WireError> {
    let value = T::get(&mut bytes)?;
    match bytes.len() {
        0 => Ok(value),
        n => Err(WireError::Trailing(n)),
    }
}

/// Writes a byte string as a `Vec<u8>` is written: its length, then
/// its bytes.
pub fn put_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    put_len(bytes.len(), out);
    out.extend_from_slice(bytes);
}

/// Reads a byte string [`put_bytes`] wrote, borrowing it from `input`.
///
/// # Errors
///
/// [`WireError::Truncated`] if fewer bytes remain than its length says.
pub fn get_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let n = get_len(input)?;
    take(input, n)
}

/// Writes a sequence's element count.
///
/// # Panics
///
/// Panics on a sequence of 2³² elements or more, which no frame or log
/// record can hold.
fn put_len(n: usize, out: &mut Vec<u8>) {
    u32::try_from(n)
        .expect("a sequence of fewer than 2^32 elements")
        .put(out);
}

/// Reads a sequence's element count and checks it against the bytes
/// that remain, at least one per element.
fn get_len(input: &mut &[u8]) -> Result<usize, WireError> {
    let n = u32::get(input)? as usize;
    if n > input.len() {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                let mut le = [0u8; std::mem::size_of::<$t>()];
                le.copy_from_slice(bytes);
                Ok(<$t>::from_le_bytes(le))
            }
        }
    )*};
}
int_wire!(u16, u32, u64);

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        let (&b, rest) = input.split_first().ok_or(WireError::Truncated)?;
        *input = rest;
        Ok(b)
    }

    fn put_seq(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn get_seq(input: &mut &[u8], n: usize) -> Result<Vec<Self>, WireError> {
        take(input, n).map(<[u8]>::to_vec)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(input)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::Tag { ty: "bool", tag }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        T::put_seq(self, out);
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        let n = get_len(input)?;
        T::get_seq(input, n)
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        let n = get_len(input)?;
        let bytes = take(input, n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::Invalid("a string that is not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::get(input)? {
            0 => Ok(None),
            1 => T::get(input).map(Some),
            tag => Err(WireError::Tag { ty: "Option", tag }),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }

    fn get(input: &mut &[u8]) -> Result<Self, WireError> {
        T::get(input).map(Box::new)
    }
}

macro_rules! tuple_wire {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$n.put(out);)+
            }

            fn get(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($t::get(input)?,)+))
            }
        }
    )+};
}
tuple_wire!((0 A, 1 B), (0 A, 1 B, 2 C));

/// Implements [`Wire`] for a struct or an enum by listing its fields.
///
/// ```text
/// impl_wire!(struct VolId { 0 });                  // tuple struct: field positions
/// impl_wire!(struct FileId { vol, file });         // named fields, in wire order
/// impl_wire!(enum LockableId { Volume(v), File(f), Page(p), Object(o) });
/// impl_wire!(enum Tier { Strict, Bounded { ttl } });
/// ```
///
/// A struct is its fields in the order listed. An enum is one tag byte,
/// the variant's position in the list, then the variant's fields; the
/// list must name every variant (the generated `match` has no wildcard)
/// and at most 256 of them.
#[macro_export]
macro_rules! impl_wire {
    (struct $ty:ident { $($f:tt),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$f, out);)+
            }

            fn get(input: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                Ok($ty { $($f: $crate::wire::Wire::get(input)?),+ })
            }
        }
    };
    (enum $ty:ident {
        $($v:ident $(( $($t:ident),+ ))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                enum Tag { $($v),+ }
                match self {
                    $($ty::$v $(( $($t),+ ))? $({ $($f),+ })? => {
                        out.push(Tag::$v as u8);
                        $($($crate::wire::Wire::put($t, out);)+)?
                        $($($crate::wire::Wire::put($f, out);)+)?
                    })+
                }
            }

            fn get(input: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                enum Tag { $($v),+ }
                const TAGS: &[Tag] = &[$(Tag::$v),+];
                const _: () = assert!(TAGS.len() <= 256, "a tag is one byte");
                let tag = <u8 as $crate::wire::Wire>::get(input)?;
                match TAGS.get(usize::from(tag)) {
                    $(Some(Tag::$v) => Ok($ty::$v
                        $(( $({
                            let $t = $crate::wire::Wire::get(input)?;
                            $t
                        }),+ ))?
                        $({ $($f: $crate::wire::Wire::get(input)?),+ })?
                    ),)+
                    None => Err($crate::wire::WireError::Tag { ty: stringify!($ty), tag }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of<T: Wire>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.put(&mut out);
        out
    }

    #[test]
    fn integers_are_little_endian_and_fixed_width() {
        assert_eq!(bytes_of(&0x0102u16), [2, 1]);
        assert_eq!(bytes_of(&0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(bytes_of(&1u64), [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode::<u64>(&bytes_of(&u64::MAX)), Ok(u64::MAX));
    }

    #[test]
    fn byte_vectors_are_a_length_and_the_bytes() {
        let v = vec![0xaau8, 0xbb, 0xcc];
        assert_eq!(bytes_of(&v), [3, 0, 0, 0, 0xaa, 0xbb, 0xcc]);
        assert_eq!(decode::<Vec<u8>>(&bytes_of(&v)), Ok(v));
    }

    #[test]
    fn composites_round_trip() {
        let v: Vec<(u32, Option<bool>, String)> =
            vec![(1, None, String::new()), (2, Some(true), "två".to_string())];
        assert_eq!(decode(&bytes_of(&v)), Ok(v));
        let b: Box<(u16, u8, u64)> = Box::new((7, 8, 9));
        assert_eq!(decode(&bytes_of(&b)), Ok(b));
    }

    #[test]
    fn lengths_are_checked_before_allocating() {
        // Four billion elements claimed, four bytes present.
        let claim = [0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4];
        assert_eq!(decode::<Vec<u8>>(&claim), Err(WireError::Truncated));
        assert_eq!(decode::<Vec<u64>>(&claim), Err(WireError::Truncated));
        assert_eq!(decode::<String>(&claim), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert_eq!(decode::<u32>(&[1, 2, 3]), Err(WireError::Truncated));
        assert_eq!(
            decode::<bool>(&[2]),
            Err(WireError::Tag { ty: "bool", tag: 2 })
        );
        assert_eq!(
            decode::<Option<u8>>(&[9, 0]),
            Err(WireError::Tag {
                ty: "Option",
                tag: 9
            })
        );
        assert!(matches!(
            decode::<String>(&[2, 0, 0, 0, 0xc3, 0x28]),
            Err(WireError::Invalid(_))
        ));
        assert_eq!(decode::<u8>(&[1, 2]), Err(WireError::Trailing(1)));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Circle(u32),
        Rect { w: u16, h: u16 },
    }
    crate::impl_wire!(enum Shape { Dot, Circle(r), Rect { w, h } });

    #[derive(Debug, PartialEq)]
    struct Pair(u8, u16);
    crate::impl_wire!(struct Pair { 0, 1 });

    #[test]
    fn derived_enums_tag_by_position() {
        assert_eq!(bytes_of(&Shape::Dot), [0]);
        assert_eq!(bytes_of(&Shape::Circle(5)), [1, 5, 0, 0, 0]);
        assert_eq!(bytes_of(&Shape::Rect { w: 1, h: 2 }), [2, 1, 0, 2, 0]);
        for s in [Shape::Dot, Shape::Circle(9), Shape::Rect { w: 3, h: 4 }] {
            assert_eq!(decode(&bytes_of(&s)), Ok(s));
        }
        assert_eq!(
            decode::<Shape>(&[3]),
            Err(WireError::Tag {
                ty: "Shape",
                tag: 3
            })
        );
        assert_eq!(bytes_of(&Pair(1, 2)), [1, 2, 0]);
        assert_eq!(decode(&[1, 2, 0]), Ok(Pair(1, 2)));
    }
}
