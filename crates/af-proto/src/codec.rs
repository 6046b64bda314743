//! The codec the protocol tables generate: field kinds and the sequencer.
//!
//! A table row ([`crate::spec`]) lists a message's fields with their
//! *kinds* and the pads between them.  A [`Kind`] is how one field type
//! goes on the wire: its exact length, its encoding and its decoding.
//! `messages!` turns rows into an enum, one walk over each variant's fields
//! in wire order and one decoder per row; the walk drives every
//! [`Visit`]or — the encoder ([`WireWriter`]), the exact length (`usize`),
//! the check that every count fits its width (`Result`) and, in tests, the
//! layout the mutation tests read.
//!
//! Decoding keeps three rules.  A pad is skipped only before a field, so
//! trailing pads (a frame's padding to a word) are never read.  A u32 count
//! larger than what remains is [`ProtoError::BadLength`]; a shorter count
//! that runs past the payload is [`ProtoError::Truncated`].  Trailing bytes
//! are ignored.

use crate::ac::{AcAttributes, AcMask};
use crate::atoms::Atom;
use crate::error::ProtoError;
use crate::event::EventMask;
use crate::request::PropertyMode;
use crate::wire::{pad4, WireReader, WireWriter};
use af_dsp::Encoding;
use af_time::ATime;
use std::marker::PhantomData;
use std::mem::size_of;

/// How one field type goes on the wire.
pub(crate) trait Kind {
    /// The field's type in the message enum.
    type Value;
    /// Bytes the value takes on the wire.
    fn len(v: &Self::Value) -> usize;
    /// Appends the value.
    fn put(v: &Self::Value, w: &mut WireWriter);
    /// Reads a value.
    fn get(r: &mut WireReader<'_>) -> Result<Self::Value, ProtoError>;
    /// Whether every count inside the value fits its width: `put` panics
    /// where this is `Err`.
    fn check(_v: &Self::Value) -> Result<(), ProtoError> {
        Ok(())
    }
    /// A random value, for the generated samples and strategies.
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> Self::Value;
    /// The counts inside a value written at `at`: what the mutation tests
    /// lie about.
    #[cfg(test)]
    fn counts(_v: &Self::Value, _at: usize, _out: &mut Vec<tests::CountAt>) {}
}

macro_rules! number {
    ($($t:ident),*) => {$(
        impl Kind for $t {
            type Value = $t;
            fn len(_: &$t) -> usize {
                size_of::<$t>()
            }
            fn put(v: &$t, w: &mut WireWriter) {
                w.$t(*v);
            }
            fn get(r: &mut WireReader<'_>) -> Result<$t, ProtoError> {
                r.$t()
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

number!(u8, u16, u32, i16, i32);

/// A 32-bit word wrapped in a protocol type.
macro_rules! word {
    ($($t:ident: $from:expr, $to:expr;)*) => {$(
        impl Kind for $t {
            type Value = $t;
            fn len(_: &$t) -> usize {
                4
            }
            fn put(v: &$t, w: &mut WireWriter) {
                w.u32($to(*v));
            }
            fn get(r: &mut WireReader<'_>) -> Result<$t, ProtoError> {
                r.u32().map($from)
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> $t {
                $from(rng.next_u64() as u32)
            }
        }
    )*};
}

word! {
    ATime: ATime::new, ATime::ticks;
    Atom: Atom, |a: Atom| a.0;
    EventMask: EventMask, |m: EventMask| m.0;
    AcMask: AcMask, |m: AcMask| m.0;
}

/// One byte, nonzero for `true`.
impl Kind for bool {
    type Value = bool;
    fn len(_: &bool) -> usize {
        1
    }
    fn put(v: &bool, w: &mut WireWriter) {
        w.u8(u8::from(*v));
    }
    fn get(r: &mut WireReader<'_>) -> Result<bool, ProtoError> {
        Ok(r.u8()? != 0)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// One byte, validated.
impl Kind for PropertyMode {
    type Value = PropertyMode;
    fn len(_: &PropertyMode) -> usize {
        1
    }
    fn put(v: &PropertyMode, w: &mut WireWriter) {
        w.u8(*v as u8);
    }
    fn get(r: &mut WireReader<'_>) -> Result<PropertyMode, ProtoError> {
        match r.u8()? {
            0 => Ok(PropertyMode::Replace),
            1 => Ok(PropertyMode::Prepend),
            2 => Ok(PropertyMode::Append),
            other => Err(ProtoError::BadEnum {
                field: "property mode",
                value: u32::from(other),
            }),
        }
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> PropertyMode {
        [
            PropertyMode::Replace,
            PropertyMode::Prepend,
            PropertyMode::Append,
        ][rng.below(3) as usize]
    }
}

/// Two gains, then one byte each for preemption, the encoding (validated
/// as soon as it is read), the channels and the data's byte order.
impl Kind for AcAttributes {
    type Value = AcAttributes;
    fn len(_: &AcAttributes) -> usize {
        8
    }
    fn put(v: &AcAttributes, w: &mut WireWriter) {
        w.i16(v.play_gain_db).i16(v.record_gain_db);
        w.u8(u8::from(v.preempt))
            .u8(v.encoding.to_wire())
            .u8(v.channels)
            .u8(u8::from(v.big_endian_data));
    }
    fn get(r: &mut WireReader<'_>) -> Result<AcAttributes, ProtoError> {
        let play_gain_db = r.i16()?;
        let record_gain_db = r.i16()?;
        let preempt = r.u8()? != 0;
        let wire = r.u8()?;
        let encoding = Encoding::from_wire(wire).ok_or(ProtoError::BadEnum {
            field: "ac encoding",
            value: u32::from(wire),
        })?;
        Ok(AcAttributes {
            play_gain_db,
            record_gain_db,
            preempt,
            encoding,
            channels: r.u8()?,
            big_endian_data: r.u8()? != 0,
        })
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> AcAttributes {
        AcAttributes {
            play_gain_db: i16::arbitrary(rng),
            record_gain_db: i16::arbitrary(rng),
            preempt: bool::arbitrary(rng),
            encoding: Encoding::ALL[rng.below(Encoding::ALL.len() as u64) as usize],
            channels: u8::arbitrary(rng),
            big_endian_data: bool::arbitrary(rng),
        }
    }
}

/// A u16 count, the UTF-8 bytes, zeros to the next word.  Strings start on
/// a word boundary, so the padding depends on the length alone.
impl Kind for String {
    type Value = String;
    fn len(v: &String) -> usize {
        pad4(2 + v.len())
    }
    fn put(v: &String, w: &mut WireWriter) {
        w.string(v);
    }
    fn get(r: &mut WireReader<'_>) -> Result<String, ProtoError> {
        r.string()
    }
    fn check(v: &String) -> Result<(), ProtoError> {
        count::<u16>(v.len()).map(drop)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> String {
        let len = tests::arbitrary_len::<u16>(rng);
        (0..len)
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect()
    }
    #[cfg(test)]
    fn counts(v: &String, at: usize, out: &mut Vec<tests::CountAt>) {
        out.push(tests::CountAt::new::<u16>(at, v.len()));
    }
}

/// The width of the count in front of counted bytes and lists.
pub(crate) trait Count: Kind<Value = Self> + TryFrom<usize> + Into<u32> {}

impl Count for u8 {}
impl Count for u16 {}
impl Count for u32 {}

/// `n` as a `C`; a count that would wrap is `BadLength(n)`.
fn count<C: Count>(n: usize) -> Result<C, ProtoError> {
    C::try_from(n).map_err(|_| ProtoError::BadLength(n))
}

/// Writes `n` as a `C`.
///
/// # Panics
///
/// Panics if `n` does not fit a `C`: the count would wrap.
fn put_count<C: Count>(n: usize, w: &mut WireWriter) {
    C::put(&count::<C>(n).expect("a count does not fit its width"), w);
}

/// Reads a `C` count; a u32 count past the bytes that remain is
/// `BadLength`.
fn get_count<C: Count>(r: &mut WireReader<'_>) -> Result<usize, ProtoError> {
    let n = C::get(r)?.into() as usize;
    if size_of::<C>() == 4 && n > r.remaining() {
        return Err(ProtoError::BadLength(n));
    }
    Ok(n)
}

/// Bytes counted by a `C`, with `PAD` zeros between the count and the
/// bytes.
pub(crate) struct Bytes<C, const PAD: usize = 0>(PhantomData<C>);

impl<C: Count, const PAD: usize> Kind for Bytes<C, PAD> {
    type Value = Vec<u8>;
    fn len(v: &Vec<u8>) -> usize {
        size_of::<C>() + PAD + v.len()
    }
    fn put(v: &Vec<u8>, w: &mut WireWriter) {
        put_count::<C>(v.len(), w);
        w.pad(PAD).bytes(v);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Vec<u8>, ProtoError> {
        let n = get_count::<C>(r)?;
        r.skip(PAD)?;
        Ok(r.bytes(n)?.to_vec())
    }
    fn check(v: &Vec<u8>) -> Result<(), ProtoError> {
        count::<C>(v.len()).map(drop)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> Vec<u8> {
        let len = tests::arbitrary_len::<C>(rng);
        (0..len).map(|_| u8::arbitrary(rng)).collect()
    }
    #[cfg(test)]
    fn counts(v: &Vec<u8>, at: usize, out: &mut Vec<tests::CountAt>) {
        out.push(tests::CountAt::new::<C>(at, v.len()));
    }
}

/// `K`s counted by a `C`, with `PAD` zeros between the count and the
/// first one.
pub(crate) struct List<C, K, const PAD: usize = 0>(PhantomData<(C, K)>);

impl<C: Count, K: Kind, const PAD: usize> Kind for List<C, K, PAD> {
    type Value = Vec<K::Value>;
    fn len(v: &Vec<K::Value>) -> usize {
        size_of::<C>() + PAD + v.iter().map(K::len).sum::<usize>()
    }
    fn put(v: &Vec<K::Value>, w: &mut WireWriter) {
        put_count::<C>(v.len(), w);
        w.pad(PAD);
        for x in v {
            K::put(x, w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Vec<K::Value>, ProtoError> {
        let n = get_count::<C>(r)?;
        r.skip(PAD)?;
        (0..n).map(|_| K::get(r)).collect()
    }
    fn check(v: &Vec<K::Value>) -> Result<(), ProtoError> {
        count::<C>(v.len())?;
        v.iter().try_for_each(K::check)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut proptest::test_runner::TestRng) -> Vec<K::Value> {
        let len = tests::arbitrary_len::<C>(rng);
        (0..len).map(|_| K::arbitrary(rng)).collect()
    }
    #[cfg(test)]
    fn counts(v: &Vec<K::Value>, at: usize, out: &mut Vec<tests::CountAt>) {
        out.push(tests::CountAt::new::<C>(at, v.len()));
        let mut at = at + size_of::<C>() + PAD;
        for x in v {
            K::counts(x, at, out);
            at += K::len(x);
        }
    }
}

/// A field's value tagged with its kind, as a generated walk hands it over.
pub(crate) struct Field<'a, K: Kind>(pub(crate) &'a K::Value);

/// What a walk over a message's fields drives.
pub(crate) trait Visit {
    /// `n` zero bytes.
    fn pad(&mut self, n: usize);
    /// One field.
    fn field<K: Kind>(&mut self, f: Field<'_, K>);
}

/// Encoding.
impl Visit for WireWriter {
    fn pad(&mut self, n: usize) {
        WireWriter::pad(self, n);
    }
    fn field<K: Kind>(&mut self, f: Field<'_, K>) {
        K::put(f.0, self);
    }
}

/// The exact length.
impl Visit for usize {
    fn pad(&mut self, n: usize) {
        *self += n;
    }
    fn field<K: Kind>(&mut self, f: Field<'_, K>) {
        *self += K::len(f.0);
    }
}

/// Whether every count fits its width: the first that does not.
impl Visit for Result<(), ProtoError> {
    fn pad(&mut self, _: usize) {}
    fn field<K: Kind>(&mut self, f: Field<'_, K>) {
        if self.is_ok() {
            *self = K::check(f.0);
        }
    }
}

/// A row field's kind: its type, unless the row names another.
macro_rules! kind_of {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $kind:ty) => {
        $kind
    };
}

/// One layout item of a row: a pad (a number) or a field (a name).  In a
/// walk the name is bound to the field's [`Field`]; in a decoder, to its
/// kind's `get`, and then to the value it read.
macro_rules! step {
    (walk $v:ident, $pad:literal) => {
        $v.pad($pad);
    };
    (walk $v:ident, $field:ident) => {
        $v.field($field);
    };
    (read $r:ident, $pad:literal) => {
        $r.skip($pad)?;
    };
    (read $r:ident, $field:ident) => {
        let $field = $field(&mut $r)?;
    };
}

/// Generates a message enum from table rows: `(Name, wire, doc)` for a
/// unit variant, `(Name, wire, doc, [layout] { fields })` for the rest.
/// A field is `name: Type`, or `name: Type as Kind` when the type alone
/// does not say how it goes on the wire; the layout lists the field names
/// and the pads between them in wire order.  The enum gets `wire`, its
/// row's wire value; `walk`, the fields in wire order into a [`Visit`];
/// and `read`, the decoder of the row whose wire value is given (`unknown`
/// makes the error for any other value).
macro_rules! messages {
    ($(#[$meta:meta])* $enum:ident, $unknown:expr;
     $(($name:ident, $wire:literal, $doc:literal $(, [$($item:tt),*] {
        $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty $(as $kind:ty)?),* $(,)?
     })?)),* $(,)?) => {
        $(#[$meta])*
        pub enum $enum {
            $(#[doc = $doc] $name $({ $($(#[doc = $fdoc])* $field: $ty,)* })?,)*
        }

        impl $enum {
            /// The row's wire value: a request's opcode byte, a reply's tag
            /// (its header's detail byte).
            pub fn wire(&self) -> u8 {
                match self {
                    $($enum::$name { .. } => $wire,)*
                }
            }

            /// Checks that every counted field fits its count, which
            /// encoding assumes: a string, list or bytes too long for the
            /// count in front of it is `BadLength` with its length.
            pub fn check_counts(&self) -> Result<(), $crate::error::ProtoError> {
                let mut fits = Ok(());
                self.walk(&mut fits);
                fits
            }

            /// Walks the fields and the pads between them in wire order.
            pub(crate) fn walk(&self, v: &mut impl $crate::codec::Visit) {
                use $crate::codec::{kind_of, step, Field};
                match self {
                    $($enum::$name $({ $($field),* })? => {
                        $(
                            $(let $field = Field::<kind_of!($ty $(, $kind)?)>($field);)*
                            $(step!(walk v, $item);)*
                        )?
                    })*
                }
            }

            /// Decodes the payload of the row whose wire value is `wire`.
            fn read(
                wire: u8,
                mut r: $crate::wire::WireReader<'_>,
            ) -> Result<$enum, $crate::error::ProtoError> {
                use $crate::codec::{kind_of, step, Kind};
                Ok(match wire {
                    $($wire => {
                        $(
                            $(let $field = <kind_of!($ty $(, $kind)?) as Kind>::get;)*
                            $(step!(read r, $item);)*
                        )?
                        $enum::$name $({ $($field),* })?
                    })*
                    other => return Err($unknown(other)),
                })
            }

            /// One generator of random values per row, in table order.
            #[cfg(test)]
            #[allow(unused_variables)]
            pub(crate) fn generators() -> Vec<fn(&mut proptest::test_runner::TestRng) -> $enum> {
                use $crate::codec::{kind_of, Kind};
                vec![$(|rng| $enum::$name $({ $($field:
                    <kind_of!($ty $(, $kind)?) as Kind>::arbitrary(rng)),* })?,)*]
            }
        }
    };
}

pub(crate) use {kind_of, messages, step};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::message::{MessageHeader, MessageKind};
    use crate::wire::ByteOrder;
    use crate::{Opcode, Reply, Request};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A count on the wire: where, how wide, and what it truly counts.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct CountAt {
        at: usize,
        width: usize,
        value: usize,
    }

    impl CountAt {
        pub(crate) fn new<C: Count>(at: usize, value: usize) -> CountAt {
            CountAt {
                at,
                width: size_of::<C>(),
                value,
            }
        }

        /// The payload with this count replaced by `n`, truncated to its
        /// width.
        fn lie(&self, order: ByteOrder, payload: &[u8], n: u64) -> Vec<u8> {
            let mut out = payload.to_vec();
            let bytes = match order {
                ByteOrder::Little => n.to_le_bytes()[..self.width].to_vec(),
                ByteOrder::Big => n.to_be_bytes()[8 - self.width..].to_vec(),
            };
            out[self.at..self.at + self.width].copy_from_slice(&bytes);
            out
        }
    }

    /// Where a walk's fields end and its counts lie, from payload offset 0.
    #[derive(Default)]
    struct Layout {
        at: usize,
        bounds: Vec<usize>,
        counts: Vec<CountAt>,
    }

    impl Visit for Layout {
        fn pad(&mut self, n: usize) {
            self.at += n;
            self.bounds.push(self.at);
        }
        fn field<K: Kind>(&mut self, f: Field<'_, K>) {
            K::counts(f.0, self.at, &mut self.counts);
            self.at += K::len(f.0);
            self.bounds.push(self.at);
        }
    }

    /// A message of either direction as the mutation tests need it.
    trait Message: Sized + std::fmt::Debug {
        fn layout(&self) -> Layout;
        /// The framed bytes and the length of the header before the payload.
        fn frame(&self, order: ByteOrder) -> (Vec<u8>, usize);
        /// Decodes a payload with the frame's header.
        fn decode(order: ByteOrder, header: &[u8], payload: &[u8]) -> Result<Self, ProtoError>;
    }

    impl Message for Request {
        fn layout(&self) -> Layout {
            let mut l = Layout::default();
            self.walk(&mut l);
            l
        }
        fn frame(&self, order: ByteOrder) -> (Vec<u8>, usize) {
            (self.encode(order), 4)
        }
        fn decode(order: ByteOrder, header: &[u8], payload: &[u8]) -> Result<Self, ProtoError> {
            Request::decode(order, Opcode::from_wire(header[2])?, payload)
        }
    }

    impl Message for Reply {
        fn layout(&self) -> Layout {
            let mut l = Layout::default();
            self.walk(&mut l);
            l
        }
        fn frame(&self, order: ByteOrder) -> (Vec<u8>, usize) {
            (self.encode(order, 1), MessageHeader::SIZE)
        }
        fn decode(order: ByteOrder, header: &[u8], payload: &[u8]) -> Result<Self, ProtoError> {
            let header = MessageHeader::decode(order, header)?;
            assert_eq!(header.kind, MessageKind::Reply);
            Reply::decode(order, &header, payload)
        }
    }

    /// A generated strategy: a random row, then random field values.
    struct Rows<T>(Vec<fn(&mut TestRng) -> T>);

    impl<T> Strategy for Rows<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize](rng)
        }
    }

    /// A random length for a counted field: up to 512, past a count's low
    /// byte, unless a `C` cannot say that much.
    pub(crate) fn arbitrary_len<C: Count>(rng: &mut TestRng) -> usize {
        let max = (1u64 << (8 * size_of::<C>())) - 1;
        rng.below(max.min(512) + 1) as usize
    }

    fn orders() -> impl Strategy<Value = ByteOrder> {
        prop_oneof![Just(ByteOrder::Little), Just(ByteOrder::Big)]
    }

    /// One sample of every row, from a fixed seed.
    pub(crate) fn samples<T>(generators: Vec<fn(&mut TestRng) -> T>) -> Vec<T> {
        let mut rng = TestRng::for_test("samples");
        generators.into_iter().map(|g| g(&mut rng)).collect()
    }

    /// Decodes `payload` and checks what the decoders promise of any
    /// input: a decoding error of the expected sorts, or a message whose
    /// fields and counts fit in the payload.
    fn check_decode<M: Message>(order: ByteOrder, header: &[u8], payload: &[u8]) {
        match M::decode(order, header, payload) {
            Ok(m) => {
                let layout = m.layout();
                assert!(
                    layout.at <= pad4(payload.len()),
                    "{m:?} from {payload:02x?}"
                );
                for c in layout.counts {
                    assert!(c.value <= payload.len(), "{c:?} in {m:?}");
                }
            }
            Err(
                ProtoError::Truncated { .. }
                | ProtoError::BadLength(_)
                | ProtoError::BadEnum { .. }
                | ProtoError::BadString,
            ) => {}
            Err(other) => panic!("unexpected {other:?} from {payload:02x?}"),
        }
    }

    /// Truncation at every field boundary, each count at 0, one past its
    /// true value and its width's maximum, and the other byte order.
    fn mutate<M: Message>(m: &M, order: ByteOrder) {
        let (frame, head) = m.frame(order);
        let (header, payload) = frame.split_at(head);
        let layout = m.layout();
        for &b in [0]
            .iter()
            .chain(&layout.bounds)
            .filter(|&&b| b < payload.len())
        {
            check_decode::<M>(order, header, &payload[..b]);
        }
        for c in &layout.counts {
            let max = (1u64 << (8 * c.width)) - 1;
            for n in [0, c.value as u64 + 1, max] {
                check_decode::<M>(order, header, &c.lie(order, payload, n));
            }
        }
        let other = match order {
            ByteOrder::Little => ByteOrder::Big,
            ByteOrder::Big => ByteOrder::Little,
        };
        check_decode::<M>(other, header, payload);
    }

    const CASES: u32 = if cfg!(miri) { 8 } else { 512 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn lying_requests_decode_to_errors_or_fitting_messages(
            req in Rows(Request::generators()),
            order in orders(),
        ) {
            mutate(&req, order);
        }

        #[test]
        fn lying_replies_decode_to_errors_or_fitting_messages(
            reply in Rows(Reply::generators()),
            order in orders(),
        ) {
            mutate(&reply, order);
        }

        #[test]
        fn requests_round_trip(req in Rows(Request::generators()), order in orders()) {
            let bytes = req.encode(order);
            prop_assert_eq!(bytes.len(), req.encoded_len(order));
            let header: [u8; 4] = bytes[..4].try_into().unwrap();
            let (opcode, payload_len) = Request::parse_header(order, &header).unwrap();
            prop_assert_eq!(opcode, req.opcode());
            prop_assert_eq!(payload_len, bytes.len() - 4);
            prop_assert_eq!(Request::decode(order, opcode, &bytes[4..]).unwrap(), req);
        }

        #[test]
        fn replies_round_trip(reply in Rows(Reply::generators()), order in orders(), seq in any::<u16>()) {
            let bytes = reply.encode(order, seq);
            let header = MessageHeader::decode(order, &bytes[..8]).unwrap();
            prop_assert_eq!((header.kind, header.sequence), (MessageKind::Reply, seq));
            prop_assert_eq!(header.payload_len(), bytes.len() - 8);
            prop_assert_eq!(Reply::decode(order, &header, &bytes[8..]).unwrap(), reply);
        }
    }

    /// `check_counts` refuses exactly the lengths a count cannot say, at
    /// any depth (`request.rs` tests that encoding them panics).
    #[test]
    fn check_counts_refuses_what_a_count_cannot_say() {
        fn limit(max: usize, check: impl Fn(usize) -> Result<(), ProtoError>) {
            assert_eq!(check(max), Ok(()));
            assert_eq!(check(max + 1), Err(ProtoError::BadLength(max + 1)));
        }
        limit(255, |n| {
            let hosts = vec![vec![1; 4], vec![1; n]];
            Reply::Hosts {
                enabled: true,
                hosts,
            }
            .check_counts()
        });
        limit(65_535, |n| {
            let name = "A".repeat(n);
            Request::InternAtom {
                only_if_exists: false,
                name,
            }
            .check_counts()
        });
        limit(65_535, |n| {
            let atoms = vec![Atom(1); n];
            Reply::Properties { atoms }.check_counts()
        });
    }

    #[test]
    fn every_row_generates_its_own_variant() {
        let requests = samples(Request::generators());
        let opcodes: Vec<Opcode> = requests.iter().map(Request::opcode).collect();
        assert_eq!(opcodes, Opcode::ALL);
        let tags: Vec<u8> = samples(Reply::generators())
            .iter()
            .map(Reply::wire)
            .collect();
        assert_eq!(tags, (1..=12).collect::<Vec<u8>>());
    }
}
