//! Compact binary encoding for artifact payloads.
//!
//! The JSON artifact envelopes spell every key and every repeated
//! domain/slug string out in full, per row. This module provides the
//! byte-level codec for the v3 binary store format: a tagged, varint-
//! based encoding of the [`Value`] data model the serde stub defines,
//! with two per-buffer interning tables:
//!
//! * a **string table** — a string literal is written once, then
//!   referenced by index (one byte for the first 128 strings);
//! * a **shape table** — an object's *key set* is written once, and
//!   every later object with the same keys encodes as a shape
//!   reference followed by its values only. Measurement rows are
//!   thousands of identically-shaped observation objects, so this is
//!   where most of the 3-5x size win comes from.
//!
//! There is one encoder and one decoder. The encoder is a
//! [`serde::Writer`] and the decoder a [`serde::Reader`], so typed
//! artifacts stream straight between their structs and these bytes
//! through [`Serialize::write_to`] / [`Deserialize::read_from`]; no
//! [`Value`] tree is built. A type without a streaming impl (and
//! `Value` itself) goes through [`Writer::value`] / [`Reader::value`],
//! which walk a tree over the same tables. Both routes produce the same
//! bytes for the same data: the derive emits exactly the events walking
//! `serialize`'s tree would.
//!
//! Neither route allocates for a string or shape it has seen before.
//! The encoder remembers the shape of a derived struct by the address
//! of its `static` key list, and the decoder resolves each (shape,
//! struct) pair to a field-order plan once per buffer, not once per row.
//!
//! Framing (magic bytes, chunk index, checksums) lives in
//! [`crate::store`]; this module only turns values into bytes and back.
//!
//! ## Wire format
//!
//! Every value starts with a one-byte tag:
//!
//! | tag | meaning | payload |
//! |----:|---------|---------|
//! | 0   | null    | —       |
//! | 1   | false   | —       |
//! | 2   | true    | —       |
//! | 3   | int     | zigzag LEB128 varint |
//! | 4   | uint (> `i64::MAX`) | LEB128 varint |
//! | 5   | float   | 8 bytes, `f64::to_bits` little-endian |
//! | 6   | new string | varint byte length + UTF-8 bytes; appended to the string table |
//! | 7   | string ref | varint index into the string table |
//! | 8   | array   | varint element count + elements |
//! | 9   | object, new shape | varint key count + keys (string-encoded) + values; shape appended to the shape table |
//! | 10  | object, shape ref | varint index into the shape table + values |
//! | 16–143  | string ref 0–127 | — (packed into the tag) |
//! | 144–207 | int 0–63 | — (packed into the tag) |
//! | 208–255 | object shape ref 0–47 | values |
//!
//! Object keys are sorted, distinct, and use the same new/ref string
//! encoding as string values, sharing one table; a shape that repeats a
//! key is corrupt. Both tables are threaded sequentially through a
//! buffer: decoding is strictly front-to-back, which is fine because
//! the store always decodes a chunk whole.
//!
//! Rows inside a chunk are framed as `varint original-index` +
//! `u32-LE byte length` + encoded value, after a leading varint row
//! count. The explicit index lets the store splice a chunk's rows back
//! into their original positions without trusting any ordering
//! invariant of the payload; the explicit length is a per-row
//! consistency check that catches truncation and bit-flips early.

use serde::{Deserialize, Error, Reader, Serialize, Value, Writer};
use std::collections::HashMap;

/// Nesting depth cap during decode. Our real payloads are a handful of
/// levels deep; a corrupt or adversarial buffer could otherwise nest
/// arrays two bytes per level and blow the stack.
const MAX_DEPTH: usize = 128;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR_NEW: u8 = 6;
const TAG_STR_REF: u8 = 7;
const TAG_ARRAY: u8 = 8;
const TAG_OBJ_NEW_SHAPE: u8 = 9;
const TAG_OBJ_SHAPE_REF: u8 = 10;

/// One-byte string refs: tags `SMALL_REF_BASE..=SMALL_REF_BASE+127`.
const SMALL_REF_BASE: u8 = 16;
const SMALL_REF_COUNT: u64 = 128;
/// One-byte small non-negative ints: 64 tags from `SMALL_INT_BASE`.
const SMALL_INT_BASE: u8 = 144;
const SMALL_INT_COUNT: u64 = 64;
/// One-byte shape refs: 48 tags from `SMALL_SHAPE_BASE`.
const SMALL_SHAPE_BASE: u8 = 208;
const SMALL_SHAPE_COUNT: u64 = 48;

/// A `static` key or name list, identified by address and length.
fn static_id(keys: &'static [&'static str]) -> (usize, usize) {
    (keys.as_ptr() as usize, keys.len())
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The encoder: the output buffer plus the string and shape tables
/// built so far.
#[derive(Default)]
struct Encoder {
    buf: Vec<u8>,
    strings: HashMap<Box<str>, u64>,
    /// Shapes by content: each key's length (u64 LE) and bytes, back to
    /// back.
    shapes: HashMap<Vec<u8>, u64>,
    /// Shapes of derived structs, by [`static_id`] of their key list.
    static_shapes: HashMap<(usize, usize), u64>,
    /// Reused buffer for content keys.
    scratch: Vec<u8>,
}

impl Encoder {
    fn string(&mut self, s: &str) {
        if let Some(&idx) = self.strings.get(s) {
            if idx < SMALL_REF_COUNT {
                self.buf.push(SMALL_REF_BASE + idx as u8);
            } else {
                self.buf.push(TAG_STR_REF);
                put_varint(&mut self.buf, idx);
            }
        } else {
            self.buf.push(TAG_STR_NEW);
            put_varint(&mut self.buf, s.len() as u64);
            self.buf.extend_from_slice(s.as_bytes());
            let idx = self.strings.len() as u64;
            self.strings.insert(s.into(), idx);
        }
    }

    fn shape_ref(&mut self, idx: u64) {
        if idx < SMALL_SHAPE_COUNT {
            self.buf.push(SMALL_SHAPE_BASE + idx as u8);
        } else {
            self.buf.push(TAG_OBJ_SHAPE_REF);
            put_varint(&mut self.buf, idx);
        }
    }

    /// Writes the object header for a sorted key set: a reference when
    /// the set was seen before, else the new shape. Returns the index.
    fn shape<'k>(&mut self, keys: impl Iterator<Item = &'k str> + Clone) -> u64 {
        self.scratch.clear();
        for key in keys.clone() {
            self.scratch
                .extend_from_slice(&(key.len() as u64).to_le_bytes());
            self.scratch.extend_from_slice(key.as_bytes());
        }
        if let Some(&idx) = self.shapes.get(self.scratch.as_slice()) {
            self.shape_ref(idx);
            return idx;
        }
        let idx = self.shapes.len() as u64;
        self.shapes.insert(self.scratch.clone(), idx);
        self.buf.push(TAG_OBJ_NEW_SHAPE);
        put_varint(&mut self.buf, keys.clone().count() as u64);
        for key in keys {
            self.string(key);
        }
        idx
    }
}

impl Writer for Encoder {
    fn null(&mut self) {
        self.buf.push(TAG_NULL);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(if v { TAG_TRUE } else { TAG_FALSE });
    }

    fn int(&mut self, v: i64) {
        if (0..SMALL_INT_COUNT as i64).contains(&v) {
            self.buf.push(SMALL_INT_BASE + v as u8);
        } else {
            self.buf.push(TAG_INT);
            put_varint(&mut self.buf, zigzag(v));
        }
    }

    fn uint(&mut self, v: u64) {
        self.buf.push(TAG_UINT);
        put_varint(&mut self.buf, v);
    }

    fn float(&mut self, v: f64) {
        self.buf.push(TAG_FLOAT);
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, v: &str) {
        self.string(v);
    }

    fn seq(&mut self, len: usize) {
        self.buf.push(TAG_ARRAY);
        put_varint(&mut self.buf, len as u64);
    }

    fn fields(&mut self, keys: &'static [&'static str]) {
        if let Some(&idx) = self.static_shapes.get(&static_id(keys)) {
            self.shape_ref(idx);
        } else {
            let idx = self.shape(keys.iter().copied());
            self.static_shapes.insert(static_id(keys), idx);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(i) => self.int(*i),
            Value::UInt(u) => self.uint(*u),
            Value::Float(f) => self.float(*f),
            Value::String(s) => self.string(s),
            Value::Array(items) => {
                self.seq(items.len());
                for item in items {
                    self.value(item);
                }
            }
            Value::Object(map) => {
                // BTreeMap iteration is sorted, so equal key sets give
                // equal shapes — and decode back into the same map.
                self.shape(map.keys().map(String::as_str));
                for val in map.values() {
                    self.value(val);
                }
            }
        }
    }
}

/// Field slot for a shape key the target struct does not have.
const SKIP: u32 = u32::MAX;

/// One shape-table entry: its keys (string-table indices) and the
/// field-order plans resolved for it so far.
struct Shape {
    keys: Vec<usize>,
    plans: Vec<Plan>,
}

/// How a shape's entries map onto one struct's fields.
struct Plan {
    /// [`static_id`] of the struct's key list.
    keys: (usize, usize),
    /// Per shape key, the index of that key in the list, or [`SKIP`].
    slots: Box<[u32]>,
}

/// An object being read field by field: which shape, which plan, and
/// how many of its entries were consumed.
struct Frame {
    shape: usize,
    plan: usize,
    next: usize,
}

/// The decoder: a cursor over the input plus the string and shape
/// tables reconstructed so far.
struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Every table string, back to back (validated UTF-8 once, on
    /// definition; lookups then borrow from here).
    text: String,
    /// String-table entries, as ranges of `text`.
    strings: Vec<std::ops::Range<usize>>,
    shapes: Vec<Shape>,
    frames: Vec<Frame>,
    depth: usize,
}

fn err(msg: String) -> Error {
    Error::custom(msg)
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            text: String::new(),
            strings: Vec::new(),
            shapes: Vec::new(),
            frames: Vec::new(),
            depth: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn peek(&self) -> Result<u8, Error> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| err(format!("truncated at byte {}", self.pos)))
    }

    fn byte(&mut self) -> Result<u8, Error> {
        let b = self.peek()?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| err(format!("truncated: need {n} bytes at byte {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, Error> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(err(format!(
            "varint longer than 10 bytes at byte {}",
            self.pos
        )))
    }

    /// A count of items that each take at least one more byte: refused
    /// when the rest of the buffer cannot hold them, so no caller
    /// reserves memory a corrupt count asks for.
    fn count(&mut self) -> Result<usize, Error> {
        let n = self.varint()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining())
            .ok_or_else(|| {
                err(format!(
                    "count {n} exceeds the {} bytes left at byte {}",
                    self.remaining(),
                    self.pos
                ))
            })
    }

    fn float_bits(&mut self) -> Result<f64, Error> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) returned 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn str_at(&self, idx: usize) -> &str {
        &self.text[self.strings[idx].clone()]
    }

    fn table_index(idx: u64, len: usize, what: &str) -> Result<usize, Error> {
        usize::try_from(idx)
            .ok()
            .filter(|&i| i < len)
            .ok_or_else(|| err(format!("{what} ref {idx} out of range ({len})")))
    }

    /// The string-table index a string tag names, defining the string
    /// first for a new-string tag. `None` for non-string tags.
    fn string_body(&mut self, tag: u8) -> Result<Option<usize>, Error> {
        let idx = match tag {
            TAG_STR_NEW => {
                let len = self.count()?;
                let bytes = self.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|e| err(format!("invalid UTF-8 in string: {e}")))?;
                let start = self.text.len();
                self.text.push_str(s);
                self.strings.push(start..self.text.len());
                self.strings.len() - 1
            }
            TAG_STR_REF => {
                let idx = self.varint()?;
                Self::table_index(idx, self.strings.len(), "string")?
            }
            t if (SMALL_REF_BASE..SMALL_REF_BASE + SMALL_REF_COUNT as u8).contains(&t) => {
                Self::table_index(u64::from(t - SMALL_REF_BASE), self.strings.len(), "string")?
            }
            _ => return Ok(None),
        };
        Ok(Some(idx))
    }

    fn string(&mut self) -> Result<usize, Error> {
        let tag = self.byte()?;
        self.string_body(tag)?
            .ok_or_else(|| err(format!("expected string tag, found {tag}")))
    }

    /// The shape-table index an object tag names, defining the shape
    /// first for a new-shape tag. `None` for non-object tags.
    fn shape_body(&mut self, tag: u8) -> Result<Option<usize>, Error> {
        let idx = match tag {
            TAG_OBJ_NEW_SHAPE => {
                let count = self.count()?;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(self.string()?);
                }
                let mut names: Vec<&str> = keys.iter().map(|&k| self.str_at(k)).collect();
                names.sort_unstable();
                if let Some(pair) = names.windows(2).find(|w| w[0] == w[1]) {
                    return Err(err(format!("shape repeats key {:?}", pair[0])));
                }
                self.shapes.push(Shape {
                    keys,
                    plans: Vec::new(),
                });
                self.shapes.len() - 1
            }
            TAG_OBJ_SHAPE_REF => {
                let idx = self.varint()?;
                Self::table_index(idx, self.shapes.len(), "shape")?
            }
            t if t >= SMALL_SHAPE_BASE => {
                Self::table_index(u64::from(t - SMALL_SHAPE_BASE), self.shapes.len(), "shape")?
            }
            _ => return Ok(None),
        };
        Ok(Some(idx))
    }

    /// The index of `shape`'s plan for the struct whose field names are
    /// `keys`, resolving it on first use.
    fn plan(&mut self, shape: usize, keys: &'static [&'static str]) -> usize {
        let id = static_id(keys);
        if let Some(p) = self.shapes[shape].plans.iter().position(|p| p.keys == id) {
            return p;
        }
        let slots: Box<[u32]> = self.shapes[shape]
            .keys
            .iter()
            .map(|&k| {
                let name = self.str_at(k);
                keys.iter()
                    .position(|key| *key == name)
                    .map_or(SKIP, |i| i as u32)
            })
            .collect();
        let plans = &mut self.shapes[shape].plans;
        plans.push(Plan { keys: id, slots });
        plans.len() - 1
    }

    /// Decodes one value as a tree (the fallback path, and how entries
    /// under unknown keys are skipped).
    fn value_tree(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let tag = self.byte()?;
        if let Some(idx) = self.string_body(tag)? {
            return Ok(Value::String(self.str_at(idx).to_owned()));
        }
        if let Some(shape) = self.shape_body(tag)? {
            let mut map = serde::Map::new();
            for i in 0..self.shapes[shape].keys.len() {
                let key = self.str_at(self.shapes[shape].keys[i]).to_owned();
                let val = self.value_tree(depth + 1)?;
                map.insert(key, val);
            }
            return Ok(Value::Object(map));
        }
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(unzigzag(self.varint()?))),
            TAG_UINT => Ok(Value::UInt(self.varint()?)),
            TAG_FLOAT => Ok(Value::Float(self.float_bits()?)),
            TAG_ARRAY => {
                let count = self.count()?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value_tree(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            t if (SMALL_INT_BASE..SMALL_INT_BASE + SMALL_INT_COUNT as u8).contains(&t) => {
                Ok(Value::Int(i64::from(t - SMALL_INT_BASE)))
            }
            other => Err(err(format!("unknown value tag {other}"))),
        }
    }

    /// Reads one complete top-level value.
    fn top<T: Deserialize>(&mut self) -> Result<T, Error> {
        self.frames.clear();
        self.depth = 0;
        T::read_from(self)
    }

    fn expected(&self, what: &str, tag: u8) -> Error {
        err(format!(
            "expected {what}, found tag {tag} at byte {}",
            self.pos - 1
        ))
    }
}

impl Reader for Decoder<'_> {
    fn take_null(&mut self) -> Result<bool, Error> {
        let null = self.peek()? == TAG_NULL;
        if null {
            self.pos += 1;
        }
        Ok(null)
    }

    fn bool(&mut self) -> Result<bool, Error> {
        match self.byte()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            t => Err(self.expected("bool", t)),
        }
    }

    fn int(&mut self) -> Result<i64, Error> {
        match self.byte()? {
            TAG_INT => Ok(unzigzag(self.varint()?)),
            TAG_UINT => {
                let v = self.varint()?;
                i64::try_from(v).map_err(|_| err(format!("{v} does not fit i64")))
            }
            t if (SMALL_INT_BASE..SMALL_INT_BASE + SMALL_INT_COUNT as u8).contains(&t) => {
                Ok(i64::from(t - SMALL_INT_BASE))
            }
            t => Err(self.expected("integer", t)),
        }
    }

    fn uint(&mut self) -> Result<u64, Error> {
        match self.byte()? {
            TAG_INT => {
                let v = unzigzag(self.varint()?);
                u64::try_from(v).map_err(|_| err(format!("{v} does not fit u64")))
            }
            TAG_UINT => self.varint(),
            t if (SMALL_INT_BASE..SMALL_INT_BASE + SMALL_INT_COUNT as u8).contains(&t) => {
                Ok(u64::from(t - SMALL_INT_BASE))
            }
            t => Err(self.expected("unsigned integer", t)),
        }
    }

    fn float(&mut self) -> Result<f64, Error> {
        match self.byte()? {
            TAG_FLOAT => self.float_bits(),
            TAG_NULL => Ok(f64::NAN),
            TAG_INT => Ok(unzigzag(self.varint()?) as f64),
            TAG_UINT => Ok(self.varint()? as f64),
            t if (SMALL_INT_BASE..SMALL_INT_BASE + SMALL_INT_COUNT as u8).contains(&t) => {
                Ok(f64::from(t - SMALL_INT_BASE))
            }
            t => Err(self.expected("number", t)),
        }
    }

    fn str(&mut self) -> Result<&str, Error> {
        let tag = self.byte()?;
        match self.string_body(tag)? {
            Some(idx) => Ok(self.str_at(idx)),
            None => Err(self.expected("string", tag)),
        }
    }

    fn seq(&mut self) -> Result<usize, Error> {
        match self.byte()? {
            TAG_ARRAY => self.count(),
            t => Err(self.expected("array", t)),
        }
    }

    fn fields(&mut self, keys: &'static [&'static str]) -> Result<(), Error> {
        let tag = self.byte()?;
        let shape = self
            .shape_body(tag)?
            .ok_or_else(|| self.expected("object", tag))?;
        let plan = self.plan(shape, keys);
        self.frames.push(Frame {
            shape,
            plan,
            next: 0,
        });
        Ok(())
    }

    fn field(&mut self) -> Result<Option<usize>, Error> {
        loop {
            let frame = self
                .frames
                .last_mut()
                .ok_or_else(|| err("field read outside an object".to_owned()))?;
            let slots = &self.shapes[frame.shape].plans[frame.plan].slots;
            let Some(&slot) = slots.get(frame.next) else {
                self.frames.pop();
                return Ok(None);
            };
            frame.next += 1;
            if slot != SKIP {
                return Ok(Some(slot as usize));
            }
            self.value_tree(self.depth)?;
        }
    }

    fn variant(&mut self, names: &'static [&'static str]) -> Result<(usize, bool), Error> {
        let tag = self.byte()?;
        let (name, payload) = if let Some(idx) = self.string_body(tag)? {
            (idx, false)
        } else if let Some(shape) = self.shape_body(tag)? {
            match self.shapes[shape].keys[..] {
                [key] => (key, true),
                _ => return Err(self.expected("single-entry object (enum)", tag)),
            }
        } else {
            return Err(self.expected("enum", tag));
        };
        let text = self.str_at(name);
        let found = names
            .iter()
            .position(|n| *n == text)
            .ok_or_else(|| Error::unknown_variant(text, "enum"))?;
        Ok((found, payload))
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.value_tree(self.depth)
    }
}

/// Encodes a single standalone value (envelope header, meta chunk) with
/// its own fresh tables.
pub(crate) fn encode_one<T: Serialize + ?Sized>(v: &T) -> Vec<u8> {
    let mut enc = Encoder::default();
    v.write_to(&mut enc);
    enc.buf
}

/// Decodes a buffer produced by [`encode_one`], rejecting trailing
/// garbage.
pub(crate) fn decode_one<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut dec = Decoder::new(bytes);
    let v = dec.top()?;
    if dec.pos != bytes.len() {
        return Err(err(format!(
            "{} trailing bytes after value",
            bytes.len() - dec.pos
        )));
    }
    Ok(v)
}

/// Encodes a row chunk: leading varint row count, then per row the
/// original row index (varint), the encoded byte length (u32 LE), and
/// the row value. One string table and one shape table span the whole
/// chunk, so after the first row a repeated key set costs one byte.
pub(crate) fn encode_rows<'r, T: Serialize + 'r>(
    rows: impl ExactSizeIterator<Item = (u64, &'r T)>,
) -> Vec<u8> {
    let mut enc = Encoder::default();
    put_varint(&mut enc.buf, rows.len() as u64);
    for (index, row) in rows {
        put_varint(&mut enc.buf, index);
        let len_at = enc.buf.len();
        enc.buf.extend_from_slice(&[0u8; 4]);
        row.write_to(&mut enc);
        let len = (enc.buf.len() - len_at - 4) as u32;
        enc.buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
    enc.buf
}

/// Decodes a chunk produced by [`encode_rows`] back into
/// `(original index, row)` pairs, verifying every row's length frame
/// and rejecting trailing garbage.
pub(crate) fn decode_rows<T: Deserialize>(bytes: &[u8]) -> Result<Vec<(u64, T)>, Error> {
    let mut dec = Decoder::new(bytes);
    let count = dec.count()?;
    let mut rows = Vec::with_capacity(count);
    for n in 0..count {
        let index = dec.varint()?;
        let frame: [u8; 4] = dec.take(4)?.try_into().expect("take(4) returned 4 bytes");
        let len = u32::from_le_bytes(frame) as usize;
        let start = dec.pos;
        let row = dec.top().map_err(|e| err(format!("row {n}: {e}")))?;
        if dec.pos - start != len {
            return Err(err(format!(
                "row {n}: frame says {len} bytes, decoded {}",
                dec.pos - start
            )));
        }
        rows.push((index, row));
    }
    if dec.pos != bytes.len() {
        return Err(err(format!(
            "{} trailing bytes after {count} rows",
            bytes.len() - dec.pos
        )));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{CrawlArtifact, CrowdArtifact};
    use pd_crawler::crawl::RetailerCrawlStats;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_sheriff::cleaning::CleaningReport;
    use pd_sheriff::measurement::{Measurement, NoiseTruth, PriceObservation};
    use pd_sheriff::MeasurementStore;
    use pd_util::{Money, RequestId, UserId, VantageId};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sample_row(i: u64, domain: &str) -> Value {
        let mut flags = serde::Map::new();
        flags.insert("genuine".into(), Value::Bool(i.is_multiple_of(2)));
        flags.insert("note".into(), Value::Null);
        let mut m = serde::Map::new();
        m.insert("request".into(), serde_json::to_value(&i));
        m.insert("domain".into(), Value::String(domain.to_owned()));
        m.insert(
            "product_slug".into(),
            Value::String(format!("slug-{}", i % 3)),
        );
        m.insert("prices".into(), serde_json::to_value(&[12.5, -0.25, 1e300]));
        m.insert("flags".into(), Value::Object(flags));
        m.insert("count".into(), Value::Int(-42));
        m.insert("big".into(), Value::UInt(u64::MAX));
        Value::Object(m)
    }

    fn indexed<T>(rows: &[T]) -> impl ExactSizeIterator<Item = (u64, &T)> {
        rows.iter().enumerate().map(|(i, r)| (i as u64, r))
    }

    #[test]
    fn scalar_values_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(63),
            Value::Int(64),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::String(String::new()),
            Value::String("héllo".to_owned()),
            Value::Array(Vec::new()),
            Value::Object(serde::Map::new()),
        ] {
            let bytes = encode_one(&v);
            assert_eq!(decode_one::<Value>(&bytes).unwrap(), v, "{v:?}");
        }
        // Int and UInt must keep their variant through a round-trip
        // (equality is variant-sensitive even when the number is equal).
        assert_eq!(
            decode_one::<Value>(&encode_one(&Value::UInt(5))).unwrap(),
            Value::UInt(5)
        );
        assert_eq!(
            decode_one::<Value>(&encode_one(&Value::Int(5))).unwrap(),
            Value::Int(5)
        );
        // Non-finite floats survive bit-exactly (never produced by the
        // serializers, but the codec should not corrupt them).
        let nan = encode_one(&Value::Float(f64::NAN));
        match decode_one::<Value>(&nan).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn nested_values_round_trip() {
        let v = sample_row(7, "shop.example");
        let bytes = encode_one(&v);
        assert_eq!(decode_one::<Value>(&bytes).unwrap(), v);
    }

    #[test]
    fn tables_dedupe_repeated_rows() {
        let one = encode_rows(indexed(&[sample_row(0, "repeated-domain.example")]));
        let rows: Vec<Value> = (0..10)
            .map(|i| sample_row(i, "repeated-domain.example"))
            .collect();
        let ten = encode_rows(indexed(&rows));
        // Rows 2..10 reuse every key, string and object shape via
        // one-byte table refs, so ten rows must cost far less than ten
        // independent encodings.
        assert!(
            ten.len() < one.len() * 5,
            "10 rows = {} bytes vs 1 row = {} bytes",
            ten.len(),
            one.len()
        );
        let decoded = decode_rows::<Value>(&ten).unwrap();
        assert_eq!(decoded.len(), 10);
        for (i, (index, row)) in decoded.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(row, &rows[i]);
        }
    }

    #[test]
    fn many_distinct_strings_and_shapes_round_trip() {
        // Push both tables past their one-byte tag ranges so the
        // varint fallbacks get exercised.
        let mut rows: Vec<Value> = Vec::new();
        for i in 0..200u64 {
            let mut m = serde::Map::new();
            m.insert(format!("key-{i}"), Value::Int(i as i64));
            m.insert("shared".to_owned(), Value::String(format!("val-{i}")));
            rows.push(Value::Object(m));
        }
        // Repeat the whole set so every late table entry is referenced.
        let doubled: Vec<Value> = rows.iter().chain(rows.iter()).cloned().collect();
        let bytes = encode_rows(indexed(&doubled));
        let decoded = decode_rows::<Value>(&bytes).unwrap();
        assert_eq!(decoded.len(), 400);
        for (i, (_, row)) in decoded.iter().enumerate() {
            assert_eq!(row, &doubled[i]);
        }
    }

    #[test]
    fn rows_preserve_explicit_indices() {
        let a = sample_row(3, "a.example");
        let b = sample_row(9, "b.example");
        let bytes = encode_rows([(9, &b), (3, &a)].into_iter());
        let decoded = decode_rows::<Value>(&bytes).unwrap();
        assert_eq!(decoded[0].0, 9);
        assert_eq!(decoded[1].0, 3);
        assert_eq!(decoded[0].1, b);
        assert_eq!(decoded[1].1, a);
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let v = sample_row(1, "shop.example");
        let bytes = encode_one(&v);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_one::<Value>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let chunk = encode_rows(indexed(&[v.clone(), v]));
        for cut in [chunk.len() / 3, chunk.len() - 1] {
            assert!(decode_rows::<Value>(&chunk[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_misread() {
        // Unused tags between the object tags and the packed ranges.
        for tag in 11..SMALL_REF_BASE {
            assert!(decode_one::<Value>(&[tag]).is_err(), "tag {tag}");
            assert!(decode_one::<Measurement>(&[tag]).is_err(), "tag {tag}");
            assert!(decode_one::<NoiseTruth>(&[tag]).is_err(), "tag {tag}");
        }
        // String ref past the table.
        assert!(decode_one::<Value>(&[TAG_STR_REF, 5]).is_err());
        assert!(decode_one::<Value>(&[SMALL_REF_BASE + 3]).is_err());
        assert!(decode_one::<String>(&[SMALL_REF_BASE + 3]).is_err());
        // Shape ref past the table.
        assert!(decode_one::<Value>(&[TAG_OBJ_SHAPE_REF, 2]).is_err());
        assert!(decode_one::<Value>(&[SMALL_SHAPE_BASE + 1]).is_err());
        assert!(decode_one::<Measurement>(&[SMALL_SHAPE_BASE + 1]).is_err());
        // Invalid UTF-8 in a new string.
        assert!(decode_one::<Value>(&[TAG_STR_NEW, 1, 0xff]).is_err());
        assert!(decode_one::<String>(&[TAG_STR_NEW, 1, 0xff]).is_err());
        // Trailing garbage after a complete value.
        assert!(decode_one::<Value>(&[TAG_NULL, TAG_NULL]).is_err());
        assert!(decode_one::<Option<u8>>(&[TAG_NULL, TAG_NULL]).is_err());
        // Counts the rest of the buffer cannot hold.
        assert!(decode_one::<Vec<u8>>(&[TAG_ARRAY, 0xff, 0xff, 0x03]).is_err());
        assert!(decode_one::<Value>(&[TAG_OBJ_NEW_SHAPE, 100, TAG_NULL]).is_err());
        // Row frame length that disagrees with the encoded row.
        let mut m = serde::Map::new();
        m.insert("k".into(), Value::Int(1));
        let v = Value::Object(m);
        let mut chunk = encode_rows(indexed(&[v]));
        chunk[2] ^= 0x01; // flip a bit in the u32 length frame
        assert!(decode_rows::<Value>(&chunk).is_err());
    }

    #[test]
    fn shapes_that_repeat_a_key_are_rejected() {
        // {"a": 1, "a": 2}: the second key is a ref to the first.
        let bytes = [
            TAG_OBJ_NEW_SHAPE,
            2,
            TAG_STR_NEW,
            1,
            b'a',
            SMALL_REF_BASE,
            SMALL_INT_BASE + 1,
            SMALL_INT_BASE + 2,
        ];
        let e = decode_one::<Value>(&bytes).unwrap_err();
        assert!(e.to_string().contains("repeats key"), "{e}");
        assert!(decode_one::<Wrapper>(&bytes).is_err());
        // The same key spelled out twice as two new strings.
        let bytes = [
            TAG_OBJ_NEW_SHAPE,
            2,
            TAG_STR_NEW,
            1,
            b'a',
            TAG_STR_NEW,
            1,
            b'a',
            TAG_NULL,
            TAG_NULL,
        ];
        assert!(decode_one::<Value>(&bytes).is_err());
        assert!(decode_one::<Probe>(&bytes).is_err());
    }

    #[test]
    fn wrong_typed_fields_and_unknown_variants_are_rejected() {
        let m = arb_measurement(&mut TestRng::deterministic("wrong-typed"));
        let mut tree = serde_json::to_value(&m);
        let Value::Object(map) = &mut tree else {
            panic!("measurement serializes as an object");
        };
        map.insert("domain".into(), Value::Int(3));
        let e = decode_one::<Measurement>(&encode_one(&tree)).unwrap_err();
        assert!(e.to_string().contains("expected string"), "{e}");
        let mut tree = serde_json::to_value(&m);
        let Value::Object(map) = &mut tree else {
            panic!("measurement serializes as an object");
        };
        map.insert("noise_truth".into(), Value::String("Bogus".into()));
        let e = decode_one::<Measurement>(&encode_one(&tree)).unwrap_err();
        assert!(e.to_string().contains("unknown variant `Bogus`"), "{e}");
        // A missing required field is an error; a missing option is None.
        let Value::Object(map) = &mut tree else {
            panic!("measurement serializes as an object");
        };
        map.remove("noise_truth");
        map.remove("user_price");
        let e = decode_one::<Measurement>(&encode_one(&tree)).unwrap_err();
        assert!(e.to_string().contains("missing field `noise_truth`"), "{e}");
        // A unit variant written as a payload variant, and vice versa.
        let payload_unit = serde::__variant("Clean", Value::Null);
        assert!(decode_one::<NoiseTruth>(&encode_one(&payload_unit)).is_err());
        assert!(decode_one::<Shape>(&encode_one(&Value::String("Line".into()))).is_err());
        // Out-of-range integers.
        assert!(decode_one::<u8>(&encode_one(&300u32)).is_err());
        assert!(decode_one::<u64>(&encode_one(&-1i64)).is_err());
        assert!(decode_one::<i64>(&encode_one(&u64::MAX)).is_err());
    }

    #[test]
    fn deep_nesting_is_capped() {
        let mut bytes = Vec::new();
        for _ in 0..10_000 {
            bytes.push(TAG_ARRAY);
            bytes.push(1);
        }
        bytes.push(TAG_NULL);
        assert!(decode_one::<Value>(&bytes)
            .unwrap_err()
            .to_string()
            .contains("nesting"));
        // Typed reads cap nesting through derived types too.
        let mut bytes = Vec::new();
        for _ in 0..10_000 {
            bytes.push(TAG_ARRAY);
            bytes.push(1);
        }
        bytes.push(TAG_ARRAY);
        bytes.push(0);
        assert!(decode_one::<Nest>(&bytes)
            .unwrap_err()
            .to_string()
            .contains("nesting"));
    }

    #[test]
    fn varint_edge_values_round_trip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut dec = Decoder::new(&buf);
            assert_eq!(dec.varint().unwrap(), v);
            assert_eq!(dec.pos, buf.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    // ---- the typed path against the `Value` path ----

    /// Every event kind the derive and the std impls emit, in one type.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Probe {
        whole: u64,
        small: u8,
        signed: i64,
        ratio: f64,
        narrow: f32,
        maybe: Option<f64>,
        flag: bool,
        letter: char,
        shared: Arc<str>,
        tags: Vec<String>,
        pair: (i32, String),
        trio: [Option<i16>; 3],
        // No streaming impl: goes through the `Value` fallback, sharing
        // the tables with the typed fields around it.
        map: BTreeMap<String, f64>,
        shape: Shape,
        marker: Marker,
        wrapped: Wrapper,
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Line(f64),
        Pair(i32, u64),
        Poly { sides: u8, closed: bool },
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Wrapper(Vec<Shape>);

    /// A type that nests through itself, for the typed depth cap.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Nest(Vec<Nest>);

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    fn arb_string(rng: &mut TestRng) -> String {
        // A small pool repeats (table refs); fresh strings include
        // multi-byte UTF-8 and keys that collide with struct fields.
        match rng.below(4) {
            0 => pick(rng, &["www.a.example", "sides", "closed", "Clean", ""]).to_owned(),
            1 => Strategy::sample(&"\\PC{0,12}", rng),
            _ => Strategy::sample(&"[a-z.-]{1,10}", rng),
        }
    }

    fn arb_f64(rng: &mut TestRng) -> f64 {
        match rng.below(6) {
            0 => pick(rng, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            1 => pick(rng, &[0.0, -0.0, f64::MIN_POSITIVE, f64::MAX]),
            _ => (rng.unit_f64() - 0.5) * 1e6,
        }
    }

    fn arb_u64(rng: &mut TestRng) -> u64 {
        let boundary = i64::MAX as u64;
        let any = rng.next_u64();
        pick(rng, &[0, 63, 64, boundary, boundary + 1, u64::MAX, any])
    }

    fn arb_i64(rng: &mut TestRng) -> i64 {
        let any = rng.next_u64() as i64;
        pick(rng, &[i64::MIN, -1, 0, 63, 64, i64::MAX, any])
    }

    fn arb_price(rng: &mut TestRng) -> Option<Price> {
        (rng.below(4) != 0)
            .then(|| Price::new(Money::from_minor(arb_i64(rng)), pick(rng, &Currency::ALL)))
    }

    fn arb_measurement(rng: &mut TestRng) -> Measurement {
        let observations = (0..rng.below(5))
            .map(|_| PriceObservation {
                vantage: VantageId::new(rng.next_u64() as u32),
                price: arb_price(rng),
                error: (rng.below(3) == 0).then(|| arb_string(rng)),
                raw_text: (rng.below(2) == 0).then(|| arb_string(rng)),
            })
            .collect();
        let any = rng.next_u64() as u32;
        Measurement {
            request: RequestId::new(pick(rng, &[0, 63, 64, u32::MAX, any])),
            user: UserId::new(rng.next_u64() as u32),
            domain: arb_string(rng),
            product_slug: arb_string(rng),
            time: SimTime::from_millis(arb_u64(rng)),
            user_price: arb_price(rng),
            observations,
            noise_truth: pick(
                rng,
                &[
                    NoiseTruth::Clean,
                    NoiseTruth::Customization,
                    NoiseTruth::MisHighlight,
                ],
            ),
        }
    }

    fn arb_store(rng: &mut TestRng) -> MeasurementStore {
        let records = (0..rng.below(6)).map(|_| arb_measurement(rng)).collect();
        MeasurementStore::from_records(records)
    }

    fn arb_shape(rng: &mut TestRng) -> Shape {
        match rng.below(4) {
            0 => Shape::Dot,
            1 => Shape::Line(arb_f64(rng)),
            2 => Shape::Pair(rng.next_u64() as i32, arb_u64(rng)),
            _ => Shape::Poly {
                sides: rng.next_u64() as u8,
                closed: rng.below(2) == 0,
            },
        }
    }

    fn arb_probe(rng: &mut TestRng) -> Probe {
        Probe {
            whole: arb_u64(rng),
            small: rng.next_u64() as u8,
            signed: arb_i64(rng),
            ratio: arb_f64(rng),
            narrow: arb_f64(rng) as f32,
            maybe: (rng.below(2) == 0).then(|| arb_f64(rng)),
            flag: rng.below(2) == 0,
            letter: pick(rng, &['a', 'é', '中', '😀']),
            shared: arb_string(rng).into(),
            tags: (0..rng.below(4)).map(|_| arb_string(rng)).collect(),
            pair: (rng.next_u64() as i32, arb_string(rng)),
            trio: [
                (rng.below(2) == 0).then(|| rng.next_u64() as i16),
                None,
                Some(-1),
            ],
            map: (0..rng.below(3))
                .map(|_| (arb_string(rng), arb_f64(rng)))
                .collect(),
            shape: arb_shape(rng),
            marker: Marker,
            wrapped: Wrapper((0..rng.below(3)).map(|_| arb_shape(rng)).collect()),
        }
    }

    /// Draws from a generator function (the vendored proptest has no
    /// `prop_compose!`).
    struct Arb<T>(fn(&mut TestRng) -> T);

    impl<T: std::fmt::Debug> Strategy for Arb<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    fn arb_crowd(rng: &mut TestRng) -> CrowdArtifact {
        CrowdArtifact {
            raw: arb_store(rng),
            cleaned: arb_store(rng),
            cleaning: CleaningReport {
                kept: rng.below(100) as usize,
                dropped_inconsistent: rng.next_u64() as usize,
                dropped_unhealthy: 0,
                dropped_tax_explained: 1,
                dropped_truly_noisy: 64,
                kept_truly_noisy: usize::MAX,
            },
        }
    }

    fn arb_crawl(rng: &mut TestRng) -> CrawlArtifact {
        CrawlArtifact {
            store: arb_store(rng),
            stats: (0..rng.below(3))
                .map(|_| RetailerCrawlStats {
                    domain: arb_string(rng),
                    products: rng.below(64) as usize,
                    checks: rng.next_u64() as usize,
                    complete_checks: 0,
                    retries: usize::MAX,
                })
                .collect(),
        }
    }

    /// The bytes of `x` by the typed path equal those of its `Value`
    /// tree, and decoding them either way gives the same result.
    fn assert_paths_agree<T: Serialize + Deserialize>(x: &T) {
        let tree = serde_json::to_value(x);
        let bytes = encode_one(x);
        assert_eq!(
            bytes,
            encode_one(&tree),
            "typed bytes differ from the tree's"
        );
        let typed: T = decode_one(&bytes).expect("typed decode");
        let via_tree = T::deserialize(&decode_one::<Value>(&bytes).expect("tree decode"))
            .expect("tree deserializes");
        // JSON text compares NaN as `null`, unlike `Value`'s PartialEq.
        assert_eq!(
            serde_json::to_string(&typed).unwrap(),
            serde_json::to_string(&via_tree).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&typed).unwrap(),
            serde_json::to_string(x).unwrap()
        );
    }

    proptest! {
        #[test]
        fn typed_rows_match_value_rows(rows in vec(Arb(arb_measurement), 0..12)) {
            let bytes = encode_rows(indexed(&rows));
            let trees: Vec<Value> = rows.iter().map(serde_json::to_value).collect();
            prop_assert_eq!(&bytes, &encode_rows(indexed(&trees)));
            let typed: Vec<(u64, Measurement)> = decode_rows(&bytes).expect("typed decode");
            let via_tree: Vec<(u64, Measurement)> = decode_rows::<Value>(&bytes)
                .expect("tree decode")
                .into_iter()
                .map(|(i, v)| (i, Measurement::deserialize(&v).expect("row deserializes")))
                .collect();
            prop_assert_eq!(&typed, &via_tree);
            let originals: Vec<(u64, Measurement)> =
                rows.iter().cloned().enumerate().map(|(i, m)| (i as u64, m)).collect();
            prop_assert_eq!(&typed, &originals);
        }

        #[test]
        fn typed_artifacts_match_value_artifacts(
            crowd in Arb(arb_crowd),
            crawl in Arb(arb_crawl),
            probe in Arb(arb_probe),
        ) {
            assert_paths_agree(&crowd);
            assert_paths_agree(&crawl);
            assert_paths_agree(&probe);
            // Two values in one buffer share both tables across paths.
            assert_paths_agree(&(probe.clone(), crawl.stats.clone(), probe));
        }

        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in vec(0u8..=255, 0..48),
            tags in vec(0u8..16, 0..48),
        ) {
            // Raw bytes mostly stop at the first tag; low bytes are
            // mostly valid tags and small counts, so they get further.
            for input in [&bytes, &tags] {
                let _ = decode_one::<Value>(input);
                let _ = decode_one::<Measurement>(input);
                let _ = decode_one::<Probe>(input);
                let _ = decode_one::<CrawlArtifact>(input);
                let _ = decode_rows::<Measurement>(input);
                let _ = decode_rows::<Value>(input);
            }
        }

        #[test]
        fn mutated_rows_never_panic_and_paths_agree(
            rows in vec(Arb(arb_measurement), 1..6),
            at in 0usize..usize::MAX,
            mask in 1u8..=255,
            cut in 0usize..usize::MAX,
        ) {
            let bytes = encode_rows(indexed(&rows));
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= mask;
            for input in [&flipped[..], &bytes[..cut % bytes.len()]] {
                let typed = decode_rows::<Measurement>(input);
                let via_tree = decode_rows::<Value>(input).and_then(|rows| {
                    rows.into_iter()
                        .map(|(i, v)| Measurement::deserialize(&v).map(|m| (i, m)))
                        .collect::<Result<Vec<_>, _>>()
                });
                prop_assert_eq!(typed.ok(), via_tree.ok());
            }
        }
    }

    #[test]
    fn every_currency_and_noise_label_round_trips() {
        let mut rng = TestRng::deterministic("every-variant");
        let mut rows = Vec::new();
        for currency in Currency::ALL {
            for noise_truth in [
                NoiseTruth::Clean,
                NoiseTruth::Customization,
                NoiseTruth::MisHighlight,
            ] {
                let mut m = arb_measurement(&mut rng);
                m.user_price = Some(Price::new(Money::from_minor(-5), currency));
                m.noise_truth = noise_truth;
                m.time = SimTime::from_millis(u64::MAX);
                rows.push(m);
            }
        }
        let bytes = encode_rows(indexed(&rows));
        let trees: Vec<Value> = rows.iter().map(serde_json::to_value).collect();
        assert_eq!(bytes, encode_rows(indexed(&trees)));
        let back: Vec<Measurement> = decode_rows(&bytes)
            .unwrap()
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn struct_and_tree_objects_share_one_shape() {
        // A derived struct and a tree object with the same key set must
        // resolve to one shape-table entry, whichever comes first.
        let poly = Shape::Poly {
            sides: 3,
            closed: true,
        };
        let Value::Object(tagged) = serde_json::to_value(&poly) else {
            panic!("payload variants are objects");
        };
        let inner = tagged["Poly"].clone();
        let pair = (inner.clone(), poly.clone(), inner);
        let bytes = encode_one(&pair);
        assert_eq!(bytes, encode_one(&serde_json::to_value(&pair)));
        let shapes_defined = bytes.iter().filter(|&&b| b == TAG_OBJ_NEW_SHAPE).count();
        assert_eq!(
            shapes_defined, 2,
            "{{closed, sides}} and {{Poly}} once each"
        );
    }
}
