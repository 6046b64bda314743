//! The one codec of `BENCH_report.json`: an order-preserving JSON value
//! that parses, renders, and gets or sets a key.
//!
//! The report is written by four binaries — `report` owns most sections,
//! `chaos_soak`, `load` and `fanout` one each — and read by `compare`.
//! Each writer builds its section as a [`Json`] value and
//! [`write_section`] sets it into the file, so re-running any writer in
//! any order replaces its own section and keeps every other one.  The
//! workspace has no serde; the documents are machine-written, so a small
//! recursive-descent parser over well-formed JSON is all they need.

use std::fmt::Write as _;

/// A JSON value.  Objects keep their keys in insertion order, so a
/// rewritten report diffs by value, not by layout.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Rendered with at most six decimals (finer than any metric's noise);
    /// a non-finite number renders as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Renders the value as a document: a container that holds another
    /// container puts each entry on its own line, any other renders on one.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let entries: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return write!(out, "{b}").unwrap(),
            Json::Num(v) if !v.is_finite() => return out.push_str("null"),
            Json::Num(v) => {
                let text = format!("{v:.6}");
                return out.push_str(text.trim_end_matches('0').trim_end_matches('.'));
            }
            Json::Str(s) => return render_str(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = match self {
            Json::Arr(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let (first, sep, last) = if entries.iter().any(|(_, v)| v.is_container()) {
            let pad = format!("\n{}", " ".repeat(indent + 2));
            let last = format!("\n{}", " ".repeat(indent));
            (pad.clone(), format!(",{pad}"), last)
        } else {
            (String::new(), ", ".to_owned(), String::new())
        };
        out.push(open);
        for (i, (key, value)) in entries.into_iter().enumerate() {
            out.push_str(if i == 0 { &first } else { &sep });
            if let Some(key) = key {
                render_str(out, key);
                out.push_str(": ");
            }
            value.render_into(out, indent + 2);
        }
        out.push_str(&last);
        out.push(close);
    }

    /// A non-empty array or object.
    fn is_container(&self) -> bool {
        match self {
            Json::Arr(items) => !items.is_empty(),
            Json::Obj(fields) => !fields.is_empty(),
            _ => false,
        }
    }

    /// The value of `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Replaces the value of `key` where it stands, or appends it.  A value
    /// that is not an object becomes one holding just `key`.
    pub fn set(&mut self, key: &str, value: Json) {
        if !matches!(self, Json::Obj(_)) {
            *self = Json::Obj(Vec::new());
        }
        let Json::Obj(fields) = self else {
            unreachable!()
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => fields.push((key.to_owned(), value)),
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// An object of `fields`, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    fields.into_iter().collect()
}

/// An object of named values, in order.
impl<'a, V: Into<Json>> FromIterator<(&'a str, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (&'a str, V)>>(fields: I) -> Json {
        let fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v.into()));
        Json::Obj(fields.collect())
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_number!(f64, u64, usize, u32);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The document at `path`: an empty object if the file is missing or is
/// not JSON (the latter with a warning, since it is about to be replaced).
pub fn read(path: &str) -> Json {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Json::Obj(Vec::new());
    };
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}; starting a new document");
        Json::Obj(Vec::new())
    })
}

/// Sets the top-level `key` of the document at `path` to `value` and
/// writes it back, keeping every other section.
pub fn write_section(path: &str, key: &str, value: Json) -> std::io::Result<()> {
    let mut doc = read(path);
    doc.set(key, value);
    std::fs::write(path, doc.render())
}

/// A cursor over the document; `pos` stays on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` after any whitespace, if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, whose opening
    /// bracket is next, through its `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = include_str!("../../../BENCH_report.json");

    #[test]
    fn the_checked_in_report_round_trips_and_renders_stably() {
        let v = Json::parse(REPORT).unwrap();
        let once = v.render();
        assert_eq!(Json::parse(&once).unwrap(), v);
        assert_eq!(Json::parse(&once).unwrap().render(), once);
        assert!(v.get("kernels_v2").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn set_replaces_in_place_and_twice_is_once() {
        let mut v = Json::parse(r#"{"a": 1, "b": [2], "c": {"d": null}}"#).unwrap();
        v.set("b", Json::from("x"));
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        v.set("e", obj([("f", true.into())]));
        let once = v.render();
        v.set("e", obj([("f", true.into())]));
        assert_eq!(v.render(), once);
        assert_eq!(v.as_obj().unwrap().len(), 4);
    }

    #[test]
    fn strings_with_braces_and_escapes_round_trip() {
        let text = r#"{"k}\"{": "]\\ \n\té é }{", "arr": [1, {"x": "}]"}]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("k}\"{").and_then(Json::as_str),
            Some("]\\ \n\té é }{")
        );
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn numbers_render_to_six_decimals_and_non_finite_as_null() {
        let v: Json = vec![4096.0, 0.1224, 1.0 / 3.0, -2.5, f64::NAN, f64::INFINITY].into();
        assert_eq!(v.render(), "[4096, 0.1224, 0.333333, -2.5, null, null]\n");
    }

    #[test]
    fn layout_breaks_only_containers_of_containers() {
        let v = obj([
            ("mode", "full".into()),
            ("rows", vec![obj([("n", 1u32.into())]), obj([])].into()),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"mode\": \"full\",\n  \"rows\": [\n    {\"n\": 1},\n    {}\n  ]\n}\n"
        );
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "[1] 2", "\"open", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
