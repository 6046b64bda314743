//! Top-level key surgery on the report JSON.
//!
//! `BENCH_report.json` is written by several independent binaries —
//! `report` owns the kernel and transport sections, `chaos_soak`, `load`
//! and `fanout` one section each (`SIBLING_SECTIONS`) — and each must be
//! re-runnable without duplicating or clobbering the keys the others
//! wrote.  The workspace has no serde, so this module implements the one
//! operation they all need: replace or insert a single top-level key in a
//! JSON object document, leaving every other key byte-for-byte untouched.
//!
//! Unlike the brace-counting merge it replaces, the scanner here is
//! string-aware (braces inside string values don't confuse it) and
//! handles every JSON value shape — objects, arrays, strings, numbers,
//! and the literals — so sections can carry scalar values like
//! `"mode": "full"` at any nesting level.

/// Advances past a JSON string starting at the opening quote; returns the
/// index just past the closing quote.
fn skip_string(bytes: &[u8], mut i: usize) -> usize {
    debug_assert_eq!(bytes[i], b'"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Returns the exclusive end of the JSON value starting at `start`.
fn value_end(bytes: &[u8], start: usize) -> usize {
    match bytes.get(start) {
        Some(b'{') | Some(b'[') => {
            let mut depth = 0usize;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => i = skip_string(bytes, i),
                    b'{' | b'[' => {
                        depth += 1;
                        i += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        i += 1;
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => i += 1,
                }
            }
            i
        }
        Some(b'"') => skip_string(bytes, start),
        _ => {
            // Number or literal: runs to the next structural byte.
            let mut i = start;
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            i
        }
    }
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// The top-level keys of `doc` with the byte span of each entry: from the
/// key's opening quote to the exclusive end of its value.
pub fn top_level_entries(doc: &str) -> Vec<(String, usize, usize)> {
    let bytes = doc.as_bytes();
    let mut out = Vec::new();
    let mut i = skip_ws(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return out;
    }
    i = skip_ws(bytes, i + 1);
    while i < bytes.len() && bytes[i] == b'"' {
        let key_start = i;
        let key_end = skip_string(bytes, i);
        let key = doc[key_start + 1..key_end - 1].to_string();
        i = skip_ws(bytes, key_end);
        if bytes.get(i) != Some(&b':') {
            break;
        }
        i = skip_ws(bytes, i + 1);
        let vend = value_end(bytes, i);
        out.push((key, key_start, vend));
        i = skip_ws(bytes, vend);
        match bytes.get(i) {
            Some(b',') => i = skip_ws(bytes, i + 1),
            _ => break,
        }
    }
    out
}

/// The raw text of a top-level key's value, if present.
pub fn get_key<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    top_level_entries(doc).into_iter().find_map(|(k, start, end)| {
        if k == key {
            let bytes = doc.as_bytes();
            let key_end = skip_string(bytes, start);
            let mut i = skip_ws(bytes, key_end);
            i = skip_ws(bytes, i + 1); // past ':'
            Some(&doc[i..end])
        } else {
            None
        }
    })
}

/// Replaces the top-level `key` of `doc` with `value` (raw JSON text), or
/// inserts it before the closing brace, leaving every other key untouched.
/// A document that is not a JSON object is replaced wholesale.
pub fn set_key(doc: &str, key: &str, value: &str) -> String {
    let entry = format!("\"{key}\": {value}");
    if let Some((_, start, end)) = top_level_entries(doc)
        .into_iter()
        .find(|(k, _, _)| k == key)
    {
        return format!("{}{}{}", &doc[..start], entry, &doc[end..]);
    }
    let entries = top_level_entries(doc);
    match doc.rfind('}') {
        Some(close) if doc.trim_start().starts_with('{') => {
            let head = doc[..close].trim_end();
            let sep = if entries.is_empty() { "" } else { "," };
            format!("{head}{sep}\n  {entry}\n}}\n")
        }
        _ => format!("{{\n  {entry}\n}}\n"),
    }
}

/// The sections sibling binaries own: what `chaos_soak`, `load` and
/// `fanout` each `set_key` into the report.
const SIBLING_SECTIONS: [&str; 3] = ["chaos_soak", "reactor_scaling", "fanout_scaling"];

/// Carries the `SIBLING_SECTIONS` of `existing` that `new_doc` does not
/// produce into `new_doc` — how `report` keeps them across its full
/// rewrites.  Every other key of `existing` is dropped: a section `report`
/// stopped writing must not come back from the old file.
pub fn preserve_missing(new_doc: &str, existing: &str) -> String {
    let mut out = new_doc.to_string();
    for key in SIBLING_SECTIONS {
        if get_key(new_doc, key).is_none() {
            if let Some(value) = get_key(existing, key) {
                out = set_key(&out, key, value);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"mode\": \"full\",\n  \"n\": 3,\n  \"arr\": [1, {\"x\": \"}]\"}],\n  \"obj\": {\"a\": [true, null]}\n}\n";

    #[test]
    fn entries_see_every_key_despite_braces_in_strings() {
        let keys: Vec<String> = top_level_entries(DOC).into_iter().map(|e| e.0).collect();
        assert_eq!(keys, ["mode", "n", "arr", "obj"]);
    }

    #[test]
    fn get_key_returns_raw_value_text() {
        assert_eq!(get_key(DOC, "mode"), Some("\"full\""));
        assert_eq!(get_key(DOC, "n"), Some("3"));
        assert_eq!(get_key(DOC, "obj"), Some("{\"a\": [true, null]}"));
        assert_eq!(get_key(DOC, "absent"), None);
    }

    #[test]
    fn set_key_replaces_scalar_without_touching_neighbors() {
        let out = set_key(DOC, "n", "4");
        assert!(out.contains("\"n\": 4"));
        assert!(out.contains("\"arr\": [1, {\"x\": \"}]\"}]"));
        assert_eq!(get_key(&out, "mode"), Some("\"full\""));
    }

    #[test]
    fn set_key_inserts_into_empty_and_populated_objects() {
        let out = set_key("{\n}\n", "a", "1");
        assert_eq!(get_key(&out, "a"), Some("1"));
        let out = set_key(&out, "b", "{\"c\": 2}");
        assert_eq!(get_key(&out, "a"), Some("1"));
        assert_eq!(get_key(&out, "b"), Some("{\"c\": 2}"));
    }

    #[test]
    fn set_key_is_idempotent() {
        let once = set_key(DOC, "chaos_soak", "{\"levels\": []}");
        let twice = set_key(&once, "chaos_soak", "{\"levels\": []}");
        assert_eq!(once, twice);
    }

    #[test]
    fn preserve_missing_carries_foreign_sections() {
        let old = set_key(DOC, "chaos_soak", "{\"levels\": [1, 2]}");
        let old = set_key(&old, "fanout_scaling", "{\"rows\": []}");
        let new_doc = "{\n  \"mode\": \"smoke\",\n  \"n\": 9\n}\n";
        let merged = preserve_missing(new_doc, &old);
        assert_eq!(get_key(&merged, "mode"), Some("\"smoke\""));
        assert_eq!(get_key(&merged, "n"), Some("9"));
        assert_eq!(get_key(&merged, "chaos_soak"), Some("{\"levels\": [1, 2]}"));
        assert_eq!(get_key(&merged, "fanout_scaling"), Some("{\"rows\": []}"));
        // `arr` stands for a section `report` once wrote and retired: the
        // old file must not bring it back.
        assert_eq!(get_key(&merged, "arr"), None);
        assert_eq!(get_key(&merged, "obj"), None);
    }
}
