//! The workspace's one JSON reader, and the string escaping its writers use.
//!
//! Every document the workspace reads back is one it wrote by hand (no
//! serde in tree): solve checkpoints ([`crate::fault::SolveCheckpoint`]),
//! the committed cost baseline and the `solve_taillard` perf reports. They
//! are all read through [`Json::parse`], which accepts exactly the subset
//! those writers emit: objects, arrays, `null`, `true`/`false`, unsigned
//! integers, unsigned decimal fractions (the reports print `{:.1}` through
//! `{:.6}`) and strings with the escapes [`escape`] produces. Anything else
//! — a repeated object key, a truncated document, trailing bytes, nesting
//! deeper than 32 levels — is an `Err` with a human-readable reason, never
//! a panic.

use std::fmt::Write as _;

/// Deepest nesting of objects and arrays [`Json::parse`] accepts. The
/// writers nest at most five levels; the cap keeps a hostile document from
/// exhausting the stack.
const MAX_DEPTH: usize = 32;

/// One parsed JSON value. Objects keep their keys in document order, and
/// every key appears once.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer (no fraction part).
    Int(u64),
    /// An unsigned decimal fraction (`digits.digits`).
    Float(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(key, value)` pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value(0)?;
        match parser.peek() {
            None => Ok(value),
            Some(_) => Err(format!("trailing characters at byte {}", parser.pos)),
        }
    }

    /// The entries of an object; `what` names the value in the error.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(entries) => Ok(entries),
            _ => Err(format!("{what} is not a JSON object")),
        }
    }

    /// The items of an array.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what} is not a JSON array")),
        }
    }

    /// The text of a string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what} is not a JSON string")),
        }
    }

    /// The value of a boolean.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what} is not true or false")),
        }
    }

    /// An unsigned integer, converted to `T` (`u64`, `usize`, `fsp::Time`,
    /// …); a value `T` cannot hold is an error.
    pub fn as_int<T: TryFrom<u64>>(&self, what: &str) -> Result<T, String> {
        match self {
            Json::Int(n) => T::try_from(*n).map_err(|_| format!("{what} is out of range: {n}")),
            _ => Err(format!("{what} is not an unsigned integer")),
        }
    }

    /// The value of a decimal fraction.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Float(x) => Ok(*x),
            _ => Err(format!("{what} is not a decimal fraction")),
        }
    }
}

/// The value of field `name` of an object, if present.
pub fn get_opt<'a>(obj: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// The value of field `name` of an object, or an error naming the missing
/// field.
pub fn get<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, String> {
    get_opt(obj, name).ok_or_else(|| format!("missing field {name:?}"))
}

/// Escapes `s` for embedding in a JSON string literal: `"`, `\`, `\n`,
/// `\r`, `\t`, and every other control character as `\u00XX`.
/// [`Json::parse`] reads each of these back.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// The next byte after any whitespace, left unconsumed.
    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(format!("expected {:?} at byte {}", byte as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// One value nested inside `depth` objects and arrays.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => {
                let mut entries: Vec<(String, Json)> = Vec::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    if get_opt(&entries, &key).is_some() {
                        return Err(format!("repeated key {key:?} before byte {}", p.pos));
                    }
                    p.expect(b':')?;
                    entries.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(entries))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected input at byte {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// The comma-separated items of the object or array whose opening
    /// bracket is next, through its `close` bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(format!("expected ',' or a bracket at byte {}", self.pos)),
                }
            }
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos - 1;
        let mut out = Vec::new();
        loop {
            let &b = self
                .bytes
                .get(self.pos)
                .ok_or_else(|| format!("unterminated string at byte {start}"))?;
            self.pos += 1;
            let c = match b {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))
                }
                b'\\' => self.escaped_char()?,
                _ => {
                    out.push(b);
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }

    /// The character an escape stands for, its backslash just consumed.
    fn escaped_char(&mut self) -> Result<char, String> {
        let bad = format!("invalid escape at byte {}", self.pos - 1);
        let &b = self.bytes.get(self.pos).ok_or_else(|| bad.clone())?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| bad.clone())?;
                self.pos += 4;
                std::str::from_utf8(hex)
                    .ok()
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                    .ok_or(bad)?
            }
            _ => return Err(bad),
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > from
        };
        digits(self);
        let fraction = self.bytes.get(self.pos) == Some(&b'.');
        if fraction {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("expected a digit at byte {}", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if fraction {
            Ok(Json::Float(text.parse().expect("digits.digits is an f64")))
        } else {
            text.parse()
                .map(Json::Int)
                .map_err(|_| format!("number at byte {start} overflows u64"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_value_kind_the_writers_emit() {
        let doc = Json::parse(
            " {\"n\": null, \"t\": true, \"f\": false, \"i\": 42, \"x\": 0.500000,\n\
             \"a\": [[524288, 2]], \"s\": \"x\", \"o\": {}} ",
        )
        .unwrap();
        let obj = doc.as_object("doc").unwrap();
        let field = |name| get(obj, name).unwrap();
        assert_eq!(field("n"), &Json::Null);
        assert_eq!(field("t").as_bool("t"), Ok(true));
        assert_eq!(field("f").as_bool("f"), Ok(false));
        assert_eq!(field("i").as_int::<u64>("i"), Ok(42));
        assert_eq!(field("x").as_f64("x"), Ok(0.5));
        assert!(field("x").as_int::<u64>("x").is_err() && field("i").as_f64("i").is_err());
        let pair = Json::Arr(vec![Json::Int(524288), Json::Int(2)]);
        assert_eq!(field("a").as_array("a").unwrap()[0], pair);
        assert_eq!(field("s").as_str("s"), Ok("x"));
        assert!(field("o").as_object("o").unwrap().is_empty());
        assert!(get(obj, "z").is_err() && get_opt(obj, "z").is_none());
        for (text, value) in [
            ("42825.3", 42825.3),
            ("0.9619", 0.9619),
            ("1.436581", 1.436581),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Float(value)));
        }
        let max = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max.as_int::<u64>("n"), Ok(u64::MAX));
        assert!(max.as_int::<u32>("n").is_err());
        assert!(Json::parse(&format!(
            "{}{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .is_ok());
        assert!(Json::parse("{\"a\": {\"a\": 1}}").is_ok());
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "ta \"001\"\\path\nline\r\ttab\u{1}\u{1f}é∑";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc), Ok(Json::Str(nasty.to_string())));
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(
            Json::parse("\"\\u00E9\\u0041\""),
            Ok(Json::Str("éA".into()))
        );
    }

    #[test]
    fn rejects_what_the_writers_never_emit() {
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        for bad in [
            // Truncations and stray bytes.
            "",
            " ",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1,]",
            "{a: 1}",
            "nul",
            "{} {}",
            // Numbers outside the subset.
            "1.",
            ".5",
            "-1",
            "1e5",
            "1.5.2",
            "18446744073709551616",
            // Repeated keys, at any depth.
            "{\"a\": 1, \"a\": 1}",
            "{\"rows\": [{\"job\": 1, \"b\": 2, \"job\": 3}]}",
            // Escapes `escape` never writes.
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "\"\\",
            // Nesting past the cap.
            &deep,
            &"[".repeat(1_000_000),
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:.40} must be rejected");
        }
    }
}
