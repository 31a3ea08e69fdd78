//! A minimal, dependency-free JSON parser into [`JsonValue`].
//!
//! The writer half lives in [`crate::json`]; this is the read half, added
//! so tools can consume their own artifacts (e.g. the benchmark harness
//! re-reading a previous `BENCH_sweep.json` to order work by measured
//! cost) without a registry dependency. It accepts standard JSON; numbers
//! without a fraction, exponent or sign parse as [`JsonValue::U64`] and
//! everything else numeric as [`JsonValue::F64`], mirroring what the
//! writer distinguishes.

use crate::json::JsonValue;

/// Deepest array/object nesting [`parse_json`] accepts. The parser recurses
/// once per level, so the cap bounds its stack use on any input; it sits
/// far above anything the workspace's writers emit.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Returns a message with a byte offset on error;
/// trailing non-whitespace after the top-level value, and nesting deeper
/// than [`MAX_DEPTH`], are errors.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Parse one value nested inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn nesting(&self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.nesting(depth)?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.nesting(depth)?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character. `pos` only ever
                    // steps over whole characters, so it is a boundary, and
                    // decoding from `text` costs O(1) per character: a
                    // long string parses in linear time.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The four hex digits after `\u`, combining a surrogate pair when one
    /// follows. Leaves `pos` after the consumed digits.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&unit) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(format!("bad low surrogate before byte {}", self.pos));
                }
                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
            } else {
                return Err(format!("lone surrogate before byte {}", self.pos));
            }
        } else {
            unit
        };
        char::from_u32(code).ok_or_else(|| format!("bad code point before byte {}", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let s = std::str::from_utf8(digits).map_err(|_| "invalid UTF-8".to_owned())?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid UTF-8".to_owned())?;
        if integral && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_writer_emits() {
        let v = JsonValue::obj()
            .set("id", "fig4")
            .set("xs", vec![1.0, 2.5])
            .set("n", 3u64)
            .set("neg", JsonValue::F64(-3.25))
            .set("ok", true)
            .set("nothing", JsonValue::Null)
            .set("empty", JsonValue::Arr(vec![]))
            .set("nested", JsonValue::obj().set("s", "a\"b\\c\nd"));
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse_json(&text), Ok(v.clone()), "{text}");
        }
    }

    #[test]
    fn integers_and_floats_keep_their_types() {
        assert_eq!(parse_json("7"), Ok(JsonValue::U64(7)));
        assert_eq!(parse_json("7.0"), Ok(JsonValue::F64(7.0)));
        assert_eq!(parse_json("-7"), Ok(JsonValue::F64(-7.0)));
        assert_eq!(parse_json("1e3"), Ok(JsonValue::F64(1000.0)));
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        assert_eq!(
            parse_json(r#""Aé😀""#),
            Ok(JsonValue::Str("Aé😀".to_owned()))
        );
        let escaped = "\"\\u0041\\u00e9\\ud83d\\ude00\"";
        assert_eq!(parse_json(escaped), Ok(JsonValue::Str("Aé😀".to_owned())));
    }

    #[test]
    fn malformed_documents_are_rejected_with_an_offset() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"x", "1 2", "[1] x"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn a_line_long_string_parses_in_one_pass() {
        // About 1 MiB, the server's request line cap, of mixed-width
        // characters.
        let body = "aé😀".repeat(150_000);
        let parsed = parse_json(&format!("[\"{body}\"]"));
        assert_eq!(parsed, Ok(JsonValue::Arr(vec![JsonValue::Str(body)])));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // A 100 KB line of '[' fails instead of recursing 100 000 levels.
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting too deep at byte"), "{err}");
        let nest = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(parse_json(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse_json(&nest("[{\"a\":", "}]", MAX_DEPTH / 2)).is_ok());
        assert!(parse_json(&nest("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&nest("{\"a\":", "}", MAX_DEPTH + 1)).is_err());
    }
}
