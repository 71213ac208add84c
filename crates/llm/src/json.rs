//! Minimal JSON: value model, parser, emitter, and fence extraction.
//!
//! Cocoon's detection prompts ask the model to "respond in JSON" inside a
//! code fence (Figure 2). This module parses those responses — including
//! the fence-wrapped and slightly-sloppy variants real models produce — and
//! emits the JSON context blocks our prompts embed.

use crate::error::{LlmError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order via `BTreeMap` — fine for
/// our payloads, which never rely on duplicate or ordered keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; keys sorted by `BTreeMap`.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// Builds an object from pairs.
    pub fn object<I: IntoIterator<Item = (String, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => f.write_str(&escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes a string as a JSON string literal — the table crate's escaper,
/// re-exported so every JSON writer in the workspace escapes one way.
pub use cocoon_table::json::escape;

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Json> {
    let chars: Vec<char> = input.chars().collect();
    let mut p = JsonParser { chars, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(p.err("trailing content"));
    }
    Ok(value)
}

/// Extracts and parses the first JSON object/array found in `text`,
/// tolerating markdown fences and surrounding prose — the robustness layer
/// every real LLM client needs.
pub fn extract(text: &str) -> Result<Json> {
    // Prefer fenced blocks.
    if let Some(inner) = fenced_block(text, &["json", ""]) {
        if let Ok(v) = parse(inner.trim()) {
            return Ok(v);
        }
    }
    // Otherwise scan for the first balanced {...} or [...].
    let chars: Vec<char> = text.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '{' || c == '[' {
            let mut p = JsonParser { chars: chars.clone(), pos: i };
            if let Ok(v) = p.value() {
                return Ok(v);
            }
        }
    }
    Err(LlmError::Malformed { expected: "json", detail: preview(text) })
}

/// Returns the body of the first ``` fence whose info string matches one of
/// `langs` (empty string = bare fence).
pub fn fenced_block<'a>(text: &'a str, langs: &[&str]) -> Option<&'a str> {
    let mut search_from = 0usize;
    while let Some(start) = text[search_from..].find("```") {
        let start = search_from + start + 3;
        let line_end = text[start..].find('\n').map(|i| start + i)?;
        let info = text[start..line_end].trim();
        let body_start = line_end + 1;
        let end = text[body_start..].find("```").map(|i| body_start + i)?;
        if langs.iter().any(|l| info.eq_ignore_ascii_case(l)) {
            return Some(&text[body_start..end]);
        }
        search_from = end + 3;
    }
    None
}

fn preview(text: &str) -> String {
    let trimmed = text.trim();
    let mut out: String = trimmed.chars().take(80).collect();
    if trimmed.chars().count() > 80 {
        out.push('…');
    }
    out
}

struct JsonParser {
    chars: Vec<char>,
    pos: usize,
}

impl JsonParser {
    fn err(&self, message: &str) -> LlmError {
        LlmError::Malformed { expected: "json", detail: format!("{message} at {}", self.pos) }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::String(self.string()?)),
            Some('t') => self.keyword("true", Json::Bool(true)),
            Some('f') => self.keyword("false", Json::Bool(false)),
            Some('n') => self.keyword("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        for expected in word.chars() {
            if self.peek() != Some(expected) {
                return Err(self.err("bad keyword"));
            }
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-')
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Json::Number).map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String> {
        debug_assert_eq!(self.peek(), Some('"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('b') => out.push('\u{8}'),
                        Some('f') => out.push('\u{c}'),
                        Some('u') => {
                            let hex: String =
                                self.chars.iter().skip(self.pos + 1).take(4).collect();
                            if hex.len() != 4 {
                                return Err(self.err("bad \\u escape"));
                            }
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.pos += 1; // '{'
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some('"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                    // tolerate trailing comma (models emit them)
                    self.skip_ws();
                    if self.peek() == Some('}') {
                        self.pos += 1;
                        return Ok(Json::Object(members));
                    }
                }
                Some('}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            let value = self.value()?;
            items.push(value);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(']') {
                        self.pos += 1;
                        return Ok(Json::Array(items));
                    }
                }
                Some(']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5").unwrap(), Json::Number(-2.5));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::String("hi\n".into()));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap(), &Json::Null);
    }

    #[test]
    fn tolerates_trailing_commas() {
        assert!(parse(r#"{"a": 1,}"#).is_ok());
        assert!(parse(r#"[1, 2,]"#).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::String("é".into()));
    }

    #[test]
    fn display_round_trips() {
        let v = parse(r#"{"name": "o\"brien", "n": 3, "ok": true, "xs": [1.5, null]}"#).unwrap();
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn extract_from_fence() {
        let text =
            "Sure! Here's the result:\n```json\n{\"Unusualness\": true}\n```\nHope that helps.";
        let v = extract(text).unwrap();
        assert_eq!(v.get("Unusualness").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn extract_from_bare_fence_and_prose() {
        let text = "```\n{\"a\": 1}\n```";
        assert!(extract(text).is_ok());
        let text = "The answer is {\"a\": [1,2,3]} as requested.";
        assert_eq!(extract(text).unwrap().get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn extract_failure() {
        assert!(extract("no json here at all").is_err());
    }

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
