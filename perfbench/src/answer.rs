//! Reading a served SPARQL-JSON answer back into the oracle's terms.
//!
//! A small JSON reader of the benchmark's own turns the response body into
//! its head variables and a [`Digest`] of its rows, built from the same row
//! keys the oracle uses, so the comparison never goes through the engine's
//! own types.

use crate::oracle::{row_key_push, Digest};

/// What the benchmark compares: the head variables and the rows' digest.
#[derive(Debug, PartialEq, Eq)]
pub struct Answer {
    pub vars: Vec<String>,
    pub digest: Digest,
}

/// Expected answer of one request.
pub enum Expected {
    /// The oracle's digest.
    Rows(Digest),
    /// Only the row count is known (a closed-form count).
    Count(u64),
}

/// Checks a SPARQL-JSON body against `vars` and `expected`; the error names
/// the first difference.
pub fn check(body: &[u8], vars: &[&str], expected: &Expected) -> Result<(), String> {
    let answer = parse(body)?;
    if answer.vars != vars {
        return Err(format!("head vars {:?}, expected {vars:?}", answer.vars));
    }
    match expected {
        Expected::Rows(digest) if answer.digest != *digest => Err(format!(
            "wrong rows: {} served, {} expected, or same count with other content",
            answer.digest.rows, digest.rows
        )),
        Expected::Count(n) if answer.digest.rows != *n => {
            Err(format!("{} rows served, {n} expected", answer.digest.rows))
        }
        _ => Ok(()),
    }
}

/// Parses a SPARQL 1.1 Query Results JSON document.
pub fn parse(body: &[u8]) -> Result<Answer, String> {
    let mut r = Reader { b: body, i: 0 };
    let doc = r.value()?;
    r.ws();
    if r.i != body.len() {
        return Err(format!("trailing bytes at {}", r.i));
    }
    let vars = doc
        .get("head")
        .and_then(|h| h.get("vars"))
        .and_then(Json::array)
        .ok_or("missing head.vars")?
        .iter()
        .map(|v| v.string().map(str::to_string).ok_or("non-string var"))
        .collect::<Result<Vec<_>, _>>()?;
    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::array)
        .ok_or("missing results.bindings")?;
    let mut digest = Digest::default();
    let mut key = String::new();
    for row in bindings {
        key.clear();
        for var in &vars {
            let value = row.get(var).ok_or_else(|| format!("unbound ?{var}"))?;
            let field = |name: &str| value.get(name).and_then(Json::string).unwrap_or("");
            row_key_push(
                &mut key,
                field("type"),
                field("value"),
                field("xml:lang"),
                field("datatype"),
            );
        }
        digest.add(&key);
    }
    Ok(Answer { vars, digest })
}

enum Json {
    Null,
    Bool,
    Number,
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn string(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool),
            Some(b'f') => self.word("false", Json::Bool),
            Some(b'n') => self.word("null", Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                Ok(Json::Number)
            }
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_bindings_into_row_keys() {
        let body = br#"{"head":{"vars":["X","N"]},"results":{"bindings":[
            {"X":{"type":"uri","value":"http://a"},"N":{"type":"literal","value":"a\"b\u00e9"}}]}}"#;
        let answer = parse(body).unwrap();
        assert_eq!(answer.vars, ["X", "N"]);
        let mut key = String::new();
        row_key_push(&mut key, "uri", "http://a", "", "");
        row_key_push(&mut key, "literal", "a\"b\u{e9}", "", "");
        let mut digest = Digest::default();
        digest.add(&key);
        assert_eq!(answer.digest, digest);
        assert!(check(body, &["X", "N"], &Expected::Rows(digest)).is_ok());
        assert!(check(body, &["X"], &Expected::Rows(digest)).is_err());
        assert!(check(body, &["X", "N"], &Expected::Count(2)).is_err());
    }

    #[test]
    fn rejects_truncated_bodies() {
        assert!(parse(br#"{"head":{"vars":["X"]},"results":{"bindings":[{"X""#).is_err());
        assert!(parse(b"{}").is_err());
    }
}
