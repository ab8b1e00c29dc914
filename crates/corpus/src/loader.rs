//! Corpus loaders for user-supplied data.
//!
//! Two formats are supported:
//!
//! * **Plain text**: one document per line ([`load_lines`]) or one document
//!   per blank-line-separated paragraph block ([`load_paragraphs`]).
//! * **JSON lines**: one JSON object per line with a `"text"` field and an
//!   optional `"facets"` object of string key/values ([`load_jsonl`]).
//!
//! These make it possible to run the full pipeline on the *real* Reuters or
//! PubMed collections if the user has them; the repository itself ships only
//! synthetic statistical stand-ins (see the [crate] docs).

use crate::corpus::{Corpus, CorpusBuilder};
use crate::token::TokenizerConfig;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Errors produced by the loaders.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A JSONL line failed to parse; carries the 1-based line number.
    Json { line: usize, message: String },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Json { line, message } => {
                write!(f, "invalid json on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Json { .. } => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Loads a corpus treating each non-empty line of `reader` as one document.
pub fn load_lines_from<R: Read>(
    reader: R,
    tokenizer: TokenizerConfig,
) -> Result<Corpus, LoadError> {
    let mut builder = CorpusBuilder::new(tokenizer);
    let mut br = BufReader::new(reader);
    let mut line = String::new();
    while br.read_line(&mut line)? != 0 {
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            builder.add_text(trimmed);
        }
        line.clear();
    }
    Ok(builder.build())
}

/// Loads a line-per-document corpus from a file path.
pub fn load_lines<P: AsRef<Path>>(
    path: P,
    tokenizer: TokenizerConfig,
) -> Result<Corpus, LoadError> {
    load_lines_from(File::open(path)?, tokenizer)
}

/// Loads a corpus where documents are separated by blank lines.
pub fn load_paragraphs_from<R: Read>(
    reader: R,
    tokenizer: TokenizerConfig,
) -> Result<Corpus, LoadError> {
    let mut builder = CorpusBuilder::new(tokenizer);
    let mut br = BufReader::new(reader);
    let mut line = String::new();
    let mut paragraph = String::new();
    loop {
        let n = br.read_line(&mut line)?;
        let end_of_input = n == 0;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            if !paragraph.is_empty() {
                builder.add_text(&paragraph);
                paragraph.clear();
            }
            if end_of_input {
                break;
            }
        } else {
            if !paragraph.is_empty() {
                paragraph.push(' ');
            }
            paragraph.push_str(trimmed);
        }
        line.clear();
    }
    Ok(builder.build())
}

/// Loads a paragraph-per-document corpus from a file path.
pub fn load_paragraphs<P: AsRef<Path>>(
    path: P,
    tokenizer: TokenizerConfig,
) -> Result<Corpus, LoadError> {
    load_paragraphs_from(File::open(path)?, tokenizer)
}

struct JsonDoc {
    text: String,
    facets: std::collections::BTreeMap<String, String>,
}

/// Loads a JSONL corpus: one `{"text": ..., "facets": {...}}` object per line.
pub fn load_jsonl_from<R: Read>(
    reader: R,
    tokenizer: TokenizerConfig,
) -> Result<Corpus, LoadError> {
    let mut builder = CorpusBuilder::new(tokenizer);
    let mut br = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    while br.read_line(&mut line)? != 0 {
        lineno += 1;
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            let doc: JsonDoc = parse_json_doc(trimmed).map_err(|message| LoadError::Json {
                line: lineno,
                message,
            })?;
            let facets: Vec<(&str, &str)> = doc
                .facets
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            builder.add_text_with_facets(&doc.text, &facets);
        }
        line.clear();
    }
    Ok(builder.build())
}

/// Loads a JSONL corpus from a file path.
pub fn load_jsonl<P: AsRef<Path>>(
    path: P,
    tokenizer: TokenizerConfig,
) -> Result<Corpus, LoadError> {
    load_jsonl_from(File::open(path)?, tokenizer)
}

/// Minimal JSON-object parser for `JsonDoc`.
///
/// The workspace deliberately keeps `serde_json` out of the library crates
/// (it is used only by the experiment harness); this hand-rolled parser
/// accepts the small `{"text": "...", "facets": {"k": "v"}}` subset the
/// loader documents, with standard JSON string escapes.
fn parse_json_doc(s: &str) -> Result<JsonDoc, String> {
    let mut p = MiniJson {
        s: s.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut text: Option<String> = None;
    let mut facets = std::collections::BTreeMap::new();
    loop {
        p.skip_ws();
        if p.peek() == Some(b'}') {
            break;
        }
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "text" => text = Some(p.parse_string()?),
            "facets" => {
                p.expect(b'{')?;
                loop {
                    p.skip_ws();
                    if p.peek() == Some(b'}') {
                        p.i += 1;
                        break;
                    }
                    let fk = p.parse_string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    let fv = p.parse_string()?;
                    facets.insert(fk, fv);
                    p.skip_ws();
                    if p.peek() == Some(b',') {
                        p.i += 1;
                    }
                }
            }
            _ => p.skip_value()?,
        }
        p.skip_ws();
        if p.peek() == Some(b',') {
            p.i += 1;
        }
    }
    Ok(JsonDoc {
        text: text.ok_or_else(|| "missing \"text\" field".to_owned())?,
        facets,
    })
}

struct MiniJson<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> MiniJson<'a> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.s.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|b| b as char))),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy a UTF-8 scalar; find its byte length from the lead byte.
                    let start = self.i;
                    let lead = self.s[start];
                    let len = if lead < 0x80 {
                        1
                    } else if lead >> 5 == 0b110 {
                        2
                    } else if lead >> 4 == 0b1110 {
                        3
                    } else {
                        4
                    };
                    let end = (start + len).min(self.s.len());
                    let chunk = std::str::from_utf8(&self.s[start..end])
                        .map_err(|_| "invalid utf-8".to_owned())?;
                    out.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    /// Skips any JSON value (used for unknown keys).
    fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.parse_string()?;
                Ok(())
            }
            Some(b'{') | Some(b'[') => {
                let open = self.peek().unwrap();
                let close = if open == b'{' { b'}' } else { b']' };
                self.i += 1;
                let mut depth = 1;
                while depth > 0 {
                    match self.peek() {
                        None => return Err("unterminated value".into()),
                        Some(b'"') => {
                            self.parse_string()?;
                        }
                        Some(c) if c == open => {
                            depth += 1;
                            self.i += 1;
                        }
                        Some(c) if c == close => {
                            depth -= 1;
                            self.i += 1;
                        }
                        Some(_) => self.i += 1,
                    }
                }
                Ok(())
            }
            _ => {
                // number / true / false / null: consume until delimiter
                while let Some(c) = self.peek() {
                    if matches!(c, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                        break;
                    }
                    self.i += 1;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn load_lines_skips_blank_lines() {
        let input = "first doc here\n\nsecond doc here\n   \n";
        let c = load_lines_from(Cursor::new(input), TokenizerConfig::default()).unwrap();
        assert_eq!(c.num_docs(), 2);
    }

    #[test]
    fn load_paragraphs_merges_wrapped_lines() {
        let input = "line one of doc\nline two of doc\n\nsecond document\n";
        let c = load_paragraphs_from(Cursor::new(input), TokenizerConfig::default()).unwrap();
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.doc(crate::ids::DocId(0)).unwrap().len(), 8);
    }

    #[test]
    fn load_paragraphs_without_trailing_newline() {
        let input = "alpha beta\n\ngamma";
        let c = load_paragraphs_from(Cursor::new(input), TokenizerConfig::default()).unwrap();
        assert_eq!(c.num_docs(), 2);
    }

    #[test]
    fn load_jsonl_with_facets() {
        let input = r#"{"text": "query optimization", "facets": {"venue": "sigmod", "year": "1997"}}
{"text": "trade reserves"}
"#;
        let c = load_jsonl_from(Cursor::new(input), TokenizerConfig::default()).unwrap();
        assert_eq!(c.num_docs(), 2);
        let f = c.facet_id("venue:sigmod").unwrap();
        assert!(c.doc(crate::ids::DocId(0)).unwrap().has_facet(f));
        assert!(c.facet_id("year:1997").is_some());
        assert!(c.doc(crate::ids::DocId(1)).unwrap().facets.is_empty());
    }

    #[test]
    fn load_jsonl_ignores_unknown_fields() {
        let input = r#"{"id": 17, "score": 0.5, "nested": {"a": [1, 2, {"b": "c"}]}, "text": "hello world"}"#;
        let c = load_jsonl_from(Cursor::new(input), TokenizerConfig::default()).unwrap();
        assert_eq!(c.num_docs(), 1);
        assert!(c.word_id("hello").is_some());
    }

    #[test]
    fn load_jsonl_reports_line_numbers_on_error() {
        let input = "{\"text\": \"ok\"}\n{\"no_text\": 1}\n";
        let err = load_jsonl_from(Cursor::new(input), TokenizerConfig::default()).unwrap_err();
        match err {
            LoadError::Json { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Json error, got {other}"),
        }
    }

    #[test]
    fn load_jsonl_string_escapes() {
        let input = r#"{"text": "a \"quoted\" word\nand a é"}"#;
        let c = load_jsonl_from(Cursor::new(input), TokenizerConfig::default()).unwrap();
        assert!(c.word_id("quoted").is_some());
        assert!(c.word_id("é").is_some());
    }

    #[test]
    fn error_display() {
        let e = LoadError::Json {
            line: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "invalid json on line 3: boom");
    }
}
