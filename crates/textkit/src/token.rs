//! Token types produced by the tokenizer.

use std::fmt;
use std::ops::Range;

/// Coarse lexical class of a token, decided by the tokenizer from surface
/// form alone (no context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (may contain internal hyphens or apostrophes,
    /// e.g. `beta-blocker`, `l'hépatite`).
    Word,
    /// A number, possibly with decimal point or sign (`12`, `3.5`).
    Number,
    /// Mixed alphanumeric identifier (`p53`, `COVID-19`).
    Alphanumeric,
    /// A single punctuation character.
    Punctuation,
    /// Anything else (symbols, emoji, stray bytes).
    Other,
}

/// A token: a slice of the source text plus its classification.
///
/// The surface form is stored owned (tokens outlive the source buffer in
/// the corpus pipeline); `span` records where in the original text the
/// token came from so callers can recover the raw surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalized surface form (lower-cased, accents preserved).
    pub text: String,
    /// Byte range in the source string.
    pub span: Range<usize>,
    /// Lexical class.
    pub kind: TokenKind,
}

impl Token {
    /// Construct a token.
    pub fn new(text: impl Into<String>, span: Range<usize>, kind: TokenKind) -> Self {
        Token {
            text: text.into(),
            span,
            kind,
        }
    }

    /// Length of the normalized form in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True if the normalized form is empty (never produced by the
    /// tokenizer; exists for completeness).
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_display_and_len() {
        let t = Token::new("hepatitis", 0..9, TokenKind::Word);
        assert_eq!(t.to_string(), "hepatitis");
        assert_eq!(t.len(), 9);
        assert!(!t.is_empty());
    }
}
