//! Allowlist directives.
//!
//! A violation can be suppressed by a trailing comment on the same line:
//!
//! ```text
//! let v = xs.last().expect("pushed above"); // lint: allow(L1): len checked two lines up
//! ```
//!
//! or, when the line is too long for a trailing comment, by a standalone
//! directive on the line directly above the violation:
//!
//! ```text
//! // lint: allow(L1): documented precondition; see # Panics
//! .unwrap_or_else(|| panic!("select: unknown channel {name:?}"));
//! ```
//!
//! The justification after the second colon is mandatory (rule `A0`) and a
//! directive that suppresses nothing is itself a violation (rule `A1`), so
//! the allowlist cannot rot silently. One directive may cover several rules:
//! `// lint: allow(L1, L3): ...`.

use crate::lexer::{Token, TokenKind};

/// Rules a directive may name.
pub const KNOWN_RULES: &[&str] = &[
    "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14",
];

/// One parsed `// lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Line the directive (and therefore the code it excuses) sits on.
    pub line: usize,
    /// Rule IDs the directive covers, e.g. `["L1"]`.
    pub rules: Vec<String>,
    /// Free-text justification; empty string if the author omitted it.
    pub justification: String,
    /// Set when the directive actually suppressed a finding.
    pub used: bool,
    /// Set when the directive text could not be parsed.
    pub malformed: bool,
    /// True when the directive is the only thing on its line; it then
    /// applies to the next line instead.
    pub standalone: bool,
}

impl AllowDirective {
    /// Whether this directive excuses rule `rule` on line `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        if self.malformed || !self.rules.iter().any(|r| r == rule) {
            return false;
        }
        if self.standalone {
            line == self.line + 1
        } else {
            line == self.line
        }
    }
}

/// Extracts directives from the comment tokens of a file.
pub fn parse_allows(tokens: &[Token]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let standalone = !tokens
            .iter()
            .any(|o| !o.is_comment() && o.line == t.line);
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow") else {
            out.push(malformed(t.line, standalone));
            continue;
        };
        let rest = rest.trim_start();
        let (Some(open), Some(close)) = (rest.find('('), rest.find(')')) else {
            out.push(malformed(t.line, standalone));
            continue;
        };
        if open != 0 || close < open {
            out.push(malformed(t.line, standalone));
            continue;
        }
        let rules: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let bad_rule = rules.is_empty() || rules.iter().any(|r| !KNOWN_RULES.contains(&r.as_str()));
        if bad_rule {
            out.push(malformed(t.line, standalone));
            continue;
        }
        let tail = rest[close + 1..].trim();
        let justification = tail.strip_prefix(':').map(str::trim).unwrap_or("").to_string();
        out.push(AllowDirective {
            line: t.line,
            rules,
            justification,
            used: false,
            malformed: false,
            standalone,
        });
    }
    out
}

fn malformed(line: usize, standalone: bool) -> AllowDirective {
    AllowDirective {
        line,
        rules: Vec::new(),
        justification: String::new(),
        used: false,
        malformed: true,
        standalone,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn parses_single_rule_with_justification() {
        let toks = tokenize("let x = 1; // lint: allow(L1): invariant held by caller\n");
        let allows = parse_allows(&toks);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rules, vec!["L1"]);
        assert_eq!(allows[0].justification, "invariant held by caller");
        assert!(!allows[0].malformed);
    }

    #[test]
    fn parses_multi_rule() {
        let toks = tokenize("// lint: allow(L1, L3): panicking wrapper, try_ twin exists\n");
        let allows = parse_allows(&toks);
        assert_eq!(allows[0].rules, vec!["L1", "L3"]);
    }

    #[test]
    fn missing_justification_is_empty() {
        let toks = tokenize("// lint: allow(L2)\n");
        let allows = parse_allows(&toks);
        assert!(allows[0].justification.is_empty());
        assert!(!allows[0].malformed);
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let toks = tokenize("// lint: allow(L99): nope\n");
        assert!(parse_allows(&toks)[0].malformed);
    }

    #[test]
    fn unrelated_comments_are_ignored() {
        let toks = tokenize("// just a comment mentioning allow(L1)\n/// doc lint: allow(L1): x\n");
        assert!(parse_allows(&toks).is_empty());
    }
}
