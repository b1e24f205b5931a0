//! Recursive-descent parser for the fragment.

use crate::ast::{Axis, NodeTest, Path, Pred, Step};
use std::fmt;

/// Parse failure with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset in the query string.
    pub offset: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XPathError {}

/// Deepest nesting of predicate expressions (`[…]`, `not(…)`, `(…)`) the
/// parser accepts. Each level costs stack frames here and in every
/// recursive pass over the AST (rewrite, compile, plan, evaluate), so
/// without a cap one query string can overflow a thread's stack.
pub const MAX_PREDICATE_DEPTH: usize = 32;

/// Parses an XPath expression of the paper's fragment.
pub fn parse_xpath(input: &str) -> Result<Path, XPathError> {
    let mut p = P {
        s: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let path = p.path()?;
    p.ws();
    if p.pos != p.s.len() {
        return p.err("trailing input");
    }
    Ok(path)
}

struct P<'a> {
    s: &'a [u8],
    pos: usize,
    /// Predicate expressions currently open around `pos`.
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, XPathError> {
        Err(XPathError {
            offset: self.pos,
            message: m.into(),
        })
    }

    fn ws(&mut self) {
        while self
            .s
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, pat: &str) -> bool {
        if self.s[self.pos..].starts_with(pat.as_bytes()) {
            self.pos += pat.len();
            true
        } else {
            false
        }
    }

    /// Parses a full path. Handles leading `/` and `//`.
    fn path(&mut self) -> Result<Path, XPathError> {
        self.ws();
        let mut steps = Vec::new();
        let absolute;
        let mut next_axis; // axis implied by the last separator
        if self.eat("//") {
            absolute = true;
            next_axis = Axis::Descendant;
        } else if self.eat("/") {
            absolute = true;
            next_axis = Axis::Child;
        } else {
            absolute = false;
            next_axis = Axis::Child; // relative paths start with their own step
        }
        loop {
            let step = self.step(next_axis, steps.is_empty() && !absolute)?;
            steps.push(step);
            self.ws();
            if self.eat("//") {
                next_axis = Axis::Descendant;
            } else if self.eat("/") {
                next_axis = Axis::Child;
            } else {
                break;
            }
        }
        Ok(Path { absolute, steps })
    }

    /// Parses one step. `implied` is the axis implied by the preceding
    /// separator; `first_relative` marks the head of a relative path (where
    /// `.` and `.//` are meaningful and the implied axis is `child`).
    fn step(&mut self, implied: Axis, first_relative: bool) -> Result<Step, XPathError> {
        self.ws();
        // `..` — parent::node() abbreviation.
        if self.s[self.pos..].starts_with(b"..") {
            self.pos += 2;
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyNode,
                preds: self.predicates()?,
            });
        }
        // `.` — self step (only as the head of a relative path, e.g. `.//x`).
        if self.peek() == Some(b'.') && !self.s[self.pos..].starts_with(b"..") {
            if !first_relative && implied != Axis::Child {
                return self.err("`.` only allowed at the start of a relative path");
            }
            self.pos += 1;
            if !first_relative {
                return self.err("`.` only allowed at the start of a relative path");
            }
            return Ok(Step {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode,
                preds: self.predicates()?,
            });
        }
        // `@name` abbreviation.
        if self.eat("@") {
            let test = self.node_test()?;
            return Ok(Step {
                axis: Axis::Attribute,
                test,
                preds: self.predicates()?,
            });
        }
        // Explicit `axis::` prefix?
        let axis = self.explicit_axis()?.unwrap_or(implied);
        let test = self.node_test()?;
        Ok(Step {
            axis,
            test,
            preds: self.predicates()?,
        })
    }

    fn explicit_axis(&mut self) -> Result<Option<Axis>, XPathError> {
        for (name, axis) in [
            ("descendant::", Axis::Descendant),
            ("child::", Axis::Child),
            ("following-sibling::", Axis::FollowingSibling),
            ("attribute::", Axis::Attribute),
            ("self::", Axis::SelfAxis),
            ("parent::", Axis::Parent),
            ("ancestor::", Axis::Ancestor),
        ] {
            if self.eat(name) {
                return Ok(Some(axis));
            }
        }
        // A lone `foo::` with an unknown axis is an error, not a name.
        let rest = &self.s[self.pos..];
        if let Some(i) = rest.iter().position(|&c| !name_char(c)) {
            if rest[i..].starts_with(b"::") {
                return self.err("unknown axis");
            }
        }
        Ok(None)
    }

    fn node_test(&mut self) -> Result<NodeTest, XPathError> {
        self.ws();
        if self.eat("*") {
            return Ok(NodeTest::Star);
        }
        let name = self.name()?;
        self.ws();
        if self.eat("()") {
            return match name.as_str() {
                "node" => Ok(NodeTest::AnyNode),
                "text" => Ok(NodeTest::Text),
                _ => self.err(format!("unknown node test `{name}()`")),
            };
        }
        Ok(NodeTest::Name(name))
    }

    fn name(&mut self) -> Result<String, XPathError> {
        let start = self.pos;
        while self.peek().is_some_and(name_char) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn predicates(&mut self) -> Result<Vec<Pred>, XPathError> {
        let mut out = Vec::new();
        loop {
            self.ws();
            if !self.eat("[") {
                return Ok(out);
            }
            let p = self.nested()?;
            self.ws();
            if !self.eat("]") {
                return self.err("expected `]`");
            }
            out.push(p);
        }
    }

    /// Parses a predicate expression one nesting level deeper, refusing to
    /// go past [`MAX_PREDICATE_DEPTH`].
    fn nested(&mut self) -> Result<Pred, XPathError> {
        if self.depth == MAX_PREDICATE_DEPTH {
            return self.err(format!(
                "predicates nested deeper than {MAX_PREDICATE_DEPTH} levels"
            ));
        }
        self.depth += 1;
        let p = self.pred_or();
        self.depth -= 1;
        p
    }

    /// `or` has lowest precedence, then `and`, then atoms.
    fn pred_or(&mut self) -> Result<Pred, XPathError> {
        let mut left = self.pred_and()?;
        loop {
            self.ws();
            if self.keyword("or") {
                let right = self.pred_and()?;
                left = Pred::Or(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn pred_and(&mut self) -> Result<Pred, XPathError> {
        let mut left = self.pred_atom()?;
        loop {
            self.ws();
            if self.keyword("and") {
                let right = self.pred_atom()?;
                left = Pred::And(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    /// Matches a keyword followed by a non-name character.
    fn keyword(&mut self, kw: &str) -> bool {
        let end = self.pos + kw.len();
        if self.s[self.pos..].starts_with(kw.as_bytes())
            && !self.s.get(end).copied().is_some_and(name_char)
        {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn pred_atom(&mut self) -> Result<Pred, XPathError> {
        self.ws();
        // `contains(text(), 'lit')`.
        if self.keyword("contains") {
            self.ws();
            if !self.eat("(") {
                return self.err("expected `(` after contains");
            }
            self.ws();
            if !self.eat("text()") {
                return self.err("contains() supports text() as first argument");
            }
            self.ws();
            if !self.eat(",") {
                return self.err("expected `,`");
            }
            let lit = self.string_literal()?;
            self.ws();
            if !self.eat(")") {
                return self.err("expected `)`");
            }
            return Ok(Pred::TextContains(lit));
        }
        // `text() = 'lit'` (plain `text()` existence is a Path atom).
        if self.s[self.pos..].starts_with(b"text()") {
            let save = self.pos;
            self.pos += "text()".len();
            self.ws();
            if self.eat("=") {
                let lit = self.string_literal()?;
                return Ok(Pred::TextEq(lit));
            }
            self.pos = save; // fall through to the path atom
        }
        if self.keyword("not") {
            self.ws();
            if !self.eat("(") {
                return self.err("expected `(` after not");
            }
            let inner = self.nested()?;
            self.ws();
            if !self.eat(")") {
                return self.err("expected `)`");
            }
            return Ok(Pred::Not(Box::new(inner)));
        }
        if self.eat("(") {
            let inner = self.nested()?;
            self.ws();
            if !self.eat(")") {
                return self.err("expected `)`");
            }
            return Ok(inner);
        }
        Ok(Pred::Path(self.path()?))
    }
}

impl<'a> P<'a> {
    /// A single- or double-quoted string literal.
    fn string_literal(&mut self) -> Result<String, XPathError> {
        self.ws();
        let quote = match self.peek() {
            Some(q @ (b'\'' | b'"')) => q,
            _ => return self.err("expected a quoted string literal"),
        };
        self.pos += 1;
        let start = self.pos;
        while self.peek().is_some_and(|c| c != quote) {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return self.err("unterminated string literal");
        }
        let out = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.pos += 1;
        Ok(out)
    }
}

fn name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        parse_xpath(s).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    #[test]
    fn absolute_child_steps() {
        let q = p("/site/regions");
        assert!(q.absolute);
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[0].axis, Axis::Child);
        assert_eq!(q.steps[0].test, NodeTest::Name("site".into()));
        assert_eq!(q.steps[1].test, NodeTest::Name("regions".into()));
    }

    #[test]
    fn descendant_abbreviation() {
        let q = p("//listitem//keyword");
        assert!(q.absolute);
        assert_eq!(q.steps[0].axis, Axis::Descendant);
        assert_eq!(q.steps[1].axis, Axis::Descendant);
    }

    #[test]
    fn star_and_mixed_axes() {
        let q = p("/site/regions/*/item");
        assert_eq!(q.steps[2].test, NodeTest::Star);
        assert_eq!(q.steps[2].axis, Axis::Child);
    }

    #[test]
    fn explicit_axis_syntax() {
        let q = p("/site/descendant::keyword");
        assert_eq!(q.steps[1].axis, Axis::Descendant);
        let q = p("/a/following-sibling::b");
        assert_eq!(q.steps[1].axis, Axis::FollowingSibling);
        let q = p("/a/attribute::id");
        assert_eq!(q.steps[1].axis, Axis::Attribute);
    }

    #[test]
    fn attribute_abbreviation() {
        let q = p("//item/@id");
        assert_eq!(q.steps[1].axis, Axis::Attribute);
        assert_eq!(q.steps[1].test, NodeTest::Name("id".into()));
    }

    #[test]
    fn predicates_with_boolean_structure() {
        let q = p("/site/people/person[ address and (phone or homepage) ]");
        let preds = &q.steps[2].preds;
        assert_eq!(preds.len(), 1);
        match &preds[0] {
            Pred::And(l, r) => {
                assert!(matches!(**l, Pred::Path(_)));
                assert!(matches!(**r, Pred::Or(_, _)));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn dot_descendant_in_predicate() {
        let q = p("//listitem[ .//keyword and .//emph ]//parlist");
        let preds = &q.steps[0].preds;
        match &preds[0] {
            Pred::And(l, _) => match &**l {
                Pred::Path(path) => {
                    assert!(!path.absolute);
                    assert_eq!(path.steps[0].axis, Axis::SelfAxis);
                    assert_eq!(path.steps[1].axis, Axis::Descendant);
                    assert_eq!(path.steps[1].test, NodeTest::Name("keyword".into()));
                }
                other => panic!("expected Path, got {other:?}"),
            },
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn relative_path_predicate() {
        let q = p("/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail");
        assert_eq!(q.steps.len(), 6);
        let preds = &q.steps[3].preds;
        match &preds[0] {
            Pred::Path(path) => {
                assert!(!path.absolute);
                assert_eq!(path.steps.len(), 3);
                assert_eq!(path.steps[0].axis, Axis::Child);
            }
            other => panic!("expected Path, got {other:?}"),
        }
    }

    #[test]
    fn not_and_nesting() {
        let q = p("//a[ not(b or not(c)) ]");
        match &q.steps[0].preds[0] {
            Pred::Not(inner) => assert!(matches!(**inner, Pred::Or(_, _))),
            other => panic!("expected Not, got {other:?}"),
        }
    }

    #[test]
    fn multiple_predicates_on_one_step() {
        let q = p("//a[b][c]");
        assert_eq!(q.steps[0].preds.len(), 2);
    }

    #[test]
    fn node_and_text_tests() {
        let q = p("//a/node()");
        assert_eq!(q.steps[1].test, NodeTest::AnyNode);
        let q = p("//a/text()");
        assert_eq!(q.steps[1].test, NodeTest::Text);
    }

    #[test]
    fn double_slash_inside_path() {
        let q = p("/site[ .//keyword//emph ]/descendant::keyword");
        match &q.steps[0].preds[0] {
            Pred::Path(path) => {
                assert_eq!(path.steps.len(), 3);
                assert_eq!(path.steps[2].axis, Axis::Descendant);
            }
            other => panic!("expected Path, got {other:?}"),
        }
        assert_eq!(q.steps[1].axis, Axis::Descendant);
    }

    #[test]
    fn errors() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("/").is_err());
        assert!(parse_xpath("//a[").is_err());
        assert!(parse_xpath("//a[b").is_err());
        assert!(parse_xpath("//a]").is_err());
        assert!(parse_xpath("//a[unknown()]").is_err());
        assert!(parse_xpath("/a/unknownaxis::b").is_err());
        assert!(parse_xpath("//a[not b]").is_err());
        assert!(parse_xpath("//a trailing").is_err());
    }

    #[test]
    fn predicate_nesting_is_capped() {
        // `[`, `not(` and `(` each open one level.
        for (open, close) in [("[b", "]"), ("[not(b", ")]"), ("[(b", ")]")] {
            let depth = |n: usize| format!("//a{}{}", open.repeat(n), close.repeat(n));
            let per = open.matches(['[', '(']).count();
            assert!(
                parse_xpath(&depth(MAX_PREDICATE_DEPTH / per)).is_ok(),
                "{open}"
            );
            let err = parse_xpath(&depth(MAX_PREDICATE_DEPTH / per + 1)).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{open}: {err}");
        }
    }

    #[test]
    fn display_round_trip() {
        for q in [
            "/site/regions",
            "//listitem//keyword",
            "/site/people/person[ address and (phone or homepage) ]",
            "//listitem[ .//keyword and .//emph ]//parlist",
            "/site[ .//keyword or .//keyword/emph ]//keyword",
            "//a[ not(b) ]/@id",
        ] {
            let ast1 = p(q);
            let printed = ast1.to_string();
            let ast2 = p(&printed);
            assert_eq!(ast1, ast2, "round-trip of {q} via {printed}");
        }
    }

    #[test]
    fn all_xpathmark_queries_parse() {
        // Q01–Q15 of Fig. 2.
        for q in [
            "/site/regions",
            "/site/regions/europe/item/mailbox/mail/text/keyword",
            "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem",
            "/site/regions/*/item",
            "//listitem//keyword",
            "/site/regions/*/item//keyword",
            "/site/people/person[ address and (phone or homepage) ]",
            "//listitem[ .//keyword and .//emph]//parlist",
            "/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail",
            "/site[ .//keyword]",
            "/site//keyword",
            "/site[ .//keyword ]//keyword",
            "/site[ .//keyword or .//keyword/emph ]//keyword",
            "/site[ .//keyword//emph ]/descendant::keyword",
            "/site[ .//*//* ]//keyword",
        ] {
            p(q);
        }
    }
}
