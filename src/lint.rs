//! `xwq lint` — a dependency-free, token-level hygiene pass over the
//! workspace's Rust sources.
//!
//! The model checker (`crates/verify`) and the sanitizer CI jobs verify
//! the concurrency protocols; this pass enforces the *source discipline*
//! those proofs assume. Five rules:
//!
//! | rule              | requirement                                                |
//! |-------------------|------------------------------------------------------------|
//! | `unsafe-module`   | `unsafe` appears only in the whitelisted boundary modules  |
//! | `safety-comment`  | every `unsafe` carries a `// SAFETY:` (or `# Safety` doc)  |
//! | `static-mut`      | no `static mut` items                                      |
//! | `ordering-import` | no wildcard `use …::Ordering::*` imports                   |
//! | `atomic-ordering` | atomic ops spell out their `Ordering` at the call site     |
//!
//! The scanner is deliberately token-level, not a parser: a small state
//! machine strips comments, string/char literals and raw strings (so a
//! quoted `"unsafe"` never trips a rule), then the rules pattern-match
//! tokens in what remains. That keeps the pass dependency-free, fast
//! enough to run on every CI build, and honest about what it can see —
//! it lints occurrences, not semantics.
//!
//! Escape hatch: `// lint: allow(<rule>)` on the offending line or the
//! line directly above suppresses that one rule there. The only current
//! uses are the model-checker shims in `crates/verify/src/sync.rs`,
//! which *forward* a caller-supplied `Ordering` and therefore cannot
//! name a variant at the call site.
//!
//! Whitelisting a new unsafe module is a code change to
//! [`UNSAFE_WHITELIST`] — deliberate, reviewable, and impossible to do
//! by accident from the code being linted.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The only modules allowed to contain `unsafe` code: the Pod cast /
/// mmap boundary (`store::bytes`, `store::wire`), the succinct
/// backend's storage + broadword kernels (`succinct::storage`,
/// `succinct::rank_select`), the server's `signal(2)` shutdown hook
/// (`serve::signal`), and the evaluator's allocation-budget test, whose
/// counting `#[global_allocator]` must implement the unsafe `GlobalAlloc`
/// trait. Paths are workspace-relative.
pub const UNSAFE_WHITELIST: &[&str] = &[
    "crates/succinct/src/storage.rs",
    "crates/succinct/src/rank_select.rs",
    "crates/store/src/bytes.rs",
    "crates/store/src/wire.rs",
    "crates/serve/src/signal.rs",
    "crates/core/tests/eval_alloc.rs",
];

/// Atomic methods whose call sites must name an `Ordering` explicitly.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One finding, pointing at a workspace-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// The enforced rules; see the module docs for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    UnsafeModule,
    SafetyComment,
    StaticMut,
    OrderingImport,
    AtomicOrdering,
}

impl Rule {
    /// The kebab-case name used in diagnostics and `lint: allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeModule => "unsafe-module",
            Rule::SafetyComment => "safety-comment",
            Rule::StaticMut => "static-mut",
            Rule::OrderingImport => "ordering-import",
            Rule::AtomicOrdering => "atomic-ordering",
        }
    }
}

/// The outcome of a workspace pass.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints every `.rs` file under `root` (skipping `target/`, `vendor/`
/// and dot-directories), returning diagnostics sorted by file and line.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for path in files {
        let source = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        report.diagnostics.extend(lint_source(&rel, &source));
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "vendor" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints one file's source. `rel_path` is the workspace-relative path
/// used for the whitelist check and in diagnostics. This is the whole
/// pass — `lint_workspace` is just a directory walk around it — so the
/// fixture tests drive this directly.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lines = split_lines(source);
    let whitelisted = UNSAFE_WHITELIST.contains(&rel_path);
    let mut out = Vec::new();
    let diag = |line: usize, rule: Rule, message: String| Diagnostic {
        file: rel_path.to_string(),
        line: line + 1, // scanner lines are 0-based
        rule,
        message,
    };

    for (i, line) in lines.iter().enumerate() {
        for (off, token) in idents(&line.code) {
            match token {
                "unsafe" => {
                    if !whitelisted && !allowed(&lines, i, Rule::UnsafeModule) {
                        out.push(diag(
                            i,
                            Rule::UnsafeModule,
                            format!(
                                "`unsafe` outside the whitelisted boundary modules \
                                 ({})",
                                UNSAFE_WHITELIST.join(", ")
                            ),
                        ));
                    }
                    if !has_safety_comment(&lines, i) && !allowed(&lines, i, Rule::SafetyComment) {
                        out.push(diag(
                            i,
                            Rule::SafetyComment,
                            "`unsafe` without a `// SAFETY:` comment (same line, or a \
                             contiguous comment/attribute block above; `# Safety` doc \
                             sections count)"
                                .to_string(),
                        ));
                    }
                }
                "static" => {
                    // `&'static mut` is a type, not an item; the lifetime's
                    // apostrophe directly precedes the token.
                    let is_lifetime = off > 0 && line.code.as_bytes()[off - 1] == b'\'';
                    if !is_lifetime
                        && next_ident(&line.code, off + token.len()) == Some("mut")
                        && !allowed(&lines, i, Rule::StaticMut)
                    {
                        out.push(diag(
                            i,
                            Rule::StaticMut,
                            "`static mut` is banned; use an atomic, a lock, or \
                             `OnceLock`"
                                .to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
        let squeezed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        if squeezed.contains("Ordering::*") && !allowed(&lines, i, Rule::OrderingImport) {
            out.push(diag(
                i,
                Rule::OrderingImport,
                "wildcard `Ordering` import; name the variants so call sites \
                 stay greppable"
                    .to_string(),
            ));
        }
    }

    out.extend(check_atomic_orderings(rel_path, &lines));
    out.sort_by_key(|d| d.line);
    out
}

/// Per-line split of a source file into code and comment text, with
/// string/char literal contents blanked out of the code.
struct Line {
    code: String,
    comment: String,
}

/// The rule-5 pass: every `.method(...)` call where `method` is an
/// atomic op must mention `Ordering` inside its (possibly multi-line)
/// argument list.
fn check_atomic_orderings(rel_path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    // Join the code halves so an argument list can span lines; remember
    // where each line starts to map offsets back to line numbers.
    let mut all = String::new();
    let mut starts = Vec::with_capacity(lines.len());
    for line in lines {
        starts.push(all.len());
        all.push_str(&line.code);
        all.push('\n');
    }
    let line_of = |off: usize| starts.partition_point(|&s| s <= off) - 1;

    let bytes = all.as_bytes();
    let mut out = Vec::new();
    for (off, token) in idents(&all) {
        if !ATOMIC_METHODS.contains(&token) {
            continue;
        }
        // Must be a method call: `.name(` (receiver dot before, open
        // paren after). A bare `fn load(...)` definition or a path call
        // never has the dot.
        let before = all[..off].trim_end().as_bytes().last().copied();
        if before != Some(b'.') {
            continue;
        }
        let mut j = off + token.len();
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'(' {
            continue;
        }
        // Balance the argument parens (code-only text, so parens inside
        // strings or comments can't unbalance the scan).
        let args_start = j + 1;
        let mut depth = 1usize;
        let mut k = args_start;
        while k < bytes.len() && depth > 0 {
            match bytes[k] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let args = &all[args_start..k.saturating_sub(1).max(args_start)];
        if idents(args).any(|(_, t)| t == "Ordering") {
            continue;
        }
        let line = line_of(off);
        if allowed(lines, line, Rule::AtomicOrdering) {
            continue;
        }
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line: line + 1,
            rule: Rule::AtomicOrdering,
            message: format!(
                "`.{token}(...)` without an explicit `Ordering`; atomics must \
                 name their ordering at the call site (non-atomic method? \
                 add `// lint: allow(atomic-ordering)`)"
            ),
        });
    }
    out
}

/// True when line `i`'s `unsafe` is covered by a SAFETY comment: on the
/// same line, or anywhere in the contiguous block of comment-only /
/// attribute-only lines directly above (so doc comments with a
/// `# Safety` section and `// SAFETY:` notes above `#[target_feature]`
/// attributes both count).
fn has_safety_comment(lines: &[Line], i: usize) -> bool {
    let covers =
        |line: &Line| line.comment.contains("SAFETY:") || line.comment.contains("# Safety");
    if covers(&lines[i]) {
        return true;
    }
    for line in lines[..i].iter().rev() {
        let code = line.code.trim();
        let annotation_only = code.is_empty() || code.starts_with('#') || code.ends_with(']');
        if !annotation_only {
            return false;
        }
        if covers(line) {
            return true;
        }
        // A blank line with no comment ends the contiguous block.
        if code.is_empty() && line.comment.is_empty() {
            return false;
        }
    }
    false
}

/// The `// lint: allow(<rule>)` escape: same line or the line above.
fn allowed(lines: &[Line], i: usize, rule: Rule) -> bool {
    let needle = format!("lint: allow({})", rule.name());
    lines[i].comment.contains(&needle) || (i > 0 && lines[i - 1].comment.contains(&needle))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Iterator over `(byte offset, identifier)` tokens in code text.
fn idents(code: &str) -> impl Iterator<Item = (usize, &str)> + '_ {
    let mut rest = code;
    let mut base = 0;
    std::iter::from_fn(move || {
        loop {
            let start = rest.find(is_ident_char)?;
            let tail = &rest[start..];
            let len = tail.find(|c| !is_ident_char(c)).unwrap_or(tail.len());
            let token = &tail[..len];
            let off = base + start;
            base = off + len;
            rest = &tail[len..];
            // Skip pure numbers: they can't be keywords or method names.
            if token.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                continue;
            }
            return Some((off, token));
        }
    })
}

/// The identifier starting at or after `from` (skipping whitespace), if
/// the next non-space characters form one.
fn next_ident(code: &str, from: usize) -> Option<&str> {
    let rest = code.get(from..)?;
    let rest = rest.trim_start();
    let len = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    (len > 0).then(|| &rest[..len])
}

/// The comment/string-stripping state machine. Rust-aware enough for a
/// linter: line + nested block comments, string / byte-string / raw
/// string literals (any `#` count), char literals vs lifetimes.
fn split_lines(source: &str) -> Vec<Line> {
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
            });
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                    continue;
                }
                // Raw (byte) string: r"..." / r#"..."# / br#"..."#, not
                // part of a longer identifier.
                if (c == 'r' || c == 'b') && (i == 0 || !is_ident_char(chars[i - 1])) {
                    let mut j = i;
                    if c == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    if chars.get(j) == Some(&'r') {
                        let mut k = j + 1;
                        let mut hashes = 0u32;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            state = State::RawStr(hashes);
                            code.push(' ');
                            i = k + 1;
                            continue;
                        }
                    }
                }
                if c == '"' {
                    state = State::Str;
                    code.push(' ');
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal iff it closes: '\...' or 'x'. Anything
                    // else ('a in generics, 'static) is a lifetime and
                    // stays, apostrophe included, in the code text.
                    if chars.get(i + 1) == Some(&'\\') {
                        let mut k = i + 2;
                        let mut escaped = true;
                        while k < chars.len() {
                            if escaped {
                                escaped = false;
                            } else if chars[k] == '\\' {
                                escaped = true;
                            } else if chars[k] == '\'' {
                                break;
                            }
                            k += 1;
                        }
                        code.push(' ');
                        i = (k + 1).min(chars.len());
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        code.push(' ');
                        i += 3;
                        continue;
                    }
                    code.push(c);
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                    continue;
                }
                comment.push(c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line { code, comment });
    }
    lines
}
