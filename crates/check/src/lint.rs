//! Repo-invariant lint pass (`ipm lint` / `ipm-lint`).
//!
//! Some of this repo's invariants live in *patterns*, not types, and
//! regress silently: a `Relaxed` load on an epoch counter works until the
//! one platform reorders it; an `.unwrap()` on a connection path works
//! until a peer closes mid-write and takes the whole server thread with
//! it. This pass scans production sources (test modules are skipped by
//! `#[cfg(test)]`-brace tracking, comments and doc comments are stripped)
//! for five such patterns:
//!
//! | rule | scope | why |
//! |---|---|---|
//! | `relaxed-ordering` | `crates/core`, `crates/obs` | epoch/statistics atomics must say why `Relaxed` is enough — or be upgraded |
//! | `server-unwrap` | `crates/server` | a panic on a connection path kills the serving thread; disconnects are data, not bugs |
//! | `cache-clear` | everywhere | epoch-keyed invalidation replaced wholesale clears (PR 5); a new `cache.clear()` reintroduces the cold-start cliff |
//! | `instant-now` | core algorithm modules | wall-clock reads inside scoring loops break deterministic replay and cost a syscall per iteration |
//! | `unsafe-code` | everywhere | the workspace is safe Rust; the scalar block kernels left no reason for an unsafe island |
//!
//! A hit is silenced by an **allowlist comment with a reason** on the
//! same line or the line directly above:
//!
//! ```text
//! // lint-allow: relaxed-ordering — monotonic counter, read only by stats
//! hits.fetch_add(1, Ordering::Relaxed);
//! ```
//!
//! The reason is mandatory (a bare `lint-allow` is itself a finding), and
//! an allow that silences nothing is flagged as `unused-allow` so stale
//! exemptions cannot accumulate. The total is ratcheted too: the pass
//! fails when the tree carries more reasoned allows than [`MAX_ALLOWS`],
//! so a new exemption has to retire an old one or raise the constant in
//! the same reviewed change. `fix_allow` mechanically inserts
//! TODO-reason allows for every current hit of one rule (dry-run
//! supported) to make adopting a new rule on an old codebase tractable.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The allow ratchet: the number of reasoned `lint-allow` comments the
/// tree carried when this constant was last lowered (56 before the wire
/// codec got one line finisher and the two serving tiers one acceptor).
/// Lower it whenever the count drops.
pub const MAX_ALLOWS: usize = 49;

/// One lint rule: a named pattern with a path scope and a rationale.
pub struct Rule {
    /// Stable kebab-case name, used in output and allow comments.
    pub name: &'static str,
    /// Substrings that constitute a hit (comment/test-stripped line).
    patterns: &'static [&'static str],
    /// Whether `rel` (repo-relative, `/`-separated) is in scope.
    in_scope: fn(&str) -> bool,
    /// Per-line exemption for idioms the rule does not target.
    exempt: Option<fn(&str) -> bool>,
    /// One-line rationale shown with each hit.
    pub why: &'static str,
}

/// Lock acquisitions return poison `Result`s; unwrapping them is the
/// repo-wide idiom (a poisoned lock is unrecoverable), not a connection
/// hazard.
fn lock_poison_idiom(code: &str) -> bool {
    [".lock().unwrap", ".read().unwrap", ".write().unwrap"]
        .iter()
        .any(|p| code.contains(p))
        && !has_non_lock_unwrap(code)
}

/// True when the line carries an unwrap/expect *not* directly chained on
/// a lock acquisition (so mixed lines still get flagged).
fn has_non_lock_unwrap(code: &str) -> bool {
    for pat in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(i) = code[from..].find(pat) {
            let at = from + i;
            let lock_chained = [".lock()", ".read()", ".write()"]
                .iter()
                .any(|l| code[..at].ends_with(l));
            if !lock_chained {
                return true;
            }
            from = at + pat.len();
        }
    }
    false
}

fn in_core_or_obs(rel: &str) -> bool {
    rel.starts_with("crates/core/src/") || rel.starts_with("crates/obs/src/")
}

fn in_server(rel: &str) -> bool {
    rel.starts_with("crates/server/src/")
}

fn everywhere(_rel: &str) -> bool {
    true
}

/// The scoring/merge loops plus the budget they poll: the code that must
/// stay wall-clock-free per iteration.
fn in_algorithm_modules(rel: &str) -> bool {
    [
        "crates/core/src/nra.rs",
        "crates/core/src/ta.rs",
        "crates/core/src/smj.rs",
        "crates/core/src/exact.rs",
        "crates/core/src/scoring.rs",
        "crates/core/src/budget.rs",
    ]
    .contains(&rel)
}

/// The rule table, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "relaxed-ordering",
        patterns: &["Ordering::Relaxed"],
        in_scope: in_core_or_obs,
        exempt: None,
        why: "core/obs atomics guard epochs, budgets and statistics; each Relaxed must \
              state why no ordering is needed, or use Acquire/Release",
    },
    Rule {
        name: "server-unwrap",
        patterns: &[".unwrap()", ".expect("],
        in_scope: in_server,
        exempt: Some(lock_poison_idiom),
        why: "a panic on a server connection path kills the thread serving it; return a \
              structured error or log the disconnect",
    },
    Rule {
        name: "cache-clear",
        patterns: &["cache.clear()"],
        in_scope: everywhere,
        exempt: None,
        why: "epoch-keyed cache invalidation made wholesale clears unnecessary; a new \
              clear() reintroduces the post-mutation cold-start cliff",
    },
    Rule {
        name: "instant-now",
        patterns: &["Instant::now()"],
        in_scope: in_algorithm_modules,
        exempt: None,
        why: "wall-clock reads inside algorithm loops break deterministic replay and \
              cost a syscall per iteration; hoist to the query boundary",
    },
    Rule {
        name: "unsafe-code",
        patterns: &["unsafe ", "unsafe{"],
        in_scope: everywhere,
        exempt: None,
        why: "the workspace is safe Rust; an unsafe block needs a reasoned allow \
              stating the invariant it relies on",
    },
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Repo-relative path, `/`-separated.
    pub rel: String,
    /// 1-indexed line.
    pub line: usize,
    /// The rule (or pseudo-rule `bare-allow` / `unused-allow`).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Rationale / allow hint.
    pub why: String,
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.why
        )?;
        writeln!(f, "    {}", self.excerpt)?;
        if RULES.iter().any(|r| r.name == self.rule) {
            write!(
                f,
                "    help: silence with `// lint-allow: {} — <reason>` on this or the line above",
                self.rule
            )?;
        }
        Ok(())
    }
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, file order then line order.
    pub hits: Vec<Hit>,
    /// Files scanned.
    pub files: usize,
    /// Allow comments that silenced at least one hit.
    pub allows_used: usize,
}

impl Report {
    /// Clean = no findings and the allow count within [`MAX_ALLOWS`].
    pub fn is_clean(&self) -> bool {
        self.hits.is_empty() && self.allows_used <= MAX_ALLOWS
    }
}

/// A parsed `lint-allow` comment.
struct Allow {
    rules: Vec<String>,
    has_reason: bool,
    line: usize,
    used: bool,
}

/// Byte offset where the line's plain `//` comment starts, string-aware
/// (a `//` inside a string literal does not count) and doc-comment-aware
/// (`///` and `//!` are documentation — an allow example quoted in docs
/// must not act as a directive).
fn comment_start(raw: &str) -> Option<usize> {
    let bytes = raw.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => {
                let doc = match bytes.get(i + 2) {
                    Some(b'!') => true,
                    Some(b'/') => bytes.get(i + 3) != Some(&b'/'),
                    _ => false,
                };
                return if doc { None } else { Some(i) };
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses `// lint-allow: rule[, rule] — reason` out of a raw line. Only
/// comments count: the marker inside a string literal is just data.
fn parse_allow(raw: &str, line: usize) -> Option<Allow> {
    let comment = &raw[comment_start(raw)?..];
    let at = comment.find("lint-allow:")?;
    let rest = &comment[at + "lint-allow:".len()..];
    // Rule list runs up to the reason separator (em-dash, ` - `, `(`).
    let (names, reason) = match rest.find(['—', '(']) {
        Some(i) => (&rest[..i], rest[i..].trim_start_matches(['—', '(', ' '])),
        None => match rest.find(" - ") {
            Some(i) => (&rest[..i], &rest[i + 3..]),
            None => (rest, ""),
        },
    };
    let rules: Vec<String> = names
        .split(',')
        .map(|s| s.trim().trim_end_matches('.').to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    Some(Allow {
        rules,
        has_reason: !reason.trim().trim_end_matches(')').trim().is_empty(),
        line,
        used: false,
    })
}

/// Strips line/block comments and string-literal contents from one line,
/// carrying block-comment and multi-line-string state across lines. Good
/// enough for pattern matching: what remains is exactly the code tokens.
fn strip_code(raw: &str, in_block_comment: &mut bool, in_string: &mut bool) -> String {
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    let mut in_str = *in_string;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        let c = bytes[i];
        if in_str {
            if c == b'\\' {
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => break,
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                *in_block_comment = true;
                i += 2;
            }
            _ => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    *in_string = in_str;
    out
}

/// Scans one file's text, appending findings to `hits`.
fn scan_file(rel: &str, text: &str, hits: &mut Vec<Hit>, allows_used: &mut usize) {
    let active: Vec<&Rule> = RULES.iter().filter(|r| (r.in_scope)(rel)).collect();
    let mut in_block_comment = false;
    let mut in_string = false;
    // `#[cfg(test)] mod …` skipping: depth of the test module we are
    // inside, tracked by brace counting over comment-stripped code.
    let mut pending_test_attr = false;
    let mut test_mod_depth: Option<i64> = None;
    let mut depth: i64 = 0;
    // The allow (if any) still waiting for its target code line.
    let mut pending_allow: Option<Allow> = None;
    let flush_allow = |a: Option<Allow>, hits: &mut Vec<Hit>, used: &mut usize| {
        if let Some(a) = a {
            if a.used {
                *used += 1;
            } else {
                hits.push(Hit {
                    rel: rel.to_owned(),
                    line: a.line,
                    rule: "unused-allow",
                    excerpt: format!("// lint-allow: {}", a.rules.join(", ")),
                    why: "this allow silences nothing; remove it so stale exemptions \
                          cannot accumulate"
                        .to_owned(),
                });
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let started_in_string = in_string;
        let code = strip_code(raw, &mut in_block_comment, &mut in_string);
        let code_trim = code.trim();

        // Allow comments live in plain `//` comments on real code lines
        // (a line that opens inside a multi-line string is data).
        let this_line_allow = if started_in_string {
            None
        } else {
            parse_allow(raw, line)
        };
        if let Some(a) = &this_line_allow {
            if !a.has_reason {
                hits.push(Hit {
                    rel: rel.to_owned(),
                    line,
                    rule: "bare-allow",
                    excerpt: raw.trim().to_owned(),
                    why: "allow comments must carry a reason: \
                          `// lint-allow: <rule> — <reason>`"
                        .to_owned(),
                });
            }
        }

        // Test-module tracking.
        if code_trim.contains("#[cfg(test)]") || code_trim.contains("#[cfg(all(test") {
            pending_test_attr = true;
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if pending_test_attr && code_trim.starts_with("mod ") && opens > 0 {
            test_mod_depth = Some(depth);
            pending_test_attr = false;
        }
        let in_test = test_mod_depth.is_some();
        depth += opens - closes;
        if let Some(d) = test_mod_depth {
            if depth <= d {
                test_mod_depth = None;
            }
        }

        // Match rules on real code outside test modules.
        if !in_test && !code_trim.is_empty() {
            let mut line_hits: Vec<Hit> = Vec::new();
            for rule in &active {
                if rule.patterns.iter().any(|p| code.contains(p))
                    && !rule.exempt.is_some_and(|e| e(&code))
                {
                    line_hits.push(Hit {
                        rel: rel.to_owned(),
                        line,
                        rule: rule.name,
                        excerpt: raw.trim().to_owned(),
                        why: rule.why.split_whitespace().collect::<Vec<_>>().join(" "),
                    });
                }
            }
            // Apply allows: same line first, then one hanging from above.
            let mut same_line = this_line_allow;
            for h in line_hits {
                let silenced = [&mut same_line, &mut pending_allow]
                    .into_iter()
                    .flatten()
                    .any(|a| {
                        if a.rules.iter().any(|r| r == h.rule) && a.has_reason {
                            a.used = true;
                            true
                        } else {
                            false
                        }
                    });
                if !silenced {
                    hits.push(h);
                }
            }
            // A code line consumes any hanging allow.
            flush_allow(pending_allow.take(), hits, allows_used);
            flush_allow(same_line, hits, allows_used);
        } else if let Some(a) = this_line_allow {
            // Comment-only (or test) line: this allow hangs for the next
            // code line; any previous hanging allow is now known unused.
            flush_allow(pending_allow.replace(a), hits, allows_used);
        }
    }
    flush_allow(pending_allow.take(), hits, allows_used);
}

/// Whether `rel` is a production source this pass scans.
fn scannable(rel: &str) -> bool {
    rel.ends_with(".rs")
        && (rel.starts_with("src/") || rel.starts_with("crates/"))
        && rel.split('/').any(|c| c == "src")
        && !rel
            .split('/')
            .any(|c| c == "target" || c == "tests" || c == "benches")
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" || name == "shims" {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if rel_of(&path, root).is_some_and(|r| scannable(&r)) {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_of(path: &Path, root: &Path) -> Option<String> {
    path.strip_prefix(root).ok().map(|p| {
        p.components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/")
    })
}

/// Runs the pass over every production `.rs` under `root`.
///
/// # Errors
/// Io errors reading the tree.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for path in &files {
        let rel = rel_of(path, root).expect("walked path is under root");
        let text = fs::read_to_string(path)?;
        scan_file(&rel, &text, &mut report.hits, &mut report.allows_used);
        report.files += 1;
    }
    Ok(report)
}

/// Inserts a `lint-allow` (with a TODO reason to be edited) above every
/// current hit of `rule`. With `dry_run`, computes and returns the plan
/// without touching any file. Returns `(rel, line)` of each annotated
/// hit.
///
/// # Errors
/// Io errors, or an unknown rule name.
pub fn fix_allow(root: &Path, rule: &str, dry_run: bool) -> io::Result<Vec<(String, usize)>> {
    if !RULES.iter().any(|r| r.name == rule) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown rule '{rule}' (rules: {})",
                RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
            ),
        ));
    }
    let report = run(root)?;
    let mut planned: Vec<(String, usize)> = Vec::new();
    let mut by_file: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
    for h in report.hits.iter().filter(|h| h.rule == rule) {
        by_file.entry(h.rel.clone()).or_default().push(h.line);
        planned.push((h.rel.clone(), h.line));
    }
    if dry_run {
        return Ok(planned);
    }
    for (rel, mut lines) in by_file {
        let path = root.join(&rel);
        let text = fs::read_to_string(&path)?;
        let mut all: Vec<String> = text.lines().map(str::to_owned).collect();
        lines.sort_unstable();
        // Insert bottom-up so earlier line numbers stay valid.
        for &line in lines.iter().rev() {
            let target = &all[line - 1];
            let indent: String = target.chars().take_while(|c| c.is_whitespace()).collect();
            all.insert(
                line - 1,
                format!("{indent}// lint-allow: {rule} — TODO: justify this site"),
            );
        }
        let mut out = all.join("\n");
        if text.ends_with('\n') {
            out.push('\n');
        }
        fs::write(&path, out)?;
    }
    Ok(planned)
}

/// Shared CLI driver behind both `ipm-lint` and `ipm lint`. Parses
/// `[--root <dir>] [--list-rules] [--fix-allow <rule>] [--dry-run]`,
/// prints findings as clickable `path:line:` diagnostics, and returns
/// whether the tree is clean (callers map `false` to a nonzero exit).
///
/// # Errors
/// Bad flags, unknown rules, or io failures.
pub fn cli(args: &[String]) -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut fix: Option<String> = None;
    let mut dry_run = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root needs a directory")?),
            "--fix-allow" => {
                fix = Some(it.next().ok_or("--fix-allow needs a rule name")?.clone());
            }
            "--dry-run" => dry_run = true,
            "--list-rules" => {
                for r in RULES {
                    println!(
                        "{}: {}",
                        r.name,
                        r.why.split_whitespace().collect::<Vec<_>>().join(" ")
                    );
                }
                return Ok(true);
            }
            other => return Err(format!("unknown lint flag: {other}")),
        }
    }
    if dry_run && fix.is_none() {
        return Err("--dry-run only applies with --fix-allow <rule>".into());
    }
    if let Some(rule) = fix {
        let planned = fix_allow(&root, &rule, dry_run).map_err(|e| e.to_string())?;
        let verb = if dry_run {
            "would annotate"
        } else {
            "annotated"
        };
        for (rel, line) in &planned {
            println!("{rel}:{line}: {verb} with `// lint-allow: {rule} — TODO: justify this site`");
        }
        println!(
            "{} {} site(s) of [{rule}]{}",
            verb,
            planned.len(),
            if dry_run {
                ""
            } else {
                " — edit each TODO into a real reason"
            }
        );
        return Ok(true);
    }
    let report = run(&root).map_err(|e| e.to_string())?;
    for hit in &report.hits {
        println!("{hit}");
    }
    if report.allows_used > MAX_ALLOWS {
        println!(
            "ipm-lint: {} reasoned allow(s) exceed the ratchet of {MAX_ALLOWS} \
             (crates/check/src/lint.rs): retire an exemption instead of adding one",
            report.allows_used
        );
    }
    if report.is_clean() {
        println!(
            "ipm-lint: clean — {} files, {} of at most {MAX_ALLOWS} reasoned allow(s), {} rules",
            report.files,
            report.allows_used,
            RULES.len()
        );
    } else {
        println!(
            "ipm-lint: {} finding(s) across {} files ({} reasoned allow(s) in effect)",
            report.hits.len(),
            report.files,
            report.allows_used
        );
    }
    Ok(report.is_clean())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, text: &str) -> Vec<Hit> {
        let mut hits = Vec::new();
        let mut used = 0;
        scan_file(rel, text, &mut hits, &mut used);
        hits
    }

    #[test]
    fn relaxed_flagged_in_core_not_elsewhere() {
        let src = "let x = a.load(Ordering::Relaxed);\n";
        assert_eq!(scan("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(scan("crates/obs/src/x.rs", src).len(), 1);
        assert!(scan("crates/index/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_silences_same_line_and_next_line() {
        let same = "a.load(Ordering::Relaxed); // lint-allow: relaxed-ordering — stats only\n";
        assert!(scan("crates/core/src/x.rs", same).is_empty());
        let above = "// lint-allow: relaxed-ordering — stats only\na.load(Ordering::Relaxed);\n";
        assert!(scan("crates/core/src/x.rs", above).is_empty());
    }

    #[test]
    fn bare_allow_and_unused_allow_are_findings() {
        let bare = "// lint-allow: relaxed-ordering\na.load(Ordering::Relaxed);\n";
        let hits = scan("crates/core/src/x.rs", bare);
        assert!(hits.iter().any(|h| h.rule == "bare-allow"));
        assert!(
            hits.iter().any(|h| h.rule == "relaxed-ordering"),
            "a reasonless allow must not silence"
        );
        let unused = "// lint-allow: relaxed-ordering — nothing here\nlet x = 1;\n";
        let hits = scan("crates/core/src/x.rs", unused);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "unused-allow");
    }

    #[test]
    fn allow_count_is_ratcheted() {
        let at = Report {
            allows_used: MAX_ALLOWS,
            ..Default::default()
        };
        assert!(at.is_clean());
        let over = Report {
            allows_used: MAX_ALLOWS + 1,
            ..Default::default()
        };
        assert!(
            !over.is_clean(),
            "one allow past the ratchet fails the pass"
        );
    }

    #[test]
    fn test_modules_comments_and_strings_are_skipped() {
        let src = "\
// Ordering::Relaxed in a comment\n\
/* block Ordering::Relaxed */\n\
let s = \"Ordering::Relaxed\";\n\
#[cfg(test)]\n\
mod tests {\n\
    fn f() { a.load(Ordering::Relaxed); }\n\
}\n";
        assert!(scan("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn lock_poison_unwraps_are_exempt_but_mixed_lines_are_not() {
        let idiom = "let g = self.state.lock().unwrap();\n";
        assert!(scan("crates/server/src/x.rs", idiom).is_empty());
        let hazard = "let v = stream.peer_addr().unwrap();\n";
        assert_eq!(scan("crates/server/src/x.rs", hazard).len(), 1);
        let mixed = "let v = self.m.lock().unwrap().get(&k).unwrap();\n";
        assert_eq!(scan("crates/server/src/x.rs", mixed).len(), 1);
    }

    #[test]
    fn cache_clear_and_unsafe_scopes() {
        assert_eq!(
            scan("crates/core/src/engine.rs", "cache.clear();\n").len(),
            1
        );
        assert_eq!(
            scan(
                "src/bin/ipm.rs",
                "unsafe { core::hint::unreachable_unchecked() }\n"
            )
            .len(),
            1
        );
        assert_eq!(
            scan("crates/index/src/block.rs", "unsafe { kernel() }\n").len(),
            1
        );
    }

    #[test]
    fn instant_now_scoped_to_algorithm_modules() {
        let src = "let t = Instant::now();\n";
        assert_eq!(scan("crates/core/src/nra.rs", src).len(), 1);
        assert_eq!(scan("crates/core/src/budget.rs", src).len(), 1);
        assert!(scan("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn fix_allow_inserts_editable_todo_allows() {
        let dir = std::env::temp_dir().join(format!("ipm-lint-fix-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        fs::create_dir_all(&src_dir).unwrap();
        let file = src_dir.join("x.rs");
        fs::write(
            &file,
            "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n",
        )
        .unwrap();

        let planned = fix_allow(&dir, "relaxed-ordering", true).unwrap();
        assert_eq!(planned, vec![("crates/core/src/x.rs".to_owned(), 2)]);
        assert!(
            !fs::read_to_string(&file).unwrap().contains("lint-allow"),
            "dry run must not write"
        );

        fix_allow(&dir, "relaxed-ordering", false).unwrap();
        let text = fs::read_to_string(&file).unwrap();
        assert!(text.contains("    // lint-allow: relaxed-ordering — TODO: justify this site"));
        // The inserted allow silences the hit (reason is a TODO to edit).
        let report = run(&dir).unwrap();
        assert!(report.is_clean(), "{:?}", report.hits);

        assert!(fix_allow(&dir, "no-such-rule", true).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
