//! Docs link checker: every relative markdown link in the user-facing
//! docs must point at a file (or directory) that exists in the repo.
//! CI runs this as its own step so a renamed file cannot silently
//! orphan the documentation that references it.

use std::path::{Path, PathBuf};

/// The documents under the link contract: the top-level README, every
/// markdown file in `docs/`, and the vendor-stub README.
fn documents() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs = vec![root.join("README.md"), root.join("vendor/README.md")];
    let dir = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "docs/ must contain markdown files");
    docs.extend(entries);
    docs
}

/// Extracts `[text](target)` link targets from one markdown line,
/// skipping fenced-code context handled by the caller.
fn link_targets(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let rest = &line[i + 2..];
            if let Some(end) = rest.find(')') {
                out.push(rest[..end].to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn relative_links_resolve() {
    let mut dead: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for doc in documents() {
        let text = std::fs::read_to_string(&doc)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc.display()));
        let base = doc.parent().expect("doc has a parent dir");
        let mut in_fence = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for target in link_targets(line) {
                // external links, pure fragments, and mailto are out of
                // scope — only repo-relative paths are checked
                if target.starts_with("http://")
                    || target.starts_with("https://")
                    || target.starts_with('#')
                    || target.starts_with("mailto:")
                    || target.is_empty()
                {
                    continue;
                }
                let path = target.split('#').next().unwrap_or(&target);
                if path.is_empty() {
                    continue;
                }
                checked += 1;
                if !base.join(path).exists() {
                    dead.push(format!("{}:{}: {target}", doc.display(), lineno + 1));
                }
            }
        }
        assert!(!in_fence, "{}: unbalanced code fence", doc.display());
    }
    assert!(checked > 0, "the docs should contain at least one relative link");
    assert!(dead.is_empty(), "dead relative links:\n  {}", dead.join("\n  "));
}

#[test]
fn extractor_finds_inline_links() {
    let targets = link_targets("see [a](x.md) and [b](docs/y.md#frag), not (z.md)");
    assert_eq!(targets, vec!["x.md".to_string(), "docs/y.md#frag".to_string()]);
    assert!(link_targets("no links here").is_empty());
}

/// The `*.md` file names one doc-comment line mentions: maximal runs of
/// path characters that end in `.md` after a non-empty stem.
fn md_names(line: &str) -> Vec<&str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| token.len() > ".md".len() && token.ends_with(".md"))
        .collect()
}

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// A `//!` or `///` comment under `crates/` or `tests/` that names a
/// markdown file names one that exists, read from the repo root or from
/// the commenting file's own directory (for relative rustdoc links).
#[test]
fn doc_comments_name_existing_markdown_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    let mut dead: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().expect("source file has a parent dir");
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_start();
            if !(line.starts_with("//!") || line.starts_with("///")) {
                continue;
            }
            for name in md_names(line) {
                checked += 1;
                if !root.join(name).exists() && !dir.join(name).exists() {
                    dead.push(format!("{}:{}: {name}", file.display(), lineno + 1));
                }
            }
        }
    }
    assert!(checked > 0, "the crate docs should name at least one markdown file");
    assert!(dead.is_empty(), "doc comments name missing markdown files:\n  {}", dead.join("\n  "));
}

#[test]
fn md_names_finds_markdown_paths() {
    let line =
        "//! see `docs/ARCHITECTURE.md` and [s](../../docs/S.md). Also NOTES.md. Not a.rs or *.md";
    assert_eq!(md_names(line), vec!["docs/ARCHITECTURE.md", "../../docs/S.md", "NOTES.md"]);
    assert!(md_names("/// plain prose").is_empty());
}
