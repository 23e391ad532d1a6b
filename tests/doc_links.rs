//! Every relative link in `README.md` and `docs/*.md` resolves to a file
//! or directory in the repository. External (`scheme:`) and in-page
//! (`#anchor`) links are out of scope; fenced code blocks are skipped.

use std::fs;
use std::path::{Path, PathBuf};

/// The markdown files whose links are checked.
fn documents() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut docs: Vec<PathBuf> = fs::read_dir(root.join("docs"))
        .expect("docs/ lists")
        .map(|entry| entry.expect("docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    docs.push(root.join("README.md"));
    docs
}

/// The relative link targets of one markdown text, with their 1-based
/// line numbers and without `#fragment`s.
fn relative_links(text: &str) -> Vec<(usize, String)> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(at) = rest.find("](") {
            rest = &rest[at + 2..];
            let Some(end) = rest.find(')') else { break };
            let target = rest[..end].split('#').next().unwrap_or_default().trim();
            if !target.is_empty() && !target.contains(':') {
                links.push((i + 1, target.to_string()));
            }
            rest = &rest[end..];
        }
    }
    links
}

#[test]
fn relative_links_in_docs_and_readme_resolve() {
    let mut broken = Vec::new();
    let mut checked = 0;
    for doc in documents() {
        let text = fs::read_to_string(&doc).expect("document reads");
        let dir = doc.parent().expect("document has a directory");
        for (line, target) in relative_links(&text) {
            checked += 1;
            if !dir.join(&target).exists() {
                broken.push(format!("{}:{line}: {target}", doc.display()));
            }
        }
    }
    assert!(checked > 0, "no relative links found");
    assert!(
        broken.is_empty(),
        "unresolved links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn link_scanner_skips_external_anchor_and_fenced_links() {
    let text = "[a](x.md#part) [b](https://example.org) [c](#top)\n\
                ```\n[d](inside.md)\n```\n[e](../y/z.rs)";
    assert_eq!(
        relative_links(text),
        vec![(1, "x.md".to_string()), (5, "../y/z.rs".to_string())]
    );
}
