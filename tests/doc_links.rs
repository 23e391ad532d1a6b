//! Every relative link in `README.md` and `docs/*.md` resolves to a file
//! or directory in the repository. External (`scheme:`) and in-page
//! (`#anchor`) links are out of scope; fenced code blocks are skipped.
//! Every `NAME.md` that a source file under `src/` or `crates/*/src`
//! names exists too: some file in the repository ends with that name.

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

/// Every file under `dir`, recursively, skipping `target` and dot
/// directories.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).expect("directory lists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if !path.is_dir() {
            files.push(path);
        } else if name != "target" && !name.starts_with('.') {
            files.extend(files_under(&path));
        }
    }
    files
}

/// The `NAME.md` names, bare or with a path, in one source text, with
/// their 1-based line numbers.
fn markdown_names(text: &str) -> Vec<(usize, String)> {
    let mut names = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)));
        for word in words.map(|w| w.trim_end_matches('.')) {
            if word.len() > ".md".len() && word.ends_with(".md") {
                names.push((i + 1, word.to_string()));
            }
        }
    }
    names
}

#[test]
fn markdown_files_named_in_sources_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repository = files_under(root);
    let mut sources = files_under(&root.join("src"));
    for krate in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        sources.extend(files_under(
            &krate.expect("crates/ entry").path().join("src"),
        ));
    }
    let (mut broken, mut checked) = (Vec::new(), 0);
    for source in sources
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        let text = fs::read_to_string(source).expect("source reads");
        for (line, name) in markdown_names(&text) {
            checked += 1;
            if !repository.iter().any(|file| file.ends_with(&name)) {
                broken.push(format!("{}:{line}: {name}", source.display()));
            }
        }
    }
    assert!(checked > 0, "no markdown names found in sources");
    assert!(
        broken.is_empty(),
        "sources name markdown files that do not exist:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn markdown_name_scanner_takes_paths_and_bare_names() {
    let text = "see `docs/A_B.md`, EXPERIMENTS.md and\nnotes.mdx (DESIGN.md §5). .md";
    assert_eq!(
        markdown_names(text),
        vec![
            (1, "docs/A_B.md".to_string()),
            (1, "EXPERIMENTS.md".to_string()),
            (2, "DESIGN.md".to_string()),
        ]
    );
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
