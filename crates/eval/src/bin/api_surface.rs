//! CI check that the public API is what callers use.
//!
//! ```text
//! api_surface [<workspace root>]
//! ```
//!
//! Prints two numbers and a list:
//! * the public-declaration count: lines matching
//!   `pub (fn|struct|enum|trait|type|const|static|mod|use) ` in
//!   `crates/*/src` and `src`, each file read up to its first
//!   column-0 `#[cfg(test)]`;
//! * every `pub` item (re-exports aside) whose name appears in no
//!   caller outside its crate's library. A caller is non-test code in
//!   another crate's `src/` or `benches/`, the crate's own `src/bin/`
//!   or `benches/`, `examples/` or `perfbench/src/`; comment lines and
//!   `tests/` do not count.
//!
//! Exits 1 when that list is longer than [`CEILING`]: a new public item
//! that only its own crate uses should be `pub(crate)` or private.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Largest accepted number of public items without an outside caller.
const CEILING: usize = 29;

const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// Every `.rs` file under `dir`, sorted.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The lines of `path` before its first column-0 `#[cfg(test)]`.
fn non_test_lines(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).expect("source files are readable UTF-8");
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(str::to_string)
        .collect()
}

/// `(kind, name)` of a public declaration line.
fn declaration(line: &str) -> Option<(&'static str, String)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let kind = KINDS.iter().find(|k| {
        rest.strip_prefix(**k)
            .is_some_and(|r| r.starts_with([' ', '\t']))
    })?;
    let name: String = rest[kind.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    Some((kind, name))
}

/// Identifiers on the non-comment lines of `lines`.
fn identifiers(lines: &[String], into: &mut HashSet<String>) {
    for line in lines.iter().filter(|l| !l.trim_start().starts_with("//")) {
        let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        into.extend(words.filter(|w| !w.is_empty()).map(str::to_string));
    }
}

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    // Every crate directory; the last one is the umbrella crate at the root.
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("the workspace root has a crates/ directory")
        .flatten()
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();
    crate_dirs.push(root.clone());

    // Every non-test source file, with the crate whose library it belongs to.
    let mut files: Vec<(PathBuf, Option<usize>)> = Vec::new();
    for (c, dir) in crate_dirs.iter().enumerate() {
        let (mut lib, mut bins) = (Vec::new(), Vec::new());
        rs_files(&dir.join("src"), &mut lib);
        rs_files(&dir.join("benches"), &mut bins);
        for p in lib {
            let is_bin = p.strip_prefix(dir.join("src/bin")).is_ok();
            files.push((p, (!is_bin).then_some(c)));
        }
        files.extend(bins.into_iter().map(|p| (p, None)));
    }
    let mut shared = Vec::new();
    rs_files(&root.join("examples"), &mut shared);
    rs_files(&root.join("perfbench/src"), &mut shared);
    let lines: Vec<Vec<String>> = files
        .iter()
        .map(|(p, _)| non_test_lines(p))
        .chain(shared.iter().map(|p| non_test_lines(p)))
        .collect();

    let mut count = 0;
    let mut unused: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (c, dir) in crate_dirs.iter().enumerate() {
        let mut callers = HashSet::new();
        for (i, text) in lines.iter().enumerate() {
            if files.get(i).is_none_or(|(_, owner)| *owner != Some(c)) {
                identifiers(text, &mut callers);
            }
        }
        for (i, (path, owner)) in files.iter().enumerate() {
            if !path.starts_with(dir.join("src")) {
                continue;
            }
            for (kind, name) in lines[i].iter().filter_map(|l| declaration(l)) {
                count += 1;
                if *owner == Some(c) && kind != "use" && !callers.contains(&name) {
                    let rel = path.strip_prefix(&root).unwrap_or(path);
                    let entry = unused.entry(rel.display().to_string()).or_default();
                    entry.push(format!("{kind} {name}"));
                }
            }
        }
    }

    let total: usize = unused.values().map(Vec::len).sum();
    println!("public declarations: {count}");
    println!("public items without an outside caller: {total} (ceiling {CEILING})");
    for (file, items) in &unused {
        println!("  {file}: {}", items.join(", "));
    }
    if total > CEILING {
        eprintln!("api_surface: {total} uncalled public items exceed the ceiling of {CEILING}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
