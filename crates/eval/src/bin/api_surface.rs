//! CI check that the public API is what callers use.
//!
//! ```text
//! api_surface [<workspace root>]
//! ```
//!
//! Prints three numbers and a list:
//! * the non-test line count of `crates/*/src` and `src`: every line
//!   except the items gated by a column-0 `#[cfg(test)]` (a one-line
//!   `mod name;`, or a braced item up to its column-0 `}`) and the files
//!   of modules declared that way;
//! * the public-declaration count: non-test lines matching
//!   `pub (fn|struct|enum|trait|type|const|static|mod|use) ` there;
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

/// A source file's non-test lines, and the files of the modules it
/// declares test-only (`#[cfg(test)] mod name;`).
fn split_test_items(path: &Path) -> (Vec<String>, Vec<PathBuf>) {
    const GATE: &str = "#[cfg(test)]";
    let text = fs::read_to_string(path).expect("source files are readable UTF-8");
    let (mut lines, mut test_files) = (Vec::new(), Vec::new());
    // `Some(opened)` while inside a gated item; `opened` once its block
    // has begun, after which a column-0 `}` closes it (rustfmt layout).
    let mut gated: Option<bool> = None;
    for line in text.lines() {
        let item = match gated {
            None if line.starts_with(GATE) => line[GATE.len()..].trim(),
            None => {
                lines.push(line.to_string());
                continue;
            }
            Some(true) => {
                if line == "}" {
                    gated = None;
                }
                continue;
            }
            Some(false) => line.trim(),
        };
        gated = Some(false);
        if item.ends_with('{') {
            gated = Some(true);
        } else if item.ends_with(';') || item.ends_with('}') {
            if let Some(name) = declared_module(item) {
                test_files.push(module_file(path, &name));
            }
            gated = None;
        }
    }
    (lines, test_files)
}

/// `name` of a `mod name;` declaration (any visibility).
fn declared_module(item: &str) -> Option<String> {
    let rest = item.split_once("mod ")?.1.trim_start();
    let name = rest.strip_suffix(';')?.trim();
    name.chars()
        .all(|c| c.is_alphanumeric() || c == '_')
        .then(|| name.to_string())
}

/// The file of module `name` declared in `parent` (`name.rs` beside a
/// `lib.rs`/`main.rs`/`mod.rs`, else in the directory named after `parent`).
fn module_file(parent: &Path, name: &str) -> PathBuf {
    let dir = parent.parent().expect("source files live in a directory");
    let stem = parent.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let base = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    base.join(format!("{name}.rs"))
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
    let (mut lines, mut test_only) = (Vec::new(), HashSet::new());
    for path in files.iter().map(|(p, _)| p).chain(&shared) {
        let (text, tests) = split_test_items(path);
        lines.push(text);
        test_only.extend(tests);
    }
    // Files of test-only modules are test code: drop their lines.
    for (i, (path, _)) in files.iter().enumerate() {
        if test_only.contains(path) {
            lines[i].clear();
        }
    }

    let (mut count, mut non_test) = (0, 0);
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
            non_test += lines[i].len();
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
    println!("non-test lines: {non_test}");
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
