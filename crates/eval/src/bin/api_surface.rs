//! CI check that the public API is what callers use.
//!
//! ```text
//! api_surface [<workspace root>]
//! ```
//!
//! Prints four numbers and a list:
//! * the non-test line count of `crates/*/src` and `src`: every line
//!   except the items gated by a column-0 `#[cfg(test)]` (a one-line
//!   `mod name;`, or a braced item up to its column-0 `}`) and the files
//!   of modules declared that way;
//! * the public-declaration count: non-test lines matching
//!   `pub (fn|struct|enum|trait|type|const|static|mod|use) ` there;
//! * the settable-value count: the `pub` fields of the `pub struct`s
//!   there whose names end in `Config`, `Params`, `Spec`, `Options` or
//!   `Policy` — every value a caller can set on a fit, a corpus, a
//!   stream or a server;
//! * every `pub` item (re-exports aside) whose name appears in no
//!   caller outside its crate's library. A caller is non-test code in
//!   another crate's `src/` or `benches/`, the crate's own `src/bin/`
//!   or `benches/`, `examples/` or `perfbench/src/`; comment lines and
//!   `tests/` do not count.
//!
//! Exits 1 when that list is longer than [`CEILING`] (a new public item
//! that only its own crate uses should be `pub(crate)` or private) or
//! the settable values exceed [`SETTABLE_CEILING`] (a new setting needs
//! a caller that varies it, and the ceiling raised with it).
//!
//! Last, an informational list of *ambiguous* methods: public methods of
//! an `impl T` that pass only by a bare name another function shares,
//! with no caller naming `T::name` (or `Self::name` inside `impl T`).

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Largest accepted number of public items without an outside caller.
const CEILING: usize = 27;

/// Largest accepted number of settable values.
const SETTABLE_CEILING: usize = 77;

/// Name endings of the structs whose `pub` fields are settable values.
const SETTINGS: [&str; 5] = ["Config", "Params", "Spec", "Options", "Policy"];

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

/// Per line, the type of the column-0 `impl` block it is in (`impl<..>
/// a::T<..>` and `impl<..> Tr for T` both give `T`).
fn impl_types(lines: &[String]) -> Vec<Option<String>> {
    let mut this = None;
    let mut step = |line: &String| {
        if line == "}" {
            this = None;
        } else if let Some(head) =
            (line.strip_prefix("impl")).filter(|h| h.starts_with([' ', '<']) && !h.ends_with("{}"))
        {
            // Drop the generics; the type follows `for`, else `impl`.
            let mut depth = 0;
            let flat: String = (head.chars())
                .filter(|&c| {
                    depth += i32::from(c == '<') - i32::from(c == '>');
                    depth == 0 && c != '>'
                })
                .collect();
            let ty = flat
                .rsplit(" for ")
                .next()
                .and_then(|t| t.split_whitespace().next());
            this = ty.and_then(|t| t.rsplit("::").next()).map(str::to_string);
        }
        this.clone()
    };
    lines.iter().map(&mut step).collect()
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

/// The `pub` fields of the settings structs declared in `lines`: from a
/// `pub struct` whose name ends in one of [`SETTINGS`] to the `}` at its
/// indentation.
fn settable_fields(lines: &[String]) -> usize {
    let mut closing: Option<String> = None;
    let mut count = 0;
    for line in lines {
        if let Some(end) = &closing {
            if line == end {
                closing = None;
            } else if let Some((name, _)) = line
                .trim_start()
                .strip_prefix("pub ")
                .and_then(|f| f.split_once(':'))
            {
                count += usize::from(name.chars().all(|c| c.is_alphanumeric() || c == '_'));
            }
        } else if let Some(("struct", name)) = declaration(line) {
            if line.ends_with('{') && SETTINGS.iter().any(|s| name.ends_with(s)) {
                let indent = line.len() - line.trim_start().len();
                closing = Some(format!("{}}}", &line[..indent]));
            }
        }
    }
    count
}

/// Identifiers on the non-comment lines of `lines`, and their typed
/// paths `T::name` (`Self` resolved to the enclosing `impl`'s type).
fn identifiers(lines: &[String], into: &mut HashSet<String>, typed: &mut HashSet<String>) {
    for (line, this) in lines.iter().zip(impl_types(lines)) {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let words = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        into.extend(words.filter(|w| !w.is_empty()).map(str::to_string));
        for path in line.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':')) {
            for pair in path.split("::").collect::<Vec<_>>().windows(2) {
                let ty = this.as_deref().filter(|_| pair[0] == "Self");
                typed.insert(format!("{}::{}", ty.unwrap_or(pair[0]), pair[1]));
            }
        }
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

    // How many functions of any visibility carry each name.
    let mut declared: BTreeMap<String, usize> = BTreeMap::new();
    for line in lines.iter().flatten() {
        let bare = line.trim_start().trim_start_matches("pub(crate) ");
        if let Some(("fn", name)) = declaration(&format!("pub {}", bare.trim_start_matches("pub ")))
        {
            *declared.entry(name).or_default() += 1;
        }
    }

    let (mut count, mut non_test, mut settable) = (0, 0, 0);
    let mut unused: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut ambiguous: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (c, dir) in crate_dirs.iter().enumerate() {
        let (mut callers, mut typed) = (HashSet::new(), HashSet::new());
        for (i, text) in lines.iter().enumerate() {
            if files.get(i).is_none_or(|(_, owner)| *owner != Some(c)) {
                identifiers(text, &mut callers, &mut typed);
            }
        }
        for (i, (path, owner)) in files.iter().enumerate() {
            if !path.starts_with(dir.join("src")) {
                continue;
            }
            non_test += lines[i].len();
            settable += settable_fields(&lines[i]);
            let rel = path.strip_prefix(&root).unwrap_or(path).display();
            let decls = lines[i].iter().zip(impl_types(&lines[i]));
            for ((kind, name), this) in decls.filter_map(|(l, t)| Some((declaration(l)?, t))) {
                count += 1;
                let mine = *owner == Some(c) && kind != "use";
                if mine && !callers.contains(&name) {
                    let entry = unused.entry(rel.to_string()).or_default();
                    entry.push(format!("{kind} {name}"));
                } else if let Some(ty) = this.filter(|_| mine && kind == "fn") {
                    let path = format!("{ty}::{name}");
                    if declared[&name] > 1 && !typed.contains(&path) {
                        ambiguous.entry(rel.to_string()).or_default().push(path);
                    }
                }
            }
        }
    }

    let total: usize = unused.values().map(Vec::len).sum();
    println!("non-test lines: {non_test}");
    println!("public declarations: {count}");
    println!("settable values: {settable} (ceiling {SETTABLE_CEILING})");
    println!("public items without an outside caller: {total} (ceiling {CEILING})");
    for (file, items) in &unused {
        println!("  {file}: {}", items.join(", "));
    }
    let shared: usize = ambiguous.values().map(Vec::len).sum();
    println!("ambiguous public methods (informational, not gated): {shared}");
    for (file, items) in &ambiguous {
        println!("  {file}: {}", items.join(", "));
    }
    let mut failed = false;
    if total > CEILING {
        eprintln!("api_surface: {total} uncalled public items exceed the ceiling of {CEILING}");
        failed = true;
    }
    if settable > SETTABLE_CEILING {
        eprintln!(
            "api_surface: {settable} settable values exceed the ceiling of {SETTABLE_CEILING}"
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
