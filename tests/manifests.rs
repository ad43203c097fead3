//! Dependency-graph contract, read straight from the manifests.
//!
//! * No library crate under `crates/` links proptest: it may appear only
//!   under `[dev-dependencies]`, so `repro`, the gates and every other
//!   binary compile no test framework. The integration tests' shared
//!   scenario generator lives in the umbrella package (`src/testgen.rs`).
//! * The offline stubs agree everywhere they are named: the directories
//!   under `vendor/`, the root manifest's `vendor/` workspace members and
//!   default members, and the rows of `vendor/README.md`'s table.
//! * The crate table in `docs/ARCHITECTURE.md` names, for every crate
//!   under `crates/`, exactly the first-party crates its manifest lists
//!   under `[dependencies]`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Sorted `crates/*/Cargo.toml` paths.
fn crate_manifests() -> Vec<PathBuf> {
    let dir = root().join("crates");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    out.sort();
    assert!(!out.is_empty(), "crates/ must hold crate manifests");
    out
}

/// The dependency names a manifest lists for normal (non-dev, non-build)
/// builds: keys under `[dependencies]` or `[target.….dependencies]`, and
/// `[dependencies.<name>]` tables.
fn normal_dependencies(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let section = header.trim_end_matches(']').trim();
            in_deps = section == "dependencies" || section.ends_with(".dependencies");
            // a `[dependencies.<name>]` table names one dependency; its
            // keys are that dependency's settings
            if let Some(name) = section.strip_prefix("dependencies.") {
                deps.push(name.to_string());
            }
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().expect("split yields a first item");
            deps.push(key.trim().to_string());
        }
    }
    deps
}

/// The quoted entries of the array `key = [ … ]` in a manifest.
fn string_array(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .lines()
        .position(|l| {
            l.trim().starts_with(key) && l.trim()[key.len()..].trim_start().starts_with('=')
        })
        .unwrap_or_else(|| panic!("manifest has no `{key}` array"));
    let mut out = Vec::new();
    for line in manifest.lines().skip(start) {
        for (i, part) in line.split('"').enumerate() {
            if i % 2 == 1 {
                out.push(part.to_string());
            }
        }
        if line.contains(']') {
            return out;
        }
    }
    panic!("`{key}` array is not closed");
}

#[test]
fn no_library_crate_links_proptest() {
    let offenders: Vec<String> = crate_manifests()
        .into_iter()
        .filter(|m| normal_dependencies(&read(m)).iter().any(|d| d == "proptest"))
        .map(|m| m.strip_prefix(root()).unwrap_or(&m).display().to_string())
        .collect();
    assert!(
        offenders.is_empty(),
        "proptest is a test framework; list it under [dev-dependencies] only: {offenders:?}"
    );
}

#[test]
fn vendor_dirs_members_and_readme_name_the_same_stubs() {
    let dir = root().join("vendor");
    let dirs: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| p.file_name().expect("dir has a name").to_string_lossy().into_owned())
        .collect();
    assert!(!dirs.is_empty(), "vendor/ must hold the offline stubs");

    let manifest = read(&root().join("Cargo.toml"));
    let vendored = |key: &str| -> BTreeSet<String> {
        string_array(&manifest, key)
            .iter()
            .filter_map(|m| m.strip_prefix("vendor/"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(vendored("members"), dirs, "workspace members under vendor/");
    assert_eq!(vendored("default-members"), dirs, "default members under vendor/");

    let rows: BTreeSet<String> = read(&dir.join("README.md"))
        .lines()
        .filter_map(|l| l.strip_prefix("| `vendor/"))
        .map(|rest| rest.split('`').next().expect("split yields a first item").to_string())
        .collect();
    assert_eq!(rows, dirs, "rows of vendor/README.md's stub table");
}

/// The `name` of a manifest's `[package]`.
fn package_name(manifest: &str) -> &str {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[package]")
        .find_map(|l| l.trim().strip_prefix("name")?.trim_start().strip_prefix('='))
        .map(|v| v.trim().trim_matches('"'))
        .expect("manifest has a [package] name")
}

#[test]
fn architecture_crate_table_names_each_crates_first_party_dependencies() {
    const PREFIX: &str = "crescent-";
    // `| `crescent-x` | a, b | role |` → ("crescent-x", {"a", "b"}); `—`
    // is the empty list
    let table: BTreeMap<String, BTreeSet<String>> = read(&root().join("docs/ARCHITECTURE.md"))
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|row| {
            let mut cells = row.split('|');
            let name = cells.next()?.trim().trim_end_matches('`');
            let deps = cells.next()?.split(',').map(str::trim).filter(|d| *d != "—");
            Some((name.to_string(), deps.map(str::to_string).collect()))
        })
        .filter(|(name, _)| name.starts_with(PREFIX))
        .collect();
    for path in crate_manifests() {
        let manifest = read(&path);
        let name = package_name(&manifest);
        let want: BTreeSet<String> = normal_dependencies(&manifest)
            .iter()
            .filter_map(|d| d.strip_prefix(PREFIX))
            .map(str::to_string)
            .collect();
        let row = table
            .get(name)
            .unwrap_or_else(|| panic!("docs/ARCHITECTURE.md's crate table has no `{name}` row"));
        assert_eq!(
            row,
            &want,
            "docs/ARCHITECTURE.md's \"Depends on\" cell for `{name}` against {}",
            path.strip_prefix(root()).unwrap_or(&path).display()
        );
    }
}

#[test]
fn manifest_parsers_read_the_forms_cargo_accepts() {
    let manifest = r#"
[package]
name = "x"

[dependencies]
# a comment
rand.workspace = true
half = { path = "h" }

[dev-dependencies]
proptest.workspace = true

[target.'cfg(unix)'.dependencies]
libc = "0.2"

[dependencies.extra]
path = "e"
"#;
    assert_eq!(normal_dependencies(manifest), ["rand", "half", "libc", "extra"]);
    assert_eq!(package_name(manifest), "x");
    let arrays = r#"
members = [
    "a",
    "vendor/b",
]
default-members = [".", "c"]
"#;
    assert_eq!(string_array(arrays, "members"), ["a", "vendor/b"]);
    assert_eq!(string_array(arrays, "default-members"), [".", "c"]);
}
