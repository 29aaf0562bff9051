//! The planted-mutation table (`tests/mutants.txt`): every row is a
//! one-place mistake, and the row's test must fail on it with the row's
//! message. A refactor that lets a mutant survive, or moves the code a row
//! names, fails here instead of silently weakening a net.
//!
//! The runner copies the workspace (without `target/` and hidden
//! directories) into one directory under the system temp dir, then for each
//! row applies the edit, runs `cargo test --release --offline <args>` there
//! with one shared target dir, and restores the file. It prints each row's
//! outcome and time. Run it with
//!
//! ```text
//! cargo test --release --test mutants -- --ignored --nocapture
//! ```
//!
//! `MUTANTS_TARGET_DIR` overrides the shared target dir (default: beside
//! the copy, kept between runs so a rerun rebuilds only what changed).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// One row of `mutants.txt`.
struct Mutant {
    line: usize,
    file: String,
    old: String,
    new: String,
    args: Vec<String>,
    expect: String,
}

/// Parse the table: five `" | "`-separated fields a row, `\n` a newline
/// and `\|` a literal pipe inside a field.
fn parse(table: &str) -> Vec<Mutant> {
    const PIPE: &str = "\u{0}";
    table
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, l)| {
            let fields: Vec<String> = l
                .replace("\\|", PIPE)
                .split(" | ")
                .map(|f| f.trim().replace("\\n", "\n").replace(PIPE, "|"))
                .collect();
            let [file, old, new, args, expect] = <[String; 5]>::try_from(fields)
                .unwrap_or_else(|f| panic!("mutants.txt:{}: {} fields, not 5", i + 1, f.len()));
            assert!(
                !old.is_empty() && !args.is_empty() && !expect.is_empty(),
                "mutants.txt:{}: empty old text, test arguments or expected message",
                i + 1
            );
            Mutant {
                line: i + 1,
                file,
                old,
                new,
                args: args.split_whitespace().map(String::from).collect(),
                expect,
            }
        })
        .collect()
}

/// Copy the workspace tree from `from` to `to`, leaving out build output
/// and hidden directories.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create the copy's directory");
    for entry in fs::read_dir(from).expect("read a workspace directory") {
        let entry = entry.expect("read a directory entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let (src, dst) = (entry.path(), to.join(&*name));
        if entry.file_type().expect("read an entry's type").is_dir() {
            copy_tree(&src, &dst);
        } else {
            fs::copy(&src, &dst).expect("copy a workspace file");
        }
    }
}

/// What became of one row.
enum Outcome {
    Killed,
    Stale(usize),
    /// The run passed, or failed without the row's message.
    NotKilled(String),
}

fn run_row(m: &Mutant, tree: &Path, target: &Path) -> Outcome {
    let path = tree.join(&m.file);
    let original = fs::read_to_string(&path).unwrap_or_default();
    let matches = original.matches(&m.old).count();
    if matches != 1 {
        return Outcome::Stale(matches);
    }
    fs::write(&path, original.replacen(&m.old, &m.new, 1)).expect("write the mutant");
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["test", "--release", "--offline", "-q"])
        .args(&m.args)
        .current_dir(tree)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("run cargo");
    fs::write(&path, &original).expect("restore the file");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    if !out.status.success() && text.contains(&m.expect) {
        return Outcome::Killed;
    }
    let tail: Vec<&str> = text.lines().rev().take(15).collect();
    Outcome::NotKilled(tail.into_iter().rev().collect::<Vec<_>>().join("\n"))
}

#[test]
#[ignore = "rebuilds the workspace once per mutant; run in release"]
// Wall time here reports how long each row took, never a simulated result.
#[allow(clippy::disallowed_methods)]
fn every_mutant_is_killed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = fs::read_to_string(root.join("tests/mutants.txt")).expect("read mutants.txt");
    let mutants = parse(&table);
    let base = std::env::temp_dir().join("teleport-mutants");
    let tree = base.join("tree");
    let target = std::env::var_os("MUTANTS_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| base.join("target"));
    let _ = fs::remove_dir_all(&tree);
    copy_tree(root, &tree);

    let start = Instant::now();
    let mut failed = Vec::new();
    for m in &mutants {
        let t0 = Instant::now();
        let outcome = run_row(m, &tree, &target);
        let verdict = match &outcome {
            Outcome::Killed => "killed".to_string(),
            Outcome::Stale(n) => format!("STALE (old text found {n} times)"),
            Outcome::NotKilled(_) => "NOT KILLED".to_string(),
        };
        println!(
            "mutants.txt:{:<3} {:<32} {:<40} {:>6.1} s",
            m.line,
            m.file,
            verdict,
            t0.elapsed().as_secs_f64()
        );
        if let Outcome::NotKilled(tail) = &outcome {
            println!("  expected {:?}; the run ended:\n{tail}", m.expect);
        }
        if !matches!(outcome, Outcome::Killed) {
            failed.push(format!("mutants.txt:{} ({}): {verdict}", m.line, m.file));
        }
    }
    println!(
        "{} mutants in {:.1} s",
        mutants.len(),
        start.elapsed().as_secs_f64()
    );
    let _ = fs::remove_dir_all(&tree);
    assert!(
        failed.is_empty(),
        "mutants not killed:\n{}",
        failed.join("\n")
    );
}
