//! The committed record says what the binary does. For every experiment
//! with a full-scale `results/<id>.json`, `acc-bench report` on that file
//! prints exactly the fenced block EXPERIMENTS.md holds between
//! `<!-- acc-bench report results/<id>.json -->` and `<!-- end -->`
//! (blank lines around the output aside). A result regenerated without its
//! table, a table edited by hand, or a `show` that now prints something
//! else fails here; regenerating a block is pasting that command's output.

use std::path::PathBuf;
use std::process::Command;

const END: &str = "<!-- end -->";

/// The repository root: results paths and EXPERIMENTS.md are relative to it.
fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The fenced block after `marker` in `doc`, fences stripped. `None` when
/// the marker, its `<!-- end -->` or the fences are missing.
fn marked_block<'a>(doc: &'a str, marker: &str) -> Option<&'a str> {
    let rest = &doc[doc.find(marker)? + marker.len()..];
    let body = rest[..rest.find(END)?].trim_matches('\n');
    body.strip_prefix("```text\n")?.strip_suffix("\n```")
}

/// The first line where `a` and `b` differ, 1-based, with both sides.
fn first_difference(a: &str, b: &str) -> String {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        match (la.next(), lb.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => break,
            (x, y) => return format!("line {n}: report {x:?}, EXPERIMENTS.md {y:?}"),
        }
    }
    "no line differs".into()
}

#[test]
fn experiments_md_quotes_every_committed_result() {
    let doc = std::fs::read_to_string(repo().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut stale = Vec::new();
    let mut checked = 0;
    for e in acc_bench::EXPERIMENTS.iter() {
        let rel = format!("results/{}.json", e.id);
        if !repo().join(&rel).exists() {
            continue;
        }
        let out = Command::new(env!("CARGO_BIN_EXE_acc-bench"))
            .args(["report", &rel])
            .current_dir(repo())
            .output()
            .expect("acc-bench starts");
        assert!(
            out.status.success(),
            "report {rel}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let printed = String::from_utf8(out.stdout).expect("UTF-8 report");
        let printed = printed.trim_matches('\n');
        let marker = format!("<!-- acc-bench report {rel} -->");
        match marked_block(&doc, &marker) {
            None => stale.push(format!("{rel}: no fenced block under `{marker}`")),
            Some(block) if block != printed => {
                stale.push(format!("{rel}: {}", first_difference(printed, block)))
            }
            Some(_) => {}
        }
        checked += 1;
    }
    assert!(checked > 0, "no committed results under results/");
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md is stale against results/ (paste `acc-bench report <file>`):\n{}",
        stale.join("\n")
    );
}
