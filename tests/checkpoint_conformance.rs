//! Conformance suite for the checkpoint/restore contract (DESIGN.md §16).
//!
//! The contract under test: a run checkpointed at instant T and restored
//! produces **byte-identical** CLI output to the uninterrupted run —
//! across topology shapes, communication patterns, healthy and faulty
//! schedules, and serial vs `--shards 3` execution. Snapshot *files* are
//! mode-independent too: a sharded capture composes its per-shard pieces
//! (DESIGN.md §15 contiguous slices) into exactly the bytes a serial
//! capture writes.
//!
//! The golden snapshot fixture follows the `tests/golden_cli.rs`
//! convention: `BLESS=1 cargo test --test checkpoint_conformance`
//! regenerates it after intentional format changes.

use std::path::{Path, PathBuf};

use mermaid::cli::run;

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mermaid-ckpt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Base args of one task-mode run in the conformance matrix.
fn base_args(topo: &str, pattern: &str, faults: Option<&str>) -> Vec<String> {
    let mut v = s(&[
        "sim",
        "--machine",
        "test",
        "--topology",
        topo,
        "--mode",
        "task",
        "--phases",
        "2",
        "--ops",
        "500",
        "--pattern",
        pattern,
    ]);
    if let Some(f) = faults {
        v.extend(s(&["--faults", f, "--fault-seed", "9"]));
    }
    v
}

/// Run a capture pass: the base run plus `--checkpoint-every`/`-dir`
/// (and optionally `--shards 3`), returning the snapshot files written,
/// in capture order (the zero-padded names sort chronologically).
fn capture(base: &[String], dir: &Path, sharded: bool) -> Vec<PathBuf> {
    let mut args = base.to_vec();
    args.extend(s(&[
        "--checkpoint-every",
        "200000",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]));
    if sharded {
        args.extend(s(&["--shards", "3"]));
    }
    let out = run(&args).unwrap();
    assert!(out.contains("checkpoints written:"), "{out}");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no checkpoint written for {base:?} — cadence too coarse for the run"
    );
    files
}

fn restore(base: &[String], snap: &Path, shards: Option<&str>) -> String {
    let mut args = base.to_vec();
    args.extend(s(&["--restore", snap.to_str().unwrap()]));
    if let Some(n) = shards {
        args.extend(s(&["--shards", n]));
    }
    run(&args).unwrap()
}

/// The conformance matrix: every topology shape × three communication
/// patterns, restored mid-run both serially and on 3 shards, must
/// reproduce the uninterrupted run's stdout byte for byte.
#[test]
fn restored_runs_are_byte_identical_across_the_matrix() {
    let topos = ["ring:8", "mesh:4x2", "torus:4x2", "hypercube:3"];
    let patterns = ["ring", "all2all", "butterfly"];
    for topo in topos {
        for pattern in patterns {
            let base = base_args(topo, pattern, None);
            let straight = run(&base).unwrap();
            let dir = temp_dir(&format!("m-{}-{pattern}", topo.replace(':', "_")));
            let snaps = capture(&base, &dir, false);
            // The middle checkpoint: far from both the warm-up and the
            // drain, where pending-event state is at its richest.
            let mid = &snaps[snaps.len() / 2];
            assert_eq!(
                straight,
                restore(&base, mid, None),
                "{topo} × {pattern}: serial restore diverged"
            );
            assert_eq!(
                straight,
                restore(&base, mid, Some("3")),
                "{topo} × {pattern}: sharded restore diverged"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Faulty runs — a healing link outage plus transient loss, and a
/// permanent cut — restore byte-identically too: Outstanding retry
/// state, fault status, and delivery accounting all live in the
/// snapshot.
#[test]
fn faulty_runs_restore_byte_identically() {
    for (topo, pattern, faults) in [
        ("ring:8", "ring", "link:0-1:2000:400000; drop:20000"),
        ("torus:4x2", "all2all", "link:0-1:0; corrupt:10000"),
    ] {
        let base = base_args(topo, pattern, Some(faults));
        let straight = run(&base).unwrap();
        assert!(straight.contains("fault injection:"), "{straight}");
        let dir = temp_dir(&format!("f-{}", topo.replace(':', "_")));
        let snaps = capture(&base, &dir, false);
        let mid = &snaps[snaps.len() / 2];
        assert_eq!(straight, restore(&base, mid, None), "{topo} faulty serial");
        assert_eq!(
            straight,
            restore(&base, mid, Some("3")),
            "{topo} faulty sharded"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Snapshot files are execution-mode-independent: a `--shards 3` capture
/// writes byte-identical files (same names, same contents) to the serial
/// capture of the same run — healthy and faulty alike.
#[test]
fn serial_and_sharded_captures_write_identical_snapshot_files() {
    for faults in [None, Some("link:0-1:2000:400000; drop:20000")] {
        let base = base_args("torus:4x2", "all2all", faults);
        let (d1, d3) = (
            temp_dir(&format!("cap1-{}", faults.is_some())),
            temp_dir(&format!("cap3-{}", faults.is_some())),
        );
        let serial = capture(&base, &d1, false);
        let sharded = capture(&base, &d3, true);
        let names = |v: &[PathBuf]| -> Vec<String> {
            v.iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(names(&serial), names(&sharded), "capture instants differ");
        for (a, b) in serial.iter().zip(&sharded) {
            assert_eq!(
                std::fs::read_to_string(a).unwrap(),
                std::fs::read_to_string(b).unwrap(),
                "{} differs between serial and sharded capture",
                a.file_name().unwrap().to_string_lossy()
            );
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d3).ok();
    }
}

/// Attribution state rides in the snapshot: a restored run's
/// `attribution.json` is byte-identical to the uninterrupted run's.
#[test]
fn restored_attribution_json_is_byte_identical() {
    let dir = temp_dir("attr");
    let json = |tag: &str| dir.join(format!("{tag}.json"));
    let base = base_args("torus:4x2", "all2all", None);

    let mut straight_args = base.clone();
    straight_args.extend(s(&["--attribution", json("straight").to_str().unwrap()]));
    run(&straight_args).unwrap();

    let mut cap_args = base.clone();
    cap_args.extend(s(&[
        "--attribution",
        json("capture").to_str().unwrap(),
        "--checkpoint-every",
        "200000",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]));
    run(&cap_args).unwrap();
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    let mid = snaps[snaps.len() / 2].clone();

    for (tag, shards) in [("serial", None), ("sharded", Some("3"))] {
        let mut args = base.clone();
        args.extend(s(&["--attribution", json(tag).to_str().unwrap()]));
        args.extend(s(&["--restore", mid.to_str().unwrap()]));
        if let Some(n) = shards {
            args.extend(s(&["--shards", n]));
        }
        run(&args).unwrap();
        assert_eq!(
            std::fs::read_to_string(json("straight")).unwrap(),
            std::fs::read_to_string(json(tag)).unwrap(),
            "attribution.json diverged after a {tag} restore"
        );
    }
    // The capture run's own attribution matches too — checkpointing only
    // observes.
    assert_eq!(
        std::fs::read_to_string(json("straight")).unwrap(),
        std::fs::read_to_string(json("capture")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot captured *with* attribution restores fine into a run
/// without it; the reverse is refused with an actionable error.
#[test]
fn attribution_snapshot_compatibility_is_one_way() {
    let dir = temp_dir("attr-compat");
    let base = base_args("ring:8", "ring", None);
    let mut cap = base.clone();
    cap.extend(s(&[
        "--checkpoint-every",
        "200000",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]));
    run(&cap).unwrap();
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .min()
        .unwrap();
    // No attr record in the snapshot + an attribution run = refusal.
    let mut args = base.clone();
    args.extend(s(&[
        "--restore",
        snap.to_str().unwrap(),
        "--attribution",
        dir.join("a.json").to_str().unwrap(),
    ]));
    let err = run(&args).unwrap_err();
    assert!(err.contains("no `attr` record"), "{err}");
    assert!(err.contains("re-create the checkpoint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn and truncated snapshot files are detected and refused — never
/// silently restored.
#[test]
fn torn_snapshots_are_detected_never_restored() {
    let dir = temp_dir("torn");
    let base = base_args("ring:8", "ring", None);
    let mut cap = base.clone();
    cap.extend(s(&[
        "--checkpoint-every",
        "200000",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]));
    run(&cap).unwrap();
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .min()
        .unwrap();
    let text = std::fs::read_to_string(&snap).unwrap();

    // Cut the body anywhere: the FNV body hash in the header no longer
    // matches and the restore is refused with the torn-file diagnostic.
    let torn = dir.join("torn.snap");
    std::fs::write(&torn, &text[..text.len() - 20]).unwrap();
    let mut args = base.clone();
    args.extend(s(&["--restore", torn.to_str().unwrap()]));
    let err = run(&args).unwrap_err();
    assert!(err.contains("torn or truncated"), "{err}");

    // Truncating into the header fails the magic/field checks instead.
    std::fs::write(&torn, &text[..12]).unwrap();
    assert!(run(&args).is_err());

    // An empty file is refused too.
    std::fs::write(&torn, "").unwrap();
    let err = run(&args).unwrap_err();
    assert!(err.contains("not a mermaid snapshot"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose body hash is valid but whose `router 9` record carries
/// one integer too many fails to restore with the same error at every
/// shard count — promptly: a failing shard must release its peers rather
/// than strand them at the window barrier. Each restore runs under a
/// watchdog so a regression fails the test instead of hanging the suite.
#[test]
fn a_malformed_record_fails_the_restore_alike_at_every_shard_count() {
    let dir = temp_dir("malformed");
    let base = base_args("torus:4x4", "all2all", None);
    let snap = capture(&base, &dir, false).swap_remove(0);
    let text = std::fs::read_to_string(&snap).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    let body: String = body
        .lines()
        .map(|l| {
            if l.starts_with("router 9 ") {
                format!("{l} 7\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let header: Vec<String> = header
        .split(' ')
        .map(|f| match f.strip_prefix("body=") {
            Some(_) => format!(
                "body={:016x}",
                mermaid_network::snapshot::fnv1a64(body.as_bytes())
            ),
            None => f.to_string(),
        })
        .collect();
    let bad = dir.join("malformed.snap");
    std::fs::write(&bad, format!("{}\n{body}", header.join(" "))).unwrap();

    let errors: Vec<String> = ["1", "2", "3"]
        .into_iter()
        .map(|shards| {
            let mut args = base.clone();
            args.extend(s(&["--restore", bad.to_str().unwrap(), "--shards", shards]));
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || tx.send(run(&args)).unwrap());
            rx.recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("restore on {shards} shard(s) hung"))
                .expect_err("a malformed record must be refused")
        })
        .collect();
    assert!(
        errors[0].starts_with(
            "corrupt snapshot (router 9 record): 1 trailing integer(s) after the router state"
        ),
        "{}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1], "2 shards");
    assert_eq!(errors[0], errors[2], "3 shards");
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden fixture of a complete snapshot file for a pinned tiny run: the
/// on-disk format — header fields, record layout, integer encodings,
/// body hash — is a persistence contract (DESIGN.md §16). Any drift must
/// bump `schema=` and be blessed deliberately.
#[test]
fn golden_snapshot_fixture() {
    let dir = temp_dir("golden");
    let args = s(&[
        "sim",
        "--machine",
        "test",
        "--topology",
        "ring:4",
        "--mode",
        "task",
        "--phases",
        "1",
        "--ops",
        "300",
        "--checkpoint-every",
        "200000",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    run(&args).unwrap();
    let first = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .min()
        .expect("a checkpoint was written");
    let got = std::fs::read_to_string(&first).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Header shape: magic, schema, config hash, nodes, instant, body hash.
    let header = got.lines().next().unwrap();
    assert!(
        header.starts_with("mermaid-snapshot-v1 schema=1 config="),
        "{header}"
    );
    assert!(header.contains("nodes=4"), "{header}");
    assert!(header.contains("time=200000"), "{header}");
    assert!(got.trim_end().ends_with("end"), "missing end marker");

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_ring4.snap");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `BLESS=1 cargo test --test checkpoint_conformance`",
            golden.display()
        )
    });
    assert_eq!(
        got, want,
        "snapshot format drifted — if intentional, bump SNAPSHOT_SCHEMA, regenerate with \
         `BLESS=1 cargo test --test checkpoint_conformance`, and document it in DESIGN.md §16"
    );
}
