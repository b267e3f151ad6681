//! Crash-point recovery property: serve a generated op stream through
//! an in-process [`Daemon`] with a state directory, cut `wal.log` at a
//! random frame boundary, [`Daemon::restore`], feed the rest of the
//! stream — and the final plan JSON bytes and summary utility bits must
//! equal the uninterrupted run's.
//!
//! A cut after an outcome frame is a crash between two ops; a cut
//! after an op frame is a crash mid-op (logged, never completed), which
//! restore finishes live. `snapshot_every` lies past the stream end, so
//! the WAL holds every op since the initial snapshot and any cut point
//! in the stream is reachable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use epplan::core::incremental::SequencedOp;
use epplan::core::model::Instance;
use epplan::datagen::{generate, GeneratorConfig, OpStreamSampler};
use epplan::serve::wal::{SNAPSHOT_FILE, WAL_FILE};
use epplan::serve::{Daemon, ServeConfig};
use proptest::prelude::*;

/// WAL frame header: tag `u8`, payload length `u32` LE, checksum `u32` LE.
const FRAME_HEADER_LEN: usize = 9;
/// Frame tag of an op record (an outcome record is tag 2).
const TAG_OP: u8 = 1;
/// Ops in the served stream.
const N_OPS: usize = 300;

fn instance() -> Instance {
    generate(&GeneratorConfig {
        n_users: 200,
        n_events: 10,
        seed: 13,
        ..GeneratorConfig::default()
    })
}

/// Clock-free budgets (the default), a drift trigger that fires a
/// few re-solves over the stream, and no snapshot after the initial
/// one.
fn config() -> ServeConfig {
    ServeConfig {
        drift_threshold: Some(300),
        snapshot_every: Some(1_000_000),
        ..ServeConfig::default()
    }
}

/// A fresh directory per call: test harnesses may run cases of this
/// file concurrently in one process.
fn state_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "epplan-crash-point-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What the two runs must agree on: the plan's JSON and the bits of
/// the summary utility.
fn fingerprint(d: &Daemon) -> (String, u64) {
    (
        serde_json::to_string(d.plan()).unwrap(),
        d.summary().utility.to_bits(),
    )
}

/// The uninterrupted run, shared by every case: its stream, the state
/// directory it left (the initial snapshot and the whole WAL) and its
/// fingerprint.
struct Reference {
    ops: Vec<SequencedOp>,
    snapshot: Vec<u8>,
    wal: Vec<u8>,
    want: (String, u64),
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = state_dir("ref");
        let mut d = Daemon::start(instance(), config(), Some(&dir)).unwrap();
        let ops = OpStreamSampler::new(29).sequenced_stream(d.instance(), d.plan(), N_OPS, 1);
        for sop in &ops {
            d.process(sop).unwrap();
        }
        assert!(d.summary().resolves > 0, "the stream should cross the drift trigger");
        let want = fingerprint(&d);
        drop(d);
        let reference = Reference {
            ops,
            snapshot: std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            wal: std::fs::read(dir.join(WAL_FILE)).unwrap(),
            want,
        };
        let _ = std::fs::remove_dir_all(&dir);
        reference
    })
}

/// Every byte offset at which a frame ends, with whether that frame is
/// an op record (a cut there falls between the op and its outcome).
fn frame_ends(wal: &[u8]) -> Vec<(usize, bool)> {
    let mut ends = Vec::new();
    let mut off = 0;
    while off + FRAME_HEADER_LEN <= wal.len() {
        let len = u32::from_le_bytes(wal[off + 1..off + 5].try_into().unwrap()) as usize;
        let end = off + FRAME_HEADER_LEN + len;
        assert!(end <= wal.len(), "uninterrupted run left a torn WAL");
        ends.push((end, wal[off] == TAG_OP));
        off = end;
    }
    assert_eq!(off, wal.len());
    ends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn restore_from_any_wal_frame_boundary_matches_uninterrupted_run(cut in 0.0f64..1.0) {
        let r = reference();
        // Crash at a frame boundary: offset 0 (nothing logged) or the
        // end of any frame.
        let mut cuts = vec![(0usize, false)];
        cuts.extend(frame_ends(&r.wal));
        let (at, mid_op) = cuts[((cut * cuts.len() as f64) as usize).min(cuts.len() - 1)];
        let dir = state_dir("crash");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), &r.snapshot).unwrap();
        std::fs::write(dir.join(WAL_FILE), &r.wal[..at]).unwrap();

        let mut d = Daemon::restore(config(), &dir).unwrap();
        let resumed_after = d.last_op_id();
        for sop in r.ops.iter().filter(|sop| sop.id > resumed_after) {
            d.process(sop).unwrap();
        }
        let got = fingerprint(&d);
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(
            got == r.want,
            "cut at byte {at} of {} (mid-op: {mid_op}, resumed after op {resumed_after}) \
             diverged from the uninterrupted run",
            r.wal.len()
        );
    }
}
