//! Golden serving output: a fixed 3000-op stream at 500 users × 20
//! events, served once with `ServeConfig::default()` and once with the
//! bursty overload configuration, must reproduce the recorded ack
//! stream, final plan, WAL and snapshot bytes exactly — at one worker
//! thread and at four.
//!
//! The constants were recorded from the clone-per-op daemon that
//! preceded in-place serving; any change to the per-op core (journal,
//! rollback, delta certification) has to leave every byte the daemon
//! emits unchanged.

use std::path::{Path, PathBuf};

use epplan::core::incremental::SequencedOp;
use epplan::core::model::Instance;
use epplan::datagen::{generate, BurstSpec, GeneratorConfig, OpStreamSampler};
use epplan::serve::wal::{SNAPSHOT_FILE, WAL_FILE};
use epplan::serve::{BrownoutKnobs, Daemon, OverloadConfig, ServeConfig};

const N_OPS: usize = 3000;

/// FNV-1a, 64-bit: a stable, dependency-free fingerprint.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// What one golden run is pinned to.
#[derive(Debug, PartialEq)]
struct Golden {
    /// (status, dif, drift, retries, utility bits, error) of every ack.
    acks: u64,
    /// `[applied, resolved, rejected, shed]` ack counts.
    statuses: [u64; 4],
    /// Bits of the last ack's utility.
    final_utility: u64,
    /// The final plan's JSON.
    plan: u64,
    /// WAL bytes, read every 50 ops and at the end (snapshots
    /// truncate the log, so one read at the end would miss most of it).
    wal: u64,
    /// The final snapshot file.
    snapshot: u64,
}

fn instance() -> Instance {
    generate(&GeneratorConfig {
        n_users: 500,
        n_events: 20,
        seed: 5,
        ..GeneratorConfig::default()
    })
}

/// The bursty overload configuration: admission deadline 2 ops,
/// brownout 8,4 under a 0 µs SLO (every op burns, so the ladder walks
/// deterministically), quarantine after 3, drift threshold 100.
fn overload_config() -> ServeConfig {
    ServeConfig {
        drift_threshold: Some(100),
        snapshot_every: Some(2500),
        slo_p99_us: Some(0),
        overload: OverloadConfig {
            op_deadline_ops: Some(2),
            brownout: Some(BrownoutKnobs {
                down_after: 8,
                up_after: 4,
            }),
            quarantine_after: Some(3),
        },
        ..ServeConfig::default()
    }
}

fn state_dir(tag: &str, threads: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "epplan-golden-{tag}-{threads}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_hash(h: &mut Fnv, path: &Path) {
    h.bytes(&std::fs::read(path).unwrap_or_default());
}

fn run(config: ServeConfig, burst: Option<BurstSpec>, tag: &str, threads: usize) -> Golden {
    epplan::par::set_threads(threads);
    let dir = state_dir(tag, threads);
    let mut d = Daemon::start(instance(), config, Some(&dir)).unwrap();
    let mut sampler = OpStreamSampler::new(17);
    let ops: Vec<SequencedOp> = match burst {
        Some(b) => sampler.sequenced_burst_stream(d.instance(), d.plan(), N_OPS, 1, b),
        None => sampler.sequenced_stream(d.instance(), d.plan(), N_OPS, 1),
    };
    let (mut acks, mut wal) = (Fnv::new(), Fnv::new());
    let mut statuses = [0u64; 4];
    let mut final_utility = 0;
    for (k, sop) in ops.iter().enumerate() {
        let resp = d.process(sop).unwrap();
        acks.bytes(resp.status.as_bytes());
        acks.u64(resp.dif);
        acks.u64(resp.drift);
        acks.u64(u64::from(resp.retries));
        acks.u64(resp.utility.to_bits());
        acks.bytes(resp.error.as_deref().unwrap_or("").as_bytes());
        final_utility = resp.utility.to_bits();
        let slot = ["applied", "resolved", "rejected", "shed"]
            .iter()
            .position(|s| *s == resp.status)
            .unwrap_or_else(|| panic!("unexpected status {}", resp.status));
        statuses[slot] += 1;
        if (k + 1) % 50 == 0 {
            file_hash(&mut wal, &dir.join(WAL_FILE));
        }
    }
    assert!(d.certificate().hard_ok(), "final plan must certify");
    file_hash(&mut wal, &dir.join(WAL_FILE));
    let mut plan = Fnv::new();
    plan.bytes(serde_json::to_string(d.plan()).unwrap().as_bytes());
    let mut snapshot = Fnv::new();
    file_hash(&mut snapshot, &dir.join(SNAPSHOT_FILE));
    let _ = std::fs::remove_dir_all(&dir);
    Golden {
        acks: acks.0,
        statuses,
        final_utility,
        plan: plan.0,
        wal: wal.0,
        snapshot: snapshot.0,
    }
}

const DEFAULT_GOLDEN: Golden = Golden {
    acks: 569803744580462650,
    statuses: [2998, 0, 2, 0],
    final_utility: 4651479243812320123,
    plan: 17187031550234783030,
    wal: 6297899012173733370,
    snapshot: 3017585099065782612,
};

const OVERLOAD_GOLDEN: Golden = Golden {
    acks: 5473584003462300215,
    statuses: [2964, 15, 3, 18],
    final_utility: 4651360578230347349,
    plan: 427238127420444496,
    wal: 4570316812417023421,
    snapshot: 17235088149653334931,
};

/// One test per configuration, each covering both thread counts in
/// sequence: the worker count is process-global.
#[test]
fn default_config_reproduces_the_golden_stream() {
    for threads in [1, 4] {
        let got = run(ServeConfig::default(), None, "default", threads);
        assert_eq!(got, DEFAULT_GOLDEN, "EPPLAN_THREADS={threads}");
    }
}

#[test]
fn bursty_overload_config_reproduces_the_golden_stream() {
    let burst = BurstSpec { len: 64, gap: 16 };
    for threads in [1, 4] {
        let got = run(overload_config(), Some(burst), "overload", threads);
        assert_eq!(got, OVERLOAD_GOLDEN, "EPPLAN_THREADS={threads}");
    }
}
