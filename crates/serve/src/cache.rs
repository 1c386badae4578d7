//! The persistent, content-addressed result cache.
//!
//! Every finished cell is stored as `cache/{SCENE}-{fingerprint:016x}.jsonl`
//! under the service directory, where the fingerprint is the engine's
//! [`vtq::sweep::cell_key_fingerprint`] — config fingerprint plus exact
//! policy parameters. Content addressing is what makes the daemon's crash
//! recovery honest: a resubmitted job after a `kill -9` re-runs only the
//! cells whose entries are missing, and identical submissions from
//! different tenants share work byte-for-byte.
//!
//! Each entry is two checksum-framed lines: the workspace provenance
//! header (carrying the cell's *config* fingerprint, so skew between
//! daemon builds is detectable) and one `cell_result` record. Entries
//! are staged to a unique temp file, `sync_all`-ed, renamed into place
//! and the directory fsynced, so neither a crash mid-write nor power
//! loss just after "done" can surface a torn or vanished entry. An
//! entry that *still* fails its checksum on load (disk-level
//! corruption) is quarantined to `cache/corrupt/` and reported as a
//! miss, so the cell recomputes and the bit-identity invariant holds.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use vtq::diskfault::{guarded_read_to_string, sweep_orphan_tmps, write_file_durable};
use vtq::jsonl::{check_line, frame_line, is_framed, parse_line};
use vtq::provenance::{provenance_line, PROVENANCE_RECORD};

use crate::proto::CellRecord;

/// Subdirectory of the service dir holding cache entries.
pub const CACHE_DIR: &str = "cache";

/// Subdirectory of the cache dir where corrupt entries are quarantined.
pub const QUARANTINE_DIR: &str = "corrupt";

/// A directory-backed result cache. Cheap to construct; all state is on
/// disk.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `service_dir/cache`,
    /// sweeping any `.tmp` staging files orphaned by a crashed (or
    /// fault-injected) predecessor — they were never published, so
    /// removing them is always safe.
    pub fn open(service_dir: &Path) -> io::Result<ResultCache> {
        let dir = service_dir.join(CACHE_DIR);
        fs::create_dir_all(&dir)?;
        match sweep_orphan_tmps(&dir) {
            Ok(0) | Err(_) => {}
            Ok(n) => eprintln!("[cache] swept {n} orphaned temp file(s)"),
        }
        Ok(ResultCache { dir })
    }

    /// The cache key for a `(scene, cell fingerprint)` pair.
    pub fn key(scene: &str, fingerprint: u64) -> String {
        format!("{scene}-{fingerprint:016x}")
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.jsonl"))
    }

    /// Loads the entry for `key`, verifying its checksum frames and its
    /// provenance header: an entry whose header names a different crate
    /// version or config fingerprint than the record claims is treated
    /// as absent (and the mismatch reported), never served. An entry
    /// failing its checksum is quarantined to
    /// [`QUARANTINE_DIR`](self::QUARANTINE_DIR) and reported as a miss
    /// so the cell recomputes — a corrupt frame is never served.
    pub fn load(&self, key: &str, config_fingerprint: u64) -> Option<CellRecord> {
        let text = guarded_read_to_string(&self.entry_path(key)).ok()?;
        let mut verified = Vec::new();
        for line in text.lines() {
            match check_line(line) {
                Ok(payload) => verified.push(payload),
                Err(e) => {
                    self.quarantine(key, &e.to_string());
                    return None;
                }
            }
        }
        // A framed entry is exactly two verified lines; fewer means the
        // file was truncated after the frames were checked line-wise
        // (e.g. a short read dropping line 2 entirely).
        if is_framed(&text) && verified.len() < 2 {
            self.quarantine(key, "framed entry truncated to fewer than 2 records");
            return None;
        }
        let mut lines = verified.iter().map(String::as_str);
        let header = parse_line(lines.next()?).ok();
        let Some(header) = header.filter(|f| f.record() == Some(PROVENANCE_RECORD)) else {
            eprintln!("[cache] {key}: entry lacks a provenance header; ignoring");
            return None;
        };
        // The header's config fingerprint must match the configuration
        // the *caller* is about to run — a daemon restarted with a
        // different base config must not serve stale results.
        let stamped = header.hex64("config_fingerprint").ok();
        if stamped != Some(config_fingerprint) {
            eprintln!(
                "[cache] {key}: provenance fingerprint {stamped:?} != expected \
                 {config_fingerprint:#018x}; ignoring entry"
            );
            return None;
        }
        let record = lines.next().and_then(CellRecord::parse)?;
        prof::add(prof::Counter::ResultCacheHits, 1);
        Some(record)
    }

    /// Moves the entry for `key` into the `corrupt/` quarantine (best
    /// effort) with a forensic report. The entry then reads as a miss,
    /// so the cell recomputes; the damaged bytes are preserved for
    /// inspection rather than silently deleted or — worse — served.
    fn quarantine(&self, key: &str, why: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let dest = qdir.join(format!("{key}.jsonl"));
        let moved = fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(self.entry_path(key), &dest))
            .is_ok();
        eprintln!(
            "[cache] {key}: {why}; {} — cell will recompute",
            if moved {
                format!("entry quarantined to {}", dest.display())
            } else {
                "quarantine move failed; entry left in place and ignored".to_string()
            }
        );
    }

    /// Stores `record` under `key` durably: both lines checksum-framed,
    /// staged to a unique temp file, `sync_all`-ed, atomically renamed,
    /// directory fsynced (see [`vtq::diskfault::write_file_durable`]).
    /// The provenance header carries `config_fingerprint` for skew
    /// detection on load.
    pub fn store(&self, key: &str, config_fingerprint: u64, record: &CellRecord) -> io::Result<()> {
        let body = format!(
            "{}\n{}\n",
            frame_line(&provenance_line(Some(config_fingerprint), None)),
            frame_line(&record.to_line()),
        );
        write_file_durable(&self.entry_path(key), body.as_bytes())
    }

    /// Number of entries on disk (diagnostics).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CellRecord {
        CellRecord {
            scene: "REF".into(),
            label: "REF/baseline".into(),
            fingerprint: 0xfeed,
            cycles: 100,
            rays: 64,
            box_tests: 5,
            tri_tests: 3,
        }
    }

    #[test]
    fn store_load_round_trip_checks_provenance() {
        let dir = std::env::temp_dir().join(format!("vtq-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());

        let key = ResultCache::key("REF", 0xfeed);
        assert_eq!(cache.load(&key, 0xc0ffee), None, "miss before store");
        cache.store(&key, 0xc0ffee, &record()).unwrap();
        assert_eq!(cache.load(&key, 0xc0ffee), Some(record()));
        assert_eq!(cache.len(), 1);

        // A different expected config fingerprint must refuse the entry.
        assert_eq!(cache.load(&key, 0xbad), None, "provenance skew rejected");

        // A torn entry (crash mid-write would leave only a temp file,
        // but simulate corruption directly) is a miss, not a panic.
        fs::write(dir.join(CACHE_DIR).join(format!("{key}.jsonl")), "{\"rec").unwrap();
        assert_eq!(cache.load(&key, 0xc0ffee), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recomputable() {
        let dir = std::env::temp_dir().join(format!("vtq-cache-q-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let key = ResultCache::key("REF", 0xfeed);
        cache.store(&key, 0xc0ffee, &record()).unwrap();

        // Flip one payload byte of the stored entry.
        let path = dir.join(CACHE_DIR).join(format!("{key}.jsonl"));
        let mut bytes = fs::read(&path).unwrap();
        let victim = bytes.iter().position(|&b| b == b':').unwrap();
        bytes[victim] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(cache.load(&key, 0xc0ffee), None, "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry removed from the hot path");
        let quarantined = dir.join(CACHE_DIR).join(QUARANTINE_DIR).join(format!("{key}.jsonl"));
        assert_eq!(fs::read(&quarantined).unwrap(), bytes, "damaged bytes preserved");

        // Recompute path: store again, load serves the fresh entry.
        cache.store(&key, 0xc0ffee, &record()).unwrap();
        assert_eq!(cache.load(&key, 0xc0ffee), Some(record()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_orphaned_temp_files() {
        let dir = std::env::temp_dir().join(format!("vtq-cache-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache_dir = dir.join(CACHE_DIR);
        fs::create_dir_all(&cache_dir).unwrap();
        fs::write(cache_dir.join(".stale-key.1234.0.tmp"), b"half-written").unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(
            !cache_dir.join(".stale-key.1234.0.tmp").exists(),
            "orphaned staging file swept on open"
        );
        assert!(cache.is_empty(), "sweep touches only .tmp files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_to_one_key_never_tear() {
        let dir = std::env::temp_dir().join(format!("vtq-cache-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let key = ResultCache::key("REF", 0xfeed);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = cache.clone();
                let key = key.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        cache.store(&key, 0xc0ffee, &record()).unwrap();
                    }
                });
            }
        });
        // With the old shared `.{key}.tmp` staging name, racing writers
        // could rename each other's half-written files into place; with
        // unique temp names the published entry is always complete.
        assert_eq!(cache.load(&key, 0xc0ffee), Some(record()));
        let _ = fs::remove_dir_all(&dir);
    }
}
