//! Content-addressed completion cache: in-memory LRU with optional
//! JSON-lines disk persistence.
//!
//! Each entry stores the completion text together with the token usage
//! and simulated latency of the upstream call that produced it, so a hit
//! can report what it *saved*; the hit itself is always served with zero
//! usage and zero latency (cache hits are billed at zero cost — no
//! `LlmCall` trace event is emitted for them, so `measured_cost()` is
//! unchanged by construction).
//!
//! Persistence is append-only JSON lines: one object per inserted entry,
//! keyed by the hex [`Fingerprint`]. Loading tolerates corrupt or
//! truncated lines (a crashed writer must not poison later runs); a
//! re-inserted fingerprint takes the *last* line, matching append order.

use crate::fingerprint::Fingerprint;
use catdb_llm::{Completion, TokenUsage};
use catdb_runtime::Lru;
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A completed upstream call, as stored in the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCompletion {
    pub model: String,
    pub text: String,
    pub input_tokens: usize,
    pub output_tokens: usize,
    /// Simulated latency of the original upstream call, seconds.
    pub latency_seconds: f64,
    /// Dollar cost of the original upstream call (what a hit saves).
    pub cost_usd: f64,
}

impl CachedCompletion {
    /// The zero-billed completion a cache hit serves: same text, no
    /// tokens, no latency.
    pub fn to_hit_completion(&self) -> Completion {
        Completion { text: self.text.clone(), usage: TokenUsage::default(), latency_seconds: 0.0 }
    }
}

/// Monotonic counters describing cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub insertions: u64,
}

struct CacheState {
    /// Entries of weight 1, so the budget counts entries.
    lru: Lru<u128, CachedCompletion>,
    stats: CacheStats,
    persist: Option<File>,
}

/// Thread-safe LRU completion cache, shareable via `Arc` across
/// schedulers (e.g. one cache spanning a whole config sweep).
pub struct CompletionCache {
    capacity: usize,
    path: Option<PathBuf>,
    state: Mutex<CacheState>,
}

impl fmt::Debug for CompletionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock();
        f.debug_struct("CompletionCache")
            .field("capacity", &self.capacity)
            .field("len", &s.lru.len())
            .field("path", &self.path)
            .field("stats", &s.stats)
            .finish()
    }
}

impl CompletionCache {
    /// In-memory cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> CompletionCache {
        let capacity = capacity.max(1);
        CompletionCache {
            capacity,
            path: None,
            state: Mutex::new(CacheState {
                lru: Lru::new(capacity),
                stats: CacheStats::default(),
                persist: None,
            }),
        }
    }

    /// Cache backed by a JSON-lines file: existing entries are loaded
    /// (corrupt lines skipped), new insertions appended. IO errors
    /// degrade to in-memory-only operation — caching is an optimization,
    /// never a correctness dependency.
    pub fn persistent(path: impl AsRef<Path>, capacity: usize) -> CompletionCache {
        let path = path.as_ref().to_path_buf();
        let cache = CompletionCache::new(capacity);
        if let Ok(text) = std::fs::read_to_string(&path) {
            let mut s = cache.state.lock();
            for (fp, entry) in text.lines().filter_map(parse_line) {
                s.lru.insert(fp.0, entry, 1);
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path).ok();
        cache.state.lock().persist = file;
        CompletionCache { path: Some(path), ..cache }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.state.lock().lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Look up a fingerprint, refreshing its recency on hit.
    pub fn get(&self, fp: Fingerprint) -> Option<CachedCompletion> {
        let mut s = self.state.lock();
        match s.lru.get(&fp.0).cloned() {
            Some(entry) => {
                s.stats.hits += 1;
                Some(entry)
            }
            None => {
                s.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry; returns how many entries were
    /// evicted to make room.
    pub fn insert(&self, fp: Fingerprint, entry: CachedCompletion) -> u64 {
        let line = render_line(fp, &entry);
        let mut s = self.state.lock();
        let evicted = s.lru.insert(fp.0, entry, 1).len() as u64;
        s.stats.insertions += 1;
        s.stats.evictions += evicted;
        if let Some(file) = s.persist.as_mut() {
            let _ = file.write_all(line.as_bytes());
        }
        evicted
    }
}

fn render_line(fp: Fingerprint, e: &CachedCompletion) -> String {
    let value = json!({
        "fp": fp.to_string(),
        "model": e.model,
        "text": e.text,
        "input_tokens": e.input_tokens,
        "output_tokens": e.output_tokens,
        "latency_seconds": e.latency_seconds,
        "cost_usd": e.cost_usd,
    });
    let mut line = value.to_compact_string();
    line.push('\n');
    line
}

fn parse_line(line: &str) -> Option<(Fingerprint, CachedCompletion)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let value: Value = serde_json::from_str(line).ok()?;
    let fp = Fingerprint::from_hex(value.get("fp")?.as_str()?)?;
    Some((
        fp,
        CachedCompletion {
            model: value.get("model")?.as_str()?.to_string(),
            text: value.get("text")?.as_str()?.to_string(),
            input_tokens: value.get("input_tokens")?.as_u64()? as usize,
            output_tokens: value.get("output_tokens")?.as_u64()? as usize,
            latency_seconds: value.get("latency_seconds")?.as_f64()?,
            cost_usd: value.get("cost_usd")?.as_f64()?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    fn entry(text: &str) -> CachedCompletion {
        CachedCompletion {
            model: "gpt-4o".into(),
            text: text.into(),
            input_tokens: 100,
            output_tokens: 20,
            latency_seconds: 1.5,
            cost_usd: 0.01,
        }
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn hit_serves_zero_billed_completion() {
        let cache = CompletionCache::new(8);
        cache.insert(fp(1), entry("pipeline {}"));
        let hit = cache.get(fp(1)).expect("hit");
        let c = hit.to_hit_completion();
        assert_eq!(c.text, "pipeline {}");
        assert_eq!(c.usage.total(), 0);
        assert_eq!(c.latency_seconds, 0.0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = CompletionCache::new(2);
        cache.insert(fp(1), entry("a"));
        cache.insert(fp(2), entry("b"));
        assert!(cache.get(fp(1)).is_some()); // refresh 1 → 2 is now LRU
        cache.insert(fp(3), entry("c"));
        assert!(cache.get(fp(2)).is_none(), "2 was evicted");
        assert!(cache.get(fp(1)).is_some());
        assert!(cache.get(fp(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let cache = CompletionCache::new(2);
        cache.insert(fp(1), entry("a"));
        cache.insert(fp(2), entry("b"));
        cache.insert(fp(1), entry("a2"));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(fp(1)).unwrap().text, "a2");
        assert!(cache.get(fp(2)).is_some());
    }

    /// The recency queue this cache kept before it moved onto [`Lru`]:
    /// every use pushes a `(fingerprint, stamp)` pair, and eviction pops
    /// pairs, skipping those whose stamp is no longer the slot's.
    #[derive(Default)]
    struct StampQueue {
        capacity: usize,
        stamps: HashMap<u128, u64>,
        order: VecDeque<(u128, u64)>,
        tick: u64,
    }

    impl StampQueue {
        fn new(capacity: usize) -> StampQueue {
            StampQueue { capacity: capacity.max(1), ..StampQueue::default() }
        }

        fn touch(&mut self, key: u128) {
            self.tick += 1;
            self.stamps.insert(key, self.tick);
            self.order.push_back((key, self.tick));
        }

        fn get(&mut self, key: u128) -> bool {
            let hit = self.stamps.contains_key(&key);
            if hit {
                self.touch(key);
            } else {
                self.tick += 1;
            }
            hit
        }

        /// Returns the evicted keys, in eviction order.
        fn insert(&mut self, key: u128) -> Vec<u128> {
            let mut evicted = Vec::new();
            while !self.stamps.contains_key(&key) && self.stamps.len() >= self.capacity {
                let Some((old, seen)) = self.order.pop_front() else { break };
                if self.stamps.get(&old) == Some(&seen) {
                    self.stamps.remove(&old);
                    evicted.push(old);
                }
            }
            self.touch(key);
            evicted
        }

        /// Live keys, least recently used first.
        fn by_recency(&self) -> Vec<u128> {
            let mut live: Vec<(u64, u128)> = self.stamps.iter().map(|(&k, &t)| (t, k)).collect();
            live.sort_unstable();
            live.into_iter().map(|(_, k)| k).collect()
        }
    }

    fn by_recency(cache: &CompletionCache) -> Vec<u128> {
        cache.state.lock().lru.keys_by_recency().copied().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn evicts_in_the_order_of_the_old_stamp_queue(
            capacity in 1usize..7,
            trace in prop::collection::vec((0u8..2, 0u64..10), 0..150),
        ) {
            let cache = CompletionCache::new(capacity);
            let mut oracle = StampQueue::new(capacity);
            let mut evictions = 0;
            for &(op, key) in &trace {
                let key = u128::from(key);
                if op == 0 {
                    prop_assert_eq!(cache.get(fp(key)).is_some(), oracle.get(key));
                } else {
                    let before = by_recency(&cache);
                    let evicted = cache.insert(fp(key), entry("x"));
                    let victims = oracle.insert(key);
                    prop_assert_eq!(evicted, victims.len() as u64);
                    let after = by_recency(&cache);
                    let gone: Vec<u128> =
                        before.into_iter().filter(|k| !after.contains(k)).collect();
                    prop_assert_eq!(gone, victims);
                    evictions += evicted;
                }
                prop_assert_eq!(by_recency(&cache), oracle.by_recency());
                prop_assert_eq!(cache.stats().evictions, evictions);
            }
        }
    }

    #[test]
    fn hits_below_capacity_do_not_grow_the_recency_index() {
        let cache = CompletionCache::new(4096);
        let mut oracle = StampQueue::new(4096);
        for key in 1..=3 {
            cache.insert(fp(key), entry("x"));
            oracle.insert(key);
        }
        for i in 0..10_000 {
            assert!(cache.get(fp(i % 3 + 1)).is_some());
            assert!(oracle.get(i % 3 + 1));
        }
        assert_eq!(cache.state.lock().lru.recency_len(), 3);
        // The old queue kept one pair per use until the cache filled.
        assert_eq!(oracle.order.len(), 10_003);
        assert_eq!(by_recency(&cache), oracle.by_recency());
    }

    #[test]
    fn persistence_round_trips_and_skips_corrupt_lines() {
        let path =
            std::env::temp_dir().join(format!("catdb-cache-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let cache = CompletionCache::persistent(&path, 8);
            cache.insert(fp(7), entry("pipeline {\n  dedup approx;\n}\n"));
            cache.insert(fp(9), entry("b"));
        }
        // Corrupt the file with a torn line; the loader must survive it.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"fp\": \"torn...\n").unwrap();
        }
        let reloaded = CompletionCache::persistent(&path, 8);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(fp(7)).unwrap().text, "pipeline {\n  dedup approx;\n}\n");
        assert_eq!(reloaded.get(fp(9)).unwrap().text, "b");
        // Loaded entries are not counted as this run's insertions.
        assert_eq!(reloaded.stats().insertions, 0);
        let _ = std::fs::remove_file(&path);
    }
}
