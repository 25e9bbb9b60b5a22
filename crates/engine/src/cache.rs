//! [`LpCache`]: a cross-query cache for structure-only LP solutions.
//!
//! The Proposition 3.6 coloring LP and the §3.1 head edge-cover LP
//! depend only on the query's hypergraph and head-variable set, so
//! structurally isomorphic queries (same hypergraph up to variable and
//! atom renaming) solve literally the same LP. Sessions memoize within
//! one query; this cache memoizes **across** queries: it keys solved LPs
//! by the renaming-invariant [`CanonicalKey`] of
//! [`cq_hypergraph::canonical_form`] and, on a hit, translates the
//! stored solution back through the canonical renaming into the
//! namespace of the query at hand.
//!
//! A coloring entry also keeps, in memory only, the exact treewidth and
//! generalized hypertree width of its class once a session has computed
//! them: widths are isomorphism invariants too, so a warm request skips
//! the width search. Snapshots carry the LP solutions alone.
//!
//! Layout: the key space is split over `SHARDS` (16) independent
//! `RwLock`-guarded maps (concurrent batch workers rarely contend), and
//! each shard is LRU-bounded — recency is tracked with a relaxed global
//! tick so lookups only ever take the read lock.
//!
//! Translation is sound because both LPs are permutation-equivariant: an
//! isomorphism maps feasible points to feasible points with the same
//! objective, so an optimal solution for the cached representative pulls
//! back to an optimal solution here. The translated certificate may
//! differ from what a fresh solve would have produced (alternative
//! optima), but the *value* — the exponent the paper's theorems care
//! about — is the unique LP optimum either way.

use crate::json::{obj, Json};
use cq_arith::Rational;
use cq_core::ConjunctiveQuery;
use cq_core::{
    color_number_lp, coloring_from_weights, fractional_edge_cover_head, ColorNumber, SolveStats,
};
use cq_hypergraph::{canonical_form, CanonicalForm, CanonicalKey};
use cq_util::FxHashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Number of independent shards (a power of two; the shard index is the
/// low bits of the canonical hash).
const SHARDS: usize = 16;

/// Default total entry capacity across all shards.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Version tag of the [`LpCache::snapshot_string`] on-disk format. A
/// loader seeing any other value refuses with
/// [`SnapshotError::Version`] — entries from a future format are never
/// silently reinterpreted.
pub const SNAPSHOT_VERSION: i64 = 1;

/// The `"format"` marker every snapshot document carries.
const SNAPSHOT_FORMAT: &str = "cq-lpcache";

/// Which structure-only LP an entry solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum LpKind {
    /// Proposition 3.6 coloring LP (per-vertex weights).
    Coloring,
    /// §3.1 minimal fractional edge cover of the head (per-edge weights).
    HeadCover,
}

impl LpKind {
    fn as_str(self) -> &'static str {
        match self {
            LpKind::Coloring => "coloring",
            LpKind::HeadCover => "head_cover",
        }
    }

    fn parse(s: &str) -> Option<LpKind> {
        match s {
            "coloring" => Some(LpKind::Coloring),
            "head_cover" => Some(LpKind::HeadCover),
            _ => None,
        }
    }

    /// The weight-vector length a well-formed entry of this kind must
    /// have for `key` (per-vertex vs per-edge data).
    fn weights_len(self, key: &CanonicalKey) -> usize {
        match self {
            LpKind::Coloring => key.num_vertices as usize,
            LpKind::HeadCover => key.num_edges as usize,
        }
    }
}

/// Why a snapshot could not be read. `Io` is the filesystem failing;
/// the other two mean the *bytes* are not a usable snapshot (corrupted,
/// truncated, or written by an incompatible version) — a daemon
/// refuses to start over either rather than serving from a cache it
/// cannot trust.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The bytes do not parse as a well-formed snapshot (this includes
    /// truncation: a cut-off document no longer parses as JSON).
    Malformed(String),
    /// A structurally valid snapshot written by an unknown format
    /// version.
    Version {
        /// The version the file declares (rendered JSON).
        found: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Malformed(what) => {
                write!(f, "malformed cache snapshot: {what}")
            }
            SnapshotError::Version { found } => write!(
                f,
                "cache snapshot version {found} is not supported \
                 (this build reads v{SNAPSHOT_VERSION})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// One cached solution, stored in canonical vertex/edge order.
struct Entry {
    value: Rational,
    weights: Vec<Rational>,
    /// The exact widths of the key's hypergraph (coloring entries only;
    /// in memory only, never snapshotted). Set once, under the shard
    /// *read* lock.
    widths: OnceLock<ExactWidths>,
    /// Relaxed LRU stamp; updated under the shard *read* lock.
    last_used: AtomicU64,
}

/// The widths of a canonical class that came from the exact search:
/// treewidth and generalized hypertree width are isomorphism invariants,
/// so any query of the class may reuse them. A width the search left to
/// the greedy bound is `None` — a greedy width depends on the labeling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExactWidths {
    pub(crate) treewidth: Option<usize>,
    pub(crate) hypertree_width: Option<usize>,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<(LpKind, CanonicalKey), Entry>,
    /// Entries this shard evicted to stay within its capacity slice
    /// (mutated under the shard write lock, so a plain counter).
    evictions: u64,
    /// Lookups this shard answered from a stored entry. Bumped under
    /// the shard *read* lock, hence atomic (unlike `evictions`).
    hits: AtomicU64,
    /// Lookups this shard could not answer.
    misses: AtomicU64,
}

/// Counter snapshot of lifetime cache activity: of a whole cache
/// ([`LpCache::stats`]), of one shard ([`LpCache::shard_stats`]), or of
/// a run's deltas summed over `cq-cluster` workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored solution.
    pub hits: u64,
    /// Lookups that had to solve the LP.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound (summed over the
    /// shards; [`LpCache::shard_stats`] has the per-shard split).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Adds `other` field by field.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
    }
}

impl Shard {
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions,
            entries: self.map.len() as u64,
        }
    }
}

/// A sharded, LRU-bounded, renaming-invariant LP solution cache.
///
/// Shareable across threads behind an `Arc`: [`crate::BatchAnalyzer`]
/// hands one clone of the handle to every worker so isomorphic queries
/// anywhere in the batch hit each other's solutions.
pub struct LpCache {
    shards: Vec<RwLock<Shard>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
}

impl Default for LpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LpCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LpCache")
            .field("capacity", &(self.capacity_per_shard * SHARDS))
            .field("stats", &self.stats())
            .finish()
    }
}

impl LpCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A cache bounded to roughly `capacity` entries (rounded up to a
    /// multiple of the shard count; at least one entry per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        LpCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
            tick: AtomicU64::new(0),
        }
    }

    /// Lifetime hit/miss/eviction counters and current residency,
    /// summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.read().expect("cache lock").stats());
        }
        total
    }

    /// The same counters per shard, in shard order (the shard index is
    /// the low bits of the canonical hash, so skew here is
    /// key-distribution skew). Eviction skew is the signal warm-cache
    /// benchmarks read: a hot shard evicting while its neighbors idle
    /// means the capacity bound, not the workload, decided the hit rate.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| shard.read().expect("cache lock").stats())
            .collect()
    }

    /// The Proposition 3.6 color number of `q`, served from the cache
    /// when a structurally isomorphic query has been solved before.
    /// Returns the result plus whether it was a hit.
    ///
    /// `q` must be FD-free in the Theorem 4.4 sense — i.e. already
    /// chased and FD-removed — exactly the precondition of
    /// [`cq_core::color_number_lp`] itself.
    pub fn color_number(&self, q: &ConjunctiveQuery) -> (ColorNumber, bool) {
        self.color_number_in(q, &query_form(q))
    }

    /// [`LpCache::color_number`] with `form`, the canonical form of
    /// `q`'s hypergraph and head variables, already computed.
    pub(crate) fn color_number_in(
        &self,
        q: &ConjunctiveQuery,
        form: &CanonicalForm,
    ) -> (ColorNumber, bool) {
        if let Some(canonical_weights) = self.lookup(LpKind::Coloring, &form.key) {
            let (value, weights) = canonical_weights;
            let weights = form.vertex_data_from_canonical(&weights);
            let coloring = coloring_from_weights(&weights);
            let cn = ColorNumber {
                value,
                coloring,
                weights,
                // A hit performs no solve: zeroed stats by contract.
                lp_stats: SolveStats::default(),
            };
            debug_assert_eq!(
                cn.coloring.color_number(q).as_ref(),
                Some(&cn.value),
                "translated cached solution must certify the optimum"
            );
            return (cn, true);
        }
        let cn = color_number_lp(q);
        self.insert(
            LpKind::Coloring,
            form.key,
            cn.value.clone(),
            form.vertex_data_to_canonical(&cn.weights),
        );
        (cn, false)
    }

    /// The §3.1 minimal fractional edge cover of the head variables
    /// (value, one weight per body atom), cache-translated as above.
    pub fn edge_cover_head(&self, q: &ConjunctiveQuery) -> ((Rational, Vec<Rational>), bool) {
        self.edge_cover_head_in(q, &query_form(q))
    }

    /// [`LpCache::edge_cover_head`] with `q`'s canonical form already
    /// computed.
    pub(crate) fn edge_cover_head_in(
        &self,
        q: &ConjunctiveQuery,
        form: &CanonicalForm,
    ) -> ((Rational, Vec<Rational>), bool) {
        if let Some((value, canonical_weights)) = self.lookup(LpKind::HeadCover, &form.key) {
            let weights = form.edge_data_from_canonical(&canonical_weights);
            return ((value, weights), true);
        }
        let (value, weights) = fractional_edge_cover_head(q);
        self.insert(
            LpKind::HeadCover,
            form.key,
            value.clone(),
            form.edge_data_to_canonical(&weights),
        );
        ((value, weights), false)
    }

    /// The exact widths stored with the coloring entry of `key`, if the
    /// entry is resident and its widths were stored. Counts as neither
    /// a hit nor a miss.
    pub(crate) fn exact_widths(&self, key: &CanonicalKey) -> Option<ExactWidths> {
        let shard = self.shard_of(key).read().expect("cache lock");
        let entry = shard.map.get(&(LpKind::Coloring, *key))?;
        entry.widths.get().copied()
    }

    /// Stores the exact widths of `key`'s class with its coloring entry.
    /// Without a resident entry there is nowhere to keep them, and they
    /// are dropped; an entry keeps the first widths stored.
    pub(crate) fn store_exact_widths(&self, key: &CanonicalKey, widths: ExactWidths) {
        let shard = self.shard_of(key).read().expect("cache lock");
        if let Some(entry) = shard.map.get(&(LpKind::Coloring, *key)) {
            let _ = entry.widths.set(widths);
        }
    }

    fn shard_of(&self, key: &CanonicalKey) -> &RwLock<Shard> {
        &self.shards[(key.hash as usize) & (SHARDS - 1)]
    }

    fn lookup(&self, kind: LpKind, key: &CanonicalKey) -> Option<(Rational, Vec<Rational>)> {
        let shard = self.shard_of(key).read().expect("cache lock");
        match shard.map.get(&(kind, *key)) {
            Some(entry) => {
                entry
                    .last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.value.clone(), entry.weights.clone()))
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, kind: LpKind, key: CanonicalKey, value: Rational, weights: Vec<Rational>) {
        let mut shard = self.shard_of(&key).write().expect("cache lock");
        self.insert_locked(&mut shard, kind, key, value, weights);
    }

    /// Inserts only if the key is absent (the snapshot/merge path:
    /// entries are pure functions of their key, so an existing entry is
    /// already the right one). The check and the insert happen under
    /// one write-lock acquisition, so concurrent merges of overlapping
    /// snapshots count each genuinely-new entry exactly once between
    /// them. Returns whether an insert happened.
    fn absorb(
        &self,
        kind: LpKind,
        key: CanonicalKey,
        value: Rational,
        weights: Vec<Rational>,
    ) -> bool {
        let mut shard = self.shard_of(&key).write().expect("cache lock");
        if shard.map.contains_key(&(kind, key)) {
            return false;
        }
        self.insert_locked(&mut shard, kind, key, value, weights);
        true
    }

    /// The insert body, under an already-held shard write lock.
    fn insert_locked(
        &self,
        shard: &mut Shard,
        kind: LpKind,
        key: CanonicalKey,
        value: Rational,
        weights: Vec<Rational>,
    ) {
        if shard.map.len() >= self.capacity_per_shard && !shard.map.contains_key(&(kind, key)) {
            // Evict the least-recently-used entry of this shard. A
            // linear scan is fine: shards are small (capacity/SHARDS)
            // and eviction only happens once the shard is full.
            if let Some(old) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                shard.map.remove(&old);
                shard.evictions += 1;
            }
        }
        shard.map.insert(
            (kind, key),
            Entry {
                value,
                weights,
                widths: OnceLock::new(),
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
    }

    /// Serializes every resident entry as a versioned, stable JSON
    /// document (format `cq-lpcache` v[`SNAPSHOT_VERSION`]). Entries
    /// are sorted by `(kind, key)` so two caches holding the same
    /// entries snapshot to byte-identical documents regardless of
    /// insertion or eviction history. Hit/miss counters are *not*
    /// serialized — a snapshot is the warm contents, not the history.
    pub fn snapshot_string(&self) -> String {
        self.snapshot_document().0
    }

    /// The snapshot text plus the entry count it actually serializes
    /// (counted from the collected entries, not from a separate —
    /// racily different — `stats()` pass).
    fn snapshot_document(&self) -> (String, usize) {
        let mut entries: Vec<SnapshotEntry> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("cache lock");
            for ((kind, key), entry) in &shard.map {
                entries.push((*kind, *key, entry.value.clone(), entry.weights.clone()));
            }
        }
        entries.sort_by_key(|e| (e.0, e.1));
        let entries: Vec<Json> = entries
            .into_iter()
            .map(|(kind, key, value, weights)| {
                obj([
                    ("kind", Json::str(kind.as_str())),
                    ("key", Json::str(key.to_compact_string())),
                    ("value", Json::str(value.to_string())),
                    (
                        "weights",
                        Json::Arr(weights.iter().map(|w| Json::str(w.to_string())).collect()),
                    ),
                ])
            })
            .collect();
        let count = entries.len();
        let text = obj([
            ("format", Json::str(SNAPSHOT_FORMAT)),
            ("version", Json::Int(SNAPSHOT_VERSION)),
            ("count", Json::int(count)),
            ("entries", Json::Arr(entries)),
        ])
        .render();
        (text, count)
    }

    /// Parses a [`LpCache::snapshot_string`] document and absorbs its
    /// entries (existing keys win — by canonical-key purity they hold
    /// the same solution). Returns how many entries were actually
    /// added. Nothing is absorbed unless the whole document validates:
    /// a corrupted or truncated file changes the cache not at all.
    pub fn merge_snapshot(&self, text: &str) -> Result<usize, SnapshotError> {
        let entries = parse_snapshot(text)?;
        let mut added = 0;
        for (kind, key, value, weights) in entries {
            if self.absorb(kind, key, value, weights) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// A fresh default-capacity cache loaded from a snapshot document.
    pub fn load_snapshot(text: &str) -> Result<LpCache, SnapshotError> {
        let cache = LpCache::new();
        cache.merge_snapshot(text)?;
        Ok(cache)
    }

    /// Absorbs every entry resident in `other` (shard-merge for
    /// multi-daemon cache gossip: entries are pure functions of their
    /// canonical key, so merging caches from different processes is
    /// sound in either direction). Returns how many entries were added.
    pub fn merge(&self, other: &LpCache) -> usize {
        let mut added = 0;
        for shard in &other.shards {
            // Clone out under the read lock, absorb after releasing it,
            // so merging a cache into itself cannot deadlock.
            let entries: Vec<_> = {
                let shard = shard.read().expect("cache lock");
                shard
                    .map
                    .iter()
                    .map(|((kind, key), e)| (*kind, *key, e.value.clone(), e.weights.clone()))
                    .collect()
            };
            for (kind, key, value, weights) in entries {
                if self.absorb(kind, key, value, weights) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Writes [`LpCache::snapshot_string`] to `path` atomically (a
    /// uniquely named temp file, fsynced, then renamed into place — so
    /// neither a crash mid-write, a power loss around the rename, nor
    /// two concurrent saves to the same path can leave a truncated or
    /// interleaved snapshot where a good one was; the last completed
    /// rename wins whole). Returns the entry count written.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<usize, SnapshotError> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let (text, entries) = self.snapshot_document();
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written: std::io::Result<()> = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            use std::io::Write as _;
            file.write_all(text.as_bytes())?;
            // Data must be durable *before* the rename is journaled, or
            // a power loss could publish a zero-length file — which a
            // later boot would refuse as corrupt.
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            // Persist the directory entry too (best-effort: directory
            // fds are not syncable on every platform).
            if let Some(dir) = path.parent() {
                if let Ok(dir) = std::fs::File::open(dir) {
                    let _ = dir.sync_all();
                }
            }
            Ok(())
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(SnapshotError::Io(e));
        }
        Ok(entries)
    }

    /// Reads a snapshot file and absorbs its entries
    /// ([`LpCache::merge_snapshot`] semantics). Returns entries added.
    pub fn merge_from_file(&self, path: impl AsRef<Path>) -> Result<usize, SnapshotError> {
        let text = std::fs::read_to_string(path)?;
        self.merge_snapshot(&text)
    }
}

/// The canonical form the cached LPs are keyed on: `q`'s hypergraph with
/// its head variables marked.
pub(crate) fn query_form(q: &ConjunctiveQuery) -> CanonicalForm {
    canonical_form(&q.hypergraph(), &q.head_var_set())
}

/// One decoded snapshot entry: `(kind, key, value, weights)`.
type SnapshotEntry = (LpKind, CanonicalKey, Rational, Vec<Rational>);

/// Validates and decodes a snapshot document into its entries.
fn parse_snapshot(text: &str) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    let doc = Json::parse(text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
    match doc.get("format").and_then(Json::as_str) {
        Some(SNAPSHOT_FORMAT) => {}
        _ => {
            return Err(SnapshotError::Malformed(format!(
                "missing the {SNAPSHOT_FORMAT:?} format marker"
            )))
        }
    }
    match doc.get("version") {
        Some(v) if v.as_i64() == Some(SNAPSHOT_VERSION) => {}
        Some(v) => {
            return Err(SnapshotError::Version { found: v.render() });
        }
        None => {
            return Err(SnapshotError::Malformed(
                "missing the version field".to_owned(),
            ))
        }
    }
    let items = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| SnapshotError::Malformed("missing the entries array".to_owned()))?;
    match doc.get("count").and_then(Json::as_usize) {
        Some(count) if count == items.len() => {}
        _ => {
            return Err(SnapshotError::Malformed(format!(
                "entry count mismatch: header declares {:?}, document holds {}",
                doc.get("count").map(Json::render),
                items.len()
            )))
        }
    }
    let mut entries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let bad = |what: &str| SnapshotError::Malformed(format!("entry {i}: {what}"));
        let kind = item
            .get("kind")
            .and_then(Json::as_str)
            .and_then(LpKind::parse)
            .ok_or_else(|| bad("unknown LP kind"))?;
        let key = item
            .get("key")
            .and_then(Json::as_str)
            .and_then(CanonicalKey::parse_compact)
            .ok_or_else(|| bad("unparseable canonical key"))?;
        let value: Rational = item
            .get("value")
            .and_then(Json::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("unparseable value"))?;
        let weights = item
            .get("weights")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing weights"))?
            .iter()
            .map(|w| w.as_str().and_then(|s| s.parse::<Rational>().ok()))
            .collect::<Option<Vec<Rational>>>()
            .ok_or_else(|| bad("unparseable weight"))?;
        if weights.len() != kind.weights_len(&key) {
            return Err(bad(&format!(
                "weight vector length {} does not fit the key ({} expected)",
                weights.len(),
                kind.weights_len(&key)
            )));
        }
        entries.push((kind, key, value, weights));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::parse_query;
    use std::sync::Arc;

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    #[test]
    fn isomorphic_queries_hit() {
        let cache = LpCache::new();
        let (a, hit_a) = cache.color_number(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
        assert!(!hit_a);
        // renamed variables, shuffled atoms, different relation names
        let (b, hit_b) = cache.color_number(&q("S(C,A,B) :- E(B,C), E(A,B), E(A,C)"));
        assert!(hit_b);
        assert_eq!(a.value, b.value);
        assert_eq!(b.value.to_string(), "3/2");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn translated_solution_is_valid_for_the_new_labeling() {
        let cache = LpCache::new();
        // asymmetric query so the translation actually permutes: a path
        // with the head on one end.
        cache.color_number(&q("Q(A) :- R(A,B), S(B,C)"));
        let (cn, hit) = cache.color_number(&q("Q(C) :- T(B,A), U(C,B)"));
        assert!(hit);
        cn.coloring.validate(&[]).unwrap();
        assert_eq!(
            cn.coloring
                .color_number(&q("Q(C) :- T(B,A), U(C,B)"))
                .unwrap(),
            cn.value
        );
    }

    #[test]
    fn structurally_distinct_queries_miss() {
        let cache = LpCache::new();
        cache.color_number(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
        let (_, hit) = cache.color_number(&q("S(X,Y,Z) :- R(X,Y), R(Y,Z)"));
        assert!(!hit);
        // same hypergraph, different head set: also a miss
        let (_, hit) = cache.color_number(&q("S(X,Y) :- R(X,Y), R(X,Z), R(Y,Z)"));
        assert!(!hit);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn cover_and_coloring_namespaces_are_separate() {
        let cache = LpCache::new();
        let tri = q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)");
        let (_, hit) = cache.color_number(&tri);
        assert!(!hit);
        // same canonical key, different LP kind: must not alias
        let ((value, weights), hit) = cache.edge_cover_head(&tri);
        assert!(!hit);
        assert_eq!(value.to_string(), "3/2");
        assert_eq!(weights.len(), 3);
        let ((_, w2), hit2) = cache.edge_cover_head(&q("S(B,C,A) :- E(A,B), E(B,C), E(A,C)"));
        assert!(hit2);
        assert_eq!(w2.len(), 3);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let cache = LpCache::with_capacity(SHARDS); // one entry per shard
                                                    // Chains of distinct lengths are pairwise non-isomorphic.
        let chain = |n: usize| {
            let atoms: Vec<String> = (0..n).map(|i| format!("R{i}(V{i},V{})", i + 1)).collect();
            q(&format!("Q(V0) :- {}", atoms.join(", ")))
        };
        for n in 1..=40 {
            cache.color_number(&chain(n));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 40);
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.entries <= SHARDS as u64, "{stats:?}");
        assert_eq!(stats.entries + stats.evictions, 40, "{stats:?}");
    }

    #[test]
    fn evictions_are_counted_per_shard() {
        let cache = LpCache::with_capacity(SHARDS); // one entry per shard
        let chain = |n: usize| {
            let atoms: Vec<String> = (0..n).map(|i| format!("R{i}(V{i},V{})", i + 1)).collect();
            q(&format!("Q(V0) :- {}", atoms.join(", ")))
        };
        for n in 1..=40 {
            cache.color_number(&chain(n));
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), SHARDS);
        let total: u64 = shards.iter().map(|s| s.evictions).sum();
        assert_eq!(total, cache.stats().evictions);
        assert!(total > 0);
        // Every resident entry sits in some shard, and no shard is over
        // its capacity slice (1 here).
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<u64>(),
            cache.stats().entries
        );
        assert!(shards.iter().all(|s| s.entries <= 1), "{shards:?}");
    }

    #[test]
    fn snapshot_roundtrips_and_serves_hits() {
        let cache = LpCache::new();
        cache.color_number(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
        cache.edge_cover_head(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
        cache.color_number(&q("Q(A) :- R(A,B), S(B,C)"));
        let text = cache.snapshot_string();

        let restored = LpCache::load_snapshot(&text).unwrap();
        assert_eq!(restored.stats().entries, 3);
        assert_eq!(restored.stats().hits, 0, "history is not serialized");
        // A relabeled triangle against the restored cache: pure hit,
        // same value, valid translated certificate.
        let (cn, hit) = restored.color_number(&q("T(C,A,B) :- E(B,C), E(A,B), E(A,C)"));
        assert!(hit);
        assert_eq!(cn.value.to_string(), "3/2");
        // Snapshots are canonical: same entries => same bytes, even
        // from a cache that absorbed them in a different order.
        assert_eq!(restored.snapshot_string(), text);
    }

    #[test]
    fn merge_adds_only_missing_entries() {
        let a = LpCache::new();
        let b = LpCache::new();
        a.color_number(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
        b.color_number(&q("T(C,A,B) :- E(B,C), E(A,B), E(A,C)")); // isomorphic
        b.color_number(&q("Q(A) :- R(A,B), S(B,C)"));
        assert_eq!(a.merge(&b), 1, "the isomorphic entry already exists");
        assert_eq!(a.stats().entries, 2);
        assert_eq!(a.merge(&b), 0, "idempotent");
        assert_eq!(a.merge(&a), 0, "self-merge is a no-op, not a deadlock");
        // merge_snapshot agrees with merge
        let c = LpCache::new();
        assert_eq!(c.merge_snapshot(&a.snapshot_string()).unwrap(), 2);
        assert_eq!(c.snapshot_string(), a.snapshot_string());
    }

    #[test]
    fn corrupt_snapshots_are_rejected_structurally() {
        let cache = LpCache::new();
        cache.color_number(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
        let good = cache.snapshot_string();

        // Truncation: no prefix of the document loads.
        let truncated = &good[..good.len() / 2];
        assert!(matches!(
            LpCache::load_snapshot(truncated),
            Err(SnapshotError::Malformed(_))
        ));
        // A corrupted entry field is named in the error.
        let dropped = good.replacen("{\"kind\":", "{\"kind0\":", 1);
        let err = LpCache::load_snapshot(&dropped).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Malformed(ref what) if what.contains("LP kind")),
            "{err}"
        );
        // A count disagreeing with the entries array is a mismatch.
        let miscounted = good.replacen("\"count\":1", "\"count\":2", 1);
        let err = LpCache::load_snapshot(&miscounted).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Malformed(ref what) if what.contains("count mismatch")),
            "{err}"
        );
        // Version from the future: refused with the version error.
        let future = good.replacen("\"version\":1", "\"version\":99", 1);
        let err = LpCache::load_snapshot(&future).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Version { ref found } if found == "99"),
            "{err}"
        );
        // Wrong weights length for the key: rejected, not a later panic.
        let target = cache.snapshot_string();
        let short = target.replacen(",\"weights\":[\"", ",\"weights\":[\"0\",\"", 1);
        let err = LpCache::load_snapshot(&short).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Malformed(ref what) if what.contains("length")),
            "{err}"
        );
        // And in every failure case, nothing was absorbed.
        let sink = LpCache::new();
        for bad in [truncated, &dropped, &future, &short] {
            let _ = sink.merge_snapshot(bad);
        }
        assert_eq!(sink.stats().entries, 0);
    }

    #[test]
    fn shared_handle_across_threads() {
        let cache = Arc::new(LpCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let (cn, _) = cache.color_number(&q("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"));
                        assert_eq!(cn.value.to_string(), "3/2");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        // The first lookups may race (each thread can miss once before
        // any insert lands), but never more than one miss per thread.
        assert!(stats.hits >= 28, "{stats:?}");
        assert_eq!(stats.entries, 1);
        let mut shards = CacheStats::default();
        for shard in cache.shard_stats() {
            shards.merge(&shard);
        }
        assert_eq!(stats, shards, "the total is the sum of the shards");
    }
}
