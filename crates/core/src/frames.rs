//! The engine's memo: stage artifacts, and the analysis frames cut
//! from them.
//!
//! Every `analyze()` call used to rebuild the full [`CheckFrame`] from
//! the measurement stores — at paper scale that is hundreds of
//! thousands of band-filter evaluations repeated for every re-analysis,
//! every `pd rerun`, and every sweep arm. Beside the stage artifacts,
//! the [`StoreCache`] memoizes each store's assembled frame, keyed by
//! the **measurement fingerprint** of the store it was cut from
//! ([`crate::store`]): `fingerprint →` [`StoreFrame`]. A miss builds
//! one shard per domain — the domain's `CheckFrame` and its
//! [`CrawlTally`], cut from the same rows in one pass — in parallel (one
//! task per retailer) on the deterministic [`Executor`], splices them
//! back into exact store order with [`CheckFrame::merge_shards`] and
//! merges their tallies beside them. The shards themselves are not
//! kept.
//!
//! Because the key is the fingerprint — a digest of everything that can
//! reshape the store — a frame hit is exactly as trustworthy as the
//! artifact store's read-through: same plan, same bytes. Frames pay
//! off on *repeated analysis of the same measurements*: a second
//! `analyze()`, a `pd rerun` under different figure knobs. Engines
//! built from one [`crate::ExperimentBuilder`] also share a memo, but
//! note the built-in sweeps never collide on a key (their arms differ
//! through seed, config or engine knobs, all part of the fingerprint) —
//! cross-arm reuse only materializes for custom sweeps whose arms vary
//! nothing but [`crate::AnalysisConfig`]. If two such arms do race on a
//! key, both may build the same frame; results are unaffected (equal
//! values, first insert wins) and only the per-arm `frames_built`
//! counters over-report.
//!
//! ```
//! use pd_core::{Executor, StoreCache};
//! use pd_currency::FxSeries;
//! use pd_sheriff::MeasurementStore;
//! use pd_util::Seed;
//!
//! let cache = StoreCache::new();
//! let fx = FxSeries::generate(Seed::new(1), 10);
//! let store = MeasurementStore::new();
//! let exec = Executor::serial();
//! let (frame, stats) = cache.frame_for(7, &store, &fx, &exec);
//! assert_eq!((stats.built, stats.reused), (0, 0), "empty store, no domains");
//! let (again, stats) = cache.frame_for(7, &store, &fx, &exec);
//! assert!(std::sync::Arc::ptr_eq(&frame.frame, &again.frame), "second call is a hit");
//! assert_eq!(stats.built, 0);
//! ```

use crate::executor::Executor;
use crate::observer::StageKind;
use crate::store::{ChunkedPayload, StoreError};
use pd_analysis::summary::CrawlTally;
use pd_analysis::CheckFrame;
use pd_currency::FxSeries;
use pd_sheriff::{Measurement, MeasurementStore};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// What one [`StoreCache::frame_for`] (or
/// [`StoreCache::frame_for_chunked`]) call did: how many per-domain
/// frames it had to build versus how many it served from the memo, and
/// how many binary chunks it decoded to do so. Surfaced as the
/// `frames_built` / `frames_reused` / `frames_chunks_loaded` analysis
/// counters recorded into [`crate::TimingObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Domain frames built by this call (the store's domain count on a
    /// miss).
    pub built: usize,
    /// Domain frames served from the memo (the store's domain count on
    /// a hit).
    pub reused: usize,
    /// Binary store chunks decoded from a [`ChunkedPayload`] by this
    /// call. Zero on the in-memory path and on every memo hit — a
    /// non-zero value proves the call streamed rows from disk without
    /// materializing the whole payload.
    pub chunks_loaded: usize,
}

/// A store's assembled analysis frame and the [`CrawlTally`] cut from
/// the same rows in the same pass — so the Sec. 3.2 summary's crawl
/// half needs no second decode of a chunked store, and none at all on a
/// memo hit.
#[derive(Debug, Clone)]
pub struct StoreFrame {
    /// The frame, row-for-row `CheckFrame::build` over the store.
    pub frame: Arc<CheckFrame>,
    /// The store's crawl tally, merged over its domains in store order.
    pub tally: Arc<CrawlTally>,
}

/// One domain's frame shard and the tally of its rows.
type Shard = (CheckFrame, CrawlTally);

/// The engine's **memo**: a shared, thread-safe map from
/// `(stage, measurement fingerprint)` to the stage's artifact
/// (`CrowdArtifact`, `CrawlArtifact`, …), and beside it a map from a
/// store's fingerprint to the analysis frame cut from that store (see
/// the [module docs](self)). The artifacts let a repeated run (a sweep
/// arm, a `pd serve` job) skip the measurement stages, and N concurrent
/// re-analyses of one crawl share a single `Arc` instead of each
/// holding its own copy; the frames let it skip the frame build.
///
/// Every engine resolves a measurement stage through one chain: its own
/// slot, then this memo, then the attached disk store, then compute.
/// The fingerprint key certifies an entry either way — it digests
/// everything that can reshape the artifact — so a hit is as
/// trustworthy as recomputing. What gets *kept* differs by origin:
///
/// * an artifact loaded from disk is kept on first load
///   ([`StoreCache::insert`]) — loads are bounded by the one store dir;
/// * a computed artifact is kept only on its second offer
///   ([`StoreCache::admit`]): a fingerprint computed once leaves just
///   its 16-byte key behind, so one-off runs cost no artifact memory;
/// * a frame is kept on its first build ([`StoreCache::frame_for`]),
///   whatever its store's origin — the rows of a stored stage never
///   enter the memo, so its frame is all a warm re-analysis has.
///
/// Artifacts are type-erased as `Arc<dyn Any>` so one memo covers every
/// stage's artifact type — the typed accessors downcast, and a key can
/// never alias across types because the [`StageKind`] half of the key
/// pins the artifact type stored under it. Frames live in their own
/// map, so a frame key never aliases an artifact key.
#[derive(Default)]
pub struct StoreCache {
    memo: Mutex<Memo>,
}

/// A memo key: the stage and its measurement fingerprint.
type MemoKey = (StageKind, u64);

#[derive(Default)]
struct Memo {
    /// Resident artifacts.
    entries: HashMap<MemoKey, Arc<dyn Any + Send + Sync>>,
    /// Keys whose computed artifact was offered once and not kept.
    seen: HashSet<MemoKey>,
    /// `store fingerprint → (assembled frame, number of domains)`.
    frames: HashMap<u64, (StoreFrame, usize)>,
}

impl Memo {
    /// Makes `artifact` resident under `key` unless an entry already is
    /// (first insert wins); returns the resident `Arc`.
    fn keep<T: Send + Sync + 'static>(&mut self, key: MemoKey, artifact: Arc<T>) -> Arc<T> {
        self.seen.remove(&key);
        let slot = self
            .entries
            .entry(key)
            .or_insert_with(|| artifact as Arc<dyn Any + Send + Sync>);
        Arc::clone(slot)
            .downcast::<T>()
            .unwrap_or_else(|_| unreachable!("StageKind key pins the artifact type"))
    }
}

impl std::fmt::Debug for StoreCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl StoreCache {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().expect("store cache lock")
    }

    /// Number of resident artifacts (keys seen only once and frames not
    /// counted).
    ///
    /// # Panics
    ///
    /// Panics if the memo lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when no artifact is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resident artifact for `(stage, fingerprint)`, if present and
    /// of type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the memo lock is poisoned.
    #[must_use]
    pub fn get<T: Send + Sync + 'static>(
        &self,
        stage: StageKind,
        fingerprint: u64,
    ) -> Option<Arc<T>> {
        self.lock()
            .entries
            .get(&(stage, fingerprint))
            .and_then(|any| Arc::clone(any).downcast::<T>().ok())
    }

    /// Keeps a **loaded** `artifact` under `(stage, fingerprint)` and
    /// returns the canonical `Arc` — on a racing double-load the first
    /// insert wins and the loser's copy is dropped, so every holder of a
    /// key shares one allocation.
    ///
    /// # Panics
    ///
    /// Panics if the memo lock is poisoned.
    pub fn insert<T: Send + Sync + 'static>(
        &self,
        stage: StageKind,
        fingerprint: u64,
        artifact: Arc<T>,
    ) -> Arc<T> {
        self.lock().keep((stage, fingerprint), artifact)
    }

    /// Offers a **computed** `artifact` and returns the `Arc` to use. The
    /// first offer of a key only records the key; the second keeps the
    /// artifact (see the [type docs](Self)). A key already resident
    /// returns the resident `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if the memo lock is poisoned.
    pub fn admit<T: Send + Sync + 'static>(
        &self,
        stage: StageKind,
        fingerprint: u64,
        artifact: Arc<T>,
    ) -> Arc<T> {
        let key = (stage, fingerprint);
        let mut memo = self.lock();
        if !memo.entries.contains_key(&key) && memo.seen.insert(key) {
            return artifact;
        }
        memo.keep(key, artifact)
    }

    /// The analysis-ready frame for `store`, identified by `key` (the
    /// producing stage's fingerprint). On a miss one shard per domain is
    /// built in parallel on `exec` — one task per retailer — and the
    /// shards are spliced into store order; a hit returns the memoized
    /// frame. The returned frame is row-for-row identical to
    /// `CheckFrame::build(store, fx)` at any thread count.
    ///
    /// Correctness rests on the fingerprint contract: `key` must change
    /// whenever the store's content could ([`crate::store`] derives it
    /// from the full measurement configuration).
    ///
    /// # Panics
    ///
    /// Panics if the memo lock is poisoned (a frame build panicked).
    #[must_use]
    pub fn frame_for(
        &self,
        key: u64,
        store: &MeasurementStore,
        fx: &FxSeries,
        exec: &Executor,
    ) -> (StoreFrame, FrameStats) {
        let domains = || store.domains();
        // One pass over the store partitions its rows by domain
        // (`build_domain` per domain would rescan the whole store once
        // per domain — quadratic at paper scale).
        let build = |domains: &[String]| {
            let slot_of: HashMap<&str, usize> = domains
                .iter()
                .enumerate()
                .map(|(slot, domain)| (domain.as_str(), slot))
                .collect();
            let mut members: Vec<Vec<&Measurement>> = vec![Vec::new(); domains.len()];
            for m in store.records() {
                if let Some(&slot) = slot_of.get(m.domain.as_str()) {
                    members[slot].push(m);
                }
            }
            exec.map_indexed(domains.len(), |j| Ok(shard(members[j].iter().copied(), fx)))
        };
        self.assemble(key, domains, build)
            .expect("in-memory shards cannot fail")
    }

    /// Like [`StoreCache::frame_for`], but cut from a **chunked binary
    /// payload** instead of an in-memory [`MeasurementStore`]: each
    /// domain shard is produced by decoding only that domain's chunk of
    /// `section` from `payload` — the whole measurement store is never
    /// materialized. `FrameStats::chunks_loaded` reports how many
    /// chunks were actually decoded (zero on a memo hit), which is
    /// what the `frames_chunks_loaded` counter surfaces.
    ///
    /// Chunks are partitioned by domain in store first-seen order and
    /// each chunk keeps original store order internally, so the result
    /// is row-for-row identical to `frame_for` over the assembled
    /// store — the two paths share one key space.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a chunk is missing, fails its
    /// checksum, or a row does not deserialize as a [`Measurement`].
    ///
    /// # Panics
    ///
    /// Panics if the memo lock is poisoned (a frame build panicked).
    pub fn frame_for_chunked(
        &self,
        key: u64,
        payload: &ChunkedPayload,
        section: &str,
        fx: &FxSeries,
        exec: &Executor,
    ) -> Result<(StoreFrame, FrameStats), StoreError> {
        let domains = || {
            payload
                .chunk_names(section)
                .into_iter()
                .map(str::to_owned)
                .collect()
        };
        // Decode the domains' chunks in parallel — one row decode per
        // retailer, nothing else leaves the payload.
        let build = |domains: &[String]| {
            exec.map_indexed(domains.len(), |j| {
                let rows: Vec<Measurement> = payload.read_chunk_rows(section, &domains[j])?;
                Ok(shard(&rows, fx))
            })
        };
        let (frame, mut stats) = self.assemble(key, domains, build)?;
        stats.chunks_loaded = stats.built;
        Ok((frame, stats))
    }

    /// The one assembly path behind both sources: an assembled-frame
    /// hit, else `build(domains)` producing one shard per domain (in
    /// `domains` order), spliced into store order with their tallies
    /// merged alongside.
    fn assemble(
        &self,
        key: u64,
        domains: impl FnOnce() -> Vec<String>,
        build: impl FnOnce(&[String]) -> Vec<Result<Shard, StoreError>>,
    ) -> Result<(StoreFrame, FrameStats), StoreError> {
        if let Some((frame, count)) = self.lock().frames.get(&key) {
            return Ok((
                frame.clone(),
                FrameStats {
                    built: 0,
                    reused: *count,
                    chunks_loaded: 0,
                },
            ));
        }

        // Built outside the lock; the executor's index-ordered merge
        // keeps this deterministic.
        let domains = domains();
        let shards = build(&domains).into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut tally = CrawlTally::default();
        for (_, domain_tally) in &shards {
            tally.merge(domain_tally);
        }
        let frame = StoreFrame {
            frame: Arc::new(CheckFrame::merge_shards(shards.iter().map(|(f, _)| f))),
            tally: Arc::new(tally),
        };
        self.lock()
            .frames
            .entry(key)
            .or_insert_with(|| (frame.clone(), domains.len()));
        Ok((
            frame,
            FrameStats {
                built: domains.len(),
                reused: 0,
                chunks_loaded: 0,
            },
        ))
    }
}

/// One domain's shard: its check frame and its crawl tally, both cut
/// from the same rows in one pass.
fn shard<'a>(rows: impl IntoIterator<Item = &'a Measurement> + Clone, fx: &FxSeries) -> Shard {
    let frame = CheckFrame::from_rows(
        rows.clone()
            .into_iter()
            .filter_map(|m| pd_analysis::CheckRow::from_measurement(m, fx))
            .collect(),
    );
    (frame, CrawlTally::of_domain(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_sheriff::measurement::NoiseTruth;
    use pd_sheriff::{Measurement, PriceObservation};
    use pd_util::{Money, RequestId, Seed, UserId, VantageId};

    fn fx() -> FxSeries {
        FxSeries::generate(Seed::new(1307), 160)
    }

    fn meas(domain: &str, slug: &str, prices_minor: &[i64]) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(0),
            domain: domain.into(),
            product_slug: slug.into(),
            time: SimTime::from_millis(2 * 24 * 3_600_000),
            user_price: None,
            observations: prices_minor
                .iter()
                .enumerate()
                .map(|(i, minor)| {
                    PriceObservation::ok(
                        VantageId::new(u32::try_from(i).expect("small index")),
                        Price::new(Money::from_minor(*minor), Currency::Usd),
                        String::new(),
                    )
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    fn sample_store() -> MeasurementStore {
        let mut store = MeasurementStore::new();
        store.push(meas("a.example", "p1", &[10_000, 13_000]));
        store.push(meas("b.example", "q", &[20_000, 30_000]));
        store.push(meas("a.example", "p2", &[10_000, 10_000]));
        store.push(meas("c.example", "r", &[5_000, 5_500]));
        store
    }

    #[test]
    fn cached_frame_equals_direct_build_and_counts_reuse() {
        let cache = StoreCache::new();
        let store = sample_store();
        let fx = fx();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let (frame, stats) = cache.frame_for(42, &store, &fx, &exec);
            let direct = CheckFrame::build(&store, &fx);
            assert_eq!(frame.frame.rows(), direct.rows(), "{threads} threads");
            // The tally cut beside the shards is the summary's crawl half.
            let mut scan = pd_analysis::summary::SummaryScan::new();
            scan.crawl(&frame.tally);
            let summary = scan.finish(0);
            assert_eq!(
                (
                    summary.crawled_retailers,
                    summary.crawled_products,
                    summary.crawl_days,
                    summary.crawled_prices
                ),
                (3, 4, 1, 8)
            );
            if threads == 1 {
                assert_eq!(
                    stats,
                    FrameStats {
                        built: 3,
                        reused: 0,
                        chunks_loaded: 0
                    }
                );
            } else {
                assert_eq!(
                    stats,
                    FrameStats {
                        built: 0,
                        reused: 3,
                        chunks_loaded: 0
                    }
                );
            }
        }
    }

    #[test]
    fn chunked_frames_match_in_memory_frames() {
        use crate::config::ExperimentConfig;
        use crate::scenario::RunPlan;
        use crate::stage::CrawlArtifact;
        use crate::store::{self, ArtifactStore, Provenance};

        let dir = std::env::temp_dir().join(format!("pd-frames-chunked-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let plan = RunPlan::new(ExperimentConfig::smoke(7));
        let mut artifacts = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("store creates");
        let store = sample_store();
        let fp = store::crawl_fingerprint(&plan);
        let art = CrawlArtifact {
            store: sample_store(),
            stats: vec![],
        };
        artifacts
            .save("crawl", fp, &[], &art)
            .expect("saves binary");
        let payload = artifacts.open_chunked("crawl", fp).expect("opens chunked");

        let fx = fx();
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let memory = StoreCache::new();
            let (direct, _) = memory.frame_for(11, &store, &fx, &exec);
            let direct_tally = direct.tally;
            let direct = direct.frame;
            let cache = StoreCache::new();
            let (chunked, stats) = cache
                .frame_for_chunked(11, &payload, "store", &fx, &exec)
                .expect("chunked build");
            assert_eq!(chunked.frame.rows(), direct.rows(), "{threads} threads");
            assert_eq!(chunked.tally, direct_tally, "one tally from either source");
            assert_eq!(stats.built, 3);
            assert_eq!(stats.chunks_loaded, 3, "one chunk decoded per domain");
            // Second call is an assembled-frame hit: no disk reads.
            let (again, hit) = cache
                .frame_for_chunked(11, &payload, "store", &fx, &exec)
                .expect("cache hit");
            assert!(Arc::ptr_eq(&chunked.frame, &again.frame));
            assert!(Arc::ptr_eq(&chunked.tally, &again.tally));
            assert_eq!((hit.chunks_loaded, hit.reused), (0, 3));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_cache_shares_one_arc_and_keeps_types_apart() {
        let cache = StoreCache::new();
        assert!(cache.is_empty());
        let first = cache.insert(StageKind::Crowd, 7, Arc::new(vec![1u64, 2]));
        // A racing second load of the same key: first insert wins.
        let second = cache.insert(StageKind::Crowd, 7, Arc::new(vec![9u64]));
        assert!(Arc::ptr_eq(&first, &second), "losers adopt the winner");
        let hit = cache
            .get::<Vec<u64>>(StageKind::Crowd, 7)
            .expect("cached artifact");
        assert!(Arc::ptr_eq(&first, &hit));
        // Same fingerprint under a different stage is a distinct entry.
        assert!(cache.get::<Vec<u64>>(StageKind::Crawl, 7).is_none());
        // A type mismatch is a miss, never a panic.
        assert!(cache.get::<String>(StageKind::Crowd, 7).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn store_cache_admits_computed_artifacts_on_the_second_offer() {
        let cache = StoreCache::new();
        let first = Arc::new(vec![1u64]);
        let kept = cache.admit(StageKind::Crawl, 3, Arc::clone(&first));
        assert!(Arc::ptr_eq(&first, &kept), "the caller keeps its own");
        assert!(cache.is_empty(), "a first offer leaves only the key");
        let second = cache.admit(StageKind::Crawl, 3, Arc::new(vec![1u64]));
        assert_eq!(cache.len(), 1, "the second offer is kept");
        let third = cache.admit(StageKind::Crawl, 3, Arc::new(vec![1u64]));
        assert!(Arc::ptr_eq(&second, &third), "later offers adopt the entry");
        let hit = cache
            .get::<Vec<u64>>(StageKind::Crawl, 3)
            .expect("resident");
        assert!(Arc::ptr_eq(&second, &hit));
        // The key is per stage: another stage's first offer is not kept.
        cache.admit(StageKind::Crowd, 3, Arc::new(vec![1u64]));
        assert_eq!(cache.len(), 1);
        // A load is kept at once, and a later offer of its key adopts it.
        let loaded = cache.insert(StageKind::Personas, 4, Arc::new(vec![2u64]));
        let offered = cache.admit(StageKind::Personas, 4, Arc::new(vec![2u64]));
        assert!(Arc::ptr_eq(&loaded, &offered));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = StoreCache::new();
        let store = sample_store();
        let mut other = MeasurementStore::new();
        other.push(meas("a.example", "p1", &[99_000, 99_000]));
        let fx = fx();
        let exec = Executor::serial();
        let (full, _) = cache.frame_for(1, &store, &fx, &exec);
        let (small, stats) = cache.frame_for(2, &other, &fx, &exec);
        assert_eq!(stats.built, 1, "same domain under a new key rebuilds");
        assert_eq!(full.frame.len(), 4);
        assert_eq!(small.frame.len(), 1);
    }

    #[test]
    fn frames_and_artifacts_under_one_key_do_not_alias() {
        let cache = StoreCache::new();
        let fx = fx();
        let exec = Executor::serial();
        let artifact = cache.insert(StageKind::Crawl, 5, Arc::new(vec![5u64]));
        let (frame, stats) = cache.frame_for(5, &sample_store(), &fx, &exec);
        assert_eq!(stats.built, 3, "an artifact under the key is no frame");
        assert_eq!(frame.frame.len(), 4);
        let (_, stats) = cache.frame_for(5, &sample_store(), &fx, &exec);
        assert_eq!(stats.reused, 3);
        let hit = cache
            .get::<Vec<u64>>(StageKind::Crawl, 5)
            .expect("the artifact survives the frame");
        assert!(Arc::ptr_eq(&artifact, &hit));
        assert_eq!(cache.len(), 1, "len counts artifacts, not frames");
    }
}
