//! The pre-implemented module cache: RapidWright's central promise.
//!
//! "With RW, if only a single module needs to be modified, re-implementing
//! the others is not required, thus speeding up the compilation." This
//! module provides that reuse as a first-class API: an
//! [`ImplementationCache`] keyed by a structural fingerprint of each
//! module's netlist, and [`run_rw_flow_cached`] which pre-implements only
//! cache misses and re-stitches everything. The cache owns everything that
//! flow consults besides its inputs: the verified read path, the fault
//! injector and the retry policy (see [`ImplementationCache::implement`]).

use crate::integrity::{audit_module, verify_sealed, SealedModule};
use crate::rwflow::{stitch_implemented, CfPolicy, ImplementedModule, RwFlowConfig, RwFlowResult};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tms_cnn::CnvDesign;
use tms_device::{Device, DeviceName};
use tms_fault::{FaultInjector, FaultPoint, NoopInjector, Retry};
use tms_netlist::{Netlist, NetlistStats};
use tms_obs::Recorder;
use tms_store::{Store, StoreSnapshot};
use tms_verify::Auditor;

/// The persistent macro library: a crash-safe [`tms_store::Store`] keyed
/// by module fingerprints, holding digest-sealed implementations (see
/// [`SealedModule`]). See [`ImplementationCache::with_store`].
pub type MacroStore = Store<ModuleFingerprint, SealedModule>;

/// A structural fingerprint of a module: device, name, and the statistics
/// the implementation depends on. Two netlists with equal fingerprints get
/// identical PBlocks and placements under a fixed seed, so the cached
/// implementation is safe to reuse.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ModuleFingerprint {
    device: DeviceName,
    name: String,
    stats_digest: u64,
}

impl ModuleFingerprint {
    /// Fingerprint a module netlist for `device`.
    pub fn of(netlist: &Netlist, device: &Device) -> ModuleFingerprint {
        ModuleFingerprint {
            device: device.name(),
            name: netlist.name().to_string(),
            stats_digest: digest(&netlist.stats()),
        }
    }

    /// The device this fingerprint is keyed to. [`Device::from_name`]
    /// reconstructs the full fabric from it, which is how auditors
    /// re-derive legality from a stored record alone.
    pub fn device(&self) -> DeviceName {
        self.device
    }

    /// The module name this fingerprint is keyed to.
    pub fn module_name(&self) -> &str {
        &self.name
    }
}

/// FNV-style digest over the statistics that drive the implementation.
fn digest(stats: &NetlistStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    let c = &stats.counts;
    for v in [
        u64::from(c.luts),
        u64::from(c.ffs),
        u64::from(c.carry_bits),
        u64::from(c.lutram_luts),
        u64::from(c.srls),
        u64::from(c.bram36),
        u64::from(c.dsp48),
        u64::from(stats.control_sets),
        u64::from(stats.max_fanout),
        u64::from(stats.logic_depth),
        u64::from(stats.cell_count),
    ] {
        mix(v);
    }
    for &chain in &stats.carry_chains {
        mix(u64::from(chain));
    }
    for &n in &stats.ff_per_control_set {
        mix(u64::from(n));
    }
    h
}

/// A cached implementation plus its last-recently-used stamp.
struct CacheSlot {
    /// Content digest sealed at insert (see [`SealedModule`]); verified
    /// reads recompute and compare.
    digest: u64,
    module: ImplementedModule,
    /// Logical timestamp of the last lookup (drives LRU eviction).
    last_used: AtomicU64,
}

/// Default entry bound: far above any single design's unique-module count
/// (cnvW1A1 has 74), so eviction only engages on long-lived services
/// accumulating many designs/devices.
pub const DEFAULT_CACHE_CAPACITY: usize = 4_096;

/// Cache of pre-implemented modules, across compiles of evolving designs.
///
/// Lookups take `&self`: hit/miss counters and recency stamps are atomic,
/// so the cache can sit behind a reader-writer lock and serve concurrent
/// `get`s from server workers (inserts still need `&mut self` / the write
/// side). The entry count is bounded; inserting past capacity evicts the
/// least-recently-used implementation.
///
/// [`ImplementationCache::with_store`] makes it persistent: the cache is
/// backed by a [`MacroStore`], every insert is WAL-appended
/// **incrementally** and survives a crash, and a restarted process
/// warm-starts from the same directory — the durable macro library the
/// RapidWright-style reuse economics assume.
///
/// The cache also carries the flow's fault injector and retry policy
/// ([`with_fault`](ImplementationCache::with_fault),
/// [`with_retry`](ImplementationCache::with_retry)), so one armed cache
/// drives every fault point the cached flow consults.
pub struct ImplementationCache {
    entries: HashMap<ModuleFingerprint, CacheSlot>,
    /// When set, the store is the single backend: `entries` stays empty
    /// and every lookup/insert goes to the crash-safe library instead.
    store: Option<Arc<MacroStore>>,
    capacity: usize,
    /// Logical clock, bumped on every lookup.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Retry policy applied to store-mode writes and, under an armed
    /// injector, to per-module implementation attempts.
    pub(crate) retry: Retry,
    /// Consecutive store-put failures (after retries); resets on the
    /// first success. Services watch this to decide when the store is
    /// persistently broken and the cache should degrade to memory-only.
    store_fail_streak: AtomicU32,
    /// Total store puts that failed even after retrying.
    store_put_failures: AtomicU64,
    /// Fault injector consulted on verified reads (the
    /// `cache.corrupt_macro` silent-corruption point) and by the cached
    /// flow at `flow.place` and `flow.route`.
    pub(crate) fault: Arc<dyn FaultInjector>,
    /// Verified reads that failed (digest mismatch, audit violation, or
    /// injected corruption that broke the encoding).
    verify_failures: AtomicU64,
    /// Entries quarantined by verified reads (store mode evicts them
    /// durably; memory mode treats them as misses until overwritten).
    quarantined: AtomicU64,
    /// Inserts rejected by the pre-insert audit.
    insert_rejected: AtomicU64,
    /// Content digests that already passed a full verification in this
    /// process (sealed by the pre-insert audit, or fully checked on the
    /// first verified read after materializing from disk). The record
    /// behind a memoized digest lives in immutable process memory, so
    /// later hits skip the digest recompute and legality audit — that is
    /// what keeps read verification inside its 2% hot-path budget.
    /// Fault-armed caches bypass the memo entirely.
    verified: Mutex<HashSet<u64>>,
}

impl Default for ImplementationCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ImplementationCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache evicting (LRU) beyond `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ImplementationCache {
            entries: HashMap::new(),
            store: None,
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retry: Retry::default(),
            store_fail_streak: AtomicU32::new(0),
            store_put_failures: AtomicU64::new(0),
            fault: Arc::new(NoopInjector),
            verify_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            insert_rejected: AtomicU64::new(0),
            verified: Mutex::new(HashSet::new()),
        }
    }

    /// A cache backed by a persistent [`MacroStore`]: lookups and inserts
    /// go straight to the store (crash-safe WAL append per insert, LRU
    /// *byte*-budget eviction instead of the in-memory entry bound), so
    /// implementations accumulated by one process warm-start the next.
    pub fn with_store(store: Arc<MacroStore>) -> Self {
        ImplementationCache {
            store: Some(store),
            ..Self::with_capacity(DEFAULT_CACHE_CAPACITY)
        }
    }

    /// Replace the retry policy applied to store-mode writes and to
    /// injected `flow.place`/`flow.route` faults (default:
    /// [`Retry::default`] — three attempts with millisecond backoff).
    pub fn with_retry(mut self, retry: Retry) -> Self {
        self.retry = retry;
        self
    }

    /// Arm the cache's fault points with `fault`. Verified reads consult
    /// `cache.corrupt_macro` and, when it fires, the served module is
    /// bit-flipped on its way out — the read-verification layer must catch
    /// it. Unverified [`get`](ImplementationCache::get) is deliberately not
    /// instrumented: the point exists to prove detection, not to break
    /// plain lookups. [`implement`](ImplementationCache::implement) and the
    /// cached flow consult `flow.place` and `flow.route`.
    pub fn with_fault(mut self, fault: Arc<dyn FaultInjector>) -> Self {
        self.fault = fault;
        self
    }

    /// The persistent store behind this cache, if it runs in store mode.
    pub fn store(&self) -> Option<&Arc<MacroStore>> {
        self.store.as_ref()
    }

    /// Statistics of the backing store, if any.
    pub fn store_stats(&self) -> Option<StoreSnapshot> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Cached implementations.
    pub fn len(&self) -> usize {
        match &self.store {
            Some(store) => store.len(),
            None => self.entries.len(),
        }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up a module implementation without integrity checks. The
    /// flows use [`lookup`](ImplementationCache::lookup) instead; this
    /// stays for statistics probes and tests.
    pub fn get(&self, key: &ModuleFingerprint) -> Option<ImplementedModule> {
        if let Some(store) = &self.store {
            let hit = store.get(key).map(|sealed| sealed.module);
            match hit.is_some() {
                true => self.hits.fetch_add(1, Ordering::Relaxed),
                false => self.misses.fetch_add(1, Ordering::Relaxed),
            };
            return hit;
        }
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        match self.entries.get(key) {
            Some(slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.last_used.store(now, Ordering::Relaxed);
                Some(slot.module.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Look up a module implementation and verify it before serving:
    /// content digest first, then the full legality audit against
    /// `auditor`. A record failing either check is **quarantined** — in
    /// store mode it is durably evicted into the store's `quarantine/`
    /// directory, in memory mode it is served as a miss until the flow's
    /// recompute overwrites it — and reported as
    /// [`VerifiedLookup::Corrupt`] so the caller recomputes transparently.
    ///
    /// The full check runs once per *materialization*: a record loaded
    /// from disk (warm start, store read) or computed fresh is fully
    /// verified the first time it is served, then its digest is memoized
    /// and later hits of the same immutable in-process record pass on a
    /// set lookup. This is the same trust model as block-storage
    /// checksumming — verify what crossed the persistence boundary, not
    /// every page-cache hit — and it is what keeps the verified hot path
    /// inside the 2% overhead budget that `bench_verify` (in `tms-bench`)
    /// gates.
    ///
    /// When a [`FaultInjector`](ImplementationCache::with_fault) is armed,
    /// the `cache.corrupt_macro` point bit-flips the record on its way out
    /// (before verification), which is how the chaos suite proves the
    /// detection rate is 100%.
    pub fn get_verified(&self, key: &ModuleFingerprint, auditor: &Auditor<'_>) -> VerifiedLookup {
        let sealed = match &self.store {
            Some(store) => store.get(key),
            None => {
                let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                self.entries.get(key).map(|slot| {
                    slot.last_used.store(now, Ordering::Relaxed);
                    SealedModule {
                        digest: slot.digest,
                        module: slot.module.clone(),
                    }
                })
            }
        };
        let Some(mut sealed) = sealed else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return VerifiedLookup::Miss;
        };
        // Injected silent corruption: flip one bit of the serialized record
        // and re-decode, exactly what a bad DIMM or decoder bug produces. A
        // flip that breaks the encoding outright counts as detected too.
        if self.fault.armed() {
            match serde_json::to_vec(&sealed) {
                Ok(mut bytes) => {
                    if self
                        .fault
                        .corrupt(FaultPoint::CacheCorruptMacro, &mut bytes)
                    {
                        match serde_json::from_slice::<SealedModule>(&bytes) {
                            Ok(reparsed) => sealed = reparsed,
                            Err(e) => {
                                return self.quarantine_read(key, format!("undecodable: {e}"))
                            }
                        }
                    }
                }
                Err(e) => return self.quarantine_read(key, format!("unencodable: {e}")),
            }
        }
        // A memoized digest refers to a record already fully verified in
        // this process; the copy we just fetched comes from immutable
        // process memory, so re-auditing it would only burn the hot path.
        // Armed caches never take this shortcut: the chaos suite must see
        // every read fully checked.
        if !self.fault.armed() && self.is_verified(sealed.digest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return VerifiedLookup::Hit(sealed.module);
        }
        match verify_sealed(auditor, &sealed) {
            Ok(()) => {
                self.mark_verified(sealed.digest);
                self.hits.fetch_add(1, Ordering::Relaxed);
                VerifiedLookup::Hit(sealed.module)
            }
            Err(reason) => self.quarantine_read(key, reason),
        }
    }

    /// Whether `digest` already passed a full verification this process.
    fn is_verified(&self, digest: u64) -> bool {
        self.verified.lock().is_ok_and(|set| set.contains(&digest))
    }

    /// Memoize a digest whose record just passed the full check (or was
    /// sealed by the pre-insert audit). The set is bounded: long-lived
    /// services accumulating many libraries drop the memo wholesale and
    /// re-verify, rather than growing without limit.
    fn mark_verified(&self, digest: u64) {
        if let Ok(mut set) = self.verified.lock() {
            if set.len() >= 65_536 {
                set.clear();
            }
            set.insert(digest);
        }
    }

    /// Bookkeeping for a verified read that failed: count it, evict the
    /// offender where `&self` allows, and report the reason.
    fn quarantine_read(&self, key: &ModuleFingerprint, reason: String) -> VerifiedLookup {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            // Durable eviction; a quarantine I/O error must not break the
            // read path (the caller recomputes either way).
            let _ = store.quarantine(key);
        }
        VerifiedLookup::Corrupt(reason)
    }

    /// The lookup every cached path makes: a verified read against
    /// `auditor` (see [`get_verified`](ImplementationCache::get_verified)),
    /// or a plain [`get`](ImplementationCache::get) when `auditor` is
    /// `None`, booking `cache.hit` or `cache.miss` on `obs`. A record that
    /// fails verification is quarantined, booked as `cache.quarantined`
    /// plus a miss, and returned as `None`: callers recompute it exactly
    /// like a miss, and the fresh insert overwrites the bad record.
    pub fn lookup(
        &self,
        key: &ModuleFingerprint,
        auditor: Option<&Auditor<'_>>,
        obs: &dyn Recorder,
    ) -> Option<ImplementedModule> {
        let hit = match auditor {
            Some(auditor) => match self.get_verified(key, auditor) {
                VerifiedLookup::Hit(module) => Some(module),
                VerifiedLookup::Corrupt(_) => {
                    obs.count("cache.quarantined", 1);
                    None
                }
                VerifiedLookup::Miss => None,
            },
            None => self.get(key),
        };
        match hit {
            Some(_) => obs.count("cache.hit", 1),
            None => obs.count("cache.miss", 1),
        }
        hit
    }

    /// Store a module implementation, evicting the least-recently-used
    /// entry if the cache is at capacity; in store mode the insert is
    /// WAL-appended instead.
    ///
    /// Every insert is audited before it is accepted: the module's
    /// placement is re-checked from first principles against a device
    /// rebuilt from the fingerprint, so an illegal artifact is rejected
    /// (`InvalidData`, counted in
    /// [`insert_rejected`](ImplementationCache::insert_rejected)) instead
    /// of poisoning the library. Accepted modules are sealed with their
    /// content digest before storage.
    ///
    /// Store puts are retried under the cache's [`Retry`] policy; a put
    /// that fails every attempt increments both the consecutive-failure
    /// streak and the total failure counter and returns the final error.
    pub fn try_insert(
        &mut self,
        key: ModuleFingerprint,
        module: ImplementedModule,
    ) -> io::Result<()> {
        let device = Device::from_name(key.device());
        let auditor = Auditor::new(&device);
        let violations = audit_module(&auditor, &module);
        if let Some(first) = violations.first() {
            self.insert_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "insert rejected: {} fails audit ({} violations): {first}",
                    module.name,
                    violations.len()
                ),
            ));
        }
        let sealed = SealedModule::seal(module);
        // The audit above just proved this exact content legal; sealing
        // memoizes it so the first verified read is already on the fast
        // path.
        self.mark_verified(sealed.digest);
        if let Some(store) = &self.store {
            let out = self.retry.run(
                |_e: &io::Error| true,
                |_| store.put(key.clone(), sealed.clone()),
            );
            return match out {
                Ok(()) => {
                    self.store_fail_streak.store(0, Ordering::Relaxed);
                    Ok(())
                }
                Err(failed) => {
                    self.store_fail_streak.fetch_add(1, Ordering::Relaxed);
                    self.store_put_failures.fetch_add(1, Ordering::Relaxed);
                    Err(failed.last)
                }
            };
        }
        self.insert_memory(key, sealed);
        Ok(())
    }

    /// The plain in-memory insert with LRU eviction at capacity.
    fn insert_memory(&mut self, key: ModuleFingerprint, sealed: SealedModule) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(
            key,
            CacheSlot {
                digest: sealed.digest,
                module: sealed.module,
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// Verified reads that failed (digest mismatch, audit violation, or
    /// injected corruption that broke the encoding).
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures.load(Ordering::Relaxed)
    }

    /// Entries quarantined by verified reads.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Inserts rejected by the pre-insert audit.
    pub fn insert_rejected(&self) -> u64 {
        self.insert_rejected.load(Ordering::Relaxed)
    }

    /// Consecutive store-put failures since the last success (0 when the
    /// store is healthy or absent).
    pub fn store_fail_streak(&self) -> u32 {
        self.store_fail_streak.load(Ordering::Relaxed)
    }

    /// Total store puts that failed even after retrying.
    pub fn store_put_failures(&self) -> u64 {
        self.store_put_failures.load(Ordering::Relaxed)
    }

    /// Demote a store-backed cache to memory-only: the store's live
    /// entries move into the in-memory map (so warm state is not lost)
    /// and the store handle is dropped — its final flush runs on drop if
    /// the disk cooperates, and no further request depends on the broken
    /// backend. Returns the number of entries carried over; a no-op
    /// (returning 0) for caches already in memory mode.
    ///
    /// This is the graceful-degradation half of the store failure story:
    /// `tms-serve` calls it once the failure streak crosses its
    /// threshold, then reports degraded mode via `stats`/`/metrics`.
    pub fn degrade_to_memory(&mut self) -> usize {
        let Some(store) = self.store.take() else {
            return 0;
        };
        let entries = store.export();
        let carried = entries.len();
        self.capacity = self.capacity.max(carried.max(1));
        for (key, sealed) in entries {
            self.insert_memory(key, sealed);
        }
        self.store_fail_streak.store(0, Ordering::Relaxed);
        carried
    }

    /// Durability barrier: in store mode, block until every insert so far
    /// is fsynced into the WAL. A no-op for purely in-memory caches.
    pub fn flush(&self) -> io::Result<()> {
        match &self.store {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }
}

/// Outcome of a verified cache lookup
/// ([`ImplementationCache::get_verified`]).
#[derive(Debug)]
pub enum VerifiedLookup {
    /// The record passed the digest check and the legality audit.
    Hit(ImplementedModule),
    /// The record failed verification and was quarantined; the reason
    /// names the first failed check. Callers recompute, exactly as for a
    /// miss.
    Corrupt(String),
    /// No record under that fingerprint.
    Miss,
}

/// Result of a cached flow run.
pub struct CachedFlowResult {
    /// The flow outcome (implemented modules include the cached ones).
    pub result: RwFlowResult,
    /// Unique modules served from the cache.
    pub reused: usize,
    /// Unique modules implemented fresh this run.
    pub fresh: usize,
    /// Tool runs actually spent (fresh modules only).
    pub tool_runs_spent: u32,
}

/// Run the RW-style flow, reusing cached implementations where the module
/// fingerprint matches; newly implemented modules are added to the cache.
///
/// Cache hits skip pre-implementation entirely — their recorded macros are
/// spliced straight into the stitch input, so a warm cache saves the
/// place-and-route wall-clock, not just the accounting. Only the
/// `Constant` and `Minimal` CF policies are cache-coherent across runs
/// (the guided policy's predictions may change as the estimator is
/// retrained); the stitching is always re-run, since block positions
/// depend on the whole design.
///
/// Every cache hit is read-verified (digest + legality audit; see
/// [`ImplementationCache::lookup`]); a record failing verification is
/// quarantined and transparently recomputed — the flow result is correct
/// either way, corruption only costs the reuse. Misses implement through
/// [`ImplementationCache::implement`], so a cache armed with a fault
/// injector retries `flow.place` faults under its retry policy, and
/// `flow.route` is consulted before the stitch.
pub fn run_rw_flow_cached(
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    cache: &mut ImplementationCache,
) -> CachedFlowResult {
    run_cached(design, device, cfg, cache, true)
}

/// [`run_rw_flow_cached`] without read verification: hits are served
/// as-decoded. This is the reference the `bench_verify` overhead gate
/// measures the verified flow against; production paths use
/// [`run_rw_flow_cached`].
pub fn run_rw_flow_cached_unverified(
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    cache: &mut ImplementationCache,
) -> CachedFlowResult {
    run_cached(design, device, cfg, cache, false)
}

fn run_cached(
    design: &CnvDesign,
    device: &Device,
    cfg: &RwFlowConfig<'_>,
    cache: &mut ImplementationCache,
    read_verify: bool,
) -> CachedFlowResult {
    debug_assert!(
        !matches!(cfg.policy, CfPolicy::Guided { .. }),
        "guided CF predictions are not stable across estimator retraining"
    );
    // Packing phase first: fingerprints are taken against the packed
    // netlists, so a different packing policy is automatically a cache
    // miss — no risk of serving an unpacked macro to a packed request.
    let packed = tms_pack::pack_design(design, device, &cfg.mem_pack, cfg.obs);
    let (design, pack_report) = match &packed {
        Some((d, r)) => (d, Some(r.clone())),
        None => (design, None),
    };
    // Look up every module; hits go straight to the stitch input, misses
    // keep the fingerprint they were looked up under for the insert.
    let obs = cfg.obs;
    let auditor = Auditor::new(device);
    let auditor = read_verify.then_some(&auditor);
    let quarantined_before = cache.quarantined();
    let mut per_module: Vec<(usize, Result<ImplementedModule, String>)> = Vec::new();
    let mut missing: Vec<(usize, ModuleFingerprint)> = Vec::new();
    {
        let mut sp = tms_obs::span(obs, tms_obs::Phase::Cache, "lookup");
        for (idx, m) in design.modules.iter().enumerate() {
            let key = ModuleFingerprint::of(&m.netlist, device);
            match cache.lookup(&key, auditor, obs) {
                Some(hit) => per_module.push((idx, Ok(hit))),
                None => missing.push((idx, key)),
            }
        }
        sp.field("hits", per_module.len() as f64);
        sp.field("misses", missing.len() as f64);
        sp.field(
            "quarantined",
            (cache.quarantined() - quarantined_before) as f64,
        );
    }
    let reused = per_module.len();

    // Pre-implement only the misses, in parallel; under an armed fault
    // injector each module gets its own retry loop.
    let shared: &ImplementationCache = cache;
    let fresh_results: Vec<Result<ImplementedModule, String>> = missing
        .par_iter()
        .map(|&(idx, _)| {
            let m = &design.modules[idx];
            shared.implement(&m.name, &m.netlist, device, cfg)
        })
        .collect();

    // Account and fill the cache with the fresh implementations.
    let mut fresh = 0;
    let mut tool_runs_spent = 0;
    for ((idx, key), outcome) in missing.into_iter().zip(fresh_results) {
        match &outcome {
            Ok(m) => {
                fresh += 1;
                tool_runs_spent += m.attempts;
                if cache.try_insert(key, m.clone()).is_err() {
                    // The implementation still flows into the stitch; only
                    // its persistence failed (counted in the cache's
                    // failure statistics for the degrade decision).
                    obs.count("cache.store_error", 1);
                }
            }
            Err(_) => tool_runs_spent += 1,
        }
        per_module.push((idx, outcome));
    }

    // Back into design order, then stitch.
    per_module.sort_by_key(|&(idx, _)| idx);
    cache.absorb_route_faults(obs);
    let mut result = stitch_implemented(design, device, cfg, per_module);
    result.pack = pack_report;

    CachedFlowResult {
        result,
        reused,
        fresh,
        tool_runs_spent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwflow::implement_module;
    use tms_cnn::cnvw1a1;
    use tms_pblock::CfSearch;
    use tms_place::PlacementModel;
    use tms_stitch::StitchConfig;

    fn cfg(seed: u64) -> RwFlowConfig<'static> {
        RwFlowConfig {
            policy: CfPolicy::Minimal(CfSearch::wide()),
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig::fast(seed),
            portfolio: None,
            mem_pack: tms_pack::MemPackConfig::off(),
            obs: tms_obs::noop(),
            seed,
        }
    }

    #[test]
    fn second_compile_is_fully_cached() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        let first = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(first.reused, 0);
        assert_eq!(first.fresh, 74);
        assert!(first.tool_runs_spent > 74);

        let second = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(second.reused, 74);
        assert_eq!(second.fresh, 0);
        assert_eq!(second.tool_runs_spent, 0);
        assert_eq!(cache.len(), 74);
        assert!(cache.hits() >= 74);
    }

    #[test]
    fn changed_module_invalidates_only_itself() {
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        let v1 = cnvw1a1(5);
        run_rw_flow_cached(&v1, &dev, &cfg(5), &mut cache);

        // A different seed regenerates every module with different sizes —
        // simulate a single-module edit instead by rebuilding v1 and
        // patching one netlist.
        let mut v2 = cnvw1a1(5);
        let idx = v2.modules.iter().position(|m| m.name == "act_l5").unwrap();
        v2.modules[idx].netlist =
            tms_cnn::synth_module(tms_cnn::ModuleRole::Activation, 33, "act_l5", 999);

        let r = run_rw_flow_cached(&v2, &dev, &cfg(5), &mut cache);
        assert_eq!(r.fresh, 1, "only the edited module re-implements");
        assert_eq!(r.reused, 73);
        assert!(r.tool_runs_spent < r.result.total_tool_runs);
    }

    #[test]
    fn fingerprints_differ_across_devices_and_contents() {
        let design = cnvw1a1(1);
        let nl = &design.modules[0].netlist;
        let a = ModuleFingerprint::of(nl, &Device::xc7z020());
        let b = ModuleFingerprint::of(nl, &Device::xc7z045());
        assert_ne!(a, b, "device is part of the key");
        let other = &design.modules[1].netlist;
        assert_ne!(
            ModuleFingerprint::of(nl, &Device::xc7z020()),
            ModuleFingerprint::of(other, &Device::xc7z020())
        );
    }

    #[test]
    fn cache_counters_track_lookups() {
        let cache = ImplementationCache::new();
        let design = cnvw1a1(2);
        let key = ModuleFingerprint::of(&design.modules[0].netlist, &Device::xc7z020());
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn warm_run_skips_reimplementation_work() {
        // The point of the cache: a fully warm second run must do strictly
        // less implementation work. Per-phase span totals show exactly
        // where the time goes, instead of one opaque wall-clock pair.
        use tms_obs::{AggregatingSink, Phase};
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        let cold_sink = AggregatingSink::new();
        let cold = run_rw_flow_cached(&design, &dev, &cfg(5).with_recorder(&cold_sink), &mut cache);
        let warm_sink = AggregatingSink::new();
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5).with_recorder(&warm_sink), &mut cache);
        assert_eq!(warm.fresh, 0);
        assert_eq!(warm.tool_runs_spent, 0);
        // Identical final stitch either way.
        assert_eq!(
            warm.result.stitch.placed_count,
            cold.result.stitch.placed_count
        );
        assert_eq!(warm.result.implemented.len(), cold.result.implemented.len());
        // The cold run spends its time in 74 minimal-CF searches; the warm
        // run records no place/synth/pack spans at all — every module came
        // out of the cache — so only the re-run stitch remains.
        assert_eq!(cold_sink.phase_spans(Phase::Place), 74);
        assert_eq!(warm_sink.phase_spans(Phase::Place), 0);
        assert_eq!(warm_sink.phase_spans(Phase::Synth), 0);
        assert_eq!(warm_sink.phase_spans(Phase::Stitch), 1);
        assert_eq!(cold_sink.counter("cache.miss"), 74);
        assert_eq!(warm_sink.counter("cache.hit"), 74);
        assert!(
            warm_sink.total_us() < cold_sink.total_us(),
            "warm {}µs !< cold {}µs",
            warm_sink.total_us(),
            cold_sink.total_us()
        );
    }

    #[test]
    fn verified_mode_audits_hits() {
        // Coherence audit of the fingerprint: every module a warm run
        // splices from the cache must equal a fresh implementation.
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(warm.reused, 74);
        assert_eq!(warm.fresh, 0);
        assert_eq!(warm.tool_runs_spent, 0);
        assert_eq!(warm.result.implemented.len(), design.modules.len());
        for (m, hit) in design.modules.iter().zip(&warm.result.implemented) {
            let fresh = implement_module(&m.name, &m.netlist, &dev, &cfg(5))
                .expect("cached module must still implement");
            assert_eq!(hit.name, m.name);
            assert_eq!(
                hit.pblock.rect, fresh.pblock.rect,
                "cache incoherence on {}",
                m.name
            );
            assert_eq!(hit.cf, fresh.cf, "cache incoherence on {}", m.name);
        }
    }

    #[test]
    fn concurrent_lookups_count_every_hit_and_miss() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let mut cache = ImplementationCache::new();
        run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        let (h0, m0) = (cache.hits(), cache.misses());
        let keys: Vec<ModuleFingerprint> = design
            .modules
            .iter()
            .map(|m| ModuleFingerprint::of(&m.netlist, &dev))
            .collect();
        let miss_key = ModuleFingerprint::of(&design.modules[0].netlist, &Device::xc7z020());
        // 8 threads × (74 hits + 1 miss) through &self lookups.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in &keys {
                        assert!(cache.get(key).is_some());
                    }
                    assert!(cache.get(&miss_key).is_none());
                });
            }
        });
        assert_eq!(cache.hits() - h0, 8 * 74);
        assert_eq!(cache.misses() - m0, 8);
    }

    #[test]
    fn store_backed_cache_warm_starts_across_processes() {
        use tms_store::{Store, StoreConfig};
        let dir = std::env::temp_dir().join(format!(
            "tms_flow_store_warm_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();

        // "Process one": cold flow against an empty store directory, then a
        // graceful checkpoint and drop.
        {
            let store: Arc<MacroStore> =
                Arc::new(Store::open(StoreConfig::at(&dir)).expect("open store"));
            let mut cache = ImplementationCache::with_store(Arc::clone(&store));
            let cold = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
            assert_eq!(cold.fresh, 74);
            assert_eq!(cold.reused, 0);
            assert_eq!(cache.len(), 74);
            cache.flush().expect("flush");
            store.checkpoint().expect("checkpoint");
        }

        // "Process two": reopen the same directory; every implementation is
        // already in the library, so zero tool runs are spent.
        let store: Arc<MacroStore> =
            Arc::new(Store::open(StoreConfig::at(&dir)).expect("reopen store"));
        assert_eq!(store.len(), 74, "library survived the restart");
        let mut cache = ImplementationCache::with_store(store);
        let warm = run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(warm.reused, 74);
        assert_eq!(warm.fresh, 0);
        assert_eq!(warm.tool_runs_spent, 0);
        assert!(cache.hits() >= 74);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_evicts_least_recently_used() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        let donor = {
            let mut c = ImplementationCache::new();
            run_rw_flow_cached(&design, &dev, &cfg(5), &mut c);
            c
        };
        let mut cache = ImplementationCache::with_capacity(4);
        let mut keys = Vec::new();
        for m in design.modules.iter().take(6) {
            let key = ModuleFingerprint::of(&m.netlist, &dev);
            let implemented = donor.get(&key).expect("donor is warm");
            keys.push(key.clone());
            cache.try_insert(key, implemented).expect("legal module");
        }
        assert_eq!(cache.len(), 4, "capacity bound holds");
        // The two oldest entries were evicted, the newest four remain.
        assert!(cache.get(&keys[0]).is_none());
        assert!(cache.get(&keys[1]).is_none());
        for key in &keys[2..] {
            assert!(cache.get(key).is_some());
        }
        // Touching the oldest survivor protects it from the next eviction.
        assert!(cache.get(&keys[2]).is_some());
        let key6 = ModuleFingerprint::of(&design.modules[6].netlist, &dev);
        cache
            .try_insert(key6, donor.get(&keys[5]).unwrap())
            .expect("legal module");
        assert!(
            cache.get(&keys[2]).is_some(),
            "recently used entry survives"
        );
        assert!(cache.get(&keys[3]).is_none(), "LRU entry evicted");
    }
}
