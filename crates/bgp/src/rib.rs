//! Routing Information Bases and the decision process.
//!
//! One [`LocRib`] per speaker holds the per-peer Adj-RIB-In plus locally
//! originated routes, and answers "what is the best path (and the ECMP
//! multipath set) for this prefix?" following the RFC 4271 §9.1 ranking:
//!
//! 1. highest LOCAL_PREF (default 100),
//! 2. locally originated beats learned,
//! 3. shortest AS_PATH,
//! 4. lowest ORIGIN (IGP < EGP < INCOMPLETE),
//! 5. lowest MED (compared only between routes from the same neighbor AS),
//! 6. eBGP beats iBGP,
//! 7. lowest peer address (router-id proxy) as the final tie-break.
//!
//! With multipath enabled, every candidate equal to the best through step 6
//! joins the multipath set — the relaxation real routers call
//! `maximum-paths`, which the demo's "BGP + ECMP" traffic engineering
//! requires on the fat-tree.
//!
//! ## Compact-id memory shape
//!
//! Fat-tree convergence produces thousands of routes but only a handful of
//! distinct attribute sets, and the speaker reads each decision many times
//! (once for the FIB, once per established peer). This RIB stores
//! **nothing keyed by an address struct** on the hot path, and **nothing
//! per prefix but one `u32`**:
//!
//! * [`AttrStore`] hash-conses [`PathAttributes`] into `Arc`-backed
//!   canonical entries with stable [`AttrId`]s; ranking inputs are
//!   precomputed at intern time. An [`AttrPool`] wraps the store in a
//!   shared handle so every speaker in a run interns each attribute set
//!   **once per process**, not once per speaker.
//! * Prefixes and peer addresses are interned to `u32` ids
//!   ([`PrefixId`]/[`PeerId`], first-intern order, same discipline as
//!   `AttrId`). Per-peer Adj-RIB-In membership is a bitset over prefix
//!   ids.
//! * Per prefix, `set_of` names a **candidate set**: a small `Vec` sorted
//!   by `(remote, peer address)` — byte-for-byte the iteration order of
//!   the old `BTreeMap<CandKey, _>`, which the `min_by` tie-break (step 7)
//!   depends on. Sets live in a ref-counted, copy-on-write arena and each
//!   carries its own decision memo, so prefixes that share candidates
//!   (every prefix a peer announced in one UPDATE, every prefix of one
//!   origin) share one set and one decision: a decide is two array loads.
//!
//! ## Copy-on-write candidate sets
//!
//! Every mutation is an *operation* (an UPDATE, a withdrawal batch, a
//! session drop, a local origination) that applies one edit — insert or
//! replace a candidate, or remove one — to each prefix it touches. A
//! prefix in set S moves to S′ = edit(S); the arena memoizes S→S′ for the
//! duration of the edit and checks it first, so the thousand NLRI of one
//! UPDATE that all sat in S all land in one S′. A set whose refcount is 1
//! is edited in place (its memo dropped); a prefix whose last candidate
//! goes moves to set 0, the permanent empty set, whose answer is always
//! "unreachable". Sets left without prefixes are recycled only when the
//! operation ends, so a recycled id is never confused with a set the same
//! operation still forwards to. There is no content index: two equal sets
//! reached by different operations stay two sets, which costs one extra
//! decide and never a wrong one.
//!
//! Set ids, like prefix ids, order by first use, **not** by value, and
//! nothing observable is ordered by them. Every API that feeds a
//! determinism-sensitive consumer (affected-sets, the live prefix index)
//! returns id slices sorted by prefix *value* via the interner's monotone
//! sort key, so downstream iteration order — and hence wire bytes — is
//! identical to the address-keyed implementation it replaced. The one
//! reference model is [`crate::naive::NaiveRib`];
//! `tests/prop_rib_differential.rs` drives both in lockstep.

use crate::msg::{Origin, PathAttributes, UpdateMsg};
use horse_net::addr::Ipv4Prefix;
use horse_net::intern::{IdSet, PeerInterner, PrefixId, PrefixInterner, PrefixPool};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Stable identifier of an interned attribute set inside one [`AttrStore`].
///
/// Ids are assigned in first-intern order, so equal event sequences produce
/// equal ids — they are deterministic and never reused or compacted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

impl AttrId {
    /// The raw index (observability/debug output).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One interned attribute set plus its precomputed ranking inputs.
#[derive(Debug, Clone)]
pub(crate) struct AttrMeta {
    pub(crate) attrs: Arc<PathAttributes>,
    pub(crate) local_pref: u32,
    pub(crate) path_len: u32,
    pub(crate) origin_rank: u8,
    pub(crate) med: u32,
    pub(crate) neighbor_as: Option<u16>,
}

/// Hash-consing store for [`PathAttributes`].
///
/// `intern` returns the id of the canonical entry, creating one only for a
/// never-seen attribute set. The map is keyed by the `Arc` (hashing the
/// inner value), so lookups by borrowed `PathAttributes` never allocate.
#[derive(Debug, Clone, Default)]
pub struct AttrStore {
    ids: HashMap<Arc<PathAttributes>, AttrId>,
    metas: Vec<AttrMeta>,
    /// Distinct sets created (cache misses).
    interns: u64,
}

impl AttrStore {
    /// Interns a shared attribute set, reusing the caller's allocation on a
    /// miss.
    pub fn intern(&mut self, attrs: &Arc<PathAttributes>) -> AttrId {
        if let Some(id) = self.ids.get(&**attrs) {
            return *id;
        }
        self.insert_new(Arc::clone(attrs))
    }

    /// Interns an owned attribute set (allocates the `Arc` only on a miss).
    pub fn intern_owned(&mut self, attrs: PathAttributes) -> AttrId {
        if let Some(id) = self.ids.get(&attrs) {
            return *id;
        }
        self.insert_new(Arc::new(attrs))
    }

    fn insert_new(&mut self, attrs: Arc<PathAttributes>) -> AttrId {
        let id = AttrId(self.metas.len() as u32);
        self.interns += 1;
        let meta = AttrMeta {
            local_pref: attrs.local_pref.unwrap_or(100),
            path_len: attrs.as_path_len() as u32,
            origin_rank: match attrs.origin {
                Origin::Igp => 0,
                Origin::Egp => 1,
                Origin::Incomplete => 2,
            },
            med: attrs.med.unwrap_or(0),
            neighbor_as: attrs.neighbor_as(),
            attrs: Arc::clone(&attrs),
        };
        self.ids.insert(attrs, id);
        self.metas.push(meta);
        id
    }

    /// The canonical shared attributes for an id.
    pub fn attrs(&self, id: AttrId) -> &Arc<PathAttributes> {
        &self.metas[id.0 as usize].attrs
    }

    /// Number of distinct attribute sets interned so far (monotone — this
    /// *is* the peak size).
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Rough heap footprint of the store: canonical attribute allocations
    /// plus table overhead. An estimate for observability (`mem_*` report
    /// counters), not an allocator measurement.
    pub fn bytes_estimate(&self) -> u64 {
        let mut total = 0u64;
        for m in &self.metas {
            let a = &m.attrs;
            let path: usize = a
                .as_path
                .iter()
                .map(|s| {
                    24 + 2 * match s {
                        crate::msg::AsPathSegment::Sequence(v) => v.len(),
                        crate::msg::AsPathSegment::Set(v) => v.len(),
                    }
                })
                .sum();
            let unknown: usize = a.unknown.iter().map(|(_, _, v)| 40 + v.len()).sum();
            // Arc header + PathAttributes + heap behind it, plus the id-map
            // entry and meta-table slot.
            total += (32
                + std::mem::size_of::<PathAttributes>()
                + path
                + 4 * a.communities.len()
                + unknown
                + std::mem::size_of::<AttrMeta>()
                + 48) as u64;
        }
        total
    }

    pub(crate) fn meta(&self, id: AttrId) -> &AttrMeta {
        &self.metas[id.0 as usize]
    }

    /// The id of an already-interned attribute set, if present. The probe
    /// half of the pool's lock-light intern: callers holding only the read
    /// lock check here and escalate to the write lock on a miss.
    pub fn get(&self, attrs: &PathAttributes) -> Option<AttrId> {
        self.ids.get(attrs).copied()
    }
}

/// A shared handle to one [`AttrStore`].
///
/// `BgpControl` creates one pool per run and hands a clone to every
/// speaker, so a 1000-node experiment interns each distinct attribute set
/// once instead of once per speaker. The handle is a plain
/// `Arc<RwLock<_>>` — **not** copy-on-write: `Arc::make_mut` would fork
/// the table on first write and silently undo the sharing. Correctness
/// does not depend on id *values* (only id equality within one store), so
/// sharing the id space across speakers cannot change any decision or
/// wire byte; pump/sweep determinism holds because the pool is per-run,
/// never process-global across sweep workers.
///
/// Interning is **lock-light**: attribute churn is read-mostly (a
/// converged fleet re-interns the same few hundred sets constantly), so
/// [`AttrPool::intern`] first probes under the read lock and only
/// escalates to the write lock on a genuine miss. Under the intra-run
/// parallel pump, concurrent double-misses are resolved by the store's
/// re-check inside the write lock — one id per value, always. Id *values*
/// may then depend on worker interleaving, which is safe precisely
/// because nothing semantic reads them: ranking uses precomputed metas,
/// wire bytes carry the attributes themselves, announce batching groups
/// by id equality in value-sorted prefix order, and intern/reuse totals
/// count the same events whichever worker wins the race.
#[derive(Debug, Clone, Default)]
pub struct AttrPool(Arc<RwLock<AttrStore>>);

impl AttrPool {
    /// A fresh, empty pool.
    pub fn new() -> AttrPool {
        AttrPool::default()
    }

    /// Read access to the underlying store (held briefly — never across a
    /// call back into a RIB).
    pub fn read(&self) -> RwLockReadGuard<'_, AttrStore> {
        self.0.read().expect("attr pool lock poisoned")
    }

    /// Interns a shared attribute set; the `bool` is true when this call
    /// created the entry (false = fleet-wide reuse). Hits resolve under
    /// the read lock; only a genuine miss takes the write lock.
    pub fn intern(&self, attrs: &Arc<PathAttributes>) -> (AttrId, bool) {
        if let Some(id) = self.read().get(attrs) {
            return (id, false);
        }
        let mut s = self.0.write().expect("attr pool lock poisoned");
        let before = s.interns;
        let id = s.intern(attrs);
        (id, s.interns > before)
    }

    /// Interns an owned attribute set; the `bool` is true on creation.
    /// Same lock discipline as [`AttrPool::intern`].
    pub fn intern_owned(&self, attrs: PathAttributes) -> (AttrId, bool) {
        if let Some(id) = self.read().get(&attrs) {
            return (id, false);
        }
        let mut s = self.0.write().expect("attr pool lock poisoned");
        let before = s.interns;
        let id = s.intern_owned(attrs);
        (id, s.interns > before)
    }

    /// The canonical shared attributes for an id (owned `Arc` — the lock
    /// cannot outlive the call).
    pub fn attrs(&self, id: AttrId) -> Arc<PathAttributes> {
        Arc::clone(self.read().attrs(id))
    }

    /// Number of distinct attribute sets in the pool.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// See [`AttrStore::bytes_estimate`].
    pub fn bytes_estimate(&self) -> u64 {
        self.read().bytes_estimate()
    }

    /// True when `other` is the same underlying store.
    pub fn same_as(&self, other: &AttrPool) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Work/effectiveness counters for the indexed RIB (and the speaker's
/// export cache, merged in by [`crate::speaker::BgpSpeaker::rib_stats`]).
///
/// All counters are cost observability only: they never feed back into
/// routing decisions or wire output. The decision counters are per
/// *candidate set*, not per prefix: prefixes sharing a set share its one
/// memoized decision (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RibStats {
    /// Decision-process invocations, one per prefix read (cache hits
    /// included).
    pub decide_calls: u64,
    /// Reads answered without ranking: the prefix's set already held a
    /// memoized decision, or the prefix has no candidates (set 0).
    pub decide_cache_hits: u64,
    /// Reads that ranked their candidate set — at most one per set
    /// between edits, however many prefixes share it.
    pub decide_recomputes: u64,
    /// Memoized set decisions dropped: the set was edited in place, or
    /// its last prefix left and the set was recycled.
    pub invalidations: u64,
    /// Candidates examined across all recomputes.
    pub candidate_touches: u64,
    /// Distinct attribute sets this RIB created in its (possibly shared)
    /// store.
    pub attr_interns: u64,
    /// Attribute-set intern hits (deep clones avoided — with a shared
    /// pool, sets first interned by *another* speaker count here).
    pub attr_reuses: u64,
    /// Attribute-store size. Reported only by RIBs owning a private store;
    /// with a shared pool the owner (`BgpControl`) reports the pool size
    /// once, so merged figures never double-count.
    pub attr_store_size: u64,
    /// Export-policy results served from the per-peer cache.
    pub export_cache_hits: u64,
    /// Export-policy computations (cache misses).
    pub export_cache_misses: u64,
}

impl RibStats {
    /// Accumulates `other` (store sizes add — aggregated over speakers the
    /// sum is the fleet-wide distinct-attribute footprint).
    pub fn merge(&mut self, other: &RibStats) {
        self.decide_calls += other.decide_calls;
        self.decide_cache_hits += other.decide_cache_hits;
        self.decide_recomputes += other.decide_recomputes;
        self.invalidations += other.invalidations;
        self.candidate_touches += other.candidate_touches;
        self.attr_interns += other.attr_interns;
        self.attr_reuses += other.attr_reuses;
        self.attr_store_size += other.attr_store_size;
        self.export_cache_hits += other.export_cache_hits;
        self.export_cache_misses += other.export_cache_misses;
    }

    /// Decision-process work: every decide call costs at least its map
    /// probe, and each recompute additionally walks its candidates. The
    /// `rib_churn` bench compares this figure against the naive model's.
    pub fn decision_work(&self) -> u64 {
        self.decide_calls + self.candidate_touches
    }
}

/// One candidate in a sorted candidate set. `(remote, addr_key)` is the
/// sort key: local origination is `(false, 0)` and sorts first; remote
/// peers follow in ascending address order — exactly the gathering order
/// of the naive decision loop, which the `min_by` tie-break depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CandEntry {
    /// False only for the locally originated candidate.
    remote: bool,
    /// `u32::from(peer address)` (0 for local) — `u32` order equals
    /// `Ipv4Addr` order.
    addr_key: u32,
    attr: AttrId,
    ebgp: bool,
}

impl CandEntry {
    fn key(&self) -> (bool, u32) {
        (self.remote, self.addr_key)
    }
}

const LOCAL_KEY: (bool, u32) = (false, 0);

/// The edit one RIB operation applies to every prefix it touches.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Insert the candidate, or replace the one at its key.
    Upsert(CandEntry),
    /// Remove the candidate at this key.
    Remove((bool, u32)),
}

impl Edit {
    /// True when applying the edit would change `cands`.
    fn changes(self, cands: &[CandEntry]) -> bool {
        match self {
            Edit::Upsert(e) => match cands.binary_search_by_key(&e.key(), CandEntry::key) {
                Ok(i) => cands[i] != e,
                Err(_) => true,
            },
            Edit::Remove(key) => cands.binary_search_by_key(&key, CandEntry::key).is_ok(),
        }
    }

    /// Applies the edit, keeping `cands` sorted.
    fn apply(self, cands: &mut Vec<CandEntry>) {
        match self {
            Edit::Upsert(e) => match cands.binary_search_by_key(&e.key(), CandEntry::key) {
                Ok(i) => cands[i] = e,
                Err(i) => cands.insert(i, e),
            },
            Edit::Remove(key) => {
                if let Ok(i) = cands.binary_search_by_key(&key, CandEntry::key) {
                    cands.remove(i);
                }
            }
        }
    }
}

/// Set id 0: the permanent empty set. Every prefix without candidates —
/// and every id beyond `set_of` — is in it, and its answer is always
/// "unreachable", so it is never ranked, ref-counted or recycled.
const EMPTY_SET: u32 = 0;

/// One copy-on-write candidate set, shared by every prefix whose `set_of`
/// slot names it.
#[derive(Debug, Clone, Default)]
struct CandSet {
    /// Candidates sorted by `(remote, addr_key)`; never empty outside set 0.
    cands: Vec<CandEntry>,
    /// Prefixes in this set; 0 = dead (recycled when its operation ends).
    refs: u32,
    /// Where the current edit sends this set's prefixes — valid only while
    /// `moved_by` equals the RIB's edit counter.
    moved_to: u32,
    moved_by: u64,
    /// The set's decision, computed on first read after an edit. Interior
    /// mutability keeps `decide(&self)`.
    memo: OnceCell<Arc<Decision>>,
}

/// One route in a [`Decision`], sharing the interned attribute allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteInfo {
    /// Canonical attributes as received (or as originated).
    pub attrs: Arc<PathAttributes>,
    /// Interned id of `attrs` in the owning RIB's store.
    pub attr_id: AttrId,
    /// The peer this was learned from (`0.0.0.0` for local origination).
    pub peer: Ipv4Addr,
    /// True when learned over eBGP.
    pub ebgp: bool,
}

impl RouteInfo {
    /// True for locally originated paths.
    pub fn is_local(&self) -> bool {
        self.peer == Ipv4Addr::UNSPECIFIED
    }
}

/// Result of running the decision process over one candidate set.
/// Memoized per set behind an `Arc`, so every reader (FIB reconcile, each
/// established peer's sync) of every prefix in the set shares one
/// computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The single best path.
    pub best: RouteInfo,
    /// The ECMP set (always contains `best`; singleton when multipath is
    /// off or nothing ties).
    pub multipath: Vec<RouteInfo>,
    /// Deduplicated, sorted next hops of the multipath set.
    pub next_hops: Vec<Ipv4Addr>,
    /// `next_hops` interned in the owning RIB: within one RIB, equal ids
    /// mean equal next-hop sets. Never 0, so callers can use 0 for "no
    /// route".
    pub next_hop_set: u32,
}

/// The RIB's prefix-id table: private per speaker, or a handle to the
/// per-run [`PrefixPool`] every speaker shares. A shared table gives the
/// whole fleet one id space — a 1000-node full mesh interns each prefix
/// once, not once per speaker — but means ids created by *other* speakers
/// can exceed this RIB's `set_of` arena, so every arena-indexing path must
/// treat an out-of-range id as "no local candidates".
#[derive(Debug, Clone)]
enum PrefixTable {
    Local(PrefixInterner),
    Shared(PrefixPool),
}

impl Default for PrefixTable {
    fn default() -> Self {
        PrefixTable::Local(PrefixInterner::default())
    }
}

impl PrefixTable {
    fn intern(&mut self, p: Ipv4Prefix) -> PrefixId {
        match self {
            PrefixTable::Local(t) => t.intern(p),
            PrefixTable::Shared(t) => t.intern(p),
        }
    }

    fn get(&self, p: Ipv4Prefix) -> Option<PrefixId> {
        match self {
            PrefixTable::Local(t) => t.get(p),
            PrefixTable::Shared(t) => t.get(p),
        }
    }

    fn value(&self, id: PrefixId) -> Ipv4Prefix {
        match self {
            PrefixTable::Local(t) => t.value(id),
            PrefixTable::Shared(t) => t.value(id),
        }
    }

    fn len(&self) -> usize {
        match self {
            PrefixTable::Local(t) => t.len(),
            PrefixTable::Shared(t) => t.len(),
        }
    }

    fn sort_by_value(&self, ids: &mut Vec<PrefixId>) {
        match self {
            PrefixTable::Local(t) => t.sort_by_value(ids),
            PrefixTable::Shared(t) => t.sort_by_value(ids),
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, PrefixTable::Shared(_))
    }
}

/// The speaker's RIB collection (compact-id shape).
#[derive(Debug, Clone)]
pub struct LocRib {
    local_as: u16,
    multipath: bool,
    pool: AttrPool,
    /// True when `pool` is shared with other RIBs (size reporting moves to
    /// the pool owner).
    pool_shared: bool,
    /// Distinct attribute sets *this RIB* created in the pool.
    interns: Cell<u64>,
    /// Intern hits (including sets first created by other sharers).
    reuses: Cell<u64>,
    prefixes: PrefixTable,
    peers: PeerInterner,
    /// Per peer id: the prefix ids it currently contributes.
    adj_in: Vec<IdSet>,
    /// Per prefix id: its candidate set in `sets` ([`EMPTY_SET`] = none).
    set_of: Vec<u32>,
    /// Prefixes not in the empty set.
    live: usize,
    /// The candidate-set arena; slot 0 is [`EMPTY_SET`].
    sets: Vec<CandSet>,
    /// Recycled set ids, reused before the arena grows.
    free_sets: Vec<u32>,
    /// Sets whose last prefix left during the current operation.
    dead_sets: Vec<u32>,
    /// Edits begun so far; dates `CandSet::moved_by`.
    edits: u64,
    /// Next-hop sets interned by `compute`, ids from 1. Grows with the
    /// distinct sets seen, like the attribute store.
    hop_sets: RefCell<HashMap<Vec<Ipv4Addr>, u32>>,
    stats: RefCell<RibStats>,
}

impl Default for LocRib {
    fn default() -> Self {
        LocRib {
            local_as: 0,
            multipath: false,
            pool: AttrPool::default(),
            pool_shared: false,
            interns: Cell::default(),
            reuses: Cell::default(),
            prefixes: PrefixTable::default(),
            peers: PeerInterner::default(),
            adj_in: Vec::new(),
            set_of: Vec::new(),
            live: 0,
            sets: vec![CandSet::default()],
            free_sets: Vec::new(),
            dead_sets: Vec::new(),
            edits: 0,
            hop_sets: RefCell::default(),
            stats: RefCell::default(),
        }
    }
}

impl LocRib {
    /// A RIB for a speaker in `local_as`, with a private attribute store.
    pub fn new(local_as: u16, multipath: bool) -> LocRib {
        LocRib {
            local_as,
            multipath,
            ..LocRib::default()
        }
    }

    /// A RIB sharing a per-run [`AttrPool`] with other speakers.
    pub fn new_shared(local_as: u16, multipath: bool, pool: AttrPool) -> LocRib {
        LocRib {
            local_as,
            multipath,
            pool,
            pool_shared: true,
            ..LocRib::default()
        }
    }

    /// A RIB sharing both per-run pools — attribute sets *and* the prefix
    /// id space — with other speakers. This is the shape the parallel pump
    /// runs: the pools are lock-light and the id tables fleet-global, so a
    /// prefix announced everywhere costs one intern, not one per speaker.
    pub fn new_shared_pools(
        local_as: u16,
        multipath: bool,
        pool: AttrPool,
        prefixes: PrefixPool,
    ) -> LocRib {
        LocRib {
            local_as,
            multipath,
            pool,
            pool_shared: true,
            prefixes: PrefixTable::Shared(prefixes),
            ..LocRib::default()
        }
    }

    /// Interns into the pool, tracking per-RIB created/reused counts.
    fn pool_intern(&self, attrs: &Arc<PathAttributes>) -> AttrId {
        let (id, created) = self.pool.intern(attrs);
        self.count_intern(created);
        id
    }

    fn count_intern(&self, created: bool) {
        if created {
            self.interns.set(self.interns.get() + 1);
        } else {
            self.reuses.set(self.reuses.get() + 1);
        }
    }

    /// Interns a prefix, growing `set_of` alongside the id table.
    fn intern_prefix(&mut self, p: Ipv4Prefix) -> PrefixId {
        let id = self.prefixes.intern(p);
        if id.index() >= self.set_of.len() {
            self.set_of.resize(id.index() + 1, EMPTY_SET);
        }
        id
    }

    /// Starts a new edit: set-to-set moves memoized by the previous one
    /// no longer apply.
    fn begin_edit(&mut self) {
        self.edits += 1;
    }

    /// Ends an operation: recycles the sets it emptied of prefixes.
    fn end_operation(&mut self) {
        let mut dead = std::mem::take(&mut self.dead_sets);
        for s in dead.drain(..) {
            let set = &mut self.sets[s as usize];
            if set.memo.take().is_some() {
                self.stats.get_mut().invalidations += 1;
            }
            set.cands = Vec::new();
            self.free_sets.push(s);
        }
        self.dead_sets = dead;
    }

    /// A fresh set holding `cands`, reusing a recycled id when one is free.
    fn alloc_set(&mut self, cands: Vec<CandEntry>) -> u32 {
        let set = CandSet {
            cands,
            ..CandSet::default()
        };
        match self.free_sets.pop() {
            Some(s) => {
                self.sets[s as usize] = set;
                s
            }
            None => {
                self.sets.push(set);
                (self.sets.len() - 1) as u32
            }
        }
    }

    /// Moves prefix `id` from its set S to S′ = `edit`(S), returning true
    /// when its candidates changed. The current edit's S→S′ move is
    /// memoized on S and checked first, so every prefix of S lands in the
    /// same S′; S is edited in place when this prefix is its only member.
    fn edit_prefix(&mut self, id: PrefixId, edit: Edit) -> bool {
        let from = self.set_of.get(id.index()).copied().unwrap_or(EMPTY_SET);
        let set = &mut self.sets[from as usize];
        let to = if set.moved_by == self.edits {
            set.moved_to
        } else {
            set.moved_by = self.edits;
            if !edit.changes(&set.cands) {
                set.moved_to = from;
                return false;
            }
            let to = if matches!(edit, Edit::Remove(_)) && set.cands.len() == 1 {
                EMPTY_SET
            } else if from != EMPTY_SET && set.refs == 1 {
                edit.apply(&mut set.cands);
                if set.memo.take().is_some() {
                    self.stats.get_mut().invalidations += 1;
                }
                set.moved_to = from;
                return true;
            } else {
                let mut cands = Vec::with_capacity(set.cands.len() + 1);
                cands.extend_from_slice(&set.cands);
                edit.apply(&mut cands);
                self.alloc_set(cands)
            };
            self.sets[from as usize].moved_to = to;
            to
        };
        if to == from {
            // Unchanged, or this very prefix was already edited in place.
            return false;
        }
        if from == EMPTY_SET {
            self.live += 1;
        } else {
            let set = &mut self.sets[from as usize];
            set.refs -= 1;
            if set.refs == 0 {
                self.dead_sets.push(from);
            }
        }
        if to == EMPTY_SET {
            self.live -= 1;
        } else {
            self.sets[to as usize].refs += 1;
        }
        self.set_of[id.index()] = to;
        true
    }

    /// Originates a local network, returning the prefix's id.
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> PrefixId {
        let attr = self.intern_attrs(PathAttributes::originated(next_hop));
        let id = self.intern_prefix(prefix);
        self.begin_edit();
        self.edit_prefix(
            id,
            Edit::Upsert(CandEntry {
                remote: false,
                addr_key: 0,
                attr,
                ebgp: false,
            }),
        );
        self.end_operation();
        id
    }

    /// Withdraws a locally originated network; `Some(id)` when a local
    /// candidate actually existed.
    pub fn withdraw_local(&mut self, prefix: Ipv4Prefix) -> Option<PrefixId> {
        let id = self.prefixes.get(prefix)?;
        self.begin_edit();
        let removed = self.edit_prefix(id, Edit::Remove(LOCAL_KEY));
        self.end_operation();
        removed.then_some(id)
    }

    /// Applies an UPDATE from `peer`, returning every prefix whose
    /// candidate set changed — sorted by prefix **value** (ascending), the
    /// iteration order all downstream consumers require. Announcements
    /// whose AS_PATH contains our own AS are rejected (loop prevention) —
    /// treated as withdrawals of any previous path from that peer.
    pub fn update_from_peer(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        update: &UpdateMsg,
    ) -> Vec<PrefixId> {
        self.update_from_peer_policed(peer, ebgp, update, None)
    }

    /// [`LocRib::update_from_peer`] with an optional import route-map — the
    /// single import-policy choke point. With `import: None` the behavior
    /// (and the one-intern-per-UPDATE shape) is exactly the unpoliced path.
    /// With a map, NLRI are bucketed by the first matching clause so each
    /// clause's transform is applied and interned **once per UPDATE**, not
    /// per prefix; denied prefixes (deny clause or no clause — implicit
    /// deny) are treated as withdrawals from this peer.
    pub fn update_from_peer_policed(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        update: &UpdateMsg,
        import: Option<&crate::policy::RouteMap>,
    ) -> Vec<PrefixId> {
        let mut affected: Vec<PrefixId> = Vec::new();
        self.remove_peer_candidates(peer, &update.withdrawn, &mut affected);
        if let Some(attrs) = &update.attrs {
            // Loop prevention sees the wire attributes, before any policy.
            if attrs.contains_asn(self.local_as) {
                self.remove_peer_candidates(peer, &update.nlri, &mut affected);
            } else {
                match import {
                    None => {
                        // One intern per UPDATE, not per prefix: every NLRI
                        // in the message shares the id (and the allocation).
                        let attr = self.pool_intern(attrs);
                        self.insert_candidates(peer, ebgp, attr, &update.nlri, &mut affected);
                    }
                    Some(map) => {
                        use crate::policy::{PolicyAction, PolicyVerdict};
                        let mut denied: Vec<Ipv4Prefix> = Vec::new();
                        let mut buckets: std::collections::BTreeMap<usize, Vec<Ipv4Prefix>> =
                            std::collections::BTreeMap::new();
                        for p in &update.nlri {
                            match map.first_match(*p, attrs) {
                                Some(i) if map.clauses[i].action == PolicyAction::Permit => {
                                    buckets.entry(i).or_default().push(*p);
                                }
                                _ => denied.push(*p),
                            }
                        }
                        // A denied announce is a withdrawal from this peer
                        // (and, like one, never grows the arenas).
                        self.remove_peer_candidates(peer, &denied, &mut affected);
                        for (i, nlri) in buckets {
                            let attr = match map.verdict_of(i, attrs, self.local_as) {
                                PolicyVerdict::Permit(None) => self.pool_intern(attrs),
                                PolicyVerdict::Permit(Some(out)) => self.intern_attrs(out),
                                PolicyVerdict::Deny => unreachable!("bucketed permit clause"),
                            };
                            self.insert_candidates(peer, ebgp, attr, &nlri, &mut affected);
                        }
                    }
                }
            }
        }
        self.end_operation();
        self.prefixes.sort_by_value(&mut affected);
        affected
    }

    /// Removes every route learned from `peer` (session down), returning
    /// the affected prefix ids sorted by value.
    pub fn drop_peer(&mut self, peer: Ipv4Addr) -> Vec<PrefixId> {
        let Some(pid) = self.peers.get(peer) else {
            return Vec::new();
        };
        if pid.index() >= self.adj_in.len() {
            return Vec::new();
        }
        let key = (true, u32::from(peer));
        let mut affected: Vec<PrefixId> = self.adj_in[pid.index()].iter().map(PrefixId).collect();
        self.adj_in[pid.index()].clear();
        self.begin_edit();
        for &id in &affected {
            self.edit_prefix(id, Edit::Remove(key));
        }
        self.end_operation();
        self.prefixes.sort_by_value(&mut affected);
        affected
    }

    /// Installs one interned attribute set as `peer`'s candidate for each
    /// prefix in `nlri` (one edit), maintaining the Adj-RIB-In index and
    /// pushing changed ids onto `affected`.
    fn insert_candidates(
        &mut self,
        peer: Ipv4Addr,
        ebgp: bool,
        attr: AttrId,
        nlri: &[Ipv4Prefix],
        affected: &mut Vec<PrefixId>,
    ) {
        let pid = self.peers.intern(peer);
        if pid.index() >= self.adj_in.len() {
            self.adj_in.resize(pid.index() + 1, IdSet::new());
        }
        let edit = Edit::Upsert(CandEntry {
            remote: true,
            addr_key: u32::from(peer),
            attr,
            ebgp,
        });
        self.begin_edit();
        for p in nlri {
            let id = self.intern_prefix(*p);
            self.adj_in[pid.index()].insert(id.0);
            if self.edit_prefix(id, edit) {
                affected.push(id);
            }
        }
    }

    /// Drops `peer`'s candidate for each prefix in `prefixes` (one edit),
    /// maintaining the Adj-RIB-In index and pushing ids that actually had
    /// one onto `affected`. Unknown prefixes are not interned: a
    /// withdrawal of something never announced must not grow the arenas.
    fn remove_peer_candidates(
        &mut self,
        peer: Ipv4Addr,
        prefixes: &[Ipv4Prefix],
        affected: &mut Vec<PrefixId>,
    ) {
        let edit = Edit::Remove((true, u32::from(peer)));
        let pid = self.peers.get(peer);
        self.begin_edit();
        for p in prefixes {
            let Some(id) = self.prefixes.get(*p) else {
                continue;
            };
            if self.edit_prefix(id, edit) {
                if let Some(row) = pid.and_then(|pid| self.adj_in.get_mut(pid.index())) {
                    row.remove(id.0);
                }
                affected.push(id);
            }
        }
    }

    /// Number of paths in a peer's Adj-RIB-In.
    pub fn adj_in_len(&self, peer: Ipv4Addr) -> usize {
        self.peers
            .get(peer)
            .and_then(|pid| self.adj_in.get(pid.index()))
            .map_or(0, IdSet::len)
    }

    /// Every prefix with at least one candidate path, as values (a read of
    /// the persistent `set_of` arena, not a union rebuild).
    pub fn prefixes(&self) -> BTreeSet<Ipv4Prefix> {
        self.live_prefix_ids()
            .into_iter()
            .map(|id| self.prefixes.value(id))
            .collect()
    }

    /// Every live prefix id, sorted by prefix value — the order the
    /// speaker's newly-established-peer sync iterates in.
    pub fn live_prefix_ids(&self) -> Vec<PrefixId> {
        let mut ids: Vec<PrefixId> = (0..self.set_of.len() as u32)
            .filter(|&i| self.set_of[i as usize] != EMPTY_SET)
            .map(PrefixId)
            .collect();
        // One sort_by_value call instead of a per-comparison sort_key
        // probe: against a shared table that is one lock, not O(n log n).
        self.prefixes.sort_by_value(&mut ids);
        ids
    }

    /// Number of live prefixes.
    pub fn prefix_count(&self) -> usize {
        self.live
    }

    /// Number of live candidate sets (the empty set not counted): how many
    /// distinct decisions the RIB's prefixes can share.
    pub fn candidate_sets(&self) -> usize {
        self.sets.len() - 1 - self.free_sets.len() - self.dead_sets.len()
    }

    /// The id of a prefix, if it was ever announced or originated here.
    pub fn prefix_id(&self, prefix: Ipv4Prefix) -> Option<PrefixId> {
        self.prefixes.get(prefix)
    }

    /// The prefix value behind an id.
    pub fn prefix_value(&self, id: PrefixId) -> Ipv4Prefix {
        self.prefixes.value(id)
    }

    /// Sorts (and dedups) prefix ids into ascending value order.
    pub fn sort_ids_by_value(&self, ids: &mut Vec<PrefixId>) {
        self.prefixes.sort_by_value(ids);
    }

    /// `(prefix table size, peer table size)` — interner footprints for
    /// the `mem_*` report counters. Monotone, so also the peaks.
    pub fn interner_sizes(&self) -> (usize, usize) {
        // A shared prefix table is reported once by its owner (the control
        // plane), not by every sharer — mirroring `attr_store_size`.
        let prefixes = if self.prefixes.is_shared() {
            0
        } else {
            self.prefixes.len()
        };
        (prefixes, self.peers.len())
    }

    /// The (possibly shared) attribute pool.
    pub fn attr_pool(&self) -> &AttrPool {
        &self.pool
    }

    /// Interns an owned attribute set in this RIB's pool (the speaker's
    /// export path uses this so Adj-RIB-Out entries are ids too).
    pub fn intern_attrs(&self, attrs: PathAttributes) -> AttrId {
        let (id, created) = self.pool.intern_owned(attrs);
        self.count_intern(created);
        id
    }

    /// The canonical shared attributes for an id (owned handle — the pool
    /// lock cannot be held across the call boundary).
    pub fn attrs_of(&self, id: AttrId) -> Arc<PathAttributes> {
        self.pool.attrs(id)
    }

    /// Just the decision-process counters `(decide_calls,
    /// decide_cache_hits)` — the subset trace instrumentation diffs around
    /// every `reconcile`. Much cheaper than [`LocRib::stats`], which also
    /// assembles the attribute-store figures.
    pub fn decide_counters(&self) -> (u64, u64) {
        let s = self.stats.borrow();
        (s.decide_calls, s.decide_cache_hits)
    }

    /// Snapshot of the work counters (attr-store figures filled in here).
    pub fn stats(&self) -> RibStats {
        let mut s = *self.stats.borrow();
        s.attr_interns = self.interns.get();
        s.attr_reuses = self.reuses.get();
        // A shared pool's size is reported once by its owner, not by every
        // sharer (merged stats would multiply-count it).
        s.attr_store_size = if self.pool_shared {
            0
        } else {
            self.pool.len() as u64
        };
        s
    }

    /// Runs the decision process for `prefix`, memoized on its candidate
    /// set until an edit changes that set.
    pub fn decide(&self, prefix: Ipv4Prefix) -> Option<Arc<Decision>> {
        match self.prefixes.get(prefix) {
            Some(id) => self.decide_id(id),
            None => {
                // Never-interned prefixes cannot have candidates; answer
                // without touching (or growing) the arenas. Counted as a
                // cache hit: the read is O(1) and runs no ranking.
                let mut stats = self.stats.borrow_mut();
                stats.decide_calls += 1;
                stats.decide_cache_hits += 1;
                None
            }
        }
    }

    /// [`LocRib::decide`] by prefix id — the speaker's hot path (no hash
    /// probe at all).
    pub fn decide_id(&self, id: PrefixId) -> Option<Arc<Decision>> {
        let mut stats = self.stats.borrow_mut();
        stats.decide_calls += 1;
        // Ids beyond `set_of` (a shared-table id this RIB never interned)
        // are in the empty set, like withdrawn prefixes.
        let s = self.set_of.get(id.index()).copied().unwrap_or(EMPTY_SET);
        if s == EMPTY_SET {
            stats.decide_cache_hits += 1;
            return None;
        }
        let set = &self.sets[s as usize];
        if let Some(d) = set.memo.get() {
            stats.decide_cache_hits += 1;
            return Some(Arc::clone(d));
        }
        stats.decide_recomputes += 1;
        stats.candidate_touches += set.cands.len() as u64;
        drop(stats);
        Some(Arc::clone(
            set.memo.get_or_init(|| self.compute(&set.cands)),
        ))
    }

    /// The uncached decision process: rank a non-empty candidate set.
    fn compute(&self, cands: &[CandEntry]) -> Arc<Decision> {
        let store = self.pool.read();
        // Iteration order is (local, peer-address) — the naive gathering
        // order — and `min_by` keeps the earliest of rank-equal candidates,
        // so step 7 (lowest peer address) falls out for free.
        let best = cands
            .iter()
            .min_by(|a, b| rank(&store, a, b))
            .expect("non-empty");
        let members: Vec<&CandEntry> = if self.multipath {
            cands
                .iter()
                .filter(|c| rank(&store, c, best) == std::cmp::Ordering::Equal)
                .collect()
        } else {
            vec![best]
        };
        let route = |cand: &CandEntry| RouteInfo {
            attrs: Arc::clone(store.attrs(cand.attr)),
            attr_id: cand.attr,
            peer: Ipv4Addr::from(cand.addr_key),
            ebgp: cand.ebgp,
        };
        let mut next_hops: Vec<Ipv4Addr> = members
            .iter()
            .map(|c| store.attrs(c.attr).next_hop)
            .collect();
        next_hops.sort();
        next_hops.dedup();
        let next_hop_set = {
            let mut hop_sets = self.hop_sets.borrow_mut();
            match hop_sets.get(next_hops.as_slice()) {
                Some(&i) => i,
                None => {
                    let i = hop_sets.len() as u32 + 1;
                    hop_sets.insert(next_hops.clone(), i);
                    i
                }
            }
        };
        Arc::new(Decision {
            best: route(best),
            multipath: members.into_iter().map(route).collect(),
            next_hops,
            next_hop_set,
        })
    }

    /// The effective next-hop set for a prefix after the decision process:
    /// the deduplicated next hops of the multipath set. Empty when the
    /// prefix is unreachable; `None` inner addresses never appear. Locally
    /// originated prefixes return their own next hop.
    pub fn next_hops(&self, prefix: Ipv4Prefix) -> Vec<Ipv4Addr> {
        self.decide(prefix)
            .map(|d| d.next_hops.clone())
            .unwrap_or_default()
    }
}

/// Total ordering used by the decision process; `Less` is better. Steps
/// 1–6 define multipath equality; step 7 (peer address) only breaks the
/// final tie for the single best path and is excluded from `rank` — the
/// caller treats `Equal` as "same up to multipath" and `min_by` keeps the
/// earliest candidate (set order is local, then peer address).
fn rank(store: &AttrStore, a: &CandEntry, b: &CandEntry) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let am = store.meta(a.attr);
    let bm = store.meta(b.attr);
    // 1. Higher local-pref wins.
    let o = bm.local_pref.cmp(&am.local_pref);
    if o != Ordering::Equal {
        return o;
    }
    // 2. Local origination wins (`!remote` is "is local").
    let o = a.remote.cmp(&b.remote);
    if o != Ordering::Equal {
        return o;
    }
    // 3. Shorter AS path wins.
    let o = am.path_len.cmp(&bm.path_len);
    if o != Ordering::Equal {
        return o;
    }
    // 4. Lower origin wins.
    let o = am.origin_rank.cmp(&bm.origin_rank);
    if o != Ordering::Equal {
        return o;
    }
    // 5. Lower MED wins, only between the same neighbor AS.
    if am.neighbor_as.is_some() && am.neighbor_as == bm.neighbor_as {
        let o = am.med.cmp(&bm.med);
        if o != Ordering::Equal {
            return o;
        }
    }
    // 6. eBGP beats iBGP.
    b.ebgp.cmp(&a.ebgp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AsPathSegment;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &[u16], next_hop: [u8; 4]) -> PathAttributes {
        PathAttributes {
            origin: Origin::Igp,
            as_path: vec![AsPathSegment::Sequence(path.to_vec())],
            next_hop: Ipv4Addr::from(next_hop),
            med: None,
            local_pref: None,
            communities: vec![],
            unknown: vec![],
        }
    }

    fn announce(rib: &mut LocRib, peer: [u8; 4], path: &[u16], prefix: &str) {
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(path, peer))),
            nlri: vec![pfx(prefix)],
        };
        rib.update_from_peer(Ipv4Addr::from(peer), true, &u);
    }

    #[test]
    fn shortest_as_path_wins() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2, 3], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[4, 5], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn equal_length_paths_form_multipath() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 3], &[5, 6, 7], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.multipath.len(), 2, "two 2-hop paths tie");
        let hops = rib.next_hops(pfx("10.9.0.0/16"));
        assert_eq!(
            hops,
            vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)]
        );
    }

    #[test]
    fn multipath_disabled_gives_singleton() {
        let mut rib = LocRib::new(65000, false);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.multipath.len(), 1);
        assert_eq!(rib.next_hops(pfx("10.9.0.0/16")).len(), 1);
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let mut rib = LocRib::new(65000, true);
        let mut long = attrs(&[1, 2, 3, 4], [10, 0, 0, 1]);
        long.local_pref = Some(200);
        rib.update_from_peer(
            Ipv4Addr::new(10, 0, 0, 1),
            true,
            &UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(long)),
                nlri: vec![pfx("10.9.0.0/16")],
            },
        );
        announce(&mut rib, [10, 0, 0, 2], &[9], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn local_origination_beats_learned() {
        let mut rib = LocRib::new(65000, true);
        rib.originate(pfx("10.9.0.0/16"), Ipv4Addr::new(10, 0, 0, 99));
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert!(d.best.is_local());
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn origin_rank_breaks_ties() {
        let mut rib = LocRib::new(65000, true);
        let mut egp = attrs(&[1], [10, 0, 0, 1]);
        egp.origin = Origin::Egp;
        rib.update_from_peer(
            Ipv4Addr::new(10, 0, 0, 1),
            true,
            &UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(egp)),
                nlri: vec![pfx("10.9.0.0/16")],
            },
        );
        announce(&mut rib, [10, 0, 0, 2], &[2], "10.9.0.0/16");
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 2), "IGP beats EGP");
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn med_compared_within_same_neighbor_as() {
        let mut rib = LocRib::new(65000, true);
        let mut m10 = attrs(&[7], [10, 0, 0, 1]);
        m10.med = Some(10);
        let mut m5 = attrs(&[7], [10, 0, 0, 2]);
        m5.med = Some(5);
        for (peer, a) in [([10, 0, 0, 1], m10), ([10, 0, 0, 2], m5)] {
            rib.update_from_peer(
                Ipv4Addr::from(peer),
                true,
                &UpdateMsg {
                    withdrawn: vec![],
                    attrs: Some(Arc::new(a)),
                    nlri: vec![pfx("10.9.0.0/16")],
                },
            );
        }
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.best.peer, Ipv4Addr::new(10, 0, 0, 2), "lower MED");
        assert_eq!(d.multipath.len(), 1);
    }

    #[test]
    fn med_ignored_across_different_neighbor_as() {
        let mut rib = LocRib::new(65000, true);
        let mut m10 = attrs(&[7], [10, 0, 0, 1]);
        m10.med = Some(10);
        let mut m5 = attrs(&[8], [10, 0, 0, 2]);
        m5.med = Some(5);
        for (peer, a) in [([10, 0, 0, 1], m10), ([10, 0, 0, 2], m5)] {
            rib.update_from_peer(
                Ipv4Addr::from(peer),
                true,
                &UpdateMsg {
                    withdrawn: vec![],
                    attrs: Some(Arc::new(a)),
                    nlri: vec![pfx("10.9.0.0/16")],
                },
            );
        }
        let d = rib.decide(pfx("10.9.0.0/16")).unwrap();
        assert_eq!(d.multipath.len(), 2, "MED not comparable → still tie");
    }

    #[test]
    fn loop_prevention_rejects_own_as() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 65000, 2], "10.9.0.0/16");
        assert!(rib.decide(pfx("10.9.0.0/16")).is_none());
    }

    #[test]
    fn looped_announcement_withdraws_previous() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        assert!(rib.decide(pfx("10.9.0.0/16")).is_some());
        let affected = {
            let u = UpdateMsg {
                withdrawn: vec![],
                attrs: Some(Arc::new(attrs(&[1, 65000], [10, 0, 0, 1]))),
                nlri: vec![pfx("10.9.0.0/16")],
            };
            rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u)
        };
        let values: Vec<Ipv4Prefix> = affected.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(values, vec![pfx("10.9.0.0/16")]);
        assert!(rib.decide(pfx("10.9.0.0/16")).is_none());
    }

    #[test]
    fn withdraw_removes_path() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.9.0.0/16")],
            attrs: None,
            nlri: vec![],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert_eq!(affected.len(), 1);
        assert!(rib.decide(pfx("10.9.0.0/16")).is_none());
        assert!(rib.next_hops(pfx("10.9.0.0/16")).is_empty());
    }

    #[test]
    fn withdraw_of_unknown_prefix_does_not_intern() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let u = UpdateMsg {
            withdrawn: vec![pfx("10.77.0.0/16")],
            attrs: None,
            nlri: vec![],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert!(affected.is_empty());
        assert_eq!(
            rib.interner_sizes().0,
            1,
            "only the announced prefix is in the table"
        );
        assert!(rib.prefix_id(pfx("10.77.0.0/16")).is_none());
    }

    #[test]
    fn redundant_update_reports_no_change() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(&[1], [10, 0, 0, 1]))),
            nlri: vec![pfx("10.9.0.0/16")],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert!(affected.is_empty(), "identical re-announcement is a no-op");
    }

    #[test]
    fn drop_peer_flushes_its_routes() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.1.0.0/16");
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.2.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[2], "10.1.0.0/16");
        let affected = rib.drop_peer(Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(affected.len(), 2);
        // 10.1/16 still reachable via the other peer.
        assert_eq!(rib.next_hops(pfx("10.1.0.0/16")).len(), 1);
        assert!(rib.next_hops(pfx("10.2.0.0/16")).is_empty());
        assert_eq!(rib.adj_in_len(Ipv4Addr::new(10, 0, 0, 1)), 0);
        assert_eq!(rib.adj_in_len(Ipv4Addr::new(10, 0, 0, 2)), 1);
    }

    #[test]
    fn affected_sets_are_value_sorted_not_id_sorted() {
        let mut rib = LocRib::new(65000, true);
        // Intern in descending value order so id order ≠ value order.
        let shared = Arc::new(attrs(&[1], [10, 0, 0, 1]));
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::clone(&shared)),
            nlri: vec![pfx("10.3.0.0/16"), pfx("10.1.0.0/16"), pfx("10.2.0.0/16")],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        let values: Vec<Ipv4Prefix> = affected.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(
            values,
            vec![pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")],
            "affected ids sort by prefix value"
        );
        let live = rib.live_prefix_ids();
        let live_vals: Vec<Ipv4Prefix> = live.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(live_vals, values, "live index is value-ordered too");
        let dropped = rib.drop_peer(Ipv4Addr::new(10, 0, 0, 1));
        let drop_vals: Vec<Ipv4Prefix> = dropped.iter().map(|&i| rib.prefix_value(i)).collect();
        assert_eq!(drop_vals, values);
    }

    #[test]
    fn prefixes_lists_union() {
        let mut rib = LocRib::new(65000, true);
        rib.originate(pfx("10.0.0.0/24"), Ipv4Addr::new(10, 0, 0, 1));
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.1.0.0/16");
        let ps = rib.prefixes();
        assert!(ps.contains(&pfx("10.0.0.0/24")));
        assert!(ps.contains(&pfx("10.1.0.0/16")));
        assert_eq!(ps.len(), 2);
        assert_eq!(rib.prefix_count(), 2);
    }

    #[test]
    fn identical_attr_sets_share_one_interned_entry() {
        let mut rib = LocRib::new(65000, true);
        // Same attrs announced for many prefixes by one peer, and the same
        // logical attrs (fresh allocation) by another.
        let shared = Arc::new(attrs(&[1, 2], [10, 0, 0, 1]));
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::clone(&shared)),
            nlri: vec![pfx("10.1.0.0/16"), pfx("10.2.0.0/16"), pfx("10.3.0.0/16")],
        };
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        let u2 = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(&[1, 2], [10, 0, 0, 1]))),
            nlri: vec![pfx("10.4.0.0/16")],
        };
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 2), true, &u2);
        let s = rib.stats();
        assert_eq!(s.attr_store_size, 1, "one distinct attribute set");
        assert_eq!(s.attr_interns, 1);
        assert_eq!(s.attr_reuses, 1, "second UPDATE reused the entry");
        let d1 = rib.decide(pfx("10.1.0.0/16")).unwrap();
        let d4 = rib.decide(pfx("10.4.0.0/16")).unwrap();
        assert!(
            Arc::ptr_eq(&d1.best.attrs, &d4.best.attrs),
            "decisions share the canonical allocation"
        );
        assert_eq!(d1.best.attr_id, d4.best.attr_id);
    }

    #[test]
    fn shared_pool_interns_once_across_ribs() {
        let pool = AttrPool::new();
        let mut r1 = LocRib::new_shared(65001, true, pool.clone());
        let mut r2 = LocRib::new_shared(65002, true, pool.clone());
        // Same peer address (hence same next-hop and identical attrs) seen
        // by both RIBs, as a route reflected through a shared neighbor is.
        announce(&mut r1, [10, 0, 0, 1], &[7, 8], "10.1.0.0/16");
        announce(&mut r2, [10, 0, 0, 1], &[7, 8], "10.2.0.0/16");
        assert_eq!(pool.len(), 1, "one fleet-wide entry for identical attrs");
        let s1 = r1.stats();
        let s2 = r2.stats();
        assert_eq!(s1.attr_interns, 1, "r1 created it");
        assert_eq!(s2.attr_interns, 0);
        assert_eq!(s2.attr_reuses, 1, "r2's intern was a fleet-wide reuse");
        assert_eq!(
            s1.attr_store_size + s2.attr_store_size,
            0,
            "sharers report 0 size; the pool owner reports it once"
        );
        // Decisions in both RIBs share the one canonical allocation.
        let d1 = r1.decide(pfx("10.1.0.0/16")).unwrap();
        let d2 = r2.decide(pfx("10.2.0.0/16")).unwrap();
        assert!(Arc::ptr_eq(&d1.best.attrs, &d2.best.attrs));
        assert!(r1.attr_pool().same_as(r2.attr_pool()));
        assert!(pool.bytes_estimate() > 0);
    }

    #[test]
    fn decide_is_memoized_until_invalidated() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1, 2], "10.9.0.0/16");
        announce(&mut rib, [10, 0, 0, 2], &[3, 4], "10.9.0.0/16");
        let p = pfx("10.9.0.0/16");
        let d1 = rib.decide(p).unwrap();
        let d2 = rib.decide(p).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2), "second read hits the cache");
        let s = rib.stats();
        assert_eq!(s.decide_calls, 2);
        assert_eq!(s.decide_recomputes, 1);
        assert_eq!(s.decide_cache_hits, 1);
        assert_eq!(s.candidate_touches, 2, "one recompute over two candidates");
        // An edit of the prefix's set invalidates the set's memo (the
        // prefix is the set's only member, so it is edited in place).
        announce(&mut rib, [10, 0, 0, 3], &[9], "10.9.0.0/16");
        let d3 = rib.decide(p).unwrap();
        assert!(!Arc::ptr_eq(&d1, &d3));
        let s = rib.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.decide_recomputes, 2);
        // Never-interned prefixes are answered in O(1) without growing the
        // arenas; both reads count as cache hits (no ranking runs).
        let other = pfx("10.250.0.0/16");
        assert!(rib.decide(other).is_none());
        assert!(rib.decide(other).is_none());
        let s = rib.stats();
        assert_eq!(s.decide_cache_hits, 3);
        assert_eq!(s.decide_recomputes, 2, "no recompute for unknown prefixes");
        // A withdrawn (known, empty) prefix lands in the empty set, whose
        // answer is always "unreachable": no read of it ranks anything.
        let u = UpdateMsg {
            withdrawn: vec![p],
            attrs: None,
            nlri: vec![],
        };
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 2), true, &u);
        rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 3), true, &u);
        assert!(rib.decide(p).is_none(), "the empty set answers at once");
        assert!(rib.decide(p).is_none(), "and again");
        let s = rib.stats();
        assert_eq!(s.decide_recomputes, 2);
        assert_eq!(s.decide_cache_hits, 5);
        assert_eq!(rib.candidate_sets(), 0);
    }

    #[test]
    fn redundant_update_keeps_memo() {
        let mut rib = LocRib::new(65000, true);
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let p = pfx("10.9.0.0/16");
        let d1 = rib.decide(p).unwrap();
        announce(&mut rib, [10, 0, 0, 1], &[1], "10.9.0.0/16");
        let d2 = rib.decide(p).unwrap();
        assert!(
            Arc::ptr_eq(&d1, &d2),
            "identical re-announcement must not invalidate"
        );
        assert_eq!(rib.stats().invalidations, 0);
        assert_eq!(rib.stats().decide_recomputes, 1);
        assert_eq!(rib.candidate_sets(), 1);
    }

    /// `n` distinct /24s under 10.0.0.0/8.
    fn many(n: usize) -> Vec<Ipv4Prefix> {
        (0..n)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24))
            .collect()
    }

    fn announce_all(rib: &mut LocRib, peer: [u8; 4], nlri: &[Ipv4Prefix]) -> Vec<PrefixId> {
        let u = UpdateMsg {
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs(&[1], peer))),
            nlri: nlri.to_vec(),
        };
        rib.update_from_peer(Ipv4Addr::from(peer), true, &u)
    }

    #[test]
    fn one_update_shares_one_set_and_one_decision() {
        let mut rib = LocRib::new(65000, true);
        let nlri = many(1000);
        let ids = announce_all(&mut rib, [10, 0, 0, 1], &nlri);
        assert_eq!(ids.len(), 1000);
        assert_eq!(rib.candidate_sets(), 1, "every NLRI moved to one set");
        let first = rib.decide_id(ids[0]).unwrap();
        for &id in &ids {
            assert!(Arc::ptr_eq(&rib.decide_id(id).unwrap(), &first));
        }
        let s = rib.stats();
        assert_eq!(s.decide_calls, 1001);
        assert_eq!(s.decide_recomputes, 1, "one ranking for 1000 prefixes");
        assert_eq!(s.candidate_touches, 1);
    }

    #[test]
    fn withdrawing_half_splits_the_set_and_keeps_the_rest_shared() {
        let mut rib = LocRib::new(65000, true);
        let nlri = many(1000);
        let ids = announce_all(&mut rib, [10, 0, 0, 1], &nlri);
        // A second peer shares every prefix, so withdrawing half of the
        // first peer's leaves those prefixes reachable, in a new set.
        announce_all(&mut rib, [10, 0, 0, 2], &nlri);
        assert_eq!(rib.candidate_sets(), 1);
        let before = rib.decide_id(ids[0]).unwrap();
        let (gone, kept) = nlri.split_at(500);
        let u = UpdateMsg {
            withdrawn: gone.to_vec(),
            attrs: None,
            nlri: vec![],
        };
        let affected = rib.update_from_peer(Ipv4Addr::new(10, 0, 0, 1), true, &u);
        assert_eq!(affected.len(), 500);
        assert_eq!(rib.candidate_sets(), 2, "the withdrawn half moved together");
        for p in kept {
            let d = rib.decide(*p).unwrap();
            assert!(Arc::ptr_eq(&d, &before), "untouched half keeps its memo");
        }
        let moved = rib.decide(gone[0]).unwrap();
        assert_eq!(moved.best.peer, Ipv4Addr::new(10, 0, 0, 2));
        for p in gone {
            assert!(Arc::ptr_eq(&rib.decide(*p).unwrap(), &moved));
        }
        assert_eq!(rib.stats().invalidations, 0, "no shared memo was dropped");
    }

    #[test]
    fn drop_peer_and_reannounce_recycle_sets() {
        let mut rib = LocRib::new(65000, true);
        let nlri = many(1000);
        announce_all(&mut rib, [10, 0, 0, 2], &nlri[..10]);
        announce_all(&mut rib, [10, 0, 0, 1], &nlri);
        let arena = rib.sets.len();
        for _ in 0..50 {
            let dropped = rib.drop_peer(Ipv4Addr::new(10, 0, 0, 1));
            assert_eq!(dropped.len(), 1000);
            assert_eq!(rib.prefix_count(), 10);
            assert_eq!(rib.candidate_sets(), 1);
            announce_all(&mut rib, [10, 0, 0, 1], &nlri);
            assert_eq!(rib.prefix_count(), 1000);
            assert_eq!(rib.candidate_sets(), 2);
            assert_eq!(rib.sets.len(), arena, "dead sets are reused");
        }
    }
}
