package store

import "sync/atomic"

// TierStats is the unified two-tier counter row every cached layer
// reports: the in-memory LRU in front, the shared disk store behind it.
// The memory fields count memory-tier outcomes only — a lookup the LRU did
// not answer is a MemMiss, whatever served it afterwards.
type TierStats struct {
	Cache      string `json:"cache"`
	MemHits    uint64 `json:"mem_hits"`
	MemMisses  uint64 `json:"mem_misses"`
	DiskHits   uint64 `json:"disk_hits"`
	DiskMisses uint64 `json:"disk_misses"`
	DiskWrites uint64 `json:"disk_writes"`
	// DiskWriteErrors counts this cache's puts whose background append
	// failed in the store — entries the next cold process will have to
	// recompute even though this one paid for them.
	DiskWriteErrors uint64 `json:"disk_write_errors,omitempty"`
	// DiskHitsDecoded and DiskHitsVerified split DiskHits by restore
	// path for caches that distinguish them (the snapshot cache): decoded
	// restores adopt a checksummed binary artifact, deep-verified
	// restores additionally re-derive the artifact from source and
	// compare. Zero for caches without the split.
	DiskHitsDecoded  uint64 `json:"disk_hits_decoded,omitempty"`
	DiskHitsVerified uint64 `json:"disk_hits_verified,omitempty"`
}

// Tier is the optional disk tier behind one in-memory cache: the store
// handle (detached until SetStore), the namespaces the cache writes, and
// its disk hit/miss/write counters. The snapshot, solver, and fingerprint
// caches each embed one, which gives them SetStore and TierStats. All
// methods are safe for concurrent use.
type Tier struct {
	name       string
	namespaces []string
	mem        func(*TierStats)
	st         atomic.Pointer[Store]

	hits, misses, writes atomic.Uint64
}

// NewTier returns a detached tier for the cache called name, writing under
// namespaces. mem fills the cache's memory-tier fields into its row; it is
// nil for a cache with no memory tier of its own.
func NewTier(name string, mem func(*TierStats), namespaces ...string) *Tier {
	return &Tier{name: name, namespaces: namespaces, mem: mem}
}

// SetStore attaches (nil: detaches) the on-disk store.
func (t *Tier) SetStore(st *Store) { t.st.Store(st) }

// Get looks up (ns, key) and hands the record to restore, which decodes,
// verifies, and adopts it. An accepted record is a disk hit; an absent or
// refused one is a disk miss. Without a store Get returns false and counts
// nothing.
func (t *Tier) Get(ns, key string, restore func([]byte) bool) bool {
	st := t.st.Load()
	if st == nil {
		return false
	}
	if raw, ok := st.Get(ns, key); ok && restore(raw) {
		t.hits.Add(1)
		return true
	}
	t.misses.Add(1)
	return false
}

// Attached reports whether a store is attached, so callers can skip
// encoding records (or deriving store keys) that nothing would read.
func (t *Tier) Attached() bool { return t.st.Load() != nil }

// Put writes val under (ns, key), write-behind, and counts a disk write.
// Without a store it does nothing.
func (t *Tier) Put(ns, key string, val []byte) {
	st := t.st.Load()
	if st == nil {
		return
	}
	st.Put(ns, key, val)
	t.writes.Add(1)
}

// TierStats reports the cache's row: its disk counters, the store's
// failed appends in its namespaces, and the memory-tier fields.
func (t *Tier) TierStats() TierStats {
	ts := TierStats{
		Cache:      t.name,
		DiskHits:   t.hits.Load(),
		DiskMisses: t.misses.Load(),
		DiskWrites: t.writes.Load(),
	}
	if st := t.st.Load(); st != nil {
		ts.DiskWriteErrors = st.NamespaceWriteErrors(t.namespaces...)
	}
	if t.mem != nil {
		t.mem(&ts)
	}
	return ts
}
