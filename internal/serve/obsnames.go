package serve

import "tsg/internal/obs"

// Pre-interned span names, tiers and annotation keys for the serving
// layer's per-request spans (the serve.<endpoint> roots are the
// obs.Edge's). Interning once at init keeps the request hot
// path free of intern-table lookups.
var (
	nameAdmissionWait = obs.N("admission.wait")
	nameCacheLookup   = obs.N("cache.lookup")
	nameCacheCompile  = obs.N("cache.compile")
	nameWALAppend     = obs.N("wal.append")

	tierShed = obs.N("shed")
	tierHit  = obs.N("hit")
	tierMiss = obs.N("miss")

	keyBytes = obs.N("bytes")
	keyEdits = obs.N("edits")
)
