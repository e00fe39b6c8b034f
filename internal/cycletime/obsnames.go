package cycletime

import "tsg/internal/obs"

// Pre-interned span names, answer tiers and annotation keys. The
// engine's query paths run once per served request, so they move
// obs.Name integers instead of paying an intern-table lookup (or a
// string concatenation) per span — part of keeping instrumentation
// within the OBS experiment's 3% overhead budget.
var (
	spanCompile   = obs.N("engine.compile")
	spanAnswer    = obs.N("engine.answer")
	spanSweep     = obs.N("engine.sweep")
	spanPass1     = obs.N("engine.pass1")
	spanPass2     = obs.N("engine.pass2")
	spanPatch     = obs.N("engine.patch")
	spanSlackcert = obs.N("engine.slackcert")
	spanRows      = obs.N("engine.rows")
	spanMC        = obs.N("engine.mc")

	tierCached     = obs.N("cached")
	tierFull       = obs.N("full")
	tierIncr       = obs.N("incremental")
	tierLambdaOnly = obs.N("lambda-only")
	tierFastPath   = obs.N("fast-path")
	tierCachedRow  = obs.N("cached-row")
	tierSlab       = obs.N("slab")
	tierWindow     = obs.N("window")
	tierFlooded    = obs.N("flooded")
	tierConverged  = obs.N("converged")

	keyEvents    = obs.N("events")
	keyArcs      = obs.N("arcs")
	keyCands     = obs.N("cands")
	keyWinners   = obs.N("winners")
	keySimulated = obs.N("simulated")
	keyDirty     = obs.N("dirty")
	keyCone      = obs.N("cone")
	keyCut       = obs.N("cut")
	keyPeriods   = obs.N("periods")
	keyHeads     = obs.N("heads")
	keyRounds    = obs.N("rounds")
	keySamples   = obs.N("samples")
)
