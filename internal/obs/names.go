package obs

// Canonical metric names. Dots separate a subsystem prefix from the
// measure; the same taxonomy names spans (documented in DESIGN.md).
// Instrumented packages use these constants so the shell, snapshot
// consumers, and tests agree on spelling.
const (
	// Dataflow evaluation (internal/dataflow).
	EvalDemands     = "eval.demands"     // top-level Evaluator.Eval requests
	EvalFires       = "eval.fires"       // box firings actually executed
	EvalCacheHits   = "eval.cache_hits"  // demands answered from the memo table
	EvalCacheMiss   = "eval.cache_miss"  // demands requiring a firing
	EvalFireNS      = "eval.fire_ns"     // histogram: per-box firing latency
	EvalDemandNS    = "eval.demand_ns"   // histogram: top-level demand latency
	EvalErrors      = "eval.errors"      // failed firings (error log kept)
	EvalCoalesced   = "eval.coalesced"   // demands answered by joining an in-flight firing
	EvalWaves       = "eval.waves"       // wavefront levels executed
	EvalCancels     = "eval.cancels"     // requests abandoned via context cancellation
	EvalInvalidated = "eval.invalidated" // memo entries dropped by invalidation sweeps

	// Incremental (delta) evaluation (internal/dataflow, see DESIGN.md
	// §14). Deltas patch memoized outputs in place of full refires.
	EvalDeltaEnqueued  = "eval.delta_enqueued"  // table deltas queued for incremental application
	EvalDeltaApplied   = "eval.delta_applied"   // box outputs maintained incrementally (refires avoided)
	EvalDeltaFallbacks = "eval.delta_fallbacks" // delta applications abandoned to full refiring
	EvalDeltaOps       = "eval.delta_ops"       // tuple-level ops propagated through maintained boxes

	// Viewer rendering (internal/viewer).
	RenderFrames          = "render.frames"
	RenderTuplesSeen      = "render.tuples_seen"
	RenderTuplesCulled    = "render.tuples_culled"   // rejected before display evaluation
	RenderDisplaysEvaled  = "render.displays_evaled" // display functions evaluated
	RenderDrawablesDrawn  = "render.drawables_drawn"
	RenderDrawablesCulled = "render.drawables_culled" // bounds missed the viewport
	RenderDisplayErrors   = "render.display_errors"   // failed display functions (error log kept)
	RenderWormholes       = "render.wormholes"        // wormhole interiors rendered
	RenderWormholeCached  = "render.wormhole_cache_hits"
	RenderFrameNS         = "render.frame_ns"        // histogram: full-frame latency
	RenderDisplayEvalNS   = "render.display_eval_ns" // histogram: pass-2 batch latency
	RenderSlowFrames      = "render.slow_frames"     // frames over the viewer's FrameBudget

	// Cross-frame render caches (internal/viewer, see DESIGN.md "Render
	// caching & invalidation"). All are keyed on generation stamps.
	RenderSpatialBuilds    = "render.spatial_builds"    // grid indexes built
	RenderSpatialQueries   = "render.spatial_queries"   // pass-1 culls answered from a grid
	RenderSpatialEvictions = "render.spatial_evictions" // grids dropped by LRU
	RenderSpatialBuildNS   = "render.spatial_build_ns"  // histogram: index build latency
	RenderMemoHits         = "render.memo_hits"         // display lists served from the memo
	RenderMemoMisses       = "render.memo_misses"       // display functions actually evaluated
	RenderMemoEvictions    = "render.memo_evictions"    // memo entries dropped by LRU
	RenderWormholeStale    = "render.wormhole_stale"    // cached interiors retired by a generation change

	// Database (internal/db).
	DBTableGets       = "db.table_gets"
	DBUpdates         = "db.updates"
	DBAppends         = "db.appends"
	DBUndos           = "db.undos"
	DBSaves           = "db.saves"
	DBLoads           = "db.loads"
	DBSnapshots       = "db.snapshots"        // immutable catalog views taken
	DBEvents          = "db.events"           // committed-change events published
	DBEventsCoalesced = "db.events_coalesced" // events dropped by backlog coalescing

	// Relational engine (internal/rel).
	RelRestrictScans   = "rel.restrict.scans"
	RelRestrictRowsIn  = "rel.restrict.rows_in"
	RelRestrictRowsOut = "rel.restrict.rows_out"
	RelJoinHash        = "rel.join.hash"
	RelJoinNestedLoop  = "rel.join.nested_loop"
	RelJoinRowsOut     = "rel.join.rows_out"
	RelSorts           = "rel.sorts"
	RelSamples         = "rel.samples"

	// Query-execution fast path (internal/rel, internal/expr via rel;
	// see DESIGN.md §11).
	RelScanChunks = "rel.scan_chunks" // parallel scan chunks dispatched

	// Columnar chunk storage (internal/rel; see DESIGN.md §16).
	RelChunkLoads     = "rel.chunk_loads"          // chunks faulted in through the bounded cache
	RelChunkEvictions = "rel.chunk_evictions"      // chunks evicted under memory pressure
	RelResidentBytes  = "rel.resident_bytes"       // net cache-managed chunk bytes resident (Add +/-)
	RelQuotaWarnings  = "rel.quota_warnings"       // quota-pressure crossings (fired once per crossing)
	RelKernelScans    = "rel.kernel_scans"         // scans (restrict/project pipelines, join pair filters) run as columnar kernels
	RelKernelFallback = "rel.kernel_fallback_rows" // rows diverted to the interpreter mid-kernel

	// Session / environment (internal/core).
	CoreUpdates      = "core.updates"
	CoreSessionSaves = "core.session_saves"
	CoreSessionLoads = "core.session_loads"

	// Visualization server (internal/server).
	ServerClients    = "server.clients"     // websocket clients attached (total)
	ServerDetaches   = "server.detaches"    // clients disconnected
	ServerFrames     = "server.frames"      // frames pushed to clients
	ServerFrameBytes = "server.frame_bytes" // encoded PNG bytes shipped
	ServerOps        = "server.ops"         // client viewer operations applied
	ServerBroadcasts = "server.broadcasts"  // generation-bump fan-outs to sessions
	ServerFrameNS    = "server.frame_ns"    // histogram: latency per pushed frame, render only; PNG encode excluded
)

// Canonical span names, same taxonomy as the metrics above. Call sites
// must use these constants rather than string literals — the obsnames
// analyzer (internal/analyzers, run by cmd/tioga-lint) enforces it, so
// the registry stays the single spelling authority for everything the
// trace viewer and tests key on.
const (
	// Dataflow evaluation (internal/dataflow).
	SpanEvalDemand     = "eval.demand"      // one top-level Eval request
	SpanEvalWave       = "eval.wave"        // one wavefront level of a request
	SpanEvalWorker     = "eval.worker"      // one worker goroutine of a level
	SpanEvalFire       = "eval.fire"        // one box firing
	SpanEvalInvalidate = "eval.invalidate"  // one invalidation sweep (memo drops + fan-out)
	SpanEvalDeltaApply = "eval.delta_apply" // one incremental pass patching memos before a demand

	// Viewer rendering (internal/viewer).
	SpanRenderFrame             = "render.frame"
	SpanRenderCull              = "render.cull"
	SpanRenderDisplayEval       = "render.display_eval"
	SpanRenderDisplayEvalWorker = "render.display_eval.worker"
	SpanRenderPaint             = "render.paint"
	SpanRenderWormhole          = "render.wormhole"
	SpanRenderSpatialBuild      = "render.spatial_build"

	// Database (internal/db).
	SpanDBSave = "db.save"
	SpanDBLoad = "db.load"

	// Session / environment (internal/core).
	SpanCoreUpdate      = "core.update"
	SpanCoreSessionSave = "core.session_save"
	SpanCoreSessionLoad = "core.session_load"

	// Visualization server (internal/server).
	SpanServerFrame = "server.frame" // one frame rendered+pushed for one client
	SpanServerOp    = "server.op"    // one client operation applied
	SpanServerApply = "server.apply" // one batch of db events applied to a session
)
