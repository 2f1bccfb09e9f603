// Package serve implements jpackd, the streaming pack/unpack HTTP
// service: POST /pack compresses an uploaded jar into the Pugh wire
// format, POST /unpack rebuilds a jar from a packed archive (with
// ?salvage=1 recovering what it can from damaged input as a JSON
// damage report plus partial jar), POST
// /verify structurally checks a jar's classes, and GET /archive/{digest}
// re-serves previously packed artifacts from a content-addressed cache
// (internal/castore) — whole, as a ?classes= subset jar, or one class at
// a time via /archive/{digest}/class/{name}, decoding only the chunks a
// version-3 archive needs. GET /delta/{from}/{to} computes a CJPD patch
// between any two cached archives so clients holding the old version
// download only the changed classes.
// Concurrent encode jobs are bounded by deadline-aware admission
// control — a bounded queue with 429 + Retry-After load shedding and a
// memory-budget gate over admitted request bytes — feeding the
// classpack worker-pool pipeline; concurrent identical /pack requests
// are coalesced onto one encode (singleflight by content digest); a
// failing cache volume flips the server into degraded mode (serve and
// encode without caching, auto-probed for recovery) instead of failing
// requests; request bodies are size-capped, every request carries a
// deadline, errors are structured JSON, and GET /metrics exports expvar
// counters including an encode-latency histogram. GET /healthz reports
// {"status":"ok"} or {"status":"degraded"}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"classpack"
	"classpack/internal/archive"
	"classpack/internal/castore"
	"classpack/internal/core"
	"classpack/internal/par"
)

// Default operational limits; see Config.
const (
	DefaultMaxRequestBytes = 64 << 20
	DefaultRequestTimeout  = 2 * time.Minute
	DefaultDrainTimeout    = 30 * time.Second
	// DefaultQueueFactor scales MaxJobs into the default queue bound:
	// up to 4 requests may wait per job slot before shedding begins.
	DefaultQueueFactor = 4
	// DefaultRetryAfterHint floors the Retry-After value on shed (429)
	// responses when no wait estimate is available yet.
	DefaultRetryAfterHint = time.Second
	// DefaultProbeInterval bounds how often a degraded cache volume is
	// re-probed for recovery.
	DefaultProbeInterval = 5 * time.Second
)

// Header names the server sets on pack/archive responses.
const (
	HeaderDigest  = "X-Jpackd-Digest"  // content digest of the packed artifact's input
	HeaderCache   = "X-Jpackd-Cache"   // "hit" or "miss" on POST /pack
	HeaderSkipped = "X-Jpackd-Skipped" // JSON array of non-class jar members (miss only)
)

// Config parameterizes a Server. The zero value is usable: default
// pack options, no cache, default limits.
type Config struct {
	// Options are the pack options every /pack request encodes with.
	// Concurrency bounds the workers *within* one encode job; MaxJobs
	// bounds how many jobs run at once, so total parallelism is roughly
	// MaxJobs x Concurrency. The packed bytes do not depend on either.
	// The decode-side fields (MaxDecodedBytes, MaxClassCount) bound
	// every /unpack request against decompression bombs, and
	// MaxDecodedBytes also caps how far a /pack or /verify jar's class
	// members may inflate (413 too_large beyond it).
	Options classpack.Options

	// Store, when non-nil, caches pack results by content digest.
	// Repeated packs of identical input are served from it without
	// re-encoding, and GET /archive/{digest} reads from it.
	Store *castore.Store

	// MaxRequestBytes caps request bodies (0 = DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// RequestTimeout bounds each request, including time spent waiting
	// for a job slot (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxJobs bounds concurrent encode/decode/verify jobs
	// (0 = GOMAXPROCS).
	MaxJobs int
	// MaxQueue bounds how many requests may wait for a job slot before
	// admission control sheds new arrivals with 429 + Retry-After
	// (0 = DefaultQueueFactor*MaxJobs; negative = no queueing, shed
	// whenever every slot is busy).
	MaxQueue int
	// MemoryBudget caps the total request-body bytes admitted to job
	// slots at once; requests beyond it are shed with 429 (0 =
	// unlimited). A single request larger than the whole budget is
	// still admitted when nothing else is in flight.
	MemoryBudget int64
	// RetryAfterHint floors the Retry-After value on shed responses
	// (0 = DefaultRetryAfterHint). When the queue has history, the
	// estimate from observed job durations is used instead if larger.
	RetryAfterHint time.Duration
	// ProbeInterval bounds how often a degraded cache volume is
	// re-probed for recovery (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// DrainTimeout bounds how long Serve waits for in-flight requests
	// after its context is cancelled (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration

	// EnablePprof exposes the runtime profiler under GET /debug/pprof/
	// (CPU, heap, goroutine, trace). Off by default: the endpoints
	// reveal internals and let any client start a profile, so they are
	// only for operator-trusted deployments. Profiler requests bypass
	// the request deadline (a 30s CPU profile must outlive
	// RequestTimeout).
	EnablePprof bool

	// packStarted, when set, is called after a pack job acquires its
	// slot and before encoding begins. Test-only seam for exercising
	// in-flight shutdown and queue-timeout behavior.
	packStarted func()
}

// Server is the jpackd HTTP service. Create one with New; it is safe
// for concurrent use.
type Server struct {
	cfg     Config
	metrics *Metrics
	adm     *admission
	flight  packFlight
	deg     *degrade
	handler http.Handler
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultQueueFactor * cfg.MaxJobs
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = DefaultRetryAfterHint
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
	}
	s.adm = newAdmission(cfg.MaxJobs, cfg.MaxQueue, cfg.MemoryBudget, cfg.RetryAfterHint, s.metrics)
	s.deg = newDegrade(cfg.Store, cfg.ProbeInterval, s.metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /pack", s.handlePack)
	mux.HandleFunc("POST /unpack", s.handleUnpack)
	mux.HandleFunc("POST /verify", s.handleVerify)
	mux.HandleFunc("GET /archive/{digest}", s.handleArchive)
	mux.HandleFunc("GET /archive/{digest}/class/{name...}", s.handleArchiveClass)
	mux.HandleFunc("GET /delta/{from}/{to}", s.handleDelta)
	mux.Handle("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.handler = s.instrument(mux)
	if cfg.EnablePprof {
		// Profiler endpoints mount on a root mux *outside* instrument:
		// a ?seconds=30 CPU profile must not be cut off by the request
		// deadline, and profile bodies shouldn't count against the
		// request-size cap. They still tick the request counter.
		root := http.NewServeMux()
		root.HandleFunc("GET /debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
			s.metrics.Requests.Add(1)
			pprof.Index(w, r)
		})
		root.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		root.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		root.Handle("/", s.handler)
		s.handler = root
	}
	return s
}

// Metrics exposes the server's counters (e.g. for the smoke check).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the root HTTP handler: request accounting, body size
// cap, and per-request deadline wrapped around the endpoint mux.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// Serve accepts connections on ln until ctx is cancelled (e.g. by
// SIGTERM via signal.NotifyContext), then stops the listener and drains
// in-flight requests for up to DrainTimeout before returning. A request
// mid-encode at cancellation time runs to completion and its response
// is delivered before Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Shed the job queue first: requests that hold a slot run to
		// completion under the drain; requests still waiting for one are
		// woken and answered 503 immediately, so the drain window is
		// spent finishing admitted work, not starting queued work.
		s.adm.startDrain()
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		shutdownErr <- hs.Shutdown(dctx)
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Serve only returns ErrServerClosed once Shutdown has begun, so
	// this receive waits exactly for the drain to finish.
	//classpack:vet-allow ctxflow bounded by DrainTimeout: Shutdown's context expires and its error is sent exactly once
	return <-shutdownErr
}

// apiError is a structured endpoint failure: an HTTP status plus a
// stable machine-readable code. retryAfter, when set, becomes a
// Retry-After header so shed clients know when to come back.
type apiError struct {
	status     int
	code       string
	message    string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.message }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, message: fmt.Sprintf(format, args...)}
}

// writeError emits the structured JSON error envelope every endpoint
// uses: {"error":{"code":...,"message":...}}.
func (s *Server) writeError(w http.ResponseWriter, err *apiError) {
	s.metrics.Errors.Add(1)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err.retryAfter > 0 {
		// Whole seconds, rounded up: Retry-After has no finer grain.
		secs := (err.retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	w.WriteHeader(err.status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": err.code, "message": err.message},
	})
}

// handleHealthz is the liveness probe; it also reports (and, as a probe
// visit, helps recover from) cache-degraded mode.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.deg.maybeProbe()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	status := "ok"
	if s.deg.active() {
		status = "degraded"
	}
	json.NewEncoder(w).Encode(map[string]string{"status": status})
}

// readBody drains the (size-capped) request body, translating the cap
// and client disconnects into structured errors.
func (s *Server) readBody(r *http.Request) ([]byte, *apiError) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return nil, errf(http.StatusBadRequest, "bad_request", "reading request body: %v", err)
	}
	s.metrics.BytesIn.Add(int64(len(data)))
	return data, nil
}

// acquireJob admits one sizeless job through admission control (decode,
// verify, and extraction jobs whose memory cost the body cap already
// bounds). The returned release func must be called exactly once.
func (s *Server) acquireJob(ctx context.Context) (release func(), apiErr *apiError) {
	return s.adm.acquire(ctx, 0)
}

// writePayload sends a binary response body and counts it.
func (s *Server) writePayload(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if _, err := w.Write(data); err == nil {
		s.metrics.BytesOut.Add(int64(len(data)))
	}
}

// cacheKey derives the content digest for a pack input: SHA-256 over
// the pack-option fingerprint and the input bytes, so archives packed
// under different options never alias. Concurrency is excluded — packed
// bytes are identical at every worker count.
func (s *Server) cacheKey(input []byte) string {
	o := s.cfg.Options
	fp := fmt.Sprintf("cjp1 scheme=%d stackstate=%t compress=%t preload=%t chunk=%d",
		o.Scheme, o.StackState, o.Compress, o.Preload, o.ChunkClasses)
	return castore.Key([]byte(fp), input)
}

// cacheGet reads one object from the store, translating read failures
// into a logged, counted miss: the request still succeeds by
// re-encoding, but the failure stays visible.
func (s *Server) cacheGet(digest string) ([]byte, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	packed, ok, err := s.cfg.Store.Get(digest)
	if err != nil {
		s.metrics.CacheErrors.Add(1)
		log.Printf("jpackd: cache read for %s failed: %v", digest, err)
		return nil, false
	}
	return packed, ok
}

// cachePut stores an encode result, best-effort: a full or failing disk
// must not fail the request — the encoded bytes are already in hand.
// The first write failure flips the server into degraded mode, after
// which writes are bypassed (counted, not attempted) until a recovery
// probe finds the volume healthy again.
func (s *Server) cachePut(digest string, packed []byte) {
	if s.cfg.Store == nil {
		return
	}
	if s.deg.active() {
		s.metrics.CacheBypass.Add(1)
		s.deg.maybeProbe()
		return
	}
	if err := s.cfg.Store.Put(digest, packed); err != nil {
		s.metrics.CacheErrors.Add(1)
		log.Printf("jpackd: cache write for %s failed: %v", digest, err)
		s.deg.onPutError(err)
	}
}

// packResponse writes a successful /pack payload with its headers.
// skipped is included only when non-nil (misses and coalesced
// responses; cache hits no longer know it).
func (s *Server) packResponse(w http.ResponseWriter, digest, cache string, packed []byte, skipped []string) {
	w.Header().Set(HeaderDigest, digest)
	w.Header().Set(HeaderCache, cache)
	if skipped != nil {
		skippedJSON, _ := json.Marshal(skipped)
		w.Header().Set(HeaderSkipped, string(skippedJSON))
	}
	s.writePayload(w, packed)
}

func (s *Server) handlePack(w http.ResponseWriter, r *http.Request) {
	s.metrics.PackRequests.Add(1)
	input, apiErr := s.readBody(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	digest := s.cacheKey(input)
	if packed, ok := s.cacheGet(digest); ok {
		s.metrics.CacheHits.Add(1)
		s.packResponse(w, digest, "hit", packed, nil)
		return
	}
	s.metrics.CacheMisses.Add(1)
	// Singleflight: concurrent identical packs coalesce onto the first
	// request's encode. Followers wait on the leader's result without
	// consuming job slots or queue positions.
	call, leader := s.flight.join(digest)
	if !leader {
		select {
		case <-call.done:
			res := call.res
			if res.apiErr != nil {
				s.writeError(w, res.apiErr)
				return
			}
			s.metrics.Coalesced.Add(1)
			s.packResponse(w, digest, "coalesced", res.packed, res.skipped)
		case <-r.Context().Done():
			s.writeError(w, errf(http.StatusServiceUnavailable, "timeout",
				"request deadline expired while awaiting the in-flight encode for this digest"))
		}
		return
	}
	res := s.encodePack(r, input, digest)
	s.flight.finish(digest, call, res)
	if res.apiErr != nil {
		s.writeError(w, res.apiErr)
		return
	}
	s.packResponse(w, digest, res.cache, res.packed, res.skipped)
}

// encodePack runs the leader's half of a /pack: admission, encode,
// cache write. Its packResult is shared verbatim with every coalesced
// follower.
func (s *Server) encodePack(r *http.Request, input []byte, digest string) packResult {
	// Double-check the cache after winning the flight: a previous
	// leader may have finished between this request's miss and its
	// join, and serving its cached bytes skips a whole encode.
	if packed, ok := s.cacheGet(digest); ok {
		s.metrics.CacheHits.Add(1)
		return packResult{packed: packed, cache: "hit"}
	}
	release, apiErr := s.adm.acquire(r.Context(), int64(len(input)))
	if apiErr != nil {
		return packResult{apiErr: apiErr}
	}
	defer release()
	if s.cfg.packStarted != nil {
		s.cfg.packStarted()
	}
	opts := s.cfg.Options
	start := time.Now()
	packed, skipped, err := classpack.PackJar(input, &opts)
	s.metrics.observeEncode(time.Since(start))
	if errors.Is(err, classpack.ErrTooLarge) {
		return packResult{apiErr: errf(http.StatusRequestEntityTooLarge, "too_large", "pack: %v", err)}
	}
	if err != nil {
		return packResult{apiErr: errf(http.StatusUnprocessableEntity, "encode_failed", "pack: %v", err)}
	}
	s.metrics.Encodes.Add(1)
	s.cachePut(digest, packed)
	if skipped == nil {
		skipped = []string{}
	}
	return packResult{packed: packed, skipped: skipped, cache: "miss"}
}

func (s *Server) handleUnpack(w http.ResponseWriter, r *http.Request) {
	s.metrics.UnpackRequests.Add(1)
	input, apiErr := s.readBody(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	release, apiErr := s.acquireJob(r.Context())
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	defer release()
	opts := s.cfg.Options
	if r.URL.Query().Get("salvage") == "1" {
		s.salvageUnpack(w, input, &opts)
		return
	}
	files, err := classpack.UnpackOpts(input, &opts)
	var jar []byte
	if err == nil {
		jar, err = classpack.JarFromFiles(files)
	}
	if err != nil {
		// A failed decode means the client sent a bad archive — that is a
		// 400, not a server fault. Cap violations and malformed bytes get
		// distinct codes so clients can tell bomb rejection from garbage.
		code := "decode_failed"
		if _, ok := classpack.AsCorrupt(err); ok {
			code = "corrupt_archive"
		}
		if errors.Is(err, classpack.ErrTooLarge) {
			code = "archive_limits"
		}
		s.writeError(w, errf(http.StatusBadRequest, code, "unpack: %v", err))
		return
	}
	s.metrics.Decodes.Add(1)
	s.writePayload(w, jar)
}

// SalvageResponse is the JSON body of POST /unpack?salvage=1: the
// salvage accounting and damage report plus the rebuilt jar of every
// recovered class (base64 in the JSON encoding). The response status is
// 200 when the archive was clean and 206 Partial Content when anything
// was lost or damaged, so callers can tell at the HTTP layer.
type SalvageResponse struct {
	Total     int                      `json:"total"`
	Recovered int                      `json:"recovered"`
	Lost      int                      `json:"lost"`
	Damage    []classpack.DamageRegion `json:"damage,omitempty"`
	Jar       []byte                   `json:"jar"`
}

// salvageUnpack answers POST /unpack?salvage=1: decode as much of a
// damaged archive as possible instead of failing the request.
func (s *Server) salvageUnpack(w http.ResponseWriter, input []byte, opts *classpack.Options) {
	res, err := classpack.Salvage(input, opts)
	if err != nil {
		// Salvage only errors on inputs that are not a packed archive at
		// all; there is nothing to recover from those.
		s.writeError(w, errf(http.StatusBadRequest, "not_archive", "salvage: %v", err))
		return
	}
	jar, err := res.Jar()
	if err != nil {
		s.writeError(w, errf(http.StatusInternalServerError, "internal", "rebuilding jar: %v", err))
		return
	}
	s.metrics.Salvages.Add(1)
	body := SalvageResponse{
		Total:     res.TotalClasses,
		Recovered: res.Recovered,
		Lost:      res.Lost,
		Damage:    res.Damage,
		Jar:       jar,
	}
	status := http.StatusOK
	if res.Lost > 0 || len(res.Damage) > 0 {
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if json.NewEncoder(w).Encode(body) == nil {
		s.metrics.BytesOut.Add(int64(len(jar)))
	}
}

// VerifyResult is the JSON body of POST /verify responses.
type VerifyResult struct {
	Classes int            `json:"classes"`           // class members checked
	Skipped int            `json:"skipped"`           // non-class members ignored
	Invalid []InvalidClass `json:"invalid,omitempty"` // failures, in jar order

	// Bytecode mode (?bytecode=1) only: per-method verifier verdicts,
	// in jar order, plus the total method count.
	Methods  int             `json:"methods,omitempty"`
	Verdicts []MethodVerdict `json:"verdicts,omitempty"`
}

// InvalidClass names one class member that failed verification.
type InvalidClass struct {
	Name  string `json:"name"`
	Error string `json:"error"`
}

// MethodVerdict is one method's bytecode-verification outcome in a
// ?bytecode=1 response. PC is -1 when the failure is structural (or the
// method is ok); Op and Error are empty for clean methods.
type MethodVerdict struct {
	Name   string `json:"name"` // jar member holding the method
	Class  string `json:"class"`
	Method string `json:"method"`
	Desc   string `json:"desc"`
	OK     bool   `json:"ok"`
	PC     int    `json:"pc"`
	Op     string `json:"op,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.metrics.VerifyRequests.Add(1)
	input, apiErr := s.readBody(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	deep := r.URL.Query().Get("deep") == "1"
	bytecodeMode := r.URL.Query().Get("bytecode") == "1"
	budget := core.EffectiveBudget(core.UnpackOpts{MaxDecodedBytes: s.cfg.Options.MaxDecodedBytes})
	members, skipped, err := archive.ReadJarClasses(input, budget)
	if errors.Is(err, classpack.ErrTooLarge) {
		s.writeError(w, errf(http.StatusRequestEntityTooLarge, "too_large", "reading jar: %v", err))
		return
	}
	if err != nil {
		s.writeError(w, errf(http.StatusBadRequest, "bad_jar", "reading jar: %v", err))
		return
	}
	names := make([]string, len(members))
	classes := make([][]byte, len(members))
	for i, m := range members {
		names[i], classes[i] = m.Name, m.Data
	}
	res := VerifyResult{Skipped: len(skipped)}
	release, apiErr := s.acquireJob(r.Context())
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	defer release()
	res.Classes = len(classes)
	if bytecodeMode {
		s.verifyBytecode(names, classes, &res)
	} else {
		errs := classpack.VerifyAll(classes, deep, s.cfg.Options.Concurrency)
		for i, e := range errs {
			if e != nil {
				res.Invalid = append(res.Invalid, InvalidClass{Name: names[i], Error: e.Error()})
			}
		}
	}
	s.metrics.Verifies.Add(1)
	status := http.StatusOK
	if len(res.Invalid) > 0 || failedVerdicts(res.Verdicts) {
		status = http.StatusUnprocessableEntity
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(res)
}

// verifyBytecode fills res with per-method verifier verdicts for every
// class, in jar order. Classes fan out over the configured worker
// bound; verdict order is independent of it.
func (s *Server) verifyBytecode(names []string, classes [][]byte, res *VerifyResult) {
	perClass := make([][]classpack.MethodVerdict, len(classes))
	parseErrs := make([]error, len(classes))
	_ = par.Do(s.cfg.Options.Concurrency, len(classes), func(i int) error {
		perClass[i], parseErrs[i] = classpack.VerifyBytecode(classes[i])
		return nil
	})
	for i := range classes {
		if parseErrs[i] != nil {
			res.Invalid = append(res.Invalid, InvalidClass{Name: names[i], Error: parseErrs[i].Error()})
			continue
		}
		for _, v := range perClass[i] {
			res.Methods++
			res.Verdicts = append(res.Verdicts, MethodVerdict{
				Name:   names[i],
				Class:  v.Class,
				Method: v.Method,
				Desc:   v.Desc,
				OK:     v.OK,
				PC:     v.PC,
				Op:     v.Op,
				Error:  v.Err,
			})
		}
	}
}

// failedVerdicts reports whether any per-method verdict failed.
func failedVerdicts(vs []MethodVerdict) bool {
	for _, v := range vs {
		if !v.OK {
			return true
		}
	}
	return false
}

// loadArchive resolves the request's {digest} path value against the
// content-addressed store.
func (s *Server) loadArchive(r *http.Request) ([]byte, *apiError) {
	return s.loadCached(r.PathValue("digest"))
}

// openCached opens a cached archive for lazy extraction. Failures are
// server faults: the store only holds archives this server packed.
func (s *Server) openCached(packed []byte) (*classpack.Archive, *apiError) {
	opts := s.cfg.Options
	a, err := classpack.OpenArchiveBytes(packed, &opts)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "corrupt_cache",
			"opening cached archive: %v", err)
	}
	return a, nil
}

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	s.metrics.ArchiveRequests.Add(1)
	packed, apiErr := s.loadArchive(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	if pat := r.URL.Query().Get("classes"); pat != "" {
		s.archiveSubset(w, r, packed, pat)
		return
	}
	w.Header().Set(HeaderDigest, r.PathValue("digest"))
	s.writePayload(w, packed)
}

// archiveSubset answers GET /archive/{digest}?classes=P: a jar holding
// every class matching the comma-separated name-or-glob patterns P.
// Version-3 archives decode only the chunks the selection touches; the
// rest of the archive is never unpacked.
func (s *Server) archiveSubset(w http.ResponseWriter, r *http.Request, packed []byte, pat string) {
	release, apiErr := s.acquireJob(r.Context())
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	defer release()
	a, apiErr := s.openCached(packed)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	// Selection resolves to ordinals, not names, so archives holding
	// duplicate class names still serve every matching occurrence.
	ords, err := a.SelectOrdinals(strings.Split(pat, ",")...)
	if err != nil {
		s.writeError(w, errf(http.StatusBadRequest, "bad_pattern", "classes pattern: %v", err))
		return
	}
	if len(ords) == 0 {
		s.writeError(w, errf(http.StatusNotFound, "no_match", "no classes match %q", pat))
		return
	}
	files, err := a.ExtractOrdinals(ords)
	if err != nil {
		s.writeError(w, errf(http.StatusInternalServerError, "corrupt_cache", "extracting classes: %v", err))
		return
	}
	jar, err := classpack.JarFromFiles(files)
	if err != nil {
		s.writeError(w, errf(http.StatusInternalServerError, "internal", "building jar: %v", err))
		return
	}
	s.metrics.Decodes.Add(1)
	s.metrics.ClassBytesDecoded.Add(a.DecodedBytes())
	w.Header().Set(HeaderDigest, r.PathValue("digest"))
	s.writePayload(w, jar)
}

// handleArchiveClass answers GET /archive/{digest}/class/{name}: one
// class file (".class" suffix optional), served lazily. On version-3
// archives only the chunk containing the class is decoded, so the cost
// is O(chunk) regardless of archive size.
func (s *Server) handleArchiveClass(w http.ResponseWriter, r *http.Request) {
	s.metrics.ClassRequests.Add(1)
	packed, apiErr := s.loadArchive(r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	release, apiErr := s.acquireJob(r.Context())
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	defer release()
	a, apiErr := s.openCached(packed)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	name := r.PathValue("name")
	data, err := a.ExtractClass(name)
	if err != nil {
		if errors.Is(err, classpack.ErrClassNotFound) {
			s.writeError(w, errf(http.StatusNotFound, "class_not_found",
				"no class %q in archive", name))
			return
		}
		if errors.Is(err, classpack.ErrAmbiguousClass) {
			s.writeError(w, errf(http.StatusConflict, "class_ambiguous",
				"class %q occurs more than once in archive; fetch the whole archive instead", name))
			return
		}
		s.writeError(w, errf(http.StatusInternalServerError, "corrupt_cache",
			"extracting %q: %v", name, err))
		return
	}
	s.metrics.ClassBytesDecoded.Add(a.DecodedBytes())
	w.Header().Set(HeaderDigest, r.PathValue("digest"))
	s.writePayload(w, data)
}

// loadCached fetches one cached archive by digest for the delta
// endpoint, distinguishing malformed digests (400), absent objects
// (404) and failing store reads (500 + cache_errors).
func (s *Server) loadCached(digest string) ([]byte, *apiError) {
	if !castore.ValidKey(digest) {
		return nil, errf(http.StatusBadRequest, "bad_digest",
			"digest must be 64 lowercase hex digits")
	}
	if s.cfg.Store == nil {
		return nil, errf(http.StatusNotFound, "not_found", "no archive cache configured")
	}
	packed, ok, err := s.cfg.Store.Get(digest)
	if err != nil {
		s.metrics.CacheErrors.Add(1)
		log.Printf("jpackd: cache read for %s failed: %v", digest, err)
		return nil, errf(http.StatusInternalServerError, "internal", "cache read: %v", err)
	}
	if !ok {
		return nil, errf(http.StatusNotFound, "not_found", "no archive with digest %s", digest)
	}
	return packed, nil
}

// handleDelta answers GET /delta/{from}/{to}: a CJPD patch that
// transforms the cached archive {from} into the cached archive {to}
// (both content digests previously returned by POST /pack). Clients
// holding the old archive download the patch — typically a small
// fraction of the new archive — and reconstruct the new bytes locally
// with ApplyDelta. Diffing is lazy: unchanged chunks of version-3
// archives are matched by hash without being decoded.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	s.metrics.DeltaRequests.Add(1)
	oldArc, apiErr := s.loadCached(r.PathValue("from"))
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	newArc, apiErr := s.loadCached(r.PathValue("to"))
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	release, apiErr := s.acquireJob(r.Context())
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	defer release()
	opts := s.cfg.Options
	patch, err := classpack.Diff(oldArc, newArc, &opts)
	if err != nil {
		// Both inputs came from this server's own cache, so a failing
		// diff is a server fault, not a client error.
		s.writeError(w, errf(http.StatusInternalServerError, "delta_failed", "diff: %v", err))
		return
	}
	if saved := int64(len(newArc)) - int64(len(patch)); saved > 0 {
		s.metrics.DeltaBytesSaved.Add(saved)
	}
	w.Header().Set(HeaderDigest, r.PathValue("to"))
	s.writePayload(w, patch)
}
