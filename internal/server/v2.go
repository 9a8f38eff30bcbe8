// The /v2 HTTP surface, built on the context-first Classify API: a
// confidence signal and top-K candidate floors, write operations
// (absorb, MAC retirement), fleet statistics, and an NDJSON streaming
// batch route that never buffers whole responses in memory and aborts
// promptly when the client disconnects.

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/portfolio"
)

// ClassifyRequest is the v2 classify body: the scan fields plus inline
// options.
type ClassifyRequest struct {
	ID       string            `json:"id"`
	Readings []dataset.Reading `json:"readings"`
	// TopK requests the k most likely floors as ranked candidates
	// (0 means 1: winner only; negative means every distinct floor).
	TopK int `json:"top_k,omitempty"`
	// Absorb keeps the classified scan in the building's graph.
	Absorb bool `json:"absorb,omitempty"`
	// Floor and Labeled mirror dataset.Record's persisted fields so a
	// scan file produced by datagen or json.Marshal round-trips through
	// this route; both are ignored — an online scan carries no trusted
	// label.
	Floor   int  `json:"floor,omitempty"`
	Labeled bool `json:"labeled,omitempty"`
}

// CandidateResponse is one ranked floor hypothesis.
type CandidateResponse struct {
	Floor      int     `json:"floor"`
	Confidence float64 `json:"confidence"`
	Distance   float64 `json:"distance"`
}

// ClassifyResponse is the v2 classify reply. Candidates are sorted by
// descending confidence; the first one restates the winning floor.
type ClassifyResponse struct {
	ID         string              `json:"id"`
	Building   string              `json:"building"`
	Floor      int                 `json:"floor"`
	Confidence float64             `json:"confidence"`
	Candidates []CandidateResponse `json:"candidates"`
	Distance   float64             `json:"distance"`
	Overlap    float64             `json:"overlap,omitempty"`
	Absorbed   bool                `json:"absorbed,omitempty"`
}

// StreamItem is one NDJSON line of a batch reply: either a result or a
// per-scan error, never both.
type StreamItem struct {
	ID     string            `json:"id"`
	Result *ClassifyResponse `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// StatsResponse is the v2 stats reply.
type StatsResponse struct {
	Buildings   int                 `json:"buildings"`
	Records     int                 `json:"records"`
	MACs        int                 `json:"macs"`
	Edges       int                 `json:"edges"`
	PerBuilding []BuildingStatsItem `json:"per_building"`
	// Replication reports the node's role, applied WAL position, and lag
	// in a fleet deployment; absent on a standalone daemon.
	Replication *ReplInfo `json:"replication,omitempty"`
}

// BuildingStatsItem is one building's graph statistics.
type BuildingStatsItem struct {
	Building string `json:"building"`
	Records  int    `json:"records"`
	MACs     int    `json:"macs"`
	Edges    int    `json:"edges"`
}

// ndjsonChunkSize is how many scans the batch route classifies at once
// between writes: enough to keep every core busy, few enough that
// results stream out steadily and cancellation is noticed quickly.
const ndjsonChunkSize = 64

// registerV2 mounts the v2 routes on mux. Classification and MAC
// retirement go through rt so an attached lifecycle manager sees (and
// journals) every write; health and statistics read the catalog c.
// Every write route shares one admission gate (see admission.go), so a
// burst of absorbs is bounded no matter which route it arrives on.
func registerV2(mux *http.ServeMux, c Catalog, rt Router, opts Options) {
	repl := opts.Repl
	gate := newAbsorbGate(opts.MaxInflightAbsorbs)
	handle(mux, "GET /v2/healthz", healthz(c, repl))
	handle(mux, "POST /v2/classify", classifyV2(rt, gate, false))
	handle(mux, "POST /v2/absorb", classifyV2(rt, gate, true))
	handle(mux, "POST /v2/classify/batch", classifyBatchV2(rt, gate))
	handle(mux, "DELETE /v2/macs/{mac}", func(w http.ResponseWriter, r *http.Request) {
		mac := r.PathValue("mac")
		release, err := gate.acquire(r.Context())
		if err != nil {
			writeGateError(w, err)
			return
		}
		defer release()
		n, err := rt.RemoveMAC(r.Context(), mac)
		if err != nil {
			writeError(w, predictStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"mac": mac, "buildings": n})
	})
	handle(mux, "GET /v2/stats", func(w http.ResponseWriter, r *http.Request) {
		per := c.Stats(r.Context())
		resp := StatsResponse{Buildings: len(per), PerBuilding: make([]BuildingStatsItem, len(per))}
		for i, b := range per {
			resp.PerBuilding[i] = BuildingStatsItem{
				Building: b.Building, Records: b.Records, MACs: b.MACs, Edges: b.Edges,
			}
			resp.Records += b.Records
			resp.MACs += b.MACs
			resp.Edges += b.Edges
		}
		if repl != nil {
			ri := repl()
			resp.Replication = &ri
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// spanName labels the classification span by write intent.
func spanName(absorb bool) string {
	if absorb {
		return "absorb"
	}
	return "classify"
}

// optionsOf translates wire options to core options.
func optionsOf(topK int, absorb bool) []core.Option {
	opts := []core.Option{core.WithoutEmbedding()}
	if topK != 0 {
		opts = append(opts, core.WithTopK(topK))
	}
	if absorb {
		opts = append(opts, core.WithAbsorb())
	}
	return opts
}

// toClassifyResponse maps one routed classification onto the v2 wire
// shape.
func toClassifyResponse(id string, routed *portfolio.Routed, absorbed bool) ClassifyResponse {
	resp := ClassifyResponse{
		ID:         id,
		Building:   routed.Building,
		Floor:      routed.Result.Floor,
		Confidence: routed.Result.Confidence,
		Candidates: make([]CandidateResponse, len(routed.Result.Candidates)),
		Distance:   routed.Result.Distance,
		Overlap:    routed.Match.Overlap,
		Absorbed:   absorbed,
	}
	for i, c := range routed.Result.Candidates {
		resp.Candidates[i] = CandidateResponse{Floor: c.Floor, Confidence: c.Confidence, Distance: c.Distance}
	}
	return resp
}

// Routed maps a classify reply back onto the routed classification it
// reports, the inverse of toClassifyResponse on every field the reply
// carries: a Router that forwards a scan to another node re-encodes the
// node's answer byte for byte.
func (r *ClassifyResponse) Routed() portfolio.Routed {
	res := core.Result{
		Floor:      r.Floor,
		Confidence: r.Confidence,
		Candidates: make([]core.Candidate, len(r.Candidates)),
		Distance:   r.Distance,
	}
	for i, c := range r.Candidates {
		res.Candidates[i] = core.Candidate{Floor: c.Floor, Confidence: c.Confidence, Distance: c.Distance}
	}
	return portfolio.Routed{
		Building: r.Building,
		Match:    portfolio.Match{Building: r.Building, Overlap: r.Overlap},
		Result:   res,
	}
}

// classifyV2 serves POST /v2/classify and POST /v2/absorb (the latter
// forces the absorb option, making the write intent explicit in the
// route). The body is read into a pooled buffer; the request keeps
// copies of its strings, so the buffer goes back when the handler ends.
func classifyV2(rt Router, gate *absorbGate, forceAbsorb bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := bodyPool.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= maxPooledBody {
				buf.Reset()
				bodyPool.Put(buf)
			}
		}()
		req, status, err := decodeScan(w, r, buf)
		if err != nil {
			writeError(w, status, err)
			return
		}
		absorb := req.Absorb || forceAbsorb
		if absorb {
			release, err := gate.acquire(r.Context())
			if err != nil {
				writeGateError(w, err)
				return
			}
			defer release()
		}
		rec := &dataset.Record{ID: req.ID, Readings: req.Readings}
		spanDone := obs.StartSpan(r.Context(), spanName(absorb))
		routed, err := rt.ClassifyRouted(r.Context(), rec, optionsOf(req.TopK, absorb)...)
		spanDone()
		if err != nil {
			writeError(w, predictStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toClassifyResponse(req.ID, &routed, absorb))
	}
}

// classifyBatchV2 serves POST /v2/classify/batch. The body is either a
// JSON array of scans or an NDJSON stream of scans; options come from
// the query string (?top_k=3&absorb=true) since they apply batch-wide.
// The whole body is decoded and validated first — size limits and
// malformed scans reject the request before any scan is classified or
// absorbed — and only then does classification start, chunk by chunk.
// The reply is NDJSON, one StreamItem per scan in request order, flushed
// per chunk, so large batches never buffer a 32 MB response in memory.
// Once the request context is cancelled (timeout or client disconnect),
// classification stops claiming scans and the handler stops writing.
func classifyBatchV2(rt Router, gate *absorbGate) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		topK, err := queryInt(r, "top_k")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		absorb, err := queryBool(r, "absorb")
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// One slot covers the whole absorbing batch: the gate bounds
		// concurrent writers, and a batch is one writer.
		if absorb {
			release, err := gate.acquire(r.Context())
			if err != nil {
				writeGateError(w, err)
				return
			}
			defer release()
		}
		opts := optionsOf(topK, absorb)

		recs, status, err := decodeBatch(w, r)
		if err != nil {
			writeError(w, status, err)
			return
		}

		ctx := r.Context()
		// One chunk's verdicts, reused by every chunk: each index gets
		// its error, nil or not, before it is read.
		routed := make([]portfolio.Routed, min(ndjsonChunkSize, len(recs)))
		errs := make([]error, len(routed))
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		wroteAny := false
		// streamError emits a terminal error: as a status code if nothing
		// was written yet (so a pre-stream timeout is a real 504, not an
		// empty 200), as a final NDJSON line otherwise.
		streamError := func(status int, err error) {
			if !wroteAny {
				writeError(w, status, err)
				return
			}
			_ = enc.Encode(StreamItem{Error: err.Error()})
		}
		for start := 0; start < len(recs); start += ndjsonChunkSize {
			if err := ctx.Err(); err != nil {
				// Client gone or deadline hit: report and stop writing.
				streamError(predictStatus(err), err)
				return
			}
			chunk := recs[start:min(start+ndjsonChunkSize, len(recs))]
			// Every scan of the chunk at once, each a single
			// classification (an absorbing one a single absorb); a scan
			// not started once ctx is done fails with its error.
			_ = par.ForEachCtxFillBounded(ctx, len(chunk), len(chunk), func(i int) {
				routed[i], errs[i] = rt.ClassifyRouted(ctx, &chunk[i], opts...)
			}, func(i int, err error) {
				errs[i] = err
			})
			for i := range chunk {
				item := StreamItem{ID: chunk[i].ID}
				if errs[i] != nil {
					item.Error = errs[i].Error()
				} else {
					resp := toClassifyResponse(chunk[i].ID, &routed[i], absorb)
					item.Result = &resp
				}
				if !wroteAny {
					w.Header().Set("Content-Type", "application/x-ndjson")
					wroteAny = true
				}
				if err := enc.Encode(item); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// decodeBatch reads and validates a whole batch body, so a batch that
// will be rejected is refused before any scan is classified or absorbed.
// The body is a JSON array or an NDJSON stream of scans (told apart by
// its first non-space byte), at most maxBatchScans scans in
// maxBatchBytes. Scans decode as ClassifyRequest, so both dataset.Record
// and single-classify bodies parse, and an unknown field is an error.
// Options are batch-wide (query string): a scan carrying its own
// top_k/absorb is rejected rather than silently stripped, so explicit
// write intent is never dropped. On failure it returns the status to
// answer with: 413 past a limit, 400 otherwise.
func decodeBatch(w http.ResponseWriter, r *http.Request) ([]dataset.Record, int, error) {
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	first, err := peekNonSpace(br)
	if errors.Is(err, io.EOF) {
		return nil, http.StatusBadRequest, errors.New("batch has no scans")
	}
	if err != nil {
		return nil, decodeStatus(err), fmt.Errorf("read batch: %w", err)
	}
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	array := first == '['
	if array {
		if _, err := dec.Token(); err != nil { // consume '['
			return nil, decodeStatus(err), fmt.Errorf("decode batch: %w", err)
		}
	}
	var recs []dataset.Record
	for !array || dec.More() {
		var req ClassifyRequest
		err := dec.Decode(&req)
		if err == io.EOF && !array {
			break // the end of an NDJSON stream
		}
		if err != nil {
			return nil, decodeStatus(err), fmt.Errorf("decode batch: %w", err)
		}
		if req.TopK != 0 || req.Absorb {
			return nil, http.StatusBadRequest, fmt.Errorf("decode batch: scan %q: per-scan options are not supported in a batch; use query parameters (?top_k=&absorb=)", req.ID)
		}
		recs = append(recs, dataset.Record{ID: req.ID, Readings: req.Readings})
		if len(recs) > maxBatchScans {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("batch exceeds %d scans", maxBatchScans)
		}
	}
	if array {
		if _, err := dec.Token(); err != nil { // consume ']'
			return nil, decodeStatus(err), fmt.Errorf("decode batch: unterminated array: %w", err)
		}
	}
	if len(recs) == 0 {
		return nil, http.StatusBadRequest, errors.New("batch has no scans")
	}
	return recs, http.StatusOK, nil
}

// peekNonSpace returns the first non-whitespace byte without consuming it.
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return b, br.UnreadByte()
		}
	}
}

// decodeStatus maps a batch decode error to its HTTP status: an
// over-limit body is 413, anything else malformed is 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// queryInt parses an optional integer query parameter (0 when absent).
func queryInt(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("query %s: %w", key, err)
	}
	return n, nil
}

// queryBool parses an optional boolean query parameter (false when
// absent); malformed values are an error rather than silently false, so
// a typo cannot flip a write into a read.
func queryBool(r *http.Request, key string) (bool, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("query %s: %w", key, err)
	}
	return v, nil
}
