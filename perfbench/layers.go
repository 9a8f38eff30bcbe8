package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	runtimemetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/rfgraph"
)

// layerMetric is the prediction a per-layer metric carries: the reported
// metric a change to its layer should move, and the workload it should
// move it on. Elsewhere the prediction is no change.
type layerMetric struct{ moves, on string }

// layerMetrics maps every per-layer metric to its prediction. The five
// user-visible measurements too noisy to gate on a small shared machine
// (read_p99_ms, read_max_rps, absorb_*, refit_s) are reported here too.
var layerMetrics = map[string]layerMetric{
	"read_p99_ms":                       {"itself (too noisy to gate)", "all"},
	"read_max_rps":                      {"itself (too noisy to gate)", "read-3b, read-fleet-48b"},
	"absorb_p50_ms":                     {"itself (too noisy to gate)", "absorb-mix"},
	"absorb_p99_ms":                     {"itself (too noisy to gate)", "absorb-mix"},
	"refit_s":                           {"itself (too noisy to gate)", "refit-under-load"},
	"client.queue_wait_ms.p99":          {"read_p99_ms (backlog)", "all"},
	"client.lateness_ms.p99":            {"none: validity, must stay under 0.5 ms", "all"},
	"client.allocs_per_op":              {"none: subtracted from server.allocs_per_op", "all"},
	"server.transport_ms.p50":           {"read_p50_ms", "read-3b"},
	"server.self_ms.p50":                {"read_p50_ms", "read-3b"},
	"server.allocs_per_op":              {"read_p99_ms", "read-3b"},
	"fleet.router_self_ms.p50":          {"read_p50_ms", "read-fleet-48b"},
	"fleet.hops_per_read":               {"read_p50_ms", "read-fleet-48b"},
	"fleet.slowest_hop_ms.p99":          {"read_p99_ms", "read-fleet-48b"},
	"lifecycle.classify_ms.p50":         {"read_p50_ms", "all"},
	"lifecycle.absorb_ms.p50":           {"absorb_p50_ms", "absorb-mix"},
	"lifecycle.absorb_ms.p99":           {"absorb_p99_ms", "absorb-mix"},
	"lifecycle.refit_s.mean":            {"refit_s", "refit-under-load"},
	"lifecycle.hot_swaps":               {"refit_s", "refit-under-load"},
	"wal.fsyncs_per_append":             {"absorb_p50_ms", "absorb-mix"},
	"wal.append_us.mean":                {"absorb_p50_ms", "absorb-mix"},
	"wal.fsync_us.mean":                 {"absorb_p50_ms", "absorb-mix"},
	"wal.bytes_per_append":              {"absorb_p50_ms", "absorb-mix"},
	"portfolio.attribute_us.p50":        {"read_p50_ms", "read-fleet-48b"},
	"portfolio.attribute_allocs_per_op": {"read_p50_ms", "read-fleet-48b"},
	"core.classify_us.p50":              {"read_p50_ms", "read-3b"},
	"core.allocs_per_op":                {"read_p50_ms", "read-3b"},
	"core.overlay_us.mean":              {"read_p50_ms", "read-3b"},
	"core.embed_us.mean":                {"read_p50_ms", "read-3b"},
	"core.reduce_us.mean":               {"read_p50_ms", "read-3b"},
	"rfgraph.build_s":                   {"refit_s, setup_s", "refit-under-load, read-fleet-48b"},
	"embed.train_s":                     {"refit_s, setup_s", "refit-under-load, read-fleet-48b"},
	"embed.samples_per_s":               {"refit_s, setup_s", "refit-under-load, read-fleet-48b"},
	"cluster.train_s":                   {"refit_s, setup_s", "refit-under-load, read-fleet-48b"},
	"fit.peak_heap_mib":                 {"peak_heap_mib, setup_s", "all"},
	"runtime.gc_cpu_fraction":           {"read_p99_ms", "read-3b, absorb-mix"},
	"runtime.gc_cycles":                 {"read_p99_ms", "read-3b, absorb-mix"},
	"trace.overhead_ms":                 {"none: the cost of tracing", "all"},
}

// perLayer assembles the traced run's per-layer metrics: client timings
// from the main phase, span statistics from the traced requests,
// registry and runtime deltas over the run, an allocation calibration,
// and a serial in-process ladder over the portfolio, core and fit
// layers.
func (r *runner) perLayer(ctx context.Context, fixed, absorbs []sample, reg map[string]float64, gc gcStats) error {
	o := r.out
	var waits, late, tracedReads, plainReads []float64
	kinds := make(map[string]opKind)
	for _, set := range [][]sample{fixed, absorbs} {
		for i := range set {
			s := &set[i]
			if s.traced && s.ok {
				kinds[traceID(s.id)] = s.kind
			}
		}
	}
	for i := range fixed {
		s := &fixed[i]
		waits = append(waits, s.queueWait())
		late = append(late, s.lateness())
		if s.kind == opRead {
			if s.traced {
				tracedReads = append(tracedReads, s.latency())
			} else {
				plainReads = append(plainReads, s.latency())
			}
		}
	}
	r.tr.mu.Lock()
	byTrace := link(r.tr.spans)
	r.tr.mu.Unlock()
	st := analyze(byTrace, kinds)
	if r.cfg.spans != "" {
		if err := writeSpans(r.cfg.spans, byTrace); err != nil {
			return err
		}
		fmt.Fprintf(r.cfg.log, "spans: %s\n", r.cfg.spans)
	}

	clientAllocs, serverAllocs, err := r.allocations(ctx)
	if err != nil {
		return err
	}
	lad, err := r.serialLadder(ctx)
	if err != nil {
		return err
	}

	p99 := func(v []float64) float64 {
		s := summarize(v, r.cfg.tail)
		if !s.HasP99 {
			o.problem("a per-layer p99 rests on %d samples", s.N)
		}
		return s.P99
	}
	p50 := func(v []float64) float64 { return summarize(v, r.cfg.tail).P50 }
	o.set("client.queue_wait_ms.p99", p99(waits), "ms")
	o.set("client.lateness_ms.p99", p99(late), "ms")
	o.set("client.allocs_per_op", clientAllocs, "count")
	o.set("server.transport_ms.p50", p50(st.transport), "ms")
	o.set("server.self_ms.p50", p50(st.nodeSelf), "ms")
	o.set("server.allocs_per_op", serverAllocs, "count")
	o.set("fleet.router_self_ms.p50", p50(st.routerSelf), "ms")
	o.set("fleet.hops_per_read", mean(st.hops), "count")
	o.set("fleet.slowest_hop_ms.p99", p99(st.slowestHop), "ms")
	o.set("lifecycle.classify_ms.p50", p50(st.lcRead), "ms")
	o.set("lifecycle.absorb_ms.p50", p50(st.lcAbsorb), "ms")
	o.set("lifecycle.absorb_ms.p99", p99(st.lcAbsorb), "ms")
	o.set("lifecycle.refit_s.mean", ratio(reg["grafics_lifecycle_refit_seconds_sum"], reg["grafics_lifecycle_refit_seconds_count"]), "s")
	o.set("lifecycle.hot_swaps", reg["grafics_lifecycle_hot_swaps_total"], "count")
	appends := reg["grafics_wal_appends_total"]
	o.set("wal.fsyncs_per_append", ratio(reg["grafics_wal_fsyncs_total"], appends), "count")
	o.set("wal.append_us.mean", 1e6*ratio(reg["grafics_wal_append_seconds_sum"], reg["grafics_wal_append_seconds_count"]), "us")
	o.set("wal.fsync_us.mean", 1e6*ratio(reg["grafics_wal_fsync_seconds_sum"], reg["grafics_wal_fsync_seconds_count"]), "us")
	o.set("wal.bytes_per_append", ratio(reg["grafics_wal_appended_bytes_total"], appends), "bytes")
	o.set("portfolio.attribute_us.p50", lad.attributeUS, "us")
	o.set("portfolio.attribute_allocs_per_op", lad.attributeAllocs, "count")
	o.set("core.classify_us.p50", lad.classifyUS, "us")
	o.set("core.allocs_per_op", lad.classifyAllocs, "count")
	for _, stage := range []string{"overlay", "embed", "reduce"} {
		key := `grafics_core_classify_stage_seconds_%s{stage="` + stage + `"}`
		o.set("core."+stage+"_us.mean", 1e6*ratio(reg[fmt.Sprintf(key, "sum")], reg[fmt.Sprintf(key, "count")]), "us")
	}
	o.set("rfgraph.build_s", lad.buildS, "s")
	o.set("embed.train_s", lad.trainS, "s")
	o.set("embed.samples_per_s", lad.samplesPerS, "1/s")
	o.set("cluster.train_s", lad.clusterS, "s")
	o.set("fit.peak_heap_mib", lad.peakMiB, "MiB")
	o.set("runtime.gc_cpu_fraction", ratio(gc.gcCPU, gc.totalCPU), "ratio")
	o.set("runtime.gc_cycles", gc.cycles, "count")
	o.set("trace.overhead_ms", p50(tracedReads)-p50(plainReads), "ms")

	// Self-checks on a single-node read: the lifecycle span, timed from
	// outside, should match the program's own stage timers under the same
	// load; the serial ladder's layers add up to less by what contention
	// for the machine costs under load. On a fleet read both hops' calls
	// are mixed, so neither comparison holds there.
	if lc := o.metrics["lifecycle.classify_ms.p50"].Value; lc > 0 {
		stages := lad.attributeUS
		for _, stage := range []string{"overlay", "embed", "reduce"} {
			stages += o.metrics["core."+stage+"_us.mean"].Value
		}
		serial := lad.attributeUS + lad.classifyUS
		fmt.Fprintf(r.cfg.log, "check: lifecycle.classify p50 %.3fms; attribute + stage means under load %.3fms (%+.0f%%); serial attribute + classify p50 %.3fms (%+.0f%%)\n",
			lc, stages/1000, 100*(stages/1000-lc)/lc, serial/1000, 100*(serial/1000-lc)/lc)
	}
	if late := o.metrics["client.lateness_ms.p99"].Value; late >= 0.5 {
		fmt.Fprintf(r.cfg.log, "check: client.lateness_ms.p99 %.3fms: the generator ran late, so latencies carry its delay\n", late)
	}
	return nil
}

// allocations measures allocations per request: first the benchmark's
// own client alone, against a canned responder that allocates nothing,
// then the same client against the system with tracing off. The
// system's share is the difference, so the client's JSON and transport
// allocations are not charged to the server.
func (r *runner) allocations(ctx context.Context) (client, server float64, err error) {
	canned, err := startCanned(r.in.queries[0])
	if err != nil {
		return 0, 0, err
	}
	n := r.probeSize()
	perOp := func(base string) (float64, error) {
		d := newDriver(r.in, base, nil)
		defer d.close()
		var samples []sample
		var runErr error
		allocs := allocsPerOp(n, func() { samples, runErr = d.run(ctx, schedule{n: n}, time.Now()) })
		r.account(samples)
		return allocs, runErr
	}
	client, err = perOp(canned.url)
	canned.close()
	if err != nil {
		return 0, 0, err
	}
	total, err := perOp(r.sys.base)
	return client, total - client, err
}

// allocsPerOp runs fn, which performs n operations, and returns the
// process-wide allocations it made per operation.
func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// ladderResult is the serial, in-process measurement of single layers.
type ladderResult struct {
	attributeUS, attributeAllocs float64
	classifyUS, classifyAllocs   float64
	buildS, trainS, samplesPerS  float64
	clusterS, peakMiB            float64
}

// serialLadder calls Portfolio.Attribute and core.System.Classify
// directly on the workload's queries, then rebuilds the first building's
// current corpus stage by stage: rfgraph, embed.TrainCtx and
// cluster.TrainCtx, under the fit benchmarks' peak-heap sampler.
func (r *runner) serialLadder(ctx context.Context) (ladderResult, error) {
	var res ladderResult
	n := max(r.probeSize(), len(r.in.queries))
	recs := make([]*dataset.Record, n)
	ports := make([]*portfolio.Portfolio, n)
	systems := make([]*core.System, n)
	for i := range recs {
		q := &r.in.queries[i%len(r.in.queries)]
		name := r.in.names[q.building]
		recs[i], ports[i] = &q.rec, r.sys.owner[name].Portfolio()
		sys, err := ports[i].System(name)
		if err != nil {
			return res, err
		}
		systems[i] = sys
	}
	times := make([]float64, n)
	var err error
	timed := func(i int, call func() error) {
		t0 := time.Now()
		cerr := call()
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if cerr != nil && err == nil {
			err = cerr
		}
	}
	res.attributeAllocs = allocsPerOp(n, func() {
		for i := range recs {
			timed(i, func() error { _, err := ports[i].Attribute(recs[i], 0); return err })
		}
	})
	if err != nil {
		return res, fmt.Errorf("ladder: attribute: %w", err)
	}
	res.attributeUS = median(times)
	res.classifyAllocs = allocsPerOp(n, func() {
		for i := range recs {
			timed(i, func() error { _, err := systems[i].Classify(ctx, recs[i], core.WithoutEmbedding()); return err })
		}
	})
	if err != nil {
		return res, fmt.Errorf("ladder: classify: %w", err)
	}
	res.classifyUS = median(times)

	sys, err := r.sys.owner[r.in.names[0]].Portfolio().System(r.in.names[0])
	if err != nil {
		return res, err
	}
	cfg := sys.Config()
	corpus := sys.CorpusRecords()
	rep, err := bench.RunFit(ctx, "ladder/fit", len(corpus), func(ctx context.Context) error {
		t0 := time.Now()
		g := rfgraph.New(cfg.Weight.Func())
		ids, err := g.AddRecords(corpus)
		if err != nil {
			return err
		}
		res.buildS = time.Since(t0).Seconds()
		t0 = time.Now()
		emb, err := embed.TrainCtx(ctx, g, cfg.Embed)
		if err != nil {
			return err
		}
		res.trainS = time.Since(t0).Seconds()
		res.samplesPerS = float64(cfg.Embed.SamplesPerEdge*len(g.DirectedEdges())) / res.trainS
		items := make([]cluster.Item, len(ids))
		for i, id := range ids {
			label := cluster.Unlabeled
			if corpus[i].Labeled {
				label = corpus[i].Floor
			}
			items[i] = cluster.Item{Index: i, Vec: emb.EgoOf(id), Label: label}
		}
		t0 = time.Now()
		if _, err := cluster.TrainCtx(ctx, items); err != nil {
			return err
		}
		res.clusterS = time.Since(t0).Seconds()
		return nil
	})
	if err != nil {
		return res, err
	}
	res.peakMiB = float64(rep.PeakAllocBytes) / (1 << 20)
	return res, nil
}

// scrape renders the process-wide metrics registry, the one every node
// serves at GET /v2/metrics, and returns each sample keyed by its series
// as written: name plus label set.
func scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta returns after minus before for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// gcStats are cumulative runtime counters.
type gcStats struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcStats {
	s := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	runtimemetrics.Read(s)
	return gcStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: float64(s[2].Value.Uint64())}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{gcCPU: g.gcCPU - o.gcCPU, totalCPU: g.totalCPU - o.totalCPU, cycles: g.cycles - o.cycles}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// cannedServer answers every HTTP/1.1 request with one pre-rendered
// reply and allocates nothing per request, so a client driven against it
// measures the client's own allocations.
type cannedServer struct {
	url   string
	ln    net.Listener
	reply []byte
	wg    sync.WaitGroup
}

// startCanned serves the /v2/classify reply a real node gives for q.
func startCanned(q query) (*cannedServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("canned responder: %w", err)
	}
	body := fmt.Sprintf(`{"id":%q,"building":"campus-00","floor":%d,"confidence":0.9,"candidates":[{"floor":%d,"confidence":0.9,"distance":0.1}],"distance":0.1,"overlap":1}`+"\n",
		q.rec.ID, q.rec.Floor, q.rec.Floor)
	c := &cannedServer{
		url:   "http://" + ln.Addr().String(),
		ln:    ln,
		reply: []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)),
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serve(conn)
			}()
		}
	}()
	return c, nil
}

var colon, contentLength = []byte(":"), []byte("Content-Length")

func (c *cannedServer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		n := 0
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(bytes.TrimSpace(line)) == 0 {
				break
			}
			if name, val, ok := bytes.Cut(line, colon); ok && bytes.EqualFold(name, contentLength) {
				n = 0
				for _, b := range bytes.TrimSpace(val) {
					n = n*10 + int(b-'0')
				}
			}
		}
		if _, err := br.Discard(n); err != nil {
			return
		}
		if _, err := conn.Write(c.reply); err != nil {
			return
		}
	}
}

// close stops accepting and waits for every connection to end; the
// client must have closed its connections first.
func (c *cannedServer) close() {
	c.ln.Close()
	c.wg.Wait()
}
