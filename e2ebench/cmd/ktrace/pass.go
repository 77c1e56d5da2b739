//go:build kbtrace

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"kepler/e2ebench/internal/poll"
	"kepler/e2ebench/internal/result"
	"kepler/e2ebench/internal/sched"
	"kepler/e2ebench/internal/span"
	"kepler/e2ebench/internal/sse"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/live"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/server"
	"kepler/internal/store"
)

// checkpointInterval is keplerd's default -checkpoint-interval.
const checkpointInterval = 15 * time.Minute

// passConfig is one run of one workload shape.
type passConfig struct {
	name      string
	feed      *feed // records ingested, fixture prefix included
	shards    int   // 0: one per core, keplerd's default
	traced    bool  // record spans
	durable   bool
	fixture   string  // serve: data dir to recover from
	prefix    int     // serve: records the fixture covers
	readCache int     // serve: the store's read cache
	seconds   float64 // serve: wall seconds of the paced phase
	dir       string
}

func (pc passConfig) key() string {
	if pc.traced {
		return pc.name + "/traced"
	}
	return pc.name + "/plain"
}

// passResult is what one pass measured.
type passResult struct {
	wall     time.Duration // first record released to last event received
	shards   int
	spans    []span.Span // ingest goroutine
	bins     []metrics.BinSpans
	queueMax int
	relayMax int
	ckptSize []int
	store    metrics.StoreSnapshot
	bus      events.Stats
	relay    events.RelayInfo
	http     *httpTimes
	reads    *httpTimes // HistoryReader calls from handlers
	lateMS   []float64
	delayMS  []float64 // serve: paced bin close → SSE receipt
	outages  []core.Outage
	incs     []core.Incident
}

// httpTimes collects durations from handler goroutines.
type httpTimes struct {
	mu     sync.Mutex
	by     map[string][]time.Duration
	status map[int]int
}

func newHTTPTimes() *httpTimes {
	return &httpTimes{by: map[string][]time.Duration{}, status: map[int]int{}}
}

func (h *httpTimes) add(name string, d time.Duration, status int) {
	h.mu.Lock()
	h.by[name] = append(h.by[name], d)
	if status != 0 {
		h.status[status]++
	}
	h.mu.Unlock()
}

// timedHistory is the store as the handlers page it, timed per call.
type timedHistory struct {
	st *store.Store
	t  *httpTimes
}

func (h timedHistory) ReadOutages(start, count int) ([]core.Outage, error) {
	t0 := time.Now()
	out, err := h.st.ReadOutages(start, count)
	h.t.add("store.read_page", time.Since(t0), 0)
	return out, err
}

func (h timedHistory) ReadIncidents(start, count int) ([]core.Incident, error) {
	t0 := time.Now()
	out, err := h.st.ReadIncidents(start, count)
	h.t.add("store.read_page", time.Since(t0), 0)
	return out, err
}

// statusWriter remembers the response status and keeps SSE flushing.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
	w.ResponseWriter.WriteHeader(s)
}

func (w *statusWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// routes names the timed endpoints; /v1/events is a stream, not a call.
var routes = map[string]string{
	"/v1/outages/open": "outages_open",
	"/v1/stats":        "stats",
	"/v1/incidents":    "incidents",
	"/v1/outages":      "outages",
}

// decoder times every call into the MRT decoder.
type decoder struct {
	rec *span.Recorder
	rd  *mrt.Reader
}

func (d decoder) Next() (*mrt.Record, error) {
	i := d.rec.Begin("mrt.decode", 0)
	r, err := d.rd.Next()
	d.rec.End(i)
	return r, err
}

func (wd *world) pass(pc passConfig, led *result.Ledger) (*passResult, error) {
	if err := os.MkdirAll(pc.dir, 0o755); err != nil {
		return nil, err
	}
	var rec *span.Recorder
	if pc.traced {
		rec = span.New()
	}
	res := &passResult{shards: pc.shards, http: newHTTPTimes(), reads: newHTTPTimes()}
	if res.shards <= 0 {
		res.shards = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()

	// Store recovery, as keplerd boots.
	var (
		st         *store.Store
		storeStats = &metrics.StoreStats{}
		sum        store.Summary
		resume     *store.Checkpoint
		engCkpt    *core.Checkpoint
		err        error
	)
	if pc.durable {
		dataDir := filepath.Join(pc.dir, "data")
		readCache := 4096
		if pc.fixture != "" {
			if b, err := exec.Command("cp", "-r", pc.fixture, dataDir).CombinedOutput(); err != nil {
				return nil, fmt.Errorf("copying fixture: %v: %s", err, b)
			}
			readCache = pc.readCache
		}
		i := rec.Begin("store.open", 0)
		st, err = store.Open(store.Options{Dir: dataDir, ReadCache: readCache, Metrics: storeStats})
		rec.End(i)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		i = rec.Begin("store.summary", 0)
		sum = st.Summary()
		rec.End(i)
		if pc.fixture != "" {
			i = rec.Begin("store.load_checkpoint", 0)
			resume = st.LoadCheckpoint(func(c *store.Checkpoint) error {
				j := rec.Begin("core.checkpoint.decode", 0)
				ec, err := core.DecodeCheckpoint(c.Engine)
				rec.End(j)
				switch {
				case err != nil:
					return err
				case c.EventSeq > sum.LastSeq:
					return errors.New("checkpoint ahead of the durable horizon")
				case ec.Records != c.Records:
					return errors.New("checkpoint envelope and engine state disagree")
				}
				engCkpt = ec
				return nil
			})
			rec.End(i)
			if resume == nil {
				return nil, errors.New("fixture holds no usable checkpoint")
			}
		}
	}

	svc := &metrics.ServiceStats{}
	busOpts := []events.Option{events.WithRing(4096)}
	if st != nil {
		busOpts = append(busOpts, events.WithStartSeq(sum.LastSeq), events.WithSink(func(ev events.Event) {
			name := "store.append"
			if ev.Kind == events.KindBinClosed {
				name = "store.flush" // appends a bin close and flushes the WAL
			}
			i := rec.Begin(name, int64(ev.Seq))
			err := st.Append(ev)
			rec.End(i)
			if err != nil {
				led.Fail(1, "store append: %v", err)
			}
		}))
	}
	bus := events.New(svc, busOpts...)
	bus.SeedRing(sum.Tail)
	relay := events.NewRelay(bus, events.RelayOptions{})
	eng := wd.stack.NewEngine(wd.cfg, res.shards)
	defer eng.Close()
	if engCkpt != nil {
		i := rec.Begin("core.restore", 0)
		err := eng.RestoreFrom(engCkpt)
		rec.End(i)
		if err != nil {
			return nil, err
		}
	}
	binStage := &metrics.BinStageStats{}
	binStage.SlowBinThreshold = time.Nanosecond // every close reports its spans
	binStage.OnSlowBin = func(sp metrics.BinSpans) {
		res.bins = append(res.bins, sp)
		depth := relay.Info().UpstreamDepth
		for _, c := range relay.ClientDepths() {
			depth = max(depth, c.Depth)
		}
		res.relayMax = max(res.relayMax, depth)
		// The close ran inside the current core.process span; its hook
		// calls were recorded as that span's children already.
		start := time.Now().Add(-sp.Total)
		rec.Add("core.binclose", sp.End.Unix(), start, sp.Total-rec.ChildTime(start))
	}
	eng.SetBinStageStats(binStage)

	hist := timedHistory{st: st, t: res.reads}
	srv := server.New(server.Options{
		Bus: bus, Relay: relay, Service: svc, Namer: wd.w.PoPName,
		Ingest:   func() metrics.IngestSnapshot { return eng.Stats() },
		BinStage: func() metrics.BinStageSnapshot { return binStage.Snapshot() },
		HTTP:     metrics.NewHTTPStats(),
		Store:    func() metrics.StoreSnapshot { return storeStats.Snapshot() },
	})
	var resolved []core.Outage
	resolvedTotal, incidentTotal := sum.ResolvedTotal, sum.IncidentTotal
	buildSnap := func(end time.Time) *server.Snapshot {
		i := rec.Begin("server.snapshot_build", end.Unix())
		defer rec.End(i)
		if st == nil {
			return server.BuildSnapshot(end, eng, resolved)
		}
		return server.BuildSnapshotPaged(end, eng.OpenOutageStatuses(), hist, resolvedTotal, incidentTotal)
	}
	pub := events.EngineHooks(bus)
	publish := func(id int64, f func()) {
		i := rec.Begin("events.publish", id)
		f()
		rec.End(i)
	}
	hooks := pub
	hooks.OutageOpened = func(s core.OutageStatus) { publish(0, func() { pub.OutageOpened(s) }) }
	hooks.OutageUpdated = func(s core.OutageStatus) { publish(0, func() { pub.OutageUpdated(s) }) }
	hooks.TraceRecorded = func(t core.OutageTrace) { publish(0, func() { pub.TraceRecorded(t) }) }
	hooks.OutageResolved = func(o core.Outage) {
		publish(0, func() { pub.OutageResolved(o) })
		resolved = append(resolved, o)
		resolvedTotal++
	}
	hooks.IncidentClassified = func(inc core.Incident) {
		publish(0, func() { pub.IncidentClassified(inc) })
		incidentTotal++
	}
	lastCkpt := time.Time{}
	if resume != nil {
		lastCkpt = resume.BinEnd
	}
	hooks.BinClosed = func(end time.Time) {
		publish(end.Unix(), func() { pub.BinClosed(end) })
		srv.PublishSnapshot(buildSnap(end))
		if st == nil || (!lastCkpt.IsZero() && end.Sub(lastCkpt) < checkpointInterval) {
			return
		}
		lastCkpt = end
		i := rec.Begin("core.checkpoint.capture", end.Unix())
		c, err := eng.Checkpoint()
		rec.End(i)
		if err != nil {
			led.Fail(1, "checkpoint: %v", err)
			return
		}
		i = rec.Begin("core.checkpoint.encode", end.Unix())
		enc, err := c.Encode()
		rec.End(i)
		if err != nil {
			led.Fail(1, "checkpoint encode: %v", err)
			return
		}
		res.ckptSize = append(res.ckptSize, len(enc))
		i = rec.Begin("store.save_checkpoint", end.Unix())
		err = st.SaveCheckpoint(&store.Checkpoint{EventSeq: bus.Seq(), Records: c.Records, BinEnd: end, Engine: enc})
		rec.End(i)
		if err != nil {
			led.Fail(1, "checkpoint save: %v", err)
		}
	}
	gateSkip := sum.LastSeq
	if resume != nil {
		gateSkip = sum.LastSeq - resume.EventSeq
	}
	eng.SetHooks(events.GateHooks(hooks, gateSkip))
	if st != nil {
		srv.PublishSnapshot(server.BuildSnapshotPaged(sum.LastBin, nil, hist, sum.ResolvedTotal, sum.IncidentTotal))
	}

	// Loopback HTTP, every call timed by route.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	hsrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, timed := routes[r.URL.Path]
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		if timed {
			res.http.add(route, time.Since(t0), max(sw.status, http.StatusOK))
		}
	})}
	go hsrv.Serve(ln)
	defer hsrv.Close()
	srv.SetReady(true)
	addr := ln.Addr().String()
	lastID, first := "", uint64(1)
	if pc.fixture != "" {
		from := sse.ResumeAfter(sum.LastSeq)
		lastID, first = strconv.FormatUint(from, 10), from+1
	}
	stream, err := sse.Open(addr, lastID)
	if err != nil {
		return nil, err
	}

	// Source: the unpaced records, then (serve) the paced rest.
	records := len(pc.feed.recs)
	unpacedEnd := records
	if pc.fixture != "" {
		unpacedEnd = pc.prefix
	}
	var (
		last  time.Time
		seq   int64
		paced bool
		wall0 time.Time
		due   []time.Duration
	)
	pump := func(src *live.Replayer) error {
		for {
			i := rec.Begin("live.source_next", seq)
			r, err := src.Next(ctx)
			rec.End(i)
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			if paced {
				now := time.Now()
				if wall0.IsZero() {
					wall0 = now
				}
				k := len(res.lateMS)
				res.lateMS = append(res.lateMS, ms(max(now.Sub(wall0)-due[k], 0)))
			}
			j := rec.Begin("core.process", seq)
			eng.Process(r)
			rec.End(j)
			if pc.traced && seq%64 == 0 {
				// Shard queues drain at every barrier; sample between them.
				for _, q := range eng.Stats().QueueDepths {
					res.queueMax = max(res.queueMax, q)
				}
			}
			last = r.Time
			seq++
		}
	}
	t0 := time.Now()
	src := live.NewReplayer(decoder{rec, mrt.NewReader(bytes.NewReader(pc.feed.slice(0, unpacedEnd)))}, 0)
	if resume != nil {
		i := rec.Begin("live.seek", 0)
		err := src.Seek(ctx, live.Cursor{Records: resume.Records})
		rec.End(i)
		if err != nil {
			return nil, err
		}
	}
	if err := pump(src); err != nil {
		return nil, err
	}

	var stopPoll chan struct{}
	pollDone := make(chan *poll.Poller, 1)
	if pc.fixture != "" {
		ts := make([]int64, records-pc.prefix)
		for i := range ts {
			ts[i] = pc.feed.recs[pc.prefix+i].TS
		}
		factor := sched.Factor(ts[len(ts)-1]-ts[0], pc.seconds)
		due = sched.Due(ts, factor)
		stopPoll = make(chan struct{})
		p := poll.New(&http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
			addr, int64(records), resolvedTotal, incidentTotal)
		go func() {
			p.RunUntil(stopPoll)
			pollDone <- p
		}()
		paced = true
		t0 = time.Now()
		if err := pump(live.NewReplayer(decoder{rec, mrt.NewReader(bytes.NewReader(pc.feed.slice(pc.prefix, records)))}, factor)); err != nil {
			close(stopPoll)
			<-pollDone
			return nil, err
		}
	}
	i := rec.Begin("core.flush", 0)
	eng.Flush(last)
	rec.End(i)
	srv.PublishSnapshot(buildSnap(last))
	if _, err := stream.WaitID(bus.Seq(), 30*time.Second); err != nil {
		return nil, err
	}
	res.wall = time.Since(t0)
	if stopPoll != nil {
		close(stopPoll)
		p := <-pollDone
		led.Attempted += p.Attempted()
		led.Fail(p.Failed, "poller: %d failed requests", p.Failed)
	}
	led.Attempted += int64(records)

	res.spans = rec.Spans()
	res.store, res.bus, res.relay = storeStats.Snapshot(), bus.Stats(), relay.Info()
	if st != nil {
		if res.outages, err = st.ReadOutages(0, resolvedTotal); err != nil {
			return nil, err
		}
		if res.incs, err = st.ReadIncidents(0, incidentTotal); err != nil {
			return nil, err
		}
	} else {
		res.outages, res.incs = resolved, eng.Incidents()
	}
	bus.Close()
	relay.Close()
	stream.WaitEnd(10 * time.Second)
	frames, incomplete, _ := stream.Snapshot()
	if due != nil {
		ts := make([]int64, len(pc.feed.recs))
		for i, r := range pc.feed.recs {
			ts[i] = r.TS
		}
		res.delayMS = sched.BinDelays(frames, ts, pc.prefix, records, func(i int) time.Time {
			return wall0.Add(due[i-pc.prefix])
		})
	}
	led.Attempted += int64(len(frames))
	if incomplete {
		led.Fail(1, "%s: SSE resume incomplete", pc.key())
	}
	led.Fail(sse.Gaps(frames, first), "%s: SSE id gaps", pc.key())
	if n := len(frames); n == 0 || frames[n-1].ID != bus.Seq() {
		led.Fail(1, "%s: SSE stream ended short of event %d", pc.key(), bus.Seq())
	}
	return res, nil
}

// check compares the pass's history with the sequential Detector on the
// same records.
func (wd *world) check(pc passConfig, res *passResult, led *result.Ledger) {
	d := wd.stack.NewDetector(wd.cfg)
	rd := mrt.NewReader(bytes.NewReader(pc.feed.data))
	var outs []core.Outage
	var last time.Time
	for {
		r, err := rd.Next()
		if err != nil {
			break
		}
		outs = append(outs, d.Process(r)...)
		last = r.Time
	}
	outs = append(outs, d.Flush(last)...)
	// Compared as JSON, as the API serves them; an empty history may be a
	// nil or an empty slice.
	same := func(a, b any, n, m int) bool {
		x, _ := json.Marshal(a)
		y, _ := json.Marshal(b)
		return n == m && (n == 0 || bytes.Equal(x, y))
	}
	incs := d.Incidents()
	if wd.corrupt {
		// The self-check: an oracle one incident off must fail the gate.
		incs = append(incs, core.Incident{})
	}
	if !same(res.incs, incs, len(res.incs), len(incs)) {
		led.Fail(1, "%s: %d incidents differ from the sequential detector's %d", pc.key(), len(res.incs), len(incs))
	}
	if !same(res.outages, outs, len(res.outages), len(outs)) {
		led.Fail(1, "%s: %d outages differ from the sequential detector's %d", pc.key(), len(res.outages), len(outs))
	}
	led.Attempted += 2
}
