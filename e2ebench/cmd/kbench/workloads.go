package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"kepler/e2ebench/internal/poll"
	"kepler/e2ebench/internal/result"
	"kepler/e2ebench/internal/sched"
	"kepler/e2ebench/internal/sse"
	"kepler/e2ebench/internal/stats"
)

const (
	// ingestUpdates is how many update records follow the RIB dump in the
	// ingest feed. Fixing the update count, rather than feeding whatever a
	// seed's schedule rendered, keeps the record mix alike across seeds.
	ingestUpdates = 5000
	// backfillUpdates is how many update records follow the RIB dump in
	// the backfill feed, re-stamped one per steadyStep of stream time:
	// 7 checkpoint intervals, about 1 s of checkpoint-bound ingest per
	// cycle on a 2-core host at the seed commit.
	backfillUpdates = 1000
	// serveReserve is how many of an archive's last updates the serve
	// fixture leaves out, for the paced phase; minFixtureUpdates is the
	// fewest updates a fixture's history is built from.
	serveReserve, minFixtureUpdates = 2560, 20000
	// fixtureCompactMB is keplerd's -compact-mb while it writes the serve
	// fixture, the smallest it accepts: the fixture's history passes it,
	// so most of it is sealed into segments with offset indexes.
	fixtureCompactMB = 1
	// serveRate is the release rate of the paced phase in records per
	// second: steadyStep of stream time compressed 1536-fold. At this rate
	// the driver keeps to its schedule on a 2-core host, so serve's
	// records_per_s is a keep-up check: it falls only when keplerd falls
	// behind the paced feed.
	serveRate = 256
	// serveReadCache is keplerd's -read-cache on serve: 16 decoded entries
	// per history type against a fixture history of hundreds of sealed
	// incidents, so most deep pages miss and are read off the segments.
	serveReadCache = 16
	// minCycles is the fewest daemon lifetimes an ingest or backfill run
	// measures, however long each takes: one per world of the seed.
	minCycles = worldsPerSeed
	// readBurst is the closed-loop read phase that follows each world's
	// first ingest or backfill cycle; readRound is the round latency and
	// rate are summarized over, the fewest requests a p99 can be read from.
	readBurst, readRound = 1000, 1000
	// feedChunk is the FIFO write size of unpaced feeds.
	feedChunk = 16 << 10
)

// steadyStep spaces the backfill feed's updates and serve's paced updates
// in stream time: 150 per 15-minute checkpoint interval and 10 per
// 60-second bin. As recorded, a seed's first few thousand updates may hold
// one burst or dozens, so records per checkpoint swing fourfold between
// seeds and a paced window may close one bin or hundreds; a constant
// cadence keeps both workloads about the checkpoint, store and serving
// paths.
const steadyStep = 6 * time.Second

// newRunDir makes a fresh working directory for one run's FIFO, logs and data
// dirs.
func newRunDir(o options) (string, error) {
	dir := filepath.Join(o.work, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	os.RemoveAll(dir)
	return dir, os.MkdirAll(dir, 0o755)
}

// offer is one completed FIFO write: the archive offset it ended at and
// when the pipe accepted it.
type offer struct {
	end int64
	at  time.Time
}

// feedAll writes data unpaced in chunks and notes when each was accepted.
func feedAll(f *os.File, data []byte) ([]offer, error) {
	offers := make([]offer, 0, len(data)/feedChunk+1)
	for off := 0; off < len(data); off += feedChunk {
		end := min(off+feedChunk, len(data))
		if _, err := f.Write(data[off:end]); err != nil {
			return offers, err
		}
		offers = append(offers, offer{int64(end), time.Now()})
	}
	return offers, nil
}

// offeredAt is when the record ending at byte end was in the pipe.
func offeredAt(offers []offer, end int64) time.Time {
	k := sort.Search(len(offers), func(i int) bool { return offers[i].end >= end })
	if k == len(offers) {
		return time.Time{}
	}
	return offers[k].at
}

// ledger is the run's result.Ledger with the driver's checks.
type ledger struct{ result.Ledger }

// checkStream accounts the SSE stream: ids contiguous from first through
// the last event the daemon published, no resume gap, no drops.
func (l *ledger) checkStream(stream *sse.Client, first, last uint64, st statsView) []sse.Frame {
	frames, incomplete, _ := stream.Snapshot()
	l.Attempted += int64(last - first + 1)
	if incomplete {
		l.Fail(1, "SSE resume incomplete")
	}
	l.Fail(sse.Gaps(frames, first), "SSE id gaps")
	got := uint64(0)
	if n := len(frames); n > 0 {
		got = frames[n-1].ID
	}
	if got < last {
		l.Fail(int64(last-got), "SSE missing events %d..%d", got+1, last)
	}
	l.Fail(st.drops(), "events dropped on the bus or relay")
	return frames
}

// checkHistory compares every served page with the oracle.
func (l *ledger) checkHistory(d *daemon, or *oracle) {
	h, err := fetchHistory(d)
	l.Attempted += h.requests
	l.Fail(h.failed, "history page errors: %v", err)
	if err == nil {
		for _, diff := range compareHistory(h, or) {
			l.Fail(1, "history differs from kepler -shards 1: %s", diff)
		}
	}
}

// sample is what one daemon lifetime measured.
type sample struct {
	World   int     `json:"world"`
	Setup   float64 `json:"setup_s"`
	Rate    float64 `json:"records_per_s"`
	CPUPerK float64 `json:"cpu_ms_per_krec"`
	RSS     float64 `json:"peak_rss_mb"`
	BinP50  float64 `json:"bin_delay_p50_ms"` // 0 when it closed too few bins
}

// summary turns a run's samples into the end-to-end metrics. Set-up time
// is the median of every daemon start. Each world's other samples are
// summarized by their median and the worlds' medians are averaged: worlds
// differ in cost, and a seed should stand for their mix.
// Read rounds of readRound requests are summarized by the quartile on the
// good side — the lower quartile of latencies, the upper of rates —
// because on a shared host CPU steal only ever slows a round down.
type summary struct {
	samples  []sample
	binDelay []float64 // ms, pooled
	reads    []*poll.Poller
}

func (s *summary) perWorld(get func(sample) float64) float64 {
	by := map[int][]float64{}
	for _, x := range s.samples {
		if v := get(x); v > 0 {
			by[x.World] = append(by[x.World], v)
		}
	}
	var sum float64
	for _, xs := range by {
		sum += stats.Median(xs)
	}
	return sum / float64(max(len(by), 1))
}

func (s *summary) metrics(rep *report) (map[string]result.Metric, error) {
	var (
		lat          []float64
		step         []time.Duration
		notMod, reqs int64
	)
	for _, p := range s.reads {
		lat, step = append(lat, p.Lat...), append(step, p.Step...)
		notMod, reqs = notMod+p.NotModified, reqs+p.Attempted()
	}
	p50s, p99s, rates := rounds(lat, step, readRound)
	setups := make([]float64, len(s.samples))
	for i, x := range s.samples {
		setups[i] = x.Setup
	}
	m := map[string]result.Metric{
		"setup_s":         {Value: stats.Median(setups), Unit: "s"},
		"records_per_s":   {Value: s.perWorld(func(x sample) float64 { return x.Rate }), Unit: "rec/s"},
		"cpu_ms_per_krec": {Value: s.perWorld(func(x sample) float64 { return x.CPUPerK }), Unit: "ms"},
		"peak_rss_mb":     {Value: s.perWorld(func(x sample) float64 { return x.RSS }), Unit: "MB"},
	}
	var errs []error
	if len(p50s) == 0 {
		errs = append(errs, fmt.Errorf("reads: fewer than %d requests", readRound))
	} else {
		p50, _ := stats.Quartiles(p50s)
		_, rate := stats.Quartiles(rates)
		m["read_p50_ms"] = result.Metric{Value: p50, Unit: "ms"}
		m["reads_per_s"] = result.Metric{Value: rate, Unit: "req/s"}
	}
	// Figures too unsteady to gate stay in the report, with sample counts:
	// over ten seeds the serve bin delay spread by 0.32 of its median and
	// the read p99 by 0.35 (ingest) to 0.50 (serve).
	extra := map[string]result.Metric{
		"bin_delay_p50_ms":   {Value: s.perWorld(func(x sample) float64 { return x.BinP50 }), Unit: "ms"},
		"bin_delay_samples":  {Value: float64(len(s.binDelay)), Unit: "count"},
		"read_samples":       {Value: float64(len(lat)), Unit: "count"},
		"not_modified_ratio": {Value: float64(notMod) / float64(max(reqs, 1)), Unit: "ratio"},
	}
	if v, err := stats.Percentile(s.binDelay, 0.99); err == nil {
		extra["bin_delay_p99_ms"] = result.Metric{Value: v, Unit: "ms"}
	}
	if len(p99s) > 0 {
		p99, _ := stats.Quartiles(p99s)
		extra["read_p99_ms"] = result.Metric{Value: p99, Unit: "ms"}
	}

	rep.Extra = extra
	rep.Detail["samples"] = s.samples
	rep.Detail["read_rounds"] = map[string][]float64{"p50_ms": p50s, "p99_ms": p99s, "per_s": rates}
	return m, errors.Join(errs...)
}

// binP50 is the median of one daemon's bin delays, or 0 below 20 samples.
func binP50(delays []float64) float64 {
	v, err := stats.Percentile(delays, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// feedWorkload is ingest (in memory) or backfill (fresh -data-dir): the
// archive written into keplerd as fast as it reads, one SSE client
// draining the stream, repeated over fresh daemons until the measured
// time is spent.
type feedWorkload struct{ durable bool }

func (w *feedWorkload) run(o options, bin string, in *inputs, rep *report) (result.Result, error) {
	var (
		feeds   []*feed
		oracles []*oracle
	)
	archives, err := in.load(feedArchives, worldsPerSeed)
	if err != nil {
		return result.Result{}, err
	}
	for _, a := range archives {
		var f *feed
		var err error
		if w.durable {
			f, err = a.steady(backfillUpdates, steadyStep)
		} else {
			f, err = a.prefix(ingestUpdates)
		}
		if err != nil {
			return result.Result{}, err
		}
		or, err := f.oracle(in)
		if err != nil {
			return result.Result{}, err
		}
		if o.corrupt {
			or = corrupted(or)
		}
		feeds, oracles = append(feeds, f), append(oracles, or)
	}
	runDir, err := newRunDir(o)
	if err != nil {
		return result.Result{}, err
	}
	defer os.RemoveAll(runDir)

	var (
		led      ledger
		sum      summary
		measured time.Duration
		cycles   int
	)
	for measured < time.Duration(o.seconds*float64(time.Second)) || cycles < minCycles {
		var extra []string
		if w.durable {
			dataDir := filepath.Join(runDir, fmt.Sprintf("data-%d", cycles))
			extra = []string{"-data-dir", dataDir}
		}
		k := cycles % len(feeds)
		interval, err := w.cycle(bin, runDir, k, feeds, oracles[k], extra, &led, &sum, rep, cycles)
		if err != nil {
			return result.Result{}, err
		}
		measured += interval
		cycles++
	}
	rep.Cycles = cycles
	m, err := sum.metrics(rep)
	if err != nil {
		return result.Result{}, err
	}
	rep.Detail["problems"] = led.Problems
	return led.Result(m), nil
}

// cycle is one daemon lifetime: start, feed, drain, check, stop. It
// returns the measured interval, first byte offered to the last event
// received.
func (w *feedWorkload) cycle(bin, runDir string, world int, feeds []*feed, or *oracle,
	extra []string, led *ledger, sum *summary, rep *report, cycle int) (time.Duration, error) {
	f := feeds[world]
	ts := f.ts()
	d, err := startDaemon(bin, runDir, f.world, extra...)
	if err != nil {
		return 0, err
	}
	defer d.stop(syscall.SIGKILL, 0)
	rep.KeplerdArg = d.args
	if err := d.waitOpened(30 * time.Second); err != nil {
		return 0, err
	}
	healthy, err := d.waitHealthy(30 * time.Second)
	if err != nil {
		return 0, err
	}
	stream, err := sse.Open(d.addr, "")
	if err != nil {
		return 0, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	offers, err := feedAll(d.fifo, f.data)
	d.closeFeed()
	led.Attempted += int64(len(ts))
	if err != nil {
		return 0, fmt.Errorf("feeding keplerd: %w", err)
	}
	dm, err := d.waitDrained(150 * time.Second)
	if err != nil {
		return 0, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return 0, err
	}
	led.Fail(int64(len(ts)-dm.records), "keplerd drained %d of %d records", dm.records, len(ts))
	st, raw, err := scrapeStats(d)
	if err != nil {
		return 0, err
	}
	rep.Stats = raw
	var published uint64
	if st.Bus != nil {
		published = uint64(st.Bus.Published)
	}
	lastAt, err := stream.WaitID(published, 30*time.Second)
	if err != nil {
		return 0, err
	}
	end := dm.at
	if lastAt.After(end) {
		end = lastAt
	}
	interval := end.Sub(t0)
	rss, err := d.peakRSS()
	if err != nil {
		return 0, err
	}
	led.checkHistory(d, or)
	if cycle < len(feeds) {
		// Read phase, after the measured interval, on each world's first
		// daemon: a closed-loop burst against the drained daemon holding
		// this feed's history.
		p := poll.New(d.client, d.addr, f.world, st.Resolved, st.Incidents)
		p.RunN(readBurst)
		led.Attempted += p.Attempted()
		led.Fail(p.Failed, "read phase: %d failed requests", p.Failed)
		sum.reads = append(sum.reads, p)
	}
	d.stop(syscall.SIGTERM, 20*time.Second)
	stream.WaitEnd(10 * time.Second)
	frames := led.checkStream(stream, 1, published, st)

	delays := sched.BinDelays(frames, ts, f.ribEnd, len(ts), func(i int) time.Time {
		return offeredAt(offers, f.recs[i].End)
	})
	sum.binDelay = append(sum.binDelay, delays...)
	sum.samples = append(sum.samples, sample{
		World:   world,
		Setup:   healthy.Sub(d.started).Seconds(),
		Rate:    float64(len(ts)) / interval.Seconds(),
		CPUPerK: float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(ts)) * 1000,
		RSS:     rss,
		BinP50:  binP50(delays),
	})
	return interval, nil
}

// corrupted returns a copy of the oracle with its first outage (or, with
// none, one incident count) altered: the correctness gate must reject it.
func corrupted(or *oracle) *oracle {
	c := &oracle{Outages: append([]string(nil), or.Outages...), Incidents: or.Incidents, Counts: map[string]int{}}
	for k, v := range or.Counts {
		c.Counts[k] = v
	}
	if len(c.Outages) > 0 {
		c.Outages[0] += " (corrupted)"
	} else {
		c.Counts["link"]++
	}
	return c
}

// serveWorkload restarts keplerd on a data dir it wrote earlier, replays
// the checkpointed prefix unpaced, then releases the next records
// open-loop on their compressed stream timing while a closed-loop poller
// reads and one SSE client times bin closes. Each of the seed's worlds
// gets its own restart and an equal share of the paced time.
type serveWorkload struct{}

// fixture is a data dir the keplerd under test wrote over an archive's
// first fixtureEnd records, killed once idle.
type fixture struct {
	Dir          string  `json:"-"`
	Records      int     `json:"records"`
	Events       uint64  `json:"events"`
	Checkpoints  int64   `json:"checkpoint_saves"`
	Segments     int64   `json:"segments_sealed"`
	CompactMB    int     `json:"compact_mb"`
	CkptInterval string  `json:"checkpoint_interval"`
	BuildS       float64 `json:"build_s"`
}

// fixture builds (once per archive and build) the serve fixture: keplerd
// ingests the fixture's records from a FIFO that stays open, so the stream
// never ends and no end-of-stream flush is recorded, and is SIGKILLed once
// it has processed every record and published nothing for a while. It runs
// at the smallest -compact-mb, so the history is sealed into segments, and
// with a checkpoint interval that puts its second and last checkpoint at
// its last bin close, so a restart resumes near the end of months of
// history with only the final bin to re-ingest.
func (w *serveWorkload) fixture(in *inputs, a *archive) (*fixture, error) {
	f, err := a.serveFeed(0)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(a.dir, fmt.Sprintf("fixture-%s-%d", in.build, len(f.recs)))
	meta := dir + ".json"
	if b, err := os.ReadFile(meta); err == nil {
		fx := &fixture{Dir: dir}
		if json.Unmarshal(b, fx) == nil {
			return fx, nil
		}
	}
	os.RemoveAll(dir)
	tmp := dir + ".build"
	os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	// The first checkpoint is taken when the first record's bin closes, the
	// next at the first close a whole interval later: the last close, that
	// of the bin before the final one, when the interval spans the two.
	binEnd := func(ts int64) int64 { return (ts/sched.BinMicros + 1) * sched.BinMicros }
	final := binEnd(f.recs[len(f.recs)-1].TS)
	j := sort.Search(len(f.recs), func(i int) bool { return binEnd(f.recs[i].TS) >= final }) - 1
	if j < 0 || binEnd(f.recs[j].TS) == binEnd(f.recs[0].TS) {
		return nil, fmt.Errorf("world %d: the fixture's records span fewer than three bins", a.world)
	}
	interval := time.Duration(binEnd(f.recs[j].TS)-binEnd(f.recs[0].TS)) * time.Microsecond
	fx := &fixture{Dir: dir, Records: len(f.recs), CompactMB: fixtureCompactMB, CkptInterval: interval.String()}
	t0 := time.Now()
	d, err := startDaemon(in.bin, tmp, a.world, "-data-dir", filepath.Join(tmp, "data"),
		"-compact-mb", strconv.Itoa(fixtureCompactMB), "-checkpoint-interval", fx.CkptInterval)
	if err != nil {
		return nil, err
	}
	defer d.stop(syscall.SIGKILL, 0)
	if err := d.waitOpened(30 * time.Second); err != nil {
		return nil, err
	}
	if _, err := feedAll(d.fifo, f.data); err != nil {
		return nil, err
	}
	st, err := waitIdle(d, len(f.recs), 150*time.Second)
	if err != nil {
		return nil, err
	}
	d.stop(syscall.SIGKILL, 0)
	fx.BuildS = time.Since(t0).Seconds()
	fx.Events = uint64(st.Bus.Published)
	if st.Store != nil {
		fx.Checkpoints, fx.Segments = st.Store.CheckpointSaves, st.Store.SegmentsSealed
	}
	if fx.Checkpoints < 2 || fx.Segments < 1 {
		return nil, fmt.Errorf("world %d: the fixture holds %d checkpoints and %d sealed segments, want a resume checkpoint near its end and sealed history",
			a.world, fx.Checkpoints, fx.Segments)
	}
	if err := os.Rename(filepath.Join(tmp, "data"), dir); err != nil {
		return nil, err
	}
	os.RemoveAll(tmp)
	b, _ := json.Marshal(fx)
	return fx, os.WriteFile(meta, b, 0o644)
}

// waitIdle waits until keplerd has taken in n records and its event count
// has held still for half a second, and returns its stats then.
func waitIdle(d *daemon, n int, timeout time.Duration) (statsView, error) {
	deadline := time.Now().Add(timeout)
	var last int64 = -1
	for time.Now().Before(deadline) {
		st, _, err := scrapeStats(d)
		if err != nil {
			return st, err
		}
		if st.Ingest != nil && st.Ingest.Records == int64(n) && st.Bus != nil {
			if st.Bus.Published == last {
				return st, nil
			}
			last = st.Bus.Published
		}
		time.Sleep(500 * time.Millisecond)
	}
	return statsView{}, fmt.Errorf("keplerd did not go idle after %d records", n)
}

func (w *serveWorkload) run(o options, bin string, in *inputs, rep *report) (result.Result, error) {
	runDir, err := newRunDir(o)
	if err != nil {
		return result.Result{}, err
	}
	defer os.RemoveAll(runDir)
	var (
		led      ledger
		sum      summary
		late     []float64
		fixtures []*fixture
	)
	archives, err := in.load(historyArchives, worldsPerSeed)
	if err != nil {
		return result.Result{}, err
	}
	share := o.seconds / float64(len(archives))
	for k, a := range archives {
		fx, err := w.fixture(in, a)
		if err != nil {
			return result.Result{}, fmt.Errorf("serve fixture: %w", err)
		}
		fixtures = append(fixtures, fx)
		total, err := a.serveFeed(int(serveRate * share))
		if err != nil {
			return result.Result{}, err
		}
		or, err := total.oracle(in)
		if err != nil {
			return result.Result{}, err
		}
		if o.corrupt {
			or = corrupted(or)
		}
		l, err := w.world(o, bin, filepath.Join(runDir, fmt.Sprintf("data-%d", k)), k, fx, total, or, share, &led, &sum, rep)
		if err != nil {
			return result.Result{}, err
		}
		late = append(late, l...)
	}
	m, err := sum.metrics(rep)
	if err != nil {
		return result.Result{}, err
	}
	for name, q := range map[string]float64{"driver_late_p50_ms": 0.5, "driver_late_p99_ms": 0.99} {
		if v, err := stats.Percentile(late, q); err == nil {
			rep.Extra[name] = result.Metric{Value: v, Unit: "ms"}
		}
	}
	rep.Detail["fixtures"] = fixtures
	rep.Detail["compression"] = float64(steadyStep/time.Second) * serveRate
	rep.Detail["problems"] = led.Problems
	return led.Result(m), nil
}

// world restarts keplerd on a fresh copy of the fixture, replays the
// fixture's records, paces the rest of total for seconds, and checks and
// samples the daemon. It returns the driver's lateness per record, in ms.
func (w *serveWorkload) world(o options, bin, dataDir string, k int, fx *fixture, total *feed, or *oracle,
	seconds float64, led *ledger, sum *summary, rep *report) ([]float64, error) {
	if err := copyDir(fx.Dir, dataDir); err != nil {
		return nil, err
	}
	d, err := startDaemon(bin, filepath.Dir(dataDir), total.world,
		"-data-dir", dataDir, "-read-cache", strconv.Itoa(serveReadCache))
	if err != nil {
		return nil, err
	}
	defer d.stop(syscall.SIGKILL, 0)
	rep.KeplerdArg = d.args
	if err := d.waitOpened(30 * time.Second); err != nil {
		return nil, err
	}
	fed := make(chan error, 1)
	go func() {
		_, err := feedAll(d.fifo, total.data[:total.recs[fx.Records-1].End])
		fed <- err
	}()
	healthy, err := d.waitHealthy(60 * time.Second)
	if err != nil {
		return nil, err
	}
	select {
	case <-d.resumed:
	default:
		led.Fail(1, "world %d: recovery did not resume from a checkpoint", k)
	}
	// Resume the stream from before the restart: the recovered backlog is
	// replayed first, then the live events.
	from := sse.ResumeAfter(fx.Events)
	stream, err := sse.Open(d.addr, strconv.FormatUint(from, 10))
	if err != nil {
		return nil, err
	}
	if err := <-fed; err != nil {
		return nil, fmt.Errorf("replaying the fixture prefix: %w", err)
	}

	recs := total.recs[fx.Records:]
	ts := make([]int64, len(recs))
	for i, r := range recs {
		ts[i] = r.TS
	}
	due := sched.Due(ts, sched.Factor(ts[len(ts)-1]-ts[0], seconds))
	done := make([]time.Duration, len(recs))
	st0, _, err := scrapeStats(d)
	if err != nil {
		return nil, err
	}
	p := poll.New(d.client, d.addr, o.seed*worldsPerSeed+int64(k), st0.Resolved, st0.Incidents)
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		p.RunUntil(stopPoll)
		close(pollDone)
	}()
	stopPoller := func() {
		if stopPoll != nil {
			close(stopPoll)
			<-pollDone
			stopPoll = nil
		}
	}
	defer stopPoller()

	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < len(recs); {
		if wait := due[i] - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		// Coalesce every record already due into one write.
		j := i + 1
		now := time.Since(t0)
		for j < len(recs) && due[j] <= now {
			j++
		}
		if _, err := d.fifo.Write(total.data[recs[i].Off:recs[j-1].End]); err != nil {
			return nil, fmt.Errorf("paced release: %w", err)
		}
		at := time.Since(t0)
		for k := i; k < j; k++ {
			done[k] = at
		}
		i = j
	}
	d.closeFeed()
	led.Attempted += int64(len(recs))
	dm, err := d.waitDrained(120 * time.Second)
	stopPoller()
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	led.Attempted += p.Attempted()
	led.Fail(p.Failed, "world %d: poller: %d failed requests", k, p.Failed)
	sum.reads = append(sum.reads, p)
	st, raw, err := scrapeStats(d)
	if err != nil {
		return nil, err
	}
	if st.Store == nil || st.Store.ResumeRecords <= 0 {
		led.Fail(1, "world %d: recovery restored no checkpoint", k)
	} else if want := len(total.recs) - int(st.Store.ResumeRecords); dm.records != want {
		led.Fail(1, "world %d: keplerd ingested %d records after its checkpoint, want %d", k, dm.records, want)
	}
	rep.Stats = raw
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	led.checkHistory(d, or)
	d.stop(syscall.SIGTERM, 20*time.Second)
	stream.WaitEnd(10 * time.Second)
	frames, _, bye := stream.Snapshot()
	if !bye {
		led.Fail(1, "world %d: SSE stream ended without bye", k)
	}
	var last uint64
	if n := len(frames); n > 0 {
		last = frames[n-1].ID
	}
	frames = led.checkStream(stream, from+1, last, st)
	end := dm.at
	for _, f := range frames {
		if f.At.After(end) {
			end = f.At
		}
	}
	delays := sched.BinDelays(frames, total.ts(), fx.Records, len(total.recs), func(i int) time.Time {
		return t0.Add(due[i-fx.Records])
	})
	sum.binDelay = append(sum.binDelay, delays...)
	sum.samples = append(sum.samples, sample{
		World:   k,
		Setup:   healthy.Sub(d.started).Seconds(),
		Rate:    float64(len(recs)) / end.Sub(t0).Seconds(),
		CPUPerK: float64(cpu1-cpu0) / float64(time.Millisecond) / float64(len(recs)) * 1000,
		RSS:     rss,
		BinP50:  binP50(delays),
	})
	var late []float64
	for _, l := range sched.Late(due, done) {
		late = append(late, float64(l)/float64(time.Millisecond))
	}
	return late, nil
}

// copyDir copies a flat-or-nested data dir.
func copyDir(src, dst string) error {
	return exec.Command("cp", "-r", src, dst).Run()
}
