//go:build kbtrace

// Command ktrace is the benchmark's traced run: it wires the pipeline
// keplerd wires — decode → Engine → EngineHooks → Bus with the store sink
// → Relay → one snapshot per bin → Handler() on loopback — in one process,
// records a span around every call into those public functions, and turns
// the spans into per-layer metrics. Each workload runs once untraced and
// once traced (ingest also at one shard, the single-threaded baseline), so
// the tracing overhead is stated beside the numbers it perturbs. It imports
// the repository's internal packages and is built only with -tags kbtrace,
// by kbench --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kepler/e2ebench/internal/mrtlite"
	"kepler/e2ebench/internal/result"
	"kepler/e2ebench/internal/span"
	"kepler/internal/core"
	"kepler/internal/pipeline"
	"kepler/internal/topology"
)

const (
	// binClosesP99 is how many bin closes a p99 needs (ten beyond it).
	binClosesP99 = 1000
	// maxPasses bounds the run however few bins the ingest feed closes.
	maxPasses = 40
)

type options struct {
	seed           int64
	ingest         string
	backfill       string
	serve          string
	fixture        string
	fixtureRecords int
	readCache      int
	seconds        float64
	work           string
	corrupt        bool
}

// output is what kbench relays: the contract's result plus the span
// tables behind it.
type output struct {
	result.Result
	Spans    map[string][]spanRow   `json:"spans"`
	Passes   map[string]passSummary `json:"passes"`
	Problems []string               `json:"problems,omitempty"`
}

type spanRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

type passSummary struct {
	WallS   float64 `json:"wall_s"`
	Records int     `json:"records"`
	Traced  bool    `json:"traced"`
	Shards  int     `json:"shards"`
}

func main() {
	var o options
	flag.Int64Var(&o.seed, "seed", 1, "world seed the feeds were generated with")
	flag.StringVar(&o.ingest, "ingest", "", "ingest feed (MRT-lite)")
	flag.StringVar(&o.backfill, "backfill", "", "backfill feed (MRT-lite)")
	flag.StringVar(&o.serve, "serve", "", "serve feed (MRT-lite): the fixture's records, then the paced ones")
	flag.StringVar(&o.fixture, "fixture", "", "serve fixture: a data dir keplerd wrote over the first -fixture-records")
	flag.IntVar(&o.fixtureRecords, "fixture-records", 0, "records the fixture covers")
	flag.IntVar(&o.readCache, "read-cache", 4096, "the serve pass's store read cache, in entries per history type")
	flag.BoolVar(&o.corrupt, "corrupt-oracle", false, "self-check: perturb the sequential detector's report so the correctness gate must fail")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall seconds of the paced phase")
	flag.StringVar(&o.work, "work", "", "working directory for data dirs")
	flag.Parse()
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ktrace:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

// world is the seed's detection stack, shared by every pass.
type world struct {
	w       *topology.World
	stack   *pipeline.Stack
	cfg     core.Config
	corrupt bool // perturb the oracle
}

// feed is one pass's input: an archive and its record framing.
type feed struct {
	data []byte
	recs []mrtlite.Rec
}

func loadFeed(path string) (*feed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, err := mrtlite.Index(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &feed{data, recs}, nil
}

// slice returns records [from, to) as an archive of their own.
func (f *feed) slice(from, to int) []byte {
	b := append([]byte(nil), f.data[:mrtlite.HeaderLen]...)
	if from >= to {
		return b
	}
	return append(b, f.data[f.recs[from].Off:f.recs[to-1].End]...)
}

func run(o options) (*output, error) {
	feeds := map[string]*feed{}
	for name, path := range map[string]string{"ingest": o.ingest, "backfill": o.backfill, "serve": o.serve} {
		f, err := loadFeed(path)
		if err != nil {
			return nil, err
		}
		feeds[name] = f
	}
	cfg := topology.DefaultConfig()
	cfg.Seed = o.seed
	tw, err := topology.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// keplerd's detection defaults.
	kcfg := core.DefaultConfig()
	kcfg.Tfail = 0.10
	kcfg.ReportUnresolved = true
	kcfg.Tracing = true
	kcfg.FeedSilence = 30 * time.Minute
	wd := &world{w: tw, stack: pipeline.Build(tw, 77), cfg: kcfg, corrupt: o.corrupt}

	ing, bf, sv := feeds["ingest"], feeds["backfill"], feeds["serve"]
	passes := []passConfig{
		{name: "ingest", feed: ing},
		{name: "ingest", feed: ing, traced: true},
		{name: "ingest.shards1", feed: ing, shards: 1},
		{name: "backfill", feed: bf, durable: true},
		{name: "backfill", feed: bf, durable: true, traced: true},
		{name: "serve", feed: sv, durable: true, fixture: o.fixture, prefix: o.fixtureRecords, readCache: o.readCache, seconds: o.seconds},
		{name: "serve", feed: sv, durable: true, fixture: o.fixture, prefix: o.fixtureRecords, readCache: o.readCache, seconds: o.seconds, traced: true},
	}
	out := &output{Spans: map[string][]spanRow{}, Passes: map[string]passSummary{}}
	m := map[string]result.Metric{}
	led := &result.Ledger{}
	results := map[string]*passResult{}
	closes := 0
	for i := 0; i < len(passes); i++ {
		pc := passes[i]
		pc.dir = filepath.Join(o.work, fmt.Sprintf("pass-%d", i))
		res, err := wd.pass(pc, led)
		os.RemoveAll(pc.dir)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", pc.key(), err)
		}
		wd.check(pc, res, led)
		results[pc.key()] = res
		out.Passes[pc.key()] = passSummary{WallS: res.wall.Seconds(), Records: len(pc.feed.recs), Traced: pc.traced, Shards: res.shards}
		if pc.traced {
			out.Spans[pc.name] = rows(res.spans)
		}
		if pc.feed == ing {
			closes += len(res.bins)
		}
		// Repeat untraced ingest passes until the bin-close p99 has the
		// 1000 closes it needs.
		if i == len(passes)-1 && closes < binClosesP99 && len(passes) < maxPasses {
			passes = append(passes, passConfig{name: fmt.Sprintf("ingest.r%d", len(passes)), feed: ing})
		}
	}
	if err := derive(m, results); err != nil {
		return nil, err
	}
	out.Result, out.Problems = led.Result(m), led.Problems
	return out, nil
}

func rows(spans []span.Span) []spanRow {
	var out []spanRow
	for _, t := range span.Totals(spans) {
		out = append(out, spanRow{t.Name, t.Count, ms(t.Total), ms(t.Self)})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
