//go:build kbtrace

package main

import (
	"fmt"
	"strings"
	"time"

	"kepler/e2ebench/internal/result"
	"kepler/e2ebench/internal/span"
	"kepler/e2ebench/internal/stats"
	"kepler/internal/metrics"
)

// derive turns the passes into the per-layer metrics. Each comes from the
// workload it is meant to explain: decode, shard apply and bin close from
// ingest, checkpoint and the store's write side from backfill, recovery,
// reads, events and handlers from serve.
func derive(m map[string]result.Metric, res map[string]*passResult) error {
	for _, k := range []string{"ingest/plain", "ingest/traced", "ingest.shards1/plain", "backfill/plain",
		"backfill/traced", "serve/plain", "serve/traced"} {
		if res[k] == nil {
			return fmt.Errorf("missing pass %s", k)
		}
	}
	put := func(name string, v float64, unit string) { m[name] = result.Metric{Value: v, Unit: unit} }
	ing, bf, sv := res["ingest/traced"], res["backfill/traced"], res["serve/traced"]
	ingT, bfT, svT := totals(ing.spans), totals(bf.spans), totals(sv.spans)

	// Tracing overhead and the single-threaded baseline.
	for _, w := range []string{"ingest", "backfill", "serve"} {
		put("trace.overhead_frac."+w, res[w+"/traced"].wall.Seconds()/res[w+"/plain"].wall.Seconds()-1, "ratio")
	}
	recs := float64(len(ing.spansNamed("core.process")))
	put("ingest.records_per_s.sharded", recs/res["ingest/plain"].wall.Seconds(), "rec/s")
	put("ingest.records_per_s.shards1", recs/res["ingest.shards1/plain"].wall.Seconds(), "rec/s")

	// ingest: decode, per-record apply, bin close stages, snapshots.
	put("mrt.decode_ns_per_rec", float64(ingT["mrt.decode"].Total)/recs, "ns")
	put("core.process_ns_per_rec", float64(ingT["core.process"].Self)/recs, "ns")
	put("core.shard_queue_depth_max", float64(ing.queueMax), "count")
	var closes []float64
	for k, r := range res {
		if strings.HasPrefix(k, "ingest") {
			for _, b := range r.bins {
				closes = append(closes, ms(b.Total))
			}
		}
	}
	p99, err := stats.Percentile(closes, 0.99)
	if err != nil {
		return fmt.Errorf("core.binclose_p99_ms: %w", err)
	}
	put("core.binclose_p99_ms", p99, "ms")
	for name, stage := range map[string]int{"barrier": metrics.StageBarrier, "merge": metrics.StageMerge,
		"classify": metrics.StageClassify, "finish": metrics.StageFinish, "hooks": metrics.StageHooks} {
		var sum time.Duration
		for _, b := range ing.bins {
			sum += b.Stage[stage]
		}
		put("core.binclose."+name+"_ms", ms(sum)/float64(max(len(ing.bins), 1)), "ms")
	}
	put("server.snapshot_build_us", mean(ingT["server.snapshot_build"], us), "us")

	// backfill: checkpoint cost and the store's write side.
	put("core.checkpoint.count", float64(len(bf.ckptSize)), "count")
	put("core.checkpoint.capture_ms", mean(bfT["core.checkpoint.capture"], ms), "ms")
	put("core.checkpoint.encode_ms", mean(bfT["core.checkpoint.encode"], ms), "ms")
	bytes := 0
	for _, b := range bf.ckptSize {
		bytes += b
	}
	put("core.checkpoint.bytes", float64(bytes)/float64(max(len(bf.ckptSize), 1)), "bytes")
	put("store.save_checkpoint_ms", mean(bfT["store.save_checkpoint"], ms), "ms")
	ckpt := bfT["core.checkpoint.capture"].Total + bfT["core.checkpoint.encode"].Total + bfT["store.save_checkpoint"].Total
	put("core.checkpoint.wall_frac", ckpt.Seconds()/bf.wall.Seconds(), "ratio")
	put("store.append_us", mean(bfT["store.append"], us), "us")
	put("store.flush_ms", mean(bfT["store.flush"], ms), "ms")
	put("store.compactions", float64(bf.store.Compactions), "count")
	put("store.appended_bytes", float64(bf.store.AppendedBytes), "bytes")

	// serve: recovery, the paced source, reads, events and handlers.
	put("core.checkpoint.decode_ms", ms(svT["core.checkpoint.decode"].Total), "ms")
	put("core.restore_ms", ms(svT["core.restore"].Total), "ms")
	put("store.open_ms", ms(svT["store.open"].Total), "ms")
	put("store.summary_ms", ms(svT["store.summary"].Total), "ms")
	put("store.load_checkpoint_ms", ms(svT["store.load_checkpoint"].Self), "ms")
	put("live.source_wait_frac", svT["live.source_next"].Self.Seconds()/sv.wall.Seconds(), "ratio")
	for name, q := range map[string]float64{"driver.late_p50_ms": 0.5, "driver.late_p99_ms": 0.99} {
		v, err := stats.Percentile(res["serve/plain"].lateMS, q)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		put(name, v, "ms")
	}
	delay, err := stats.Percentile(res["serve/plain"].delayMS, 0.5)
	if err != nil {
		return fmt.Errorf("bin_delay_p50_ms: %w", err)
	}
	put("bin_delay_p50_ms", delay, "ms")
	var reads time.Duration
	for _, d := range sv.reads.by["store.read_page"] {
		reads += d
	}
	put("store.read_page_us", us(reads)/float64(max(len(sv.reads.by["store.read_page"]), 1)), "us")
	lookups := sv.store.ReadCacheHits + sv.store.ReadCacheMisses
	put("store.cache_hit_ratio", float64(sv.store.ReadCacheHits)/float64(max(lookups, 1)), "ratio")
	put("events.publish_us", mean(svT["events.publish"], us), "us")
	drops := sv.bus.Dropped + sv.relay.Dropped + sv.relay.Shed + sv.relay.UpstreamDropped
	put("events.drop_ratio", float64(drops)/float64(max(sv.bus.Published, 1)), "ratio")
	put("events.relay_depth_max", float64(sv.relayMax), "count")
	requests := 0
	for _, route := range routes {
		ds := sv.http.by[route]
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		requests += len(ds)
		put("server.handler_us."+route, us(sum)/float64(max(len(ds), 1)), "us")
	}
	put("server.not_modified_ratio", float64(sv.http.status[304])/float64(max(requests, 1)), "ratio")
	return nil
}

func totals(spans []span.Span) map[string]span.Total {
	out := map[string]span.Total{}
	for _, t := range span.Totals(spans) {
		out[t.Name] = t
	}
	return out
}

// mean is a span's average duration in the unit conv gives.
func mean(t span.Total, conv func(time.Duration) float64) float64 {
	if t.Count == 0 {
		return 0
	}
	return conv(t.Total) / float64(t.Count)
}

func (r *passResult) spansNamed(name string) []span.Span {
	var out []span.Span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
