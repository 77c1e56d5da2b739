package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"kepler/e2ebench/internal/poll"
	"kepler/e2ebench/internal/stats"
)

// statsView is the part of /v1/stats the driver checks.
type statsView struct {
	Resolved  int `json:"resolved_outages"`
	Incidents int `json:"incidents"`
	Ingest    *struct {
		Records int64 `json:"records"`
	} `json:"ingest"`
	Bus *struct {
		Published int64 `json:"published"`
		Dropped   int64 `json:"dropped"`
	} `json:"bus"`
	Relay *struct {
		UpstreamDropped int64 `json:"upstream_dropped"`
		Dropped         int64 `json:"dropped"`
		Shed            int64 `json:"shed"`
	} `json:"relay"`
	Store *struct {
		ResumeRecords   int64 `json:"resume_records"`
		CheckpointSaves int64 `json:"checkpoint_saves"`
		SegmentsSealed  int64 `json:"segments_sealed"`
	} `json:"store"`
}

func (s statsView) drops() int64 {
	var n int64
	if s.Bus != nil {
		n += s.Bus.Dropped
	}
	if s.Relay != nil {
		n += s.Relay.UpstreamDropped + s.Relay.Dropped + s.Relay.Shed
	}
	return n
}

func scrapeStats(d *daemon) (statsView, json.RawMessage, error) {
	code, body, _, err := poll.Get(d.client, d.addr, "/v1/stats", "")
	if err != nil {
		return statsView{}, nil, err
	}
	if code != http.StatusOK {
		return statsView{}, nil, fmt.Errorf("/v1/stats: status %d", code)
	}
	var v statsView
	if err := json.Unmarshal(body, &v); err != nil {
		return statsView{}, nil, err
	}
	return v, json.RawMessage(body), nil
}

// rounds splits a sequence of requests into consecutive rounds of n and
// returns each round's median and p99 latency (ms) and request rate (1/s).
func rounds(lat []float64, step []time.Duration, n int) (p50s, p99s, rates []float64) {
	for from := 0; from+n <= len(lat); from += n {
		round := lat[from : from+n]
		p99, err := stats.Percentile(round, 0.99)
		if err != nil {
			break
		}
		var busy time.Duration
		for _, d := range step[from : from+n] {
			busy += d
		}
		p50s = append(p50s, stats.Median(round))
		p99s = append(p99s, p99)
		rates = append(rates, float64(n)/busy.Seconds())
	}
	return p50s, p99s, rates
}

// History pages as the oracle prints them.

type popView struct {
	Ref  string `json:"ref"`
	Name string `json:"name"`
}

type outageView struct {
	PoP           popView   `json:"pop"`
	Start         time.Time `json:"start"`
	End           time.Time `json:"end"`
	AffectedASes  []uint32  `json:"affected_ases"`
	DivertedPaths int       `json:"diverted_paths"`
}

// line renders the outage exactly as cmd/kepler prints it.
func (o outageView) line() string {
	name := o.PoP.Name
	if name == "" {
		name = o.PoP.Ref
	}
	return fmt.Sprintf("OUTAGE %-30q %s  %s -> %s (%s)  affected-ASes=%d paths=%d",
		name, o.PoP.Ref, o.Start.Format("2006-01-02 15:04"), o.End.Format("15:04"),
		o.End.Sub(o.Start).Round(time.Minute), len(o.AffectedASes), o.DivertedPaths)
}

type incidentView struct {
	Time         time.Time `json:"time"`
	Kind         string    `json:"kind"`
	SignalPoP    popView   `json:"signal_pop"`
	AffectedASes []uint32  `json:"affected_ases"`
	Links        int       `json:"links"`
}

// line renders a non-PoP incident exactly as cmd/kepler -v prints it.
func (i incidentView) line() string {
	return fmt.Sprintf("incident %s %-9s signal=%s affected=%d links=%d",
		i.Time.Format("2006-01-02 15:04"), i.Kind, i.SignalPoP.Ref, len(i.AffectedASes), i.Links)
}

// history is every page of /v1/outages and /v1/incidents.
type history struct {
	outages   []string
	incidents []string
	counts    map[string]int
	requests  int64
	failed    int64
}

const historyPage = 50

// fetchHistory walks both cursors to the end.
func fetchHistory(d *daemon) (*history, error) {
	h := &history{counts: map[string]int{}}
	for after := uint64(0); ; {
		var page struct {
			Outages   []outageView `json:"outages"`
			NextAfter uint64       `json:"next_after"`
		}
		if err := h.page(d, fmt.Sprintf("/v1/outages?after=%d&limit=%d", after, historyPage), &page); err != nil {
			return h, err
		}
		for _, o := range page.Outages {
			h.outages = append(h.outages, o.line())
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
	for after := uint64(0); ; {
		var page struct {
			Incidents []incidentView `json:"incidents"`
			NextAfter uint64         `json:"next_after"`
		}
		if err := h.page(d, fmt.Sprintf("/v1/incidents?after=%d&limit=%d", after, historyPage), &page); err != nil {
			return h, err
		}
		for _, inc := range page.Incidents {
			h.counts[inc.Kind]++
			if inc.Kind != "pop" {
				h.incidents = append(h.incidents, inc.line())
			}
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
	return h, nil
}

func (h *history) page(d *daemon, path string, v any) error {
	h.requests++
	code, body, _, err := poll.Get(d.client, d.addr, path, "")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, code)
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		h.failed++
	}
	return err
}

// compareHistory lists every difference between the served history and
// the oracle's report on the same records.
func compareHistory(h *history, or *oracle) []string {
	var diffs []string
	diff := func(what string, got, want []string) {
		if len(got) != len(want) {
			diffs = append(diffs, fmt.Sprintf("%s: served %d, oracle %d", what, len(got), len(want)))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				diffs = append(diffs, fmt.Sprintf("%s #%d: served %q, oracle %q", what, i+1, got[i], want[i]))
				return
			}
		}
	}
	diff("outages", h.outages, or.Outages)
	diff("incidents", h.incidents, or.Incidents)
	for _, k := range []string{"link", "as", "operator", "pop"} {
		if h.counts[k] != or.Counts[k] {
			diffs = append(diffs, fmt.Sprintf("%s incidents: served %d, oracle %d", k, h.counts[k], or.Counts[k]))
		}
	}
	return diffs
}
