// Package poll is the benchmark's closed-loop reader of keplerd's HTTP
// API, shared by the end-to-end driver and the traced run so that both
// send the same requests at the same pace.
package poll

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

const (
	// Think is the pause after each request, a busy dashboard's. Without
	// it the poller saturates a core of a 2-core host and the read figures
	// swing with the neighbours' load: over ten seeds the serve read p50
	// spread 0.28 of its median, 0.10–0.12 with it.
	Think = time.Millisecond
	// PageLimit is the size of the deep history pages.
	PageLimit = 10
)

// Get fetches path and returns status, body and headers; 304s carry no
// body. A non-empty etag is sent as If-None-Match.
func Get(c *http.Client, addr, path, etag string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// Poller cycles through the open-outage view and the stats (both
// revalidated with If-None-Match) and two seeded-random deep history
// pages, pausing Think after each request. It is not safe for concurrent
// use.
type Poller struct {
	c         *http.Client
	addr      string
	rng       *rand.Rand
	etags     map[string]string
	outages   int
	incidents int

	Lat         []float64       // request latency, ms
	Step        []time.Duration // completion minus the previous completion
	last        time.Time
	OK          int64
	NotModified int64
	Failed      int64
}

// New returns a poller on addr whose deep pages start from the given
// history totals; each page it reads updates them.
func New(c *http.Client, addr string, seed int64, outages, incidents int) *Poller {
	return &Poller{c: c, addr: addr, rng: rand.New(rand.NewSource(seed)), etags: map[string]string{},
		outages: outages, incidents: incidents}
}

// Request sends the i-th request of the cycle.
func (p *Poller) Request(i int) {
	defer time.Sleep(Think)
	var path, route string
	switch i % 4 {
	case 0:
		path, route = "/v1/outages/open", "open"
	case 1:
		path, route = "/v1/stats", "stats"
	case 2:
		path = fmt.Sprintf("/v1/incidents?after=%d&limit=%d", p.rng.Intn(max(p.incidents, 1)), PageLimit)
	case 3:
		path = fmt.Sprintf("/v1/outages?after=%d&limit=%d", p.rng.Intn(max(p.outages, 1)), PageLimit)
	}
	t0 := time.Now()
	if p.last.IsZero() {
		p.last = t0
	}
	code, body, hdr, err := Get(p.c, p.addr, path, p.etags[route])
	p.Lat = append(p.Lat, float64(time.Since(t0))/float64(time.Millisecond))
	now := time.Now()
	p.Step = append(p.Step, now.Sub(p.last))
	p.last = now
	switch {
	case err != nil:
		p.Failed++
		return
	case code == http.StatusNotModified:
		p.NotModified++
		return
	case code != http.StatusOK:
		p.Failed++
		return
	}
	p.OK++
	if route != "" {
		p.etags[route] = hdr.Get("ETag")
		return
	}
	var v struct {
		Total int `json:"total"`
	}
	if json.Unmarshal(body, &v) == nil {
		if i%4 == 2 {
			p.incidents = v.Total
		} else {
			p.outages = v.Total
		}
	}
}

// RunUntil polls until stop is closed.
func (p *Poller) RunUntil(stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		p.Request(i)
	}
}

// RunN sends n requests.
func (p *Poller) RunN(n int) {
	for i := 0; i < n; i++ {
		p.Request(i)
	}
}

// Attempted is the number of requests sent.
func (p *Poller) Attempted() int64 { return p.OK + p.NotModified + p.Failed }
