package poll

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPollerCyclesRevalidatesAndCounts(t *testing.T) {
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.URL.RequestURI())
		switch r.URL.Path {
		case "/v1/outages/open", "/v1/stats":
			if r.Header.Get("If-None-Match") == `"g1"` {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			w.Header().Set("ETag", `"g1"`)
			fmt.Fprint(w, `{}`)
		case "/v1/incidents":
			fmt.Fprint(w, `{"total":5}`)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	p := New(srv.Client(), strings.TrimPrefix(srv.URL, "http://"), 1, 0, 100)
	p.RunN(8)
	if p.OK != 4 || p.NotModified != 2 || p.Failed != 2 || p.Attempted() != 8 {
		t.Fatalf("ok=%d notModified=%d failed=%d", p.OK, p.NotModified, p.Failed)
	}
	if len(p.Lat) != 8 || len(p.Step) != 8 {
		t.Fatalf("%d latencies, %d steps, want 8", len(p.Lat), len(p.Step))
	}
	if p.incidents != 5 {
		t.Fatalf("incident total %d, want 5 from the page read", p.incidents)
	}
	for i, want := range []string{"/v1/outages/open", "/v1/stats", "/v1/incidents?after=", "/v1/outages?after=0&limit=10"} {
		if !strings.HasPrefix(paths[i], want) {
			t.Fatalf("request %d = %s, want %s…", i, paths[i], want)
		}
	}
}
