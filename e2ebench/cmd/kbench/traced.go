package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"kepler/e2ebench/internal/result"
)

// runTraced builds and runs cmd/ktrace over the same inputs the three
// end-to-end workloads use and relays its per-layer metrics.
func runTraced(o options, in *inputs, rep *report) (result.Result, error) {
	bin := filepath.Join(o.work, "bin")
	if err := goBuild(filepath.Join(o.root, "e2ebench"), bin, []string{"kbtrace"}, "./cmd/ktrace"); err != nil {
		return result.Result{}, err
	}
	fa, err := in.load(feedArchives, 1)
	if err != nil {
		return result.Result{}, err
	}
	ha, err := in.load(historyArchives, 1)
	if err != nil {
		return result.Result{}, err
	}
	a, h := fa[0], ha[0]
	ingest, err := a.prefix(ingestUpdates)
	if err != nil {
		return result.Result{}, err
	}
	backfill, err := a.steady(backfillUpdates, steadyStep)
	if err != nil {
		return result.Result{}, err
	}
	fx, err := (&serveWorkload{}).fixture(in, h)
	if err != nil {
		return result.Result{}, fmt.Errorf("serve fixture: %w", err)
	}
	// The traced serve pass paces one world for --seconds, at most as long
	// as the reserved records last.
	paced := min(o.seconds, float64(serveReserve)/serveRate)
	serve, err := h.serveFeed(int(serveRate * paced))
	if err != nil {
		return result.Result{}, err
	}
	runDir, err := newRunDir(o)
	if err != nil {
		return result.Result{}, err
	}
	defer os.RemoveAll(runDir)
	args := []string{"-seed", strconv.FormatInt(a.world, 10)}
	for _, f := range []struct {
		flag string
		feed *feed
	}{{"-ingest", ingest}, {"-backfill", backfill}, {"-serve", serve}} {
		path, err := f.feed.file()
		if err != nil {
			return result.Result{}, err
		}
		args = append(args, f.flag, path)
	}
	args = append(args,
		"-fixture", fx.Dir,
		"-fixture-records", strconv.Itoa(fx.Records),
		"-read-cache", strconv.Itoa(serveReadCache),
		"-seconds", strconv.FormatFloat(paced, 'f', -1, 64),
		"-work", runDir,
	)
	if o.corrupt {
		args = append(args, "-corrupt-oracle")
	}
	cmd := exec.Command(filepath.Join(bin, "ktrace"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		return result.Result{}, fmt.Errorf("ktrace: %v\n%s", err, stderr.String())
	}
	var out struct {
		result.Result
		Spans    json.RawMessage `json:"spans"`
		Passes   json.RawMessage `json:"passes"`
		Problems []string        `json:"problems"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return result.Result{}, fmt.Errorf("ktrace output: %w", err)
	}
	rep.Detail["spans"] = out.Spans
	rep.Detail["passes"] = out.Passes
	rep.Detail["problems"] = out.Problems
	rep.KeplerdArg = nil
	return out.Result, nil
}
