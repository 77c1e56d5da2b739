// Command kbench is Kepler's end-to-end benchmark driver. It builds
// keplerd, topogen and kepler from the repository it is run in, generates
// a seeded archive once per seed, and drives one workload against the real
// keplerd binary through a FIFO (-archive <fifo> -speed 0), the HTTP API
// and the SSE stream:
//
//   - ingest: in-memory keplerd, the archive written as fast as it is read;
//   - backfill: the same feed into a fresh -data-dir at default settings;
//   - serve: restart on a prewritten data dir, then a paced open-loop
//     release of the rest of the archive beside a closed-loop poller.
//
// Every run checks the served history page by page against the sequential
// detector (kepler -shards 1) on the same records, checks that SSE ids are
// contiguous and every published event arrived, and prints one JSON result
// object as the last line of stdout. With -trace 1 it runs the in-process
// traced program (cmd/ktrace) instead and prints the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"kepler/e2ebench/internal/result"
)

// holdoutSeed is the seed kept out of tuning; check a change against it
// before trusting a gain seen on the tuning seeds.
const holdoutSeed = 7919

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool
	root     string
	work     string
}

// report is the full record written beside the result: the one schema
// every run shares (environment, inputs, flags, metrics, /v1/stats).
type report struct {
	Schema     string                   `json:"schema"`
	Workload   string                   `json:"workload"`
	Seed       int64                    `json:"seed"`
	Seconds    float64                  `json:"seconds"`
	Trace      bool                     `json:"trace"`
	Cores      int                      `json:"cores"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	GoVersion  string                   `json:"go_version"`
	Commit     string                   `json:"commit"`
	Build      string                   `json:"build_digest"`
	Archives   []inputInfo              `json:"archives"`
	KeplerdArg []string                 `json:"keplerd_flags,omitempty"`
	Cycles     int                      `json:"cycles,omitempty"`
	Result     result.Result            `json:"result"`
	Detail     map[string]any           `json:"detail,omitempty"`
	Stats      json.RawMessage          `json:"v1_stats,omitempty"`
	Errors     []string                 `json:"errors,omitempty"`
	Extra      map[string]result.Metric `json:"extra_metrics,omitempty"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "ingest, backfill or serve")
	flag.Int64Var(&o.seed, "seed", 1, fmt.Sprintf("input seed: selects the topogen worlds and schedules; %d is the hold-out seed", holdoutSeed))
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process program and reports per-layer metrics")
	flag.BoolVar(&o.corrupt, "corrupt-oracle", false, "self-check: perturb the oracle so the correctness gate must fail")
	flag.StringVar(&o.root, "root", ".", "repository root to build and benchmark")
	flag.Parse()
	o.trace = trace == 1

	// An interrupted driver exits at once; Pdeathsig takes its keplerd
	// children down with it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.Exit(130)
	}()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options) (int, error) {
	switch o.workload {
	case "ingest", "backfill", "serve":
	default:
		return 2, fmt.Errorf("--workload must be ingest, backfill or serve, got %q", o.workload)
	}
	if o.seconds <= 0 || o.seed < 0 {
		return 2, errors.New("--seconds must be positive and --seed non-negative")
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return 2, err
	}
	o.root = root
	for _, p := range []string{"go.mod", "cmd/keplerd", "cmd/topogen", "cmd/kepler"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return 2, fmt.Errorf("%s is not a Kepler checkout (missing %s)", root, p)
		}
	}
	o.work = filepath.Join(root, ".bench_build", "kbench")
	bin := filepath.Join(o.work, "bin")
	if err := goBuild(root, bin, nil, "./cmd/keplerd", "./cmd/topogen", "./cmd/kepler"); err != nil {
		return 1, err
	}
	build, err := fileDigest(filepath.Join(bin, "keplerd"), filepath.Join(bin, "kepler"))
	if err != nil {
		return 1, err
	}

	rep := &report{
		Schema:     "kepler-e2ebench/1",
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  goVersion(root),
		Commit:     commitOf(root),
		Build:      build,
		Detail:     map[string]any{},
	}
	in := &inputs{root: filepath.Join(o.work, "inputs"), bin: bin, build: build, seed: o.seed}

	var res result.Result
	if o.trace {
		res, err = runTraced(o, in, rep)
	} else {
		var w workload
		switch o.workload {
		case "ingest":
			w = &feedWorkload{durable: false}
		case "backfill":
			w = &feedWorkload{durable: true}
		case "serve":
			w = &serveWorkload{}
		}
		res, err = w.run(o, bin, in, rep)
	}
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		res.Correct = false
	}
	rep.Archives = in.infos()
	rep.Result = res
	if path, werr := writeReport(o, rep); werr == nil {
		fmt.Printf("kbench: %s seed %d: full report in %s\n", o.workload, o.seed, path)
	}
	for _, e := range rep.Errors {
		fmt.Printf("kbench: error: %s\n", e)
	}
	line, _ := json.Marshal(res)
	if err != nil {
		// A run that could not measure prints no result.
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("correctness gate failed")
	}
	return 0, nil
}

// workload is one measured scenario.
type workload interface {
	run(o options, bin string, in *inputs, rep *report) (result.Result, error)
}

func writeReport(o options, rep *report) (string, error) {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%d.json", o.workload, mode, o.seed, time.Now().UnixNano()))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// goBuild compiles pkgs of the module at dir into out.
func goBuild(dir, out string, tags []string, pkgs ...string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", out + string(filepath.Separator)}
	if len(tags) > 0 {
		args = append(args, "-tags", strings.Join(tags, ","))
	}
	cmd := exec.Command("go", append(args, pkgs...)...)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %v\n%s", pkgs, err, b)
	}
	return nil
}

func goVersion(root string) string {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return runtime.Version()
	}
	return strings.TrimSpace(string(b))
}

// commitOf names the code under test: the git commit when the checkout is
// a repository, else a digest of its Go sources.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		// A checkout inside some other repository is not that commit.
		if f := strings.Fields(string(b)); len(f) == 2 && f[0] == root {
			return f[1]
		}
	}
	d, err := treeDigest(root)
	if err != nil {
		return "unknown"
	}
	return "tree:" + d
}
