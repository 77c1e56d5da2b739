package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kepler/e2ebench/internal/mrtlite"
)

// archiveKind is a family of topogen recipes, tried in order until one
// renders the updates a workload needs past the RIB dump.
type archiveKind struct {
	suffix  string // of the cache directory
	recipes [][]string
	need    int
}

var (
	// feedArchives feed ingest and backfill: the DefaultConfig world (200
	// ASes) over 60 days with a proportional mix of facility, IXP, link and
	// AS outages, or, for the rare world whose 60 days hold too few updates
	// (the fewest seen in 98 worlds was 5329), the same mix over 120 days.
	// Rendering takes about 2 s per world on a 2-core host.
	feedArchives = archiveKind{"", [][]string{
		{"-days", "60", "-facility-outages", "8", "-ixp-outages", "3", "-link-outages", "90", "-as-outages", "4"},
		{"-days", "120", "-facility-outages", "16", "-ixp-outages", "6", "-link-outages", "180", "-as-outages", "8"},
	}, max(ingestUpdates, backfillUpdates)}
	// historyArchives feed serve, whose fixture must hold months of
	// history: enough to pass keplerd's 1 MiB compaction floor, so that
	// deep pages are read off sealed segments. The same world over 240
	// days with six times the PoP and AS outages appends 1.2–1.7 MB of
	// events (60 days of the feed mix append about 0.66 MB). Rendering
	// time grows with the outage count: 6–8 s per world.
	historyArchives = archiveKind{"-history", [][]string{
		{"-days", "240", "-facility-outages", "48", "-ixp-outages", "18", "-link-outages", "90", "-as-outages", "24"},
		{"-days", "480", "-facility-outages", "96", "-ixp-outages", "36", "-link-outages", "180", "-as-outages", "48"},
	}, serveReserve + minFixtureUpdates}
)

// genWorkers is how many topogen renders run at once: on a 2-core host
// two render in about 1.3 times the wall time of one.
const genWorkers = 2

// worldsPerSeed is how many archives, each over its own generated world,
// one run seed stands for. Cycles rotate through them, so a run's summary
// spans several worlds and outage mixes rather than one: one world's
// backfill rate sits up to 25% off another's, while repeats on one world
// agree within 10%.
const worldsPerSeed = 6

// worldSeed is the topogen/keplerd seed of world j of run seed s.
func worldSeed(s int64, j int) int64 { return s*worldsPerSeed + int64(j) }

// inputInfo identifies one generated archive in every report.
type inputInfo struct {
	WorldSeed     int64    `json:"world_seed"`
	Digest        string   `json:"sha256"`
	Bytes         int      `json:"bytes"`
	Records       int      `json:"records"`
	RIBRecords    int      `json:"rib_records"`
	UpdateRecords int      `json:"update_records"`
	SpanDays      float64  `json:"span_days"`
	Topogen       []string `json:"topogen_args"`
	GenSeconds    float64  `json:"generation_s"`
}

// inputs are a run seed's archives, and the digest of the keplerd and
// kepler binaries under test: every input those binaries produce (the
// oracle reports, the serve fixtures) is cached under it, so a checkout
// that builds other code never reuses them.
type inputs struct {
	root     string // cache directory
	bin      string
	build    string
	seed     int64
	archives []*archive // every archive loaded, for the report
}

func (in *inputs) infos() []inputInfo {
	out := make([]inputInfo, len(in.archives))
	for i, a := range in.archives {
		out[i] = a.info
	}
	return out
}

// load returns the seed's first n archives of a kind, rendering them and
// their record indexes once and reusing them on later runs; generation
// time is reported on its own.
func (in *inputs) load(kind archiveKind, n int) ([]*archive, error) {
	out := make([]*archive, n)
	errs := make([]error, n)
	sem := make(chan struct{}, genWorkers)
	var wg sync.WaitGroup
	for j := range out {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[j], errs[j] = loadArchive(in.root, in.bin, worldSeed(in.seed, j), kind)
		}(j)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	in.archives = append(in.archives, out...)
	return out, nil
}

// archive is one topogen archive framed into records.
type archive struct {
	dir    string
	bin    string
	world  int64
	data   []byte
	recs   []mrtlite.Rec
	info   inputInfo
	ribEnd int // index of the first non-RIB record
}

func topogenArgs(world int64, recipe []string) []string {
	return append([]string{"-seed", strconv.FormatInt(world, 10)}, recipe...)
}

// loadArchive loads world's cached archive of a kind, rendering it first
// unless the cache holds one made by a recipe of that kind with the records
// past its RIB dump the kind needs.
func loadArchive(root, bin string, world int64, kind archiveKind) (*archive, error) {
	a := &archive{dir: filepath.Join(root, fmt.Sprintf("world-%d%s", world, kind.suffix)), bin: bin, world: world}
	b, err := os.ReadFile(filepath.Join(a.dir, "meta.json"))
	if err != nil || json.Unmarshal(b, &a.info) != nil || !a.info.usable(kind) {
		if err := a.generate(kind); err != nil {
			return nil, err
		}
	}
	if a.data, err = os.ReadFile(filepath.Join(a.dir, "archive.mrt")); err != nil {
		return nil, err
	}
	if a.recs, err = readIndex(filepath.Join(a.dir, "index.bin")); err != nil {
		return nil, err
	}
	a.ribEnd = len(a.recs)
	for i, r := range a.recs {
		if r.Kind != mrtlite.KindRIB {
			a.ribEnd = i
			break
		}
	}
	return a, nil
}

func (i inputInfo) usable(kind archiveKind) bool {
	for _, r := range kind.recipes {
		if strings.Join(i.Topogen, " ") == strings.Join(topogenArgs(i.WorldSeed, r), " ") {
			return i.Records-i.RIBRecords >= kind.need
		}
	}
	return false
}

// generate renders the archive with the first recipe of its kind that
// yields the records past the RIB dump the kind needs, into a temporary
// directory renamed into place, so an interrupted run never leaves a
// partial input behind.
func (a *archive) generate(kind archiveKind) error {
	need := kind.need
	if err := os.RemoveAll(a.dir); err != nil {
		return err
	}
	tmp := a.dir + ".tmp"
	var (
		data []byte
		recs []mrtlite.Rec
		info inputInfo
	)
	start := time.Now()
	for _, recipe := range kind.recipes {
		os.RemoveAll(tmp)
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		args := topogenArgs(a.world, recipe)
		cmd := exec.Command(filepath.Join(a.bin, "topogen"), append(args, "-out", filepath.Join(tmp, "archive.mrt"))...)
		if b, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("topogen: %v\n%s", err, b)
		}
		var err error
		if data, err = os.ReadFile(filepath.Join(tmp, "archive.mrt")); err != nil {
			return err
		}
		if recs, err = mrtlite.Index(data); err != nil {
			return err
		}
		info = inputInfo{WorldSeed: a.world, Bytes: len(data), Records: len(recs), Topogen: args}
		for _, r := range recs {
			switch r.Kind {
			case mrtlite.KindRIB:
				info.RIBRecords++
			case mrtlite.KindUpdate:
				info.UpdateRecords++
			}
		}
		if info.Records-info.RIBRecords >= need {
			break
		}
	}
	if info.Records-info.RIBRecords < need {
		return fmt.Errorf("world %d: no topogen recipe renders the %d records past the RIB dump the workloads need", a.world, need)
	}
	if err := writeIndex(filepath.Join(tmp, "index.bin"), recs); err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	info.Digest = hex.EncodeToString(sum[:])
	info.GenSeconds = time.Since(start).Seconds()
	info.SpanDays = float64(recs[len(recs)-1].TS-recs[0].TS) / 86400e6
	meta, _ := json.MarshalIndent(info, "", "  ")
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), meta, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, a.dir); err != nil {
		return err
	}
	a.info = info
	return nil
}

func writeIndex(path string, recs []mrtlite.Rec) error {
	b := make([]byte, 0, len(recs)*25)
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Off))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.End))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.TS))
		b = append(b, r.Kind)
	}
	return os.WriteFile(path, b, 0o644)
}

func readIndex(path string) ([]mrtlite.Rec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b)%25 != 0 {
		return nil, fmt.Errorf("%s: corrupt index", path)
	}
	recs := make([]mrtlite.Rec, len(b)/25)
	for i := range recs {
		p := b[i*25:]
		recs[i] = mrtlite.Rec{
			Off:  int64(binary.LittleEndian.Uint64(p)),
			End:  int64(binary.LittleEndian.Uint64(p[8:])),
			TS:   int64(binary.LittleEndian.Uint64(p[16:])),
			Kind: p[24],
		}
	}
	return recs, nil
}

// feed is the exact byte stream one keplerd run reads: an archive header
// and records, with their framing.
type feed struct {
	world  int64
	path   string // where file writes the feed
	data   []byte
	recs   []mrtlite.Rec
	ribEnd int
}

// ts returns the stream timestamps of the feed's records.
func (f *feed) ts() []int64 {
	out := make([]int64, len(f.recs))
	for i, r := range f.recs {
		out[i] = r.TS
	}
	return out
}

// prefix is the RIB dump and the u update records after it, as recorded.
func (a *archive) prefix(u int) (*feed, error) {
	n := a.ribEnd + u
	if n > len(a.recs) {
		return nil, fmt.Errorf("world %d archive has %d records after its RIB dump, the workload needs %d",
			a.world, len(a.recs)-a.ribEnd, u)
	}
	return &feed{world: a.world, data: a.data[:a.recs[n-1].End], recs: a.recs[:n], ribEnd: a.ribEnd,
		path: filepath.Join(a.dir, fmt.Sprintf("prefix-%d.mrt", u))}, nil
}

// steady is prefix(u) with the update records re-stamped one every step of
// stream time: the same updates at a constant stream rate, so every feed
// closes the same number of bins and checkpoint intervals per record.
func (a *archive) steady(u int, step time.Duration) (*feed, error) {
	if a.ribEnd >= len(a.recs) {
		return nil, fmt.Errorf("world %d archive has no updates", a.world)
	}
	return a.restamp(a.ribEnd, u, step, a.recs[a.ribEnd].TS, fmt.Sprintf("steady-%d-%s.mrt", u, step))
}

// fixtureEnd is the number of records the serve fixture's history covers:
// the RIB dump and every update but the last serveReserve, as recorded.
func (a *archive) fixtureEnd() int { return len(a.recs) - serveReserve }

// serveFeed is the serve workload's feed: the fixture's records as
// recorded, then the next n updates re-stamped one per steadyStep after
// the last of them.
func (a *archive) serveFeed(n int) (*feed, error) {
	if n > serveReserve {
		return nil, fmt.Errorf("serve paces %d records per world, at most %d are reserved: use fewer --seconds", n, serveReserve)
	}
	from := a.fixtureEnd()
	return a.restamp(from, n, steadyStep, a.recs[from-1].TS+steadyStep.Microseconds(), fmt.Sprintf("serve-%d-%s.mrt", n, steadyStep))
}

// restamp is the archive's first from+n records, the last n re-stamped one
// per step of stream time from t0 (µs).
func (a *archive) restamp(from, n int, step time.Duration, t0 int64, name string) (*feed, error) {
	end := from + n
	if end > len(a.recs) {
		return nil, fmt.Errorf("world %d archive has %d records after its RIB dump, the workload needs %d",
			a.world, len(a.recs)-a.ribEnd, end-a.ribEnd)
	}
	data := append([]byte(nil), a.data[:a.recs[end-1].End]...)
	recs := append([]mrtlite.Rec(nil), a.recs[:end]...)
	for i := from; i < end; i++ {
		recs[i].TS = t0 + int64(i-from)*step.Microseconds()
		binary.BigEndian.PutUint64(data[recs[i].Off:], uint64(recs[i].TS))
	}
	return &feed{world: a.world, data: data, recs: recs, ribEnd: a.ribEnd, path: filepath.Join(a.dir, name)}, nil
}

// file writes the feed out (once) for the programs that read it from disk
// and returns its path.
func (f *feed) file() (string, error) {
	if _, err := os.Stat(f.path); err == nil {
		return f.path, nil
	}
	if err := os.WriteFile(f.path+".tmp", f.data, 0o644); err != nil {
		return "", err
	}
	return f.path, os.Rename(f.path+".tmp", f.path)
}

// oracle is the sequential detector's report on a feed.
type oracle struct {
	Outages   []string       // OUTAGE lines, in resolution order
	Incidents []string       // non-PoP incident lines, in classification order
	Counts    map[string]int // incidents by kind, PoP included
}

// oracle runs kepler -shards 1 -v, the sequential Detector built from the
// code under test, on the feed's bytes, once per feed and build.
func (f *feed) oracle(in *inputs) (*oracle, error) {
	cache := fmt.Sprintf("%s.%s.oracle.json", f.path, in.build)
	if b, err := os.ReadFile(cache); err == nil {
		var or oracle
		if json.Unmarshal(b, &or) == nil {
			return &or, nil
		}
	}
	path, err := f.file()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(in.bin, "kepler"), "-seed", strconv.FormatInt(f.world, 10),
		"-archive", path, "-shards", "1", "-v")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("kepler oracle: %v\n%s", err, stderr.String())
	}
	or := &oracle{Counts: map[string]int{}}
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "OUTAGE "):
			or.Outages = append(or.Outages, line)
		case strings.HasPrefix(line, "incident "):
			or.Incidents = append(or.Incidents, line)
		}
	}
	found := false
	for _, line := range strings.Split(stderr.String(), "\n") {
		if !strings.Contains(line, "replay finished") {
			continue
		}
		found = true
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			switch k {
			case "link", "as", "operator", "pop", "records":
				x, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("kepler oracle: bad count %q", field)
				}
				or.Counts[k] = x
			}
		}
	}
	if !found || or.Counts["records"] != len(f.recs) {
		return nil, fmt.Errorf("kepler oracle replayed %d records, want %d", or.Counts["records"], len(f.recs))
	}
	delete(or.Counts, "records")
	b, _ := json.Marshal(or)
	if err := os.WriteFile(cache, b, 0o644); err != nil {
		return nil, err
	}
	return or, nil
}

// fileDigest hashes the named files' contents, in order.
func fileDigest(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// treeDigest hashes the checkout's Go sources and module files, for
// reports made outside a git repository.
func treeDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fh, err := os.Open(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, bufio.NewReader(fh))
		fh.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
