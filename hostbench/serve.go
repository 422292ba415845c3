package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cyclops/internal/job"
	"cyclops/internal/job/workloads"
	"cyclops/internal/kernel"
	"cyclops/internal/obs"
	"cyclops/internal/resultcache"
	"cyclops/internal/serve"
	"cyclops/internal/stream"
)

// serve-mixed shape: a synthetic mix, not a replay of observed traffic.
// Its constants are chosen so that requests split between the three
// tiers a request can be answered from (memory hits, disk hits and
// misses); the split each run measures is printed with its metrics.
// A pass replays one seeded request sequence against a fresh server
// whose cache holds the pool's first serveWindow specs.
// Every serveNewEvery-th request introduces the pool's next spec (a
// miss: execute plus atomic disk write); the rest pick one of the
// serveWindow most recently introduced specs with Zipf weights
// 1/(rank+1). The memory tier holds about a third of the window, so the
// hot head answers from memory and the tail from disk (read plus SHA-256
// verification): about 2% misses, 68% memory hits and 28% disk hits,
// the rest joining an identical request already in flight.
const (
	serveWindow   = 128
	serveNewEvery = 50
	// serveMemBytes holds about 40 of the ~300-byte STREAM results.
	serveMemBytes = 12 << 10
	// serveClients is the closed loop's width: each client sends its next
	// request when the previous reply arrives. serveWorkers matches it,
	// so a 2-CPU host is busy without being oversubscribed.
	serveClients = 2
	serveWorkers = 2
	// servePass is the requests of one timed pass.
	servePass = 4000
)

type serveWorkload struct {
	requests int // per pass
	pool     *specPool
	cdf      []float64 // Zipf rank distribution over the window

	srv    *serve.Server
	hs     *http.Server
	served chan error
	dir    string
	url    string
	client *http.Client

	mu      sync.Mutex
	results map[resultcache.Key]*servedResult
}

// servedResult is what the server answered for one spec.
type servedResult struct {
	spec   *poolSpec
	data   []byte // the canonical result encoding from the first answer
	insts  uint64
	cycles uint64
	count  int
}

func newServeMixed(o options) workload {
	w := &serveWorkload{requests: servePass, results: map[resultcache.Key]*servedResult{}}
	if o.tiny {
		w.requests = 2 * serveNewEvery
	}
	total := 0.0
	for r := 0; r < serveWindow; r++ {
		total += 1 / float64(r+1)
		w.cdf = append(w.cdf, total)
	}
	for r := range w.cdf {
		w.cdf[r] /= total
	}
	return w
}

func (w *serveWorkload) concurrency() int { return serveClients }

// setup builds the request pool (canonicalizing and keying every spec
// through the job layer), opens a fresh cache directory and starts the
// server on a loopback port. Only a traced pass's server records into
// the run's tracer.
func (w *serveWorkload) setup(b *bench, p *pass) error {
	root := b.span("bench.setup")
	defer root.End()
	w.pool = newSpecPool(b.opt.seed)
	if err := w.pool.fill(introduced(w.requests), p, root); err != nil {
		return err
	}
	var tr *obs.Tracer
	if p.traced {
		tr = b.tr
	}
	b.serial++
	w.dir = filepath.Join(b.scratch, fmt.Sprintf("cache-%d", b.serial))
	_, err := timed(p, root, "serve.start", func() error {
		srv, err := serve.New(serve.Config{
			CacheDir:      w.dir,
			CacheMemBytes: serveMemBytes,
			Workers:       serveWorkers,
			Tracer:        tr,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.srv, w.url = srv, "http://"+ln.Addr().String()
		w.hs = &http.Server{Handler: srv.Handler()}
		w.served = make(chan error, 1)
		go func() { w.served <- w.hs.Serve(ln) }()
		w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
		return nil
	})
	return err
}

// teardown stops the server, waits for it, and removes its cache.
func (w *serveWorkload) teardown() error {
	if w.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.client.CloseIdleConnections()
	w.hs, w.srv = nil, nil
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// pass primes the set-up's fresh server with the first window, in order
// and untimed, then times the request sequence from serveClients
// clients.
func (w *serveWorkload) pass(b *bench, p *pass) error {
	for i := 0; i < serveWindow; i++ {
		w.request(b, nil, 0, w.pool.at(i))
	}
	base := w.srv.Runner().Stats()
	baseCache := w.srv.Runner().Cache.Stats()
	baseWait, err := w.scrapeBuckets(queueWait)
	if err != nil {
		return err
	}

	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range next {
				w.request(b, p, c, w.pool.at(w.specIndex(b.opt.seed, j)))
			}
		}(c)
	}
	for j := 0; j < w.requests; j++ {
		next <- j
	}
	close(next)
	wg.Wait()
	p.wall = time.Since(start).Seconds()

	if p.server, err = w.serverStats(base, baseCache, baseWait); err != nil {
		return err
	}
	return w.teardown()
}

// introduced is how many pool specs exist before request j: the first
// window plus one per serveNewEvery requests.
func introduced(j int) int { return serveWindow + j/serveNewEvery }

// specIndex picks request j's pool spec: every serveNewEvery-th request
// the next new one, else a Zipf-ranked pick among the window's most
// recent specs.
func (w *serveWorkload) specIndex(seed uint64, j int) int {
	k := introduced(j)
	if j%serveNewEvery == serveNewEvery-1 {
		return k
	}
	u := float64(mix64(seed^0x5e17e, uint64(j))>>11) / (1 << 53)
	rank := sort.SearchFloat64s(w.cdf, u)
	if rank >= serveWindow {
		rank = serveWindow - 1
	}
	return k - 1 - rank
}

// request sends one spec and checks the answer: status, key, and that
// every answer for a key carries the same result bytes (finish compares
// those with a direct run). A timed request (p not nil) is recorded as
// an operation of p.
func (w *serveWorkload) request(b *bench, p *pass, client int, ps *poolSpec) {
	b.attempt()
	root := b.span("bench.request")
	req, err := http.NewRequest(http.MethodPost, w.url+"/v1/run", bytes.NewReader(ps.body))
	if err != nil {
		b.fail(1, "request %s: %v", ps.key, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cyclops-Client", "client-"+strconv.Itoa(client))
	if root != nil {
		req.Header.Set("traceparent", obs.FormatTraceparent(root.TraceID(), root.SpanID()))
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start).Seconds()
	root.End()
	if err != nil {
		b.fail(1, "request %s: %v", ps.key, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		b.fail(1, "request %s: status %d: %s", ps.key, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var rr struct {
		Key    string          `json:"key"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		b.fail(1, "request %s: decoding the answer: %v", ps.key, err)
		return
	}
	if rr.Key != ps.key.String() {
		b.fail(1, "request %s: answered for key %s", ps.key, rr.Key)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	sr, ok := w.results[ps.key]
	if !ok {
		var res job.Result
		if err := json.Unmarshal(rr.Result, &res); err != nil {
			b.fail(1, "request %s: decoding the result: %v", ps.key, err)
			return
		}
		sr = &servedResult{spec: ps, data: bytes.Clone(rr.Result), insts: res.Insts, cycles: res.Cycles}
		w.results[ps.key] = sr
	} else if !bytes.Equal(sr.data, rr.Result) {
		b.fail(1, "request %s: result differs from an earlier answer for the same key", ps.key)
		return
	}
	sr.count++
	if p != nil {
		p.ops = append(p.ops, op{lat: lat, insts: sr.insts, cycles: sr.cycles, cached: rr.Cached})
	}
}

// finish compares every distinct answer with a direct job.Runner run of
// the same spec; a mismatch fails every request that received it.
func (w *serveWorkload) finish(b *bench) error {
	keys := make([]resultcache.Key, 0, len(w.results))
	for k := range w.results {
		keys = append(keys, k)
	}
	work := make(chan *servedResult)
	var wg sync.WaitGroup
	for c := 0; c < serveWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			direct := job.NewRunner()
			for sr := range work {
				data, _, err := direct.RunEncoded(sr.spec.spec)
				switch {
				case err != nil:
					b.fail(sr.count, "direct run of %s: %v", sr.spec.key, err)
				case !bytes.Equal(data, sr.data):
					b.fail(sr.count, "%s: served result differs from the direct job.Runner result", sr.spec.key)
				}
			}
		}()
	}
	for _, k := range keys {
		work <- w.results[k]
	}
	close(work)
	wg.Wait()
	return nil
}

// queueWait is the server's queue-wait histogram on /metrics.
const queueWait = "serve_queue_wait_seconds"

// serverStats reads the job, cache and serve activity of the timed
// requests (the counters less their values after priming), with the
// queue-wait median from /metrics.
func (w *serveWorkload) serverStats(base job.Stats, baseCache resultcache.Counters, baseWait []bucket) (map[string]float64, error) {
	st := w.srv.Runner().Stats()
	cs := w.srv.Runner().Cache.Stats()
	hits, misses := st.Hits-base.Hits, st.Misses-base.Misses
	out := map[string]float64{
		"job.hits":               float64(hits),
		"job.misses":             float64(misses),
		"job.coalesced":          float64(st.Coalesced - base.Coalesced),
		"job.executions":         float64(st.Executions - base.Executions),
		"job.hit_ratio":          ratio(float64(hits), float64(hits+misses)),
		"resultcache.mem_hits":   float64(cs.MemHits - baseCache.MemHits),
		"resultcache.disk_hits":  float64(cs.DiskHits - baseCache.DiskHits),
		"resultcache.puts":       float64(cs.Puts - baseCache.Puts),
		"resultcache.evictions":  float64(cs.Evictions - baseCache.Evictions),
		"resultcache.disk_bytes": float64(w.srv.Runner().Cache.DiskBytes()),
	}
	wait, err := w.scrapeBuckets(queueWait)
	if err != nil {
		return nil, err
	}
	out["serve.queue_wait_p50_ms"] = 1e3 * histQuantile(baseWait, wait, 0.5)
	m, err := w.scrapeCounter("serve_queue_full")
	if err != nil {
		return nil, err
	}
	out["serve.rejected"] = m
	return out, nil
}

// layerStats reports the serve-side per-layer metrics: the median pass's
// server activity, and hit and miss latencies split by the answer's
// cached flag, each the median over the untraced passes of the pass's
// quantile.
func (w *serveWorkload) layerStats(b *bench) map[string]float64 {
	out := map[string]float64{}
	for name := range b.passes[0].server {
		var xs []float64
		for _, p := range b.passes {
			xs = append(xs, p.server[name])
		}
		out[name] = median(xs)
	}
	ps := b.untracedPasses()
	hit := func(o op) bool { return o.cached }
	miss := func(o op) bool { return !o.cached }
	out["serve.hit_p50_ms"] = 1e3 * passQuantile(ps, 0.5, hit)
	out["serve.hit_p99_ms"] = 1e3 * passQuantile(ps, 0.99, hit)
	out["serve.miss_p50_ms"] = 1e3 * passQuantile(ps, 0.5, miss)
	out["serve.miss_p99_ms"] = 1e3 * passQuantile(ps, 0.99, miss)
	return out
}

// reportTiers prints how the timed requests split between the tiers, as
// shares of the requests of the median pass: the mix is synthetic, so
// every run shows what it measured.
func (w *serveWorkload) reportTiers(b *bench, out io.Writer) {
	share := func(name string) float64 {
		var xs []float64
		for _, p := range b.passes {
			xs = append(xs, p.server[name])
		}
		return 100 * median(xs) / float64(w.requests)
	}
	fmt.Fprintf(out, "hostbench: request tiers: %.1f%% memory hits, %.1f%% disk hits, %.1f%% misses (executed), %.1f%% joined an identical request in flight\n",
		share("resultcache.mem_hits"), share("resultcache.disk_hits"), share("job.executions"), share("job.coalesced"))
}

// scrapeCounter reads one counter from the server's /metrics text.
func (w *serveWorkload) scrapeCounter(name string) (float64, error) {
	lines, err := w.metricsLines(name + " ")
	if err != nil {
		return 0, err
	}
	if len(lines) != 1 {
		return 0, fmt.Errorf("/metrics has %d %s lines", len(lines), name)
	}
	return strconv.ParseFloat(strings.TrimPrefix(lines[0], name+" "), 64)
}

// metricsLines returns the /metrics lines starting with prefix.
func (w *serveWorkload) metricsLines(prefix string) ([]string, error) {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			lines = append(lines, sc.Text())
		}
	}
	return lines, sc.Err()
}

// bucket is one cumulative histogram bucket of /metrics.
type bucket struct{ le, cum float64 }

// scrapeBuckets reads one histogram's cumulative buckets from /metrics.
func (w *serveWorkload) scrapeBuckets(name string) ([]bucket, error) {
	prefix := name + `_bucket{le="`
	lines, err := w.metricsLines(prefix)
	if err != nil {
		return nil, err
	}
	var buckets []bucket
	for _, line := range lines {
		bound, count, ok := strings.Cut(line[len(prefix):], `"} `)
		if !ok {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		le := math.Inf(1)
		if bound != "+Inf" {
			if le, err = strconv.ParseFloat(bound, 64); err != nil {
				return nil, fmt.Errorf("/metrics: %q: %w", line, err)
			}
		}
		cum, err := strconv.ParseFloat(count, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		buckets = append(buckets, bucket{le, cum})
	}
	if len(buckets) == 0 {
		return nil, fmt.Errorf("/metrics has no %s histogram", name)
	}
	return buckets, nil
}

// histQuantile interpolates quantile q of the observations a histogram
// gained between two scrapes.
func histQuantile(before, after []bucket, q float64) float64 {
	cum := func(i int) float64 { return after[i].cum - before[i].cum }
	total := cum(len(after) - 1)
	if total == 0 {
		return 0
	}
	target, lo, prev := q*total, 0.0, 0.0
	for i, bk := range after {
		if c := cum(i); c >= target {
			if math.IsInf(bk.le, 1) {
				return lo
			}
			return lo + (bk.le-lo)*(target-prev)/(c-prev)
		}
		lo, prev = bk.le, cum(i)
	}
	return lo
}

// poolSpec is one request body of the pool with its canonical key.
type poolSpec struct {
	spec *job.Spec
	body []byte
	key  resultcache.Key
}

// specPool is the seeded sequence of distinct small STREAM specs.
// Spec i depends only on the seed and the specs before it.
type specPool struct {
	seed  uint64
	specs []*poolSpec
	keys  map[resultcache.Key]bool
}

func newSpecPool(seed uint64) *specPool {
	return &specPool{seed: seed, keys: map[resultcache.Key]bool{}}
}

func (sp *specPool) at(i int) *poolSpec { return sp.specs[i] }

// fill extends the pool to n specs, timing the job layer's
// Canonicalize and Key on each into p. A draw whose key an earlier spec
// already has is drawn again with the next salt.
func (sp *specPool) fill(n int, p *pass, root *obs.ActiveSpan) error {
	for len(sp.specs) < n {
		i := uint64(len(sp.specs))
		for salt := uint64(0); ; salt++ {
			ps, err := drawSpec(mix64(sp.seed, i<<20|salt), p, root)
			if err != nil {
				return err
			}
			if !sp.keys[ps.key] {
				sp.keys[ps.key] = true
				sp.specs = append(sp.specs, ps)
				break
			}
		}
	}
	return nil
}

func drawSpec(h uint64, p *pass, root *obs.ActiveSpan) (*poolSpec, error) {
	spec, err := poolSpecFor(h)
	if err != nil {
		return nil, err
	}
	var canon *job.Spec
	if _, err := timed(p, root, "job.canonicalize", func() (err error) {
		canon, err = spec.Canonicalize()
		return err
	}); err != nil {
		return nil, err
	}
	ps := &poolSpec{spec: spec}
	if _, err := timed(p, root, "job.key", func() (err error) {
		ps.key, err = canon.Key()
		return err
	}); err != nil {
		return nil, err
	}
	if ps.body, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	return ps, nil
}

// poolSpecFor draws one small STREAM configuration from h: 4 or 8
// threads over 1024 to 1536 elements, with any kernel, partition, cache
// mode, unroll depth and placement the generator accepts together. The
// narrow size band keeps the cost of a miss, and so req_p99_ms, about
// the same for every seed's pool.
func poolSpecFor(h uint64) (*job.Spec, error) {
	pick := func(n int) int {
		v := int(h % uint64(n))
		h /= uint64(n)
		return v
	}
	p := stream.Params{
		Kernel:  streamKernels[pick(4)],
		Threads: []int{4, 8}[pick(2)],
		N:       1024 + 64*pick(9),
		Reps:    2,
	}
	switch pick(4) {
	case 0:
		p.Partition = stream.Cyclic
	case 1:
		p.Local = true
	}
	if p.Partition == stream.Blocked && pick(2) == 1 {
		p.Unroll = 4
	}
	place := kernel.Sequential
	if pick(2) == 1 {
		place = kernel.Balanced
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pool spec %+v: %w", p, err)
	}
	return workloads.StreamSpec(p, place)
}

// mix64 hashes two words into one (splitmix64 finalizer over a
// combination), the benchmark's stateless seeded draw.
func mix64(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
