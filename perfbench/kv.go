package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/gpm-sim/gpm/internal/kvstore"
	"github.com/gpm-sim/gpm/internal/serve"
	"github.com/gpm-sim/gpm/internal/workloads"
)

// kvSpec is one serving mix. Every connection owns a disjoint set of keys
// and no two keys share a store slot, so a connection's own map predicts
// every reply exactly.
type kvSpec struct {
	depth       int     // requests each connection keeps outstanding
	keysPerConn int     // keys each connection owns
	opsPerConn  int     // requests per connection per round
	getPct      int     // GET share of requests, in percent
	setPct      int     // SET share; the rest are DELs
	zipfTheta   float64 // key skew; 0 = uniform
}

var kvSpecs = map[string]kvSpec{
	// Full epochs: 2 connections × 256 in flight keep one MaxBatch-sized
	// epoch per shard, so batching, squashing, the mutate kernel and group
	// commit dominate; 8192 keys dwarf the 2 × 128-slot hot-key cache.
	"kv-write": {depth: 256, keysPerConn: 4096, opsPerConn: 8192, getPct: 50, setPct: 45},
	// One request in flight per connection over zipf-skewed keys: the hot
	// set fits the cache, so cache hits and starved-epoch sealing dominate.
	"kv-read-hot": {depth: 1, keysPerConn: 2048, opsPerConn: 8192, getPct: 95, setPct: 5, zipfTheta: 0.99},
}

// The server under test: GPM, two shards of 1024 sets × 8 ways.
const (
	kvShards = 2
	kvSets   = 1 << 10
	// kvProbe is the size of the fixed epoch applied to each shard after the
	// drain (serve's default MaxBatch: one full epoch).
	kvProbe = 256
	// preloadDepth is the pipelining depth of set-up and read-back traffic.
	preloadDepth = 16
	// probeSeed fixes the probe keys, so the simulated probe costs do not
	// depend on the workload seed.
	probeSeed = 0x9e3779b97f4a7c15
)

// kvOp is one client request.
type kvOp struct {
	kind byte // 'G', 'S' or 'D'
	key  uint64
}

type kvBench struct {
	spec  kvSpec
	seed  uint64
	tr    *tracing
	keys  [][]uint64 // per connection
	probe [][]uint64 // per shard
	ops   [][]kvOp   // per connection, one round
	gets  int64      // GETs per round

	srv       *serve.Server
	drained   *serve.Server // the last server, after its drain
	serveDone chan error
	clients   []*kvClient
	rounds    int
	ph        phaseTimes
	wrong     wrongLog
}

func newKVBench(name string, seed uint64, tr *tracing) *kvBench {
	spec := kvSpecs[name]
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	b := &kvBench{spec: spec, seed: seed, tr: tr, ph: phaseTimes{setupOnce: true}}
	b.keys, b.probe = pickKeys(seed, conns, spec.keysPerConn, kvProbe)
	for ci := range b.keys {
		ops := makeOps(spec, seed, ci, b.keys[ci])
		for _, op := range ops {
			if op.kind == 'G' {
				b.gets++
			}
		}
		b.ops = append(b.ops, ops)
	}
	return b
}

// slotOf names a key's store slot across shards, as the server places it:
// shard key mod shards, slot kvstore.HashKey within the shard.
func slotOf(key uint64) [2]int {
	set, way := kvstore.HashKey(key, kvSets)
	return [2]int{int(key % kvShards), set*kvstore.Ways + way}
}

// pickKeys draws perConn keys for each connection and probe keys for each
// shard, no two in one slot. The probe keys come from a fixed stream first.
// A connection's i-th key lies on shard (i + conn) mod shards, so however
// the seed falls, the hottest zipf ranks spread evenly over the shards.
func pickKeys(seed uint64, conns, perConn, probePerShard int) (keys, probe [][]uint64) {
	used := map[[2]int]bool{}
	take := func(rng *rand.Rand, shard int) uint64 {
		for {
			k := rng.Uint64N(1<<40) + 1
			s := slotOf(k)
			if used[s] || (shard >= 0 && s[0] != shard) {
				continue
			}
			used[s] = true
			return k
		}
	}
	fixed := rand.New(rand.NewPCG(probeSeed, 1))
	probe = make([][]uint64, kvShards)
	for sh := range probe {
		for j := 0; j < probePerShard; j++ {
			probe[sh] = append(probe[sh], take(fixed, sh))
		}
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	keys = make([][]uint64, conns)
	for i := 0; i < perConn; i++ {
		for c := range keys {
			keys[c] = append(keys[c], take(rng, (i+c)%kvShards))
		}
	}
	return keys, probe
}

// makeOps draws one round of a connection's requests. The mix is exact
// (the seed orders the kinds, it does not change their shares), so every
// seed asks the server for the same amount of each kind of work.
func makeOps(spec kvSpec, seed uint64, conn int, keys []uint64) []kvOp {
	rng := rand.New(rand.NewPCG(seed, 3+uint64(conn)))
	var z *zipfGen
	if spec.zipfTheta > 0 {
		z = newZipf(uint64(len(keys)), spec.zipfTheta)
	}
	ops := make([]kvOp, spec.opsPerConn)
	gets, sets := spec.opsPerConn*spec.getPct/100, spec.opsPerConn*spec.setPct/100
	for i := range ops {
		switch {
		case i < gets:
			ops[i].kind = 'G'
		case i < gets+sets:
			ops[i].kind = 'S'
		default:
			ops[i].kind = 'D'
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		var idx uint64
		if z != nil {
			idx = z.next(rng.Float64())
		} else {
			idx = rng.Uint64N(uint64(len(keys)))
		}
		ops[i].key = keys[idx]
	}
	return ops
}

// zipfGen draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta (the YCSB
// closed form).
type zipfGen struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n uint64, theta float64) *zipfGen {
	zeta := func(n uint64) float64 {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipfGen{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
	}
}

func (z *zipfGen) next(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// value is the value of a connection's i-th request in a round (round -1
// is set-up): distinct per round, so a stale read shows.
func value(seed uint64, conn, round, i int) uint64 {
	x := seed ^ uint64(conn)<<56 ^ uint64(round+1)<<32 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x>>2 | 1
}

// setup starts a fresh server, connects the clients and stores every
// connection's keys.
func (b *kvBench) setup() (time.Duration, error) {
	b.teardown()
	t0 := time.Now()
	cfg := serve.Config{Mode: workloads.GPM, Shards: kvShards, Sets: kvSets, Workers: runtime.NumCPU(), Seed: 1}
	if b.tr != nil {
		cfg.Telemetry = b.tr.tel
		cfg.Trace = b.tr.req
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return 0, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b.srv = srv
	b.serveDone = make(chan error, 1)
	go func() { b.serveDone <- srv.Serve() }()
	for range b.keys {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			return 0, err
		}
		b.clients = append(b.clients, newKVClient(c))
	}
	t1 := time.Now()
	err = b.eachClient(func(ci int, c *kvClient) error {
		_, _, err := c.exchange(keyOps('S', b.keys[ci]), preloadDepth, func(i int) uint64 { return value(b.seed, ci, -1, i) }, nil)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	t2 := time.Now()
	b.ph.envNew, b.ph.setup = t1.Sub(t0), t2.Sub(t1)
	return t2.Sub(t0), nil
}

// keyOps is one request of the given kind for each key, in order.
func keyOps(kind byte, keys []uint64) []kvOp {
	ops := make([]kvOp, len(keys))
	for i, k := range keys {
		ops[i] = kvOp{kind: kind, key: k}
	}
	return ops
}

// eachClient runs fn on every connection at once and waits for all.
func (b *kvBench) eachClient(fn func(ci int, c *kvClient) error) error {
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		wg.Add(1)
		go func(ci int, c *kvClient) {
			defer wg.Done()
			errs[ci] = fn(ci, c)
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *kvBench) round() (roundStats, error) {
	r := b.rounds
	b.rounds++
	lats := make([][]time.Duration, len(b.clients))
	fails := make([]int64, len(b.clients))
	var k0 int64
	if b.tr != nil {
		k0 = b.tr.tel.Registry().Counter("gpu.kernels").Value()
	}
	start := time.Now()
	err := b.eachClient(func(ci int, c *kvClient) error {
		var err error
		lats[ci], fails[ci], err = c.exchange(b.ops[ci], b.spec.depth,
			func(i int) uint64 { return value(b.seed, ci, r, i) }, make([]time.Duration, 0, len(b.ops[ci])))
		return err
	})
	b.ph.run += time.Since(start)
	if err != nil {
		return roundStats{}, err
	}
	var rs roundStats
	for ci := range b.clients {
		rs.ops += int64(len(b.ops[ci]))
		rs.failed += fails[ci]
		rs.lat = append(rs.lat, lats[ci]...)
	}
	if b.tr != nil {
		b.ph.runKernels += b.tr.tel.Registry().Counter("gpu.kernels").Value() - k0
		b.tr.gets += b.gets
	}
	return rs, nil
}

// finish reads every key back, drains the server, checks each shard's
// durable image against the clients' maps, and then, per shard, crashes a
// fixed epoch before its commit, restarts, and applies the epoch again: the
// simulated restore and apply times are the run's simulated totals.
func (b *kvBench) finish() (simTotals, error) {
	var tot simTotals
	start := time.Now()
	err := b.eachClient(func(ci int, c *kvClient) error {
		_, _, err := c.exchange(keyOps('G', b.keys[ci]), preloadDepth, nil, nil)
		return err
	})
	if err != nil {
		return tot, fmt.Errorf("read-back: %w", err)
	}
	clients := b.clients
	b.teardown()
	for _, c := range clients {
		b.wrong.n += c.wrong.n
	}
	for i, sh := range b.drainedShards() {
		if err := sh.Verify(); err != nil {
			b.wrong.add("%v", err)
		}
		for _, c := range clients {
			for key, v := range c.model {
				if slotOf(key)[0] != i || c.unknown[key] {
					continue
				}
				wantK := key
				if v == 0 {
					wantK = 0
				}
				if k, got := sh.ModelPair(sh.SlotOf(key)); k != wantK || got != v {
					b.wrong.add("shard %d committed (%d,%d) for key %d, reference (%d,%d)", i, k, got, key, wantK, v)
				}
			}
		}
		probe := &serve.Batch{SetKeys: b.probe[i]}
		for j := range b.probe[i] {
			probe.SetVals = append(probe.SetVals, uint64(j+1))
		}
		if err := sh.CrashAt(probe, serve.CrashBeforeCommit, 0); err != nil {
			return tot, fmt.Errorf("probe crash: %w", err)
		}
		restore, err := sh.Restart()
		if err != nil {
			return tot, fmt.Errorf("probe restart: %w", err)
		}
		if err := sh.Verify(); err != nil {
			b.wrong.add("after probe crash: %v", err)
		}
		res, err := sh.Apply(probe)
		if err != nil {
			return tot, fmt.Errorf("probe apply: %w", err)
		}
		if err := sh.Verify(); err != nil {
			b.wrong.add("after probe apply: %v", err)
		}
		for j, key := range b.probe[i] {
			if k, v := sh.ModelPair(sh.SlotOf(key)); k != key || v != uint64(j+1) {
				b.wrong.add("shard %d probe key %d committed (%d,%d)", i, key, k, v)
			}
		}
		tot.restore += time.Duration(restore)
		tot.gpm += time.Duration(res.SimTime)
	}
	b.ph.verify += time.Since(start)
	return tot, nil
}

// drainedShards returns the drained server's shards.
func (b *kvBench) drainedShards() []*serve.Shard {
	if b.drained == nil {
		return nil
	}
	return b.drained.Shards()
}

// teardown closes the clients and drains the server, keeping the drained
// server for inspection.
func (b *kvBench) teardown() {
	for _, c := range b.clients {
		c.conn.Close()
	}
	b.clients = nil
	if b.srv != nil {
		b.srv.Shutdown(10 * time.Second)
		<-b.serveDone
		b.drained, b.srv = b.srv, nil
	}
}

func (b *kvBench) phases() phaseTimes { return b.ph }
func (b *kvBench) wrongOutputs() int  { return b.wrong.n }
func (b *kvBench) close()             { b.teardown() }

// kvClient is one connection speaking the line protocol, with the reference
// model of the keys it owns.
type kvClient struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	model   map[uint64]uint64 // key -> value; 0 = absent
	unknown map[uint64]bool   // keys a failed request left in an unknown state
	wrong   wrongLog
	buf     []byte
}

func newKVClient(c net.Conn) *kvClient {
	return &kvClient{conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c),
		model: map[uint64]uint64{}, unknown: map[uint64]bool{}}
}

// pendingOp is a request awaiting its reply; want is the value a GET must
// return (0 = NOTFOUND).
type pendingOp struct {
	op   kvOp
	want uint64
	sent time.Time
}

// exchange sends ops in a closed loop with up to depth requests outstanding
// and checks every reply against the model as of the request's place in
// the connection's order. val gives the value of the i-th request when it
// is a SET. It returns each request's latency (appended to lat) and the
// number of requests the server refused.
func (c *kvClient) exchange(ops []kvOp, depth int, val func(i int) uint64, lat []time.Duration) ([]time.Duration, int64, error) {
	var failed int64
	q := make([]pendingOp, 0, len(ops))
	head, next := 0, 0
	send := func() error {
		op := ops[next]
		p := pendingOp{op: op}
		b := c.buf[:0]
		switch op.kind {
		case 'G':
			b = append(b, "GET "...)
			b = strconv.AppendUint(b, op.key, 10)
			p.want = c.model[op.key]
		case 'S':
			v := val(next)
			b = append(b, "SET "...)
			b = strconv.AppendUint(b, op.key, 10)
			b = append(b, ' ')
			b = strconv.AppendUint(b, v, 10)
			c.model[op.key] = v
		case 'D':
			b = append(b, "DEL "...)
			b = strconv.AppendUint(b, op.key, 10)
			c.model[op.key] = 0
		}
		b = append(b, '\n')
		c.buf = b
		p.sent = time.Now()
		q = append(q, p)
		next++
		_, err := c.bw.Write(b)
		return err
	}
	for next < len(ops) && next-head < depth {
		if err := send(); err != nil {
			return lat, failed, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return lat, failed, err
	}
	for head < len(q) {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return lat, failed, fmt.Errorf("reply %d of %d: %w", head, len(ops), err)
		}
		p := q[head]
		head++
		if lat != nil {
			lat = append(lat, time.Since(p.sent))
		}
		if !c.check(p, bytes.TrimRight(line, "\r\n")) {
			failed++
		}
		if next < len(ops) {
			if err := send(); err != nil {
				return lat, failed, err
			}
		}
		if c.br.Buffered() == 0 {
			if err := c.bw.Flush(); err != nil {
				return lat, failed, err
			}
		}
	}
	return lat, failed, nil
}

// check compares one reply with the model and reports whether the request
// succeeded. The server refuses a request of this load only on a fault (an
// apply error or a restart), so a refusal is also a wrong output; it leaves
// its key unknown and unchecked from then on.
func (c *kvClient) check(p pendingOp, line []byte) bool {
	if bytes.HasPrefix(line, []byte("ERR")) {
		c.unknown[p.op.key] = true
		c.wrong.add("%c %d: refused: %q", p.op.kind, p.op.key, line)
		return false
	}
	if c.unknown[p.op.key] {
		return true
	}
	want := "OK"
	if p.op.kind == 'G' {
		want = "NOTFOUND"
		if p.want != 0 {
			want = "VALUE " + strconv.FormatUint(p.want, 10)
		}
	}
	if string(line) != want {
		c.wrong.add("%c %d: reply %q, reference %q", p.op.kind, p.op.key, line, want)
	}
	return true
}
