package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fakeKV serves the line protocol from a map. lose, when set, names SETs
// the server acknowledges without storing; skew is added to every value a
// GET returns; refuse names request verbs the server answers with ERR.
type fakeKV struct {
	mu     sync.Mutex
	vals   map[uint64]uint64
	sets   int
	lose   func(n int) bool
	skew   uint64
	refuse string
}

func startFake(t *testing.T, f *fakeKV) string {
	t.Helper()
	f.vals = map[uint64]uint64{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				sc := bufio.NewScanner(c)
				bw := bufio.NewWriter(c)
				for sc.Scan() {
					fmt.Fprintln(bw, f.reply(strings.Fields(sc.Text())))
					bw.Flush()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func (f *fakeKV) reply(fields []string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	key, _ := strconv.ParseUint(fields[1], 10, 64)
	if fields[0] == f.refuse {
		return "ERR apply failed"
	}
	switch fields[0] {
	case "SET":
		v, _ := strconv.ParseUint(fields[2], 10, 64)
		f.sets++
		if f.lose == nil || !f.lose(f.sets) {
			f.vals[key] = v
		}
		return "OK"
	case "DEL":
		delete(f.vals, key)
		return "OK"
	case "GET":
		if v, ok := f.vals[key]; ok {
			return "VALUE " + strconv.FormatUint(v+f.skew, 10)
		}
		return "NOTFOUND"
	}
	return "ERR unknown"
}

// driveFake stores every key, runs one round of kv-write traffic (when
// round is set) against a fake server, reads every key back, and returns
// the wrong outputs and the refused requests.
func driveFake(t *testing.T, f *fakeKV, round bool) (wrong int, failed int64) {
	t.Helper()
	addr := startFake(t, f)
	spec := kvSpecs["kv-write"]
	spec.keysPerConn, spec.opsPerConn = 64, 512
	keys, _ := pickKeys(1, 1, spec.keysPerConn, 0)
	ops := makeOps(spec, 1, 0, keys[0])
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newKVClient(conn)
	preload, readBack := keyOps('S', keys[0]), keyOps('G', keys[0])
	lists := [][]kvOp{preload, readBack}
	if round {
		lists = [][]kvOp{preload, ops, readBack}
	}
	for round, list := range lists {
		round := round
		_, n, err := c.exchange(list, spec.depth, func(i int) uint64 { return value(1, 0, round, i) }, nil)
		if err != nil {
			t.Fatalf("exchange: %v", err)
		}
		failed += n
	}
	return c.wrong.n, failed
}

func TestReferenceModelAcceptsCorrectServer(t *testing.T) {
	if n, failed := driveFake(t, &fakeKV{}, true); n != 0 || failed != 0 {
		t.Fatalf("correct server produced %d wrong outputs, %d refusals", n, failed)
	}
}

func TestReferenceModelCatchesWrongValue(t *testing.T) {
	if n, _ := driveFake(t, &fakeKV{skew: 1}, true); n == 0 {
		t.Fatal("a server returning wrong values passed the reference model")
	}
}

func TestReferenceModelCatchesLostWrite(t *testing.T) {
	// Acknowledge the 10th SET without storing it: the read-back must show
	// the one silently dropped write.
	if n, _ := driveFake(t, &fakeKV{lose: func(n int) bool { return n == 10 }}, false); n != 1 {
		t.Fatal("a server losing an acknowledged write passed the reference model")
	}
}

func TestRefusedRequestsAreWrongOutputs(t *testing.T) {
	// A server that refuses every DEL the same way on every run must not
	// pass as correct.
	n, failed := driveFake(t, &fakeKV{refuse: "DEL"}, true)
	if failed == 0 || n < int(failed) {
		t.Fatalf("%d refused DELs gave %d wrong outputs", failed, n)
	}
}

func TestPickKeysOwnSlots(t *testing.T) {
	keys, probe := pickKeys(7, 2, 4096, kvProbe)
	seen := map[[2]int]uint64{}
	for _, list := range append(keys, probe...) {
		for _, k := range list {
			if k == 0 {
				t.Fatal("key 0 is not a valid protocol key")
			}
			if other, dup := seen[slotOf(k)]; dup {
				t.Fatalf("keys %d and %d share slot %v", k, other, slotOf(k))
			}
			seen[slotOf(k)] = k
		}
	}
	for sh, list := range probe {
		for _, k := range list {
			if slotOf(k)[0] != sh {
				t.Fatalf("probe key %d is not on shard %d", k, sh)
			}
		}
	}
	_, probe2 := pickKeys(8, 2, 4096, kvProbe)
	for sh := range probe {
		for i := range probe[sh] {
			if probe[sh][i] != probe2[sh][i] {
				t.Fatal("probe keys depend on the workload seed")
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := newZipf(2048, 0.99)
	counts := make([]int, 2048)
	for i := 0; i < 100000; i++ {
		counts[z.next((float64(i)+0.5)/100000)]++
	}
	top := 0
	for _, c := range counts[:128] {
		top += c
	}
	if top < 60000 {
		t.Fatalf("top 128 of 2048 zipf(0.99) ranks drew %d of 100000, want most", top)
	}
}
