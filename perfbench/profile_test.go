package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(field int, v uint64) pb { return b.varint(uint64(field) << 3).varint(v) }

func (b pb) bytes(field int, body []byte) pb {
	return append(b.varint(uint64(field)<<3|2).varint(uint64(len(body))), body...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var body pb
	for _, v := range vs {
		body = body.varint(v)
	}
	return b.bytes(field, body)
}

func gzipped(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileStacksSynthetic(t *testing.T) {
	strs := []string{"", "runtime.mallocgc", "optanestudy/internal/cache.(*LLC).Insert",
		"optanestudy/internal/platform.(*MemCtx).Load", "samples", "count"}
	var p pb
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ {
		p = p.bytes(5, pb{}.uint(1, id).uint(2, id)) // function id → string id
	}
	// Location 1 holds Insert inlined into Load (innermost line first);
	// location 2 is mallocgc alone.
	p = p.bytes(4, pb{}.uint(1, 1).bytes(4, pb{}.uint(1, 2)).bytes(4, pb{}.uint(1, 3)))
	p = p.bytes(4, pb{}.uint(1, 2).bytes(4, pb{}.uint(1, 1)))
	// One sample with packed fields, one with unpacked ones.
	p = p.bytes(2, pb{}.packed(1, 2, 1).packed(2, 5, 5000000))
	p = p.bytes(2, pb{}.uint(1, 1).uint(2, 3).uint(2, 3000000))

	stacks, weights, err := profileStacks(gzipped(t, p))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"runtime.mallocgc", "optanestudy/internal/cache.(*LLC).Insert", "optanestudy/internal/platform.(*MemCtx).Load"},
		{"optanestudy/internal/cache.(*LLC).Insert", "optanestudy/internal/platform.(*MemCtx).Load"},
	}
	if len(stacks) != 2 || strings.Join(stacks[0], ",") != strings.Join(want[0], ",") ||
		strings.Join(stacks[1], ",") != strings.Join(want[1], ",") {
		t.Fatalf("stacks = %q, want %q", stacks, want)
	}
	if weights[0] != 5 || weights[1] != 3 {
		t.Errorf("weights = %v, want [5 3]", weights)
	}
	if got := bucketShares(stacks, weights); got["cache"] != 1 {
		t.Errorf("every sample's innermost repo frame is in cache, shares = %v", got)
	}

	if _, _, err := profileStacks(gzipped(t, p[:len(p)-3])); err == nil {
		t.Error("a truncated profile must be an error")
	}
}

var spinSink int

//go:noinline
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += i
		}
	}
}

// TestProfileStacksRuntime decodes a profile written by runtime/pprof.
func TestProfileStacksRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, weights, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inSpin int64
	for i, st := range stacks {
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += weights[i]
				break
			}
		}
	}
	if inSpin == 0 {
		t.Errorf("no sample of %d has spin on its stack", len(stacks))
	}
}
