package pmem

import (
	"bytes"
	"testing"
)

// fuzzRegionSize is the log region FuzzRecoverBatches writes its input
// into; longer inputs are cut to it.
const fuzzRegionSize = 8 << 10

// FuzzRecoverBatches writes arbitrary bytes into a log region with
// WriteDurable and replays it. Recovery must never panic — the region
// panics on any read outside its window, which sits between two other
// pages of the namespace — and may deliver only records whose frames,
// with their batches' commit lines, fit inside the region. Replaying the
// same bytes twice must deliver the same records.
func FuzzRecoverBatches(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, ns := testPlatform(t)
		reg, err := NewRegion(ns, 4096, fuzzRegionSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > fuzzRegionSize {
			data = data[:fuzzRegionSize]
		}
		reg.WriteDurable(0, data)
		replay := func() (batches, recs int, out [][]byte) {
			batches, recs = RecoverBatches(reg, func(rec []byte) {
				out = append(out, append([]byte(nil), rec...))
			})
			return batches, recs, out
		}
		batches, recs, out := replay()
		if recs != len(out) {
			t.Fatalf("reported %d records, delivered %d", recs, len(out))
		}
		used := int64(batches) * batchCommitSize
		for _, rec := range out {
			used += 4 + int64(len(rec)) // length field and payload
		}
		if used > reg.Size() {
			t.Fatalf("%d batches of %d records span %d bytes, more than the %d-byte region", batches, recs, used, reg.Size())
		}
		b2, r2, out2 := replay()
		if b2 != batches || r2 != recs || len(out2) != len(out) {
			t.Fatalf("second replay: %d/%d, first %d/%d", b2, r2, batches, recs)
		}
		for i := range out {
			if !bytes.Equal(out[i], out2[i]) {
				t.Fatalf("record %d differs between replays", i)
			}
		}
	})
}
