package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"rex/internal/wire"
)

// FuzzDeltaDecode throws arbitrary bytes at the delta decoder, which reads
// WAL records and Paxos values. It must never panic, and whatever it
// accepts must survive a decode→encode→decode round trip unchanged.
func FuzzDeltaDecode(f *testing.F) {
	d := &Delta{
		Rebase:  Cut{1, 2},
		Base:    Cut{1, 2},
		ReqBase: 7,
		Threads: make([]ThreadLog, 2),
		Reqs:    []Req{{Client: 9, Seq: 3, Class: 4, Body: []byte("hello")}, {Client: 9, Seq: 4}},
		Marks:   []Mark{{ID: 5, Cut: Cut{1, 1}}},
	}
	d.Threads[0].Append(0, Event{Kind: KindLockAcq, Res: 3, Arg: 17}, []EventID{{1, 2}, {1, 1}})
	d.Threads[1].Append(1, Event{Kind: KindValue, Res: 1, Arg: 12345}, nil)
	f.Add(d.EncodeBytes())
	tr := buildFig2()
	f.Add((&Delta{Base: Cut{0, 0}, Threads: tr.Threads, Reqs: tr.Reqs}).EncodeBytes())
	f.Add((&Delta{}).EncodeBytes())
	f.Add(oversizedEventCount())
	f.Fuzz(func(t *testing.T, data []byte) {
		d1, err := DecodeDeltaBytes(data)
		if err != nil {
			return
		}
		b1 := d1.EncodeBytes()
		d2, err := DecodeDeltaBytes(b1)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v\ninput %x\nencoded %x", err, data, b1)
		}
		if b2 := d2.EncodeBytes(); !bytes.Equal(b1, b2) {
			t.Fatalf("round trip unstable:\nfirst  %x\nsecond %x", b1, b2)
		}
	})
}

// oversizedEventCount is an 8-byte delta (version 2, no rebase, empty
// base, ReqBase 0, one thread) that claims 1<<20 events on its thread.
func oversizedEventCount() []byte {
	return binary.AppendUvarint([]byte{deltaVersion, 0, 0, 0, 1}, 1<<20)
}

// TestDecodeDeltaBoundsAllocByInput pins the fix for counts that were
// trusted up to 1<<28 and allocated before any item was read: an 8-byte
// input must be rejected as corrupt without allocating for a million
// events.
func TestDecodeDeltaBoundsAllocByInput(t *testing.T) {
	in := oversizedEventCount()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeDeltaBytes(in)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("decode(%x) err = %v, want %v", in, err, wire.ErrCorrupt)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decode of %d bytes allocated %d bytes, want < 1 MiB", len(in), got)
	}
	// The same bound covers cut lengths and the class table.
	for name, b := range map[string][]byte{
		"base cut":    binary.AppendUvarint([]byte{deltaVersion, 0}, 1<<20),
		"class table": binary.AppendUvarint([]byte{deltaVersion, 0, 0, 0, 0, 0}, 1<<20),
	} {
		if _, err := DecodeDeltaBytes(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: decode(%x) err = %v, want %v", name, b, err, wire.ErrCorrupt)
		}
	}
}
