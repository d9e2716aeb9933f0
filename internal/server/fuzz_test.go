package server

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/wire"
)

// FuzzRequestDecode throws arbitrary payloads at the server's request
// decoder and handler: nothing may panic, and a payload the decoder
// accepts — the only kind that reaches a replica — must be well-formed:
// re-encoding it decodes to the same request.
func FuzzRequestDecode(f *testing.F) {
	tok := readpath.Token{Group: 1, Epoch: 2, Applied: 9, Cut: []int32{3, 4}}
	for _, req := range []request{
		{kind: KindSubmit, group: 0, client: 7, seq: 3, body: []byte("set k v")},
		{kind: KindSubmit, client: 7, seq: 4, body: []byte("x"), budget: 250 * time.Millisecond},
		{kind: KindQuery, group: 2, level: readpath.Session, token: tok, body: []byte("get k")},
		{kind: KindShardMap},
		{kind: KindStatus, group: 1},
		{kind: KindReconfig, body: []byte{ReconfigAdd, 3, 0, 0}},
		{kind: KindMembership},
	} {
		f.Add(req.appendFrame(nil)[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version - 1, KindSubmit, 0, 1, 1, 1, 'x'})
	f.Add([]byte{Version, 99, 0, 0, 0, 0})
	f.Add([]byte{Version, KindQuery, 0, 0, 0, 9, 0, 0, 0, 0, 0})
	f.Add([]byte{Version, KindSubmit, 0, 1, 1, 1, 'x', 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A server hosting no replica: every request is answered without
		// one, so nothing can succeed.
		s := &Server{replicas: map[int]*core.Replica{}}
		if status, body := s.handle(data); status == StatusOK {
			t.Fatalf("request %x answered ok (%x) with no replica hosted", data, body)
		}
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		if req.kind == KindQuery && !req.level.Valid() {
			t.Fatalf("accepted query with level %d", req.level)
		}
		if req.budget < 0 || req.budget > overload.MaxWireDeadline {
			t.Fatalf("accepted deadline %v", req.budget)
		}
		again, err := decodeRequest(req.appendFrame(nil)[4:])
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", req, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n%+v\n%+v", req, again)
		}
	})
}

// FuzzResponseDecode throws arbitrary responses at the TCP Conn's
// decoder: nothing may panic, only StatusOK yields a response, and every
// failure is an error the client core classifies.
func FuzzResponseDecode(f *testing.F) {
	ok := wire.NewEncoder(nil)
	readpath.Token{Epoch: 1, Applied: 5, Cut: []int32{2}}.Encode(ok)
	ok.BytesVal([]byte("resp"))
	f.Add(append([]byte{StatusOK}, ok.Bytes()...))
	f.Add([]byte{StatusOK})
	f.Add([]byte{StatusOverloaded, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{StatusNotPrimary, 0x80})
	f.Add([]byte{42, 'x'})
	for _, err := range replicaErrors {
		status, body := errStatus(err)
		f.Add(append([]byte{status}, body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		resp, _, err := decodeReply(data[0], data[1:])
		if err == nil {
			if data[0] != StatusOK {
				t.Fatalf("status %d decoded as success", data[0])
			}
			return
		}
		if resp != nil {
			t.Fatalf("failure %v carried a response", err)
		}
		var np core.ErrNotPrimary
		typed := errors.As(err, &np)
		for _, s := range sentinels {
			typed = typed || errors.Is(err, s)
		}
		if !typed {
			t.Fatalf("status %d decoded to unclassified %v", data[0], err)
		}
		if ra := overload.RetryAfter(err); ra < 0 || ra > overload.MaxWireDeadline {
			t.Fatalf("retry-after %v out of range", ra)
		}
	})
}
