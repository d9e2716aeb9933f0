package paxos

import (
	"bytes"
	"testing"
)

// FuzzMessageDecode throws arbitrary bytes at the peer-message decoder,
// which reads every frame a peer sends. It must never panic, and whatever
// it accepts must survive a decode→encode→decode round trip unchanged.
func FuzzMessageDecode(f *testing.F) {
	for _, m := range []*message{
		{Kind: mPrepare, Ballot: Ballot{3, 1}, FromInst: 9, Epoch: 1},
		{Kind: mPromise, Ballot: Ballot{7, 2}, Inst: 11, FromInst: 3, ChosenSeq: 10, Val: []byte("proposal"),
			Accepted: []acceptedEntry{{Inst: 10, Ballot: Ballot{6, 1}, Val: []byte("old")}, {Inst: 11, Ballot: Ballot{7, 2}}}},
		{Kind: mAccept, Ballot: Ballot{1, 1}, Inst: 2, Epoch: 1, Val: []byte("v")},
		{Kind: mHeartbeat, Ballot: Ballot{4, 0}, Inst: 123456789, ChosenSeq: 40},
		{Kind: mLearnReply, FromInst: 5, Vals: [][]byte{[]byte("a"), nil, []byte("ccc")}},
		{Kind: mEpochNack, Epoch: 3, FromInst: 17, Val: []byte{1, 2, 3}},
	} {
		f.Add(m.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := decodeMessage(data)
		if err != nil {
			return
		}
		b1 := m1.encode()
		m2, err := decodeMessage(b1)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v\ninput %x\nencoded %x", m1.Kind, err, data, b1)
		}
		if b2 := m2.encode(); !bytes.Equal(b1, b2) {
			t.Fatalf("round trip unstable:\nfirst  %x\nsecond %x", b1, b2)
		}
	})
}
