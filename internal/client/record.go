package client

// Recorder observes client operations as a concurrent history for the
// linearizability checker (check.History implements it).
type Recorder interface {
	// Invoke records an operation's start and returns its id.
	Invoke(client uint64, input []byte) uint64
	// Return records a successful completion with the response bytes.
	Return(id uint64, output []byte)
	// Timeout marks the operation's outcome as unknown: it may or may not
	// take effect at any point after the invocation.
	Timeout(id uint64)
	// Discard drops an operation every attempt of which was answered with
	// a definite did-not-execute NACK, which keeps the checker's search
	// space bounded under overload.
	Discard(id uint64)
}

// Op is one recorded operation; with a nil Recorder it records nothing.
type Op struct {
	rec Recorder
	id  uint64
}

// Record invokes input on rec for client.
func Record(rec Recorder, client uint64, input []byte) Op {
	if rec == nil {
		return Op{}
	}
	return Op{rec: rec, id: rec.Invoke(client, input)}
}

// Return completes the op with its response.
func (o Op) Return(output []byte) {
	if o.rec != nil {
		o.rec.Return(o.id, output)
	}
}

// Fail ends the op without a response: discarded when definite (no
// attempt can have executed), otherwise left with an unknown outcome.
func (o Op) Fail(definite bool) {
	switch {
	case o.rec == nil:
	case definite:
		o.rec.Discard(o.id)
	default:
		o.rec.Timeout(o.id)
	}
}
